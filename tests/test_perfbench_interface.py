"""The kernel and hom-space interface the benchmark harness reads.

``perfbench/`` reads ``_kernel.HAVE_SPEEDUPS`` and ``KernelOps.name``
for its run environment, and its tracer patches ``_kernel.ops_for`` and
wraps the returned ops with ``KernelOps._replace``; it counts hom-space
unknowns from ``GradedSpace.layout``, ``_valid``, ``_cycles`` and
``degree``.  Its division rows read three things: the kernel's one
division, ``KernelOps.divmod_basis``, wrapped by that field name; the
truthiness of ``QuotientRing._gb_terms``, false exactly when the ideal
is empty; and the ``Poly`` entries of the remainder that
``modgb.vec_divmod`` returns first.  A short traced run breaks here,
not at the next benchmark run, if any of them goes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_run(workload, ops):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--trace", "1", "--ops", str(ops)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_traced_groebner_run_sees_the_kernel():
    lines = _traced_run("groebner", 3)
    env = json.loads(lines[0].removeprefix("env: "))
    assert env["kernel_lane_f7"] == "pure"
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    # rings.groebner is the rank-1 case of the module engine, which
    # divides through vec_divmod by the kernel's division and makes
    # elements monic with the kernel's scale
    assert metrics["kernel.scale.calls"]["value"] > 0
    assert metrics["kernel.divmod.calls"]["value"] > 0
    assert metrics["modgb.vec_divmod.calls"]["value"] > 0
    assert metrics["modgb.module_groebner.calls"]["value"] > 0


def test_traced_axioms_run_sees_the_hom_spaces():
    # the tracer reads GradedSpace's layout, _valid, _cycles and degree
    result = json.loads(_traced_run("axioms", 2)[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["sampling.graded_space.unknowns"]["value"] > 0
    assert metrics["linalg.kernel_basis.calls"]["value"] > 0
