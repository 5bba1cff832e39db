"""The kernel interface the benchmark harness reads.

``perfbench/`` reads ``_kernel.HAVE_SPEEDUPS`` and ``KernelOps.name``
for its run environment, and its tracer patches ``_kernel.ops_for`` and
wraps the returned ops with ``KernelOps._replace``.  A short traced run
breaks here, not at the next benchmark run, if any of them goes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_groebner_run_sees_the_kernel():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "groebner", "--seed", "5", "--trace", "1", "--ops", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    env = json.loads(lines[0].removeprefix("env: "))
    assert env["kernel_lane_f7"] == "pure"
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["kernel.add.calls"]["value"] > 0
    assert metrics["kernel.divmod.calls"]["value"] > 0
