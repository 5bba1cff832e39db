#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

For each workload it checks that

* an untraced run prints every end-to-end metric of BENCHMARK.json with
  its unit, and its outputs are correct;
* two traced runs with the same seed print every per-layer metric with
  its unit, and every deterministic counter (calls, divmods, unknowns,
  entries and shares) is identical between them.

Timings are never compared.  Exit code 0 when all checks hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_units(result, spec, label):
    metrics = result["metrics"]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    assert not missing, f"{label}: metrics missing: {missing}"
    wrong = [m["name"] for m in spec if metrics[m["name"]]["unit"] != m["unit"]]
    assert not wrong, f"{label}: wrong units: {wrong}"
    extra = sorted(set(metrics) - {m["name"] for m in spec})
    assert not extra, f"{label}: metrics not in BENCHMARK.json: {extra}"


def deterministic(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "share")}


def main():
    problems = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        try:
            plain = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0")
            check_units(plain, SPEC["end_to_end"], f"{workload} end-to-end")
            assert plain["correct"] and plain["failed"] == 0, f"{workload}: outputs failed"
            first, second = (bench("--workload", workload, "--seed", "5", "--trace", "1",
                                   "--ops", "3") for _ in range(2))
            check_units(first, SPEC["per_layer"], f"{workload} per-layer")
            a, b = deterministic(first), deterministic(second)
            diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
            assert not diff, f"{workload}: counters differ between same-seed runs: {diff}"
            assert any(a.values()), f"{workload}: every counter is zero"
            print(f"ok   {workload}: {len(a)} counters repeat exactly")
        except AssertionError as exc:
            problems.append(str(exc))
            print(f"FAIL {exc}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
