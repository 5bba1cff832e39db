#!/usr/bin/env python3
"""dfactor benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {axioms,groebner,decide} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a dfactor checkout; it imports the package from
``src/``.  ``--trace 0`` prints the end-to-end metrics of an untraced
run, ``--trace 1`` the per-layer metrics of a traced run.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("axioms", "groebner", "decide")
SETUP_SAMPLES = 5  # fresh interpreters per run; setup_s is their median
WORKER_TIMEOUT_S = 150.0
# Shared by the workers of one run, one after another: set-up samples after
# the first rewrite the input files instead of creating them, which keeps
# file-system creation cost out of most setup_s samples.
WORKDIR = ROOT / ".perfbench" / f"work-{os.getpid()}"


def spawn(args, timeout):
    """Start a worker; return (seconds until it printed ready, its output lines)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--workdir", str(WORKDIR)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker {args} exceeded {timeout} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise SystemExit(f"worker {args} failed with exit code {proc.returncode}")
    return ready_s, rest.splitlines()


def tail(lat_ms, pct):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(lat_ms)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(args):
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [spawn(["--mode", "setup", *base], 60)[0] for _ in range(SETUP_SAMPLES - 1)]
    ready_s, lines = spawn(["--mode", "timed", "--seconds", str(args.seconds), *base],
                           WORKER_TIMEOUT_S)
    setups.append(ready_s)
    res = json.loads(lines[-1])
    lat_ms = [s * 1000.0 for s in res["latencies_s"]]
    tail_ms, beyond = tail(lat_ms, res["tail_pct"])
    attempted = res["ops"] + 1  # the timed operations and the rerun
    failed = len(res["failures"])
    print(f"env: {json.dumps(res['env'], sort_keys=True)}")
    print(f"ops: {res['ops']} timed ({res['distinct_inputs']} distinct inputs) + 1 rerun; "
          f"timed phase {res['wall_s']:.3f} s; one client, closed loop")
    print(f"op_tail_ms is p{res['tail_pct']}: {tail_ms:.3f} ms "
          f"with {beyond} of {len(lat_ms)} samples beyond it")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"failed_share: {failed / attempted:.6f} ({failed} of {attempted})")
    for line in res["failures"][:20]:
        print(f"FAILED {line}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (res["ops"] / res["wall_s"], "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return failed == 0, attempted, failed, metrics


def per_layer(args):
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    ops = ["--mode", "count", "--ops", str(args.ops)]
    _, plain = spawn([*ops, *base], WORKER_TIMEOUT_S)
    prefix = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}"
    _, traced = spawn([*ops, "--trace", "1", "--trace-out", str(prefix), *base],
                      WORKER_TIMEOUT_S)
    plain, traced = json.loads(plain[-1]), json.loads(traced[-1])
    failures = plain["failures"] + traced["failures"]
    attempted = plain["ops"] + traced["ops"] + 2
    print(f"env: {json.dumps(traced['env'], sort_keys=True)}")
    print(f"ops: {traced['ops']} per run, traced and untraced; {traced['spans']} spans "
          f"written to {prefix.relative_to(ROOT)}.spans")
    print(f"failed_share: {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    for line in failures[:20]:
        print(f"FAILED {line}")
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.overhead"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    return not failures, attempted, len(failures), metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="operations per traced run (default: the workload's fixed size)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dfactor" / "__init__.py").is_file():
        print(f"no dfactor sources under {ROOT / 'src'}; run from a dfactor checkout",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        correct, attempted, failed, metrics = (per_layer if args.trace else end_to_end)(args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
