"""One workload process: set up, run operations, check the outputs.

Started by ``run.py`` in a fresh interpreter, so that set-up time and
peak memory belong to the workload alone.  It prints ``ready`` as soon
as set-up is done and, unless ``--mode setup``, one JSON line with the
results at the end.

Modes:
  setup    build the inputs, print ``ready``, exit
  timed    closed loop (one client) for ``--seconds``; latencies, peak RSS
  count    exactly ``--ops`` operations, optionally traced (``--trace 1``)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_dfactor():
    sys.path.insert(0, str(SRC))
    import dfactor

    if not Path(dfactor.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"dfactor was imported from {dfactor.__file__}, not from {SRC}")


def git_sha():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed):
    from dfactor import _kernel
    from dfactor.fields import GF
    from dfactor.rings import Ambient

    return {
        "kernel_lane_f7": Ambient(GF(7), ("x",)).ops.name,
        "have_speedups": _kernel.HAVE_SPEEDUPS,
        "dfactor_pure": os.environ.get("DFACTOR_PURE"),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(wl, count=None, seconds=None):
    """Closed loop: the next operation starts when the previous returns.

    Peak RSS is read once the pool has been run through once (or at the
    end, if that comes first), so it measures a fixed amount of work and
    does not grow with the number of repeats a faster program fits in.
    """
    n = wl.pool_size
    lat, raws = [], []
    rss = None
    k = 0
    start = time.perf_counter()
    stop = start + seconds if seconds is not None else None
    while True:
        i = k % n
        t0 = time.perf_counter()
        try:
            raw = wl.run(i, k)
        except Exception as exc:  # an exception is a failed operation
            raw = exc
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        raws.append(raw if k < n or wl.keep_repeats else None)
        k += 1
        if k == n:
            rss = peak_rss_mb()
        if (stop is not None and t1 >= stop) or (count is not None and k >= count):
            return lat, raws, t1 - start, rss if rss is not None else peak_rss_mb()


def check_ops(wl, raws):
    """Check every result; repeats of an input must match its first result."""
    failures = []
    first: dict = {}
    for k, raw in enumerate(raws):
        i = k % wl.pool_size
        if isinstance(raw, Exception):
            failures.append(f"op {k}: {type(raw).__name__}: {raw}")
            continue
        if raw is None:  # a repeat whose result was not kept
            continue
        result = wl.collect(i, k, raw)
        if i not in first:
            first[i] = result
            problem = wl.check(i, result)
        else:
            problem = None if result == first[i] else "repeat differs from the first run"
        if problem:
            failures.append(f"op {k} (input {i}): {problem}")
    # one more run of input 0, outside the timed phase: byte-identical output
    k = len(raws)
    rerun = wl.collect(0, k, wl.run(0, k))
    if 0 in first and rerun != first[0]:
        failures.append("rerun of input 0 is not byte-identical")
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "timed", "count"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--ops", type=int, default=0, help="count mode; 0 = the workload's size")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--workdir", required=True, help="directory for input and report files")
    args = ap.parse_args(argv)

    import_dfactor()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        wl.run = _op_spans(tracer, wl.run)
    if args.mode == "timed":
        lat, raws, wall, rss_mb = run_ops(wl, seconds=args.seconds)
    else:
        lat, raws, wall, rss_mb = run_ops(wl, count=args.ops or wl.trace_ops)
    out = {
        "env": environment(args.workload, args.seed),
        "ops": len(lat),
        "distinct_inputs": min(len(lat), wl.pool_size),
        "wall_s": wall,
        "latencies_s": lat,
        "peak_rss_mb": rss_mb,
        "tail_pct": wl.tail_pct,
    }
    if tracer is not None:
        out["layers"] = {k: list(v) for k, v in tracing.layer_metrics(tracer).items()}
        out["spans"] = len(tracer.start)
        if args.trace_out:
            tracer.dump(args.trace_out)
    out["failures"] = check_ops(wl, raws)
    print(json.dumps(out), flush=True)
    return 0


def _op_spans(tracer, run):
    """One root span per operation; every span below it shares its op id."""
    span_run = tracer.span("op", run)

    def traced(i, k):
        tracer.op_id = k
        return span_run(i, k)

    return traced


if __name__ == "__main__":
    sys.exit(main())
