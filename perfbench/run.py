"""Benchmark for buchstab: four workloads, end-to-end or per layer.

Run from the root of a source checkout (the package is imported from
./src, never from site-packages):

    python3 perfbench/run.py --workload exact-counts --seed 1 --seconds 20 --trace 0

--trace 0 times the workload with nothing wrapped and prints the
end-to-end metrics; --trace 1 times one round untraced, then the same
round with every public layer function wrapped by perfbench/spans.py,
and prints the per-layer metrics.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
WORKDIR = os.path.join(".perfbench", "work")
TRACE_DIR = os.path.join(".perfbench", "traces")


def _percentile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) by the 'inclusive' method of statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _setup_seconds(args) -> float:
    """Median wall time of child processes that only do the set-up:
    interpreter start, imports, input generation and cache-dir creation."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(WORKDIR, f"probe-{os.getpid()}-{i}")
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--setup-probe", probe_dir]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        times.append(time.perf_counter() - start)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times)


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_untraced(wl, args, rec) -> dict:
    rounds = []
    errors = []
    peak = None
    measured = 0.0
    while True:
        start = time.perf_counter()
        rnd = wl.run_round(rec)
        round_s = time.perf_counter() - start
        if peak is None:
            peak = _peak_rss_mb(wl.rss_scope)
        rounds.append(rnd)
        measured += round_s
        errors += wl.check(rnd)
        rnd.outputs = None
        if len(rounds) >= wl.min_rounds and measured + measured / len(rounds) > args.seconds:
            break
    warm = [t for r in rounds for t in r.warm_s]
    if wl.rss_scope == resource.RUSAGE_CHILDREN:
        peak = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    metrics = {
        "setup_s": _metric(args.setup_s, "s"),
        "solve_s": _metric(statistics.median(r.solve_s for r in rounds), "s"),
        "peak_rss_mb": _metric(peak, "MB"),
        "warm_p50_ms": _metric(1000.0 * statistics.median(warm), "ms"),
        "warm_p90_ms": _metric(1000.0 * _percentile(warm, 0.9), "ms"),
    }
    print(f"# {args.workload}: {len(rounds)} round(s), {len(warm)} warm samples, "
          f"solve_s per round {[round(r.solve_s, 3) for r in rounds]}", file=sys.stderr)
    return {"metrics": metrics, "errors": errors}


COUNTERS = {
    "counts.cells": "count", "omega.integrate_block.calls": "count",
    "omega_k.blocks_built": "count", "store.bytes_written": "B", "store.bytes_read": "B",
    "store.cache_lookups": "count", "store.cache_hits": "count",
}


def run_traced(wl, args, rec) -> dict:
    from spans import TARGETS, Tracer

    untraced = wl.trace_round(rec)
    errors = wl.check(untraced)
    untraced.outputs = None
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.trace_round(rec)
    finally:
        tracer.uninstall()
    errors += wl.check(traced)
    inclusive = tracer.inclusive_seconds()
    metrics = {f"{name}.s": _metric(inclusive.get(name, 0.0), "s")
               for name in dict.fromkeys(span for _, _, span in TARGETS)}
    for name, unit in COUNTERS.items():
        metrics[name] = _metric(tracer.counters.get(name, 0), unit)
    lookups = tracer.counters.get("store.cache_lookups", 0)
    hits = tracer.counters.get("store.cache_hits", 0)
    metrics["store.cache_hit_ratio"] = _metric(hits / lookups if lookups else 0.0, "ratio")
    metrics["store.cache_mb"] = _metric(getattr(wl, "cache_bytes", 0) / 1e6, "MB")
    metrics["cli.startup_ms"] = _metric(wl.startup_ms() if hasattr(wl, "startup_ms") else 0.0,
                                        "ms")
    for layer, seconds in tracer.layer_self_seconds().items():
        metrics[f"{layer}.self_s"] = _metric(seconds, "s")
    metrics["trace.solve_s"] = _metric(traced.solve_s, "s")
    metrics["trace.untraced_solve_s"] = _metric(untraced.solve_s, "s")
    metrics["trace.overhead_s"] = _metric(traced.solve_s - untraced.solve_s, "s")
    path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "skipped": tracer.skipped, "counters": tracer.counters})
    if tracer.skipped:
        print(f"# skipped trace targets: {tracer.skipped}", file=sys.stderr)
    print(f"# spans written to {path}", file=sys.stderr)
    return {"metrics": metrics, "errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "buchstab", "__init__.py")):
        print("error: run from the root of a buchstab checkout (no src/buchstab here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS, Recorder

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, args.setup_probe).prepare()
        return 0

    args.setup_s = _setup_seconds(args) if args.trace == 0 else 0.0
    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        wl.prepare()
        if os.path.dirname(wl.pkg.__file__) != os.path.join(src, "buchstab"):
            print(f"error: buchstab imported from {wl.pkg.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        rec = Recorder()
        result = run_traced(wl, args, rec) if args.trace else run_untraced(wl, args, rec)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for line in rec.failures[:20]:
        print(f"# failed: {line}", file=sys.stderr)
    for line in result["errors"][:20]:
        print(f"# wrong: {line}", file=sys.stderr)
    correct = not result["errors"]
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
