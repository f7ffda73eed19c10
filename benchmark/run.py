"""Benchmark of fhn-gamma: one workload, one seed, one measured run.

    python3 benchmark/run.py --workload limit_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory.  The run

1. times the set-up (a fresh interpreter importing ``fhn_gamma`` and
   building the inputs from the seed) SETUP_REPEATS times and keeps the
   median;
2. builds the inputs in this process and runs whole rounds of the
   workload until ``--seconds`` have passed;
3. checks every output against ``reference``, which is computed apart from
   the package;
4. writes the per-round timings, the result values and, with ``--trace 1``,
   the spans to ``benchmark/out/``;
5. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   metrics, which are the end-to-end metrics without tracing and the
   per-layer metrics with it.

It exits with code 2, printing no result, when the package source is not
there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (used to time set-up)")
    return parser.parse_args(argv)


def import_package():
    """Import fhn_gamma from this checkout's src, or exit with code 2."""
    init = SRC / "fhn_gamma" / "__init__.py"
    if not init.is_file():
        print(f"error: package source {init} not found; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fhn_gamma
    if Path(fhn_gamma.__file__).resolve() != init.resolve():
        print(f"error: imported fhn_gamma from {fhn_gamma.__file__}, not {init}",
              file=sys.stderr)
        sys.exit(2)


def time_setup(args) -> float:
    """Wall time of a fresh interpreter that imports the package and
    builds this workload's inputs."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure(workload, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed: [(wall_s, Round)]."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        result = workload.run_round()
        rounds.append((time.perf_counter() - t0, result))
    return rounds


def ops_per_s(rounds) -> float:
    """Median over rounds of completed operations per second."""
    return statistics.median((r.attempted - r.failed) / wall for wall, r in rounds)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        workload_cls(args.seed)
        return 0

    setup_s = statistics.median(time_setup(args) for _ in range(SETUP_REPEATS))
    workload = workload_cls(args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        rounds = measure(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outputs = [out for _wall, r in rounds for out in r.outputs]
        if tracer:
            import layers
            mark = len(tracer.spans)
            counts = tracer.counts()
            metrics, probed = layers.per_layer_metrics(
                tracer, workload.layer_counts(outputs))
    finally:
        if tracer:
            tracer.uninstall()

    attempted = sum(r.attempted for _w, r in rounds)
    failed = sum(r.failed for _w, r in rounds)
    errors = workload.check(outputs) if outputs else []
    throughput = ops_per_s(rounds)
    if not tracer:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_per_s": {"value": throughput, "unit": "1/s"},
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "round_wall_s": [wall for wall, _r in rounds],
        "ops_per_s": throughput, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": failed, "errors": errors[:50],
        "check_stats": getattr(workload, "check_stats", {}),
        "metrics": metrics,
        "results": workload.record(outputs) if outputs else {},
    }
    if tracer:
        record["probed_metrics"] = probed
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.trace.jsonl", mark, counts)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
