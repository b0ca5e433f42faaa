"""Record one trajectory point: every workload, untraced and traced.

    python3 perfbench/record.py --seed 1 --out perfbench/BENCH_0.json

Writes the run environment (Python, nproc, CPU model, git SHA, seed), the
prediction map, and per workload the end-to-end metrics, per-operation
median latencies, per-layer metrics and work counters.  Run length is
``run_seconds`` from BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import PREDICTIONS, WORKLOADS  # noqa: E402


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "git_sha": git_sha(),
            "seed": args.seed,
            "run_seconds": seconds,
        },
        "predictions": PREDICTIONS,
        "workloads": {},
    }
    # Untraced runs first: a child's wait4 RSS includes this process's RSS at
    # spawn, which parsing the traced runs' spans would raise.
    timed = {name: run.measure(name, args.seed, seconds, trace=False) for name in WORKLOADS}
    traced = {name: run.measure(name, args.seed, seconds, trace=True) for name in WORKLOADS}
    for name, spec in WORKLOADS.items():
        (timed_run, e2e, _), (traced_run, _, layer) = timed[name], traced[name]
        for r in (timed_run, traced_run):
            if r.failed or r.aborted or r.counters() is None:
                raise SystemExit(f"{name}: run not correct: {r.errors} {r.aborted}")
        record["workloads"][name] = {
            "why": spec["why"],
            "passes": timed_run.passes,
            "op_samples": len(timed_run.op_samples()),
            "op_tail_percentile": timed_run.tail_percentile(),
            "end_to_end": e2e,
            "op_median_s": {op: statistics.median(xs)
                            for op, xs in sorted(timed_run.latencies.items())},
            "per_layer": layer,
            "counters": traced_run.counters(),
        }
        print(f"{name}: " + ", ".join(f"{k} {v:.4g}" for k, v in e2e.items()), flush=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
