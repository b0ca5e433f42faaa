"""Cold-process benchmark of the shortroots CLI.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout (``src/shortroots`` must exist).
One client in a closed loop: every operation of a workload runs as a cold
``python -m shortroots.cli <argv> --json`` child, one at a time, and its
output is checked against ``golden.json``.  The seed shuffles the order of
the operations within each pass; the program receives only argv.

``--trace 0`` reports the bounded end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose children run ``traced_cli.py`` (every
public function of the package wrapped in a span) and reports per-layer
self times, work counters, the tracing overhead, the time no span covers,
and the unbounded end-to-end metrics.  Human-readable tables go to stdout first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import golden  # noqa: E402
from workloads import REFERENCE_S, WORKLOADS, op_id  # noqa: E402

SETUP_SAMPLES = 8          # cold imports per run, spread evenly over its passes
DEADLINE_S = 170          # a run stops, reporting correct: false, past this
TAIL_BEYOND = 10          # samples that must lie above the tail percentile
MODULES = ("rootsystem", "weyl", "littleadjoint", "reduction", "antichains",
           "gradedchar", "checks", "cli")
CHECK_DETAIL_COUNTERS = ("weyl_order", "orderings_tested", "poset_size", "brute_force",
                         "entries", "degree")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import shortroots.cli; "
                "print(time.perf_counter() - t)")
# A fixed computation that uses only the standard library (rationals,
# tuples and dicts, like the package).  One child runs it before every
# REF_EVERY-th operation of an untraced pass; cpu_rel divides the pass's
# CPU time by the median of these, which cancels the drifting speed of a
# VM that shares its host.
REF_PROBE = ("from fractions import Fraction\nd = {}\nfor i in range(30000):\n"
             "    k = (i % 97, i % 13)\n    d[k] = d.get(k, 0) + Fraction(i, 7)\n")
REF_EVERY = 2
# CPU seconds of one reference child on the reference VM (2-vCPU Intel
# Xeon, Python 3.11) at the seed.  setup_s is the cold import time scaled
# by REF_NOMINAL_S over the run's median reference CPU time: seconds at
# the reference VM's speed, so that drifting speed does not read as a
# change of set-up time.  The raw time is printed as import_s.
REF_NOMINAL_S = 0.18

# Every end-to-end metric, as printed in the table.
TABLE_UNITS = {"setup_s": "s", "import_s": "s", "cpu_rel": "ratio", "peak_rss_mb": "MB", "wall_s": "s",
               "cpu_s": "s", "op_p50_s": "s", "op_tail_s": "s", "error_ratio": "ratio",
               "capped_ratio": "ratio"}
# The bounded ones, in the JSON line of --trace 0.  On a 2-vCPU VM whose
# host is shared, speed drifts by up to 25% within minutes and the raw
# times spread up to 38% over ten runs, so they go in the JSON line of
# --trace 1 without a bound; so do the two ratios, which can be 0.
END_TO_END = {k: TABLE_UNITS[k] for k in ("setup_s", "cpu_rel", "peak_rss_mb")}
UNBOUNDED = ("wall_s", "cpu_s", "op_p50_s", "op_tail_s", "error_ratio", "capped_ratio")
# The JSON line of --trace 1: the unbounded end-to-end metrics, per-layer
# times that every workload makes nonzero (a module's self time includes
# its import), and deterministic work counters.  Function-level times that
# are zero on some workload are printed in the table only.
PER_LAYER = {
    **{k: TABLE_UNITS[k] for k in UNBOUNDED},
    **{f"{m}.self_s": "s" for m in MODULES},
    "rootsystem.build_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead": "ratio",
    "rootsystem.build_calls": "count",
    "rootsystem.roots": "count",
    "weyl.elements": "count",
    "littleadjoint.weights": "count",
    "littleadjoint.delta_partition_calls": "count",
    "gradedchar.entries": "count",
    "gradedchar.graded_multiplicity_calls": "count",
    "antichains.antichains": "count",
    "antichains.poset_size": "count",
    "checks.pass": "count",
    "checks.skipped": "count",
    "checks.fail": "count",
    **{f"checks.{k}": "count" for k in CHECK_DETAIL_COUNTERS},
    "cli.output_bytes": "count",
}
# Function-level times: metric -> (self or inclusive time, span labels).
FUNCTION_TIMES = {
    "gradedchar.nullcone_character.self_s": ("self", ["gradedchar.nullcone_character"]),
    "gradedchar.graded_multiplicity_s": ("incl", ["gradedchar.graded_multiplicity"]),
    "weyl.enumerate_group_s": ("incl", ["weyl.enumerate_group"]),
    "weyl.coxeter_s": ("incl", ["weyl.coxeter_element", "weyl.coxeter_orbits"]),
    "weyl.semidirect_s": ("incl", ["weyl.decompose_semidirect", "weyl.closure",
                                   "weyl.long_subgroup", "weyl.short_parabolic"]),
    "littleadjoint.delta_partition_s": ("incl", ["littleadjoint.delta_partition"]),
    "littleadjoint.freudenthal_s": ("incl", ["littleadjoint.freudenthal"]),
    "rootsystem.build_s": ("incl", ["rootsystem.build"]),
    "antichains.count_s": ("incl", ["antichains.count_antichains"]),
}
CALL_COUNTS = {
    "rootsystem.build_calls": "rootsystem.build",
    "littleadjoint.delta_partition_calls": "littleadjoint.delta_partition",
    "gradedchar.graded_multiplicity_calls": "gradedchar.graded_multiplicity",
}


class RunAborted(Exception):
    """A child did not finish before the run's deadline."""


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SHORTROOTS_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(cmd, env, deadline):
    """Run one child to completion: exit code, stdout, stderr, wall time,
    and user+sys CPU and peak RSS from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    streams = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for stream in streams:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.monotonic()
                if left <= 0:
                    proc.kill()
                    proc.wait()
                    raise RunAborted(f"{' '.join(cmd)} did not finish before the deadline")
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        streams[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for stream in streams:
            stream.close()
    return {
        "code": proc.returncode,
        "stdout": b"".join(streams[proc.stdout]).decode(),
        "stderr": b"".join(streams[proc.stderr]).decode(),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def self_times(spans):
    """Per-label self time, inclusive time and call count of one child's
    spans; self time is a span's duration minus its children's."""
    self_s, incl_s, calls = Counter(), Counter(), Counter()
    for label, start, end, _ in spans:
        self_s[label] += end - start
        incl_s[label] += end - start
        calls[label] += 1
    for _, start, end, parent in spans:
        if parent >= 0:
            self_s[spans[parent][0]] -= end - start
    covered = sum(end - start for _, start, end, parent in spans if parent < 0)
    return self_s, incl_s, calls, covered


def check_counters(argv, code, stdout):
    """Deterministic counters from the details of verify's checks."""
    counts = Counter()
    if argv[0] != "verify" or code not in (0, 1):
        return counts
    for check in json.loads(stdout)["checks"]:
        counts[f"checks.{check['status']}"] += 1
        for key in CHECK_DETAIL_COUNTERS:
            value = check["details"].get(key)
            if isinstance(value, int) and not isinstance(value, bool):
                counts[f"checks.{key}"] += value
    return counts


class Run:
    """One benchmark run: its passes, per-operation samples and verdicts."""

    def __init__(self, workload, seed, seconds, trace):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.passes = max(2 if trace else 1, round(self.spec["passes"] * seconds / REFERENCE_S))
        self.trace = trace
        self.golden = golden.load()
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = self.failed = 0
        self.errors = []
        self.units = [0, 0]                  # attempted, capped
        self.latencies = {}                  # op id -> [seconds]
        self.plain, self.traced = [], []     # per-pass summaries
        self.setup = []                      # seconds per cold import
        self.aborted = None

    def _probe(self, code):
        """Run one ``python -c code`` child, which must succeed."""
        res = run_child([sys.executable, "-c", code], self.env, self.deadline)
        if res["code"] != 0:
            raise RunAborted(f"probe failed: {res['stderr'].strip()}")
        return res

    def _op(self, argv, traced):
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), *argv, "--json"]
        else:
            cmd = [sys.executable, "-m", "shortroots.cli", *argv, "--json"]
        res = run_child(cmd, self.env, self.deadline)
        envelope = None
        if traced and res["code"] == 0:
            envelope = json.loads(res["stdout"])
            res["code"], res["stdout"] = envelope["exit"], envelope["stdout"]
        self.attempted += 1
        why = golden.mismatch(argv, res["code"], res["stdout"], res["stderr"],
                              self.golden[op_id(argv)])
        if why:
            self.failed += 1
            self.errors.append(f"{op_id(argv)}: {why}")
        attempted, capped = golden.units(argv, res["code"], res["stdout"], res["stderr"])
        self.units[0] += attempted
        self.units[1] += capped
        res["counters"] = Counter() if why else check_counters(argv, res["code"], res["stdout"])
        return res, envelope

    def _pass(self, traced):
        order = self.rng.sample(self.spec["ops"], len(self.spec["ops"]))
        summary = {"wall": 0.0, "cpu": 0.0, "rss_mb": 0.0, "counters": Counter(),
                   "self": Counter(), "incl": Counter(), "calls": Counter(),
                   "uncovered": 0.0, "bytes": 0, "ref": []}
        for i, argv in enumerate(order):
            if not traced and i % REF_EVERY == 0:
                summary["ref"].append(self._probe(REF_PROBE)["cpu"])
            res, envelope = self._op(argv, traced)
            summary["wall"] += res["wall"]
            summary["cpu"] += res["cpu"]
            summary["rss_mb"] = max(summary["rss_mb"], res["rss_mb"])
            summary["counters"].update(res["counters"])
            summary["bytes"] += len(res["stdout"].encode())
            if envelope is None:
                if not traced:
                    self.latencies.setdefault(op_id(argv), []).append(res["wall"])
                continue
            self_s, incl_s, calls, covered = self_times(envelope["spans"])
            summary["self"].update(self_s)
            summary["incl"].update(incl_s)
            summary["calls"].update(calls)
            summary["counters"].update(envelope["counters"])
            summary["uncovered"] += res["wall"] - covered
        (self.traced if traced else self.plain).append(summary)

    def execute(self):
        n, k = self.passes, SETUP_SAMPLES
        try:
            self._probe(IMPORT_PROBE)   # warm-up: writes the bytecode cache
            for i in range(n):
                probes = max((i + 1) * k // n - i * k // n, int(i == 0))
                self.setup += [float(self._probe(IMPORT_PROBE)["stdout"]) for _ in range(probes)]
                self._pass(traced=self.trace and i % 2 == 1)
        except RunAborted as exc:
            self.aborted = str(exc)

    def counters(self):
        """Work counters of one pass, or None if two passes disagree.
        Traced passes add counters from wrapped calls to those of the output."""
        for passes in (self.traced, self.plain):
            if passes:
                first = passes[0]["counters"]
                if any(p["counters"] != first for p in passes):
                    return None
        return dict((self.traced or self.plain)[0]["counters"])

    def op_samples(self):
        return sorted(x for xs in self.latencies.values() for x in xs)

    def end_to_end(self):
        samples = self.op_samples()
        n = len(samples)
        tail = samples[n - 1 - TAIL_BEYOND] if n > TAIL_BEYOND else samples[-1]
        reference = statistics.median(r for p in self.plain for r in p["ref"])
        import_s = statistics.median(self.setup)
        return {
            "setup_s": import_s * REF_NOMINAL_S / reference,
            "import_s": import_s,
            "cpu_rel": statistics.median(p["cpu"] / statistics.median(p["ref"])
                                         for p in self.plain),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in self.plain),
            "wall_s": statistics.median(p["wall"] for p in self.plain),
            "cpu_s": statistics.median(p["cpu"] for p in self.plain),
            "op_p50_s": statistics.median(samples),
            "op_tail_s": tail,
            "error_ratio": self.failed / self.attempted,
            "capped_ratio": self.units[1] / self.units[0],
        }

    def tail_percentile(self):
        n = len(self.op_samples())
        return 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 100.0

    def per_layer(self, e2e):
        def med(fn):
            return statistics.median(fn(p) for p in self.traced)

        layer = {k: e2e[k] for k in UNBOUNDED}
        for m in MODULES:
            layer[f"{m}.self_s"] = med(lambda p: sum(v for k, v in p["self"].items()
                                                     if k.split(".")[0] == m))
        for name, (kind, labels) in FUNCTION_TIMES.items():
            layer[name] = med(lambda p: sum(p[kind][lab] for lab in labels))
        for cid in sorted(golden_check_ids(self.golden)):
            layer[f"checks.{cid}_s"] = med(lambda p: p["incl"][f"checks.{cid}"])
        layer["trace.uncovered_s"] = med(lambda p: p["uncovered"])
        layer["trace.overhead"] = med(lambda p: p["wall"]) / statistics.median(
            p["wall"] for p in self.plain)
        for name, label in CALL_COUNTS.items():
            layer[name] = self.traced[0]["calls"][label]
        layer["cli.output_bytes"] = self.traced[0]["bytes"]
        counters = self.counters() or {}
        for name, unit in PER_LAYER.items():
            if unit == "count" and name not in layer:
                layer[name] = counters.get(name, 0)
        return layer


def golden_check_ids(store):
    return {c["id"] for g in store.values() if g["output"] and "checks" in g["output"]
            for c in g["output"]["checks"]}


def print_tables(run, e2e, layer):
    print(f"workload {run.name}: {run.passes} passes "
          f"({len(run.plain)} untraced, {len(run.traced)} traced), "
          f"{run.attempted} operations, {run.failed} failed")
    print("  pass wall (s): " + " ".join(f"{p['wall']:.3f}" for p in run.plain))
    print("  reference cpu (s): " + " ".join(f"{statistics.median(p['ref']):.4f}" for p in run.plain))
    n = len(run.op_samples())
    print(f"  op_tail_s is the p{run.tail_percentile():.1f} latency of {n} samples")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.6f} {TABLE_UNITS[name]}")
    print("  per-operation median latency (s):")
    for op, xs in sorted(run.latencies.items()):
        print(f"    {statistics.median(xs):8.4f}  {op}")
    if layer:
        print("  per-layer (median over traced passes, per pass):")
        for name, value in layer.items():
            print(f"    {name:<42} {value:14.6f}" if isinstance(value, float)
                  else f"    {name:<42} {value:14d}")
    for err in run.errors:
        print(f"  ERROR {err}")
    if run.aborted:
        print(f"  ABORTED {run.aborted}")


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (run, end-to-end metrics, per-layer metrics)."""
    run = Run(workload, seed, seconds, trace)
    run.execute()
    if not run.plain:
        return run, None, None
    e2e = run.end_to_end()
    layer = run.per_layer(e2e) if run.traced else None
    return run, e2e, layer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "shortroots", "cli.py")):
        print(f"error: no shortroots source under {ROOT}/src", file=sys.stderr)
        return 1
    run, e2e, layer = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if e2e is None or (args.trace and layer is None):
        print(f"error: no pass completed ({run.aborted})", file=sys.stderr)
        return 1
    print_tables(run, e2e, layer)
    counters_ok = run.counters() is not None
    if not counters_ok:
        print("  ERROR work counters differ between passes")
    if args.trace:
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({
        "correct": run.failed == 0 and counters_ok and run.aborted is None,
        "attempted": run.attempted,
        "failed": run.failed + (run.aborted is not None),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
