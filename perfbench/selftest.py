"""Self-test of the benchmark's correctness checking.

    python3 perfbench/selftest.py

Shows that doctored outputs count as errors, that the answers a lifted
cap produces do not, and that BENCHMARK.json names the metrics and
workloads ``run.py`` reports.  Runs two short CLI children (verify G2).
Exits 1 on the first broken expectation.
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import golden  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STORE = golden.load()


def answer(op, edit=None):
    """(argv, exit, stdout, stderr) of the golden answer of op, edited."""
    g = copy.deepcopy(STORE[op])
    out = g["output"]
    if edit is not None:
        out = edit(out)
    stdout = "" if out is None else json.dumps(out)
    return op.split(), g["exit"], stdout, g["stderr"]


def check(op, expect_error, what, code=None, stderr=None, edit=None):
    argv, exit_code, stdout, err = answer(op, edit)
    exit_code = exit_code if code is None else code
    err = err if stderr is None else stderr
    why = golden.mismatch(argv, exit_code, stdout, err, STORE[op])
    if bool(why) != expect_error:
        raise SystemExit(f"FAIL {what}: expected {'an error' if expect_error else 'a match'}, "
                         f"got {why!r}")
    print(f"ok   {what}" + (f"  ({why})" if why else ""))


def set_check(check_id, **fields):
    def edit(out):
        for c in out["checks"]:
            if c["id"] == check_id:
                c.update(fields)
        statuses = [c["status"] for c in out["checks"]]
        out["summary"] = {s: statuses.count(s) for s in ("pass", "fail", "skipped")}
        return out
    return edit


def detail(check_id, key, value):
    def edit(out):
        for c in out["checks"]:
            if c["id"] == check_id:
                c["details"][key] = value
        return out
    return edit


def main():
    # Doctored outputs are errors.
    check("verify F4", True, "changed detail value",
          edit=detail("antichain-count", "brute_force", 22))
    check("verify F4", True, "missing detail field",
          edit=lambda o: [c["details"].pop("poset_size") for c in o["checks"]
                          if c["id"] == "antichain-count"] and o)
    check("verify F4", True, "check turned from pass to skipped",
          edit=set_check("sign-partition", status="skipped", details={"reason": "x"}))
    check("verify B6", True, "skipped check turned into a failure",
          edit=set_check("semidirect-product", status="fail"))
    check("verify F4", True, "summary disagreeing with the checks",
          edit=lambda o: {**o, "summary": {"pass": 14, "fail": 0, "skipped": 1}})
    check("verify F4", True, "wrong exit code", code=1)
    check("table1", True, "changed table row",
          edit=lambda o: {**o, "rows": o["rows"][:-1] + [{**o["rows"][-1], "module_dim": 8}]})
    check("nullcone-char F4 --max-degree 8", True, "changed graded multiplicity",
          edit=lambda o: {**o, "dimension_series": [d + 1 for d in o["dimension_series"]]})
    check("info C9", True, "changed integer type", edit=lambda o: {**o, "roots": 162.0})
    check("antichains C9", True, "refusal answered inconsistently", code=0,
          edit=lambda o: {"brute_force": 1, "formula": 2, "consistent": False})
    check("antichains C9", True, "refusal turned into a usage error",
          stderr="error: something else\n")
    check("nullcone-char C5 --max-degree 6", True, "refusal answered with a failing check",
          code=0, edit=lambda o: {"hilbert_ok": False})

    # Unchanged answers, added detail and lifted caps are not errors.
    for op in STORE:
        check(op, False, f"golden answer of {op}")
    check("verify F4", False, "added work counter", edit=detail("nullcone-hilbert", "visited", 9))
    check("verify B6", False, "skipped check now passes",
          edit=set_check("semidirect-product", status="pass", details={"weyl_order": 46080}))
    check("antichains C9", False, "refusal lifted, consistent answer", code=0,
          edit=lambda o: {"brute_force": 48620, "formula": 48620, "consistent": True})
    check("nullcone-char C5 --max-degree 6", False, "refusal lifted, Hilbert check passes",
          code=0, edit=lambda o: {"hilbert_ok": True, "entries": []})

    # A doctored golden makes a real run count the operation as failed,
    # on the untraced and on the traced path.
    bench = run.Run("catalog", seed=0, seconds=1, trace=False)
    bench.golden = copy.deepcopy(STORE)
    bench.golden["verify G2"]["output"]["checks"][0]["details"]["poset_size"] = 99
    for traced in (False, True):
        bench._op(["verify", "G2"], traced)
    if bench.failed != 2 or bench.attempted != 2:
        raise SystemExit(f"FAIL run accounting: {bench.failed} of {bench.attempted} failed")
    print(f"ok   doctored golden counted as error by the run: {bench.errors}")

    # BENCHMARK.json names what run.py reports.
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if declared != run.END_TO_END or layered != run.PER_LAYER or workloads != list(WORKLOADS):
        raise SystemExit("FAIL BENCHMARK.json disagrees with run.py or workloads.py")
    print("ok   BENCHMARK.json matches run.py")
    print("self-test passed")


if __name__ == "__main__":
    main()
