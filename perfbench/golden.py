"""Golden outputs of every benchmark operation, and the rules that check
a new output against them.

``golden.json`` holds, per operation, the exit code, the parsed ``--json``
output and the stderr text of the seed commit.  A new answer meets its
golden when:

* every field present in the golden has the same value in the new output
  (fields the golden lacks, such as added work counters, are ignored);
* a golden ``skipped`` check is matched by a skip, or by a ``pass`` (the
  check now runs and its own cross-check holds);
* a golden refusal (exit 2, ``refused:``) is matched by a refusal, or by
  exit 0 with the operation's own cross-check passing;
* a ``verify`` summary agrees with the statuses of its own checks.

Regenerate (only when a change of output is intended and explained):
``python3 perfbench/golden.py`` from the repository root.
"""

import json
import os
import subprocess
import sys

from workloads import WORKLOADS, op_id

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
SCOPE_SKIP = "single root length"   # out of scope, not a cap

# Whether an answered operation passes its own cross-check, per subcommand.
SELF_CHECKS = {
    "antichains": lambda out: out["consistent"] is True and out["brute_force"] == out["formula"],
    "nullcone-char": lambda out: out["hilbert_ok"] is True,
}


def load():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def parse_output(stdout: str):
    """The parsed --json document, or None when there is none."""
    return json.loads(stdout) if stdout.strip() else None


def _diff(golden, new, path):
    """First path at which new departs from golden, or None."""
    if isinstance(golden, dict):
        if not isinstance(new, dict):
            return path
        for key, value in golden.items():
            if key not in new:
                return f"{path}.{key} missing"
            bad = _diff(value, new[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(golden, list):
        if not isinstance(new, list) or len(new) != len(golden):
            return f"{path} length"
        for i, (g, n) in enumerate(zip(golden, new)):
            bad = _diff(g, n, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if type(golden) is not type(new) or golden != new:
        return f"{path}: {golden!r} -> {new!r}"
    return None


def _diff_verify(golden, new):
    new_checks = {c.get("id"): c for c in new.get("checks", [])}
    if sorted(new_checks) != sorted(c["id"] for c in golden["checks"]):
        return "check ids"
    for g in golden["checks"]:
        n = new_checks[g["id"]]
        if g["status"] == "skipped":
            if n.get("status") == "skipped" and n.get("details", {}).get("reason"):
                continue
            if n.get("status") == "pass":
                continue
            return f"{g['id']}: skipped -> {n.get('status')}"
        bad = _diff(g, n, g["id"])
        if bad:
            return bad
    statuses = [c["status"] for c in new["checks"]]
    summary = {s: statuses.count(s) for s in ("pass", "fail", "skipped")}
    if new.get("summary") != summary:
        return "summary disagrees with the checks"
    rest = {k: v for k, v in golden.items() if k not in ("checks", "summary")}
    return _diff(rest, new, "")


def mismatch(argv, code, stdout, stderr, golden):
    """Why the answer does not meet its golden, or None if it does."""
    command = argv[0]
    try:
        out = parse_output(stdout)
    except ValueError:
        return "stdout is not JSON"
    if golden["exit"] == 2 and golden["stderr"].startswith("refused:"):
        if code == 2:
            return None if stderr.startswith("refused:") else f"stderr {stderr.strip()!r}"
        if code == 0 and out is not None and command in SELF_CHECKS:
            try:
                return None if SELF_CHECKS[command](out) else "answer fails its own cross-check"
            except (KeyError, TypeError):
                return "answer lacks its cross-check fields"
        return f"exit {golden['exit']} -> {code}"
    if code != golden["exit"]:
        return f"exit {golden['exit']} -> {code}"
    if golden["output"] is None:
        return None if out is None else "unexpected output"
    if not isinstance(out, dict):
        return "no output"
    if command == "verify":
        try:
            return _diff_verify(golden["output"], out)
        except (KeyError, TypeError, AttributeError):
            return "malformed verify output"
    return _diff(golden["output"], out, "")


def units(argv, code, stdout, stderr):
    """(attempted, capped) units of one answer.

    A unit is one check result of ``verify`` (scope skips excluded) and one
    whole operation otherwise; it is capped when a size limit skipped or
    refused it."""
    if argv[0] == "verify" and code in (0, 1):
        try:
            checks = parse_output(stdout)["checks"]
        except (ValueError, KeyError, TypeError):
            return 1, 0
        kept = [c for c in checks
                if SCOPE_SKIP not in str(c.get("details", {}).get("reason", ""))]
        return len(kept), sum(1 for c in kept if c.get("status") == "skipped")
    return 1, int(code == 2 and stderr.startswith("refused:"))


def main():
    from run import child_env   # run imports this module

    env = child_env()
    golden = {}
    for spec in WORKLOADS.values():
        for argv in spec["ops"]:
            proc = subprocess.run([sys.executable, "-m", "shortroots.cli", *argv, "--json"],
                                  env=env, capture_output=True, text=True, timeout=600)
            golden[op_id(argv)] = {"exit": proc.returncode, "output": parse_output(proc.stdout),
                                   "stderr": proc.stderr}
            print(f"{proc.returncode}  {op_id(argv)}")
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
