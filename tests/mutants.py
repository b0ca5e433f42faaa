"""Mutation survey of the library: how many one-token changes to a module
the test suite kills.

    python tests/mutants.py weyl reduction --sites 12 --seed 1

Each mutant makes one change at one site of a module:
- a comparison flipped (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``);
- ``+`` and ``-`` swapped, or ``*`` and ``//``;
- 1 added to an int constant.

The sites of each module are listed from its syntax tree and a seeded
sample of them is taken.  The repository is copied once into a temporary
directory, and each mutant is written into that copy only, so the tree it
came from is never changed.  The suite runs on the copy with ``-x``, the
module's own test file first; a failing run kills the mutant and so does a
run past ``TIMEOUT`` seconds (a mutant that never ends).  A survivor that is
listed in ``EQUIVALENT`` changes no result, for the reason given there;
any other survivor is real and wants a test, and the script exits 1 while
one is left.  Pytest does not collect this file, and a full survey costs
about one run of the suite per survivor.
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIMEOUT = 90  # seconds per run of the suite

_FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
          ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
          ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"),
          ast.FloorDiv: ("//", "*")}

# (module, the mutated line as it reads, stripped, before, after) -> why
# the mutant changes no result
EQUIVALENT = {
    ("weyl.py", "perm += [(b + p) % (2 * p) for b in perm]", "+", "-"):
        "b + p and b - p agree modulo 2p",
    ("weyl.py", "for _ in range(p + 1):", "1", "2"):
        "a refusal comes one strip later with the same message; only a tuple outside W"
        " whose descent stops after exactly p + 1 strips would be answered instead",
    ("reduction.py", "for part in range(1, n + 1):", "1", "2"):
        "the extra part n + 1 exceeds every total up to n, so its inner loop never runs",
}

def sites(path: Path):
    """Every mutation site of a module, in source order, as (line, start,
    end, before, after): the byte span [start, end) of that line holds the
    token before, to be replaced by after."""
    source = path.read_bytes()
    lines = source.splitlines(keepends=True)
    out = []

    def operator_between(left, right, op):
        # the operator's token lies between its operands, on one line
        before, after = _FLIPS[type(op)]
        if left.end_lineno != right.lineno:
            return
        line = lines[right.lineno - 1]
        gap = line[left.end_col_offset:right.col_offset].decode()
        if gap.replace("(", "").replace(")", "").strip() == before:
            start = left.end_col_offset + len(gap.encode()) - len(gap.lstrip(" ()").encode())
            out.append((right.lineno, start, start + len(before.encode()), before, after))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and type(node.op) in _FLIPS:
            operator_between(node.left, node.right, node.op)
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops,
                                       node.comparators):
                if type(op) in _FLIPS:
                    operator_between(left, right, op)
        elif isinstance(node, ast.Constant) and type(node.value) is int \
                and node.lineno == node.end_lineno:
            out.append((node.lineno, node.col_offset, node.end_col_offset,
                        str(node.value), str(node.value + 1)))
    return sorted(out)


def mutate(path: Path, site) -> bytes:
    line, start, end, before, after = site
    lines = path.read_bytes().splitlines(keepends=True)
    text = lines[line - 1]
    assert text[start:end].decode() == before, (path.name, site)
    lines[line - 1] = text[:start] + after.encode() + text[end:]
    return b"".join(lines)


def run_tests(copy: Path, module: str) -> str:
    """'killed', 'timeout' or 'survived': the suite on the copy with -x, the
    module's own test file first (pytest collects a file once)."""
    own = copy / "tests" / f"test_{module}.py"
    args = [str(own)] if own.exists() else []
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args, "tests"],
            cwd=copy, env=env, timeout=TIMEOUT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def survey(modules, count, seed, workdir):
    copy = Path(workdir) / "repo"
    shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
    real = 0
    for module in modules:
        path = copy / "src" / "shortroots" / f"{module}.py"
        original = path.read_bytes()
        found = sites(path)
        sample = sorted(random.Random(f"{seed}:{module}").sample(found, min(count, len(found))))
        tally = {"killed": 0, "timeout": 0, "equivalent": 0, "survived": 0}
        for site in sample:
            line, _, _, before, after = site
            text = original.splitlines()[line - 1].decode().strip()
            path.write_bytes(mutate(path, site))
            try:
                verdict = run_tests(copy, module)
            finally:
                path.write_bytes(original)
            reason = EQUIVALENT.get((path.name, text, before, after))
            if verdict == "survived" and reason:
                verdict = "equivalent"
            tally[verdict] += 1
            print(f"{path.name}:{line}: {before} -> {after}: {verdict}"
                  + (f" ({reason})" if verdict == "equivalent" else f"  | {text}"), flush=True)
        killed = tally["killed"] + tally["timeout"]
        print(f"{path.name}: {killed} of {len(sample)} killed ({tally['timeout']} by the timeout),"
              f" {tally['equivalent']} equivalent, {tally['survived']} real survivors,"
              f" {len(found)} sites in all", flush=True)
        real += tally["survived"]
    return real


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/shortroots")
    parser.add_argument("--sites", type=int, default=12, help="sites sampled per module")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        real = survey(args.modules, args.sites, args.seed, tmp)
    return 1 if real else 0


if __name__ == "__main__":
    sys.exit(main())
