"""Batch command line interface.

Subcommands: info, verify, table1, antichains, nullcone-char.  All accept
--json; exit codes are 0 (all good), 1 (a verification check or a
library self-check failed) and 2 (usage or validation error, or output
that cannot be written, such as a closed pipe or a full disk).  Output
is ASCII and byte-identical across runs; timings are opt-in because
they would break that.  A CLI process ends by ``os._exit`` once its
stdout and stderr are flushed (``entry``), so no ``atexit`` handler runs
in it: a coverage run of CLI children needs its own hook.

Importing this module loads only ``rootsystem``, ``cartan`` and ``errors``.
The engines are lazy modules of the package, reached through their module
objects (``gc.hilbert_check``), so each subcommand compiles and runs only
the modules it calls: ``antichains`` adds ``antichains`` and ``config``,
``nullcone-char`` adds ``gradedchar``, its table module ``qtables`` and
``config``, ``verify --check sign-partition`` adds ``checks`` and
``littleadjoint``, and a full ``verify`` loads everything.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

from . import antichains as ac
from . import checks
from . import gradedchar as gc
from . import littleadjoint as la
from . import reduction as red
from .errors import IdentityViolation, SizeLimitExceeded
from .rootsystem import RootSystem, build, dual_coxeter_of_dual

SCHEMA_VERSION = 1


def jsonable(value):
    """Exactness-preserving JSON encoding: a value with a ``to_json`` method
    (a polynomial) encodes itself, and result records become maps of their
    fields."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if hasattr(value, "_asdict"):   # a record is a tuple too: test it first
        value = value._asdict()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def _system_block(rs: RootSystem) -> dict:
    return {"family": rs.spec.family, "rank": rs.rank}


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(jsonable(payload), indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_info(args) -> int:
    rs = build(args.system)
    info = {
        "schemaVersion": SCHEMA_VERSION,
        "system": _system_block(rs),
        "roots": len(rs.roots),
        "positive_roots": rs.num_positive,
        "short_positive_roots": len(rs.short_positives),
        "coxeter_number": rs.coxeter_number,
        "dual_coxeter_number": rs.dual_coxeter_number,
        "dual_coxeter_of_dual": dual_coxeter_of_dual(rs),
        "exponents": list(rs.exponents),
        "weyl_order": rs.weyl_order,
        "theta": list(rs.theta.coeffs),
        "theta_s": list(rs.theta_short.coeffs),
        "ht_theta": rs.theta.height,
        "ht_theta_s": rs.theta_short.height,
        "simple_root_numbering": "Bourbaki",
    }
    lines = [
        f"system        {rs.spec}",
        f"roots         {info['roots']} ({rs.num_positive} positive, "
        f"{len(rs.short_positives)} short positive)",
        f"h             {rs.coxeter_number}",
        f"h_dual        {rs.dual_coxeter_number}",
        f"exponents     {' '.join(str(m) for m in rs.exponents)}",
        f"|W|           {rs.weyl_order}",
        f"theta         {rs.theta}  (ht {rs.theta.height})",
        f"theta_s       {rs.theta_short}  (ht {rs.theta_short.height})",
        "numbering     Bourbaki",
    ]
    if rs.is_multiply_laced:
        reduced = red.simple_reduction(rs)
        ledger = red.dimension_ledger(rs)
        dims = la.little_adjoint_dims(rs)
        info["little_adjoint"] = {
            "dim": dims.dim,
            "zero_multiplicity": dims.zero_mult,
            "short_root_count": dims.short_count,
        }
        info["reduction"] = {
            "sub_type": str(reduced.sub_spec),
            "sub_coxeter_number": reduced.sub_coxeter_number,
            "transition_factor": reduced.transition_factor,
        }
        info["dimension_ledger"] = ledger._asdict()
        lines += [
            f"dim V         {dims.dim}  (zero weight multiplicity {dims.zero_mult})",
            f"reduction     {reduced.sub_spec}  (h_s {reduced.sub_coxeter_number}, "
            f"factor {reduced.transition_factor})",
            f"nullcone dims {ledger.module_nullcone_dim} vs "
            f"{ledger.reduction_nullcone_dim} (ratio {ledger.transition_factor})",
        ]
    _emit(info, args.json, lines)
    return 0


def cmd_verify(args) -> int:
    ids = checks.selected_ids(args.check)   # refuse an unknown id before the build
    rs = build(args.system)
    started = time.perf_counter()
    results = []
    for cid in ids:
        check_started = time.perf_counter()
        status, details = checks.run_check(cid, rs)
        result = {"id": cid, "status": status, "details": details}
        if args.timings:
            result["elapsed_seconds"] = round(time.perf_counter() - check_started, 3)
        results.append(result)
    elapsed = time.perf_counter() - started
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for r in results:
        counts[r["status"]] += 1
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "system": _system_block(rs),
        "checks": results,
        "summary": counts,
    }
    if args.timings:
        payload["elapsed_seconds"] = round(elapsed, 3)
    lines = []
    for r in results:
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r["status"]]
        extra = ""
        if r["status"] == "skipped":
            extra = "  (" + r["details"].get("reason", "") + ")"
        elif r["status"] == "fail":
            extra = "  " + json.dumps(jsonable(r["details"]), sort_keys=True)
        if args.timings:
            extra += f"  {r['elapsed_seconds']:.3f}s"
        lines.append(f"{mark} {r['id']}{extra}")
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped"
    )
    if args.timings:
        lines.append(f"elapsed {elapsed:.3f}s")
    _emit(payload, args.json, lines)
    return 1 if counts["fail"] else 0


_TABLE_SYSTEMS = [f"C{n}" for n in range(2, 7)] + [f"B{n}" for n in range(2, 7)] + ["F4", "G2"]


def cmd_table1(args) -> int:
    rows = []
    for name in _TABLE_SYSTEMS:
        rs = build(name)
        row = red.summary_row(rs)._asdict()
        if name == "B2":
            row["isomorphic_to"] = "C2"
        elif name == "C2":
            row["isomorphic_to"] = "B2"
        rows.append(row)
    payload = {"schemaVersion": SCHEMA_VERSION, "rows": rows}
    header = f"{'system':<8}{'dim':>5}{'h':>5}  {'reduction':<10}{'h_s':>4}{'orbits':>7}  ambient"
    lines = [header, "-" * len(header)]
    for row in rows:
        iso = f"  (= {row['isomorphic_to']})" if "isomorphic_to" in row else ""
        lines.append(
            f"{row['system']:<8}{row['module_dim']:>5}{row['coxeter_number']:>5}  "
            f"{row['sub_type']:<10}{row['sub_coxeter_number']:>4}{row['orbit_count']:>7}  "
            f"{row['ambient_algebra']}{iso}"
        )
    _emit(payload, args.json, lines)
    return 0


def cmd_antichains(args) -> int:
    rs = build(args.system)
    report = ac.antichain_report(rs)
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "system": _system_block(rs),
        "brute_force": report.brute_force_count,
        "formula": report.formula_count,
        "alt_formula": report.alt_formula_count,
        "consistent": report.consistent,
    }
    alt = "-" if report.alt_formula_count is None else str(report.alt_formula_count)
    lines = [
        f"antichains in the short positive root poset of {rs.spec}",
        f"poset count  {report.brute_force_count}",
        f"formula      {report.formula_count}",
        f"alt formula  {alt}",
        f"consistent   {'yes' if report.consistent else 'NO'}",
    ]
    _emit(payload, args.json, lines)
    return 0 if report.consistent else 1


def cmd_nullcone_char(args) -> int:
    rs = build(args.system)
    degree = args.max_degree
    report = gc.hilbert_check(rs, degree)
    char = sorted(report.character.entries.items())
    entries = [{"weight": list(w), "multiplicity": jsonable(poly)} for w, poly in char]
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "system": _system_block(rs),
        "truncation": degree,
        "entries": entries,
        "hilbert_ok": report.ok,
        "first_mismatch": report.first_mismatch,
        "dimension_series": [report.dimension_series.coeff(k) for k in range(degree + 1)],
        **report.character.work,
    }
    lines = [f"graded nullcone character of {rs.spec} up to degree {degree}"]
    for w, poly in char:
        lines.append(f"  [{','.join(map(str, w))}]  {poly}")
    lines.append(f"hilbert check  {'pass' if report.ok else 'FAIL at degree ' + str(report.first_mismatch)}")
    _emit(payload, args.json, lines)
    return 0 if report.ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortroots",
        description="exact root system combinatorics and verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="constants of one system")
    p_info.add_argument("system", help="type and rank, e.g. C4 or G2")
    p_info.add_argument("--json", action="store_true")
    p_info.set_defaults(func=cmd_info)

    p_verify = sub.add_parser("verify", help="run the verification catalog")
    p_verify.add_argument("system")
    p_verify.add_argument("--check", action="append", metavar="ID",
                          help="restrict to one check id (repeatable)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall time (breaks byte-determinism)")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table1", help="summary table of the four families")
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(func=cmd_table1)

    p_anti = sub.add_parser("antichains", help="antichain counts for one system")
    p_anti.add_argument("system")
    p_anti.add_argument("--json", action="store_true")
    p_anti.set_defaults(func=cmd_antichains)

    p_null = sub.add_parser("nullcone-char", help="graded nullcone character")
    p_null.add_argument("system")
    p_null.add_argument("--max-degree", type=int, default=8)
    p_null.add_argument("--json", action="store_true")
    p_null.set_defaults(func=cmd_nullcone_char)

    return parser


def main(argv=None) -> int:
    """Run one command line; its exit code.  Every path flushes stdout
    here, so that a write that fails is reported as exit code 2."""
    try:
        code = _run(argv)
        sys.stdout.flush()   # a buffered write fails here, not at exit
        return code
    except OSError as exc:
        # point stdout at devnull, so that a later flush (entry's) fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the output: {exc.strerror}", file=sys.stderr)
        return 2


def _run(argv) -> int:
    help_text = io.StringIO()   # argparse drops a write of the help that fails
    try:
        with contextlib.redirect_stdout(help_text):
            args = make_parser().parse_args(argv)
    except SystemExit as exc:   # --help, or a usage error already on stderr
        if text := help_text.getvalue():   # an empty write fails too on a full device
            sys.stdout.write(text)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:   # NotFiniteType and UnsupportedRootSystem among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except IdentityViolation as exc:
        print(f"fail: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The ``shortroots`` console script and ``python -m shortroots.cli``:
    run main, flush both streams and end the process with ``os._exit``.
    That skips the interpreter's teardown, which frees every module and
    table only for the exit to hand the memory back, and is a tenth of a
    short run's CPU time; so no ``atexit`` handler runs.  An exception
    that escapes main takes the normal exit."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
