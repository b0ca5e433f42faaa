"""The ``nullcone-char`` subcommand: the graded nullcone character of one
system up to a degree, with its Hilbert series check."""

from . import gradedchar as gc
from .rootsystem import build


def run(args):
    rs = build(args.system)
    degree = args.max_degree
    report = gc.hilbert_check(rs, degree)
    char = sorted(report.character.entries.items())
    payload = {
        "system": rs.spec,
        "truncation": degree,
        "entries": [{"weight": list(w), "multiplicity": poly} for w, poly in char],
        "hilbert_ok": report.ok,
        "first_mismatch": report.first_mismatch,
        "dimension_series": [report.dimension_series.coeff(k) for k in range(degree + 1)],
        **report.character.work,
    }
    lines = [f"graded nullcone character of {rs.spec} up to degree {degree}"]
    for w, poly in char:
        lines.append(f"  [{','.join(map(str, w))}]  {poly}")
    lines.append(f"hilbert check  {'pass' if report.ok else 'FAIL at degree ' + str(report.first_mismatch)}")
    return payload, lines, 0 if report.ok else 1
