"""The ``antichains`` subcommand: the antichains of one system's short
positive root poset, counted over the poset and by the formulas."""

from . import antichains as ac
from .rootsystem import build


def run(args):
    rs = build(args.system)
    report = ac.antichain_report(rs)
    payload = {
        "system": rs.spec,
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
    return payload, lines, 0 if report.consistent else 1
