"""The ``table1`` subcommand: the summary table of the four families with
two root lengths."""

from . import reduction as red
from .rootsystem import build

_TABLE_SYSTEMS = [f"C{n}" for n in range(2, 7)] + [f"B{n}" for n in range(2, 7)] + ["F4", "G2"]


def run(args):
    rows = []
    for name in _TABLE_SYSTEMS:
        rs = build(name)
        row = red.summary_row(rs)._asdict()
        if name == "B2":
            row["isomorphic_to"] = "C2"
        elif name == "C2":
            row["isomorphic_to"] = "B2"
        rows.append(row)
    header = f"{'system':<8}{'dim':>5}{'h':>5}  {'reduction':<10}{'h_s':>4}{'orbits':>7}  ambient"
    lines = [header, "-" * len(header)]
    for row in rows:
        iso = f"  (= {row['isomorphic_to']})" if "isomorphic_to" in row else ""
        lines.append(
            f"{row['system']:<8}{row['module_dim']:>5}{row['coxeter_number']:>5}  "
            f"{row['sub_type']:<10}{row['sub_coxeter_number']:>4}{row['orbit_count']:>7}  "
            f"{row['ambient_algebra']}{iso}"
        )
    return {"rows": rows}, lines, 0
