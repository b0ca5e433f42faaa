"""The ``info`` subcommand: the constants of one system, and on a system
with two root lengths its little adjoint module and simple reduction."""

from . import littleadjoint as la
from . import reduction as red
from .rootsystem import build, dual_coxeter_of_dual


def run(args):
    rs = build(args.system)
    info = {
        "system": rs.spec,
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
    return info, lines, 0
