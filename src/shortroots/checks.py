"""The verification catalog: every identity the library claims, keyed by a
stable check id and runnable against any system.

Each runner returns (status, details) with status one of "pass", "fail"
or "skipped"; failures carry both computed values (or the violated
self-check), skips carry the reason.  A library self-check decides its
own identity: the runner reports its values and compares none again.
The README catalog describes each id; a test keeps the two in sync.
"""

from __future__ import annotations

import random

from . import antichains as ac
from . import gradedchar as gc
from . import littleadjoint as la
from . import reduction as red
from . import weyl
from .errors import IdentityViolation, SizeLimitExceeded, UnsupportedRootSystem
from .rootsystem import RootSystem, dual_coxeter_of_dual

__all__ = ["CHECK_IDS", "run_check", "selected_ids"]

_ORDER_SAMPLE = 200
_ORDER_SEED = 20120523


def _orderings(rs: RootSystem):
    """All simple-root orderings for rank <= 4, a fixed-seed sample above."""
    import itertools

    n = rs.rank
    if n <= 4:
        return list(itertools.permutations(range(n)))
    rng = random.Random(_ORDER_SEED)
    out = []
    for _ in range(_ORDER_SAMPLE):
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(tuple(perm))
    return out


def _coxeter_sample(rs: RootSystem):
    """The number of orderings in the sample, and each distinct Coxeter
    element they build with the first ordering that builds it, in sample
    order; so a failure is reported at its first ordering.  Built once per
    system, for every check that reads it."""
    def compute():
        orderings = _orderings(rs)
        first = {}
        for ordering in orderings:
            first.setdefault(weyl.coxeter_element(rs, ordering), ordering)
        return len(orderings), tuple(first.items())

    return rs.memo("coxeter_sample", compute)


def _fail(details, **values):
    details.update(values)
    return "fail", details


def _check_root_counts(rs: RootSystem):
    n = rs.rank
    details = {
        "roots": len(rs.roots),
        "rank_times_h": n * rs.coxeter_number,
        "short_roots": 2 * len(rs.short_positives),
        "h_times_short_simples": rs.coxeter_number * len(rs.short_simple_indices),
        "exponent_sum": sum(rs.exponents),
        "positive_roots": rs.num_positive,
        "exponents": list(rs.exponents),
    }
    ok = (
        details["roots"] == details["rank_times_h"]
        and details["short_roots"] == details["h_times_short_simples"]
        and details["exponent_sum"] == details["positive_roots"]
    )
    return ("pass" if ok else "fail"), details


def _in_reflection_subgroup(rs: RootSystem, w, base, gens) -> bool:
    """Whether w lies in the subgroup generated by gens, the reflections in
    base, a base of a root subsystem that is positive in rs (the short
    simple roots, or ``long_root_base``): strip the reflection in a base
    root that w sends negative off the right while there is one; w is in
    that subgroup exactly when this ends at the identity."""
    p = rs.num_positive
    descent = [(rs.index(b), g) for b, g in zip(base, gens)]
    while (g := next((g for k, g in descent if w[k] >= p), None)) is not None:
        w = weyl.compose(w, g)
    return w == weyl.identity(rs)


def _check_semidirect(rs: RootSystem):
    short_base = [rs.simple_root(i) for i in rs.short_simple_indices]
    short_gens = weyl.short_parabolic(rs)
    long_base = weyl.long_root_base(rs)
    long_gens = weyl.long_subgroup(rs)
    long_order = weyl.reflection_subgroup_order(rs, long_base)
    short_order = weyl.reflection_subgroup_order(rs, short_base)
    details = {
        "weyl_order": rs.weyl_order,
        "long_subgroup_order": long_order,
        "short_parabolic_order": short_order,
    }
    if short_order * long_order != rs.weyl_order:
        return _fail(details, product_order=short_order * long_order)
    # W_s keeps the positive long roots positive and only the identity of W_l
    # does (Humphreys, Reflection Groups and Coxeter Groups, 1.8), so W_s
    # meets W_l trivially and, of complementary order, is their stabiliser
    p = rs.num_positive
    for i, g in zip(rs.short_simple_indices, short_gens):
        if any(g[k] >= p for k in rs.long_positives):
            return _fail(details, stable_set="violated", generator=i)
    details["intersection_order"] = 1
    details["stable_set_matches_parabolic"] = True
    for i in range(rs.rank):
        g = weyl.simple_reflection(rs, i)   # an involution: g r g is r conjugated by g
        for r in long_gens:   # W_l is normal once g conjugates each generator into it
            if not weyl.is_in_long_subgroup(rs, weyl.compose(weyl.compose(g, r), g)):
                return _fail(details, normality="violated", generator=i)
    details["normal"] = True
    for w, _ in _coxeter_sample(rs)[1]:   # each factor placed by a descent of its own
        ws, wl = weyl.decompose_semidirect(rs, w)
        if not (_in_reflection_subgroup(rs, ws, short_base, short_gens)
                and _in_reflection_subgroup(rs, wl, long_base, long_gens)
                and weyl.compose(ws, wl) == w):
            return _fail(details, roundtrip="violated")
    # W = W_s W_l with W_s and W_l meeting trivially: one factor pair per element
    details["distinct_factor_pairs"] = short_order * long_order
    return "pass", details


def _check_little_adjoint_dims(rs: RootSystem):
    dims = la.little_adjoint_dims(rs)
    h = rs.coxeter_number
    k = len(rs.short_simple_indices)
    ws = dims.weights
    support_ok = len(ws) == dims.short_count + 1 and all(
        ws.multiplicity(rs.weight_of(r)) == 1 for r in rs.short_positive_roots()
    )
    details = {
        "dim": dims.dim,
        "expected_dim": (h + 1) * k,
        "zero_multiplicity": dims.zero_mult,
        "short_simple_count": k,
        "short_root_count": dims.short_count,
        "weight_support_is_short_roots_plus_zero": support_ok,
    }
    ok = dims.dim == (h + 1) * k and dims.zero_mult == k and support_ok
    return ("pass" if ok else "fail"), details


def _check_sign_partition(rs: RootSystem):
    rs.require_two_lengths()   # delta_partition itself takes every type
    ht = rs.theta_short.height
    details = {"short_dominant_height": ht}
    for mu in rs.roots:
        la.delta_partition(rs, mu)  # raises IdentityViolation unless balanced
    theta_part = la.delta_partition(rs, rs.theta_short)
    details["short_dominant_negative_part"] = len(theta_part.pos_neg)
    if theta_part.pos_neg:
        return "fail", details
    for i in rs.short_simple_indices:
        part = la.delta_partition(rs, rs.simple_root(i))
        if len(part.pos_pos) != ht or len(part.pos_neg) != ht - 1:
            return _fail(
                details,
                simple_index=i,
                positive_agreeing=len(part.pos_pos),
                positive_opposing=len(part.pos_neg),
            )
    details["per_simple_counts"] = [ht, ht - 1]
    return "pass", details


def _check_hw_orbit_dim(rs: RootSystem):
    dim = la.hw_orbit_dim(rs)
    details = {
        "orbit_dim": dim,
        "twice_height": 2 * rs.theta_short.height,
        "from_dual_coxeter": 2 * dual_coxeter_of_dual(rs) - 2,
    }
    ok = dim == details["from_dual_coxeter"]   # hw_orbit_dim checks 2 ht itself
    return ("pass" if ok else "fail"), details


def _check_dual_coxeter_dual(rs: RootSystem):
    value = dual_coxeter_of_dual(rs)
    details = {"value": value, "one_plus_short_dominant_height": 1 + rs.theta_short.height}
    ok = value == details["one_plus_short_dominant_height"]
    if not rs.is_multiply_laced:
        details["self_dual_coxeter"] = rs.dual_coxeter_number
        ok = ok and value == rs.dual_coxeter_number
    return ("pass" if ok else "fail"), details


def _check_coxeter_orbits(rs: RootSystem):
    h = rs.coxeter_number
    shorts = len(rs.short_simple_indices)
    tested, sample = _coxeter_sample(rs)
    details = {"orderings_tested": tested, "coxeter_number": h,
               "expected_short_orbits": shorts}
    for c, ordering in sample:
        orbits = weyl.coxeter_orbits(rs, c)
        if any(len(o) != h for o in orbits):
            return _fail(details, ordering=list(ordering),
                         orbit_sizes=sorted(len(o) for o in orbits))
        short_orbits = sum(1 for o in orbits if rs.roots[o[0]].is_short)
        if short_orbits != shorts:
            return _fail(details, ordering=list(ordering), short_orbits=short_orbits)
    return "pass", details


def _check_coxeter_power(rs: RootSystem):
    reduction = red.simple_reduction(rs)
    tested, sample = _coxeter_sample(rs)
    details = {
        "orderings_tested": tested,
        "sub_coxeter_number": reduction.sub_coxeter_number,
        "transition_factor": reduction.transition_factor,
    }
    for _, ordering in sample:
        if not red.check_coxeter_power(rs, ordering):
            return _fail(details, ordering=list(ordering))
    return "pass", details


def _check_hyperplane_classes(rs: RootSystem):
    classes = red.hyperplane_classes(rs)
    sub_pos = sum(1 for r in red.simple_reduction(rs).subsystem if r.is_positive)
    return "pass", {
        "classes": len(classes.classes),
        "subsystem_positives": sub_pos,
        "representatives": [list(r.coeffs) for r in classes.representatives],
    }


def _check_one_step(rs: RootSystem):
    strings = red.one_step_strings(rs)
    details = {"roots_outside_subsystem": len(strings)}
    empty = [g for g, e in strings.items() if not e.pairs]
    not_sole = [g for g, e in strings.items() if not e.sole]
    details["empty"] = [list(g.coeffs) for g in empty]
    details["multiple_target_classes"] = [list(g.coeffs) for g in not_sole]
    ok = not empty and not not_sole
    return ("pass" if ok else "fail"), details


def _partitions(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence: the C orbit count by a
    route independent of ``reduction.partition_count``."""
    p = [1]
    for m in range(1, n + 1):
        pent = [(k * (3 * k - 1) // 2, k * (3 * k + 1) // 2, (-1) ** (k + 1))
                for k in range(1, m + 1) if k * (3 * k - 1) // 2 <= m]
        p.append(sum(s * (p[m - a] + (p[m - b] if b <= m else 0)) for a, b, s in pent))
    return p[n]


# one row per family, in SummaryRow field order
_REGISTRY_FIELDS = ("module_dim", "coxeter_number", "sub_type", "sub_coxeter_number",
                    "orbit_count")
_REGISTRY = {
    "B": lambda n: (2 * n + 1, 2 * n, "A1", 2, 2),
    "C": lambda n: (2 * n * n - n - 1, 2 * n, f"A{n - 1}", n, _partitions(n)),
    "F": lambda n: (26, 12, "A2", 3, 3),
    "G": lambda n: (7, 6, "A1", 2, 2),
}


def _check_table_row(rs: RootSystem):
    row = red.summary_row(rs)
    expected = dict(zip(_REGISTRY_FIELDS, _REGISTRY[rs.spec.family](rs.rank)))
    computed = {field: getattr(row, field) for field in _REGISTRY_FIELDS}
    details = {"computed": computed, "registry": expected,
               "theta_short_coeffs": list(row.theta_short_coeffs)}
    return ("pass" if computed == expected else "fail"), details


def _check_antichains(rs: RootSystem):
    report = ac.antichain_report(rs)
    details = {"brute_force": report.brute_force_count, "formula": report.formula_count,
               "poset_size": len(rs.short_positives)}
    if report.alt_formula_count is not None:
        details["alt_formula"] = report.alt_formula_count
    return ("pass" if report.consistent else "fail"), details


def _check_nullcone_hilbert(rs: RootSystem):
    degree = 4 if rs.rank >= 4 else 8
    report = gc.hilbert_check(rs, degree)
    details = {
        "degree": degree,
        "dimension_series": [report.dimension_series.coeff(k) for k in range(degree + 1)],
        "expected_series": [report.expected_series.coeff(k) for k in range(degree + 1)],
        "first_mismatch": report.first_mismatch,
        "entries": len(report.character),
        "negative_coefficients": [
            [list(w), k, v]
            for w, k, v in report.character.negative_terms()
        ],
        **report.character.work,
    }
    # second route: every entry again by Kostant's alternating sum, as an orbit walk
    zero = (0,) * rs.rank
    walked = {w: gc.graded_multiplicity(rs, w, zero, degree) for w in report.character.entries}
    details["trivial_multiplicity_is_one"] = walked[zero] == gc.QPoly.one(degree)
    details["alternating_sum_agrees"] = walked == report.character.entries
    # a character of k[N] has multiplicities, so no negative coefficient
    ok = (report.ok and not details["negative_coefficients"]
          and details["trivial_multiplicity_is_one"] and details["alternating_sum_agrees"])
    return ("pass" if ok else "fail"), details


_CHECKS = {
    "root-counts": _check_root_counts,
    "semidirect-product": _check_semidirect,
    "little-adjoint-dims": _check_little_adjoint_dims,
    "sign-partition": _check_sign_partition,
    "hw-orbit-dim": _check_hw_orbit_dim,
    "dual-coxeter-dual": _check_dual_coxeter_dual,
    "coxeter-orbits": _check_coxeter_orbits,
    "coxeter-power": _check_coxeter_power,
    # the library decides these two identities itself; the runner only reports
    "transition-gap": lambda rs: ("pass", red.transition_identities(rs)._asdict()),
    "dimension-ledger": lambda rs: ("pass", red.dimension_ledger(rs)._asdict()),
    "hyperplane-classes": _check_hyperplane_classes,
    "one-step-strings": _check_one_step,
    "table-row": _check_table_row,
    "antichain-count": _check_antichains,
    "nullcone-hilbert": _check_nullcone_hilbert,
}

CHECK_IDS = tuple(sorted(_CHECKS))


def run_check(check_id: str, rs: RootSystem):
    """Run one check; returns (status, details).  A library self-check
    that fails inside the runner becomes a "fail" with its message, and an
    engine's refusal (a cap, or a single-length system where it needs two
    root lengths) a "skipped" with its reason."""
    runner = _CHECKS[check_id]
    try:
        return runner(rs)
    except (SizeLimitExceeded, UnsupportedRootSystem) as exc:
        return "skipped", {"reason": str(exc)}
    except IdentityViolation as exc:
        return "fail", {"violation": str(exc)}


def selected_ids(only=None):
    """The catalog's ids, or the given ids each once, in id order.  Unknown
    ids raise ValueError."""
    if only is None:
        return CHECK_IDS
    unknown = [cid for cid in only if cid not in _CHECKS]
    if unknown:
        raise ValueError(
            f"unknown check id(s) {', '.join(unknown)}; valid ids: " + ", ".join(CHECK_IDS)
        )
    return tuple(sorted(set(only)))
