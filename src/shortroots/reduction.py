"""The simple reduction of a multiply-laced system: the subsystem spanned
by the short simple roots, its Coxeter data, the transition factor, the
kernel-hyperplane combinatorics, dimension bookkeeping, the nilpotent
orbit count read off the reduction's type and the summary rows.  The
subsystem is held by root indices, both signs.  The kernel-hyperplane
classes are the orbits, up to sign, of the subgroup W_l generated by
long reflections on the short positive roots, walked through W_l's
generators ``weyl.long_subgroup``; the one-step strings come from one
pass over the (subsystem root, long root) pairs."""

import operator
from collections import namedtuple

from . import littleadjoint as la
from . import weyl
from .errors import IdentityViolation, NotFiniteType
from .rootsystem import RootSystem, from_cartan

__all__ = [
    "SimpleReduction",
    "simple_reduction",
    "check_coxeter_power",
    "TransitionIdentities",
    "transition_identities",
    "HyperplaneClasses",
    "hyperplane_classes",
    "OneStepEntry",
    "one_step_strings",
    "DimensionLedger",
    "dimension_ledger",
    "partition_count",
    "orbit_count",
    "SummaryRow",
    "summary_row",
]


class SimpleReduction(namedtuple("SimpleReduction", "subsystem sub_spec sub_coxeter_number"
                                 " sub_exponents transition_factor")):
    """The subsystem spanned by the short simple roots: ``subsystem`` holds
    the indices of the roots supported on them, ``sub_spec`` its type (a
    RootSystemSpec), ``sub_coxeter_number`` and ``sub_exponents`` its
    Coxeter data, and ``transition_factor`` the int h / h_s."""

    __slots__ = ()


def simple_reduction(rs: RootSystem) -> SimpleReduction:
    rs.require_two_lengths()
    return rs.memo("simple_reduction", lambda: _reduce(rs))


def _reduce(rs: RootSystem) -> SimpleReduction:
    pis = rs.short_simple_indices
    pis_set = set(pis)
    subsystem = tuple(k for k, r in enumerate(rs.roots) if set(r.support) <= pis_set)
    try:
        sub = from_cartan([[rs.cartan[i][j] for j in pis] for i in pis])
    except NotFiniteType as exc:
        raise IdentityViolation(f"short simple roots must form a connected diagram: {exc}")
    if len(subsystem) != sub.rank * sub.coxeter_number:
        raise IdentityViolation("subsystem root count disagrees with its type")
    factor, rem = divmod(rs.coxeter_number, sub.coxeter_number)
    if rem:
        raise IdentityViolation("the Coxeter number ratio must be an integer")
    return SimpleReduction(
        subsystem=subsystem,
        sub_spec=sub.spec,
        sub_coxeter_number=sub.coxeter_number,
        sub_exponents=sub.exponents,
        transition_factor=factor,
    )


def check_coxeter_power(rs: RootSystem, c: tuple[int, ...]) -> bool:
    """Whether the h_s-th power of the Coxeter element c (built by
    ``weyl.coxeter_element``) lands in the subgroup generated by long-root
    reflections; ValueError for a tuple that is not in W."""
    red = simple_reduction(rs)
    weyl._require_element(rs, c)
    power = c
    for _ in range(red.sub_coxeter_number - 1):
        power = weyl.compose(power, c)
    return weyl.is_in_long_subgroup(rs, power)


class TransitionIdentities(namedtuple("TransitionIdentities", "factor coxeter_gap height_gap")):
    """Three independent computations of the same integer: ``factor`` is
    h / h_s, ``coxeter_gap`` h - ht(theta_s) and ``height_gap``
    ht(theta) - ht(theta_s) + 1."""

    __slots__ = ()


def transition_identities(rs: RootSystem) -> TransitionIdentities:
    red = simple_reduction(rs)
    t = TransitionIdentities(
        factor=red.transition_factor,
        coxeter_gap=rs.coxeter_number - rs.theta_short.height,
        height_gap=rs.theta.height - rs.theta_short.height + 1,
    )
    if not (t.factor == t.coxeter_gap == t.height_gap):
        raise IdentityViolation(f"transition identities disagree: {t}")
    return t


def _in_bourbaki_order(rs: RootSystem, indices) -> list:
    """Positive root indices sorted alike in any node order: by height, then
    by the coefficients read in Bourbaki's numbering (Bourbaki's node k is
    node ``rs.nodes[k]``).  On a Bourbaki build it is index order."""
    return sorted(indices, key=lambda k: (rs.roots[k].height,
                                          [rs.roots[k].coeffs[i] for i in rs.nodes]))


class HyperplaneClasses(namedtuple("HyperplaneClasses", "classes representatives")):
    """Short positive roots grouped by the kernel hyperplane they induce on
    the zero weight space: two short roots agree when they differ, up to
    sign, by a long root, so the classes are the orbits of W_l up to sign;
    they carry exactly one representative inside the short-simple
    subsystem.  ``classes`` is a tuple of tuples of Roots,
    ``representatives`` a tuple of Roots, one per class."""

    __slots__ = ()


def hyperplane_classes(rs: RootSystem) -> HyperplaneClasses:
    """The classes are the orbits, up to sign, of W_l on the short positive
    roots, walked through the generators ``weyl.long_subgroup``.  With
    squared lengths 2 (short) and 2r (long), <gamma, b^v> is 0 or +-1 for
    gamma short and b long, so s_b(gamma) is gamma or gamma -+ b: a long
    reflection moves a short root by one long root at most.  Conversely,
    if gamma - b is a root then |gamma - b|^2 = 2 + 2r - 2(gamma|b) forces
    (gamma|b) = r, so gamma - b = s_b(gamma); likewise gamma + b is
    s_{-b}(gamma).  W_l is generated by the reflections in the long-root
    base, so closing under them joins exactly the pairs that differ, up
    to sign, by a long root.  Root k >= p is -(root k - p), so the walk
    folds it to k - p.  Each walk starts at the first root left in
    ``_in_bourbaki_order``, and each class lists its roots in that order, so
    the classes and their roots read alike in any node order.  Each orbit
    is checked against the positive subsystem indices as it closes."""
    gens = weyl.long_subgroup(rs)
    p = rs.num_positive
    sub_pos = {k for k in simple_reduction(rs).subsystem if k < p}
    seen: set[int] = set()
    classes = []
    reps = []
    for start in _in_bourbaki_order(rs, rs.short_positives):
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for k in orbit:   # the list grows while it is walked
            for g in gens:
                j = g[k] % p
                if j not in seen:
                    seen.add(j)
                    orbit.append(j)
        cls = tuple(rs.roots[k] for k in _in_bourbaki_order(rs, orbit))
        inside = sub_pos.intersection(orbit)
        if len(inside) != 1:
            raise IdentityViolation(
                f"class {cls} holds {len(inside)} subsystem representatives"
            )
        classes.append(cls)
        reps.append(rs.roots[inside.pop()])
    if len(classes) != len(sub_pos):
        raise IdentityViolation("class count disagrees with the subsystem positives")
    return HyperplaneClasses(classes=tuple(classes), representatives=tuple(reps))


class OneStepEntry(namedtuple("OneStepEntry",
                              "pairs positive_target_steps target_classes sole")):
    """Ways of reaching the short-simple subsystem from one short positive
    root in a single long-root step: ``pairs`` holds the (long step,
    subsystem target) pairs of Roots, ``positive_target_steps`` the steps
    whose target is positive, ``target_classes`` the distinct targets
    modulo sign, and ``sole`` is True when there is one target class only."""

    __slots__ = ()


def one_step_strings(rs: RootSystem) -> dict:
    """For each short positive root gamma outside the short-simple
    subsystem, all long roots beta with gamma - beta inside the subsystem
    (either sign).  One pass over the pairs (beta, mu) of a long root of
    either sign and a subsystem root keeps mu + beta when it is such a
    gamma, so each pair is looked up once.  The long roots are walked, and
    the entries listed, in ``_in_bourbaki_order``, so each entry lists its
    steps in that order."""
    inside = set(simple_reduction(rs).subsystem)
    found = {k: [] for k in _in_bourbaki_order(rs, rs.short_positives) if k not in inside}
    longs = [rs.roots[k] for k in _in_bourbaki_order(rs, rs.long_positives)]
    longs = [-beta for beta in reversed(longs)] + longs   # -beta is lower the higher beta is
    for beta in longs:
        for m in inside:
            mu = rs.roots[m]
            k = rs.root_index.get(tuple(map(operator.add, mu.coeffs, beta.coeffs)))
            if k in found:
                found[k].append((beta, mu))
    out = {}
    for k, pairs in found.items():
        positive = tuple(b for b, m in pairs if m.is_positive)
        targets = tuple(dict.fromkeys(m if m.is_positive else -m for _, m in pairs))
        out[rs.roots[k]] = OneStepEntry(
            pairs=tuple(pairs),
            positive_target_steps=positive,
            target_classes=targets,
            sole=len(targets) == 1,
        )
    return out


class DimensionLedger(namedtuple("DimensionLedger", "module_dim module_nullcone_dim reduction_dim"
                                 " reduction_nullcone_dim transition_factor")):
    """Four dimensions, each an int times the number of short simple
    roots: ``module_dim`` (h+1), ``module_nullcone_dim`` h,
    ``reduction_dim`` (h_s+1) and ``reduction_nullcone_dim`` h_s; and
    ``transition_factor``, the ratio of the two nullcone dimensions."""

    __slots__ = ()


def dimension_ledger(rs: RootSystem) -> DimensionLedger:
    """The four dimensions tied together by the transition factor, each from
    an independent count."""
    red = simple_reduction(rs)
    dims = la.little_adjoint_dims(rs)
    k = dims.zero_mult
    module_null = dims.dim - k
    shorts = len(rs.short_simple_indices)
    if module_null != rs.coxeter_number * shorts:
        raise IdentityViolation("module nullcone dimension disagrees with h * #shorts")
    reduction_dim = shorts + len(red.subsystem)
    if reduction_dim != (red.sub_coxeter_number + 1) * shorts:
        raise IdentityViolation("reduction dimension disagrees with (h_s+1) * #shorts")
    reduction_null = reduction_dim - shorts
    ratio, rem = divmod(module_null, reduction_null)
    if rem or ratio != red.transition_factor:
        raise IdentityViolation("nullcone dimension ratio disagrees with the factor")
    return DimensionLedger(
        module_dim=dims.dim,
        module_nullcone_dim=module_null,
        reduction_dim=reduction_dim,
        reduction_nullcone_dim=reduction_null,
        transition_factor=ratio,
    )


def partition_count(n: int) -> int:
    """Number of integer partitions of n, by the parts-bounded recurrence."""
    if n < 0:
        raise ValueError("partitions of a negative integer")
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def orbit_count(rs: RootSystem) -> int:
    """Number of nilpotent orbits in the nullcone of the short-dominant
    module: those of the simple reduction's adjoint module, which for a
    reduction of type A_m are the Jordan types, the partitions of m + 1."""
    sub = simple_reduction(rs).sub_spec
    if sub.family != "A":
        raise IdentityViolation(f"the simple reduction {sub} is not of type A")
    return partition_count(sub.rank + 1)


_AMBIENT = {
    "B": lambda n: f"so_{2 * n + 2}",
    "C": lambda n: f"sl_{2 * n}",
    "F": lambda n: "e_6",
    "G": lambda n: "so_8",
}


class SummaryRow(namedtuple("SummaryRow", "system module_dim theta_short_coeffs coxeter_number"
                            " sub_type sub_coxeter_number orbit_count ambient_algebra")):
    """One row of ``table1``: the system's and its reduction's type names
    (``system``, ``sub_type``), ints and the int tuple
    ``theta_short_coeffs``, and ``ambient_algebra``, registry metadata
    only, never computed from."""

    __slots__ = ()


def summary_row(rs: RootSystem) -> SummaryRow:
    red = simple_reduction(rs)
    dims = la.little_adjoint_dims(rs)
    return SummaryRow(
        system=str(rs.spec),
        module_dim=dims.dim,
        theta_short_coeffs=rs.theta_short.coeffs,
        coxeter_number=rs.coxeter_number,
        sub_type=str(red.sub_spec),
        sub_coxeter_number=red.sub_coxeter_number,
        orbit_count=orbit_count(rs),
        ambient_algebra=_AMBIENT[rs.spec.family](rs.rank),
    )
