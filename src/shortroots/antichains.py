"""The poset of short positive roots and its antichain counts.

A poset is held as one incomparability mask per element, built from the
root covers with no pair of roots compared; one forward pass counts its
antichains exactly, and is refused past ``config.MAX_ANTICHAIN_WORK``
states.  Two closed product formulas over the exponents must agree with
that count.
"""

from collections import namedtuple
from operator import mul

from . import config
from .errors import IdentityViolation, SizeLimitExceeded, UnsupportedRootSystem
from .rootsystem import RootSystem

__all__ = [
    "short_root_poset",
    "count_antichains",
    "count_antichains_formula",
    "count_antichains_formula_alt",
    "AntichainReport",
    "antichain_report",
]


def short_root_poset(rs: RootSystem) -> tuple[int, ...]:
    """The short positive roots under componentwise order, as incomparability
    masks: bit j of mask i is set when j > i and elements i and j are
    incomparable.  The elements are sorted by their coefficients read from
    Bourbaki's last node to its first (``RootSystem.nodes``), an order that
    extends the componentwise one and does not depend on the numbering, so
    mask i is the bits above i outside the up-set of i.  Positive roots
    a <= b are joined by positive roots one simple root apart, so the up-set
    of a root x is x, if short, joined with those of its covers x + alpha_k,
    taken down the positive roots packed into ints: a cover is one addition."""
    rs.require_two_lengths()
    base = max(rs.theta.coeffs) + 2   # a cover adds 1 to a digit with no carry
    place = [0] * rs.rank
    for t, node in enumerate(rs.nodes):
        place[node] = base**t
    roots = sorted((sum(map(mul, r.coeffs, place)), r.is_short) for r in rs.positive_roots())
    full = (1 << len(rs.short_positives)) - 1
    up, bit = {}, full + 1   # bit i: the i-th short root in the order
    for key, short in reversed(roots):
        bit >>= short
        u = bit if short else 0
        for cover in filter(None, map(up.get, [key + step for step in place])):
            u |= cover
        up[key] = u
    shorts = (key for key, short in roots if short)
    # up(i) holds bit i and none below it; popped, so one table is alive
    return tuple([up.pop(key) ^ full >> i << i for i, key in enumerate(shorts)])


def count_antichains(masks) -> int:
    """Exact number of antichains (the empty one included) of the poset of
    the given incomparability masks (see short_root_poset), in one forward
    pass: each state, the mask of elements still free to join, counts the
    antichains that leave it free, and equal masks merge.  Refused once the
    states held, summed over the elements, pass ``config.MAX_ANTICHAIN_WORK``."""
    cap = config.MAX_ANTICHAIN_WORK
    # each count sits in a one-item list, so adding to it hashes the state once
    states, held = {(1 << len(masks)) - 1: [1]}, 0
    for x, after in enumerate(masks):
        after >>= x + 1
        nxt = {}
        for free, (count,) in states.items():   # bit 0 is x: the bits below are gone
            rest = free >> 1
            if free & 1:  # x taken: only the elements incomparable to x stay free
                nxt.setdefault(rest & after, [0])[0] += count
            nxt.setdefault(rest, [0])[0] += count  # x left out, or not free to join
        states = nxt
        held += len(states)
        if held > cap:
            raise SizeLimitExceeded(f"a poset of {len(masks)} elements needs more than the cap "
                                    f"of {cap} counting states (max_antichain_work)")
    return sum(count for count, in states.values())


def _exponent_product(shift: int, exponents) -> int:
    """The product of (shift + m + 1) / (m + 1) over the exponents m, which
    the antichain formulas assert to be an integer."""
    num = den = 1
    for m in exponents:
        num *= shift + m + 1
        den *= m + 1
    q, rem = divmod(num, den)
    if rem:
        raise IdentityViolation("antichain product formula must be an integer")
    return q


def count_antichains_formula(rs: RootSystem) -> int:
    """Product formula over the smallest exponents, one per short simple
    root.  The result is always an integer."""
    rs.require_two_lengths()
    return _exponent_product(rs.coxeter_number, rs.exponents[: len(rs.short_simple_indices)])


def count_antichains_formula_alt(rs: RootSystem) -> int:
    """Alternative product over all exponents with the short-root average in
    place of the Coxeter number; valid only when the squared length ratio
    is 2."""
    if rs.length_ratio != 2:
        raise UnsupportedRootSystem(
            f"the alternative product formula needs length ratio 2, "
            f"{rs.spec} has ratio {rs.length_ratio}"
        )
    return _exponent_product(2 * len(rs.short_positives) // rs.rank, rs.exponents)


class AntichainReport(namedtuple("AntichainReport",
                                 "brute_force_count formula_count alt_formula_count")):
    """The antichain count of the short-root poset by the counting pass and
    by the product formula (ints), and by the alternative formula (an int
    on length ratio 2, None otherwise)."""

    __slots__ = ()

    @property
    def consistent(self) -> bool:
        return (self.brute_force_count == self.formula_count
                and self.alt_formula_count in (None, self.formula_count))


def antichain_report(rs: RootSystem) -> AntichainReport:
    brute = count_antichains(short_root_poset(rs))
    formula = count_antichains_formula(rs)
    alt = count_antichains_formula_alt(rs) if rs.length_ratio == 2 else None
    return AntichainReport(brute, formula, alt)

