"""The poset of short positive roots and its antichain counts.

A poset is held as its elements and their comparison; one forward pass
counts its antichains exactly, building each element's incomparability
mask, one int, when it reaches that element.  Two closed product
formulas over the exponents must agree with that count.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import current_limits
from .errors import IdentityViolation, SizeLimitExceeded, UnsupportedRootSystem
from .rootsystem import RootSystem

__all__ = [
    "RootPoset",
    "short_root_poset",
    "count_antichains",
    "count_antichains_formula",
    "count_antichains_formula_alt",
    "AntichainReport",
    "antichain_report",
]


class RootPoset:
    """A finite poset given by an element list and a comparison callable.
    More than ``Limits.max_antichain_work`` pairs to compare are refused
    up front; no pair is compared until a mask is asked for."""

    def __init__(self, elements, leq):
        self.elements = els = list(elements)
        self.leq = leq
        cap = current_limits().max_antichain_work
        pairs = len(els) * (len(els) - 1) // 2
        if pairs > cap:
            raise SizeLimitExceeded(f"a poset of {len(els)} elements has {pairs} pairs to "
                                    f"compare, more than the cap of {cap} (max_antichain_work)")

    def __len__(self):
        return len(self.elements)

    def incomparable_after(self, i: int) -> int:
        """The mask of element i: bit j is set when j > i and elements i and
        j are incomparable."""
        els, leq, a = self.elements, self.leq, self.elements[i]
        return sum(1 << j for j in range(i + 1, len(els))
                   if not (leq(a, els[j]) or leq(els[j], a)))


def short_root_poset(rs: RootSystem) -> RootPoset:
    """Short positive roots under componentwise comparison of the simple-root
    coefficients, listed in the system's order (height, then coefficients)."""
    rs.require_two_lengths()

    def leq(a, b):
        return all(x <= y for x, y in zip(a.coeffs, b.coeffs))

    return RootPoset(rs.short_positive_roots(), leq)


def count_antichains(poset: RootPoset) -> int:
    """Exact number of antichains (the empty one included), in one forward
    pass: each state, the mask of elements still free to join, counts the
    antichains that leave it free, and equal masks merge.  Element x is
    compared with the elements after it when the pass reaches x, so a
    refusal costs only the comparisons made so far.  Refused once the
    states held, summed over the elements, pass max_antichain_work."""
    cap = current_limits().max_antichain_work
    states = {(1 << len(poset)) - 1: 1}
    held = 0
    for x in range(len(poset)):
        bit, after = 1 << x, poset.incomparable_after(x)
        nxt = {}
        for free, count in states.items():
            if free & bit:  # x taken: only the elements incomparable to x stay free
                free ^= bit
                nxt[free & after] = nxt.get(free & after, 0) + count
            nxt[free] = nxt.get(free, 0) + count  # x left out, or not free to join
        states = nxt
        held += len(states)
        if held > cap:
            raise SizeLimitExceeded(f"a poset of {len(poset)} elements needs more than the cap "
                                    f"of {cap} counting states (max_antichain_work)")
    return sum(states.values())


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


class AntichainReport(NamedTuple):
    brute_force_count: int
    formula_count: int
    alt_formula_count: int | None

    @property
    def consistent(self) -> bool:
        if self.brute_force_count != self.formula_count:
            return False
        return self.alt_formula_count in (None, self.formula_count)


def antichain_report(rs: RootSystem) -> AntichainReport:
    brute = count_antichains(short_root_poset(rs))
    formula = count_antichains_formula(rs)
    alt = count_antichains_formula_alt(rs) if rs.length_ratio == 2 else None
    return AntichainReport(brute, formula, alt)

