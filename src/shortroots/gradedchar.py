"""Graded characters of the nullcone of the short-dominant module.

A q-analogue partition function counts multiset expressions of a weight
as sums of short positive roots, graded by multiset size; its tables,
and the packed keys that index them, belong to ``qtables``.  One
straightening loop over the tables gives the whole graded character: it
walks the deepest table's keys, then the few keys of shallower ones that
it lacks, gathered once, straightens each point off the walls once,
however many degrees hold it, by ``orbits._straighten``, and adds each
degree's counts, times their keys' signs, into one row per dominant
conjugate; each row becomes one ``QPoly`` multiplicity.
Kostant's alternating sum, walked over a Weyl orbit by
``orbits.descend`` with no group element built, gives single graded
multiplicities as a second, independent route.
``Limits.max_character_work`` caps both: the DP updates of a table build
(read in ``qtables``) and the orbit points of a walk (read here).
The full truncated character must reproduce the Hilbert series of a
complete intersection cut out by the basic invariants, whose degrees
``invariant_degrees`` reads off the heights of the short-simple
subsystem's positive roots; the module dimensions come from
``orbits.weyl_dim``.  So the module loads no engine but ``orbits``,
``rootsystem`` and the ``cartan`` layer under it, besides ``qtables``,
``config`` and ``errors``; it reads ``orbits`` through its module
object, so importing this module does not load it.  Every polynomial
carries an explicit truncation degree; mixing truncations takes the
minimum.  Each entry point checks its truncation degree once, before
any table: a non-negative int, as must be every degree and coefficient
of a polynomial.
"""

import math
from collections import defaultdict, namedtuple
from itertools import chain
from operator import sub

from . import orbits
from .cartan import Weight
from .config import current_limits
from .errors import IdentityViolation, SizeLimitExceeded
from .qtables import _dp_build, _require_degree
from .rootsystem import RootSystem, exponents_from_heights

__all__ = [
    "QPoly",
    "q_partition",
    "graded_multiplicity",
    "GradedCharacter",
    "nullcone_character",
    "HilbertReport",
    "invariant_degrees",
    "complete_intersection_series",
    "hilbert_check",
]


class QPoly:
    """Integer polynomial in q reliable up to an explicit truncation degree."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation: int):
        if type(truncation) is not int:
            raise TypeError(f"truncation degree must be an int, not {truncation!r}")
        if truncation < 0:
            raise ValueError("truncation degree must be non-negative")
        coeffs = dict(coeffs)
        for k, v in coeffs.items():
            if type(k) is not int or type(v) is not int:
                raise TypeError(f"a term needs an int degree and coefficient, not {k!r}: {v!r}")
        self.truncation = truncation
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0 and 0 <= k <= truncation}

    @classmethod
    def zero(cls, truncation: int) -> "QPoly":
        return cls({}, truncation)

    @classmethod
    def one(cls, truncation: int) -> "QPoly":
        return cls({0: 1}, truncation)

    def coeff(self, k: int) -> int:
        if type(k) is not int:
            raise TypeError(f"a degree must be an int, not {k!r}")
        if k > self.truncation:
            raise ValueError(f"degree {k} is beyond the truncation {self.truncation}")
        return self.coeffs.get(k, 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        return sorted(self.coeffs.items())

    def to_json(self) -> dict:
        """Exact JSON form: the truncation and a degree -> coefficient map,
        with the degrees as strings.  The CLI's JSON writer writes a
        polynomial as this dict."""
        return {"truncation": self.truncation, "coeffs": {str(k): v for k, v in self.terms()}}

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.truncation == other.truncation and self.coeffs == other.coeffs

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        t = min(self.truncation, other.truncation)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return QPoly(out, t)

    def __sub__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "QPoly":
        return QPoly({k: -v for k, v in self.coeffs.items()}, self.truncation)

    def __mul__(self, other):
        if type(other) is int:
            return QPoly({k: other * v for k, v in self.coeffs.items()}, self.truncation)
        if not isinstance(other, QPoly):
            return NotImplemented
        t = min(self.truncation, other.truncation)
        out: dict[int, int] = {}
        for a, va in self.coeffs.items():
            for b, vb in other.coeffs.items():
                if a + b <= t:
                    out[a + b] = out.get(a + b, 0) + va * vb
        return QPoly(out, t)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for k, v in self.terms():
                if k == 0:
                    parts.append(str(v))
                else:
                    q = "q" if k == 1 else f"q^{k}"
                    parts.append(q if v == 1 else f"{v}*{q}")
            body = " + ".join(parts)
        return f"{body} (mod q^{self.truncation + 1})"


def q_partition(rs: RootSystem, target, max_degree: int) -> QPoly:
    """Generating polynomial of the multiset expressions of a weight as sums
    of short positive roots, graded by multiset size.  A multiset of k
    positive roots has height at least k, so the tables are built only to
    the height of the weight when that is below max_degree."""
    _require_degree(max_degree)
    fund = rs.weight_coords(target) if hasattr(target, "coeffs") else rs.as_weight(target).fund
    lattice = rs.lattice_coords(fund)
    if lattice is None or min(lattice) < 0:   # no sum of positive roots
        return QPoly.zero(max_degree)
    qt = _dp_build(rs, min(max_degree, sum(lattice)))
    return QPoly(dict(enumerate(qt.series(fund))), max_degree)


def graded_multiplicity(rs: RootSystem, lam, mu, max_degree: int) -> QPoly:
    """Kostant's multiplicity formula, the sum over w in W of
    sign(w) * P_q(w(lam + rho) - (mu + rho)): the graded multiplicity of
    the simple module with highest weight lam in the slice selected by mu.

    No element of W is built: the sum is one walk down the orbit of
    lam + rho, ``orbits.descend`` with floor mu + rho, so each layer is
    one length of W and the sign flips between layers.  The walk keeps only
    the points y with y - (mu + rho) in the positive root cone, which is
    exact: P_q vanishes everywhere else.  The tables are built only once
    the walk has a point, so an answer that is zero because lam - mu lies
    outside the cone costs no table, and only to the height of lam - mu
    when that is below max_degree: every point lies in lam - mu minus the
    positive cone, so its expressions have at most that many roots.  Each
    point is looked up in every level; one that cannot hold it gives 0.
    Refuses once the walk has visited more than
    ``Limits.max_character_work`` orbit points."""
    _require_degree(max_degree)
    lam, mu = rs.dominant_integral(lam), rs.dominant_integral(mu)
    cap = current_limits().max_character_work
    mu_rho = tuple([c + 1 for c in mu])
    qt = acc = None
    sign, visited = 1, 0
    for layer in orbits.descend(rs, tuple([c + 1 for c in lam]), mu_rho):
        if qt is None:   # built only once the sum has a term
            degree = min(max_degree, sum(next(iter(layer.values()))))   # ht(lam - mu)
            qt, acc = _dp_build(rs, degree), [0] * (degree + 1)
        visited += len(layer)
        if visited > cap:
            raise SizeLimitExceeded(
                f"the orbit walk of {rs.spec} from {Weight(lam)} visits more than the cap of "
                f"{cap} points (max_character_work)"
            )
        for y in layer:
            for k, count in enumerate(qt.series(tuple(map(sub, y, mu_rho)))):
                acc[k] += sign * count
        sign = -sign
    return QPoly(dict(enumerate(acc or ())), max_degree)


class GradedCharacter:
    """Truncated graded character: entries maps the int tuple of a dominant
    weight's fundamental coordinates to its graded multiplicity polynomial,
    zero polynomials omitted."""

    def __init__(self, rs: RootSystem, entries: dict, truncation: int, work: dict):
        self.rs = rs
        self.entries = entries
        self.truncation = truncation
        self.work = work

    def multiplicity(self, weight) -> QPoly:
        return self.entries.get(self.rs.as_weight(weight).fund, QPoly.zero(self.truncation))

    def negative_terms(self):
        """Observed negative coefficients, as (weight coordinates, degree,
        coefficient) triples; the nullcone-hilbert check fails on any."""
        return [(w, k, v) for w, p in self.entries.items() for k, v in p.terms() if v < 0]

    def __len__(self):
        return len(self.entries)


def nullcone_character(rs: RootSystem, max_degree: int) -> GradedCharacter:
    """Graded character of the nullcone coordinate ring, truncated at the
    given degree.

    Kostant's multiplicity formula read backwards, in one loop over the
    keys of the q-partition tables.  The deepest table holds almost every
    key, so the keys of the shallower tables that it lacks are gathered
    once, and the loop walks the deepest table's keys and then those; no
    union of all the keys is built.  The tables' ``points`` unpacks them a
    chunk at a time, and each point v is straightened once, however many
    degrees hold it: a point v + rho with a 0 coordinate lies on a wall,
    so it is singular and adds nothing, and every other one goes to
    ``orbits._straighten``.  ``owners`` maps the key of each regular
    point to the row of its dominant conjugate and its sign.  Each entry
    of each degree's table then adds sign * count into the row that owns
    its key, if any, so the sums cost one lookup per table entry, however
    the keys fall into rows.  So each dominant conjugate lambda + rho has
    one signed row, which becomes the graded multiplicity of lambda as one
    ``QPoly``, and weights whose rows cancel to zero are omitted.  No
    Weyl group is enumerated; the work is capped by the DP tables.
    ``work`` records the DP updates and the distinct dominant weights
    reached (before cancellation)."""
    rs.require_two_lengths()
    _require_degree(max_degree)
    qt = _dp_build(rs, max_degree)
    levels = qt.levels
    top = levels[-1]
    rest = dict.fromkeys(key for level in levels[:-1] for key in level if key not in top)
    # dominant conjugate of v + rho -> signed counts of its keys, by degree
    rows = defaultdict(lambda: [0] * (max_degree + 1))
    owners: dict = {}   # key of a regular v -> (its dominant conjugate's row, its sign)
    straighten = orbits._straighten
    for key, shifted in qt.points(chain(top, rest)):
        if 0 not in shifted:   # else on a wall, so singular
            dom, sign = straighten(rs, shifted)
            if sign:
                owners[key] = rows[dom], sign
    get = owners.get
    for k, level in enumerate(levels):
        for key, count in level.items():
            owner = get(key)
            if owner is not None:
                owner[0][k] += owner[1] * count
    entries = {}
    for dom, row in sorted(rows.items()):
        poly = QPoly(dict(enumerate(row)), max_degree)
        if not poly.is_zero:
            entries[tuple([a - 1 for a in dom])] = poly
    if entries.get((0,) * rs.rank) != QPoly.one(max_degree):
        raise IdentityViolation("the trivial entry of the nullcone character must be 1")
    work = {"dp_updates": qt.updates, "dominant_points": len(rows)}
    return GradedCharacter(rs, entries, max_degree, work)


class HilbertReport(namedtuple("HilbertReport", "ok dimension_series expected_series"
                               " first_mismatch character")):
    """A nullcone character against the complete intersection series:
    ``dimension_series`` (a QPoly) sums dim * multiplicity over the
    entries, ``expected_series`` (a QPoly) is the complete intersection
    Hilbert series, ``first_mismatch`` the first degree where they differ
    (an int, or None), ``ok`` the bool that none does and ``character`` the
    GradedCharacter read.  The report is true when ``ok`` is."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def invariant_degrees(rs: RootSystem):
    """Degrees of the basic invariants: the reflection degrees of the short
    parabolic, the exponents of the subsystem spanned by the short simple
    roots each plus one.  Those exponents are read off the heights of the
    positive roots supported on the short simple roots, by the rule that
    gives a root system its own (``exponents_from_heights``)."""
    rs.require_two_lengths()
    shorts = set(rs.short_simple_indices)
    heights = [r.height for r in rs.positive_roots() if shorts.issuperset(r.support)]
    return tuple(m + 1 for m in exponents_from_heights(heights))


def complete_intersection_series(ambient_dim: int, degrees, max_degree: int) -> QPoly:
    """Hilbert series of a polynomial ring in ambient_dim variables modulo a
    regular sequence of the given degrees, truncated."""
    numerator = QPoly.one(max_degree)
    for dd in degrees:
        numerator = numerator * QPoly({0: 1, dd: -1}, max_degree)
    series = QPoly(
        {k: math.comb(ambient_dim - 1 + k, k) for k in range(max_degree + 1)},
        max_degree,
    )
    return numerator * series


def hilbert_check(rs: RootSystem, max_degree: int) -> HilbertReport:
    """Compare the dimension series of the nullcone character with the
    complete intersection Hilbert series determined by the basic invariant
    degrees.  The module dimension enters by weight count, independent of
    the character computation."""
    char = nullcone_character(rs, max_degree)
    total = QPoly.zero(max_degree)
    for w, poly in char.entries.items():
        total = total + orbits.weyl_dim(rs, w) * poly
    module_dim = 2 * len(rs.short_positives) + len(rs.short_simple_indices)
    expected = complete_intersection_series(module_dim, invariant_degrees(rs), max_degree)
    first_bad = next((k for k in range(max_degree + 1) if total.coeff(k) != expected.coeff(k)),
                     None)
    return HilbertReport(
        ok=first_bad is None,
        dimension_series=total,
        expected_series=expected,
        first_mismatch=first_bad,
        character=char,
    )
