"""Weight systems of simple modules and the counting identities of the
module with short-dominant highest weight.

The multiplicity engine is the Freudenthal recursion, run entirely in
integer arithmetic on fundamental coordinates and on the dominant
chamber only.  The dominant weights below the highest weight are found
by positive-root steps that never leave the chamber (Stembridge, The
partial order of dominant weights, 1998); each multiplicity reads only
dominant weights strictly above it, and the whole weight system is the
union of the Weyl orbits of the dominant weights, each walked down by
``orbits.descend``.  The Weyl dimension formula, ``orbits.weyl_dim``,
provides an independent route to the dimension.  ``orbits`` is reached
through its module object, so importing this module does not load it.
"""

from collections import namedtuple

from . import orbits
from .cartan import Root, Weight
from .errors import IdentityViolation
from .rootsystem import RootSystem

__all__ = [
    "WeightSystem",
    "freudenthal",
    "LittleAdjointDims",
    "little_adjoint_dims",
    "DeltaPartition",
    "delta_partition",
    "hw_orbit_dim",
]


class WeightSystem:
    """All weights of a simple module with their multiplicities: entries
    maps the int tuple of a weight's fundamental coordinates to its
    multiplicity.  The highest weight is the caller's: ``freudenthal``
    takes it, and the system keeps only what the recursion found."""

    def __init__(self, rs: RootSystem, entries: dict):
        self.rs = rs
        self.entries = entries

    def multiplicity(self, weight) -> int:
        return self.entries.get(self.rs.as_weight(weight).fund, 0)

    @property
    def zero_multiplicity(self) -> int:
        return self.entries.get((0,) * self.rs.rank, 0)

    @property
    def dimension(self) -> int:
        return sum(self.entries.values())

    def weights(self):
        """The weights, as Weights, in the order of their coordinates."""
        return [Weight(fund) for fund in sorted(self.entries)]

    def __len__(self):
        return len(self.entries)


def _dominant_below(rs: RootSystem, lam):
    """The dominant weights mu <= lam, each mapped to the root-lattice
    coordinates of lam - mu.  Each is reached from lam by subtracting
    positive roots without leaving the dominant chamber (Stembridge 1998)."""
    steps = [(rs.weight_coords(r), r.coeffs) for r in rs.positive_roots()]
    below = {lam: (0,) * rs.rank}
    layer = [lam]
    while layer:
        fresh = []
        for mu in layer:
            diff = below[mu]
            for alpha_f, coeffs in steps:
                nu = tuple(a - b for a, b in zip(mu, alpha_f))
                if nu not in below and min(nu) >= 0:
                    below[nu] = tuple(a + b for a, b in zip(diff, coeffs))
                    fresh.append(nu)
        layer = fresh
    return below


def freudenthal(rs: RootSystem, highest) -> WeightSystem:
    """Weight system of the simple module with the given dominant integral
    highest weight.  The Freudenthal recursion runs on the dominant weights
    alone, from lam downwards; the other weights are their Weyl conjugates."""
    lam = rs.dominant_integral(highest)
    d = rs.symmetrizers
    below = _dominant_below(rs, lam)
    pos_data = [(rs.weight_coords(r), rs.form_coords(r)) for r in rs.positive_roots()]
    mults = {lam: 1}
    straighten = orbits._straighten
    for level, mu in sorted((sum(c), mu) for mu, c in below.items()):
        if level == 0:
            continue
        total = 0
        for alpha_f, weighted in pos_data:
            nu = mu
            while True:
                nu = tuple(a + b for a, b in zip(nu, alpha_f))
                # nu's dominant conjugate lies strictly above mu, so a weight
                # there already has its multiplicity
                m = mults.get(straighten(rs, nu)[0])
                if m is None:
                    break
                # (nu | alpha) in the short-normalised form
                total += m * sum(w * f for w, f in zip(weighted, nu))
        # (lam - mu | lam + mu + 2 rho)
        den = sum(dj * cj * (a + b + 2) for dj, cj, a, b in zip(d, below[mu], lam, mu))
        q, rem = divmod(2 * total, den)
        if rem or q <= 0:
            raise IdentityViolation("Freudenthal recursion produced a non-multiplicity")
        mults[mu] = q
    entries = {nu: m for mu, m in mults.items() for layer in orbits.descend(rs, mu)
               for nu in layer}
    return WeightSystem(rs, entries)


class LittleAdjointDims(namedtuple("LittleAdjointDims", "dim zero_mult short_count weights")):
    """The short-dominant module's dimension, zero weight multiplicity and
    number of short roots (ints), and ``weights``, the Freudenthal
    WeightSystem the counts came from."""

    __slots__ = ()


def little_adjoint_dims(rs: RootSystem) -> LittleAdjointDims:
    """Dimension data of the module with highest weight the short dominant
    root, computed three independent ways and cross-checked, once per
    system, with the weight system it was read from."""
    rs.require_two_lengths()
    return rs.memo("little_adjoint_dims", lambda: _dims(rs))


def _dims(rs: RootSystem) -> LittleAdjointDims:
    ws = freudenthal(rs, rs.weight_of(rs.theta_short))
    zero_mult = ws.zero_multiplicity
    short_count = 2 * len(rs.short_positives)
    dim = ws.dimension
    if dim != orbits.weyl_dim(rs, rs.weight_of(rs.theta_short)):
        raise IdentityViolation("multiplicity sum disagrees with the dimension formula")
    if dim != short_count + zero_mult:
        raise IdentityViolation("weight count disagrees with the dimension")
    return LittleAdjointDims(dim=dim, zero_mult=zero_mult, short_count=short_count, weights=ws)


class DeltaPartition(namedtuple("DeltaPartition", "pos_pos pos_neg neg_pos neg_neg")):
    """Roots not orthogonal to a fixed root, split by the sign of the root
    and the sign of the inner product: four tuples of Roots, ``pos_neg``
    holding the positive roots with a negative inner product."""

    __slots__ = ()


def delta_partition(rs: RootSystem, mu: Root) -> DeltaPartition:
    """The partition for mu, read off its one row of pairings with the
    positive roots: root k + p is the negative of root k, so it pairs with
    mu with the opposite sign, and each negative part mirrors a positive
    one, in the same order."""
    if not isinstance(mu, Root):
        raise ValueError("expected a root of the system")
    row = rs.inner_row(mu)   # rs.index refuses a root of another system or length
    roots, p = rs.roots, rs.num_positive
    agree = [k for k, v in enumerate(row) if v > 0]
    oppose = [k for k, v in enumerate(row) if v < 0]
    return DeltaPartition(
        tuple([roots[k] for k in agree]),
        tuple([roots[k] for k in oppose]),
        tuple([roots[k + p] for k in oppose]),
        tuple([roots[k + p] for k in agree]),
    )


def hw_orbit_dim(rs: RootSystem) -> int:
    """Dimension of the closure of the highest weight orbit in the
    short-dominant module: one plus the number of positive roots not
    orthogonal to the short dominant root."""
    rs.require_two_lengths()
    theta_s = rs.theta_short
    count = sum(1 for v in rs.inner_row(theta_s) if v > 0)
    dim = 1 + count
    if dim != 2 * theta_s.height:
        raise IdentityViolation("orbit dimension disagrees with twice the height")
    return dim
