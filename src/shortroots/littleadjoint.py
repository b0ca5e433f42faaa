"""Weight systems of simple modules and the counting identities of the
module with short-dominant highest weight.

The multiplicity engine is the Freudenthal recursion, run entirely in
integer arithmetic on fundamental coordinates.  The Weyl dimension
formula provides an independent route to the dimension.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import IdentityViolation
from .rootsystem import Root, RootSystem, Weight

__all__ = [
    "WeightSystem",
    "freudenthal",
    "weyl_dim",
    "LittleAdjointDims",
    "little_adjoint_dims",
    "DeltaPartition",
    "delta_partition",
    "hw_orbit_dim",
]


class WeightSystem:
    """All weights of a simple module with their multiplicities."""

    def __init__(self, rs: RootSystem, highest: Weight, entries: dict):
        self.rs = rs
        self.highest = highest
        self.entries = entries

    def multiplicity(self, weight) -> int:
        return self.entries.get(self.rs.as_weight(weight), 0)

    @property
    def zero_multiplicity(self) -> int:
        return self.multiplicity(Weight.zero(self.rs.rank))

    @property
    def dimension(self) -> int:
        return sum(self.entries.values())

    def weights(self):
        return sorted(self.entries, key=lambda w: w.fund)

    def __len__(self):
        return len(self.entries)


def _in_hull(rs: RootSystem, lam, fund) -> bool:
    # fund lies in the support iff its dominant conjugate sits below lam
    # in the root order
    dom, _ = rs.dominant_representative(fund)
    diff = tuple(a - b for a, b in zip(lam, dom))
    rc = rs.lattice_coords(diff)
    return rc is not None and all(c >= 0 for c in rc)


def _support(rs: RootSystem, lam):
    """All weights of the module with highest weight lam, as fundamental
    coordinate tuples.  Walks down by simple roots; every weight of the
    module is reachable that way."""
    n = rs.rank
    alpha_f = [rs.weight_coords(rs.simple_root(j)) for j in range(n)]
    seen = {lam}
    layer = [lam]
    while layer:
        nxt = []
        for mu in layer:
            for j in range(n):
                nu = tuple(a - b for a, b in zip(mu, alpha_f[j]))
                if nu in seen:
                    continue
                if _in_hull(rs, lam, nu):
                    seen.add(nu)
                    nxt.append(nu)
        layer = nxt
    return seen


def freudenthal(rs: RootSystem, highest) -> WeightSystem:
    """Weight system of the simple module with the given dominant integral
    highest weight, multiplicities by the Freudenthal recursion."""
    lam = rs.dominant_integral(highest)
    n = rs.rank
    d = rs.symmetrizers
    support = _support(rs, lam)

    dominant = []
    for mu in support:
        if all(x >= 0 for x in mu):
            rc = rs.lattice_coords(tuple(a - b for a, b in zip(lam, mu)))
            dominant.append((sum(rc), mu))
    dominant.sort()

    pos_data = [(rs.weight_coords(r), rs.form_coords(r)) for r in rs.positive_roots()]

    mults = {lam: 1}
    rep_memo: dict = {}

    def mult_at(nu):
        m = rep_memo.get(nu)
        if m is None:
            dom, _ = rs.dominant_representative(nu)
            m = mults[dom]
            rep_memo[nu] = m
        return m

    for level, mu in dominant:
        if level == 0:
            continue
        total = 0
        for alpha_f, weighted in pos_data:
            nu = mu
            while True:
                nu = tuple(a + b for a, b in zip(nu, alpha_f))
                if nu not in support:
                    break
                # (nu | alpha) in the short-normalised form
                total += mult_at(nu) * sum(w * f for w, f in zip(weighted, nu))
        diff_rc = rs.lattice_coords(tuple(a - b for a, b in zip(lam, mu)))
        shifted = tuple(a + b + 2 for a, b in zip(lam, mu))
        den = sum(d[j] * diff_rc[j] * shifted[j] for j in range(n))
        q, rem = divmod(2 * total, den)
        if rem or q <= 0:
            raise IdentityViolation("Freudenthal recursion produced a non-multiplicity")
        mults[mu] = q

    entries = {}
    for mu in support:
        entries[Weight.of(mu)] = mult_at(mu)
    return WeightSystem(rs, Weight.of(lam), entries)


def weyl_dim(rs: RootSystem, highest) -> int:
    """Dimension of the simple module with the given highest weight, by the
    product formula over positive roots."""
    lam_rho = tuple(x + 1 for x in rs.dominant_integral(highest))
    num = 1
    den = 1
    for r in rs.positive_roots():
        weighted = rs.form_coords(r)
        num *= sum(w * f for w, f in zip(weighted, lam_rho))
        den *= sum(weighted)
    q, rem = divmod(num, den)
    if rem:
        raise IdentityViolation("Weyl dimension must be an integer")
    return q


class LittleAdjointDims(NamedTuple):
    dim: int
    zero_mult: int
    short_count: int


def little_adjoint_dims(rs: RootSystem) -> LittleAdjointDims:
    """Dimension data of the module with highest weight the short dominant
    root, computed three independent ways and cross-checked, once per
    system."""
    rs.require_two_lengths()
    return rs.memo("little_adjoint_dims", lambda: _dims(rs))


def _dims(rs: RootSystem) -> LittleAdjointDims:
    ws = freudenthal(rs, rs.weight_of(rs.theta_short))
    zero_mult = ws.zero_multiplicity
    short_count = 2 * len(rs.short_positives)
    dim = ws.dimension
    if dim != weyl_dim(rs, rs.weight_of(rs.theta_short)):
        raise IdentityViolation("multiplicity sum disagrees with the dimension formula")
    if dim != short_count + zero_mult:
        raise IdentityViolation("weight count disagrees with the dimension")
    return LittleAdjointDims(dim=dim, zero_mult=zero_mult, short_count=short_count)


class DeltaPartition(NamedTuple):
    """Roots not orthogonal to a fixed root, split by the sign of the root
    and the sign of the inner product."""

    pos_pos: tuple[Root, ...]
    pos_neg: tuple[Root, ...]
    neg_pos: tuple[Root, ...]
    neg_neg: tuple[Root, ...]

    @property
    def size(self) -> int:
        return len(self.pos_pos) + len(self.pos_neg) + len(self.neg_pos) + len(self.neg_neg)


def delta_partition(rs: RootSystem, mu: Root) -> DeltaPartition:
    if not isinstance(mu, Root) or mu.coeffs not in rs.root_index:
        raise ValueError("expected a root of the system")
    pp, pn, np_, nn = [], [], [], []
    for r in rs.roots:
        v = rs.inner(r, mu)
        if v == 0:
            continue
        if r.is_positive:
            (pp if v > 0 else pn).append(r)
        else:
            (np_ if v > 0 else nn).append(r)
    part = DeltaPartition(tuple(pp), tuple(pn), tuple(np_), tuple(nn))
    if len(part.pos_pos) != len(part.neg_neg) or len(part.pos_neg) != len(part.neg_pos):
        raise IdentityViolation("sign partition lost its negation symmetry")
    return part


def hw_orbit_dim(rs: RootSystem) -> int:
    """Dimension of the closure of the highest weight orbit in the
    short-dominant module: one plus the number of positive roots not
    orthogonal to the short dominant root."""
    rs.require_two_lengths()
    theta_s = rs.theta_short
    count = sum(1 for r in rs.positive_roots() if rs.inner(r, theta_s) > 0)
    dim = 1 + count
    if dim != 2 * theta_s.height:
        raise IdentityViolation("orbit dimension disagrees with twice the height")
    return dim
