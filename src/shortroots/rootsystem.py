"""Exact root systems for the simple Lie types A..G.

Roots are integer coefficient vectors over the simple roots; weights are
coordinate vectors over the fundamental weights.  The invariant inner
product is normalised so that short roots have squared length 2, which
keeps every pairing against a coroot integral.  :class:`RootSystem` owns
all root arithmetic and does it on integer vectors.  It also owns the
one Weyl-orbit walk, ``RootSystem.descend``: down from a dominant point
by simple reflections, one length of W per layer, optionally kept above
a floor.  The constructor finds the positive roots with it, Freudenthal
expands dominant weights into orbits with it, and Kostant's alternating
sum runs over it.  ``RootSystem.straighten``, the one chamber walk, goes
the other way, up to the dominant conjugate with its sign; the nullcone
character and Freudenthal straighten through it.  Weights are integral,
so a ``Weight`` holds int coordinates and pairs integrally with every
coroot; ``Fraction`` appears only where an answer is genuinely rational
(``root_coords`` and the inner product of two weights), and is imported
there, so a process that asks for no rational answer never loads
``fractions``.  The symmetrizers
are found in integers, and ``Weight.of`` takes an int as it is and loads
``numbers`` only to judge any other coordinate.  Floats and non-integral
coordinates are refused, never rounded.

Every system is built from its Cartan matrix, with the simple roots in
the matrix's node order.  ``build`` takes a type name and passes Bourbaki's
matrix, so its simple roots follow the Bourbaki numbering: the short simple
root of type B sits at the end of the chain, those of type C at the start,
those of F4 at positions 3 and 4, and that of G2 at position 1.
``from_cartan`` takes a matrix and keeps its order.  In a simply-laced
system every root is tagged "short", so that the short dominant root
coincides with the highest root.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from functools import lru_cache

from .errors import IdentityViolation, NotFiniteType, UnsupportedRootSystem

__all__ = [
    "RootSystemSpec",
    "Root",
    "Weight",
    "RootSystem",
    "build",
    "from_cartan",
    "bourbaki_nodes",
    "cartan_matrix",
    "classify_cartan",
    "dual_coxeter_of_dual",
    "exponents_from_heights",
    "weyl_dim",
]

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

SHORT = "short"
LONG = "long"


def _by_fields(op):
    """A comparison of two values of one class by their field tuples; any
    other operand gets NotImplemented."""
    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op(self._astuple(), other._astuple())
    return compare


class _Value:
    """Base of the immutable value types: a subclass lists its fields in
    __slots__ and sets each once, in __init__.  A value equals only values
    of its own class, hashes as its field tuple, refuses assignment, and is
    copied and pickled through __init__."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    __eq__ = _by_fields(operator.eq)

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class RootSystemSpec(_Value):
    """A simple type: family letter plus rank, e.g. ('C', 4).  Specs are
    ordered by (family, rank)."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        bounds = _RANK_BOUNDS.get(family)
        if bounds is None:
            raise ValueError(f"unknown family {family!r}, expected one of A..G")
        lo, hi = bounds
        if type(rank) is not int or rank < lo or (hi is not None and rank > hi):
            raise ValueError(f"rank {rank} is not valid for type {family}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    __lt__ = _by_fields(operator.lt)
    __le__ = _by_fields(operator.le)
    __gt__ = _by_fields(operator.gt)
    __ge__ = _by_fields(operator.ge)

    def __str__(self):
        return f"{self.family}{self.rank}"


class Root(_Value):
    """A root, stored by its integer coefficients over the simple roots."""

    __slots__ = ("coeffs", "length_class")

    def __init__(self, coeffs: tuple[int, ...], length_class: str):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "length_class", length_class)

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return self.height > 0

    @property
    def is_short(self) -> bool:
        return self.length_class == SHORT

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs), self.length_class)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def _of_rank(fund, rank: int):
    """fund itself once it has rank coordinates: the one rank check of
    every weight entry point."""
    if len(fund) != rank:
        raise ValueError("weight has the wrong rank")
    return fund


class Weight(_Value):
    """An integral weight, stored by integer coordinates over the
    fundamental weights."""

    __slots__ = ("fund",)

    def __init__(self, fund: tuple[int, ...]):
        object.__setattr__(self, "fund", fund)

    @staticmethod
    def of(coords) -> "Weight":
        """The one coordinate parser: ints, or rationals with denominator 1.
        TypeError for a float or any other non-rational, ValueError for a
        rational that is not an integer.  An int is taken as it is; only
        another coordinate loads ``numbers`` to be judged."""
        fund = []
        for c in coords:
            if type(c) is not int:
                import numbers

                if not isinstance(c, numbers.Rational):
                    raise TypeError(
                        f"weights take exact coordinates, not the {type(c).__name__} {c!r}"
                    )
                if c.denominator != 1:
                    raise ValueError(f"weights take integral coordinates, not {c}")
                c = int(c)
            fund.append(c)
        return Weight(tuple(fund))

    @staticmethod
    def zero(rank: int) -> "Weight":
        return Weight((0,) * rank)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.fund)

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.fund)

    def __add__(self, other: "Weight") -> "Weight":
        rhs = _of_rank(other.fund, len(self.fund))
        return Weight(tuple(a + b for a, b in zip(self.fund, rhs)))

    def __sub__(self, other: "Weight") -> "Weight":
        rhs = _of_rank(other.fund, len(self.fund))
        return Weight(tuple(a - b for a, b in zip(self.fund, rhs)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.fund))

    def __rmul__(self, scalar) -> "Weight":
        return Weight.of([scalar * a for a in self.fund])

    def __str__(self):
        return "[" + ",".join(str(c) for c in self.fund) + "]"


def cartan_matrix(spec: RootSystemSpec) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entry [i][j] the pairing of alpha_j against the
    coroot of alpha_i."""
    n = spec.rank
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j):
        A[i][j] = A[j][i] = -1

    f = spec.family
    if f in "ABCF":
        for i in range(n - 1):
            bond(i, i + 1)
        if f == "B":
            A[n - 1][n - 2] = -2  # last simple root is short
        elif f == "C":
            A[n - 2][n - 1] = -2  # last simple root is long
        elif f == "F":
            A[2][1] = -2  # third and fourth simple roots are short
    elif f == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif f == "E":
        for i, j in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2]:
            bond(i, j)
        bond(1, 3)
    elif f == "G":
        A[0][1] = -3  # first simple root is short
        A[1][0] = -1
    return tuple(tuple(row) for row in A)


def _symmetrizers(A) -> tuple[int, ...]:
    """Positive integers d_i with d_i*A[i][j] symmetric, normalised to min 1,
    of a connected generalized Cartan matrix: d_i is half the squared length
    of alpha_i.  The d_i are propagated along bonds, then checked on every
    pair, cycles included; NotFiniteType if no integral d exists (a matrix
    of finite type always has one).  The arithmetic stays in ints: when a
    ratio makes d_j fractional, every d found so far is scaled up first."""
    nodes = range(len(A))
    d = [1] + [0] * (len(A) - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in nodes:
            if A[i][j] and not d[j]:
                num, den = d[i] * A[i][j], A[j][i]   # d_j A[j][i] = d_i A[i][j]
                if num % den:
                    scale = abs(den) // math.gcd(num, den)
                    d = [v * scale for v in d]
                    num *= scale
                d[j] = num // den
                stack.append(j)
    lo = min(d)
    if any(v % lo for v in d):
        raise NotFiniteType("Cartan matrix is not symmetrizable over the integers")
    out = tuple(v // lo for v in d)
    if any(out[i] * A[i][j] != out[j] * A[j][i] for i in nodes for j in range(i)):
        raise NotFiniteType("Cartan matrix is not symmetrizable")
    return out


def _eliminate(m):
    """Fraction-free Gauss-Jordan elimination, in place, of the rows m of a
    symmetrizable generalized Cartan matrix A, augmented or not by further
    columns; returns det(A).

    The k-th pivot is the k-th leading minor of A, and Sylvester's identity
    makes each division exact.  A is of finite type exactly when every
    leading minor is positive (its symmetrization D.A is then positive
    definite; Kac, Infinite-dimensional Lie algebras, Prop. 4.9 and
    Thm 4.3), so a pivot <= 0 raises NotFiniteType."""
    prev = 1
    for k in range(len(m)):
        piv = m[k][k]
        if piv <= 0:
            raise NotFiniteType(f"leading minor {k + 1} of the Cartan matrix is {piv} <= 0")
        for r in range(len(m)):
            if r != k:
                f = m[r][k]
                m[r] = [(piv * x - f * y) // prev for x, y in zip(m[r], m[k])]
        prev = piv
    return prev


def _adjugate(A):
    """det(A) and the integer adjugate of A, by _eliminate on [A | I]."""
    n = len(A)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    return _eliminate(m), tuple(tuple(row[n:]) for row in m)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class RootSystem:
    """Everything derived from one Cartan matrix, and the one owner of root
    arithmetic.

    Per root index the constructor stores three integer values: the fundamental
    coordinates A.c, the form vector D.c (so that (x | root) is the plain
    dot product of x's fundamental coordinates with D.c) and the squared
    length.  Data that only some callers need is built lazily through
    :meth:`memo`.  Use :func:`build` or :func:`from_cartan`, which share
    one cache, instead of calling the constructor."""

    def __init__(self, spec: RootSystemSpec, cartan: tuple[tuple[int, ...], ...]):
        self.spec = spec
        n = spec.rank
        self.rank = n
        self.cartan = A = cartan
        self.symmetrizers = _symmetrizers(A)
        self._cols = tuple(
            tuple((j, A[j][i]) for j in range(n) if A[j][i]) for i in range(n)
        )
        self._det, self._adj = _adjugate(A)
        self._memo: dict = {}

        # the positive roots are the floor-0 descents from the dominant
        # conjugates of the simple roots (the columns of A), one per length
        d = self.symmetrizers
        dominant = {self.straighten(col)[0] for col in zip(*A)}
        if len(dominant) != len(set(d)):
            raise NotFiniteType(f"{spec} has {len(dominant)} dominant conjugates of simple roots")
        fund_of = {
            c: y for top in dominant for layer in self.descend(top, (0,) * n)
            for y, c in layer.items()
        }
        positives = sorted(fund_of, key=lambda c: (sum(c), c))
        pos_ac = [fund_of[c] for c in positives]
        forms = [tuple(x * y for x, y in zip(d, c)) for c in positives]
        lengths = [_dot(f, ac) for f, ac in zip(forms, pos_ac)]
        if min(lengths) != 2:
            raise NotFiniteType(f"normalisation failure for {spec}")
        pos_roots = [Root(c, SHORT if sq == 2 else LONG) for c, sq in zip(positives, lengths)]
        self.roots: tuple[Root, ...] = tuple(pos_roots + [-r for r in pos_roots])
        self._ac = tuple(pos_ac + [tuple(-x for x in a) for a in pos_ac])
        self._dc = tuple(forms + [tuple(-x for x in f) for f in forms])
        self._sq = tuple(lengths + lengths)
        self.num_positive = len(pos_roots)
        self.root_index = {r.coeffs: i for i, r in enumerate(self.roots)}
        positive = range(self.num_positive)
        self.short_positives = tuple(i for i in positive if self.roots[i].is_short)
        self.long_positives = tuple(i for i in positive if not self.roots[i].is_short)
        self.short_simple_indices = tuple(
            i for i in range(n) if self.simple_root(i).is_short
        )

        heights = [r.height for r in pos_roots]
        if heights.count(heights[-1]) != 1:
            raise NotFiniteType(f"highest root of {spec} is not unique")
        self.theta = pos_roots[-1]
        dominant_short = [
            r for i, r in enumerate(pos_roots) if r.is_short and min(self._ac[i]) >= 0
        ]
        if len(dominant_short) != 1:
            raise NotFiniteType(f"{spec} has {len(dominant_short)} dominant short roots")
        self.theta_short = dominant_short[0]

        self.coxeter_number = self.theta.height + 1
        if len(self.roots) != n * self.coxeter_number:
            raise NotFiniteType(f"{spec}: {len(self.roots)} roots != rank * h")

        self.rho = Weight((1,) * n)
        self.exponents = exponents_from_heights(heights)
        self.weyl_order = 1
        for m in self.exponents:
            self.weyl_order *= m + 1
        self.dual_coxeter_number = 1 + self.pairing(self.rho, self.theta)

    def memo(self, key, compute):
        """The value cached on this system under key, computed by compute()
        on first use."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- lookups -------------------------------------------------------------

    def index(self, root) -> int:
        coeffs = root.coeffs if isinstance(root, Root) else tuple(root)
        try:
            return self.root_index[coeffs]
        except KeyError:
            raise ValueError(f"{coeffs} is not a root of {self.spec}") from None

    def simple_root(self, i: int) -> Root:
        coeffs = tuple(int(i == j) for j in range(self.rank))
        return self.roots[self.root_index[coeffs]]

    def positive_roots(self):
        return list(self.roots[: self.num_positive])

    def short_positive_roots(self):
        return [self.roots[i] for i in self.short_positives]

    def long_positive_roots(self):
        return [self.roots[i] for i in self.long_positives]

    @property
    def is_multiply_laced(self) -> bool:
        return bool(self.long_positives)

    def require_two_lengths(self) -> None:
        """Raise UnsupportedRootSystem unless the system has two root lengths."""
        if not self.is_multiply_laced:
            raise UnsupportedRootSystem(f"{self.spec} has a single root length")

    @property
    def length_ratio(self) -> int:
        """Ratio of the two squared root lengths: 1, 2 or 3."""
        if not self.is_multiply_laced:
            return 1
        return self._sq[self.long_positives[0]] // 2

    # -- coordinates and the invariant form -----------------------------------

    def weight_coords(self, root) -> tuple[int, ...]:
        """Fundamental coordinates A.c of a root, as integers."""
        return self._ac[self.index(root)]

    def form_coords(self, root) -> tuple[int, ...]:
        """The integer vector D.c: (x | root) is its dot product with the
        fundamental coordinates of x."""
        return self._dc[self.index(root)]

    def weight_of(self, root: Root) -> Weight:
        return Weight(self.weight_coords(root))

    def check_rank(self, fund):
        """fund itself once it has one coordinate per simple root."""
        return _of_rank(fund, self.rank)

    def as_weight(self, value) -> Weight:
        """A Weight, or a sequence of fundamental coordinates, as a Weight
        of this system's rank."""
        w = value if isinstance(value, Weight) else Weight.of(value)
        self.check_rank(w.fund)
        return w

    def dominant_integral(self, weight) -> tuple[int, ...]:
        """The fundamental coordinates of a dominant weight (see as_weight);
        ValueError for any other weight."""
        w = self.as_weight(weight)
        if not w.is_dominant:
            raise ValueError(f"{w} is not dominant")
        return w.fund

    def lattice_coords(self, weight):
        """Integer root-lattice coordinates of a weight (see as_weight), or
        None when it lies outside the root lattice."""
        fund = self.as_weight(weight).fund
        out = []
        for row in self._adj:
            q, rem = divmod(_dot(row, fund), self._det)
            if rem:
                return None
            out.append(q)
        return tuple(out)

    def root_coords(self, weight: Weight) -> tuple[Fraction, ...]:
        from fractions import Fraction

        fund = self.check_rank(weight.fund)
        return tuple(Fraction(_dot(row, fund), self._det) for row in self._adj)

    def inner(self, x, y):
        """W-invariant inner product of two roots or weights: a Fraction for
        two weights, an int once a root is involved."""
        if isinstance(x, Weight) and isinstance(y, Weight):
            d = self.symmetrizers
            fund = self.check_rank(y.fund)
            return sum(c * e * f for c, e, f in zip(self.root_coords(x), d, fund))
        if isinstance(x, Weight):
            x, y = y, x
        other = self.check_rank(y.fund) if isinstance(y, Weight) else self.weight_coords(y)
        return _dot(self.form_coords(x), other)

    def inner_row(self, root) -> tuple[int, ...]:
        """(r | root) for every root r, in index order: one row of the
        integer Gram matrix of the roots."""
        form = self.form_coords(root)
        mul = operator.mul
        return tuple([sum(map(mul, form, ac)) for ac in self._ac])

    def pairing(self, x, root: Root) -> int:
        """Pairing of a root or a Weight x against the coroot of the given
        root: an int, since x is integral."""
        fund = self.check_rank(x.fund) if isinstance(x, Weight) else self.weight_coords(x)
        return self._pair(fund, self.index(root))

    def _pair(self, fund, b: int) -> int:
        """The pairing of the weight with fundamental coordinates fund
        against the coroot of root b."""
        q, rem = divmod(2 * _dot(self._dc[b], fund), self._sq[b])
        if rem:
            raise IdentityViolation("coroot pairing of an integral weight must be integral")
        return q

    def reflection_perm(self, k: int) -> tuple[int, ...]:
        """The permutation of root indices induced by the reflection in the
        root with index k, built on first use."""
        def compute():
            beta = self.roots[k].coeffs
            sq = self._sq[k]
            perm = []
            for a, (r, v) in enumerate(zip(self.roots, self.inner_row(self.roots[k]))):
                q, rem = divmod(2 * v, sq)   # the pairing of root a against the coroot
                if rem:
                    raise IdentityViolation("coroot pairing of a root must be integral")
                perm.append(
                    self.root_index[tuple([c - q * b for c, b in zip(r.coeffs, beta)])] if q else a
                )
            return tuple(perm)

        return self.memo(("reflection", k), compute)

    # -- dominance ------------------------------------------------------------

    def dominant_representative(self, weight):
        """Dominant Weyl conjugate of a weight (see as_weight), as
        straighten returns it."""
        return self.straighten(self.as_weight(weight).fund)

    def descend(self, fund, floor=None):
        """The Weyl orbit of a dominant int tuple of fundamental coords,
        walked down from it one layer per length of W: the one orbit walk
        of the engines.

        A point y steps to s_i(y) = y - y_i * alpha_i wherever y_i > 0, and
        every orbit point is reached so, one length per step (Humphreys,
        Reflection Groups and Coxeter Groups, ch. 1); layer k holds the
        points whose shortest conjugating element has length k.  Each layer
        is a dict from its points to None, or, given a floor, to the
        root-lattice coordinates of y - floor: then only the points with
        y - floor in the positive root cone are kept, and a point whose
        step would make a coordinate negative is dropped with everything
        below it, which is exact since every step goes down."""
        cols = self._cols
        if floor is None:
            layer = {fund: None}
        else:
            c = self.lattice_coords(tuple([a - b for a, b in zip(fund, floor)]))
            if c is None or min(c) < 0:
                return
            layer = {fund: c}
        while layer:
            yield layer
            below = {}
            for y, c in layer.items():
                for i, step in enumerate(y):
                    if step > 0 and (c is None or step <= c[i]):
                        z = list(y)
                        for j, a in cols[i]:
                            z[j] -= step * a
                        z = tuple(z)
                        if z not in below:
                            below[z] = None if c is None else c[:i] + (c[i] - step,) + c[i + 1:]
            layer = below

    def straighten(self, fund):
        """Dominant Weyl conjugate of an int tuple of fundamental coords,
        taken unchecked: the engines' kernel.

        The scan reflects in the first simple root alpha_i whose coordinate
        c is negative, then resumes at the first neighbour j < i that the
        reflection turned negative, or else at i + 1.  That is exact: the
        coordinates below i were >= 0, the reflection changes only the
        neighbours of alpha_i, and coordinate i becomes -c > 0.

        Returns (coords, sign) where sign is the determinant (-1)^steps of
        the conjugating element, or 0 when the weight is singular (fixed by
        some reflection)."""
        cols = self._cols
        n = self.rank
        v = list(fund)
        sign = 1
        i = 0
        while i < n:
            c = v[i]
            if c < 0:
                resume = i + 1
                for j, a in cols[i]:
                    x = v[j] - c * a
                    v[j] = x
                    if x < 0 and j < resume:
                        resume = j
                sign = -sign
                i = resume
            else:
                i += 1
        if 0 in v:
            sign = 0
        return tuple(v), sign


@lru_cache(maxsize=None)
def _cached(spec: RootSystemSpec, cartan) -> RootSystem:
    """The one cache of systems, keyed on (spec, Cartan matrix)."""
    return RootSystem(spec, cartan)


def build(family, rank: int | None = None) -> RootSystem:
    """Construct (and cache) the root system of the given type.

    Accepts build('C', 3), build(RootSystemSpec('C', 3)) or build('C3').
    A type name is a family letter and a decimal rank, nothing between
    them, case-insensitive and stripped of surrounding whitespace."""
    if isinstance(family, RootSystemSpec):
        spec = family
    elif rank is None:
        m = re.fullmatch(r"([A-Ga-g])([0-9]+)", str(family).strip())
        if not m:
            raise ValueError(f"cannot parse root system type {family!r} (expected e.g. C4, G2)")
        spec = RootSystemSpec(m.group(1).upper(), int(m.group(2)))
    else:
        spec = RootSystemSpec(str(family).upper(), rank)
    return _cached(spec, cartan_matrix(spec))


def from_cartan(matrix) -> RootSystem:
    """Construct (and cache) the root system of an irreducible Cartan matrix
    of finite type, with the simple roots in the matrix's node order.

    The spec is classify_cartan's canonical label, so C2's Bourbaki matrix
    yields a system of spec B2 with the short simple root first: an object
    apart from build("C2") and build("B2").  A matrix that build also
    constructs gives build's object.  NotFiniteType for a reducible or
    non-finite matrix."""
    specs = classify_cartan(matrix)
    if len(specs) != 1:
        raise NotFiniteType(f"Cartan matrix is reducible: {' + '.join(map(str, specs))}")
    return _cached(specs[0], tuple(tuple(row) for row in matrix))


def bourbaki_nodes(rs: RootSystem) -> tuple[int, ...]:
    """The simple-root indices of rs in Bourbaki's numbering: the walk from
    an end of the diagram whose permuted Cartan matrix is cartan_matrix(rs.spec),
    unique on a two-length diagram.  A branched diagram keeps the matrix order."""
    A, n = rs.cartan, rs.rank
    for path in ([i] for i in range(n) if sum(map(bool, A[i])) <= 2):   # from an end
        for _ in range(n - 1):   # a tree: the one node behind is path[-2]
            path += [j for j in range(n) if A[path[-1]][j] and j not in path[-2:]][:1]
        if tuple(tuple(A[i][j] for j in path) for i in path) == cartan_matrix(rs.spec):
            return tuple(path)
    return tuple(range(n))


def exponents_from_heights(heights) -> tuple[int, ...]:
    """The exponents of a root system, read off the heights of its positive
    roots: the conjugate partition of their height distribution."""
    counts = Counter(heights).values()
    return tuple(sorted(sum(v >= level for v in counts) for level in range(1, max(counts) + 1)))


def weyl_dim(rs: RootSystem, highest) -> int:
    """Dimension of the simple module with the given highest weight, by the
    product formula over positive roots."""
    lam_rho = [x + 1 for x in rs.dominant_integral(highest)]
    forms = rs._dc[:rs.num_positive]
    q, rem = divmod(math.prod([_dot(f, lam_rho) for f in forms]), math.prod(map(sum, forms)))
    if rem:
        raise IdentityViolation("Weyl dimension must be an integer")
    return q


def dual_coxeter_of_dual(rs: RootSystem) -> int:
    """Dual Coxeter number of the dual root system, 1 + (sigma | theta_s):
    sigma, the half sum of positive coroots, is the dual system's rho, and
    theta_s, being short, equals its coroot, the dual system's highest root.
    (sigma | theta_s) is half the sum of the pairings of theta_s against
    the positive coroots."""
    value, rem = divmod(sum(rs.pairing(rs.theta_short, r) for r in rs.positive_roots()), 2)
    if rem:
        raise IdentityViolation("(sigma | theta_s) must be an integer")
    return 1 + value


# -- classification of Cartan matrices ----------------------------------------


def classify_cartan(matrix) -> list[RootSystemSpec]:
    """Classify a (possibly reducible) finite-type Cartan matrix.

    Returns the list of irreducible component types, ordered by smallest
    participating index.  Raises NotFiniteType for anything that is not a
    generalized Cartan matrix of finite type.

    A connected component is of finite type exactly when it is
    symmetrizable (_symmetrizers) and every leading minor is positive
    (the pivots of _eliminate).  Its rank m, determinant and symmetrizers d
    then name it: a simply-laced component is A_m (det m + 1), D_m (det 4)
    or E_m (det 9 - m); otherwise the largest d_i is the squared length
    ratio, 3 only in G2, and a double-laced component is B_m with one short
    simple root, C_m with one long one, and F4 otherwise.  Isomorphic labels
    are canonicalised by that order: a rank-2 double bond reports as B2, a
    simply-laced 3-chain (det 4) as A3."""
    A = [list(row) for row in matrix]
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise NotFiniteType("matrix is not square")
    for i in range(n):
        if A[i][i] != 2:
            raise NotFiniteType("diagonal entries must equal 2")
        for j in range(n):
            if not isinstance(A[i][j], int):
                raise NotFiniteType("entries must be integers")
            if i != j:
                if A[i][j] > 0:
                    raise NotFiniteType("off-diagonal entries must be non-positive")
                if (A[i][j] == 0) != (A[j][i] == 0):
                    raise NotFiniteType("zero pattern must be symmetric")

    unvisited = set(range(n))
    components = []
    while unvisited:
        start = min(unvisited)
        comp = [start]
        unvisited.discard(start)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in list(unvisited):
                if A[i][j] != 0:
                    unvisited.discard(j)
                    comp.append(j)
                    queue.append(j)
        components.append(sorted(comp))
    return [_classify_component(A, comp) for comp in components]


def _classify_component(A, nodes) -> RootSystemSpec:
    """The type of one connected component, by the rule of classify_cartan."""
    sub = [[A[i][j] for j in nodes] for i in nodes]
    d = _symmetrizers(sub)
    det = _eliminate(sub)
    m = len(nodes)
    if max(d) == 1:
        family = "A" if det == m + 1 else "D" if det == 4 else "E"
    elif max(d) == 3:
        family = "G"
    else:
        shorts = d.count(1)
        family = "B" if shorts == 1 else "C" if shorts == m - 1 else "F"
    return RootSystemSpec(family, m)
