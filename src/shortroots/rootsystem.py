"""Exact root systems for the simple Lie types A..G.

:class:`RootSystem` derives everything else from one Cartan matrix and owns
all root arithmetic, on integer vectors: roots by their coefficients over
the simple roots, weights by their coordinates over the fundamental
weights (the value types and the Cartan-matrix layer are in ``cartan``).
The invariant inner product is normalised so that short roots have
squared length 2, which keeps every pairing against a coroot integral.
The constructor finds the positive roots by one upward closure from the
simple roots: a positive root that is not simple has a simple reflection
that lowers its height (Humphreys, Introduction to Lie Algebras and
Representation Theory, section 10), so every positive root is reached from a
simple root by reflections that raise it.  A build writes the rank
squared coordinates of its Cartan matrix and rank many per root the
closure finds, and ``Limits.max_root_work`` caps them: a system past the
cap is refused (``SizeLimitExceeded``) as its closure finds the first
root too many, and one of a rank at which no simple type fits is refused
on its rank alone, before its node order or any matrix is made.  No
inverse of the Cartan matrix is needed for the closure; the integer
adjugate, which ``lattice_coords`` and ``root_coords`` read, is computed
on a system's first such call, by the elimination in ``classify``.
The walks over Weyl orbits of weights, and the Weyl dimension formula,
are in ``orbits``; they read the sparse Cartan columns ``RootSystem.cols``.
``Fraction`` appears only where an answer is genuinely rational
(``root_coords`` and the inner product of two weights), and is imported
there, so a process that asks for no rational answer never loads
``fractions``.

Every system is named by its type and an order of its nodes, and its
Cartan matrix is Bourbaki's re-indexed by that order.  ``build`` takes a
type name and Bourbaki's own order, so its simple roots follow the Bourbaki
numbering: the short simple root of type B sits at the end of the chain,
those of type C at the start, those of F4 at positions 3 and 4, and that
of G2 at position 1.  ``from_cartan`` names a matrix's type and finds,
once, the order in which it is Bourbaki's, so it keeps the matrix's node
order.  In a simply-laced system every root is tagged "short", so that
the short dominant root coincides with the highest root.

The classifier (``classify``) is imported only inside ``from_cartan`` and
``RootSystem._adjugate``, which ``lattice_coords`` and ``root_coords``
read: a command that names its systems by type and asks for no
root-lattice coordinates never compiles it.  The caps (``config``) are
read inside the constructor, so importing this module does not load them.
"""

import math
import operator
from collections import Counter
from functools import lru_cache

# the constructor calls cm._symmetrizers, and RootSystem._adjugate calls
# classify._adjugate, through the module, so that a test can substitute
# either
from . import cartan as cm
from .cartan import (
    LONG,
    SHORT,
    Root,
    RootSystemSpec,
    Weight,
    _dot,
    _node_order,
    _of_rank,
    cartan_matrix,
)
from .errors import IdentityViolation, SizeLimitExceeded, UnsupportedRootSystem

__all__ = [
    "RootSystem",
    "build",
    "from_cartan",
    "dual_coxeter_of_dual",
    "exponents_from_heights",
]


class RootSystem:
    """Everything derived from a simple type and an order of its nodes, and
    the one owner of root arithmetic.

    Per positive root the constructor stores two integer values, the
    fundamental coordinates A.c and the squared length; with p positive
    roots, root k + p is the negative of root k.  ``cols`` holds A's
    columns sparsely, column i as the pairs (j, A[j][i]) with A[j][i]
    nonzero: the simple reflection s_i subtracts y_i times column i from
    fundamental coordinates y, and that is all the orbit walks of
    ``orbits`` read of A.  The form vector D.c (so that (x | root) is the
    plain dot product of x's fundamental coordinates with D.c) is computed
    from the coefficients where it is read.  Data
    that only some callers need is built lazily through :meth:`memo`.
    ``nodes`` orders the nodes, Bourbaki's node k at node ``nodes[k]``, and
    ``cartan`` is ``cartan_matrix(spec)`` re-indexed by it, so every system
    is of finite type and of its named type; ``_node_order`` refuses any
    other order before any work.  The constructor's own raises are
    self-checks (IdentityViolation): no such order reaches them unless an
    internal step is wrong.  Use :func:`build` or :func:`from_cartan`,
    which share one cache, instead of calling the constructor."""

    def __init__(self, spec: RootSystemSpec, nodes: tuple[int, ...]):
        self.spec = spec
        cap, most = _root_budget(spec)
        n = spec.rank
        self.nodes = _node_order(nodes, n)
        self.rank = n
        bourbaki = cartan_matrix(spec)
        at = sorted(range(n), key=nodes.__getitem__)   # Bourbaki's node at each node
        self.cartan = A = tuple([tuple([bourbaki[i][j] for j in at]) for i in at])
        del bourbaki   # n * n ints that the closure below need not hold
        self.symmetrizers = d = cm._symmetrizers(A)
        self.cols = tuple(
            tuple((j, A[j][i]) for j in range(n) if A[j][i]) for i in range(n)
        )
        self._memo: dict = {}

        # the positive roots are the upward closure of the simple roots (the
        # columns of A): a root y with y_i < 0 gives the higher root s_i(y)
        fund_of = {}
        todo = [(tuple(int(i == j) for j in range(n)), col) for i, col in enumerate(zip(*A))]
        while todo:
            c, y = todo.pop()
            if c not in fund_of:
                if len(fund_of) >= most:
                    raise _past_the_root_cap(spec, cap)
                fund_of[c] = y
                for i, step in enumerate(y):
                    if step < 0:
                        z = list(y)
                        for j, a in self.cols[i]:
                            z[j] -= step * a
                        todo.append((c[:i] + (c[i] - step,) + c[i + 1:], tuple(z)))
        positives = sorted(fund_of, key=lambda c: (sum(c), c))
        self._ac = tuple([fund_of[c] for c in positives])
        self._sq = lengths = tuple(
            [_dot(map(operator.mul, d, c), ac) for c, ac in zip(positives, self._ac)])
        if min(lengths) != 2:
            raise IdentityViolation(f"normalisation failure for {spec}")
        pos_roots = [Root(c, SHORT if sq == 2 else LONG) for c, sq in zip(positives, lengths)]
        self.roots: tuple[Root, ...] = tuple(pos_roots + [-r for r in pos_roots])
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
            raise IdentityViolation(f"highest root of {spec} is not unique")
        self.theta = pos_roots[-1]
        dominant_short = [
            r for i, r in enumerate(pos_roots) if r.is_short and min(self._ac[i]) >= 0
        ]
        if len(dominant_short) != 1:
            raise IdentityViolation(f"{spec} has {len(dominant_short)} dominant short roots")
        self.theta_short = dominant_short[0]

        self.coxeter_number = self.theta.height + 1

        self.rho = Weight((1,) * n)
        self.exponents = exponents_from_heights(heights)
        self.weyl_order = math.prod(m + 1 for m in self.exponents)
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
        if type(coeffs) is not tuple or any(type(c) is not int for c in coeffs):
            raise TypeError(f"a root takes a tuple of int coefficients, not {coeffs!r}")
        k = self.root_index.get(coeffs)
        if k is None:
            raise ValueError(f"{coeffs} is not a root of {self.spec}")
        length = self.roots[k].length_class
        if isinstance(root, Root) and root.length_class != length:
            raise ValueError(f"{coeffs} is a {length} root of {self.spec}, not {root.length_class}")
        return k

    def simple_root(self, i: int) -> Root:
        """Simple root i, the root of index rank - 1 - i: the positive roots
        run by (height, coeffs), so the simple roots come first, in reverse
        node order."""
        if type(i) is not int:
            raise TypeError(f"a simple root takes an int index, not {i!r}")
        if not 0 <= i < self.rank:
            raise ValueError(f"{self.spec} has no simple root {i}; "
                             f"its indices run from 0 to {self.rank - 1}")
        return self.roots[self.rank - 1 - i]

    def positive_roots(self):
        return list(self.roots[: self.num_positive])

    def short_positive_roots(self):
        return [self.roots[i] for i in self.short_positives]

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
        return max(self._sq) // 2

    # -- coordinates and the invariant form -----------------------------------

    def weight_coords(self, root) -> tuple[int, ...]:
        """Fundamental coordinates A.c of a root, as integers."""
        k = self.index(root)
        p = len(self._ac)
        return self._ac[k] if k < p else tuple([-x for x in self._ac[k - p]])

    def form_coords(self, root) -> tuple[int, ...]:
        """The integer vector D.c: (x | root) is its dot product with the
        fundamental coordinates of x."""
        return tuple(map(operator.mul, self.roots[self.index(root)].coeffs, self.symmetrizers))

    def weight_of(self, root: Root) -> Weight:
        return Weight(self.weight_coords(root))

    def as_weight(self, value) -> Weight:
        """A Weight, or a sequence of fundamental coordinates, as a Weight
        of this system's rank."""
        w = value if isinstance(value, Weight) else Weight.of(value)
        _of_rank(w.fund, self.rank)
        return w

    def dominant_integral(self, weight) -> tuple[int, ...]:
        """The fundamental coordinates of a dominant weight (see as_weight);
        ValueError for any other weight."""
        w = self.as_weight(weight)
        if not w.is_dominant:
            raise ValueError(f"{w} is not dominant")
        return w.fund

    def _adjugate(self):
        """(det A, adj A) for this system's Cartan matrix A, computed on the
        first call by the elimination in ``classify``, which is loaded here."""
        from . import classify

        return self.memo("adjugate", lambda: classify._adjugate(self.cartan))

    def lattice_coords(self, weight):
        """Integer root-lattice coordinates of a weight (see as_weight), or
        None when it lies outside the root lattice."""
        fund = self.as_weight(weight).fund
        det, adj = self._adjugate()
        out = []
        for row in adj:
            q, rem = divmod(_dot(row, fund), det)
            if rem:
                return None
            out.append(q)
        return tuple(out)

    def root_coords(self, weight) -> "tuple[Fraction, ...]":
        """Rational root-lattice coordinates of a weight (see as_weight)."""
        from fractions import Fraction

        fund = self.as_weight(weight).fund
        det, adj = self._adjugate()
        return tuple(Fraction(_dot(row, fund), det) for row in adj)

    def inner(self, x, y):
        """W-invariant inner product of two roots or weights, the sum of
        c_i d_i f_i over the root coordinates c of the one put first (a
        root, if either is) and the fundamental coordinates f of the
        other: an int once a root is involved, a Fraction for two weights."""
        if isinstance(x, Weight):
            x, y = y, x
        c = self.root_coords(x) if isinstance(x, Weight) else self.roots[self.index(x)].coeffs
        f = _of_rank(y.fund, self.rank) if isinstance(y, Weight) else self.weight_coords(y)
        return _dot(map(operator.mul, c, self.symmetrizers), f)

    def inner_row(self, root) -> tuple[int, ...]:
        """(r | root) for every positive root r, in index order: one row of
        the integer Gram matrix of the positive roots.  Root k + p is the
        negative of root k, so its pairing is the negative of entry k."""
        form = self.form_coords(root)
        mul = operator.mul
        return tuple([sum(map(mul, form, ac)) for ac in self._ac])

    def coroot_row(self, root) -> tuple[int, ...]:
        """<root, r^v> = 2 (r | root) / (r | r) for every positive root r,
        in index order: ``inner_row`` read against the squared lengths."""
        out = []
        for v, sq in zip(self.inner_row(root), self._sq):
            q, rem = divmod(2 * v, sq)
            if rem:
                raise IdentityViolation("coroot pairing of an integral weight must be integral")
            out.append(q)
        return tuple(out)

    def pairing(self, x, root: Root) -> int:
        """Pairing of a root or a Weight x against the coroot of the given
        root: an int, since x is integral."""
        q, rem = divmod(2 * self.inner(root, x), self._sq[self.index(root) % len(self._sq)])
        if rem:
            raise IdentityViolation("coroot pairing of an integral weight must be integral")
        return q


def _root_budget(spec):
    """``Limits.max_root_work`` and the number of roots the closure of
    spec's system may find under it, read from the rank alone.  A build
    writes the n x n matrix, then n coordinates per root its closure finds,
    so it may find cap // n - n roots.  A simple type of rank n has
    nh / 2 positive roots, h its Coxeter number, and h >= n + 1, with
    equality for A_n alone; so a rank at which even A_n's n (n + 1) / 2
    pass the cap is refused (SizeLimitExceeded) before any node order,
    matrix or root is made."""
    from . import config

    n = spec.rank
    cap = config.current_limits().max_root_work
    most = cap // n - n
    if most < n * (n + 1) // 2:
        raise _past_the_root_cap(spec, cap)
    return cap, most


def _past_the_root_cap(spec, cap):
    return SizeLimitExceeded(f"building {spec} writes more than the cap of {cap} coordinates,"
                             " its Cartan matrix's and rank many per root (max_root_work)")


_FAMILY_LETTERS = frozenset("ABCDEFGabcdefg")


@lru_cache(maxsize=None)
def _cached(spec: RootSystemSpec, nodes) -> RootSystem:
    """The one cache of systems, keyed on (spec, node order)."""
    return RootSystem(spec, nodes)


def build(family, rank: int | None = None) -> RootSystem:
    """Construct (and cache) the root system of the given type.

    Accepts build('C', 3), build(RootSystemSpec('C', 3)) or build('C3').
    A type name is a family letter A to G and a rank in ASCII decimal
    digits, nothing between them, case-insensitive and stripped of
    surrounding whitespace: "C4" and " c4 " are read, "C 4", "C+4",
    "C1_0" and a rank in non-ASCII digits are not."""
    if isinstance(family, RootSystemSpec):
        spec = family
    elif rank is None:
        name = str(family).strip()
        letter, digits = name[:1], name[1:]
        if not (letter in _FAMILY_LETTERS and digits.isascii() and digits.isdigit()):
            raise ValueError(f"cannot parse root system type {family!r} (expected e.g. C4, G2)")
        spec = RootSystemSpec(letter.upper(), int(digits))
    else:
        spec = RootSystemSpec(str(family).upper(), rank)
    _root_budget(spec)   # a rank past the cap is refused before its node order
    return _cached(spec, tuple(range(spec.rank)))


def from_cartan(matrix) -> RootSystem:
    """Construct (and cache) the root system of an irreducible Cartan matrix
    of finite type, with the simple roots in the matrix's node order.

    The spec is classify_cartan's canonical label; the order in which the
    matrix is that label's Bourbaki matrix is found once, here, and the
    system derives the matrix from the two.  So C2's Bourbaki matrix yields
    a system of spec B2 with the short simple root first: an object apart
    from build("C2") and build("B2").  A matrix that build also constructs
    gives build's object.  NotFiniteType for a reducible or non-finite
    matrix.  The classifier is loaded here, on the first call."""
    from .classify import _type_and_order

    return _cached(*_type_and_order(matrix))


def exponents_from_heights(heights) -> tuple[int, ...]:
    """The exponents of a root system, read off the heights of its positive
    roots: the conjugate partition of their height distribution."""
    counts = Counter(heights).values()
    return tuple(sorted(sum(v >= level for v in counts) for level in range(1, max(counts) + 1)))


def dual_coxeter_of_dual(rs: RootSystem) -> int:
    """Dual Coxeter number of the dual root system, 1 + (sigma | theta_s):
    sigma, the half sum of positive coroots, is the dual system's rho, and
    theta_s, being short, equals its coroot, the dual system's highest root.
    (sigma | theta_s) is half the sum of the pairings of theta_s against
    the positive coroots, one ``coroot_row``."""
    value, rem = divmod(sum(rs.coroot_row(rs.theta_short)), 2)
    if rem:
        raise IdentityViolation("(sigma | theta_s) must be an integer")
    return 1 + value
