"""The Cartan-matrix layer and the value types of the package.

A simple type is a ``RootSystemSpec``; ``cartan_matrix`` gives its
Bourbaki matrix, which a ``RootSystem`` re-indexes by an order of its nodes
(``_node_order`` checks one) and keeps as ``nodes``.  The symmetrizers
of that matrix, found in integers, are here too: ``RootSystem`` is built
on them.  Naming the type of a given matrix, and the elimination behind
it, live in ``classify``, which no build needs.

Roots are integer coefficient vectors over the simple roots; weights are
coordinate vectors over the fundamental weights.  Weights are integral,
so a ``Weight`` holds a tuple of ints, which its constructor checks.
``Weight.of`` takes an int as it is and loads ``numbers`` only to judge
any other coordinate; floats and non-integral coordinates are refused,
never rounded.  The arithmetic of roots and weights against a form is
``RootSystem``'s.
"""

import math
import operator

from .errors import NotFiniteType

__all__ = [
    "RootSystemSpec",
    "Root",
    "Weight",
    "cartan_matrix",
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

    def _asdict(self) -> dict:
        """The fields by name, as a record gives them: the CLI's JSON
        writer writes a value as this dict."""
        return dict(zip(self.__slots__, self._astuple()))

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
        if length_class not in (SHORT, LONG):
            raise ValueError(f"a root's length class is {SHORT!r} or {LONG!r}, "
                             f"not {length_class!r}")
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
        return Root(tuple(map(operator.neg, self.coeffs)), self.length_class)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def _of_rank(fund, rank: int):
    """fund itself once it has rank coordinates: the one rank check of
    every weight entry point."""
    if len(fund) != rank:
        raise ValueError("weight has the wrong rank")
    return fund


def _node_order(order, rank: int):
    """order itself once it is a tuple of ints listing 0 to rank - 1 once
    each: the one node-order check.  TypeError for any other type, a float
    or a bool included; ValueError for another length or a repeat."""
    if type(order) is not tuple or any(type(k) is not int for k in order):
        raise TypeError(f"an order of the nodes is a tuple of ints, not {order!r}")
    if sorted(order) != list(range(rank)):
        raise ValueError(f"{order} is not an order of the {rank} nodes")
    return order


class Weight(_Value):
    """An integral weight, stored by integer coordinates over the
    fundamental weights.  The constructor takes a tuple of ints only
    (TypeError for anything else, a float or a bool included);
    ``Weight.of`` parses other exact coordinates."""

    __slots__ = ("fund",)

    def __init__(self, fund: tuple[int, ...]):
        if type(fund) is not tuple or any(type(c) is not int for c in fund):
            raise TypeError(f"a Weight holds a tuple of int coordinates, not {fund!r}; "
                            "Weight.of parses other exact coordinates")
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
    of a connected generalized Cartan matrix with a symmetric zero pattern
    (classify_cartan checks both first): d_i is half the squared length
    of alpha_i.  The d_i are propagated along bonds from node 0, then
    checked on every pair, cycles included; NotFiniteType if no integral
    d exists (a matrix of finite type always has one).  The arithmetic
    stays in ints: when a ratio makes d_j fractional, every d found so far
    is scaled up first."""
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


def _dot(u, v):
    return sum(map(operator.mul, u, v))
