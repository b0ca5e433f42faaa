"""Shared oracle data and independent reference implementations, and
``python_child``, which runs a fresh interpreter on the package.

Everything here is deliberately dumb: lookup tables frozen from the
classical literature and brute-force enumerations.  Tests compare the
library's derived values against these, never the other way round.
"""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from pathlib import Path

from shortroots import Root, Weight, simple_reflection
from shortroots.orbits import _straighten

# (number of positive roots, Coxeter number, dual Coxeter number, exponents)
_SPORADIC = {
    ("E", 6): (36, 12, 12, (1, 4, 5, 7, 8, 11)),
    ("E", 7): (63, 18, 18, (1, 5, 7, 9, 11, 13, 17)),
    ("E", 8): (120, 30, 30, (1, 7, 11, 13, 17, 19, 23, 29)),
    ("F", 4): (24, 12, 9, (1, 5, 7, 11)),
    ("G", 2): (6, 6, 4, (1, 5)),
}


def classical(family, rank):
    """Classical table data for one simple type."""
    if family == "A":
        return (rank * (rank + 1) // 2, rank + 1, rank + 1, tuple(range(1, rank + 1)))
    if family == "B":
        return (rank * rank, 2 * rank, 2 * rank - 1, tuple(2 * i + 1 for i in range(rank)))
    if family == "C":
        return (rank * rank, 2 * rank, rank + 1, tuple(2 * i + 1 for i in range(rank)))
    if family == "D":
        exps = tuple(sorted([2 * i + 1 for i in range(rank - 1)] + [rank - 1]))
        return (rank * (rank - 1), 2 * rank - 2, 2 * rank - 2, exps)
    return _SPORADIC[(family, rank)]


# Hand-translated epsilon-coordinate models, as (coeffs, length_class) pairs
# for the positive roots in Bourbaki simple-root coordinates.

B3_POSITIVES = {
    ((1, 0, 0), "long"),   # e1 - e2
    ((0, 1, 0), "long"),   # e2 - e3
    ((1, 1, 0), "long"),   # e1 - e3
    ((0, 0, 1), "short"),  # e3
    ((0, 1, 1), "short"),  # e2
    ((1, 1, 1), "short"),  # e1
    ((0, 1, 2), "long"),   # e2 + e3
    ((1, 1, 2), "long"),   # e1 + e3
    ((1, 2, 2), "long"),   # e1 + e2
}

C3_POSITIVES = {
    ((1, 0, 0), "short"),  # e1 - e2
    ((0, 1, 0), "short"),  # e2 - e3
    ((1, 1, 0), "short"),  # e1 - e3
    ((0, 1, 1), "short"),  # e2 + e3
    ((1, 1, 1), "short"),  # e1 + e3
    ((1, 2, 1), "short"),  # e1 + e2
    ((0, 0, 1), "long"),   # 2 e3
    ((0, 2, 1), "long"),   # 2 e2
    ((2, 2, 1), "long"),   # 2 e1
}

G2_POSITIVES = {
    ((1, 0), "short"),
    ((0, 1), "long"),
    ((1, 1), "short"),
    ((2, 1), "short"),
    ((3, 1), "long"),
    ((3, 2), "long"),
}


def multiset_partition_counts(vectors, target, max_size):
    """Number of k-element multisets of the given vectors summing to the
    target, for k = 0..max_size, by raw enumeration."""
    counts = [0] * (max_size + 1)
    if not any(target):
        counts[0] = 1
    for k in range(1, max_size + 1):
        for combo in combinations_with_replacement(vectors, k):
            total = tuple(sum(col) for col in zip(*combo))
            if total == target:
                counts[k] += 1
    return counts


def kostant_multiplicity(rs, lam, mu):
    """Weight multiplicity by the alternating sum over the Weyl group of the
    classical partition function (all positive roots, ungraded).  Completely
    independent of the Freudenthal recursion."""
    roots = [r.coeffs for r in rs.positive_roots()]

    @lru_cache(maxsize=None)
    def count(i, rc):
        # multisets of roots[i:] summing to the root-lattice vector rc
        if not any(rc):
            return 1
        if i == len(roots):
            return 0
        rest = tuple(a - b for a, b in zip(rc, roots[i]))
        return count(i + 1, rc) + (count(i, rest) if min(rest) >= 0 else 0)

    def partitions(fund):
        rc = rs.lattice_coords(fund)
        if rc is None or min(rc) < 0:
            return 0
        return count(0, rc)

    lam_rho = tuple(int(c) + 1 for c in lam.fund)
    mu_rho = tuple(int(c) + 1 for c in mu.fund)
    total = 0
    for sign, img in _signed_images(rs, lam_rho):
        total += sign * partitions(tuple(a - b for a, b in zip(img, mu_rho)))
    return total


@lru_cache(maxsize=None)
def dominant_representative(rs, weight):
    """Dominant Weyl conjugate of a weight (a Weight or a sequence of
    fundamental coordinates, read by ``RootSystem.as_weight``) and its
    sign, as ``orbits._straighten`` returns them."""
    return _straighten(rs, rs.as_weight(weight).fund)


def straighten_from_zero(rs, fund):
    """The chamber walk with its scan restarted at coordinate 0 after every
    reflection: ``orbits._straighten``'s (coords, sign) by another scan
    order, which must not change either."""
    v, sign, i = list(fund), 1, 0
    while i < rs.rank:
        c = v[i]
        if c < 0:
            for j, a in rs.cols[i]:
                v[j] -= c * a
            sign, i = -sign, 0
        else:
            i += 1
    return tuple(v), 0 if 0 in v else sign


def _signed_images(rs, fund):
    """(sign(w), w(fund)) for every w in W, by the Fraction matrices."""
    return tuple((sign(rs, w), act_fund(rs, w, fund)) for w in enumerate_group(rs))


def oracle_support(rs, lam):
    """All weights of the simple module with highest weight lam, as
    fundamental coordinate tuples, by the hull rule: walk down from lam by
    simple roots, keeping a point exactly when its dominant conjugate lies
    below lam in the root order."""

    def in_hull(fund):
        dom, _ = dominant_representative(rs, fund)
        rc = rs.lattice_coords(tuple(a - b for a, b in zip(lam, dom)))
        return rc is not None and all(c >= 0 for c in rc)

    alpha_f = [rs.weight_coords(rs.simple_root(j)) for j in range(rs.rank)]
    seen = {lam}
    layer = [lam]
    while layer:
        nxt = []
        for mu in layer:
            for col in alpha_f:
                nu = tuple(a - b for a, b in zip(mu, col))
                if nu not in seen and in_hull(nu):
                    seen.add(nu)
                    nxt.append(nu)
        layer = nxt
    return seen


def tuple_dp_tables(rs, degree):
    """The q-partition tables keyed by fundamental-coordinate tuples:
    tables[k][v] is the number of k-element multisets of short positive
    roots summing to v, with the number of DP updates made, one per entry
    of the previous level per root and level, in the library's order."""
    vectors = sorted(rs.weight_coords(r) for r in rs.short_positive_roots())
    tables = [dict() for _ in range(degree + 1)]
    tables[0][(0,) * rs.rank] = 1
    done = 0
    for vec in vectors:
        for k in range(1, degree + 1):
            prev = tables[k - 1]
            done += len(prev)
            cur = tables[k]
            for v, count in prev.items():
                key = tuple(a + b for a, b in zip(v, vec))
                cur[key] = cur.get(key, 0) + count
    return tables, done


def decode(qt, rank, key, shift=0):
    """The fundamental coordinates of a key packed by the q-partition
    tables qt of a system of the given rank, each plus shift."""
    out = []
    for _ in range(rank):
        key, digit = divmod(key, qt.base)
        out.append(digit - qt.off + shift)
    return tuple(out)


def nullcone_candidates(rs, qt, degree):
    """Every dominant weight an alternating-sum summand can reach from the
    packed q-partition tables qt: the dominant conjugates of (table point +
    rho) that are not singular, shifted back by rho, in sorted order."""
    ones = (1,) * rs.rank
    candidates = set()
    for k in range(degree + 1):
        for key in qt.levels[k]:
            shifted = decode(qt, rs.rank, key, 1)
            dom, sign = dominant_representative(rs, shifted)
            if sign == 0:
                continue
            candidates.add(tuple(a - b for a, b in zip(dom, ones)))
    return sorted(candidates)


def orbit_accumulation(rs, qt, degree):
    """The nullcone character rebuilt from the packed q-partition tables qt
    by pushing every table point + rho to its dominant conjugate and adding
    its count there with the sign, with no per-weight alternating sum:
    dominant weight -> {degree: coefficient}, leaving out the weights whose
    coefficients all cancel."""
    ones = (1,) * rs.rank
    acc = {}
    for k in range(degree + 1):
        for key, count in qt.levels[k].items():
            dom, sign = dominant_representative(rs, decode(qt, rs.rank, key, 1))
            if sign:
                coeffs = acc.setdefault(tuple(a - b for a, b in zip(dom, ones)), {})
                coeffs[k] = coeffs.get(k, 0) + sign * count
    return {lam: coeffs for lam, coeffs in acc.items() if any(coeffs.values())}


def comparable(elements, leq, i, j):
    """Whether elements i and j are comparable, by the pairwise oracle leq."""
    a, b = elements[i], elements[j]
    return bool(leq(a, b) or leq(b, a))


def masks_of(elements, leq):
    """The incomparability masks of a poset, pair by pair through leq: bit
    j of mask i is set when j > i and elements i and j are incomparable."""
    n = len(elements)
    return tuple(sum(1 << j for j in range(i + 1, n) if not comparable(elements, leq, i, j))
                 for i in range(n))


def all_antichains(elements, leq):
    """Every antichain of the poset (the empty one included), as tuples of
    its elements, listed one by one through leq."""
    n = len(elements)
    out = [()]
    stack = [((), 0)]
    while stack:
        chosen, start = stack.pop()
        for j in range(start, n):
            if all(not comparable(elements, leq, i, j) for i in chosen):
                nxt = chosen + (j,)
                out.append(nxt)
                stack.append((nxt, j + 1))
    return [tuple(elements[i] for i in ac) for ac in out]


def fraction_product(pairs):
    value = Fraction(1)
    for num, den in pairs:
        value *= Fraction(num, den)
    return value


# The Fraction routes that the library's integer root kernel replaced, kept
# as oracles for it: the bilinear double sum over root coordinates, and
# weights moved into root coordinates by the inverse Cartan matrix.


@lru_cache(maxsize=None)
def inverse_matrix(rows):
    """Exact inverse of a square integer matrix (a tuple of tuples), by
    Gauss-Jordan elimination over Fraction."""
    n = len(rows)
    m = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(tuple(m[i][n:]) for i in range(n))


def oracle_root_coords(rs, x):
    """Root coordinates of a Root (its coefficients) or of a Weight."""
    if isinstance(x, Root):
        return x.coeffs
    inv = inverse_matrix(rs.cartan)
    return tuple(sum(a * f for a, f in zip(row, x.fund)) for row in inv)


def oracle_inner(rs, x, y):
    """sum_ij a_i d_i A_ij b_j over the root coordinates a, b of x and y."""
    a = oracle_root_coords(rs, x)
    b = oracle_root_coords(rs, y)
    A, d, n = rs.cartan, rs.symmetrizers, rs.rank
    return sum(a[i] * d[i] * A[i][j] * b[j] for i in range(n) for j in range(n))


def one_step_oracle(rs):
    """The one-step strings by brute force, as {gamma: [(beta, mu), ...]}:
    for every short positive root gamma outside the subsystem of roots
    supported on the short simple roots, and every long root beta of
    either sign, the pair (beta, gamma - beta) when gamma - beta is a root
    of that subsystem.  Both gamma and beta run in order of height, then
    of coefficients read in Bourbaki's numbering (Bourbaki's node k is
    node rs.nodes[k])."""
    def order(r):
        return (r.height, tuple(r.coeffs[node] for node in rs.nodes))

    shorts = set(rs.short_simple_indices)
    roots = sorted(rs.roots, key=order)
    sub = {r.coeffs: r for r in roots
           if all(i in shorts for i, c in enumerate(r.coeffs) if c)}
    longs = [r for r in roots if not r.is_short]
    out = {}
    for gamma in roots:
        if gamma.is_short and gamma.height > 0 and gamma.coeffs not in sub:
            out[gamma] = []
            for beta in longs:
                mu = tuple(a - b for a, b in zip(gamma.coeffs, beta.coeffs))
                if mu in sub:
                    out[gamma].append((beta, sub[mu]))
    return out


@lru_cache(maxsize=None)
def oracle_weight_action(rs, w):
    """Matrix of w on fundamental coordinates: A times the root coordinates
    of the images of the simple roots, times the inverse Cartan matrix.
    Cached per element, so acting with a whole group costs one matrix per
    element."""
    A, n = rs.cartan, rs.rank
    inv = inverse_matrix(A)
    cols = [act_root(rs, w, rs.simple_root(j)).coeffs for j in range(n)]
    am = [[sum(A[i][k] * cols[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(
        tuple(sum(am[i][k] * inv[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def act_fund(rs, w, fund):
    """w applied to a weight given by integer fundamental coordinates, by
    the Fraction matrix of oracle_weight_action."""
    image = [sum(a * f for a, f in zip(row, fund)) for row in oracle_weight_action(rs, w)]
    assert all(c.denominator == 1 for c in image)
    return tuple(int(c) for c in image)


# Weyl element, weight and coroot views that only tests read: the library's
# Weyl elements are bare tuples of root indices, read here against the
# system rs they permute, and an integral weight never needs a coroot.


def compose(p, q):
    """The permutation x -> p[q[x]], one index at a time: the product of
    two Weyl elements given by their root permutations."""
    return tuple(p[j] for j in q)


def inverse(p):
    """The inverse permutation, one index at a time."""
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def act_root(rs, w, root):
    """The image of a root under the Weyl element w."""
    return rs.roots[w[rs.index(root)]]


def inversions(rs, w):
    """The positive roots that w sends to negative ones."""
    p = rs.num_positive
    return tuple(rs.roots[i] for i in range(p) if w[i] >= p)


def length(rs, w):
    """The length of w: its number of inversions (Humphreys, Reflection
    Groups and Coxeter Groups, 1.6-1.7)."""
    return len(inversions(rs, w))


def sign(rs, w):
    """The determinant (-1)^length of w."""
    return (-1) ** length(rs, w)


def reduced_word(rs, w):
    """One reduced word of w, as simple-root indices, by stripping right
    descents: while w sends some simple root alpha_i negative, w = w' * s_i
    with length(w') = length(w) - 1."""
    simple = [rs.index(rs.simple_root(i)) for i in range(rs.rank)]
    e = tuple(range(len(rs.roots)))
    word = []
    while w != e:
        i = next(i for i, k in enumerate(simple) if w[k] >= rs.num_positive)
        w = compose(w, simple_reflection(rs, i))
        word.append(i)
    return tuple(reversed(word))


def order(rs, w):
    """The order of w in the Weyl group."""
    e = tuple(range(len(rs.roots)))
    k, power = 1, w
    while power != e:
        power, k = compose(power, w), k + 1
    return k


# The long-root base as first written, kept as the oracle for the library's:
# every pair of long roots compared.


def all_pairs_long_base(rs):
    """The indices of the positive long roots that are no positive long
    root plus another, in index order, each root tested against every
    positive long root."""
    longs = {rs.roots[k].coeffs: k for k in rs.long_positives}
    return tuple(k for r, k in longs.items()
                 if not any(tuple(a - b for a, b in zip(r, s)) in longs for s in longs))


# The Weyl group listed element by element, which the library never does:
# the oracle for its subgroup orders, its factorisation and every sum over W.


def _generate(rs, gens):
    """The subgroup generated by the elements gens, breadth-first from the
    identity, each element w followed by every w * g."""
    e = tuple(range(len(rs.roots)))
    found = {e: None}
    layer = [e]
    while layer:
        fresh = []
        for w in layer:
            for g in gens:
                perm = compose(w, g)
                if perm not in found:
                    found[perm] = None
                    fresh.append(perm)
        layer = fresh
    return tuple(found)


@lru_cache(maxsize=None)
def enumerate_group(rs):
    """All Weyl group elements in breadth-first order from the identity."""
    return _generate(rs, tuple(simple_reflection(rs, i) for i in range(rs.rank)))


def closure(rs, generators):
    """The subgroup generated by the given elements, as a set."""
    return frozenset(_generate(rs, tuple(generators)))


def fundamental_weight(rs, i):
    """The i-th fundamental weight of rs."""
    return Weight(tuple(int(i == j) for j in range(rs.rank)))


def coroot(rs, root):
    """The coroot 2*root/(root|root) in fundamental coordinates, as a tuple
    of Fractions: non-integral for a long root."""
    sq = rs.inner(root, root)
    return tuple(Fraction(2 * f, sq) for f in rs.weight_coords(root))


def python_child(*args, stdout=subprocess.PIPE, env=()):
    """Run a fresh interpreter that imports the package from src, with the
    variables in env added to its environment; its stdout is captured
    unless another file is given."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-B", *args],
                          env={**os.environ, **dict(env), "PYTHONPATH": path}, cwd=root,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)
