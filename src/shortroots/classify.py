"""The classifier of Cartan matrices, and the fraction-free elimination it
rests on.

``classify_cartan`` names the components of any finite-type matrix, and
``_type_and_order`` gives, for an irreducible one, its type and the order
of its nodes in which it is Bourbaki's matrix: the two inputs from which
``rootsystem.from_cartan`` builds a system.  ``_eliminate`` is the one
elimination: it yields a matrix's leading minors, so its determinant and
whether it is of finite type, and, on ``[A | I]``, the integer adjugate
that ``RootSystem.lattice_coords`` and ``root_coords`` read.

No build needs this module: ``rootsystem`` imports it only inside
``from_cartan`` and ``RootSystem._adjugate``, and ``weyl``,
which names the types of reflection subgroups, at its top.  So a process
that names every system by its type, asks for no root-lattice
coordinates and lists no subgroup never compiles it.
"""

from .cartan import RootSystemSpec, _symmetrizers, cartan_matrix
from .errors import IdentityViolation, NotFiniteType

__all__ = ["classify_cartan"]


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


def _type_and_order(matrix) -> tuple[RootSystemSpec, tuple[int, ...]]:
    """The type of an irreducible Cartan matrix of finite type,
    classify_cartan's canonical label, and the order of its nodes in which
    it is that label's Bourbaki matrix.  NotFiniteType for a reducible or
    non-finite matrix."""
    specs = classify_cartan(matrix)
    if len(specs) != 1:
        raise NotFiniteType(f"Cartan matrix is reducible: {' + '.join(map(str, specs))}")
    return specs[0], _bourbaki_order(matrix, specs[0])


def _arm(A, node, behind):
    """The nodes of a tree diagram from node outward, away from its
    neighbour behind, to an end of the diagram."""
    arm = [behind, node]
    while True:
        ahead = [j for j in range(len(A)) if A[arm[-1]][j] and j not in arm[-2:]]
        if not ahead:
            return arm[1:]
        arm.append(ahead[0])


def _bourbaki_order(A, spec: RootSystemSpec) -> tuple[int, ...]:
    """The order of the nodes of a connected Cartan matrix A of type spec
    in Bourbaki's numbering: one whose re-indexed matrix is
    cartan_matrix(spec).  The matrix's own order is kept when it
    qualifies.  A path is walked from an end (on a two-length diagram only
    one end qualifies).  A branched diagram (D_n, E_n) is read by its three
    arms, sorted by length: D_n lists the long arm from its end, the branch
    node and the two arms of length 1; E_n lists the end of the arm of
    length 2, the arm of length 1, the inner node of the arm of length 2,
    the branch node and the longest arm outward.  IdentityViolation if no
    order so read fits."""
    n = len(A)
    want = cartan_matrix(spec)
    degree = [sum(map(bool, row)) - 1 for row in A]
    if 3 in degree:
        branch = degree.index(3)
        short, middle, long = sorted(
            (_arm(A, j, branch) for j in range(n) if j != branch and A[branch][j]), key=len)
        if spec.family == "D":
            orders = [long[::-1] + [branch] + short + middle]
        else:
            orders = [middle[1:] + short + middle[:1] + [branch] + long]
    else:
        orders = [_arm(A, i, i) for i in range(n) if degree[i] <= 1]
    for order in [list(range(n))] + orders:
        if tuple(tuple(A[i][j] for j in order) for i in order) == want:
            return tuple(order)
    raise IdentityViolation(f"no order of the nodes numbers the Cartan matrix as {spec}")


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
