"""Root system construction against classical tables and hand-built
epsilon-coordinate models."""

import ast
import copy
import itertools
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    B3_POSITIVES,
    C3_POSITIVES,
    G2_POSITIVES,
    act_fund,
    act_root,
    classical,
    coroot,
    dominant_representative,
    enumerate_group,
    fundamental_weight,
    length,
    oracle_inner,
    oracle_root_coords,
    python_child,
)

from shortroots import (
    Limits,
    NotFiniteType,
    Root,
    RootSystem,
    RootSystemSpec,
    SizeLimitExceeded,
    UnsupportedRootSystem,
    Weight,
    antichain_report,
    build,
    cartan_matrix,
    check_coxeter_power,
    classify_cartan,
    coxeter_element,
    count_antichains_formula,
    decompose_semidirect,
    delta_partition,
    dimension_ledger,
    dual_coxeter_of_dual,
    freudenthal,
    from_cartan,
    graded_multiplicity,
    hilbert_check,
    hw_orbit_dim,
    hyperplane_classes,
    identity,
    is_in_long_subgroup,
    little_adjoint_dims,
    long_root_base,
    long_subgroup,
    nullcone_character,
    one_step_strings,
    orbit_count,
    q_partition,
    reflection,
    short_parabolic,
    short_root_poset,
    simple_reduction,
    summary_row,
    transition_identities,
)
from shortroots import qtables
from shortroots.checks import CHECK_IDS, run_check
from shortroots.gradedchar import invariant_degrees
from shortroots.orbits import _straighten, descend, weyl_dim

SYSTEMS = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4), ("B", 6),
    ("C", 2), ("C", 3), ("C", 5), ("C", 6),
    ("D", 3), ("D", 4), ("D", 5),
    ("E", 6), ("E", 7), ("E", 8),
    ("F", 4), ("G", 2),
]


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_classical_table(family, rank):
    rs = build(family, rank)
    pos, h, hd, exps = classical(family, rank)
    assert rs.num_positive == pos
    assert rs.coxeter_number == h
    assert rs.dual_coxeter_number == hd
    assert rs.exponents == exps
    assert len(rs.roots) == rank * h
    assert sum(rs.exponents) == rs.num_positive
    assert rs.coxeter_number == rs.theta.height + 1


@pytest.mark.parametrize(
    "name,expected",
    [("B3", B3_POSITIVES), ("C3", C3_POSITIVES), ("G2", G2_POSITIVES)],
)
def test_epsilon_models(name, expected):
    rs = build(name)
    got = {(r.coeffs, r.length_class) for r in rs.positive_roots()}
    assert got == expected


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_roots_are_signed_and_negation_closed(family, rank):
    rs = build(family, rank)
    for i, r in enumerate(rs.roots):
        signs = {c > 0 for c in r.coeffs if c}
        assert len(signs) == 1
        p = rs.num_positive
        assert rs.roots[i + p if i < p else i - p].coeffs == (-r).coeffs


@pytest.mark.parametrize("name", ["A3", "B3", "C4", "D4", "F4", "G2"])
def test_reflection_closure(name):
    rs = build(name)
    A = rs.cartan
    n = rs.rank
    for i in range(n):
        for r in rs.roots:
            p = sum(A[i][j] * r.coeffs[j] for j in range(n))
            image = tuple(c - p * int(i == j) for j, c in enumerate(r.coeffs))
            assert image in rs.root_index


def _against_sigma(rs, x):
    """(sigma | x) for sigma the half sum of the positive coroots: half the
    sum of the pairings of x against them."""
    value, rem = divmod(sum(rs.pairing(x, a) for a in rs.positive_roots()), 2)
    assert rem == 0
    return value


@pytest.mark.parametrize("name", ["A2", "B2", "B3", "C3", "D4", "F4", "G2", "C6", "B6"])
def test_half_coroot_sum_measures_height(name):
    rs = build(name)
    for r in rs.roots:
        assert _against_sigma(rs, r) == r.height


@pytest.mark.parametrize("name", ["B2", "B5", "C3", "C5", "F4", "G2"])
def test_rho_against_short_dominant_coroot(name):
    rs = build(name)
    assert rs.pairing(rs.rho, rs.theta_short) == rs.coxeter_number - 1
    # second route: (rho | coroot) by the Fraction coroot oracle
    terms = zip(rs.root_coords(rs.rho), rs.symmetrizers, coroot(rs, rs.theta_short))
    assert sum(c * d * f for c, d, f in terms) == rs.coxeter_number - 1


def test_theta_short_is_the_unique_short_dominant_root():
    for name in ["B4", "C4", "F4", "G2"]:
        rs = build(name)
        dominant_short = [
            r for r in rs.positive_roots()
            if r.is_short and rs.weight_of(r).is_dominant
        ]
        assert dominant_short == [rs.theta_short]
        assert rs.theta != rs.theta_short
    simply = build("A3")
    assert simply.theta == simply.theta_short  # single length: all roots short


def test_inner_product_examples():
    g2 = build("G2")
    assert g2.inner(g2.theta_short, g2.theta_short) == 2
    assert g2.inner(g2.theta, g2.theta) == 6
    assert _against_sigma(g2, g2.theta) == 5
    f4 = build("F4")
    assert f4.pairing(f4.rho, f4.theta_short) == 11
    assert _against_sigma(f4, f4.theta_short) == 8


def test_inner_is_symmetric_and_positive():
    rs = build("F4")
    xs = [rs.rho, rs.weight_of(rs.theta_short), rs.weight_of(rs.theta), fundamental_weight(rs, 2)]
    for x in xs:
        assert rs.inner(x, x) > 0
        for y in xs:
            assert rs.inner(x, y) == rs.inner(y, x)


@pytest.mark.parametrize("name", ["B3", "C3", "G2", "F4"])
def test_inner_is_reflection_invariant(name):
    from shortroots import simple_reflection

    rs = build(name)
    for i in range(rs.rank):
        w = simple_reflection(rs, i)
        image = rs.rho - rs.weight_of(rs.simple_root(i))  # s_i(rho) = rho - alpha_i
        for r in rs.positive_roots()[: 6]:
            assert rs.inner(image, act_root(rs, w, r)) == rs.inner(rs.rho, r)


def test_coroot_pairing_and_errors():
    rs = build("C4")
    for r in [rs.theta, rs.theta_short, rs.simple_root(0)]:
        assert sum(a * b for a, b in zip(rs.form_coords(r), coroot(rs, r))) == 2
        assert rs.pairing(r, r) == 2
    with pytest.raises(ValueError):
        coroot(rs, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        rs.pairing(rs.rho, (1, 1, 1, 2))  # not a root of C4


@pytest.mark.parametrize("family,rank", SYSTEMS)
def test_weight_root_coordinate_roundtrip(family, rank):
    rs = build(family, rank)
    for r in rs.positive_roots():
        back = rs.root_coords(rs.weight_of(r))
        assert back == tuple(Fraction(c) for c in r.coeffs)


def test_dual_coxeter_of_dual_values():
    assert dual_coxeter_of_dual(build("G2")) == 4
    assert dual_coxeter_of_dual(build("F4")) == 9
    for n in [2, 3, 4, 5, 6]:
        assert dual_coxeter_of_dual(build("C", n)) == 2 * n - 1
        assert dual_coxeter_of_dual(build("B", n)) == n + 1
    # a simply-laced system is self-dual
    a3 = build("A3")
    assert dual_coxeter_of_dual(a3) == a3.dual_coxeter_number


def test_dual_coxeter_dual_is_computed_from_sigma(monkeypatch):
    # the check compares 1 + (sigma | theta_s) with 1 + ht(theta_s), where
    # (sigma | theta_s) is half the sum of the pairings of theta_s against the
    # positive coroots; pairing against the roots instead puts rho in place
    # of sigma, and (rho | theta_s) = 7 for C4 while ht(theta_s) = 6
    rs = build("C4")
    assert run_check("dual-coxeter-dual", rs)[0] == "pass"
    monkeypatch.setattr(rs, "coroot_row", rs.inner_row)
    status, details = run_check("dual-coxeter-dual", rs)
    assert status == "fail"
    assert details["value"] == 8 and details["one_plus_short_dominant_height"] == 7


@pytest.mark.parametrize(
    "family,rank",
    [("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("F", 5),
     ("G", 1), ("G", 3), ("Z", 2), ("A", 0), ("A", True)],
)
def test_spec_validation(family, rank):
    with pytest.raises(ValueError):
        RootSystemSpec(family, rank)


def _value_fields():
    """One value of each value type, with its field tuple."""
    theta_s = build("B2").theta_short
    return [
        (theta_s, ((1, 1), "short")),
        (Weight.of((1, 0)), ((1, 0),)),
        (RootSystemSpec("C", 4), ("C", 4)),
    ]


def test_values_are_immutable_and_compare_by_fields_within_one_class():
    for value, fields in _value_fields():
        for name in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        twin = type(value)(*fields)
        assert twin == value and not twin != value
        assert hash(twin) == hash(value) == hash(fields)
        # never equal to a plain tuple, neither the field tuple nor its first field
        assert value != fields and fields != value
        assert value != fields[0] and fields[0] != value
        assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    root, weight, spec = (value for value, _ in _value_fields())
    assert root != weight != spec != root


def test_values_keep_their_repr():
    reprs = [repr(value) for value, _ in _value_fields()]
    assert reprs == [
        "Root(coeffs=(1, 1), length_class='short')",
        "Weight(fund=(1, 0))",
        "RootSystemSpec(family='C', rank=4)",
    ]


def test_values_refuse_tuple_arithmetic():
    root = build("B2").theta_short
    with pytest.raises(TypeError):
        Weight.of((1, 0)) * 2
    with pytest.raises(TypeError):
        root + root
    with pytest.raises(TypeError):
        RootSystemSpec("C", 4) < ("C", 5)


def test_specs_order_by_family_then_rank():
    specs = [RootSystemSpec(f, n) for f, n in [("C", 4), ("B", 6), ("C", 2), ("A", 9), ("G", 2)]]
    assert [str(s) for s in sorted(specs)] == ["A9", "B6", "C2", "C4", "G2"]
    c2, c4 = RootSystemSpec("C", 2), RootSystemSpec("C", 4)
    assert c2 < c4 and c2 <= c4 and c4 > c2 and c4 >= c2 and c4 <= c4 and c4 >= c4
    assert not (c4 < c4 or c4 > c4)


def test_build_accepts_several_spellings():
    assert build("C3") is build("C", 3) is build(RootSystemSpec("C", 3))
    assert build("c4") is build(" C4\n") is build(" c4 ") is build("C04") is build("C", 4)
    # the one type-name grammar, shared with the CLI: an ASCII letter A to G,
    # ASCII decimal digits, nothing else (int() alone would read "1_0",
    # "+4" and the Arabic-Indic "\u0664"; isdigit alone would read "\u00b2")
    for bad in ["Q", "Z9", "B", "12", "BB2", "", "C1_0", "C 3", "C+3", "C\u0663", "C\u0664",
                "C 4", "C+4", "H2", "\uff234", "C\u00b2", "\u00df4", "C-4"]:
        with pytest.raises(ValueError, match="cannot parse root system type"):
            build(bad)


def test_cartan_convention():
    # cartan[i][j] must be the pairing of alpha_j against the coroot of alpha_i
    for name in ["B3", "C3", "F4", "G2"]:
        rs = build(name)
        for i in range(rs.rank):
            for j in range(rs.rank):
                expected = rs.pairing(rs.simple_root(j), rs.simple_root(i))
                assert rs.cartan[i][j] == expected


ROUNDTRIP_SYSTEMS = SYSTEMS + [
    (f, r) for f, lo in [("A", 1), ("B", 2), ("C", 2), ("D", 3)] for r in range(lo, 13)
    if (f, r) not in SYSTEMS
]


@pytest.mark.parametrize("family,rank", ROUNDTRIP_SYSTEMS)
def test_classify_roundtrip(family, rank):
    # each type under fixed node orders: as built, reversed, evens before
    # odds, and rotated by one
    spec = RootSystemSpec(family, rank)
    A = cartan_matrix(spec)
    nodes = list(range(rank))
    canonical = {("C", 2): ("B", 2), ("D", 3): ("A", 3)}
    want = [RootSystemSpec(*canonical.get((family, rank), (family, rank)))]
    for order in [nodes, nodes[::-1], nodes[::2] + nodes[1::2], nodes[1:] + nodes[:1]]:
        assert classify_cartan([[A[i][j] for j in order] for i in order]) == want, order


def test_classify_reducible_and_permuted():
    a1 = [[2]]
    two_blocks = [[2, 0], [0, 2]]
    assert classify_cartan(a1) == [RootSystemSpec("A", 1)]
    assert classify_cartan(two_blocks) == [RootSystemSpec("A", 1), RootSystemSpec("A", 1)]
    # B3 with its nodes listed in a scrambled order
    spec = RootSystemSpec("B", 3)
    A = cartan_matrix(spec)
    order = [2, 0, 1]
    scrambled = [[A[i][j] for j in order] for i in order]
    assert classify_cartan(scrambled) == [spec]
    mixed = [
        [2, -1, 0, 0, 0],
        [-1, 2, 0, 0, 0],
        [0, 0, 2, -1, 0],
        [0, 0, -2, 2, -1],
        [0, 0, 0, -1, 2],
    ]
    assert classify_cartan(mixed) == [RootSystemSpec("A", 2), RootSystemSpec("C", 3)]


def _diagram(n, edges, double=None):
    """The Cartan matrix on n nodes with a simple bond on each edge; the
    edge (i, j) named by double gets A[i][j] = -2, so node i is short."""
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        A[i][j] = A[j][i] = -1
    if double:
        A[double[0]][double[1]] = -2
    return A


def _star(*arms):
    """The simply-laced tree with arms of these lengths from node 0."""
    edges = []
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, len(edges) + 1))
            prev = len(edges)
    return _diagram(len(edges) + 1, edges)


@pytest.mark.parametrize(
    "matrix",
    [
        [[2, -2], [-2, 2]],                              # affine
        [[2, -1], [-4, 2]],                              # bond multiplicity 4
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],         # cycle
        [[2, -1, 0], [-1, 2, -3], [0, -1, 2]],           # triple bond in rank 3
        [[2, -2, 0], [-1, 2, -1], [0, -2, 2]],           # two double bonds
        [[2, 0], [-1, 2]],                               # asymmetric zero pattern
        [[2, 1], [1, 2]],                                # positive off-diagonal
        [[2, -1], [-1, 3]],                              # bad diagonal
        [[2, -3], [-3, 2]],                              # hyperbolic rank 2
        [[2, -1, -2], [-1, 2, -1], [-1, -1, 2]],         # non-symmetrizable 3-cycle
        _star(1, 2, 5),                                  # affine E8 = T(1,2,5)
        _star(2, 2, 2),                                  # affine E6
        _star(1, 3, 3),                                  # affine E7
        _star(1, 1, 1, 1),                               # affine D4: a vertex of degree 4
        _diagram(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]),   # affine D5: two branch points
        _diagram(4, [(0, 2), (1, 2), (2, 3)], double=(3, 2)),    # affine B3: branch + double bond
        _diagram(5, [(0, 1), (1, 2), (2, 3), (3, 4)], double=(3, 2)),  # affine F4
    ],
)
def test_classify_rejects_non_finite_type(matrix):
    with pytest.raises(NotFiniteType):
        classify_cartan(matrix)


@pytest.mark.parametrize("matrix", [
    [[2, 0], [0, 2]],              # two blocks
    [[2, -2], [-2, 2]],            # affine
    [[2, -1, 0], [-1, 2, -1]],     # not square
    [[2, -1], [-1.0, 2]],          # a float entry
])
def test_from_cartan_refuses_a_matrix_of_no_simple_type(matrix):
    with pytest.raises(NotFiniteType):
        from_cartan(matrix)


def test_from_cartan_shares_the_cache_of_build():
    for name in ["A1", "B3", "C4", "D4", "F4", "G2"]:
        assert from_cartan(cartan_matrix(build(name).spec)) is build(name)
    b3 = cartan_matrix(RootSystemSpec("B", 3))
    assert from_cartan([list(row) for row in b3]) is build("B3")
    # the caller's node order is kept: the short node 2 listed first
    order = [2, 0, 1]
    scrambled = from_cartan([[b3[i][j] for j in order] for i in order])
    assert scrambled.spec == RootSystemSpec("B", 3) and scrambled is not build("B3")
    assert scrambled.short_simple_indices == (0,)
    # classify_cartan labels a rank-2 double bond B2, whichever node is short
    c2 = from_cartan(cartan_matrix(RootSystemSpec("C", 2)))
    assert c2.spec == RootSystemSpec("B", 2) and c2.cartan == build("C2").cartan
    assert c2 is not build("C2") and c2 is not build("B2")


def test_one_adjugate_per_system(monkeypatch):
    # info C60 builds C60 and its simple reduction A59 and inverts neither
    # matrix; the first lattice_coords or root_coords on a system inverts
    # it, and later calls read the cached inverse
    import shortroots.classify as classify
    import shortroots.rootsystem as rootsystem

    sizes = []
    adjugate = classify._adjugate

    def counted(A):
        sizes.append(len(A))
        return adjugate(A)

    monkeypatch.setattr(classify, "_adjugate", counted)
    rootsystem._cached.cache_clear()
    try:
        rs = build("C60")
        simple_reduction(rs)
        dimension_ledger(rs)
        assert sizes == []
        rho = rs.rho.fund
        rs.lattice_coords(rho)
        assert sizes == [60]
        rs.root_coords(rs.rho)
        rs.lattice_coords(rho)
        assert sizes == [60]
        b3 = build("B3")
        b3.root_coords(b3.rho)
        b3.root_coords(b3.rho)
        b3.lattice_coords(b3.rho)
        assert sizes == [60, 3]
    finally:
        rootsystem._cached.cache_clear()


@pytest.mark.parametrize("name", ["B3", "C4", "D5", "E6", "F4", "G2"])
def test_a_relabelled_system_has_the_relabelled_roots(name):
    # from_cartan's closure from the simple roots of a permuted matrix
    # finds the Bourbaki system's roots, with the coefficients permuted
    rs = build(name)
    A = rs.cartan
    rng = random.Random(name)
    for _ in range(3):
        order = rng.sample(range(rs.rank), rs.rank)
        relabelled = from_cartan([[A[i][j] for j in order] for i in order])

        def back(root):
            return tuple(root.coeffs[order.index(i)] for i in range(rs.rank)), root.length_class

        assert {back(r) for r in relabelled.positive_roots()} == {
            (r.coeffs, r.length_class) for r in rs.positive_roots()}
        assert back(relabelled.theta) == (rs.theta.coeffs, rs.theta.length_class)
        assert back(relabelled.theta_short) == (rs.theta_short.coeffs, "short")
        assert relabelled.exponents == rs.exponents
        assert relabelled.dual_coxeter_number == rs.dual_coxeter_number


# details that hold coefficient vectors over the simple roots: one vector,
# or a list of them in an order that ties on height may break by node order
_VECTOR = {"theta_short_coeffs"}
_VECTORS = {"representatives", "empty", "multiple_target_classes"}


def _in_bourbaki_order(details, order):
    """details with every coefficient vector taken back from the node order
    `order` (node k is Bourbaki's node order[k])."""
    def back(c):
        return [c[order.index(i)] for i in range(len(order))]

    out = dict(details)
    for key in _VECTOR & out.keys():
        out[key] = back(out[key])
    for key in _VECTORS & out.keys():
        out[key] = sorted(back(c) for c in out[key])
    return out


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "C4", "F4", "B5", "C5", "B6", "C6"])
def test_checks_do_not_depend_on_the_node_order(name):
    rs = build(name)
    A = rs.cartan
    nodes = list(range(rs.rank))
    want = {cid: run_check(cid, rs) for cid in CHECK_IDS}
    rng = random.Random(name)
    for _ in range(3):
        order = rng.sample(nodes, len(nodes))
        relabelled = from_cartan([[A[i][j] for j in order] for i in order])
        assert relabelled.spec == rs.spec
        for cid in CHECK_IDS:
            status, details = run_check(cid, relabelled)
            assert status == want[cid][0], (order, cid)
            assert _in_bourbaki_order(details, order) == _in_bourbaki_order(
                want[cid][1], nodes), (order, cid)


@pytest.mark.parametrize("name", ["A1", "A4", "B2", "C2", "B3", "C4", "F4", "G2", "C9",
                                  "D4", "D5", "E6", "E8"])
def test_bourbaki_nodes_number_the_diagram_as_bourbaki_does(name):
    rs = build(name)
    A = rs.cartan
    assert rs.nodes == tuple(range(rs.rank))
    rng = random.Random(name)
    for _ in range(3):
        order = rng.sample(range(rs.rank), rs.rank)
        relabelled = from_cartan([[A[i][j] for j in order] for i in order])
        nodes = relabelled.nodes
        assert tuple(tuple(relabelled.cartan[i][j] for j in nodes)
                     for i in nodes) == cartan_matrix(relabelled.spec)
        if rs.is_multiply_laced and relabelled.spec == rs.spec:   # the walk is unique
            assert [order[i] for i in nodes] == list(range(rs.rank))


ROUND_TRIP_SYSTEMS = (
    [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)] + ["D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", ROUND_TRIP_SYSTEMS)
def test_from_cartan_derives_the_matrix_it_was_given(name):
    # from_cartan stores a type and an order of the nodes, not the matrix:
    # the matrix it derives is the one given, and the order it found
    # re-indexes that matrix to Bourbaki's
    A = cartan_matrix(build(name).spec)
    n = len(A)
    rng = random.Random(name)
    orders = [list(range(n)), list(range(n))[::-1]] + [rng.sample(range(n), n) for _ in range(2)]
    for order in orders:
        P = [[A[i][j] for j in order] for i in order]
        rs = from_cartan(P)
        assert rs.cartan == tuple(map(tuple, P)), order
        nodes = rs.nodes
        assert tuple(tuple(P[i][j] for j in nodes) for i in nodes) == cartan_matrix(rs.spec)


def test_no_bourbaki_order_fits_a_matrix_of_another_type():
    import shortroots.classify as classify
    from shortroots import IdentityViolation

    with pytest.raises(IdentityViolation, match="^no order of the nodes numbers the Cartan "
                                                "matrix as B3$"):
        classify._bourbaki_order(cartan_matrix(RootSystemSpec("C", 3)), RootSystemSpec("B", 3))


@pytest.mark.parametrize("name", ["D4", "D5", "E6"])
def test_dp_updates_do_not_depend_on_the_node_order(name):
    # the q-partition tables add the short roots in Bourbaki's numbering, so
    # a relabelled build of a branched diagram makes the same DP updates too
    # (test_checks_do_not_depend_on_the_node_order compares them on paths)
    rs = build(name)
    A = rs.cartan
    want = qtables._QTables(rs, 4).updates
    rng = random.Random(name)
    for _ in range(4):
        order = rng.sample(range(rs.rank), rs.rank)
        relabelled = from_cartan([[A[i][j] for j in order] for i in order])
        assert qtables._QTables(relabelled, 4).updates == want, order


def test_symmetrizers_are_checked_on_every_pair():
    # propagated along a spanning tree the d_i exist; the bond that closes
    # the cycle breaks d_i A_ij = d_j A_ji
    with pytest.raises(NotFiniteType, match="not symmetrizable"):
        classify_cartan([[2, -1, -2], [-1, 2, -1], [-1, -1, 2]])


@pytest.mark.parametrize("name,d", [
    ("B2", (2, 1)), ("C2", (1, 2)), ("B3", (2, 2, 1)), ("C4", (1, 1, 1, 2)),
    ("F4", (2, 2, 1, 1)), ("G2", (1, 3)),
])
def test_symmetrizers_are_half_the_squared_lengths(name, d):
    rs = build(name)
    assert rs.symmetrizers == d
    assert all(type(v) is int for v in rs.symmetrizers)
    # second route: (alpha_i | alpha_i) / 2, short roots having length 2
    assert tuple(rs.inner(r, r) // 2 for r in map(rs.simple_root, range(rs.rank))) == d


def test_symmetrizers_refuse_a_fractional_ratio():
    # d_1 = 3/2 d_0: the ratio is positive but no integral normalisation by
    # the smallest d exists
    with pytest.raises(NotFiniteType, match="not symmetrizable over the integers"):
        classify_cartan([[2, -3], [-2, 2]])


_WEIGHT_OF = """
import sys
from shortroots.cartan import Weight
print("numbers" in sys.modules)
try:
    Weight.of([0.5])
except TypeError as e:
    print(e)
print("numbers" in sys.modules, "fractions" in sys.modules)
w = Weight.of([True, 2])
print(w.fund, [type(c).__name__ for c in w.fund])
from fractions import Fraction
w = Weight.of([Fraction(4, 2)])
print(w.fund, type(w.fund[0]).__name__)
try:
    Weight.of([Fraction(1, 2)])
except ValueError as e:
    print(e)
"""


def test_weight_parser_in_a_fresh_process():
    # numbers is loaded only to judge a coordinate that is not an int
    child = python_child("-c", _WEIGHT_OF)
    assert child.stderr == ""
    assert child.stdout.splitlines() == [
        "False",
        "weights take exact coordinates, not the float 0.5",
        "True False",
        "(1, 2) ['int', 'int']",
        "(2,) int",
        "weights take integral coordinates, not 1/2",
    ]


def test_weight_arithmetic():
    a = Weight.of([1, 0])
    b = Weight.of([0, 2])
    assert (a + b).fund == (1, 2)
    assert (a - b).fund == (1, -2)
    assert (2 * a).fund == (2, 0)
    assert (Fraction(1, 2) * b).fund == (0, 1)
    assert (-a).fund == (-1, 0)
    assert Weight.zero(2).is_zero
    # coordinates are ints, whatever exact integral values they were given as
    for w in [a + b, a - b, 2 * a, Fraction(1, 2) * b, Weight.of([Fraction(4, 2), -3])]:
        assert all(type(c) is int for c in w.fund)
    with pytest.raises(ValueError, match="integral coordinates"):
        Weight.of([Fraction(1, 2), 0])
    with pytest.raises(ValueError, match="integral coordinates"):
        Fraction(1, 2) * a


def test_dominant_representative():
    rs = build("G2")
    dom, sign = dominant_representative(rs, (-1, 2))
    assert Weight.of(dom).is_dominant
    assert dom == (1, 1) and sign == -1
    # a weight on a wall reports sign 0
    dom0, sign0 = dominant_representative(rs, (-1, 1))
    assert sign0 == 0
    assert dom0 == (1, 0)
    # regular orbits keep the parity of the conjugating word
    w = dominant_representative(rs, rs.rho.fund)
    assert w == ((1, 1), 1)
    # a Weight is read like a tuple, and the unparsed kernel agrees
    assert dominant_representative(rs, Weight.of((-1, 2))) == (dom, sign)
    assert _straighten(rs, (-1, 2)) == (dom, sign)
    assert _straighten(rs, (-1, 1)) == (dom0, sign0)


DESCEND_CASES = [
    (name, lam)
    for name in ["A3", "B3", "C4", "D4", "F4", "G2"]
    for lam in itertools.product((0, 1), repeat=build(name).rank)
]


@pytest.mark.parametrize(
    "name,lam", DESCEND_CASES, ids=[f"{n}-{''.join(map(str, lam))}" for n, lam in DESCEND_CASES]
)
def test_descend_is_the_weyl_orbit_by_length(name, lam):
    # the oracle: every w(lam) over the enumerated group, with the length of
    # the shortest such w; singular lam included
    rs = build(name)
    shortest = {}
    for w in enumerate_group(rs):
        y, k = act_fund(rs, w, lam), length(rs, w)
        shortest[y] = min(shortest.get(y, k), k)
    layers = list(descend(rs, lam))
    assert [set(layer) for layer in layers] == [
        {y for y, k in shortest.items() if k == length} for length in range(len(layers))
    ]
    assert sum(map(len, layers)) == len(shortest)
    assert all(c is None for layer in layers for c in layer.values())
    # with a floor the walk keeps exactly the points above it, each in the
    # layer of its length and carrying the lattice coordinates of y - floor
    for floor in [(0,) * rs.rank, lam, fundamental_weight(rs, 0).fund]:
        expected = {}
        for y in shortest:
            c = rs.lattice_coords(tuple(a - b for a, b in zip(y, floor)))
            if c is not None and min(c) >= 0:
                expected[y] = c
        kept = list(descend(rs, lam, floor))
        assert {y: c for layer in kept for y, c in layer.items()} == expected
        assert all(shortest[y] == k for k, layer in enumerate(kept) for y in layer)


def test_descend_refuses_a_start_off_the_dominant_chamber():
    # straighten is the unchecked per-point kernel; descend parses its
    # start, so a non-dominant one is refused, not walked as a one-point
    # orbit, and a floor of another rank is refused too
    rs = build("B2")
    with pytest.raises(ValueError, match="^\\[-1,2\\] is not dominant$"):
        list(descend(rs, (-1, 2)))
    with pytest.raises(ValueError, match="^weight has the wrong rank$"):
        list(descend(rs, (1, 0), (0, 0, 0)))


@pytest.mark.parametrize(
    "name", ["A1", "A5", "B2", "B7", "C3", "C9", "D4", "D7", "E6", "E7", "E8", "F4", "G2"]
)
def test_simple_roots_have_one_dominant_conjugate_per_length(name):
    rs = build(name)
    tops = {_straighten(rs, rs.weight_coords(rs.simple_root(i)))[0] for i in range(rs.rank)}
    assert tops == {rs.weight_coords(rs.theta), rs.weight_coords(rs.theta_short)}
    assert len(tops) == len(set(rs.symmetrizers))


def test_constructor_refuses_a_length_count_the_walk_does_not_see(monkeypatch):
    # with every symmetrizer 1, B3 claims one root length, but the closure
    # finds its roots whatever the symmetrizers; their squared lengths under
    # those symmetrizers do not have the minimum 2: a self-check, since no
    # order of the nodes reaches it
    import shortroots.cartan as cartan
    import shortroots.rootsystem as rootsystem
    from shortroots import IdentityViolation

    monkeypatch.setattr(cartan, "_symmetrizers", lambda A: (1,) * len(A))
    with pytest.raises(IdentityViolation, match="normalisation failure for B3"):
        rootsystem.RootSystem(RootSystemSpec("B", 3), (0, 1, 2))


@pytest.mark.parametrize("nodes,error,message", [
    ((0, 1), ValueError, r"^\(0, 1\) is not an order of the 3 nodes$"),
    ((0, 1, 2, 3), ValueError, r"^\(0, 1, 2, 3\) is not an order of the 3 nodes$"),
    ((0, 0, 1), ValueError, r"^\(0, 0, 1\) is not an order of the 3 nodes$"),
    ((0.0, 1, 2), TypeError, r"^an order of the nodes is a tuple of ints, not \(0\.0, 1, 2\)$"),
    ((False, True, 2), TypeError, "^an order of the nodes is a tuple of ints, not "
                                  r"\(False, True, 2\)$"),
    ([0, 1, 2], TypeError, r"^an order of the nodes is a tuple of ints, not \[0, 1, 2\]$"),
], ids=["short", "long", "repeated", "float", "bool", "list"])
def test_the_constructor_refuses_an_order_that_is_not_of_the_nodes(monkeypatch, nodes, error,
                                                                     message):
    # refused before any work: the symmetrizers are never sought
    import shortroots.cartan as cm
    import shortroots.rootsystem as rootsystem

    monkeypatch.setattr(cm, "_symmetrizers", lambda A: pytest.fail("the order was used"))
    with pytest.raises(error, match=message):
        rootsystem.RootSystem(RootSystemSpec("B", 3), nodes)


def _root_cap(monkeypatch, cap):
    import shortroots.config as config

    monkeypatch.setattr(config, "current_limits", lambda: Limits(max_root_work=cap))


@pytest.mark.parametrize("name", ["A5", "B4", "C4", "D5", "E6", "F4", "G2"])
def test_the_root_cap_counts_the_matrix_and_the_rank_per_root(monkeypatch, name):
    # a build writes its n x n Cartan matrix and n coordinates per positive
    # root: a cap of exactly that is met, one less refuses the last root
    # (A5's on its rank alone, since A_n has the fewest roots of its rank)
    rs = build(name)
    work = rs.rank * (rs.rank + rs.num_positive)
    _root_cap(monkeypatch, work)
    assert RootSystem(rs.spec, rs.nodes).roots == rs.roots
    _root_cap(monkeypatch, work - 1)
    with pytest.raises(SizeLimitExceeded, match=rf"^building {name} writes more than the cap of "
                                                rf"{work - 1} coordinates, .* \(max_root_work\)$"):
        RootSystem(rs.spec, rs.nodes)


def test_a_rank_past_the_root_cap_is_refused_before_any_matrix(monkeypatch):
    # no system of rank n has fewer positive roots than A_n's n (n + 1) / 2,
    # so a cap under n (n + n (n + 1) / 2) refuses on the rank alone, before
    # the node order or the n x n matrix
    import shortroots.rootsystem as rootsystem

    assert all(build(f, r).num_positive >= r * (r + 1) // 2 for f, r in SYSTEMS)

    monkeypatch.setattr(rootsystem, "cartan_matrix", lambda spec: pytest.fail("a matrix was built"))
    monkeypatch.setattr(rootsystem, "_node_order", lambda nodes, n: pytest.fail("nodes were read"))
    for rank in (201, 1432, 100_000):
        with pytest.raises(SizeLimitExceeded, match=rf"^building A{rank} writes more than the cap"):
            RootSystem(RootSystemSpec("A", rank), tuple(range(rank)))
    # build lists no node order for a rank in the millions
    monkeypatch.setattr(rootsystem, "_cached", lambda spec, nodes: pytest.fail("nodes were listed"))
    with pytest.raises(SizeLimitExceeded, match="^building A3000000 writes more than the cap"):
        build("A3000000")
    _root_cap(monkeypatch, 4 * (4 + 10) - 1)
    with pytest.raises(SizeLimitExceeded, match="^building C4 "):
        RootSystem(RootSystemSpec("C", 4), (0, 1, 2, 3))


def test_the_default_root_cap_answers_a200_and_refuses_a201():
    # A_n has n (n + 1) / 2 positive roots
    assert 200 * (200 + 200 * 201 // 2) <= Limits().max_root_work < 201 * (201 + 201 * 202 // 2)


@pytest.mark.parametrize("label,matrix", [("B2", "C2"), ("C2", "B2"), ("A3", "D3"), ("D3", "A3")])
def test_the_constructor_takes_an_isomorphic_label(label, matrix):
    # an order of the nodes of one label gives the other label's matrix,
    # and its roots
    import shortroots.rootsystem as rootsystem

    spec, want = build(label).spec, build(matrix)
    systems = [rs for nodes in itertools.permutations(range(spec.rank))
               if (rs := rootsystem.RootSystem(spec, nodes)).cartan == want.cartan]
    assert systems
    for rs in systems:
        assert rs.spec == spec
        assert tuple(tuple(rs.cartan[i][j] for j in rs.nodes)
                     for i in rs.nodes) == cartan_matrix(spec)
        assert [r.coeffs for r in rs.roots] == [r.coeffs for r in want.roots]


@pytest.mark.parametrize("name", ["A3", "B4", "C3", "D4", "F4", "G2"])
def test_inner_row_is_one_inner_product_per_root(name):
    # one entry per positive root: root k + p pairs as the negative of root k
    rs = build(name)
    for mu in rs.roots:
        row = rs.inner_row(mu)
        assert row == tuple(rs.inner(rs.roots[k], mu) for k in range(rs.num_positive))
        assert [-v for v in row] == [rs.inner(-r, mu) for r in rs.positive_roots()]


KERNEL_SYSTEMS = (
    [f"A{n}" for n in range(1, 6)] + [f"B{n}" for n in range(2, 6)]
    + [f"C{n}" for n in range(2, 6)] + ["D4", "D5", "E6", "F4", "G2"]
)


def _kernel_system(name):
    """build(name), or for a name like "F4/2031" the system from_cartan
    builds with the nodes of build("F4") listed in the order 2, 0, 3, 1."""
    name, _, order = name.partition("/")
    if not order:
        return build(name)
    A = build(name).cartan
    return from_cartan([[A[int(i)][int(j)] for j in order] for i in order])


@pytest.mark.parametrize("name", KERNEL_SYSTEMS + ["F4/2031"])
def test_integer_kernel_matches_fraction_oracle(name):
    rs = _kernel_system(name)
    sq = {y: oracle_inner(rs, y, y) for y in rs.roots}
    for x in rs.roots:
        for y in rs.roots:
            v = oracle_inner(rs, x, y)
            assert rs.inner(x, y) == v
            assert type(rs.inner(x, y)) is type(rs.inner(x.coeffs, y.coeffs)) is int
            assert rs.pairing(x, y) == Fraction(2 * v, sq[y])
    weights = [rs.rho, rs.weight_of(rs.theta)] + [fundamental_weight(rs, i) for i in range(rs.rank)]
    for lam in weights:
        assert rs.root_coords(lam) == rs.root_coords(lam.fund) == oracle_root_coords(rs, lam)
        for mu in weights:
            assert rs.inner(lam, mu) == oracle_inner(rs, lam, mu)
            assert type(rs.inner(lam, mu)) is Fraction
        for r in rs.roots:
            v = oracle_inner(rs, lam, r)
            assert rs.inner(lam, r) == rs.inner(r, lam) == v
            assert type(rs.inner(lam, r.coeffs)) is type(rs.inner(r, lam)) is int
            assert rs.pairing(lam, r) == Fraction(2 * v, sq[r])
    # root k + p is the negative of root k, and reads its values off it
    p = rs.num_positive
    for k in range(p, len(rs.roots)):
        neg, pos = rs.roots[k], rs.roots[k - p]
        assert rs.weight_coords(neg) == tuple(-x for x in rs.weight_coords(pos))
        assert rs.form_coords(neg) == tuple(-x for x in rs.form_coords(pos))
        assert reflection(rs, neg) == reflection(rs, pos)


def test_the_root_system_stores_each_root_fact_once():
    # per positive root, the fundamental coordinates and the squared length;
    # the one test that reads the private tables (through vars()), since
    # their layout is what it pins
    import tracemalloc

    import shortroots.rootsystem as rootsystem

    rootsystem._cached.cache_clear()
    tracemalloc.start()
    try:
        rs = build("A60")
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        rootsystem._cached.cache_clear()
    # 16.5 bytes on CPython 3.11; storing both halves of each table and D.c
    # takes 29.8
    assert kept <= 24 * len(rs.roots) * rs.rank
    tables = vars(rs)
    assert len(tables["_ac"]) == len(tables["_sq"]) == rs.num_positive
    assert "_dc" not in tables


_LONG_100 = Root((1, 0, 0), "long")   # C3's short root (1, 0, 0), tagged long
_NOT_LONG = r"^\(1, 0, 0\) is a short root of C3, not long$"
# the Root constructor, and every entry point that takes a Root, on C3
_WRONG_LENGTH_CLASS = {
    "Root": (lambda rs: Root((1, 0, 0), "banana"),
             "^a root's length class is 'short' or 'long', not 'banana'$"),
    "index": (lambda rs: rs.index(_LONG_100), _NOT_LONG),
    "weight_coords": (lambda rs: rs.weight_coords(_LONG_100), _NOT_LONG),
    "form_coords": (lambda rs: rs.form_coords(_LONG_100), _NOT_LONG),
    "inner": (lambda rs: rs.inner(rs.rho, _LONG_100), _NOT_LONG),
    "inner_row": (lambda rs: rs.inner_row(_LONG_100), _NOT_LONG),
    "pairing": (lambda rs: rs.pairing(rs.rho, _LONG_100), _NOT_LONG),
    "delta_partition": (lambda rs: delta_partition(rs, _LONG_100), _NOT_LONG),
}


@pytest.mark.parametrize("entry", sorted(_WRONG_LENGTH_CLASS))
def test_a_root_of_the_wrong_length_class_is_refused(entry):
    call, message = _WRONG_LENGTH_CLASS[entry]
    with pytest.raises(ValueError, match=message):
        call(build("C3"))


# entry points given coefficients that are not ints: 1.0 and True equal 1
# and hash alike, so a dict lookup alone would take them for a root
_NOT_INT_COEFFS = {
    "index": (lambda rs: rs.index((1.0, 0, 0)), "(1.0, 0, 0)"),
    "pairing": (lambda rs: rs.pairing(rs.rho, (1.0, 0, 0)), "(1.0, 0, 0)"),
    "inner": (lambda rs: rs.inner((1.0, 0, 0), rs.rho), "(1.0, 0, 0)"),
    "weight_coords": (lambda rs: rs.weight_coords((True, False, False)), "(True, False, False)"),
    "Root of a list": (lambda rs: rs.index(Root([1, 0, 0], "short")), "[1, 0, 0]"),
}


@pytest.mark.parametrize("entry", sorted(_NOT_INT_COEFFS))
def test_a_root_with_coefficients_that_are_not_ints_is_refused(entry):
    call, shown = _NOT_INT_COEFFS[entry]
    message = f"^a root takes a tuple of int coefficients, not {re.escape(shown)}$"
    with pytest.raises(TypeError, match=message):
        call(build("C3"))


@pytest.mark.parametrize("name", KERNEL_SYSTEMS)
def test_lattice_coords(name):
    rs = build(name)
    for r in rs.roots:
        assert rs.lattice_coords(rs.weight_coords(r)) == r.coeffs
    for i in range(rs.rank):
        coords = oracle_root_coords(rs, fundamental_weight(rs, i))
        integral = all(c.denominator == 1 for c in coords)
        got = rs.lattice_coords(fundamental_weight(rs, i).fund)
        assert got == (coords if integral else None)


def test_weight_rejects_floats():
    with pytest.raises(TypeError):
        Weight.of([0.1])
    with pytest.raises(TypeError):
        0.5 * Weight.of([1, 2])
    # the constructor parses nothing: it refuses what Weight.of would convert
    for fund in [(0.5, 0), (True, 0), (Fraction(2), 0), [1, 0]]:
        with pytest.raises(TypeError, match="^a Weight holds a tuple of int coordinates, not "):
            Weight(fund)


def test_build_rejects_non_integral_rank():
    with pytest.raises(ValueError):
        build("C", 3.5)


def test_no_module_imports_the_rational_stack_at_module_level():
    # fractions (which loads numbers and decimal) and numbers are imported
    # only inside the functions that need them, so a process that asks for
    # no rational answer loads neither
    src = Path(__file__).resolve().parents[1] / "src" / "shortroots"
    found = []
    for p in sorted(src.glob("*.py")):
        tree = ast.parse(p.read_text())
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(p.name, name) for name in names if id(node) not in inside
                      and name.split(".")[0] in ("fractions", "numbers")]
    assert found == []


def test_only_the_root_system_builds_simple_root_columns():
    # every Weyl-orbit walk goes through orbits.descend, on RootSystem.cols
    src = Path(__file__).resolve().parents[1] / "src" / "shortroots"
    builders = [p.name for p in sorted(src.glob("*.py"))
                if "weight_coords(rs.simple_root(" in p.read_text()]
    assert [name for name in builders if name != "rootsystem.py"] == []


@pytest.mark.parametrize("name", ["B3", "C4", "F4", "G2"])
def test_engine_entries_are_keyed_by_int_tuples(name):
    rs = build(name)
    for entries in [freudenthal(rs, rs.weight_of(rs.theta_short)).entries,
                    nullcone_character(rs, 4).entries]:
        assert entries
        for key in entries:
            assert type(key) is tuple and len(key) == rs.rank
            assert all(type(c) is int for c in key)


def test_fraction_is_named_only_where_an_answer_is_rational():
    # code (docstrings aside) names Fraction only in rootsystem.py, in the
    # functions root_coords (its one import) and inner; never at module
    # level and never in _symmetrizers, which works in ints
    src = Path(__file__).resolve().parents[1] / "src" / "shortroots"
    named = set()
    for p in sorted(src.glob("*.py")):
        tree = ast.parse(p.read_text())
        owner = {}
        for fn in ast.walk(tree):   # breadth first, so the innermost function wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "Fraction"
                    or isinstance(node, ast.Attribute) and node.attr == "Fraction"
                    or isinstance(node, ast.alias) and node.name == "Fraction"):
                named.add((p.name, owner.get(node, "<module>")))
    allowed = {("rootsystem.py", f) for f in ("root_coords", "inner")}
    assert ("rootsystem.py", "root_coords") in named
    assert named <= allowed


def test_every_src_function_has_a_reader():
    # a function or method defined in src is read (a method as an attribute,
    # any other function as a name or an attribute) by src code outside its
    # own body and outside every unread function, or it is a dunder, a
    # module-level name in its module's __all__, or public API on the list
    src = Path(__file__).resolve().parents[1] / "src" / "shortroots"
    api = {"RootSystem.inner"}
    loads, defs = [], []
    for p in sorted(src.glob("*.py")):
        tree = ast.parse(p.read_text())
        exported = next((ast.literal_eval(node.value) for node in tree.body
                         if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"), ())
        owner = {item: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for item in cls.body}
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load) and isinstance(
                    node, (ast.Name, ast.Attribute)):
                loads.append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                label = f"{owner[node]}.{node.name}" if node in owner else node.name
                if not (node.name.startswith("__") and node.name.endswith("__")
                        or node in tree.body and node.name in exported or label in api):
                    defs.append((label, node, set(map(id, ast.walk(node)))))
    unread = set()
    while True:
        dead = set().union(*(body for label, _, body in defs if label in unread))
        now = {
            label for label, fn, body in defs
            if not any((n.attr if isinstance(n, ast.Attribute) else n.id) == fn.name
                       and (isinstance(n, ast.Attribute) or "." not in label)
                       and id(n) not in body and id(n) not in dead for n in loads)
        }
        if now == unread:
            break
        unread = now
    assert not unread, f"no reader in src: {sorted(unread)}"


def test_no_module_reaches_into_root_system_privates():
    repo = Path(__file__).resolve().parents[1]
    files = [p for p in sorted((repo / "src" / "shortroots").glob("*.py"))
             if p.name != "rootsystem.py"]
    files += sorted((repo / "tests").glob("*.py"))
    private = re.compile(r"\brs\._\w+")
    hits = [
        f"{p.name}:{n}: {m.group()}"
        for p in files
        for n, line in enumerate(p.read_text().splitlines(), 1)
        for m in private.finditer(line)
    ]
    assert hits == []


def test_no_module_reads_the_environment():
    # every cap is a constant of Limits: no setting reaches the library
    src = Path(__file__).resolve().parents[1] / "src" / "shortroots"
    reading = re.compile(r"\bos\.(environ|getenv)\b")
    assert [p.name for p in sorted(src.glob("*.py")) if reading.search(p.read_text())] == []


_F4 = build("F4")
# every weight entry point, as a call on F4 with one weight slot w; the
# default w has the wrong rank
_WRONG_RANK = {
    "root_coords": lambda rs, w=(1, 0, 0): rs.root_coords(Weight.of(w)),
    "root_coords-tuple": lambda rs, w=(1, 0, 0): rs.root_coords(w),
    "lattice_coords": lambda rs, w=(1, 0, 0): rs.lattice_coords(w),
    "inner-weight-root": lambda rs, w=(0, 0, 0, 1, 7): rs.inner(Weight.of(w), rs.theta_short),
    "inner-root-weight": lambda rs, w=(0, 0, 0, 1, 7): rs.inner(rs.theta_short, Weight.of(w)),
    "inner-weight-weight": lambda rs, w=(1, 1, 1): rs.inner(rs.rho, Weight.of(w)),
    "pairing": lambda rs, w=(0, 0, 0, 1, 7): rs.pairing(Weight.of(w), rs.theta_short),
    "dominant_representative": lambda rs, w=(0, 0, 0, -1, 7): dominant_representative(rs, w),
    "dominant_integral": lambda rs, w=(1, 0, 0): rs.dominant_integral(w),
    "descend": lambda rs, w=(1, 0, 0): list(descend(rs, w)),
    "q_partition-tuple": lambda rs, w=(0, 0, 0, 1, 0): q_partition(rs, w, 3),
    "q_partition-weight": lambda rs, w=(0, 0, 1): q_partition(rs, Weight.of(w), 3),
    "graded_multiplicity-long": lambda rs, w=(0, 0, 0, 1, 0): graded_multiplicity(
        rs, w, (0,) * len(w), 4),
    "graded_multiplicity-short": lambda rs, w=(0, 0): graded_multiplicity(
        rs, (0, 0, 0, 1), w, 4),
    "freudenthal": lambda rs, w=(0, 0, 0, 1, 0): freudenthal(rs, w),
    "weyl_dim": lambda rs, w=(0, 0, 1): weyl_dim(rs, w),
    "GradedCharacter.multiplicity": lambda rs, w=(0, 0, 1): nullcone_character(
        rs, 2).multiplicity(w),
    "WeightSystem.multiplicity": lambda rs, w=(0, 0, 0, 1, 0): freudenthal(
        rs, rs.weight_of(rs.theta_short)).multiplicity(w),
    # a Weight carries no system: its arithmetic compares the two ranks
    "Weight.__add__": lambda rs, w=(1, 0, 0): Weight.of((1, 0)) + Weight.of(w),
    "Weight.__sub__": lambda rs, w=(1, 0): Weight.of((1, 0, 5)) - Weight.of(w),
}
@pytest.mark.parametrize("entry", sorted(_WRONG_RANK))
def test_every_weight_entry_point_refuses_the_wrong_rank(entry):
    with pytest.raises(ValueError, match="^weight has the wrong rank$"):
        _WRONG_RANK[entry](_F4)


@pytest.mark.parametrize("entry", sorted(_WRONG_RANK))
def test_every_weight_entry_point_refuses_a_non_integral_weight(entry):
    with pytest.raises(ValueError, match="^weights take integral coordinates, not 1/2$"):
        _WRONG_RANK[entry](_F4, (Fraction(1, 2), 0, 0, 0))


@pytest.mark.parametrize("entry", sorted(_WRONG_RANK))
def test_every_weight_entry_point_refuses_a_float(entry):
    with pytest.raises(TypeError, match="^weights take exact coordinates, not the float 0.5$"):
        _WRONG_RANK[entry](_F4, (0.5, 0, 0, 0))


_TWO_LENGTH_ENTRY_POINTS = {
    "little_adjoint_dims": little_adjoint_dims,
    "hw_orbit_dim": hw_orbit_dim,
    "simple_reduction": simple_reduction,
    "check_coxeter_power": lambda rs: check_coxeter_power(rs, coxeter_element(rs)),
    "transition_identities": transition_identities,
    "hyperplane_classes": hyperplane_classes,
    "one_step_strings": one_step_strings,
    "dimension_ledger": dimension_ledger,
    "orbit_count": orbit_count,
    "invariant_degrees": invariant_degrees,
    "summary_row": summary_row,
    "nullcone_character": lambda rs: nullcone_character(rs, 2),
    "hilbert_check": lambda rs: hilbert_check(rs, 2),
    "short_root_poset": short_root_poset,
    "count_antichains_formula": count_antichains_formula,
    "antichain_report": antichain_report,
    "long_root_base": long_root_base,
    "long_subgroup": long_subgroup,
    "short_parabolic": short_parabolic,
    "decompose_semidirect": lambda rs: decompose_semidirect(rs, identity(rs)),
    "is_in_long_subgroup": lambda rs: is_in_long_subgroup(rs, identity(rs)),
}


@pytest.mark.parametrize("entry", sorted(_TWO_LENGTH_ENTRY_POINTS))
def test_every_two_length_entry_point_refuses_a_single_length(entry):
    with pytest.raises(UnsupportedRootSystem, match="^E8 has a single root length$"):
        _TWO_LENGTH_ENTRY_POINTS[entry](build("E8"))


def test_weights_are_parsed_by_the_root_system_only():
    src = Path(__file__).resolve().parents[1] / "src" / "shortroots"
    texts = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    readers = [name for name, text in texts.items()
               if name != "rootsystem.py" and ".is_dominant" in text]
    assert readers == []
    assert sum(text.count("has the wrong rank") for text in texts.values()) == 1
