"""q-graded partition functions, graded multiplicities and the nullcone
character against its Hilbert series."""

import ast
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    act_fund,
    closure,
    decode,
    enumerate_group,
    multiset_partition_counts,
    nullcone_candidates,
    orbit_accumulation,
    sign,
    tuple_dp_tables,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import shortroots.config as config
import shortroots.gradedchar as gc
import shortroots.orbits as orbits
import shortroots.qtables as qtables
from shortroots import (
    GradedCharacter,
    QPoly,
    RootSystem,
    SizeLimitExceeded,
    UnsupportedRootSystem,
    Weight,
    build,
    complete_intersection_series,
    from_cartan,
    graded_multiplicity,
    hilbert_check,
    nullcone_character,
    q_partition,
    simple_reflection,
)
from shortroots.orbits import _straighten, descend, weyl_dim


def qp(coeffs, truncation):
    return QPoly(coeffs, truncation)


def test_qpoly_basics():
    p = qp({0: 1, 2: 3, 9: 5}, 4)
    assert p.coeffs == {0: 1, 2: 3}  # trimmed at the truncation
    assert p.coeff(3) == 0
    with pytest.raises(ValueError):
        p.coeff(5)
    assert qp({1: 0}, 4).is_zero
    assert QPoly.one(3) == qp({0: 1}, 3)
    assert repr(qp({1: 1, 2: 2}, 5)) == "q + 2*q^2 (mod q^6)"


def test_qpoly_edges():
    # a negative truncation is refused, zero prints as 0, and a QPoly leaves
    # comparison with an int to the int, so it equals none
    with pytest.raises(ValueError, match="^truncation degree must be non-negative$"):
        QPoly({}, -1)
    assert repr(QPoly.zero(3)) == "0 (mod q^4)"
    assert QPoly.one(2).__eq__(1) is NotImplemented
    assert (QPoly.one(2) == 1) is False


def test_qpoly_arithmetic_takes_minimum_truncation():
    a = qp({0: 1, 1: 1}, 6)
    b = qp({1: 2}, 3)
    assert (a + b).truncation == 3
    assert (a * b).truncation == 3
    assert (a - b) == qp({0: 1, 1: -1}, 3)
    assert (a * b) == qp({1: 2, 2: 2}, 3)
    assert 2 * b == qp({1: 4}, 3)
    assert -b == qp({1: -2}, 3)


poly_strategy = st.builds(
    qp,
    st.dictionaries(st.integers(0, 5), st.integers(-4, 4), max_size=4),
    st.integers(2, 7),
)


@settings(max_examples=80, deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_qpoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    t = min(a.truncation, b.truncation, c.truncation)
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert QPoly(lhs.coeffs, t) == QPoly(rhs.coeffs, t)
    assert a + QPoly.zero(a.truncation) == a
    assert a * QPoly.one(a.truncation) == a


def test_q_partition_of_zero_is_one():
    for name in ["B2", "C3", "G2"]:
        rs = build(name)
        assert q_partition(rs, Weight.zero(rs.rank), 5) == QPoly.one(5)


def test_q_partition_g2_short_dominant():
    rs = build("G2")
    p = q_partition(rs, rs.theta_short, 3)
    # theta_s itself, or alpha_1 plus (alpha_1 + alpha_2); nothing in size 3
    assert p == qp({1: 1, 2: 1}, 3)


def test_q_partition_a2_all_positives():
    # simply laced: every root is tagged short, so the sums run over all positives
    rs = build("A2")
    theta = rs.weight_of(rs.theta)
    assert q_partition(rs, theta, 3) == qp({1: 1, 2: 1}, 3)


# roots names the oracle's pool; A3 tags every root short, so there it is all of them
@pytest.mark.parametrize("name,roots", [("G2", "short"), ("C3", "short"), ("A3", "all")])
def test_q_partition_against_raw_enumeration(name, roots):
    rs = build(name)
    pool = rs.short_positive_roots() if roots == "short" else rs.positive_roots()
    vectors = [tuple(int(c) for c in rs.weight_of(r).fund) for r in pool]
    targets = [rs.weight_of(r) for r in rs.positive_roots()[:5]]
    targets += [rs.weight_of(rs.theta) + rs.weight_of(rs.theta_short)]
    for t in targets:
        fund = tuple(int(c) for c in t.fund)
        expected = multiset_partition_counts(vectors, fund, 4)
        got = q_partition(rs, t, 4)
        assert [got.coeff(k) for k in range(5)] == expected


def test_q_partition_rejects_bad_subset():
    rs = build("B2")
    zero = Weight.zero(2)
    # every entry point refuses a negative degree, also where the answer is
    # zero before any table is built
    for compute in [lambda: q_partition(rs, zero, -1),
                    lambda: q_partition(rs, (-1, 0), -1),
                    lambda: graded_multiplicity(rs, zero, zero, -1),
                    lambda: graded_multiplicity(rs, (0, 0), (1, 0), -1),
                    lambda: nullcone_character(rs, -1),
                    lambda: hilbert_check(rs, -1)]:
        with pytest.raises(ValueError, match="max_degree must be non-negative"):
            compute()


@pytest.mark.parametrize("degree", [2.0, Fraction(2)], ids=["float", "Fraction"])
@pytest.mark.parametrize("entry", ["q_partition", "graded_multiplicity", "nullcone_character",
                                   "hilbert_check"])
def test_every_entry_point_refuses_a_degree_that_is_not_an_int(monkeypatch, entry, degree):
    # refused with the value named, before any table is built
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(qtables, "_QTables", no_table)
    rs = RootSystem(build("C4").spec, build("C4").nodes)
    zero = (0,) * 4
    compute = {
        "q_partition": lambda: q_partition(rs, zero, degree),
        "graded_multiplicity": lambda: graded_multiplicity(rs, zero, zero, degree),
        "nullcone_character": lambda: nullcone_character(rs, degree),
        "hilbert_check": lambda: hilbert_check(rs, degree),
    }[entry]
    refusal = f"^max_degree must be an int, not {re.escape(repr(degree))}$"
    with pytest.raises(TypeError, match=refusal):
        compute()


@pytest.mark.parametrize("coeffs, truncation, refused", [
    ({0: 1}, 2.5, "truncation degree must be an int, not 2.5"),
    ({0.0: 1}, 2, "int degree and coefficient, not 0.0: 1"),
    ({0: 1.5}, 2, "int degree and coefficient, not 0: 1.5"),
], ids=["truncation", "degree", "coefficient"])
def test_qpoly_refuses_what_is_not_an_int(coeffs, truncation, refused):
    with pytest.raises(TypeError, match=re.escape(refused)):
        QPoly(coeffs, truncation)


@pytest.mark.parametrize("expr", [
    lambda p: p * 1.5,
    lambda p: p + 1,
    lambda p: p - 1,
    lambda p: 1.5 * p,
    lambda p: p.coeff(2.0),
    lambda p: p * True,
], ids=["times-float", "plus-int", "minus-int", "float-times", "coeff-float", "times-bool"])
def test_qpoly_arithmetic_refuses_what_is_not_a_qpoly_or_an_int(expr):
    # a QPoly adds and subtracts QPolys only, scales by an int only, and
    # reads a coefficient at an int degree only
    with pytest.raises(TypeError):
        expr(QPoly({0: 1}, 4))


def test_a_huge_degree_is_refused_before_any_table_is_allocated():
    # three short roots need at least 3d + 3 C(d, 2) updates: past the cap
    # of 300 000 at degree 10**5 although 3 * 10**5 is not, and at degree
    # 450 (304 425), where d + 2 d (d + 1) / 2 = 203 400 is not
    rs = build("G2")
    for degree in (10**6, 10**5, 450):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitExceeded, match="^the q-partition tables of G2 to "
                               f"degree {degree} need more than the cap of 300000 DP "
                               r"updates \(max_character_work\)$"):
                nullcone_character(rs, degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@pytest.mark.parametrize("name, degree", [("B2", 30), ("B3", 10), ("C4", 6), ("F4", 8),
                                          ("G2", 40)])
def test_the_up_front_refusal_spares_a_build_within_the_cap(monkeypatch, name, degree):
    # with the cap set to the updates a build makes, the lower bound that
    # refuses before any table must not pass it; on B2 (two short roots) the
    # bound is exact
    rs = build(name)
    updates = nullcone_character(rs, degree).work["dp_updates"]
    monkeypatch.setattr(config, "MAX_CHARACTER_WORK", updates)
    assert nullcone_character(RootSystem(rs.spec, rs.nodes), degree).work["dp_updates"] == updates


def test_zero_answers_outside_the_root_cone_build_no_tables():
    # each weight lies outside the positive root cone, so the answer is 0
    # although the C7 tables to degree 6 pass the DP cap
    rs = build("C7")
    zero, omega1, omega2 = (0,) * 7, (1,) + (0,) * 6, (0, 1) + (0,) * 5
    assert graded_multiplicity(rs, omega1, zero, 6) == QPoly.zero(6)
    assert graded_multiplicity(rs, zero, omega2, 6) == QPoly.zero(6)
    assert q_partition(rs, (-2, 1) + (0,) * 5, 6) == QPoly.zero(6)
    assert q_partition(rs, omega1, 6) == QPoly.zero(6)
    # the zero weight needs tables only to its height, 0; theta_s has
    # height 12 and needs the full tables, which pass the cap
    assert q_partition(rs, zero, 6) == QPoly.one(6)
    with pytest.raises(SizeLimitExceeded, match="C7 to degree 6"):
        q_partition(rs, rs.weight_of(rs.theta_short), 6)


def test_q_partition_reads_a_sequence_as_a_weight():
    # a coordinate sequence is parsed like a Weight: a non-integral point is
    # refused, as is a float
    rs = build("B2")
    theta_s = rs.weight_of(rs.theta_short)
    assert q_partition(rs, theta_s.fund, 2) == q_partition(rs, theta_s, 2) == QPoly({1: 1}, 2)
    with pytest.raises(ValueError, match="integral coordinates"):
        q_partition(rs, (Fraction(1, 2), 0), 2)
    with pytest.raises(TypeError):
        q_partition(rs, (0.5, 0), 2)


def test_classical_partition_function_on_lattice_points():
    # summing the grading recovers the ungraded count of root multisets
    for name in ["A2", "A3"]:
        rs = build(name)
        vectors = [tuple(int(c) for c in rs.weight_of(r).fund) for r in rs.positive_roots()]
        n = rs.rank
        points = [
            tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(n))
            for coeffs in [(1, 0, 0), (0, 1, 1), (2, 1, 0), (1, 1, 1), (2, 0, 2)]
        ]
        for fund in points:
            depth = 8
            poly = q_partition(rs, fund, depth)
            assert sum(poly.coeff(k) for k in range(depth + 1)) == sum(
                multiset_partition_counts(vectors, fund, depth)
            )


def test_graded_multiplicity_trivial_cases():
    # C7's tables to degree 6 pass the DP cap, but lam - mu = 0 needs none
    for name in ["G2", "B2", "C3", "C7"]:
        rs = build(name)
        zero = Weight.zero(rs.rank)
        assert graded_multiplicity(rs, zero, zero, 6) == QPoly.one(6)
    rs = build("B2")
    lam = Weight.of([1, 0])
    assert graded_multiplicity(rs, lam, lam, 0) == QPoly.one(0)


def test_graded_multiplicity_g2_degree_one():
    rs = build("G2")
    lam = rs.weight_of(rs.theta_short)
    assert graded_multiplicity(rs, lam, Weight.zero(2), 1) == qp({1: 1}, 1)


def test_graded_multiplicity_validation_and_refusal(monkeypatch):
    rs = build("B2")
    with pytest.raises(ValueError):
        graded_multiplicity(rs, Weight.of([-1, 0]), Weight.zero(2), 3)
    # no Weyl-order cap: |W(B6)| = 46080 is answered
    assert graded_multiplicity(build("B6"), Weight.zero(6), Weight.zero(6), 2) == QPoly.one(2)
    # the walk refuses once it has visited more than max_character_work orbit points
    monkeypatch.setattr(config, "MAX_CHARACTER_WORK", 1000)
    refusal = "orbit walk of C8 .* 1000 points .*max_character_work"
    with pytest.raises(SizeLimitExceeded, match=refusal):
        graded_multiplicity(build("C8"), Weight.of([2] * 8), Weight.zero(8), 1)


@pytest.mark.parametrize("name,degree", [("G2", 8), ("C4", 4), ("F4", 4)])
def test_the_walk_gives_every_entry_of_the_character(name, degree):
    rs = build(name)
    char = nullcone_character(rs, degree)
    zero = (0,) * rs.rank
    assert {lam: graded_multiplicity(rs, lam, zero, degree) for lam in char.entries} == \
        char.entries


def test_nullcone_character_g2_low_degrees():
    rs = build("G2")
    char0 = nullcone_character(rs, 0)
    assert len(char0) == 1
    assert char0.multiplicity(Weight.zero(2)) == QPoly.one(0)
    char1 = nullcone_character(rs, 1)
    assert len(char1) == 2
    assert char1.multiplicity(rs.weight_of(rs.theta_short)) == qp({1: 1}, 1)
    assert not char1.negative_terms()


def test_negative_terms_lists_each_negative_coefficient():
    entries = {(0, 0): QPoly.one(2), (1, 0): qp({1: 2, 2: -3}, 2), (0, 1): qp({0: -1}, 2)}
    char = GradedCharacter(build("G2"), entries, 2, {})
    assert char.negative_terms() == [((1, 0), 2, -3), ((0, 1), 0, -1)]


def test_nullcone_character_b2_kills_the_quadratic_invariant():
    rs = build("B2")
    char = nullcone_character(rs, 2)
    assert char.multiplicity(Weight.zero(2)) == QPoly.one(2)
    for poly in char.entries.values():
        assert not poly.is_zero  # zero polynomials are omitted


def test_nullcone_character_rejects_out_of_scope_systems():
    with pytest.raises(UnsupportedRootSystem):
        nullcone_character(build("A2"), 2)
    with pytest.raises(SizeLimitExceeded, match="C7 to degree 6.*300000"):
        nullcone_character(build("C7"), 6)
    assert nullcone_character(build("B5"), 2).multiplicity(Weight.zero(5)) == QPoly.one(2)


def test_character_work_cap_counts_dp_updates():
    assert config.MAX_CHARACTER_WORK == 300_000
    assert sorted(name for name in vars(config) if name.startswith("MAX_")) == [
        "MAX_ANTICHAIN_WORK", "MAX_CHARACTER_WORK", "MAX_ROOT_WORK"]
    # the counter is a function of (system, degree), not of what is cached
    rs = build("C3")
    deep = nullcone_character(rs, 6).work
    shallow = nullcone_character(rs, 4).work
    fresh = nullcone_character(RootSystem(rs.spec, rs.nodes), 4).work
    assert shallow == fresh
    assert deep["dp_updates"] > shallow["dp_updates"] > 0


# deterministic work counters: an algorithmic change moves them even where
# timings are too noisy to show it
@pytest.mark.parametrize("name,degree,dp_updates,dominant_points,entries", [
    ("G2", 12, 454, 49, 13),
    ("B3", 12, 454, 102, 13),
    ("C3", 12, 8267, 193, 35),
    ("B4", 8, 494, 53, 9),
    ("F4", 8, 27704, 80, 18),
    ("C4", 8, 27578, 144, 49),
    ("C5", 6, 48831, 86, 31),
    ("C6", 6, 246962, 104, 39),
])
def test_character_work_counters_are_pinned(name, degree, dp_updates, dominant_points, entries):
    char = nullcone_character(build(name), degree)
    assert char.work == {"dp_updates": dp_updates, "dominant_points": dominant_points}
    assert len(char.entries) == entries


def test_the_straightening_pass_stays_small_above_its_tables():
    # the C6 tables to degree 6 hold 52 108 distinct keys in about 6.3 MB;
    # unpacking them all into full-width columns took 5.2 MB more
    rs = build("C6")
    rs = RootSystem(rs.spec, rs.nodes)   # the tables die with the test
    qtables._dp_build(rs, 6)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        char = nullcone_character(rs, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert char.work == {"dp_updates": 246962, "dominant_points": 104}
    assert peak - before < 2**20


# the distinct keys of all degrees whose point v + rho has no 0 coordinate;
# on B and G the degrees share few keys, on C and F the deepest holds most
@pytest.mark.parametrize("name,degree,off_the_walls", [
    ("C5", 6, 6401), ("B4", 8, 312), ("G2", 12, 151), ("C3", 12, 1572), ("F4", 8, 3960),
])
def test_each_key_off_the_walls_is_straightened_once(monkeypatch, name, degree, off_the_walls):
    rs = build(name)
    rs = RootSystem(rs.spec, rs.nodes)
    qt = qtables._dp_build(rs, degree)
    keys = set().union(*qt.levels)
    assert sum(1 for key in keys if 0 not in decode(qt, rs.rank, key, 1)) == off_the_walls
    seen = []
    expected = nullcone_character(build(name), degree).entries

    def recording(system, fund):
        seen.append(fund)
        return _straighten(system, fund)

    monkeypatch.setattr(orbits, "_straighten", recording)
    assert nullcone_character(rs, degree).entries == expected
    assert len(seen) == len(set(seen)) == off_the_walls


@pytest.mark.parametrize("chunk", [1, 7, 10**6])
def test_the_character_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    rs = build("B4")
    expected = nullcone_character(rs, 8)
    monkeypatch.setattr(qtables, "_CHUNK", chunk)
    char = nullcone_character(RootSystem(rs.spec, rs.nodes), 8)
    assert char.entries == expected.entries
    assert char.work == expected.work


@pytest.mark.parametrize("name,degree", [
    ("G2", 12), ("B3", 8), ("C3", 8), ("F4", 6), ("C5", 4),
])
def test_packed_tables_match_tuple_oracle(name, degree):
    rs = build(name)
    qt = qtables._dp_build(rs, degree)
    tables, updates = tuple_dp_tables(rs, degree)
    assert qt.updates == updates
    assert [len(level) for level in qt.levels] == [len(t) for t in tables]
    assert [{decode(qt, rs.rank, key): c for key, c in level.items()}
            for level in qt.levels] == tables


def test_packing_range_edges():
    rs = build("G2")
    degree = 3
    qt = qtables._dp_build(rs, degree)
    off = qt.off
    assert off == degree * max(abs(c) for r in rs.short_positive_roots()
                               for c in rs.weight_coords(r))
    for fund in [(off, -off), (-off, off), (off, off), (-off, -off), (0, 0)]:
        assert decode(qt, 2, qt.encode(fund)) == fund
        assert decode(qt, 2, qt.encode(fund), 1) == (fund[0] + 1, fund[1] + 1)
    for fund in [(off + 1, 0), (0, -off - 1)]:
        assert qt.encode(fund) is None
        assert q_partition(rs, fund, degree) == QPoly.zero(degree)


# each walk visits a point with a coordinate past the packing range
@pytest.mark.parametrize("name,lam,mu,degree", [
    ("G2", (2, 1), (0, 1), 3),
    ("C3", (0, 2, 1), (1, 1, 0), 2),
])
def test_orbit_walk_past_the_packing_range(monkeypatch, name, lam, mu, degree):
    rs = build(name)
    vectors = [rs.weight_coords(r) for r in rs.short_positive_roots()]
    lam_rho = tuple(c + 1 for c in lam)
    mu_rho = tuple(c + 1 for c in mu)
    acc = [0] * (degree + 1)
    for w in enumerate_group(rs):
        v = tuple(a - b for a, b in zip(act_fund(rs, w, lam_rho), mu_rho))
        for k, n in enumerate(multiset_partition_counts(vectors, v, degree)):
            acc[k] += sign(rs, w) * n
    expected = QPoly(dict(enumerate(acc)), degree)
    assert not expected.is_zero
    missed = []
    encode = qtables._QTables.encode

    def recording(qt, fund):
        key = encode(qt, fund)
        if key is None:
            missed.append(fund)
        return key

    monkeypatch.setattr(qtables._QTables, "encode", recording)
    assert graded_multiplicity(rs, lam, mu, degree) == expected
    assert missed


def test_character_path_enumerates_no_weyl_group(monkeypatch):
    import shortroots.weyl as weyl

    def refuse(*args, **kwargs):
        raise RuntimeError("the character path must not enumerate the Weyl group")

    from_weyl = [name for name, obj in vars(gc).items()
                 if obj is weyl or getattr(obj, "__module__", None) == weyl.__name__]
    assert from_weyl == []
    for name in weyl.__all__:
        monkeypatch.setattr(weyl, name, refuse)
    f4 = build("F4")
    lam = f4.weight_of(f4.theta_short)
    expected = nullcone_character(f4, 6).multiplicity(lam)
    assert graded_multiplicity(f4, lam, Weight.zero(4), 6) == expected
    monkeypatch.setattr(gc, "graded_multiplicity", refuse)
    assert len(nullcone_character(build("F4"), 6)) > 0
    assert hilbert_check(build("C5"), 4).ok


_DIFFERENTIAL_SYSTEMS = ["B2", "B3", "C3", "G2", "B4", "C4", "F4", "B5", "C5"]


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(_DIFFERENTIAL_SYSTEMS), st.integers(0, 5))
def test_straightening_agrees_with_alternating_sum(name, degree):
    rs = build(name)
    char = nullcone_character(rs, degree)
    zero = Weight.zero(rs.rank)
    for lam, poly in char.entries.items():
        assert graded_multiplicity(rs, lam, zero, degree) == poly, (name, lam)
    qt = qtables._dp_build(rs, degree)
    for lam in nullcone_candidates(rs, qt, degree):
        if lam not in char.entries:
            assert graded_multiplicity(rs, lam, zero, degree).is_zero, (name, lam)


def test_character_agrees_with_orbit_accumulation():
    # second route: push every partition-support point to its dominant
    # conjugate and accumulate signs, no per-weight alternating sum
    # the small cases, then every nullcone-char operation of the benchmark
    for name, degree in [("G2", 5), ("C3", 4), ("B2", 6), ("F4", 8), ("C4", 8), ("B4", 8),
                         ("C3", 12), ("B3", 12), ("G2", 12), ("C5", 6)]:
        rs = build(name)
        char = nullcone_character(rs, degree)
        rebuilt = orbit_accumulation(rs, qtables._dp_build(rs, degree), degree)
        assert {lam: QPoly(coeffs, degree) for lam, coeffs in rebuilt.items()} == char.entries


@pytest.mark.parametrize("name,order,degree", [
    ("G2", None, 12), ("B3", None, 12), ("C3", None, 12), ("F4", None, 8), ("C5", None, 6),
    ("C4", (2, 0, 3, 1), 8), ("F4", (3, 1, 0, 2), 8),
    ("D4", None, 4), ("D5", (4, 2, 0, 1, 3), 3),   # a branch node
])
def test_straighten_agrees_with_the_orbit_layers(name, order, degree):
    # on every table point + rho that the pass straightens, against an
    # oracle blind to the scan order: the walk down from each conjugate
    # straighten returns must meet the point, in layer l, and the sign is
    # (-1)^l off the walls and 0 on them
    rs = build(name)
    if order is not None:
        rs = from_cartan([[rs.cartan[i][j] for j in order] for i in order])
    qt = qtables._dp_build(rs, degree)
    points = [decode(qt, rs.rank, key, 1) for key in set().union(*qt.levels)]
    layers = {}   # dominant conjugate -> {orbit point: its layer}
    singular = 0
    for point in points:
        dom, sign = _straighten(rs, point)
        assert min(dom) >= 0, point
        if dom not in layers:
            layers[dom] = {y: length for length, layer in enumerate(descend(rs, dom))
                           for y in layer}
        length = layers[dom][point]
        assert sign == (0 if 0 in dom else (-1) ** length), point
        singular += sign == 0
    assert 0 < singular < len(points)


def test_gradedchar_imports_only_the_root_system_config_and_errors():
    # nullcone-char loads no engine module it does not run: gradedchar adds
    # its table module, which imports nothing more, and the orbit walks it
    # straightens and sums through
    def imported(module):
        names = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                names.update([node.module] if node.module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("shortroots"):
                names.update(node.module.split(".")[1:2] or [a.name for a in node.names])
            elif isinstance(node, ast.Import):
                names.update(a.name.split(".")[1] for a in node.names
                             if a.name.startswith("shortroots."))
        return names

    assert imported(gc) == {"cartan", "config", "errors", "orbits", "qtables", "rootsystem"}
    assert imported(qtables) == {"config", "errors", "rootsystem"}


def test_only_the_root_system_reads_the_cartan_matrix():
    # a module that reads rs.cartan could rebuild the root system's walks
    # from it; reduction's submatrix for from_cartan is the one exception
    readers = []
    for path in sorted(Path(gc.__file__).parent.glob("*.py")):
        if path.stem == "rootsystem":
            continue
        tree = ast.parse(path.read_text())
        allowed = {id(node) for call in ast.walk(tree) if isinstance(call, ast.Call)
                   and getattr(call.func, "id", getattr(call.func, "attr", None)) == "from_cartan"
                   for node in ast.walk(call)}
        readers += [(path.stem, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "cartan"
                    and id(node) not in allowed]
    assert readers == []


def test_graded_multiplicity_is_generator_order_independent():
    rs = build("C3")
    degree = 4
    lam = rs.weight_of(rs.theta_short)
    expected = graded_multiplicity(rs, lam, Weight.zero(3), degree)
    qt = qtables._dp_build(rs, degree)
    lam_rho = tuple(int(c) + 1 for c in lam.fund)
    acc = [0] * (degree + 1)
    for w in closure(rs, [simple_reflection(rs, i) for i in (2, 1, 0)]):
        img = act_fund(rs, w, lam_rho)
        key = qt.encode(tuple(a - 1 for a in img))
        if key is None:
            continue
        for k in range(degree + 1):
            acc[k] += sign(rs, w) * qt.levels[k].get(key, 0)
    assert QPoly(dict(enumerate(acc)), degree) == expected


def test_complete_intersection_series():
    series = complete_intersection_series(7, (2,), 8)
    assert [series.coeff(k) for k in range(9)] == [
        math.comb(6 + k, 6) - (math.comb(4 + k, 6) if k >= 2 else 0) for k in range(9)
    ]


@pytest.mark.parametrize(
    "name,degree",
    [("G2", 8), ("B2", 8), ("B3", 8), ("C3", 6)],
)
def test_hilbert_check_passes(name, degree):
    report = hilbert_check(build(name), degree)
    assert report.ok and bool(report)
    assert report.first_mismatch is None
    assert report.dimension_series == report.expected_series


def test_hilbert_series_frozen_values():
    report = hilbert_check(build("G2"), 8)
    assert [report.dimension_series.coeff(k) for k in range(9)] == [
        1, 7, 27, 77, 182, 378, 714, 1254, 2079,
    ]
    report = hilbert_check(build("C3"), 6)
    assert [report.dimension_series.coeff(k) for k in range(7)] == [
        1, 14, 104, 545, 2261, 7904, 24206,
    ]


def test_hilbert_mismatch_is_located(monkeypatch):
    # doctor the invariant degrees so the comparison must fail at degree 2
    monkeypatch.setattr(gc, "invariant_degrees", lambda rs: (3,))
    report = hilbert_check(build("B2"), 4)
    assert not report.ok
    assert report.first_mismatch == 2


def test_dimension_series_counts_polynomial_functions():
    # degree-wise, the character must sum to the nullcone Hilbert function
    rs = build("B3")
    report = hilbert_check(rs, 5)
    dim = 7
    total_deg2 = sum(
        weyl_dim(rs, w) * p.coeff(2) for w, p in report.character.entries.items()
    )
    assert total_deg2 == math.comb(dim + 1, 2) - 1  # quadratic invariant removed
