"""Weight multiplicities, dimension formulas and sign-partition counts."""

import itertools
from fractions import Fraction

import pytest
from helpers import dominant_representative, kostant_multiplicity, oracle_support
from hypothesis import given, settings
from hypothesis import strategies as st

import shortroots.littleadjoint as la_module
from shortroots import (
    UnsupportedRootSystem,
    Weight,
    build,
    delta_partition,
    freudenthal,
    hw_orbit_dim,
    little_adjoint_dims,
)
from shortroots.checks import run_check
from shortroots.orbits import weyl_dim


def test_smallest_adjoint_module():
    rs = build("A1")
    ws = freudenthal(rs, Weight.of([2]))
    assert ws.dimension == 3
    assert sorted(ws.entries) == [(-2,), (0,), (2,)]
    assert all(m == 1 for m in ws.entries.values())


def test_short_dominant_module_of_g2():
    rs = build("G2")
    ws = freudenthal(rs, rs.weight_of(rs.theta_short))
    assert ws.zero_multiplicity == 1
    assert ws.dimension == 7
    support = {w for w in ws.weights() if not w.is_zero}
    short_roots = {rs.weight_of(r) for r in rs.roots if r.is_short}
    assert support == short_roots
    assert all(ws.multiplicity(w) == 1 for w in support)


def test_short_dominant_module_of_f4():
    rs = build("F4")
    ws = freudenthal(rs, rs.weight_of(rs.theta_short))
    assert ws.zero_multiplicity == 2
    assert ws.dimension == 26


@pytest.mark.parametrize(
    "name,dim,zero",
    [("B2", 5, 1), ("B4", 9, 1), ("C3", 14, 2), ("C5", 44, 4), ("G2", 7, 1), ("F4", 26, 2)],
)
def test_little_adjoint_dims(name, dim, zero):
    rs = build(name)
    dims = little_adjoint_dims(rs)
    assert dims.dim == dim
    assert dims.zero_mult == zero
    assert dims.short_count == dim - zero
    assert dims.dim == (rs.coxeter_number + 1) * len(rs.short_simple_indices)


def test_little_adjoint_dims_rejects_simply_laced():
    with pytest.raises(UnsupportedRootSystem, match="^A3 has a single root length$"):
        little_adjoint_dims(build("A3"))


def test_weyl_dim_values():
    assert weyl_dim(build("C3"), build("C3").weight_of(build("C3").theta_short)) == 14
    g2 = build("G2")
    assert weyl_dim(g2, g2.weight_of(g2.theta)) == 14
    assert weyl_dim(g2, Weight.zero(2)) == 1
    b3 = build("B3")
    assert weyl_dim(b3, Weight.of([0, 0, 1])) == 8  # spin module


def test_freudenthal_input_validation():
    rs = build("B2")
    with pytest.raises(ValueError):
        freudenthal(rs, Weight.of([-1, 0]))
    with pytest.raises(ValueError):
        freudenthal(rs, (Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        weyl_dim(rs, Weight.of([-1, 0]))


@pytest.mark.parametrize(
    "name,lam",
    [("A2", (1, 1)), ("A2", (2, 0)), ("B2", (1, 0)), ("B2", (0, 2)),
     ("C3", (0, 1, 0)), ("G2", (1, 0)), ("G2", (0, 1))],
)
def test_dimension_formula_agrees_with_multiplicities(name, lam):
    rs = build(name)
    ws = freudenthal(rs, Weight.of(lam))
    assert ws.dimension == weyl_dim(rs, Weight.of(lam))


@pytest.mark.parametrize(
    "name,lam",
    [("A2", (1, 1)), ("B2", (0, 1)), ("B2", (1, 0)), ("G2", (1, 0))],
)
def test_multiplicities_against_alternating_sum(name, lam):
    # the classical alternating-sum formula is a fully independent oracle
    rs = build(name)
    ws = freudenthal(rs, Weight.of(lam))
    for mu in ws.weights():
        if mu.is_dominant:
            assert ws.multiplicity(mu) == kostant_multiplicity(rs, Weight.of(lam), mu)
    assert kostant_multiplicity(rs, Weight.of(lam), Weight.of(lam)) == 1


@pytest.mark.parametrize("name,lam", [("B2", (1, 1)), ("G2", (1, 0)), ("C3", (0, 1, 0))])
def test_weight_system_negation_symmetry(name, lam):
    rs = build(name)
    ws = freudenthal(rs, Weight.of(lam))
    for mu in ws.weights():
        assert ws.multiplicity(-mu) == ws.multiplicity(mu)


def test_delta_partition_of_short_dominant_root():
    for name in ["B3", "C3", "F4", "G2"]:
        rs = build(name)
        part = delta_partition(rs, rs.theta_short)
        assert part.pos_neg == ()  # nothing positive pairs negatively with it
        assert len(part.pos_pos) == 2 * rs.theta_short.height - 1


def test_delta_partition_counts_for_short_simples():
    rs = build("G2")
    part = delta_partition(rs, rs.simple_root(0))
    assert len(part.pos_pos) == 3
    assert len(part.pos_neg) == 2
    for name in ["B4", "C4", "F4"]:
        rs = build(name)
        ht = rs.theta_short.height
        for i in rs.short_simple_indices:
            part = delta_partition(rs, rs.simple_root(i))
            assert len(part.pos_pos) == ht
            assert len(part.pos_neg) == ht - 1


def test_delta_partition_balance_everywhere():
    rs = build("B3")
    for mu in rs.roots:
        part = delta_partition(rs, mu)
        assert len(part.pos_pos) == len(part.neg_neg)
        assert len(part.pos_neg) == len(part.neg_pos)
        assert sum(map(len, part)) % 2 == 0
        # the negative parts, read off the positive roots' row, are those
        # of the inner products of every root, in index order
        for key, positive, sign in [("neg_pos", False, 1), ("neg_neg", False, -1),
                                    ("pos_pos", True, 1), ("pos_neg", True, -1)]:
            assert getattr(part, key) == tuple(
                r for r in rs.roots if r.is_positive == positive and sign * rs.inner(r, mu) > 0)


def test_delta_partition_smallest_case():
    rs = build("A1")
    part = delta_partition(rs, rs.theta)
    assert [len(part.pos_pos), len(part.pos_neg), len(part.neg_pos), len(part.neg_neg)] == [1, 0, 0, 1]
    with pytest.raises(ValueError):
        delta_partition(rs, (2,))


def _doctor_partitions(monkeypatch, roots, doctor):
    """delta_partition with doctor applied to its answer at each of roots."""
    partition = la_module.delta_partition
    monkeypatch.setattr(la_module, "delta_partition", lambda rs, mu: (
        doctor(partition(rs, mu)) if mu in roots else partition(rs, mu)))


def test_sign_partition_fails_on_a_negative_part_at_theta_s(monkeypatch):
    rs = build("C4")
    _doctor_partitions(monkeypatch, {rs.theta_short},
                       lambda part: part._replace(pos_neg=part.pos_pos[:1]))
    status, details = run_check("sign-partition", rs)
    assert status == "fail"
    assert details == {"short_dominant_height": rs.theta_short.height,
                       "short_dominant_negative_part": 1}


def test_sign_partition_fails_on_a_count_at_a_short_simple_root(monkeypatch):
    rs = build("C4")
    first = rs.short_simple_indices[0]
    ht = rs.theta_short.height
    _doctor_partitions(monkeypatch, {rs.simple_root(first)},
                       lambda part: part._replace(pos_pos=part.pos_pos[1:]))
    status, details = run_check("sign-partition", rs)
    assert status == "fail"
    assert details == {"short_dominant_height": ht, "short_dominant_negative_part": 0,
                       "simple_index": first, "positive_agreeing": ht - 1,
                       "positive_opposing": ht - 1}


def test_sign_partition_reads_one_partition_per_root_it_decides(monkeypatch):
    # theta_s and the short simple roots: the negative parts mirror the
    # positive ones by construction, so no other root is partitioned
    rs = build("C4")
    asked = []
    partition = la_module.delta_partition
    monkeypatch.setattr(la_module, "delta_partition",
                        lambda rs, mu: asked.append(mu) or partition(rs, mu))
    assert run_check("sign-partition", rs)[0] == "pass"
    assert asked == [rs.theta_short] + [rs.simple_root(i) for i in rs.short_simple_indices]


def test_hw_orbit_dim():
    assert hw_orbit_dim(build("G2")) == 6
    assert hw_orbit_dim(build("F4")) == 16
    for n in [2, 3, 4, 5]:
        assert hw_orbit_dim(build("B", n)) == 2 * n
        assert hw_orbit_dim(build("C", n)) == 4 * n - 4
    with pytest.raises(UnsupportedRootSystem):
        hw_orbit_dim(build("D4"))


def test_zero_weight_ratio_extremes():
    # (h+1) * m(0) <= dim, with equality only for the two distinguished modules
    rs = build("G2")
    h = rs.coxeter_number
    extremal = {rs.weight_of(rs.theta), rs.weight_of(rs.theta_short)}
    for a in range(3):
        for b in range(3):
            lam = Weight.of([a, b])
            if lam.is_zero:
                continue
            ws = freudenthal(rs, lam)
            bound = (h + 1) * ws.zero_multiplicity
            assert bound <= ws.dimension
            assert (bound == ws.dimension) == (lam in extremal)


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_random_weights_of_b2(lam):
    rs = build("B2")
    if lam == (0, 0):
        return
    ws = freudenthal(rs, Weight.of(lam))
    assert ws.dimension == weyl_dim(rs, Weight.of(lam))
    for mu in ws.weights():
        m = ws.multiplicity(mu)
        assert ws.multiplicity(-mu) == m
        dom, _ = dominant_representative(rs, mu.fund)
        assert ws.multiplicity(dom) == m


def _agrees_with_kostant_and_weyl(rs, lam):
    ws = freudenthal(rs, lam)
    assert ws.dimension == weyl_dim(rs, lam)
    for mu in ws.weights():
        if mu.is_dominant:
            assert ws.multiplicity(mu) == kostant_multiplicity(rs, lam, mu), (rs.spec, lam, mu)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "B2", "B3", "C3", "G2"]), st.tuples(*[st.integers(0, 2)] * 3))
def test_freudenthal_agrees_with_kostant_and_weyl(name, coords):
    rs = build(name)
    _agrees_with_kostant_and_weyl(rs, Weight.of(coords[: rs.rank]))


# rank-4 two-length types, at highest weights with four to seven dominant
# weights: a dominant weight the chamber walk missed would show here
@pytest.mark.parametrize(
    "name,lam",
    [
        ("B4", (1, 1, 0, 0)),
        ("B4", (0, 0, 1, 1)),
        ("C4", (0, 0, 1, 1)),
        ("C4", (1, 0, 0, 1)),
        ("F4", (0, 0, 1, 0)),
        ("F4", (1, 0, 0, 1)),
        ("F4", (0, 1, 0, 0)),
    ],
)
def test_freudenthal_agrees_with_kostant_in_rank_four(name, lam):
    _agrees_with_kostant_and_weyl(build(name), Weight.of(lam))


@pytest.mark.parametrize(
    "name,bound",
    [("A3", 2), ("B3", 2), ("C3", 2), ("G2", 3), ("D4", 1), ("B4", 1), ("C4", 1), ("F4", 1)],
)
def test_freudenthal_support_is_the_hull(name, bound):
    # the weights are exactly the points whose dominant conjugate lies below
    # the highest weight, found by an independent walk
    rs = build(name)
    for lam in itertools.product(range(bound + 1), repeat=rs.rank):
        ws = freudenthal(rs, Weight.of(lam))
        assert set(ws.entries) == oracle_support(rs, lam)
