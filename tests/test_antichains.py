"""Antichain counting: the forward pass over the poset versus the listing
oracle and the closed product formulas."""

import pytest
from helpers import all_antichains, comparable
from hypothesis import given, settings
from hypothesis import strategies as st

import shortroots.antichains as antichains_module
from shortroots import (
    Limits,
    RootPoset,
    SizeLimitExceeded,
    UnsupportedRootSystem,
    antichain_report,
    build,
    count_antichains,
    count_antichains_formula,
    count_antichains_formula_alt,
    short_root_poset,
)


def chain(n):
    return RootPoset(list(range(n)), lambda a, b: a <= b)


def antichain_poset(n):
    return RootPoset(list(range(n)), lambda a, b: a == b)


def test_synthetic_posets():
    assert count_antichains(chain(0)) == 1
    assert count_antichains(chain(3)) == 4
    assert count_antichains(chain(10)) == 11
    for k in range(1, 8):
        assert count_antichains(antichain_poset(k)) == 2 ** k


def test_disjoint_union_multiplies_counts():
    # elements (side, value): comparable only within one side
    def union(p, q):
        elems = [(0, x) for x in range(p)] + [(1, x) for x in range(q)]
        return RootPoset(elems, lambda a, b: a[0] == b[0] and a[1] <= b[1])

    for p, q in [(2, 3), (4, 1), (3, 3)]:
        assert count_antichains(union(p, q)) == (p + 1) * (q + 1)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), unique=True, max_size=12))
def test_pass_matches_the_listing_oracle(vectors):
    # componentwise order on vectors, elements in whatever order they were drawn
    poset = RootPoset(vectors, lambda a, b: all(x <= y for x, y in zip(a, b)))
    assert count_antichains(poset) == len(all_antichains(poset))


def test_count_refuses_past_the_state_cap(monkeypatch):
    # the cap counts the states the pass holds, not the antichains: equal
    # masks merge, so 2**20 antichains take one state per element
    assert count_antichains(chain(70)) == 71
    assert count_antichains(antichain_poset(20)) == 2 ** 20
    with pytest.raises(SizeLimitExceeded, match="306 elements.*500000 counting states"):
        count_antichains(short_root_poset(build("C18")))
    five = chain(5)   # two states per element, ten in all
    monkeypatch.setattr(antichains_module, "current_limits",
                        lambda: Limits(max_antichain_work=4))
    with pytest.raises(SizeLimitExceeded):
        count_antichains(five)


def test_poset_refuses_too_many_pairs_before_comparing(monkeypatch):
    calls = []

    def leq(a, b):
        calls.append((a, b))
        return a <= b

    with pytest.raises(SizeLimitExceeded, match="1100 elements has 604450 pairs.*500000"):
        RootPoset(range(1100), leq)
    assert calls == []
    with pytest.raises(SizeLimitExceeded, match="557040 pairs"):
        short_root_poset(build("C33"))
    monkeypatch.setattr(antichains_module, "current_limits",
                        lambda: Limits(max_antichain_work=10))
    assert len(RootPoset(range(5), leq)) == 5   # ten pairs, at the cap
    with pytest.raises(SizeLimitExceeded, match="15 pairs"):
        RootPoset(range(6), leq)


def test_state_cap_refuses_before_comparing_every_pair():
    # C32's 491 536 pairs pass the pair guard; the pass compares each
    # element with the later ones only when it reaches it, so the state cap
    # stops it long before the last pair
    calls = 0

    def leq(a, b):
        nonlocal calls
        calls += 1
        return all(x <= y for x, y in zip(a.coeffs, b.coeffs))

    poset = RootPoset(build("C32").short_positive_roots(), leq)
    assert calls == 0
    with pytest.raises(SizeLimitExceeded, match="992 elements.*500000 counting states"):
        count_antichains(poset)
    assert 0 < calls < 50_000


@pytest.mark.parametrize("name", ["B4", "C5", "F4", "G2"])
def test_short_poset_keeps_the_system_order(name):
    rs = build(name)
    assert short_root_poset(rs).elements == rs.short_positive_roots()


def test_short_poset_shapes():
    g2 = short_root_poset(build("G2"))
    assert len(g2) == 3
    assert all(comparable(g2, i, j) for i in range(3) for j in range(3))  # a chain
    b4 = short_root_poset(build("B4"))
    assert len(b4) == 4
    assert all(comparable(b4, i, j) for i in range(4) for j in range(4))
    c2 = short_root_poset(build("C2"))
    assert len(c2) == 2 and comparable(c2, 0, 1)
    with pytest.raises(UnsupportedRootSystem):
        short_root_poset(build("A3"))


@pytest.mark.parametrize("name", ["B4", "C5", "F4", "G2"])
def test_short_poset_masks_are_the_incomparable_pairs(name):
    poset = short_root_poset(build(name))
    els = poset.elements

    def dominates(a, b):
        return all(x >= y for x, y in zip(a.coeffs, b.coeffs))

    for i, a in enumerate(els):
        mask = poset.incomparable_after(i)
        assert mask >> len(els) == 0
        for j, b in enumerate(els):
            bit = mask >> j & 1
            assert bit == (j > i and not dominates(a, b) and not dominates(b, a))


def test_comparable_is_symmetric_and_reflexive():
    for poset, related in [(chain(6), lambda i, j: True),
                           (antichain_poset(6), lambda i, j: i == j)]:
        for i in range(6):
            for j in range(6):
                assert comparable(poset, i, j) == comparable(poset, j, i) == related(i, j)


def test_poset_sizes_match_half_the_short_roots():
    for name in ["B5", "C4", "F4", "G2"]:
        rs = build(name)
        assert len(short_root_poset(rs)) == len(rs.short_positives)
        assert 2 * len(rs.short_positives) == rs.coxeter_number * len(rs.short_simple_indices)


@pytest.mark.parametrize(
    "name,count",
    [("G2", 4), ("C3", 10), ("F4", 21), ("B3", 4), ("B8", 9), ("C2", 3)],
)
def test_counts(name, count):
    rs = build(name)
    assert count_antichains(short_root_poset(rs)) == count
    assert count_antichains_formula(rs) == count


@pytest.mark.parametrize("name", ["C4", "C5", "C6", "B6", "F4"])
def test_formula_matches_brute_force(name):
    rs = build(name)
    assert count_antichains(short_root_poset(rs)) == count_antichains_formula(rs)


@pytest.mark.parametrize("name", ["B2", "B5", "C3", "C6", "F4"])
def test_alt_formula_for_double_laced(name):
    rs = build(name)
    assert count_antichains_formula_alt(rs) == count_antichains_formula(rs)


def test_alt_formula_rejects_other_ratios():
    with pytest.raises(UnsupportedRootSystem):
        count_antichains_formula_alt(build("G2"))
    with pytest.raises(UnsupportedRootSystem):
        count_antichains_formula_alt(build("A2"))
    with pytest.raises(UnsupportedRootSystem):
        count_antichains_formula(build("D4"))


def test_report_and_explicit_antichains():
    rs = build("G2")
    report = antichain_report(rs)
    assert report.consistent
    assert report.brute_force_count == 4
    sets = all_antichains(short_root_poset(rs))
    assert len(sets) == 4
    sizes = sorted(len(a) for a in sets)
    assert sizes == [0, 1, 1, 1]  # the empty set plus each element of a 3-chain
    report_c3 = antichain_report(build("C3"))
    assert report_c3.consistent and report_c3.alt_formula_count == 10
