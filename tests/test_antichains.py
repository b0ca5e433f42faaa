"""Antichain counting: the forward pass over the cover masks versus the
pairwise masks, the listing oracle and the closed product formulas."""

import random

import pytest
from helpers import all_antichains, comparable, masks_of
from hypothesis import given, settings
from hypothesis import strategies as st

import shortroots.config as config
from shortroots import (
    SizeLimitExceeded,
    UnsupportedRootSystem,
    antichain_report,
    build,
    count_antichains,
    count_antichains_formula,
    count_antichains_formula_alt,
    from_cartan,
    short_root_poset,
)


def chain(n):
    return masks_of(list(range(n)), lambda a, b: a <= b)


def antichain_poset(n):
    return masks_of(list(range(n)), lambda a, b: a == b)


def coeff_leq(a, b):
    return all(x <= y for x, y in zip(a.coeffs, b.coeffs))


def library_order(rs):
    """The short positive roots sorted by their coefficients read from
    Bourbaki's last node to its first."""
    nodes = rs.nodes[::-1]
    return sorted(rs.short_positive_roots(), key=lambda r: [r.coeffs[i] for i in nodes])


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
        return masks_of(elems, lambda a, b: a[0] == b[0] and a[1] <= b[1])

    for p, q in [(2, 3), (4, 1), (3, 3)]:
        assert count_antichains(union(p, q)) == (p + 1) * (q + 1)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), unique=True, max_size=12))
def test_pass_matches_the_listing_oracle(vectors):
    # componentwise order on vectors, elements in whatever order they were drawn
    def leq(a, b):
        return all(x <= y for x, y in zip(a, b))

    assert count_antichains(masks_of(vectors, leq)) == len(all_antichains(vectors, leq))


def test_count_refuses_past_the_state_cap(monkeypatch):
    # the cap counts the states the pass holds, not the antichains: equal
    # masks merge, so 2**20 antichains take one state per element
    assert count_antichains(chain(70)) == 71
    assert count_antichains(antichain_poset(20)) == 2 ** 20
    c17 = short_root_poset(build("C17"))   # 3128 states in all
    monkeypatch.setattr(config, "MAX_ANTICHAIN_WORK", 3128)
    assert count_antichains(c17) == count_antichains_formula(build("C17")) == 1166803110
    monkeypatch.setattr(config, "MAX_ANTICHAIN_WORK", 3127)
    with pytest.raises(SizeLimitExceeded, match="272 elements.*3127 counting states"):
        count_antichains(c17)
    five = chain(5)   # two states per element, ten in all
    monkeypatch.setattr(config, "MAX_ANTICHAIN_WORK", 4)
    with pytest.raises(SizeLimitExceeded):
        count_antichains(five)


@pytest.mark.parametrize("name", ["B4", "C5", "F4", "G2"])
def test_short_poset_keeps_the_system_order(name):
    # the masks hold the system's own short roots under the componentwise
    # order: each pair of the system's listing, placed by the library's
    # sort, is comparable exactly when its coefficients are
    rs = build(name)
    shorts = rs.short_positive_roots()
    masks = short_root_poset(rs)
    place = {r.coeffs: i for i, r in enumerate(library_order(rs))}
    assert sorted(place.values()) == list(range(len(masks))) == sorted(place[r.coeffs] for r in shorts)
    for a in shorts:
        for b in shorts:
            i, j = sorted((place[a.coeffs], place[b.coeffs]))
            apart = i != j and masks[i] >> j & 1
            assert apart == (not coeff_leq(a, b) and not coeff_leq(b, a))
    assert count_antichains(masks) == count_antichains(masks_of(shorts, coeff_leq))


def test_short_poset_shapes():
    assert short_root_poset(build("G2")) == (0, 0, 0)   # a chain
    assert short_root_poset(build("B4")) == (0, 0, 0, 0)
    assert short_root_poset(build("C2")) == (0, 0)
    with pytest.raises(UnsupportedRootSystem):
        short_root_poset(build("A3"))


@pytest.mark.parametrize("name", ["B4", "C5", "F4", "G2", "C12"])
def test_short_poset_masks_are_the_incomparable_pairs(name):
    # the masks from the covers equal those compared pair by pair, in the
    # order of the coefficients read from Bourbaki's last node
    rs = build(name)
    masks = short_root_poset(rs)
    assert masks == masks_of(library_order(rs), coeff_leq)
    assert all(mask >> len(masks) == 0 for mask in masks)


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "C4", "F4", "B5", "C5", "B6", "C6"])
def test_short_poset_is_the_same_on_every_numbering(name):
    rs = build(name)
    A = rs.cartan
    want = short_root_poset(rs)
    rng = random.Random(name)
    for _ in range(3):
        order = rng.sample(range(rs.rank), rs.rank)
        relabelled = from_cartan([[A[i][j] for j in order] for i in order])
        assert relabelled.spec == rs.spec
        assert short_root_poset(relabelled) == want, order


def test_comparable_is_symmetric_and_reflexive():
    elements = list(range(6))
    for leq, related in [(lambda a, b: a <= b, lambda i, j: True),
                         (lambda a, b: a == b, lambda i, j: i == j)]:
        for i in range(6):
            for j in range(6):
                assert (comparable(elements, leq, i, j) == comparable(elements, leq, j, i)
                        == related(i, j))


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
    sets = all_antichains(library_order(rs), coeff_leq)
    assert len(sets) == 4
    sizes = sorted(len(a) for a in sets)
    assert sizes == [0, 1, 1, 1]  # the empty set plus each element of a 3-chain
    report_c3 = antichain_report(build("C3"))
    assert report_c3.consistent and report_c3.alt_formula_count == 10
