"""Weyl group elements, enumeration and the long/short factorisation."""

import itertools
import random
from functools import lru_cache
from unittest import mock

import pytest
from helpers import act_fund, act_root, compose, inversions, length, order, reduced_word, sign
from hypothesis import given, settings
from hypothesis import strategies as st

import shortroots.weyl as weyl_module
from shortroots import (
    Limits,
    SizeLimitExceeded,
    build,
    closure,
    coxeter_element,
    coxeter_orbits,
    decompose_semidirect,
    enumerate_group,
    identity,
    is_in_long_subgroup,
    long_root_base,
    long_subgroup,
    reflection,
    short_parabolic,
    simple_reflection,
)
from shortroots.checks import run_check


def test_reflection_is_an_involution():
    rs = build("F4")
    for r in [rs.theta, rs.theta_short, rs.simple_root(1)]:
        w = reflection(rs, r)
        assert (w * w).is_identity
        assert act_root(w, r) == -r


def test_reflection_fixes_orthogonal_roots():
    rs = build("B2")
    e1 = rs.roots[rs.index((1, 1))]   # epsilon_1
    e2 = rs.roots[rs.index((0, 1))]   # epsilon_2
    assert rs.inner(e1, e2) == 0
    assert act_root(reflection(rs, e1), e2) == e2


def test_reflection_rejects_non_roots():
    rs = build("G2")
    with pytest.raises(ValueError):
        reflection(rs, (1, 2))


def test_length_and_inversions():
    rs = build("G2")
    e = identity(rs)
    assert length(e) == 0 and inversions(e) == ()
    for i in range(rs.rank):
        s = simple_reflection(rs, i)
        assert length(s) == 1
        assert inversions(s) == (rs.simple_root(i),)
    longest = max(enumerate_group(rs), key=length)
    assert length(longest) == rs.num_positive == 6


@pytest.mark.parametrize("name,order", [("A1", 2), ("G2", 12), ("B3", 48), ("F4", 1152)])
def test_enumeration(name, order):
    rs = build(name)
    group = enumerate_group(rs)
    assert len(group) == len(set(group)) == order == rs.weyl_order
    lengths = [length(w) for w in group]
    assert lengths == sorted(lengths)  # breadth-first order is by length
    for w, k in zip(group, lengths):
        word = reduced_word(w)
        assert len(word) == k
        composed = identity(rs)
        for i in word:
            composed = composed * simple_reflection(rs, i)
        assert composed == w


def test_enumeration_refuses_large_groups():
    with pytest.raises(SizeLimitExceeded, match="46080"):
        enumerate_group(build("B6"))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4"])
def test_coxeter_element_order_is_h(name):
    rs = build(name)
    orderings = [tuple(range(rs.rank)), tuple(reversed(range(rs.rank)))]
    random.Random(7).shuffle(shuffled := list(range(rs.rank)))
    orderings.append(tuple(shuffled))
    for ordering in orderings:
        assert order(coxeter_element(rs, ordering)) == rs.coxeter_number


def test_coxeter_element_rejects_bad_orderings():
    rs = build("B3")
    with pytest.raises(ValueError):
        coxeter_element(rs, (0, 0, 1))


@pytest.mark.parametrize(
    "name,orbit_count,short_orbits",
    [("G2", 2, 1), ("C3", 3, 2), ("F4", 4, 2), ("B4", 4, 1)],
)
def test_coxeter_orbits(name, orbit_count, short_orbits):
    rs = build(name)
    orbits = coxeter_orbits(rs, coxeter_element(rs))
    assert len(orbits) == orbit_count
    assert all(len(o) == rs.coxeter_number for o in orbits)
    kinds = [{rs.roots[i].length_class for i in o} for o in orbits]
    assert all(len(k) == 1 for k in kinds)  # orbits never mix lengths
    assert sum(1 for k in kinds if k == {"short"}) == short_orbits


def test_long_root_base():
    g2 = build("G2")
    assert {r.coeffs for r in long_root_base(g2)} == {(0, 1), (3, 1)}
    b2 = build("B2")
    assert {r.coeffs for r in long_root_base(b2)} == {(1, 0), (1, 2)}
    f4 = build("F4")
    assert len(long_root_base(f4)) == 4  # long subsystem has full rank


def test_decompose_trivial_cases():
    rs = build("C3")
    e = identity(rs)
    ws, wl = decompose_semidirect(rs, e)
    assert ws.is_identity and wl.is_identity
    r_long = reflection(rs, rs.theta)
    ws, wl = decompose_semidirect(rs, r_long)
    assert ws.is_identity and wl == r_long
    r_short = simple_reflection(rs, 0)
    ws, wl = decompose_semidirect(rs, r_short)
    assert ws == r_short and wl.is_identity


def test_decompose_rejects_simply_laced():
    from shortroots import UnsupportedRootSystem

    rs = build("A3")
    with pytest.raises(UnsupportedRootSystem):
        decompose_semidirect(rs, identity(rs))


@pytest.mark.parametrize("name", ["G2", "B2", "B3", "C3", "C4", "F4"])
def test_decompose_exhaustively(name):
    rs = build(name)
    group = enumerate_group(rs)
    w_l = closure(rs, long_subgroup(rs))
    w_s = closure(rs, short_parabolic(rs))
    assert len(w_s) * len(w_l) == len(group)
    assert len(w_l & w_s) == 1
    pairs = set()
    p = rs.num_positive
    long_pos = [rs.index(r) for r in rs.long_positive_roots()]
    for w in group:
        ws, wl = decompose_semidirect(rs, w)
        assert ws * wl == w
        assert ws in w_s and wl in w_l
        assert all(ws.perm[i] < p for i in long_pos)  # ws keeps long positives positive
        assert is_in_long_subgroup(rs, w) == ws.is_identity
        pairs.add((ws.perm, wl.perm))
    assert len(pairs) == len(group)


def test_long_subgroup_is_normal_in_small_groups():
    for name in ["G2", "B3"]:
        rs = build(name)
        w_l = closure(rs, long_subgroup(rs))
        for i in range(rs.rank):
            g = simple_reflection(rs, i)
            gi = g.inverse()
            for r in rs.long_positive_roots():
                assert g * reflection(rs, r) * gi in w_l


def test_stability_characterises_the_short_parabolic():
    rs = build("B3")
    group = enumerate_group(rs)
    w_s = closure(rs, short_parabolic(rs))
    p = rs.num_positive
    long_pos = [rs.index(r) for r in rs.long_positive_roots()]
    stable = {w for w in group if all(w.perm[i] < p for i in long_pos)}
    assert stable == set(w_s)


def test_membership_in_long_subgroup():
    rs = build("F4")
    assert is_in_long_subgroup(rs, reflection(rs, rs.theta))
    assert not is_in_long_subgroup(rs, simple_reflection(rs, rs.short_simple_indices[0]))


def test_decompose_sampled_large_rank(monkeypatch):
    # the closure below, past the default cap
    monkeypatch.setattr(weyl_module, "current_limits", lambda: Limits(max_weyl_order=1920))
    rs = build("B5")
    w_l = closure(rs, long_subgroup(rs))   # type D5, order 1920
    assert len(w_l) == 1920
    w_s = closure(rs, short_parabolic(rs))
    assert len(w_s) == 2
    rng = random.Random(20120523)
    p = rs.num_positive
    long_pos = [rs.index(r) for r in rs.long_positive_roots()]
    for _ in range(60):
        w = identity(rs)
        for _ in range(rng.randrange(1, 25)):
            w = w * simple_reflection(rs, rng.randrange(rs.rank))
        ws, wl = decompose_semidirect(rs, w)
        assert ws * wl == w
        assert wl in w_l and ws in w_s
        assert all(ws.perm[i] < p for i in long_pos)


@lru_cache(maxsize=None)
def _long_closure(name):
    rs = build(name)
    # B5's is type D5, of order 1920: past the default cap
    with mock.patch.object(weyl_module, "current_limits", lambda: Limits(max_weyl_order=1920)):
        return closure(rs, long_subgroup(rs))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["B5", "C5"]), st.lists(st.integers(0, 4), max_size=30))
def test_decompose_semidirect_against_closure_membership(name, word):
    rs = build(name)
    w = identity(rs)
    for i in word:
        w = w * simple_reflection(rs, i)
    ws, wl = decompose_semidirect(rs, w)
    # ws keeps every positive long root positive
    assert all(ws.perm[i] < rs.num_positive for i in rs.long_positives)
    assert wl in _long_closure(name)
    assert ws * wl == w


def test_closure_refuses_past_the_bound(monkeypatch):
    rs = build("B3")
    gens = [simple_reflection(rs, i) for i in range(3)]
    monkeypatch.setattr(weyl_module, "current_limits", lambda: Limits(max_weyl_order=10))
    with pytest.raises(SizeLimitExceeded, match="max_weyl_order"):
        closure(rs, gens)
    # the cap counts elements found: |W(B3)| = 48 is refused at 47, answered at 48
    monkeypatch.setattr(weyl_module, "current_limits", lambda: Limits(max_weyl_order=47))
    with pytest.raises(SizeLimitExceeded, match="exceeded the bound 47 .max_weyl_order."):
        closure(rs, gens)
    monkeypatch.setattr(weyl_module, "current_limits", lambda: Limits(max_weyl_order=48))
    assert len(closure(rs, gens)) == 48


def test_inverse_and_identity():
    rs = build("C3")
    w = coxeter_element(rs)
    assert (w * w.inverse()).is_identity
    assert (w.inverse() * w).is_identity
    assert w ** rs.coxeter_number == identity(rs)


def test_weight_action_matches_root_action():
    # W acts on roots only; the oracle's action on weights, built from the
    # images of the simple roots, is linear over the root permutation
    rs = build("F4")
    w = coxeter_element(rs, (2, 0, 3, 1))
    for r in rs.positive_roots()[: 8]:
        assert act_fund(w, rs.weight_coords(r)) == rs.weight_coords(act_root(w, r))


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]
)
def test_weight_action_matches_fraction_oracle(name):
    # dominant descent, the library's only way of moving a weight, undoes every
    # element of W on the regular weight rho, with the determinant of w as sign
    rs = build(name)
    rho = (1,) * rs.rank
    for w in enumerate_group(rs):
        assert rs.dominant_representative(act_fund(w, rho)) == (rho, sign(w))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=12))
def test_word_length_properties(word):
    rs = build("B3")
    w = identity(rs)
    for i in word:
        w = w * simple_reflection(rs, i)
    k = length(w)
    assert k <= len(word)
    assert (k - len(word)) % 2 == 0
    assert k == len(inversions(w))
    assert sign(w) == (-1) ** len(word)


# -- the permutation kernels against one-index-at-a-time composition ----------

ORACLE_SYSTEMS = ["B3", "C4", "F4", "G2"]


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_coxeter_element_is_the_oracle_product(name):
    rs = build(name)
    for ordering in itertools.permutations(range(rs.rank)):
        perm = identity(rs).perm
        for i in ordering:
            perm = compose(perm, simple_reflection(rs, i).perm)
        assert coxeter_element(rs, ordering).perm == perm


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_powers_inverse_and_identity_agree_with_the_oracle(name):
    rs = build(name)
    h = rs.coxeter_number
    group = enumerate_group(rs)
    sample = list(group[:: max(1, len(group) // 40)])
    sample += [coxeter_element(rs, o) for o in itertools.permutations(range(rs.rank))]
    for w in sample:
        inv = [0] * len(w.perm)
        for i, j in enumerate(w.perm):
            inv[j] = i
        inv = tuple(inv)
        assert w.inverse().perm == inv
        for base, sign in ((w.perm, 1), (inv, -1)):
            power = identity(rs).perm
            for k in range(h + 1):
                assert (w ** (sign * k)).perm == power
                assert (w ** (sign * k)).is_identity == all(i == j for i, j in enumerate(power))
                power = compose(power, base)


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_decompose_round_trips_on_every_element(name):
    rs = build(name)
    w_l = {w.perm for w in closure(rs, long_subgroup(rs))}
    p = rs.num_positive
    for w in enumerate_group(rs):
        ws, wl = decompose_semidirect(rs, w)
        assert compose(ws.perm, wl.perm) == w.perm
        assert all(ws.perm[i] < p for i in rs.long_positives)
        assert wl.perm in w_l


@pytest.mark.parametrize(
    "wrong",
    [lambda rs, w: (w, identity(rs)), lambda rs, w: tuple(reversed(decompose_semidirect(rs, w)))],
    ids=["all-in-short-factor", "swapped-factors"],
)
def test_semidirect_check_rejects_wrong_factors(monkeypatch, wrong):
    rs = build("C4")
    assert run_check("semidirect-product", rs)[0] == "pass"
    monkeypatch.setattr(weyl_module, "decompose_semidirect", wrong)
    status, details = run_check("semidirect-product", rs)
    assert status == "fail"
    assert details["roundtrip"] == "violated"

