"""Weyl group elements, subgroup orders and the long/short factorisation."""

import itertools
import random
import re
from functools import lru_cache

import pytest
from helpers import (
    act_fund,
    act_root,
    all_pairs_long_base,
    closure,
    dominant_representative,
    enumerate_group,
    inverse,
    inversions,
    length,
    order,
    reduced_word,
    sign,
)
from helpers import compose as oracle_compose
from hypothesis import given, settings
from hypothesis import strategies as st

import shortroots.weyl as weyl_module
from shortroots import (
    RootSystem,
    build,
    check_coxeter_power,
    compose,
    coxeter_element,
    coxeter_orbits,
    decompose_semidirect,
    from_cartan,
    identity,
    is_in_long_subgroup,
    long_root_base,
    long_subgroup,
    reflection,
    reflection_subgroup_order,
    short_parabolic,
    simple_reflection,
    strip_reflections,
)
from shortroots.checks import _coxeter_sample, _short_base, run_check


def test_reflection_is_an_involution():
    rs = build("F4")
    for r in [rs.theta, rs.theta_short, rs.simple_root(1)]:
        w = reflection(rs, r)
        assert compose(w, w) == identity(rs)
        assert act_root(rs, w, r) == -r


@pytest.mark.parametrize("name", ["G2", "B3", "C4"])
def test_elements_are_bare_tuples(name):
    # a Weyl element is its tuple of root indices, with no class around it
    rs = build(name)
    returned = [coxeter_element(rs), coxeter_element(rs, range(rs.rank)[::-1]),
                *long_subgroup(rs), *short_parabolic(rs), reflection(rs, rs.theta)]
    for w in enumerate_group(rs):
        factors = decompose_semidirect(rs, w)
        returned += [factors, *factors]
    assert all(type(w) is tuple for w in returned)
    assert not [obj for obj in vars(weyl_module).values()
                if isinstance(obj, type) and obj.__module__ == weyl_module.__name__]


def test_reflection_fixes_orthogonal_roots():
    rs = build("B2")
    e1 = rs.roots[rs.index((1, 1))]   # epsilon_1
    e2 = rs.roots[rs.index((0, 1))]   # epsilon_2
    assert rs.inner(e1, e2) == 0
    assert act_root(rs, reflection(rs, e1), e2) == e2


def test_reflection_rejects_non_roots():
    rs = build("G2")
    with pytest.raises(ValueError):
        reflection(rs, (1, 2))


def test_length_and_inversions():
    rs = build("G2")
    e = identity(rs)
    assert length(rs, e) == 0 and inversions(rs, e) == ()
    for i in range(rs.rank):
        s = simple_reflection(rs, i)
        assert length(rs, s) == 1
        assert inversions(rs, s) == (rs.simple_root(i),)
    longest = max(enumerate_group(rs), key=lambda w: length(rs, w))
    assert length(rs, longest) == rs.num_positive == 6


@pytest.mark.parametrize("name,order", [("A1", 2), ("G2", 12), ("B3", 48), ("F4", 1152)])
def test_enumeration(name, order):
    rs = build(name)
    group = enumerate_group(rs)
    assert len(group) == len(set(group)) == order == rs.weyl_order
    lengths = [length(rs, w) for w in group]
    assert lengths == sorted(lengths)  # breadth-first order is by length
    for w, k in zip(group, lengths):
        word = reduced_word(rs, w)
        assert len(word) == k
        composed = identity(rs)
        for i in word:
            composed = compose(composed, simple_reflection(rs, i))
        assert composed == w


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4"])
def test_coxeter_element_order_is_h(name):
    rs = build(name)
    orderings = [tuple(range(rs.rank)), tuple(reversed(range(rs.rank)))]
    random.Random(7).shuffle(shuffled := list(range(rs.rank)))
    orderings.append(tuple(shuffled))
    for ordering in orderings:
        assert order(rs, coxeter_element(rs, ordering)) == rs.coxeter_number


def test_coxeter_element_rejects_bad_orderings():
    rs = build("B3")
    with pytest.raises(ValueError):
        coxeter_element(rs, (0, 0, 1))


@pytest.mark.parametrize("name,ordering", [
    ("B3", (0.0, 1.0, 2.0)), ("B3", (False, True, 2)), ("C4", (0.0, 1, 2, 3)),
])
def test_coxeter_element_refuses_an_ordering_that_is_not_of_ints(name, ordering):
    # 0.0 and False equal 0 and hash alike, so a memoised reflection would
    # answer them; on a fresh system a float died indexing the roots
    rs = build(name)
    if name == "B3":
        coxeter_element(rs)
    else:
        rs = RootSystem(rs.spec, rs.nodes)
    message = f"^an order of the nodes is a tuple of ints, not {re.escape(repr(ordering))}$"
    with pytest.raises(TypeError, match=message):
        coxeter_element(rs, ordering)


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
    assert {g2.roots[k].coeffs for k in long_root_base(g2)} == {(0, 1), (3, 1)}
    b2 = build("B2")
    assert {b2.roots[k].coeffs for k in long_root_base(b2)} == {(1, 0), (1, 2)}
    f4 = build("F4")
    assert len(long_root_base(f4)) == 4  # long subsystem has full rank
    for rs in (g2, b2, f4):
        assert all(k in rs.long_positives for k in long_root_base(rs))


def test_decompose_trivial_cases():
    rs = build("C3")
    e = identity(rs)
    ws, wl = decompose_semidirect(rs, e)
    assert ws == e and wl == e
    r_long = reflection(rs, rs.theta)
    ws, wl = decompose_semidirect(rs, r_long)
    assert ws == e and wl == r_long
    r_short = simple_reflection(rs, 0)
    ws, wl = decompose_semidirect(rs, r_short)
    assert ws == r_short and wl == e


def test_decompose_rejects_simply_laced():
    from shortroots import UnsupportedRootSystem

    rs = build("A3")
    with pytest.raises(UnsupportedRootSystem):
        decompose_semidirect(rs, identity(rs))


def test_a_tuple_that_is_not_in_w_is_refused_by_the_long_descent():
    # a permutation that swaps a long simple root b with the negative of a
    # short root sends both b and -b negative: stripping r_b leaves b
    # negative, and a second strip gives the tuple back, so an uncounted
    # descent would never end
    rs = build("C4")
    b = long_root_base(rs)[0]
    minus_c = rs.short_positives[0] + rs.num_positive
    stuck = list(identity(rs))
    stuck[b], stuck[minus_c] = minus_c, b
    refusal = "^not in W\\(C4\\): more reflection strips than positive roots$"
    for call in (decompose_semidirect, is_in_long_subgroup):
        with pytest.raises(ValueError, match=refusal):
            call(rs, tuple(stuck))


@pytest.mark.parametrize("call", [decompose_semidirect, is_in_long_subgroup, coxeter_orbits,
                                  check_coxeter_power], ids=lambda f: f.__name__)
def test_a_tuple_of_the_wrong_length_is_refused(call):
    rs = build("C4")
    for w in (identity(rs)[:-1], identity(rs) + (0,)):
        with pytest.raises(ValueError, match=f"^not in W\\(C4\\): {len(w)} entries for 32 roots$"):
            call(rs, w)
    # the right length, with an entry that is no root index
    for w in ((32,) * 32, (-1,) * 32, identity(rs)[:-1] + (32,), (-1,) + identity(rs)[1:]):
        with pytest.raises(ValueError, match="^not in W\\(C4\\): an entry outside 0 to 31$"):
            call(rs, w)


@pytest.mark.parametrize("call", [decompose_semidirect, is_in_long_subgroup, coxeter_orbits,
                                  check_coxeter_power], ids=lambda f: f.__name__)
def test_a_tuple_that_is_not_a_permutation_is_refused(call):
    # every entry a root index, but one repeats: (0,) * 32 was answered as
    # its own short factor, and a cycle walk from root 1 would never return
    rs = build("C4")
    for w in ((0,) * 32, (rs.num_positive,) * 32, identity(rs)[:-1] + (0,)):
        with pytest.raises(ValueError, match="^not in W\\(C4\\): an entry repeats, so it is no "
                                             "permutation$"):
            call(rs, w)


@pytest.mark.parametrize("call", [decompose_semidirect, is_in_long_subgroup, coxeter_orbits,
                                  check_coxeter_power], ids=lambda f: f.__name__)
def test_an_element_that_is_not_a_tuple_of_ints_is_refused(call):
    # a list of the identity was answered as no member of W_l, where the
    # tuple is one; a tuple of floats or of a bool equal to a member was
    # answered as that member
    rs = build("C3")
    e = identity(rs)
    for w in (list(e), tuple(map(float, reflection(rs, rs.theta))), (0, True) + e[2:]):
        message = f"^a Weyl element is a tuple of int root indices, not {re.escape(repr(w))}$"
        with pytest.raises(TypeError, match=message):
            call(rs, w)


@pytest.mark.parametrize("entry", [-1, 9, 17, True, 1.0])
def test_a_base_entry_that_is_no_positive_root_index_is_refused(entry):
    # -1 stripped by the reflection in theta (root p - 1) while the descent
    # tested root 17, a negative root; [-1] had subgroup order 2.  The first
    # base entry, simple root 0, would strip s_0 at once: the whole base is
    # checked before any strip
    rs = build("C3")
    base = [rs.index(rs.simple_root(0)), entry]
    if type(entry) is int:
        error = ValueError
        message = f"^a base takes positive roots of C3, whose indices run from 0 to 8, not {entry}$"
    else:
        error, message = TypeError, f"^a base takes int root indices, not {entry!r}$"
    with pytest.raises(error, match=message):
        strip_reflections(rs, simple_reflection(rs, 0), base)
    with pytest.raises(error, match=message):
        reflection_subgroup_order(rs, base)


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
    for w in group:
        ws, wl = decompose_semidirect(rs, w)
        assert compose(ws, wl) == w
        assert ws in w_s and wl in w_l
        assert all(ws[i] < p for i in rs.long_positives)  # ws keeps long positives positive
        assert is_in_long_subgroup(rs, w) == (ws == identity(rs))
        pairs.add((ws, wl))
    assert len(pairs) == len(group)


def test_long_subgroup_is_normal_in_small_groups():
    for name in ["G2", "B3"]:
        rs = build(name)
        w_l = closure(rs, long_subgroup(rs))
        for i in range(rs.rank):
            g = simple_reflection(rs, i)
            gi = g   # a simple reflection is an involution
            assert compose(g, gi) == identity(rs)
            for k in rs.long_positives:
                assert compose(compose(g, reflection(rs, rs.roots[k])), gi) in w_l


def test_stability_characterises_the_short_parabolic():
    rs = build("B3")
    group = enumerate_group(rs)
    w_s = closure(rs, short_parabolic(rs))
    p = rs.num_positive
    stable = {w for w in group if all(w[i] < p for i in rs.long_positives)}
    assert stable == set(w_s)


def test_membership_in_long_subgroup():
    rs = build("F4")
    assert is_in_long_subgroup(rs, reflection(rs, rs.theta))
    assert not is_in_long_subgroup(rs, simple_reflection(rs, rs.short_simple_indices[0]))


def test_decompose_sampled_large_rank():
    rs = build("B5")
    w_l = closure(rs, long_subgroup(rs))   # type D5, order 1920
    assert len(w_l) == 1920
    w_s = closure(rs, short_parabolic(rs))
    assert len(w_s) == 2
    rng = random.Random(20120523)
    p = rs.num_positive
    for _ in range(60):
        w = identity(rs)
        for _ in range(rng.randrange(1, 25)):
            w = compose(w, simple_reflection(rs, rng.randrange(rs.rank)))
        ws, wl = decompose_semidirect(rs, w)
        assert compose(ws, wl) == w
        assert wl in w_l and ws in w_s
        assert all(ws[i] < p for i in rs.long_positives)


@lru_cache(maxsize=None)
def _long_closure(name):
    return closure(build(name), long_subgroup(build(name)))   # B5's is type D5, of order 1920


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["B5", "C5"]), st.lists(st.integers(0, 4), max_size=30))
def test_decompose_semidirect_against_closure_membership(name, word):
    rs = build(name)
    w = identity(rs)
    for i in word:
        w = compose(w, simple_reflection(rs, i))
    ws, wl = decompose_semidirect(rs, w)
    # ws keeps every positive long root positive
    assert all(ws[i] < rs.num_positive for i in rs.long_positives)
    assert wl in _long_closure(name)
    assert compose(ws, wl) == w


def test_weight_action_matches_root_action():
    # W acts on roots only; the oracle's action on weights, built from the
    # images of the simple roots, is linear over the root permutation
    rs = build("F4")
    w = coxeter_element(rs, (2, 0, 3, 1))
    for r in rs.positive_roots()[: 8]:
        assert act_fund(rs, w, rs.weight_coords(r)) == rs.weight_coords(act_root(rs, w, r))


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]
)
def test_weight_action_matches_fraction_oracle(name):
    # dominant descent, the library's only way of moving a weight, undoes every
    # element of W on the regular weight rho, with the determinant of w as sign
    rs = build(name)
    rho = (1,) * rs.rank
    for w in enumerate_group(rs):
        assert dominant_representative(rs, act_fund(rs, w, rho)) == (rho, sign(rs, w))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=12))
def test_word_length_properties(word):
    rs = build("B3")
    w = identity(rs)
    for i in word:
        w = compose(w, simple_reflection(rs, i))
    k = length(rs, w)
    assert k <= len(word)
    assert (k - len(word)) % 2 == 0
    assert k == len(inversions(rs, w))
    assert sign(rs, w) == (-1) ** len(word)


# -- the permutation kernels against one-index-at-a-time composition ----------

ORACLE_SYSTEMS = ["B3", "C4", "F4", "G2"]


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_coxeter_element_is_the_oracle_product(name):
    rs = build(name)
    for ordering in itertools.permutations(range(rs.rank)):
        perm = identity(rs)
        for i in ordering:
            perm = oracle_compose(perm, simple_reflection(rs, i))
        assert coxeter_element(rs, ordering) == perm


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_powers_inverse_and_identity_agree_with_the_oracle(name):
    # weyl.compose against one-index-at-a-time composition: on powers of w
    # and of its inverse, and on w times its inverse, which is the identity
    rs = build(name)
    h = rs.coxeter_number
    e = tuple(range(len(rs.roots)))
    assert identity(rs) == e
    group = enumerate_group(rs)
    sample = list(group[:: max(1, len(group) // 40)])
    sample += [coxeter_element(rs, o) for o in itertools.permutations(range(rs.rank))]
    for w in sample:
        inv = inverse(w)
        assert compose(w, inv) == compose(inv, w) == e
        for base in (w, inv):
            power = oracle = e
            for _ in range(h + 1):
                assert power == oracle
                power, oracle = compose(power, base), oracle_compose(oracle, base)


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_decompose_round_trips_on_every_element(name):
    rs = build(name)
    w_l = closure(rs, long_subgroup(rs))
    p = rs.num_positive
    for w in enumerate_group(rs):
        ws, wl = decompose_semidirect(rs, w)
        assert oracle_compose(ws, wl) == w
        assert all(ws[i] < p for i in rs.long_positives)
        assert wl in w_l


@pytest.mark.parametrize("name", ["G2", "B2", "B3", "B4", "C3", "C4", "F4"])
def test_semidirect_orders_match_the_enumerated_groups(name):
    # the runner reads the three orders off Cartan types; the oracle lists
    # each group element by element
    rs = build(name)
    status, details = run_check("semidirect-product", rs)
    assert status == "pass"
    assert details["weyl_order"] == len(enumerate_group(rs))
    assert details["long_subgroup_order"] == len(closure(rs, long_subgroup(rs)))
    assert details["short_parabolic_order"] == len(closure(rs, short_parabolic(rs)))


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "F4"])
def test_descent_decides_membership_in_each_factor(name):
    rs = build(name)
    short_base = [rs.index(rs.simple_root(i)) for i in rs.short_simple_indices]
    factors = [(short_base, short_parabolic(rs)), (long_root_base(rs), long_subgroup(rs))]
    for base, gens in factors:
        members = closure(rs, gens)
        for w in enumerate_group(rs):
            rest = strip_reflections(rs, w, base)
            assert (rest == identity(rs)) == (w in members)
            # the stripped reflections' product, read back as rest^-1 * w
            product = oracle_compose(inverse(rest), w)
            assert product in members and strip_reflections(rs, product, base) == identity(rs)


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "F4"])
def test_the_long_base_is_read_as_it_is_returned(name):
    # the order and the descent take long_root_base's root indices with no
    # conversion: the order is the listed group's, and the descent strips
    # each of its elements down to the identity
    rs = build(name)
    base = long_root_base(rs)
    members = _long_closure(name)
    assert weyl_module.reflection_subgroup_order(rs, base) == len(members)
    assert all(strip_reflections(rs, w, base) == identity(rs) for w in members)


# -- the descent on large and relabelled systems, the long base against all pairs


def _factors_the_coxeter_sample(rs):
    """Each Coxeter element w of the sample, through the short base and the
    long base: the rest sends no base root negative, and rest^-1 * w, the
    product of the stripped reflections, is a member, whose own descent
    leaves the identity."""
    p = rs.num_positive
    for base in (_short_base(rs), long_root_base(rs)):
        for w, _ in _coxeter_sample(rs)[1]:
            rest = strip_reflections(rs, w, base)
            assert all(rest[k] < p for k in base)
            assert strip_reflections(rs, oracle_compose(inverse(rest), w), base) == identity(rs)


@pytest.mark.parametrize("name", ["B6", "C6", "B12", "C10"])
def test_descent_factors_the_coxeter_sample(name):
    _factors_the_coxeter_sample(build(name))


def _relabelled(name):
    """from_cartan of name's Cartan matrix with its nodes reordered: the
    positive roots still run by height, in another numbering of the nodes."""
    bourbaki = build(name)
    order = list(range(bourbaki.rank))
    random.Random(52).shuffle(order)
    order = order if order != sorted(order) else order[::-1]
    return from_cartan([[bourbaki.cartan[i][j] for j in order] for i in order])


RELABELLED = ["G2", "B4", "C4", "F4", "B7", "C7"]


@pytest.mark.parametrize("name", RELABELLED)
def test_descent_factors_the_coxeter_sample_of_a_relabelled_matrix(name):
    bourbaki = build(name)
    rs = _relabelled(name)
    assert rs.nodes != bourbaki.nodes
    _factors_the_coxeter_sample(rs)
    assert long_root_base(rs) == all_pairs_long_base(rs)
    # the same long roots, read back in Bourbaki's numbering
    assert ({tuple(rs.roots[k].coeffs[node] for node in rs.nodes) for k in long_root_base(rs)}
            == {bourbaki.roots[k].coeffs for k in long_root_base(bourbaki)})


@pytest.mark.parametrize("name,relabel", [(name, False) for name in ["B6", "C6", "B12", "C10"]]
                         + [(name, True) for name in RELABELLED])
def test_membership_agrees_with_the_short_factor(name, relabel):
    # is_in_long_subgroup strips through the long base itself, and
    # decompose_semidirect reads its product back: two code paths, asked of
    # each Coxeter element and of its two factors, so both answers occur
    rs = _relabelled(name) if relabel else build(name)
    answers = set()
    for w, _ in _coxeter_sample(rs)[1]:
        for v in (w, *decompose_semidirect(rs, w)):
            answers.add(member := is_in_long_subgroup(rs, v))
            assert member == (decompose_semidirect(rs, v)[0] == identity(rs))
    assert answers == {False, True}


@pytest.mark.parametrize("name", ["A3", "G2", "B3", "C4"])
def test_the_longest_element_takes_one_strip_per_positive_root(name):
    # the whole simple system is a base of the root system itself, and the
    # longest element sends every positive root negative: its descent takes
    # p strips, the most a member can need, which the strip bound must allow
    rs = build(name)
    simple = [rs.index(rs.simple_root(i)) for i in range(rs.rank)]
    w0 = max(enumerate_group(rs), key=lambda w: length(rs, w))
    assert length(rs, w0) == rs.num_positive
    assert strip_reflections(rs, w0, simple) == identity(rs)   # so the product is w0


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "F4", "B20", "C20", "B30", "C30"])
def test_the_long_root_base_agrees_with_all_pairs(name):
    rs = build(name)
    assert long_root_base(rs) == all_pairs_long_base(rs)
    assert len(long_root_base(rs)) == rs.rank


def test_a_root_and_its_negative_share_one_reflection():
    rs = build("C4")
    p = rs.num_positive
    for k in range(p):
        assert reflection(rs, rs.roots[k + p]) is reflection(rs, rs.roots[k])


@pytest.mark.parametrize(
    "wrong",
    [lambda rs, w: (w, identity(rs)), lambda rs, w: tuple(reversed(decompose_semidirect(rs, w)))],
    ids=["all-in-short-factor", "swapped-factors"],
)
def test_semidirect_check_rejects_wrong_factors(monkeypatch, wrong):
    # membership in W_l strips with no factorisation, so the normality step
    # passes and a wrong one fails the one step that reads it: the round trip
    rs = build("C4")
    assert run_check("semidirect-product", rs)[0] == "pass"
    monkeypatch.setattr(weyl_module, "decompose_semidirect", wrong)
    status, details = run_check("semidirect-product", rs)
    assert status == "fail"
    assert details["normal"] is True
    assert details["roundtrip"] == "violated"


# each from the right factors ws, wl of w: the factors swapped; a long
# reflection r moved across, so that only the short factor (ws r) leaves
# its subgroup; all of w in the long factor, so that only that one does;
# the long factor dropped, so that only the product is wrong
_WRONG_ROUND_TRIPS = {
    "swapped": lambda rs, w, ws, wl: (wl, ws),
    "short-factor": lambda rs, w, ws, wl: (compose(ws, long_subgroup(rs)[0]),
                                           compose(long_subgroup(rs)[0], wl)),
    "long-factor": lambda rs, w, ws, wl: (identity(rs), w),
    "product": lambda rs, w, ws, wl: (ws, identity(rs)),
}


# the keys each step of the check sets: its failure key and what it adds on passing
_SEMIDIRECT_STEPS = [
    {"product_order"},
    {"stable_set", "intersection_order", "stable_set_matches_parabolic"},
    {"normality", "normal"},
    {"roundtrip", "distinct_factor_pairs"},
]


@pytest.mark.parametrize(
    "patch, branch",
    [
        (lambda monkeypatch, rs: monkeypatch.setattr(rs, "weyl_order", 383),
         {"product_order": 384}),
        (lambda monkeypatch, rs: monkeypatch.setattr(rs, "num_positive", 0),
         {"stable_set": "violated", "generator": 0}),
        (lambda monkeypatch, rs: monkeypatch.setattr(
            weyl_module, "is_in_long_subgroup", lambda rs, w: False),
         {"normality": "violated", "generator": 0}),
    ] + [
        (lambda monkeypatch, rs, wrong=wrong: monkeypatch.setattr(
            weyl_module, "decompose_semidirect",
            lambda rs, w: wrong(rs, w, *decompose_semidirect(rs, w))),
         {"roundtrip": "violated"})
        for wrong in _WRONG_ROUND_TRIPS.values()
    ],
    ids=["product-order", "stable-set", "normality"]
    + [f"roundtrip-{name}" for name in _WRONG_ROUND_TRIPS],
)
def test_semidirect_check_fails_at_each_of_its_steps(monkeypatch, patch, branch):
    rs = build("C4")
    patch(monkeypatch, rs)
    status, details = run_check("semidirect-product", rs)
    assert status == "fail"
    assert {k: details[k] for k in branch} == branch
    step = next(n for n, keys in enumerate(_SEMIDIRECT_STEPS) if keys & set(branch))
    assert set().union(*_SEMIDIRECT_STEPS[step + 1:]).isdisjoint(details)


@pytest.mark.parametrize("index", [-1, 4, 9])
def test_simple_roots_refuse_an_index_outside_the_rank(index):
    rs = build("C4")
    message = f"^C4 has no simple root {index}; its indices run from 0 to 3$"
    with pytest.raises(ValueError, match=message):
        rs.simple_root(index)
    with pytest.raises(ValueError, match=message):
        simple_reflection(rs, index)


@pytest.mark.parametrize("index", [True, 1.0])
def test_simple_roots_refuse_an_index_that_is_not_an_int(index):
    # True equals 1, so a range check alone answered simple root 1
    rs = build("B3")
    message = f"^a simple root takes an int index, not {index!r}$"
    with pytest.raises(TypeError, match=message):
        rs.simple_root(index)
    with pytest.raises(TypeError, match=message):
        simple_reflection(rs, index)
