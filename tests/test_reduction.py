"""Simple reductions, kernel-class combinatorics and the summary registry."""

import itertools
import random

import pytest
from helpers import closure, one_step_oracle

import shortroots.checks as checks
import shortroots.reduction as reduction
import shortroots.weyl as weyl
from shortroots import (
    IdentityViolation,
    RootSystem,
    RootSystemSpec,
    UnsupportedRootSystem,
    build,
    check_coxeter_power,
    dimension_ledger,
    from_cartan,
    hyperplane_classes,
    one_step_strings,
    orbit_count,
    partition_count,
    short_parabolic,
    simple_reduction,
    summary_row,
    transition_identities,
)
from shortroots.gradedchar import invariant_degrees


@pytest.mark.parametrize(
    "name,sub,h_s,factor",
    [("C4", ("A", 3), 4, 2), ("F4", ("A", 2), 3, 4), ("G2", ("A", 1), 2, 3),
     ("B5", ("A", 1), 2, 5), ("C2", ("A", 1), 2, 2), ("B2", ("A", 1), 2, 2)],
)
def test_simple_reduction(name, sub, h_s, factor):
    rs = build(name)
    red = simple_reduction(rs)
    assert red.sub_spec == RootSystemSpec(*sub)
    assert red.sub_coxeter_number == h_s
    assert red.transition_factor == factor
    assert len(red.subsystem) == red.sub_spec.rank * h_s
    assert red.transition_factor * h_s == rs.coxeter_number


@pytest.mark.parametrize("name", ["G2", "B3", "C4", "F4", "B6", "C6"])
def test_subsystem_is_held_by_root_indices(name):
    rs = build(name)
    subsystem = simple_reduction(rs).subsystem
    p = rs.num_positive
    assert type(subsystem) is tuple and all(type(k) is int for k in subsystem)
    assert {(k + p) % (2 * p) for k in subsystem} == set(subsystem)
    shorts = set(rs.short_simple_indices)
    supported = [k for k, r in enumerate(rs.roots)
                 if all(i in shorts for i, c in enumerate(r.coeffs) if c)]
    assert list(subsystem) == supported


def test_subsystem_is_a_proper_short_subset():
    for name in ["B3", "C4", "F4", "G2"]:
        rs = build(name)
        red = simple_reduction(rs)
        shorts = {k for k, r in enumerate(rs.roots) if r.is_short}
        assert set(red.subsystem) < shorts


def test_simple_reduction_rejects_simply_laced():
    with pytest.raises(UnsupportedRootSystem):
        simple_reduction(build("D4"))


@pytest.mark.parametrize(
    "name,triple",
    [("C3", (2, 2, 2)), ("G2", (3, 3, 3)), ("F4", (4, 4, 4)), ("B4", (4, 4, 4)),
     ("B6", (6, 6, 6)), ("C6", (2, 2, 2))],
)
def test_transition_identities(name, triple):
    t = transition_identities(build(name))
    assert (t.factor, t.coxeter_gap, t.height_gap) == triple


@pytest.mark.parametrize("name", ["G2", "F4"])
def test_coxeter_power_all_orderings(name):
    rs = build(name)
    for ordering in itertools.permutations(range(rs.rank)):
        assert check_coxeter_power(rs, weyl.coxeter_element(rs, ordering))


@pytest.mark.parametrize(
    "name,count",
    [("B2", 1), ("B5", 1), ("C3", 3), ("C4", 6), ("F4", 3), ("G2", 1)],
)
def test_hyperplane_class_counts(name, count):
    rs = build(name)
    classes = hyperplane_classes(rs)
    assert len(classes.classes) == count
    # classes partition the short positives
    seen = [r for g in classes.classes for r in g]
    assert sorted(r.coeffs for r in seen) == sorted(
        r.coeffs for r in rs.short_positive_roots()
    )
    red = simple_reduction(rs)
    sub_pos = {k for k in red.subsystem if k < rs.num_positive}
    assert {rs.index(r) for r in classes.representatives} == sub_pos


@pytest.mark.parametrize("name", [f"B{n}" for n in range(2, 9)]
                         + [f"C{n}" for n in range(2, 11)] + ["F4", "G2"])
def test_hyperplane_classes_join_the_roots_a_long_root_apart(name):
    # the definition: two short positive roots share a class when their
    # difference or their sum is a long root; closed here by merging
    rs = build(name)
    longs = {r.coeffs for r in rs.roots if not r.is_short}
    groups = [{r.coeffs} for r in rs.short_positive_roots()]
    merged = True
    while merged:
        merged = False
        for a, b in itertools.combinations(range(len(groups)), 2):
            if any(tuple(x - y for x, y in zip(u, v)) in longs
                   or tuple(x + y for x, y in zip(u, v)) in longs
                   for u in groups[a] for v in groups[b]):
                groups[a] |= groups.pop(b)
                merged = True
                break
    classes = hyperplane_classes(rs).classes
    assert {frozenset(r.coeffs for r in g) for g in classes} == set(map(frozenset, groups))


@pytest.mark.parametrize("name", ["F4", "G2"])
def test_hyperplane_classes_need_every_long_generator(monkeypatch, name):
    # W_l without any one of its generators splits a class of F4 and of G2,
    # and a split class holds no subsystem representative
    gens = weyl.long_subgroup(build(name))
    for drop in range(len(gens)):
        monkeypatch.setattr(weyl, "long_subgroup", lambda rs: gens[:drop] + gens[drop + 1:])
        status, details = checks.run_check("hyperplane-classes",
                                           RootSystem(build(name).spec, build(name).nodes))
        assert status == "fail"
        assert "holds 0 subsystem representatives" in details["violation"]


@pytest.mark.parametrize("name,nodes", [("G2", (1, 0)), ("B3", (2, 0, 1)), ("C4", (3, 1, 0, 2)),
                                        ("F4", (3, 1, 0, 2)), ("B5", (4, 2, 0, 1, 3))])
def test_classes_and_strings_list_their_roots_alike_in_any_node_order(name, nodes):
    # read back in Bourbaki's numbering, a relabelled system's classes,
    # representatives and one-step strings come in the Bourbaki build's
    # order, not in an order its own numbering breaks ties by
    rs = RootSystem(build(name).spec, nodes)

    def back(root):
        return tuple(root.coeffs[node] for node in nodes)

    def read(rs, back):
        classes = hyperplane_classes(rs)
        strings = one_step_strings(rs)
        return ([[back(r) for r in cls] for cls in classes.classes],
                [back(r) for r in classes.representatives],
                [(back(g), [(back(b), back(m)) for b, m in e.pairs]) for g, e in strings.items()])

    assert read(rs, back) == read(build(name), lambda root: root.coeffs)


def test_one_step_strings_in_type_c():
    rs = build("C3")
    strings = one_step_strings(rs)
    # e1 + e2 decomposes through 2 e2 only, among positive targets
    gamma = rs.roots[rs.index((1, 2, 1))]
    entry = strings[gamma]
    assert [b.coeffs for b in entry.positive_target_steps] == [(0, 2, 1)]
    assert entry.sole


def test_one_step_strings_in_type_b():
    rs = build("B3")
    strings = one_step_strings(rs)
    gamma = rs.roots[rs.index((1, 1, 1))]  # e1
    entry = strings[gamma]
    assert (1, 1, 0) in {b.coeffs for b, _ in entry.pairs}  # e1 - e3
    assert [b.coeffs for b in entry.positive_target_steps] == [(1, 1, 0)]
    assert entry.sole


def test_one_step_strings_in_g2():
    rs = build("G2")
    strings = one_step_strings(rs)
    by_coeffs = {g.coeffs: e for g, e in strings.items()}
    assert set(by_coeffs) == {(1, 1), (2, 1)}
    assert [(b.coeffs, m.coeffs) for b, m in by_coeffs[(1, 1)].pairs] == [((0, 1), (1, 0))]
    # the short dominant root only reaches the subsystem through a negative target
    assert [(b.coeffs, m.coeffs) for b, m in by_coeffs[(2, 1)].pairs] == [((3, 1), (-1, 0))]
    assert by_coeffs[(2, 1)].positive_target_steps == ()
    assert all(e.sole for e in strings.values())


@pytest.mark.parametrize("name", ["B4", "C4", "F4", "G2", "B6", "C6", "C8"])
def test_one_step_strings_nonempty_and_sole(name):
    # README's convention: the long step is unique for each sign of the target
    strings = one_step_strings(build(name))
    assert strings  # there is always something outside the subsystem
    for entry in strings.values():
        assert entry.pairs
        assert entry.sole
        assert len(entry.positive_target_steps) <= 1
        assert sum(1 for _, mu in entry.pairs if not mu.is_positive) <= 1


@pytest.mark.parametrize("name,nodes",
                         [(name, None) for name in ["G2", "B3", "C4", "F4", "B6", "C6"]]
                         + [("C4", (2, 0, 3, 1)), ("F4", (3, 1, 0, 2))])
def test_one_step_strings_match_the_brute_force(name, nodes):
    rs = build(name) if nodes is None else RootSystem(build(name).spec, nodes)
    strings = one_step_strings(rs)
    oracle = one_step_oracle(rs)
    assert list(strings) == list(oracle)
    for gamma, pairs in oracle.items():
        entry = strings[gamma]
        assert list(entry.pairs) == pairs
        assert list(entry.positive_target_steps) == [b for b, mu in pairs if mu.is_positive]
        targets = list(dict.fromkeys(mu if mu.is_positive else -mu for _, mu in pairs))
        assert list(entry.target_classes) == targets
        assert entry.sole == (len(targets) == 1)


def test_one_step_strings_look_up_each_subsystem_and_long_pair_once():
    class CountingIndex(dict):
        gets = 0

        def get(self, key, default=None):
            self.gets += 1
            return super().get(key, default)

    rs = RootSystem(build("C12").spec, build("C12").nodes)
    simple_reduction(rs)
    rs.root_index = index = CountingIndex(rs.root_index)
    one_step_strings(rs)
    # 132 roots of the A11 subsystem times 24 long roots
    assert index.gets == 132 * 24 == 3168


@pytest.mark.parametrize(
    "name,dims,ratio",
    [("G2", (7, 6, 3, 2), 3), ("C3", (14, 12, 8, 6), 2), ("F4", (26, 24, 8, 6), 4),
     ("B4", (9, 8, 3, 2), 4)],
)
def test_dimension_ledger(name, dims, ratio):
    ledger = dimension_ledger(build(name))
    got = (
        ledger.module_dim,
        ledger.module_nullcone_dim,
        ledger.reduction_dim,
        ledger.reduction_nullcone_dim,
    )
    assert got == dims
    assert ledger.transition_factor == ratio


def test_partition_count():
    assert [partition_count(n) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    with pytest.raises(ValueError):
        partition_count(-1)


def test_orbit_counts():
    assert orbit_count(build("C4")) == 5
    assert orbit_count(build("C6")) == 11
    assert orbit_count(build("F4")) == 3
    assert orbit_count(build("B5")) == 2
    assert orbit_count(build("G2")) == 2


ORBIT_REGISTRY_SYSTEMS = ([f"B{n}" for n in range(2, 10)] + [f"C{n}" for n in range(2, 13)]
                          + ["F4", "G2"])


@pytest.mark.parametrize("name", ORBIT_REGISTRY_SYSTEMS)
def test_orbit_count_is_derived_to_the_registry_value(name):
    rs = build(name)
    assert orbit_count(rs) == checks._REGISTRY[rs.spec.family](rs.rank)[-1]


@pytest.mark.parametrize("name", ["B3", "C4", "F4", "G2"])
def test_table_row_compares_the_derived_orbit_count(monkeypatch, name):
    monkeypatch.setattr(reduction, "partition_count", lambda n: 0)
    status, details = checks.run_check("table-row", build(name))
    assert status == "fail"
    assert details["computed"]["orbit_count"] == 0
    assert details["registry"]["orbit_count"] > 0


@pytest.mark.parametrize("name, orbits", [("C2", 2), ("C4", 5), ("C6", 11)])
def test_table_row_c_orbits_survive_a_broken_partition_helper(monkeypatch, name, orbits):
    # the body, not the module attribute: a registry that held the helper
    # itself would go wrong together with the derived count
    monkeypatch.setattr(reduction.partition_count, "__code__", (lambda n: 0).__code__)
    status, details = checks.run_check("table-row", build(name))
    assert status == "fail"
    assert details["computed"]["orbit_count"] == 0
    assert details["registry"]["orbit_count"] == orbits


def test_orderings_sample_above_rank_four():
    rs = build("B6")
    orderings = checks._orderings(rs)
    assert len(orderings) == 200
    assert all(sorted(o) == list(range(6)) for o in orderings)
    assert checks._orderings(rs) == orderings


@pytest.mark.parametrize("name,distinct", [("B6", 30), ("E8", 77)])
def test_coxeter_orbits_are_walked_once_per_distinct_element(monkeypatch, name, distinct):
    rs = build(name)
    assert len({weyl.coxeter_element(rs, o) for o in checks._orderings(rs)}) == distinct
    calls = []
    walk = weyl.coxeter_orbits

    def counting(rs, c):
        calls.append(c)
        return walk(rs, c)

    monkeypatch.setattr(weyl, "coxeter_orbits", counting)
    status, details = checks.run_check("coxeter-orbits", rs)
    assert status == "pass"
    assert details["orderings_tested"] == 200
    assert len(calls) == len(set(calls)) == distinct


def test_coxeter_power_is_tested_once_per_distinct_element(monkeypatch):
    rs = build("C6")
    tested = []
    power = reduction.check_coxeter_power

    def counting(rs, c):
        tested.append(c)
        return power(rs, c)

    monkeypatch.setattr(reduction, "check_coxeter_power", counting)
    assert checks.run_check("coxeter-power", rs)[0] == "pass"
    assert len(tested) == len(set(tested)) == 30


def _first_repeated_element(rs):
    """A Coxeter element that the sample yields again after another one,
    and the first ordering that yields it."""
    orderings = checks._orderings(rs)
    elements = [weyl.coxeter_element(rs, o) for o in orderings]
    for i, c in enumerate(elements):
        if i > 0 and c != elements[0] and elements.count(c) > 1:
            return c, orderings[i]
    raise AssertionError("every element of the sample is distinct")


def test_coxeter_orbits_report_the_first_ordering_of_a_failing_element(monkeypatch):
    rs = build("B6")
    bad, first = _first_repeated_element(rs)
    walk = weyl.coxeter_orbits
    monkeypatch.setattr(weyl, "coxeter_orbits",
                        lambda rs, c: walk(rs, c)[:-1] + [(0,)] if c == bad else walk(rs, c))
    status, details = checks.run_check("coxeter-orbits", rs)
    assert status == "fail"
    assert details["ordering"] == list(first)
    assert details["orbit_sizes"][0] == 1


def test_coxeter_orbits_report_a_wrong_count_of_short_orbits(monkeypatch):
    # every orbit keeps the Coxeter number, so only the short-orbit count fails
    rs = build("F4")
    walk = weyl.coxeter_orbits
    monkeypatch.setattr(weyl, "coxeter_orbits",
                        lambda rs, c: [o for o in walk(rs, c) if not rs.roots[o[0]].is_short])
    status, details = checks.run_check("coxeter-orbits", rs)
    assert status == "fail"
    assert details == {"orderings_tested": 24, "coxeter_number": 12, "expected_short_orbits": 2,
                       "ordering": list(checks._orderings(rs)[0]), "short_orbits": 0}


def test_coxeter_power_reports_the_first_ordering_of_a_failing_element(monkeypatch):
    rs = build("C6")
    bad, first = _first_repeated_element(rs)
    tested = []
    power = reduction.check_coxeter_power

    def failing(rs, c):
        tested.append(c)
        return c != bad and power(rs, c)

    monkeypatch.setattr(reduction, "check_coxeter_power", failing)
    status, details = checks.run_check("coxeter-power", rs)
    assert status == "fail"
    assert details["ordering"] == list(first)
    assert tested[-1] == bad
    assert len(set(tested)) == len(tested)


def _seed_reduction(rs, change):
    """Seed a fresh system's memo with its true reduction, changed."""
    true = simple_reduction(build(rs.spec))
    rs.memo("simple_reduction", lambda: change(true))


def _factor_off_by_one(rs):
    _seed_reduction(rs, lambda red: red._replace(transition_factor=red.transition_factor + 1))


def _one_subsystem_positive_fewer(rs):
    def change(red):
        first = next(k for k in red.subsystem if k < rs.num_positive)
        return red._replace(subsystem=tuple(k for k in red.subsystem if k != first))

    _seed_reduction(rs, change)


def _short_simples_disconnected(rs):
    rs.short_simple_indices = (0, rs.rank - 1)


def _theta_set_to_theta_short(rs):
    rs.theta = rs.theta_short


def _theta_short_set_to_theta(rs):
    rs.theta_short = rs.theta


def test_orbit_count_refuses_a_reduction_not_of_type_a():
    rs = RootSystem(build("F4").spec, build("F4").nodes)
    _seed_reduction(rs, lambda red: red._replace(sub_spec=RootSystemSpec("B", 2)))
    with pytest.raises(IdentityViolation, match="^the simple reduction B2 is not of type A$"):
        orbit_count(rs)


# each library function raises on its doctored input; its runner must still fail
@pytest.mark.parametrize("check_id,doctor,violation", [
    ("transition-gap", _theta_set_to_theta_short, "transition identities disagree"),
    ("transition-gap", _short_simples_disconnected, "must form a connected diagram"),
    ("dimension-ledger", _factor_off_by_one, "nullcone dimension ratio disagrees"),
    ("hyperplane-classes", _one_subsystem_positive_fewer, "subsystem representatives"),
    ("hw-orbit-dim", _theta_short_set_to_theta, "orbit dimension disagrees"),
])
@pytest.mark.parametrize("name", ["C4", "F4"])
def test_a_library_violation_fails_its_check(check_id, doctor, violation, name):
    assert checks.run_check(check_id, build(name))[0] == "pass"
    rs = RootSystem(build(name).spec, build(name).nodes)
    doctor(rs)
    status, details = checks.run_check(check_id, rs)
    assert status == "fail"
    assert violation in details["violation"]


def test_invariant_degrees():
    assert invariant_degrees(build("C4")) == (2, 3, 4)
    assert invariant_degrees(build("C2")) == (2,)
    assert invariant_degrees(build("F4")) == (2, 3)
    assert invariant_degrees(build("B3")) == (2,)
    assert invariant_degrees(build("G2")) == (2,)


def test_invariant_degrees_multiply_to_parabolic_order():
    for name in ["C3", "C4", "F4", "B3", "G2"]:
        rs = build(name)
        degrees = invariant_degrees(rs)
        parabolic = closure(rs, short_parabolic(rs))
        product = 1
        for dd in degrees:
            product *= dd
        assert product == len(parabolic)
        assert len(degrees) == len(rs.short_simple_indices)


@pytest.mark.parametrize("name", ["G2", "F4"] + [f"{family}{rank}" for family in "BC"
                                                 for rank in range(2, 11)])
def test_invariant_degrees_by_two_routes(name):
    # the heights of the positive roots on the short simples against the
    # exponents of the reduction that from_cartan builds, in Bourbaki's
    # node order and in two relabelled ones
    rs = build(name)
    A = rs.cartan
    rng = random.Random(name)
    orders = [list(range(rs.rank))] + [rng.sample(range(rs.rank), rs.rank) for _ in range(2)]
    for order in orders:
        relabelled = from_cartan([[A[i][j] for j in order] for i in order])
        by_reduction = tuple(m + 1 for m in simple_reduction(relabelled).sub_exponents)
        assert invariant_degrees(relabelled) == by_reduction, order
        assert by_reduction == invariant_degrees(rs), order


def test_summary_rows():
    g2 = summary_row(build("G2"))
    assert (g2.module_dim, g2.coxeter_number, g2.sub_type, g2.sub_coxeter_number,
            g2.orbit_count, g2.ambient_algebra) == (7, 6, "A1", 2, 2, "so_8")
    assert g2.theta_short_coeffs == (2, 1)
    c3 = summary_row(build("C3"))
    assert (c3.module_dim, c3.coxeter_number, c3.sub_type, c3.sub_coxeter_number,
            c3.orbit_count, c3.ambient_algebra) == (14, 6, "A2", 3, 3, "sl_6")
    f4 = summary_row(build("F4"))
    assert (f4.module_dim, f4.coxeter_number, f4.sub_type, f4.sub_coxeter_number,
            f4.orbit_count, f4.ambient_algebra) == (26, 12, "A2", 3, 3, "e_6")
    assert f4.theta_short_coeffs == (1, 2, 3, 2)
    b4 = summary_row(build("B4"))
    assert b4.theta_short_coeffs == (1, 1, 1, 1)
