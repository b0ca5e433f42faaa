"""Acceptance suite: the full battery of exact identities, one test per
criterion, each printing a pass/fail line with its timing (run with -s to
see them).  All equalities are exact; the budgets are wall-clock caps."""

import itertools
import random
import time

from helpers import closure, enumerate_group

from shortroots import (
    Weight,
    build,
    check_coxeter_power,
    compose,
    count_antichains,
    count_antichains_formula,
    count_antichains_formula_alt,
    coxeter_element,
    coxeter_orbits,
    decompose_semidirect,
    dual_coxeter_of_dual,
    delta_partition,
    freudenthal,
    graded_multiplicity,
    hilbert_check,
    hw_orbit_dim,
    hyperplane_classes,
    identity,
    little_adjoint_dims,
    long_subgroup,
    one_step_strings,
    orbit_count,
    partition_count,
    reflection,
    short_parabolic,
    short_root_poset,
    simple_reduction,
    simple_reflection,
    summary_row,
    transition_identities,
)
from shortroots.rootsystem import weyl_dim

ALL_TWELVE = (
    [("C", n) for n in range(2, 7)] + [("B", n) for n in range(2, 7)]
    + [("F", 4), ("G", 2)]
)


def _run(number, budget, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_summary_table():
    registry = {
        "B": lambda n: (2 * n + 1, 2 * n, "A1", 2, 2),
        "C": lambda n: (2 * n * n - n - 1, 2 * n, f"A{n - 1}", n, partition_count(n)),
        "F": lambda n: (26, 12, "A2", 3, 3),
        "G": lambda n: (7, 6, "A1", 2, 2),
    }

    def body():
        for family, rank in ALL_TWELVE:
            row = summary_row(build(family, rank))
            got = (row.module_dim, row.coxeter_number, row.sub_type,
                   row.sub_coxeter_number, row.orbit_count)
            assert got == registry[family](rank), (family, rank, got)
        c4 = summary_row(build("C4"))
        assert (c4.module_dim, c4.coxeter_number, c4.sub_type,
                c4.sub_coxeter_number, c4.orbit_count) == (27, 8, "A3", 4, 5)
        f4 = summary_row(build("F4"))
        assert (f4.module_dim, f4.coxeter_number, f4.sub_type,
                f4.sub_coxeter_number, f4.orbit_count) == (26, 12, "A2", 3, 3)

    _run(1, 5.0, body)


def test_criterion_2_zero_weight_multiplicity_and_dimension():
    def body():
        for family, rank in ALL_TWELVE:
            rs = build(family, rank)
            k = len(rs.short_simple_indices)
            h = rs.coxeter_number
            lam = rs.weight_of(rs.theta_short)
            ws = freudenthal(rs, lam)
            assert ws.zero_multiplicity == k, (family, rank)
            assert ws.dimension == (h + 1) * k
            assert weyl_dim(rs, lam) == (h + 1) * k
            assert len(ws) == 2 * len(rs.short_positives) + 1  # weight count route

    _run(2, 10.0, body)


def test_criterion_3_semidirect_structure_exhaustive():
    systems = ["G2", "B2", "B3", "B4", "C3", "C4", "F4"]

    def body():
        for name in systems:
            rs = build(name)
            group = enumerate_group(rs)
            w_l = closure(rs, long_subgroup(rs))
            w_s = closure(rs, short_parabolic(rs))
            assert len(w_l & w_s) == 1
            assert len(w_s) * len(w_l) == len(group)
            for i in range(rs.rank):
                g = simple_reflection(rs, i)
                gi = g   # a simple reflection is an involution
                assert compose(g, gi) == identity(rs), name
                for k in rs.long_positives:
                    assert compose(compose(g, reflection(rs, rs.roots[k])), gi) in w_l, name
            p = rs.num_positive
            stable = {w for w in group if all(w[i] < p for i in rs.long_positives)}
            assert stable == set(w_s), name
            pairs = set()
            for w in group:
                ws_part, wl_part = decompose_semidirect(rs, w)
                assert compose(ws_part, wl_part) == w
                assert ws_part in w_s and wl_part in w_l
                pairs.add((ws_part, wl_part))
            assert len(pairs) == len(group), name

    _run(3, 60.0, body)


def test_criterion_4_coxeter_structure_all_orderings():
    systems = ["B2", "C2", "B3", "C3", "B4", "C4", "F4", "G2"]

    def body():
        for name in systems:
            rs = build(name)
            red = simple_reduction(rs)
            h = rs.coxeter_number
            assert h % red.sub_coxeter_number == 0
            t = transition_identities(rs)
            assert t.factor == t.coxeter_gap == t.height_gap
            for ordering in itertools.permutations(range(rs.rank)):
                c = coxeter_element(rs, ordering)
                orbits = coxeter_orbits(rs, c)
                assert all(len(o) == h for o in orbits), (name, ordering)
                short_orbits = sum(1 for o in orbits if rs.roots[o[0]].is_short)
                assert short_orbits == len(rs.short_simple_indices), (name, ordering)
                assert check_coxeter_power(rs, c), (name, ordering)

    _run(4, 30.0, body)


def test_criterion_5_sign_partitions_and_orbit_dimension():
    expected_orbit = {"B": lambda n: 2 * n, "C": lambda n: 4 * n - 4,
                      "F": lambda n: 16, "G": lambda n: 6}

    def body():
        for family, rank in ALL_TWELVE:
            rs = build(family, rank)
            ht = rs.theta_short.height
            for i in rs.short_simple_indices:
                part = delta_partition(rs, rs.simple_root(i))
                assert len(part.pos_pos) == ht, (family, rank, i)
                assert len(part.pos_neg) == ht - 1, (family, rank, i)
            dim = hw_orbit_dim(rs)
            assert dim == 2 * ht == 2 * dual_coxeter_of_dual(rs) - 2
            assert dim == expected_orbit[family](rank), (family, rank)

    _run(5, 10.0, body)


def test_criterion_6_kernel_classes_and_one_step_strings():
    expected_classes = {"B": lambda n: 1, "C": lambda n: n * (n - 1) // 2,
                        "F": lambda n: 3, "G": lambda n: 1}

    def body():
        for family, rank in ALL_TWELVE:
            rs = build(family, rank)
            classes = hyperplane_classes(rs)
            assert len(classes.classes) == expected_classes[family](rank), (family, rank)
            red = simple_reduction(rs)
            sub_pos = {k for k in red.subsystem if k < rs.num_positive}
            assert {rs.index(r) for r in classes.representatives} == sub_pos
            strings = one_step_strings(rs)
            for gamma, entry in strings.items():
                assert entry.pairs, (family, rank, gamma)
                assert entry.sole, (family, rank, gamma)

    _run(6, 10.0, body)


def test_criterion_7_antichain_counts():
    def body():
        assert count_antichains(short_root_poset(build("G2"))) == 4
        assert count_antichains_formula(build("G2")) == 4
        for n in range(2, 9):
            rs = build("B", n)
            assert count_antichains(short_root_poset(rs)) == n + 1
            assert count_antichains_formula(rs) == n + 1
            assert count_antichains_formula_alt(rs) == n + 1
        assert count_antichains(short_root_poset(build("C3"))) == 10
        assert count_antichains(short_root_poset(build("F4"))) == 21
        assert count_antichains_formula(build("F4")) == 21
        assert count_antichains_formula_alt(build("F4")) == 21
        for n in [4, 5, 6]:
            rs = build("C", n)
            brute = count_antichains(short_root_poset(rs))
            assert brute == count_antichains_formula(rs) == count_antichains_formula_alt(rs)

    _run(7, 60.0, body)


def test_criterion_8_nullcone_hilbert_series():
    plan = [("G2", 8), ("B2", 8), ("B3", 8), ("C3", 6), ("F4", 4)]

    def body():
        for name, degree in plan:
            rs = build(name)
            report = hilbert_check(rs, degree)
            assert report.ok, (name, report.first_mismatch)
            trivial = graded_multiplicity(
                rs, Weight.zero(rs.rank), Weight.zero(rs.rank), degree
            )
            assert [trivial.coeff(k) for k in range(degree + 1)] == [1] + [0] * degree
            assert not report.character.negative_terms(), name

    _run(8, 300.0, body)


def test_criterion_9_property_sweeps():
    def body():
        # reflection closure and exponent consistency
        for name in ["A3", "B3", "C4", "D4", "F4", "G2"]:
            rs = build(name)
            for i in range(rs.rank):
                w = simple_reflection(rs, i)
                assert sorted(w) == list(range(len(rs.roots)))
                assert {rs.roots[w[k]].coeffs for k in range(len(rs.roots))} == {
                    r.coeffs for r in rs.roots
                }
            if rs.weyl_order <= 1152:
                assert len(enumerate_group(rs)) == rs.weyl_order

        # negation symmetry of weight systems
        for name, lam in [("B2", (1, 1)), ("G2", (1, 0)), ("C3", (1, 0, 1))]:
            rs = build(name)
            ws = freudenthal(rs, Weight.of(lam))
            for mu in ws.weights():
                assert ws.multiplicity(-mu) == ws.multiplicity(mu)

        # dimension formula versus multiplicity sums on random dominant weights
        rng = random.Random(20120523)
        pool = ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]
        checked = 0
        while checked < 20:
            rs = build(rng.choice(pool))
            lam = Weight.of([rng.randrange(4) for _ in range(rs.rank)])
            if lam.is_zero:
                continue
            dim = weyl_dim(rs, lam)
            if dim > 5000:
                continue
            assert freudenthal(rs, lam).dimension == dim
            checked += 1

        # zero-weight ratio sweep: equality only at the two distinguished modules
        for name in ["B2", "C3", "G2", "A2"]:
            rs = build(name)
            h = rs.coxeter_number
            extremal = {rs.weight_of(rs.theta), rs.weight_of(rs.theta_short)}
            seen_equal = set()
            for coeffs in itertools.product(range(3), repeat=rs.rank):
                lam = Weight.of(coeffs)
                if lam.is_zero or weyl_dim(rs, lam) > 5000:
                    continue
                ws = freudenthal(rs, lam)
                bound = (h + 1) * ws.zero_multiplicity
                assert bound <= ws.dimension, (name, coeffs)
                if bound == ws.dimension:
                    seen_equal.add(lam)
            assert seen_equal == extremal, name

    _run(9, 120.0, body)
