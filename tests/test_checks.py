"""Every verdict of the catalog is reachable: for each check id, a doctored
engine input makes its check fail, at the detail that shows the failure.
The doctors differ from those of the per-module tests, so each one is a
further wrong input that its check catches."""

import json
import random

import pytest

import shortroots.antichains as ac
import shortroots.gradedchar as gc
import shortroots.littleadjoint as la
import shortroots.orbits as orbits
import shortroots.reduction as red
import shortroots.weyl as weyl
from shortroots import RootSystem, build
from shortroots.checks import CHECK_IDS, run_check
from shortroots.jsonout import dumps


def _seed_reduction(rs, changes):
    """Seed a fresh system's memo with its true simple reduction, with the
    fields that changes(reduction) names replaced."""
    true = red.simple_reduction(build(rs.spec))
    rs.memo("simple_reduction", lambda: true._replace(**changes(true)))


def _wrap(monkeypatch, module, name, change):
    """Replace module.name by a function that changes its answer."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda rs, *args: change(rs, original(rs, *args), *args))


def _exponent_one_higher(rs, monkeypatch):
    rs.exponents = (rs.exponents[0] + 1,) + rs.exponents[1:]


def _subgroup_orders_doubled(rs, monkeypatch):
    _wrap(monkeypatch, weyl, "reflection_subgroup_order", lambda rs, order, base: 2 * order)


def _zero_weight_once_more(rs, monkeypatch):
    _wrap(monkeypatch, la, "little_adjoint_dims",
          lambda rs, dims: dims._replace(zero_mult=dims.zero_mult + 1))


def _first_positive_pairing_negated(rs, monkeypatch):
    inner_row = rs.inner_row

    def doctored(mu):
        row = list(inner_row(mu))
        k = next(k for k, v in enumerate(row) if v > 0)
        row[k] = -row[k]
        return tuple(row)

    monkeypatch.setattr(rs, "inner_row", doctored)


def _pairing_against_roots(rs, monkeypatch):
    monkeypatch.setattr(rs, "coroot_row", rs.inner_row)


def _highest_root_dropped(rs, monkeypatch):
    coroot_row = rs.coroot_row
    monkeypatch.setattr(rs, "coroot_row", lambda root: coroot_row(root)[:-1])


def _coxeter_element_squared(rs, monkeypatch):
    _wrap(monkeypatch, weyl, "coxeter_element", lambda rs, c, *ordering: weyl.compose(c, c))


def _sub_coxeter_number_one_lower(rs, monkeypatch):
    _seed_reduction(rs, lambda r: {"sub_coxeter_number": r.sub_coxeter_number - 1})


def _sub_coxeter_number_doubled(rs, monkeypatch):
    # c^(2 h_s) still lies in W_l, so only the image order sees it
    _seed_reduction(rs, lambda r: {"sub_coxeter_number": 2 * r.sub_coxeter_number})


def _transition_factor_one_higher(rs, monkeypatch):
    _seed_reduction(rs, lambda r: {"transition_factor": r.transition_factor + 1})


def _theta_short_joins_the_subsystem(rs, monkeypatch):
    _seed_reduction(rs, lambda r: {
        "subsystem": r.subsystem + (rs.index(rs.theta_short), rs.index(-rs.theta_short))})


def _two_target_classes_merged(rs, monkeypatch):
    def merge(rs, strings):
        (gamma, entry), (_, other) = list(strings.items())[:2]
        targets = entry.target_classes + other.target_classes
        strings[gamma] = entry._replace(target_classes=targets, sole=len(set(targets)) == 1)
        return strings

    _wrap(monkeypatch, red, "one_step_strings", merge)


def _orbit_count_one_higher(rs, monkeypatch):
    _wrap(monkeypatch, red, "summary_row",
          lambda rs, row: row._replace(orbit_count=row.orbit_count + 1))


def _formula_one_higher(rs, monkeypatch):
    _wrap(monkeypatch, ac, "count_antichains_formula", lambda rs, count: count + 1)


def _one_walked_entry_changed(rs, monkeypatch):
    # the second route, Kostant's alternating sum, wrong at one nonzero weight
    _wrap(monkeypatch, gc, "graded_multiplicity", lambda rs, poly, lam, mu, degree: (
        poly + gc.QPoly.one(degree) if lam == (0, 1, 0, 0) else poly))


def _weyl_dim_one_higher(rs, monkeypatch):
    # the first route, the dimension series, off by one module dimension
    _wrap(monkeypatch, orbits, "weyl_dim", lambda rs, dim, highest: dim + 1)


def _one_negative_coefficient(rs, monkeypatch):
    monkeypatch.setattr(gc.GradedCharacter, "negative_terms",
                        lambda char: [((0, 1, 0, 0), 2, -1)])


# doctor name -> check id, doctor, and the detail that shows the failure on
# C4 with its value
DOCTORS = {
    "exponent one higher": ("root-counts", _exponent_one_higher, "exponent_sum", 17),
    "subgroup orders doubled": (
        "semidirect-product", _subgroup_orders_doubled, "product_order", 4 * 384),
    "zero weight once more": (
        "little-adjoint-dims", _zero_weight_once_more, "zero_multiplicity", 4),
    "first positive pairing negated": (
        "sign-partition", _first_positive_pairing_negated, "short_dominant_negative_part", 1),
    "pairing against roots": ("hw-orbit-dim", _pairing_against_roots, "from_dual_coxeter", 14),
    "highest root dropped": (
        "dual-coxeter-dual", _highest_root_dropped, "violation",
        "(sigma | theta_s) must be an integer"),
    "coxeter element squared": (
        "coxeter-orbits", _coxeter_element_squared, "orbit_sizes", [4] * 8),
    "sub Coxeter number one lower": (
        "coxeter-power", _sub_coxeter_number_one_lower, "sub_coxeter_number", 3),
    "sub Coxeter number doubled": (
        "coxeter-power", _sub_coxeter_number_doubled, "image_order", 4),
    "transition factor one higher": (
        "transition-gap", _transition_factor_one_higher, "violation",
        "transition identities disagree: "
        "TransitionIdentities(factor=3, coxeter_gap=2, height_gap=2)"),
    "zero weight once more, ledger": (
        "dimension-ledger", _zero_weight_once_more, "violation",
        "module nullcone dimension disagrees with h * #shorts"),
    "theta_s joins the subsystem": (
        "hyperplane-classes", _theta_short_joins_the_subsystem, "violation",
        "class (Root(coeffs=(1, 0, 0, 0), length_class='short'), "
        "Root(coeffs=(1, 2, 2, 1), length_class='short')) holds 2 subsystem representatives"),
    "two target classes merged": (
        "one-step-strings", _two_target_classes_merged, "multiple_target_classes", [[0, 0, 1, 1]]),
    "orbit count one higher": ("table-row", _orbit_count_one_higher, "computed", {
        "module_dim": 27, "coxeter_number": 8, "sub_type": "A3", "sub_coxeter_number": 4,
        "orbit_count": 6}),
    "formula one higher": ("antichain-count", _formula_one_higher, "formula", 36),
    "one walked entry changed": (
        "nullcone-hilbert", _one_walked_entry_changed, "alternating_sum_agrees", False),
    "weyl_dim one higher": ("nullcone-hilbert", _weyl_dim_one_higher, "first_mismatch", 0),
    "one negative coefficient": (
        "nullcone-hilbert", _one_negative_coefficient, "negative_coefficients",
        [[[0, 1, 0, 0], 2, -1]]),
}


@pytest.mark.parametrize("doctor", sorted(DOCTORS))
def test_a_doctored_input_fails_its_check(doctor, monkeypatch):
    check_id, change, key, value = DOCTORS[doctor]
    assert run_check(check_id, build("C4"))[0] == "pass"
    rs = RootSystem(build("C4").spec, build("C4").nodes)   # the doctor's changes die with it
    change(rs, monkeypatch)
    status, details = run_check(check_id, rs)
    assert status == "fail"
    assert details[key] == value
    # verify's text shows a failure's details as they are: JSON values,
    # written by the CLI's writer.  json.dumps writes a record as a list and
    # refuses a polynomial, so either in the details fails here
    assert dumps(details) == json.dumps(details, sort_keys=True)


def test_every_check_id_has_a_doctored_input():
    # a new check id comes with a doctor that makes it fail
    assert {check_id for check_id, *_ in DOCTORS.values()} == set(CHECK_IDS)


@pytest.mark.parametrize("name,degrees", [("C5", (2, 3, 4, 8)), ("C6", (2, 3, 4, 5, 9))])
def test_wrong_invariant_degrees_fail_past_the_truncation(name, degrees, monkeypatch):
    # the series stops at degree 4 on these ranks, so it cannot see a wrong
    # top degree; the degrees' product and exponent sum do
    assert run_check("nullcone-hilbert", build(name))[0] == "pass"
    rs = RootSystem(build(name).spec, build(name).nodes)
    monkeypatch.setattr(gc, "invariant_degrees", lambda rs: degrees)
    status, details = run_check("nullcone-hilbert", rs)
    assert status == "fail"
    assert details["first_mismatch"] is None
    assert details["invariant_degrees"] == list(degrees)
    assert details["degree_product_is_short_order"] is False
    assert details["degree_sum_is_class_count"] is False


def _top_coefficient_one_higher(poly):
    return poly + gc.QPoly({poly.truncation: 1}, poly.truncation)


def _series_top_changed(monkeypatch):
    original = gc.complete_intersection_series
    monkeypatch.setattr(gc, "complete_intersection_series",
                        lambda *args: _top_coefficient_one_higher(original(*args)))


def _entry_top_changed(monkeypatch):
    # the little adjoint module's entry: a non-trivial one on every system
    original = gc.nullcone_character

    def doctored(rs, degree):
        char = original(rs, degree)
        entries = dict(char.entries)
        theta_s = rs.weight_coords(rs.theta_short)
        entries[theta_s] = _top_coefficient_one_higher(entries[theta_s])
        return gc.GradedCharacter(rs, entries, degree, char.work)

    monkeypatch.setattr(gc, "nullcone_character", doctored)


@pytest.mark.parametrize("doctor", [_series_top_changed, _entry_top_changed],
                         ids=["series", "entry"])
@pytest.mark.parametrize("name,degree", [("G2", 8), ("C4", 4)])
def test_a_change_at_the_top_degree_fails_nullcone_hilbert(doctor, name, degree, monkeypatch):
    # only the coefficient at the check's truncation degree changes, so the
    # series must be compared up to and including that degree to see it
    rs = build(name)
    doctor(monkeypatch)
    assert gc.hilbert_check(rs, degree).first_mismatch == degree
    status, details = run_check("nullcone-hilbert", rs)
    assert (status, details["degree"], details["first_mismatch"]) == ("fail", degree, degree)


# check id -> its detail keys that hold root coefficients
_COORDINATE_KEYS = {
    "hyperplane-classes": ("representatives",),
    "table-row": ("theta_short_coeffs",),
    "one-step-strings": ("empty", "multiple_target_classes"),
}


def _run_in_bourbaki_numbering(check_id, rs):
    """run_check's result with each root's coefficients read back in
    Bourbaki's numbering (Bourbaki's node k is node rs.nodes[k]); a list of
    roots keeps its order, which must not depend on the numbering."""
    def back(coeffs):
        return [coeffs[node] for node in rs.nodes]

    status, details = run_check(check_id, rs)
    for key in _COORDINATE_KEYS.get(check_id, ()):
        if key in details:   # a skip or a failure may lack it
            value = details[key]
            details[key] = back(value) if key == "theta_short_coeffs" else list(map(back, value))
    return status, details


@pytest.mark.parametrize("name", ["G2", "B3", "C4", "F4", "B6", "C6", "E8"])
def test_every_check_reads_the_same_on_a_relabelled_system(name):
    # no check leans on Bourbaki's numbering: on a system built with its
    # nodes in another order, every result equals the Bourbaki build's once
    # its root coefficients are read back in Bourbaki's numbering
    bourbaki = build(name)
    expected = {cid: _run_in_bourbaki_numbering(cid, bourbaki) for cid in CHECK_IDS}
    rng = random.Random(47)
    for _ in range(6):
        nodes = list(range(bourbaki.rank))
        rng.shuffle(nodes)
        rs = RootSystem(bourbaki.spec, tuple(nodes))
        for cid in CHECK_IDS:
            assert _run_in_bourbaki_numbering(cid, rs) == expected[cid], (cid, nodes)
