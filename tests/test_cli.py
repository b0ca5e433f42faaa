"""Command line interface: output shapes, exit codes, determinism and the
doc/catalog coverage contract."""

import ast
import json
import os
import random
import re
from pathlib import Path

import pytest
from helpers import python_child

import shortroots.checks as checks
import shortroots.gradedchar as gc
import shortroots.qtables as qtables
from shortroots import Limits
from shortroots.argreader import make_parser
from shortroots.cli import _COMMANDS, _plain_args, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_system(capsys):
    # the CLI reads the system argument with build's type-name grammar
    code, out, _ = run(capsys, "info", "c4", "--json")
    assert code == 0
    assert json.loads(out)["system"] == {"family": "C", "rank": 4}
    for bad in ["Z9", "B", "12", "BB2", ""]:
        code, out, err = run(capsys, "info", bad)
        assert code == 2 and out == ""
        assert "cannot parse root system type" in err


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", "G2")
    assert code == 0
    assert "h             6" in out
    assert "dim V         7" in out
    assert "factor 3" in out
    assert "Bourbaki" in out


def test_info_json_c5(capsys):
    code, out, _ = run(capsys, "info", "C5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["little_adjoint"]["dim"] == 44
    assert payload["reduction"]["sub_type"] == "A4"
    assert payload["reduction"]["sub_coxeter_number"] == 5
    assert payload["system"] == {"family": "C", "rank": 5}
    assert payload["schemaVersion"] == 1


def test_info_rejects_bad_system(capsys):
    code, _, err = run(capsys, "info", "Z9")
    assert code == 2
    assert "cannot parse" in err


def test_verify_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "G2", "--json")
    code2, out2, _ = run(capsys, "verify", "G2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    payload = json.loads(out1)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] == len(checks.CHECK_IDS)
    ids = [c["id"] for c in payload["checks"]]
    assert ids == sorted(ids)


@pytest.mark.parametrize("name,mode", [("B6", "text"), ("G2", "json")], ids=["B6-text", "G2-json"])
def test_verify_skips_oversized_exhaustive_checks(capsys, monkeypatch, name, mode):
    # a cap of 0 refuses the first unit of work: the table build, or the
    # first orbit walk if an earlier command left the tables cached; the
    # check builds tables, then walks orbits, so both read the cap
    for module in (qtables, gc):
        monkeypatch.setattr(module, "current_limits", lambda: Limits(max_character_work=0))
    argv = ["verify", name, "--check", "nullcone-hilbert"] + ["--json"] * (mode == "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0  # a skip is not a failure
    if mode == "json":
        (check,) = json.loads(out)["checks"]
        assert check["status"] == "skipped"
        out = check["details"]["reason"]
    else:
        assert "SKIP nullcone-hilbert" in out
    assert "the cap of 0 " in out and "(max_character_work)" in out


_SEMIDIRECT_SPLITS = {"B6": (23040, 2), "C6": (64, 720), "C8": (256, 40320)}


@pytest.mark.parametrize("name", [f"{family}{rank}" for family in "BC" for rank in range(2, 9)]
                         + ["F4", "G2"])
def test_semidirect_product_passes_on_every_two_length_system(capsys, name):
    # W is never listed, so no cap can skip the check: the caps left bound work
    assert Limits._fields == ("max_character_work", "max_antichain_work", "max_root_work")
    code, out, _ = run(capsys, "verify", name, "--check", "semidirect-product", "--json")
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "pass"
    details = check["details"]
    orders = (details["long_subgroup_order"], details["short_parabolic_order"])
    assert details["weyl_order"] == details["distinct_factor_pairs"] == orders[0] * orders[1]
    assert orders == _SEMIDIRECT_SPLITS.get(name, orders)


@pytest.mark.parametrize("name", ["B6", "C6"])
def test_verify_runs_the_whole_catalog_on_rank_six(capsys, name):
    code, out, _ = run(capsys, "verify", name, "--json")
    assert code == 0
    assert json.loads(out)["summary"] == {"fail": 0, "pass": len(checks.CHECK_IDS), "skipped": 0}


@pytest.mark.parametrize(
    "argv",
    [["verify", "G2", "--check", "semidirect-product", "--json"], ["nullcone-char", "G2", "--json"]],
    ids=lambda argv: argv[0],
)
def test_environment_changes_no_output(capsys, monkeypatch, argv):
    # the caps are constants: no environment variable lowers or breaks them
    plain = run(capsys, *argv)
    assert plain[0] == 0
    for name, raw in [("SHORTROOTS_MAX_W", "0"), ("SHORTROOTS_MAX_DEGREE", "abc")]:
        monkeypatch.setenv(name, raw)
        assert run(capsys, *argv) == plain
        monkeypatch.delenv(name)


def test_verify_unknown_check_id(capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(checks._CHECKS, "root-counts", lambda rs: ran.append(rs))
    code, out, err = run(capsys, "verify", "G2", "--check", "root-counts",
                         "--check", "no-such-check")
    assert code == 2
    assert out == "" and ran == []  # refused before any check runs
    assert err.startswith("error: unknown check id(s) no-such-check; valid ids: ")
    assert "semidirect-product" in err  # the valid ids are listed


def test_verify_refuses_an_unknown_check_id_before_building(capsys, monkeypatch):
    import shortroots.cmd_verify as cmd_verify

    built = []
    monkeypatch.setattr(cmd_verify, "build", built.append)
    code, out, err = run(capsys, "verify", "A100", "--check", "bogus")
    assert (code, out, built) == (2, "", [])
    assert err.startswith("error: unknown check id(s) bogus; valid ids: ")


# a buffered stdout fails at the flush after the command, an unbuffered
# one at the first print (PYTHONUNBUFFERED counts only when non-empty)
_BUFFERING = pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])


@_BUFFERING
def test_a_closed_pipe_ends_the_cli_with_exit_code_2(unbuffered):
    # the reader is gone before the child starts; the first output takes
    # more than one 8 KB write, and argparse itself drops a failed write of
    # the help
    for argv in (["nullcone-char", "C6", "--max-degree", "6", "--json"], ["--help"]):
        read, write = os.pipe()
        os.close(read)
        try:
            child = python_child("-m", "shortroots.cli", *argv, stdout=write,
                                 env={"PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write)
        assert (child.returncode, child.stderr) == (
            2, "error: cannot write the output: Broken pipe\n"), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@_BUFFERING
def test_a_full_device_ends_the_cli_with_exit_code_2(unbuffered):
    for argv in (["info", "C4"], ["--help"]):
        with open("/dev/full", "w") as full:
            child = python_child("-m", "shortroots.cli", *argv, stdout=full,
                                 env={"PYTHONUNBUFFERED": unbuffered})
        assert (child.returncode, child.stderr) == (
            2, "error: cannot write the output: No space left on device\n"), argv


@pytest.mark.parametrize("argv", [
    "info C4", "verify G2 --check coxeter-orbits --json", "table1", "antichains C5 --json",
    "nullcone-char G2 --max-degree 4", "--help", "verify", "info C1_0",
    # spellings only argparse reads
    "nullcone-char G2 --max-deg 3", "nullcone-char G2 --max-degree=3 --json", "table1 extra",
    "verify G2 -h", "info -- C4",
])
def test_a_cold_cli_child_writes_what_main_writes_in_process(capsys, monkeypatch, argv):
    # the child ends by os._exit: with its stdout buffered into a pipe, any
    # output main leaves unflushed would be lost there; argparse sizes the
    # help to COLUMNS, which the child inherits
    monkeypatch.setenv("COLUMNS", "80")
    child = python_child("-m", "shortroots.cli", *argv.split(), env={"PYTHONUNBUFFERED": ""})
    assert (child.returncode, child.stdout, child.stderr) == run(capsys, *argv.split())


# tokens whose reading argparse decides: help, the end of options, an
# attached value, an abbreviation, a negative number, values int() reads
# loosely, a dash with a space, and a subcommand name as the system
_EDGE_TOKENS = ["-h", "--", "--max-degree=3", "--max-deg", "--check=x", "-1", "", " 7", "08",
                "1_0", "-x y", "-x", "y", "info", "verify"]


def test_the_plain_reader_agrees_with_argparse():
    # argparse is the reference: the plain reader either declines an argv
    # or returns exactly the attributes argparse sets, defaults included
    options = sorted({option for _, _, opts in _COMMANDS.values() for option in opts})
    tokens = list(_COMMANDS) + options + ["G2", "C4", "F4", "x", "3", "12", "0"] + _EDGE_TOKENS
    parser = make_parser(_COMMANDS)
    rng = random.Random(46)
    plain = 0
    for _ in range(12000):
        argv = [rng.choice(list(_COMMANDS)) if rng.random() < 0.9 else rng.choice(tokens)]
        argv += rng.choices(tokens, k=rng.randrange(5))
        args = _plain_args(argv)
        if args is not None:
            plain += 1
            assert vars(args) == vars(parser.parse_args(argv)), argv
    assert plain > 500
    assert vars(_plain_args(["verify", "info", "--check", "", "--check", " 7"])) == {
        "command": "verify", "system": "info", "check": ["", " 7"], "json": False,
        "timings": False}
    assert vars(_plain_args(["nullcone-char", "--max-degree", "1_0", "08"])) == {
        "command": "nullcone-char", "system": "08", "max_degree": 10, "json": False}
    assert vars(_plain_args(["verify", "G2"])) == {
        "command": "verify", "system": "G2", "check": None, "json": False, "timings": False}
    for argv in ["nullcone-char G2 --max-degree=3", "nullcone-char G2 --max-deg 3",
                 "nullcone-char G2 --max-degree -1", "nullcone-char G2 --max-degree x",
                 "nullcone-char G2 --max-degree", "verify G2 --check=x", "verify G2 -h",
                 "info -- C4", "info C4 --json --", "table1 extra", "info", "info C4 C5", ""]:
        assert _plain_args(argv.split()) is None, argv


_ARGPARSE_MODULES = """
import contextlib, io, sys
import shortroots.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = shortroots.cli.main(sys.argv[1:])
print(code, *[m for m in ("shortroots.argreader", "argparse", "gettext", "locale")
              if m in sys.modules])
"""


@pytest.mark.parametrize("argv", ["nullcone-char G2 --max-degree 4 --json",
                                  "verify G2 --check root-counts --check table-row", "--help"])
def test_only_argparse_spellings_load_argparse(argv):
    # argparse, with the gettext and locale it loads, costs every cold child
    # a few milliseconds of start-up
    child = python_child("-c", _ARGPARSE_MODULES, *argv.split())
    code, *loaded = child.stdout.split()
    assert (child.returncode, child.stderr, code) == (0, "", "0")
    if argv == "--help":
        assert loaded[:2] == ["shortroots.argreader", "argparse"]
    else:
        assert loaded == []


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    def broken(rs):
        return "fail", {"expected": 1, "computed": 2}

    monkeypatch.setitem(checks._CHECKS, "root-counts", broken)
    code, out, _ = run(capsys, "verify", "G2", "--check", "root-counts")
    assert code == 1
    assert "FAIL root-counts" in out
    assert '"computed": 2' in out


def test_verify_simply_laced_skips_two_length_checks(capsys):
    # each engine's own require_two_lengths decides the skip; no table names the set
    two_lengths = {
        "antichain-count", "coxeter-power", "dimension-ledger", "hw-orbit-dim",
        "hyperplane-classes", "little-adjoint-dims", "nullcone-hilbert", "one-step-strings",
        "semidirect-product", "sign-partition", "table-row", "transition-gap",
    }
    for name in ("A3", "E8"):
        code, out, _ = run(capsys, "verify", name, "--json")
        assert code == 0
        by_id = {c["id"]: c for c in json.loads(out)["checks"]}
        assert {cid for cid, c in by_id.items() if c["status"] == "skipped"} == two_lengths
        for cid in two_lengths:
            assert by_id[cid]["details"] == {"reason": f"{name} has a single root length"}
        assert by_id["root-counts"]["status"] == "pass"


def test_table1(capsys):
    code, out, _ = run(capsys, "table1", "--json")
    assert code == 0
    rows = {r["system"]: r for r in json.loads(out)["rows"]}
    assert len(rows) == 12
    c3 = rows["C3"]
    assert (c3["module_dim"], c3["coxeter_number"], c3["sub_type"],
            c3["sub_coxeter_number"], c3["orbit_count"], c3["ambient_algebra"]) == (
        14, 6, "A2", 3, 3, "sl_6")
    g2 = rows["G2"]
    assert (g2["module_dim"], g2["coxeter_number"], g2["sub_type"],
            g2["sub_coxeter_number"], g2["orbit_count"], g2["ambient_algebra"]) == (
        7, 6, "A1", 2, 2, "so_8")
    c4 = rows["C4"]
    assert (c4["module_dim"], c4["coxeter_number"], c4["orbit_count"]) == (27, 8, 5)
    assert rows["B2"]["isomorphic_to"] == "C2"
    assert rows["C2"]["isomorphic_to"] == "B2"
    assert rows["B2"]["module_dim"] == rows["C2"]["module_dim"] == 5


def test_antichains_command(capsys):
    code, out, _ = run(capsys, "antichains", "F4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["brute_force"] == payload["formula"] == payload["alt_formula"] == 21
    assert payload["consistent"]
    code, out, _ = run(capsys, "antichains", "G2")
    assert code == 0
    assert "poset count  4" in out


def test_antichains_counts_c9_by_brute_force(capsys):
    code, out, _ = run(capsys, "antichains", "C9", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["brute_force"] == payload["formula"] == 24310
    assert payload["consistent"] is True


def test_antichains_counts_c12_over_the_poset(capsys):
    code, out, _ = run(capsys, "antichains", "C12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["brute_force"] == payload["formula"] == payload["alt_formula"] == 1352078
    assert payload["consistent"] is True


def test_antichains_answers_c18_by_the_formula(capsys):
    code, out, _ = run(capsys, "antichains", "C18", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["brute_force"] == payload["formula"] == payload["alt_formula"] == 4537567650
    assert payload["consistent"] is True


def test_antichains_refuses_past_the_work_cap(capsys):
    code, out, err = run(capsys, "antichains", "C92")
    assert code == 2
    assert out == ""
    assert err.startswith("refused:")
    assert "8372 elements needs more than the cap of 500000 counting states " \
           "(max_antichain_work)" in err


def test_nullcone_char_command(capsys):
    code, out, _ = run(capsys, "nullcone-char", "G2", "--max-degree", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["hilbert_ok"] is True
    assert payload["dimension_series"][:3] == [1, 7, 27]
    entries = {tuple(e["weight"]): e["multiplicity"] for e in payload["entries"]}
    assert entries[(0, 0)]["coeffs"] == {"0": 1}
    assert entries[(1, 0)]["coeffs"]["1"] == 1


def test_nullcone_char_truncates_at_degree_8_by_default(capsys):
    assert run(capsys, "nullcone-char", "G2", "--json") == \
        run(capsys, "nullcone-char", "G2", "--max-degree", "8", "--json")


def test_nullcone_char_refuses_large_rank(capsys):
    code, _, err = run(capsys, "nullcone-char", "C7", "--max-degree", "6")
    assert code == 2
    assert err.startswith("refused:")
    assert "300000 DP updates" in err


@pytest.mark.parametrize("argv", ["info A201", "antichains C160", "info D2000 --json"])
def test_a_build_past_the_root_cap_is_refused(capsys, argv):
    # max_root_work answers info A200; the build comes before any command's work
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    system = argv.split()[1]
    assert err.startswith(f"refused: building {system} writes more than the cap of 4100000 ")
    assert err.endswith("(max_root_work)\n")


def test_nullcone_char_refuses_a_negative_degree(capsys):
    code, out, err = run(capsys, "nullcone-char", "B2", "--max-degree", "-1")
    assert (code, out) == (2, "")
    assert err == "error: max_degree must be non-negative\n"


@pytest.mark.parametrize("argv", [("antichains", "A3"), ("nullcone-char", "D4")])
def test_single_length_systems_are_refused_outside_verify(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[1]} has a single root length\n"


def test_nullcone_char_reports_work_counters(capsys):
    code, out, _ = run(capsys, "nullcone-char", "C5", "--max-degree", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["hilbert_ok"] is True
    assert payload["dp_updates"] == 48831
    assert payload["dominant_points"] >= len(payload["entries"])


def test_nullcone_char_reports_a_failed_self_check(capsys, monkeypatch):
    import shortroots.gradedchar as gc
    from shortroots.errors import IdentityViolation

    def violated(rs, degree):
        raise IdentityViolation("doctored self-check")

    monkeypatch.setattr(gc, "nullcone_character", violated)
    code, out, err = run(capsys, "nullcone-char", "G2", "--max-degree", "2")
    assert code == 1
    assert err == "fail: doctored self-check\n"
    assert out == ""


@pytest.fixture
def fresh_systems():
    """Clear build's cache before and after the test, so that memoised
    results of earlier tests are not reused and none of this test's leak."""
    from shortroots.rootsystem import _cached

    _cached.cache_clear()
    yield
    _cached.cache_clear()


def test_table1_builds_each_reduction_once(capsys, fresh_systems):
    # 12 rows and their reductions A1..A5: a reduction reached through
    # from_cartan is the object build names, not a second copy
    from shortroots.rootsystem import _cached

    assert run(capsys, "table1", "--json")[0] == 0
    assert _cached.cache_info().currsize == 17


def test_verify_reports_a_failed_self_check(capsys, monkeypatch, fresh_systems):
    import shortroots.orbits as orbits

    monkeypatch.setattr(orbits, "weyl_dim", lambda rs, highest: 0)
    code, out, _ = run(capsys, "verify", "G2", "--check", "little-adjoint-dims")
    assert code == 1
    assert "FAIL little-adjoint-dims" in out
    assert "multiplicity sum disagrees with the dimension formula" in out


def test_verify_runs_freudenthal_once_per_system(capsys, monkeypatch, fresh_systems):
    import shortroots.littleadjoint as la

    calls = []
    engine = la.freudenthal

    def counted(rs, highest):
        calls.append(highest)
        return engine(rs, highest)

    monkeypatch.setattr(la, "freudenthal", counted)
    code, out, _ = run(capsys, "verify", "F4", "--json")
    assert code == 0
    assert json.loads(out)["summary"]["fail"] == 0
    assert len(calls) == 1


def test_verify_timings_are_opt_in(capsys):
    code, out, _ = run(capsys, "verify", "G2", "--timings", "--json")
    assert code == 0
    payload = json.loads(out)
    elapsed = payload["elapsed_seconds"]
    assert isinstance(elapsed, float) and elapsed >= 0
    per_check = [r["elapsed_seconds"] for r in payload["checks"]]
    assert len(per_check) == len(checks.CHECK_IDS)
    assert all(isinstance(t, float) and t >= 0 for t in per_check)
    assert sum(per_check) <= elapsed + 0.0005 * len(per_check)   # each rounded to 1 ms
    timed_json = out
    code, out, _ = run(capsys, "verify", "G2", "--timings")
    assert code == 0
    assert re.search(r"\nelapsed \d+\.\d{3}s\n$", out)
    check_lines = out.splitlines()[: len(checks.CHECK_IDS)]
    assert all(re.fullmatch(r"PASS [a-z-]+  \d+\.\d{3}s", line) for line in check_lines)
    # without the flag, the output is the timed one with every elapsed figure taken out
    code, out, _ = run(capsys, "verify", "G2", "--json")
    plain = json.loads(out)
    assert "elapsed_seconds" not in plain
    assert all("elapsed_seconds" not in r for r in plain["checks"])
    timed = json.loads(timed_json)
    del timed["elapsed_seconds"]
    for r in timed["checks"]:
        del r["elapsed_seconds"]
    assert timed == plain
    code, out, _ = run(capsys, "verify", "G2")
    assert "elapsed" not in out
    assert not re.search(r"\d\.\d{3}s", out)


@pytest.mark.parametrize("name", ["B6", "C6"])
def test_verify_runs_nullcone_hilbert_past_the_weyl_cap(capsys, name):
    code, out, _ = run(capsys, "verify", name, "--check", "nullcone-hilbert", "--json")
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "pass"
    assert check["details"]["alternating_sum_agrees"] is True
    assert check["details"]["trivial_multiplicity_is_one"] is True
    assert "alternating_sum_skipped" not in check["details"]
    assert check["details"]["dp_updates"] > 0


def test_verify_keeps_the_alternating_sum_under_the_weyl_cap(capsys):
    code, out, _ = run(capsys, "verify", "C3", "--check", "nullcone-hilbert", "--json")
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["details"]["trivial_multiplicity_is_one"] is True
    assert "alternating_sum_skipped" not in check["details"]


def test_package_exports_exactly_the_module_lists():
    import importlib

    import shortroots

    library = ["antichains", "cartan", "classify", "config", "errors", "gradedchar",
               "littleadjoint", "orbits", "reduction", "rootsystem", "weyl"]
    modules = [importlib.import_module(f"shortroots.{mod}") for mod in library]
    owner = {name: mod for mod in modules for name in mod.__all__}
    assert len(owner) == sum(len(mod.__all__) for mod in modules)   # no name declared twice
    assert dir(shortroots) == sorted(owner)
    star = {}
    exec("from shortroots import *", star)
    assert set(star) - {"__builtins__"} == set(owner)
    assert all(getattr(shortroots, name) is getattr(mod, name) for name, mod in owner.items())
    with pytest.raises(AttributeError):
        shortroots.no_such_name


def test_no_module_imports_dataclasses():
    src = Path(__file__).resolve().parent.parent / "src" / "shortroots"
    importing = re.compile(r"^\s*(import|from)\s+dataclasses\b", re.MULTILINE)
    assert [p.name for p in sorted(src.glob("*.py")) if importing.search(p.read_text())] == []


def test_no_module_imports_json_typing_re_or_enum():
    # a CLI child loads none of them: the writer is jsonout, the records are
    # collections.namedtuple and the type name is read without re; nor
    # __future__, since no annotation is read and none needs postponing
    src = Path(__file__).resolve().parent.parent / "src" / "shortroots"
    banned = {"json", "typing", "re", "enum", "__future__"}
    importing = []
    for p in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            importing += [(p.name, n) for n in names if n.partition(".")[0] in banned]
    assert importing == []


def test_only_the_table_module_knows_the_packed_key_format():
    # packing a weight, unpacking a key and the format's fields live in
    # qtables; tests/helpers.decode stays an independent oracle of it
    src = Path(__file__).resolve().parent.parent / "src" / "shortroots"
    knowing = re.compile(r"\.(off|base|powers)\b|\.encode\(")
    assert [p.name for p in sorted(src.glob("*.py"))
            if p.name != "qtables.py" and knowing.search(p.read_text())] == []


def test_every_module_compiles_inside_the_start_up_heap():
    # compiling a module from source (as every cold child without a bytecode
    # cache does) peaks at about 400 B per AST node; 3 000 nodes keep that
    # transient inside the heap interpreter start-up leaves free, so no
    # module's compile raises a child's peak RSS
    src = Path(__file__).resolve().parent.parent / "src" / "shortroots"
    sizes = {str(p.relative_to(src)): _ast_nodes(p) for p in sorted(src.rglob("*.py"))}
    assert {name: n for name, n in sizes.items() if n > 3000} == {}


def _ast_nodes(path):
    return sum(1 for _ in ast.walk(ast.parse(Path(path).read_text())))


def test_cli_start_up_compiles_inside_its_budget():
    # a cold child without a bytecode cache compiles every module that
    # `import shortroots.cli` runs: the package, the CLI's plain reader and
    # emitter and the root-system layer, but no classifier, no orbit walk,
    # no argparse reader and no subcommand body (5 291 nodes, 5 791 before
    # the orbit walks and the argparse reader moved off this path)
    code = ("import sys, types, shortroots.cli\n"
            "print(*sorted(m.__file__ for name, m in sys.modules.items()"
            " if name.partition('.')[0] == 'shortroots' and type(m) is types.ModuleType))")
    child = python_child("-c", code)
    assert (child.returncode, child.stderr) == (0, "")
    files = child.stdout.split()
    assert "cli.py" in {Path(f).name for f in files}
    assert sum(map(_ast_nodes, files)) <= 5440


def test_no_module_imports_the_cli():
    # under `python -m shortroots.cli` the CLI is __main__: importing
    # shortroots.cli again would compile it a second time, as a second module
    src = Path(__file__).resolve().parent.parent / "src" / "shortroots"
    importing = []
    for p in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.ImportFrom):   # a relative import is one of the package
                base = ".".join(filter(None, ["shortroots" * bool(node.level), node.module]))
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "shortroots.cli" in names:
                importing.append(p.name)
    assert importing == []


def test_engines_reach_each_other_through_module_objects():
    # a module-level `from .weyl import x` would run weyl's body at import
    # and hold a second binding of x, which a test replacing weyl.x would
    # miss (config's current_limits is bound per module and replaced so)
    src = Path(__file__).resolve().parent.parent / "src" / "shortroots"
    engines = {"antichains", "checks", "classify", "gradedchar", "littleadjoint", "orbits",
               "reduction", "weyl"}
    binding = [(p.name, node.module) for p in sorted(src.glob("*.py"))
               for node in ast.parse(p.read_text()).body   # what runs at import
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in engines]
    assert binding == []


def test_cli_start_up_does_not_load_dataclasses():
    child = python_child("-c", "import shortroots.cli, sys; print('dataclasses' in sys.modules)")
    assert (child.returncode, child.stdout, child.stderr) == (0, "False\n", "")


_UNLOADED = """
import contextlib, io, sys
import shortroots.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = shortroots.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *[m for m in ("fractions", "numbers", "decimal", "json", "typing", "re", "enum",
                          "random", "__future__") if m in sys.modules])
"""


@pytest.mark.parametrize("command", ["", "nullcone-char C4 --max-degree 4 --json",
                                     "verify G2 --json", "info A30", "antichains C8",
                                     "table1 --json", "verify G2"], ids=lambda c: c or "import")
def test_commands_leave_the_rational_stack_unloaded(command):
    # no command asks for a rational answer, so none pays for loading
    # fractions, numbers and decimal; nor does one load json (the CLI has
    # its own writer), typing, re, enum or __future__, or random below rank
    # 5.  A child started with -S imports no site module, which could load
    # them first
    child = python_child("-S", "-c", _UNLOADED, *command.split())
    assert (child.returncode, child.stdout, child.stderr) == (0, "0\n", "")
    child = python_child("-c", _UNLOADED, *command.split())
    code, *loaded = child.stdout.split()
    assert (child.returncode, code, child.stderr) == (0, "0", "")
    assert not {"fractions", "numbers", "decimal"} & set(loaded)


_LOADS = """
import contextlib, io, sys, types
import shortroots.cli
names = [m for m in sys.modules if m.startswith("shortroots.") and m != "shortroots.cli"]
stubs = [type(sys.modules[m]) for m in names if type(sys.modules[m]) is not types.ModuleType]
assert len(set(stubs)) <= 1 and all(issubclass(t, types.ModuleType) for t in stubs)
with contextlib.redirect_stdout(io.StringIO()):
    code = shortroots.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
loaded = [m[11:] for m in sys.modules if m.startswith("shortroots.") and m != "shortroots.cli"
          and type(sys.modules[m]) is types.ModuleType]
print(code, *sorted(m[11:] for m in names))
print(*sorted(loaded))
"""
_LIBRARY_AND_CHECKS = ("antichains cartan checks classify config errors gradedchar littleadjoint"
                       " orbits reduction rootsystem weyl")
# building a system loads config, whose max_root_work caps the root
# closure; the orbit walks load with the engines that walk (Freudenthal,
# the nullcone character), so info on one root length and antichains skip them
_RUNS = {
    "": "cartan errors rootsystem",
    "info C9": "cartan classify cmd_info config errors littleadjoint orbits reduction rootsystem",
    "info A30": "cartan cmd_info config errors rootsystem",
    "antichains C8": "antichains cartan cmd_antichains config errors rootsystem",
    "nullcone-char G2 --max-degree 4": ("cartan cmd_nullcone_char config errors gradedchar orbits"
                                        " qtables rootsystem"),
    "verify B7 --check sign-partition": ("cartan checks cmd_verify config errors littleadjoint"
                                         " rootsystem"),
    "table1": "cartan classify cmd_table1 config errors littleadjoint orbits reduction rootsystem",
    "verify G2": ("antichains cartan checks classify cmd_verify config errors gradedchar"
                  " littleadjoint orbits qtables reduction rootsystem weyl"),
    "verify E8": ("antichains cartan checks cmd_verify config errors gradedchar littleadjoint"
                  " qtables reduction rootsystem weyl"),
    # --json adds the writer
    "nullcone-char G2 --max-degree 4 --json": ("cartan cmd_nullcone_char config errors gradedchar"
                                               " jsonout orbits qtables rootsystem"),
    "verify E8 --json": ("antichains cartan checks cmd_verify config errors gradedchar jsonout"
                         " littleadjoint qtables reduction rootsystem weyl"),
    # a spelling only argparse reads adds the argparse reader, and ends here
    # with the help (exit 0) or a usage error (exit 2), before any system
    "--help": "argreader cartan errors rootsystem",
    "verify --chec G2": "argreader cartan errors rootsystem",
}
_EXIT_CODES = {"verify --chec G2": 2}   # 0 for every other run
# the classifier is reached only through from_cartan, the adjugate and the
# order of a reflection subgroup, none of which a single-length verify runs
_WITHOUT_CLASSIFIER = ("", "info A30", "antichains C8", "nullcone-char G2 --max-degree 4",
                       "verify E8", "nullcone-char G2 --max-degree 4 --json", "verify E8 --json")


@pytest.mark.parametrize("command", list(_RUNS), ids=lambda c: c or "import")
def test_each_subcommand_runs_only_the_modules_it_calls(command):
    # every library module is registered when the CLI is imported, but a
    # module body runs on first use: a loaded module is a plain ModuleType,
    # a stub keeps the lazy loader's subclass, and reading type() loads
    # nothing; gradedchar's private table module is imported, not
    # registered, and a subcommand's body module is imported on dispatch
    child = python_child("-c", _LOADS, *command.split())
    code = _EXIT_CODES.get(command, 0)
    if code:   # argparse's usage error, and nothing else
        first, *_, last = child.stderr.splitlines()
        assert first.startswith("usage: shortroots verify ")
        assert last.startswith("shortroots verify: error: ")
    else:
        assert child.stderr == ""
    assert child.stdout == f"{code} {_LIBRARY_AND_CHECKS}\n{_RUNS[command]}\n"
    loaded = _RUNS[command].split()
    dispatched = command and "argreader" not in loaded
    assert [m for m in loaded if m.startswith("cmd_")] == (
        ["cmd_" + command.split()[0].replace("-", "_")] if dispatched else [])
    assert "classify" not in loaded or command not in _WITHOUT_CLASSIFIER


def test_from_import_of_the_cli_leaves_the_library_lazy():
    # the import system asks the package for the attribute cli before it
    # imports the submodule; that lookup must not load the library modules,
    # the classifier among them, nor import any subcommand's body
    code = ("import sys, types\nfrom shortroots import cli\n"
            "print(*sorted(m[11:] for m in sys.modules if m.startswith('shortroots.')"
            " and type(sys.modules[m]) is types.ModuleType))\n"
            "print(*sorted(m for m in sys.modules if m.startswith('shortroots.cmd_')))")
    child = python_child("-c", code)
    loaded = "cartan cli errors rootsystem\n\n"
    assert (child.returncode, child.stdout, child.stderr) == (0, loaded, "")


def test_trace_harness_wraps_the_lazily_loaded_modules():
    # perfbench/traced_cli.py reads vars() of every shortroots module in
    # sys.modules, which loads a stub, so it still wraps every engine
    child = python_child("perfbench/traced_cli.py", "info", "C9", "--json")
    assert (child.returncode, child.stderr) == (0, "")
    envelope = json.loads(child.stdout)
    assert envelope["exit"] == 0
    labels = {span[0] for span in envelope["spans"]}
    assert {"reduction.simple_reduction", "littleadjoint.little_adjoint_dims",
            "rootsystem.build"} <= labels
    assert envelope["counters"]["rootsystem.roots"] > 0


def test_no_library_self_check_raises_a_bare_assertion_error():
    src = Path(__file__).resolve().parent.parent / "src" / "shortroots"
    bare = [p.name for p in src.rglob("*.py") if "raise AssertionError" in p.read_text()]
    assert bare == []


def test_caps_are_read_by_the_engines_not_passed_in():
    import inspect

    import shortroots

    public = [getattr(mod, name) for mod in (shortroots, checks)
              for name in dir(mod) if not name.startswith("_")]
    public += list(checks._CHECKS.values())
    knobs = []
    for obj in public:
        if callable(obj):
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            knobs += [f"{obj.__name__}({p})" for p in params if p in ("bound", "limits")]
    assert knobs == []
    src = Path(__file__).resolve().parent.parent / "src" / "shortroots"
    # no Weyl group is listed, so no refusal names |W|
    refusals = sum(p.read_text().count("|W({rs.spec})|") for p in src.glob("*.py"))
    assert refusals == 0


def test_readme_catalog_matches_check_registry():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    block = re.search(r"<!-- check-catalog -->(.*?)<!-- /check-catalog -->",
                      text, re.DOTALL)
    assert block, "README must carry the check catalog between its markers"
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", block.group(1), re.MULTILINE)
    assert sorted(cid for cid, _ in rows) == list(checks.CHECK_IDS)
    assert all(text.strip() for _, text in rows)  # the README is the only description


def test_readme_library_tour_prints_what_it_says():
    # every `expr  # value` line of the tour evaluates to something whose
    # str() is the comment; the other lines set the tour up
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.DOTALL)
    assert block, "README must carry the library tour as a python block"
    namespace, shown = {}, 0
    for line in block.group(1).splitlines():
        expr, sep, value = line.partition("  # ")
        if sep:
            assert str(eval(expr, namespace)) == value.strip(), expr
            shown += 1
        elif line.strip():
            exec(line, namespace)
    assert shown >= 5


def test_readme_names_every_cap():
    import shortroots.config as config

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    names = list(config.Limits._fields)
    assert len(names) == 3
    assert [name for name in names if name not in text] == []
