"""Every benchmark operation, run as a cold CLI child, still meets its
golden output (``perfbench/golden.json``, by the rules of
``perfbench/golden.py``), so that output drift shows in the test suite and
not only when the benchmark runs.  The benchmark files are only read."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shortroots.cli import SCHEMA_VERSION, _plain_args
from shortroots.errors import SizeLimitExceeded
from shortroots.jsonout import dumps

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench_modules():
    """golden and workloads, imported without writing bytecode next to them."""
    sys.path.insert(0, str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("golden"), importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))


golden, workloads = _perfbench_modules()
GOLDEN = golden.load()
OPS = [argv for spec in workloads.WORKLOADS.values() for argv in spec["ops"]]


def test_every_operation_has_a_golden():
    assert len(OPS) == 21
    assert sorted(workloads.op_id(argv) for argv in OPS) == sorted(GOLDEN)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_every_operation_is_read_without_argparse(json_flag):
    assert [argv for argv in OPS if _plain_args(argv + json_flag) is None] == []


@pytest.mark.parametrize("argv", OPS, ids=workloads.op_id)
def test_operation_meets_its_golden(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "shortroots.cli", *argv, "--json"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    op = workloads.op_id(argv)
    assert golden.mismatch(argv, proc.returncode, proc.stdout, proc.stderr, GOLDEN[op]) is None


def _library_value(value):
    """json.dumps' form of a value type (a RootSystemSpec) and a polynomial,
    as the payload holds them.  A record is a tuple, which json.dumps
    writes as a list, so a record in a payload shows as a mismatch."""
    return value.to_json() if hasattr(value, "to_json") else value._asdict()


@pytest.mark.parametrize("argv", OPS, ids=workloads.op_id)
def test_the_writer_is_json_dumps_on_every_operations_payload(argv):
    # what --json prints, and each check's details as verify's text shows a
    # failure; a refused operation has no payload.  Details are JSON values
    # as they stand, so json.dumps writes them with no default
    args = _plain_args(argv + ["--json"])
    command = importlib.import_module(f"shortroots.cmd_{args.command.replace('-', '_')}")
    try:
        payload, _, _ = command.run(args)
    except SizeLimitExceeded:
        return
    value = {"schemaVersion": SCHEMA_VERSION, **payload}
    assert dumps(value, indent=2) == json.dumps(value, indent=2, sort_keys=True,
                                                default=_library_value)
    for check in payload.get("checks", []):
        assert dumps(check["details"]) == json.dumps(check["details"], sort_keys=True)
