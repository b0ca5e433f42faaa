"""The CLI's JSON writer against ``json.dumps``: both forms the CLI writes,
byte for byte, on seeded random values and on the edge values of each
type; and the library's records, value types and polynomials, which it
writes by their fields and their exact form."""

import json
import random

import pytest

from shortroots import RootSystemSpec, build, dimension_ledger
from shortroots.gradedchar import QPoly
from shortroots.jsonout import dumps

# every ASCII character (the two that JSON escapes among them twice), two of
# Latin-1, the line separator, two lone surrogates, the BMP's last code point
# and two beyond the BMP
_CHARS = ([chr(c) for c in range(0x80)] + ['"', "\\", "\xe9", "\xff", "\u2028", "\ud800",
                                            "\udfff", "\uffff", "\U0001f600", "\U0010ffff"])
_FLOATS = [0.0, -0.0, 0.1, 1e16, 1e-7, -2.5e-300, 1.7976931348623157e308, 5e-324,
           1 / 3, 123456789.125]


def _text(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(8)))


def _value(rng, depth=0):
    """A random JSON value: containers (often empty) down to depth 4, then
    scalars; big ints, finite floats and strings of any character."""
    kind = rng.randrange(10 if depth < 4 else 6)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, -1, 2**63, -(10**40), rng.randrange(-10**6, 10**6)])
    if kind == 2:
        return rng.choice(_FLOATS + [rng.uniform(-1e6, 1e6), round(rng.random(), 3)])
    if kind in (3, 4, 5):
        return _text(rng)
    if kind in (6, 7):
        items = [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
        return items if rng.random() < 0.5 else tuple(items)
    return {_text(rng): _value(rng, depth + 1) for _ in range(rng.randrange(4))}


def test_the_writer_is_json_dumps_on_random_values():
    rng = random.Random(20260523)
    values = [_value(rng) for _ in range(10_000)]
    assert [v for v in values if dumps(v) != json.dumps(v, sort_keys=True)] == []
    assert [v for v in values
            if dumps(v, indent=2) != json.dumps(v, indent=2, sort_keys=True)] == []


@pytest.mark.parametrize("value", [
    "", "\x7f", "\x00\x1f\b\f\n\r\t", '"\\/', "\U0001f600", "\U00010000", "\udfff",
    10**200, -0.0, 1e300, [], {}, [[]], {"": {}},
    {"b": 1, "a": [1, {"d": None, "c": (True, False)}]}, {"b": 0, "B": 0, "\u00e9": 0, "10": 0},
], ids=repr)
def test_the_writer_is_json_dumps_on_edge_values(value):
    for indent in (None, 0, 2):
        assert dumps(value, indent=indent) == json.dumps(value, indent=indent, sort_keys=True)


@pytest.mark.parametrize("value", [{1, 2}, b"x", object(), {(1,): 0}, {1: 0}, [{None: 0}]])
def test_the_writer_refuses_what_the_cli_never_writes(value):
    # json.dumps writes an int, bool or None key as a string; no CLI value
    # has one, so the writer refuses it as it refuses a type json refuses
    with pytest.raises(TypeError):
        dumps(value)


def test_the_writer_writes_a_record_as_a_dict_of_its_fields():
    # a record, though a tuple, and a value type as the map of their fields;
    # a polynomial as its exact form; at any depth
    ledger = dimension_ledger(build("C4"))
    fields = {"module_dim": 27, "module_nullcone_dim": 24, "reduction_dim": 15,
              "reduction_nullcone_dim": 12, "transition_factor": 2}
    assert ledger._asdict() == fields
    poly = QPoly({0: 1, 2: -3, 10: 5}, 12)
    form = {"truncation": 12, "coeffs": {"0": 1, "2": -3, "10": 5}}
    assert poly.to_json() == form
    for indent in (None, 2):
        assert dumps(ledger, indent=indent) == json.dumps(fields, indent=indent, sort_keys=True)
        assert dumps(RootSystemSpec("C", 4), indent=indent) == json.dumps(
            {"family": "C", "rank": 4}, indent=indent)
        assert dumps(poly, indent=indent) == json.dumps(form, indent=indent, sort_keys=True)
        assert dumps([ledger, (1, 2), {"p": [poly]}], indent=indent) == json.dumps(
            [fields, [1, 2], {"p": [form]}], indent=indent, sort_keys=True)
