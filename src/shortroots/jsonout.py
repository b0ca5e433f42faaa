"""The CLI's JSON writer.  On a value built of dicts with str keys, lists,
tuples, strs, ints, finite floats, bools and None, ``dumps(value)`` is
``json.dumps(value, sort_keys=True)`` and ``dumps(value, indent=2)`` is
``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.  At any
depth it writes the library's values as such values: a polynomial (a
value with ``to_json``) as that form, and a result record or a value
type as the dict of its fields, ``_asdict()``.  Strings are escaped as
``json`` escapes them by default: every character outside printable
ASCII, and ``"`` and ``\\``, with the short escapes where JSON has one,
``\\u00XX`` otherwise and a surrogate pair beyond the BMP.  Floats read
as ``float.__repr__``.  A dict key of another type, and a value of any
other type, is refused with ``TypeError``.

The CLI writes nothing but these values, so it imports this module in
place of ``json``, whose decoder loads ``re`` and ``enum``; ``import
shortroots.cli`` does not load it, only a ``--json`` run and ``verify``'s
failure line do."""

__all__ = ["dumps"]


class _Escapes(dict):
    """``str.translate``'s table for a JSON string: printable ASCII maps to
    itself, ``"``, ``\\`` and the five controls with a short escape to it,
    and any other code point, filled in on first use, to its ``\\u``
    escape."""

    def __missing__(self, code):
        if code < 0x10000:
            escape = f"\\u{code:04x}"
        else:
            code -= 0x10000
            escape = f"\\u{0xd800 | code >> 10:04x}\\u{0xdc00 | code & 0x3ff:04x}"
        self[code] = escape
        return escape


_ESCAPES = _Escapes({code: chr(code) for code in range(0x20, 0x7f)})
_ESCAPES.update({ord(c): e for c, e in zip('"\\\n\r\t\b\f', ('\\"', "\\\\", "\\n", "\\r",
                                                             "\\t", "\\b", "\\f"))})


def dumps(value, indent=None) -> str:
    """``json.dumps(value, indent=indent, sort_keys=True)``."""
    return _encode(value, None if indent is None else "\n", " " * (indent or 0))


def _encode(value, newline, step):
    """value as JSON; newline is None for one line, else the line break and
    indentation that start each of value's items less one step."""
    if isinstance(value, str):
        return '"' + value.translate(_ESCAPES) + '"'
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    if hasattr(value, "to_json"):   # a polynomial: its exact form, a dict
        value = value.to_json()
    elif hasattr(value, "_asdict"):   # a record (a tuple too) or a value type: its fields
        value = value._asdict()
    inner = None if newline is None else newline + step
    if isinstance(value, (list, tuple)):
        items, brackets = [_encode(item, inner, step) for item in value], "[]"
    elif isinstance(value, dict):
        items = [_key(k) + ": " + _encode(v, inner, step) for k, v in sorted(value.items())]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    if newline is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _key(key):
    if isinstance(key, str):
        return _encode(key, None, "")
    raise TypeError(f"keys must be str, not {type(key).__name__}")
