"""Canonical text formatting shared by the serializers and report writers.

Every number that reaches a file or a report goes through these helpers so
that identical inputs always produce byte-identical outputs.
"""

from __future__ import annotations

import re


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trips exactly)."""
    if x != x:
        raise ValueError("NaN is not representable in canonical output")
    return "%.17g" % x


def fmt_int(x: int) -> str:
    return "%d" % x


def canonical_json(value) -> str:
    """Serialize nested dicts, lists, strings, ints and floats to
    deterministic JSON text.

    Dict keys are emitted in insertion order (callers build reports in their
    documented key order); floats use 17 significant digits.  There is no
    null, true or false: a report leaves out a value it does not have.
    """
    out: list[str] = []
    _write(value, out)
    return "".join(out)


def _write(value, out: list[str]) -> None:
    if isinstance(value, int):
        out.append(fmt_int(value))
    elif isinstance(value, float):
        out.append(fmt_float(value))
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(_quote(key))
            out.append(": ")
            _write(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}

# Any character that ``_quote`` does not copy as it is.
_SPECIAL = re.compile(r'["\\\x00-\x1f]')


def _escape(m: re.Match) -> str:
    ch = m.group()
    return _ESCAPES.get(ch) or "\\u%04x" % ord(ch)


def _quote(s: str) -> str:
    return '"' + _SPECIAL.sub(_escape, s) + '"'
