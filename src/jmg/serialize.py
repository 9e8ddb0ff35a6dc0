"""Deterministic JSON writer.

Identical documents serialize to identical bytes: keys are sorted, floats are
printed at 17 significant digits (enough to round-trip a double), and no
locale- or hash-order-dependent state is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .errors import InputError


@dataclass(frozen=True, slots=True)
class Raw:
    """JSON text that `dumps` writes as it stands.  The matrix writer
    (`linalg.matrices_to_json_obj`) hands its entries over this way, and the
    CLI's reader (`linalg.lift_entries`) hands compact entries lists of a
    file over this way to the matrix reader, which takes either; stdlib
    `json.dumps` raises TypeError on it rather than quoting it."""

    text: str


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InputError(f"non-finite float {x!r} is not serializable")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """`obj` as compact JSON: no whitespace, keys sorted."""
    return "".join(pieces(obj))


def pieces(obj) -> list[str]:
    """The texts that `dumps(obj)` joins, in order: a writer of a large
    document takes them a few at a time and never holds it whole."""
    out: list[str] = []
    _write(obj, out)
    return out


def _write(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, Raw):
        out.append(obj.text)
    elif isinstance(obj, (list, tuple)):
        _write_seq(obj, out)
    elif isinstance(obj, dict):
        _write_map(obj, out)
    else:
        raise InputError(f"cannot serialize value of type {type(obj).__name__}")


def _write_seq(items, out: list[str]) -> None:
    out.append("[")
    for i, item in enumerate(items):
        if i:
            out.append(",")
        _write(item, out)
    out.append("]")


def _write_map(obj: dict, out: list[str]) -> None:
    # checked before sorting, which would raise its own TypeError on mixed keys
    if not all(isinstance(k, str) for k in obj):
        raise InputError("JSON object keys must be strings")
    out.append("{")
    for i, k in enumerate(sorted(obj)):
        if i:
            out.append(",")
        out.append(encode_basestring_ascii(k))
        out.append(":")
        _write(obj[k], out)
    out.append("}")
