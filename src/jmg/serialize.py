"""Deterministic JSON writer.

Identical documents serialize to identical bytes: keys are sorted, floats are
printed at 17 significant digits (enough to round-trip a double), and no
locale- or hash-order-dependent state is involved.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

from .errors import InputError


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InputError(f"non-finite float {x!r} is not serializable")
    return format(float(x), ".17g")


def dumps(obj, pretty: bool = False) -> str:
    pieces: list[str] = []
    _write(obj, pieces, 0, pretty)
    return "".join(pieces)


def _write(obj, out: list[str], depth: int, pretty: bool) -> None:
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
    elif isinstance(obj, (list, tuple)):
        _write_seq(list(obj), out, depth, pretty)
    elif isinstance(obj, dict):
        _write_map(obj, out, depth, pretty)
    else:
        raise InputError(f"cannot serialize value of type {type(obj).__name__}")


def _write_seq(items: list, out: list[str], depth: int, pretty: bool) -> None:
    if not items:
        out.append("[]")
        return
    indent = "\n" + "  " * (depth + 1) if pretty else ""
    out.append("[" + indent)
    try:
        # an all-string list (the entries of a rational matrix) in one join;
        # the encoder raises TypeError at the first item that is not a str
        out.append(("," + indent).join(map(encode_basestring_ascii, items)))
    except TypeError:
        for i, item in enumerate(items):
            if i:
                out.append("," + indent)
            _write(item, out, depth + 1, pretty)
    if pretty:
        out.append("\n" + "  " * depth)
    out.append("]")


def _write_map(obj: dict, out: list[str], depth: int, pretty: bool) -> None:
    keys = sorted(obj)
    for k in keys:
        if not isinstance(k, str):
            raise InputError("JSON object keys must be strings")
    if not keys:
        out.append("{}")
        return
    out.append("{")
    for i, k in enumerate(keys):
        if i:
            out.append(",")
        if pretty:
            out.append("\n" + "  " * (depth + 1))
        out.append(encode_basestring_ascii(k))
        out.append(": " if pretty else ":")
        _write(obj[k], out, depth + 1, pretty)
    if pretty:
        out.append("\n" + "  " * depth)
    out.append("}")
