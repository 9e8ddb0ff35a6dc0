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


def dumps(obj) -> str:
    """`obj` as compact JSON: no whitespace, keys sorted."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


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
    elif isinstance(obj, (list, tuple)):
        _write_seq(obj, out)
    elif isinstance(obj, dict):
        _write_map(obj, out)
    else:
        raise InputError(f"cannot serialize value of type {type(obj).__name__}")


def _write_seq(items, out: list[str]) -> None:
    out.append("[")
    if items and type(items[0]) is float and set(map(type, items)) == {float}:
        # an all-float list (an [re, im] pair) in one join; a list holding a
        # bool or an int takes the item-by-item path, which spells those
        out.append(",".join(map(format_float, items)))
    else:
        try:
            # raises TypeError at the first item that is not a str
            text = "".join(items)
        except TypeError:
            for i, item in enumerate(items):
                if i:
                    out.append(",")
                _write(item, out)
        else:
            if items and text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
                # strings the encoder writes unchanged (the literals of a
                # rational matrix), quoted in one join
                out.append('"' + '","'.join(items) + '"')
            else:
                out.append(",".join(map(encode_basestring_ascii, items)))
    out.append("]")


def _write_map(obj: dict, out: list[str]) -> None:
    keys = sorted(obj)
    for k in keys:
        if not isinstance(k, str):
            raise InputError("JSON object keys must be strings")
    out.append("{")
    for i, k in enumerate(keys):
        if i:
            out.append(",")
        out.append(encode_basestring_ascii(k))
        out.append(":")
        _write(obj[k], out)
    out.append("}")
