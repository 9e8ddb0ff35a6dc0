"""Deterministic JSON writer.

Identical documents serialize to identical bytes: keys are sorted, floats are
printed at 17 significant digits (enough to round-trip a double), and no
locale- or hash-order-dependent state is involved.
"""

from __future__ import annotations

import math
from itertools import chain
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
    first = type(items[0]) if items else None
    if first is float and set(map(type, items)) == {float} and all(map(math.isfinite, items)):
        # a float list in one `%` format, which spells a float as format_float
        # does; a list holding a bool, an int or a float subclass, or a value
        # format_float rejects, takes the item-by-item path
        out.append("[" + ",".join(["%.17g"] * len(items)) % tuple(items) + "]")
        return
    if first is list and set(map(type, items)) == {list} and set(map(len, items)) == {2}:
        # the [re, im] entries of a complex matrix, likewise in one format
        parts = tuple(chain.from_iterable(items))
        if set(map(type, parts)) == {float} and all(map(math.isfinite, parts)):
            out.append("[" + ",".join(["[%.17g,%.17g]"] * len(items)) % parts + "]")
            return
    out.append("[")
    text = None
    if items and isinstance(items[0], str):
        try:
            # raises TypeError at the first item that is not a str
            text = "".join(items)
        except TypeError:
            pass
    if text is None:
        for i, item in enumerate(items):
            if i:
                out.append(",")
            _write(item, out)
    elif text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        # strings the encoder writes unchanged (the literals of a rational
        # matrix), quoted in one join
        out.append('"' + '","'.join(items) + '"')
    else:
        out.append(",".join(map(encode_basestring_ascii, items)))
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
