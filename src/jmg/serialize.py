"""Deterministic JSON writer.

Identical documents serialize to identical bytes: keys are sorted, floats are
printed at 17 significant digits (enough to round-trip a double), and no
locale- or hash-order-dependent state is involved.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import InputError


class Literals(list):
    """A read-only list of strings that JSON writes unchanged (printable
    ASCII without quote or backslash), with `text`, the JSON text of the
    whole list, which `dumps` writes as it stands.  `Literals(rows, text)`
    holds the strings of the lists `rows`, in order.  Every mutator raises
    TypeError, so the text cannot go stale; the list compares equal to a
    plain one, and `list(literals)` is one."""

    __slots__ = ("text",)

    def __new__(cls, rows, text: str):
        # list.__iadd__ extends in place, a row at a time, at C speed
        self = reduce(list.__iadd__, rows, super().__new__(cls))
        object.__setattr__(self, "text", text)
        return self

    def __init__(self, rows, text: str):
        pass  # filled by __new__; list.__init__ would refill the list

    def _read_only(self, *args, **kwargs):
        raise TypeError("Literals is read-only")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only
    __setattr__ = __delattr__ = _read_only


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
    if type(items) is Literals:
        out.append(items.text)
        return
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
