"""Reading a document's compact entries lists from its text
(`linalg.lift_entries`, `cli._parse_json`, the `Raw` path of
`matrices_from_json_obj`) against the stdlib parse of the whole text and the
list path: the same matrices, or the same error, on written documents and on
mutations of them."""

import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jmg import cli
from jmg.errors import InputError, fields
from jmg.graphs import parse_graph
from jmg.linalg import RationalMatrix, lift_entries, matrices_from_json_obj, matrices_to_json_obj
from jmg.povm import povm_from_json_obj
from jmg.realize import (
    extend_outcomes,
    make_faithful,
    pvm_realization_from_json_obj,
    pvm_realization_to_json_obj,
    realization_from_json_obj,
    realization_to_json_obj,
    realize_direct_sum,
    realize_rank_one,
    restrict_to_span,
)
from jmg.serialize import Raw, dumps

from helpers import wire


def read_matrices(obj):
    return matrices_from_json_obj(fields(obj, "document", "matrices")[0])


def base_documents() -> list:
    """(reader, text) of documents as the writers write them."""
    docs = []
    for text in ("3; 0-1, 0-2", "4; 0-1, 1-2, 2-3", "2;", "3; 0-1, 0-2, 1-2"):
        g = parse_graph(text)
        ds, r1 = realize_direct_sum(g), realize_rank_one(g)
        for r in (ds, r1, make_faithful(r1), restrict_to_span(r1)):
            docs.append((realization_from_json_obj, dumps(realization_to_json_obj(r))))
        pvms = extend_outcomes(ds, dict.fromkeys(range(g.vertex_count), 3))
        docs.append((pvm_realization_from_json_obj, dumps(pvm_realization_to_json_obj(pvms))))
    wide = RationalMatrix.from_rows([[2**62, Fraction(-1, 3)], [2**62, Fraction(-1, 3)], [0, 2**70 + 1]])
    mats = [
        RationalMatrix.zeros(0, 3), RationalMatrix.zeros(3, 0), RationalMatrix.zeros(0, 0),
        RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]),
        wide, wide * Fraction(1, 7), RationalMatrix.identity(2), np.array([[1j, 0.5], [0, -2]]),
        RationalMatrix.from_rows([[1, 0], [0, 0]]),
    ]
    docs.append((read_matrices, dumps({"matrices": matrices_to_json_obj(mats)})))
    # a rational POVM whose labels are not ASCII, written compact without
    # escaping them
    halves = matrices_to_json_obj([RationalMatrix.from_rows([[1, 0], [0, 0]]), RationalMatrix.from_rows([[0, 0], [0, 1]])])
    povm = {"space_dim": 2, "outcomes": ["α", "β"], "elements": dict(zip(["α", "β"], wire(halves)))}
    docs.append((povm_from_json_obj, json.dumps(povm, ensure_ascii=False, separators=(",", ":"))))
    return docs


DOCS = base_documents()
LITERAL = re.compile(r'"-?[0-9]+/[0-9]+"')


def at(old: str, new: str):
    """A mutation that replaces one occurrence of `old`, chosen by k."""
    def mutate(text, k):
        spots = [m.start() for m in re.finditer(re.escape(old), text)]
        if not spots:
            return text
        i = spots[k % len(spots)]
        return text[:i] + new + text[i + len(old):]
    return mutate


def at_literal(new: str, pattern=LITERAL):
    """A mutation that replaces one literal (or match of `pattern`), chosen by k."""
    def mutate(text, k):
        spots = list(pattern.finditer(text))
        if not spots:
            return text
        m = spots[k % len(spots)]
        return text[: m.start()] + new + text[m.end():]
    return mutate


MUTATIONS = {
    # whitespace inside and around a list
    "space-after-colon": at('"entries":[', '"entries": ['),
    "space-after-bracket": at('"entries":[', '"entries":[ '),
    "space-after-comma": at('","', '", "'),
    "space-before-close": at('"]', '" ]'),
    "newline-after-close": at('"]', '"]\n'),
    "space-in-object": at('{"', '{ "'),
    "space-before-key": at(',"entries"', ', "entries"'),
    "space-around-document": lambda t, k: " \n" + t + "\t",
    # literals that are not plain
    "escaped-digit": at('"1/', '"\\u0031/'),
    "zero-denominator": at_literal('"1/0"'),
    "bracket-in-literal": at_literal('"1]/2"'),
    "lone-bracket-literal": at_literal('"]"'),
    "comma-in-literal": at_literal('"1,/2"'),
    "lone-comma-literal": at_literal('","'),
    "escaped-quote-in-literal": at_literal('"1\\"/2"'),
    "list-closing-literal": at_literal('"],"k":["'),
    "padded": at_literal('" 1/2 "'),
    "unreduced": at_literal('"2/4"'),
    "decimal": at_literal('"0.5"'),
    "int": at_literal("1"),
    "negative-zero": at_literal('"-0/1"'),
    "leading-zero": at_literal('"01/2"'),
    "exponent": at_literal('"1e3"'),
    "control-character": at_literal('"1\x01/2"'),
    "not-ascii": at_literal('"½"'),
    "empty-literal": at_literal('""'),
    # constants and the key elsewhere in the document
    "nan-value": at('{"', '{"x":NaN,"'),
    "infinity-value": at('{"', '{"x":-Infinity,"'),
    "nan-in-string": at('{"', '{"x":"NaN","'),
    "entries-in-key": at('{"', '{"a,\\"entries\\":[\\"1/2\\"]":1,"'),
    "entries-in-value": at('{"', '{"a":"{\\"entries\\":[\\"1/2\\"]","'),
    "entries-elsewhere": at('{"', '{"z":{"entries":["1/2","x"]},"'),
    "duplicate-key": at('"entries":[', '"entries":["9/7"],"entries":['),
    "duplicate-key-empty": at('"entries":[', '"entries":[],"entries":['),
    # entry counts and structure
    "extra-entry": at('","', '","0/1","'),
    "missing-entry": at_literal("", re.compile(r'"-?[0-9]+/[0-9]+",')),
    "missing-comma": at('","', '" "'),
    "double-comma": at('","', '",,"'),
    "unclosed-list": at('"]', '"'),
    "truncated": lambda t, k: t[: len(t) * (k % 10 + 1) // 11],
}


def text_read(reader, text):
    """The document through `cli._parse_json` and `reader`, or the error text."""
    try:
        return canon(reader(cli._parse_json(text, "f.json")))
    except InputError as exc:
        return str(exc)


def reference_read(reader, text):
    """The document through `json.loads` of the whole text, which holds
    only lists, and `reader`, or the error text."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return f"f.json: invalid JSON ({exc})"
    try:
        return canon(reader(obj))
    except InputError as exc:
        return str(exc)


def canon(x):
    """`x` in a form that compares equal exactly when the values, shapes,
    dtypes and denominators do."""
    if isinstance(x, RationalMatrix):
        return ("rational", x.shape, x.denominator, x._num.dtype.str, x._num.tolist())
    if isinstance(x, np.ndarray):
        return ("array", x.shape, x.dtype.str, x.tobytes())
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {k: canon(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)})
    return x


class TestTextPath:
    @pytest.mark.parametrize("reader, text", DOCS)
    def test_written_documents_take_the_text_path(self, reader, text):
        skeleton, lists = lift_entries(text)
        assert len(lists) == text.count('"entries":["') and all(type(r) is Raw for r in lists)
        assert text_read(reader, text) == reference_read(reader, text)
        assert not isinstance(text_read(reader, text), str)

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, len(DOCS) - 1),
        st.lists(st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, 10**6)), min_size=1, max_size=2),
    )
    @example(0, [("entries-in-key", 0)])
    @example(len(DOCS) - 1, [("not-ascii", 0)])
    def test_mutations_read_as_the_stdlib_parse(self, doc, mutations):
        reader, text = DOCS[doc]
        for name, k in mutations:
            text = MUTATIONS[name](text, k)
        assert text_read(reader, text) == reference_read(reader, text)


class TestLift:
    def test_cuts_and_constants(self):
        text = '{"a":{"entries":["1/2","0/1"],"rows":1},"b":[{"entries":["x"]}]}'
        skeleton, lists = lift_entries(text)
        assert skeleton == '{"a":{"entries":NaN,"rows":1},"b":[{"entries":NaN}]}'
        assert lists == [Raw('["1/2","0/1"]'), Raw('["x"]')]

    @pytest.mark.parametrize(
        "text",
        [
            '{"entries": ["1/2"]}',  # not compact
            '{"entries":[1]}',  # no string first
            '{"entries":["1/2" ,"0/1"]}',
            '{"entries":["\\u0031/2"]}',
            '{"x":NaN,"entries":["1/2"]}',
            '{"x":Infinity,"entries":["1/2"]}',
            '"entries":["1/2"]',
            '["entries":["1/2"]]',
        ],
    )
    def test_nothing_cut(self, text):
        assert lift_entries(text) == (text, [])

    def test_a_bad_list_is_left_and_the_rest_cut(self):
        text = '{"p":[{"entries":["1/2"]},{"entries":["a" "b"]},{"entries":["0/1"]}]}'
        skeleton, lists = lift_entries(text)
        assert lists == [Raw('["1/2"]'), Raw('["0/1"]')]
        assert skeleton == '{"p":[{"entries":NaN},{"entries":["a" "b"]},{"entries":NaN}]}'


class TestRawEntries:
    """`matrices_from_json_obj` reads a `Raw` of any JSON list as that list."""

    @pytest.mark.parametrize(
        "text",
        ['["1/2","0/1","2/4","-3/1"]', '["1/2", "0/1","2/4","-3/1"]', '["1/2","0/1","0.5",7]',
         '["1/2","0/1"]', '["1,2","3","4"]', '["1/2","1/0","x","0/1"]', "[]", '["1/2","0/1",',
         '[x1/2","3/4x,"0/1","0/1"]'],
    )
    def test_as_the_list(self, text):
        obj = {"rows": 2, "cols": 2, "scalar": "rational", "entries": Raw(text)}
        try:
            want = canon(matrices_from_json_obj([{**obj, "entries": json.loads(text)}]))
        except ValueError as exc:  # InputError is one too
            want = exc if isinstance(exc, InputError) else InputError(f"matrix entries are not valid JSON ({exc})")
        try:
            got = canon(matrices_from_json_obj([obj]))
        except InputError as exc:
            got = exc
        assert str(got) == str(want)

    def test_writer_objects_read_back(self):
        mats = [RationalMatrix.from_rows([[Fraction(1, 3), 0], [0, 1]]), np.array([[1j]]), RationalMatrix.zeros(2, 0)]
        assert canon(matrices_from_json_obj(matrices_to_json_obj(mats))) == canon(mats)
