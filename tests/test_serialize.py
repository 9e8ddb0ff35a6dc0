import hashlib
import json
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmg import serialize
from jmg.errors import InputError
from jmg.linalg import RationalMatrix, matrices_to_json_obj
from jmg.serialize import Literals, dumps, format_float

from helpers import reference_dumps


class TestFormatFloat:
    def test_seventeen_significant_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(0.5) == "0.5"
        assert format_float(1.0) == "1"

    def test_round_trips_doubles(self):
        for x in (1 / 3, 2**-52, 1e300, -0.1234567890123456789):
            assert float(format_float(x)) == x

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            format_float(math.nan)
        with pytest.raises(InputError):
            format_float(math.inf)


class TestDumps:
    def test_sorted_keys_compact(self):
        assert dumps({"b": 1, "a": [True, None, "x"]}) == '{"a":[true,null,"x"],"b":1}'

    def test_valid_json(self):
        doc = {"nested": {"v": [0.1, -2, "s"]}, "empty": [], "none": None}
        assert json.loads(dumps(doc)) == {
            "nested": {"v": [0.1, -2, "s"]},
            "empty": [],
            "none": None,
        }

    def test_deterministic(self):
        doc = {"k": [i * 0.3 for i in range(10)]}
        assert dumps(doc) == dumps({"k": [i * 0.3 for i in range(10)]})

    def test_rejects_non_string_keys(self):
        with pytest.raises(InputError):
            dumps({1: "x"})

    @pytest.mark.parametrize("doc", [{1: 0, "a": 1}, {None: 1, "a": 2}, {"a": {(1,): 2, "b": 3}}])
    def test_rejects_mixed_keys_before_sorting(self, doc):
        # sorted() alone raises a TypeError on keys it cannot compare
        with pytest.raises(InputError, match="^JSON object keys must be strings$"):
            dumps(doc)

    def test_rejects_unknown_types(self):
        with pytest.raises(InputError):
            dumps({"x": object()})


class TestStringLists:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text()))
    def test_matches_json_dumps(self, items):
        assert dumps(items) == json.dumps(items, separators=(",", ":"))

    def test_non_ascii_and_control_characters(self):
        items = ["\u00e9", "\n\t\x00\x1f", '"\\', "\U0001f600", "\ud800", "1/2"]
        assert dumps(items) == json.dumps(items, separators=(",", ":"))

    def test_mixed_lists_fall_back(self):
        doc = {"m": ["a", 1, None, ["b", 2.5]], "s": ["x", "y"]}
        assert dumps(doc) == json.dumps(doc, separators=(",", ":"), sort_keys=True)


class TestFloatLists:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_matches_item_by_item(self, items):
        expected = "[" + ",".join(format_float(x) for x in items) + "]"
        assert dumps(items) == expected
        assert json.loads(dumps(items)) == items

    def test_bool_and_int_keep_their_spelling(self):
        assert dumps([0.5, True, 2, False]) == "[0.5,true,2,false]"
        assert dumps([1.0, 1]) == "[1,1]"
        assert dumps([[1.5, -2.0], [0.0, True]]) == "[[1.5,-2],[0,true]]"

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            dumps([0.5, math.nan])


class TestStringListEdges:
    @pytest.mark.parametrize(
        "items",
        [
            [],
            [""],
            ["", ""],
            ["\x7f"],
            ["0/1", "\x7f", "1/2"],
            ["0/1"] * 5_000 + ['a"b'] + ["0/1"] * 5_000,
            ["0/1"] * 5_000 + ["\\"] + ["0/1"] * 5_000,
            ["0/1"] * 10_000 + [7],
            ("1/2", "-3/4"),
            [1, "a"],
            ["a", 1],
        ],
        ids=["empty", "one-empty", "two-empty", "del", "del-inside", "quote", "backslash",
             "then-int", "tuple", "int-then-str", "str-then-int"],
    )
    def test_matches_json_dumps(self, items):
        assert dumps(items) == json.dumps(items, separators=(",", ":"))

    def test_str_subclass_items(self):
        class Literal(str):
            pass

        items = [Literal("1/2"), "0/1", Literal('"')]
        assert dumps(items) == json.dumps(items, separators=(",", ":"))
        assert dumps(items[:2]) == '["1/2","0/1"]'


def bit_pattern_floats(rng: random.Random, count: int) -> list:
    """`count` finite doubles with uniformly random bit patterns."""
    out = []
    while len(out) < count:
        (x,) = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))
        if math.isfinite(x):
            out.append(x)
    return out


SPECIALS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 2.2250738585072014e-308,
    1e16, -1e16, 1.7976931348623157e308, 2.0**53, 2.0**53 + 2, 3.0, -7.0, 0.1, 1 / 3,
]


def synthetic_document(seed: int = 15) -> dict:
    """Every kind of list the writer meets, built from the seeded stream of
    Python's `random` (no BLAS, no NumPy generator)."""
    rng = random.Random(seed)
    floats = bit_pattern_floats(rng, 600)
    pairs = [floats[i : i + 2] for i in range(0, 200, 2)] + [[x, -x] for x in SPECIALS]
    rng.shuffle(pairs)
    return {
        "complex": {"rows": len(pairs), "cols": 1, "scalar": "complex", "entries": pairs},
        "floats": floats[200:400] + SPECIALS,
        "integral": [float(k) for k in range(-8, 9)] + [1e15, -2.0**60],
        "int_rows": [[rng.randrange(-9, 10), x] for x in floats[400:430]],
        "int_pairs": [[rng.randrange(-9, 10), rng.randrange(-9, 10)] for _ in range(12)],
        "numpy": [np.float64(x) for x in floats[430:450]],
        "numpy_pairs": [[np.float64(x), y] for x, y in zip(floats[450:460], floats[460:470])],
        "with_bool": [0.5, True, -0.0, False, 2.0],
        "bool_pairs": [[True, 1.0], [0.5, 0.25]],
        "tuples": [tuple(floats[i : i + 2]) for i in range(470, 490, 2)],
        "tuple_of_floats": tuple(floats[490:500]),
        "empty": [[], [[]], [[], []], {}],
        "triples": [floats[i : i + 3] for i in range(500, 530, 3)],
        "singles": [[x] for x in floats[530:540]],
        "mixed_pairs": [[0.5, 0.25], [0.5, 1], [0.75, -0.0]],
        "nested": [[[x, y]] for x, y in zip(floats[540:550], floats[550:560])],
        "strings": ["1/2", "-3/4", "0/1"],
        "scalars": [floats[560], 7, None, "x"],
    }


# sha256 of `dumps(synthetic_document())`, written item by item
SYNTHETIC_SHA256 = "d108a351fa416f6d963a91d3aaebde7e370510876a6f6c97b0ea0c8cbd1227a9"


class TestPinnedOutput:
    def test_synthetic_document_digest(self):
        text = dumps(synthetic_document())
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == SYNTHETIC_SHA256

    def test_synthetic_document_matches_reference(self):
        doc = synthetic_document()
        assert dumps(doc) == reference_dumps(doc)
        assert json.loads(dumps(doc))["floats"] == doc["floats"]


def finite_floats():
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(SPECIALS),
        st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0]).filter(math.isfinite),
    )


def any_floats():
    return st.one_of(finite_floats(), st.sampled_from([math.nan, math.inf, -math.inf]))


def documents():
    scalar = st.one_of(any_floats(), st.integers(-3, 3), st.booleans(), st.none(),
                       st.text(max_size=3), finite_floats().map(np.float64))
    pair = st.lists(st.one_of(finite_floats(), scalar), min_size=2, max_size=2)
    leaf_list = st.one_of(
        st.lists(finite_floats(), max_size=6),
        st.lists(any_floats(), max_size=4),
        st.lists(pair, max_size=6),
        st.lists(st.lists(finite_floats(), min_size=2, max_size=2), max_size=6),
        st.lists(st.lists(finite_floats(), min_size=2, max_size=2).map(tuple), max_size=3),
        st.lists(st.lists(finite_floats(), max_size=3), max_size=3),
        st.lists(scalar, max_size=4),
    )
    return st.recursive(
        st.one_of(scalar, leaf_list),
        lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=3)),
        max_leaves=8,
    )


def written(write, doc):
    """The text `write` gives `doc`, or the text of its error."""
    try:
        return write(doc)
    except InputError as exc:
        return f"InputError: {exc}"


class TestReferenceParity:
    @settings(max_examples=60, deadline=None)
    @given(documents())
    def test_matches_reference(self, doc):
        assert written(dumps, doc) == written(reference_dumps, doc)


class TestWholeListFormatting:
    def test_complex_entries_make_no_per_entry_call(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x)
            return format_float(x)

        rng = np.random.default_rng(0)
        obj = matrices_to_json_obj([rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))])[0]
        want = reference_dumps(obj)
        monkeypatch.setattr(serialize, "format_float", counted)
        assert dumps(obj) == want
        assert dumps(obj["entries"][0]) == want[want.index("[[") + 1 : want.index("]") + 1]
        assert calls == []

    @pytest.mark.parametrize(
        "items, text",
        [
            ([[1, 2.0]], "[[1,2]]"),
            ([[True, 1.0]], "[[true,1]]"),
            ([[np.float64(1), 1.0]], "[[1,1]]"),
            ([[0.5, 0.25], [1, 0.5]], "[[0.5,0.25],[1,0.5]]"),
            ([(0.5, 0.25)], "[[0.5,0.25]]"),
            ([[0.5, 0.25], [0.5, 0.25, 0.0]], "[[0.5,0.25],[0.5,0.25,0]]"),
            ([np.float64(0.1), 0.5], "[0.10000000000000001,0.5]"),
        ],
    )
    def test_other_lists_keep_their_bytes(self, items, text):
        assert dumps(items) == reference_dumps(items) == text

    @pytest.mark.parametrize(
        "items, bad",
        [
            ([[1.0, 2.0], [math.inf, math.nan]], "inf"),
            ([[1.0, math.nan], [-math.inf, 0.0]], "nan"),
            ([[0.0, 0.0]] * 3 + [[0.5, -math.inf]], "-inf"),
            ([0.5, -math.inf, math.nan], "-inf"),
        ],
    )
    def test_first_non_finite_value_is_reported(self, items, bad):
        with pytest.raises(InputError) as exc:
            dumps({"entries": items})
        assert str(exc.value) == f"non-finite float {bad} is not serializable"
        assert written(reference_dumps, {"entries": items}) == f"InputError: {exc.value}"

    @settings(max_examples=200, deadline=None)
    @given(finite_floats())
    def test_percent_format_is_format_float(self, x):
        assert "%.17g" % x == format(x, ".17g") == format_float(x)

    def test_percent_format_on_seeded_bit_patterns(self):
        bits = np.random.default_rng(17).integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
        floats = [x for x in bits.view(np.float64).tolist() if math.isfinite(x)]
        assert len(floats) > 99_000
        assert ",".join(["%.17g"] * len(floats)) % tuple(floats) == ",".join(format(x, ".17g") for x in floats)


class TestLiterals:
    """The entries list of a written rational matrix carries its own text."""

    @staticmethod
    def entries():
        rows = [[Fraction(1, 3), 0, Fraction(-2, 9)], [Fraction(1, 3), 0, Fraction(-2, 9)], [1, 1, 1]]
        return matrices_to_json_obj([RationalMatrix.from_rows(rows)])[0]["entries"]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda e: e.append("0/1"),
            lambda e: e.extend(["0/1"]),
            lambda e: e.insert(0, "0/1"),
            lambda e: e.pop(),
            lambda e: e.remove("1/1"),
            lambda e: e.clear(),
            lambda e: e.sort(),
            lambda e: e.reverse(),
            lambda e: e.__setitem__(0, "0/1"),
            lambda e: e.__setitem__(slice(0, 2), []),
            lambda e: e.__delitem__(0),
            lambda e: e.__iadd__(["0/1"]),
            lambda e: e.__imul__(2),
            lambda e: setattr(e, "text", "[]"),
            lambda e: delattr(e, "text"),
        ],
        ids=["append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse", "setitem",
             "setslice", "delitem", "iadd", "imul", "set-text", "del-text"],
    )
    def test_every_mutator_raises(self, mutate):
        entries = self.entries()
        assert type(entries) is Literals
        before, text = list(entries), dumps(entries)
        with pytest.raises(TypeError, match="read-only"):
            mutate(entries)
        assert entries == before and dumps(entries) == text

    def test_plain_copy_writes_the_same_bytes(self):
        entries = self.entries()
        plain = list(entries)
        assert type(plain) is list and plain == entries
        assert dumps(plain) == dumps(entries) == reference_dumps(plain)
        assert dumps(entries) == '["1/3","0/1","-2/9","1/3","0/1","-2/9","1/1","1/1","1/1"]'
        # a copy is a plain list that may change; the written list does not
        plain.append("0/1")
        assert dumps(entries) == dumps(plain[:-1])

    def test_empty(self):
        empty = Literals([[], []], "[]")
        assert empty == [] and dumps({"e": empty}) == '{"e":[]}'

