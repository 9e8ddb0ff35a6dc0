import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmg.errors import InputError
from jmg.serialize import dumps, format_float


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
        ],
        ids=["empty", "one-empty", "two-empty", "del", "del-inside", "quote", "backslash",
             "then-int", "tuple"],
    )
    def test_matches_json_dumps(self, items):
        assert dumps(items) == json.dumps(items, separators=(",", ":"))

    def test_str_subclass_items(self):
        class Literal(str):
            pass

        items = [Literal("1/2"), "0/1", Literal('"')]
        assert dumps(items) == json.dumps(items, separators=(",", ":"))
        assert dumps(items[:2]) == '["1/2","0/1"]'
