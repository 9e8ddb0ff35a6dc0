"""The block rule: an exact call checks the entries lists it reads and writes
its --out document a `_BLOCK` at a time, so what it allocates beyond the text
it reads, the lifted entries and the numerator stacks stays bounded."""

import argparse
import errno
import os
import re
import sys
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmg import cli, linalg, realize, serialize
from jmg.errors import InputError
from jmg.linalg import RationalMatrix, _string_items, family_stacks, lift_entries, matrices_to_json_obj
from jmg.serialize import Raw, dumps

from test_golden import LARGE_NON_EDGES
from test_text_read import STRING_ITEMS, TEXTS

BLOCK = linalg._BLOCK


def traced_peak(call):
    """(result of `call()`, the peak of what it allocated, in bytes)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def large_document() -> dict:
    """A document of several blocks: one entries list of about four blocks
    between small values, and a list of small pieces after it."""
    big = Raw("[" + ",".join(['"1/3"'] * (4 * BLOCK // 6)) + "]")
    return {"z": [1.5, "text", big], "a": {"n": 3, "m": [None, True] * BLOCK}}


@pytest.fixture
def r1o3_argv(tmp_path) -> list:
    """A three-outcome rank-one realize call, without --out, on the 16-vertex
    graph of the large golden files: its --out document is 1.1 MB."""
    missing = {tuple(map(int, p.split("-"))) for p in LARGE_NON_EDGES.split(", ")}
    graph = tmp_path / "g16.txt"
    graph.write_text("16; " + ", ".join(f"{a}-{b}" for a, b in combinations(range(16), 2) if (a, b) not in missing))
    return ["realize", str(graph), "--method", "rank-one", "--outcomes", "3"]


def emit(out, payload, report=None):
    args = argparse.Namespace(out=str(out), pretty=False)
    cli._emit(args, {"passed": True} if report is None else report, [], payload)


class TestBlockWrittenOut:
    def test_new_file(self, tmp_path, capsys):
        doc, out = large_document(), tmp_path / "doc.json"
        emit(out, doc)
        text = dumps(doc)
        assert len(text) > 4 * BLOCK
        assert out.read_bytes() == (text + "\n").encode("ascii")
        assert capsys.readouterr().out == '{"passed":true}\n'

    def test_over_a_longer_file(self, tmp_path, capsys):
        doc, out = large_document(), tmp_path / "doc.json"
        out.write_bytes(b"x" * (len(dumps(doc)) + 3 * BLOCK + 5))
        emit(out, doc)
        assert out.read_bytes() == (dumps(doc) + "\n").encode("ascii")

    def test_over_a_shorter_file(self, tmp_path, capsys):
        doc, out = large_document(), tmp_path / "doc.json"
        out.write_bytes(b"y" * (BLOCK + 1))
        emit(out, doc)
        assert out.read_bytes() == (dumps(doc) + "\n").encode("ascii")

    def test_one_report_for_both(self, tmp_path, capsys, monkeypatch):
        doc, out = large_document(), tmp_path / "doc.json"
        calls = []
        real = serialize.pieces
        monkeypatch.setattr(serialize, "pieces", lambda obj: calls.append(obj) or real(obj))
        monkeypatch.setattr(serialize, "dumps", lambda obj: calls.append(obj) or real(obj))
        emit(out, doc, doc)
        assert calls == [doc]
        assert capsys.readouterr().out.encode("ascii") == out.read_bytes() == (dumps(doc) + "\n").encode("ascii")

    def test_failed_write_leaves_stdout_empty(self, r1o3_argv, tmp_path, capsys, monkeypatch):
        # the disk fills after the first block
        real_write, written = os.write, []

        def write(fd, data):
            if written:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            written.append(len(data))
            return real_write(fd, data)

        out = tmp_path / "r.json"
        monkeypatch.setattr(os, "write", write)
        assert cli.main([*r1o3_argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert written == [BLOCK]

    def test_unwritable_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "doc.json"
        with pytest.raises(InputError, match=f"^cannot write {re.escape(str(out))}: "):
            emit(out, large_document())
        assert capsys.readouterr().out == ""
        assert cli.main(["demo", "fork", "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""


# JSON documents of the values the writer takes: nested lists and objects
# whose keys come unsorted, with floats, ASCII and other strings, and Raws
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=40).map(Raw),
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=6), st.dictionaries(st.text(max_size=5), inner, max_size=6)),
    max_leaves=30,
)


@settings(max_examples=100, deadline=None)
@given(DOCUMENTS, st.sampled_from([1, 2, 3, 7, 64, BLOCK]))
def test_blocks_join_to_dumps(doc, block):
    with mock.patch.object(cli, "_BLOCK", block):
        blocks = list(cli._blocks(serialize.pieces(doc)))
    assert b"".join(blocks) == dumps(doc).encode("ascii")
    assert all(len(b) <= block for b in blocks)
    # every block but the last is full
    assert all(len(b) == block for b in blocks[:-1])


@settings(max_examples=200, deadline=None)
@given(st.lists(TEXTS, min_size=1, max_size=6), st.sampled_from([1, 2, 5, 16]))
def test_string_items_run_by_run(texts, block):
    # runs of one text, of a few, and of all of them give the per-text rule
    with mock.patch.object(linalg, "_BLOCK", block):
        assert _string_items(iter(texts)) == all(STRING_ITEMS.fullmatch(t) for t in texts)


def test_string_items_of_nothing():
    assert not _string_items(iter([]))


def entries_document(count: int) -> tuple[str, list]:
    """The wire text of `count` random 62 x 62 matrices, and the matrices."""
    rng = np.random.default_rng(count)
    mats = [RationalMatrix(rng.integers(-2, 3, size=(62, 62))) for _ in range(count)]
    return dumps({"matrices": matrices_to_json_obj(mats)}), mats


class TestPeaks:
    """What a call allocates beyond what it returns, traced."""

    def test_lift_entries(self):
        text, _ = entries_document(48)
        assert len(text) > 2**20
        (skeleton, lists), peak = traced_peak(lambda: lift_entries(text))
        assert len(lists) == 48
        # the check joins and encodes a run of lists, not all of them
        kept = sys.getsizeof(skeleton) + sum(sys.getsizeof(r.text) for r in lists)
        assert peak <= kept + 4 * BLOCK

    def test_family_stacks(self):
        _, mats = entries_document(48)
        families = [mats[k : k + 3] for k in range(0, 48, 3)]
        (stack, ops), peak = traced_peak(lambda: family_stacks(families, 62))
        assert stack.dtype == np.float32
        # no stack of absolute values
        assert peak <= stack.nbytes + ops.nbytes + realize._CHUNK_BYTES

    def test_realize_out(self, r1o3_argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = [*r1o3_argv, "--out", str(out)]
        assert cli.main(argv) == 0  # imports and caches outside the traced call
        code, peak = traced_peak(lambda: cli.main(argv))
        assert code == 0 and out.stat().st_size > 2**20
        # the 1.1 MB document is never held whole, as text or as bytes
        assert peak < 3.5e6
