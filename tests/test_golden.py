"""Golden outputs of the exact commands: stdout and `--out` bytes of `realize`
on three small graphs, `verify` of every file written, failing `verify` runs
against the complement of the fork, a cycle realized with a different outcome
count per vertex and verified against a wrong graph, and two demos.

Every output compared here is exact (rational matrices, or no matrices at
all), so it does not depend on the BLAS build.  To regenerate the files after
an intended change of output, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from jmg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

GRAPHS = {
    "fork": "3; 0-1, 0-2",
    "cycle4": "4; 0-1, 1-2, 2-3, 0-3",
    "path5": "5; 0-1, 1-2, 2-3, 3-4",
}

VARIANTS = {
    "direct-sum": ["--method", "direct-sum"],
    "rank-one": ["--method", "rank-one"],
    "rank-one-faithful": ["--method", "rank-one", "--faithful"],
    "outcomes3": ["--outcomes", "3"],
    "faithful-outcomes": ["--faithful", "--outcomes", "0:4,1:3"],
}

# fork realizations verified against the fork's complement, which every pair
# violates: the stdout pins the words of each verifier and the order of the
# violations
FAILING = {"complement": "3; 1-2"}
FAILING_STEMS = ("fork.direct-sum", "fork.outcomes3")
FAILING_OUTPUTS = {"verify": [], "verify-pretty": ["--pretty"]}

# cycle4 with 4, 2 and 3 outcomes at vertices 0, 1, 2 (vertex 3 keeps 2),
# verified against a graph that trades the edge 0-3 for the chord 0-2, so one
# pair violates each way
MIXED = {"cycle4.mixed-outcomes": ("cycle4", ["--outcomes", "0:4,1:2,2:3"])}
WRONG = {"wrong": "4; 0-1, 1-2, 2-3, 0-2"}

DEMOS = {
    "demo-fork": ["demo", "fork"],
    "demo-lower-bound-3": ["demo", "lower-bound", "--dim", "3"],
}


def _run(argv: list, expected_code: int = 0) -> bytes:
    """stdout of one CLI call, which must exit with `expected_code` and write
    nothing to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (expected_code, ""), argv
    return out.getvalue().encode("utf-8")


def outputs(work: Path) -> dict:
    """File name -> bytes of every golden output, computed in `work`."""
    found = {}
    for gname, text in GRAPHS.items():
        graph = work / f"{gname}.txt"
        graph.write_text(text, encoding="utf-8")
        for vname, options in VARIANTS.items():
            stem = f"{gname}.{vname}"
            out = work / f"{stem}.json"
            found[f"{stem}.stdout"] = _run(["realize", str(graph), *options, "--out", str(out)])
            found[f"{stem}.json"] = out.read_bytes()
            found[f"{stem}.verify.stdout"] = _run(["verify", str(graph), str(out)])
    for stem, (gname, options) in MIXED.items():
        out = work / f"{stem}.json"
        argv = ["realize", str(work / f"{gname}.txt"), *options, "--out", str(out)]
        found[f"{stem}.stdout"] = _run(argv)
        found[f"{stem}.json"] = out.read_bytes()
        for wname, text in WRONG.items():
            graph = work / f"{wname}.txt"
            graph.write_text(text, encoding="utf-8")
            found[f"{stem}.verify-{wname}.stdout"] = _run(["verify", str(graph), str(out)], 1)
    for gname, text in FAILING.items():
        graph = work / f"{gname}.txt"
        graph.write_text(text, encoding="utf-8")
        for stem in FAILING_STEMS:
            for oname, options in FAILING_OUTPUTS.items():
                argv = ["verify", str(graph), str(work / f"{stem}.json"), *options]
                found[f"{stem}.{oname}-{gname}.stdout"] = _run(argv, 1)
    for name, argv in DEMOS.items():
        found[f"{name}.stdout"] = _run(argv)
    return found


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


def test_golden_file_set(computed):
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(computed)


@pytest.mark.parametrize(
    "name",
    [f"{g}.{v}{s}" for g in GRAPHS for v in VARIANTS for s in (".stdout", ".json", ".verify.stdout")]
    + [f"{s}.{o}-{g}.stdout" for g in FAILING for s in FAILING_STEMS for o in FAILING_OUTPUTS]
    + [f"{m}{s}" for m in MIXED for s in (".stdout", ".json")]
    + [f"{m}.verify-{w}.stdout" for m in MIXED for w in WRONG]
    + [f"{d}.stdout" for d in DEMOS],
)
def test_golden_bytes(computed, name):
    assert computed[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, data in outputs(Path(work)).items():
            (GOLDEN / name).write_bytes(data)
