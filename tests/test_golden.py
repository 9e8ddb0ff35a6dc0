"""Golden outputs of the exact commands: stdout and `--out` bytes of `realize`
on three small graphs, `verify` of every file written, failing `verify` runs
against the complement of the fork, a cycle realized with a different outcome
count per vertex and verified against a wrong graph, and two demos.  Files of
the size the large benchmark writes (16 vertices, 30 non-edges, up to 1.1 MB)
are pinned by their sha256 digests instead of checked-in copies, and so are
the outputs of `dilate`, `jm-check` and `demo hollow-triangle`.

Every golden file is exact (rational matrices, or no matrices at all),
except the span-restricted files, whose float entries are built from exact
integers by elementwise IEEE operations; so no byte of them depends on the
BLAS build.  The digests of the float commands do.  To regenerate the files after
an intended change of output, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from helpers import random_povm
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
    "rank-one-restricted": ["--method", "rank-one-restricted"],
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



# a 16-vertex graph given by its 30 non-edges: the shape of the files the
# large benchmark workload writes, far larger than the graphs above
LARGE_NON_EDGES = (
    "0-3, 0-8, 0-11, 0-15, 1-3, 1-5, 2-6, 2-8, 2-9, 2-10, 3-6, 4-11, 4-12, 4-14, 5-11, "
    "5-13, 5-14, 6-7, 6-9, 6-12, 6-14, 6-15, 7-12, 7-15, 8-11, 9-15, 10-14, 11-12, 12-13, 12-15"
)

# realize options -> sha256 of (stdout, --out file)
LARGE_DIGESTS = {
    ("--method", "direct-sum"): (
        "6672ecabe7a600d3ea88d00d4e2678c8e74bfa1d3b4948a32198eb9c72c22a31",
        "91f4375425c3ef8e7f3bd9035fad1155a8aae620574b742a1e2ea4e0886dfd35",
    ),
    ("--method", "rank-one", "--outcomes", "3"): (
        "befce4e73b13cb12c1b8ccac6b38bb6c1ef414dbf63702dfd7674240177ddaa2",
        "96249eeead5419e12d4fe83269111e646fa74d1b60b0090e9ebbc62dda4ef583",
    ),
    ("--method", "rank-one-restricted"): (
        "0c209355b8c3b720f8e45efcf767f6e0aa0cc8d97c05a913924bcde61c67ac9d",
        "574f710508c7c1c8e8f74edd7f91f9660e92f72a7fca705613ee80fafc1a5faf",
    ),
}


@pytest.fixture(scope="module")
def large_graph(tmp_path_factory) -> Path:
    missing = {tuple(map(int, p.split("-"))) for p in LARGE_NON_EDGES.split(", ")}
    edges = [p for p in combinations(range(16), 2) if p not in missing]
    assert len(missing) == 30 and len(edges) == 90
    graph = tmp_path_factory.mktemp("large") / "g16.txt"
    graph.write_text("16; " + ", ".join(f"{a}-{b}" for a, b in edges), encoding="utf-8")
    return graph


@pytest.mark.parametrize("options", list(LARGE_DIGESTS), ids=" ".join)
def test_large_file_bytes(large_graph, options):
    out = large_graph.with_name("-".join(options).strip("-") + ".json")
    stdout = _run(["realize", str(large_graph), *options, "--out", str(out)])
    digests = (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == LARGE_DIGESTS[options]
    assert _run(["verify", str(large_graph), str(out)]) == b'{"passed":true,"violations":[]}\n'



@pytest.mark.parametrize("options", list(LARGE_DIGESTS), ids=" ".join)
def test_large_file_bytes_over_longer_file(large_graph, options):
    # --out is written in place: a longer old file must not leave a tail
    out = large_graph.with_name("over-" + "-".join(options).strip("-") + ".json")
    out.write_bytes(b"junk" * 400_000)  # 1.6 MB, longer than either file
    stdout = _run(["realize", str(large_graph), *options, "--out", str(out)])
    digests = (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == LARGE_DIGESTS[options]


# Outputs of the float commands, pinned by sha256 of (stdout, --out file).
# Their bytes come from eigh and matrix products, so unlike the exact files
# above they are pinned for one numpy and LAPACK build.  Each POVM file is
# written here with the stdlib json module, so no input depends on the writer.

def _povm_file(path: Path, elements) -> str:
    d = len(elements[0])
    labels = [str(k) for k in range(len(elements))]
    matrix = lambda e: {  # noqa: E731
        "rows": d, "cols": d, "scalar": "complex",
        "entries": [[float(z.real), float(z.imag)] for z in np.asarray(e, dtype=complex).flat],
    }
    doc = {"space_dim": d, "outcomes": labels, "elements": {k: matrix(e) for k, e in zip(labels, elements)}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def povm_files(tmp_path_factory) -> dict:
    work = tmp_path_factory.mktemp("float")
    # the qubit projector diag(1, 0) with -0.0 parts off the diagonal
    projector = np.array([[1, complex(-0.0, -0.0)], [complex(0.0, -0.0), 0]])
    # the standard and Fourier bases of a qutrit at visibility 0.6, below the
    # 0.683 at which the pair stops being jointly measurable
    fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    noisy = [
        [0.6 * np.outer(b[:, k], b[:, k].conj()) + 0.4 * np.eye(3) / 3 for k in range(3)]
        for b in (np.eye(3), fourier)
    ]
    return {
        "p19": _povm_file(work / "p19.json", random_povm(np.random.default_rng(19), 6, 19).element_list()),
        "qubit": _povm_file(work / "qubit.json", [projector, np.diag([0.0, 1.0])]),
        "standard": _povm_file(work / "standard.json", noisy[0]),
        "fourier": _povm_file(work / "fourier.json", noisy[1]),
    }


FLOAT_DIGESTS = {
    ("dilate", "p19"): (
        "8f3df0a13b18cd1eb38263760561bf5332c5d7ef58308b1eb9c7e8ed85ca4646",
        "491e7e9060f2d55256e55ca63af27d9aed4dfa2aa12232239005442fae3c6c4b",
    ),
    ("dilate", "qubit"): (
        "d012c0d40c6e1f0d55ecdd2b2053b2b53241b80a0ba6e27b9492523582e24f84",
        "7b16f5ddcabfebfbc6e9ee744d8e054f9d48b0b93a6abf7f5e24b5f5b096c4f5",
    ),
    # the report with its complex witness, which holds -0.0 parts
    ("jm-check", "standard", "fourier"): (
        "ad674c3b03782ce78cc6876f077d1b88676e7203e03ffbcfc3f4dcb715e0e3bd",
        "ad674c3b03782ce78cc6876f077d1b88676e7203e03ffbcfc3f4dcb715e0e3bd",
    ),
}


@pytest.mark.parametrize("call", list(FLOAT_DIGESTS), ids=" ".join)
def test_float_file_bytes(povm_files, tmp_path, call):
    command, *names = call
    out = tmp_path / "out.json"
    stdout = _run([command, *map(povm_files.get, names), "--out", str(out)])
    digests = (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == FLOAT_DIGESTS[call]


def test_hollow_triangle_demo_bytes():
    # the report embeds the three noisy POVM documents and the solver's witnesses
    stdout = _run(["demo", "hollow-triangle"])
    assert hashlib.sha256(stdout).hexdigest() == "4f93388f929f77122a7a8353c0cbeb2ae3b8fc316ce52e2f2f6660131a334d86"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, data in outputs(Path(work)).items():
            (GOLDEN / name).write_bytes(data)
