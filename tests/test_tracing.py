"""The benchmark's tracer (bench/tracing.py) wraps names the CLI and the
library look up at call time; a rename of any of them fails here."""

import types
from pathlib import Path

import jmg
from jmg import cli
from jmg.povm import noisy_orthogonal_triple, povm_to_json_obj
from jmg.serialize import dumps

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    """bench/tracing.py run from its source, so no bytecode cache is written
    next to it."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_realize_and_verify(tmp_path, capsys):
    graph = tmp_path / "fork.txt"
    graph.write_text("3; 0-1, 0-2")
    realization = tmp_path / "real.json"
    pvms = tmp_path / "pvms.json"
    assert cli.main(["realize", str(graph), "--out", str(realization)]) == 0
    tracer = load_tracing().instrument(jmg)
    tracer.install()
    try:
        # through the module attribute, as the benchmark calls it
        assert cli.main(["realize", str(graph), "--outcomes", "3", "--out", str(pvms)]) == 0
        assert cli.main(["realize", str(graph), "--method", "rank-one", "--faithful"]) == 0
        assert cli.main(["realize", str(graph), "--method", "rank-one-restricted"]) == 0
        assert cli.main(["verify", str(graph), str(realization)]) == 0
        assert cli.main(["verify", str(graph), str(pvms)]) == 0
    finally:
        tracer.uninstall()
    names = {span[3] for span in tracer.spans}
    assert {
        "cli.main",
        "graphs.non_edges",
        "realize.direct_sum",
        "realize.rank_one",
        "realize.extend_outcomes",
        "realize.make_faithful",
        "realize.restrict_to_span",
        "realize.verify_exact",
        "realize.verify_pvm",
        "realize.verify_float",
        "linalg.matmul",
        "linalg.commutator",
        "realize.to_json_obj",
        "realize.from_json_obj",
        "serialize.dumps",
        "serialize.loads",
    } <= names


def test_traced_jm_check_and_dilate(tmp_path, capsys):
    paths = []
    for n, e in enumerate(noisy_orthogonal_triple(0.5)[:2]):
        path = tmp_path / f"axis{n}.json"
        path.write_text(dumps(povm_to_json_obj(e)))
        paths.append(str(path))
    tracer = load_tracing().instrument(jmg)
    tracer.install()
    try:
        assert cli.main(["jm-check", *paths, "--out", str(tmp_path / "report.json")]) == 0
        assert cli.main(["dilate", paths[0], "--out", str(tmp_path / "dilation.json")]) == 0
    finally:
        tracer.uninstall()
    names = {span[3] for span in tracer.spans}
    assert {
        "cli.main",
        "povm.from_json_obj",
        "povm.validate",
        "povm.jm_feasible",
        "povm.jm_report_to_json_obj",
        "povm.neumark_dilate",
        "povm.compression",
        "povm.dilation_to_json_obj",
        "serialize.dumps",
        "serialize.loads",
    } <= names
