import argparse
import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import jmg
from jmg import cli
from jmg.cli import main
from jmg.povm import POVM, noisy_orthogonal_triple, povm_to_json_obj
from jmg.serialize import dumps


EXACT_ONLY = "needs an exact method (direct-sum or rank-one)"


@pytest.fixture
def fork_file(tmp_path):
    path = tmp_path / "fork.txt"
    path.write_text("3; 0-1, 0-2")
    return str(path)


def write_povm(tmp_path, name, povm):
    path = tmp_path / name
    path.write_text(dumps(povm_to_json_obj(povm)))
    return str(path)


class TestRealize:
    def test_fork_direct_sum(self, fork_file, tmp_path, capsys):
        out = tmp_path / "real.json"
        code = main(["realize", fork_file, "--method", "direct-sum", "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["space_dim"] == 2
        assert summary["verification"]["passed"]
        payload = json.loads(out.read_text())
        assert payload["method"] == "direct_sum"
        assert len(payload["projections"]) == 3

    def test_triangle_rank_one(self, tmp_path, capsys):
        graph = tmp_path / "triangle.txt"
        graph.write_text("3; 0-1, 0-2, 1-2")
        assert main(["realize", str(graph), "--method", "rank-one"]) == 0
        assert json.loads(capsys.readouterr().out)["space_dim"] == 3

    def test_rank_one_restricted(self, fork_file, capsys):
        assert main(["realize", fork_file, "--method", "rank-one-restricted"]) == 0
        assert json.loads(capsys.readouterr().out)["space_dim"] == 3

    def test_faithful_and_outcomes(self, fork_file, tmp_path, capsys):
        out = tmp_path / "pvms.json"
        code = main(
            ["realize", fork_file, "--method", "direct-sum", "--faithful",
             "--outcomes", "3", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["space_dim"] == 2 + 3 + 3  # faithful block + one extra slot each
        assert all(len(family) == 3 for family in payload["pvms"])

    def test_calls_share_no_parsed_state(self, fork_file, tmp_path, capsys):
        out = tmp_path / "first.json"
        assert main(["realize", fork_file, "--faithful", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["faithful"] is True
        out.unlink()
        assert main(["realize", fork_file]) == 0
        assert json.loads(capsys.readouterr().out)["faithful"] is False
        assert not out.exists()

    def test_outcomes_per_vertex(self, fork_file, capsys):
        assert main(["realize", fork_file, "--outcomes", "0:4,2:3"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "pvm_realization"

    def test_outcomes_spec_with_spaces(self, fork_file, capsys):
        assert main(["realize", fork_file, "--outcomes", " 0:3, 1 : 4 "]) == 0
        assert json.loads(capsys.readouterr().out)["space_dim"] == 2 + 1 + 2

    @pytest.mark.parametrize("spec, message", [
        ("0:3,0:4", "vertex 0 twice"),
        ("1_0", "bad --outcomes"),
        ("+3", "bad --outcomes"),
        ("\u0663", "bad --outcomes"),
        ("0:1_0", "bad --outcomes"),
        ("+1:3", "bad --outcomes"),
        ("0:\u0663", "bad --outcomes"),
    ])
    def test_outcomes_spec_rejected(self, fork_file, capsys, spec, message):
        assert main(["realize", fork_file, "--outcomes", spec]) == 2
        assert message in capsys.readouterr().err

    def test_faithful_rejected_on_restricted(self, fork_file, capsys):
        code = main(["realize", fork_file, "--method", "rank-one-restricted", "--faithful"])
        assert code == 2

    @pytest.mark.parametrize("options, message", [
        (["--method", "rank-one-restricted", "--faithful"], f"--faithful {EXACT_ONLY}"),
        (["--method", "rank-one-restricted", "--outcomes", "3"], f"--outcomes {EXACT_ONLY}"),
        (["--method", "rank-one-restricted", "--faithful", "--outcomes", "3"], f"--faithful {EXACT_ONLY}"),
        (["--outcomes", "0:3,0:4"], "--outcomes names vertex 0 twice"),
        (["--method", "rank-one", "--outcomes", "30:3"], "--outcomes names vertex 30 outside 0..29"),
    ], ids=["faithful", "outcomes", "both", "spec-twice", "spec-outside"])
    def test_options_rejected_before_construction(self, tmp_path, capsys, monkeypatch, options, message):
        # an edgeless 30-vertex graph takes a tenth of a second to realize;
        # a bad option is reported without building anything
        def unreachable(*args):
            raise AssertionError("construction ran")

        for name in ("realize_direct_sum", "realize_rank_one", "restrict_to_span", "make_faithful", "extend_outcomes"):
            monkeypatch.setattr(cli, name, unreachable)
        graph = tmp_path / "g.txt"
        graph.write_text("30;")
        assert main(["realize", str(graph), *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_malformed_graph(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3; 0-1, 0+2")
        assert main(["realize", str(bad)]) == 2
        assert "position" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("1_0; 0-1", "bad vertex count '1_0'"),
        ("+3; 0-1", "bad vertex count '+3'"),
        ("\u0663; \u0660-\u0661", "bad vertex count '\u0663'"),
        ("3; 0-\u0662", "bad edge '0-\u0662'"),
    ])
    def test_graph_numbers_are_ascii_digits(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        assert main(["realize", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_json_graph_input(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text('{"vertices": 2, "edges": []}')
        assert main(["realize", str(graph)]) == 0
        assert json.loads(capsys.readouterr().out)["space_dim"] == 2

    @pytest.mark.parametrize("text, args, message", [
        ("40;", [], "40 operators on dimension 1560"),
        ("64;", ["--method", "direct-sum"], "64 operators on dimension 4032"),
        ("3; 0-1", ["--method", "rank-one", "--outcomes", "0:100000"], "100004 operators on dimension 100003"),
    ], ids=["edgeless-40", "edgeless-64", "outcomes-100000"])
    def test_size_guard(self, tmp_path, capsys, text, args, message):
        # rejected before anything is allocated: unguarded, the first ran past
        # 60 s and the others asked for gigabytes and petabytes
        graph = tmp_path / "g.txt"
        graph.write_text(text)
        out = tmp_path / "r.json"
        start = time.perf_counter()
        assert main(["realize", str(graph), *args, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message} exceed 8388608 matrix entries\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, work", [
        ([], (3 + 3) * 2**3),
        (["--method", "rank-one-restricted"], 3 * 2 * 3**3 * 8),
    ], ids=["direct-sum", "rank-one-restricted"])
    def test_verify_work_guard(self, fork_file, tmp_path, capsys, monkeypatch, args, work):
        # the verify inside realize counts its multiply-adds before its first
        # product: float32 for the direct sum, two complex products a pair at
        # 8 each for the float check
        monkeypatch.setattr(jmg.realize, "MAX_VERIFY_WORK", work - 1)
        out = tmp_path / "r.json"
        assert main(["realize", fork_file, *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: verification would take {work} multiply-adds at float32 cost, more than {work - 1}\n"
        assert not out.exists()

    @pytest.mark.parametrize("options, builder", [
        ([], "realization_to_json_obj"),
        (["--method", "rank-one"], "realization_to_json_obj"),
        (["--outcomes", "3"], "pvm_realization_to_json_obj"),
    ])
    def test_payload_built_only_for_out(self, fork_file, tmp_path, capsys, monkeypatch, options, builder):
        # the wire object goes only to --out; without it nothing builds one
        calls = []
        for name in ("realization_to_json_obj", "pvm_realization_to_json_obj"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda r, real=real, name=name: calls.append(name) or real(r))
        assert main(["realize", fork_file, *options]) == 0
        without = capsys.readouterr().out
        assert calls == []
        out = tmp_path / "r.json"
        assert main(["realize", fork_file, *options, "--out", str(out)]) == 0
        assert capsys.readouterr().out == without
        assert calls == [builder]
        assert json.loads(out.read_text())["space_dim"] == json.loads(without)["space_dim"]

    def test_deterministic_output(self, fork_file, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["realize", fork_file, "--method", "rank-one", "--out", str(out1)])
        first = capsys.readouterr().out
        main(["realize", fork_file, "--method", "rank-one", "--out", str(out2)])
        second = capsys.readouterr().out
        assert first == second
        assert out1.read_bytes() == out2.read_bytes()


class TestVerify:
    def test_round_trip(self, fork_file, tmp_path, capsys):
        out = tmp_path / "real.json"
        main(["realize", fork_file, "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", fork_file, str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]

    def test_mutated_projection_fails_with_pair(self, fork_file, tmp_path, capsys):
        out = tmp_path / "real.json"
        main(["realize", fork_file, "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        payload["projections"][2] = payload["projections"][1]  # duplicate across a non-edge
        out.write_text(json.dumps(payload))
        assert main(["verify", fork_file, str(out)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["violations"][0]["pair"] == [1, 2]

    def test_wrong_dimension_file(self, fork_file, tmp_path, capsys):
        out = tmp_path / "real.json"
        main(["realize", fork_file, "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        payload["space_dim"] = 5
        out.write_text(json.dumps(payload))
        assert main(["verify", fork_file, str(out)]) == 2

    def test_vertex_count_mismatch(self, fork_file, tmp_path, capsys):
        out = tmp_path / "real.json"
        main(["realize", fork_file, "--out", str(out)])
        capsys.readouterr()
        other = tmp_path / "other.txt"
        other.write_text("4;")
        assert main(["verify", str(other), str(out)]) == 2

    def test_work_guard(self, fork_file, tmp_path, capsys, monkeypatch):
        out = tmp_path / "real.json"
        main(["realize", fork_file, "--out", str(out)])
        capsys.readouterr()
        monkeypatch.setattr(jmg.realize, "MAX_VERIFY_WORK", 47)  # the fork's direct sum counts 48
        assert main(["verify", fork_file, str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: verification would take 48 multiply-adds at float32 cost, more than 47\n"

    def test_pvm_realization_file(self, fork_file, tmp_path, capsys):
        out = tmp_path / "pvms.json"
        main(["realize", fork_file, "--outcomes", "2", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", fork_file, str(out)]) == 0


class TestDilate:
    def test_coin_flip(self, tmp_path, capsys):
        eye = np.eye(2, dtype=complex)
        povm = POVM(2, ("h", "t"), {"h": eye / 2, "t": eye / 2})
        path = write_povm(tmp_path, "coin.json", povm)
        out = tmp_path / "dilation.json"
        assert main(["dilate", path, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["enlarged_dim"] == 4
        assert summary["max_residual"] <= 1e-10
        payload = json.loads(out.read_text())
        assert payload["pvm"]["space_dim"] == 4

    def test_trine(self, tmp_path, capsys):
        elements = {}
        for k, angle in enumerate((0.0, 2 * np.pi / 3, 4 * np.pi / 3)):
            v = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
            elements[str(k)] = (2 / 3) * np.outer(v, v.conj())
        path = write_povm(tmp_path, "trine.json", POVM(2, ("0", "1", "2"), elements))
        assert main(["dilate", path]) == 0
        assert json.loads(capsys.readouterr().out)["enlarged_dim"] == 6

    def test_payload_built_only_for_out(self, tmp_path, capsys, monkeypatch):
        # as for realize: the dilation's wire object goes only to --out
        calls = []
        real = cli.dilation_to_json_obj
        monkeypatch.setattr(cli, "dilation_to_json_obj", lambda r: calls.append(r) or real(r))
        path = write_povm(tmp_path, "e.json", noisy_orthogonal_triple(0.4)[0])
        assert main(["dilate", path]) == 0
        without = capsys.readouterr().out
        assert calls == []
        out = tmp_path / "d.json"
        assert main(["dilate", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == without
        assert len(calls) == 1
        assert json.loads(out.read_text())["enlarged_dim"] == json.loads(without)["enlarged_dim"]

    def test_nan_tolerance_exits_2(self, tmp_path, capsys):
        path = write_povm(tmp_path, "e.json", noisy_orthogonal_triple(0.4)[0])
        assert main(["dilate", path, "--tol", "nan"]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_non_psd_rejected(self, tmp_path, capsys):
        bad = POVM(
            2,
            ("a", "b"),
            {"a": np.diag([1.5, 0.5]).astype(complex), "b": np.diag([-0.5, 0.5]).astype(complex)},
        )
        path = write_povm(tmp_path, "bad.json", bad)
        assert main(["dilate", path]) == 2


    def test_element_outside_the_outcomes_rejected(self, tmp_path, capsys):
        eye = np.eye(2, dtype=complex)
        path = write_povm(tmp_path, "coin.json", POVM(2, ("h", "t"), {"h": eye / 2, "t": eye / 2}))
        obj = json.loads(Path(path).read_text())
        obj["elements"]["zzz"] = obj["elements"]["h"]
        Path(path).write_text(json.dumps(obj))
        assert main(["dilate", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: element labels must match the outcome list\n"

    def test_output_guard(self, tmp_path, capsys):
        # 40 outcomes on d = 6 would write 40 * 240^2 + 240 * 6 entries
        eye = np.eye(6, dtype=complex) / 40
        povm = POVM(6, tuple(map(str, range(40))), {str(k): eye for k in range(40)})
        path = write_povm(tmp_path, "wide.json", povm)
        out = tmp_path / "dilation.json"
        assert main(["dilate", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dilation of 40 outcomes on dimension 6 exceeds 262144 matrix entries\n"
        assert not out.exists()

class TestJmCheck:
    def test_commuting_pvm_files(self, tmp_path, capsys):
        z = POVM(2, ("0", "1"), {"0": np.diag([1.0, 0]).astype(complex),
                                 "1": np.diag([0, 1.0]).astype(complex)})
        p1 = write_povm(tmp_path, "a.json", z)
        p2 = write_povm(tmp_path, "b.json", z)
        assert main(["jm-check", p1, p2]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "feasible"
        assert report["witness"] is not None

    def test_triple_stalls(self, tmp_path, capsys):
        povms = noisy_orthogonal_triple(0.6)
        paths = [write_povm(tmp_path, f"e{k}.json", povms[k]) for k in range(3)]
        assert main(["jm-check", *paths, "--max-iter", "1200"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "infeasible_stalled"
        assert report["final_residual"] > 1e-4
        assert report["witness"] is None

    def test_needs_two_files(self, tmp_path, capsys):
        path = write_povm(tmp_path, "one.json", noisy_orthogonal_triple(0.4)[0])
        assert main(["jm-check", path]) == 2

    def test_guard_exceeded(self, tmp_path, capsys, monkeypatch):
        # the pair has 4 joint outcomes on a qubit: 16 real variables
        monkeypatch.setattr(jmg.povm.feasibility, "MAX_JOINT_VARIABLES", 8)
        povms = noisy_orthogonal_triple(0.4)[:2]
        paths = [write_povm(tmp_path, f"g{k}.json", povms[k]) for k in range(2)]
        assert main(["jm-check", *paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: joint problem needs 16 real variables, over the guard 8\n"

    def test_five_factor_query_exceeds_default_guard(self, tmp_path, capsys):
        # 8^5 outcome tuples on dimension 4 is past the default variable cap
        from helpers import random_povm

        rng = np.random.default_rng(1)
        paths = [
            write_povm(tmp_path, f"wide{k}.json", random_povm(rng, 4, 8)) for k in range(5)
        ]
        assert main(["jm-check", *paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: joint problem needs 524288 real variables, over the guard 100000\n"

    def test_deterministic_report(self, tmp_path, capsys):
        povms = noisy_orthogonal_triple(0.6)[:2]
        paths = [write_povm(tmp_path, f"d{k}.json", povms[k]) for k in range(2)]
        main(["jm-check", *paths])
        first = capsys.readouterr().out
        main(["jm-check", *paths])
        assert capsys.readouterr().out == first

    def test_out_file_is_the_stdout_line(self, tmp_path, capsys):
        povms = noisy_orthogonal_triple(0.6)[:2]
        paths = [write_povm(tmp_path, f"o{k}.json", povms[k]) for k in range(2)]
        out = tmp_path / "report.json"
        assert main(["jm-check", *paths, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["witness"] is not None
        assert out.read_bytes() == stdout.encode("utf-8")

    @pytest.mark.parametrize(
        "eta, tol",
        [(0.95, "inf"), (0.3, "nan"), (0.3, "-1"), (0.3, "-inf")],
    )
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, eta, tol):
        # inf would call the incompatible 0.95 pair feasible, nan and -1 the
        # compatible 0.3 pair infeasible
        povms = noisy_orthogonal_triple(eta)[:2]
        paths = [write_povm(tmp_path, f"t{k}.json", povms[k]) for k in range(2)]
        assert main(["jm-check", *paths, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_dimension_mismatch(self, tmp_path, capsys):
        a = write_povm(tmp_path, "a.json", noisy_orthogonal_triple(0.4)[0])
        eye3 = np.eye(3, dtype=complex)
        b = write_povm(tmp_path, "b.json", POVM(3, ("0", "1"), {"0": eye3 / 3, "1": 2 * eye3 / 3}))
        assert main(["jm-check", a, b]) == 2


class TestDemo:
    def test_fork_emits_derivation(self, capsys):
        assert main(["demo", "fork"]) == 0
        out = capsys.readouterr().out
        assert "p_y = 1 - p_x = p_z" in out

    def test_fork_pretty(self, capsys):
        assert main(["demo", "fork", "--pretty"]) == 0
        assert "contradiction" in capsys.readouterr().out

    def test_hollow_triangle(self, capsys):
        assert main(["demo", "hollow-triangle", "--eta", "0.6", "--max-iter", "1200"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "hollow_triangle"
        assert report["hypergraph_graph_induced"] is False
        assert all(r["verdict"] == "feasible" for r in report["pairwise"].values())
        assert report["triple"]["verdict"] == "infeasible_stalled"

    def test_hollow_triangle_low_noise(self, capsys):
        assert main(["demo", "hollow-triangle", "--eta", "0.5", "--max-iter", "1200"]) == 0
        assert json.loads(capsys.readouterr().out)["conclusion"] == "no obstruction at this noise level"

    def test_lower_bound(self, capsys):
        assert main(["demo", "lower-bound", "--dim", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["graph"]["vertices"] == 5
        assert report["partition_count"] == 2

    def test_lower_bound_needs_dim(self, capsys):
        assert main(["demo", "lower-bound"]) == 2

    def test_lower_bound_dim_over_the_cap(self, capsys):
        assert main(["demo", "lower-bound", "--dim", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: d must be in 1..7\n"

    def test_unknown_demo(self, capsys):
        assert main(["demo", "mystery"]) == 2


# every option placement the parser accepts; each is read by its handler
OPTIONS = {
    "realize": {"--pretty", "--out", "--tol", "--method", "--faithful", "--outcomes"},
    "verify": {"--pretty", "--out", "--tol"},
    "dilate": {"--pretty", "--out", "--tol"},
    "jm-check": {"--pretty", "--out", "--tol", "--max-iter"},
    "demo fork": {"--pretty", "--out"},
    "demo hollow-triangle": {"--pretty", "--out", "--tol", "--max-iter", "--eta"},
    "demo lower-bound": {"--pretty", "--out", "--dim"},
}


def option_table(parser, prefix=""):
    """Command path -> options, for every parser that has no subcommands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix.strip(): {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}}
    table = {}
    for name, sub in subs[0].choices.items():
        table.update(option_table(sub, f"{prefix}{name} "))
    return table


class TestOptionSurface:
    def test_parser_matches_table(self):
        table = option_table(cli.build_parser())
        assert table == OPTIONS
        assert sum(map(len, table.values())) == 26

    @pytest.mark.parametrize(
        "argv",
        [
            ["realize", "{graph}", "--max-iter", "5"],
            ["verify", "{graph}", "{graph}", "--max-iter", "5"],
            ["dilate", "{graph}", "--max-iter", "5"],
            ["demo", "fork", "--eta", "0.5"],
            ["demo", "lower-bound", "--dim", "2", "--tol", "1e-9"],
            ["demo", "hollow-triangle", "--dim", "3"],
            ["demo", "lower-bound"],
        ],
    )
    def test_option_a_command_does_not_read_exits_2(self, argv, fork_file, capsys):
        assert main([a.format(graph=fork_file) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestJsonGraphFiles:
    def test_read_once_and_same_as_text(self, fork_file, tmp_path, capsys, monkeypatch):
        path = tmp_path / "fork.json"
        path.write_text('{"vertices": 3, "edges": [[0, 1], [0, 2]]}')
        assert main(["realize", fork_file]) == 0
        from_text = capsys.readouterr().out
        reads = []
        read_text = cli._read_text
        monkeypatch.setattr(cli, "_read_text", lambda p: reads.append(p) or read_text(p))
        assert main(["realize", str(path)]) == 0
        assert reads == [str(path)]
        assert capsys.readouterr().out == from_text

    def test_invalid_json_graph(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": 3, "edges": [')
        assert main(["realize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: invalid JSON (")


class TestErrorPaths:
    @pytest.mark.parametrize(
        "payload",
        [
            "not json at all {",
            '{"vertices": "three", "edges": []}',
            '{"edges": []}',
            '{"vertices": 3, "edges": [[0]]}',
            '{"vertices": 2, "edges": [[0, 5]]}',
            '{"vertices": 2, "edges": [[1, 1]]}',
        ],
    )
    def test_fuzzed_graph_files_exit_2(self, tmp_path, capsys, payload):
        path = tmp_path / "fuzz.json"
        path.write_text(payload)
        assert main(["realize", str(path)]) == 2

    def test_missing_file(self, capsys):
        assert main(["realize", "/nonexistent/graph.txt"]) == 2

    def test_fuzzed_povm_files_exit_2(self, tmp_path, capsys):
        for payload in ["[]", '{"space_dim": 2}', '{"space_dim": 2, "outcomes": ["a"], "elements": {}}']:
            path = tmp_path / "fuzz.json"
            path.write_text(payload)
            assert main(["dilate", str(path)]) == 2

    def test_verify_rejects_non_projections(self, fork_file, tmp_path, capsys):
        def rational(rows):
            return {"rows": 2, "cols": 2, "scalar": "rational",
                    "entries": [f"{x}/1" for row in rows for x in row]}

        payload = {
            "graph": {"vertices": 3, "edges": [[0, 1], [0, 2]]},
            "space_dim": 2,
            "method": "direct_sum",
            "projections": [rational([[2, 0], [0, 2]]), rational([[1, 0], [0, 0]]),
                             rational([[1, 1], [1, 1]])],
            "vectors": None,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", fork_file, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vertex 0: element 0 is not a projection\n"

    @pytest.mark.parametrize(
        "built, claimed, needs",
        [
            ("rank-one-restricted", "direct_sum", "rational"),
            ("rank-one-restricted", "faithful_augmented", "rational"),
            ("direct-sum", "rank_one_restricted", "complex"),
        ],
    )
    def test_verify_rejects_method_contradicting_matrices(
        self, fork_file, tmp_path, capsys, built, claimed, needs
    ):
        path = tmp_path / "real.json"
        assert main(["realize", fork_file, "--method", built, "--out", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        payload["method"] = claimed
        path.write_text(json.dumps(payload))
        assert main(["verify", fork_file, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: method {claimed!r} needs {needs} matrices\n"

    @pytest.mark.parametrize("method", [None, [], {}, 1, True], ids=["null", "list", "object", "number", "true"])
    def test_verify_rejects_method_that_is_not_a_name(self, fork_file, tmp_path, capsys, method):
        # a method of another JSON type is unknown, like an unknown name
        path = tmp_path / "real.json"
        assert main(["realize", fork_file, "--out", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        payload["method"] = method
        path.write_text(json.dumps(payload))
        assert main(["verify", fork_file, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown method {method!r}\n"

    @pytest.mark.parametrize(
        "vertex, value, message",
        [
            (0, ["0/1", "7/1", "0/1", "0/1"], "vertex 0: projection is not the one onto its vector"),
            (2, ["0/1", "0/1", "0/1", "0/1"], "vertex 2: zero vector"),
            (None, "direct_sum", "method 'direct_sum' stores no vectors"),
        ],
    )
    def test_verify_rejects_vectors_contradicting_the_file(
        self, fork_file, tmp_path, capsys, vertex, value, message
    ):
        # a fork rank-one file with one vector edited, or relabelled as another method
        path = tmp_path / "real.json"
        assert main(["realize", fork_file, "--method", "rank-one", "--out", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        if vertex is None:
            payload["method"] = value
        else:
            payload["vectors"][vertex] = value
        path.write_text(json.dumps(payload))
        assert main(["verify", fork_file, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_verify_accepts_a_rescaled_vector(self, fork_file, tmp_path, capsys):
        # a vector stands for the line it spans: 7 e_0 spans the range of p_0
        path = tmp_path / "real.json"
        assert main(["realize", fork_file, "--method", "rank-one", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        payload["vectors"][0] = ["7/1", "0/1", "0/1", "0/1"]
        path.write_text(json.dumps(payload))
        assert main(["verify", fork_file, str(path)]) == 0

    @pytest.mark.parametrize("field", ["space_dim", "rows"])
    def test_verify_boolean_count_is_input_error(self, tmp_path, capsys, field):
        triangle = tmp_path / "triangle.txt"
        triangle.write_text("3; 0-1, 0-2, 1-2")  # direct-sum dimension 1, which True equals
        path = tmp_path / "real.json"
        main(["realize", str(triangle), "--out", str(path)])
        capsys.readouterr()
        payload = json.loads(path.read_text())
        if field == "space_dim":
            payload["space_dim"] = True
        else:
            payload["projections"][0]["rows"] = True
        path.write_text(json.dumps(payload))
        assert main(["verify", str(triangle), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_realize_boolean_vertex_count_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text('{"vertices": true, "edges": []}')
        assert main(["realize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("wide", [10**12, 2**70])
    @pytest.mark.parametrize("wide_rows", [False, True])
    @pytest.mark.parametrize("method", ["direct-sum", "rank-one-restricted"])
    def test_verify_empty_wide_matrix_is_input_error(self, fork_file, tmp_path, capsys, wide, wide_rows, method):
        # a matrix with no entries bounds neither dimension by its entry
        # count: 0 x 10^12 ran out of memory and 0 x 2^70 overflowed NumPy
        path = tmp_path / "real.json"
        assert main(["realize", fork_file, "--method", method, "--out", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        shape = (wide, 0) if wide_rows else (0, wide)
        payload["projections"][0].update(rows=shape[0], cols=shape[1], entries=[])
        path.write_text(json.dumps(payload))
        assert main(["verify", fork_file, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: matrix shape {shape[0]}x{shape[1]}: rows and cols must be at most {2**31 - 1}\n"

    @pytest.mark.parametrize("pair", [[None, 0], ["1", True], [0, True]])
    def test_complex_parts_must_be_numbers(self, tmp_path, capsys, pair):
        povm = noisy_orthogonal_triple(0.4)[0]
        payload = json.loads(dumps(povm_to_json_obj(povm)))
        payload["elements"][povm.outcomes[0]]["entries"][0] = pair
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        good = write_povm(tmp_path, "good.json", povm)
        for argv in (["dilate", str(bad)], ["jm-check", good, str(bad)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["realize", "verify", "dilate", "jm-check"])
    def test_unwritable_out_is_input_error(self, fork_file, tmp_path, capsys, command, target):
        real = tmp_path / "real.json"
        assert main(["realize", fork_file, "--out", str(real)]) == 0
        eye = np.eye(2, dtype=complex)
        coin = write_povm(tmp_path, "coin.json", POVM(2, ("h", "t"), {"h": eye / 2, "t": eye / 2}))
        argv = {
            "realize": ["realize", fork_file],
            "verify": ["verify", fork_file, str(real)],
            "dilate": ["dilate", coin],
            "jm-check": ["jm-check", coin, coin],
        }[command]
        out = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert len(captured.err.splitlines()) == 1  # no traceback

    @pytest.mark.parametrize("command", ["realize", "verify", "dilate", "jm-check"])
    def test_non_utf8_input_is_input_error(self, fork_file, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe3; 0-1")
        real = tmp_path / "real.json"
        assert main(["realize", fork_file, "--out", str(real)]) == 0
        eye = np.eye(2, dtype=complex)
        coin = write_povm(tmp_path, "coin.json", POVM(2, ("h", "t"), {"h": eye / 2, "t": eye / 2}))
        argv = {
            "realize": ["realize", str(bad)],
            "verify": ["verify", fork_file, str(bad)],
            "dilate": ["dilate", str(bad)],
            "jm-check": ["jm-check", coin, str(bad)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {bad}: ")
        assert len(captured.err.splitlines()) == 1  # no traceback

    def test_internal_error_is_not_called_input_error(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("kaput")

        monkeypatch.setitem(cli._DISPATCH, "demo", broken)
        assert main(["demo", "fork"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError: kaput\n")
        assert "Traceback (most recent call last)" in err and "kaput" in err.splitlines()[-1]


class TestOutOverwrite:
    """``--out`` is written over an existing file in place: the file ends up
    holding exactly the bytes a fresh file gets, whatever it held before."""

    @pytest.fixture
    def argv(self, fork_file):
        return ["realize", fork_file, "--method", "rank-one", "--outcomes", "3"]

    @pytest.fixture
    def fresh(self, argv, tmp_path, capsys):
        """(stdout, file bytes) of the call writing a new file."""
        path = tmp_path / "fresh.json"
        assert main([*argv, "--out", str(path)]) == 0
        return capsys.readouterr().out, path.read_bytes()

    @staticmethod
    def run(argv, out, capsys):
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("before", ["longer", "one-longer", "shorter", "same"])
    def test_existing_file(self, argv, fresh, tmp_path, capsys, before):
        stdout, data = fresh
        target = tmp_path / "target.json"
        old = {"longer": data + b"tail" * 5000, "one-longer": data + b"\n", "shorter": b"{}\n", "same": data}
        target.write_bytes(old[before])
        assert self.run(argv, target, capsys) == (0, stdout, "")
        assert target.read_bytes() == data

    def test_dev_null(self, argv, fresh, capsys):
        assert self.run(argv, os.devnull, capsys) == (0, fresh[0], "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_dev_full(self, argv, fresh, capsys):
        code, out, err = self.run(argv, "/dev/full", capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write /dev/full: ")
        assert len(err.splitlines()) == 1

    def test_symlink_rewrites_its_target(self, argv, fresh, tmp_path, capsys):
        stdout, data = fresh
        target = tmp_path / "target.json"
        target.write_bytes(b"junk" * 5000)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert self.run(argv, link, capsys) == (0, stdout, "")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == data

    def test_mode_and_hard_link_kept(self, argv, fresh, tmp_path, capsys):
        stdout, data = fresh
        target = tmp_path / "target.json"
        target.write_bytes(b"junk" * 5000)
        target.chmod(0o640)
        twin = tmp_path / "twin.json"
        os.link(target, twin)
        assert self.run(argv, target, capsys) == (0, stdout, "")
        assert target.read_bytes() == twin.read_bytes() == data
        st = target.stat()
        assert (st.st_mode & 0o777, st.st_nlink, st.st_ino) == (0o640, 2, twin.stat().st_ino)

    def test_read_only_file_exits_2(self, argv, fresh, tmp_path, capsys, monkeypatch):
        target = tmp_path / "target.json"
        target.write_bytes(b"old")
        target.chmod(0o444)
        if os.geteuid() == 0:
            # root passes the kernel's permission check on a read-only file;
            # refuse the write as the kernel does for every other user
            real_open = os.open

            def checked_open(path, flags, *rest):
                if flags & (os.O_WRONLY | os.O_RDWR) and not os.stat(path).st_mode & 0o222:
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
                return real_open(path, flags, *rest)

            monkeypatch.setattr(os, "open", checked_open)
        code, out, err = self.run(argv, target, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert target.read_bytes() == b"old"

    def test_out_is_never_opened_with_truncation(self, argv, fresh, tmp_path, capsys, monkeypatch):
        # truncating a file that holds data costs more than writing it on
        # some file systems, so --out must not be opened with O_TRUNC
        target = tmp_path / "target.json"
        target.write_bytes(b"junk" * 5000)
        flags_seen = []
        real_open = os.open

        def spy(path, flags, *rest):
            if os.fspath(path) == str(target):
                flags_seen.append(flags)
            return real_open(path, flags, *rest)

        monkeypatch.setattr(os, "open", spy)
        assert self.run(argv, target, capsys) == (0, fresh[0], "")
        assert target.read_bytes() == fresh[1]
        assert flags_seen, "--out was not opened through os.open"
        assert not any(flags & os.O_TRUNC for flags in flags_seen)


class TestExponentLiterals:
    @pytest.mark.parametrize("outcomes", [[], ["--outcomes", "3"]])
    def test_verify_rejects_exponent_literal(self, fork_file, tmp_path, capsys, outcomes):
        # Fraction reads "1e3000000" as a 10-Mbit integer, which took
        # seconds to build; a larger exponent would take hours
        path = tmp_path / "real.json"
        assert main(["realize", fork_file, *outcomes, "--out", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        assert '"1/1"' in text
        path.write_text(text.replace('"1/1"', '"1e3000000"', 1))
        assert main(["verify", fork_file, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad rational literal '1e3000000'\n"


class TestModuleEntry:
    """``python -m jmg.cli`` in a fresh interpreter, through the ``__main__`` path."""

    @staticmethod
    def run(*argv):
        src = str(Path(jmg.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "jmg.cli", *argv],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )

    def test_demo_fork(self):
        proc = self.run("demo", "fork")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["derivation_valid"] is True

    def test_nan_tolerance(self, tmp_path):
        povms = noisy_orthogonal_triple(0.3)[:2]
        paths = [write_povm(tmp_path, f"m{k}.json", povms[k]) for k in range(2)]
        proc = self.run("jm-check", *paths, "--tol", "nan")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--tol" in proc.stderr

    def test_realize_outcomes_then_verify(self, fork_file, tmp_path):
        out = tmp_path / "pvm.json"
        proc = self.run("realize", fork_file, "--method", "rank-one", "--outcomes", "3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verification"]["passed"] is True
        proc = self.run("verify", fork_file, str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"passed": True, "violations": []}
