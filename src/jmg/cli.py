"""Command-line surface: construct, verify, dilate, check, and demo.

Exit codes: 0 = success (verification passed / query feasible), 1 = a
verification or feasibility query came back negative, 2 = input error (or an
internal error, reported as such with its traceback).
Machine output is deterministic JSON; ``--pretty`` switches stdout to a
human-readable report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import serialize
from .errors import InputError, tolerance
from .graphs import Graph, graph_from_json_obj, graph_to_json_obj, parse_graph
from .linalg import DEFAULT_TOL, lift_entries
from .povm import (
    DEFAULT_DILATION_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_SOLVER_TOL,
    compression,
    demo_hollow_triangle,
    dilation_to_json_obj,
    jm_feasible,
    jm_report_to_json_obj,
    neumark_dilate,
    povm_from_json_obj,
    hollow_triangle_report_to_json_obj,
)
from .realize import (
    PvmRealization,
    extend_outcomes,
    fork_obstruction,
    lower_bound_graph,
    make_faithful,
    pvm_realization_from_json_obj,
    pvm_realization_to_json_obj,
    realization_from_json_obj,
    realization_to_json_obj,
    realize_direct_sum,
    realize_rank_one,
    restrict_to_span,
    verification_report_to_json_obj,
    verify_realization,
)


def _tolerance(text: str) -> float:
    try:
        return tolerance(float(text))
    except ValueError as exc:  # not a number, or an InputError from the tolerance rule
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser: built on the first call, then shared, since
    ``parse_args`` keeps no parsed state in it."""
    parser = argparse.ArgumentParser(
        prog="jmg",
        description="Realize graphs as quantum observables and decide joint measurability.",
    )
    # each parent holds options that every handler it is given to reads
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--pretty", action="store_true", help="human-readable stdout")
    output.add_argument("--out", default=None, help="write the full result JSON to this path")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, default=None, help="tolerance override")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, help="solver iteration cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", parents=[output, tol], help="construct a realization from a graph file")
    p.add_argument("graph_file")
    p.add_argument(
        "--method",
        choices=["direct-sum", "rank-one", "rank-one-restricted"],
        default="direct-sum",
    )
    p.add_argument("--faithful", action="store_true", help="force distinct projections per vertex")
    p.add_argument(
        "--outcomes",
        default=None,
        help="sharp-observable outcome counts: a single integer or 'vertex:count,...' (missing vertices get 2)",
    )

    p = sub.add_parser("verify", parents=[output, tol], help="verify a realization file against a graph file")
    p.add_argument("graph_file")
    p.add_argument("realization_file")

    p = sub.add_parser("dilate", parents=[output, tol], help="dilate a POVM file to a sharp observable")
    p.add_argument("povm_file")

    p = sub.add_parser("jm-check", parents=[output, tol, solver], help="joint-measurability feasibility query")
    p.add_argument("povm_files", nargs="+")

    demos = sub.add_parser("demo", help="run a built-in demonstration").add_subparsers(dest="name", required=True)
    demos.add_parser("fork", parents=[output])
    p = demos.add_parser("hollow-triangle", parents=[output, tol, solver])
    p.add_argument("--eta", type=float, default=0.6, help="noise level")
    p = demos.add_parser("lower-bound", parents=[output])
    p.add_argument("--dim", type=int, required=True, help="target dimension")
    return parser


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str, path: str):
    """The JSON document `text`; its compact entries lists of strings are
    read as `Raw`s of their text (see `linalg.lift_entries`)."""
    skeleton, lists = lift_entries(text)
    try:
        if lists:
            raws = iter(lists)
            try:
                return json.loads(skeleton, parse_constant=lambda _: next(raws))
            except ValueError:
                pass  # `text` is invalid as well, and its own parse says where
        return json.loads(text)
    except ValueError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _load_json(path: str):
    return _parse_json(_read_text(path), path)


def _load_graph(path: str) -> Graph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return graph_from_json_obj(_parse_json(text, path))
    try:
        return parse_graph(text.strip())
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write_over(path: str, *chunks: bytes) -> None:
    """Write `chunks`, one after another, over the file at `path` in place,
    creating it if needed, and cut off what is left of a longer old file.
    Truncating a file that holds data before writing (``open(path, "w")``)
    costs more than the write on some file systems.  Unlike a new file
    renamed over the old one, this keeps symlinks, hard links and the mode;
    a device or FIFO reports size 0, so it is never truncated."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old_size = os.fstat(fd).st_size
        for chunk in chunks:
            view = memoryview(chunk)
            while view:
                view = view[os.write(fd, view):]
        size = sum(map(len, chunks))
        if old_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _emit(args, report_obj: dict, pretty_lines: list, payload_obj: dict | None) -> None:
    """Print the report and, with --out, write the payload to that path; a
    caller that builds the payload only for --out passes None without it."""
    report_text = None
    if args.out:
        payload_text = serialize.dumps(payload_obj)
        if payload_obj is report_obj:
            report_text = payload_text  # one document for both: serialize it once
        try:
            # the newline is its own chunk: appending it would copy the text
            _write_over(args.out, payload_text.encode("utf-8"), b"\n")
        except OSError as exc:
            # before anything is printed, so stdout stays empty
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    if args.pretty:
        for line in pretty_lines:
            print(line)
    else:
        print(report_text if report_text is not None else serialize.dumps(report_obj))


def _parse_outcome_spec(spec: str, vertex_count: int) -> dict:
    spec = spec.strip()

    def number(text: str) -> int:
        text = text.strip()
        if not (text.isascii() and text.isdigit()):  # int() also reads "1_0", "+3" and "٣"
            raise InputError(f"bad --outcomes specification {spec!r}")
        return int(text)

    if ":" not in spec:
        return dict.fromkeys(range(vertex_count), number(spec))
    counts = {}
    for chunk in spec.split(","):
        v, _, c = chunk.partition(":")
        v = number(v)
        if v in counts:
            raise InputError(f"--outcomes names vertex {v} twice")
        counts[v] = number(c)
    for v in counts:
        if v >= vertex_count:
            raise InputError(f"--outcomes names vertex {v} outside 0..{vertex_count - 1}")
    return {x: counts.get(x, 2) for x in range(vertex_count)}


def _cmd_realize(args) -> int:
    graph = _load_graph(args.graph_file)
    check_tol = args.tol if args.tol is not None else DEFAULT_TOL
    # the options are checked before a construction, which can take seconds
    if args.method == "rank-one-restricted" and (args.faithful or args.outcomes is not None):
        flag = "--faithful" if args.faithful else "--outcomes"
        raise InputError(f"{flag} needs an exact method (direct-sum or rank-one)")
    counts = None if args.outcomes is None else _parse_outcome_spec(args.outcomes, graph.vertex_count)
    if args.method == "direct-sum":
        result = realize_direct_sum(graph)
    elif args.method == "rank-one":
        result = realize_rank_one(graph)
    else:
        result = restrict_to_span(realize_rank_one(graph))
    if args.faithful:
        result = make_faithful(result)
    if counts is not None:
        result = extend_outcomes(result, counts)
    report = verify_realization(graph, result, check_tol)
    if isinstance(result, PvmRealization):
        to_json_obj, kind = pvm_realization_to_json_obj, "pvm_realization"
    else:
        to_json_obj, kind = realization_to_json_obj, "realization"
    summary = {
        "kind": kind,
        "space_dim": result.space_dim,
        "method": args.method.replace("-", "_"),
        "faithful": bool(args.faithful),
        "verification": verification_report_to_json_obj(report),
    }
    pretty = [
        f"method: {args.method}",
        f"space dimension: {result.space_dim}",
        f"verification: {'PASSED' if report.passed else 'FAILED'}",
    ]
    for v in report.violations:
        pretty.append(f"  pair {v.pair}: expected {v.expected}, observed {v.observed}")
    # the wire object is only written to --out; a large one costs its size in memory
    _emit(args, summary, pretty, to_json_obj(result) if args.out else None)
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    graph = _load_graph(args.graph_file)
    obj = _load_json(args.realization_file)
    if isinstance(obj, dict) and "pvms" in obj:
        realization = pvm_realization_from_json_obj(obj)
    else:
        realization = realization_from_json_obj(obj)
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    report = verify_realization(graph, realization, tol)
    summary = verification_report_to_json_obj(report)
    pretty = [f"verification: {'PASSED' if report.passed else 'FAILED'}"]
    for v in report.violations:
        pretty.append(f"  pair {v.pair}: expected {v.expected}, observed {v.observed}")
    _emit(args, summary, pretty, summary)
    return 0 if report.passed else 1


def _cmd_dilate(args) -> int:
    povm = povm_from_json_obj(_load_json(args.povm_file))
    result = neumark_dilate(povm, args.tol if args.tol is not None else DEFAULT_DILATION_TOL)
    residual = max(
        float(np.linalg.norm(compression(result.isometry, result.pvm.elements[o]) - povm.elements[o]))
        for o in povm.outcomes
    )
    summary = {"enlarged_dim": result.enlarged_dim, "max_residual": residual}
    pretty = [
        f"enlarged dimension: {result.enlarged_dim}",
        f"max reconstruction residual: {residual:.3e}",
    ]
    _emit(args, summary, pretty, dilation_to_json_obj(result) if args.out else None)
    return 0


def _cmd_jm_check(args) -> int:
    if len(args.povm_files) < 2:
        raise InputError("jm-check needs at least two POVM files")
    povms = [povm_from_json_obj(_load_json(path)) for path in args.povm_files]
    tol = args.tol if args.tol is not None else DEFAULT_SOLVER_TOL
    report = jm_feasible(povms, tol, args.max_iter)
    obj = jm_report_to_json_obj(report)
    pretty = [
        f"verdict: {report.verdict}",
        f"iterations: {report.iterations}",
        f"final residual: {report.final_residual:.3e}",
    ]
    _emit(args, obj, pretty, obj)
    return 0 if report.feasible else 1


def _cmd_demo(args) -> int:
    if args.name == "fork":
        rep = fork_obstruction()
        obj = {
            "graph": graph_to_json_obj(rep.graph),
            "maximal_cliques": [list(c) for c in rep.cliques],
            "steps": list(rep.steps),
            "forced_pair": list(rep.forced_pair),
            "derivation_valid": rep.derivation_valid,
        }
        pretty = ["fork obstruction:"] + [f"  {s}" for s in rep.steps]
        _emit(args, obj, pretty, obj)
        return 0
    if args.name == "hollow-triangle":
        tol = args.tol if args.tol is not None else DEFAULT_SOLVER_TOL
        rep = demo_hollow_triangle(args.eta, tol, args.max_iter)
        obj = hollow_triangle_report_to_json_obj(rep)
        pretty = [
            f"noise level eta = {rep.eta}",
            *(
                f"pair {pair}: {r.verdict} (residual {r.final_residual:.3e})"
                for pair, r in sorted(rep.pair_reports.items())
            ),
            f"triple: {rep.triple_report.verdict} (residual {rep.triple_report.final_residual:.3e})",
            f"hypergraph maximal hyperedges: {sorted(sorted(h) for h in rep.hypergraph.hyperedges)}",
            f"graph-induced: {rep.hypergraph_graph_induced}",
            f"regime: {rep.regime}",
            f"conclusion: {rep.conclusion}",
        ]
        _emit(args, obj, pretty, obj)
        return 0
    # the parser admits only the three demo names; this one is lower-bound
    rep = lower_bound_graph(args.dim)
    obj = {
        "graph": graph_to_json_obj(rep.graph),
        "action_vertices": list(rep.action_vertices),
        "control_vertices": list(rep.control_vertices),
        "bitstrings": list(rep.bitstrings),
        "partition_count": rep.partition_count,
    }
    pretty = [
        f"partitions of a {args.dim}-element set: {rep.partition_count}",
        f"action vertices: {len(rep.action_vertices)} (complete among themselves)",
        f"control vertices: {len(rep.control_vertices)} (mutually disconnected)",
        f"bitstrings (bit k = adjacency to control k): {list(rep.bitstrings)}",
    ]
    _emit(args, obj, pretty, obj)
    return 0


_DISPATCH = {
    "realize": _cmd_realize,
    "verify": _cmd_verify,
    "dilate": _cmd_dilate,
    "jm-check": _cmd_jm_check,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _DISPATCH[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input; still never crash the process
        import traceback

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
