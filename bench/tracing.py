"""In-memory spans and counters around calls into the jmg layers.

The benchmark does not edit the program.  A traced call installs wrappers on
the names the CLI and the library modules look up at call time (module
attributes, plus ``RationalMatrix.__matmul__``), runs, and restores the
originals, so untraced calls run the unmodified code.

A span is ``(span_id, parent_id, op_id, name, start, end)``; spans of one
benchmark operation share ``op_id``.  A layer's self time is its span's
duration minus the durations of its direct children (calls are sequential,
so children never overlap).
"""

from __future__ import annotations

import functools
import json
import types
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.solves: list[tuple] = []  # (verdict, iterations, seconds) per solver call
        self.op_id = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, label, fn, observe=None):
        """Wrap `fn` in a span.  `label` is a span name or a function of the
        call's arguments; `observe(tracer, args, result, seconds)` updates
        counters after the span closes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(args) if callable(label) else label
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, tracer.op_id, name, start, end))
            if observe is not None:
                observe(tracer, args, result, end - start)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), replacement))

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            self_s[name] += (end - start) - child_time[span_id]
        return dict(self_s)

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [dict(zip(keys, s)) for s in self.spans],
                    "counters": dict(self.counters),
                },
                fh,
            )


def _count_non_edges(tracer, args, result, seconds):
    tracer.counters["graphs.non_edge_calls"] += 1
    tracer.counters["graphs.non_edges"] += len(result.pairs)


def _count_verify(tracer, args, result, seconds):
    n = args[0].vertex_count
    tracer.counters["realize.verify_pairs"] += n * (n - 1) // 2


def _count_matmul(tracer, args, result, seconds):
    a, b = args
    tracer.counters["linalg.matmul_calls"] += 1
    tracer.counters["linalg.matmul_mac_computed"] += a.rows * a.cols * b.cols


def _count_commutator(tracer, args, result, seconds):
    tracer.counters["linalg.commutator_calls"] += 1


def _count_dumps(tracer, args, result, seconds):
    tracer.counters["serialize.bytes_out"] += len(result)


def _record_solve(tracer, args, result, seconds):
    tracer.solves.append((result.verdict, result.iterations, seconds))


def instrument(jmg) -> Tracer:
    """A tracer with wrappers prepared for every traced layer of `jmg`
    (the imported package, with its submodules loaded)."""
    cli, realize, linalg = jmg.cli, jmg.realize, jmg.linalg
    feasibility, dilation = jmg.povm.feasibility, jmg.povm.dilation
    tracer = Tracer()
    w = tracer.wrap

    def verify_label(args):
        r = args[1]
        if isinstance(r, realize.PvmRealization):
            return "realize.verify_pvm"
        return "realize.verify_exact" if r.is_exact else "realize.verify_float"

    plan = [
        (cli, "main", "cli.main", None),
        (cli, "parse_graph", "graphs.parse", None),
        (realize, "non_edges", "graphs.non_edges", _count_non_edges),
        (cli, "realize_direct_sum", "realize.direct_sum", None),
        (cli, "realize_rank_one", "realize.rank_one", None),
        (cli, "extend_outcomes", "realize.extend_outcomes", None),
        (cli, "make_faithful", "realize.make_faithful", None),
        (cli, "restrict_to_span", "realize.restrict_to_span", None),
        (cli, "verify_realization", verify_label, _count_verify),
        (linalg.RationalMatrix, "__matmul__", "linalg.matmul", _count_matmul),
        (realize, "commutator", "linalg.commutator", _count_commutator),
        (cli, "realization_to_json_obj", "realize.to_json_obj", None),
        (cli, "pvm_realization_to_json_obj", "realize.to_json_obj", None),
        (cli, "verification_report_to_json_obj", "realize.to_json_obj", None),
        (cli, "realization_from_json_obj", "realize.from_json_obj", None),
        (cli, "pvm_realization_from_json_obj", "realize.from_json_obj", None),
        (jmg.serialize, "dumps", "serialize.dumps", _count_dumps),
        (cli, "povm_from_json_obj", "povm.from_json_obj", None),
        (feasibility, "validate_povm", "povm.validate", None),
        (dilation, "validate_povm", "povm.validate", None),
        (cli, "jm_feasible", "povm.jm_feasible", _record_solve),
        (cli, "jm_report_to_json_obj", "povm.jm_report_to_json_obj", None),
        (cli, "neumark_dilate", "povm.neumark_dilate", None),
        (cli, "compression", "povm.compression", None),
        (cli, "dilation_to_json_obj", "povm.dilation_to_json_obj", None),
    ]
    for owner, attr, label, observe in plan:
        tracer.patch(owner, attr, w(label, getattr(owner, attr), observe))

    # The CLI parses files with the stdlib ``json.loads``; give the cli module
    # its own view of ``json`` whose ``loads`` is traced, leaving the real
    # module untouched for everyone else.
    std_json = cli.json
    shim = types.SimpleNamespace(
        **{k: getattr(std_json, k) for k in dir(std_json) if not k.startswith("__")}
    )
    shim.loads = w("serialize.loads", std_json.loads)
    tracer.patch(cli, "json", shim)
    return tracer
