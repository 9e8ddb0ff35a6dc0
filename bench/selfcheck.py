"""Self-check of the benchmark harness at a tiny size.

    python3 bench/selfcheck.py

Runs one small pass of every workload, untraced and traced, and confirms
that every metric named in ``BENCHMARK.json`` is emitted with its unit and
that no call fails.  Then injects faults into the program's functions (a
wrong verification verdict, a wrong solver verdict, an internal error that
``cli.main`` turns into exit code 2) and confirms that each one raises the
failed fraction above zero.  Exits 1 if any check does not hold.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from contextlib import contextmanager

import run

_, jmg, _ = run.load_program()

import tracing  # noqa: E402  (after the BLAS thread cap is set)
import workloads  # noqa: E402

SEED = 5
# The workload-specific figures the run prints before its result line.
DETAILS = {
    "exact-small": {"failed_frac": "1", "graphs_per_s": "1/s", "graph_ms_p50": "ms",
                    "graph_ms_p90": "ms"},
    "exact-large": {"failed_frac": "1", "realize_s_p50": "s", "verify_s_p50": "s", "out_mb": "MB"},
    "solver": {"failed_frac": "1", "feasible_query_ms_p50": "ms", "feasible_query_ms_p90": "ms",
               "infeasible_query_s_p50": "s", "dilate_ms_p50": "ms"},
}


def tiny_run(name: str, trace: bool):
    work = run.OUT_DIR / f"selfcheck-{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.make(name, SEED, work, jmg, tiny=True)
        tracer = tracing.instrument(jmg) if trace else None
        result = run.measure(jmg.cli, workload, 0, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return workload, tracer, result


@contextmanager
def patched(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def compare(label: str, emitted: dict, declared: list, problems: list) -> None:
    for spec in declared:
        got = emitted.get(spec["name"])
        if got is None:
            problems.append(f"{label}: {spec['name']} not emitted")
        elif got[1] != spec["unit"]:
            problems.append(f"{label}: {spec['name']} in {got[1]!r}, declared {spec['unit']!r}")
    extra = set(emitted) - {s["name"] for s in declared}
    if extra:
        problems.append(f"{label}: undeclared metrics {sorted(extra)}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    setup_s, _ = run.measure_setup(dict(os.environ))
    for name in run.WORKLOADS:
        for trace in (False, True):
            workload, tracer, result = tiny_run(name, trace)
            label = f"{name} trace={int(trace)}"
            if trace:
                compare(label, run.per_layer(result, tracer, workload), spec["per_layer"], problems)
            else:
                compare(label, run.end_to_end(result, setup_s), spec["end_to_end"], problems)
                detail = run.details(name, result)
                declared = [{"name": k, "unit": u} for k, u in DETAILS[name].items()]
                compare(f"{label} details", detail, declared, problems)
            frac = run.failed_frac(result)
            if frac != 0:
                problems.append(f"{label}: failed_frac {frac} on unmodified program")
            print(f"{label}: {sum(r.attempted for r in (result['warm'], result['plain'], result['traced']))}"
                  f" calls, failed_frac {frac}")

    realize, povm = jmg.realize, jmg.povm

    def wrong_verdict(graph, realization, tol=1e-9):
        return realize.VerificationReport(False, [])

    def never_feasible(povms, tol=povm.DEFAULT_SOLVER_TOL, max_iter=povm.DEFAULT_MAX_ITER):
        return povm.JmReport("infeasible_stalled", None, 1, 1.0, [])

    def internal_error(*args, **kwargs):
        raise RuntimeError("injected internal error")

    injections = [
        ("wrong verify verdict", "exact-small", "verify_realization", wrong_verdict, None),
        ("wrong solver verdict", "solver", "jm_feasible", never_feasible, None),
        ("exit code 2", "exact-large", "realize_rank_one", internal_error, "exit 2"),
        ("exit code 2", "solver", "neumark_dilate", internal_error, "exit 2"),
    ]
    for label, name, attr, fake, marker in injections:
        with patched(jmg.cli, attr, fake):
            _, _, result = tiny_run(name, False)
        frac = run.failed_frac(result)
        errors = [e for r in (result["warm"], result["plain"]) for e in r.errors]
        seen = marker is None or any(marker in e for e in errors)
        ok = frac > 0 and seen
        print(f"injected {label} into {name}: failed_frac {frac:.3f} {'ok' if ok else 'NOT DETECTED'}")
        if not ok:
            problems.append(f"injected {label} into {name} not detected")

    for p in problems:
        print(f"PROBLEM {p}")
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
