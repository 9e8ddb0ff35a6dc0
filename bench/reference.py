"""One traced measurement of the ROADMAP's hand-timed baselines.

    python3 bench/reference.py

These are reference points, not a workload: the n = 24 graph built with
``random.seed(24)`` (each pair, in lexicographic order, an edge with
probability 0.5) through ``realize --method direct-sum --out``, ``verify`` of
that file and ``realize --method rank-one --out``; and ``jm-check`` on the
noisy orthogonal triple at eta = 0.60.  Each call runs once, traced, and the
result is written to ``bench/reference.json`` together with the benchmark's
default and held-out seeds and the reason for each workload.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from itertools import combinations
from pathlib import Path

import run

np, jmg, nproc = run.load_program()

import tracing  # noqa: E402  (after the BLAS thread cap is set)
import workloads  # noqa: E402

TARGET = Path(__file__).resolve().parent / "reference.json"
# Wall times the ROADMAP gives for the same calls, taken by hand and untraced.
ROADMAP_WALL_S = {
    "realize_direct_sum_n24": 13.2,
    "verify_direct_sum_n24": 22.5,
    "realize_rank_one_n24": 3.4,
    "jm_check_triple_eta_0.60": 3.5,
}
ROADMAP_US_PER_ITER = 70


def main() -> int:
    work = run.OUT_DIR / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    rng = random.Random(24)
    edges = [(a, b) for a, b in combinations(range(24), 2) if rng.random() < 0.5]
    non_edges = 276 - len(edges)
    graph = work / "n24.txt"
    workloads.write_graph(graph, 24, edges)
    ds, r1 = work / "n24-direct-sum.json", work / "n24-rank-one.json"
    triple = []
    for axis in range(3):
        path = work / f"triple-{axis}.json"
        workloads.write_povm(path, workloads.noisy_axis(0.60, axis))
        triple.append(str(path))
    cases = [
        ("realize_direct_sum_n24", workloads.Call(
            ["realize", str(graph), "--method", "direct-sum", "--out", str(ds)],
            workloads.realize_check("realization", 2 * non_edges), "realize", out_path=ds)),
        ("verify_direct_sum_n24", workloads.Call(
            ["verify", str(graph), str(ds)], workloads.verify_check, "verify")),
        ("realize_rank_one_n24", workloads.Call(
            ["realize", str(graph), "--method", "rank-one", "--out", str(r1)],
            workloads.realize_check("realization", 24 + non_edges), "realize", out_path=r1)),
        ("jm_check_triple_eta_0.60", workloads.Call(
            ["jm-check", *triple], lambda code, out: workloads.require(
                code == 1 and json.loads(out)["iterations"] == workloads.CLI_MAX_ITER,
                "triple did not stall at the cap"), "jm-check", "infeasible")),
    ]
    results = {}
    try:
        for label, call in cases:
            tracer = tracing.instrument(jmg)
            record = run.Record()
            seconds = run.run_call(jmg.cli, call, record, tracer)[1]
            if record.failed:
                raise RuntimeError(f"{label}: {record.errors}")
            self_s = tracer.self_times()
            layers = {k: round(v, 4) for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])
                      if v >= 0.001}
            entry = {"wall_s": round(seconds, 3), "roadmap_wall_s": ROADMAP_WALL_S[label],
                     "self_s_by_layer": layers, "counters": dict(tracer.counters)}
            if call.out_path is not None:
                entry["out_mb"] = round(call.out_path.stat().st_size / 2**20, 3)
            for verdict, iterations, solve_s in tracer.solves:
                entry.update(verdict=verdict, iterations=iterations,
                             us_per_iter=round(1e6 * solve_s / iterations, 1),
                             roadmap_us_per_iter=ROADMAP_US_PER_ITER)
            results[label] = entry
            print(label, json.dumps(entry))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    doc = {
        "default_seed": run.DEFAULT_SEED,
        "held_out_seed": run.HELD_OUT_SEED,
        "workload_why": workloads.WHY,
        "hand_baselines": {
            "note": "one traced run of each call; timings include tracing overhead",
            "graph": {"vertices": 24, "edges": len(edges), "non_edges": non_edges},
            "env": run.environment(np, nproc),
            "calls": results,
        },
    }
    TARGET.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
