"""Benchmark of the ``jmg`` command: exact realize/verify and the JM solver.

    python3 bench/run.py --workload exact-small --seed 1 --seconds 25 --trace 0

Drives ``jmg.cli.main`` in-process, one closed-loop caller (each call waits
for the previous one), on inputs generated from ``--seed``.  A run builds the
workload's items once (see ``workloads.py``) and runs whole passes over them
until ``--seconds`` have passed, checks every call's output, and prints one
JSON object as its last line of stdout: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

The end-to-end timings are wall times scaled to a reference host speed: a
fixed probe of pure-Python work runs between calls and every 0.1 s during them
(see ``gauge.py``), and each call's wall time is multiplied by
``REF_PROBE_S / probe time`` over it.  On a shared host, wall times of the same
work drift by a third or more with the neighbours' load; scaled times do not,
and a change to the program moves them as it moves wall times.  The wall
figures are printed and kept in the result record as well.  Per-layer times
are wall times.

With ``--trace 1`` every item runs twice, untraced and then traced, so the
same run yields ``trace.overhead_frac``; spans and counters are recorded
around the calls into ``jmg.graphs``, ``jmg.linalg``, ``jmg.realize``,
``jmg.serialize``, ``jmg.povm`` and ``jmg.cli`` (see ``tracing.py``) and are
written to ``.bench_out/`` with a result record at the end.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from gauge import REF_PROBE_S, Gauge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("exact-small", "exact-large", "solver")
DEFAULT_SEED = 1
HELD_OUT_SEED = 977
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
# A run never starts a new item after this many seconds, so it ends well
# inside three minutes even if the program gets much slower.
HARD_LIMIT_S = 120.0

# Times `import jmg.cli` in a fresh interpreter, between probes of the host's
# speed taken in the same process (the first probe is a warm-up).
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); sys.path.append(sys.argv[2]); "
    "import gauge; p = [gauge.probe() for _ in range(4)][1:]; "
    "t = time.perf_counter(); import jmg.cli; d = time.perf_counter() - t; "
    "p += [gauge.probe() for _ in range(3)]; print(d, sum(p) / len(p))"
)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- running calls ------------------------------------------------------------------


class Record:
    """Every call and item run under one condition.

    With a gauge, each call's wall time is scaled to the reference host speed
    by the probes taken around and during it (see ``gauge.py``); an item's
    time is the sum of its calls' times in one pass."""

    def __init__(self, gauge=None):
        self.gauge = gauge
        self.item_runs: list[list] = []  # one list of call samples per item run
        self.call_info: dict = {}  # (item key, call index) -> [kind, cls, all ok, out_bytes]
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def seconds(self, sample) -> float:
        key, wall, before, ticks, after = sample
        return wall if self.gauge is None else wall * self.gauge.scale(before, ticks, after)

    @property
    def items(self) -> list:
        return [sum(self.seconds(s) for s in run) for run in self.item_runs]

    @property
    def calls(self) -> list:
        """(kind, cls, seconds, all ok, out_bytes) of every call run."""
        return [(*self.call_info[s[0]][:2], self.seconds(s), *self.call_info[s[0]][2:])
                for run in self.item_runs for s in run]

    @property
    def wall_items(self) -> list:
        return [sum(s[1] for s in run) for run in self.item_runs]

    @property
    def runs(self) -> int:
        return len(self.item_runs)


def run_call(cli, call, record: Record, tracer=None, key=None) -> list:
    """Run one CLI call, check its output, and return its sample
    ``[key, wall seconds, probe before, probes during, probe after]``."""
    gauge = record.gauge
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.op_id += 1
            tracer.install()
        before = gauge.start() if gauge is not None else None
        try:
            start = perf_counter()
            code = cli.main(call.argv)
            seconds = perf_counter() - start
        finally:
            ticks = gauge.stop() if gauge is not None else []
            if tracer is not None:
                tracer.uninstall()
    sample = [key, seconds, before, ticks, None]
    if gauge is not None:
        gauge.after(sample)
    error = None
    if code == 2:  # cli.main maps internal exceptions to 2 as well
        error = f"exit 2: {err.getvalue().strip()}"
    else:
        try:
            call.check(code, out.getvalue())
        except Exception as exc:  # any wrong or unreadable output is a failed call
            error = f"{type(exc).__name__}: {exc}"
    size = call.out_path.stat().st_size if call.out_path and call.out_path.exists() else 0
    record.attempted += 1
    info = record.call_info.setdefault(key, [call.kind, call.cls, True, size])
    if error is not None:
        record.failed += 1
        info[2] = False
        record.errors.append(f"{' '.join(call.argv[:1] + call.argv[2:])}: {error}")
    return sample


def run_item(cli, item, record: Record, key, tracer=None) -> None:
    record.item_runs.append(
        [run_call(cli, call, record, tracer, (key, j)) for j, call in enumerate(item.calls)])


def measure(cli, workload, seconds: float, tracer=None) -> dict:
    """Warm up, then run passes over the workload's items until `seconds`
    have passed.  Traced, every item runs once untraced and once traced.
    One gauge serves all three records."""
    gauge = Gauge()
    warm, plain, traced = Record(gauge), Record(gauge), Record(gauge)
    probes: list[float] = []
    for i, item in enumerate(workload.warmup_items()):
        run_item(cli, item, warm, i)
    items = workload.items()
    start = perf_counter()
    passes = 0
    while True:
        for i, item in enumerate(items):
            run_item(cli, item, plain, i)
            if tracer is not None:
                run_item(cli, item, traced, i, tracer)
                if item.probe is not None:
                    probes.append(item.probe())
            if perf_counter() - start > HARD_LIMIT_S:
                break
        passes += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds or elapsed > HARD_LIMIT_S:
            break
    gauge.flush()
    return {"warm": warm, "plain": plain, "traced": traced, "probes": probes,
            "passes": passes, "elapsed_s": elapsed, "gauge": gauge}


# -- metrics --------------------------------------------------------------------------


def end_to_end(run: dict, setup_s: float) -> dict:
    rec = run["plain"]
    items = rec.items
    sizes = [b for *_, b in rec.calls if b]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "items_per_s": (len(items) / sum(items), "1/s"),
        "item_ms_p50": (1e3 * percentile(items, 50), "ms"),
        "out_mb": (sum(sizes) / len(sizes) / 2**20 if sizes else 0.0, "MB"),
    }


def details(name: str, run: dict) -> dict:
    """The workload's own end-to-end figures, with sample counts."""
    rec = run["plain"]
    calls = [(k, c, s) for k, c, s, ok, _ in rec.calls if ok]
    attempted = sum(r.attempted for r in (run["warm"], run["plain"], run["traced"]))
    out = {"failed_frac": (failed_frac(run), "1", attempted)}

    def add(metric, kind, cls, q, scale, unit):
        xs = [s for k, c, s in calls if k == kind and (cls is None or c == cls)]
        if xs:
            out[metric] = (scale * percentile(xs, q), unit, len(xs))

    if name == "exact-small":
        items = rec.items
        out["graphs_per_s"] = (len(items) / sum(items), "1/s", len(items))
        out["graph_ms_p50"] = (1e3 * percentile(items, 50), "ms", len(items))
        out["graph_ms_p90"] = (1e3 * percentile(items, 90), "ms", len(items))
    elif name == "exact-large":
        add("realize_s_p50", "realize", None, 50, 1, "s")
        add("verify_s_p50", "verify", None, 50, 1, "s")
        sizes = [b for k, _, _, ok, b in rec.calls if k == "realize" and ok]
        out["out_mb"] = (sum(sizes) / len(sizes) / 2**20, "MB", len(sizes))
    else:
        add("feasible_query_ms_p50", "jm-check", "feasible", 50, 1e3, "ms")
        add("feasible_query_ms_p90", "jm-check", "feasible", 90, 1e3, "ms")
        add("infeasible_query_s_p50", "jm-check", "infeasible", 50, 1, "s")
        add("dilate_ms_p50", "dilate", None, 50, 1e3, "ms")
    return out


def failed_frac(run: dict) -> float:
    recs = (run["warm"], run["plain"], run["traced"])
    return sum(r.failed for r in recs) / sum(r.attempted for r in recs)


LAYER_TIMES = {
    "cli.self_s": "cli.main",
    "graphs.parse_s": "graphs.parse",
    "graphs.non_edges_s": "graphs.non_edges",
    "realize.direct_sum_s": "realize.direct_sum",
    "realize.rank_one_s": "realize.rank_one",
    "realize.extend_outcomes_s": "realize.extend_outcomes",
    "realize.make_faithful_s": "realize.make_faithful",
    "realize.restrict_to_span_s": "realize.restrict_to_span",
    "realize.verify_exact_s": "realize.verify_exact",
    "realize.verify_pvm_s": "realize.verify_pvm",
    "realize.verify_float_s": "realize.verify_float",
    "linalg.matmul_s": "linalg.matmul",
    "linalg.commutator_s": "linalg.commutator",
    "realize.to_json_obj_s": "realize.to_json_obj",
    "serialize.dumps_s": "serialize.dumps",
    "serialize.loads_s": "serialize.loads",
    "realize.from_json_obj_s": "realize.from_json_obj",
    "povm.from_json_obj_s": "povm.from_json_obj",
    "povm.validate_s": "povm.validate",
    "povm.jm_feasible_s": "povm.jm_feasible",
    "povm.neumark_dilate_s": "povm.neumark_dilate",
    "povm.compression_s": "povm.compression",
    "povm.jm_report_to_json_obj_s": "povm.jm_report_to_json_obj",
    "povm.dilation_to_json_obj_s": "povm.dilation_to_json_obj",
}
LAYER_COUNTS = (
    "realize.verify_pairs",
    "linalg.matmul_calls",
    "linalg.matmul_mac_computed",
    "linalg.commutator_calls",
    "serialize.bytes_out",
)


def per_layer(run: dict, tracer, workload) -> dict:
    """Self times and counters per traced item; solver figures per query."""
    units = run["traced"].runs
    self_s = tracer.self_times()
    out = {m: (self_s.get(span, 0.0) / units, "s/item") for m, span in LAYER_TIMES.items()}
    for name in LAYER_COUNTS:
        unit = "B/item" if name == "serialize.bytes_out" else "count/item"
        out[name] = (tracer.counters[name] / units, unit)
    calls = tracer.counters["graphs.non_edge_calls"]
    out["graphs.non_edge_count"] = (tracer.counters["graphs.non_edges"] / calls if calls else 0.0, "count")

    solves = tracer.solves
    feasible = [it for verdict, it, _ in solves if verdict == "feasible"]
    infeasible = [it for verdict, it, _ in solves if verdict != "feasible"]
    long = [s / it for _, it, s in solves if it >= 100]
    out["povm.setup_ms"] = (1e3 * statistics.median(run["probes"]) if run["probes"] else 0.0, "ms")
    out["povm.iterations_feasible_p50"] = (statistics.median(feasible) if feasible else 0, "count")
    out["povm.iterations_infeasible"] = (statistics.median(infeasible) if infeasible else 0, "count")
    out["povm.us_per_iter"] = (1e6 * statistics.median(long) if long else 0.0, "us")
    # witness quality over every feasible query of the run (solver only)
    out["povm.witness_marginal_err_max"] = (getattr(workload, "witness_err_max", 0.0), "1")
    min_eig = getattr(workload, "witness_min_eig", math.inf)
    out["povm.witness_min_eig"] = (min_eig if math.isfinite(min_eig) else 0.0, "1")

    plain, traced = sum(run["plain"].items), sum(run["traced"].items)
    out["trace.overhead_frac"] = ((traced - plain) / plain, "1")
    return out


# -- environment ----------------------------------------------------------------------


def measure_setup(env: dict) -> tuple[float, float]:
    """Median time to import ``jmg.cli`` in fresh interpreters (one unmeasured
    import first, so byte-code compilation is not counted): scaled to the
    reference host speed by probes in the same interpreter, and as wall time."""
    scaled, wall = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing jmg.cli failed: {proc.stderr.strip()}")
        if i:
            seconds, probe_s = map(float, proc.stdout.split())
            wall.append(seconds)
            scaled.append(seconds * REF_PROBE_S / probe_s)
    return statistics.median(scaled), statistics.median(wall)


def environment(np, nproc: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_lib = "unknown"
    try:
        # the ceiling keeps git from looking for a repository above the checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "jmg").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": nproc,
        "blas_threads": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_lib,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def load_program():
    """Cap BLAS threads, then import numpy and jmg from ``src/``."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import jmg
    import jmg.cli
    import jmg.povm

    if Path(jmg.__file__).resolve().parent != SRC / "jmg":
        raise RuntimeError(f"imported jmg from {jmg.__file__}, not from {SRC}")
    return np, jmg, nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jmg" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'jmg'}", file=sys.stderr)
        return 2

    np, jmg, nproc = load_program()
    import workloads
    from tracing import instrument

    setup_s, setup_wall_s = measure_setup(dict(os.environ))
    env = environment(np, nproc)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        workload = workloads.make(args.workload, args.seed, work, jmg)
        tracer = instrument(jmg) if args.trace else None
        run = measure(jmg.cli, workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        metrics = per_layer(run, tracer, workload)
        tracer.write(OUT_DIR / f"spans-{tag}.json")
    else:
        metrics = end_to_end(run, setup_s)
    detail = details(args.workload, run)
    recs = (run["warm"], run["plain"], run["traced"])
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    errors = [e for r in recs for e in r.errors]
    wall = run["plain"].wall_items or run["traced"].wall_items
    host = {
        "probe_ms_p50": 1e3 * statistics.median(run["gauge"].times),
        "reference_probe_ms": 1e3 * REF_PROBE_S,
        "setup_wall_s": setup_wall_s,
        "item_wall_ms_p50": 1e3 * percentile(wall, 50),
        "items_per_wall_s": len(wall) / sum(wall),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": run["passes"], "elapsed_s": run["elapsed_s"],
        "items": len(run["plain"].items), "env": env, "host": host, "errors": errors[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workload_metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in detail.items()},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for e in errors[:10]:
        print(f"FAILED {e}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {run['passes']} passes, {len(run['plain'].items)} items, "
          f"{run['elapsed_s']:.1f} s")
    for name, (value, unit, n) in detail.items():
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    print("  host " + " ".join(f"{k}={v:.6g}" for k, v in host.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
