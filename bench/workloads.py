"""The three benchmark workloads: seeded inputs, CLI calls and their checks.

Each workload is a sequence of *items*.  An item is one unit of user work:
every CLI call for one graph (``exact-small``, ``exact-large``) or one
joint-measurability query followed by a dilation of the family's first
observable (``solver``).  A run builds its items once and runs them in
*passes*, always whole ones, so the mix of sizes in a run does not depend on
where the clock stops.

Inputs are generated from the seed and written as files in the formats the
README documents; the program only sees those files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from time import perf_counter

import numpy as np

WHY = {
    "exact-small": (
        "tiny exact matrices (dim <= ~60): cost is per-call overhead in the exact kernel "
        "and the two verifiers, with little serialization"
    ),
    "exact-large": (
        "MB-sized files: time goes to large exact products in verify, to *_to_json_obj and "
        "serialize.dumps, and to reading the file back"
    ),
    "solver": (
        "feasible queries stop early, infeasible ones run to the 50,000-iteration cap: an early "
        "certificate moves only the latter, a faster iteration moves both"
    ),
}

# Witness and dilation acceptance, checked outside the program.
MARGINAL_TOL = 1e-6
MIN_EIG_TOL = -1e-9
DILATION_TOL = 1e-8  # the CLI's default dilation tolerance
CLI_MAX_ITER = 50_000  # the CLI's documented default iteration cap


@dataclass
class Call:
    argv: list
    check: object  # (exit_code, stdout) -> None, raises CheckFailed on a wrong result
    kind: str  # realize | verify | jm-check | dilate
    cls: str = ""  # feasible | infeasible for jm-check
    out_path: Path | None = None


@dataclass
class Item:
    calls: list
    probe: object = None  # traced runs only: () -> seconds of a solver set-up call


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- graphs -------------------------------------------------------------------


def write_graph(path: Path, n: int, edges) -> None:
    body = ", ".join(f"{a}-{b}" for a, b in edges)
    path.write_text(f"{n}; {body}\n" if body else f"{n};\n", encoding="utf-8")


def _random_edges(rng, n: int, ne: int) -> list:
    """A uniformly chosen graph on n vertices with exactly ne non-edges."""
    pairs = list(combinations(range(n), 2))
    missing = set(rng.choice(len(pairs), size=ne, replace=False).tolist())
    return [p for i, p in enumerate(pairs) if i not in missing]


def realize_check(kind: str, space_dim: int):
    def check(code: int, out: str) -> None:
        require(code == 0, f"realize exited {code}")
        summary = json.loads(out)
        require(summary["verification"]["passed"] is True, "realize reported passed=false")
        require(summary["kind"] == kind, f"kind {summary['kind']!r} != {kind!r}")
        require(summary["space_dim"] == space_dim, f"space_dim {summary['space_dim']} != {space_dim}")

    return check


def verify_check(code: int, out: str) -> None:
    require(code == 0, f"verify exited {code}")
    report = json.loads(out)
    require(report["passed"] is True and report["violations"] == [], "verify reported a violation")


# realize methods: tag -> (argv, output kind, space_dim for n vertices and ne non-edges)
METHODS = {
    "ds": (["--method", "direct-sum"], "realization", lambda n, ne: max(1, 2 * ne)),
    "r1o3": (["--method", "rank-one", "--outcomes", "3"], "pvm_realization", lambda n, ne: 2 * n + ne),
    "r1f": (["--method", "rank-one", "--faithful"], "realization", lambda n, ne: 2 * n + ne),
    "r1r": (["--method", "rank-one-restricted"], "realization", lambda n, ne: n),
}


def _graph_item(work: Path, stem: str, rng, n: int, ne: int, tags) -> Item:
    """A random graph with n vertices and ne non-edges, realized by each method
    in `tags` with --out, then every file verified."""
    graph = work / f"{stem}.txt"
    write_graph(graph, n, _random_edges(rng, n, ne))
    calls, files = [], []
    for tag in tags:
        argv, kind, dim = METHODS[tag]
        out = work / f"{stem}-{tag}.json"
        files.append(out)
        calls.append(Call(["realize", str(graph), *argv, "--out", str(out)],
                          realize_check(kind, dim(n, ne)), "realize", out_path=out))
    for out in files:
        calls.append(Call(["verify", str(graph), str(out)], verify_check, "verify"))
    return Item(calls)


def binomial_quantile(m: int, q: float) -> int:
    """Smallest k with P[Binomial(m, 1/2) <= k] >= q."""
    total = 0
    for k in range(m + 1):
        total += math.comb(m, k)
        if total >= q * 2**m:
            return k
    return m


class Graphs:
    """Random graphs of fixed shapes (vertices, non-edges); the seed only
    chooses which pairs are edges.  Each graph is realized by every method in
    `tags` with --out, then every file verified."""

    def __init__(self, rng, work: Path, shapes, tags, warm_shape):
        self.rng, self.work, self.shapes, self.tags = rng, work, shapes, tags
        self.warm_shape = warm_shape

    def warmup_items(self) -> list:
        return [_graph_item(self.work, "warm", self.rng, *self.warm_shape, self.tags)]

    def items(self) -> list:
        return [
            _graph_item(self.work, f"g{i}", self.rng, n, ne, self.tags)
            for i, (n, ne) in enumerate(self.shapes)
        ]


SMALL_STRATA = (0.125, 0.375, 0.625, 0.875)
# Graphs of one shape: a run's median item then rests on items of like size,
# not on the middle rung of a ladder of sizes.
LARGE_SHAPE = (16, 30)
LARGE_GRAPHS = 3


def exact_small(seed: int, work: Path, tiny: bool = False) -> Graphs:
    """Graphs on 6-8 vertices with uniformly drawn edge masks (the acceptance
    corpus distribution), through four realize methods.

    The masks are sampled by strata of their non-edge count: a run takes,
    for every vertex count, one count at each quartile midpoint of the
    Binomial(pairs, 1/2) law and then a uniform mask with that count, so
    every seed gives the same make-up of sizes.
    """
    sizes, strata = ((6, 7), (0.5,)) if tiny else ((6, 7, 8), SMALL_STRATA)
    shapes = [(n, binomial_quantile(n * (n - 1) // 2, q)) for q in strata for n in sizes]
    return Graphs(np.random.default_rng([seed, 1]), work, shapes, ("ds", "r1o3", "r1f", "r1r"),
                  (7, 10))


def exact_large(seed: int, work: Path, tiny: bool = False) -> Graphs:
    """Graphs on 16 vertices with 30 non-edges each (direct-sum dimension 60,
    rank-one 62), through direct-sum and three-outcome rank-one."""
    shapes = ((9, 8),) if tiny else (LARGE_SHAPE,) * LARGE_GRAPHS
    return Graphs(np.random.default_rng([seed, 2]), work, shapes, ("ds", "r1o3"), (8, 6))


# -- POVM families ----------------------------------------------------------------


def _matrix_obj(a: np.ndarray) -> dict:
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "scalar": "complex",
        "entries": [[float(z.real), float(z.imag)] for z in a.flat],
    }


def write_povm(path: Path, elements: list) -> None:
    d = elements[0].shape[0]
    labels = [str(i) for i in range(len(elements))]
    obj = {
        "space_dim": d,
        "outcomes": labels,
        "elements": {o: _matrix_obj(e) for o, e in zip(labels, elements)},
    }
    path.write_text(json.dumps(obj), encoding="utf-8")


def _random_povm(rng, d: int, m: int) -> list:
    mats = []
    for _ in range(m):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append(a @ a.conj().T)
    w, v = np.linalg.eigh(sum(mats))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ x @ inv_sqrt for x in mats]


def _random_pvm(rng, d: int, m: int) -> list:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    labels = rng.permutation(np.arange(d) % m)
    out = []
    for i in range(m):
        cols = q[:, labels == i]
        out.append(cols @ cols.conj().T)
    return out


def _white_noise(elements: list, visibility: float) -> list:
    d = elements[0].shape[0]
    eye = np.eye(d)
    return [visibility * e + (1 - visibility) * np.trace(e).real / d * eye for e in elements]


def cloning_visibility(k: int, d: int) -> float:
    """Any k observables on dimension d mixed with white noise at this
    visibility are jointly measurable (optimal symmetric 1 -> k cloning)."""
    return (k + d) / (k * (d + 1))


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def noisy_axis(eta: float, axis: int) -> list:
    eye = np.eye(2, dtype=complex)
    return [(eye + eta * _PAULI[axis]) / 2, (eye - eta * _PAULI[axis]) / 2]


class Solver:
    """``jm-check`` and ``dilate`` on POVM files written at set-up.

    Feasible families: random POVMs or PVMs (d 2-4, 2-3 outcomes, 2-3
    observables) under white noise at a visibility drawn from 0.85-1.0 of the
    cloning bound, so a joint observable exists; the draws for one kind and
    size are stratified, one in each of FAMILIES_PER_CELL equal slices, since
    the visibility sets the query's iteration count.  Infeasible families: noisy
    orthogonal qubit pairs above 1/sqrt(2) and triples above 1/sqrt(3).
    A run draws FAMILIES_PER_CELL feasible families for each combination of
    kind and size, and one pair and one triple; the query times of random
    families spread widely, so many distinct families keep a run's
    percentiles steady from seed to seed.
    """

    FAMILIES_PER_CELL = 8
    CELLS = [
        (kind, d, m, k)
        for kind in ("povm", "pvm")
        for d in (2, 3, 4)
        for m in (2, 3)
        for k in (2, 3)
    ]

    def __init__(self, seed: int, work: Path, jmg, tiny: bool = False):
        self.rng = np.random.default_rng([seed, 3])
        self.work = work
        self.jmg = jmg
        # the infeasible queries' iteration cap; tiny runs pass a small one
        self.cap = 200 if tiny else CLI_MAX_ITER
        self.witness_err_max = 0.0
        self.witness_min_eig = math.inf
        strata = 1 if tiny else self.FAMILIES_PER_CELL
        self.cells = [(*cell, j, strata) for j in range(strata)
                      for cell in (self.CELLS[:2] if tiny else self.CELLS)]
        axes = [(0, 1), (0, 2), (1, 2)][self.rng.integers(3)]
        self.pair = self._infeasible_family("p", float(self.rng.uniform(0.72, 0.95)), axes)
        self.triple = self._infeasible_family("t", float(self.rng.uniform(0.59, 0.80)), (0, 1, 2))

    def _family_files(self, stem: str, family: list) -> list:
        paths = []
        for j, elements in enumerate(family):
            path = self.work / f"{stem}-{j}.json"
            write_povm(path, elements)
            paths.append(path)
        return paths

    def _feasible_family(self, stem, kind, d, m, k, stratum, strata) -> dict:
        make = _random_povm if kind == "povm" else _random_pvm
        # one draw from each of `strata` equal slices of 0.85-1.0
        frac = 0.85 + 0.15 * (stratum + float(self.rng.uniform())) / strata
        visibility = frac * cloning_visibility(k, d)
        family = [_white_noise(make(self.rng, d, m), visibility) for _ in range(k)]
        return {"stem": stem, "cls": "feasible", "family": family,
                "paths": self._family_files(stem, family)}

    def _infeasible_family(self, stem, eta, axes) -> dict:
        povm = self.jmg.povm
        family = [noisy_axis(eta, a) for a in axes]
        if len(axes) == 2:
            unit = np.eye(3)
            compatible = povm.qubit_pair_jm_oracle(eta * unit[axes[0]], eta * unit[axes[1]])
            threshold = 1 / math.sqrt(2)
        else:
            compatible = povm.noisy_triple_jm_oracle(eta)
            threshold = 1 / math.sqrt(3)
        if compatible or eta <= threshold:
            raise RuntimeError(f"{stem}: eta={eta} is not an incompatible instance")
        return {"stem": stem, "cls": "infeasible", "family": family,
                "paths": self._family_files(stem, family)}

    # -- checks ----------------------------------------------------------------

    def _check_witness(self, witness: dict, family: list) -> None:
        povm = self.jmg.povm
        d = witness["space_dim"]
        elements = {}
        for key, mobj in witness["elements"].items():
            entries = np.array(mobj["entries"], dtype=float)
            elements[tuple(json.loads(key))] = (entries[:, 0] + 1j * entries[:, 1]).reshape(d, d)
        joint = povm.JointPOVM(d, witness["factor_outcomes"], elements)
        err = 0.0
        for n, target in enumerate(family):
            marg = povm.marginal(joint, n)
            for o, e in enumerate(target):
                err = max(err, float(np.abs(marg.elements[str(o)] - e).max()))
        min_eig = min(
            float(np.linalg.eigvalsh((a + a.conj().T) / 2).min()) for a in elements.values()
        )
        asym = max(float(np.abs(a - a.conj().T).max()) for a in elements.values())
        self.witness_err_max = max(self.witness_err_max, err)
        self.witness_min_eig = min(self.witness_min_eig, min_eig)
        require(err <= MARGINAL_TOL, f"witness marginal error {err:.2e} > {MARGINAL_TOL}")
        require(min_eig >= MIN_EIG_TOL, f"witness least eigenvalue {min_eig:.2e}")
        require(asym <= -MIN_EIG_TOL, f"witness asymmetry {asym:.2e}")

    def _jm_check(self, entry: dict):
        cap = self.cap

        def check(code: int, out: str) -> None:
            report = json.loads(out)
            if entry["cls"] == "feasible":
                require(code == 0 and report["verdict"] == "feasible",
                         f"{entry['stem']}: jm-check exited {code} ({report['verdict']})")
                self._check_witness(report["witness"], entry["family"])
            else:
                require(code == 1 and report["verdict"] == "infeasible_stalled",
                         f"{entry['stem']}: jm-check exited {code} ({report['verdict']})")
                require(report["iterations"] == cap,
                         f"{entry['stem']}: stopped after {report['iterations']} != {cap}")
                require(report["witness"] is None, "infeasible report carries a witness")

        return check

    def _dilate_check(self, entry: dict):
        d = entry["family"][0][0].shape[0]
        m = len(entry["family"][0])

        def check(code: int, out: str) -> None:
            require(code == 0, f"{entry['stem']}: dilate exited {code}")
            summary = json.loads(out)
            require(summary["enlarged_dim"] == d * m, "wrong enlarged dimension")
            require(summary["max_residual"] <= DILATION_TOL,
                     f"dilation residual {summary['max_residual']:.2e} > {DILATION_TOL}")

        return check

    def _item(self, entry: dict) -> Item:
        stem = entry["stem"]
        report, dilation = self.work / f"{stem}-report.json", self.work / f"{stem}-dilation.json"
        argv = ["jm-check", *map(str, entry["paths"]), "--out", str(report)]
        if entry["cls"] == "infeasible" and self.cap != CLI_MAX_ITER:
            argv += ["--max-iter", str(self.cap)]
        calls = [
            Call(argv, self._jm_check(entry), "jm-check", entry["cls"], report),
            Call(["dilate", str(entry["paths"][0]), "--out", str(dilation)],
                 self._dilate_check(entry), "dilate", out_path=dilation),
        ]
        def probe() -> float:
            povm = self.jmg.povm
            povms = []
            for elements in entry["family"]:
                labels = [str(i) for i in range(len(elements))]
                povms.append(povm.POVM(len(elements[0]), labels, dict(zip(labels, elements))))
            start = perf_counter()
            povm.jm_feasible(povms, max_iter=1)
            return perf_counter() - start

        return Item(calls, probe)

    def warmup_items(self) -> list:
        return [self._item(self._feasible_family("warm", *self.cells[0]))]

    def items(self) -> list:
        items = [
            self._item(self._feasible_family(f"f{i}", *cell)) for i, cell in enumerate(self.cells)
        ]
        # spread the two long queries through the pass
        items.insert(len(items) // 3, self._item(self.pair))
        items.insert(2 * len(items) // 3, self._item(self.triple))
        return items


def make(name: str, seed: int, work: Path, jmg, tiny: bool = False):
    if name == "exact-small":
        return exact_small(seed, work, tiny)
    if name == "exact-large":
        return exact_large(seed, work, tiny)
    if name == "solver":
        return Solver(seed, work, jmg, tiny)
    raise ValueError(f"unknown workload {name!r}")
