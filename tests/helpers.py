"""Shared generators and brute-force oracles for the test suite.

Oracles here are deliberately naive (exhaustive enumeration, recurrences,
construct-and-check) so they stay independent of the library code paths they
judge.
"""

from __future__ import annotations

from itertools import combinations
from json.encoder import encode_basestring_ascii

import numpy as np

from jmg.errors import InputError
from jmg.graphs import Graph, Hypergraph, maximal_cliques
from jmg.linalg import RationalMatrix, matrices_from_json_obj, matrices_to_json_obj
from jmg.povm import POVM
from jmg.serialize import format_float


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    edges = {pairs[i] for i in range(len(pairs)) if (mask >> i) & 1}
    return Graph(n, frozenset(edges))


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    m = n * (n - 1) // 2
    for mask in range(1 << m):
        yield graph_from_mask(n, mask)


def random_graphs(rng: np.random.Generator, count: int, sizes=(6, 7, 8)):
    out = []
    for _ in range(count):
        n = int(rng.choice(sizes))
        m = n * (n - 1) // 2
        out.append(graph_from_mask(n, int(rng.integers(0, 1 << m))))
    return out


def brute_force_maximal_cliques(g: Graph) -> set:
    """All subsets, clique-tested, then maximality-filtered."""
    verts = range(g.vertex_count)
    cliques = []
    for size in range(1, g.vertex_count + 1):
        for sub in combinations(verts, size):
            if all(g.adjacent(a, b) for a, b in combinations(sub, 2)):
                cliques.append(frozenset(sub))
    return {c for c in cliques if not any(c < d for d in cliques)}


def bell_numbers_by_triangle(up_to: int) -> list:
    """B_1 .. B_up_to via the additive triangle recurrence."""
    row = [1]
    out = [1]
    for _ in range(up_to - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        out.append(row[-1])
    return out


def downward_closed_families(n: int):
    """All literal downward-closed families of nonempty subsets of range(n)."""
    subsets = []
    for size in range(1, n + 1):
        for sub in combinations(range(n), size):
            subsets.append(frozenset(sub))
    for mask in range(1 << len(subsets)):
        family = {subsets[i] for i in range(len(subsets)) if (mask >> i) & 1}
        if all(
            frozenset(sub) in family
            for s in family
            for size in range(1, len(s))
            for sub in combinations(sorted(s), size)
        ):
            yield family


def graph_induced_oracle(n: int, family: set) -> bool:
    """Definition-based check: any vertex set whose pairs are all hyperedges
    must itself be a hyperedge."""
    for size in range(1, n + 1):
        for sub in combinations(range(n), size):
            if all(frozenset(p) in family for p in combinations(sub, 2)):
                if frozenset(sub) not in family:
                    return False
    return True


def random_povm(rng: np.random.Generator, dim: int, outcomes: int) -> POVM:
    """Normalize random PSD matrices into a resolution of the identity."""
    mats = []
    for _ in range(outcomes):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(m @ m.conj().T)
    total = sum(mats)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    elements = {str(i): inv_sqrt @ m @ inv_sqrt for i, m in enumerate(mats)}
    return POVM(dim, tuple(str(i) for i in range(outcomes)), elements)


def basis_pvm(dim: int, blocks, unitary=None) -> POVM:
    """PVM of coordinate projectors (optionally conjugated)."""
    elements = {}
    for i, idxs in enumerate(blocks):
        m = np.zeros((dim, dim), dtype=complex)
        for j in idxs:
            m[j, j] = 1.0
        if unitary is not None:
            m = unitary @ m @ unitary.conj().T
        elements[str(i)] = m
    return POVM(dim, tuple(str(i) for i in range(len(blocks))), elements)


def random_blocks(rng: np.random.Generator, dim: int) -> list:
    labels = rng.integers(0, rng.integers(2, dim + 1), size=dim)
    labels[0] = 0
    groups = {}
    for j, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(j)
    return list(groups.values())


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def exact_pvm_to_float(elements) -> POVM:
    """Lift exact PVM elements from the realizer into the float regime."""
    dim = elements[0].rows
    labels = tuple(str(i) for i in range(len(elements)))
    return POVM(dim, labels, {str(i): m.to_ndarray().astype(complex) for i, m in enumerate(elements)})


def product_outcome_error(joint, povms) -> float:
    from jmg.povm import marginal

    worst = 0.0
    for n, e in enumerate(povms):
        marg = marginal(joint, n)
        for o in e.outcomes:
            worst = max(worst, float(np.abs(marg.elements[o] - e.elements[o]).max()))
    return worst


def is_projection(p: RationalMatrix) -> bool:
    """Exact test: symmetric and idempotent."""
    return p.is_symmetric() and p @ p == p


def pvm_jointly_measurable(pvms, tol: float = 1e-9) -> bool:
    """Sharp observables are jointly measurable exactly when every pair of
    their elements commutes; here within tol, max-abs."""
    pvms = list(pvms)
    dims = {p.space_dim for p in pvms}
    if len(dims) > 1:
        raise InputError(f"space dimensions differ: {sorted(dims)}")
    return all(
        np.abs(a @ b - b @ a).max() <= tol
        for p, q in combinations(pvms, 2)
        for a in p.element_list()
        for b in q.element_list()
    )


def induced_hypergraph(graph: Graph) -> Hypergraph:
    """Cliques of the graph, stored by maximal hyperedges with closure implied."""
    cliques = frozenset(map(frozenset, maximal_cliques(graph)))
    return Hypergraph(graph.vertex_count, cliques, downward_closed=True)


def serialize_graph(graph: Graph) -> str:
    """The edge-list text of `graph`, as `parse_graph` reads it."""
    body = ", ".join(f"{a}-{b}" for a, b in graph.sorted_edges())
    return f"{graph.vertex_count}; {body}" if body else f"{graph.vertex_count};"


# the one-matrix wire codec: the list codec on a list of one

def matrix_to_json_obj(m) -> dict:
    return matrices_to_json_obj([m])[0]


def matrix_from_json_obj(obj):
    return matrices_from_json_obj([obj])[0]


def reference_dumps(obj) -> str:
    """Item by item: the writer before whole-list formatting."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(reference_dumps, obj)) + "]"
    if isinstance(obj, dict):
        keys = sorted(obj)
        return "{" + ",".join(encode_basestring_ascii(k) + ":" + reference_dumps(obj[k]) for k in keys) + "}"
    raise InputError(f"cannot serialize value of type {type(obj).__name__}")
