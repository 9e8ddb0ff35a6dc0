"""Finite simple graphs and the hypergraphs their cliques induce.

Vertices are integer indices; labels are cosmetic.  Adjacency is reflexive by
convention (``adjacent(v, v)`` is true) without storing loops.  All values are
immutable after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations

from .errors import InputError, count, fields


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: frozenset = field(default_factory=frozenset)
    vertex_labels: tuple = ()

    def __post_init__(self):
        n = count(self.vertex_count, "vertex count", 0)
        norm = set()
        for e in self.edges:
            try:
                a, b = e
                a, b = int(a), int(b)
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad edge {e!r}") from exc
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"edge {a}-{b} references a vertex outside 0..{n - 1}")
            if a == b:
                raise InputError(f"self-loop {a}-{a} rejected (adjacency is reflexive by convention)")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))
        labels = tuple(self.vertex_labels) if self.vertex_labels else tuple(str(i) for i in range(n))
        if len(labels) != n:
            raise InputError(f"expected {n} labels, got {len(labels)}")
        object.__setattr__(self, "vertex_labels", labels)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise InputError(f"vertex {v} outside 0..{self.vertex_count - 1}")

    def adjacent(self, v: int, w: int) -> bool:
        self._check_vertex(v)
        self._check_vertex(w)
        if v == w:
            return True
        return (min(v, w), max(v, w)) in self.edges

    def neighbors(self, v: int) -> frozenset:
        self._check_vertex(v)
        return frozenset(b if a == v else a for a, b in self.edges if v in (a, b))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class NonEdgeSet:
    """Distinct unordered vertex pairs missing from the edge set."""

    pairs: tuple

    @property
    def count(self) -> int:
        return len(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def non_edges(graph: Graph) -> NonEdgeSet:
    pairs = tuple(
        (a, b) for a, b in combinations(range(graph.vertex_count), 2) if (a, b) not in graph.edges
    )
    return NonEdgeSet(pairs)


def maximal_cliques(graph: Graph) -> tuple:
    """All inclusion-maximal cliques (pivoting branch and bound), sorted."""
    n = graph.vertex_count
    if n == 0:
        return ()
    neigh = [set() for _ in range(n)]
    for a, b in graph.edges:
        neigh[a].add(b)
        neigh[b].add(a)
    found: list[tuple] = []

    def expand(clique: set, candidates: set, excluded: set) -> None:
        if not candidates and not excluded:
            found.append(tuple(sorted(clique)))
            return
        pivot = max(candidates | excluded, key=lambda u: len(candidates & neigh[u]))
        for v in sorted(candidates - neigh[pivot]):
            expand(clique | {v}, candidates & neigh[v], excluded & neigh[v])
            candidates.remove(v)
            excluded.add(v)

    expand(set(), set(range(n)), set())
    return tuple(sorted(found))


@dataclass(frozen=True)
class Hypergraph:
    """Vertex subsets marking jointly compatible families.

    With ``downward_closed`` set, the stored hyperedges are the maximal ones
    and every nonempty subset of a stored set counts as a hyperedge (closure
    is implied rather than materialized).  Otherwise the stored family is
    literal.
    """

    vertex_count: int
    hyperedges: frozenset
    downward_closed: bool = False

    def __post_init__(self):
        n = count(self.vertex_count, "vertex count", 0)
        norm = set()
        for h in self.hyperedges:
            hs = frozenset(int(v) for v in h)
            if not hs:
                raise InputError("empty hyperedge is excluded by convention")
            for v in hs:
                if not (0 <= v < n):
                    raise InputError(f"hyperedge vertex {v} outside 0..{n - 1}")
            norm.add(hs)
        object.__setattr__(self, "hyperedges", frozenset(norm))

    def has_hyperedge(self, vertices) -> bool:
        s = frozenset(int(v) for v in vertices)
        if not s:
            return False
        if self.downward_closed:
            return any(s <= h for h in self.hyperedges)
        return s in self.hyperedges


def induced_hypergraph(graph: Graph) -> Hypergraph:
    """Cliques of the graph, stored by maximal hyperedges with closure implied."""
    return Hypergraph(
        graph.vertex_count,
        frozenset(frozenset(c) for c in maximal_cliques(graph)),
        downward_closed=True,
    )


def hollow_triangle() -> Hypergraph:
    """Three vertices, all three pairs compatible, no triple: not graph-induced."""
    return Hypergraph(
        3,
        frozenset({frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}),
        downward_closed=True,
    )


def _validate_downward_closed(h: Hypergraph) -> None:
    if h.downward_closed:
        return
    for edge in h.hyperedges:
        for size in range(1, len(edge)):
            for sub in combinations(sorted(edge), size):
                if frozenset(sub) not in h.hyperedges:
                    raise InputError(
                        f"hypergraph is not downward-closed: {set(sub)} missing under {set(edge)}"
                    )


def is_graph_induced(h: Hypergraph) -> bool:
    """True when the hyperedges are exactly the cliques of some graph."""
    _validate_downward_closed(h)
    edges = frozenset(
        (a, b) for a, b in combinations(range(h.vertex_count), 2) if h.has_hyperedge((a, b))
    )
    skeleton = Graph(h.vertex_count, edges)
    return all(h.has_hyperedge(c) for c in maximal_cliques(skeleton))


# -- text and JSON formats -----------------------------------------------------

_EDGE_RE = re.compile(r"\s*(\d+)\s*-\s*(\d+)\s*\Z")


def parse_graph(text: str) -> Graph:
    """Parse ``"<vertex_count>; <a>-<b>, <a>-<b>, ..."`` (whitespace free-form)."""
    head, sep, tail = text.partition(";")
    if not sep:
        raise InputError("missing ';' after the vertex count")
    try:
        n = int(head.strip())
    except ValueError:
        raise InputError(f"bad vertex count {head.strip()!r}") from None
    count(n, "vertex count", 0)
    edges = []
    if tail.strip():
        pos = len(head) + 1
        for chunk in tail.split(","):
            m = _EDGE_RE.match(chunk)
            if not m:
                raise InputError(f"bad edge {chunk.strip()!r} at position {pos}")
            a, b = int(m.group(1)), int(m.group(2))
            if a == b:
                raise InputError(f"self-loop {a}-{b} at position {pos} rejected")
            if a >= n or b >= n:
                raise InputError(f"edge {a}-{b} at position {pos} outside 0..{n - 1}")
            edges.append((a, b))
            pos += len(chunk) + 1
    return Graph(n, frozenset(edges))


def serialize_graph(graph: Graph) -> str:
    body = ", ".join(f"{a}-{b}" for a, b in graph.sorted_edges())
    return f"{graph.vertex_count}; {body}" if body else f"{graph.vertex_count};"


def graph_to_json_obj(graph: Graph) -> dict:
    return {
        "vertices": graph.vertex_count,
        "edges": [[a, b] for a, b in graph.sorted_edges()],
    }


def graph_from_json_obj(obj) -> Graph:
    n, edges = fields(obj, "graph", "vertices", "edges")
    count(n, "vertices", 0)
    if not isinstance(edges, list):
        raise InputError("'edges' must be a list of pairs")
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            raise InputError(f"bad edge entry {e!r}")
        pairs.append((count(e[0], "edge vertex", 0), count(e[1], "edge vertex", 0)))
    return Graph(n, frozenset(pairs))
