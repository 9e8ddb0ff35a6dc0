"""Finite simple graphs and the hypergraphs their cliques induce.

Vertices are the integer indices 0..n-1.  Adjacency is reflexive by
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

    def __post_init__(self):
        n = count(self.vertex_count, "vertex count", 0)
        norm = set()
        for e in self.edges:
            try:
                a, b = e
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad edge {e!r}") from exc
            count(a, "edge vertex", 0)
            count(b, "edge vertex", 0)
            if not (a < n and b < n):
                raise InputError(f"edge {a}-{b} references a vertex outside 0..{n - 1}")
            if a == b:
                raise InputError(f"self-loop {a}-{a} rejected (adjacency is reflexive by convention)")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))

    def _check_vertex(self, v: int) -> None:
        if count(v, "vertex", 0) >= self.vertex_count:
            raise InputError(f"vertex {v} outside 0..{self.vertex_count - 1}")

    def adjacent(self, v: int, w: int) -> bool:
        self._check_vertex(v)
        self._check_vertex(w)
        if v == w:
            return True
        return (min(v, w), max(v, w)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class NonEdgeSet:
    """Distinct unordered vertex pairs missing from the edge set."""

    pairs: tuple

    @property
    def count(self) -> int:
        return len(self.pairs)


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
            hs = frozenset(count(v, "hyperedge vertex", 0) for v in h)
            if not hs:
                raise InputError("empty hyperedge is excluded by convention")
            for v in hs:
                if v >= n:
                    raise InputError(f"hyperedge vertex {v} outside 0..{n - 1}")
            norm.add(hs)
        object.__setattr__(self, "hyperedges", frozenset(norm))

    def has_hyperedge(self, vertices) -> bool:
        s = frozenset(count(v, "hyperedge vertex", 0) for v in vertices)
        if not s:
            return False
        if max(s) >= self.vertex_count:
            raise InputError(f"hyperedge vertex {max(s)} outside 0..{self.vertex_count - 1}")
        if self.downward_closed:
            return any(s <= h for h in self.hyperedges)
        return s in self.hyperedges


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

# numbers are ASCII digits: int() and \d also read "1_0", "+3" and "\u0663"
_EDGE_RE = re.compile(r"\s*([0-9]+)\s*-\s*([0-9]+)\s*\Z")


def parse_graph(text: str) -> Graph:
    """Parse ``"<vertex_count>; <a>-<b>, <a>-<b>, ..."`` (whitespace free-form)."""
    head, sep, tail = text.partition(";")
    if not sep:
        raise InputError("missing ';' after the vertex count")
    digits = head.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise InputError(f"bad vertex count {digits!r}")
    n = int(digits)
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
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            raise InputError(f"bad edge entry {e!r}")
    # a tuple, not a set: Graph checks each endpoint before it hashes one
    return Graph(n, tuple(map(tuple, edges)))
