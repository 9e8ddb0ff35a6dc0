"""Graph-to-observable constructions and their exact verification.

Every construction here produces operators whose pairwise commutation pattern
reproduces a given graph: two vertices commute exactly when they share an
edge.  The exact-rational regime lets those checks run with zero tolerance;
only the span-restricted form (which needs orthonormalization) lives in
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, count, fields, tolerance
from .graphs import Graph, graph_from_json_obj, graph_to_json_obj, maximal_cliques, non_edges
from .linalg import (
    RationalMatrix,
    _as_fraction,
    commutator,
    direct_sum,
    matrix_from_json_obj,
    matrix_to_json_obj,
    numerator_stack,
    numerical_rank,
    rational_vector_from_json_obj,
    rational_vector_to_json_obj,
)

METHOD_DIRECT_SUM = "direct_sum"
METHOD_RANK_ONE = "rank_one"
METHOD_RANK_ONE_RESTRICTED = "rank_one_restricted"
METHOD_FAITHFUL = "faithful_augmented"

_EXACT_METHODS = {METHOD_DIRECT_SUM, METHOD_RANK_ONE, METHOD_FAITHFUL}


@dataclass
class Realization:
    """Vertex -> projection assignment on a common space."""

    graph: Graph
    space_dim: int
    method: str
    projections: dict
    vectors: dict | None = None

    @property
    def is_exact(self) -> bool:
        return self.method in _EXACT_METHODS


@dataclass
class PvmRealization:
    """Vertex -> sharp observable (list of orthogonal projections summing to 1)."""

    graph: Graph
    space_dim: int
    pvms: dict

    def validate_exact(self) -> None:
        """Exact sanity of each observable: projections, orthogonal, sum to 1."""
        families = [self.pvms[x] for x in range(self.graph.vertex_count)]
        _exact_commutation(families, self.space_dim, pvms=True)


@dataclass(frozen=True)
class Violation:
    pair: tuple
    expected: str
    observed: str


@dataclass
class VerificationReport:
    passed: bool
    violations: list


# -- constructions ---------------------------------------------------------


def _qubit_pin() -> RationalMatrix:
    return RationalMatrix.from_rows([[1, 0], [0, 0]])


def _qubit_tilt() -> RationalMatrix:
    half = Fraction(1, 2)
    return RationalMatrix.from_rows([[half, half], [half, half]])


def realize_direct_sum(graph: Graph) -> Realization:
    """One 2x2 block per non-edge; the blocked pair gets two non-commuting
    projections there, everyone else gets zero."""
    pairs = non_edges(graph).pairs
    if not pairs:
        # no obstruction needed: one-dimensional space, all projections zero
        projections = {x: RationalMatrix.zeros(1, 1) for x in range(graph.vertex_count)}
        return Realization(graph, 1, METHOD_DIRECT_SUM, projections)
    pin, tilt, zero = _qubit_pin(), _qubit_tilt(), RationalMatrix.zeros(2, 2)
    projections = {
        x: direct_sum([pin if x == v else tilt if x == w else zero for v, w in pairs])
        for x in range(graph.vertex_count)
    }
    return Realization(graph, 2 * len(pairs), METHOD_DIRECT_SUM, projections)


def realize_rank_one(graph: Graph) -> Realization:
    """Rank-one projections onto 0/1 vectors indexed by vertices then non-edges.

    The vector of vertex x has a 1 at its own slot and at the slot of every
    non-edge containing x, so inner products are exactly 0 across edges and
    exactly 1 across non-edges.
    """
    n = graph.vertex_count
    pairs = non_edges(graph).pairs
    dim = n + len(pairs)
    slot = {pair: n + k for k, pair in enumerate(pairs)}
    projections, vectors = {}, {}
    for x in range(n):
        vec = [0] * dim
        vec[x] = 1
        for pair, idx in slot.items():
            if x in pair:
                vec[idx] = 1
        norm_sq = sum(vec)
        projections[x] = RationalMatrix.outer(vec, vec, norm_sq)
        vectors[x] = tuple(Fraction(v) for v in vec)
    return Realization(graph, dim, METHOD_RANK_ONE, projections, vectors)


def rank_one_gram(realization: Realization) -> RationalMatrix:
    """Exact Gram matrix V V^T of the stored rank-one vectors (the rows of V)."""
    if realization.vectors is None:
        raise InputError("realization has no stored vectors")
    vecs = [[_as_fraction(c) for c in realization.vectors[x]] for x in range(realization.graph.vertex_count)]
    if any(len(vec) != realization.space_dim for vec in vecs):
        raise InputError(f"rank-one vectors must have length space_dim {realization.space_dim}")
    den = math.lcm(*(c.denominator for vec in vecs for c in vec))
    scaled = [[int(c * den) for c in vec] for vec in vecs]
    v = RationalMatrix(np.array(scaled, dtype=object).reshape(len(vecs), realization.space_dim), den)
    return v @ v.T


def restrict_to_span(realization: Realization) -> Realization:
    """Conjugate the rank-one projections into an orthonormal basis of the
    span of their vectors; the result lives in dimension = exact Gram rank."""
    if realization.method != METHOD_RANK_ONE or realization.vectors is None:
        raise InputError("restrict_to_span needs a rank_one realization with vectors")
    n = realization.graph.vertex_count
    rank = numerical_rank(rank_one_gram(realization))
    if n == 0:
        return Realization(realization.graph, 0, METHOD_RANK_ONE_RESTRICTED, {})
    ambient = np.array(
        [[float(c) for c in realization.vectors[x]] for x in range(n)], dtype=float
    ).T
    basis: list[np.ndarray] = []
    for col in range(n):
        v = ambient[:, col].copy()
        for _ in range(2):  # modified Gram-Schmidt with one reorthogonalization
            for q in basis:
                v -= q * (q @ v)
        norm = float(np.linalg.norm(v))
        if norm > 1e-10 * max(1.0, float(np.linalg.norm(ambient[:, col]))):
            basis.append(v / norm)
    if len(basis) != rank:
        raise InputError("orthonormalization disagrees with the exact Gram rank")
    q_mat = np.column_stack(basis)
    projections = {
        x: q_mat.T @ realization.projections[x].to_ndarray() @ q_mat for x in range(n)
    }
    projections = {x: np.asarray(p, dtype=complex) for x, p in projections.items()}
    return Realization(realization.graph, rank, METHOD_RANK_ONE_RESTRICTED, projections)


def make_faithful(realization: Realization) -> Realization:
    """Append one private basis projector per vertex so all images differ
    while every commutation relation survives."""
    if not realization.is_exact:
        raise InputError("make_faithful needs an exact-regime realization")
    n = realization.graph.vertex_count
    projections = {}
    for x in range(n):
        private = np.zeros((n, n), dtype=np.int64)
        private[x, x] = 1
        projections[x] = direct_sum([realization.projections[x], RationalMatrix(private)])
    return Realization(realization.graph, realization.space_dim + n, METHOD_FAITHFUL, projections)


def lift_to_pvms(realization: Realization) -> PvmRealization:
    """Binary sharp observable {p, 1-p} per vertex."""
    return extend_outcomes(realization, {x: 2 for x in range(realization.graph.vertex_count)})


def extend_outcomes(realization: Realization, outcome_counts: dict) -> PvmRealization:
    """Sharp observables with a chosen number of outcomes per vertex.

    Vertex x keeps {p_x, 1 - p_x} on the original space and receives
    outcome_counts[x] - 2 private basis projectors on an appended block; the
    second element absorbs every other vertex's private block so each family
    still sums to the identity.  All appended parts are diagonal, so the
    commutation pattern is untouched.
    """
    if not realization.is_exact:
        raise InputError("extend_outcomes needs an exact-regime realization")
    n = realization.graph.vertex_count
    for x in range(n):
        if x not in outcome_counts:
            raise InputError(f"missing outcome count for vertex {x}")
        if outcome_counts[x] < 2:
            raise InputError(f"vertex {x}: outcome count {outcome_counts[x]} < 2")
    d = realization.space_dim
    offsets, at = {}, d
    for x in range(n):
        offsets[x] = at
        at += outcome_counts[x] - 2
    dim = at

    def embed(p: RationalMatrix, diag_ones) -> RationalMatrix:
        if dim == d:  # no vertex has more than two outcomes: nothing is appended
            return p
        appended = np.zeros((dim - d, dim - d), dtype=np.int64)
        for i in diag_ones:
            appended[i - d, i - d] = 1
        return direct_sum([p, RationalMatrix(appended)])

    eye = RationalMatrix.identity(d)
    pvms = {}
    for x in range(n):
        own = range(offsets[x], offsets[x] + outcome_counts[x] - 2)
        foreign = [i for i in range(d, dim) if i not in own]
        elements = [embed(realization.projections[x], ())]
        elements.append(embed(eye - realization.projections[x], foreign))
        for i in own:
            num = np.zeros((dim, dim), dtype=np.int64)
            num[i, i] = 1
            elements.append(RationalMatrix(num, 1))
        pvms[x] = elements
    return PvmRealization(realization.graph, dim, pvms)


# -- verification ---------------------------------------------------------


_EXACT_COMMUTE = {True: "commutator = 0 (exact)", False: "commutator != 0 (exact)"}
_PVM_COMMUTE = {True: "all cross commutators = 0", False: "commutator != 0 (exact)"}


def _exact_commutation(families: list, dim: int, pvms: bool) -> dict:
    """For each vertex pair x < y: does every element of family x commute
    with every element of family y?  Raises InputError unless each element is
    a projection and, for PVM families (`pvms`), the elements are orthogonal
    and sum to 1.

    Denominators cancel in AB - BA, so the test runs on the integer numerators
    N: one stack, each element multiplied against itself and all later ones.
    Projections are symmetric, so N_j N_i = (N_i N_j)^T and a pair commutes
    exactly when N_i N_j is symmetric; N^2 = D N is idempotency.
    """
    mats = [m for family in families for m in family]
    starts = np.cumsum([0] + [len(family) for family in families])
    stack = numerator_stack(mats, dim)
    symmetric = (stack == stack.transpose(0, 2, 1)).all(axis=(1, 2))
    cross = np.ones((len(mats), len(mats)), dtype=bool)
    for x, family in enumerate(families):
        end = starts[x + 1]
        for k, p in enumerate(family):
            i = starts[x] + k
            prod = np.matmul(stack[i], stack[i:])  # N_i N_j for every j >= i
            if not (symmetric[i] and np.array_equal(prod[0], p.denominator * stack[i])):
                raise InputError(f"vertex {x}: element {k} is not a projection")
            if prod[1 : end - i].any():
                raise InputError(f"vertex {x}: elements are not orthogonal")
            later = prod[end - i :]
            cross[i, end:] = (later == later.transpose(0, 2, 1)).all(axis=(1, 2))
        if pvms and sum(family, RationalMatrix.zeros(dim, dim)) != RationalMatrix.identity(dim):
            raise InputError(f"vertex {x}: elements do not sum to the identity")
    n = len(families)
    return {
        (x, y): bool(cross[starts[x] : starts[x + 1], starts[y] : starts[y + 1]].all())
        for x in range(n)
        for y in range(x + 1, n)
    }


def _float_commutator_norms(ops: list, tol: float) -> dict:
    """Commutator norm for each vertex pair x < y of float operators, each
    checked to be Hermitian and idempotent within tol first."""
    for x, a in enumerate(ops):
        if not (np.linalg.norm(a - a.conj().T) <= tol and np.linalg.norm(a @ a - a) <= tol):
            raise InputError(f"vertex {x}: element 0 is not a projection within {tol}")
    n = len(ops)
    return {
        (x, y): float(np.linalg.norm(commutator(ops[x], ops[y])))
        for x in range(n)
        for y in range(x + 1, n)
    }


def verify_realization(graph: Graph, realization, tol: float = 1e-9) -> VerificationReport:
    """Check that every operator is a projection (exactly, or within tol for
    float matrices) and every PVM family is orthogonal and sums to 1, raising
    InputError if not; then report commute-iff-edge over all vertex pairs."""
    tolerance(tol)
    r = realization
    if r.graph.vertex_count != graph.vertex_count:
        raise InputError(
            f"vertex sets differ: graph has {graph.vertex_count}, realization has {r.graph.vertex_count}"
        )
    pvms = isinstance(r, PvmRealization)
    families = [list(r.pvms[x]) if pvms else [r.projections[x]] for x in range(graph.vertex_count)]
    for x, family in enumerate(families):
        for m in family:
            if m.shape != (r.space_dim, r.space_dim):
                raise InputError(f"vertex {x}: matrix shape {m.shape} != space_dim {r.space_dim}")
    exact = [isinstance(m, RationalMatrix) for family in families for m in family]
    if all(exact):
        words = _PVM_COMMUTE if pvms else _EXACT_COMMUTE
        checked = {
            pair: (commutes, words[commutes])
            for pair, commutes in _exact_commutation(families, r.space_dim, pvms).items()
        }
    elif pvms:
        raise InputError("pvm realizations are exact: rational matrices expected")
    elif any(exact):
        raise InputError("a realization cannot mix exact and float matrices")
    else:
        norms = _float_commutator_norms([family[0] for family in families], tol)
        checked = {pair: (norm <= tol, f"commutator norm {norm:.3e}") for pair, norm in norms.items()}
    violations = []
    for (x, y), (commutes, observed) in checked.items():
        expected = graph.adjacent(x, y)
        if commutes != expected:
            violations.append(Violation((x, y), "commute" if expected else "non-commute", observed))
    return VerificationReport(not violations, violations)


# -- partitions and the dimension lower-bound family -----------------------


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty sorted blocks covering {1, ..., d}."""

    blocks: tuple


MAX_PARTITION_GROUND = 10


def enumerate_partitions(d: int) -> list[Partition]:
    """All set partitions of {1, ..., d}: blocks sorted, ordered by least element.

    Generated by assigning each element the index of an existing block or a
    fresh one (restricted-growth order), which makes the output canonical.
    """
    if d < 0:
        raise InputError("d must be nonnegative")
    if d > MAX_PARTITION_GROUND:
        raise InputError(f"d = {d} exceeds the enumeration guard {MAX_PARTITION_GROUND}")
    results: list[Partition] = []

    def assign(element: int, blocks: list[list[int]]) -> None:
        if element > d:
            results.append(Partition(tuple(tuple(b) for b in blocks)))
            return
        for b in blocks:
            b.append(element)
            assign(element + 1, blocks)
            b.pop()
        blocks.append([element])
        assign(element + 1, blocks)
        blocks.pop()

    assign(1, [])
    return results


@dataclass(frozen=True)
class LowerBoundGraph:
    """A graph too demanding for sharp observables in the target dimension,
    with its action/control split recorded."""

    graph: Graph
    action_vertices: tuple
    control_vertices: tuple
    bitstrings: tuple
    partition_count: int


MAX_LOWER_BOUND_DIM = 8


def lower_bound_graph(d: int) -> LowerBoundGraph:
    """Clique of (#partitions of {1..d}) + 1 action vertices, wired to control
    vertices by the bits of their index so no two share a neighborhood.

    Control vertex k is adjacent to action vertex j exactly when bit k of j
    (least significant bit first) is set; control vertices are mutually
    disconnected.
    """
    if d < 1 or d > MAX_LOWER_BOUND_DIM:
        raise InputError(f"d must be in 1..{MAX_LOWER_BOUND_DIM}")
    bell = len(enumerate_partitions(d))
    n_action = bell + 1
    n_control = max(1, math.ceil(math.log2(n_action)))
    action = tuple(range(n_action))
    control = tuple(range(n_action, n_action + n_control))
    edges = set()
    for i in range(n_action):
        for j in range(i + 1, n_action):
            edges.add((i, j))
        for k in range(n_control):
            if (i >> k) & 1:
                edges.add((i, n_action + k))
    labels = tuple(f"a{i}" for i in range(n_action)) + tuple(f"c{k}" for k in range(n_control))
    graph = Graph(n_action + n_control, frozenset(edges), labels)
    bitstrings = tuple(format(i, f"0{n_control}b")[::-1] for i in range(n_action))
    return LowerBoundGraph(graph, action, control, bitstrings, bell)


# -- the fork obstruction ---------------------------------------------------


@dataclass(frozen=True)
class ForkObstructionReport:
    graph: Graph
    cliques: tuple
    steps: tuple
    forced_pair: tuple
    derivation_valid: bool


def fork_graph() -> Graph:
    return Graph(3, frozenset({(0, 1), (0, 2)}), ("x", "y", "z"))


def fork_obstruction() -> ForkObstructionReport:
    """Why no projection family can turn both maximal cliques of the fork
    into two-outcome sharp observables.

    Operators are tracked symbolically as affine expressions a + b*p_x, so the
    forced equality is checked by coefficient comparison rather than on any
    particular matrices.
    """
    graph = fork_graph()
    cliques = maximal_cliques(graph)
    # affine expressions in p_x: (constant term, coefficient of p_x)
    one = (Fraction(1), Fraction(0))
    p_x = (Fraction(0), Fraction(1))
    p_y = (one[0] - p_x[0], one[1] - p_x[1])  # solve p_x + p_y = 1
    p_z = (one[0] - p_x[0], one[1] - p_x[1])  # solve p_x + p_z = 1
    equal = p_y == p_z
    steps = (
        "assume both maximal cliques {x,y} and {x,z} map to two-outcome sharp observables:",
        "  p_x + p_y = 1  and  p_x + p_z = 1",
        "p_y = 1 - p_x = p_z",
        "p_y and p_z are the same operator, and equal projections commute",
        "but y and z share no edge, so p_y and p_z must NOT commute: contradiction",
        "therefore no realization of the fork maps both maximal cliques to sharp observables",
    )
    return ForkObstructionReport(graph, cliques, steps, (1, 2), equal)


# -- JSON wire formats -------------------------------------------------------


def realization_to_json_obj(r: Realization) -> dict:
    n = r.graph.vertex_count
    obj = {
        "graph": graph_to_json_obj(r.graph),
        "space_dim": r.space_dim,
        "method": r.method,
        "projections": [matrix_to_json_obj(r.projections[x]) for x in range(n)],
        "vectors": None,
    }
    if r.vectors is not None:
        obj["vectors"] = [rational_vector_to_json_obj(r.vectors[x]) for x in range(n)]
    return obj


def realization_from_json_obj(obj) -> Realization:
    graph_obj, space_dim, method, mats = fields(
        obj, "realization", "graph", "space_dim", "method", "projections"
    )
    graph = graph_from_json_obj(graph_obj)
    if method not in _EXACT_METHODS | {METHOD_RANK_ONE_RESTRICTED}:
        raise InputError(f"unknown method {method!r}")
    count(space_dim, "space_dim", 0)
    if not isinstance(mats, list) or len(mats) != graph.vertex_count:
        raise InputError("projections must list one matrix per vertex")
    projections = {}
    for x, mobj in enumerate(mats):
        m = matrix_from_json_obj(mobj)
        if m.shape != (space_dim, space_dim):
            raise InputError(f"vertex {x}: matrix shape {m.shape} != space_dim {space_dim}")
        projections[x] = m
    vectors = None
    if obj.get("vectors") is not None:
        raw = obj["vectors"]
        if not isinstance(raw, list) or len(raw) != graph.vertex_count:
            raise InputError("vectors must list one vector per vertex")
        vectors = {x: rational_vector_from_json_obj(v) for x, v in enumerate(raw)}
        for x, vec in vectors.items():
            if len(vec) != space_dim:
                raise InputError(f"vertex {x}: vector length {len(vec)} != space_dim {space_dim}")
    return Realization(graph, space_dim, method, projections, vectors)


def pvm_realization_to_json_obj(r: PvmRealization) -> dict:
    n = r.graph.vertex_count
    return {
        "graph": graph_to_json_obj(r.graph),
        "space_dim": r.space_dim,
        "pvms": [[matrix_to_json_obj(p) for p in r.pvms[x]] for x in range(n)],
    }


def pvm_realization_from_json_obj(obj) -> PvmRealization:
    graph_obj, space_dim, pvms = fields(obj, "pvm realization", "graph", "space_dim", "pvms")
    graph = graph_from_json_obj(graph_obj)
    count(space_dim, "space_dim", 0)
    if not isinstance(pvms, list) or len(pvms) != graph.vertex_count:
        raise InputError("pvms must list one family per vertex")
    parsed = {}
    for x, family in enumerate(pvms):
        if not isinstance(family, list) or not family:
            raise InputError(f"vertex {x}: empty observable")
        elements = []
        for mobj in family:
            m = matrix_from_json_obj(mobj)
            if not isinstance(m, RationalMatrix):
                raise InputError("pvm realizations are exact: rational matrices expected")
            if m.shape != (space_dim, space_dim):
                raise InputError(f"vertex {x}: matrix shape {m.shape} != space_dim {space_dim}")
            elements.append(m)
        parsed[x] = elements
    return PvmRealization(graph, space_dim, parsed)


def verification_report_to_json_obj(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "violations": [
            {"pair": list(v.pair), "expected": v.expected, "observed": v.observed}
            for v in report.violations
        ],
    }
