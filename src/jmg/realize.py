"""Graph-to-observable constructions and their exact verification.

Every construction here produces operators whose pairwise commutation pattern
reproduces a given graph: two vertices commute exactly when they share an
edge.  The exact-rational regime lets those checks run with zero tolerance;
only the span-restricted form, rounded from an exact factorization, lives in
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import InputError, count, fields, tolerance
from .graphs import Graph, graph_from_json_obj, graph_to_json_obj, maximal_cliques, non_edges
from .linalg import (
    DEFAULT_TOL,
    RationalMatrix,
    commutator,
    family_stacks,
    ldlt,
    matrices_from_json_obj,
    matrices_from_stack,
    matrices_to_json_obj,
    padded_numerators,
    rank_one_projections,
    rows_from_json_obj,
    rows_to_json_obj,
)

METHOD_DIRECT_SUM = "direct_sum"
METHOD_RANK_ONE = "rank_one"
METHOD_RANK_ONE_RESTRICTED = "rank_one_restricted"
METHOD_FAITHFUL = "faithful_augmented"

_EXACT_METHODS = {METHOD_DIRECT_SUM, METHOD_RANK_ONE, METHOD_FAITHFUL}
# a tuple, so that a method read from a file is compared, whatever its type, not hashed
_METHODS = (METHOD_DIRECT_SUM, METHOD_RANK_ONE, METHOD_FAITHFUL, METHOD_RANK_ONE_RESTRICTED)


def _check_realization(graph: Graph, space_dim: int, method, families, vectors):
    """Check the fields of a realization as it is built; return `vectors`, a
    RationalMatrix or a list of rows, as rows of Fractions, or None.
    `families` has one tuple per vertex: `(p,)` for a projection, the
    elements of a sharp observable.  `method` is None for sharp observables,
    which are rational, like the projections of every method except the
    span-restricted one, which are complex float.  Only rank-one realizations
    have vectors, each spanning its projection's range."""
    count(space_dim, "space_dim", 0)
    n = graph.vertex_count
    if len(families) != n:
        raise InputError(
            "pvms must list one family per vertex" if method is None
            else "projections must list one matrix per vertex"
        )
    exact = method is None or method in _EXACT_METHODS
    for x, family in enumerate(families):
        if not family:
            raise InputError(f"vertex {x}: empty observable")
        for m in family:
            if not (
                isinstance(m, RationalMatrix) if exact
                else isinstance(m, np.ndarray) and m.dtype == complex
            ):
                raise InputError(
                    "pvm realizations are exact: rational matrices expected" if method is None
                    else f"method {method!r} needs {'rational' if exact else 'complex'} matrices"
                )
            if m.shape != (space_dim, space_dim):
                raise InputError(f"vertex {x}: matrix shape {m.shape} != space_dim {space_dim}")
    if vectors is None:
        return None
    if method != METHOD_RANK_ONE:
        raise InputError(f"method {method!r} stores no vectors")
    rational = isinstance(vectors, RationalMatrix)
    if (vectors.rows if rational else len(vectors)) != n:
        raise InputError("vectors must list one vector per vertex")
    for x, length in enumerate([vectors.cols] * n if rational else map(len, vectors)):
        if length != space_dim:
            raise InputError(f"vertex {x}: vector length {length} != space_dim {space_dim}")
    v = vectors if rational else RationalMatrix.from_rows(vectors)
    for x, ((p,), q) in enumerate(zip(families, rank_one_projections(v))):
        if p != q:
            raise InputError(f"vertex {x}: projection is not the one onto its vector")
    return tuple(map(tuple, v.to_fractions()))


@dataclass(frozen=True)
class Realization:
    """Vertex-indexed projections on a common space, and the rank-one vectors."""

    graph: Graph
    space_dim: int
    method: str
    projections: tuple
    vectors: tuple | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise InputError(f"unknown method {self.method!r}")
        object.__setattr__(self, "projections", tuple(self.projections))
        families = [(p,) for p in self.projections]
        vectors = _check_realization(self.graph, self.space_dim, self.method, families, self.vectors)
        object.__setattr__(self, "vectors", vectors)

    @property
    def is_exact(self) -> bool:
        return self.method in _EXACT_METHODS

    def __eq__(self, other) -> bool:
        # by value in both regimes: `==` on the tuples would compare float
        # projections elementwise and ask the array for its truth value
        if not isinstance(other, Realization):
            return NotImplemented
        same = RationalMatrix.__eq__ if self.is_exact else np.array_equal
        return (self.graph, self.space_dim, self.method, self.vectors) == (
            other.graph, other.space_dim, other.method, other.vectors
        ) and all(map(same, self.projections, other.projections))

    def __hash__(self) -> int:
        # the fields `__eq__` compares with `==`; float projections are not
        # hashed, as -0.0 and 0.0 are equal entries with different bytes
        return hash((self.graph, self.space_dim, self.method, self.vectors))


@dataclass(frozen=True)
class PvmRealization:
    """Vertex-indexed sharp observables (orthogonal projections summing to 1)."""

    graph: Graph
    space_dim: int
    pvms: tuple

    def __post_init__(self):
        object.__setattr__(self, "pvms", tuple(map(tuple, self.pvms)))
        _check_realization(self.graph, self.space_dim, None, self.pvms, None)


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


# A construction writes operators x dim^2 matrix entries.  On a 2-vCPU host a
# 26-vertex direct sum of 8,388,224 entries takes 3.3 s and 356 MB with --out;
# an edgeless 64-vertex direct sum would ask for 7.75 GiB.
MAX_REALIZATION_ENTRIES = 2**23


def _check_size(operators: int, dim: int) -> None:
    """Reject a construction of `operators` dim x dim matrices before it allocates them."""
    if operators * dim * dim > MAX_REALIZATION_ENTRIES:
        raise InputError(
            f"{operators} operators on dimension {dim} exceed {MAX_REALIZATION_ENTRIES} matrix entries"
        )


def _non_edge_count(graph: Graph) -> int:
    n = graph.vertex_count
    return n * (n - 1) // 2 - len(graph.edges)


# The qubit blocks of a non-edge over denominator 2: the pin [[1, 0], [0, 0]]
# and the tilt [[1/2, 1/2], [1/2, 1/2]], as (row, col, numerator) offsets.
_PIN = ((0, 0, 2),)
_TILT = ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1))


def realize_direct_sum(graph: Graph) -> Realization:
    """One 2x2 block per non-edge; the blocked pair gets two non-commuting
    projections there, everyone else gets zero."""
    _check_size(graph.vertex_count, 2 * _non_edge_count(graph) or 1)
    pairs = non_edges(graph).pairs
    if not pairs:
        # no obstruction needed: one-dimensional space, all projections zero
        projections = [RationalMatrix.zeros(1, 1)] * graph.vertex_count
        return Realization(graph, 1, METHOD_DIRECT_SUM, projections)
    n, dim = graph.vertex_count, 2 * len(pairs)
    num = np.zeros((n, dim, dim), dtype=np.int64)
    first, second = np.array(pairs).T
    at = np.arange(0, dim, 2)
    for owner, block in ((first, _PIN), (second, _TILT)):
        for i, j, value in block:
            num[owner, at + i, at + j] = value
    return Realization(graph, dim, METHOD_DIRECT_SUM, matrices_from_stack(num, 2))


def realize_rank_one(graph: Graph) -> Realization:
    """Rank-one projections onto 0/1 vectors indexed by vertices then non-edges.

    The vector of vertex x has a 1 at its own slot and at the slot of every
    non-edge containing x, so inner products are exactly 0 across edges and
    exactly 1 across non-edges.
    """
    n = graph.vertex_count
    _check_size(n, n + _non_edge_count(graph))
    pairs = non_edges(graph).pairs
    dim = n + len(pairs)
    vecs = np.zeros((n, dim), dtype=np.int64)
    vecs[np.arange(n), np.arange(n)] = 1
    vecs[np.array(pairs, dtype=np.intp).reshape(-1, 2).T, np.arange(n, dim)] = 1
    v = RationalMatrix(vecs)
    return Realization(graph, dim, METHOD_RANK_ONE, rank_one_projections(v), v)


def rank_one_gram(realization: Realization) -> RationalMatrix:
    """Exact Gram matrix V V^T of the stored rank-one vectors (the rows of V)."""
    if not isinstance(realization, Realization) or realization.vectors is None:
        raise InputError("realization has no stored vectors")
    v = RationalMatrix.from_rows(realization.vectors)
    return v @ v.T


def restrict_to_span(realization: Realization) -> Realization:
    """The rank-one projections in the orthonormal basis of their vectors' span
    (dimension = exact Gram rank), in vertex order: P_x = c_x c_x^T / G_xx for
    G = C C^T, C lower-triangular, and c_xj^2 / G_xx = L[x, j]^2 / (D_j N_xx)."""
    gram = rank_one_gram(realization)
    lower, dens, rank = ldlt(gram)
    norms = np.array([int(gram.entry(x, x) * gram.denominator) for x in range(len(lower))], dtype=object)
    u = np.sign(lower).astype(float) * np.sqrt((lower * lower / np.multiply.outer(norms, dens)).astype(float))
    projections = (u[:, :, None] * u[:, None, :] + 0.0).astype(complex)  # + 0.0 makes -0.0 0
    return Realization(realization.graph, rank, METHOD_RANK_ONE_RESTRICTED, list(projections))


def _exact_projections(realization: Realization, what: str) -> tuple:
    """The projections of an exact-regime Realization."""
    if not (isinstance(realization, Realization) and realization.is_exact):
        raise InputError(f"{what} needs an exact-regime realization")
    return realization.projections


def make_faithful(realization: Realization) -> Realization:
    """Append one private basis projector per vertex so all images differ
    while every commutation relation survives."""
    ps = _exact_projections(realization, "make_faithful")
    n, d = len(ps), realization.space_dim
    _check_size(n, d + n)
    num, dens = padded_numerators(ps, d + n)
    private = np.arange(d, d + n)
    num[np.arange(n), private, private] = dens  # 1 = D / D
    return Realization(realization.graph, d + n, METHOD_FAITHFUL, matrices_from_stack(num, dens))


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
    ps = _exact_projections(realization, "extend_outcomes")
    n = len(ps)
    for x in range(n):
        if x not in outcome_counts:
            raise InputError(f"missing outcome count for vertex {x}")
        count(outcome_counts[x], f"vertex {x}: outcome count", 2)
    counts = [outcome_counts[x] for x in range(n)]
    d = realization.space_dim
    extra = [c - 2 for c in counts]
    dim = d + sum(extra)
    _check_size(sum(counts), dim)
    # every element of every family, in order: p_x, then 1 - p_x (starting
    # from the numerators of p_x), then one zero per private projector
    slots = [e for p, k in zip(ps, extra) for e in [p, p] + [None] * k]
    num, dens = padded_numerators(slots, dim)
    first = np.cumsum([0] + counts)[:-1]
    rest = first + 1
    den = np.array(dens, dtype=num.dtype)[rest, None]
    # 1 - p_x = (D I - N) / D on the original space ...
    num[rest, :d, :d] *= -1
    diag = np.arange(d)
    num[rest[:, None], diag, diag] += den
    # ... and 1 on every appended index but the vertex's own
    appended = np.arange(d, dim)
    num[rest[:, None], appended, appended] = den
    num[np.repeat(rest, extra), appended, appended] = 0
    own = np.flatnonzero([e is None for e in slots])  # in the order of `appended`
    num[own, appended, appended] = 1
    elements = matrices_from_stack(num, dens)
    pvms = [elements[first[x] : first[x] + counts[x]] for x in range(n)]
    return PvmRealization(realization.graph, dim, pvms)


# -- verification ---------------------------------------------------------


_EXACT_COMMUTE = {True: "commutator = 0 (exact)", False: "commutator != 0 (exact)"}
_PVM_COMMUTE = {True: "all cross commutators = 0", False: "commutator != 0 (exact)"}


# The projection checks and the pair products take their operands in chunks
# of about this many bytes, so their temporaries stay small and
# cache-resident whatever the size of the realization and the width of its
# tier.  A chunk on a block of scattered coordinates is a copy, one
# temporary more than a view.
_CHUNK_BYTES = 2**17

# A verify whose dense work is below this many multiply-adds runs on the
# whole space as one block: finding the blocks would cost about as much as
# it saves.
_ONE_BLOCK_WORK = 2**22

# The most multiply-adds one verify may count, at float32 cost: one in
# float64 counts 2, one in complex128 (the float check) 8, and one in
# Python integers 2^12.  Against float32 they took 2.1, 7.6 and 5,000-5,800
# times as long on a 2-vCPU host with one BLAS thread.  A 40-vertex rank-one
# realization with 390 non-edges (dimension 430) counts 6.5e10 in float32
# and verifies in 0.8-1.1 s there.
MAX_VERIFY_WORK = 2**36
_COST = {np.dtype(np.float32): 1, np.dtype(np.float64): 2, np.dtype(np.complex128): 8, np.dtype(object): 2**12}


def _check_work(work: int, dtype) -> None:
    """Reject a verify of `work` multiply-adds in `dtype` before its first
    product."""
    work *= _COST[np.dtype(dtype)]
    if work > MAX_VERIFY_WORK:
        raise InputError(
            f"verification would take {work} multiply-adds at float32 cost, more than {MAX_VERIFY_WORK}"
        )


def _components(pattern: np.ndarray) -> np.ndarray | None:
    """The least coordinate of each coordinate's connected component in the
    symmetric boolean `pattern`, or None if the search has not settled in
    2 log2(dim) + 2 rounds.  The labels form a forest of stars: each round
    hooks the root of each star to the least root among its coordinates'
    neighbours, if that is below it, then points every coordinate at its
    root, so the rounds stay few even on a long path whose coordinates run
    away from its least one.  Each round costs O(dim^2)."""
    dim = len(pattern)
    labels = np.arange(dim)
    for _ in range(2 * dim.bit_length() + 2):
        hooked = labels.copy()
        np.minimum.at(hooked, labels, np.where(pattern, labels, dim).min(axis=1, initial=dim))
        jumped = hooked[hooked]
        while (jumped != hooked).any():
            hooked, jumped = jumped, jumped[jumped]
        # one star is the whole space, whatever the next round would find
        if not hooked.any() or (hooked == labels).all():
            return hooked
        labels = hooked
    return None


def _restrict(a: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The (k, d, d) stack `a` on the K blocks of size b of `coords`, as a
    (k, K, b, b) stack: a view when they are one run of coordinates."""
    blocks, b = coords.shape
    # each block's coordinates increase, so one block is a run when its last
    # is b - 1 past its first
    if blocks == 1 and (b == 0 or coords[0, -1] - coords[0, 0] == b - 1):
        first = int(coords[0, 0]) if b else 0
        return a[:, None, first : first + b, first : first + b]
    return a[:, coords[:, :, None], coords[:, None, :]]


def _common_blocks(stack: np.ndarray, ops: np.ndarray) -> tuple[list, int]:
    """The blocks a verify runs on, grouped by size, and the multiply-adds
    it will take.  Each group of K blocks of size b is (coordinates,
    operators, active): the coordinates of its blocks as a (K, b) array, the
    n family operators on them as an (n, K, b, b) stack, and whether each
    operator is not a multiple of the identity there (n, K).

    The blocks are the connected components of the union of the elements'
    nonzero patterns, so every element, and every operator, is block
    diagonal on them.  On a block of size b each element's checks cost b^3,
    and so does the product of each pair of families active there; the
    whole space as one block, with every family active, costs
    (m + n(n-1)/2) dim^3.  That is taken when it is small, or when the
    blocks would not cut it, or when `_components` does not settle.  The
    search costs m dim^2 for the pattern and at most O(dim^2 log dim) for
    its components, less than one dense product."""
    m, n, dim = len(stack), len(ops), stack.shape[-1]
    dense = (m + n * (n - 1) // 2) * dim**3
    whole = [(np.arange(dim)[None], ops[:, None], np.ones((n, 1), dtype=bool))]
    if dense < _ONE_BLOCK_WORK:
        return whole, dense
    pattern = np.zeros((dim, dim), dtype=bool)
    step = max(1, _CHUNK_BYTES // (dim * dim))
    for i in range(0, m, step):
        pattern |= (stack[i : i + step] != 0).any(axis=0)
    pattern |= pattern.T
    labels = _components(pattern)
    if labels is None:
        return whole, dense
    # the coordinates by block, each block in order, blocks by least coordinate
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    if len(starts) == 1:
        return whole, dense
    sizes = np.diff(starts, append=dim)
    groups, work = [], 0
    for b in sorted(set(sizes.tolist())):
        coords = order[starts[sizes == b, None] + np.arange(b)]
        # contiguous, as the pair products gather from it
        operators = np.ascontiguousarray(_restrict(ops, coords))
        # a multiple of the identity has a constant diagonal, and no more
        # nonzero entries than its diagonal has
        diagonal = operators[..., np.arange(b), np.arange(b)]
        active = (diagonal != diagonal[..., :1]).any(axis=2)
        xs, ks = np.nonzero(~active)
        active[xs, ks] = np.count_nonzero(operators[xs, ks], axis=(1, 2)) > np.count_nonzero(diagonal[xs, ks], axis=1)
        counts = active.sum(axis=0)
        work += int((m + counts * (counts - 1) // 2).sum()) * b**3
        groups.append((coords, operators, active))
    return (groups, work) if work < dense else (whole, dense)


def _exact_commutation(families: list, dim: int, pvms: bool) -> dict:
    """For each vertex pair x < y: does every element of family x commute
    with every element of family y?  Raises InputError unless each element is
    a projection and, for PVM families (`pvms`), the elements are orthogonal
    and sum to 1.

    Denominators cancel in AB - BA, so the tests run on the integer
    numerators N of one stack, and N^2 = D N is idempotency.  A PVM family
    of projections sums to 1 when sum_k (L / D_k) N_k = L I, with L the lcm
    of its denominators D_k; orthogonal projections that sum to 1 are
    pairwise orthogonal, so the products N_i N_j run only for a family whose
    sum fails, to name its first fault.
    Each family then gets one symmetric integer operator
    A = sum_k (k+1) (L / D_k) N_k.
    As A = L sum_k (k+1) E_k for orthogonal projections E_k = N_k / D_k, it
    has the distinct eigenvalues (k+1) L on the ranges of the E_k (and 0 on
    the rest), so every E_k is a polynomial in A.  Two families therefore
    commute exactly when A_x and A_y do, that is when A_x A_y is symmetric,
    as A_y A_x = (A_x A_y)^T.  `family_stacks` builds the numerators and the
    operators in one arithmetic tier, under one bound, which also bounds the
    identity sums.

    The projection checks and the pair products run on the blocks of
    `_common_blocks`: a block diagonal matrix is a projection, or a
    symmetric product, exactly when each of its blocks is, and a family
    whose operator is a multiple of the identity on a block commutes with
    every family there.  The pair products run on every (x, y, block) of a
    group where both families are active, a chunk at a time, so equal-size
    blocks share each product call.
    """
    if not families:
        return {}
    stack, ops = family_stacks(families, dim)
    groups, work = _common_blocks(stack, ops)
    _check_work(work, stack.dtype)
    m, n = len(stack), len(families)
    dens = np.array([e.denominator for family in families for e in family], dtype=stack.dtype).reshape(-1, 1, 1, 1)
    projection = np.ones(m, dtype=bool)
    for coords, operators, _ in groups:
        # the elements on the blocks, taken a chunk at a time, as a block of
        # scattered coordinates is a copy
        step = max(1, _CHUNK_BYTES // (stack.itemsize * max(1, coords.size * coords.shape[1])))
        for i in range(0, m, step):
            chunk = operators[i : i + step] if ops is stack else _restrict(stack[i : i + step], coords)
            projection[i : i + step] &= (chunk == chunk.swapaxes(2, 3)).all(axis=(1, 2, 3)) & (
                np.matmul(chunk, chunk) == dens[i : i + step] * chunk
            ).all(axis=(1, 2, 3))
    projection = projection.tolist()
    if pvms:
        flat = stack.reshape(m, dim * dim)
        eye = np.eye(dim, dtype=stack.dtype).ravel()
        nonzero = np.trace(stack, axis1=1, axis2=2).astype(bool).tolist()
    start = 0
    for x, family in enumerate(families):
        end = start + len(family)
        sound = all(projection[start:end])
        if sound and pvms:
            # the identity sum, with weight 0 for a zero element (a projection
            # of trace 0), as in `family_stacks`, whose bound covers the rest;
            # on the whole space, as it costs dim^2 multiply-adds an element,
            # no more than building the stack did
            lcm = math.lcm(*(e.denominator for e in family))
            weights = [lcm // e.denominator if nz else 0 for e, nz in zip(family, nonzero[start:end])]
            sound = bool((np.array(weights, dtype=stack.dtype) @ flat[start:end] == lcm * eye).all())
        if not sound:
            # the first fault, in the order of the checks
            for i in range(start, end):
                if not projection[i]:
                    raise InputError(f"vertex {x}: element {i - start} is not a projection")
                # N_i N_j for the family's j > i, block by block
                blocks = (_restrict(stack[i:end], coords) for coords, _, _ in groups)
                if i + 1 < end and any(np.matmul(b[0], b[1:]).any() for b in blocks):
                    raise InputError(f"vertex {x}: elements are not orthogonal")
            raise InputError(f"vertex {x}: elements do not sum to the identity")
        start = end
    # the verdict of each pair x < y, the pairs in order: (x, y) is at
    # offset(x) + y - x - 1, offset(x) = x (2n - x - 1) / 2
    commutes = np.ones(n * (n - 1) // 2, dtype=bool)
    upper = ~np.tri(n, dtype=bool)[..., None]  # x < y
    for _, operators, active in groups:
        # A_x A_y on each block k of the group where both are active, the
        # (x, y, k) taken a chunk at a time; only blocks with two active
        # families have any
        live = np.flatnonzero(active.sum(axis=0) > 1)
        xs, ys, ks = np.nonzero(upper & active[:, None, live] & active[:, live])
        ks = live[ks]
        pairs = xs * (2 * n - xs - 1) // 2 + ys - xs - 1
        step = max(1, _CHUNK_BYTES // (stack.itemsize * operators.shape[-1] ** 2))
        for i in range(0, len(pairs), step):
            at = slice(i, i + step)
            prod = np.matmul(operators[xs[at], ks[at]], operators[ys[at], ks[at]])
            commutes[pairs[at][~(prod == prod.transpose(0, 2, 1)).all(axis=(1, 2))]] = False
    return dict(zip(combinations(range(n), 2), commutes.tolist()))


def _norms(c: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix of a complex (k, d, d) stack, bit for bit:
    it sums the squares of the real parts, then of the imaginary parts, in one
    strided dot product each over the flattened matrix, and a (1, d^2) @
    (d^2, 1) product is that same dot product."""
    flat = c.reshape(len(c), 1, c.shape[1] * c.shape[2])
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).reshape(len(c))


def _float_commutator_norms(a: np.ndarray, tol: float) -> dict:
    """Commutator norm for each vertex pair x < y of a (n, d, d) stack of
    float operators, each checked to be Hermitian and idempotent within tol
    first.  The commutators are taken one stacked call per chunk of pairs of
    about _CHUNK_BYTES an operand, so memory stays bounded; the pairs of up
    to 11 vertices fit in one chunk."""
    projection = (_norms(a - np.conj(a.transpose(0, 2, 1))) <= tol) & (_norms(a @ a - a) <= tol)
    if not projection.all():
        raise InputError(f"vertex {int(np.argmin(projection))}: element 0 is not a projection within {tol}")
    xs, ys = np.triu_indices(len(a), 1)
    step = max(1, _CHUNK_BYTES // max(1, a.itemsize * a.shape[1] * a.shape[2]))
    norms = []
    for i in range(0, len(xs), step):
        norms += _norms(commutator(a[xs[i : i + step]], a[ys[i : i + step]])).tolist()
    return dict(zip(zip(xs.tolist(), ys.tolist()), norms))


def verify_realization(graph: Graph, realization, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check that every operator is a projection (exactly, or within tol for
    float matrices) and every PVM family is orthogonal and sums to 1, raising
    InputError if not; then report commute-iff-edge over all vertex pairs.
    Raises InputError before the first product if the check would take more
    than MAX_VERIFY_WORK multiply-adds.  Shapes and scalar regimes were
    checked when the realization was built."""
    tolerance(tol)
    r = realization
    if r.graph.vertex_count != graph.vertex_count:
        raise InputError(
            f"vertex sets differ: graph has {graph.vertex_count}, realization has {r.graph.vertex_count}"
        )
    pvms = isinstance(r, PvmRealization)
    if pvms or r.is_exact:
        families = r.pvms if pvms else [(p,) for p in r.projections]
        words = _PVM_COMMUTE if pvms else _EXACT_COMMUTE
        checked = {
            pair: (commutes, words[commutes])
            for pair, commutes in _exact_commutation(families, r.space_dim, pvms).items()
        }
    else:
        n = len(r.projections)
        _check_work(n * (n - 1) * r.space_dim**3, np.complex128)  # two products a pair
        stack = np.array(r.projections, dtype=complex).reshape(n, r.space_dim, r.space_dim)
        norms = _float_commutator_norms(stack, tol)
        checked = {pair: (norm <= tol, f"commutator norm {norm:.3e}") for pair, norm in norms.items()}
    violations = []
    for (x, y), (commutes, observed) in checked.items():
        expected = (x, y) in graph.edges  # x < y, both vertices of `graph`
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


# --dim 8 builds an action clique of about 8.6 M edges and runs for minutes
MAX_LOWER_BOUND_DIM = 7


def lower_bound_graph(d: int) -> LowerBoundGraph:
    """Clique of (#partitions of {1..d}) + 1 action vertices, wired to control
    vertices by the bits of their index so no two share a neighborhood.

    Control vertex k is adjacent to action vertex j exactly when bit k of j
    (least significant bit first) is set; control vertices are mutually
    disconnected.
    """
    if count(d, "d", 1) > MAX_LOWER_BOUND_DIM:
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
    graph = Graph(n_action + n_control, frozenset(edges))
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
    return Graph(3, frozenset({(0, 1), (0, 2)}))


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
    obj = {
        "graph": graph_to_json_obj(r.graph),
        "space_dim": r.space_dim,
        "method": r.method,
        "projections": matrices_to_json_obj(r.projections),
        "vectors": None,
    }
    if r.vectors is not None:
        obj["vectors"] = rows_to_json_obj(RationalMatrix.from_rows(r.vectors))
    return obj


def realization_from_json_obj(obj) -> Realization:
    graph_obj, space_dim, method, mats = fields(
        obj, "realization", "graph", "space_dim", "method", "projections"
    )
    graph = graph_from_json_obj(graph_obj)
    if not isinstance(mats, list):
        raise InputError("projections must list one matrix per vertex")
    vectors = rows_from_json_obj(obj.get("vectors"))
    if vectors is not None:
        if not isinstance(vectors, list):
            raise InputError("vectors must list one vector per vertex")
        if not all(isinstance(vec, list) for vec in vectors):
            raise InputError("rational vector must be a list")
    return Realization(graph, space_dim, method, matrices_from_json_obj(mats), vectors)


def pvm_realization_to_json_obj(r: PvmRealization) -> dict:
    objs = iter(matrices_to_json_obj([p for family in r.pvms for p in family]))
    return {
        "graph": graph_to_json_obj(r.graph),
        "space_dim": r.space_dim,
        "pvms": [[next(objs) for _ in family] for family in r.pvms],
    }


def pvm_realization_from_json_obj(obj) -> PvmRealization:
    graph_obj, space_dim, pvms = fields(obj, "pvm realization", "graph", "space_dim", "pvms")
    graph = graph_from_json_obj(graph_obj)
    if not isinstance(pvms, list):
        raise InputError("pvms must list one family per vertex")
    for x, family in enumerate(pvms):
        if not isinstance(family, list):
            raise InputError(f"vertex {x}: observable must be a list of matrices")
    # every element of every family parsed in one pass
    mats = iter(matrices_from_json_obj([mobj for family in pvms for mobj in family]))
    return PvmRealization(graph, space_dim, [[next(mats) for _ in family] for family in pvms])


def verification_report_to_json_obj(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "violations": [
            {"pair": list(v.pair), "expected": v.expected, "observed": v.observed}
            for v in report.violations
        ],
    }
