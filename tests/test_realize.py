import dataclasses
import functools
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jmg import realize
from jmg.errors import InputError
from jmg.graphs import graph_from_json_obj, graph_to_json_obj, non_edges, parse_graph
from jmg.linalg import (
    DEFAULT_TOL,
    RationalMatrix,
    commutator,
    direct_sum,
    family_stacks,
    numerical_rank,
)
from jmg.realize import (
    _CHUNK_BYTES,
    METHOD_DIRECT_SUM,
    METHOD_RANK_ONE,
    METHOD_RANK_ONE_RESTRICTED,
    PvmRealization,
    Realization,
    enumerate_partitions,
    extend_outcomes,
    fork_graph,
    fork_obstruction,
    lift_to_pvms,
    lower_bound_graph,
    make_faithful,
    pvm_realization_from_json_obj,
    pvm_realization_to_json_obj,
    rank_one_gram,
    realization_from_json_obj,
    realization_to_json_obj,
    realize_direct_sum,
    realize_rank_one,
    restrict_to_span,
    verify_realization,
)
from jmg.serialize import Raw, dumps

from helpers import (
    all_graphs,
    bell_numbers_by_triangle,
    graph_from_mask,
    is_projection,
    per_pair_commutator_norms,
    reference_dumps,
    wire,
)
from test_golden import LARGE_NON_EDGES

FORK = parse_graph("3; 0-1, 0-2")
TRIANGLE = parse_graph("3; 0-1, 0-2, 1-2")
HALF = Fraction(1, 2)


def graphs_strategy(max_n=6):
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    ).map(lambda t: graph_from_mask(*t))


def golden_large_graph():
    """The 16-vertex graph of the large golden files, given by its 30 non-edges."""
    missing = {tuple(map(int, p.split("-"))) for p in LARGE_NON_EDGES.split(", ")}
    return parse_graph("16; " + ", ".join(f"{a}-{b}" for a, b in combinations(range(16), 2) if (a, b) not in missing))


class TestDirectSum:
    def test_two_vertex_edgeless(self):
        r = realize_direct_sum(parse_graph("2;"))
        assert r.space_dim == 2
        assert r.projections[0] == RationalMatrix.from_rows([[1, 0], [0, 0]])
        assert r.projections[1] == RationalMatrix.from_rows([[HALF, HALF], [HALF, HALF]])
        assert not commutator(r.projections[0], r.projections[1]).is_zero()

    def test_fork(self):
        r = realize_direct_sum(FORK)
        assert r.space_dim == 2
        assert r.projections[0].is_zero()
        assert verify_realization(FORK, r).passed

    def test_triangle_degenerate(self):
        r = realize_direct_sum(TRIANGLE)
        assert r.space_dim == 1
        assert all(p.is_zero() for p in r.projections)
        assert verify_realization(TRIANGLE, r).passed

    @settings(max_examples=80, deadline=None)
    @given(graphs_strategy())
    def test_dimension_and_pattern(self, g):
        r = realize_direct_sum(g)
        n_missing = g.vertex_count * (g.vertex_count - 1) // 2 - len(g.edges)
        assert r.space_dim == max(1, 2 * n_missing)
        assert all(is_projection(p) for p in r.projections)
        assert verify_realization(g, r).passed


class TestRankOne:
    def test_fork_vectors_and_inner_products(self):
        r = realize_rank_one(FORK)
        assert r.space_dim == 4
        vec = r.vectors
        assert vec[0] == (1, 0, 0, 0)
        assert vec[1] == (0, 1, 0, 1)
        assert vec[2] == (0, 0, 1, 1)
        dot = lambda u, v: sum(a * b for a, b in zip(u, v))
        assert dot(vec[1], vec[2]) == 1
        assert dot(vec[0], vec[1]) == 0
        assert verify_realization(FORK, r).passed

    def test_triangle_standard_basis(self):
        r = realize_rank_one(TRIANGLE)
        assert r.space_dim == 3
        assert verify_realization(TRIANGLE, r).passed
        assert all(
            commutator(r.projections[x], r.projections[y]).is_zero()
            for x in range(3)
            for y in range(3)
        )

    def test_edgeless_pair_neither_commutes_nor_coincides(self):
        g = parse_graph("2;")
        r = realize_rank_one(g)
        assert r.space_dim == 3
        dot = sum(a * b for a, b in zip(r.vectors[0], r.vectors[1]))
        norms = [sum(c * c for c in r.vectors[x]) for x in (0, 1)]
        assert dot == 1 and norms == [2, 2]  # strict Cauchy-Schwarz: not parallel
        assert r.projections[0] != r.projections[1]
        assert not commutator(r.projections[0], r.projections[1]).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy())
    def test_inner_product_dichotomy(self, g):
        r = realize_rank_one(g)
        n = g.vertex_count
        assert r.space_dim == n + (n * (n - 1) // 2 - len(g.edges))
        for x in range(n):
            for y in range(x + 1, n):
                dot = sum(a * b for a, b in zip(r.vectors[x], r.vectors[y]))
                assert dot == (0 if g.adjacent(x, y) else 1)


def fork_rows() -> list:
    """The vectors of the fork's rank-one realization, as lists."""
    return [list(vec) for vec in realize_rank_one(FORK).vectors]


class TestRankOneVectors:
    """Vectors as a RationalMatrix of shape (n, space_dim) or as lists of rows."""

    @pytest.mark.parametrize("graph", [FORK, golden_large_graph()], ids=["fork", "golden-16"])
    def test_matrix_and_list_vectors_build_equal_realizations(self, graph):
        r = realize_rank_one(graph)
        rows = [list(vec) for vec in r.vectors]
        from_lists = Realization(graph, r.space_dim, METHOD_RANK_ONE, r.projections, rows)
        from_matrix = Realization(graph, r.space_dim, METHOD_RANK_ONE, r.projections, RationalMatrix.from_rows(rows))
        assert from_lists == from_matrix == r
        assert from_matrix.vectors == from_lists.vectors == r.vectors
        assert all(type(vec) is tuple and all(type(c) is Fraction for c in vec) for vec in r.vectors)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda rows, ps: (rows[:2], ps), "vectors must list one vector per vertex"),
            (lambda rows, ps: ([[*row, 0] for row in rows], ps), r"vertex 0: vector length 5 != space_dim 4"),
            (lambda rows, ps: ([rows[0], [0] * 4, rows[2]], [ps[0], RationalMatrix.zeros(4, 4), ps[2]]),
             "vertex 1: zero vector"),
            (lambda rows, ps: (rows, [ps[1], ps[0], ps[2]]), "vertex 0: projection is not the one onto its vector"),
        ],
        ids=["rows", "length", "zero-vector", "projection"],
    )
    def test_malformed_rejected_in_both_forms(self, change, message):
        rows, projections = change(fork_rows(), realize_rank_one(FORK).projections)
        for vectors in (rows, RationalMatrix.from_rows(rows)):
            with pytest.raises(InputError, match=f"^{message}$"):
                Realization(FORK, 4, METHOD_RANK_ONE, projections, vectors)

    def test_built_without_from_rows(self, monkeypatch):
        graph = golden_large_graph()
        calls = []
        from_rows = RationalMatrix.from_rows
        monkeypatch.setattr(RationalMatrix, "from_rows", classmethod(lambda cls, rows: calls.append(rows) or from_rows(rows)))
        r = realize_rank_one(graph)
        assert calls == []
        # list vectors, as read from a file, still go through from_rows
        Realization(graph, r.space_dim, METHOD_RANK_ONE, r.projections, [list(vec) for vec in r.vectors])
        assert len(calls) == 1


class TestRankOneGram:
    @settings(max_examples=40, deadline=None)
    @given(graphs_strategy())
    def test_matches_fraction_sums(self, g):
        r = realize_rank_one(g)
        vecs = [r.vectors[x] for x in range(g.vertex_count)]
        rows = [[sum(a * b for a, b in zip(u, v)) for v in vecs] for u in vecs]
        assert rank_one_gram(r) == RationalMatrix.from_rows(rows)

    def test_fractional_and_huge_vectors(self):
        vecs = [(HALF, Fraction(1, 3), 0), (Fraction(2**70, 7), -1, Fraction(5, 6))]
        r = Realization(parse_graph("2;"), 3, METHOD_RANK_ONE, [rank_one_projection(v) for v in vecs], vecs)
        rows = [[sum(a * b for a, b in zip(vecs[i], vecs[j])) for j in range(2)] for i in range(2)]
        assert rank_one_gram(r) == RationalMatrix.from_rows(rows)


class TestRestrictToSpan:
    def test_fork(self):
        rr = restrict_to_span(realize_rank_one(FORK))
        assert rr.space_dim == 3
        assert rr.method == METHOD_RANK_ONE_RESTRICTED
        assert verify_realization(FORK, rr).passed

    def test_triangle(self):
        rr = restrict_to_span(realize_rank_one(TRIANGLE))
        assert rr.space_dim == 3
        for p in rr.projections:
            assert np.linalg.norm(p @ p - p) < 1e-9

    def test_edgeless_three(self):
        g = parse_graph("3;")
        r = realize_rank_one(g)
        assert r.space_dim == 6
        gram = rank_one_gram(r)
        assert gram == RationalMatrix.from_rows([[3, 1, 1], [1, 3, 1], [1, 1, 3]])
        assert numerical_rank(gram) == 3
        rr = restrict_to_span(r)
        assert rr.space_dim == 3
        assert verify_realization(g, rr).passed

    def test_float_components_rejected(self):
        with pytest.raises(InputError, match="exact rational expected"):
            Realization(parse_graph("1;"), 2, METHOD_RANK_ONE, [RationalMatrix.zeros(2, 2)], [(0.5, 1)])

    def test_wrong_length_rejected(self):
        zeros = [RationalMatrix.zeros(3, 3)] * 2
        with pytest.raises(InputError, match="length"):
            Realization(parse_graph("2;"), 3, METHOD_RANK_ONE, zeros, [(1, 0, 0), (0, 1)])

    def test_requires_vectors(self):
        r = realize_direct_sum(FORK)
        with pytest.raises(InputError):
            restrict_to_span(r)

    @settings(max_examples=40, deadline=None)
    @given(graphs_strategy())
    def test_dimension_bound_and_pattern(self, g):
        rr = restrict_to_span(realize_rank_one(g))
        assert rr.space_dim <= g.vertex_count
        assert verify_realization(g, rr).passed


def assert_restriction_invariants(r: Realization) -> None:
    """P_x is zero outside its leading (x+1) x (x+1) block, the pairwise
    overlaps are those of the vectors, and the dimension is the Gram rank."""
    rr = restrict_to_span(r)
    gram = rank_one_gram(r)
    assert rr.space_dim == numerical_rank(gram)
    for x, p in enumerate(rr.projections):
        assert not p[x + 1 :].any() and not p[:, x + 1 :].any()
        for y, q in enumerate(rr.projections):
            overlap = gram.entry(x, y) ** 2 / (gram.entry(x, x) * gram.entry(y, y))
            assert abs(np.trace(p @ q) - float(overlap)) < 1e-12


class TestRestrictionInvariants:
    @settings(max_examples=30, deadline=None)
    @given(graphs_strategy(max_n=7))
    def test_rank_one_realizations(self, g):
        assert_restriction_invariants(realize_rank_one(g))

    def test_rank_deficient_vectors(self):
        # the last coordinate repeats the first; v_1 = 2 v_0 and v_3 = v_0 + v_2
        vecs = [(1, 2, 0, 1), (2, 4, 0, 2), (0, 1, 1, 0), (1, 3, 1, 1), (HALF, 0, 5, HALF), (7, 0, 0, 7)]
        r = Realization(parse_graph("6;"), 4, METHOD_RANK_ONE, [rank_one_projection(v) for v in vecs], vecs)
        assert numerical_rank(rank_one_gram(r)) == 3
        assert_restriction_invariants(r)


class TestRealizationEquality:
    """`==` compares realizations by value, in both regimes."""

    @pytest.mark.parametrize("graph", [FORK, golden_large_graph()], ids=["fork", "golden-16"])
    @pytest.mark.parametrize(
        "build",
        [realize_direct_sum, realize_rank_one, lambda g: restrict_to_span(realize_rank_one(g))],
        ids=["direct-sum", "rank-one", "restricted"],
    )
    def test_equal_to_itself_and_a_rebuilt_copy(self, graph, build):
        r = build(graph)
        assert r == r and r == build(graph) and not r != build(graph)

    @pytest.mark.parametrize("graph", [FORK, golden_large_graph()], ids=["fork", "golden-16"])
    def test_one_changed_entry_is_unequal(self, graph):
        exact = realize_direct_sum(graph)
        grid = exact.projections[-1].to_fractions()
        grid[0][-1] += 1
        changed = Realization(graph, exact.space_dim, exact.method, [*exact.projections[:-1], RationalMatrix.from_rows(grid)])
        assert exact != changed and not exact == changed
        restricted = restrict_to_span(realize_rank_one(graph))
        p = restricted.projections[-1].copy()
        p[0, -1] += 1e-15
        changed = Realization(graph, restricted.space_dim, restricted.method, [*restricted.projections[:-1], p])
        assert restricted != changed and not restricted == changed

    def test_other_fields_and_types(self):
        r = realize_rank_one(FORK)
        assert r != realize_rank_one(parse_graph("3; 0-1, 1-2"))
        assert r != make_faithful(r) and r != realize_direct_sum(FORK)
        assert r != r.projections

    @pytest.mark.parametrize("graph", [FORK, golden_large_graph()], ids=["fork", "golden-16"])
    @pytest.mark.parametrize(
        "build",
        [realize_direct_sum, realize_rank_one, lambda g: restrict_to_span(realize_rank_one(g))],
        ids=["direct-sum", "rank-one", "restricted"],
    )
    def test_hash_agrees_with_equality(self, graph, build):
        r, copy = build(graph), build(graph)
        assert hash(r) == hash(copy)
        assert {r, copy} == {r} and copy in {r} and len({r, copy}) == 1

    def test_signed_zeros_hash_equal(self):
        # -0.0 and 0.0 are equal entries with different bytes
        r = restrict_to_span(realize_rank_one(FORK))
        p = r.projections[0].copy()
        p[p == 0] = -0.0
        assert np.signbit(p.real).any()
        flipped = Realization(FORK, r.space_dim, r.method, [p, *r.projections[1:]])
        assert flipped == r and hash(flipped) == hash(r) and flipped in {r}


class TestMakeFaithful:
    def test_triangle_direct_sum_becomes_distinct(self):
        base = realize_direct_sum(TRIANGLE)
        assert base.projections[0] == base.projections[1]  # all zero, indistinct
        f = make_faithful(base)
        assert f.space_dim == 4
        ps = [f.projections[x] for x in range(3)]
        assert ps[0] != ps[1] and ps[0] != ps[2] and ps[1] != ps[2]
        assert verify_realization(TRIANGLE, f).passed

    def test_fork_direct_sum(self):
        f = make_faithful(realize_direct_sum(FORK))
        assert f.space_dim == 5
        assert f.projections[0] != f.projections[1]
        assert verify_realization(FORK, f).passed

    def test_rejects_float_regime(self):
        rr = restrict_to_span(realize_rank_one(FORK))
        with pytest.raises(InputError):
            make_faithful(rr)

    @settings(max_examples=40, deadline=None)
    @given(graphs_strategy())
    def test_pattern_preserved(self, g):
        base = realize_rank_one(g)
        f = make_faithful(base)
        assert f.space_dim == base.space_dim + g.vertex_count
        assert all(is_projection(p) for p in f.projections)
        assert verify_realization(g, f).passed

    def test_failing_base_still_fails(self):
        # verification verdicts survive the augmentation in both directions
        r = realize_direct_sum(FORK)
        pin = RationalMatrix.from_rows([[1, 0], [0, 0]])
        broken = Realization(FORK, 2, r.method, [r.projections[0], pin, pin])
        assert not verify_realization(FORK, broken).passed
        assert not verify_realization(FORK, make_faithful(broken)).passed


class TestLiftToPvms:
    def test_fork_blocks(self):
        pv = lift_to_pvms(realize_direct_sum(FORK))
        p_y = pv.pvms[1]
        p_z = pv.pvms[2]
        assert p_y[0] == RationalMatrix.from_rows([[1, 0], [0, 0]])
        assert p_y[1] == RationalMatrix.from_rows([[0, 0], [0, 1]])
        assert p_z[0] == RationalMatrix.from_rows([[HALF, HALF], [HALF, HALF]])
        assert p_z[1] == RationalMatrix.from_rows([[HALF, -HALF], [-HALF, HALF]])
        assert not commutator(p_y[0], p_z[0]).is_zero()
        assert verify_realization(FORK, pv).passed

    def test_elements_sum_and_orthogonality(self):
        pv = lift_to_pvms(realize_rank_one(FORK))
        assert verify_realization(FORK, pv).passed

    def test_triangle_all_compatible(self):
        pv = lift_to_pvms(realize_direct_sum(TRIANGLE))
        assert verify_realization(TRIANGLE, pv).passed

    @settings(max_examples=30, deadline=None)
    @given(graphs_strategy(5))
    def test_pattern_matches_base(self, g):
        pv = lift_to_pvms(realize_direct_sum(g))
        assert verify_realization(g, pv).passed


class TestExtendOutcomes:
    def test_fork_three_outcomes(self):
        pv = extend_outcomes(realize_direct_sum(FORK), {0: 3, 1: 3, 2: 3})
        assert pv.space_dim == 5
        assert all(len(pv.pvms[x]) == 3 for x in range(3))
        assert verify_realization(FORK, pv).passed

    def test_all_twos_match_lift(self):
        base = realize_direct_sum(FORK)
        a = extend_outcomes(base, {x: 2 for x in range(3)})
        b = lift_to_pvms(base)
        assert a.space_dim == b.space_dim
        assert all(a.pvms[x] == b.pvms[x] for x in range(3))

    def test_single_vertex_four_outcomes(self):
        g = parse_graph("1;")
        pv = extend_outcomes(realize_direct_sum(g), {0: 4})
        assert pv.space_dim == 3
        elements = pv.pvms[0]
        assert len(elements) == 4
        assert elements[0].is_zero()
        assert elements[1] == RationalMatrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert elements[2] == RationalMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert elements[3] == RationalMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        assert verify_realization(g, pv).passed

    def test_rejects_small_count(self):
        with pytest.raises(InputError, match="vertex 0: outcome count must be an integer >= 2"):
            extend_outcomes(realize_direct_sum(FORK), {0: 1, 1: 2, 2: 2})

    def test_rejects_missing_vertex(self):
        with pytest.raises(InputError, match="missing"):
            extend_outcomes(realize_direct_sum(FORK), {0: 2, 1: 2})

    @settings(max_examples=20, deadline=None)
    @given(graphs_strategy(4), st.integers(0, 3**4 - 1))
    def test_pattern_and_counts(self, g, code):
        counts = {}
        for x in range(g.vertex_count):
            counts[x] = 2 + (code // (3**x)) % 3
        pv = extend_outcomes(realize_rank_one(g), counts)
        assert pv.space_dim == g.vertex_count + (
            g.vertex_count * (g.vertex_count - 1) // 2 - len(g.edges)
        ) + sum(c - 2 for c in counts.values())
        assert all(len(pv.pvms[x]) == counts[x] for x in counts)
        assert verify_realization(g, pv).passed


EDGE = parse_graph("3; 0-1")  # non-edges 0-2 and 1-2


class TestSizeGuard:
    # each call writes operators x dim^2 entries; the bound admits exactly that many
    @pytest.mark.parametrize("build, entries", [
        (lambda: realize_direct_sum(EDGE), 3 * 4**2),
        (lambda: realize_direct_sum(TRIANGLE), 3 * 1**2),
        (lambda: realize_rank_one(EDGE), 3 * 5**2),
        (lambda: restrict_to_span(realize_rank_one(EDGE)), 3 * 5**2),
        (lambda: make_faithful(realize_direct_sum(EDGE)), 3 * 7**2),
        (lambda: extend_outcomes(realize_direct_sum(EDGE), {0: 3, 1: 2, 2: 2}), 7 * 5**2),
    ], ids=["direct-sum", "direct-sum-complete", "rank-one", "restrict-to-span", "make-faithful",
            "extend-outcomes"])
    def test_bound_is_inclusive(self, monkeypatch, build, entries):
        monkeypatch.setattr(realize, "MAX_REALIZATION_ENTRIES", entries)
        build()
        monkeypatch.setattr(realize, "MAX_REALIZATION_ENTRIES", entries - 1)
        with pytest.raises(InputError, match=f"exceed {entries - 1} matrix entries"):
            build()


class TestVerifyRealization:
    def test_mutation_detected(self):
        r = realize_direct_sum(FORK)
        pin = RationalMatrix.from_rows([[1, 0], [0, 0]])
        broken = Realization(FORK, 2, r.method, [r.projections[0], pin, pin])
        report = verify_realization(FORK, broken)
        assert not report.passed
        assert [v.pair for v in report.violations] == [(1, 2)]
        assert report.violations[0].expected == "non-commute"

    def test_vertex_mismatch(self):
        r = realize_direct_sum(FORK)
        with pytest.raises(InputError, match="vertex sets differ"):
            verify_realization(parse_graph("4;"), r)

    def test_triangle_rank_one_passes(self):
        assert verify_realization(TRIANGLE, realize_rank_one(TRIANGLE)).passed


def per_pair_violations(graph, realization):
    """Oracle: one exact commutator per pair of operators."""
    if isinstance(realization, PvmRealization):
        families = realization.pvms
    else:
        families = [[p] for p in realization.projections]
    out = []
    n = graph.vertex_count
    for x in range(n):
        for y in range(x + 1, n):
            commutes = all(
                commutator(a, b).is_zero() for a in families[x] for b in families[y]
            )
            if commutes != graph.adjacent(x, y):
                out.append((x, y))
    return out


CONSTRUCTIONS = {
    "direct-sum": realize_direct_sum,
    "rank-one": realize_rank_one,
    "faithful": lambda g: make_faithful(realize_rank_one(g)),
    "outcomes-3": lambda g: extend_outcomes(realize_rank_one(g), {x: 3 for x in range(g.vertex_count)}),
}


def rank_one_projection(u) -> RationalMatrix:
    """The projection onto a nonzero vector of rationals."""
    return RationalMatrix.outer(u, u) * (1 / sum(Fraction(c) ** 2 for c in u))


# a^2 + b^2 is about 2^41, so the numerators of the projection onto (a, b)
# are about 2^40 and 2 * max|num|^2 is far above 2^53
BIG_A, BIG_B = 1_048_583, 1_048_573
MID_A, MID_B = 11_580, 11_573
# a^2 + b^2 is about 2^24
WIDE_A, WIDE_B = 2897, 2903
# a^2 + b^2 is about 2^16, so 2 * max|num|^2 is about 2^31: past float32's
# 2^24 and below float64's 2^53
DOUBLE_A, DOUBLE_B = 181, 179


def wide_family() -> list:
    """A sharp observable whose elements fit float64 but whose operator does not."""
    return [rank_one_projection(u) for u in ((WIDE_A, WIDE_B, 0), (-WIDE_B, WIDE_A, 0), (0, 0, 1))]


class TestBatchedVerify:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.tuples(
                st.integers(0, (1 << (n * (n - 1) // 2)) - 1),
                st.integers(0, (1 << (n * (n - 1) // 2)) - 1),
            ).map(lambda masks: (graph_from_mask(n, masks[0]), graph_from_mask(n, masks[1])))
        ),
        st.sampled_from(sorted(CONSTRUCTIONS)),
    )
    def test_matches_per_pair_commutators(self, graphs, method):
        # realize one graph, verify against another on the same vertices, so
        # both verdicts occur
        built, checked = graphs
        r = CONSTRUCTIONS[method](built)
        report = verify_realization(checked, r)
        assert [v.pair for v in report.violations] == per_pair_violations(checked, r)
        assert report.passed == (not report.violations)

    def test_constructions_take_the_float32_path(self):
        r = realize_rank_one(FORK)
        families = [(r.projections[x],) for x in range(3)]
        assert family_stacks(families, r.space_dim)[0].dtype == np.float32

    @pytest.mark.parametrize("seed", [1, 977, None], ids=["random-1", "random-977", "star"])
    def test_benchmark_shapes_take_float32(self, seed):
        # 16 vertices and 30 non-edges, through direct-sum and three-outcome
        # rank-one: two random graphs, and a star that puts 15 of the
        # non-edges at vertex 0, the largest denominator this shape allows
        pairs = list(combinations(range(16), 2))
        if seed is None:
            missing = pairs[:15] + [p for p in pairs if p[0] > 0][:15]
        else:
            missing = [pairs[i] for i in np.random.default_rng(seed).choice(len(pairs), 30, replace=False)]
        graph = parse_graph("16; " + ", ".join(f"{a}-{b}" for a, b in pairs if (a, b) not in missing))
        assert len(non_edges(graph).pairs) == 30
        ds = realize_direct_sum(graph)
        pv = extend_outcomes(realize_rank_one(graph), {x: 3 for x in range(16)})
        assert family_stacks([(p,) for p in ds.projections], ds.space_dim)[1].dtype == np.float32
        assert family_stacks(pv.pvms, pv.space_dim)[1].dtype == np.float32
        assert verify_realization(graph, ds).passed and verify_realization(graph, pv).passed

    def test_float64_band_pair(self):
        p = rank_one_projection((DOUBLE_A, DOUBLE_B))
        q = rank_one_projection((DOUBLE_B, DOUBLE_A))
        eye = RationalMatrix.identity(2)
        assert family_stacks([(p,), (q,)], 2)[0].dtype == np.float64
        assert family_stacks([(p,), (eye - p,)], 2)[0].dtype == np.float64
        edge, empty = parse_graph("2; 0-1"), parse_graph("2;")
        commuting = Realization(edge, 2, METHOD_RANK_ONE, [p, eye - p])
        assert verify_realization(edge, commuting).passed
        assert verify_realization(edge, lift_to_pvms(commuting)).passed
        assert [(v.pair, v.observed) for v in verify_realization(empty, commuting).violations] == [
            ((0, 1), "commutator = 0 (exact)")
        ]
        tilted = Realization(empty, 2, METHOD_RANK_ONE, [p, q])
        assert verify_realization(empty, tilted).passed
        assert [(v.pair, v.observed) for v in verify_realization(edge, tilted).violations] == [
            ((0, 1), "commutator != 0 (exact)")
        ]

    def test_big_int_fallback_commuting_pair(self):
        p = rank_one_projection((BIG_A, BIG_B))
        q = RationalMatrix.identity(2) - p
        assert family_stacks([(p,), (q,)], 2)[0].dtype == object
        edge = parse_graph("2; 0-1")
        r = Realization(edge, 2, METHOD_RANK_ONE, [p, q])
        assert verify_realization(edge, r).passed
        report = verify_realization(parse_graph("2;"), r)
        assert [(v.pair, v.observed) for v in report.violations] == [
            ((0, 1), "commutator = 0 (exact)")
        ]
        assert verify_realization(edge, lift_to_pvms(r)).passed

    def test_big_int_fallback_non_commuting_pair(self):
        p = rank_one_projection((BIG_A, BIG_B))
        q = rank_one_projection((BIG_B, BIG_A))
        assert family_stacks([(p,), (q,)], 2)[0].dtype == object
        assert not commutator(p, q).is_zero()
        empty = parse_graph("2;")
        r = Realization(empty, 2, METHOD_RANK_ONE, [p, q])
        assert verify_realization(empty, r).passed
        report = verify_realization(parse_graph("2; 0-1"), r)
        assert [(v.pair, v.observed) for v in report.violations] == [
            ((0, 1), "commutator != 0 (exact)")
        ]
        pvm_report = verify_realization(parse_graph("2; 0-1"), lift_to_pvms(r))
        assert [v.pair for v in pvm_report.violations] == [(0, 1)]


    def test_int64_band_pair(self):
        # a^2 + b^2 is about 2^28: 2 * max|num|^2 is above 2^53, below 2^62,
        # so the stack holds Python ints although each numerator is int64
        p = rank_one_projection((MID_A, MID_B))
        q = rank_one_projection((MID_B, MID_A))
        assert p._num.dtype == np.int64
        assert family_stacks([(p,), (q,)], 2)[0].dtype == object
        assert family_stacks([(p,), (RationalMatrix.identity(2) - p,)], 2)[0].dtype == object
        edge, empty = parse_graph("2; 0-1"), parse_graph("2;")
        commuting = Realization(edge, 2, METHOD_RANK_ONE, [p, RationalMatrix.identity(2) - p])
        assert verify_realization(edge, commuting).passed
        assert verify_realization(edge, lift_to_pvms(commuting)).passed
        assert [v.pair for v in verify_realization(empty, commuting).violations] == [(0, 1)]
        tilted = Realization(empty, 2, METHOD_RANK_ONE, [p, q])
        assert verify_realization(empty, tilted).passed
        assert [(v.pair, v.observed) for v in verify_realization(edge, tilted).violations] == [
            ((0, 1), "commutator != 0 (exact)")
        ]
        bent = Realization(edge, 2, METHOD_RANK_ONE, [p, p * 2])
        with pytest.raises(InputError, match="vertex 1: element 0 is not a projection"):
            verify_realization(edge, bent)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.tuples(
                st.integers(0, (1 << (n * (n - 1) // 2)) - 1),
                st.integers(0, (1 << (n * (n - 1) // 2)) - 1),
                st.lists(st.integers(2, 4), min_size=n, max_size=n),
            ).map(lambda t: (graph_from_mask(n, t[0]), graph_from_mask(n, t[1]), t[2]))
        ),
        st.sampled_from(["direct-sum", "rank-one", "faithful"]),
        st.booleans(),
    )
    def test_pvms_match_per_pair_commutators(self, case, base, lift):
        # mixed outcome counts 2-4 per vertex, or the binary lift
        built, checked, counts = case
        r = CONSTRUCTIONS[base](built)
        pv = lift_to_pvms(r) if lift else extend_outcomes(r, dict(enumerate(counts)))
        report = verify_realization(checked, pv)
        assert [v.pair for v in report.violations] == per_pair_violations(checked, pv)
        assert report.passed == (not report.violations)


class TestVertexOperators:
    """One operator per vertex, A = sum_k (k+1) (L / D_k) N_k, stands for the
    vertex's whole family in the commutation test."""

    def test_weights_follow_the_denominators(self):
        # denominators 2, 1, 2; weights that ignore them give the first
        # family's operator one eigenspace spanned by (1, 1, 0) and e3, which
        # holds (1, 1, 1), so q would be reported to commute with the family
        family = [rank_one_projection(u) for u in ((1, 1, 0), (0, 0, 1), (1, -1, 0))]
        assert [p.denominator for p in family] == [2, 1, 2]
        q = rank_one_projection((1, 1, 1))
        naive = RationalMatrix.zeros(3, 3)
        for k, p in enumerate(family):
            naive = naive + p * ((k + 1) * p.denominator)
        assert commutator(naive, q).is_zero()
        assert not commutator(family[0], q).is_zero()
        empty, edge = parse_graph("2;"), parse_graph("2; 0-1")
        pv = PvmRealization(empty, 3, [family, [q, RationalMatrix.identity(3) - q]])
        assert per_pair_violations(empty, pv) == []
        assert verify_realization(empty, pv).passed
        assert [(v.pair, v.observed) for v in verify_realization(edge, pv).violations] == [
            ((0, 1), "commutator != 0 (exact)")
        ]

    def test_operators_wider_than_their_elements(self):
        # D = a^2 + b^2 is about 2^24: the elements alone would fit float64
        # (3 max|N|^2 < 2^53), but e3's weight 3 D puts 3 (sum_k w_k max|N_k|)^2
        # above 2^53; one bound covers both stacks, so both take Python ints
        wide = wide_family()
        d = wide[0].denominator
        assert d == wide[1].denominator == WIDE_A**2 + WIDE_B**2
        assert family_stacks([(p,) for p in wide], 3)[0].dtype == np.float64
        stack, ops = family_stacks([wide], 3)
        assert stack.dtype == ops.dtype == object
        eye = RationalMatrix.identity(3)
        pin, slant = rank_one_projection((0, 0, 1)), rank_one_projection((1, 0, 1))
        families = [wide, [pin, eye - pin], [slant, eye - slant], [wide[0], eye - wide[0]]]
        commuting = parse_graph("4; 0-1, 0-3, 1-3")
        complement = parse_graph("4; 0-2, 1-2, 2-3")
        pv = PvmRealization(commuting, 3, families)
        assert verify_realization(commuting, pv).passed
        assert per_pair_violations(commuting, pv) == []
        report = verify_realization(complement, pv)
        assert [v.pair for v in report.violations] == per_pair_violations(complement, pv)
        assert len(report.violations) == 6

    def test_projections_checked_in_chunks(self):
        # no edges on 9 vertices: dimension 72 in float32, so the 18 elements
        # of the lift span several chunks of the projection check on the
        # whole space; on its 36 blocks of size 2 they fit in one
        empty, complete = parse_graph("9;"), graph_from_mask(9, (1 << 36) - 1)
        pv = lift_to_pvms(realize_direct_sum(empty))
        stack, _ = family_stacks(pv.pvms, pv.space_dim)
        assert stack.dtype == np.float32
        assert 18 > _CHUNK_BYTES // stack[0].nbytes > 1
        bent = [list(family) for family in pv.pvms]
        bent[8][1] = bent[8][1] * 2
        for one_block_work in (2**62, realize._ONE_BLOCK_WORK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(realize, "_ONE_BLOCK_WORK", one_block_work)
                assert verify_realization(empty, pv).passed
                assert len(verify_realization(complete, pv).violations) == 36
                with pytest.raises(InputError, match="vertex 8: element 1 is not a projection"):
                    verify_realization(empty, PvmRealization(empty, pv.space_dim, bent))

    def test_operators_are_weighted_sums(self):
        r = realize_rank_one(FORK)
        ps = r.projections
        assert [p.denominator for p in ps] == [1, 2, 2]
        stack, ops = family_stacks([ps[:2], ps[2:]], r.space_dim)
        assert ops.dtype == np.float32
        # weights (k+1) L / D_k with L = lcm(1, 2) = 2
        assert np.array_equal(ops[0], 2 * stack[0] + 2 * stack[1])
        assert np.array_equal(ops[1], stack[2])
        # a family in the float64 band: L = D, so the weights are 1 and 2
        p = rank_one_projection((DOUBLE_A, DOUBLE_B))
        rest = RationalMatrix.identity(2) - p
        assert rest.denominator == p.denominator == DOUBLE_A**2 + DOUBLE_B**2
        stack, ops = family_stacks([[p, rest], [p]], 2)
        assert ops.dtype == np.float64
        assert ops[0].tolist() == (p._num + 2 * rest._num).tolist()
        assert ops[1].tolist() == p._num.tolist()
        # one wide family puts every operator in Python ints
        wide = wide_family()
        d = wide[0].denominator
        stack, ops = family_stacks([wide, wide[2:]], 3)
        assert ops.dtype == object
        assert ops[0].tolist() == (stack[0] + 2 * stack[1] + 3 * d * stack[2]).tolist()
        assert ops[1].tolist() == stack[3].tolist()


def reference_bound(families, dim: int) -> int:
    """B = max(dim S^2, max D max|N|) of `family_stacks`, from the Fraction
    entries of each element: D is the lcm of their denominators, N = D E."""
    sums, peaks, dens = [0], [0], [1]
    for family in families:
        parts = []
        for e in family:
            fracs = [f for row in e.to_fractions() for f in row]
            d = math.lcm(*(f.denominator for f in fracs))
            parts.append((d, max(abs(f * d) for f in fracs)))
        lcm = math.lcm(*(d for d, _ in parts))
        sums.append(sum((k + 1) * (lcm // d) * peak for k, (d, peak) in enumerate(parts)))
        peaks += [peak for _, peak in parts if peak]
        dens += [d for d, peak in parts if peak]
    return max(dim * max(sums) ** 2, max(dens) * max(peaks))


def reference_tier(families, dim: int):
    bound = reference_bound(families, dim)
    return np.float32 if bound < 2**24 else np.float64 if bound < 2**53 else object


def reference_fault(families, pvms: bool):
    """The first fault `verify_realization` names, found by exact arithmetic."""
    for x, family in enumerate(families):
        eye = RationalMatrix.identity(family[0].rows)
        if all(map(is_projection, family)) and (not pvms or functools.reduce(RationalMatrix.__add__, family) == eye):
            continue
        for i, e in enumerate(family):
            if not is_projection(e):
                return f"vertex {x}: element {i} is not a projection"
            if not all((e @ f).is_zero() for f in family[i + 1 :]):
                return f"vertex {x}: elements are not orthogonal"
        return f"vertex {x}: elements do not sum to the identity"
    return None


def band_families(a: int, dim: int, pvms: bool, miss=None) -> list:
    """Vertices 0 and 1 on u = (a, a-1) and its orthogonal v = (1-a, a) in
    the first two coordinates, which commute, and vertex 2 on the all-ones
    vector, which commutes with neither; each a binary PVM {p, 1-p} or its
    projection p.  `miss` moves one integer by 1: an off-diagonal or a
    diagonal numerator of vertex 0's projection (no longer symmetric, or no
    longer idempotent), or a coordinate of v (vertex 1 stops commuting)."""
    pad = [0] * (dim - 2)
    u, v = [a, a - 1, *pad], [1 - a + (miss == "commute"), a, *pad]
    ps = [rank_one_projection(w) for w in (u, v, [1] * dim)]
    if miss in ("symmetry", "idempotence"):
        num = ps[0]._num.astype(np.int64)
        num[1 if miss == "idempotence" else 0, 1] += 1  # below the peak a^2
        ps[0] = RationalMatrix(num, ps[0].denominator)
    eye = RationalMatrix.identity(dim)
    return [[p, eye - rank_one_projection(w)] if pvms else [p] for p, w in zip(ps, (u, v, [1] * dim))]


@functools.lru_cache(maxsize=None)
def band_edge(limit: int, dim: int, pvms: bool) -> int:
    """The largest a whose `band_families` have B below `limit`; a + 1 has
    B at or above it."""
    lo, hi = 2, 2**14
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reference_bound(band_families(mid, dim, pvms), dim) < limit:
            lo = mid
        else:
            hi = mid
    return lo


class TestTierBands:
    """Families whose bound B lands just below or just above 2^24 and 2^53
    take the tier B picks, and every tier gives the exact verdicts and fault
    messages, near misses included."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2**24, 2**53]),
        st.booleans(),
        st.integers(2, 3),
        st.booleans(),
        st.sampled_from([None, "symmetry", "idempotence", "commute"]),
        st.integers(0, 7),
    )
    def test_bands_match_the_exact_reference(self, limit, above, dim, pvms, miss, mask):
        a = band_edge(limit, dim, pvms) + above
        assert (reference_bound(band_families(a, dim, pvms), dim) >= limit) == above
        families = band_families(a, dim, pvms, miss)
        tier = reference_tier(families, dim)
        assert tier == reference_tier(band_families(a, dim, pvms), dim)
        assert family_stacks(families, dim)[0].dtype == tier
        built = parse_graph("3; 0-1")
        if pvms:
            r = PvmRealization(built, dim, families)
        else:
            r = Realization(built, dim, METHOD_RANK_ONE, [p for p, in families])
        fault = reference_fault(families, pvms)
        assert (fault is None) == (miss in (None, "commute"))
        for graph in (built, graph_from_mask(3, mask)):
            if fault:
                with pytest.raises(InputError) as caught:
                    verify_realization(graph, r)
                assert str(caught.value) == fault
                continue
            report = verify_realization(graph, r)
            assert [v.pair for v in report.violations] == per_pair_violations(graph, r)
        if fault is None:
            assert per_pair_violations(built, r) == ([(0, 1)] if miss else [])


# the vector (a, b) whose projection puts a realization in each arithmetic
# tier: the last is the 2^41 pair of the Python-int fallback tests
TIER_PAIRS = {np.float32: (2, 1), np.float64: (DOUBLE_A, DOUBLE_B), object: (BIG_A, BIG_B)}


def verify_outcome(graph, r, one_block_work: int):
    """What `verify_realization` reports, with the one-block case taken below
    `one_block_work` multiply-adds: the violations, or the fault it raises."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realize, "_ONE_BLOCK_WORK", one_block_work)
        try:
            report = verify_realization(graph, r)
        except InputError as exc:
            return str(exc)
    return [(v.pair, v.expected, v.observed) for v in report.violations]


@st.composite
def block_realizations(draw):
    """A realization of 2-4 vertices on a direct sum of two to four 2x2 and
    1x1 blocks, the first 2x2 and in the arithmetic tier drawn, with at most
    one near miss; and a graph on the same vertices to verify it against.

    On a 2x2 block one vertex gets the projection onto (a, b), and another
    either its complement (they commute) or the projection onto (b, a)
    (they do not); on a 1x1 block some vertices get 1.  The near misses:
    one numerator off by one in a 2x2 block, an entry off the diagonal at a
    1x1 block, a projection that bridges two blocks, and for sharp
    observables elements that are not orthogonal or do not sum to 1."""
    tier = draw(st.sampled_from(sorted(TIER_PAIRS, key=str)))
    a, b = TIER_PAIRS[tier]
    n = draw(st.integers(2, 4))
    kinds = ["pair"] + draw(st.lists(st.sampled_from(["pair", "single"]), min_size=1, max_size=3))
    dim = sum(2 if kind == "pair" else 1 for kind in kinds)
    grids = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(n)]
    at, singles = 0, []
    for kind in kinds:
        if kind == "single":
            for x in range(n):
                grids[x][at][at] = Fraction(draw(st.integers(0, 1)))
            singles.append(at)
            at += 1
            continue
        x, y = draw(st.permutations(range(n)))[:2]
        complement = draw(st.booleans())
        u, v = (a, b), (b, a)
        for i in range(2):
            for j in range(2):
                p_ij = Fraction(u[i] * u[j], a * a + b * b)
                grids[x][at + i][at + j] = p_ij
                grids[y][at + i][at + j] = (i == j) - p_ij if complement else Fraction(v[i] * v[j], a * a + b * b)
        at += 2
    pvms = draw(st.booleans())
    misses = [None, "entry", "bridge"] + (["off-diagonal"] if singles else [])
    if pvms:
        misses += ["orthogonal"] + (["sum"] if singles else [])
    miss = draw(st.sampled_from(misses))
    x = draw(st.integers(0, n - 1))
    if miss == "bridge":
        s, t = 0, dim - 1  # the first block and the last
        grids[x] = [[Fraction(i in (s, t) and j in (s, t), 2) for j in range(dim)] for i in range(dim)]
    projections = [RationalMatrix.from_rows(grid) for grid in grids]
    if miss == "entry":
        i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        num = projections[x]._num.astype(object)
        num[i, j] += 1
        projections[x] = RationalMatrix(num.astype(projections[x]._num.dtype), projections[x].denominator)
    if miss == "off-diagonal":
        s = draw(st.sampled_from(singles))
        t = draw(st.sampled_from([c for c in range(dim) if c != s]))
        projections[x] = projections[x] + RationalMatrix.outer([int(c == s) for c in range(dim)],
                                                               [int(c == t) for c in range(dim)])
    eye = RationalMatrix.identity(dim)
    graph = graph_from_mask(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    if not pvms:
        return tier, graph, Realization(graph, dim, METHOD_RANK_ONE, projections)
    families = [[p, eye - p] for p in projections]
    if miss == "orthogonal":
        families[x] = [families[x][0], families[x][0], families[x][1]]
    if miss == "sum":
        s = draw(st.sampled_from(singles))
        unit = RationalMatrix.outer(*[[int(c == s) for c in range(dim)]] * 2)
        p, rest = families[x]
        families[x] = [p - unit, rest] if p.entry(s, s) else [p, rest - unit]
    return tier, graph, PvmRealization(graph, dim, families)


def one_block(found, m: int, n: int, dim: int) -> bool:
    """Whether `_common_blocks` found the whole space as the one block, with
    every family active on it, at the dense count."""
    (coords, operators, active), = found[0]
    return (coords.tolist() == [list(range(dim))] and operators.shape == (n, 1, dim, dim)
            and active.tolist() == [[True]] * n and found[1] == (m + n * (n - 1) // 2) * dim**3)


class TestCommonBlocks:
    """Verify on the common blocks of the elements gives the verdicts and the
    fault messages of the one-block case."""

    @settings(max_examples=120, deadline=None)
    @given(block_realizations())
    def test_blocks_match_the_one_block_case(self, case):
        tier, graph, r = case
        families = r.pvms if isinstance(r, PvmRealization) else [(p,) for p in r.projections]
        assert family_stacks(families, r.space_dim)[0].dtype == tier
        blocked = verify_outcome(graph, r, 0)
        assert blocked == verify_outcome(graph, r, 2**62)
        if isinstance(blocked, list):
            assert [pair for pair, _, _ in blocked] == per_pair_violations(graph, r)

    def test_blocks_are_components_of_the_union(self):
        # coordinates 0 and 3 share an element, 1 and 2 another, 4 is alone
        dim = 5
        p = RationalMatrix.outer(*[[1, 0, 0, 1, 0]] * 2, 2)
        q = RationalMatrix.outer(*[[0, 1, 1, 0, 0]] * 2, 2)
        stack, ops = family_stacks([(p,), (q,)], dim)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(realize, "_ONE_BLOCK_WORK", 0)
            groups, work = realize._common_blocks(stack, ops)
        assert [coords.tolist() for coords, _, _ in groups] == [[[4]], [[0, 3], [1, 2]]]
        # p and q are their own operators
        assert [operators.tolist() for _, operators, _ in groups] == [
            [[[[0]]], [[[0]]]],
            [[[[1, 1], [1, 1]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[1, 1], [1, 1]]]],
        ]
        assert [active.tolist() for _, _, active in groups] == [[[False], [False]], [[True, False], [False, True]]]
        # both elements on each of the three blocks, and no active pair
        assert work == 2 * 1**3 + 2 * 2 * 2**3
        # below the one-block bound the whole space is one block, dense
        assert one_block(realize._common_blocks(stack, ops), 2, 2, dim)

    def test_components_of_a_path_away_from_its_least_coordinate(self):
        # the path 0 - (d-1) - (d-2) - ... - 1: a search that moves each
        # label one step a round takes d rounds; this one settles in a few
        dim = 1024
        path = [0, *range(dim - 1, 0, -1)]
        pattern = np.eye(dim, dtype=bool)
        pattern[path[:-1], path[1:]] = pattern[path[1:], path[:-1]] = True
        assert realize._components(pattern).tolist() == [0] * dim
        # split after its first 100 coordinates, it is two components
        pattern[path[99], path[100]] = pattern[path[100], path[99]] = False
        labels = np.where(np.isin(np.arange(dim), path[:100]), 0, min(path[100:]))
        assert realize._components(pattern).tolist() == labels.tolist()
        # as one element of a one-family stack, it is one block
        element = pattern.astype(np.float32)
        element[path[99], path[100]] = element[path[100], path[99]] = 1
        stack = element[None]
        assert one_block(realize._common_blocks(stack, stack), 1, 1, dim)

    def test_one_block_kept_when_blocks_cut_nothing(self):
        r = realize_rank_one(TRIANGLE)  # diagonal: three blocks of size 1
        stack, ops = family_stacks([(p,) for p in r.projections], 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(realize, "_ONE_BLOCK_WORK", 0)
            assert realize._common_blocks(stack, ops)[1] == 3 * 3
            tilt = rank_one_projection((1, 1, 1))
            stack, ops = family_stacks([(tilt,), (tilt,)], 3)
            assert one_block(realize._common_blocks(stack, ops), 2, 2, 3)


def graph_with_non_edges(n: int, count: int, seed: int = 1):
    """A seeded graph on n vertices with `count` non-edges."""
    pairs = list(combinations(range(n), 2))
    missing = {pairs[i] for i in np.random.default_rng(seed).choice(len(pairs), count, replace=False)}
    return parse_graph(f"{n}; " + ", ".join(f"{a}-{b}" for a, b in pairs if (a, b) not in missing))


def direct_sum_26() -> Realization:
    """The direct sum of a 26-vertex graph with 284 non-edges: dimension 568,
    8,388,224 entries, just under the size guard."""
    return realize_direct_sum(graph_with_non_edges(26, 284))


class TestVerifyAtScale:
    """Realizations whose dense verify took about a second, with the work
    their blocks count."""

    def test_direct_sum_26_vertices(self):
        # dimension 568: 284 blocks of size 2, each with the 26 elements and
        # the one active pair of its non-edge
        r = direct_sum_26()
        stack, ops = family_stacks([(p,) for p in r.projections], r.space_dim)
        groups, work = realize._common_blocks(stack, ops)
        assert [operators.shape for _, operators, _ in groups] == [(26, 284, 2, 2)]
        assert work == 284 * (26 + 1) * 2**3
        assert verify_realization(r.graph, r).passed

    def test_complete_rank_one_120_vertices(self):
        # diagonal projections: 120 blocks of size 1, and no active pair
        g = graph_with_non_edges(120, 0)
        r = realize_rank_one(g)
        stack, ops = family_stacks([(p,) for p in r.projections], r.space_dim)
        groups, work = realize._common_blocks(stack, ops)
        assert [operators.shape for _, operators, _ in groups] == [(120, 120, 1, 1)]
        assert work == 120 * 120
        assert verify_realization(g, r).passed


def tier_pair(a: int, b: int) -> Realization:
    """The two projections onto (a, b) and onto (b, a), on the empty graph."""
    empty = parse_graph("2;")
    return Realization(empty, 2, METHOD_RANK_ONE, [rank_one_projection((a, b)), rank_one_projection((b, a))])


class TestVerifyWorkGuard:
    # the bound admits exactly the work a verify counts, at float32 cost:
    # a float64 multiply-add counts 2, a Python-int one 2^12, and the float
    # check takes two complex products a pair, at 8 each
    @pytest.mark.parametrize("build, work", [
        (lambda: realize_rank_one(FORK), (3 + 3) * 4**3),
        (lambda: lift_to_pvms(realize_direct_sum(EDGE)), (6 + 3) * 4**3),
        (lambda: restrict_to_span(realize_rank_one(FORK)), 3 * 2 * 3**3 * 8),
        (direct_sum_26, 284 * (26 + 1) * 2**3),
        (lambda: tier_pair(DOUBLE_A, DOUBLE_B), (2 + 1) * 2**3 * 2),
        (lambda: tier_pair(MID_A, MID_B), (2 + 1) * 2**3 * 2**12),
    ], ids=["exact", "pvm", "restricted", "blocks", "float64", "python-int"])
    def test_bound_is_inclusive(self, monkeypatch, build, work):
        r = build()
        monkeypatch.setattr(realize, "MAX_VERIFY_WORK", work)
        assert verify_realization(r.graph, r).passed
        monkeypatch.setattr(realize, "MAX_VERIFY_WORK", work - 1)
        message = f"verification would take {work} multiply-adds at float32 cost, more than {work - 1}"
        with pytest.raises(InputError, match=message):
            verify_realization(r.graph, r)


# a^2 + b^2 is about 2^67, so these numerators are Python integers
HUGE_A, HUGE_B = 2**33 + 1, 2**33 - 3


def exact_pair(a: int, b: int) -> Realization:
    """p onto (a, b) and 1 - p, on the single edge."""
    p = rank_one_projection((a, b))
    return Realization(parse_graph("2; 0-1"), 2, METHOD_RANK_ONE, [p, RationalMatrix.identity(2) - p])


class TestPvmSumCheck:
    @pytest.mark.parametrize(
        "family",
        [
            [RationalMatrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
             RationalMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 0]])],
            [rank_one_projection((1, 1, 0)), rank_one_projection((1, -1, 0))],
            [rank_one_projection((1, 2, 2))],
        ],
    )
    def test_orthogonal_projections_short_of_identity(self, family):
        # orthogonal projections whose sum is a rank-2 projection in dimension 3
        g = parse_graph("1;")
        with pytest.raises(InputError, match="vertex 0: elements do not sum to the identity"):
            verify_realization(g, PvmRealization(g, 3, [family]))

    @pytest.mark.parametrize(
        "scale, tier",
        [(1, np.float32), (1000, np.float64), (HUGE_A, object)],
        ids=["float32", "float64", "python-int"],
    )
    def test_zero_elements_and_sums(self, scale, tier):
        # a zero element adds nothing to a family's sum; the sum alone decides
        # a family of projections, in every arithmetic tier
        p = rank_one_projection((scale, 1, 0))
        eye, zero = RationalMatrix.identity(3), RationalMatrix.zeros(3, 3)
        g = parse_graph("2; 0-1")
        good = PvmRealization(g, 3, [[zero, p, eye - p, zero], [eye, zero]])
        assert family_stacks(good.pvms, 3)[0].dtype == tier
        assert verify_realization(g, good).passed
        short = PvmRealization(g, 3, [[zero, p, eye - p - rank_one_projection((0, 0, 1))], [eye]])
        with pytest.raises(InputError, match="vertex 0: elements do not sum to the identity"):
            verify_realization(g, short)

    def test_non_orthogonal_reported_first(self):
        pin = RationalMatrix.from_rows([[1, 0], [0, 0]])
        tilt = RationalMatrix.from_rows([[HALF, HALF], [HALF, HALF]])
        eye = RationalMatrix.identity(2)
        g = parse_graph("1;")
        # neither family sums to the identity, but each fails orthogonality first
        for family in ([pin, pin], [tilt, pin, eye - pin]):
            with pytest.raises(InputError, match="vertex 0: elements are not orthogonal"):
                verify_realization(g, PvmRealization(g, 2, [family]))

    @pytest.mark.parametrize("a, b", [(BIG_A, BIG_B), (HUGE_A, HUGE_B)])
    def test_extend_outcomes_on_wide_pairs(self, a, b):
        r = exact_pair(a, b)
        if a == HUGE_A:
            assert r.projections[0]._num.dtype == object
        edge = r.graph
        pv = extend_outcomes(r, {0: 3, 1: 4})
        assert pv.space_dim == 5
        assert verify_realization(edge, pv).passed
        assert verify_realization(edge, make_faithful(r)).passed
        reference = reference_extend_outcomes(r, {0: 3, 1: 4})
        assert all(same_family(pv.pvms[x], reference[x]) for x in range(2))


def test_extend_outcomes_lifts_sums_past_2_62():
    # not a projection: 1 - p has the entry 2^62, past the int64 storage bound
    p = RationalMatrix(np.array([[1 - 2**62]], dtype=np.int64))
    assert p._num.dtype == np.int64
    r = Realization(parse_graph("1;"), 1, METHOD_RANK_ONE, [p])
    rest = extend_outcomes(r, {0: 3}).pvms[0][1]
    assert rest._num.dtype == object
    assert rest.entry(0, 0) == 2**62
    assert rest == reference_extend_outcomes(r, {0: 3})[0][1]


def reference_direct_sum(graph) -> list:
    """One direct_sum of 2x2 blocks per vertex: the construction before the
    numerators were written into one stack, kept as the reference."""
    pairs = non_edges(graph).pairs
    if not pairs:
        return [RationalMatrix.zeros(1, 1)] * graph.vertex_count
    pin = RationalMatrix.from_rows([[1, 0], [0, 0]])
    tilt = RationalMatrix.from_rows([[HALF, HALF], [HALF, HALF]])
    zero = RationalMatrix.zeros(2, 2)
    return [
        direct_sum([pin if x == v else tilt if x == w else zero for v, w in pairs])
        for x in range(graph.vertex_count)
    ]


def reference_rank_one(graph) -> tuple[list, tuple]:
    n = graph.vertex_count
    pairs = non_edges(graph).pairs
    projections, vectors = [], []
    for x in range(n):
        vec = [1 if i == x else 0 for i in range(n)] + [1 if x in pair else 0 for pair in pairs]
        projections.append(RationalMatrix.outer(vec, vec, sum(vec)))
        vectors.append(tuple(Fraction(v) for v in vec))
    return projections, tuple(vectors)


def reference_make_faithful(r) -> list:
    n = r.graph.vertex_count
    out = []
    for x in range(n):
        private = np.zeros((n, n), dtype=np.int64)
        private[x, x] = 1
        out.append(direct_sum([r.projections[x], RationalMatrix(private)]))
    return out


def reference_extend_outcomes(r, counts) -> dict:
    d = r.space_dim
    offsets, at = {}, d
    for x in range(r.graph.vertex_count):
        offsets[x] = at
        at += counts[x] - 2
    dim = at

    def embed(p, diag_ones):
        appended = np.zeros((dim - d, dim - d), dtype=np.int64)
        for i in diag_ones:
            appended[i - d, i - d] = 1
        return direct_sum([p, RationalMatrix(appended)])

    eye = RationalMatrix.identity(d)
    pvms = {}
    for x in range(r.graph.vertex_count):
        own = range(offsets[x], offsets[x] + counts[x] - 2)
        foreign = [i for i in range(d, dim) if i not in own]
        elements = [embed(r.projections[x], ()), embed(eye - r.projections[x], foreign)]
        for i in own:
            num = np.zeros((dim, dim), dtype=np.int64)
            num[i, i] = 1
            elements.append(RationalMatrix(num, 1))
        pvms[x] = elements
    return pvms


def same_family(got, want) -> bool:
    return len(got) == len(want) and all(
        a == b and a._num.dtype == b._num.dtype for a, b in zip(got, want)
    )


class TestConstructionParity:
    """The stacked constructions against their per-block references: equal
    matrices, stored alike."""

    @staticmethod
    def check(g, code):
        ds = realize_direct_sum(g)
        assert same_family(ds.projections, reference_direct_sum(g))
        r1 = realize_rank_one(g)
        projections, vectors = reference_rank_one(g)
        assert same_family(r1.projections, projections)
        assert r1.vectors == vectors
        for base in (ds, r1):
            faithful = make_faithful(base)
            assert same_family(faithful.projections, reference_make_faithful(base))
            counts = {x: 2 + (code // 3**x) % 3 for x in range(g.vertex_count)}
            pv = extend_outcomes(base, counts)
            reference = reference_extend_outcomes(base, counts)
            assert all(same_family(pv.pvms[x], reference[x]) for x in range(g.vertex_count))

    def test_all_graphs_up_to_four_vertices(self):
        for n in range(5):
            for k, g in enumerate(all_graphs(n)):
                self.check(g, 7 * k + n)

    @settings(max_examples=40, deadline=None)
    @given(graphs_strategy(7), st.integers(0, 3**7 - 1))
    def test_random_graphs(self, g, code):
        self.check(g, code)


class TestVerifyChecksStructure:
    def test_fork_with_non_projections_rejected(self):
        ones = RationalMatrix.from_rows([[1, 1], [1, 1]])
        ops = [RationalMatrix.identity(2) * 2, RationalMatrix.from_rows([[1, 0], [0, 0]]), ones]
        r = Realization(FORK, 2, METHOD_DIRECT_SUM, ops)
        with pytest.raises(InputError, match="vertex 0: element 0 is not a projection"):
            verify_realization(FORK, r)
        r = Realization(FORK, 2, METHOD_DIRECT_SUM, [RationalMatrix.identity(2), *ops[1:]])
        with pytest.raises(InputError, match="vertex 2: element 0 is not a projection"):
            verify_realization(FORK, r)

    def test_asymmetric_idempotent_rejected(self):
        oblique = RationalMatrix.from_rows([[1, 1], [0, 0]])
        assert oblique @ oblique == oblique
        r = Realization(parse_graph("1;"), 2, METHOD_DIRECT_SUM, [oblique])
        with pytest.raises(InputError, match="not a projection"):
            verify_realization(parse_graph("1;"), r)

    def test_pvm_structure_messages(self):
        pin = RationalMatrix.from_rows([[1, 0], [0, 0]])
        eye = RationalMatrix.identity(2)
        cases = {
            "element 1 is not a projection": [pin, (eye - pin) * 2],
            "elements are not orthogonal": [pin, pin, eye - pin],
            "elements do not sum to the identity": [pin],
        }
        g = parse_graph("1;")
        for message, family in cases.items():
            with pytest.raises(InputError, match=f"vertex 0: {message}"):
                verify_realization(g, PvmRealization(g, 2, [family]))

    def test_restricted_checked_within_tol(self):
        rr = restrict_to_span(realize_rank_one(FORK))
        assert verify_realization(FORK, rr).passed
        bent = list(rr.projections)
        bent[1] = bent[1] * 1.001  # Hermitian, no longer idempotent
        with pytest.raises(InputError, match="vertex 1: element 0 is not a projection"):
            verify_realization(FORK, Realization(FORK, rr.space_dim, rr.method, bent))
        skew = list(rr.projections)
        skew[2] = skew[2] + 1e-6j * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        with pytest.raises(InputError, match="vertex 2: element 0 is not a projection"):
            verify_realization(FORK, Realization(FORK, rr.space_dim, rr.method, skew))

    def test_mixed_regimes_rejected(self):
        r = realize_rank_one(FORK)
        mixed = list(r.projections)
        mixed[0] = mixed[0].to_ndarray().astype(complex)
        with pytest.raises(InputError, match="method 'rank_one' needs rational matrices"):
            Realization(FORK, r.space_dim, r.method, mixed)


def float_check_outcome(run):
    """The norms dict `run` returns, or the text of the InputError it raises."""
    try:
        return run()
    except InputError as exc:
        return str(exc)


class TestStackedFloatCheck:
    """The span-restricted check, one stacked commutator per chunk of pairs,
    against the per-pair loop (tests/helpers.py)."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        graphs_strategy(max_n=9),
        st.sampled_from([None, 0.5, 2.0, math.nan, math.inf]),
        st.integers(0, 2**20),
        st.booleans(),
    )
    @example(FORK, math.nan, 0, False)
    @example(graph_from_mask(9, 0), 2.0, 12345, True)
    def test_matches_per_pair_reference(self, graph, shift, where, imaginary):
        # shift: none, one entry moved by tol / 2 or by 2 tol, a NaN or an inf entry
        rr = restrict_to_span(realize_rank_one(graph))
        n, d = graph.vertex_count, rr.space_dim
        ops = [p.copy() for p in rr.projections]
        if shift is not None and n:
            x, i, j = where % n, where // n % d, where // (n * d) % d
            ops[x][i, j] += shift * DEFAULT_TOL * (1j if imaginary else 1)
        stack = np.array(ops, dtype=complex).reshape(n, d, d)
        got = float_check_outcome(lambda: realize._float_commutator_norms(stack, DEFAULT_TOL))
        want = float_check_outcome(lambda: per_pair_commutator_norms(ops, DEFAULT_TOL))
        assert got == want
        if isinstance(want, dict):
            assert list(got) == list(want)  # violations are listed in this order
            assert all(type(norm) is float for norm in got.values())

    @staticmethod
    def commutator_calls(monkeypatch, graph) -> tuple[list, int]:
        """The stack shapes of each `commutator` call of one restricted
        verify, and the space dimension."""
        calls = []

        def counted(a, b):
            calls.append(a.shape)
            return commutator(a, b)

        rr = restrict_to_span(realize_rank_one(graph))
        monkeypatch.setattr(realize, "commutator", counted)
        assert verify_realization(graph, rr).passed
        return calls, rr.space_dim

    @pytest.mark.parametrize(
        "graph", [FORK, parse_graph("11;"), parse_graph("1;")], ids=["fork", "edgeless-11", "one"]
    )
    def test_one_commutator_call_per_verify(self, monkeypatch, graph):
        calls, d = self.commutator_calls(monkeypatch, graph)
        pairs = graph.vertex_count * (graph.vertex_count - 1) // 2
        assert calls == ([(pairs, d, d)] if pairs else [])

    def test_larger_checks_run_in_chunks(self, monkeypatch):
        calls, d = self.commutator_calls(monkeypatch, golden_large_graph())
        step = realize._CHUNK_BYTES // (16 * d * d)
        assert len(calls) > 1 and sum(k for k, _, _ in calls) == 120
        assert all(shape == (step, d, d) for shape in calls[:-1])

    @pytest.mark.parametrize("chunk", [1, 2**12, realize._CHUNK_BYTES])
    def test_chunks_give_the_same_norms(self, monkeypatch, chunk):
        rr = restrict_to_span(realize_rank_one(golden_large_graph()))
        want = per_pair_commutator_norms(rr.projections, DEFAULT_TOL)
        monkeypatch.setattr(realize, "_CHUNK_BYTES", chunk)
        got = realize._float_commutator_norms(np.array(rr.projections), DEFAULT_TOL)
        assert list(got.items()) == list(want.items())


PIN = RationalMatrix.from_rows([[1, 0], [0, 0]])
FLOAT_PIN = PIN.to_ndarray().astype(complex)

# a realization of the fork (three vertices) that is wrong in one field, and
# the error it raises when it is built
MALFORMED = {
    "missing vertex": (
        lambda: Realization(FORK, 2, METHOD_DIRECT_SUM, [PIN, PIN]),
        "projections must list one matrix per vertex",
    ),
    "missing pvm vertex": (
        lambda: PvmRealization(FORK, 2, [[PIN], [PIN]]),
        "pvms must list one family per vertex",
    ),
    "wrong shape": (
        lambda: Realization(FORK, 3, METHOD_DIRECT_SUM, [PIN] * 3),
        r"vertex 0: matrix shape \(2, 2\) != space_dim 3",
    ),
    "wrong pvm shape": (
        lambda: PvmRealization(FORK, 2, [[PIN], [PIN], [PIN, RationalMatrix.zeros(3, 3)]]),
        r"vertex 2: matrix shape \(3, 3\) != space_dim 2",
    ),
    "float in exact method": (
        lambda: Realization(FORK, 2, METHOD_DIRECT_SUM, [PIN, PIN, FLOAT_PIN]),
        "method 'direct_sum' needs rational matrices",
    ),
    "rational in restricted method": (
        lambda: Realization(FORK, 2, METHOD_RANK_ONE_RESTRICTED, [FLOAT_PIN, PIN, FLOAT_PIN]),
        "method 'rank_one_restricted' needs complex matrices",
    ),
    "real float in restricted method": (
        lambda: Realization(FORK, 2, METHOD_RANK_ONE_RESTRICTED, [PIN.to_ndarray()] * 3),
        "method 'rank_one_restricted' needs complex matrices",
    ),
    "float in pvm": (
        lambda: PvmRealization(FORK, 2, [[PIN], [PIN], [FLOAT_PIN]]),
        "pvm realizations are exact: rational matrices expected",
    ),
    "empty family": (
        lambda: PvmRealization(FORK, 2, [[PIN], [], [PIN]]),
        "vertex 1: empty observable",
    ),
    "negative space_dim": (
        lambda: Realization(FORK, -1, METHOD_DIRECT_SUM, [PIN] * 3),
        "space_dim must be a nonnegative integer",
    ),
    "boolean space_dim": (
        lambda: PvmRealization(parse_graph("1;"), True, [[RationalMatrix.identity(1)]]),
        "space_dim must be a nonnegative integer",
    ),
    "unknown method": (
        lambda: Realization(FORK, 2, "mystery", [PIN] * 3),
        "unknown method 'mystery'",
    ),
    "missing vector": (
        lambda: Realization(FORK, 2, METHOD_RANK_ONE, [PIN] * 3, [(1, 0), (1, 0)]),
        "vectors must list one vector per vertex",
    ),
    "wrong vector length": (
        lambda: Realization(FORK, 2, METHOD_RANK_ONE, [PIN] * 3, [(1, 0), (1, 0), (1,)]),
        "vertex 2: vector length 1 != space_dim 2",
    ),
}


class TestCheckedWhenBuilt:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_rejected(self, case):
        build, message = MALFORMED[case]
        with pytest.raises(InputError, match=message):
            build()

    def test_fields_are_frozen_tuples(self):
        r = realize_rank_one(FORK)
        pv = lift_to_pvms(r)
        assert type(r.projections) is type(r.vectors) is type(pv.pvms) is tuple
        assert all(type(row) is tuple for row in r.vectors)
        assert all(type(family) is tuple for family in pv.pvms)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.space_dim = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            pv.pvms = ()

    @pytest.mark.parametrize(
        "operation",
        [
            make_faithful,
            lift_to_pvms,
            lambda r: extend_outcomes(r, {x: 3 for x in range(3)}),
            restrict_to_span,
            rank_one_gram,
        ],
        ids=["make_faithful", "lift_to_pvms", "extend_outcomes", "restrict_to_span", "rank_one_gram"],
    )
    def test_pvm_realization_rejected(self, operation):
        with pytest.raises(InputError):
            operation(lift_to_pvms(realize_rank_one(FORK)))


class TestPartitions:
    def test_d1(self):
        assert [p.blocks for p in enumerate_partitions(1)] == [((1,),)]

    def test_d2_order(self):
        assert [p.blocks for p in enumerate_partitions(2)] == [((1, 2),), ((1,), (2,))]

    def test_d3_count(self):
        assert len(enumerate_partitions(3)) == 5

    def test_blocks_partition_ground_set(self):
        for d in range(1, 7):
            for p in enumerate_partitions(d):
                flat = [x for block in p.blocks for x in block]
                assert sorted(flat) == list(range(1, d + 1))
                assert all(list(block) == sorted(block) for block in p.blocks)
                assert [b[0] for b in p.blocks] == sorted(b[0] for b in p.blocks)

    def test_counts_match_triangle_recurrence(self):
        bells = bell_numbers_by_triangle(8)
        assert [len(enumerate_partitions(d)) for d in range(1, 9)] == bells

    def test_guard(self):
        with pytest.raises(InputError, match="guard"):
            enumerate_partitions(11)


class TestLowerBoundGraph:
    @pytest.mark.parametrize("d,actions,controls", [(1, 2, 1), (2, 3, 2), (3, 6, 3)])
    def test_sizes(self, d, actions, controls):
        lb = lower_bound_graph(d)
        assert len(lb.action_vertices) == actions
        assert len(lb.control_vertices) == controls
        assert lb.graph.vertex_count == actions + controls
        assert lb.partition_count + 1 == actions

    def test_action_clique_and_control_independence(self):
        lb = lower_bound_graph(3)
        g = lb.graph
        for i in lb.action_vertices:
            for j in lb.action_vertices:
                assert g.adjacent(i, j)
        for i in lb.control_vertices:
            for j in lb.control_vertices:
                if i != j:
                    assert not g.adjacent(i, j)

    def test_distinct_control_neighborhoods(self):
        for d in (1, 2, 3):
            lb = lower_bound_graph(d)
            hoods = [
                frozenset(c for c in lb.control_vertices if lb.graph.adjacent(a, c))
                for a in lb.action_vertices
            ]
            assert len(set(hoods)) == len(hoods)

    def test_bitstrings_drive_adjacency(self):
        lb = lower_bound_graph(2)
        for a, bits in zip(lb.action_vertices, lb.bitstrings):
            for k, c in enumerate(lb.control_vertices):
                assert lb.graph.adjacent(a, c) == (bits[k] == "1")

    def test_guard(self):
        with pytest.raises(InputError):
            lower_bound_graph(0)
        with pytest.raises(InputError, match=r"d must be in 1\.\.7"):
            lower_bound_graph(8)
        with pytest.raises(InputError):
            lower_bound_graph(9)


class TestForkObstruction:
    def test_derivation(self):
        rep = fork_obstruction()
        assert rep.derivation_valid
        assert rep.forced_pair == (1, 2)
        assert any("p_y = 1 - p_x = p_z" in s for s in rep.steps)
        assert rep.cliques == ((0, 1), (0, 2))


class TestJsonFormats:
    def test_realization_round_trip(self):
        r = realize_rank_one(FORK)
        back = realization_from_json_obj(wire(realization_to_json_obj(r)))
        assert back.space_dim == r.space_dim
        assert back.method == r.method
        assert all(back.projections[x] == r.projections[x] for x in range(3))
        assert all(back.vectors[x] == r.vectors[x] for x in range(3))

    def test_restricted_round_trip(self):
        rr = restrict_to_span(realize_rank_one(FORK))
        back = realization_from_json_obj(wire(realization_to_json_obj(rr)))
        assert back.space_dim == rr.space_dim
        for x in range(3):
            assert np.allclose(back.projections[x], rr.projections[x])

    def test_pvm_realization_round_trip(self):
        pv = lift_to_pvms(realize_direct_sum(FORK))
        back = pvm_realization_from_json_obj(wire(pvm_realization_to_json_obj(pv)))
        assert back.space_dim == pv.space_dim
        assert all(back.pvms[x] == pv.pvms[x] for x in range(3))

    @pytest.mark.parametrize(
        "family, message",
        [
            ("x", "vertex 1: observable must be a list of matrices"),
            ({}, "vertex 1: observable must be a list of matrices"),
            ([], "vertex 1: empty observable"),
        ],
    )
    def test_pvm_family_shape_rejected(self, family, message):
        obj = wire(pvm_realization_to_json_obj(lift_to_pvms(realize_direct_sum(FORK))))
        obj["pvms"][1] = family
        with pytest.raises(InputError, match=message):
            pvm_realization_from_json_obj(obj)

    def test_wrong_vector_length_rejected(self):
        obj = wire(realization_to_json_obj(realize_rank_one(parse_graph("3; 0-1"))))
        obj["vectors"][1] = obj["vectors"][1][:-1]
        with pytest.raises(InputError, match="vertex 1: vector length 4 != space_dim 5"):
            realization_from_json_obj(obj)
        # the same vectors as the Raw of their text, as the writer leaves them
        obj["vectors"] = Raw(dumps(obj["vectors"]))
        with pytest.raises(InputError, match="vertex 1: vector length 4 != space_dim 5$"):
            realization_from_json_obj(obj)

    @pytest.mark.parametrize(
        "graph",
        [FORK, parse_graph("4; 0-1, 1-2, 2-3, 0-3"), graph_with_non_edges(16, 30)],
        ids=["fork", "cycle4", "seeded-16"],
    )
    def test_rank_one_round_trip_in_process(self, graph):
        # the writer's object, its vectors a Raw, read back without a file
        r = realize_rank_one(graph)
        assert realization_from_json_obj(realization_to_json_obj(r)) == r

    def test_bad_method_rejected(self):
        obj = wire(realization_to_json_obj(realize_direct_sum(FORK)))
        obj["method"] = "mystery"
        with pytest.raises(InputError, match="method"):
            realization_from_json_obj(obj)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.lists(
                st.lists(wide_fractions(), min_size=dim, max_size=dim).filter(any), min_size=1, max_size=3
            )
        )
    )
    @example(
        [[Fraction(2**70, 7), Fraction(-5, 6), Fraction(3, 2**65)], [Fraction(0), Fraction(1), Fraction(-1)]]
    )
    def test_vectors_share_the_matrix_codec(self, rows):
        n, dim = len(rows), len(rows[0])
        vecs = tuple(map(tuple, rows))
        projections = [rank_one_projection(v) for v in vecs]
        r = Realization(parse_graph(f"{n};"), dim, METHOD_RANK_ONE, projections, vecs)
        obj = realization_to_json_obj(r)
        # each component in lowest terms, as Fraction formats it
        expected = [[f"{c.numerator}/{c.denominator}" for c in row] for row in rows]
        assert dumps(obj["vectors"]) == reference_dumps(expected)
        assert realization_from_json_obj(wire(obj)).vectors == vecs
        gram = [[sum((a * b for a, b in zip(u, v)), Fraction(0)) for v in rows] for u in rows]
        assert rank_one_gram(r).to_fractions() == gram

    @pytest.mark.parametrize("graph", [fork_graph(), lower_bound_graph(2).graph])
    def test_built_in_graphs_round_trip(self, graph):
        assert graph_from_json_obj(graph_to_json_obj(graph)) == graph


def wide_fractions():
    """Negative, zero and small values, numerators of 2^62 and more, and
    denominators of 2^64 and more."""
    nums = st.one_of(st.integers(-9, 9), st.integers(2**62, 2**80), st.integers(-(2**80), -(2**62)))
    dens = st.one_of(st.integers(1, 12), st.integers(2**64, 2**70))
    return st.builds(Fraction, nums, dens)
