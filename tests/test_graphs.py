import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmg.errors import InputError
from jmg.graphs import (
    Graph,
    Hypergraph,
    graph_from_json_obj,
    graph_to_json_obj,
    hollow_triangle,
    induced_hypergraph,
    is_graph_induced,
    maximal_cliques,
    non_edges,
    parse_graph,
    serialize_graph,
)

from helpers import all_graphs, brute_force_maximal_cliques, graph_from_mask

FORK = parse_graph("3; 0-1, 0-2")


def graphs_strategy(max_n=6):
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    ).map(lambda t: graph_from_mask(*t))


class TestParse:
    def test_fork(self):
        g = parse_graph("3; 0-1, 0-2")
        assert g.vertex_count == 3
        assert g.edges == frozenset({(0, 1), (0, 2)})

    def test_empty_edge_list(self):
        g = parse_graph("2;")
        assert g.vertex_count == 2
        assert not g.edges
        assert non_edges(g).count == 1

    def test_whitespace_insignificant(self):
        assert parse_graph(" 3 ;  2-0 ,1 - 0 ") == parse_graph("3; 0-1, 0-2")

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="self-loop"):
            parse_graph("3; 0-0")

    def test_missing_semicolon(self):
        with pytest.raises(InputError, match="';'"):
            parse_graph("3 0-1")

    def test_bad_edge_reports_position(self):
        with pytest.raises(InputError, match="position"):
            parse_graph("3; 0-1, 0+2")

    def test_out_of_range_vertex(self):
        with pytest.raises(InputError, match="outside"):
            parse_graph("3; 0-5")

    def test_bad_vertex_count(self):
        with pytest.raises(InputError, match="vertex count"):
            parse_graph("x; 0-1")

    @pytest.mark.parametrize(
        "text", ["1_0; 0-1", "+3; 0-1", "\u0663; \u0660-\u0661", "3; 0-\u0662", "3; 0_0-1"]
    )
    def test_numbers_are_ascii_digits(self, text):
        with pytest.raises(InputError, match="bad (vertex count|edge)"):
            parse_graph(text)

    @settings(max_examples=150, deadline=None)
    @given(graphs_strategy())
    def test_parse_serialize_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    @settings(max_examples=100, deadline=None)
    @given(graphs_strategy())
    def test_json_round_trip(self, g):
        assert graph_from_json_obj(graph_to_json_obj(g)) == g


class TestGraph:
    def test_reflexive_adjacency_not_stored(self):
        g = parse_graph("2;")
        assert g.adjacent(0, 0)
        assert not g.edges

    def test_self_loop_construction_rejected(self):
        with pytest.raises(InputError):
            Graph(2, frozenset({(1, 1)}))

    def test_edge_normalization(self):
        assert Graph(3, frozenset({(2, 0)})).edges == frozenset({(0, 2)})

    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_vertex_indices_are_counts(self, bad):
        with pytest.raises(InputError, match="^edge vertex must be a nonnegative integer$"):
            Graph(3, frozenset({(0, bad)}))
        with pytest.raises(InputError, match="^hyperedge vertex must be a nonnegative integer$"):
            Hypergraph(3, frozenset({frozenset({bad, 2})}))

    @pytest.mark.parametrize("v, w", [(True, 0), (1.5, 1.5), ("1", 0), (-1, 0), (0, 3)])
    def test_adjacent_checks_indices(self, v, w):
        with pytest.raises(InputError, match="vertex"):
            Graph(3, frozenset({(0, 1)})).adjacent(v, w)

    @settings(max_examples=150, deadline=None)
    @given(graphs_strategy())
    def test_edge_nonedge_partition(self, g):
        n = g.vertex_count
        assert len(g.edges) + non_edges(g).count == n * (n - 1) // 2


class TestNonEdges:
    def test_fork(self):
        assert non_edges(FORK).pairs == ((1, 2),)

    def test_triangle(self):
        assert non_edges(parse_graph("3; 0-1, 0-2, 1-2")).pairs == ()

    def test_edgeless_saturates(self):
        ne = non_edges(parse_graph("4;"))
        assert ne.count == 6 == 4 * 3 // 2

    def test_lexicographic_order(self):
        pairs = non_edges(parse_graph("4;")).pairs
        assert list(pairs) == sorted(pairs)


class TestMaximalCliques:
    def test_triangle(self):
        assert maximal_cliques(parse_graph("3; 0-1, 0-2, 1-2")) == ((0, 1, 2),)

    def test_fork(self):
        assert maximal_cliques(FORK) == ((0, 1), (0, 2))

    def test_edgeless(self):
        assert maximal_cliques(parse_graph("3;")) == ((0,), (1,), (2,))

    def test_exhaustive_against_brute_force(self):
        for n in range(6):
            for g in all_graphs(n):
                ours = {frozenset(c) for c in maximal_cliques(g)}
                assert ours == brute_force_maximal_cliques(g)

    @settings(max_examples=100, deadline=None)
    @given(graphs_strategy())
    def test_maximality_by_one_vertex_extension(self, g):
        for clique in maximal_cliques(g):
            cset = set(clique)
            assert all(g.adjacent(a, b) for a in clique for b in clique)
            for v in range(g.vertex_count):
                if v not in cset:
                    assert not all(g.adjacent(v, u) for u in clique)

    @settings(max_examples=100, deadline=None)
    @given(graphs_strategy())
    def test_cliques_cover_vertices(self, g):
        covered = set().union(*(set(c) for c in maximal_cliques(g))) if g.vertex_count else set()
        assert covered == set(range(g.vertex_count))


class TestHypergraph:
    def test_induced_triangle(self):
        h = induced_hypergraph(parse_graph("3; 0-1, 0-2, 1-2"))
        assert h.downward_closed
        assert h.hyperedges == frozenset({frozenset({0, 1, 2})})
        assert h.has_hyperedge({0, 1})
        assert not h.has_hyperedge(())

    def test_induced_fork(self):
        h = induced_hypergraph(FORK)
        assert h.hyperedges == frozenset({frozenset({0, 1}), frozenset({0, 2})})
        assert not h.has_hyperedge({1, 2})

    @pytest.mark.parametrize("vertices", [(0.7, 1.2), (True, 1), (0, -1), (0, 3)])
    def test_has_hyperedge_checks_indices(self, vertices):
        with pytest.raises(InputError, match="hyperedge vertex"):
            hollow_triangle().has_hyperedge(vertices)

    def test_hollow_triangle_not_induced(self):
        assert not is_graph_induced(hollow_triangle())

    def test_no_three_vertex_graph_induces_hollow_triangle(self):
        hollow = hollow_triangle().hyperedges
        for g in all_graphs(3):
            assert induced_hypergraph(g).hyperedges != hollow

    def test_triangle_hypergraph_induced(self):
        assert is_graph_induced(induced_hypergraph(parse_graph("3; 0-1, 0-2, 1-2")))

    def test_missing_singleton_blocks_inducedness(self):
        h = Hypergraph(2, frozenset({frozenset({0})}), downward_closed=True)
        assert not is_graph_induced(h)

    def test_literal_family_must_be_closed(self):
        h = Hypergraph(3, frozenset({frozenset({0, 1})}), downward_closed=False)
        with pytest.raises(InputError, match="downward-closed"):
            is_graph_induced(h)

    def test_empty_hyperedge_rejected(self):
        with pytest.raises(InputError, match="empty hyperedge"):
            Hypergraph(2, frozenset({frozenset()}))

    @settings(max_examples=100, deadline=None)
    @given(graphs_strategy())
    def test_induced_hypergraph_is_graph_induced(self, g):
        assert is_graph_induced(induced_hypergraph(g))
