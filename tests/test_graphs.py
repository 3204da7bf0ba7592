import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _util import (
    ASYMMETRY_EDGES,
    C4_TEXT,
    K3_TEXT,
    PETERSEN_EDGES,
    STAR5_TEXT,
    common_degree,
    graphs,
    neighbors2,
    reference_special,
)
import recolor.graphs
from recolor.graphs import (
    MAX_FILE_VERTICES,
    Graph,
    GraphFormatError,
    SpecialStructure,
    load_graph,
)
from recolor.planar import load_rotation


class TestLoadGraph:
    def test_triangle(self):
        g = load_graph(K3_TEXT)
        assert g.n == 3 and g.m == 3
        assert g.max_degree == 2
        assert g.adj[1] == (2, 3)

    def test_c4(self):
        g = load_graph(C4_TEXT)
        assert g.edges == ((1, 2), (1, 4), (2, 3), (3, 4))
        assert neighbors2(g, 1) == [3]

    def test_star(self):
        g = load_graph(STAR5_TEXT)
        assert g.max_degree == 4
        assert neighbors2(g, 1) == []

    def test_comments_and_duplicates_collapse(self):
        g = load_graph("# a triangle\n3 4\n1 2\n2 3  # repeated below\n2 3\n1 3\n")
        assert g.m == 3

    def test_malformed_header(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            load_graph("3\n1 2\n")

    def test_header_vertex_cap_names_line(self, monkeypatch):
        text = f"# too many\n{MAX_FILE_VERTICES + 1} 0\n"
        with pytest.raises(GraphFormatError, match="line 2: header announces"):
            load_graph(text)
        with pytest.raises(GraphFormatError, match="line 2: header announces"):
            load_rotation(text)
        monkeypatch.setattr(recolor.graphs, "MAX_FILE_VERTICES", 3)
        assert load_graph("3 0\n").n == 3
        with pytest.raises(GraphFormatError, match="more than the 3"):
            load_graph("4 0\n")

    @pytest.mark.parametrize("header", ["-1 0", "3 -2"])
    def test_negative_header_count_names_line(self, header):
        for load in (load_graph, load_rotation):
            with pytest.raises(GraphFormatError,
                               match="line 1: negative count in header"):
                load(header + "\n")

    def test_vertex_out_of_range_names_line(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            load_graph("3 2\n1 2\n1 7\n")

    def test_loop_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="loop"):
            load_graph("2 1\n2 2\n")

    def test_order_line(self):
        g = load_graph("3 1\norder: 3 1 2\n1 2\n")
        assert g.order == (3, 1, 2)
        assert g.rank[3] < g.rank[1] < g.rank[2]

    def test_bad_order_line(self):
        with pytest.raises(GraphFormatError, match="permutation"):
            load_graph("3 1\norder: 1 1 2\n1 2\n")

    def test_bad_order_line_names_its_line(self):
        with pytest.raises(GraphFormatError,
                           match="line 3: order line is not a permutation"):
            load_graph("3 1\n1 2\norder: 1 2\n")

    def test_non_integer_order_line_names_its_line(self):
        with pytest.raises(GraphFormatError,
                           match="line 2: order line must list integers"):
            load_graph("3 1\norder: 3 x 2\n1 2\n")

    def test_second_order_line_refused(self):
        with pytest.raises(GraphFormatError, match="line 4: a second order line"):
            load_graph("3 1\norder: 3 1 2\n1 2\norder: 1 2 3\n")

    def test_text_roundtrip(self):
        g = load_graph(C4_TEXT)
        assert load_graph(g.to_text()) == g
        assert load_graph(g.to_text()).digest() == g.digest()


@pytest.mark.parametrize("n, edges, order, message", [
    (-1, [], None, "vertex count must be nonnegative"),
    (3, [(1, 4)], None, r"edge \(1,4\) out of range 1..3"),
    (3, [(0, 2)], None, r"edge \(0,2\) out of range 1..3"),
    (3, [(2, 2)], None, "loop edge at vertex 2"),
    (3, [(1, 2)], (1, 1, 2), "order line is not a permutation of 1..n"),
    (3, [(1, 2)], (1, 2), "order line is not a permutation of 1..n"),
], ids=["negative-n", "edge-past-n", "edge-at-0", "loop", "repeat", "short"])
def test_graph_refuses_what_the_parser_refuses(n, edges, order, message):
    """`Graph(...)` in code checks what `load_graph` checks line by line."""
    with pytest.raises(GraphFormatError, match=message):
        Graph(n, edges, order=order)


class TestNeighbors2:
    def test_petersen_distance_two_is_nonadjacency(self):
        g = Graph(10, PETERSEN_EDGES)
        for v in range(1, 11):
            # diameter 2: every vertex neither v nor adjacent to it
            expect = [u for u in range(1, 11) if u != v and not g.has_edge(u, v)]
            assert neighbors2(g, v) == expect
            assert len(expect) == 6

    @given(graphs())
    def test_disjoint_from_closed_neighborhood(self, g):
        for v in range(1, g.n + 1):
            n2 = neighbors2(g, v)
            assert v not in n2
            assert not set(n2) & g.nbr[v]

    @given(graphs(max_n=9))
    def test_common_degree_symmetric(self, g):
        for u in range(1, g.n + 1):
            for v in neighbors2(g, u):
                assert common_degree(g, u, v) == common_degree(g, v, u)


class TestSpecialStructure:
    def test_star_center_has_empty_set(self):
        g = load_graph(STAR5_TEXT)
        ss = SpecialStructure(g, 0.5)
        assert ss.special(1) == ()

    def test_c4_half_alpha(self):
        g = load_graph(C4_TEXT)
        ss = SpecialStructure(g, 0.5)
        # floor(0.5 * 2^(4/3)) = floor(1.2599) = 1
        assert ss.cap == 1
        assert ss.special(1) == (3,)

    def test_k23_degree_three_vertex(self):
        g = Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
        ss = SpecialStructure(g, 0.5)
        assert ss.cap == 2
        assert ss.special(1) == (2,)
        assert common_degree(g, 1, 2) == 3

    def test_asymmetric_pair_witness(self):
        g = Graph(7, ASYMMETRY_EDGES)
        ss = SpecialStructure(g, 0.5)
        assert ss.is_special(1, 3)
        assert not ss.is_special(3, 1)
        assert ss.special(3) == (7, 6)

    def test_alpha_range(self):
        g = load_graph(K3_TEXT)
        with pytest.raises(ValueError):
            SpecialStructure(g, 0.0)

    @given(graphs(max_n=10))
    def test_size_law(self, g):
        ss = SpecialStructure(g, 0.5)
        for v in range(1, g.n + 1):
            assert len(ss.special(v)) == min(ss.cap, len(neighbors2(g, v)))

    @given(graphs(min_n=4, max_n=16, max_p=0.7), st.sampled_from((0.1, 0.5, 1.0)),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_the_intersection_reference(self, g, alpha, seed):
        # shuffled vertex orders make the order tie-break matter
        order = list(range(1, g.n + 1))
        random.Random(seed).shuffle(order)
        g = Graph(g.n, g.edges, order=order)
        ss = SpecialStructure(g, alpha)
        for v in range(1, g.n + 1):
            assert ss.special(v) == reference_special(g, ss.cap, v), (v, alpha)

    @given(graphs(max_n=10))
    def test_members_dominate_outsiders(self, g):
        # every member of S(v) has a common-neighbor count at least as large
        # as every distance-2 vertex left out
        ss = SpecialStructure(g, 0.5)
        for v in range(1, g.n + 1):
            inside = ss.special(v)
            outside = [u for u in neighbors2(g, v) if u not in inside]
            if inside and outside:
                assert min(common_degree(g, v, u) for u in inside) >= max(
                    common_degree(g, v, u) for u in outside
                )


class TestEdgeIndexing:
    def test_sorted_one_based(self):
        g = load_graph(C4_TEXT)
        assert g.endpoints(1) == (1, 2)
        assert g.edge_index[(3, 4)] == 4

    @given(graphs())
    def test_index_roundtrip(self, g):
        for e, i in g.edge_index.items():
            assert g.endpoints(i) == e
