import hashlib
import random
from math import floor

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
    random_graph,
    reference_special,
)
import recolor.graphs
from recolor.graphs import (
    MAX_FILE_VERTICES,
    Graph,
    GraphFormatError,
    load_graph,
    special_sets,
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
        S = special_sets(g, 0.5)
        assert S[1] == ()

    def test_c4_half_alpha(self):
        g = load_graph(C4_TEXT)
        S = special_sets(g, 0.5)
        # floor(0.5 * 2^(4/3)) = floor(1.2599) = 1
        assert floor(0.5 * g.max_degree ** (4 / 3)) == 1
        assert S[1] == (3,)

    def test_k23_degree_three_vertex(self):
        g = Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
        S = special_sets(g, 0.5)
        assert floor(0.5 * g.max_degree ** (4 / 3)) == 2
        assert S[1] == (2,)
        assert common_degree(g, 1, 2) == 3

    def test_asymmetric_pair_witness(self):
        g = Graph(7, ASYMMETRY_EDGES)
        S = special_sets(g, 0.5)
        assert 3 in S[1]
        assert 1 not in S[3]
        assert S[3] == (7, 6)

    def test_alpha_range(self):
        g = load_graph(K3_TEXT)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\], got 0.0"):
            special_sets(g, 0.0)

    @given(graphs(max_n=10))
    def test_size_law(self, g):
        S, cap = special_sets(g, 0.5), floor(0.5 * g.max_degree ** (4 / 3))
        # laid out as g.adj: one entry per vertex, index 0 empty
        assert len(S) == len(g.adj) and S[0] == ()
        for v in range(1, g.n + 1):
            assert len(S[v]) == min(cap, len(neighbors2(g, v)))

    @given(graphs(min_n=4, max_n=16, max_p=0.7), st.sampled_from((0.1, 0.5, 1.0)),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_the_intersection_reference(self, g, alpha, seed):
        # shuffled vertex orders make the order tie-break matter
        order = list(range(1, g.n + 1))
        random.Random(seed).shuffle(order)
        g = Graph(g.n, g.edges, order=order)
        S, cap = special_sets(g, alpha), floor(alpha * g.max_degree ** (4 / 3))
        for v in range(1, g.n + 1):
            assert S[v] == reference_special(g, cap, v), (v, alpha)

    @given(graphs(max_n=10))
    def test_members_dominate_outsiders(self, g):
        # every member of S(v) has a common-neighbor count at least as large
        # as every distance-2 vertex left out
        S = special_sets(g, 0.5)
        for v in range(1, g.n + 1):
            inside = S[v]
            outside = [u for u in neighbors2(g, v) if u not in inside]
            if inside and outside:
                assert min(common_degree(g, v, u) for u in inside) >= max(
                    common_degree(g, v, u) for u in outside
                )


def test_special_sets_match_their_pinned_digest():
    """S(v) for every v, in order, over 48 seeded random graphs (1 to 56
    vertices, shuffled vertex orders, so the order tie-break matters) at
    four alphas, hashed together.  Every alpha cuts some S(v) short of
    its distance-2 set; pinned before S(v) became a plain table."""
    rng = random.Random(20261020)
    h = hashlib.sha256()
    for _ in range(48):
        g = random_graph(rng.randint(1, 56), rng.uniform(0.02, 0.9), rng)
        order = list(range(1, g.n + 1))
        rng.shuffle(order)
        g = Graph(g.n, g.edges, order=order)
        for alpha in (0.01, 0.25, 0.5, 1.0):
            h.update(repr(special_sets(g, alpha)[1:]).encode() + b"\n")
    assert h.hexdigest() == \
        "598d7a5609bdd7072a1a12ab35c6d6288dcd21ebba16ce01a7a02656f2970069"


class TestEdgeIndexing:
    def test_sorted_one_based(self):
        g = load_graph(C4_TEXT)
        assert g.endpoints(1) == (1, 2)
        assert g.edge_index[(3, 4)] == 4

    @given(graphs())
    def test_index_roundtrip(self, g):
        for e, i in g.edge_index.items():
            assert g.endpoints(i) == e
