"""Non-repetitive families: path oracles, ceilings, traces, roundtrips."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor.engine import EngineInput, PartialColoring, RunStatus, run
from recolor.families import nonrepetitive_edge_family, nonrepetitive_vertex_family
from recolor.families.base import arms
from recolor.graphs import Graph

from _util import assert_roundtrip, path_graph, random_graph

P4 = path_graph(4)
P5 = path_graph(5)


def by_rank(g):
    """Sort key reading a row of vertices in the graph's vertex order."""
    return lambda row: [g.rank[x] for x in row]


def brute_vertex_paths(g, length):
    """All simple paths on `length` vertices, each in its order-smaller
    orientation, by permutation scan."""
    key = by_rank(g)
    paths = set()
    for perm in permutations(range(1, g.n + 1), length):
        if all(g.has_edge(perm[i], perm[i + 1]) for i in range(length - 1)):
            paths.add(min(perm, perm[::-1], key=key))
    return paths


def brute_edge_paths(g, length):
    eid = g.edge_index
    rows = set()
    for vseq in brute_vertex_paths(g, length + 1):
        row = tuple(eid[(min(x, y), max(x, y))] for x, y in zip(vseq, vseq[1:]))
        rows.add(min(row, row[::-1]))
    return rows


class TestVertexEnumeration:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_rows_match_permutation_scan(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(4, 9), 0.45, rng)
        fam = nonrepetitive_vertex_family(g)
        for length in (2, 4, 6):
            expected = brute_vertex_paths(g, length)
            for v in range(1, g.n + 1):
                rows, _ = fam.witness_rows(v, length // 2)
                assert list(rows) == sorted(p for p in expected if v in p)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_rows_match_permutation_scan_in_a_shuffled_order(self, seed):
        """Rows are oriented and sorted by the vertex order, not by index."""
        rng = random.Random(seed)
        n = rng.randint(4, 9)
        g = Graph(n, random_graph(n, 0.45, rng).edges,
                  order=rng.sample(range(1, n + 1), n))
        fam = nonrepetitive_vertex_family(g)
        key = by_rank(g)
        for length in (2, 4, 6):
            expected = brute_vertex_paths(g, length)
            for v in range(1, n + 1):
                rows, _ = fam.witness_rows(v, length // 2)
                assert list(rows) == sorted((p for p in expected if v in p),
                                            key=key)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_counts_stay_under_ceilings(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(4, 12), rng.uniform(0.15, 0.45), rng)
        if g.max_degree < 1:
            return
        fam = nonrepetitive_vertex_family(g)
        for meta in fam.metas[:3]:
            j = meta.type_id
            for v in range(1, g.n + 1):
                assert len(fam.witness_rows(v, j)[0]) \
                    <= j * g.max_degree ** (2 * j - 1)

    def test_path_graph_rows(self):
        fam = nonrepetitive_vertex_family(P5)
        assert fam.witness_rows(3, 1)[0] == ((2, 3), (3, 4))
        assert fam.witness_rows(3, 2)[0] == ((1, 2, 3, 4), (2, 3, 4, 5))
        assert fam.witness_rows(1, 2)[0] == ((1, 2, 3, 4),)


def test_arms_refuse_a_negative_step_count():
    """A negative count is refused before any step: unguarded, it walked
    every simple path of K9 and yielded nothing.  Zero steps is one empty
    arm."""
    k9 = Graph(9, combinations(range(1, 10), 2))
    used = {1}
    with pytest.raises(ValueError, match="-1 steps"):
        list(arms(k9.adj, k9.adj, 1, -1, used))
    with pytest.raises(ValueError):
        next(arms(None, None, 1, -2, used))  # no adjacency is read
    assert used == {1}
    assert list(arms(k9.adj, k9.adj, 1, 0, used)) == [()]


class TestEdgeEnumeration:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_rows_match_permutation_scan(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(4, 9), 0.45, rng)
        if g.m == 0:
            return
        fam = nonrepetitive_edge_family(g)
        for length in (2, 4):
            expected = brute_edge_paths(g, length)
            for e in range(1, g.m + 1):
                rows, _ = fam.witness_rows(e, length // 2)
                assert list(rows) == sorted(r for r in expected if e in r)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_counts_stay_under_ceilings(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(4, 12), rng.uniform(0.15, 0.45), rng)
        if g.m == 0:
            return
        fam = nonrepetitive_edge_family(g)
        for meta in fam.metas[:3]:
            j = meta.type_id
            for e in range(1, g.m + 1):
                assert len(fam.witness_rows(e, j)[0]) \
                    <= 2 * j * g.max_degree ** (2 * j - 1)

    def test_star_center_edges_share_no_path_of_two_edges_twice(self):
        g = Graph(4, [(1, 2), (1, 3), (1, 4)])
        fam = nonrepetitive_edge_family(g)
        assert fam.witness_rows(1, 1)[0] == ((1, 2), (1, 3))
        assert fam.witness_rows(1, 2)[0] == ()


class TestVertexFamilyRuns:
    def test_alternating_path_fires_block_repetition(self):
        fam = nonrepetitive_vertex_family(P4)
        res = assert_roundtrip(P4, fam, EngineInput(kappa=2, vector=(1, 2, 1, 2)))
        assert res.record.steps == (None, None, None, (2, 1))
        assert res.coloring.as_dict() == {1: 1, 2: 2}
        assert res.status is RunStatus.BUDGET_EXHAUSTED

    def test_adjacent_equal_pair_is_the_level_one_event(self):
        fam = nonrepetitive_vertex_family(P4)
        res = assert_roundtrip(P4, fam, EngineInput(kappa=3, vector=(1, 1, 2, 1, 3)))
        assert res.record.steps == (None, (1, 1), None, None, None)
        assert res.status is RunStatus.COMPLETED
        assert res.coloring.as_dict() == {1: 1, 2: 2, 3: 1, 4: 3}

    def test_uncolored_half_is_the_one_containing_the_anchor(self):
        fam = nonrepetitive_vertex_family(P5)
        assert fam.uncolor_set(2, 4, frozenset({1, 2, 3, 4}), 1) == (3, 4)
        assert fam.uncolor_set(2, 1, frozenset({1, 2, 3, 4}), 1) == (1, 2)

    def test_rebuild_mirrors_the_surviving_half(self):
        fam = nonrepetitive_vertex_family(P5)
        after = PartialColoring(5)
        after.assign(1, 3)
        after.assign(2, 7)
        assert fam.rebuild_event(2, 4, frozenset({1, 2, 3, 4}), 1, after) == {3: 3, 4: 7}

    def test_three_colors_complete_the_path(self):
        g = path_graph(7)
        fam = nonrepetitive_vertex_family(g)
        res = run(g, fam, EngineInput(kappa=3, seed=11, budget=400))
        assert res.status is RunStatus.COMPLETED

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_fuzz(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(2, 12), 0.25, rng)
        fam = nonrepetitive_vertex_family(g)
        assert_roundtrip(g, fam, EngineInput(
            kappa=rng.randint(1, 5), seed=seed, budget=rng.randint(0, 150)))


class TestEdgeFamilyRuns:
    def test_alternating_edge_path_fires_block_repetition(self):
        fam = nonrepetitive_edge_family(P5)
        res = assert_roundtrip(P5, fam, EngineInput(kappa=2, vector=(1, 2, 1, 2)))
        assert res.record.steps == (None, None, None, (2, 1))
        assert res.coloring.as_dict() == {1: 1, 2: 2}

    def test_meta_costs(self):
        fam = nonrepetitive_edge_family(P5)
        assert [(m.type_id, m.cost, m.uncolor_size) for m in fam.metas] == \
            [(1, 4.0, 1), (2, 32.0, 2)]
        vfam = nonrepetitive_vertex_family(P4)
        assert [(m.type_id, m.cost, m.uncolor_size) for m in vfam.metas] == \
            [(1, 2.0, 1), (2, 16.0, 2)]

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_fuzz(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(2, 10), 0.25, rng)
        if g.m == 0:
            return
        fam = nonrepetitive_edge_family(g)
        assert_roundtrip(g, fam, EngineInput(
            kappa=rng.randint(1, 5), seed=seed, budget=rng.randint(0, 150)))
