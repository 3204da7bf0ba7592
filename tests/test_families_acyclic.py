"""Acyclic families: witness enumeration oracles, ceilings, traces, roundtrips.

Enumeration counts, and under shuffled vertex orders whole row lists, are
checked against brute-force permutation scans, which share no code with the
families' DFS enumerators.
"""

import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor.engine import EngineInput, PartialColoring, RunStatus, run
from recolor.families import (
    acyclic_gamma_family,
    acyclic_v1_family,
    acyclic_v2_family,
)
from recolor.graphs import Graph, load_graph, special_sets

from _util import (
    ASYMMETRY_EDGES,
    C4_TEXT,
    K3_TEXT,
    PETERSEN_EDGES,
    assert_roundtrip,
    prism_graph,
    random_graph,
    random_tree,
)

K3 = load_graph(K3_TEXT)
C4 = load_graph(C4_TEXT)
PETERSEN = Graph(10, PETERSEN_EDGES)


def brute_cycles_through(g, v, length):
    """Cycles on `length` vertices through v, counted by raw permutation scan."""
    others = [u for u in range(1, g.n + 1) if u != v]
    count = 0
    for perm in permutations(others, length - 1):
        seq = (v,) + perm
        if all(g.has_edge(seq[i], seq[i + 1]) for i in range(length - 1)) \
                and g.has_edge(seq[-1], v):
            count += 1
    return count // 2


def fitted_gamma(g):
    """Smallest gamma whose per-type ceilings hold on g, from the enumerator
    itself (the enumerator is oracle-checked separately)."""
    if g.max_degree < 2:
        return 1
    probe = acyclic_gamma_family(g, 1)
    gamma = 1
    for meta in probe.metas[1:]:
        for v in range(1, g.n + 1):
            rows, _ = probe.witness_rows(v, meta.type_id)
            need = math.ceil(2 * len(rows)
                             / g.max_degree ** (2 * meta.type_id - 2))
            gamma = max(gamma, need)
    return gamma


class TestCycleEnumeration:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_counts_match_permutation_scan(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(4, 9), 0.5, rng)
        fam = acyclic_gamma_family(g, 1)
        for v in range(1, g.n + 1):
            for k in (2, 3):
                rows, _ = fam.witness_rows(v, k)
                assert len(rows) == brute_cycles_through(g, v, 2 * k)

    def test_rows_are_canonical_cycles(self):
        fam = acyclic_gamma_family(PETERSEN, 1)
        # girth 5 rules out 4-cycles; the 10 hexagons hit each vertex 6 times
        assert fam.witness_rows(1, 2)[0] == ()
        rows, _ = fam.witness_rows(1, 3)
        assert len(rows) == 6
        for row in rows:
            assert row[0] == 1 and len(set(row)) == 6
            assert all(PETERSEN.has_edge(a, b) for a, b in zip(row, row[1:]))
            assert PETERSEN.has_edge(row[-1], row[0])
            assert row[1] < row[-1]
        assert list(rows) == sorted(rows)

    def test_square_has_one_cycle_per_vertex(self):
        fam = acyclic_gamma_family(C4, 1)
        assert fam.witness_rows(4, 2)[0] == ((4, 1, 2, 3),)

    def test_types_past_the_declared_ones_have_no_rows(self):
        # K3 declares no cycle type and C4 only the 4-cycle; a row width is
        # never guessed for a type the family does not declare
        assert acyclic_gamma_family(K3, 1).witness_rows(1, 2)[0] == ()
        assert acyclic_gamma_family(C4, 1).witness_rows(1, 3)[0] == ()
        assert acyclic_v2_family(C4, 0.25).witness_rows(1, 4)[0] == ()
        assert acyclic_v1_family(C4, 0.25).witness_rows(1, 5)[0] == ()


class TestGammaFamily:
    def test_k3_trace_matches_engine_example(self):
        fam = acyclic_gamma_family(K3, 1)
        res = assert_roundtrip(K3, fam, EngineInput(kappa=3, vector=(1, 1, 2, 2, 3)))
        assert res.record.steps == (None, (1, 1), None, (1, 2), None)
        assert res.coloring.as_dict() == {1: 1, 2: 2, 3: 3}
        assert res.status is RunStatus.COMPLETED and res.steps_used == 5

    def test_square_cycle_event_uncolors_anchor_prefix(self):
        fam = acyclic_gamma_family(C4, 1)
        res = assert_roundtrip(C4, fam, EngineInput(kappa=2, vector=(1, 2, 1, 2)))
        assert res.record.steps[-1] == (2, 1)
        assert res.coloring.as_dict() == {2: 2, 3: 1}

    def test_rebuild_restores_erased_cycle_colors(self):
        fam = acyclic_gamma_family(C4, 1)
        after = PartialColoring(4)
        after.assign(2, 2)
        after.assign(3, 1)
        # row (4, 1, 2, 3): even offsets carried phi(2), odd ones phi(3)
        assert fam.rebuild_event(2, 4, frozenset({1, 2, 3, 4}), 1, after) == {4: 2, 1: 1}

    def test_meta_costs(self):
        fam = acyclic_gamma_family(PETERSEN, 4)
        by_id = {m.type_id: m for m in fam.metas}
        assert by_id[1].cost == 3 and by_id[1].uncolor_size == 1
        assert by_id[2].cost == 0.5 * 4 * 3 ** 2 and by_id[2].uncolor_size == 2
        assert by_id[5].cost == 0.5 * 4 * 3 ** 8 and by_id[5].uncolor_size == 8
        assert max(by_id) == 5

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_trees_only_fire_edge_events(self, seed):
        rng = random.Random(seed)
        g = random_tree(rng.randint(2, 12), rng)
        fam = acyclic_gamma_family(g, 1)
        res = assert_roundtrip(
            g, fam, EngineInput(kappa=2, seed=seed, budget=6 * g.n))
        assert all(step is None or step[0] == 1 for step in res.record.steps)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_fuzz(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(2, 10), 0.3, rng)
        fam = acyclic_gamma_family(g, fitted_gamma(g))
        assert_roundtrip(g, fam, EngineInput(
            kappa=rng.randint(1, 5), seed=seed, budget=rng.randint(0, 150)))


def brute_v1_c_rows(g, S, v):
    special = set(S[v])
    rows = set()
    for u2, u3, u4 in permutations(range(1, g.n + 1), 3):
        if v in (u2, u3, u4):
            continue
        if not (g.has_edge(v, u2) and g.has_edge(u2, u3) and g.has_edge(u3, u4)
                and g.has_edge(u4, v)):
            continue
        if g.has_edge(v, u3) or g.has_edge(u2, u4) or u3 in special:
            continue
        rows.add((v,) + ((u2, u3, u4) if g.rank[u2] < g.rank[u4] else (u4, u3, u2)))
    return rows


class TestV1Family:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_c_rows_match_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(4, 9), 0.5, rng)
        fam = acyclic_v1_family(g, 0.5)
        for v in range(1, g.n + 1):
            assert set(fam.witness_rows(v, 3)[0]) == \
                brute_v1_c_rows(g, fam.special, v)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_p_rows_are_six_vertex_paths(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(6, 9), 0.4, rng)
        fam = acyclic_v1_family(g, 0.5)
        for v in range(1, g.n + 1):
            rows, _ = fam.witness_rows(v, 4)
            brute = sum(
                1
                for perm in permutations(
                    (u for u in range(1, g.n + 1) if u != v), 5)
                if perm[0] < perm[1]
                and g.has_edge(perm[0], v) and g.has_edge(v, perm[1])
                and all(g.has_edge(perm[i], perm[i + 1]) for i in range(1, 4))
            )
            assert len(rows) == brute
            for row in rows:
                assert row[1] == v and len(set(row)) == 6 and row[0] < row[2]

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_class_counts_stay_under_ceilings(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(4, 14), rng.uniform(0.1, 0.4), rng)
        d = g.max_degree
        if d < 2:
            return
        fam = acyclic_v1_family(g, 0.5)
        for v in range(1, g.n + 1):
            assert len(fam.witness_rows(v, 3)[0]) <= d ** (8 / 3) / 4
            assert len(fam.witness_rows(v, 4)[0]) <= 0.5 * d * (d - 1) ** 4

    def test_square_special_event_precedes_cycle_event(self):
        fam = acyclic_v1_family(C4, 0.5)
        res = assert_roundtrip(C4, fam, EngineInput(kappa=2, vector=(1, 2, 1, 2)))
        # the third color matches the antipode, which sits in S(3), so the
        # special event fires before the cycle event can even be tested
        assert res.record.steps == (None, None, (2, 1), (1, 1))
        assert res.coloring.as_dict() == {1: 1, 2: 2}

    def test_one_way_special_pair_may_share_a_color(self):
        g = Graph(7, ASYMMETRY_EDGES)
        S = special_sets(g, 0.5)
        assert 3 in S[1] and 1 not in S[3]
        fam = acyclic_v1_family(g, 0.5)
        # 1 is colored before 3, so the match is only visible from 1's side
        # and never anchors an event: the pair legitimately survives
        res = assert_roundtrip(g, fam, EngineInput(kappa=3, vector=(1, 2, 1)))
        assert res.record.steps == (None, None, None)
        assert res.coloring.color_of(1) == res.coloring.color_of(3) == 1

    def test_special_pair_fires_when_anchor_owns_it(self):
        order = [3, 2, 1, 4, 5, 6, 7]
        g = Graph(7, ASYMMETRY_EDGES, order=order)
        fam = acyclic_v1_family(g, 0.5)
        res = assert_roundtrip(g, fam, EngineInput(kappa=3, vector=(1, 2, 1)))
        assert res.record.steps == (None, None, (2, 1))
        assert res.coloring.color_of(1) == 0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_fuzz(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(2, 12), 0.3, rng)
        fam = acyclic_v1_family(g, 0.5)
        assert_roundtrip(g, fam, EngineInput(
            kappa=rng.randint(1, 5), seed=seed, budget=rng.randint(0, 150)))

    def test_meta_costs(self):
        fam = acyclic_v1_family(PETERSEN, 0.5)
        by_id = {m.type_id: m for m in fam.metas}
        assert [m.type_id for m in fam.metas] == [1, 2, 3, 4]
        assert by_id[1].cost == 3
        assert by_id[2].cost == pytest.approx(0.5 * 3 ** (4 / 3))
        assert by_id[3].cost == pytest.approx(3 ** (8 / 3) / 4)
        assert by_id[4].cost == 0.5 * 3 * 2 ** 4
        assert [m.uncolor_size for m in fam.metas] == [1, 1, 2, 4]


def square_coloring(g):
    """The 4-cycle 1 2 3 4 colored alternately: the anchor 1 and its
    antipode 3 in color 1, the start ends 2 and 4 in color 2."""
    pc = PartialColoring(g.n)
    for x, c in ((1, 1), (2, 2), (3, 1), (4, 2)):
        pc.assign(x, c)
    return pc


@pytest.mark.parametrize("make", [acyclic_v1_family, acyclic_v2_family],
                         ids=["v1", "v2"])
class TestSquareRule:
    """The square closing rule on the alternately colored 4-cycle v a w b
    (v = 1, a = 2, w = 3, b = 4): the start (a, v, b) closes over w only
    when a and b are not adjacent, w is not adjacent to v and w is not in
    S(v).  At alpha 0.1 the cap floor(alpha * Delta^(4/3)) is 0 for
    Delta <= 3, so S(v) is empty; at alpha 0.5 on the bare 4-cycle it is 1,
    and the antipode is v's only distance-2 vertex."""

    CYCLE = [(1, 2), (2, 3), (3, 4), (1, 4)]

    def fired(self, make, edges, alpha):
        g = Graph(4, edges)
        fam = make(g, alpha)
        return list(fam.fired(square_coloring(g), 1)), fam

    def test_induced_square_outside_special_set_fires(self, make):
        fired, fam = self.fired(make, self.CYCLE, 0.1)
        assert not fam.special[1]
        assert fired == [3]
        assert fam.detect(square_coloring(fam.g), 1) == (3, 1)

    def test_chord_between_the_start_ends_drops_it(self, make):
        fired, _ = self.fired(make, self.CYCLE + [(2, 4)], 0.1)
        assert 3 not in fired

    def test_chord_from_the_anchor_to_the_antipode_drops_it(self, make):
        fired, _ = self.fired(make, self.CYCLE + [(1, 3)], 0.1)
        assert 3 not in fired

    def test_antipode_in_the_special_set_drops_it(self, make):
        fired, fam = self.fired(make, self.CYCLE, 0.5)
        assert fam.special[1] == (3,)
        assert 3 not in fired


class TestV2Family:
    def test_two_colored_hexagon_fires_the_six_cycle_event(self):
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        fam = acyclic_v2_family(g, 0.25)
        res = assert_roundtrip(g, fam, EngineInput(kappa=2, vector=(1, 2, 1, 2, 1, 2)))
        assert res.record.steps == (None,) * 5 + ((4, 1),)
        assert res.coloring.as_dict() == {2: 2, 3: 1}

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_trees_only_fire_neighbor_or_special_events(self, seed):
        rng = random.Random(seed)
        g = random_tree(rng.randint(2, 12), rng)
        fam = acyclic_v2_family(g, 0.5)
        res = assert_roundtrip(
            g, fam, EngineInput(kappa=2, seed=seed, budget=6 * g.n))
        assert all(step is None or step[0] in (1, 2) for step in res.record.steps)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_four_cycle_class_count_under_ceiling(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(4, 14), rng.uniform(0.2, 0.5), rng)
        d = g.max_degree
        if d < 2:
            return
        fam = acyclic_v2_family(g, 0.5)
        for v in range(1, g.n + 1):
            assert len(fam.witness_rows(v, 3)[0]) <= d ** (8 / 3) / 4

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_longer_cycle_class_count_under_ceiling(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(6, 9), rng.uniform(0.3, 0.6), rng)
        d = g.max_degree
        if d < 2:
            return
        fam = acyclic_v2_family(g, 0.5)
        for v in range(1, g.n + 1):
            for k in (3, 4):
                assert len(fam.witness_rows(v, k + 1)[0]) <= d ** (2 * k - 4 / 3)

    def test_mutually_special_endpoints_are_excluded(self):
        # on the hexagon at alpha=1 the cap is 2, so the color-matched
        # endpoints 1 and 5 of the unique 6-cycle row through anchor 2 are
        # special both ways and the row is filtered out; a cap of 0 keeps it
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        strict = acyclic_v2_family(g, 1.0)
        assert 5 in strict.special[1] and 1 in strict.special[5]
        assert strict.witness_rows(2, 4)[0] == ()
        lax = acyclic_v2_family(g, 0.25)
        assert not lax.special[2]
        assert lax.witness_rows(2, 4)[0] == ((1, 2, 3, 4, 5, 6),)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_fuzz(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(2, 12), 0.3, rng)
        fam = acyclic_v2_family(g, 0.5)
        assert_roundtrip(g, fam, EngineInput(
            kappa=rng.randint(1, 5), seed=seed, budget=rng.randint(0, 150)))


def shuffled(g, rng):
    """g under a random vertex order, so rank ties and orientations do not
    follow the index."""
    order = list(range(1, g.n + 1))
    rng.shuffle(order)
    return Graph(g.n, g.edges, order=order)


def brute_rows(g, v, length, at, keep):
    """Every walk of `length` distinct vertices with v at position `at`,
    consecutive ones adjacent, that `keep` accepts, found by a raw
    permutation scan and sorted by the vertex order."""
    others = [u for u in range(1, g.n + 1) if u != v]
    rows = []
    for perm in permutations(others, length - 1):
        row = perm[:at] + (v,) + perm[at:]
        if all(g.has_edge(a, b) for a, b in zip(row, row[1:])) and keep(row):
            rows.append(row)
    return sorted(rows, key=lambda row: [g.rank[x] for x in row])


def brute_square_rows(g, S, v):
    """Induced 4-cycles v a c b with the antipode c outside S(v) and a
    order-below b, as (a, v, b, c) rows."""
    special, rank = S[v], g.rank
    return brute_rows(g, v, 4, 1, lambda r: g.has_edge(r[3], r[0])
                      and not g.has_edge(r[0], r[2]) and not g.has_edge(v, r[3])
                      and r[3] not in special and rank[r[0]] < rank[r[2]])


class TestExactRowLists:
    """`witness_rows` lists, compared whole (order included) with a
    permutation scan on random graphs under shuffled vertex orders."""

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_gamma_cycles(self, seed):
        rng = random.Random(seed)
        g = shuffled(random_graph(rng.randint(4, 8), rng.uniform(0.3, 0.6), rng), rng)
        fam, rank = acyclic_gamma_family(g, 1), g.rank
        for v in range(1, g.n + 1):
            for k in (2, 3):
                want = brute_rows(g, v, 2 * k, 0, lambda r: g.has_edge(r[-1], v)
                                  and rank[r[1]] < rank[r[-1]])
                assert list(fam.witness_rows(v, k)[0]) == want, (v, k)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_v1_squares_and_paths(self, seed):
        rng = random.Random(seed)
        g = shuffled(random_graph(rng.randint(4, 8), rng.uniform(0.3, 0.6), rng), rng)
        fam, rank = acyclic_v1_family(g, rng.choice((0.1, 0.5, 1.0))), g.rank
        for v in range(1, g.n + 1):
            squares = sorted(((v, a, c, b) for a, v, b, c
                              in brute_square_rows(g, fam.special, v)),
                             key=lambda r: [rank[x] for x in r])
            assert list(fam.witness_rows(v, 3)[0]) == squares, v
            paths = brute_rows(g, v, 6, 1, lambda r: rank[r[0]] < rank[r[2]])
            assert list(fam.witness_rows(v, 4)[0]) == paths, v

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_v2_squares_and_cycles(self, seed):
        rng = random.Random(seed)
        g = shuffled(random_graph(rng.randint(6, 8), rng.uniform(0.3, 0.6), rng), rng)
        fam, rank = acyclic_v2_family(g, rng.choice((0.1, 0.5, 1.0))), g.rank
        sp = fam.special
        for v in range(1, g.n + 1):
            assert list(fam.witness_rows(v, 3)[0]) == \
                brute_square_rows(g, fam.special, v), v
            for k in (3, 4):
                # the color-matched u1 and u_{2k-1} may not be mutually special
                want = brute_rows(g, v, 2 * k, 1, lambda r: g.has_edge(r[-1], r[0])
                                  and rank[r[0]] < rank[r[2]]
                                  and not (r[-2] in sp[r[0]] and r[0] in sp[r[-2]]))
                assert list(fam.witness_rows(v, k + 1)[0]) == want, (v, k)


class TestParameterValidation:
    def test_gamma_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            acyclic_gamma_family(K3, 0)

    def test_alpha_range(self):
        # refused before a ceiling divides by alpha
        for make in (acyclic_v1_family, acyclic_v2_family):
            for alpha in (0, 0.0, 1.5, float("nan")):
                with pytest.raises(ValueError,
                                   match=r"alpha must be in \(0, 1\], got"):
                    make(C4, alpha)


class TestLargeGraphs:
    # the prism C500 x K2: cubic, and its type ceilings pass the float range
    PRISM = prism_graph(500)

    @pytest.mark.parametrize("make", [lambda g: acyclic_gamma_family(g, 1),
                                      lambda g: acyclic_v2_family(g, 0.5)],
                             ids=["gamma", "v2"])
    def test_families_construct_and_roundtrip_on_a_1000_vertex_cubic_graph(self, make):
        fam = make(self.PRISM)
        costs = [meta.cost for meta in fam.metas]
        assert costs[0] == 3 and math.isinf(costs[-1])
        res = assert_roundtrip(self.PRISM, fam,
                               EngineInput(kappa=4, seed=1, budget=400))
        assert any(step is not None for step in res.record.steps)
