"""Facial repetition families: window rows, reserve traversal, roundtrips."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor.engine import (
    EngineInput,
    PartialColoring,
    RunStatus,
    replay_colored_sets,
    run,
)
from recolor.families import (
    MedialConnectivityError,
    facial_thue_edge_family,
    facial_thue_vertex_family,
)
from recolor.families.facial import _FacialFamily
from recolor.graphs import Graph
from recolor.planar import PlaneGraph, load_rotation, random_triangulation

from _util import assert_roundtrip, grid_embedding, plane_with_long_faces

K3_ROT = "3 3\n1: 2 3\n2: 3 1\n3: 1 2\n"
C4_ROT = "4 4\n1: 2 4\n2: 3 1\n3: 4 2\n4: 1 3\n"
P4_ROT = "4 3\n1: 2\n2: 1 3\n3: 2 4\n4: 3\n"


class TestVertexFamily:
    def test_square_window_rows(self):
        fam = facial_thue_vertex_family(load_rotation(C4_ROT))
        assert fam.witness_rows(4, 1)[0] == ((1, 4), (3, 4))
        assert fam.witness_rows(4, 2)[0] == \
            ((1, 2, 3, 4), (1, 4, 3, 2), (2, 1, 4, 3), (3, 2, 1, 4))

    def test_meta_costs(self):
        fam = facial_thue_vertex_family(load_rotation(C4_ROT))
        assert [(m.type_id, m.cost, m.uncolor_size) for m in fam.metas] == \
            [(1, 2.0, 1), (2, 8.0, 2)]

    def test_square_trace(self):
        pg = load_rotation(C4_ROT)
        fam = facial_thue_vertex_family(pg)
        res = assert_roundtrip(
            pg.graph, fam, EngineInput(kappa=2, vector=(1, 2, 1, 2)))
        assert res.record.steps == (None, None, None, (2, 1))
        assert res.coloring.as_dict() == {1: 1, 2: 2}

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_window_counts_stay_under_ceilings(self, seed):
        rng = random.Random(seed)
        pg = random_triangulation(rng.randint(4, 12), rng)
        d = pg.graph.max_degree
        fam = facial_thue_vertex_family(pg)
        for meta in fam.metas:
            j = meta.type_id
            limit = d if j == 1 else 2 * j * d
            for v in range(1, pg.graph.n + 1):
                assert len(fam.witness_rows(v, j)[0]) <= limit

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_rows_match_a_face_scan_in_a_shuffled_order(self, seed):
        """Rows are the simple windows of 2j vertices on the face walks,
        oriented and sorted by the vertex order, not by index."""
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        base = random_triangulation(n, rng) if rng.random() < 0.5 \
            else plane_with_long_faces(n, rng.randint(1, 2 * n), rng)
        g = Graph(n, base.graph.edges, order=rng.sample(range(1, n + 1), n))
        pg = PlaneGraph(g, base.rotation)
        fam = facial_thue_vertex_family(pg)

        def key(row):
            return [g.rank[x] for x in row]

        walks = [[u for u, _ in face] for face in pg.faces]
        for j in range(2, max(map(len, walks)) // 2 + 1):
            windows = {
                min(w, w[::-1], key=key)
                for walk in walks
                for w in (tuple(walk[(off + i) % len(walk)]
                                for i in range(2 * j))
                          for off in range(len(walk)))
                if len(set(w)) == 2 * j}
            for v in range(1, n + 1):
                assert list(fam.witness_rows(v, j)[0]) == \
                    sorted((w for w in windows if v in w), key=key)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_type_one_table_is_the_window_list(self, seed):
        """Type 1 is declared as the neighbor table: the partners of v on its
        canonical sorted 2-windows are v's neighbors in adjacency order, so
        the table gives every type-1 event the class its window rank did."""
        rng = random.Random(seed)
        n = rng.randint(3, 30)
        pg = random_triangulation(n, rng) if rng.random() < 0.5 \
            else plane_with_long_faces(n, rng.randint(1, 2 * n), rng)
        fam = facial_thue_vertex_family(pg)
        assert fam.tables == (pg.graph.adj,)
        for v in range(1, n + 1):
            rows = fam.witness_rows(v, 1)[0]
            partners = tuple(x for row in rows for x in row if x != v)
            assert len(partners) == len(rows)
            assert partners == pg.graph.adj[v], (v, rows)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_fuzz(self, seed):
        rng = random.Random(seed)
        pg = random_triangulation(rng.randint(3, 12), rng)
        fam = facial_thue_vertex_family(pg)
        assert_roundtrip(pg.graph, fam, EngineInput(
            kappa=rng.randint(1, 6), seed=seed, budget=rng.randint(0, 150)))


class TestEdgeFamilyRows:
    def test_triangle_rows_are_edge_pairs_on_a_face(self):
        fam = facial_thue_edge_family(load_rotation(K3_ROT), 1)
        assert fam.witness_rows(3, 1)[0] == ((1, 3), (2, 3))
        assert fam.witness_rows(1, 2)[0] == ()

    def test_meta_costs_do_not_depend_on_degree(self):
        for rot, n in ((K3_ROT, 3), (C4_ROT, 4)):
            fam = facial_thue_edge_family(load_rotation(rot), 1)
            assert [(m.type_id, m.cost, m.uncolor_size) for m in fam.metas] == \
                [(j, 1 + 2 * j, j) for j in range(1, n // 2 + 1)]

    def test_reserved_edge_id_validated(self):
        with pytest.raises(ValueError, match="reserved edge"):
            facial_thue_edge_family(load_rotation(K3_ROT), 4)

    def test_class_outside_the_list_is_rejected(self):
        # with edge 1 uncolored, the class list of edge 3 is its one medial
        # neighbor other than 1, edge 2: class 1 erases 3, and classes 0
        # and 2 name no event (0 must not wrap around to the last one)
        fam = facial_thue_edge_family(load_rotation(K3_ROT), 1)
        assert fam._classes(3, 1, {2, 3}) == [2]
        assert fam.uncolor_set(1, 3, {2, 3}, 1) == (3,)
        for k in (0, 2):
            with pytest.raises(ValueError, match="names no event"):
                fam.uncolor_set(1, 3, {2, 3}, k)

    @given(st.integers(0, 10 ** 6), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_rows_match_a_face_scan(self, seed, long_faces):
        """Rows are the windows of 2j consecutive darts on the face walks
        spanning 2j + 1 distinct vertices, as edge ids, oriented and sorted
        by id; the long-face embeddings have bridges, walked both ways on
        one face."""
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        pg = plane_with_long_faces(n, rng.randint(n, 2 * n), rng) \
            if long_faces else random_triangulation(n, rng)
        fam = facial_thue_edge_family(pg, 1)
        index = pg.graph.edge_index
        for j in range(1, max(map(len, pg.faces)) // 2 + 1):
            windows = set()
            for face in pg.faces:
                f = len(face)
                for off in range(f):
                    darts = [face[(off + i) % f] for i in range(2 * j)]
                    verts = {darts[0][0]} | {v for _, v in darts}
                    if len(verts) == 2 * j + 1:
                        row = tuple(index[(min(u, v), max(u, v))]
                                    for u, v in darts)
                        windows.add(min(row, row[::-1]))
            for e in range(1, pg.graph.m + 1):
                assert list(fam.witness_rows(e, j)[0]) == \
                    sorted(w for w in windows if e in w)

    @given(st.integers(0, 10 ** 6), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_avoiding_rows_stay_under_flat_ceiling(self, seed, long_faces):
        # for every candidate uncolored facial neighbor e', the rows through
        # the anchor that avoid e' number at most 2j+1, whatever the degree,
        # also on faces that revisit a vertex
        rng = random.Random(seed)
        n = rng.randint(4, 11)
        pg = plane_with_long_faces(n, rng.randint(n, 2 * n), rng) \
            if long_faces else random_triangulation(n, rng)
        fam = facial_thue_edge_family(pg, 1)
        for e in range(1, pg.graph.m + 1):
            for j in (1, 2, 3):
                rows = fam.witness_rows(e, j)[0]
                for ep in fam.medial[e]:
                    assert sum(1 for r in rows if ep not in r) <= 2 * j + 1


class TestEdgeFamilyTraversal:
    def test_triangle_colors_leaves_toward_the_reserve(self):
        pg = load_rotation(K3_ROT)
        fam = facial_thue_edge_family(pg, 1)
        assert fam.next_uncolored(frozenset()) == 2
        assert fam.next_uncolored(frozenset({2})) == 3
        assert fam.next_uncolored(frozenset({2, 3})) is None

    def test_colored_reserve_is_rejected(self):
        fam = facial_thue_edge_family(load_rotation(K3_ROT), 1)
        with pytest.raises(MedialConnectivityError, match="reserved"):
            fam.next_uncolored(frozenset({1}))

    def test_disconnected_uncolored_set_is_rejected(self):
        # on a path the middle edge separates the outer two in the medial
        fam = facial_thue_edge_family(load_rotation(P4_ROT), 1)
        with pytest.raises(MedialConnectivityError, match="disconnected"):
            fam.next_uncolored(frozenset({2}))

    def test_path_traversal_colors_far_end_first(self):
        fam = facial_thue_edge_family(load_rotation(P4_ROT), 1)
        assert fam.next_uncolored(frozenset()) == 3
        assert fam.next_uncolored(frozenset({3})) == 2

    def test_leaf_rule_matches_its_pinned_digest(self):
        """`next_uncolored` on seeded triangulations and plane graphs with
        long faces, each with a random reserved edge: the edge returned, or
        the exception type and message, for the colored set after every step
        of a seeded run (valid sets) and for random edge subsets (which also
        color the reserve or disconnect the rest), hashed together; pinned
        before the set-based traversal gave way to the leaf frontier."""
        rng = random.Random(20261020)
        h = hashlib.sha256()
        for i in range(40):
            n = rng.randint(4, 16)
            pg = (random_triangulation(n, rng) if i % 2
                  else plane_with_long_faces(n, rng.randint(n, 2 * n), rng))
            m = pg.graph.m
            fam = facial_thue_edge_family(pg, rng.randint(1, m))
            res = run(pg.graph, fam, EngineInput(
                rng.randint(2, 4), seed=rng.randrange(2 ** 31), budget=6 * m))
            colored = set()
            sets = [frozenset()]
            for v, target in replay_colored_sets(fam, res.record):
                colored.add(v)
                colored.difference_update(target)
                sets.append(frozenset(colored))
            for _ in range(8):
                p = rng.random()
                sets.append(frozenset(e for e in range(1, m + 1)
                                      if rng.random() < p))
            for colored in sets:
                try:
                    outcome = repr(fam.next_uncolored(colored))
                except MedialConnectivityError as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                h.update(outcome.encode() + b"\n")
        assert h.hexdigest() == \
            "e421a609c3bf9f3ca20eb835c860abd019761989cc2f8f52a04bfaeb0979d15c"

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_completed_runs_color_everything_but_the_reserve(self, seed):
        rng = random.Random(seed)
        pg = random_triangulation(rng.randint(3, 10), rng)
        m = pg.graph.m
        e_star = rng.randint(1, m)
        fam = facial_thue_edge_family(pg, e_star)
        res = assert_roundtrip(pg.graph, fam, EngineInput(
            kappa=9, seed=seed, budget=100 * m))
        assert res.status is RunStatus.COMPLETED
        assert res.coloring.colored == set(range(1, m + 1)) - {e_star}


class TestEdgeFamilyRuns:
    def test_triangle_clean_run(self):
        pg = load_rotation(K3_ROT)
        fam = facial_thue_edge_family(pg, 1)
        res = assert_roundtrip(pg.graph, fam, EngineInput(kappa=2, vector=(1, 2)))
        assert res.record.steps == (None, None)
        assert res.status is RunStatus.COMPLETED
        assert res.coloring.as_dict() == {2: 1, 3: 2}

    def test_triangle_repetition_fires_then_recovers(self):
        pg = load_rotation(K3_ROT)
        fam = facial_thue_edge_family(pg, 1)
        res = assert_roundtrip(
            pg.graph, fam, EngineInput(kappa=2, vector=(1, 1, 2)))
        assert res.record.steps == (None, (1, 1), None)
        assert res.status is RunStatus.COMPLETED
        assert res.coloring.as_dict() == {2: 1, 3: 2}

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_fuzz(self, seed):
        rng = random.Random(seed)
        pg = random_triangulation(rng.randint(3, 10), rng)
        fam = facial_thue_edge_family(pg, rng.randint(1, pg.graph.m))
        assert_roundtrip(pg.graph, fam, EngineInput(
            kappa=rng.randint(1, 6), seed=seed, budget=rng.randint(0, 150)))

    @pytest.mark.parametrize("seed", range(5))
    def test_triangulation_runs_read_no_witness_rows(self, seed):
        """Type 1 is the medial table, and on a triangulation no wider window
        fits a face, so runs and decodes with type-1 events never fill the
        witness memo."""
        rng = random.Random(f"medial table {seed}")
        pg = random_triangulation(200, rng)
        fam = facial_thue_edge_family(pg, rng.randint(1, pg.graph.m))
        res = assert_roundtrip(pg.graph, fam, EngineInput(
            9, seed=seed, budget=20 * pg.graph.m))
        assert any(step for step in res.record.steps)
        assert fam._rows == {}

    def test_face_revisiting_a_vertex_keeps_classes_under_the_ceiling(self):
        # the face walk 1 2 3 5 3 8 3 2 4 6 passes vertices 2 and 3 twice;
        # (1,2) shares vertex 2 and that face with (2,4) without being next
        # to it, and taking it as e' ranked a type-1 hit as class 4 of 3
        pg = load_rotation("9 10\n1: 2 6\n2: 3 4 6 1\n3: 5 8 2\n4: 2 6 7\n"
                           "5: 3\n6: 4 1 9 2\n7: 4\n8: 3\n9: 6\n")
        fam = facial_thue_edge_family(pg, 1)
        res = assert_roundtrip(pg.graph, fam,
                               EngineInput(3, seed=175417826, budget=56))
        costs = {m.type_id: m.cost for m in fam.metas}
        events = [s for s in res.record.steps if s is not None]
        assert events
        assert all(k <= costs[j] for j, k in events)


class TestTypeCap:
    """Detection stops at the longest face: no witness window is wider."""

    @staticmethod
    def _assert_empty_past_cap(pg, fam, objects):
        longest = max(len(face) for face in pg.faces)
        assert fam.widest == longest
        past = [m.type_id for m in fam.metas if 2 * m.type_id > longest]
        for x in range(1, objects + 1):
            for j in past:
                assert fam.witness_rows(x, j)[0] == ()
        return past

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_triangulations_probe_one_type(self, seed):
        rng = random.Random(seed)
        pg = random_triangulation(rng.randint(4, 12), rng)
        for fam, objects in ((facial_thue_vertex_family(pg), pg.graph.n),
                             (facial_thue_edge_family(pg, 1), pg.graph.m)):
            past = self._assert_empty_past_cap(pg, fam, objects)
            assert past == [m.type_id for m in fam.metas][1:]

    @pytest.mark.parametrize("kappa", [2, 3, 9])
    def test_face_walk_longer_than_the_declared_types(self, kappa):
        """K4 with a three-edge tail: 7 vertices declare edge types 1..3, but
        the tail's face walk has 9 darts and 8 edges get colored, so an
        8-window fits both; detection probes the declared types only, runs
        and decodes."""
        pg = load_rotation("7 9\n1: 5 2 3 4\n2: 1 4 3\n3: 1 2 4\n4: 1 3 2\n"
                           "5: 1 6\n6: 5 7\n7: 6\n")
        fam = facial_thue_edge_family(pg, 9)
        assert fam.widest == 9 and len(fam.metas) == 3
        for seed in range(20):
            res = assert_roundtrip(pg.graph, fam,
                                   EngineInput(kappa, seed=seed, budget=200))
            if kappa == 9:
                assert len(res.coloring.colored) == 8
        # every window repeats in one color, and 8 colored edges fit a
        # type-4 window, but no type 4 exists
        pc = PartialColoring(fam.n_objects)
        for e in range(1, 9):
            pc.assign(e, 1)
        fired = {e: list(fam.fired(pc, e)) for e in pc.colored}
        assert all(set(got) <= {2, 3} for got in fired.values()), fired
        assert any(fired.values()), fired

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_long_faces(self, seed):
        rng = random.Random(seed)
        pg = plane_with_long_faces(rng.randint(6, 14), rng.randint(3, 30), rng)
        self._assert_empty_past_cap(pg, facial_thue_vertex_family(pg), pg.graph.n)
        self._assert_empty_past_cap(pg, facial_thue_edge_family(pg, 1), pg.graph.m)


@pytest.mark.parametrize("make", [
    facial_thue_vertex_family,
    lambda pg: facial_thue_edge_family(pg, 1),
], ids=["vertex", "edge"])
@pytest.mark.parametrize("long_faces", [False, True],
                         ids=["triangulation", "long-faces"])
def test_row_search_runs_only_where_a_window_fits(make, long_faces, monkeypatch):
    """A triangulation's faces are narrower than any row type, so `detect`
    reads its candidate table only and never calls `fired`, in runs,
    decodes or allowedness checks; on longer faces it still searches."""
    calls = []
    search = _FacialFamily.fired

    def counted(self, coloring, v):
        calls.append(v)
        return search(self, coloring, v)

    monkeypatch.setattr(_FacialFamily, "fired", counted)
    rng = random.Random(f"row search {long_faces}")
    events = 0
    for _ in range(6):
        n = rng.randint(6, 40)
        pg = (plane_with_long_faces(n, 2 * n, rng) if long_faces
              else random_triangulation(n, rng))
        fam = make(pg)
        res = assert_roundtrip(pg.graph, fam, EngineInput(
            rng.randint(2, 5), seed=rng.randrange(2 ** 31),
            budget=10 * fam.n_objects))
        events += sum(step is not None for step in res.record.steps)
    assert events
    assert bool(calls) == long_faces


@pytest.mark.parametrize("make, kappa", [
    (facial_thue_vertex_family, 12),
    (lambda pg: facial_thue_edge_family(pg, 1), 9),
], ids=["vertex", "edge"])
def test_long_face_runs_fill_witness_rows_only_for_row_events(make, kappa):
    """Windows are searched in place: on the 12 x 12 grid, whose outer face
    holds windows of every declared width, runs and decodes ask for the
    witness list of exactly the (anchor, type) pairs of their row-type
    events, where a hit is ranked or a class read back."""
    pg = grid_embedding(12)
    events = 0
    for seed in range(1, 4):
        fam = make(pg)
        keys = set()
        rows = fam.witness_rows

        def counted(v, j):
            keys.add((v, j))
            return rows(v, j)

        fam.witness_rows = counted
        res = assert_roundtrip(pg.graph, fam, EngineInput(
            kappa, seed=seed, budget=20 * fam.n_objects))
        want = {(v, step[0]) for (v, _), step in zip(
            replay_colored_sets(fam, res.record), res.record.steps)
            if step and step[0] > len(fam.tables)}
        assert keys == want, (seed, len(keys), len(want))
        events += len(want)
    assert events
