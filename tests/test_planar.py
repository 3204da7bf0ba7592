"""Face tracing, facial windows, medial graphs, random triangulations."""

import hashlib
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor.families import facial_thue_edge_family, facial_thue_vertex_family
from recolor.graphs import Graph, GraphFormatError
from recolor.planar import (
    EmbeddingError,
    PlaneGraph,
    load_rotation,
    medial_graph,
    random_triangulation,
)
from _util import facial_windows, grid_embedding, plane_with_long_faces

K3_ROT = "3 3\n1: 2 3\n2: 3 1\n3: 1 2\n"
C4_ROT = "4 4\n1: 2 4\n2: 3 1\n3: 4 2\n4: 1 3\n"
K4_ROT = "4 6\n1: 2 3 4\n2: 3 1 4\n3: 1 2 4\n4: 3 2 1\n"


def faces_by_rescan(pg):
    """Face tracing by repeated minimum: trace the orbit of the smallest
    untraced dart, rotate it to start at its smallest dart, sort the walks.
    The reference for `PlaneGraph.faces`."""
    darts = {(u, v) for u in range(1, pg.graph.n + 1) for v in pg.graph.adj[u]}
    faces = []
    while darts:
        walk = [min(darts)]
        while True:
            u, v = walk[-1]
            rot = pg.rotation[v]
            e = (v, rot[(rot.index(u) + 1) % len(rot)])
            if e == walk[0]:
                break
            walk.append(e)
        darts.difference_update(walk)
        k = walk.index(min(walk))
        faces.append(tuple(walk[k:] + walk[:k]))
    return tuple(sorted(faces))


class TestFaceTracing:
    @given(st.integers(3, 40), st.integers(0, 10 ** 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_faces_match_a_rescan_reference(self, n, seed, long_faces):
        rng = random.Random(seed)
        pg = plane_with_long_faces(n, 2 * n, rng) if long_faces \
            else random_triangulation(n, rng)
        assert pg.faces == faces_by_rescan(pg)

    def test_triangle_has_two_triangular_faces(self):
        pg = load_rotation(K3_ROT)
        assert len(pg.faces) == 2
        assert all(len(f) == 3 for f in pg.faces)

    def test_square_has_two_quadrilateral_faces(self):
        pg = load_rotation(C4_ROT)
        assert [len(f) for f in pg.faces] == [4, 4]

    def test_k4_faces_and_euler(self):
        pg = load_rotation(K4_ROT)
        assert len(pg.faces) == 4
        assert all(len(f) == 3 for f in pg.faces)
        assert pg.graph.n - pg.graph.m + len(pg.faces) == 2

    def test_single_edge_one_face(self):
        pg = load_rotation("2 1\n1: 2\n2: 1\n")
        assert pg.faces == (((1, 2), (2, 1)),)

    def test_every_dart_on_exactly_one_face(self):
        pg = load_rotation(K4_ROT)
        darts = [e for f in pg.faces for e in f]
        assert len(darts) == 2 * pg.graph.m
        assert len(set(darts)) == len(darts)

    def test_nonplanar_rotation_rejected(self):
        # K4 with two neighbors swapped at one vertex embeds on the torus,
        # not the plane, and the Euler check catches it
        bad = "4 6\n1: 2 3 4\n2: 3 1 4\n3: 2 1 4\n4: 3 2 1\n"
        with pytest.raises(EmbeddingError, match="Euler|expected 2"):
            load_rotation(bad)


class TestLoadRotation:
    def test_text_roundtrip(self):
        pg = load_rotation(C4_ROT)
        again = load_rotation(pg.to_text())
        assert again.rotation == pg.rotation
        assert again.faces == pg.faces

    def test_comments_ignored(self):
        pg = load_rotation("# embedding\n3 3\n1: 2 3\n2: 3 1\n3: 1 2\n")
        assert pg.graph.m == 3

    def test_rotation_must_match_neighbors(self):
        with pytest.raises(GraphFormatError, match="missing from rotation"):
            load_rotation("3 2\n1: 2 3\n2: 1\n3:\n")

    def test_header_edge_count_checked(self):
        with pytest.raises(GraphFormatError, match="announced"):
            load_rotation("3 5\n1: 2 3\n2: 3 1\n3: 1 2\n")

    def test_duplicate_vertex_line(self):
        with pytest.raises(GraphFormatError, match="listed twice"):
            load_rotation("2 1\n1: 2\n1: 2\n2: 1\n")

    @pytest.mark.parametrize("head", ["7", "-2", "0"])
    def test_vertex_line_out_of_range(self, head):
        with pytest.raises(GraphFormatError,
                           match=rf"line 5: vertex {head} out of range 1..3"):
            load_rotation(K3_ROT + f"{head}:\n")

    @pytest.mark.parametrize("nbr", ["9", "4", "0", "-1"])
    def test_neighbor_out_of_range(self, nbr):
        text = f"3 3\n1: 2 3\n2: 3 {nbr}\n3: 1 2\n"
        with pytest.raises(GraphFormatError,
                           match=rf"line 3: neighbor {nbr} of vertex 2 out of range 1..3"):
            load_rotation(text)

    @pytest.mark.parametrize("line", ["2: 3 x", "y: 1 3"])
    def test_non_integer_line_names_its_line(self, line):
        with pytest.raises(GraphFormatError,
                           match="line 3: expected integers in rotation line"):
            load_rotation(f"3 3\n1: 2 3\n{line}\n3: 1 2\n")

    def test_repeated_neighbor_refused(self):
        with pytest.raises(GraphFormatError,
                           match="rotation at 2 repeats a neighbor"):
            load_rotation("3 3\n1: 2 3\n2: 3 1 3\n3: 1 2\n")

    def test_loop_names_line(self):
        with pytest.raises(GraphFormatError, match="line 2: loop edge at vertex 1"):
            load_rotation("2 1\n1: 1 2\n2: 1\n")

    def test_matches_supplied_graph(self):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        pg = load_rotation(K3_ROT, graph=g)
        assert pg.graph is g
        other = Graph(3, [(1, 2), (2, 3)])
        with pytest.raises(GraphFormatError, match="does not match"):
            load_rotation(K3_ROT, graph=other)

    def test_large_star_is_one_face(self):
        # every dart of K_{1,k} lies on the one face walk around the star;
        # tracing it must not rescan the center's rotation at each step
        k = 20_000
        text = "\n".join([f"{k + 1} {k}", "1: " + " ".join(
            str(w) for w in range(2, k + 2))] + [f"{w}: 1" for w in range(2, k + 2)])
        pg = load_rotation(text)
        assert len(pg.faces) == 1
        assert len(pg.faces[0]) == 2 * k
        assert pg.faces[0][:3] == ((1, 2), (2, 1), (1, 3))

    def test_permutation_check(self):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(EmbeddingError, match="permutation"):
            PlaneGraph(g, {1: (2, 3), 2: (3, 1), 3: (1,)})

    @pytest.mark.parametrize("stray", [7, 4, 0, -1])
    def test_rotation_outside_the_vertices_refused(self, stray):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(EmbeddingError,
                           match=rf"rotation given at vertex {stray}, outside 1..3"):
            PlaneGraph(g, {1: (2, 3), 2: (3, 1), 3: (1, 2), stray: (1,)})


def window_walk(pg):
    """The facial families' window walk on ``pg`` as one function of
    (x, length), sorted: vertex windows through a vertex x, edge-id windows
    through an edge pair x."""
    vertex = facial_thue_vertex_family(pg)
    edge = facial_thue_edge_family(pg, 1)

    def windows(x, length):
        if isinstance(x, int):
            return sorted(vertex._windows(x, length))
        return sorted(edge._windows(pg.graph.edge_index[x], length))
    return windows


class TestFacialPaths:
    def test_square_vertex_windows_of_two(self):
        paths = window_walk(load_rotation(C4_ROT))(1, 2)
        assert paths == [(1, 2), (1, 4), (2, 1), (4, 1)]

    def test_square_vertex_windows_of_four(self):
        paths = window_walk(load_rotation(C4_ROT))(1, 4)
        # every rotation of both boundary walks passes through 1 and is simple
        assert len(paths) == 8
        assert all(len(set(p)) == 4 for p in paths)

    def test_triangle_has_no_simple_window_of_three_edges(self):
        assert window_walk(load_rotation(K3_ROT))((1, 2), 3) == []

    def test_square_edge_windows_of_two(self):
        pg = load_rotation(C4_ROT)
        paths = window_walk(pg)((1, 2), 2)
        assert len(paths) == 4
        assert all(pg.graph.edge_index[(1, 2)] in p for p in paths)
        for p in paths:
            assert all(1 <= a <= pg.graph.m for a in p)

    def test_edge_windows_are_vertex_simple(self):
        # a window of 4 edges on a 4-face closes the cycle: not a path
        assert window_walk(load_rotation(C4_ROT))((1, 2), 4) == []

    def test_window_multiplicity_counts_face_and_offset(self):
        # on the triangle the path (1, 2, 3) appears once per face
        paths = window_walk(load_rotation(K3_ROT))(1, 3)
        assert len(paths) == 6

    def test_length_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            window_walk(load_rotation(K3_ROT))(1, 1)


def windows_over_all_faces(pg, x, length):
    """The window walk as a scan of every face, sorted, edge windows as
    edge ids: the reference for `_FacialFamily._windows`."""
    out = []
    for face in pg.faces:
        f = len(face)
        for off in range(f):
            darts = [face[(off + i) % f] for i in range(length)]
            if isinstance(x, int):
                window = tuple(d[0] for d in darts)
                if x in window and len(set(window)) == length:
                    out.append(window)
            else:
                verts = [darts[0][0]] + [d[1] for d in darts]
                window = tuple((min(a, b), max(a, b)) for a, b in darts)
                if len(set(verts)) == length + 1 and x in window:
                    out.append(tuple(pg.graph.edge_index[e] for e in window))
    return sorted(out)


def windows_by_object(pg, length, *, edges):
    """Every window of ``length`` consecutive objects on every face walk
    whose vertices are distinct, tested window by window, once per (face,
    offset) and listed under each object it holds: the per-window
    definition `_FacialFamily._windows` shortcuts on faces that repeat no
    vertex."""
    out = defaultdict(list)
    index = pg.graph.edge_index
    for face in pg.faces:
        f = len(face)
        for off in range(f):
            darts = [face[(off + i) % f] for i in range(length)]
            if edges:
                verts = [darts[0][0]] + [d[1] for d in darts]
                if len(set(verts)) != length + 1:
                    continue
                window = tuple(index[(min(a, b), max(a, b))] for a, b in darts)
            else:
                window = tuple(d[0] for d in darts)
                if len(set(window)) != length:
                    continue
            for x in window:
                out[x].append(window)
    return out


class TestFaceIndex:
    @pytest.mark.parametrize("host", [
        *(f"grid {a}" for a in range(3, 13)),
        *(f"long faces {seed}" for seed in range(4))])
    def test_windows_match_the_per_window_definition(self, host):
        """Grids have simple faces only, and the long-face hosts faces that
        revisit a vertex too; every window length up to the longest face."""
        kind, _, arg = host.rpartition(" ")
        if kind == "grid":
            pg = grid_embedding(int(arg))
        else:
            rng = random.Random(f"simple faces {arg}")
            n = rng.randint(8, 16)
            pg = plane_with_long_faces(n, 2 * n, rng)
        families = ((facial_thue_vertex_family(pg), False),
                    (facial_thue_edge_family(pg, 1), True))
        for length in range(2, max(map(len, pg.faces)) + 1):
            for fam, edges in families:
                want = windows_by_object(pg, length, edges=edges)
                for x in range(1, fam.n_objects + 1):
                    assert sorted(fam._windows(x, length)) == sorted(want[x]), \
                        (host, edges, length, x)

    @pytest.mark.parametrize("seed", range(6))
    def test_windows_match_a_scan_of_all_faces(self, seed):
        rng = random.Random(f"face index {seed}")
        n = rng.randint(4, 12)
        pg = random_triangulation(n, rng) if seed % 2 \
            else plane_with_long_faces(n, 2 * n, rng)
        windows = window_walk(pg)
        longest = max(len(face) for face in pg.faces)
        for length in range(2, longest + 2):
            for x in (*range(1, n + 1), *pg.graph.edges):
                assert windows(x, length) == \
                    windows_over_all_faces(pg, x, length)

    def test_vertex_twice_on_one_face(self):
        # a path 1-2-3 has one face walk 1 2 3 2, visiting 2 twice
        pg = load_rotation("3 2\n1: 2\n2: 3 1\n3: 2\n")
        windows = window_walk(pg)
        for length in (2, 3):
            assert windows(2, length) == windows_over_all_faces(pg, 2, length)
        assert windows(2, 2) == [(1, 2), (2, 1), (2, 3), (3, 2)]

    def test_long_faces_visit_a_vertex_twice(self):
        rng = random.Random("face index long")
        pg = plane_with_long_faces(10, 20, rng)
        windows = window_walk(pg)
        walks = [[u for u, _ in face] for face in pg.faces]
        assert any(len(set(w)) < len(w) for w in walks)
        for v in range(1, 11):
            for length in (2, 3, 4):
                assert windows(v, length) == \
                    windows_over_all_faces(pg, v, length)


def medial_pairs(M):
    """The medial edges read off the table: the pairs a < b, sorted."""
    return [(a, b) for a in range(1, len(M)) for b in M[a] if a < b]


class TestMedialGraph:
    def test_medial_of_triangle_is_triangle(self):
        M = medial_graph(load_rotation(K3_ROT))
        assert len(M) - 1 == 3 and sum(map(len, M)) // 2 == 3
        assert all(len(M[v]) == 2 for v in range(1, 4))

    def test_medial_of_cycle_is_cycle(self):
        M = medial_graph(load_rotation(C4_ROT))
        assert len(M) - 1 == 4 and sum(map(len, M)) // 2 == 4
        assert all(len(M[v]) == 2 for v in range(1, 5))

    def test_medial_of_single_edge(self):
        M = medial_graph(load_rotation("2 1\n1: 2\n2: 1\n"))
        assert len(M) - 1 == 1 and sum(map(len, M)) // 2 == 0

    def test_medial_of_path_is_path(self):
        M = medial_graph(load_rotation("3 2\n1: 2\n2: 1 3\n3: 2\n"))
        assert len(M) - 1 == 2 and sum(map(len, M)) // 2 == 1

    def test_medial_respects_faces_not_just_endpoints(self):
        # edge ids of K4: (1,2)=1 (1,3)=2 (1,4)=3 (2,3)=4 (2,4)=5 (3,4)=6.
        # 1 and 6 share no endpoint, so they never meet in the medial graph
        M = medial_graph(load_rotation(K4_ROT))
        assert 6 not in M[1]
        assert 5 not in M[2]
        assert 4 not in M[3]
        assert all(len(M[v]) == 4 for v in range(1, 7))

    def test_medial_is_the_validators_facial_adjacency(self):
        # the medial edges are exactly the 2-edge facial windows; on faces
        # that revisit a vertex, sharing an endpoint and a face is not
        # enough, and at a degree-2 vertex both corners join the same pair
        rng = random.Random("medial adjacency")
        embeddings = [load_rotation(text) for text in _small_embeddings(rng)]
        for _ in range(300):
            n = rng.randint(4, 12)
            if rng.random() < 0.5:
                embeddings.append(random_triangulation(n, rng))
            else:
                embeddings.append(
                    plane_with_long_faces(n, rng.randint(n, 2 * n), rng))
        for pg in embeddings:
            M = medial_graph(pg)
            windows = sorted(w for w in facial_windows(pg, edges=True)
                             if len(w) == 2)
            assert medial_pairs(M) == windows, pg.to_text()
            # laid out as g.adj: index 0 empty, entries ascending, symmetric
            assert len(M) == pg.graph.m + 1 and M[0] == ()
            assert all(list(M[a]) == sorted(set(M[a])) for a in range(len(M)))
            assert all(a in M[b] for a in range(len(M)) for b in M[a])

    def test_medial_skips_an_edge_walked_both_ways(self):
        # star K_{1,3}: one face 1 2 1 3 1 4; each leaf turns the walk back
        M = medial_graph(load_rotation("4 3\n1: 2 3 4\n2: 1\n3: 1\n4: 1\n"))
        assert medial_pairs(M) == [(1, 2), (1, 3), (2, 3)]


class TestRandomTriangulation:
    @given(st.integers(3, 12), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_is_maximal_planar(self, n, seed):
        pg = random_triangulation(n, random.Random(seed))
        assert pg.graph.n == n
        assert pg.graph.m == 3 * n - 6
        assert len(pg.faces) == 2 * n - 4
        assert all(len(f) == 3 for f in pg.faces)

    def test_four_vertices_give_k4(self):
        pg = random_triangulation(4, random.Random(0))
        assert pg.graph.m == 6
        assert all(pg.graph.degree(v) == 3 for v in range(1, 5))

    @given(st.integers(4, 12), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_medial_is_four_regular(self, n, seed):
        pg = random_triangulation(n, random.Random(seed))
        M = medial_graph(pg)
        assert all(len(M[v]) == 4 for v in range(1, len(M)))

    def test_too_small(self):
        with pytest.raises(ValueError):
            random_triangulation(2, random.Random(0))

    def test_deterministic_for_fixed_seed(self):
        a = random_triangulation(9, random.Random(7))
        b = random_triangulation(9, random.Random(7))
        assert a.rotation == b.rotation


def _relabeled_rotation(n, rotation, rng):
    """Rotation text for ``rotation`` (vertex -> neighbor list) on 1..n
    under a random relabeling, so edge ids and face starts vary."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    new = {perm[v - 1]: [perm[w - 1] for w in rot] for v, rot in rotation.items()}
    m = sum(map(len, new.values())) // 2
    return f"{n} {m}\n" + "".join(
        f"{v}: " + " ".join(map(str, new.get(v, ()))) + "\n"
        for v in range(1, n + 1))


def _small_embeddings(rng):
    """Rotation texts of paths, stars (shuffled rotation at the center),
    cycles, K4 and edgeless graphs, randomly relabeled."""
    for n in range(1, 9):
        path = {v: [w for w in (v - 1, v + 1) if 1 <= w <= n]
                for v in range(1, n + 1)}
        yield _relabeled_rotation(n, path, rng)
        yield _relabeled_rotation(n, {v: [] for v in range(1, n + 1)}, rng)
        if n >= 2:
            leaves = list(range(2, n + 1))
            rng.shuffle(leaves)
            star = {1: leaves, **{w: [1] for w in leaves}}
            yield _relabeled_rotation(n, star, rng)
        if n >= 3:
            cycle = {v: [v % n + 1, (v - 2) % n + 1] for v in range(1, n + 1)}
            yield _relabeled_rotation(n, cycle, rng)
    yield K4_ROT
    yield _relabeled_rotation(4, {1: [2, 3, 4], 2: [3, 1, 4], 3: [1, 2, 4],
                                  4: [3, 2, 1]}, rng)


def _seeded_embeddings():
    rng = random.Random(20261021)
    for text in _small_embeddings(rng):
        yield load_rotation(text)
    for _ in range(40):
        yield random_triangulation(rng.randint(3, 40), rng)
    for _ in range(40):
        n = rng.randint(4, 30)
        yield plane_with_long_faces(n, rng.randint(1, 2 * n), rng)


def test_embeddings_match_their_pinned_digest():
    """Faces, ``graph.adj`` and the medial adjacency of seeded
    triangulations, plane graphs with long faces, paths, stars, cycles, K4
    and edgeless graphs, hashed together; pinned before the medial graph
    became a table built from rotation corners."""
    h = hashlib.sha256()
    for pg in _seeded_embeddings():
        for part in (pg.faces, pg.graph.adj, medial_graph(pg)):
            h.update(repr(part).encode() + b"\n")
    assert h.hexdigest() == \
        "918c2bd37a32164c541a2eaca5f2fdb9ea7160ae9ee3a8824393e8efc9a239d3"


def test_edge_type_one_rows_are_the_medial_table():
    """The partners of e on its type-1 facial edge windows, in row order,
    are e's entries in the medial table, so the table can stand for the
    rows; pinned before the table became type 1's candidate table."""
    for pg in _seeded_embeddings():
        if not pg.graph.m:
            continue
        fam = facial_thue_edge_family(pg, 1)
        M = medial_graph(pg)
        for e in range(1, pg.graph.m + 1):
            rows = fam.witness_rows(e, 1)[0]
            partners = tuple(f for row in rows for f in row if f != e)
            assert len(partners) == len(rows)
            assert partners == M[e], (pg.to_text(), e, rows)


def _mutated_rotation(rotation, n, m, rng):
    """Rotation text with one or two seeded faults: a neighbor dropped,
    repeated, out of range, not an integer or the vertex itself, a line
    duplicated, a vertex line out of range, an edge dropped from both
    sides, two neighbors swapped, or a header m off by one."""
    rot = {v: list(r) for v, r in rotation.items()}
    extra = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(10)
        v = rng.randint(1, n)
        r = rot[v]
        at = rng.randint(0, len(r))
        if kind == 0 and r:
            del r[rng.randrange(len(r))]
        elif kind == 1 and r:
            r.insert(at, rng.choice(r))
        elif kind == 2:
            r.insert(at, rng.choice((0, -1, n + 1, n + 7)))
        elif kind == 3:
            r.insert(at, v)
        elif kind == 4:
            extra.append(f"{v}: " + " ".join(map(str, r)))
        elif kind == 5:
            m += rng.choice((-1, 1))
        elif kind == 6:
            extra.append(f"{rng.choice((0, n + 1))}: 1")
        elif kind == 7:
            r.insert(at, "x")
        elif kind == 8:
            both = [w for w in r if w != v and v in rot.get(w, ())]
            if both:
                w = rng.choice(both)
                r.remove(w)
                rot[w].remove(v)
                m -= 1
        elif kind == 9 and len(r) >= 3:
            i = rng.randrange(len(r) - 1)
            r[i], r[i + 1] = r[i + 1], r[i]
    lines = [f"{v}: " + " ".join(map(str, rot[v])) for v in range(1, n + 1)]
    for line in extra:
        lines.insert(rng.randint(0, len(lines)), line)
    return "\n".join([f"{n} {m}", *lines]) + "\n"


def test_rotation_refusals_match_their_pinned_digest():
    """The exception type and message of `load_rotation`, or the faces it
    traced, over a seeded corpus of mutated rotation texts, read alone and
    against the unmutated graph, hashed together; pinned before the
    rotation lines were checked in bulk."""
    rng = random.Random(20261022)
    h = hashlib.sha256()
    for pg in _seeded_embeddings():
        g = pg.graph
        for _ in range(6):
            text = _mutated_rotation(pg.rotation, g.n, g.m, rng)
            for graph in (None, g):
                try:
                    outcome = repr(load_rotation(text, graph=graph).faces)
                except ValueError as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                h.update(outcome.encode() + b"\n")
    assert h.hexdigest() == \
        "7613a217964d439e67b84b4c6d6cf46a79feb8cd68766c7f9e46bec99a8dda86"
