"""Shared fixtures and strategies for the test suite."""

import math
import random

from hypothesis import strategies as st

from recolor.engine import EngineInput
from recolor.families import (
    acyclic_gamma_family,
    acyclic_v1_family,
    acyclic_v2_family,
    facial_thue_edge_family,
    facial_thue_vertex_family,
    nonrepetitive_edge_family,
    nonrepetitive_vertex_family,
)
from recolor.graphs import Graph
from recolor.planar import PlaneGraph, random_triangulation

K3_TEXT = "3 3\n1 2\n2 3\n1 3\n"
C4_TEXT = "4 4\n1 2\n2 3\n3 4\n4 1\n"
STAR5_TEXT = "5 4\n1 2\n1 3\n1 4\n1 5\n"

PETERSEN_EDGES = [
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
    (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),
    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
]

# 3 sits in S(1) but 1 does not sit in S(3): vertex 3's distance-2
# vertices 6 and 7 each share two neighbors with it, crowding 1 out.
ASYMMETRY_EDGES = [(1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6), (4, 7), (5, 7)]


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph(n, edges)


@st.composite
def graphs(draw, min_n=1, max_n=12, max_p=0.6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    p = draw(st.floats(min_value=0.0, max_value=max_p))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_graph(n, p, random.Random(seed))


def neighbors2(g: Graph, v: int) -> list[int]:
    """Vertices at distance exactly 2 from v, sorted by the vertex order."""
    out = {w for u in g.adj[v] for w in g.adj[u]}
    out.discard(v)
    out.difference_update(g.nbr[v])
    return sorted(out, key=lambda w: g.rank[w])


def common_degree(g: Graph, u: int, v: int) -> int:
    """Number of common neighbors of the non-adjacent pair u, v."""
    return len(g.nbr[u] & g.nbr[v])


def reference_special(g: Graph, cap: int, v: int) -> tuple[int, ...]:
    """S(v) by set intersections: the top ``cap`` distance-2 vertices by
    (common-neighbor count, vertex order), best first; kept as the
    reference for the one-pass count of `special_sets`."""
    n2 = neighbors2(g, v)
    size = min(cap, len(n2))
    if size <= 0:
        return ()
    ranked = sorted(n2, key=lambda u: (common_degree(g, v, u), g.rank[u]))
    return tuple(reversed(ranked[-size:]))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def prism_graph(k: int) -> Graph:
    """The prism C_k x K2: cycles 1..k and k+1..2k joined by rungs i, k+i."""
    return Graph(2 * k, [(i, i % k + 1) for i in range(1, k + 1)]
                 + [(k + i, k + i % k + 1) for i in range(1, k + 1)]
                 + [(i, k + i) for i in range(1, k + 1)])


def random_tree(n: int, rng: random.Random) -> Graph:
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    return Graph(n, edges)


def assert_roundtrip(g, fam, inp):
    """Run, decode, and check the invertibility and allowedness contracts."""
    from recolor.engine import allowedness_witness, decode, run

    res = run(g, fam, inp)
    decoded = decode(g, fam, res.coloring, res.record, lists=inp.lists)
    assert tuple(decoded) == inp.make_vector()[: res.steps_used]
    if res.coloring.colored:
        assert allowedness_witness(fam, res.coloring, res.surviving_order) is None
    sizes = {m.type_id: m.uncolor_size for m in fam.metas}
    level = 0
    for step in res.record.steps:
        level += 1 if step is None else 1 - sizes[step[0]]
    assert level == len(res.coloring.colored)
    return res


def plane_with_long_faces(n: int, drop: int, rng: random.Random):
    """A random stacked triangulation on n vertices with up to `drop` edges
    deleted from its rotation system, keeping the graph connected; each
    deletion merges two faces, so faces of length >= 4 appear."""
    tri = random_triangulation(n, rng)
    rotation = {v: list(rot) for v, rot in tri.rotation.items()}

    def connected():
        seen, stack = {1}, [1]
        while stack:
            for w in rotation[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    edges = tri.graph.edges
    for u, v in rng.sample(edges, min(drop, len(edges))):
        iu, iv = rotation[u].index(v), rotation[v].index(u)
        del rotation[u][iu], rotation[v][iv]
        if not connected():
            rotation[u].insert(iu, v)
            rotation[v].insert(iv, u)
    kept = {(min(u, v), max(u, v)) for u, rot in rotation.items() for v in rot}
    return PlaneGraph(Graph(n, kept), {v: tuple(r) for v, r in rotation.items()})


def grid_embedding(a: int) -> PlaneGraph:
    """The a x a grid, vertex r * a + c + 1 at row r and column c, each
    rotation listing the neighbors east, north, west, south: its inner faces
    are 4-cycles and its outer face has length 4(a - 1)."""
    def vertex(r, c):
        return r * a + c + 1

    rotation = {
        vertex(r, c): tuple(vertex(r + dr, c + dc)
                            for dr, dc in ((0, 1), (-1, 0), (0, -1), (1, 0))
                            if 0 <= r + dr < a and 0 <= c + dc < a)
        for r in range(a) for c in range(a)}
    edges = [(u, w) for u, rot in rotation.items() for w in rot if u < w]
    return PlaneGraph(Graph(a * a, edges), rotation)


def facial_windows(pg: PlaneGraph, *, edges: bool):
    """Canonical simple windows along face boundaries, each once: faces in
    order, then sizes ascending, then offsets.  The reference for the
    in-place facial check in `check_nonrepetitive` and for the medial graph.

    Vertex windows are tuples of vertices; edge windows are tuples of edge
    ids, kept vertex-simple so they are genuine paths.
    """
    seen = set()
    for face in pg.faces:
        f = len(face)
        for size in range(2, f + 1):
            for off in range(f):
                darts = [face[(off + i) % f] for i in range(size)]
                verts = [darts[0][0]] + [d[1] for d in darts]
                if edges:
                    if len(set(verts)) != size + 1:
                        continue
                    window = tuple(
                        pg.graph.edge_index[(min(u, v), max(u, v))]
                        for u, v in darts)
                else:
                    if len(set(verts[:-1])) != size:
                        continue
                    window = tuple(verts[:-1])
                canon = min(window, tuple(reversed(window)))
                if canon not in seen:
                    seen.add(canon)
                    yield canon


def _plain(lo, hi, p_lo, p_hi):
    def make(rng):
        return random_graph(rng.randint(lo, hi), rng.uniform(p_lo, p_hi), rng)
    return make


def _plane(lo, hi):
    """Triangulations, or plane graphs with longer faces (half of the time)."""
    def make(rng):
        n = rng.randint(lo, hi)
        if rng.random() < 0.5:
            return random_triangulation(n, rng)
        return plane_with_long_faces(n, rng.randint(n, 2 * n), rng)
    return make


ALPHAS = (0.05, 0.25, 1.0)  # small special sets let the cycle types fire

# Fuzzed instances of every family, small enough that many runs stay cheap:
# family -> (rng -> graph or plane graph, (host, rng) -> family, kappa range)
FAMILY_CASES = {
    "acyclic-gamma": (
        _plain(8, 13, 0.3, 0.6),
        lambda g, rng: acyclic_gamma_family(g, rng.randint(1, 3)), (3, 6)),
    "acyclic-v1": (
        _plain(8, 14, 0.3, 0.6),
        lambda g, rng: acyclic_v1_family(g, rng.choice(ALPHAS)), (3, 6)),
    "acyclic-v2": (
        _plain(8, 13, 0.3, 0.6),
        lambda g, rng: acyclic_v2_family(g, rng.choice(ALPHAS)), (3, 6)),
    "nonrepetitive-vertex": (
        _plain(4, 9, 0.25, 0.6),
        lambda g, rng: nonrepetitive_vertex_family(g), (3, 6)),
    "nonrepetitive-edge": (
        _plain(4, 7, 0.25, 0.6),
        lambda g, rng: nonrepetitive_edge_family(g), (3, 6)),
    "facial-thue-vertex": (
        _plane(4, 14),
        lambda pg, rng: facial_thue_vertex_family(pg), (2, 5)),
    "facial-thue-edge": (
        _plane(5, 12),
        lambda pg, rng: facial_thue_edge_family(pg, rng.randint(1, pg.graph.m)),
        (2, 5)),
}


def fuzzed_instance(name: str, rng: random.Random, kappas=None):
    """(graph, family, seeded engine input) for one instance of `name`;
    `kappas` = (lo, hi) overrides the family's kappa range."""
    make_graph, make_family, (lo, hi) = FAMILY_CASES[name]
    host = make_graph(rng)
    fam = make_family(host, rng)
    lo, hi = kappas or (lo, hi)
    inp = EngineInput(rng.randint(lo, hi), seed=rng.randrange(2 ** 31),
                      budget=rng.randint(0, 12 * fam.n_objects))
    return getattr(host, "graph", host), fam, inp


def _excursion_powers(terms, t_max: int, p_max: int):
    """b_0..b_{t_max} plus coefficient arrays of B^p for p = 0..p_max, by
    the O(t^3) power recurrence the record series used before Lagrange
    inversion; kept as the reference for `recolor.records`."""
    p_needed = max(p_max, max(s for _, s in terms))
    b = [1]
    pows = [[1] for _ in range(p_needed + 1)]  # [y^0] B^p = 1
    for t in range(1, t_max + 1):
        # extend every power array to index t-1 before using it; the new
        # coefficient b_t only touches indices >= t
        for p in range(1, p_needed + 1):
            m = t - 1
            if len(pows[p]) <= m:
                prev = pows[p - 1]
                pows[p].append(sum(b[i] * prev[m - i] for i in range(m + 1)))
        b.append(sum(cnt * pows[s][t - s]
                     for cnt, s in terms if cnt and t - s >= 0))
        pows[0].append(0)
    for p in range(1, p_needed + 1):
        if len(pows[p]) <= t_max:
            prev = pows[p - 1]
            pows[p].append(sum(b[i] * prev[t_max - i]
                               for i in range(t_max + 1)))
    return b, pows


def _floored(terms):
    return tuple((math.floor(c), int(s)) for c, s in terms)


def reference_count_b(terms, t_max: int) -> list[int]:
    """`count_b` by the reference power recurrence."""
    return _excursion_powers(_floored(terms), t_max, 1)[0]


def reference_count_r(terms, n: int, t_max: int) -> list[int]:
    """`count_r` by the reference power recurrence."""
    _, pows = _excursion_powers(_floored(terms), t_max, min(n, t_max) + 1)
    return [sum(pows[ell + 1][t - ell] for ell in range(min(n, t) + 1))
            for t in range(t_max + 1)]
