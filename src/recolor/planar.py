"""Combinatorial plane embeddings: face tracing, medial adjacency, random
triangulations.

An embedding is a rotation system, the counterclockwise neighbor order around
each vertex.  Faces are traced with the next-edge rule: the successor of the
directed edge (u, v) is (v, w) where w follows u in the rotation at v.  Every
directed edge lies on exactly one face walk, and for connected embeddings the
walk count satisfies Euler's formula.  Each step of a walk turns at one corner
(u, v, w) of the rotation at v, so `medial_graph` reads the facial adjacency
of the edges straight off the corners, as a table laid out like `Graph.adj`.

Nothing here tests planarity; the rotation system is taken at face value, so
embeddings on other surfaces work too (faces are just the traced walks).
"""

from __future__ import annotations

import random
from itertools import repeat

from .graphs import Graph, GraphFormatError, _clean_lines, _header


class EmbeddingError(ValueError):
    """Rotation lists inconsistent with the underlying graph."""


class PlaneGraph:
    """A graph together with a rotation system and its traced faces.

    ``faces`` is a tuple of boundary walks, each a tuple of directed edges,
    canonicalized to start at the lexicographically smallest directed edge
    and sorted, so equal embeddings trace equal face lists.
    """

    __slots__ = ("graph", "rotation", "faces")

    def __init__(self, graph: Graph, rotation: dict[int, tuple[int, ...]]):
        n = graph.n
        for v in rotation:
            if not 1 <= v <= n:
                raise EmbeddingError(f"rotation given at vertex {v}, outside 1..{n}")
        rotation = {v: tuple(rotation.get(v, ())) for v in range(1, n + 1)}
        for v, rot in rotation.items():
            if tuple(sorted(rot)) != graph.adj[v]:
                raise EmbeddingError(
                    f"rotation at vertex {v} is not a permutation of its neighbors"
                )
        self.graph = graph
        self.rotation = rotation
        self.faces = self._trace()
        if self._connected() and self.graph.m > 0:
            euler = self.graph.n - self.graph.m + len(self.faces)
            if euler != 2:
                raise EmbeddingError(
                    f"face tracing gave n - m + f = {euler}, expected 2 "
                    "for a connected plane embedding"
                )

    def _trace(self):
        """Face walks from the darts in ascending order.  ``succ`` maps each
        dart (u, v) to the next one on its face, (v, w) with w after u in
        the rotation at v, and a walk pops every dart it passes, so the
        first dart still in ``succ`` is the smallest of its face: every walk
        starts canonically and the walks come out sorted."""
        succ = {}
        for v, rot in self.rotation.items():
            succ.update(zip(zip(rot, repeat(v)),
                            zip(repeat(v), rot[1:] + rot[:1])))
        faces = []
        for u, nbrs in enumerate(self.graph.adj):
            for v in nbrs:
                start = (u, v)
                if start not in succ:
                    continue
                walk = [start]
                e = succ.pop(start)
                while e != start:
                    walk.append(e)
                    e = succ.pop(e)
                faces.append(tuple(walk))
        return tuple(faces)

    def _connected(self) -> bool:
        if self.graph.n == 0:
            return True
        seen = {1}
        stack = [1]
        while stack:
            u = stack.pop()
            for w in self.graph.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.graph.n

    def to_text(self) -> str:
        lines = [f"{self.graph.n} {self.graph.m}"]
        for v in range(1, self.graph.n + 1):
            lines.append(f"{v}: " + " ".join(map(str, self.rotation[v])))
        return "\n".join(lines) + "\n"


def load_rotation(text: str, graph: Graph | None = None) -> PlaneGraph:
    """Parse a rotation system: "n m" header, then one "v: w1 w2 ..." line
    per vertex (counterclockwise).  Edges are derived from the lists; when
    ``graph`` is supplied it must match them."""
    lines = list(_clean_lines(text))
    n, m = _header(lines)
    rotation: dict[int, tuple[int, ...]] = {}
    for no, line in lines[1:]:
        head, colon, tail = line.partition(":")
        if not colon:
            raise GraphFormatError("expected 'v: w1 w2 ...'", no)
        try:
            v = int(head)
            nbrs = tuple(map(int, tail.split()))
        except ValueError:
            raise GraphFormatError("expected integers in rotation line", no) from None
        if not 1 <= v <= n:
            raise GraphFormatError(f"vertex {v} out of range 1..{n}", no)
        if v in rotation:
            raise GraphFormatError(f"vertex {v} listed twice", no)
        if nbrs and (min(nbrs) < 1 or max(nbrs) > n or v in nbrs):
            for w in nbrs:  # name the first offender
                if not 1 <= w <= n:
                    raise GraphFormatError(
                        f"neighbor {w} of vertex {v} out of range 1..{n}", no)
                if w == v:
                    raise GraphFormatError(f"loop edge at vertex {v}", no)
        rotation[v] = nbrs
    # each edge as written from its smaller and from its larger endpoint
    lo = {(v, w) for v, nbrs in rotation.items() for w in nbrs if v < w}
    hi = {(w, v) for v, nbrs in rotation.items() for w in nbrs if w < v}
    found = len(lo | hi)
    if found != m:
        raise GraphFormatError(f"header announced {m} edges, rotations give {found}")
    if lo != hi or sum(map(len, rotation.values())) != 2 * m:
        # some edge is written from one side only, or some dart twice
        members = {v: set(nbrs) for v, nbrs in rotation.items()}
        for v, nbrs in rotation.items():
            if len(nbrs) != len(members[v]):
                raise GraphFormatError(f"rotation at {v} repeats a neighbor")
            for w in nbrs:
                if v not in members.get(w, ()):
                    raise GraphFormatError(f"edge ({v},{w}) missing from rotation at {w}")
    derived = Graph(n, lo)
    if graph is not None:
        if graph.n != derived.n or graph.edges != derived.edges:
            raise GraphFormatError("rotation system does not match the graph file")
        derived = graph
    return PlaneGraph(derived, rotation)


def medial_graph(pg: PlaneGraph) -> tuple[tuple[int, ...], ...]:
    """The medial adjacency, laid out as ``g.adj`` over the edge ids of the
    base graph (index 0 empty, each entry ascending): two ids are adjacent
    when the edges are facially adjacent, that is consecutive on some face
    walk.  Consecutive darts (u, v), (v, w) on a walk are exactly the
    corners (u, v, w) of the rotation at v, w after u, so one pass over the
    corners joins the two edges of each, skipping a corner whose two edges
    coincide (the walk turning back at a leaf)."""
    index = pg.graph.edge_index
    near = [set() for _ in range(pg.graph.m + 1)]
    for v, rot in pg.rotation.items():
        ids = [index[(v, w) if v < w else (w, v)] for w in rot]
        for a, b in zip(ids, ids[1:] + ids[:1]):
            if a != b:
                near[a].add(b)
                near[b].add(a)
    return tuple(tuple(sorted(ids)) for ids in near)


def random_triangulation(n: int, rng: random.Random) -> PlaneGraph:
    """Random stacked triangulation on n >= 3 vertices.

    Starts from a triangle and repeatedly drops a new vertex into a uniformly
    random face, connecting it to the three corners.  Every face stays a
    triangle, so the result is a maximal plane graph.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rotation = {1: [2, 3], 2: [3, 1], 3: [1, 2]}
    # directed triangles; both orientations of the starting triangle are faces
    faces = [(1, 2, 3), (1, 3, 2)]
    for w in range(4, n + 1):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        rotation[w] = [c, b, a]
        for x, y in ((a, b), (b, c), (c, a)):
            rot = rotation[y]
            rot.insert(rot.index(x) + 1, w)
        faces.extend([(a, b, w), (b, c, w), (c, a, w)])
    edges = {(min(v, w), max(v, w)) for v, rot in rotation.items() for w in rot}
    g = Graph(n, edges)
    return PlaneGraph(g, {v: tuple(rot) for v, rot in rotation.items()})
