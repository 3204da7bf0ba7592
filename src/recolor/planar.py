"""Combinatorial plane embeddings: face tracing, medial graphs, random
triangulations.

An embedding is a rotation system, the counterclockwise neighbor order around
each vertex.  Faces are traced with the next-edge rule: the successor of the
directed edge (u, v) is (v, w) where w follows u in the rotation at v.  Every
directed edge lies on exactly one face walk, and for connected embeddings the
walk count satisfies Euler's formula.

Nothing here tests planarity; the rotation system is taken at face value, so
embeddings on other surfaces work too (faces are just the traced walks).
"""

from __future__ import annotations

import random

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
        for v in range(1, graph.n + 1):
            rot = tuple(rotation.get(v, ()))
            if sorted(rot) != list(graph.adj[v]):
                raise EmbeddingError(
                    f"rotation at vertex {v} is not a permutation of its neighbors"
                )
        self.graph = graph
        self.rotation = {v: tuple(rotation.get(v, ())) for v in range(1, graph.n + 1)}
        self.faces = self._trace()
        if self._connected() and self.graph.m > 0:
            euler = self.graph.n - self.graph.m + len(self.faces)
            if euler != 2:
                raise EmbeddingError(
                    f"face tracing gave n - m + f = {euler}, expected 2 "
                    "for a connected plane embedding"
                )

    def _trace(self):
        """Face walks from the darts in ascending order, skipping traced
        ones: the first untraced dart is the smallest of its face, so every
        walk starts canonically and the walks come out sorted.  One
        successor map per vertex (each neighbor to the one after it in the
        rotation) makes every step O(1)."""
        succ = {v: dict(zip(rot, rot[1:] + rot[:1]))
                for v, rot in self.rotation.items()}
        traced = set()
        faces = []
        for start in ((u, v) for u in range(1, self.graph.n + 1)
                      for v in self.graph.adj[u]):
            if start in traced:
                continue
            walk = []
            e = start
            while True:
                walk.append(e)
                traced.add(e)
                u, v = e
                e = v, succ[v][u]
                if e == start:
                    break
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
        if ":" not in line:
            raise GraphFormatError("expected 'v: w1 w2 ...'", no)
        head, _, tail = line.partition(":")
        try:
            v = int(head)
            nbrs = tuple(int(x) for x in tail.split())
        except ValueError:
            raise GraphFormatError("expected integers in rotation line", no) from None
        if not 1 <= v <= n:
            raise GraphFormatError(f"vertex {v} out of range 1..{n}", no)
        if v in rotation:
            raise GraphFormatError(f"vertex {v} listed twice", no)
        for w in nbrs:
            if not 1 <= w <= n:
                raise GraphFormatError(
                    f"neighbor {w} of vertex {v} out of range 1..{n}", no)
            if w == v:
                raise GraphFormatError(f"loop edge at vertex {v}", no)
        rotation[v] = nbrs
    edges = set()
    for v, nbrs in rotation.items():
        for w in nbrs:
            edges.add((min(v, w), max(v, w)))
    derived = Graph(n, edges)
    if derived.m != m:
        raise GraphFormatError(f"header announced {m} edges, rotations give {derived.m}")
    members = {v: set(nbrs) for v, nbrs in rotation.items()}
    for v, nbrs in rotation.items():
        if len(nbrs) != len(members[v]):
            raise GraphFormatError(f"rotation at {v} repeats a neighbor")
        for w in nbrs:
            if v not in members.get(w, ()):
                raise GraphFormatError(f"edge ({v},{w}) missing from rotation at {w}")
    if graph is not None:
        if graph.n != derived.n or graph.edges != derived.edges:
            raise GraphFormatError("rotation system does not match the graph file")
        derived = graph
    return PlaneGraph(derived, rotation)


def medial_graph(pg: PlaneGraph) -> Graph:
    """Graph on the edge ids of the base graph; two ids are adjacent when
    the edges are facially adjacent, that is consecutive on some face walk.
    One sweep joins the edges of each pair of consecutive darts, skipping a
    pair that is one edge walked both ways (the walk turning at a leaf)."""
    index = pg.graph.edge_index
    medial_edges = set()
    for face in pg.faces:
        ids = [index[(u, v) if u < v else (v, u)] for u, v in face]
        for a, b in zip(ids, ids[1:] + ids[:1]):
            if a != b:
                medial_edges.add((a, b) if a < b else (b, a))
    return Graph(pg.graph.m, medial_edges)


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
