"""Facially non-repetitive families on plane graphs.

Both families are repetition families whose type-j witnesses are the simple
windows of 2j consecutive objects on a face walk through the anchor, read
by one window walk (`_FacialFamily._windows`), with the class ceilings of
`bounds.ceilings`.  The vertex variant's type 1 is the neighbor table,
since a facial 2-window is an edge and every edge lies on a face.  The edge variant trades generality for sharper ceilings:
the coloring order is constrained so every anchor has an uncolored facially
adjacent edge e' (one consecutive with it on a face walk, an edge of
`planar.medial_graph`), and its class list (`_classes`, which ranks hits
and reads classes back) keeps only the witness paths avoiding e' (at most
one on the face shared with e', 2j on the anchor's other face).
That requires one distinguished edge to stay uncolored forever and the
uncolored edge set to stay connected in the medial graph; the traversal
maintains both by coloring leaves of a medial spanning tree rooted at the
reserved edge.

Windows are not searched by color: a family's `fired` yields every window
type whose 2j objects fit both the colored set and the longest face (a
window fits only on a face of length at least 2j), capped at the declared
types, and `detect` scans the anchor's memoized windows of each type in
turn.
"""

from __future__ import annotations

import heapq
from collections import deque

from ..bounds import ceilings
from ..errors import MedialConnectivityError
from ..planar import PlaneGraph, medial_graph
from .base import Family, Repetition


class _FacialFamily(Family):
    """Repetition families whose witnesses are windows along face walks.

    The objects are the vertices, or with ``on_edges`` set the edge ids, and a
    type-j row is a window of 2j consecutive objects on some face walk whose
    vertices are distinct, in its order-smaller orientation.  ``widest`` is
    the longest face.
    """

    on_edges = False

    def __init__(self, name: str, pg: PlaneGraph, **kw):
        self.pg = pg
        self.g = g = pg.graph
        self._occurrences = None
        super().__init__(name, g.m if self.on_edges else g.n,
                         ceilings(name, g.max_degree, g.n), Repetition,
                         widest=max(map(len, pg.faces), default=0), **kw)

    def fired(self, coloring, x):
        """Every window type whose width fits both the colored set and the
        longest face; windows are not searched by color."""
        fits = min(len(coloring.colored), self.widest) // 2
        return range(len(self.tables) + 1, min(len(self.metas), fits) + 1)

    def _enumerate(self, x, j):
        key = self._row_key
        return {min(w, w[::-1], key=key) for w in self._windows(x, 2 * j)}

    def _windows(self, x, length: int):
        """Yield each window of ``length`` consecutive objects on a face
        walk that covers x and spans distinct vertices (``length`` of them,
        or ``length + 1`` for edges), once per (face, offset).  Only the
        offsets covering an occurrence of x are visited; a simple window
        holds x once, so it is reached from one occurrence only."""
        if length < 2:
            raise ValueError("a window needs at least 2 objects")
        if self._occurrences is None:
            self._occurrences = self._index()
        span = length + self.on_edges
        for walk, objs, p in self._occurrences[x]:
            f = len(walk) // 2
            if f < span:
                continue
            for s in range(p - length + 1, p + 1):
                s %= f
                if len(set(walk[s:s + span])) == span:
                    yield objs[s:s + length]

    def _index(self):
        """For each object, its occurrences (walk, objs, position) on the
        faces: ``walk`` is the face's vertex walk and ``objs`` its objects
        (the walk itself, or the edge id of each dart), both written twice
        so that a window wrapping around the face is one slice."""
        occurrences = [[] for _ in range(self.n_objects + 1)]
        index = self.g.edge_index
        for face in self.pg.faces:
            walk = tuple(u for u, _ in face)
            walk += walk
            objs = walk
            if self.on_edges:
                objs = tuple(index[(u, v) if u < v else (v, u)] for u, v in face)
                objs += objs
            for p in range(len(face)):
                occurrences[objs[p]].append((walk, objs, p))
        return occurrences


class _FacialVertexFamily(_FacialFamily):
    def __init__(self, pg: PlaneGraph):
        g = pg.graph
        super().__init__("facial-thue-vertex", pg, tables=(g.adj,), rank=g.rank)


def facial_thue_vertex_family(pg: PlaneGraph) -> _FacialVertexFamily:
    """Type j: a repetition on a facial 2j-vertex path through the anchor;
    the anchor sees at most Delta faces and 2j window positions per face."""
    return _FacialVertexFamily(pg)


class _FacialEdgeFamily(_FacialFamily):
    on_edges = True

    def __init__(self, pg: PlaneGraph, e_star: int):
        if not 1 <= e_star <= pg.graph.m:
            raise ValueError(f"reserved edge id {e_star} out of range")
        super().__init__("facial-thue-edge", pg)
        self.e_star = e_star
        self.medial = medial_graph(pg)

    def _uncolored_neighbor(self, e: int, colored) -> int:
        for u in self.medial.adj[e]:
            if u not in colored:
                return u
        raise MedialConnectivityError(
            f"anchor edge {e} has no uncolored facial neighbor"
        )

    def next_uncolored(self, colored):
        """Smallest-index leaf of the breadth-first spanning tree of the
        medial subgraph induced by the uncolored edges, rooted at the
        reserved edge; coloring a leaf keeps the rest connected."""
        if self.e_star in colored:
            raise MedialConnectivityError("the reserved edge must stay uncolored")
        uncolored = set(range(1, self.n_objects + 1)) - set(colored)
        if uncolored == {self.e_star}:
            return None
        reached = {self.e_star}
        interior = set()
        queue = deque([self.e_star])
        while queue:
            x = queue.popleft()
            for y in self.medial.adj[x]:
                if y in uncolored and y not in reached:
                    reached.add(y)
                    interior.add(x)
                    queue.append(y)
        if reached != uncolored:
            raise MedialConnectivityError(
                "uncolored edges induce a disconnected medial subgraph"
            )
        return min(reached - interior - {self.e_star})

    def frontier(self) -> "_LeafFrontier":
        return _LeafFrontier(self)

    def _classes(self, e, j, colored):
        """The type-j witness rows at e that avoid its uncolored facial
        neighbor e', in order; a hit is fully colored, so it avoids e'."""
        ep = self._uncolored_neighbor(e, colored)
        return [row for row in self.witness_rows(e, j)[0] if ep not in row]


class _LeafFrontier:
    """`_FacialEdgeFamily.next_uncolored` kept incrementally for one run.

    Holds the breadth-first tree of the uncolored medial subgraph rooted at
    the reserved edge, with a min-heap of its leaves (entries whose node has
    since gained a child or been colored are dropped lazily).  Coloring a
    leaf leaves exactly the tree of the remaining edges, since the leaf
    discovered nothing, so `took` detaches it and its parent becomes a leaf
    when it was the only child.  Releasing exactly the leaf just taken puts
    it back; any other release marks the tree stale, and the next `pick`
    rebuilds it from scratch with the same checks as `next_uncolored`.
    """

    __slots__ = ("fam", "uncolored", "parent", "children", "heap", "queued",
                 "stale", "last")

    def __init__(self, fam: _FacialEdgeFamily):
        m = fam.n_objects
        self.fam = fam
        self.uncolored = bytearray(b"\0" + b"\1" * m)
        self.parent = [0] * (m + 1)
        self.children = [0] * (m + 1)
        self.heap: list[int] = []
        self.queued = bytearray(m + 1)
        self.stale = True
        self.last = None  # the leaf `took` detached, until the next release

    def _rebuild(self) -> None:
        root = self.fam.e_star
        uncolored, parent, adj = self.uncolored, self.parent, self.fam.medial.adj
        if not uncolored[root]:
            raise MedialConnectivityError("the reserved edge must stay uncolored")
        children = [0] * len(parent)
        reached = bytearray(len(parent))
        reached[root] = 1
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if uncolored[y] and not reached[y]:
                    reached[y] = 1
                    parent[y] = x
                    children[x] += 1
                    queue.append(y)
        if reached != uncolored:
            raise MedialConnectivityError(
                "uncolored edges induce a disconnected medial subgraph"
            )
        self.children = children
        self.heap = [x for x in range(1, len(parent))
                     if reached[x] and not children[x] and x != root]
        self.queued = bytearray(len(parent))
        for x in self.heap:
            self.queued[x] = 1
        self.stale = False

    def pick(self):
        if self.stale:
            self._rebuild()
        heap, uncolored, children = self.heap, self.uncolored, self.children
        while heap:
            x = heap[0]
            if uncolored[x] and not children[x]:
                return x
            heapq.heappop(heap)
            self.queued[x] = 0
        return None

    def took(self, v: int) -> None:
        heapq.heappop(self.heap)
        self.queued[v] = 0
        self.uncolored[v] = 0
        p = self.parent[v]
        self.children[p] -= 1
        if not self.children[p] and p != self.fam.e_star and not self.queued[p]:
            heapq.heappush(self.heap, p)
            self.queued[p] = 1
        self.last = v

    def released(self, target) -> None:
        last, self.last = self.last, None
        for u in target:
            self.uncolored[u] = 1
        if self.stale:
            return
        if len(target) == 1 and target[0] == last:
            self.children[self.parent[last]] += 1
            heapq.heappush(self.heap, last)
            self.queued[last] = 1
        else:
            self.stale = True


def facial_thue_edge_family(pg: PlaneGraph, e_star: int) -> _FacialEdgeFamily:
    """Facial edge repetitions with the reserved edge e_star never colored:
    a completed run colors every other edge.  Classes are ranked among the
    witness paths that avoid the anchor's smallest-index uncolored facial
    neighbor (an edge next to it on a face walk), giving the 1+2j ceiling
    independent of Delta."""
    return _FacialEdgeFamily(pg, e_star)
