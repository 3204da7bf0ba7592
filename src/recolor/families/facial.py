"""Facially non-repetitive families on plane graphs.

Both families are repetition families whose type-j witnesses are the simple
windows of 2j consecutive objects on a face walk through the anchor, read
by one window walk (`_FacialFamily._windows`); each names its problem, whose
`bounds.PROBLEM_TABLE` row fixes its object kind and class ceilings.  Type 1
of each is a candidate table, since a facial 2-window is a pair of
neighbors: the vertex variant's is the neighbor table (every edge lies on a
face), the edge variant's the `planar.medial_graph` table of facially
adjacent edges (consecutive on a face walk), which it holds as ``medial``.
The edge variant trades generality for sharper ceilings: the coloring order
is constrained so every anchor has an uncolored facially adjacent edge e',
and its class lists (`_classes`, which ranks hits and reads classes back)
skip e': type 1 is the anchor's medial entry without e', and type j > 1
keeps only the witness paths avoiding e' (at most one on the face shared
with e', 2j on the anchor's other face).
That requires one distinguished edge to stay uncolored forever and the
uncolored edge set to stay connected in the medial adjacency; the traversal
maintains both by coloring leaves of a medial spanning tree rooted at the
reserved edge, kept by `_LeafFrontier`, which `next_uncolored` rebuilds
from the colored set.  The tree of the all-uncolored state, where every run
and decode starts, is searched once per family and kept on it as
``leaf_tree``.

Row types are searched by color (`fired` reads the windows in place), so a
witness list is filled only to rank or rebuild a row-type event; on a
triangulation no window type fits a face, so `detect` reads the table only.
A face walk that repeats no vertex has only simple windows, which
`_windows` then yields without testing them.
"""

from __future__ import annotations

import heapq
from collections import deque

from ..errors import MedialConnectivityError
from ..planar import PlaneGraph, medial_graph
from .base import Family, Repetition


class _FacialFamily(Family):
    """Repetition families whose witnesses are windows along face walks of
    ``pg``: a type-j row is a window of 2j consecutive objects (vertices, or
    with ``on_edges`` set edge ids) on some face walk whose vertices are
    distinct, in its order-smaller orientation.  Type 1 is the candidate
    ``table`` of facially adjacent objects instead, and ``widest`` is the
    longest face.
    """

    shape = Repetition

    def __init__(self, pg: PlaneGraph, table):
        super().__init__(pg.graph, (table,))
        self.widest = max(map(len, pg.faces), default=0)
        self.pg = pg
        self._occurrences = None

    def fired(self, coloring, x):
        """Yield, ascending, each window type with a bad simple window through
        x, leaving types wider than the colored set or longest face unread."""
        fits = min(len(coloring.colored), self.widest) // 2
        for j in range(len(self.tables) + 1, min(len(self.metas), fits) + 1):
            for w in self._windows(x, 2 * j):
                if self.shape.scan(coloring.colors, w, 2 * j) == 0:
                    yield j
                    break

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
        for walk, objs, p, simple in self._occurrences[x]:
            f = len(walk) // 2
            if f < span:
                continue
            for s in range(p - length + 1, p + 1):
                s %= f
                if simple or len(set(walk[s:s + span])) == span:
                    yield objs[s:s + length]

    def _index(self):
        """For each object, its occurrences (walk, objs, position, simple)
        on the faces: ``walk`` is the face's vertex walk and ``objs`` its
        objects (the walk itself, or the edge id of each dart), both written
        twice so that a window wrapping around the face is one slice, and
        ``simple`` says the walk repeats no vertex, so that every window no
        longer than the face is simple."""
        occurrences = [[] for _ in range(self.n_objects + 1)]
        index = self.g.edge_index
        for face in self.pg.faces:
            walk = tuple(u for u, _ in face)
            simple = len(set(walk)) == len(walk)
            walk += walk
            objs = walk
            if self.on_edges:
                objs = tuple(index[(u, v) if u < v else (v, u)] for u, v in face)
                objs += objs
            for p in range(len(face)):
                occurrences[objs[p]].append((walk, objs, p, simple))
        return occurrences


class _FacialVertexFamily(_FacialFamily):
    problem = "facial-thue-vertex"

    def __init__(self, pg: PlaneGraph):
        super().__init__(pg, pg.graph.adj)


def facial_thue_vertex_family(pg: PlaneGraph) -> _FacialVertexFamily:
    """Type j: a repetition on a facial 2j-vertex path through the anchor;
    the anchor sees at most Delta faces and 2j window positions per face."""
    return _FacialVertexFamily(pg)


class _FacialEdgeFamily(_FacialFamily):
    problem = "facial-thue-edge"

    def __init__(self, pg: PlaneGraph, e_star: int):
        if not 1 <= e_star <= pg.graph.m:
            raise ValueError(f"reserved edge id {e_star} out of range")
        self.medial = medial_graph(pg)
        super().__init__(pg, self.medial)
        self.e_star = e_star
        # the leaf tree of every edge uncolored, made by the first
        # `_LeafFrontier._rebuild` that sees that state
        self.leaf_tree = None

    def _uncolored_neighbor(self, e: int, colored) -> int:
        for u in self.medial[e]:
            if u not in colored:
                return u
        raise MedialConnectivityError(
            f"anchor edge {e} has no uncolored facial neighbor"
        )

    def next_uncolored(self, colored):
        """Smallest-index leaf of the breadth-first spanning tree of the
        medial subgraph induced by the uncolored edges, rooted at the
        reserved edge; coloring a leaf keeps the rest connected.  This is
        the leaf frontier rebuilt from the colored set."""
        frontier = _LeafFrontier(self)
        for e in colored:
            frontier.uncolored[e] = 0
        return frontier.pick()

    def frontier(self) -> "_LeafFrontier":
        return _LeafFrontier(self)

    def _classes(self, e, j, colored):
        """Type j's classes at e with its uncolored facial neighbor e'
        skipped, in order: the medial table entry for type 1, the witness
        rows for the rest.  A hit is fully colored, so it avoids e'."""
        ep = self._uncolored_neighbor(e, colored)
        if j == 1:
            return [f for f in self.medial[e] if f != ep]
        return [row for row in self.witness_rows(e, j)[0] if ep not in row]


class _LeafFrontier:
    """The facial edge leaf rule, kept for one run;
    `_FacialEdgeFamily.next_uncolored` is this frontier rebuilt from a
    colored set.

    Holds the breadth-first tree of the uncolored medial subgraph rooted at
    the reserved edge, with a min-heap of its leaves (entries whose node has
    since gained a child or been colored are dropped lazily).  Coloring a
    leaf leaves exactly the tree of the remaining edges, since the leaf
    discovered nothing, so `took` detaches it and its parent becomes a leaf
    when it was the only child.  Releasing exactly the leaf just taken puts
    it back; any other release marks the tree stale, and the next `pick`
    rebuilds it from scratch: `_rebuild` is the one breadth-first search
    and raises both `MedialConnectivityError` refusals.  The tree of the
    all-uncolored state depends on the family alone: the first search that
    succeeds from it leaves a copy on the family (``leaf_tree``), and later
    rebuilds from that state copy it back instead of searching again.
    """

    __slots__ = ("fam", "uncolored", "parent", "children", "heap", "queued",
                 "stale", "last")

    def __init__(self, fam: _FacialEdgeFamily):
        self.fam = fam
        self.uncolored = bytearray(b"\0" + b"\1" * fam.n_objects)
        self.stale = True
        self.last = None  # the leaf `took` detached, until the next release

    def _rebuild(self) -> None:
        fam = self.fam
        root, uncolored, medial = fam.e_star, self.uncolored, fam.medial
        if not uncolored[root]:
            raise MedialConnectivityError("the reserved edge must stay uncolored")
        full = uncolored.count(0) == 1
        if full and fam.leaf_tree is not None:
            parent, children, heap, queued = fam.leaf_tree
            self.parent, self.children = list(parent), list(children)
            self.heap = list(heap)
            self.queued = bytearray(queued)
            self.stale = False
            return
        parent = self.parent = [0] * len(uncolored)
        children = [0] * len(parent)
        reached = bytearray(len(parent))
        reached[root] = 1
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in medial[x]:
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
        if full:
            fam.leaf_tree = (tuple(parent), tuple(children), tuple(self.heap),
                             bytes(self.queued))

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
    medial neighbors (type 1) or witness paths that avoid the anchor's
    smallest-index uncolored facial neighbor (an edge next to it on a face
    walk), giving the 1+2j ceiling independent of Delta."""
    return _FacialEdgeFamily(pg, e_star)
