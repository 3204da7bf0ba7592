"""Shared plumbing for bad-event families.

Detection searches on fire and ranks on hit.  A family with searched types
declares one search, ``fired(coloring, v)``, yielding in ascending order
every searched type with a bad witness through the anchor; `detect` takes
the first type it yields and enumerates only that type's witnesses, to rank
the hit.  The searches walk colored objects only and drop a partial witness
at the first color that breaks its pattern: repetitions grow two mirrored
objects at a time (`PathRepetitionFamily`), bicolored cycles and paths stay
inside the two-colored subgraph (`alternating_widths`), and each reports
every width it closes at in one pass.  Types without a search (the short
cycle types and the facial windows) scan their witness list on every probe.

Witness enumeration (`witness_rows`) happens lazily per (anchor, type) and
is memoized: the lists are pure functions of the immutable graph, so the
memo is shared by concurrent runs without affecting behavior.  Enumerations
are canonicalized (a path equals its reversal) and sorted by the graph's
vertex order, making class ranks the stable bijection the decoder relies
on; they stay the ranking and the oracle the searches are tested against.
"""

from __future__ import annotations

import heapq
import math
from array import array

from ..engine import EventTypeMeta


class Family:
    """Base for families over objects 1..n with index-ordered traversal."""

    def __init__(self, name: str, n_objects: int, metas, rank=None):
        self.name = name
        self.n_objects = n_objects
        self.metas = tuple(metas)
        self._rank = rank
        self._rows: dict[tuple[int, int], tuple] = {}

    def next_uncolored(self, colored):
        pool = (v for v in range(1, self.n_objects + 1) if v not in colored)
        if self._rank is None:
            return next(pool, None)
        return min(pool, key=self._rank, default=None)

    def frontier(self) -> "RankFrontier":
        return RankFrontier(self.n_objects, self._rank)

    def witness_rows(self, v: int, j: int) -> tuple[tuple[tuple[int, ...], ...], array]:
        """Canonical witness list for (anchor, type) plus the same rows laid
        back to back in one int array, the form the row scans read."""
        key = (v, j)
        hit = self._rows.get(key)
        if hit is None:
            paths = tuple(self._enumerate(v, j))
            flat = array("i", [x for row in paths for x in row])
            hit = self._rows[key] = (paths, flat)
        return hit

    def _enumerate(self, v: int, j: int):
        raise NotImplementedError


class RankFrontier:
    """`Family.next_uncolored` kept incrementally: a heap holding exactly the
    uncolored objects keyed by (rank, index), so `pick` is its top and each
    change costs O(log n)."""

    __slots__ = ("_heap", "_key")

    def __init__(self, n_objects: int, rank):
        self._key = rank or (lambda v: v)
        self._heap = [(self._key(v), v) for v in range(1, n_objects + 1)]
        heapq.heapify(self._heap)

    def pick(self):
        return self._heap[0][1] if self._heap else None

    def took(self, v: int) -> None:
        heapq.heappop(self._heap)

    def released(self, target) -> None:
        for u in target:
            heapq.heappush(self._heap, (self._key(u), u))


def clamped(cost: float) -> float:
    """Class-count ceilings must be >= 1 even when the formula degenerates on
    tiny graphs (where the class lists are empty anyway)."""
    return max(1.0, cost)


def power(d: int, e) -> float:
    """``d ** e`` as a float for a ceiling formula, or math.inf past the
    float maximum: a ceiling that large bounds class indices no witness
    list can reach, and the family still constructs on any graph."""
    try:
        return float(d ** e)
    except OverflowError:
        return math.inf


def arms(adj, start: int, steps: int, used: set[int]) -> list[tuple[int, ...]]:
    """Simple extensions of `steps` edges from `start` avoiding `used`
    (which must already contain `start`), nearest vertex first."""
    if steps == 0:
        return [()]
    out = []
    for w in adj[start]:
        if w not in used:
            used.add(w)
            out.extend((w,) + rest for rest in arms(adj, w, steps - 1, used))
            used.discard(w)
    return out


def canonical(seq: tuple[int, ...], rank) -> tuple[int, ...]:
    """A path and its reversal are the same witness; keep the order-smaller."""
    rev = seq[::-1]
    return seq if [rank[x] for x in seq] <= [rank[x] for x in rev] else rev


def vertex_paths_through(g, v: int, length: int) -> list[tuple[int, ...]]:
    """All simple paths on `length` vertices containing v, canonicalized and
    sorted by the graph's vertex order."""
    found = set()
    for pos in range(1, length + 1):
        for left in arms(g.adj, v, pos - 1, {v}):
            used = {v, *left}
            for right in arms(g.adj, v, length - pos, used):
                found.add(canonical(left[::-1] + (v,) + right, g.rank))
    return sorted(found, key=lambda p: [g.rank[x] for x in p])


def edge_paths_through(g, edge_id: int, length: int) -> list[tuple[int, ...]]:
    """All paths of `length` edges (vertex-simple) containing the given edge,
    as canonical sorted tuples of edge ids."""
    a, b = g.endpoints(edge_id)
    found = set()
    for pos in range(1, length + 1):
        for left in arms(g.adj, a, pos - 1, {a, b}):
            used = {a, b, *left}
            for right in arms(g.adj, b, length - pos, used):
                vseq = left[::-1] + (a, b) + right
                row = tuple(
                    g.edge_index[(min(x, y), max(x, y))]
                    for x, y in zip(vseq, vseq[1:])
                )
                found.add(min(row, row[::-1]))
    return sorted(found)


def alternating_widths(adj, colors, path, limit, close=None) -> set[int]:
    """Every width up to ``limit`` at which the colored ``path``, whose last
    two vertices carry two different colors, extends by fresh vertices that
    keep alternating those colors, the last vertex w also satisfying
    ``close(w, x)`` with x the vertex before it.  One depth-first search
    inside the two-colored subgraph, so it never leaves it; ``path`` is
    consumed.
    """
    widths = set()
    used = set(path)
    stack = [iter(adj[path[-1]])] if len(path) < limit else []
    while stack:
        want = colors[path[-2]]
        for w in stack[-1]:
            if w in used or colors[w] != want:
                continue
            if close is None or close(w, path[-1]):
                widths.add(len(path) + 1)
            if len(path) + 1 < limit:
                path.append(w)
                used.add(w)
                stack.append(iter(adj[w]))
                break
        else:
            stack.pop()
            if stack:
                used.discard(path.pop())
    return widths


def first_repetition(colors, rows, width):
    """First row (flat array, ``width`` objects each) that is fully colored
    with its first half colored identically to its second half, or -1.
    Color 0 means uncolored."""
    half = width // 2
    nrows = len(rows) // width
    for r in range(nrows):
        base = r * width
        ok = True
        for i in range(half):
            a = colors[rows[base + i]]
            if a == 0 or a != colors[rows[base + half + i]]:
                ok = False
                break
        if ok:
            # the first half being colored forces the second half colored too
            return r
    return -1


class RepetitionFamily(Family):
    """Families whose type-j event is a colored 2j-repetition on a witness
    path through the anchor; the uncolored set is the half containing it.

    Subclasses supply `_enumerate(v, j)` yielding witness rows of 2j objects;
    the class index of a row is its rank in that (sorted) enumeration.
    ``widest`` caps the witness width 2j any row can have; detection skips
    the wider types, whose row lists are empty.
    """

    widest = math.inf

    def detect(self, coloring, v):
        budget = min(len(coloring.colored), self.widest)
        for meta in self.metas:
            j = meta.type_id
            if 2 * j > budget:
                break
            paths, flat = self.witness_rows(v, j)
            if not paths:
                continue
            idx = first_repetition(coloring.colors, flat, 2 * j)
            if idx >= 0:
                return j, self._class_index(v, j, idx, coloring.colored)
        return None

    def _class_index(self, v, j, idx, colored):
        return idx + 1

    def _row_for(self, j: int, v: int, colored, k: int):
        return self.witness_rows(v, j)[0][k - 1]

    def uncolor_set(self, j, v, colored, k):
        row = self._row_for(j, v, colored, k)
        return row[:j] if row.index(v) < j else row[j:]

    def rebuild_event(self, j, v, colored, k, after):
        row = self._row_for(j, v, colored, k)
        if row.index(v) < j:
            return {row[i]: after.color_of(row[i + j]) for i in range(j)}
        return {row[i + j]: after.color_of(row[i]) for i in range(j)}


class PathRepetitionFamily(RepetitionFamily):
    """Repetition families whose type-j witnesses are all the simple paths
    of 2j objects through the anchor.  A search (`fired`) finds the lengths
    of the bad ones, and only the first type it yields is enumerated, to
    rank the hit.

    Subclasses set ``_steps[x]``, the (vertex w, object) pairs of the steps
    from vertex x (the object is w itself for vertex paths and the edge xw
    for edge paths), and supply ``_ends(x)``, the (first, last) vertices of
    object x in each direction a path can run through it.
    ``shared_joint`` is true when consecutive objects share a vertex (edge
    paths) rather than an edge (vertex paths).
    """

    shared_joint = False

    def detect(self, coloring, v):
        j = next(self.fired(coloring, v), None)
        if j is None:
            return None
        flat = self.witness_rows(v, j)[1]
        return j, first_repetition(coloring.colors, flat, 2 * j) + 1

    def fired(self, coloring, x):
        """Yield, ascending, every j for which a colored simple path of 2j
        objects through x reads its first half twice.

        Breadth-first over pairs of tracks: track A holds x and track B the
        objects j positions away, x's partner first.  Each layer grows both
        tracks by one object at the same end, and only by two objects of
        one color, so every step places a mirrored pair.  Growth runs
        forwards, then backwards, so each pair of tracks is reached once.
        A layer of length j yields j when some pair joins into one path,
        A's last object followed by B's first or B's last by A's first.
        """
        colors, steps = coloring.colors, self._steps
        shared, nbr = self.shared_joint, self.g.nbr
        c = colors[x]
        a_first, a_last = self._ends(x)[0]
        layer, joined = [], False
        for y in range(1, self.n_objects + 1):
            if colors[y] != c or y == x:
                continue
            for b_first, b_last in self._ends(y):
                ends = {a_first, a_last, b_first, b_last}
                if {a_first, a_last}.isdisjoint((b_first, b_last)):
                    layer.append((a_first, a_last, b_first, b_last,
                                  frozenset(ends), True))
                elif shared and len(ends) == 3 and (
                        a_last == b_first or b_last == a_first):
                    joined = True
        length = 1
        while layer or joined:
            # vertex tracks grow from single vertices both ways alike, so a
            # pair that joins B to A is also reached reversed, joining A to B
            if joined or not shared and any(
                    bf in nbr[al] for _, al, bf, _, _, _ in layer):
                yield length
            joined = False
            grown = []
            for af, al, bf, bl, used, forwards in layer:
                for back in (False, True) if forwards else (True,):
                    # grow at A's and B's ends: last ones forwards, first
                    # ones backwards; a new end may only meet the other
                    # track at the joint
                    a_end, b_end = (af, bf) if back else (al, bl)
                    a_meet, b_meet = (bl, al) if back else (bf, af)
                    for a, oa in steps[a_end]:
                        ca = colors[oa]
                        if not ca:
                            continue
                        for b, ob in steps[b_end]:
                            if colors[ob] != ca:
                                continue
                            if a not in used and b not in used and a != b:
                                grown.append(
                                    (a, al, b, bl, used | {a, b}, False) if back
                                    else (af, a, bf, b, used | {a, b}, True))
                            elif shared and (a == a_meet and b not in used
                                             or b == b_meet and a not in used):
                                joined = True
            layer = grown
            length += 1


def neighbor_meta(g) -> EventTypeMeta:
    """Type 1 everywhere it appears: the anchor matches a neighbor's color."""
    return EventTypeMeta(1, clamped(g.max_degree), 1)
