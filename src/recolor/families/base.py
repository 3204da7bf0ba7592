"""Shared plumbing for bad-event families.

Witness enumeration happens lazily per (anchor, type) and is memoized: the
lists are pure functions of the immutable graph, so the memo is shared by
concurrent runs without affecting behavior.  Enumerations are canonicalized
(a path equals its reversal) and sorted by the graph's vertex order, making
class ranks the stable bijection the decoder relies on.
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

    def _row_for(self, j: int, v: int, colored: frozenset[int], k: int):
        return self.witness_rows(v, j)[0][k - 1]

    def uncolor_set(self, j, v, colored, k):
        row = self._row_for(j, v, colored, k)
        return row[:j] if row.index(v) < j else row[j:]

    def rebuild_event(self, j, v, colored_before, k, after):
        row = self._row_for(j, v, colored_before | {v}, k)
        if row.index(v) < j:
            return {row[i]: after.color_of(row[i + j]) for i in range(j)}
        return {row[i + j]: after.color_of(row[i]) for i in range(j)}


def neighbor_meta(g) -> EventTypeMeta:
    """Type 1 everywhere it appears: the anchor matches a neighbor's color."""
    return EventTypeMeta(1, clamped(g.max_degree), 1)
