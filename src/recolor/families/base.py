"""Shared plumbing for bad-event families: one event table, one loop.

A family declares its events and the loop on `Family` (`detect`,
`uncolor_set`, `rebuild_event`) reads the declaration.  A family is built
on a graph ``g`` and names its problem, a key of `bounds.PROBLEM_TABLE`,
whose row fixes its objects: the vertices in ``g.rank`` order, or with
``on_edges`` the edge ids in index order.  That order drives traversal and
sorts witness lists.  Each type's class ceiling and uncolor size are
declared once, as head terms plus one series in `bounds._FAMILY_CEILINGS`,
which the presets read too; `Family` reads the list `bounds.ceilings`
derives for its problem, raises a ceiling below 1 to 1 and builds the
event-type metadata.  Types are probed in ascending order, each one
way:

- candidate ``tables`` for the first types, one tuple of objects per
  anchor: type i fires when the anchor's color recurs on
  ``tables[i - 1][v]``, the first such candidate is the hit, and the
  anchor alone is uncolored and regains that candidate's color;
- every later type is a row type, with its row width in ``_width``.  The
  family's ``fired(coloring, v)`` searches by color and yields, ascending,
  exactly the row types with a bad witness through the anchor: the acyclic
  and repetition families walk colored objects only and cut a partial
  witness at the first color breaking its pattern (`PathRepetitionFamily`,
  `alternating_widths`); the facial families test each window in place.
  `detect` ranks the hit of the first type yielded in its memoized witness
  list; a scan that misses is a `FamilyContractError`.

Row types share the family's ``shape``: the row width for an uncolor size,
the kernel finding the first bad row, the objects a hit erases and how they
are rebuilt (`Repetition`, `acyclic.Bicolored`).  ``widest`` caps the width
that ``fired`` probes; when no row type is that narrow, `detect` never calls
``fired``.  Each (anchor, type) has one class list, `Family._classes`: the
candidate tuple of a table type, the witness list of
a row type, and in the facial edge family either one with the anchor's
uncolored facial neighbor skipped.  `detect` ranks every hit, a table's or
a row's, in it (class = position + 1) and `uncolor_set` and
`rebuild_event` read the class back from it, so a class past its end is a
ValueError, never another event.

Witness lists (`witness_rows`) are enumerated lazily per (anchor, type) and
memoized: they are pure functions of the immutable graph, so concurrent runs
share the memo.  Each path is kept in one orientation, the order-smaller of
it and its reversal (``min(row, row[::-1], key=_row_key)``), and the lists
are sorted by the object order, making class ranks the stable bijection
the decoder relies on.  The repetition families declare their paths once,
as one step table that the search and the enumeration both walk
(`PathRepetitionFamily`); the acyclic families declare start paths and one
rule ``close(path, w)`` on a row's last vertex w, which `alternating_widths`
and the enumeration both apply, for every row type.  `arms` is the one arm
recursion every enumerator grows paths with.
"""

from __future__ import annotations

import heapq
from array import array

from ..bounds import PROBLEM_TABLE, ceilings
from ..engine import EventTypeMeta
from ..errors import FamilyContractError


class Family:
    """A family over the objects 1..n of graph ``g`` (its vertices, or its
    edge ids when its problem's row sets ``on_edges``), running the event
    loop on its declaration (see the module docstring).  A concrete family
    declares ``problem``, its `PROBLEM_TABLE` key, and its row ``shape``;
    ``params`` are the problem's `ceilings` keywords (``gamma=`` or
    ``alpha=``), which also name the family ``problem(value)``."""

    problem: str
    shape: type

    def __init__(self, g, tables=(), **params):
        self.g = g
        self.name = self.problem + "".join(f"({v})" for v in params.values())
        self.on_edges = PROBLEM_TABLE[self.problem].on_edges
        self.n_objects = g.m if self.on_edges else g.n
        # a ceiling formula can fall below 1 on tiny graphs, whose class
        # lists are empty anyway
        self.metas = tuple(
            EventTypeMeta(j, max(1.0, c), s) for j, (c, s) in enumerate(
                ceilings(self.problem, g.max_degree, g.n, **params), start=1))
        self.tables = tuple(tables)
        self._width = {m.type_id: self.shape.width(m.uncolor_size)
                       for m in self.metas[len(self.tables):]}
        self.widest = max(self._width.values(), default=0)
        # when no row type fits ``widest`` (the facial families on a
        # triangulation), `fired` cannot yield and `detect` skips it
        self._narrowest = min(self._width.values(), default=float("inf"))
        rank = None if self.on_edges else g.rank
        self._rank = None if rank is None else rank.__getitem__
        self._row_key = None if rank is None else (lambda row: [rank[x] for x in row])
        self._rows: dict[tuple[int, int], tuple] = {}

    def detect(self, coloring, v):
        colors = coloring.colors
        color = colors[v]
        j = 0
        for table in self.tables:
            j += 1
            idx = _acyclic.first_equal(colors, color, table[v])
            if idx >= 0:
                classes = self._classes(v, j, coloring.colored)
                return j, classes.index(table[v][idx]) + 1
        if self._narrowest > self.widest:
            return None
        for j in self.fired(coloring, v):
            rows, flat = self.witness_rows(v, j)
            idx = self.shape.scan(colors, flat, self._width[j])
            if idx < 0:
                raise FamilyContractError(f"{self.name}: type {j} fired at {v}, no bad row")
            return j, self._classes(v, j, coloring.colored).index(rows[idx]) + 1
        return None

    def fired(self, coloring, v):
        """Yield, ascending, exactly the row types with a bad witness through v."""
        raise NotImplementedError

    def uncolor_set(self, j, v, colored, k):
        return self._event(j, v, colored, k)[0]

    def rebuild_event(self, j, v, colored, k, after):
        erased, kept = self._event(j, v, colored, k)
        return {x: after.color_of(y) for x, y in zip(erased, kept)}

    def _event(self, j, v, colored, k):
        """The objects the type-j class-k event at v erases and, position by
        position, the survivors whose colors they carried; ValueError when
        the class names no event."""
        classes = self._classes(v, j, colored)
        if not 1 <= k <= len(classes):
            raise ValueError(f"type {j} class {k} at {v} names no event")
        if j <= len(self.tables):
            return (v,), (classes[k - 1],)
        return self.shape.split(classes[k - 1], v)

    def _classes(self, v, j, colored):
        """Type j's classes at v in order, the list `detect` ranks a hit in
        and `_event` reads a class back from: the candidate tuple of a table
        type, the witness list of a row type."""
        if j <= len(self.tables):
            return self.tables[j - 1][v]
        return self.witness_rows(v, j)[0]

    def next_uncolored(self, colored):
        pool = (v for v in range(1, self.n_objects + 1) if v not in colored)
        if self._rank is None:
            return next(pool, None)
        return min(pool, key=self._rank, default=None)

    def frontier(self) -> "RankFrontier":
        return RankFrontier(self.n_objects, self._rank)

    def witness_rows(self, v: int, j: int) -> tuple[tuple[tuple[int, ...], ...], array]:
        """Canonical witness list for (anchor, type), sorted by the object
        order, plus the same rows laid back to back in one int array, the
        form the row scans read."""
        key = (v, j)
        hit = self._rows.get(key)
        if hit is None:
            paths = tuple(sorted(self._enumerate(v, j), key=self._row_key))
            flat = array("i", [x for row in paths for x in row])
            hit = self._rows[key] = (paths, flat)
        return hit

    def _enumerate(self, v: int, j: int):
        """Each canonical type-j witness through v once, in any order."""
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


def arms(adj, objs, start: int, steps: int, used: set[int]):
    """Yield each simple arm of ``steps`` steps from vertex ``start``, as
    the objects it steps through, nearest first.  ``objs`` is aligned with
    ``adj``: stepping from x to ``adj[x][i]`` passes ``objs[x][i]`` (for
    vertex paths ``objs`` is ``adj`` itself).  Arms avoid ``used``, which
    must already contain ``start``; while an arm is yielded its vertices
    stay in ``used``, so an arm grown inside the loop avoids them.  A
    negative ``steps`` is a ValueError."""
    if steps <= 0:
        if steps:
            raise ValueError(f"an arm cannot take {steps} steps")
        yield ()
        return
    for w, o in zip(adj[start], objs[start]):
        if w not in used:
            used.add(w)
            for rest in arms(adj, objs, w, steps - 1, used):
                yield (o,) + rest
            used.discard(w)


def alternating_widths(adj, colors, path, limit, close) -> set[int]:
    """Every width up to ``limit`` at which the colored ``path``, whose last
    two vertices carry two different colors, extends by fresh vertices that
    keep alternating those colors, the last vertex w also satisfying
    ``close(path, w)`` with ``path`` the vertices before it.  One
    depth-first search inside the two-colored subgraph, so it never leaves
    it; ``path`` grows and shrinks in place and ends as it started.
    """
    widths = set()
    used = set(path)
    stack = [iter(adj[path[-1]])] if len(path) < limit else []
    while stack:
        want = colors[path[-2]]
        for w in stack[-1]:
            if w in used or colors[w] != want:
                continue
            if close(path, w):
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


class Repetition:
    """Row shape of the repetition families: 2j objects, bad when the first
    half reads like the second.  The anchor's half is erased, and each of
    its objects carried the color of the object j positions away."""

    @staticmethod
    def width(uncolor_size: int) -> int:
        return 2 * uncolor_size

    @staticmethod
    def scan(colors, rows, width):
        return first_repetition(colors, rows, width)

    @staticmethod
    def split(row, v):
        j = len(row) // 2
        return (row[:j], row[j:]) if row.index(v) < j else (row[j:], row[:j])


class PathRepetitionFamily(Family):
    """Repetition families whose type-j witnesses are all the simple paths
    of 2j objects through the anchor, every type searched by `fired`: vertex
    paths, or with ``on_edges`` set edge paths, whose consecutive objects
    share a vertex rather than an edge.

    The paths are declared once, by one step table that both the search
    (`fired`) and the enumeration ranking a hit (`_enumerate`) walk, built
    from the object kind: ``_steps[x]``, aligned with ``g.adj[x]``, holds
    the object a step from vertex x to ``g.adj[x][i]`` passes (the neighbor
    itself for vertex paths, so ``_steps`` is ``g.adj``, and the edge's id
    for edge paths), and ``_ends[x]`` the (first, last) vertices of object
    x in each direction a path can run through it.
    """

    shape = Repetition

    def __init__(self, g):
        super().__init__(g)
        if self.on_edges:
            self._steps = tuple(
                tuple(g.edge_index[(min(x, w), max(x, w))] for w in nb)
                for x, nb in enumerate(g.adj))
            self._ends = ((),) + tuple(((a, b), (b, a)) for a, b in g.edges)
        else:
            self._steps = g.adj
            self._ends = tuple(((v, v),) for v in range(g.n + 1))

    def _enumerate(self, x, j):
        """Each type-j witness through x once: ``pos`` steps back from the
        first vertex of x and ``2j - 1 - pos`` forward from its last, through
        vertices not yet used, each row in its order-smaller orientation.
        When x is a vertex (first is last) every path is reached both ways,
        and exactly one way has x in its first half, so ``pos < j``
        suffices."""
        adj, steps, key = self.g.adj, self._steps, self._row_key
        first, last = self._ends[x][0]
        used = {first, last}
        for pos in range(j if first == last else 2 * j):
            for back in arms(adj, steps, first, pos, used):
                for ahead in arms(adj, steps, last, 2 * j - 1 - pos, used):
                    row = back[::-1] + (x,) + ahead
                    yield min(row, row[::-1], key=key)

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
        colors, adj, steps = coloring.colors, self.g.adj, self._steps
        shared, nbr = self.on_edges, self.g.nbr
        c = colors[x]
        a_first, a_last = self._ends[x][0]
        layer, joined = [], False
        for y in range(1, self.n_objects + 1):
            if colors[y] != c or y == x:
                continue
            for b_first, b_last in self._ends[y]:
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
                    for a, oa in zip(adj[a_end], steps[a_end]):
                        ca = colors[oa]
                        if not ca:
                            continue
                        for b, ob in zip(adj[b_end], steps[b_end]):
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


# a cycle (acyclic.py imports this module): `detect` reads `first_equal`
# through the module at call time, so a rebound kernel is seen
from . import acyclic as _acyclic  # noqa: E402
