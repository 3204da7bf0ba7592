"""Acyclicity-driven bad-event families.

All three share the neighbor event (the fresh color equals a neighbor's) and
differ in how they cover bicolored cycles: a global cycle-count budget, an
induced-4-cycle/6-path pair over the special sets S(v), or a cycle ladder
over the same sets.  Cycle witnesses are stored in traversal order, so
uncoloring is always a prefix of the row and rebuilding alternates the two
colors still readable at the row's tail (`Bicolored`).

Each family names its problem, whose `bounds.PROBLEM_TABLE` row fixes its
object kind and class ceilings, and declares its bicolored witnesses once:
the start paths through the anchor (`_paths`) and the rule accepting a
row's last vertex (`_closes`).  `fired` yields exactly the bicolored types
with a bad row through the anchor, so `detect` enumerates and scans only
the first of them, to rank the hit.  The search grows only the start paths
already alternating two colors (`_starts`), inside the two-colored
subgraph at the anchor; the enumeration grows every start path by simple
arms.  The special-pair square is no separate mechanism: it is the
width-4 case of the special-pair closing rule, a start path closed over a
common neighbor of its two ends.
"""

from __future__ import annotations

from ..graphs import Graph, special_sets
from .base import Family, alternating_widths, arms


def first_equal(colors, anchor_color, candidates):
    """Index of the first candidate object carrying ``anchor_color``, or -1."""
    for i, obj in enumerate(candidates):
        if colors[obj] == anchor_color:
            return i
    return -1


def first_bicolored(colors, rows, width):
    """First fully colored row (flat array, ``width`` objects each)
    alternating between two distinct colors (even positions one color, odd
    positions the other), or -1.  Color 0 means uncolored."""
    nrows = len(rows) // width
    for r in range(nrows):
        base = r * width
        a = colors[rows[base]]
        b = colors[rows[base + 1]]
        if a == 0 or b == 0 or a == b:
            continue
        ok = True
        for i in range(2, width):
            c = colors[rows[base + i]]
            if c != (a if i % 2 == 0 else b):
                ok = False
                break
        if ok:
            return r
    return -1


class Bicolored:
    """Row shape of the acyclic families: ``uncolor_size + 2`` objects, bad
    when they alternate two colors.  All but the last two are erased, and
    those two survivors carry the colors of the even and odd positions."""

    @staticmethod
    def width(uncolor_size: int) -> int:
        return uncolor_size + 2

    @staticmethod
    def scan(colors, rows, width):
        return first_bicolored(colors, rows, width)

    @staticmethod
    def split(row, v):
        return row[:-2], row[-2:] * (len(row) // 2)


class _AcyclicFamily(Family):
    """Candidate tables for the first types, bicolored rows for the rest:
    start paths (`_paths`) grown into rows whose last vertex w passes
    ``_closes(path, w)``.  Every row type is searched by
    `alternating_widths`."""

    shape = Bicolored

    def __init__(self, g: Graph, tables, **params):
        super().__init__(g, tables, **params)
        self._type_of = {w: j for j, w in self._width.items()}

    def fired(self, coloring, v):
        """Every type with a bad row through v, ascending: one
        `alternating_widths` search per start path, grown no wider than the
        colored set or ``widest``."""
        starts = self._starts(coloring, v)
        if not starts:
            return ()
        limit = min(len(coloring.colored), self.widest)
        widths = set()
        for path in starts:
            widths |= alternating_widths(self.g.adj, coloring.colors, path,
                                         limit, self._closes)
        return sorted(self._type_of[w] for w in widths if w in self._type_of)

    def _enumerate(self, v, j):
        """Each start path grown by simple arms to one short of the type's
        width, then, as the search closes a row, by each fresh neighbor w
        of its end that ``_closes`` accepts.  A type without a row width
        (past the declared ones) has no rows."""
        width = self._width.get(j)
        if width is None:
            return
        adj, close = self.g.adj, self._closes
        for path in self._paths(v):
            used = set(path)
            for ext in arms(adj, adj, path[-1], width - len(path) - 1, used):
                row = path + ext
                for w in adj[row[-1]]:
                    if w not in used and close(row, w):
                        yield row + (w,)


class _GammaFamily(_AcyclicFamily):
    problem = "acyclic-gamma"

    def __init__(self, g: Graph, gamma: int):
        if gamma < 1:
            raise ValueError("gamma must be a positive integer")
        super().__init__(g, (g.adj,), gamma=gamma)

    def _paths(self, v):
        """(v, u2) for each neighbor u2: rows are 2j-cycles (v, u2, ...)."""
        return [(v, u2) for u2 in self.g.adj[v]]

    def _closes(self, path, w):
        """w closes the cycle back at v, in its one orientation with u2
        order-below w; a bicolored cycle still fires, from the start at its
        order-smaller neighbor of v."""
        rank = self.g.rank
        return w in self.g.nbr[path[0]] and rank[path[1]] < rank[w]

    def _starts(self, coloring, v):
        """The start paths (v, u2) with u2 colored apart from v."""
        colors = coloring.colors
        a = colors[v]
        return [[v, u2] for u2 in self.g.adj[v] if colors[u2] and colors[u2] != a]


def acyclic_gamma_family(g: Graph, gamma: int) -> _GammaFamily:
    """Events: monochromatic edge at the anchor, or a bicolored 2k-cycle with
    the anchor first.  Type-k ceilings gamma*Delta^(2k-2)/2 presume the host
    graph keeps per-vertex 2k-cycle counts within that budget; this is the
    caller's obligation and is not checked here."""
    return _GammaFamily(g, gamma)


class _SpecialPairFamily(_AcyclicFamily):
    """Common core of the two special-pair variants: neighbor event, then a
    same-color event against the anchor's special set, then bicolored rows
    grown from a start path (u1, v, u3) over two neighbors of the anchor v.
    Type 3, the special-pair square, is the rows closed at width 4; from
    type 4 on, rows grow from u3."""

    def __init__(self, g: Graph, alpha: float):
        # S(v) for each v, built first: it refuses a bad alpha before the
        # ceilings divide by it
        self.special = special_sets(g, alpha)
        super().__init__(g, (g.adj, self.special), alpha=alpha)

    def _paths(self, v):
        """(u1, v, u3) for each pair of neighbors of v, u1 order-below u3."""
        rank = self.g.rank
        nb = self.g.adj[v]
        for i, x in enumerate(nb):
            for y in nb[i + 1:]:
                yield (x, v, y) if rank[x] < rank[y] else (y, v, x)

    def _starts(self, coloring, v):
        """The start paths (u1, v, u3) with u1 and u3 colored alike and
        apart from v."""
        # not `_paths` filtered by color: that ran v1-large ~1.5x slower
        colors, rank = coloring.colors, self.g.rank
        b = colors[v]
        nb = self.g.adj[v]
        starts = []
        for i, x in enumerate(nb):
            a = colors[x]
            if a and a != b:
                for y in nb[i + 1:]:
                    if colors[y] == a:
                        starts.append([x, v, y] if rank[x] < rank[y] else [y, v, x])
        return starts

    def _closes(self, path, w):
        """A start (a, v, b) closes over w, a neighbor of b outside it, when
        v a w b is an induced 4-cycle with antipode w outside S(v): a is
        not adjacent to b, w is adjacent to a but neither to v nor in S(v).
        A longer path closes at every w, as v1's open paths do."""
        if len(path) > 3:
            return True
        a, v, b = path
        nbr = self.g.nbr
        return (a not in nbr[b] and w in nbr[a] and w not in nbr[v]
                and w not in self.special[v])


class _V1Family(_SpecialPairFamily):
    problem = "acyclic-v1"

    def _enumerate(self, v, j):
        """Squares reordered to (v, a, c, b), which fixes their class
        ranks; type-4 rows are open 6-vertex paths."""
        rows = super()._enumerate(v, j)
        return ((v, a, c, b) for a, _, b, c in rows) if j == 3 else rows


def acyclic_v1_family(g: Graph, alpha: float) -> _V1Family:
    """Events in priority order: neighbor conflict, special-pair conflict,
    bicolored induced 4-cycle avoiding S(anchor), bicolored 6-vertex path
    with the anchor second.  Only the anchor's own special set matters: a
    one-way special pair may legitimately share a color."""
    return _V1Family(g, alpha)


class _V2Family(_SpecialPairFamily):
    problem = "acyclic-v2"

    def _closes(self, path, w):
        """Squares as (a, v, b, c); past them, w closes the cycle back at
        u1, and u1 and the vertex before w, matched in color, are not
        special both ways: such a cycle cannot survive the special event
        and is left out of the class count."""
        if len(path) == 3:
            return super()._closes(path, w)
        u1, x = path[0], path[-1]
        sp = self.special
        return w in self.g.nbr[u1] and not (x in sp[u1] and u1 in sp[x])


def acyclic_v2_family(g: Graph, alpha: float) -> _V2Family:
    """Events: neighbor conflict, special-pair conflict, then bicolored
    2k-cycles with the anchor second (k >= 2); the 4-cycle case additionally
    keeps its antipode outside S(anchor), mirroring the priority of the
    special event."""
    return _V2Family(g, alpha)
