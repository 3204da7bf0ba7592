"""Acyclicity-driven bad-event families.

All three share the neighbor event (the fresh color equals a neighbor's) and
differ in how they cover bicolored cycles: a global cycle-count budget, an
induced-4-cycle/6-path pair over a special-pair structure, or a cycle ladder
over the same structure.  Cycle witnesses are stored in traversal order, so
uncoloring is always a prefix of the row and rebuilding alternates the two
colors still readable at the row's tail (`Bicolored`).  Every bicolored type
is searched, none scanned: the cycle and path types by a search inside the
two-colored subgraph at the anchor, the special-pair square by a test on the
common neighbors of each anchor pair colored alike.  Witnesses are
enumerated only to rank a hit.
"""

from __future__ import annotations

from ..engine import EventTypeMeta
from ..graphs import Graph, SpecialStructure
from .base import Family, alternating_widths, arms, clamped, neighbor_meta, power


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
    """Candidate tables for the first types, searched bicolored rows for the
    rest.  The ``alternating`` types are found by one alternating search per
    start path a subclass declares (`_starts`)."""

    def __init__(self, g: Graph, name: str, metas, tables, searched, alternating):
        super().__init__(name, g.n, metas, Bicolored, tables, (), searched,
                         rank=g.rank)
        self.g = g
        self._type_of = {self._width[j]: j for j in alternating}

    def fired(self, coloring, v):
        """Every searched type with a bad row through v, ascending."""
        return self._alternating(coloring, self._starts(coloring, v))

    def _alternating(self, coloring, starts):
        """Every alternating type with a bad row, ascending: one
        `alternating_widths` search per start path, grown no wider than the
        colored set or ``widest``."""
        if not starts:
            return ()
        limit = min(len(coloring.colored), self.widest)
        widths = set()
        for path, close in starts:
            widths |= alternating_widths(self.g.adj, coloring.colors, path,
                                         limit, close)
        return sorted(self._type_of[w] for w in widths if w in self._type_of)


class _GammaFamily(_AcyclicFamily):
    def __init__(self, g: Graph, gamma: int):
        if gamma < 1:
            raise ValueError("gamma must be a positive integer")
        d = g.max_degree
        metas = [neighbor_meta(g)]
        metas += [
            EventTypeMeta(k, clamped(0.5 * gamma * power(d, 2 * k - 2)), 2 * k - 2)
            for k in range(2, g.n // 2 + 1)
        ]
        types = range(2, g.n // 2 + 1)
        super().__init__(g, f"acyclic-gamma({gamma})", metas, (g.adj,), types,
                         types)
        self.gamma = gamma

    def _enumerate(self, v, j):
        """2j-cycles (v, u2, ..., u_2j), one orientation each (u2
        order-below the last vertex)."""
        g, rank = self.g, self.g.rank
        return [
            (v, u2) + ext
            for u2 in g.adj[v]
            for ext in arms(g.adj, g.adj, u2, 2 * j - 2, {v, u2})
            if g.has_edge(ext[-1], v) and rank[u2] < rank[ext[-1]]
        ]

    def _starts(self, coloring, v):
        """(v, u2) for each neighbor u2 colored b apart from v: 2j-cycles
        alternating c(v) and b close back at v."""
        colors, g = coloring.colors, self.g
        a = colors[v]

        def close(w, _):
            return g.has_edge(w, v)

        return [([v, u2], close) for u2 in g.adj[v]
                if colors[u2] and colors[u2] != a]


def acyclic_gamma_family(g: Graph, gamma: int) -> _GammaFamily:
    """Events: monochromatic edge at the anchor, or a bicolored 2k-cycle with
    the anchor first.  Type-k ceilings gamma*Delta^(2k-2)/2 presume the host
    graph keeps per-vertex 2k-cycle counts within that budget; this is the
    caller's obligation and is not checked here."""
    return _GammaFamily(g, gamma)


class _SpecialPairFamily(_AcyclicFamily):
    """Common core of the two special-pair variants: neighbor event, then a
    same-color event against the anchor's special set, then bicolored rows
    through an anchor pair (u1, u3), two neighbors of the anchor v colored
    alike.  Type 3, the special-pair square, is searched by a test on the
    common neighbors of each such pair (`_square_fires`); from type 4 on,
    rows start (u1, v, u3) and are searched alternating from each pair."""

    def __init__(self, g: Graph, special: SpecialStructure, name: str, metas):
        types = [m.type_id for m in metas]
        super().__init__(g, name, metas, (g.adj, special._special), types[2:],
                         types[3:])
        self.alpha = special.alpha
        self.special = special

    def fired(self, coloring, v):
        """The square type first when a bicolored square sits at v, then
        the alternating types, searched only once the caller reads past the
        square."""
        starts = self._starts(coloring, v)
        if starts and self._square_fires(coloring.colors, v, starts):
            yield 3
        yield from self._alternating(coloring, starts)

    def _square_fires(self, colors, v, starts):
        """Whether some start pair (u1, u3), not adjacent, has a common
        neighbor c colored like v, c neither v nor in N(v) nor in S(v):
        the bicolored type-3 square v u1 c u3 of `_squares`."""
        a = colors[v]
        nbr = self.g.nbr
        n_v, s_v = nbr[v], self.special._special[v]
        for path, _ in starts:
            u1, u3 = path[0], path[2]
            n_3 = nbr[u3]
            if u1 in n_3:
                continue
            for c in self.g.adj[u1]:
                if colors[c] == a and c in n_3 and c != v \
                        and c not in n_v and c not in s_v:
                    return True
        return False

    def _anchor_pairs(self, v):
        rank = self.g.rank
        nb = self.g.adj[v]
        for i, a in enumerate(nb):
            for b in nb[i + 1:]:
                yield (a, b) if rank[a] < rank[b] else (b, a)

    def _starts(self, coloring, v):
        """(u1, v, u3) for each anchor pair colored alike and apart from v:
        rows searched from u3 over the subgraph colored c(u1) and c(v)."""
        colors, rank = coloring.colors, self.g.rank
        b = colors[v]
        nb = self.g.adj[v]
        starts = []
        for i, x in enumerate(nb):
            a = colors[x]
            if a and a != b:
                for y in nb[i + 1:]:
                    if colors[y] == a:
                        u1, u3 = (x, y) if rank[x] < rank[y] else (y, x)
                        starts.append(([u1, v, u3], self._closing(u1)))
        return starts

    def _squares(self, v):
        """(a, c, b) for each induced 4-cycle v a c b whose antipode c sits
        outside S(v), a order-below b."""
        g = self.g
        s_v = set(self.special.special(v))
        for a, b in self._anchor_pairs(v):
            if not g.has_edge(a, b):
                for c in g.nbr[a] & g.nbr[b] - g.nbr[v] - {v}:
                    if c not in s_v:
                        yield a, c, b

    def _closing(self, u1):
        """`alternating_widths` check on a row's last vertex and the one
        before it; type-4 rows of v1 are open paths."""
        return None


class _V1Family(_SpecialPairFamily):
    def __init__(self, g: Graph, alpha: float):
        # built first: it refuses a bad alpha before the ceilings divide by it
        special = SpecialStructure(g, alpha)
        d = g.max_degree
        metas = (
            neighbor_meta(g),
            EventTypeMeta(2, clamped(alpha * d ** (4 / 3)), 1),
            EventTypeMeta(3, clamped(d ** (8 / 3) / (8 * alpha)), 2),
            EventTypeMeta(4, clamped(0.5 * d * (d - 1) ** 4), 4),
        )
        super().__init__(g, special, f"acyclic-v1({alpha})", metas)

    def _enumerate(self, v, j):
        if j == 3:
            return [(v, a, c, b) for a, c, b in self._squares(v)]
        # 6-vertex paths with the anchor second
        adj = self.g.adj
        return [(u1, v, u3) + ext for u1, u3 in self._anchor_pairs(v)
                for ext in arms(adj, adj, u3, 3, {u1, v, u3})]


def acyclic_v1_family(g: Graph, alpha: float) -> _V1Family:
    """Events in priority order: neighbor conflict, special-pair conflict,
    bicolored induced 4-cycle avoiding S(anchor), bicolored 6-vertex path
    with the anchor second.  Only the anchor's own special set matters: a
    one-way special pair may legitimately share a color."""
    return _V1Family(g, alpha)


class _V2Family(_SpecialPairFamily):
    def __init__(self, g: Graph, alpha: float):
        # built first: it refuses a bad alpha before the ceilings divide by it
        special = SpecialStructure(g, alpha)
        d = g.max_degree
        metas = [neighbor_meta(g), EventTypeMeta(2, clamped(alpha * d ** (4 / 3)), 1)]
        for k in range(2, g.n // 2 + 1):
            cost = d ** (8 / 3) / (8 * alpha) if k == 2 \
                else power(d, 2 * k - 4 / 3) / (2 * alpha)
            metas.append(EventTypeMeta(k + 1, clamped(cost), 2 * k - 2))
        super().__init__(g, special, f"acyclic-v2({alpha})", metas)

    def _enumerate(self, v, j):
        k = j - 1
        if k == 2:
            return [(a, v, b, c) for a, c, b in self._squares(v)]
        # 2k-cycles with the anchor second; cycles whose color-matched
        # endpoints u1, u_{2k-1} are special both ways cannot survive the
        # special event and are excluded from the class count
        g, sp = self.g, self.special.is_special
        return [(u1, v, u3) + ext for u1, u3 in self._anchor_pairs(v)
                for ext in arms(g.adj, g.adj, u3, 2 * k - 3, {u1, v, u3})
                if g.has_edge(ext[-1], u1)
                and not (sp(u1, ext[-2]) and sp(ext[-2], u1))]

    def _closing(self, u1):
        has_edge, sp = self.g.has_edge, self.special.is_special

        def close(w, prev):
            return has_edge(w, u1) and not (sp(u1, prev) and sp(prev, u1))

        return close


def acyclic_v2_family(g: Graph, alpha: float) -> _V2Family:
    """Events: neighbor conflict, special-pair conflict, then bicolored
    2k-cycles with the anchor second (k >= 2); the 4-cycle case additionally
    keeps its antipode outside S(anchor), mirroring the priority of the
    special event."""
    return _V2Family(g, alpha)
