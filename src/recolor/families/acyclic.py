"""Acyclicity-driven bad-event families.

All three share the neighbor event (the fresh color equals a neighbor's) and
differ in how they cover bicolored cycles: a global cycle-count budget, an
induced-4-cycle/6-path pair over a special-pair structure, or a cycle ladder
over the same structure.  Cycle witnesses are stored in traversal order, so
uncoloring is always a prefix of the row and rebuilding alternates the two
colors still readable at the row's tail.  The long bicolored types are
detected by a search inside the two-colored subgraph at the anchor, and
their witnesses enumerated only to rank a hit.
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


def bicolored_rebuild(row: tuple[int, ...], after) -> dict[int, int]:
    """Erased colors of an alternating witness whose last two objects
    survived: row[0], row[2], ... carried row[-2]'s color and row[1],
    row[3], ... carried row[-1]'s."""
    a = after.color_of(row[-2])
    b = after.color_of(row[-1])
    return {row[i]: (a if i % 2 == 0 else b) for i in range(len(row) - 2)}


class _AcyclicFamily(Family):
    """Event loop shared by the acyclic families, declared by two lists.

    ``tables`` holds one candidate list per anchor for each of the first
    types (the graph's own per-vertex tuples, scanned in place): type i
    fires when the anchor's color recurs on its i-th list, the
    class is the first such candidate's position, the anchor alone is
    uncolored and regains that candidate's color.  Every later meta is a
    bicolored row type: its witness rows are ``uncolor_size + 2`` objects
    alternating two colors, all but the last two are uncolored, and the two
    survivors rebuild them.  Row types below ``first_searched`` are scanned;
    the rest are searched at once by `fired` from the start paths a subclass
    declares (`_starts`), and only the first type it yields is ranked.
    """

    first_searched: int

    def __init__(self, g: Graph, name: str, metas, tables):
        super().__init__(name, g.n, metas, rank=g.rank.__getitem__)
        self.g = g
        self._tables = tables
        rows = [(m.type_id, m.uncolor_size + 2) for m in self.metas[len(tables):]]
        self._scanned = [(j, w) for j, w in rows if j < self.first_searched]
        self._searched = {w: j for j, w in rows if j >= self.first_searched}
        self._widest = max(self._searched, default=0)

    def detect(self, coloring, v):
        colors = coloring.colors
        color = coloring.color_of(v)
        for j, table in enumerate(self._tables, start=1):
            idx = first_equal(colors, color, table[v])
            if idx >= 0:
                return j, idx + 1
        for j, width in self._scanned:
            if width > len(coloring.colored):
                break
            rows, flat = self.witness_rows(v, j)
            if rows:
                idx = first_bicolored(colors, flat, width)
                if idx >= 0:
                    return j, idx + 1
        j = next(self.fired(coloring, v), None)
        if j is None:
            return None
        width = self.metas[j - 1].uncolor_size + 2
        return j, first_bicolored(colors, self.witness_rows(v, j)[1], width) + 1

    def fired(self, coloring, v):
        """Yield, ascending, every searched type with a bad row through v:
        one `alternating_widths` search per start path (`_starts`), grown
        no wider than the colored set or the widest searched row."""
        limit = min(len(coloring.colored), self._widest)
        widths = set()
        for path, close in self._starts(coloring, v):
            widths |= alternating_widths(self.g.adj, coloring.colors, path,
                                         limit, close)
        if widths:
            yield from sorted(self._searched[w] for w in widths if w in self._searched)

    def uncolor_set(self, j, v, colored, k):
        if j <= len(self._tables):
            return (v,)
        return self.witness_rows(v, j)[0][k - 1][:-2]

    def rebuild_event(self, j, v, colored, k, after):
        if j <= len(self._tables):
            return {v: after.color_of(self._tables[j - 1][v][k - 1])}
        return bicolored_rebuild(self.witness_rows(v, j)[0][k - 1], after)


class _GammaFamily(_AcyclicFamily):
    first_searched = 2

    def __init__(self, g: Graph, gamma: int):
        if gamma < 1:
            raise ValueError("gamma must be a positive integer")
        d = g.max_degree
        metas = [neighbor_meta(g)]
        metas += [
            EventTypeMeta(k, clamped(0.5 * gamma * power(d, 2 * k - 2)), 2 * k - 2)
            for k in range(2, g.n // 2 + 1)
        ]
        super().__init__(g, f"acyclic-gamma({gamma})", metas, (g.adj,))
        self.gamma = gamma

    def _enumerate(self, v, j):
        """2j-cycles (v, u2, ..., u_2j), one orientation each (u2
        order-below the last vertex), sorted by vertex order."""
        g, rank = self.g, self.g.rank
        rows = [
            (v, u2) + ext
            for u2 in g.adj[v]
            for ext in arms(g.adj, u2, 2 * j - 2, {v, u2})
            if g.has_edge(ext[-1], v) and rank[u2] < rank[ext[-1]]
        ]
        rows.sort(key=lambda r: [rank[x] for x in r])
        return rows

    def _starts(self, coloring, v):
        """(v, u2) for each neighbor u2 colored b apart from v: 2j-cycles
        alternating c(v) and b close back at v."""
        colors, g = coloring.colors, self.g
        a = colors[v]

        def close(w, _):
            return g.has_edge(w, v)

        for u2 in g.adj[v]:
            b = colors[u2]
            if b and b != a:
                yield [v, u2], close


def acyclic_gamma_family(g: Graph, gamma: int) -> _GammaFamily:
    """Events: monochromatic edge at the anchor, or a bicolored 2k-cycle with
    the anchor first.  Type-k ceilings gamma*Delta^(2k-2)/2 presume the host
    graph keeps per-vertex 2k-cycle counts within that budget; this is the
    caller's obligation and is not checked here."""
    return _GammaFamily(g, gamma)


class _SpecialPairFamily(_AcyclicFamily):
    """Common core of the two special-pair variants: neighbor event, then a
    same-color event against the anchor's special set.  Their witnesses
    from type 4 on start (u1, v, u3) with u1, u3 neighbors of the anchor v,
    and are searched from each such pair colored alike."""

    first_searched = 4

    @staticmethod
    def _check_alpha(alpha: float) -> float:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        return alpha

    def __init__(self, g: Graph, alpha: float, name: str, metas):
        special = SpecialStructure(g, alpha)
        super().__init__(g, name, metas, (g.adj, special._special))
        self.alpha = alpha
        self.special = special

    def _anchor_pairs(self, v):
        rank = self.g.rank
        nb = self.g.adj[v]
        for i, a in enumerate(nb):
            for b in nb[i + 1:]:
                yield (a, b) if rank[a] < rank[b] else (b, a)

    def _starts(self, coloring, v):
        """(u1, v, u3) for each anchor pair colored alike and apart from v:
        rows searched from u3 over the subgraph colored c(u1) and c(v)."""
        colors = coloring.colors
        b = colors[v]
        for u1, u3 in self._anchor_pairs(v):
            a = colors[u1]
            if a and a != b and colors[u3] == a:
                yield [u1, v, u3], self._closing(u1)

    def _closing(self, u1):
        """`alternating_widths` check on a row's last vertex and the one
        before it; type-4 rows of v1 are open paths."""
        return None


class _V1Family(_SpecialPairFamily):
    C_TYPE = 3

    def __init__(self, g: Graph, alpha: float):
        self._check_alpha(alpha)
        d = g.max_degree
        metas = (
            neighbor_meta(g),
            EventTypeMeta(2, clamped(alpha * d ** (4 / 3)), 1),
            EventTypeMeta(3, clamped(d ** (8 / 3) / (8 * alpha)), 2),
            EventTypeMeta(4, clamped(0.5 * d * (d - 1) ** 4), 4),
        )
        super().__init__(g, alpha, f"acyclic-v1({alpha})", metas)

    def _enumerate(self, v, j):
        g, rank = self.g, self.g.rank
        rows = []
        if j == self.C_TYPE:
            # induced 4-cycles (v, u2, u3, u4): the anchor's antipode u3 sits
            # at distance two outside S(v), and u2, u4 are non-adjacent
            s_v = set(self.special.special(v))
            for u2, u4 in self._anchor_pairs(v):
                if g.has_edge(u2, u4):
                    continue
                for u3 in sorted(g.nbr[u2] & g.nbr[u4] - g.nbr[v] - {v}):
                    if u3 not in s_v:
                        rows.append((v, u2, u3, u4))
        else:
            # 6-vertex paths with the anchor second
            for u1, u3 in self._anchor_pairs(v):
                for ext in arms(g.adj, u3, 3, {u1, v, u3}):
                    rows.append((u1, v, u3) + ext)
        rows.sort(key=lambda r: [rank[x] for x in r])
        return rows


def acyclic_v1_family(g: Graph, alpha: float) -> _V1Family:
    """Events in priority order: neighbor conflict, special-pair conflict,
    bicolored induced 4-cycle avoiding S(anchor), bicolored 6-vertex path
    with the anchor second.  Only the anchor's own special set matters: a
    one-way special pair may legitimately share a color."""
    return _V1Family(g, alpha)


class _V2Family(_SpecialPairFamily):
    def __init__(self, g: Graph, alpha: float):
        self._check_alpha(alpha)
        d = g.max_degree
        metas = [neighbor_meta(g), EventTypeMeta(2, clamped(alpha * d ** (4 / 3)), 1)]
        for k in range(2, g.n // 2 + 1):
            cost = d ** (8 / 3) / (8 * alpha) if k == 2 \
                else power(d, 2 * k - 4 / 3) / (2 * alpha)
            metas.append(EventTypeMeta(k + 1, clamped(cost), 2 * k - 2))
        super().__init__(g, alpha, f"acyclic-v2({alpha})", metas)

    def _enumerate(self, v, j):
        g, rank = self.g, self.g.rank
        k = j - 1
        rows = []
        if k == 2:
            s_v = set(self.special.special(v))
            for u1, u3 in self._anchor_pairs(v):
                if g.has_edge(u1, u3):
                    continue
                for u4 in sorted(g.nbr[u1] & g.nbr[u3] - g.nbr[v] - {v}):
                    if u4 not in s_v:
                        rows.append((u1, v, u3, u4))
        else:
            # 2k-cycles with the anchor second; cycles whose color-matched
            # endpoints u1, u_{2k-1} are special both ways cannot survive the
            # special event and are excluded from the class count
            sp = self.special.is_special
            for u1, u3 in self._anchor_pairs(v):
                for ext in arms(g.adj, u3, 2 * k - 3, {u1, v, u3}):
                    if g.has_edge(ext[-1], u1) and \
                            not (sp(u1, ext[-2]) and sp(ext[-2], u1)):
                        rows.append((u1, v, u3) + ext)
        rows.sort(key=lambda r: [rank[x] for x in r])
        return rows

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
