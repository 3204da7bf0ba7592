"""Simple undirected graphs with a fixed total vertex order.

Vertices are the integers ``1..n``.  The total order defaults to the index
order but can be overridden by a permutation, which matters because the
coloring engine picks "the smallest uncolored vertex" and several event
families orient their witnesses by this order.  The module also builds the
per-vertex special set ``S(v)``, the distance-2 vertices sharing the most
neighbors with v, that the acyclic event families use to cap their class
counts.
"""

from __future__ import annotations

import hashlib
from math import floor

# Largest vertex count a graph or rotation file may announce.  Building a
# graph allocates per-vertex tables before reading any edge, so a one-line
# header could otherwise ask for gigabytes.  `Graph(...)` in code has no cap.
MAX_FILE_VERTICES = 250_000


class GraphFormatError(ValueError):
    """Malformed graph, rotation, list, or coloring document."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _clean_lines(text: str):
    """Yield (line_no, content) with comments and blank lines removed."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _header(lines) -> tuple[int, int]:
    """(n, m) from the "n m" header opening a cleaned document, refusing
    more than MAX_FILE_VERTICES vertices before anything is allocated."""
    if not lines:
        raise GraphFormatError("empty document")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError("expected header 'n m'", no)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError("expected integers in header 'n m'", no) from None
    if n > MAX_FILE_VERTICES:
        raise GraphFormatError(
            f"header announces {n} vertices, more than the {MAX_FILE_VERTICES} "
            "a file may hold", no)
    return n, m


class Graph:
    """Immutable simple graph on vertices 1..n.

    ``adj[v]`` is the neighbor tuple of v sorted ascending by index, and
    ``edges`` lists each edge once as ``(u, v)`` with ``u < v``, sorted
    lexicographically; ``edge_index`` maps an edge to its 1-based position in
    that list (edge-colored families use these positions as object ids).
    """

    __slots__ = (
        "n",
        "m",
        "adj",
        "nbr",
        "order",
        "rank",
        "edges",
        "edge_index",
        "max_degree",
    )

    def __init__(self, n: int, edges, order=None):
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        seen = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise GraphFormatError(f"loop edge at vertex {u}")
            seen.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = tuple(sorted(seen))
        self.m = len(self.edges)
        self.edge_index = {e: i for i, e in enumerate(self.edges, start=1)}
        adj = [[] for _ in range(n + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self.nbr = tuple(frozenset(a) for a in self.adj)
        self.max_degree = max((len(a) for a in self.adj[1:]), default=0)
        if order is None:
            order = tuple(range(1, n + 1))
        else:
            order = tuple(order)
            if sorted(order) != list(range(1, n + 1)):
                raise GraphFormatError("order line is not a permutation of 1..n")
        self.order = order
        rank = [0] * (n + 1)
        for pos, v in enumerate(order):
            rank[v] = pos
        self.rank = tuple(rank)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.nbr[u]

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        return self.edges[edge_id - 1]

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        if self.order != tuple(range(1, self.n + 1)):
            lines.append("order: " + " ".join(map(str, self.order)))
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.n, self.edges, self.order))


def load_graph(text: str) -> Graph:
    """Parse the edge-list format: a "n m" header, then m lines "u v".

    Lines may carry '#' comments.  An optional "order: p1 p2 ... pn" line
    anywhere after the header overrides the vertex order; it must be a
    permutation of 1..n, and a document holds at most one.
    """
    lines = list(_clean_lines(text))
    n, m = _header(lines)
    edges = []
    order = None
    for no, line in lines[1:]:
        if line.startswith("order:"):
            if order is not None:
                raise GraphFormatError("a second order line", no)
            try:
                order = [int(x) for x in line[len("order:"):].split()]
            except ValueError:
                raise GraphFormatError("order line must list integers", no) from None
            if sorted(order) != list(range(1, n + 1)):
                raise GraphFormatError("order line is not a permutation of 1..n", no)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected edge 'u v', got {line!r}", no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"expected integers, got {line!r}", no) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"edge ({u},{v}) out of range 1..{n}", no)
        if u == v:
            raise GraphFormatError(f"loop edge at vertex {u}", no)
        edges.append((u, v))
    if len(edges) != m:
        raise GraphFormatError(f"header announced {m} edges, found {len(edges)}")
    try:
        return Graph(n, edges, order=order)
    except GraphFormatError:
        raise
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


class SpecialStructure:
    """Distance-2 structure for a graph at a given alpha.

    For each vertex v the distance-2 vertices are ordered by their
    common-neighbor count with v (ties by vertex order), and ``special(v)``
    returns the top ``min(floor(alpha * max_degree^(4/3)), |N2(v)|)`` of them,
    best first.  Event families use membership and rank in this list, so the
    ordering is part of the contract.
    """

    __slots__ = ("g", "alpha", "cap", "_special")

    def __init__(self, g: Graph, alpha: float):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.g = g
        self.alpha = alpha
        self.cap = floor(alpha * g.max_degree ** (4 / 3))
        adj, rank = g.adj, g.rank
        special = [()] * (g.n + 1)
        for v in range(1, g.n + 1):
            # 2-walks from v to each w: its common neighbors with v
            common: dict[int, int] = {}
            for u in adj[v]:
                for w in adj[u]:
                    common[w] = common.get(w, 0) + 1
            common.pop(v, None)
            for u in adj[v]:
                common.pop(u, None)
            size = min(self.cap, len(common))
            if size > 0:
                ranked = sorted(common, key=lambda w: (common[w], rank[w]))
                special[v] = tuple(reversed(ranked[-size:]))
        self._special = tuple(special)

    def special(self, v: int) -> tuple[int, ...]:
        return self._special[v]

    def is_special(self, v: int, u: int) -> bool:
        """True when u sits in S(v); note this relation is not symmetric."""
        return u in self._special[v]
