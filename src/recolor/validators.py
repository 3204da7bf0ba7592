"""Brute-force ground truth for every coloring property the engine targets.

These checkers enumerate paths, cycles, facial windows, and subgraph
embeddings directly, sharing no code with the event detectors, so agreement
between a completed run and its validator is evidence rather than tautology.
All-paths and all-cycles scopes refuse graphs beyond desk scale.

Colorings are dicts keyed by object id (vertices, or edge ids for edge
properties); a missing key or the value 0 means uncolored.  Windows with an
uncolored entry never count as violations.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph
from .planar import PlaneGraph

__all__ = [
    "CheckResult",
    "check_acyclic",
    "check_nonrepetitive",
    "check_pair_forbidden",
    "check_proper",
    "check_r_acyclic",
]

_SCALE_CAP = 14


class CheckResult(NamedTuple):
    ok: bool
    witness: tuple | None
    message: str

    def __bool__(self) -> bool:
        return self.ok


_OK = CheckResult(True, None, "ok")


def _color(phi: dict, x) -> int:
    return phi.get(x, 0)


def _guard(n: int, what: str) -> None:
    if n > _SCALE_CAP:
        raise ValueError(
            f"refusing {what} enumeration beyond {_SCALE_CAP} vertices, "
            f"got {n}")


def check_proper(g: Graph, phi: dict) -> CheckResult:
    """No edge joins two equal nonzero colors."""
    for u, v in g.edges:
        cu, cv = _color(phi, u), _color(phi, v)
        if cu and cu == cv:
            return CheckResult(False, (u, v),
                               f"edge ({u},{v}) is monochromatic in {cu}")
    return _OK


def _canonical_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    best = None
    for cand in (seq, tuple(reversed(seq))):
        k = cand.index(min(cand))
        rot = cand[k:] + cand[:k]
        if best is None or rot < best:
            best = rot
    return best


def _forest_cycle(vertices: set[int], g: Graph) -> tuple[int, ...] | None:
    """A cycle of the induced subgraph on ``vertices``, or None."""
    seen: dict[int, int | None] = {}
    for root in sorted(vertices):
        if root in seen:
            continue
        seen[root] = None
        stack = [root]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w not in vertices:
                    continue
                if w not in seen:
                    seen[w] = u
                    stack.append(w)
                elif w != seen[u]:
                    # climb both parent chains to the meeting point
                    pu, pw = [u], [w]
                    while pu[-1] is not None:
                        pu.append(seen[pu[-1]])
                    while pw[-1] is not None:
                        pw.append(seen[pw[-1]])
                    au = [x for x in pu if x is not None]
                    aw = [x for x in pw if x is not None]
                    on_aw = set(aw)
                    common = next(x for x in au if x in on_aw)
                    cyc = (au[:au.index(common) + 1]
                           + list(reversed(aw[:aw.index(common)])))
                    if len(cyc) >= 3:
                        return _canonical_cycle(tuple(cyc))
    return None


def check_acyclic(g: Graph, phi: dict) -> CheckResult:
    """Proper, and every two color classes induce a forest.  On a proper
    coloring the subgraph two classes induce is the bucket of edges joining
    them, so each color pair some edge joins gets one union-find pass over
    its bucket, in ascending order; only the first pair that closes a cycle
    is searched for its witness."""
    proper = check_proper(g, phi)
    if not proper:
        return proper
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v in g.edges:
        cu, cv = _color(phi, u), _color(phi, v)
        if cu and cv:
            buckets.setdefault((cu, cv) if cu < cv else (cv, cu), []).append((u, v))
    root = list(range(g.n + 1))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for (a, b), bucket in sorted(buckets.items()):
        for u, v in bucket:
            ru, rv = find(u), find(v)
            if ru == rv:
                cyc = _forest_cycle(
                    {x for x in range(1, g.n + 1) if _color(phi, x) in (a, b)}, g)
                return CheckResult(
                    False, cyc, f"colors {a},{b} induce the cycle {cyc}")
            root[ru] = rv
        for u, v in bucket:
            root[u], root[v] = u, v
    return _OK


def _simple_paths(g: Graph, parity_even_vertices: bool):
    """Every simple path with >= 2 vertices, once per undirected path."""
    for start in range(1, g.n + 1):
        path = [start]
        on = {start}

        def extend():
            u = path[-1]
            for w in g.adj[u]:
                if w in on:
                    continue
                path.append(w)
                on.add(w)
                if path[0] < path[-1] and \
                        (len(path) % 2 == 0) == parity_even_vertices:
                    yield tuple(path)
                yield from extend()
                on.remove(w)
                path.pop()

        yield from extend()


def _is_repetition(colors: list[int]) -> bool:
    half = len(colors) // 2
    return all(colors) and colors[:half] == colors[half:]


def _facial_repetition(pg: PlaneGraph, phi: dict, *, edges: bool):
    """The first repeating simple window along the face walks, as the
    smaller of it and its reversal, or None.

    Faces are read in order, then even sizes 2h ascending, then offsets
    ascending.  A window is simple when it spans 2h distinct vertices
    (2h + 1 for edges, which keeps edge windows genuine paths): each
    offset's longest run of distinct vertices is measured once, and only
    the windows it holds have their halves compared, up to the first
    mismatch.  Vertex windows are tuples of vertices, edge windows tuples
    of edge ids.
    """
    index = pg.graph.edge_index
    for face in pg.faces:
        f = len(face)
        verts = objs = [u for u, _ in face] * 2
        if edges:
            objs = [index[(u, v) if u < v else (v, u)] for u, v in face] * 2
        colors = [_color(phi, x) for x in objs]
        # run[off]: distinct vertices from off on; verts[off + f] repeats
        # verts[off], so ``end`` stays inside the doubled walk
        run, seen, end = [], set(), 0
        for off in range(f):
            while verts[end] not in seen:
                seen.add(verts[end])
                end += 1
            run.append(end - off)
            seen.discard(verts[off])
        for h in range(1, (max(run) - edges) // 2 + 1):
            span = 2 * h + edges
            for off in range(f):
                if run[off] < span:
                    continue
                for i in range(off, off + h):
                    if not colors[i] or colors[i] != colors[i + h]:
                        break
                else:
                    window = tuple(objs[off:off + 2 * h])
                    return min(window, window[::-1])
    return None


def check_nonrepetitive(g: Graph, phi: dict, objects: str = "vertex",
                        facial: PlaneGraph | None = None) -> CheckResult:
    """No even window repeats its first half, over the requested scope.

    ``objects`` selects vertex paths or edge paths (colorings keyed by edge
    id); ``facial`` restricts the scope to windows along the embedding's
    face boundaries, read in place in memory linear in each face's length,
    so no size guard applies.  Windows that revisit a vertex are skipped
    before their halves are compared, which stops at the first mismatch,
    so the time is linear in the face length where the longest simple
    window is short (a star's face), quadratic where colors differ early
    (distinct colors), and cubic at worst.
    """
    if objects not in ("vertex", "edge"):
        raise ValueError(f"objects must be 'vertex' or 'edge', got {objects!r}")
    if facial is not None:
        # facial windows never read the vertex order, so only n and the
        # edges have to agree
        if facial.graph.n != g.n or facial.graph.edges != g.edges:
            raise ValueError("embedding does not match the graph")
        window = _facial_repetition(facial, phi, edges=objects == "edge")
        if window is not None:
            return CheckResult(False, window, f"facial repetition on {window}")
        return _OK
    _guard(g.n, "path")
    if objects == "vertex":
        for path in _simple_paths(g, parity_even_vertices=True):
            if _is_repetition([_color(phi, v) for v in path]):
                return CheckResult(False, path, f"repetition on {path}")
    else:
        for path in _simple_paths(g, parity_even_vertices=False):
            ids = tuple(g.edge_index[(min(a, b), max(a, b))]
                        for a, b in zip(path, path[1:]))
            if _is_repetition([_color(phi, e) for e in ids]):
                return CheckResult(False, ids, f"edge repetition on {ids}")
    return _OK


def _all_cycles(g: Graph):
    """Every simple cycle once, as a tuple starting at its smallest vertex."""
    for s in range(1, g.n + 1):
        path = [s]
        on = {s}

        def extend():
            u = path[-1]
            for w in g.adj[u]:
                if w == s and len(path) >= 3 and path[1] < path[-1]:
                    yield tuple(path)
                elif w > s and w not in on:
                    path.append(w)
                    on.add(w)
                    yield from extend()
                    on.remove(w)
                    path.pop()

        yield from extend()


def check_r_acyclic(g: Graph, phi: dict, r: int) -> CheckResult:
    """Proper, and every fully colored cycle C shows min(|C|, r) colors."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    _guard(g.n, "cycle")
    proper = check_proper(g, phi)
    if not proper:
        return proper
    for cyc in _all_cycles(g):
        colors = [_color(phi, v) for v in cyc]
        if not all(colors):
            continue
        need = min(len(cyc), r)
        if len(set(colors)) < need:
            return CheckResult(
                False, cyc,
                f"cycle {cyc} shows {len(set(colors))} colors, needs {need}")
    return _OK


def _bipartite_or_raise(h: Graph) -> None:
    side = {}
    for root in range(1, h.n + 1):
        if root in side or not h.adj[root]:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            for w in h.adj[u]:
                if w not in side:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    raise ValueError("the forbidden pattern must be bipartite")


def _find_monomorphism(h: Graph, vertices: list[int],
                       adj: dict[int, set[int]]) -> tuple[int, ...] | None:
    """An injective map of h into (vertices, adj) preserving h's edges."""
    if h.n == 0:
        return ()
    seq: list[int] = []
    anchor: dict[int, int | None] = {}
    placed = set()
    for root in range(1, h.n + 1):
        if root in placed:
            continue
        anchor[root] = None
        seq.append(root)
        placed.add(root)
        i = len(seq) - 1
        while i < len(seq):
            for w in h.adj[seq[i]]:
                if w not in placed:
                    anchor[w] = seq[i]
                    seq.append(w)
                    placed.add(w)
            i += 1
    image: dict[int, int] = {}
    used = set()

    def place(i: int) -> bool:
        if i == len(seq):
            return True
        hv = seq[i]
        base = anchor[hv]
        pool = adj[image[base]] if base is not None else vertices
        for cand in pool:
            if cand in used:
                continue
            if all(image[hn] in adj[cand]
                   for hn in h.adj[hv] if hn in image):
                image[hv] = cand
                used.add(cand)
                if place(i + 1):
                    return True
                used.remove(cand)
                del image[hv]
        return False

    if place(0):
        return tuple(image[v] for v in range(1, h.n + 1))
    return None


def check_pair_forbidden(g: Graph, phi: dict, h: Graph) -> CheckResult:
    """Proper, and no two color classes contain a copy of the pattern."""
    if h.n > 8:
        raise ValueError(f"pattern too large to match, {h.n} > 8 vertices")
    if h.m == 0:
        raise ValueError("the forbidden pattern needs at least one edge")
    _guard(g.n, "subgraph")
    _bipartite_or_raise(h)
    proper = check_proper(g, phi)
    if not proper:
        return proper
    classes: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        c = _color(phi, v)
        if c:
            classes.setdefault(c, []).append(v)
    colors = sorted(classes)
    for i, a in enumerate(colors):
        for b in colors[i + 1:]:
            vertices = classes[a] + classes[b]
            keep = set(vertices)
            adj = {v: {w for w in g.adj[v] if w in keep} for v in vertices}
            image = _find_monomorphism(h, vertices, adj)
            if image is not None:
                return CheckResult(
                    False, image,
                    f"colors {a},{b} contain the pattern via {image}")
    return _OK
