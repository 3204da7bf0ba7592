"""Non-repetitive coloring families: no path may read a block twice.

The type-j event is a colored repetition on a 2j-object simple path through
the anchor; both variants uncolor the half containing the anchor and rebuild
by mirroring the surviving half, which pins the anchor's erased color because
repetition pairs positions i and i+j (`Repetition` rows).  The class
ceilings come from `bounds.ceilings`, and each variant only declares its
step table (``_steps``, aligned with ``g.adj``: the neighbor itself for
vertex paths, the edge id for edge paths) and the ends of an object;
`PathRepetitionFamily` walks that table both to search every type
(growing the colored paths through the anchor two mirrored objects at a
time) and to enumerate the witnesses that rank a hit.
"""

from __future__ import annotations

from ..bounds import ceilings
from ..graphs import Graph
from .base import PathRepetitionFamily, Repetition


class _NonrepVertexFamily(PathRepetitionFamily):
    def __init__(self, g: Graph):
        super().__init__(g, "nonrepetitive-vertex",
                         ceilings("nonrepetitive-vertex", g.max_degree, g.n),
                         Repetition)
        self._steps = g.adj

    def _ends(self, v):
        return ((v, v),)


def nonrepetitive_vertex_family(g: Graph) -> _NonrepVertexFamily:
    """Type j: a 2j-vertex path through the anchor colored as two equal
    halves; j*Delta^(2j-1) bounds the anchor's path count (j essentially
    distinct anchor positions, Delta^(2j-1) extensions)."""
    return _NonrepVertexFamily(g)


class _NonrepEdgeFamily(PathRepetitionFamily):
    on_edges = True

    def __init__(self, g: Graph):
        super().__init__(g, "nonrepetitive-edge",
                         ceilings("nonrepetitive-edge", g.max_degree, g.n),
                         Repetition)
        self._steps = tuple(
            tuple(g.edge_index[(min(x, w), max(x, w))] for w in nb)
            for x, nb in enumerate(g.adj))

    def _ends(self, e):
        a, b = self.g.endpoints(e)
        return ((a, b), (b, a))


def nonrepetitive_edge_family(g: Graph) -> _NonrepEdgeFamily:
    """As the vertex variant with edges as the colored objects (paths of 2j
    edges, vertex-simple); the anchor may sit at 2j edge positions, doubling
    the ceiling to 2j*Delta^(2j-1)."""
    return _NonrepEdgeFamily(g)
