"""Non-repetitive coloring families: no path may read a block twice.

The type-j event is a colored repetition on a 2j-object simple path through
the anchor; both variants uncolor the half containing the anchor and rebuild
by mirroring the surviving half, which pins the anchor's erased color because
repetition pairs positions i and i+j (`Repetition` rows).  Each variant only
names its problem: `Family` reads the object kind and the class ceilings
from its `bounds.PROBLEM_TABLE` row, and `PathRepetitionFamily` builds the
step table from the object kind and walks it both to search every type
(growing the colored paths through the anchor two mirrored objects at a
time) and to enumerate the witnesses that rank a hit.
"""

from __future__ import annotations

from ..graphs import Graph
from .base import PathRepetitionFamily


class _NonrepVertexFamily(PathRepetitionFamily):
    problem = "nonrepetitive-vertex"


def nonrepetitive_vertex_family(g: Graph) -> _NonrepVertexFamily:
    """Type j: a 2j-vertex path through the anchor colored as two equal
    halves; j*Delta^(2j-1) bounds the anchor's path count (j essentially
    distinct anchor positions, Delta^(2j-1) extensions)."""
    return _NonrepVertexFamily(g)


class _NonrepEdgeFamily(PathRepetitionFamily):
    problem = "nonrepetitive-edge"


def nonrepetitive_edge_family(g: Graph) -> _NonrepEdgeFamily:
    """As the vertex variant with edges as the colored objects (paths of 2j
    edges, vertex-simple); the anchor may sit at 2j edge positions, doubling
    the ceiling to 2j*Delta^(2j-1)."""
    return _NonrepEdgeFamily(g)
