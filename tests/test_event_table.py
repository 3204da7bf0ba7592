"""Every family's event table, checked against its metas and witnesses.

A family declares its objects (edges exactly when ``on_edges`` is set, so
the object count is ``g.m``, else ``g.n``), candidate tables for its first
types and a row width for every later type, one row shape and one width
cap; the event loop on `Family` reads the tables, then the row types its
`fired` yields.  The loop probes types in order, so the declaration must
cover each meta type exactly once and in ascending order, and every witness
row must be as wide as its shape says.  A class past the anchor's class
list is a decode error, and so is a class naming an uncolored candidate.
A record forged from a run's by one step's edit is refused with
`DecodeError` or decodes to a stream that replays; nothing else escapes.
"""

import random
from collections import Counter

import pytest

from recolor.bounds import PROBLEM_TABLE
from recolor.engine import (
    DecodeError,
    EngineInput,
    PartialColoring,
    Record,
    decode,
    run,
)
from recolor.families import (
    acyclic_gamma_family,
    facial_thue_edge_family,
    nonrepetitive_vertex_family,
)
from recolor.families.acyclic import Bicolored
from recolor.families.base import Repetition
from recolor.graphs import Graph
from recolor.planar import load_rotation

from _util import FAMILY_CASES, fuzzed_instance

INSTANCES = 15
# rows are enumerated up to this width; wider types only get the cap check
ENUMERATED_WIDTH = 6

# shape -> the width of a row type that uncolors u objects
WIDTH = {Bicolored: lambda u: u + 2, Repetition: lambda u: 2 * u}

K3_ROT = "3 3\n1: 2 3\n2: 3 1\n3: 1 2\n"


def instances(name):
    rng = random.Random(f"event table {name}")
    make_graph, make_family, _ = FAMILY_CASES[name]
    for _ in range(INSTANCES):
        yield make_family(make_graph(rng), rng)


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_every_type_is_declared_once_in_order(name):
    for fam in instances(name):
        assert fam.on_edges == PROBLEM_TABLE[name].on_edges
        assert fam.n_objects == (fam.g.m if fam.on_edges else fam.g.n)
        types = [m.type_id for m in fam.metas]
        tables = list(range(1, len(fam.tables) + 1))
        assert tables + list(fam._width) == types
        assert types == list(range(1, len(types) + 1))
        for j, table in zip(tables, fam.tables):
            assert fam.metas[j - 1].uncolor_size == 1, (name, j)
            assert len(table) == fam.n_objects + 1, (name, j)


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_row_widths_follow_the_shape_and_the_cap(name):
    """Rows are ``u + 2`` objects for the acyclic (bicolored) families and
    ``2u`` for the repetition families.  No row type is wider than
    ``widest``, except in the facial families, whose cap is the longest
    face and whose wider types have no witness at any object."""
    shape = Bicolored if name.startswith("acyclic") else Repetition
    for fam in instances(name):
        assert fam.shape is shape
        for j in fam._width:
            width = WIDTH[shape](fam.metas[j - 1].uncolor_size)
            assert fam._width[j] == width, (name, j)
            if width > fam.widest:
                assert name.startswith("facial"), (name, j, fam.widest)
            if width > fam.widest or width <= ENUMERATED_WIDTH:
                for v in range(1, fam.n_objects + 1):
                    rows = fam.witness_rows(v, j)[0]
                    assert all(len(row) == width for row in rows), (name, j, v)
                    assert width <= fam.widest or not rows, (name, j, v)


@pytest.mark.parametrize("make, n, steps", [
    # vertex 1 is pendant, so its type-1 candidate tuple holds one neighbor
    # although the ceiling is the max degree 3
    (lambda: acyclic_gamma_family(Graph(4, [(1, 2), (2, 3), (2, 4)]), 1), 4, ((1, 2),)),
    # P4 has one type-2 path, through every vertex, and the ceiling is 16;
    # the event comes second, so that its two objects can be colored
    (lambda: nonrepetitive_vertex_family(Graph(4, [(1, 2), (2, 3), (3, 4)])), 4,
     (None, (2, 5))),
    # edge 2 is colored first; its medial neighbors are 1 and 3, and the
    # uncolored edge 1 is skipped, so its type-1 class list has one entry
    (lambda: facial_thue_edge_family(load_rotation(K3_ROT), 1), 3, ((1, 2),)),
], ids=["gamma-table", "nonrepetitive-row", "facial-edge-row"])
def test_a_class_past_the_class_list_fails_as_decode_error(make, n, steps):
    """A forged record whose last step's class is within its type's ceiling
    but past the anchor's class list (`_classes`) names no event."""
    fam = make()
    j, k = steps[-1]
    assert k <= fam.metas[j - 1].cost
    with pytest.raises(DecodeError, match="names no event"):
        decode(None, fam, PartialColoring(n), Record(steps))


def test_a_class_naming_an_uncolored_candidate_fails_as_decode_error():
    """On the path 1-2-3 the forged record (color, type 1 class 2) with the
    final coloring {1: 1} says vertex 2 repeated the color of its class-2
    candidate, vertex 3, which is uncolored at that step; the rebuild would
    read color 0."""
    fam = acyclic_gamma_family(Graph(3, [(1, 2), (2, 3)]), 1)
    final = PartialColoring(3)
    final.assign(1, 1)
    with pytest.raises(DecodeError, match="at step 2: bad assignment 2 <- 0"):
        decode(None, fam, final, Record((None, (1, 2))))


def forgeries(steps, rng, count=6):
    """``count`` records, each ``steps`` with one step edited: its class or
    type moved by one, an event turned into a plain color or back, or the
    step deleted."""
    for _ in range(count):
        out = list(steps)
        i = rng.randrange(len(out))
        step = out[i]
        kind = rng.randrange(4)
        if kind == 0:
            del out[i]
        elif step is None:
            out[i] = (rng.randint(1, 2), 1)
        elif kind == 1:
            out[i] = None
        else:
            j, k = step
            shift = rng.choice((-1, 1))
            out[i] = (j + shift, k) if kind == 2 else (j, k + shift)
        yield Record(tuple(out))


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_a_forged_record_is_refused_or_replays(name):
    """Decode either refuses a forged record with `DecodeError` or returns
    a stream that `EngineInput` accepts and `run` replays without raising.
    Whether that replay gives back the forged record is not asserted here:
    decode does not yet check each step's detection."""
    rng = random.Random(f"forged {name}")
    outcomes = Counter()
    for _ in range(40):
        g, fam, inp = fuzzed_instance(name, rng, kappas=(2, 3))
        res = run(g, fam, inp)
        if not res.record.steps:
            continue
        for forged in forgeries(res.record.steps, rng):
            try:
                values = decode(g, fam, res.coloring, forged)
            except DecodeError:
                outcomes["refused"] += 1
                continue
            run(g, fam, EngineInput(inp.kappa, vector=values))
            outcomes["replayed"] += 1
    assert outcomes["refused"] and outcomes["replayed"]


def test_a_forged_event_wider_than_the_colored_set_is_refused_unsearched():
    """A fuzzed acyclic-gamma instance (n=12, m=47, kappa 3) whose record's
    fourth step is forged into a type-6 event, which uncolors 10 objects
    while 3 are colored: replay refuses it from the type's uncolor size,
    without enumerating a witness list (this one took seconds to fill)."""
    g, fam, inp = fuzzed_instance("acyclic-gamma", random.Random("forged wide 858"),
                                  kappas=(2, 3))
    assert (g.n, g.m, inp.kappa) == (12, 47, 3)
    res = run(g, fam, inp)
    steps = list(res.record.steps)
    assert steps[:4] == [None, None, (1, 1), None]
    top = fam.metas[-1]
    assert (top.type_id, top.uncolor_size) == (6, 10)
    steps[3] = (6, 1)
    calls = []
    rows = fam.witness_rows

    def counted(v, j):
        calls.append((v, j))
        return rows(v, j)

    fam.witness_rows = counted
    with pytest.raises(DecodeError, match="type 6 event at 3 uncolors 10 objects, but only 3"):
        decode(g, fam, res.coloring, Record(tuple(steps)))
    assert calls == []
