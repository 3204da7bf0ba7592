"""Every family's event table, checked against its metas and witnesses.

A family declares candidate tables for its first types and a row width
for every later type, one row shape and one width cap; the event loop on
`Family` reads the tables, then the row types its `fired` yields.  The loop
probes types in order, so the declaration must cover each meta type exactly
once and in ascending order, and every witness row must be as wide as its
shape says.
"""

import random

import pytest

from recolor.families.acyclic import Bicolored
from recolor.families.base import Repetition

from _util import FAMILY_CASES

INSTANCES = 15
# rows are enumerated up to this width; wider types only get the cap check
ENUMERATED_WIDTH = 6

# shape -> the width of a row type that uncolors u objects
WIDTH = {Bicolored: lambda u: u + 2, Repetition: lambda u: 2 * u}


def instances(name):
    rng = random.Random(f"event table {name}")
    make_graph, make_family, _ = FAMILY_CASES[name]
    for _ in range(INSTANCES):
        yield make_family(make_graph(rng), rng)


@pytest.mark.parametrize("name", sorted(FAMILY_CASES))
def test_every_type_is_declared_once_in_order(name):
    for fam in instances(name):
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
