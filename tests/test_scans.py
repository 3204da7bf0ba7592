"""Contracts of the witness-row scans the families detect events with."""

from array import array

from recolor.families.acyclic import first_bicolored, first_equal
from recolor.families.base import first_repetition


def _colors(values):
    # slot 0 is the unused dummy, object ids are 1-based
    return array("i", [0] + list(values))


def test_first_equal_contract():
    colors = _colors([2, 0, 2, 1])
    assert first_equal(colors, 2, array("i", [2, 4, 1])) == 2
    assert first_equal(colors, 2, array("i", [3, 1])) == 0
    assert first_equal(colors, 5, array("i", [1, 2, 3, 4])) == -1
    assert first_equal(colors, 0, array("i", [1, 2])) == 1
    assert first_equal(colors, 2, array("i", [])) == -1


def test_first_repetition_contract():
    colors = _colors([1, 2, 1, 2, 0, 3])
    rows = array("i", [1, 2, 5, 6,   # second half not matching first
                       1, 2, 3, 4,   # 1,2 then 1,2: repetition
                       3, 4, 1, 2])
    assert first_repetition(colors, rows, 4) == 1
    # uncolored blocks
    assert first_repetition(colors, array("i", [1, 5]), 2) == -1
    assert first_repetition(colors, array("i", [1, 3]), 2) == 0
    assert first_repetition(colors, array("i", []), 2) == -1


def test_first_bicolored_contract():
    colors = _colors([1, 2, 1, 2, 1, 1])
    assert first_bicolored(colors, array("i", [1, 2, 3, 4]), 4) == 0
    rows = array("i", [1, 6, 3, 4,  1, 2, 5, 4])
    assert first_bicolored(colors, rows, 4) == 1
    assert first_bicolored(colors, array("i", [1, 2, 3, 2, 5, 4]), 6) == 0
    assert first_bicolored(colors, array("i", [2, 4, 1, 3]), 4) == -1  # a == b
    assert first_bicolored(colors, array("i", []), 6) == -1
