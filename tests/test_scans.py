"""Contracts of the witness-row scans the families detect events with."""

import random
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


def _first_equal_reference(colors, anchor_color, candidates):
    for i, obj in enumerate(candidates):
        if colors[obj] == anchor_color:
            return i
    return -1


def test_first_equal_matches_the_enumerating_scan():
    # repeated candidates, uncolored objects (color 0) and misses, on tuples
    # and on int arrays alike
    rng = random.Random("first_equal")
    outcomes = set()
    for _ in range(2000):
        n = rng.randint(1, 8)
        colors = _colors(rng.randint(0, 3) for _ in range(n))
        picks = [rng.randint(1, n) for _ in range(rng.randint(0, 10))]
        color = rng.randint(0, 4)
        want = _first_equal_reference(colors, color, picks)
        for candidates in (tuple(picks), array("i", picks)):
            assert first_equal(colors, color, candidates) == want
        repeated = want >= 0 and picks.count(picks[want]) > 1
        outcomes.add((want >= 0, color == 0, repeated))
    # every kind of case was drawn: hits and misses, on color 0 or not, and
    # hits on an object that recurs later in the candidates
    assert len(outcomes) == 6


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
