"""Record counting: series recurrences against brute-force enumeration.

Records are annotated partial Dyck paths: each size unit is a climb, and a
climb may be followed by a full descent of length s_j carrying an annotation
(j, k) with k at most floor(C_j).  count_b tabulates closed paths, count_r
level-capped partials.  The enumeration oracle here is deliberately separate
from the series code so the two can disagree.
"""

import hashlib
import math
import random
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recolor.bounds import kappa_preset
from recolor.engine import EngineInput, EventTypeMeta, Record, run
from recolor.families import acyclic_gamma_family, facial_thue_edge_family
from recolor.graphs import load_graph
from recolor.planar import load_rotation
from recolor.records import (
    _RECORD_CAP,
    count_b,
    count_r,
    enumerate_records,
    growth_check,
    record_series,
)

from _util import K3_TEXT, cycle_graph, reference_count_b, reference_count_r

term_systems = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    min_size=1, max_size=3)

# fractional, sub-unit, zero and large ceilings, sizes past the small ones
wide_term_systems = st.lists(
    st.tuples(st.one_of(st.integers(0, 10 ** 6), st.floats(0, 30)),
              st.integers(1, 9)),
    min_size=1, max_size=4)


def _final_level(terms, rec):
    drop = sum(terms[e[0] - 1][1] for e in rec if e is not None)
    return len(rec) - drop


# --- closed paths ----------------------------------------------------------

def test_count_b_catalan_shift():
    assert count_b([(1, 2)], 6) == [1, 0, 1, 0, 2, 0, 5]


def test_count_b_greedy_powers():
    assert count_b([(3, 1)], 5) == [3 ** t for t in range(6)]


def test_count_b_mixed():
    assert count_b([(2, 1), (1, 2)], 2) == [1, 2, 5]


def test_count_b_floors_fractional_ceilings():
    # 2.9 annotations mean classes 1 and 2 only
    assert count_b([(2.9, 1)], 3) == count_b([(2, 1)], 3)


def test_count_b_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        count_b([(-1, 2)], 3)
    with pytest.raises(ValueError, match="positive int"):
        count_b([(1, 0)], 3)
    with pytest.raises(ValueError, match="at least one"):
        count_b([], 3)
    with pytest.raises(ValueError):
        count_b([(1, 2)], -1)


def test_count_b_exact_integers_beyond_word_size():
    big = count_b([(10 ** 9, 1)], 10)[10]
    assert big == 10 ** 90


# --- level-capped partials -------------------------------------------------

def test_count_r_examples():
    assert count_r([(2, 1)], 1, 1)[1] == 3
    assert count_r([(1, 2)], 0, 8) == count_b([(1, 2)], 8)
    assert count_r([(5, 3), (2, 1)], 4, 0)[0] == 1


def test_count_r_dominates_b():
    for terms in ([(1, 2)], [(2, 1), (1, 2)], [(3, 1), (1, 3)]):
        b = count_b(terms, 10)
        r = count_r(terms, 5, 10)
        assert all(rt >= bt for rt, bt in zip(r, b))


def test_count_r_all_unit_sizes_closed_form():
    total = 2 + 3
    n = 4
    r = count_r([(2, 1), (3, 1)], n, 9)
    for t in range(10):
        expect = sum(comb(t, lvl) * total ** (t - lvl)
                     for lvl in range(min(n, t) + 1))
        assert r[t] == expect


def test_count_r_sub_unit_ceilings_count_plain_climbs():
    # every ceiling floors to 0: no event can fire, so nothing closes and
    # each record is t plain climbs, legal while t <= n
    terms = [(0.5, 2), (0.99, 1), (5e-324, 3)]
    assert count_b(terms, 8) == [1] + [0] * 8
    assert count_r(terms, 5, 8) == [1] * 6 + [0] * 3


# --- level walk against the power recurrence ------------------------------

@given(terms=st.one_of(term_systems, wide_term_systems),
       n=st.integers(0, 70), t_max=st.integers(0, 60))
@example(terms=[(2, 1), (4, 1), (4, 1)], n=6, t_max=6)
@example(terms=[(2, 1), (4, 1), (4, 1)], n=3, t_max=40)
@settings(max_examples=80, deadline=None)
def test_series_match_the_power_recurrence(terms, n, t_max):
    assert count_b(terms, t_max) == reference_count_b(terms, t_max)
    assert count_r(terms, n, t_max) == reference_count_r(terms, n, t_max)


@pytest.mark.parametrize("cap,t_max", [(20, 240), (120, 120)])
def test_series_preset_matches_the_power_recurrence(cap, t_max):
    # the terms `count-records --problem nonrepetitive-vertex --delta 3
    # --exact-n 20` counts
    terms = kappa_preset("nonrepetitive-vertex", 3, n=20).q.terms
    b, r = record_series(terms, cap, t_max)
    assert b == reference_count_b(terms, t_max)
    assert r == reference_count_r(terms, cap, t_max)


# every preset with an exact mode, at a small delta
EXACT_PRESETS = [
    ("acyclic-gamma", 3, {"gamma": 1}),
    ("acyclic-v2", 9, {"alpha": 0.5}),
    ("nonrepetitive-vertex", 3, {}),
    ("nonrepetitive-edge", 3, {}),
    ("facial-thue-vertex", 3, {}),
    ("facial-thue-edge", None, {}),
    ("pair-forbidden", 5, {"descriptors": [(4, 4)]}),
    ("pair-forbidden", 5, {"descriptors": [(4, 4)], "form": "edge"}),
]


def _pinned_corpus():
    """Seeded (terms, n, t_max) cases: random systems with fractional,
    zero and large ceilings, then every exact-mode preset's term list."""
    rng = random.Random(34)
    for _ in range(40):
        terms = [(rng.choice([rng.randint(0, 9), rng.randint(0, 10 ** 6),
                              rng.uniform(0, 30)]), rng.randint(1, 9))
                 for _ in range(rng.randint(1, 4))]
        t_max = rng.randint(0, 60)
        for n in (0, 1, rng.randint(2, 6), t_max, t_max + 3):
            yield terms, n, t_max
    for problem, delta, kw in EXACT_PRESETS:
        for exact in (4, 12):
            terms = kappa_preset(problem, delta, n=exact, **kw).q.terms
            for n in (0, 3, 40):
                yield terms, n, 40


def test_record_series_match_their_pinned_digest():
    """b and r over `_pinned_corpus`, hashed together; pinned on the
    Lagrange-Buermann pass, so the level walk must give them bit for bit."""
    h = hashlib.sha256()
    for terms, n, t_max in _pinned_corpus():
        b, r = record_series(terms, n, t_max)
        h.update(f"{n} {t_max} {b} {r}\n".encode())
    assert h.hexdigest() == \
        "b14f2d63a1e4c2c526f257941434719c54d462dbfc45e1fb4e4a30a1855c0be8"


# (terms, n, t_max) at the edges of the level walk.  Its slots are the
# bound psi^t rounded up to whole bytes.  With one unit size and c = 256,
# b_t = 256^t has 8t + 1 bits, as many as the bound 257^t, so a width one
# bit short of the bound ends at 8t bits and loses b_t; with 1 + c a power
# of two, r_t = (1 + c)^t sits exactly on the bound
WIDTH_EDGES = [
    ([(2, 1)], 0, 0),
    ([(1, 2), (3, 1)], 0, 30),
    ([(1, 2), (3, 1)], 30, 30),
    ([(1, 2), (3, 1)], 45, 30),
    ([(2, 3), (1, 1)], 10 ** 9, 25),
    ([(1, 1)], 40, 40),
    ([(3, 1)], 2, 33),
    ([(255, 1)], 17, 17),
    ([(256, 1)], 24, 24),
    ([(256, 1)], 0, 16),
    ([(1e300, 1)], 12, 12),
    ([(1e300, 2), (1, 1)], 4, 12),
    ([(0, 1)], 3, 10),
    ([(0.5, 2), (0.99, 1)], 2, 10),
    ([(0, 3), (2, 1)], 5, 20),
    ([(2, 3), (1, 3), (4, 1), (4, 1)], 7, 30),
    ([(1, 1), (2, 5), (1, 9)], 3, 30),
    ([(3, 1), (5, 40)], 20, 20),
    ([(2, 2), (7, 21)], 1, 20),
]


def _width_fuzz():
    rng = random.Random(1034)
    yield from WIDTH_EDGES
    for _ in range(60):
        ceilings = [0, 0.5, rng.randint(1, 9), 2 ** rng.randint(1, 40),
                    rng.uniform(0, 30), 1e30]
        terms = [(rng.choice(ceilings), rng.randint(1, 12))
                 for _ in range(rng.randint(1, 5))]
        t_max = rng.randint(0, 36)
        n = rng.choice([0, 1, rng.randint(2, 8), t_max, 10 ** 9])
        yield terms, n, t_max


def test_level_walk_width_matches_the_power_recurrence():
    """The walk's slot width is a proved bound; a slot that overflowed it
    would carry into the next level and change both counts."""
    for terms, n, t_max in _width_fuzz():
        b, r = record_series(terms, n, t_max)
        assert b == reference_count_b(terms, t_max), (terms, t_max)
        assert r == reference_count_r(terms, n, t_max), (terms, n, t_max)


def test_record_series_refuses_long_tables_before_counting():
    # the refusal reads bit lengths only, so a huge t_max returns at once;
    # sub-unit ceilings leave one-byte slots, refused all the same
    for terms, t_max in [([(1, 1)], 10 ** 7), ([(0.5, 1)], 10 ** 6),
                         ([(1e300, 2)], 10 ** 18)]:
        with pytest.raises(ValueError, match="refusing to count records"):
            record_series(terms, 1, t_max)
    b, _ = record_series([(1, 1)], 1, 400)
    assert b == [1] * 401


# --- enumeration oracle ----------------------------------------------------

def test_enumerate_smallest_cases():
    assert enumerate_records([(1, 2)], 2, 0) == [()]
    assert enumerate_records([(1, 2)], 2, 1) == [(None,)]
    assert enumerate_records([(1, 2)], 2, 2) == [
        (None, None), (None, (1, 1))]


def test_enumerate_matches_series_when_cap_is_loose():
    terms = [(1, 2)]
    for t in range(8):
        assert len(enumerate_records(terms, 8, t)) == count_r(terms, 8, t)[t]


def test_enumerate_refuses_large_sizes():
    with pytest.raises(ValueError, match="refusing to enumerate"):
        enumerate_records([(1, 2)], 3, 15)


def test_enumerate_refuses_large_counts():
    # one climb of a 1e300-ceiling system already has 1e300 annotations
    with pytest.raises(ValueError, match="more than 1000000 records"):
        enumerate_records([(1e300, 1)], 3, 1)
    with pytest.raises(ValueError, match="more than 1000000 records"):
        enumerate_records([(10, 1)], 6, 6)  # 11**6 records
    assert len(enumerate_records([(9, 1)], 5, 5)) == 10 ** 5


def test_tight_cap_enumeration_is_smaller():
    # partials of size 3 under cap 1: every climb except a final one must
    # be cancelled at once, giving 2*2*3 = 12 paths; the series counts 20
    # because its excursion factors may transiently exceed the cap
    assert len(enumerate_records([(2, 1)], 1, 3)) == 12
    assert count_r([(2, 1)], 1, 3)[3] == 20


@given(terms=term_systems, n=st.integers(0, 6), t=st.integers(0, 6))
@example(terms=[(2, 1), (4, 1), (4, 1)], n=6, t=6)  # 11**6 records
@settings(max_examples=150, deadline=None)
def test_series_equal_enumeration_above_the_diagonal(terms, n, t):
    want = count_r(terms, n, t)[t]
    if want > _RECORD_CAP:
        with pytest.raises(ValueError, match="refusing to enumerate"):
            enumerate_records(terms, n, t)
        return
    got = len(enumerate_records(terms, n, t))
    if n >= t:
        assert got == want
    else:
        assert got <= want


@given(terms=term_systems, t=st.integers(0, 6))
@example(terms=[(2, 1), (4, 1), (4, 1)], t=6)  # 11**6 records
@settings(max_examples=150, deadline=None)
def test_closed_enumeration_matches_b(terms, t):
    if count_r(terms, t, t)[t] > _RECORD_CAP:
        with pytest.raises(ValueError, match="refusing to enumerate"):
            enumerate_records(terms, t, t)
        return
    closed = [rec for rec in enumerate_records(terms, t, t)
              if _final_level(terms, rec) == 0]
    assert len(closed) == count_b(terms, t)[t]


@given(terms=term_systems, n=st.integers(0, 5), t=st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_enumerated_paths_replay_as_engine_records(terms, n, t):
    metas = tuple(EventTypeMeta(j, float(c), s)
                  for j, (c, s) in enumerate(terms, start=1))
    for rec in enumerate_records(terms, n, t):
        levels = Record(rec).levels(metas)
        assert all(0 <= lvl <= n for lvl in levels)


# --- periodicity and growth ------------------------------------------------

@given(terms=term_systems)
@settings(max_examples=100, deadline=None)
def test_zero_pattern_follows_size_gcd(terms):
    d = math.gcd(*(s for _, s in terms))
    b = count_b(terms, 40)
    for t in range(41):
        if t % d:
            assert b[t] == 0
    # multiples of d are eventually positive; sizes <= 4 settle well below 30
    for t in range(30, 41):
        if t % d == 0:
            assert b[t] > 0


@given(terms=term_systems, n=st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_partials_bounded_by_shifted_closed_counts(terms, n):
    # completing a partial at level l appends climbs with net drop s - 1, so
    # some size must exceed 1 for any completion to exist; given that, every
    # r_t is covered by a nearby b, with a max over the window because the
    # closed counts are punctured by the size gcd
    if max(s for _, s in terms) == 1:
        terms = terms + [(1, 2)]
    window = n * max(s for _, s in terms)
    b = count_b(terms, 12 + window)
    r = count_r(terms, n, 12)
    for t in range(13):
        assert r[t] <= max(b[t + c] for c in range(window + 1))


def test_unit_size_partials_escape_any_fixed_window():
    # with only unit descents nothing ever closes a leftover climb: b_t
    # stays at 1 while r_t grows like a polynomial of degree n
    b = count_b([(1, 1)], 30)
    r = count_r([(1, 1)], 4, 20)
    assert all(bt == 1 for bt in b)
    assert r[20] == sum(comb(20, lvl) for lvl in range(5))
    assert r[20] > (4 + 1) * max(b)


def test_growth_catalan():
    report = growth_check([(1, 2)], 60)
    assert report.ok
    assert report.base == pytest.approx(2.0, rel=1e-9)
    assert report.prefactor == pytest.approx(2.0, rel=1e-6)
    # b_t^(1/t) climbs toward the base from below
    assert 0.8 < report.trajectory[-1] < 1.0
    assert report.trajectory[-1] > report.trajectory[1]


def test_growth_greedy_exact():
    report = growth_check([(3, 1)], 10)
    assert report.ok
    assert report.base == 4.0
    assert report.prefactor == 3.0


def test_growth_acyclic_terms():
    terms = kappa_preset("acyclic-gamma", 3, gamma=1, n=10).q.terms
    assert growth_check(terms, 60).ok


@given(terms=term_systems)
@settings(max_examples=60, deadline=None)
def test_growth_holds_on_fuzzed_systems(terms):
    assert growth_check(terms, 30).ok


# --- one-pass series -------------------------------------------------------

def test_record_series_table():
    b, r = record_series([(2, 1), (1, 2)], 3, 6)
    assert b == [1, 2, 5, 14, 42, 132, 429]
    assert r == [1, 3, 10, 35, 125, 451, 1638]
    assert b[0] == 1
    assert all(rt >= bt for rt, bt in zip(r, b))


# --- engine linkage ---------------------------------------------------------

def _assert_run_records_are_legal_paths(g, fam, kappa, seeds, budget):
    terms = [(meta.cost, meta.uncolor_size) for meta in fam.metas]
    cache = {}
    for seed in seeds:
        res = run(g, fam, EngineInput(kappa, seed=seed, budget=budget))
        steps = tuple(res.record.steps)
        t = len(steps)
        if t not in cache:
            cache[t] = set(enumerate_records(terms, fam.n_objects, t))
        assert steps in cache[t]


def test_engine_records_enumerable_acyclic():
    g = cycle_graph(4)
    fam = acyclic_gamma_family(g, 1)
    _assert_run_records_are_legal_paths(g, fam, 2, range(25), 8)


def test_engine_records_enumerable_facial():
    pg = load_rotation("3 3\n1: 2 3\n2: 1 3\n3: 1 2\n")
    fam = facial_thue_edge_family(pg, 3)
    _assert_run_records_are_legal_paths(pg.graph, fam, 3, range(25), 8)
