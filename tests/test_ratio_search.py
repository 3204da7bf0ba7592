"""`optimize_ratio(q, start)`: a starting guess only saves evaluations.

The minimizer is the midpoint a 1e-12 bisection of (0, hi) ends on.  With
``start`` the bisection skips midpoints outside a bracket that secant steps
from the guess found, and checks the bracket where it relied on it, so its
result must equal the plain search's bit for bit, whatever the guess; the
presets pass their pinned point, from which every preset's bracket must
hold and cut the evaluations of p.
"""

import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import recolor.bounds as bounds
from recolor.bounds import (
    PROBLEM_TABLE,
    PROBLEMS,
    ClosedTail,
    QPolynomial,
    kappa_preset,
    optimize_ratio,
)


def _bits(res):
    # repr keeps every bit of a float and reads nan as nan
    return repr(tuple(res))


def _same_with_and_without(q, start):
    try:
        plain = _bits(optimize_ratio(q))
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            optimize_ratio(q, start)
        return
    assert _bits(optimize_ratio(q, start)) == plain, start


def _preset_grid():
    """(problem, delta, keywords): every problem at delta 2..2000 in tail
    mode and at exact sizes, plus other acyclic-v1 alphas and gammas."""
    for problem in PROBLEMS:
        exact = "n" in PROBLEM_TABLE[problem].options.split()
        for delta in range(2, 2001):
            for n in (None, 20) if delta % 7 else (None, 6, 20, 101):
                yield problem, delta, {"n": n if exact else None,
                                       "descriptors": [(4, 4)]}
    for delta in range(24, 2001, 13):
        for alpha in (0.01, 0.25, 1.0):
            yield "acyclic-v1", delta, {"alpha": alpha}
        yield "acyclic-gamma", delta, {"gamma": 3, "n": None}
        yield "pair-forbidden", delta, {"descriptors": [(5, 6), (6, 9)],
                                        "form": "edge"}


def _record_brackets(monkeypatch):
    """The ``known`` bracket of each `_bisect_root` call, from now on."""
    brackets, bisect = [], bounds._bisect_root

    def recorded(q, lo, hi, rel_tol, known=None):
        brackets.append(known)
        return bisect(q, lo, hi, rel_tol, known)

    monkeypatch.setattr(bounds, "_bisect_root", recorded)
    return brackets


def test_presets_optimize_to_the_plain_search_bits(monkeypatch):
    brackets = _record_brackets(monkeypatch)
    checked = 0
    for problem, delta, kw in _preset_grid():
        brackets.clear()
        try:
            b = kappa_preset(problem, delta, **kw)
        except (ValueError, OverflowError):
            continue
        # the bracket found from the pinned point held, so the bisection
        # did not fall back to evaluating every midpoint
        assert len(brackets) == 1 and brackets[0] is not None, \
            (problem, delta, kw)
        assert _bits(b.optimized) == _bits(optimize_ratio(b.q)), \
            (problem, delta, kw)
        checked += 1
    assert checked > 30_000


def _tails():
    """Closed forms of the presets' shapes: geometric, squared geometric and
    exponential, with their radii."""
    def geometric(k, r):
        return ClosedTail(lambda x: k * x / (1 - x / r),
                          lambda x: k / (1 - x / r) ** 2, r)

    def squared(k, r):
        return ClosedTail(lambda x: k * x / (1 - x / r) ** 2,
                          lambda x: k * (1 + x / r) / (1 - x / r) ** 3, r)

    def exponential(k, rate):
        return ClosedTail(lambda x: k * math.expm1(rate * x),
                          lambda x: k * rate * math.exp(rate * x), math.inf)

    scale = st.floats(1e-3, 1e4)
    return st.one_of(
        st.none(),
        st.builds(geometric, scale, st.floats(1e-6, 2.0)),
        st.builds(squared, scale, st.floats(1e-6, 2.0)),
        st.builds(exponential, scale, st.floats(1e-2, 1e4)))


_TERMS = st.lists(st.tuples(st.floats(1e-6, 1e12), st.integers(1, 12)),
                  max_size=5)


@given(terms=_TERMS, tail=_tails(), where=st.floats(-2.0, 4.0),
       rel=st.floats(-1e-9, 1e-9))
@settings(max_examples=400, deadline=None)
def test_any_start_gives_the_plain_search_bits(terms, tail, where, rel):
    assume(terms or tail is not None)
    q = QPolynomial(tuple(terms), tail)
    hi = 1.0 if q.radius > 1 else q.radius * (1 - 1e-12)
    try:
        root = optimize_ratio(q).x
    except ValueError:
        root = hi / 2
    # near the root, far from it on a log scale, and at the domain's edges
    for start in (root, root * (1 + rel), root * 10.0 ** where, hi,
                  hi * (1 - 1e-15), hi * 2, math.nextafter(0.0, 1.0)):
        _same_with_and_without(q, start)


@pytest.mark.parametrize("start", [
    0.0, -0.5, -math.inf, math.inf, math.nan, 1.0, 1.5, 1e300, 1e-300,
    1e-200,  # p rounds to -1 there for every Q below: no log1p(p)
    0.99])
@pytest.mark.parametrize("terms", [
    ((2.0, 1), (3.0, 2)),   # interior root 1/sqrt 3
    ((1.0, 2),),            # root exactly at hi = 1
    ((0.1, 2),),            # p < 0 up to hi: boundary
    ((5.0, 1),),            # p = -1 everywhere: boundary
    ((math.inf, 2),),       # p = inf everywhere: refused
    ((math.nan, 2),),       # p nan everywhere: refused
    ((math.inf, 1),),       # p nan everywhere: refused
    ((1e-300, 40),),        # root where x^40 underflows
    ((1e300, 2), (1e300, 30)),  # root near 1e-150
    ((1e-300, 2),),         # p = -1 in floats up to hi: boundary
    ((1e308, 5),),          # p overflows to inf at 0.99, root near 1e-62
])
def test_seeds_outside_the_domain_and_degenerate_ceilings(terms, start):
    _same_with_and_without(QPolynomial(terms), start)


def test_a_root_at_the_tail_radius_edge():
    # a tail blowing up at 1e-3: the root sits just below the radius
    tail = ClosedTail(lambda x: 1e3 * x / (1 - 1e3 * x),
                      lambda x: 1e3 / (1 - 1e3 * x) ** 2, 1e-3)
    q = QPolynomial(((1e5, 1),), tail)
    root = optimize_ratio(q).x
    for start in (root, 1e-3, 1e-3 * (1 - 1e-13), 5e-4, 1e-9):
        _same_with_and_without(q, start)


@pytest.mark.parametrize("shift", [
    -1e-9, -3e-12, -1.5e-12, -0.99e-12, 0.0, 0.99e-12, 1.5e-12, 3e-12, 1e-9])
def test_a_pair_that_misses_the_root_is_dropped(monkeypatch, shift):
    """A secant pair centred ``shift`` relative off the root: the bisection
    checks it where it relied on it, and one that misses the root gives way
    to the plain search, so the bits never move."""
    brackets = _record_brackets(monkeypatch)
    for problem, delta in [("nonrepetitive-vertex", 31), ("acyclic-v2", 90),
                           ("pair-forbidden", 300), ("star", 24)]:
        q = kappa_preset(problem, delta, descriptors=[(4, 4)]).q
        plain = optimize_ratio(q)
        centre = plain.x * (1 + shift)
        pair = (centre * (1 - 1e-12), centre * (1 + 1e-12))
        monkeypatch.setattr(bounds, "_secant_bracket",
                            lambda q, x, hi, pair=pair:
                            pair if pair[1] < hi else None)
        brackets.clear()
        assert _bits(optimize_ratio(q, plain.x)) == _bits(plain)
        if abs(shift) > 1e-12:  # the root lies outside the pair
            assert brackets in ([pair, None], [None]), (problem, shift)


def _sweep():
    """The benchmark's bound sweep: every problem at delta 24..343."""
    for problem in PROBLEMS:
        for delta in range(24, 344):
            yield problem, delta


def test_presets_evaluate_p_a_fifth_as_often(monkeypatch):
    """Seeded at its pinned point, every preset's root search finds its
    bracket and evaluates p at most 9 times on average over the sweep
    (7.88 when this was written: 2 seed points, the secant steps and the
    midpoints inside the bracket); the plain bisection takes 47.6 on
    average there."""
    evaluations, searches = [0], []
    p_safe, search = bounds._p_safe, bounds.optimize_ratio

    def counted_p(q, x):
        evaluations[0] += 1
        return p_safe(q, x)

    def counted_search(q, start=None):
        searches.append(start)
        return search(q, start)

    monkeypatch.setattr(bounds, "_p_safe", counted_p)
    monkeypatch.setattr(bounds, "optimize_ratio", counted_search)
    brackets = _record_brackets(monkeypatch)
    presets = 0
    for problem, delta in _sweep():
        before = len(searches)
        brackets.clear()
        bound = kappa_preset(problem, delta, descriptors=[(4, 4)])
        # one search per preset, through the module attribute, from the
        # pinned point, whose bracket held
        assert searches[before:] == [bound.pinned.x], (problem, delta)
        assert len(brackets) == 1 and brackets[0] is not None, \
            (problem, delta)
        presets += 1
    assert presets == 3200
    assert evaluations[0] / presets <= 9
