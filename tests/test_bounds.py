"""Ratio minimization, closed-form tails, and the color-count presets.

Expected constants below were frozen from an independent evaluation pass:
closed forms were checked against their defining series at high precision,
roots against sign changes of p(x) = x q'(x) - q(x), and golden-section
minima against dense grid scans.
"""

import functools
import hashlib
import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor.bounds import (
    _FAMILY_CEILINGS,
    PROBLEM_TABLE,
    _p_safe,
    PROBLEMS,
    CharacteristicSystem,
    ClosedTail,
    QPolynomial,
    acyclic_chromatic_ceiling,
    acyclic_v1_ratio,
    ceilings,
    characteristic_system,
    eval_at,
    kappa_preset,
    optimal_alpha,
    optimize_ratio,
)
from recolor.engine import EventTypeMeta
from recolor.families import (
    acyclic_gamma_family,
    acyclic_v1_family,
    acyclic_v2_family,
    facial_thue_edge_family,
    facial_thue_vertex_family,
    nonrepetitive_edge_family,
    nonrepetitive_vertex_family,
)
from recolor.graphs import Graph
from recolor.planar import random_triangulation
from recolor.records import growth_report

from _util import PETERSEN_EDGES, prism_graph


# --- QPolynomial basics ---------------------------------------------------

def test_q_and_p_values():
    q = QPolynomial(((2.0, 1), (3.0, 2)))
    assert q.q(0.5) == pytest.approx(1 + 1.0 + 0.75)
    # p = x q' - q = 3x^2 - 1
    assert q.p(0.5) == pytest.approx(3 * 0.25 - 1)
    assert q.p(1 / math.sqrt(3)) == pytest.approx(0.0, abs=1e-12)


def test_q_and_p_fold_their_terms_left_to_right():
    # from Python 3.12 on, sum() of floats compensates its rounding and
    # gives 1.0000000000000004e16 here; a left fold keeps the pinned bits
    # the same on every interpreter
    assert QPolynomial(((1e16, 1), (1.0, 1), (1.0, 1))).q(1.0) == 1e16
    assert QPolynomial(((1e16, 2),) + ((1.0, 2),) * 3).p(1.0) == 1e16


def test_from_metas_collects_costs_and_sizes():
    metas = (EventTypeMeta(1, 4.0, 2), EventTypeMeta(2, 9.0, 3))
    q = QPolynomial.from_metas(metas)
    assert q.terms == ((4.0, 2), (9.0, 3))


def test_term_validation():
    with pytest.raises(ValueError, match="coefficients must be positive"):
        QPolynomial(((-1.0, 2),))
    with pytest.raises(ValueError, match="sizes must be positive integers"):
        QPolynomial(((1.0, 0),))
    with pytest.raises(ValueError, match="at least one term or a tail"):
        QPolynomial(())


def test_eval_at_domain():
    q = QPolynomial(((1.0, 2),))
    assert eval_at(q, 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
        eval_at(q, 0.0)
    with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
        eval_at(q, 1.5)


def test_eval_at_respects_tail_radius():
    tail = ClosedTail(lambda x: x / (1 - x), lambda x: 1 / (1 - x) ** 2, 1.0)
    q = QPolynomial((), tail)
    assert eval_at(q, 0.5) == pytest.approx((1 + 1.0) / 0.5)
    with pytest.raises(ValueError, match="validity radius"):
        eval_at(q, 1.0)


# --- optimize_ratio -------------------------------------------------------

def test_optimize_interior_root():
    res = optimize_ratio(QPolynomial(((2.0, 1), (3.0, 2))))
    assert res.x == pytest.approx(1 / math.sqrt(3), rel=1e-9)
    assert res.ratio == pytest.approx(2 + 2 * math.sqrt(3), rel=1e-12)
    assert res.kappa == 6
    assert not res.boundary
    assert res.root_residual < 1e-9


def test_optimize_all_unit_sizes_sits_on_boundary():
    res = optimize_ratio(QPolynomial(((5.0, 1),)))
    assert (res.x, res.ratio, res.kappa) == (1.0, 6.0, 6)
    assert res.boundary
    # p = -1 everywhere for unit sizes; the residual records that
    assert res.root_residual == pytest.approx(1.0)


def test_optimize_refuses_an_infinite_unit_ceiling():
    # p(x) is nan at every x, so no minimizer is found
    with pytest.raises(ValueError, match="past the float range"):
        optimize_ratio(QPolynomial(((math.inf, 1),)))


def test_optimize_boundary_when_root_lies_outside():
    res = optimize_ratio(QPolynomial(((0.1, 2),)))
    assert res.boundary
    assert res.x == 1.0
    assert res.ratio == pytest.approx(1.1)
    assert res.kappa == 2


def test_optimize_catalan_touches_one():
    res = optimize_ratio(QPolynomial(((1.0, 2),)))
    assert res.ratio == pytest.approx(2.0, rel=1e-9)
    assert res.x == pytest.approx(1.0, rel=1e-6)


@given(st.lists(st.tuples(st.floats(0.1, 50.0), st.integers(1, 6)),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_optimized_ratio_beats_grid(terms):
    q = QPolynomial(tuple(terms))
    res = optimize_ratio(q)
    grid = min(q.q(i / 200) / (i / 200) for i in range(1, 201))
    assert res.ratio <= grid * (1 + 1e-9)


def test_exponential_tail_does_not_overflow():
    fn = lambda x: math.expm1(400.0 * x)
    dfn = lambda x: 400.0 * math.exp(400.0 * x)
    q = QPolynomial(((5.0, 1),), ClosedTail(fn, dfn, math.inf))
    res = optimize_ratio(q)
    assert 0 < res.x < 0.1
    assert res.root_residual < 1e-6


# --- characteristic system ------------------------------------------------

def test_characteristic_system_catalan():
    cs = characteristic_system(QPolynomial(((1.0, 2),)))
    assert cs.d == 2
    assert cs.r == pytest.approx(0.25, rel=1e-9)
    assert cs.s == pytest.approx(1.0, rel=1e-9)
    assert cs.x == pytest.approx(1.0, rel=1e-9)
    assert cs.residual < 1e-9


def test_characteristic_system_mixed_sizes():
    q = QPolynomial(((2.0, 2), (1.0, 4)))
    cs = characteristic_system(q)
    # p factors as (3x^2 - 1)(x^2 + 1)
    assert cs.x == pytest.approx(1 / math.sqrt(3), rel=1e-9)
    assert cs.d == 2
    assert cs.s == pytest.approx(7 / 9, rel=1e-9)
    assert cs.r == pytest.approx((cs.x / q.q(cs.x)) ** cs.d, rel=1e-12)


def test_characteristic_system_rejects_unit_sizes_and_tails():
    with pytest.raises(ValueError, match="all sizes are 1"):
        characteristic_system(QPolynomial(((1.0, 1),)))
    tail = ClosedTail(lambda x: x, lambda x: 1.0, 1.0)
    with pytest.raises(ValueError, match="finite term form"):
        characteristic_system(QPolynomial((), tail))


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("c", [1e-300, 1e-310, 5e-324])
def test_characteristic_system_ceilings_far_below_one(c, size):
    # p(x) = (size-1) c x^size - 1 has its root X = ((size-1) c)^(-1/size)
    # near 2^537 at the smallest ceilings, where X^size is past the float
    # range although c X^size = 1/(size-1)
    cs = characteristic_system(QPolynomial(((c, size),)))
    x = math.exp(-math.log((size - 1) * c) / size)
    assert cs.x == pytest.approx(x, rel=1e-12)
    assert cs.s == pytest.approx(1 / (size - 1), rel=1e-12)
    assert cs.residual < 1e-9
    log_r = size * (math.log(x) - math.log1p(1 / (size - 1)))
    if log_r > math.log(sys.float_info.max):
        assert cs.r == math.inf
    else:
        assert cs.r == pytest.approx(math.exp(log_r), rel=1e-9)


def test_characteristic_gcd_of_sizes():
    assert characteristic_system(QPolynomial(((1.0, 2), (1.0, 3)))).d == 1
    assert characteristic_system(QPolynomial(((1.0, 4), (1.0, 6)))).d == 2


def _characteristic_corpus():
    """Seeded random term systems (one to five terms, ceilings 10^-3..10^3,
    sizes 1..6, some size above 1), then nonrepetitive-vertex's exact Q at
    n = 20 for delta 3..59."""
    rng = random.Random(74)
    for _ in range(3000):
        terms = [(10 ** rng.uniform(-3, 3), rng.randint(1, 6))
                 for _ in range(rng.randint(1, 5))]
        if any(s > 1 for _, s in terms):
            yield terms
    for delta in range(3, 60):
        yield kappa_preset("nonrepetitive-vertex", delta, n=20).q.terms


def _characteristic_lines():
    """Per corpus entry, `characteristic_system`'s d, r, s and x and
    `growth_report`'s base and prefactor, bit for bit; each residual is
    checked, not hashed."""
    for terms in _characteristic_corpus():
        cs = characteristic_system(QPolynomial(terms))
        assert cs.residual < 1e-9, terms
        report = growth_report(terms, [1])
        yield repr((cs.d, cs.r, cs.s, cs.x, report.base, report.prefactor))


def test_characteristic_system_matches_its_pinned_digest():
    """Pinned on Python 3.11, where sum() of floats still folds left to
    right; the terms fold the same way on every interpreter, so the bound
    column of `count-records` does not move with the Python version."""
    assert _digest(_characteristic_lines()) == \
        "c4b3ed083989e71512da36afa7596d851b07e78a77565bade168fec523a074a8"


# --- acyclic closed form and its alpha sweep ------------------------------

def test_v1_closed_form_values():
    # alpha = 1/2 collapses to 3/2 d^(4/3) + 5d - 16 + 24/d - 16/d^2 + 4/d^3
    d = 27
    expect = 1.5 * d ** (4 / 3) + 5 * d - 16 + 24 / d - 16 / d ** 2 \
        + 4 / d ** 3
    assert acyclic_v1_ratio(d, 0.5) == pytest.approx(expect, rel=1e-12)
    assert acyclic_v1_ratio(27, 0.225) == pytest.approx(194.00639918240822)


def test_v1_quoted_constant_flips_at_24():
    # the -15 headline constant absorbs the tail exactly from delta = 24 on
    for d in (24, 25, 40, 100):
        assert acyclic_v1_ratio(d, 0.5) < 1.5 * d ** (4 / 3) + 5 * d - 15
    assert acyclic_v1_ratio(23, 0.5) > 1.5 * 23 ** (4 / 3) + 5 * 23 - 15


def test_optimal_alpha_table():
    frozen = {27: 0.225, 28: 0.226, 29: 0.226, 30: 0.227, 100: 0.254,
              1000: 0.320, 10000: 0.384, 100000: 0.433, 1000000: 0.465}
    for delta, alpha in frozen.items():
        assert optimal_alpha(delta) == pytest.approx(alpha, abs=5e-4)


def test_optimal_alpha_is_a_minimum():
    for delta in (27, 100, 1000):
        best = optimal_alpha(delta)
        here = acyclic_v1_ratio(delta, best)
        for off in (-0.02, -0.005, 0.005, 0.02):
            assert here <= acyclic_v1_ratio(delta, best + off) + 1e-6


def test_optimal_alpha_domain():
    with pytest.raises(ValueError, match="delta >= 24"):
        optimal_alpha(23)


def test_chromatic_ceiling():
    assert acyclic_chromatic_ceiling(24) == pytest.approx(209.8419690621334)
    # the second branch takes over for large degrees
    d = 1000
    branch1 = 1.5 * d ** (4 / 3) + 5 * d - 14
    assert acyclic_chromatic_ceiling(d) == pytest.approx(16834.333333333325)
    assert acyclic_chromatic_ceiling(d) < branch1
    with pytest.raises(ValueError, match="delta >= 24"):
        acyclic_chromatic_ceiling(23)


# --- presets: pinned and optimized color counts ---------------------------

def test_preset_acyclic_gamma():
    b = kappa_preset("acyclic-gamma", 10, gamma=1)
    assert b.pinned.kappa == 35
    assert b.pinned.ratio == pytest.approx(34.49489742783178)
    assert b.optimized.kappa == 31
    assert b.literature == {"alon-mcdiarmid-reed": 320}
    b4 = kappa_preset("acyclic-gamma", 10, gamma=4)
    assert b4.pinned.ratio == pytest.approx(10 * (1 + math.sqrt(12)))


def test_preset_acyclic_v1_pinned_alpha():
    b = kappa_preset("acyclic-v1", 27, alpha=0.225)
    assert b.pinned.kappa == 194
    assert b.pinned.ratio == pytest.approx(193.7813991824082)
    assert b.optimized.kappa == 183
    assert b.literature["kostochka-stocker"] == 197
    assert b.literature["alon-mcdiarmid-reed"] == 4050
    assert b.literature["ndreca-procacci-scoppola"] == 623
    assert b.literature["sereni-volec"] == 257


def test_preset_acyclic_v1_half():
    b = kappa_preset("acyclic-v1", 27, alpha=0.5)
    assert b.pinned.kappa == 242
    assert b.pinned.ratio == pytest.approx(241.5)
    assert b.optimized.kappa == 179
    assert b.optimized.ratio == pytest.approx(178.30933075340286)


def test_preset_acyclic_v2():
    b = kappa_preset("acyclic-v2", 27)
    assert b.pinned.kappa == 279
    assert b.pinned.ratio == pytest.approx(278.1)
    assert b.optimized.kappa == 178
    with pytest.raises(ValueError, match="pinned at alpha = 0.5"):
        kappa_preset("acyclic-v2", 27, alpha=0.3)
    with pytest.raises(ValueError, match="delta >= 9"):
        kappa_preset("acyclic-v2", 8)


def test_preset_nonrepetitive():
    bv = kappa_preset("nonrepetitive-vertex", 3)
    assert bv.pinned.kappa == 76
    assert bv.pinned.ratio == pytest.approx(75.12264100515341)
    assert bv.optimized.kappa == 30
    assert bv.literature == {"dujmovic-et-al": 36}
    be = kappa_preset("nonrepetitive-edge", 3)
    assert be.pinned.kappa == 80
    assert be.pinned.ratio == pytest.approx(79.05375309646676)
    assert be.optimized.kappa == 40
    assert be.literature == {"alon-grytczuk-haluszczak-riordan": 159949999}


def test_preset_facial_vertex():
    b = kappa_preset("facial-thue-vertex", 4)
    # delta + 4 sqrt(delta) + 3 is exactly 15 at delta = 4
    assert b.pinned.ratio == pytest.approx(15.0)
    assert b.pinned.kappa == 15
    assert b.optimized.kappa == 14
    assert b.literature == {"przybylo-et-al": 20, "barat-czap": 24}


def test_preset_facial_edge():
    b = kappa_preset("facial-thue-edge")
    assert b.pinned.kappa == 9
    assert b.pinned.ratio == pytest.approx(8.818299727218765)
    assert b.pinned.x == pytest.approx((math.sqrt(17) - 3) / 4, rel=1e-14)
    # the pinned point is the exact root of p
    assert b.pinned.root_residual < 1e-12
    assert b.kappa_total == 10
    assert b.literature == {"schreyer-skrabulakova": 291, "przybylo": 12}


def test_preset_r_acyclic():
    b4 = kappa_preset("r-acyclic", 3, r=4)
    assert b4.pinned.kappa == 346
    assert b4.pinned.ratio == pytest.approx(345.9735793344085)
    # even r pins the exact root, so optimizing gains nothing
    assert b4.optimized.ratio == pytest.approx(b4.pinned.ratio)
    assert b4.literature == {"greenhill-pikhurko": 864}
    b5 = kappa_preset("r-acyclic", 3, r=5)
    assert b5.pinned.kappa == 529466
    assert b5.optimized.kappa == 680
    with pytest.raises(ValueError, match="r >= 4"):
        kappa_preset("r-acyclic", 3, r=3)


def test_preset_star():
    b = kappa_preset("star", 10)
    assert b.pinned.kappa == 92
    assert b.pinned.ratio == pytest.approx(91.49844718999243)
    assert b.pinned.x == pytest.approx(1 / (math.sqrt(20) * 9))
    assert b.optimized.kappa == 91
    assert b.literature == {}


def test_preset_pair_forbidden():
    routed = kappa_preset("pair-forbidden", 10, descriptors=[(4, 3)])
    star = kappa_preset("star", 10)
    assert routed.problem == "star"
    assert routed.pinned.ratio == pytest.approx(star.pinned.ratio)
    bv = kappa_preset("pair-forbidden", 5, descriptors=[(4, 4)])
    assert bv.pinned.kappa == 2794
    assert bv.optimized.kappa == 294
    assert bv.literature == {"aravind-subramanian": 68400}
    be = kappa_preset("pair-forbidden", 5, descriptors=[(4, 4)], form="edge")
    assert be.pinned.kappa == 243
    assert be.optimized.kappa == 59
    with pytest.raises(ValueError, match="not a connected bipartite"):
        kappa_preset("pair-forbidden", 5, descriptors=[(3, 4)])
    with pytest.raises(ValueError, match="min edge count >= 2"):
        kappa_preset("pair-forbidden", 5, descriptors=[(2, 1)])
    with pytest.raises(ValueError, match="form must be"):
        kappa_preset("pair-forbidden", 5, descriptors=[(4, 4)], form="odd")


def test_pair_forbidden_exact_sets_past_the_float_range():
    """Set ceilings delta^(gamma i) / i! whose expression raises (i! is past
    the float range from i = 171) come from log space; those that work keep
    their bits, and those that underflow to 0.0 are left out."""
    shape = [(4, 4)]
    at_150 = kappa_preset("pair-forbidden", 4, descriptors=shape, n=150)
    at_200 = kappa_preset("pair-forbidden", 4, descriptors=shape, n=200)
    assert at_200.q.terms[:len(at_150.q.terms)] == at_150.q.terms
    assert len(at_200.q.terms) == len(at_150.q.terms) + 50
    for bound in (at_150, at_200):
        assert (bound.pinned.kappa, bound.optimized.kappa) == (2075, 219)
    wide = kappa_preset("pair-forbidden", 4, descriptors=shape, n=2000)
    assert all(c > 0 for c, _ in wide.q.terms)
    assert max(s for _, s in wide.q.terms) < 1998
    assert (wide.pinned.kappa, wide.optimized.kappa) == (2075, 219)


def test_preset_dispatch_errors():
    with pytest.raises(ValueError, match="unknown problem"):
        kappa_preset("nope", 5)
    with pytest.raises(ValueError, match="unknown problem"):
        kappa_preset("nope")
    with pytest.raises(ValueError, match="requires delta"):
        kappa_preset("acyclic-v1")


def _preset_instances():
    yield kappa_preset("acyclic-gamma", 10, gamma=1)
    yield kappa_preset("acyclic-gamma", 7, gamma=3)
    yield kappa_preset("acyclic-v1", 27, alpha=0.225)
    yield kappa_preset("acyclic-v1", 50, alpha=0.5)
    yield kappa_preset("acyclic-v2", 27)
    yield kappa_preset("nonrepetitive-vertex", 3)
    yield kappa_preset("nonrepetitive-edge", 4)
    yield kappa_preset("facial-thue-vertex", 9)
    yield kappa_preset("facial-thue-edge")
    yield kappa_preset("r-acyclic", 3, r=4)
    yield kappa_preset("r-acyclic", 4, r=7)
    yield kappa_preset("star", 6)
    yield kappa_preset("pair-forbidden", 6, descriptors=[(4, 4), (5, 4)])


def test_optimized_never_exceeds_pinned():
    for b in _preset_instances():
        assert b.optimized.ratio <= b.pinned.ratio + 1e-9, b.problem


def test_pinned_ratio_dominates_its_own_evaluation():
    # the displayed closed form may round up, never down
    for b in _preset_instances():
        if b.problem in ("acyclic-v1", "acyclic-v2"):
            continue  # quoted constants absorb lower-order terms instead
        evaluated = eval_at(b.q, b.pinned.x)
        assert b.pinned.ratio >= evaluated - 1e-6, b.problem


@pytest.mark.parametrize("problem,kwargs", [
    ("acyclic-gamma", {"delta": 10, "gamma": 1}),
    ("acyclic-v2", {"delta": 27}),
    ("nonrepetitive-vertex", {"delta": 3}),
    ("nonrepetitive-edge", {"delta": 3}),
    ("facial-thue-vertex", {"delta": 4}),
    ("facial-thue-edge", {}),
    ("pair-forbidden", {"delta": 5, "descriptors": [(4, 4)]}),
])
def test_exact_terms_stay_under_the_tail(problem, kwargs):
    closed = kappa_preset(problem, **kwargs)
    exact = kappa_preset(problem, n=40, **kwargs)
    assert exact.q.tail is None
    x = closed.pinned.x
    assert exact.q.q(x) <= closed.q.q(x) + 1e-9
    assert exact.pinned.kappa <= closed.pinned.kappa


def _series_problems():
    """(problem, preset keywords besides delta) of each problem whose
    ceilings end in a series: the family problems that declare one, in
    table order, then pair-forbidden's exponential series."""
    for problem, declare in _FAMILY_CEILINGS.items():
        if declare(9, 1, 0.5)[1] is not None:
            yield problem, {}
    yield "pair-forbidden", {"descriptors": [(4, 4)]}


SERIES_PROBLEMS = list(_series_problems())


def _declared_tail(problem, delta, kwargs):
    """The closed form of a problem's series at maximum degree delta."""
    if problem in _FAMILY_CEILINGS:
        return _FAMILY_CEILINGS[problem](delta, 1, 0.5)[1].tail()
    return kappa_preset(problem, delta, **kwargs).q.tail


def _listed(problem, delta, kwargs, n):
    """The ceilings a problem lists past its head on n objects: the types
    its closed form replaces in tail mode."""
    if problem in _FAMILY_CEILINGS:
        return ceilings(problem, delta, n)[len(ceilings(problem, delta,
                                                        None)):]
    head = len(kappa_preset(problem, delta, **kwargs).q.terms)
    return kappa_preset(problem, delta, n=n, **kwargs).q.terms[head:]


@pytest.mark.parametrize("problem,kwargs", SERIES_PROBLEMS)
@given(delta=st.sampled_from([3, 5, 24, 100]), frac=st.floats(0.05, 0.95))
@settings(max_examples=25, deadline=None)
def test_tail_derivative_matches_finite_difference(problem, kwargs, delta,
                                                   frac):
    tail = _declared_tail(problem, delta, kwargs)
    radius = min(tail.radius, 1.0)
    x = frac * radius
    h = radius * 1e-7
    if x - h <= 0 or x + h >= radius:
        return
    numeric = (tail.fn(x + h) - tail.fn(x - h)) / (2 * h)
    assert numeric == pytest.approx(tail.dfn(x), rel=1e-4, abs=1e-8)


@pytest.mark.parametrize("delta", [3, 5, 24, 100])
@pytest.mark.parametrize("problem,kwargs", SERIES_PROBLEMS)
def test_tail_sums_the_listed_ceilings(problem, kwargs, delta):
    """The closed form is the sum of the ceilings it replaces, at 0.1, 0.5
    and 0.9 of min(radius, 1).  The list runs to type index 1200 (set size
    2398), or to its first ceiling past the float range.  Where the rest of
    the series is below 1e-10 of the listed sum, the two agree to 1e-9;
    where the float range ends the list first, the closed form lies
    between the listed sum and that sum plus a bound on the rest."""
    tail = _declared_tail(problem, delta, kwargs)
    listed = list(itertools.takewhile(lambda t: t[0] < math.inf,
                                      _listed(problem, delta, kwargs, 2400)))
    for frac in (0.1, 0.5, 0.9):
        x = frac * min(tail.radius, 1.0)
        terms = [c * x ** s for c, s in listed]
        total = math.fsum(terms)
        # a term's ratio to the one before never rises along the series
        # ((a + b i) r x^s with a, b >= 0, or t x / i), so the last ratio
        # bounds the rest geometrically
        ratio = terms[-1] / terms[-2] if terms[-1] else 0.0
        assert ratio < 1, (problem, delta, frac)
        rest = terms[-1] * ratio / (1 - ratio)
        if rest <= 1e-10 * total:
            assert tail.fn(x) == pytest.approx(total, rel=1e-9)
        else:
            assert total * (1 - 1e-12) <= tail.fn(x)
            assert tail.fn(x) <= (total + rest) * (1 + 1e-12)


def test_ceilings_past_the_float_range_read_inf_without_exact_powers():
    # at delta 3 the acyclic-gamma ceilings pass the float range at type
    # 325; computing each later power as an exact integer took about 4 s
    start = time.perf_counter()
    terms = ceilings("acyclic-gamma", 3, 40_000)
    assert time.perf_counter() - start < 0.5
    assert terms[323] == (0.5 * 3 ** 646, 646)
    assert terms[324] == (math.inf, 648) and terms[-1] == (math.inf, 39_998)
    assert ceilings("nonrepetitive-edge", 9, 1000)[-1] == (math.inf, 500)


def test_exact_pair_forbidden_stops_past_the_peak():
    # past their peak near i = Delta^gamma the set ceilings only fall, so
    # the list ends at the first that underflows to 0.0; running i on to
    # n - 2 took over a second at n = 10^6
    start = time.perf_counter()
    bound = kappa_preset("pair-forbidden", 4, descriptors=[(4, 4)],
                         n=10 ** 6)
    assert time.perf_counter() - start < 0.5
    assert len(bound.q.terms) == 272
    assert bound.optimized.kappa == 219


def test_ceilings_refuse_a_problem_without_a_family():
    with pytest.raises(ValueError, match="'star' declares no family"):
        ceilings("star", 3, None)


@pytest.mark.parametrize("problem,kwargs,helper,most", [
    # first infinite ceiling near type 323 of n // 2 = 500,000
    ("nonrepetitive-vertex", {"delta": 3}, "_power", 400),
    ("nonrepetitive-edge", {"delta": 3}, "_power", 400),
    ("acyclic-gamma", {"delta": 3}, "_power", 400),
    ("acyclic-v2", {"delta": 9}, "_power", 400),
    # delta^(4i/3) / i! passes the float maximum near i = 120
    ("pair-forbidden", {"delta": 300, "descriptors": [(4, 4)]},
     "_set_ceiling", 400),
])
def test_exact_presets_refuse_the_first_infinite_ceiling(
        problem, kwargs, helper, most, monkeypatch):
    """An exact-n preset stops computing ceilings at the first one past the
    float range instead of building all n // 2 (or n - 2) of them."""
    import recolor.bounds as bounds

    calls = []
    original = getattr(bounds, helper)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bounds, helper, counted)
    with pytest.raises(OverflowError, match="class ceiling is past the float"):
        kappa_preset(problem, n=1_000_000, **kwargs)
    assert 0 < len(calls) < most


@pytest.mark.parametrize("problem,delta,kwargs,error,message", [
    ("acyclic-v1", 24, {"alpha": 5e-324}, OverflowError, "class ceiling"),
    ("acyclic-v1", 24, {"alpha": 1e-320}, OverflowError, "class ceiling"),
    ("r-acyclic", 3, {"r": 700}, OverflowError, "class ceiling"),
    ("star", 10 ** 200, {}, OverflowError, "class ceiling"),
    ("nonrepetitive-vertex", 10 ** 48, {}, ValueError, "delta below"),
    ("nonrepetitive-edge", 10 ** 48, {}, ValueError, "delta below"),
    ("acyclic-v1", 10 ** 80, {}, OverflowError, "class ceiling"),
    ("acyclic-v2", 10 ** 120, {}, OverflowError, "class ceiling"),
    ("acyclic-gamma", 10 ** 160, {}, OverflowError, "class ceiling"),
    ("nonrepetitive-vertex", 10 ** 160, {}, OverflowError, "class ceiling"),
    ("nonrepetitive-edge", 10 ** 160, {}, OverflowError, "class ceiling"),
    ("facial-thue-vertex", 10 ** 310, {}, OverflowError, "class ceiling"),
    ("r-acyclic", 10 ** 310, {"r": 5}, OverflowError, "class ceiling"),
], ids=["v1-alpha-5e-324", "v1-alpha-1e-320", "r-acyclic-r-700", "star-1e200",
        "nonrep-vertex-1e48", "nonrep-edge-1e48", "v1-1e80", "v2-1e120",
        "gamma-1e160", "nonrep-vertex-1e160", "nonrep-edge-1e160",
        "facial-vertex-1e310", "r-acyclic-1e310"])
def test_presets_refuse_their_float_range_by_name(problem, delta, kwargs,
                                                  error, message):
    # every preset builds Q through `_q`, which refuses an infinite ceiling
    # before the pinned point or the display is computed; the ceilings read
    # every power through `_power`, and a closed form whose rate or first
    # ceiling is past the float range is refused there too; a nonrepetitive
    # pinned point that rounds onto the tail's radius is refused by delta
    with pytest.raises(error, match=message):
        kappa_preset(problem, delta, **kwargs)


def test_root_search_reads_an_overflowing_q_as_inf():
    # Q of this preset overflows at x = 1, right of its root; the bisection
    # takes that as the sign it needs
    bound = kappa_preset("pair-forbidden", 300, descriptors=[(4, 4)])
    with pytest.raises(OverflowError):
        bound.q.p(1.0)
    assert _p_safe(bound.q, 1.0) == math.inf
    assert (bound.pinned.kappa, bound.optimized.kappa) == (655279, 68141)
    assert bound.optimized.boundary is False


def _preset_sweep():
    """(problem, delta, keywords) over every problem, delta 2..399 and the
    tail and three exact sizes, plus acyclic-v1 at more alphas and
    acyclic-gamma at gamma 3."""
    for problem in PROBLEMS:
        exact = "n" in PROBLEM_TABLE[problem].options.split()
        for delta in range(2, 400):
            for n in (None, 6, 20, 101):
                yield problem, delta, {"n": n if exact else None}
    for delta in range(2, 400):
        for alpha in (0.01, 0.25, 0.75, 1.0):
            yield "acyclic-v1", delta, {"alpha": alpha}
        for n in (None, 20):
            yield "acyclic-gamma", delta, {"gamma": 3, "n": n}


@functools.cache
def _swept_presets():
    """`kappa_preset` over `_preset_sweep()`: each bound, or the class name
    of the exception where the preset refuses."""
    swept = []
    for problem, delta, kw in _preset_sweep():
        try:
            swept.append(kappa_preset(problem, delta, **kw))
        except (ValueError, OverflowError) as exc:
            swept.append(type(exc).__name__)
    return swept


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_presets_match_their_pinned_digest():
    """Every preset's pinned and optimized results and its terms, bit for
    bit (the exception's class where the preset refuses), hashed together.
    Re-pinned when the closed-form tails came from one series declaration,
    which moved the last bits of some ratios and root residuals;
    `test_preset_minimizers_match_their_pinned_digest` holds every point,
    kappa, boundary flag and term across that move.  Fixing the
    integer-minimum noise in `optimize_ratio` (ROADMAP item 1) changes
    some optimized kappas and re-pins this digest, together with the
    benchmark's series pin."""
    assert _digest(
        b if isinstance(b, str) else repr((b.pinned, b.optimized, b.q.terms))
        for b in _swept_presets()) == \
        "b5db62997fceec7c2138961f6bbca827e6bf4d9e8ac68f814feb2b53b2847233"


def test_preset_minimizers_match_their_pinned_digest():
    """Every preset's pinned and optimized point, kappa and boundary flag
    and its terms, bit for bit, without the ratios and root residuals
    (which carry the closed-form tail's last bits); pinned before the
    ceilings and tails came from one declaration."""
    assert _digest(
        b if isinstance(b, str) else repr((
            b.pinned.x, b.pinned.kappa, b.optimized.x, b.optimized.kappa,
            b.optimized.boundary, b.q.terms))
        for b in _swept_presets()) == \
        "4a484b48db5587418401ce3fbc92ceb16e90a5752cb23a3bf97f9d50e6caf66e"


def _ceilings_sweep():
    """(problem, delta, n, keywords) over the seven family problems, delta
    2..399, the tail and three exact sizes, gamma 1 and 3 for acyclic-gamma
    and five alphas for acyclic-v1 and acyclic-v2."""
    alphas = [{"alpha": a} for a in (0.01, 0.25, 0.5, 0.75, 1.0)]
    keywords = {"acyclic-gamma": [{"gamma": 1}, {"gamma": 3}],
                "acyclic-v1": alphas, "acyclic-v2": alphas}
    for problem in PROBLEMS:
        if PROBLEM_TABLE[problem].factory is None:
            continue
        for delta in range(2, 400):
            for n in (None, 6, 20, 101):
                for kw in keywords.get(problem, [{}]):
                    yield problem, delta, n, kw


def test_ceilings_match_their_pinned_digest():
    """`ceilings` bit for bit (the exception's class where it refuses),
    pinned before the ceilings and tails came from one declaration."""
    def line(problem, delta, n, kw):
        try:
            return repr(ceilings(problem, delta, n, **kw))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            return type(exc).__name__

    assert _digest(line(*args) for args in _ceilings_sweep()) == \
        "99d6803bc31e669bd480bb17d4a300ada4ad3b7274acbf5a1f2fb8f4a955ebe3"


def test_problem_roster():
    # the benchmark samples PROBLEMS by position, so the order is pinned
    assert PROBLEMS == (
        "acyclic-gamma", "acyclic-v1", "acyclic-v2", "nonrepetitive-vertex",
        "nonrepetitive-edge", "facial-thue-vertex", "facial-thue-edge",
        "r-acyclic", "pair-forbidden", "star")
    # a `verify` property reads one host and one object kind
    for prop in {row.verify for row in PROBLEM_TABLE.values()}:
        assert len({(row.embedded, row.on_edges) for row in
                    PROBLEM_TABLE.values() if row.verify == prop}) == 1, prop


def test_characteristic_matches_gamma_preset_terms():
    exact = kappa_preset("acyclic-gamma", 3, gamma=1, n=8)
    cs = characteristic_system(exact.q)
    assert isinstance(cs, CharacteristicSystem)
    # the size-1 neighbor term drags the size gcd down to 1
    assert cs.d == 1
    assert cs.residual < 1e-9
    assert cs.x == pytest.approx(0.2393947814354105, rel=1e-9)
    assert cs.r == pytest.approx((cs.x / exact.q.q(cs.x)) ** cs.d, rel=1e-9)


# --- family ceilings against the presets ------------------------------------

def _broom(leaves: int, n: int) -> Graph:
    """A star with ``leaves`` leaves whose last leaf grows a path, so the
    graph has n vertices and maximum degree ``leaves``."""
    return Graph(n, [(1, v) for v in range(2, leaves + 2)]
                 + [(v, v + 1) for v in range(leaves + 1, n)])


def _assert_family_matches_preset(fam, preset, floored=()):
    """Same sizes and the same costs, type by type and bit for bit; the
    types in ``floored`` are compared after flooring the family's cost,
    where the preset holds the integer cap."""
    ours = QPolynomial.from_metas(fam.metas).terms
    theirs = preset.q.terms
    assert [s for _, s in ours] == [s for _, s in theirs]
    for type_id, ((c, _), (p, _)) in enumerate(zip(ours, theirs), start=1):
        if type_id in floored:
            c = math.floor(c)
        assert c == p, (type_id, c, p)


@pytest.mark.parametrize("g", [prism_graph(6), Graph(10, PETERSEN_EDGES),
                               _broom(9, 10), _broom(5, 26)],
                         ids=["prism", "petersen", "star", "broom"])
def test_plain_family_ceilings_match_the_presets(g):
    # on the broom the nonrepetitive ceilings pass 2^53 (types 12, 13), where
    # float and integer powers part; both read the one declaration
    d, n = g.max_degree, g.n
    for gamma in (1, 2):
        _assert_family_matches_preset(
            acyclic_gamma_family(g, gamma),
            kappa_preset("acyclic-gamma", d, gamma=gamma, n=n))
    _assert_family_matches_preset(nonrepetitive_vertex_family(g),
                                  kappa_preset("nonrepetitive-vertex", d, n=n))
    _assert_family_matches_preset(nonrepetitive_edge_family(g),
                                  kappa_preset("nonrepetitive-edge", d, n=n))
    if d >= 9:
        _assert_family_matches_preset(acyclic_v2_family(g, 0.5),
                                      kappa_preset("acyclic-v2", d, n=n))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
def test_v1_family_ceilings_match_the_preset(alpha):
    # the preset holds the special-set cap floor(alpha Delta^(4/3))
    _assert_family_matches_preset(
        acyclic_v1_family(_broom(24, 25), alpha),
        kappa_preset("acyclic-v1", 24, alpha=alpha), floored={2})


@pytest.mark.parametrize("n", [5, 9, 14])
def test_facial_family_ceilings_match_the_presets(n):
    pg = random_triangulation(n, random.Random(f"ceilings {n}"))
    _assert_family_matches_preset(
        facial_thue_vertex_family(pg),
        kappa_preset("facial-thue-vertex", pg.graph.max_degree, n=n))
    _assert_family_matches_preset(facial_thue_edge_family(pg, 1),
                                  kappa_preset("facial-thue-edge", n=n))
