"""Ratio minimization, closed-form tails, and the color-count presets.

Expected constants below were frozen from an independent evaluation pass:
closed forms were checked against their defining series at high precision,
roots against sign changes of p(x) = x q'(x) - q(x), and golden-section
minima against dense grid scans.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recolor.bounds import (
    PROBLEMS,
    CharacteristicSystem,
    ClosedTail,
    QPolynomial,
    acyclic_chromatic_ceiling,
    acyclic_v1_ratio,
    characteristic_system,
    eval_at,
    kappa_preset,
    optimal_alpha,
    optimize_ratio,
)
from recolor.engine import EventTypeMeta


# --- QPolynomial basics ---------------------------------------------------

def test_q_and_p_values():
    q = QPolynomial(((2.0, 1), (3.0, 2)))
    assert q.q(0.5) == pytest.approx(1 + 1.0 + 0.75)
    # p = x q' - q = 3x^2 - 1
    assert q.p(0.5) == pytest.approx(3 * 0.25 - 1)
    assert q.p(1 / math.sqrt(3)) == pytest.approx(0.0, abs=1e-12)


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


def test_preset_dispatch_errors():
    with pytest.raises(ValueError, match="unknown problem"):
        kappa_preset("nope", 5)
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


@pytest.mark.parametrize("problem,kwargs", [
    ("acyclic-gamma", {"delta": 10, "gamma": 2}),
    ("acyclic-v2", {"delta": 30}),
    ("nonrepetitive-vertex", {"delta": 5}),
    ("nonrepetitive-edge", {"delta": 4}),
    ("facial-thue-vertex", {"delta": 6}),
    ("facial-thue-edge", {}),
    ("pair-forbidden", {"delta": 4, "descriptors": [(4, 4)]}),
])
@given(frac=st.floats(0.05, 0.95))
@settings(max_examples=25, deadline=None)
def test_tail_derivative_matches_finite_difference(problem, kwargs, frac):
    tail = kappa_preset(problem, **kwargs).q.tail
    radius = min(tail.radius, 1.0)
    x = frac * radius
    h = radius * 1e-7
    if x - h <= 0 or x + h >= radius:
        return
    numeric = (tail.fn(x + h) - tail.fn(x - h)) / (2 * h)
    assert numeric == pytest.approx(tail.dfn(x), rel=1e-4, abs=1e-8)


def test_problem_roster():
    assert len(PROBLEMS) == 10
    assert "acyclic-v1" in PROBLEMS
    assert "pair-forbidden" in PROBLEMS


def test_characteristic_matches_gamma_preset_terms():
    exact = kappa_preset("acyclic-gamma", 3, gamma=1, n=8)
    cs = characteristic_system(exact.q)
    assert isinstance(cs, CharacteristicSystem)
    # the size-1 neighbor term drags the size gcd down to 1
    assert cs.d == 1
    assert cs.residual < 1e-9
    assert cs.x == pytest.approx(0.2393947814354105, rel=1e-9)
    assert cs.r == pytest.approx((cs.x / exact.q.q(cs.x)) ** cs.d, rel=1e-9)
