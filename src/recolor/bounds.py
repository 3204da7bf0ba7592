"""Color-count bounds derived from per-type class ceilings.

A family whose type-j events cost at most C_j record entries and uncolor
s_j objects admits every palette size kappa >= min Q(x)/x over x in (0,1],
where Q(x) = 1 + sum C_j x^{s_j}.  This module evaluates and minimizes such
ratios, ships closed-form presets for the named coloring problems (with the
evaluation points those bounds are usually quoted at), and solves the
characteristic system governing the record-counting generating function.

Each named problem is declared once, as a row of `PROBLEM_TABLE`: its
preset, the arguments the preset reads, and what the CLI needs to run and
check it.  Each family problem declares its class ceilings once, as head
terms plus one series (`_FAMILY_CEILINGS`): the families' event types
(`ceilings`) and the presets' Q, exact or with a closed-form tail, read it.

Presets whose type list grows with the host graph come in two modes: the
exact finite sum (pass n) or the closed-form tail, valid for x below its
radius, which sums every type the exact mode lists and more, so its bounds
stay safe.  Every preset's Q is built by `_q`, which refuses the first
ceiling past the float range, in exact mode before computing the rest.

The minimizer `optimize_ratio` returns is always the result of the 1e-12
bisection of p(x) = x Q'(x) - Q(x).  A preset passes its pinned point as a
starting guess, from which secant steps on log(1 + p) against log x bracket
the root; that only decides which midpoints get evaluated, and a bracket
the bisection confirms shows the root is interior without evaluating p at
the domain's edge.  Terms with no pinned point (`recolor bound
--family-file`, `characteristic_system`) evaluate every step.
"""

from __future__ import annotations

import math
import operator
from functools import partial, reduce
from itertools import chain
from typing import Callable, NamedTuple

__all__ = [
    "CharacteristicSystem",
    "ClosedTail",
    "PresetBound",
    "QPolynomial",
    "RatioResult",
    "PROBLEMS",
    "PROBLEM_TABLE",
    "Problem",
    "acyclic_chromatic_ceiling",
    "acyclic_v1_ratio",
    "ceilings",
    "characteristic_system",
    "eval_at",
    "kappa_preset",
    "optimal_alpha",
    "optimize_ratio",
]


# Named tuples, not dataclasses: `import dataclasses` (with `inspect`, `ast`
# and `dis` behind it) would add to every CLI command's start-up.
def _checked_make(cls, iterable):
    """`_make` for a named tuple whose `__new__` checks its fields: the
    inherited one builds with `tuple.__new__`, skipping the checks, and so
    would the named tuple's _replace, which calls it."""
    return cls(*iterable)


class ClosedTail(NamedTuple):
    """Closed form added on top of the finite terms, valid for x < radius."""

    fn: Callable[[float], float]
    dfn: Callable[[float], float]
    radius: float


class _QFields(NamedTuple):
    terms: tuple[tuple[float, int], ...]
    tail: ClosedTail | None


class QPolynomial(_QFields):
    """Q(x) = 1 + sum C_j x^{s_j} (+ tail); C_j > 0, s_j integer >= 1."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, terms, tail: ClosedTail | None = None) -> "QPolynomial":
        terms = tuple((float(c), int(s)) for c, s in terms)
        for c, s in terms:
            if c <= 0:
                raise ValueError(f"coefficients must be positive, got {c}")
            if s < 1:
                raise ValueError(f"sizes must be positive integers, got {s}")
        if not terms and tail is None:
            raise ValueError("need at least one term or a tail")
        return super().__new__(cls, terms, tail)

    @classmethod
    def from_metas(cls, metas) -> "QPolynomial":
        """Q for a family, read off its event-type metadata."""
        return cls(tuple((m.cost, m.uncolor_size) for m in metas))

    @property
    def radius(self) -> float:
        return self.tail.radius if self.tail else math.inf

    # q and p fold their terms left to right in plain loops: from Python
    # 3.12 on, sum() of floats compensates its rounding, and the pinned
    # bits would then depend on the interpreter
    def q(self, x: float) -> float:
        total = 0.0
        for c, s in self.terms:
            total += c * x ** s
        total += 1.0
        return total + self.tail.fn(x) if self.tail else total

    def p(self, x: float) -> float:
        """x Q'(x) - Q(x): negative left of the ratio minimizer, increasing;
        p + 1 is a sum of monomials with nonnegative coefficients."""
        total = 0.0
        for c, s in self.terms:
            # (s - 1) * c alone can pass the float maximum where c x^s
            # does not
            total += (s - 1) * (c * x ** s)
        total -= 1.0
        if self.tail:
            total += x * self.tail.dfn(x) - self.tail.fn(x)
        return total


def eval_at(q: QPolynomial, x: float) -> float:
    """Q(x)/x, refusing evaluation points outside (0,1] or the tail radius."""
    if not 0 < x <= 1:
        raise ValueError(f"evaluation point must be in (0, 1], got {x}")
    if x >= q.radius:
        raise ValueError(
            f"evaluation point {x} is not below the closed form's "
            f"validity radius {q.radius}")
    return q.q(x) / x


class RatioResult(NamedTuple):
    x: float
    ratio: float
    kappa: int
    root_residual: float
    boundary: bool = False


def _p_safe(q: QPolynomial, x: float) -> float:
    # exponential tails overflow well right of the root; that sign is all
    # the bisection needs
    try:
        return q.p(x)
    except OverflowError:
        return math.inf


def _bisect_root(q: QPolynomial, lo: float, hi: float, rel_tol: float,
                 known: tuple[float, float] | None = None) -> float | None:
    # invariant: p(lo) < 0 <= p(hi).  ``known`` is a pair (a, b) taken to
    # bracket the root; p increases, so a midpoint strictly outside [a, b]
    # takes its side unevaluated.  At the close an end inside [a, b] was
    # evaluated, and the pair is checked where an end lies outside it:
    # None when it fails there.  The default (lo, hi) evaluates every
    # midpoint and never fails.
    a, b = known or (lo, hi)
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if mid < a or (mid <= b and _p_safe(q, mid) < 0):
            lo = mid
        else:
            hi = mid
    if (lo < a and not _p_safe(q, a) < 0
            or hi > b and not _p_safe(q, b) >= 0):
        return None
    x = 0.5 * (lo + hi)
    if x == 0:
        # p overflowed at every positive point: some (s_j - 1) C_j does
        raise ValueError("the ceilings times their sizes are past the float "
                         "range; the ratio's minimizer underflows to 0")
    return x


def _log1p_p(q: QPolynomial, t: float) -> float:
    """log(1 + p(e^t)), or -inf where p rounds to -1 or below or is nan."""
    p = _p_safe(q, math.exp(t))
    return math.log1p(p) if p > -1 else -math.inf


def _secant_bracket(q: QPolynomial, x: float,
                    hi: float) -> tuple[float, float] | None:
    """(a, b) 1e-12 relative either side of the root of p as secant steps
    on g(t) = log(1 + p(e^t)) from t = log ``x`` estimate it, with b < hi;
    None when ``x`` is outside (0, hi), a step leaves it, g is not finite
    or the steps stall.  `_bisect_root` checks the pair.

    p + 1 is a sum of monomials with nonnegative coefficients (the tails'
    too), so g is convex and close to linear in t, with p's root.  The
    steps stop once one moves t by less than 1e-10: they converge
    superlinearly, so the next would move it by far less.  Over the
    presets' test grid the estimate then lies within 4e-15 relative of the
    converged root, as it does with a 1e-13 stop, and well inside the
    pair."""
    if not 0 < x < hi:
        return None
    log_hi = math.log(hi)
    t0 = math.log(x)
    t1 = t0 - 1e-3
    g0, g1 = _log1p_p(q, t0), _log1p_p(q, t1)
    for _ in range(40):
        if not (math.isfinite(g0) and math.isfinite(g1)) or g0 == g1:
            return None
        t0, t1, g0 = t1, t1 - g1 * (t1 - t0) / (g1 - g0), g1
        if not t1 < log_hi:
            return None
        if abs(t1 - t0) < 1e-10:
            a, b = math.exp(t1) * (1 - 1e-12), math.exp(t1) * (1 + 1e-12)
            return (a, b) if b < hi else None
        g1 = _log1p_p(q, t1)
    return None


def optimize_ratio(q: QPolynomial, start: float | None = None) -> RatioResult:
    """Minimize Q(x)/x over (0, min(1, radius)).

    The minimizer is the root of p(x) = x Q'(x) - Q(x), which increases from
    -1; when p stays negative up to the domain edge the ratio is still
    falling there and the edge is returned with the boundary flag set.

    The root is the midpoint of a bisection of (0, hi) down to a 1e-12
    relative width.  ``start``, a guess at the root, only saves work: secant
    steps on log(1 + p) against log x from it give a pair 1e-12 relative
    either side of the root, and the bisection skips evaluating midpoints
    outside it, whose side is then known.  The bisection checks the pair
    where it relied on it: a closing end inside the pair was evaluated,
    and the pair's own end is evaluated where a closing end lies outside;
    a pair that fails is dropped and the plain search run.  The pair's ends
    lie about 1e-12 relative from the root, some 10^4 times p's rounding
    band, so a skipped midpoint would have evaluated to the side it takes:
    the result is bit for bit the one without ``start``, and a poor guess
    only costs evaluations.  A pair that holds also shows the root is
    interior, as p(hi) >= p(b) >= 0, so p(hi) is evaluated only when none
    did.
    """
    hi = 1.0 if q.radius > 1 else q.radius * (1 - 1e-12)
    known = None if start is None else _secant_bracket(q, start, hi)
    x = None if known is None else _bisect_root(q, 0.0, hi, 1e-12, known)
    if x is None:
        if _p_safe(q, hi) < 0:
            return RatioResult(hi, q.q(hi) / hi, math.ceil(q.q(hi) / hi),
                               abs(q.p(hi)), True)
        x = _bisect_root(q, 0.0, hi, 1e-12)
    ratio = q.q(x) / x
    return RatioResult(x, ratio, math.ceil(ratio), abs(q.p(x)), False)


class CharacteristicSystem(NamedTuple):
    d: int
    r: float
    s: float
    x: float
    residual: float


def characteristic_system(q: QPolynomial) -> CharacteristicSystem:
    """Solve G(r,s)=s, G_z(r,s)=1 for the record-counting series.

    With X the positive root of p, the solution is s = sum C_j X^{s_j} and
    r = (X/Q(X))^d where d = gcd of the sizes; the residual is |p(X)|, zero
    at the exact root.  Terms fold left to right, as in `QPolynomial`, so
    the bits do not depend on the interpreter's sum().

    The root is bracketed by hi = 2^k, the first power of two where p is
    nonnegative.  Ceilings far below 1 can put X so high (up to about
    2^537) that the powers X^{s_j} pass the float range while every
    C_j X^{s_j} stays small; the system is then solved for z = X / 2^k over
    the ceilings C_j 2^{k s_j}, an exact rescaling, and r past the float
    range is math.inf.
    """
    if q.tail is not None:
        raise ValueError("characteristic system needs the finite term form")
    if all(s == 1 for _, s in q.terms):
        raise ValueError(
            "characteristic system does not apply: all sizes are 1")
    k = 0
    while reduce(operator.add, (math.ldexp((sz - 1) * c, k * sz)
                                for c, sz in q.terms), 0.0) < 1.0:
        k += 1
    # rescale only when some 2^{k s_j} is past the float range, so every
    # other input keeps the bits of the unscaled bisection
    e = k if k * max(sz for _, sz in q.terms) > 1023 else 0
    terms = tuple((math.ldexp(c, e * sz), sz) for c, sz in q.terms)
    qz = QPolynomial(terms)
    z = _bisect_root(qz, 0.0, math.ldexp(1.0, k - e), 1e-14)
    s = reduce(operator.add, (c * z ** sz for c, sz in terms), 0.0)
    residual = abs(qz.p(z))
    d = reduce(math.gcd, (sz for _, sz in q.terms))
    x = math.ldexp(z, e)
    try:
        r = (x / (1.0 + s)) ** d
    except OverflowError:
        r = math.inf
    return CharacteristicSystem(d, r, s, x, residual)


def acyclic_v1_ratio(delta: int, alpha: float) -> float:
    """Closed-form ratio of the four-event acyclic family at its pinned
    evaluation point x = 2 sqrt(2 alpha) / delta^(4/3), as a function of
    alpha (special cost taken at its real value alpha * delta^(4/3))."""
    a32 = 8 * alpha ** 1.5 * math.sqrt(2)
    return ((1 / math.sqrt(2 * alpha) + alpha) * delta ** (4 / 3)
            + (a32 + 1) * delta
            - 4 * a32
            + (a32 / delta) * (6 - 4 / delta + 1 / delta ** 2))


def optimal_alpha(delta: int) -> float:
    """Alpha minimizing the closed-form acyclic ratio at the given degree,
    by golden-section search to 1e-6, rounded to 3 decimals."""
    if delta < 24:
        raise ValueError(f"optimal_alpha requires delta >= 24, got {delta}")
    inv_phi = (math.sqrt(5) - 1) / 2
    lo, hi = 1e-9, 1.0
    a = hi - inv_phi * (hi - lo)
    b = lo + inv_phi * (hi - lo)
    fa, fb = acyclic_v1_ratio(delta, a), acyclic_v1_ratio(delta, b)
    while hi - lo > 1e-6:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = acyclic_v1_ratio(delta, a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = acyclic_v1_ratio(delta, b)
    return round(0.5 * (lo + hi), 3)


def acyclic_chromatic_ceiling(delta: int) -> float:
    """Strict upper bound on the acyclic chromatic number for delta >= 24:
    the smaller of the two closed-form branches."""
    if delta < 24:
        raise ValueError(f"the bound requires delta >= 24, got {delta}")
    d43 = delta ** (4 / 3)
    return min(1.5 * d43 + 5 * delta - 14,
               1.5 * d43 + delta + 8 * d43 / (delta ** (2 / 3) - 4) + 1)


class _PresetFields(NamedTuple):
    problem: str
    pinned: RatioResult
    optimized: RatioResult
    q: QPolynomial
    literature: dict[str, int]
    kappa_total: int | None


class PresetBound(_PresetFields):
    """A preset's bound at its quoted evaluation point and at the true root.

    ``pinned.kappa`` is the integer the bound is stated with; ``optimized``
    comes from minimizing the same Q, so optimized.kappa <= pinned.kappa.
    ``literature`` defaults to a fresh empty dict per bound.
    ``kappa_total`` is set when finishing the coloring costs extra colors
    beyond the engine palette (the reserved-edge variant).
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, problem: str, pinned: RatioResult,
                optimized: RatioResult, q: QPolynomial,
                literature: dict[str, int] | None = None,
                kappa_total: int | None = None) -> "PresetBound":
        return super().__new__(cls, problem, pinned, optimized, q,
                               {} if literature is None else literature,
                               kappa_total)


def _bound(problem: str, q: QPolynomial, x: float, display: float,
           literature: dict[str, int] | None = None,
           kappa_total: int | None = None) -> PresetBound:
    """The preset's bound quoted as ``display`` at its pinned point ``x``,
    and Q's minimum, searched for from ``x``."""
    pinned = RatioResult(x, display, math.ceil(display), abs(q.p(x)),
                         boundary=False)
    return PresetBound(problem, pinned, optimize_ratio(q, x), q, literature,
                       kappa_total)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _power(d, e) -> float:
    """``d ** e`` as a float, or math.inf past the float maximum: a ceiling
    that large bounds class indices no witness list can reach."""
    if type(d) is type(e) is int and e * (d.bit_length() - 1) > 1023:
        return math.inf  # d ** e >= 2 ** 1024: skip the exact integer
    try:
        return float(d ** e)
    except OverflowError:
        return math.inf


class _Series(NamedTuple):
    """``terms(n)`` yields a series' (ceiling, size) pairs on n objects,
    lazily (with n None, those ``tail()``'s closed form leaves out);
    ``tail()`` is None where the closed form's constants are past the float
    range."""

    terms: Callable
    tail: Callable[[], ClosedTail]


def _geometric(first, base, p, s, a=1, b=0, p0=0, s0=0, over=1,
               lead=()) -> _Series:
    """Type i >= first costs (a + b i) base^(p i + p0) / over and uncolors
    s i + s0 objects, except the ``lead`` types, whose ceilings are listed.
    From type i on the types sum to k x^e w (c + b w), where
    w = 1 / (1 - base^p x^s), e = s i + s0, k = base^(p i + p0) / over and
    c = a + b (i - 1), below the radius 1 / base^(p/s).  The type index
    counts half the objects of a witness, so it runs to n // 2."""
    def terms(n):
        for i in range(first, first + len(lead) if n is None else n // 2 + 1):
            c = lead[i - first] if i - first < len(lead) else (
                (a + b * i) * _power(base, p * i + p0) / over)
            yield c, s * i + s0

    def tail():
        i = first + len(lead)
        k, e, c = _power(base, p * i + p0) / over, s * i + s0, a + b * (i - 1)
        b2, e1, r = 2 * b, e - 1, _power(base, p)
        if k == math.inf or r == math.inf:
            return None

        def value(x: float) -> float:
            w = 1 / (1 - r * x ** s)
            return k * x ** e * w * (c + b * w)

        def slope(x: float) -> float:
            w = 1 / (1 - r * x ** s)
            return k * x ** e1 * w * (e * (c + b * w)
                                      + s * (w - 1) * (c + b2 * w))

        return ClosedTail(value, slope, 1 / _power(base, p / s))

    return _Series(terms, tail)


def _set_ceiling(delta: int, gamma: float, i: int) -> float:
    """delta^(gamma i) / i!, the ceiling of the size-i monochromatic-set
    type.  Where that expression raises, because i! (i > 170) or the power
    is past the float range, it is computed in log space instead, reading
    math.inf past the float maximum.  There it may underflow to 0.0."""
    try:
        return delta ** (gamma * i) / math.factorial(i)
    except OverflowError:  # the power or i! is past the float maximum
        pass
    try:
        return math.exp(gamma * i * math.log(delta) - math.lgamma(i + 1))
    except OverflowError:
        return math.inf


def _exponential(base, p) -> _Series:
    """Type i >= 1 costs base^(p i) / i! and uncolors i objects, i up to
    n - 2; the types sum to expm1(base^p x)."""
    def terms(n):
        # the ceilings rise from base^p > 1 to a peak near i = base^p and
        # only fall past it: the list ends at the first that underflows
        for i in range(1, 0 if n is None else n - 1):
            c = _set_ceiling(base, p, i)
            if c == 0.0:
                return
            yield c, i

    def tail():
        t = base ** p
        return ClosedTail(lambda x: math.expm1(t * x),
                          lambda x: t * math.exp(t * x), math.inf)

    return _Series(terms, tail)


# each family problem's head terms and series (first type, base, p, s, ...)
# at maximum degree d; an int base keeps acyclic-gamma's powers exact, and
# every power is read through `_power`, so one past the float range is inf
_FAMILY_CEILINGS = {
    "acyclic-gamma": lambda d, gamma, alpha: (
        [(_power(d, 1), 1)],
        _geometric(2, d, 2, 2, a=0.5 * gamma, p0=-2, s0=-2)),
    "acyclic-v1": lambda d, gamma, alpha: (
        [(_power(d, 1), 1), (alpha * _power(d, 4 / 3), 1),
         (_power(d, 8 / 3) / (8 * alpha), 2),
         (0.5 * _power(d, 1) * _power(d - 1, 4), 4)], None),
    "acyclic-v2": lambda d, gamma, alpha: (
        [(_power(d, 1), 1), (alpha * _power(d, 4 / 3), 1)],
        _geometric(2, d, 2, 2, p0=-4 / 3, s0=-2, over=2 * alpha,
                   lead=(_power(d, 8 / 3) / (8 * alpha),))),
    "nonrepetitive-vertex": lambda d, gamma, alpha: (
        [], _geometric(1, _power(d, 1), 2, 1, a=0, b=1, p0=-1)),
    "nonrepetitive-edge": lambda d, gamma, alpha: (
        [], _geometric(1, _power(d, 1), 2, 1, a=0, b=2, p0=-1)),
    "facial-thue-vertex": lambda d, gamma, alpha: (
        [(_power(d, 1), 1)],
        _geometric(2, _power(d, 1), 0, 1, a=0, b=2, p0=1)),
    "facial-thue-edge": lambda d, gamma, alpha: (
        [], _geometric(1, 1.0, 0, 1, b=2)),
}


def ceilings(problem: str, delta, n: int | None, *, gamma: int = 1,
             alpha: float = 0.5) -> list[tuple[float, int]]:
    """(class ceiling C_j, uncolor size s_j) of each event type of a family
    problem, type 1 first, on n vertices of maximum degree delta (with n
    None, up to where the preset's closed form takes over); a ceiling past
    the float range reads as inf."""
    if problem not in _FAMILY_CEILINGS:
        raise ValueError(f"{problem!r} declares no family")
    head, series = _FAMILY_CEILINGS[problem](delta, gamma, alpha)
    return head + list(series.terms(n)) if series else head


def _q(head, series=None, n: int | None = None) -> QPolynomial:
    """Q over head terms and a series' types on n objects (without a series,
    the head alone), refusing the first ceiling past the float range before
    computing any later one; with n None, over the head, the lead types and
    the closed form.  Every preset's Q is built here."""
    finite = []
    for c, s in chain(head, series.terms(n) if series else ()):
        if c == math.inf:
            raise OverflowError("a class ceiling is past the float range")
        finite.append((c, s))
    _require(finite or n is None, f"n = {n} leaves no event type")
    if series is None or n is not None:
        return QPolynomial(finite)
    tail = series.tail()
    if tail is None:
        raise OverflowError("a class ceiling is past the float range")
    return QPolynomial(finite, tail)


def _family_q(problem, delta, n, gamma=1, alpha=0.5) -> QPolynomial:
    return _q(*_FAMILY_CEILINGS[problem](delta, gamma, alpha), n)


def _acyclic_gamma(delta: int, gamma: int, n: int | None) -> PresetBound:
    _require(delta >= 1, f"acyclic-gamma requires delta >= 1, got {delta}")
    _require(gamma >= 1, f"acyclic-gamma requires gamma >= 1, got {gamma}")
    q = _family_q("acyclic-gamma", delta, n, gamma=gamma)
    x = math.sqrt(2 / (gamma + 2)) / delta
    display = delta * (1 + math.sqrt(2 * gamma + 4))
    return _bound(
        "acyclic-gamma", q, x, display,
        {"alon-mcdiarmid-reed": math.ceil(32 * math.sqrt(gamma) * delta)})


def _acyclic_literature(delta: int) -> dict[str, int]:
    return {
        "kostochka-stocker": 1 + (delta + 1) ** 2 // 4,
        "alon-mcdiarmid-reed": math.ceil(50 * delta ** (4 / 3)),
        "ndreca-procacci-scoppola": math.ceil(6.59 * delta ** (4 / 3)
                                              + 3.3 * delta),
        "sereni-volec": math.ceil(2.835 * delta ** (4 / 3) + delta),
    }


def _acyclic_v1(delta: int, alpha: float) -> PresetBound:
    _require(delta >= 24, f"acyclic-v1 requires delta >= 24, got {delta}")
    _require(0 < alpha <= 1, f"alpha must be in (0, 1], got {alpha}")
    neighbor, (special, size), *rest = ceilings("acyclic-v1", delta, None,
                                                alpha=alpha)
    # a special set holds a whole number of vertices: the preset floors its
    # ceiling and drops the type when no vertex fits
    terms = [neighbor]
    if special >= 1:
        # an infinite ceiling stays for `_q` to refuse
        terms.append((special if special == math.inf else math.floor(special),
                      size))
    q = _q(terms + rest)
    x = 2 * math.sqrt(2 * alpha) / delta ** (4 / 3)
    if alpha == 0.5:
        # the quoted constant absorbs the lower-order terms of the closed
        # form, which undercuts it exactly when delta >= 24
        display = 1.5 * delta ** (4 / 3) + 5 * delta - 15
    else:
        display = eval_at(q, x)
    return _bound("acyclic-v1", q, x, display, _acyclic_literature(delta))


def _acyclic_v2(delta: int, alpha: float, n: int | None) -> PresetBound:
    _require(delta >= 9, f"acyclic-v2 requires delta >= 9, got {delta}")
    _require(alpha == 0.5,
             "the acyclic-v2 closed form is pinned at alpha = 0.5")
    q = _family_q("acyclic-v2", delta, n, alpha=alpha)
    x = 2 / delta ** (4 / 3)
    display = (1.5 * delta ** (4 / 3) + delta
               + 8 * delta ** (4 / 3) / (delta ** (2 / 3) - 4))
    return _bound("acyclic-v2", q, x, display, _acyclic_literature(delta))


def _nonrepetitive(delta: int, n: int | None, *, edge: bool) -> PresetBound:
    name = "nonrepetitive-edge" if edge else "nonrepetitive-vertex"
    _require(delta >= 3, f"{name} requires delta >= 3, got {delta}")
    mult = 2 if edge else 1
    q = _family_q(name, delta, n)
    x = 1 / delta ** 2 - (2 / delta ** 7) ** (1 / 3)
    u = 1 - (2 / delta) ** (1 / 3)
    # delta^2 x = u < 1 rounds to 1 from delta ~ 10^46, and u from ~ 10^49
    _require(u < 1 and (n is not None or x * float(delta) ** 2 < 1),
             f"{name} needs delta below ~10^46 (~10^49 with n), got {delta}")
    display = delta ** 2 / u + mult * delta / (1 - u) ** 2
    if edge:
        lit = {"alon-grytczuk-haluszczak-riordan":
               math.ceil((2 * math.e ** 16 + 1) * delta ** 2)}
    else:
        lit = {"dujmovic-et-al": math.ceil(
            (1 + 1 / (delta ** (1 / 3) - 1) + delta ** (-1 / 3))
            * delta ** 2)}
    return _bound(name, q, x, display, lit)


def _facial_vertex(delta: int, n: int | None) -> PresetBound:
    _require(delta >= 2,
             f"facial-thue-vertex requires delta >= 2, got {delta}")
    q = _family_q("facial-thue-vertex", delta, n)
    x = 1 / (2 * math.sqrt(delta))
    display = delta + 4 * math.sqrt(delta) + 3
    return _bound("facial-thue-vertex", q, x, display,
                  {"przybylo-et-al": 5 * delta, "barat-czap": 24})


def _facial_edge(n: int | None) -> PresetBound:
    q = _family_q("facial-thue-edge", None, n)
    x = (math.sqrt(17) - 3) / 4
    display = eval_at(q, x)
    return _bound("facial-thue-edge", q, x, display,
                  {"schreyer-skrabulakova": 291, "przybylo": 12},
                  kappa_total=math.ceil(display) + 1)


def _r_acyclic(delta: int, r: int) -> PresetBound:
    _require(delta >= 3, f"r-acyclic requires delta >= 3, got {delta}")
    _require(r >= 4, f"r-acyclic requires r >= 4, got {r}")
    ell = r // 2
    d = _power(delta, 1)
    c_paths = 0.5 * (r + 2) ** 6 * _power(d, r + 1)
    terms = [(_power(d, ell), 1), (c_paths, 3)]
    if r % 2:
        terms += [(_power(d, (r + 1) / 3), 1),
                  (ell * _power(d, 2 * (r + 1) / 3), 2)]
    q = _q(terms)
    if r % 2 == 0:
        x = (1 / (2 * c_paths)) ** (1 / 3)
        display = delta ** ell + 1.5 * (r + 2) ** 2 * delta ** ((r + 1) / 3)
    else:
        x = delta ** (-(r + 1) / 3)
        display = delta ** ell \
            + delta ** ((r + 1) / 3) * (2 + ell + 0.5 * (r + 2) ** 6)
    gp = 2 ** ((r + 2) / 3) * r * (r + 2) * delta ** (r // 2)
    return _bound("r-acyclic", q, x, display,
                  {"greenhill-pikhurko": math.ceil(gp)})


# unlabeled trees by vertex count (offset 1), used by the edge-partition form
_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159)


def _star(delta: int) -> PresetBound:
    _require(delta >= 2, f"star coloring requires delta >= 2, got {delta}")
    q = _q([(_power(delta, 1), 1),
            (_power(2 * delta * (delta - 1) ** 2, 1), 2)])
    x = 1 / (math.sqrt(2 * delta) * (delta - 1))
    display = (2 * math.sqrt(2) * delta ** 1.5 + delta
               - math.sqrt(8 * delta) + 1)
    return _bound("star", q, x, display)


def _pair_forbidden(delta: int, descriptors, n: int | None,
                    form: str) -> PresetBound:
    _require(bool(descriptors), "pair-forbidden needs at least one (n_i, m_i)")
    pairs = [(int(ni), int(mi)) for ni, mi in descriptors]
    for ni, mi in pairs:
        _require(ni >= 2 and mi >= ni - 1 and mi <= ni * ni // 4,
                 f"({ni}, {mi}) is not a connected bipartite graph shape")
    m = min(mi for _, mi in pairs)
    _require(m >= 2, f"pair-forbidden requires min edge count >= 2, got {m}")
    _require(delta >= 2, f"pair-forbidden requires delta >= 2, got {delta}")
    if pairs == [(4, 3)]:
        # a single forbidden 4-vertex path needs no monochromatic-set events;
        # the sharpened two-term form is the star-coloring bound
        return _star(delta)
    gamma = m / (m - 1)
    terms: list[tuple[float, int]] = [(float(delta), 1)]
    if form == "vertex":
        terms.append(((m + 1) * 4.0 ** (m + 1) * _power(delta, m), m - 1))
        for ni, mi in pairs:
            if ni <= m:
                terms.append((ni * _power(delta, gamma * (ni - 2)
                                          - (mi - m) / (m - 1)), ni - 2))
        x = 1 / (4 * delta ** gamma)
        k_small = sum(1 for ni, _ in pairs if ni <= m)
        lit = {"aravind-subramanian": math.ceil(
            (64 * (m + 1) ** 3 * k_small if k_small else 128 * (m + 1) ** 3)
            * delta ** gamma)}
    elif form == "edge":
        for ni, mi in pairs:
            if mi == m:
                terms.append((ni * _power(delta, gamma * (ni - 2)), ni - 2))
        if m + 2 > len(_TREE_COUNTS):
            raise ValueError(f"edge form supports min edge count <= "
                             f"{len(_TREE_COUNTS) - 2}, got {m}")
        trees = _TREE_COUNTS[m + 1]
        gamma_tree = (m + 1) / m
        terms.append((trees * (m + 2) * _power(delta, gamma_tree * m), m))
        x = 1 / delta ** gamma
        k_edge = sum(1 for _, mi in pairs if mi == m)
        lit = {"aravind-subramanian": math.ceil(
            64 * (m + 1) ** 3 * max(1, k_edge) * delta ** gamma)}
    else:
        raise ValueError(f"form must be 'vertex' or 'edge', got {form!r}")
    q = _q(terms, _exponential(delta, gamma), n)
    display = eval_at(q, x)
    return _bound("pair-forbidden", q, x, display, lit)


class Problem(NamedTuple):
    """A named problem: its preset, the `kappa_preset` arguments that preset
    reads (space-separated, in order) and the `verify` property checking
    its colorings; a problem the engine runs also names its family."""

    preset: Callable[..., PresetBound]
    options: str
    verify: str | None = None
    factory: str | None = None  # attribute of `recolor.families`, loaded on use
    option: str | None = None  # the CLI option the factory takes after its host
    embedded: bool = False  # the host is a plane embedding, not a graph
    on_edges: bool = False  # the colored objects are edges, not vertices


PROBLEM_TABLE = {
    "acyclic-gamma": Problem(_acyclic_gamma, "delta gamma n", "acyclic",
                             "acyclic_gamma_family", "gamma"),
    "acyclic-v1": Problem(_acyclic_v1, "delta alpha", "acyclic",
                          "acyclic_v1_family", "alpha"),
    "acyclic-v2": Problem(_acyclic_v2, "delta alpha n", "acyclic",
                          "acyclic_v2_family", "alpha"),
    "nonrepetitive-vertex": Problem(
        partial(_nonrepetitive, edge=False), "delta n",
        "nonrepetitive-vertex", "nonrepetitive_vertex_family"),
    "nonrepetitive-edge": Problem(
        partial(_nonrepetitive, edge=True), "delta n", "nonrepetitive-edge",
        "nonrepetitive_edge_family", on_edges=True),
    "facial-thue-vertex": Problem(
        _facial_vertex, "delta n", "facial-thue-vertex",
        "facial_thue_vertex_family", embedded=True),
    "facial-thue-edge": Problem(
        _facial_edge, "n", "facial-thue-edge", "facial_thue_edge_family",
        "estar", embedded=True, on_edges=True),
    "r-acyclic": Problem(_r_acyclic, "delta r", "r-acyclic"),
    "pair-forbidden": Problem(_pair_forbidden, "delta descriptors n form",
                              "pair-forbidden"),
    "star": Problem(_star, "delta"),
}

PROBLEMS = tuple(PROBLEM_TABLE)


def kappa_preset(problem: str, delta: int | None = None, *,
                 gamma: int = 1, alpha: float = 0.5, r: int = 4,
                 n: int | None = None, descriptors=None,
                 form: str = "vertex") -> PresetBound:
    """Named bound presets at their quoted evaluation points.

    Pass n >= 1 for the exact finite type list of a preset whose row lists
    ``n``; omit it for the closed-form tail.  Parameters outside a preset's
    validity range raise ValueError quoting the threshold.
    """
    row = PROBLEM_TABLE.get(problem)
    if row is None:  # not `_require`: the message would be built every call
        raise ValueError(f"unknown problem {problem!r}; known: {PROBLEMS}")
    _require(n is None or n >= 1, f"n must be at least 1, got {n}")
    names = row.options.split()
    _require(n is None or "n" in names, f"{problem} has no exact mode")
    _require(delta is not None or "delta" not in names,
             f"{problem} requires delta")
    given = {"delta": delta, "gamma": gamma, "alpha": alpha, "r": r, "n": n,
             "descriptors": descriptors, "form": form}
    return row.preset(*map(given.get, names))
