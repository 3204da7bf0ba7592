"""Color-count bounds derived from per-type class ceilings.

A family whose type-j events cost at most C_j record entries and uncolor
s_j objects admits every palette size kappa >= min Q(x)/x over x in (0,1],
where Q(x) = 1 + sum C_j x^{s_j}.  This module evaluates and minimizes such
ratios, ships closed-form presets for the named coloring problems (with the
evaluation points those bounds are usually quoted at), and solves the
characteristic system governing the record-counting generating function.

Presets whose type list grows with the host graph come in two modes: the
exact finite sum (pass n) or a closed-form tail bounding the series from
above, valid for x below the tail's radius.  The tail mode never undershoots
the exact mode, so its bounds stay safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

__all__ = [
    "CharacteristicSystem",
    "ClosedTail",
    "PresetBound",
    "QPolynomial",
    "RatioResult",
    "PROBLEMS",
    "acyclic_chromatic_ceiling",
    "acyclic_v1_ratio",
    "characteristic_system",
    "eval_at",
    "kappa_preset",
    "optimal_alpha",
    "optimize_ratio",
]


@dataclass(frozen=True)
class ClosedTail:
    """Closed form added on top of the finite terms, valid for x < radius."""

    fn: Callable[[float], float]
    dfn: Callable[[float], float]
    radius: float
    label: str = ""


@dataclass(frozen=True)
class QPolynomial:
    """Q(x) = 1 + sum C_j x^{s_j} (+ tail); C_j > 0, s_j integer >= 1."""

    terms: tuple[tuple[float, int], ...]
    tail: ClosedTail | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "terms", tuple((float(c), int(s)) for c, s in self.terms))
        for c, s in self.terms:
            if c <= 0:
                raise ValueError(f"coefficients must be positive, got {c}")
            if s < 1:
                raise ValueError(f"sizes must be positive integers, got {s}")
        if not self.terms and self.tail is None:
            raise ValueError("need at least one term or a tail")

    @classmethod
    def from_metas(cls, metas) -> "QPolynomial":
        """Q for a family, read off its event-type metadata."""
        return cls(tuple((m.cost, m.uncolor_size) for m in metas))

    @property
    def radius(self) -> float:
        return self.tail.radius if self.tail else math.inf

    def q(self, x: float) -> float:
        total = 1.0 + sum(c * x ** s for c, s in self.terms)
        return total + self.tail.fn(x) if self.tail else total

    def p(self, x: float) -> float:
        """x Q'(x) - Q(x): negative left of the ratio minimizer, increasing."""
        total = -1.0 + sum((s - 1) * c * x ** s for c, s in self.terms)
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


@dataclass(frozen=True)
class RatioResult:
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


def _bisect_root(q: QPolynomial, lo: float, hi: float, rel_tol: float) -> float:
    # invariant: p(lo) < 0 <= p(hi)
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if _p_safe(q, mid) < 0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    if x == 0:
        # p overflowed at every positive point: some (s_j - 1) C_j does
        raise ValueError("the ceilings times their sizes are past the float "
                         "range; the ratio's minimizer underflows to 0")
    return x


def optimize_ratio(q: QPolynomial, rel_tol: float = 1e-12) -> RatioResult:
    """Minimize Q(x)/x over (0, min(1, radius)).

    The minimizer is the root of p(x) = x Q'(x) - Q(x), which increases from
    -1; when p stays negative up to the domain edge the ratio is still
    falling there and the edge is returned with the boundary flag set.
    """
    if all(s == 1 for _, s in q.terms) and q.tail is None:
        ratio = 1.0 + sum(c for c, _ in q.terms)
        return RatioResult(1.0, ratio, math.ceil(ratio), abs(q.p(1.0)), True)
    hi = 1.0 if q.radius > 1 else q.radius * (1 - 1e-12)
    if _p_safe(q, hi) < 0:
        return RatioResult(hi, q.q(hi) / hi, math.ceil(q.q(hi) / hi),
                           abs(q.p(hi)), True)
    x = _bisect_root(q, 0.0, hi, rel_tol)
    ratio = q.q(x) / x
    return RatioResult(x, ratio, math.ceil(ratio), abs(q.p(x)), False)


@dataclass(frozen=True)
class CharacteristicSystem:
    d: int
    r: float
    s: float
    x: float
    residual: float


def characteristic_system(q: QPolynomial) -> CharacteristicSystem:
    """Solve G(r,s)=s, G_z(r,s)=1 for the record-counting series.

    With X the positive root of p, the solution is s = sum C_j X^{s_j} and
    r = (X/Q(X))^d where d = gcd of the sizes; the residual reports how far
    the root is from satisfying sum s_j C_j X^{s_j} = s + 1, an identity at
    the exact root.

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
    while sum(math.ldexp((sz - 1) * c, k * sz) for c, sz in q.terms) < 1.0:
        k += 1
    # rescale only when some 2^{k s_j} is past the float range, so every
    # other input keeps the bits of the unscaled bisection
    e = k if k * max(sz for _, sz in q.terms) > 1023 else 0
    terms = tuple((math.ldexp(c, e * sz), sz) for c, sz in q.terms)
    z = _bisect_root(QPolynomial(terms), 0.0, math.ldexp(1.0, k - e), 1e-14)
    s = sum(c * z ** sz for c, sz in terms)
    residual = abs(sum(sz * c * z ** sz for c, sz in terms) - (s + 1))
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


@dataclass(frozen=True)
class PresetBound:
    """A preset's bound at its quoted evaluation point and at the true root.

    ``pinned.kappa`` is the integer the bound is stated with; ``optimized``
    comes from minimizing the same Q, so optimized.kappa <= pinned.kappa.
    ``kappa_total`` is set when finishing the coloring costs extra colors
    beyond the engine palette (the reserved-edge variant).
    """

    problem: str
    pinned: RatioResult
    optimized: RatioResult
    q: QPolynomial
    literature: dict[str, int] = field(default_factory=dict)
    kappa_total: int | None = None


def _pinned(q: QPolynomial, x: float, display: float) -> RatioResult:
    return RatioResult(x, display, math.ceil(display), abs(q.p(x)),
                       boundary=False)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _acyclic_gamma(delta: int, gamma: int, n: int | None) -> PresetBound:
    _require(delta >= 1, f"acyclic-gamma requires delta >= 1, got {delta}")
    _require(gamma >= 1, f"acyclic-gamma requires gamma >= 1, got {gamma}")
    base = [(float(delta), 1)]
    if n is None:
        g = float(gamma)

        def fn(x: float) -> float:
            u = (delta * x) ** 2
            return 0.5 * g * u / (1 - u)

        def dfn(x: float) -> float:
            u = (delta * x) ** 2
            return 0.5 * g * 2 * delta ** 2 * x / (1 - u) ** 2

        q = QPolynomial(tuple(base), ClosedTail(fn, dfn, 1 / delta,
                                                "gamma/2 u/(1-u), u=(dx)^2"))
    else:
        q = QPolynomial(tuple(base) + tuple(
            (0.5 * gamma * delta ** (2 * k - 2), 2 * k - 2)
            for k in range(2, n // 2 + 1)))
    x = math.sqrt(2 / (gamma + 2)) / delta
    display = delta * (1 + math.sqrt(2 * gamma + 4))
    return PresetBound(
        "acyclic-gamma", _pinned(q, x, display), optimize_ratio(q), q,
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
    special = math.floor(alpha * delta ** (4 / 3))
    terms = [(float(delta), 1)]
    if special >= 1:
        terms.append((float(special), 1))
    terms += [(delta ** (8 / 3) / (8 * alpha), 2),
              (0.5 * delta * (delta - 1) ** 4, 4)]
    q = QPolynomial(tuple(terms))
    x = 2 * math.sqrt(2 * alpha) / delta ** (4 / 3)
    if alpha == 0.5:
        # the quoted constant absorbs the lower-order terms of the closed
        # form, which undercuts it exactly when delta >= 24
        display = 1.5 * delta ** (4 / 3) + 5 * delta - 15
    else:
        display = eval_at(q, x)
    return PresetBound("acyclic-v1", _pinned(q, x, display),
                       optimize_ratio(q), q, _acyclic_literature(delta))


def _acyclic_v2(delta: int, alpha: float, n: int | None) -> PresetBound:
    _require(delta >= 9, f"acyclic-v2 requires delta >= 9, got {delta}")
    _require(alpha == 0.5,
             "the acyclic-v2 closed form is pinned at alpha = 0.5")
    base = [(float(delta), 1), (0.5 * delta ** (4 / 3), 1),
            (0.25 * delta ** (8 / 3), 2)]
    if n is None:

        def fn(x: float) -> float:
            return delta ** (14 / 3) * x ** 4 / (1 - delta ** 2 * x ** 2)

        def dfn(x: float) -> float:
            u = delta ** 2 * x ** 2
            return delta ** (14 / 3) * (4 * x ** 3 - 2 * delta ** 2 * x ** 5) \
                / (1 - u) ** 2

        q = QPolynomial(tuple(base), ClosedTail(fn, dfn, 1 / delta,
                                                "d^(14/3)x^4/(1-d^2x^2)"))
    else:
        q = QPolynomial(tuple(base) + tuple(
            (delta ** (2 * k - 4 / 3), 2 * k - 2)
            for k in range(3, n // 2 + 1)))
    x = 2 / delta ** (4 / 3)
    display = (1.5 * delta ** (4 / 3) + delta
               + 8 * delta ** (4 / 3) / (delta ** (2 / 3) - 4))
    return PresetBound("acyclic-v2", _pinned(q, x, display),
                       optimize_ratio(q), q, _acyclic_literature(delta))


def _nonrepetitive(delta: int, n: int | None, *, edge: bool) -> PresetBound:
    name = "nonrepetitive-edge" if edge else "nonrepetitive-vertex"
    _require(delta >= 3, f"{name} requires delta >= 3, got {delta}")
    mult = 2 if edge else 1
    if n is None:

        def fn(x: float) -> float:
            return mult * delta * x / (1 - delta ** 2 * x) ** 2

        def dfn(x: float) -> float:
            return mult * delta * (1 + delta ** 2 * x) \
                / (1 - delta ** 2 * x) ** 3

        q = QPolynomial((), ClosedTail(fn, dfn, 1 / delta ** 2,
                                       "m d x/(1-d^2 x)^2"))
    else:
        q = QPolynomial(tuple(
            (mult * j * float(delta) ** (2 * j - 1), j)
            for j in range(1, n // 2 + 1)))
    x = 1 / delta ** 2 - (2 / delta ** 7) ** (1 / 3)
    u = 1 - (2 / delta) ** (1 / 3)
    display = delta ** 2 / u + mult * delta / (1 - u) ** 2
    if edge:
        lit = {"alon-grytczuk-haluszczak-riordan":
               math.ceil((2 * math.e ** 16 + 1) * delta ** 2)}
    else:
        lit = {"dujmovic-et-al": math.ceil(
            (1 + 1 / (delta ** (1 / 3) - 1) + delta ** (-1 / 3))
            * delta ** 2)}
    return PresetBound(name, _pinned(q, x, display), optimize_ratio(q), q, lit)


def _facial_vertex(delta: int, n: int | None) -> PresetBound:
    _require(delta >= 2,
             f"facial-thue-vertex requires delta >= 2, got {delta}")
    base = [(float(delta), 1)]
    if n is None:

        def fn(x: float) -> float:
            return 2 * delta * (x / (1 - x) ** 2 - x)

        def dfn(x: float) -> float:
            return 2 * delta * ((1 + x) / (1 - x) ** 3 - 1)

        q = QPolynomial(tuple(base), ClosedTail(fn, dfn, 1.0,
                                                "2d(x/(1-x)^2 - x)"))
    else:
        q = QPolynomial(tuple(base) + tuple(
            (2 * j * float(delta), j) for j in range(2, n // 2 + 1)))
    x = 1 / (2 * math.sqrt(delta))
    display = delta + 4 * math.sqrt(delta) + 3
    return PresetBound("facial-thue-vertex", _pinned(q, x, display),
                       optimize_ratio(q), q,
                       {"przybylo-et-al": 5 * delta, "barat-czap": 24})


def _facial_edge(n: int | None) -> PresetBound:
    if n is None:

        def fn(x: float) -> float:
            return x / (1 - x) + 2 * x / (1 - x) ** 2

        def dfn(x: float) -> float:
            return 1 / (1 - x) ** 2 + 2 * (1 + x) / (1 - x) ** 3

        q = QPolynomial((), ClosedTail(fn, dfn, 1.0,
                                       "x/(1-x) + 2x/(1-x)^2"))
    else:
        q = QPolynomial(tuple((1.0 + 2 * j, j) for j in range(1, n // 2 + 1)))
    x = (math.sqrt(17) - 3) / 4
    display = eval_at(q, x)
    return PresetBound("facial-thue-edge", _pinned(q, x, display),
                       optimize_ratio(q), q,
                       {"schreyer-skrabulakova": 291, "przybylo": 12},
                       kappa_total=math.ceil(display) + 1)


def _r_acyclic(delta: int, r: int) -> PresetBound:
    _require(delta >= 3, f"r-acyclic requires delta >= 3, got {delta}")
    _require(r >= 4, f"r-acyclic requires r >= 4, got {r}")
    ell = r // 2
    c_paths = 0.5 * (r + 2) ** 6 * float(delta) ** (r + 1)
    terms = [(float(delta) ** ell, 1), (c_paths, 3)]
    if r % 2 == 0:
        x = (1 / (2 * c_paths)) ** (1 / 3)
        display = delta ** ell + 1.5 * (r + 2) ** 2 * delta ** ((r + 1) / 3)
    else:
        terms += [(float(delta) ** ((r + 1) / 3), 1),
                  (ell * float(delta) ** (2 * (r + 1) / 3), 2)]
        x = delta ** (-(r + 1) / 3)
        display = delta ** ell \
            + delta ** ((r + 1) / 3) * (2 + ell + 0.5 * (r + 2) ** 6)
    q = QPolynomial(tuple(terms))
    gp = 2 ** ((r + 2) / 3) * r * (r + 2) * delta ** (r // 2)
    return PresetBound("r-acyclic", _pinned(q, x, display),
                       optimize_ratio(q), q,
                       {"greenhill-pikhurko": math.ceil(gp)})


# unlabeled trees by vertex count (offset 1), used by the edge-partition form
_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159)


def _star(delta: int) -> PresetBound:
    _require(delta >= 2, f"star coloring requires delta >= 2, got {delta}")
    q = QPolynomial(((float(delta), 1), (2 * delta * (delta - 1) ** 2, 2)))
    x = 1 / (math.sqrt(2 * delta) * (delta - 1))
    display = (2 * math.sqrt(2) * delta ** 1.5 + delta
               - math.sqrt(8 * delta) + 1)
    return PresetBound("star", _pinned(q, x, display), optimize_ratio(q), q)


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
        terms.append(((m + 1) * 4.0 ** (m + 1) * delta ** m, m - 1))
        for ni, mi in pairs:
            if ni <= m:
                terms.append((ni * delta ** (gamma * (ni - 2)
                                             - (mi - m) / (m - 1)), ni - 2))
        x = 1 / (4 * delta ** gamma)
        k_small = sum(1 for ni, _ in pairs if ni <= m)
        lit = {"aravind-subramanian": math.ceil(
            (64 * (m + 1) ** 3 * k_small if k_small else 128 * (m + 1) ** 3)
            * delta ** gamma)}
    elif form == "edge":
        for ni, mi in pairs:
            if mi == m:
                terms.append((ni * delta ** (gamma * (ni - 2)), ni - 2))
        if m + 2 > len(_TREE_COUNTS):
            raise ValueError(f"edge form supports min edge count <= "
                             f"{len(_TREE_COUNTS) - 2}, got {m}")
        trees = _TREE_COUNTS[m + 1]
        gamma_tree = (m + 1) / m
        terms.append((trees * (m + 2) * delta ** (gamma_tree * m), m))
        x = 1 / delta ** gamma
        k_edge = sum(1 for _, mi in pairs if mi == m)
        lit = {"aravind-subramanian": math.ceil(
            64 * (m + 1) ** 3 * max(1, k_edge) * delta ** gamma)}
    else:
        raise ValueError(f"form must be 'vertex' or 'edge', got {form!r}")
    if n is None:

        def fn(x_: float) -> float:
            return math.expm1(delta ** gamma * x_)

        def dfn(x_: float) -> float:
            return delta ** gamma * math.exp(delta ** gamma * x_)

        q = QPolynomial(tuple(terms),
                        ClosedTail(fn, dfn, math.inf, "e^(d^g x) - 1"))
    else:
        sets = tuple((delta ** (gamma * (j - 1)) / math.factorial(j - 1),
                      j - 1) for j in range(2, n))
        q = QPolynomial(tuple(terms) + sets)
    display = eval_at(q, x)
    return PresetBound("pair-forbidden", _pinned(q, x, display),
                       optimize_ratio(q), q, lit)


PROBLEMS = (
    "acyclic-gamma",
    "acyclic-v1",
    "acyclic-v2",
    "nonrepetitive-vertex",
    "nonrepetitive-edge",
    "facial-thue-vertex",
    "facial-thue-edge",
    "r-acyclic",
    "pair-forbidden",
    "star",
)


def kappa_preset(problem: str, delta: int | None = None, *,
                 gamma: int = 1, alpha: float = 0.5, r: int = 4,
                 n: int | None = None, descriptors=None,
                 form: str = "vertex") -> PresetBound:
    """Named bound presets at their quoted evaluation points.

    Pass n for the exact finite type list; omit it for the closed-form tail.
    Parameters outside a preset's validity range raise ValueError quoting
    the threshold.
    """
    if problem != "facial-thue-edge":
        _require(delta is not None, f"{problem} requires delta")
    if problem == "acyclic-gamma":
        return _acyclic_gamma(delta, gamma, n)
    if problem == "acyclic-v1":
        return _acyclic_v1(delta, alpha)
    if problem == "acyclic-v2":
        return _acyclic_v2(delta, alpha, n)
    if problem == "nonrepetitive-vertex":
        return _nonrepetitive(delta, n, edge=False)
    if problem == "nonrepetitive-edge":
        return _nonrepetitive(delta, n, edge=True)
    if problem == "facial-thue-vertex":
        return _facial_vertex(delta, n)
    if problem == "facial-thue-edge":
        return _facial_edge(n)
    if problem == "r-acyclic":
        return _r_acyclic(delta, r)
    if problem == "star":
        return _star(delta)
    if problem == "pair-forbidden":
        return _pair_forbidden(delta, descriptors, n, form)
    raise ValueError(f"unknown problem {problem!r}; known: {PROBLEMS}")
