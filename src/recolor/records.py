"""Exact counting and enumeration of execution records.

A record is a partial Dyck path read off a run: each step climbs one unit
(an object gets colored) and an event of type j immediately drops it s_j
units, annotated by a class index k with 1 <= k <= C_j.  Writing B(y) for
the generating function of excursions (paths returning to level 0) by
climb count, B(y) = 1 + sum_j C_j y^{s_j} B(y)^{s_j}; paths ending at any
level ell <= n contribute through R(y) = sum_{0<=ell<=n} y^ell B(y)^{ell+1}.

Both series come from one Lagrange-Buermann pass.  Put u = yB.  Then
B = phi(u) with phi(u) = 1 + sum_j C_j u^{s_j}, the cost polynomial of
the bounds, and u = y phi(u).  R = B sum_{ell<=n} u^ell = H(u) with
H(u) = phi(u) (1 + u + ... + u^n).  Lagrange-Buermann then reads, for
t >= 1,

    b_t = (1/t) [u^{t-1}] phi'(u) phi(u)^t,
    r_t = (1/t) [u^{t-1}] H'(u) phi(u)^t,

with b_0 = r_0 = 1.  The coefficients q_k of phi^t for k < t follow from
J. C. P. Miller's recurrence for powers of a series with constant term 1,
q_0 = 1 and k q_k = sum_j ((t+1) s_j - k) C_j q_{k-s_j}, in O(t m) steps
for m terms, so the whole table takes O(t_max^2 m).  Every division is
exact: phi has integer coefficients, so each q_k is an integer and the
recurrence gives k q_k exactly; b_t and r_t count paths, so t divides the
sums above.  The terms of H beyond degree t_max never reach a coefficient
below y^{t_max + 1}, so n is cut to min(n, t_max).

Counts here are exact arbitrary-precision integers.  A term with a
fractional C_j admits floor(C_j) annotations, since class indices are
integers.  The series count r_t matches the level-capped path count
whenever n >= t (no path of t climbs can outgrow its climb count); for
n < t it stays an upper bound, because the excursion factors of R may
transiently exceed the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .bounds import QPolynomial, characteristic_system

__all__ = [
    "GrowthReport",
    "RecordCounter",
    "count_b",
    "count_r",
    "enumerate_records",
    "growth_check",
]

_ENUMERATION_CAP = 14
_RECORD_CAP = 1_000_000


def _normalize(terms) -> tuple[tuple[int, int], ...]:
    out = []
    for c, s in terms:
        if c < 0:
            raise ValueError(f"class ceilings must be nonnegative, got {c}")
        if int(s) != s or s < 1:
            raise ValueError(f"sizes must be positive integers, got {s}")
        out.append((math.floor(c), int(s)))
    if not out:
        raise ValueError("need at least one (ceiling, size) term")
    return tuple(out)


def _record_series(terms, n: int, t_max: int) -> tuple[list[int], list[int]]:
    """b_0..b_{t_max} and r_0..r_{t_max} under level cap n, in one pass."""
    if n < 0:
        raise ValueError(f"level cap must be nonnegative, got {n}")
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    phi: dict[int, int] = {}
    for c, s in _normalize(terms):
        if c:
            phi[s] = phi.get(s, 0) + c
    terms_phi = sorted(phi.items())
    # H(u) = phi(u) (1 + u + ... + u^n) up to degree t_max, then H'(u)
    h = [0] * (t_max + 1)
    for s, c in [(0, 1), *terms_phi]:
        for k in range(s, min(s + n, t_max) + 1):
            h[k] += c
    dh = [k * h[k] for k in range(1, t_max + 1)]
    b, r = [1], [1]
    for t in range(1, t_max + 1):
        q = [1]  # q[k] = [u^k] phi(u)^t by Miller's recurrence
        for k in range(1, t):
            acc = 0
            for s, c in terms_phi:
                if s > k:
                    break
                acc += ((t + 1) * s - k) * c * q[k - s]
            q.append(acc // k)
        b.append(sum(s * c * q[t - s] for s, c in terms_phi if s <= t) // t)
        r.append(sum(dh[i] * q[t - 1 - i] for i in range(t)) // t)
    return b, r


def count_b(terms, t_max: int) -> list[int]:
    """Excursion counts b_0..b_{t_max} from B = 1 + sum C_j y^{s_j} B^{s_j}."""
    return _record_series(terms, 0, t_max)[0]


def count_r(terms, n: int, t_max: int) -> list[int]:
    """Record counts r_0..r_{t_max} from R = sum_{ell<=n} y^ell B^{ell+1}."""
    return _record_series(terms, n, t_max)[1]


def enumerate_records(terms, n: int, t: int) -> list[tuple]:
    """Every annotated path of t climbs staying inside [0, n].

    Entries mirror engine records: None for a plain climb, (j, k) when the
    climb is followed by a type-j descent with class annotation k; j is the
    1-based term index.  Refuses when `count_r` (exact for n >= t, an upper
    bound below) counts more than a million records.
    """
    if t > _ENUMERATION_CAP:
        raise ValueError(
            f"refusing to enumerate records longer than {_ENUMERATION_CAP}")
    if count_r(terms, n, t)[t] > _RECORD_CAP:
        raise ValueError(
            f"refusing to enumerate more than {_RECORD_CAP} records "
            f"(t={t}, level cap {n})")
    norm = _normalize(terms)
    out: list[tuple] = []
    path: list = [None] * t

    def walk(pos: int, level: int) -> None:
        if pos == t:
            out.append(tuple(path))
            return
        up = level + 1
        if up > n:
            return
        path[pos] = None
        walk(pos + 1, up)
        for j, (cnt, s) in enumerate(norm, start=1):
            if s <= up:
                for k in range(1, cnt + 1):
                    path[pos] = (j, k)
                    walk(pos + 1, up - s)
        path[pos] = None

    walk(0, 0)
    return out


@dataclass(frozen=True)
class GrowthReport:
    ok: bool
    base: float
    prefactor: float
    trajectory: tuple[float, ...]


def growth_check(terms, t_max: int) -> GrowthReport:
    """Verify b_t <= (s+1) (Q(X)/X)^t on the computed range.

    X and s come from the characteristic system of the term polynomial;
    the trajectory b_t^(1/t) / (Q(X)/X) should approach 1 from below.
    When every size is 1 the count is exactly (sum of ceilings)^t and the
    base is the boundary ratio 1 + sum C_j.
    """
    return _growth_report(terms, count_b(terms, t_max))


def _growth_report(terms, b: list[int]) -> GrowthReport:
    """`growth_check` on excursion counts b_0..b_{t_max} already counted."""
    t_max = len(b) - 1
    norm = _normalize(terms)
    q = QPolynomial(tuple((float(c), s) for c, s in terms if c > 0))
    if all(s == 1 for _, s in norm):
        base = q.q(1.0)
        prefactor = base - 1.0
        total = sum(c for c, _ in norm)
        ok = all(b[t] == total ** t for t in range(t_max + 1))
    else:
        cs = characteristic_system(q)
        base = (1.0 + cs.s) / cs.x  # Q(X) / X
        prefactor = cs.s + 1.0
        ok = all(
            math.log(b[t]) <= math.log(prefactor) + t * math.log(base) + 1e-9
            for t in range(1, t_max + 1) if b[t])
    if not (math.isfinite(base) and math.isfinite(prefactor)):
        raise ValueError(
            "growth check: the ceiling sum is past the float range "
            f"(base {base}, prefactor {prefactor})")
    trajectory = tuple(
        math.exp(math.log(b[t]) / t - math.log(base))
        for t in range(1, t_max + 1) if b[t])
    return GrowthReport(ok, base, prefactor, trajectory)


@dataclass(frozen=True)
class RecordCounter:
    """Count table for one term system under a fixed level cap."""

    terms: tuple[tuple[int, int], ...]
    n: int
    d: int
    b: tuple[int, ...]
    r: tuple[int, ...]

    @classmethod
    def build(cls, terms, n: int, t_max: int) -> "RecordCounter":
        norm = _normalize(terms)
        d = reduce(math.gcd, (s for _, s in norm))
        b, r = _record_series(terms, n, t_max)
        return cls(norm, n, d, tuple(b), tuple(r))
