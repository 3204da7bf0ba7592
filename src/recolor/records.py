"""Exact counting and enumeration of execution records.

A record is a partial Dyck path read off a run: each step climbs one unit
(an object gets colored) and an event of type j immediately drops it s_j
units, annotated by a class index k with 1 <= k <= C_j.  Writing B(y) for
the generating function of excursions (paths returning to level 0) by
climb count, B(y) = 1 + sum_j C_j y^{s_j} B(y)^{s_j}; paths ending at any
level ell <= n contribute through R(y) = sum_{0<=ell<=n} y^ell B(y)^{ell+1}.

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


def _excursion_powers(terms: tuple[tuple[int, int], ...], t_max: int,
                      p_max: int) -> tuple[list[int], list[list[int]]]:
    """b_0..b_{t_max} plus coefficient arrays of B^p for p = 0..p_max."""
    p_needed = max(p_max, max(s for _, s in terms))
    b = [1]
    pows = [[1] for _ in range(p_needed + 1)]  # [y^0] B^p = 1
    for t in range(1, t_max + 1):
        # extend every power array to index t-1 before using it; the new
        # coefficient b_t only touches indices >= t
        for p in range(1, p_needed + 1):
            m = t - 1
            if len(pows[p]) <= m:
                prev = pows[p - 1]
                pows[p].append(sum(b[i] * prev[m - i] for i in range(m + 1)))
        b.append(sum(cnt * pows[s][t - s]
                     for cnt, s in terms if cnt and t - s >= 0))
        pows[0].append(0)
    for p in range(1, p_needed + 1):
        if len(pows[p]) <= t_max:
            prev = pows[p - 1]
            pows[p].append(sum(b[i] * prev[t_max - i]
                               for i in range(t_max + 1)))
    return b, pows


def count_b(terms, t_max: int) -> list[int]:
    """Excursion counts b_0..b_{t_max} from B = 1 + sum C_j y^{s_j} B^{s_j}."""
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    b, _ = _excursion_powers(_normalize(terms), t_max, 1)
    return b


def count_r(terms, n: int, t_max: int) -> list[int]:
    """Record counts r_0..r_{t_max} from R = sum_{ell<=n} y^ell B^{ell+1}."""
    if n < 0:
        raise ValueError(f"level cap must be nonnegative, got {n}")
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    ell_max = min(n, t_max)
    _, pows = _excursion_powers(_normalize(terms), t_max, ell_max + 1)
    return [sum(pows[ell + 1][t - ell] for ell in range(min(n, t) + 1))
            for t in range(t_max + 1)]


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
    norm = _normalize(terms)
    q = QPolynomial(tuple((float(c), s) for c, s in terms if c > 0))
    if all(s == 1 for _, s in norm):
        base = q.q(1.0)
        prefactor = base - 1.0
        total = sum(c for c, _ in norm)
        b = count_b(terms, t_max)
        ok = all(b[t] == total ** t for t in range(t_max + 1))
    else:
        cs = characteristic_system(q)
        base = q.q(cs.x) / cs.x
        prefactor = cs.s + 1.0
        b = count_b(terms, t_max)
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
        return cls(norm, n, d,
                   tuple(count_b(terms, t_max)),
                   tuple(count_r(terms, n, t_max)))
