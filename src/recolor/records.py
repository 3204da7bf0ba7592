"""Exact counting and enumeration of execution records.

A record is a partial Dyck path read off a run: each step climbs one unit
(an object gets colored) and an event of type j immediately drops it s_j
units, annotated by a class index k with 1 <= k <= C_j.  Writing B(y) for
the generating function of excursions (paths returning to level 0) by
climb count, B(y) = 1 + sum_j C_j y^{s_j} B(y)^{s_j}; paths ending at any
level ell <= n contribute through R(y) = sum_{0<=ell<=n} y^ell B(y)^{ell+1}.

Both series come from one walk over levels.  Merge the terms by size, c_s
the sum of the C_j with s_j = s, and let f(t, h) count the annotated paths
of t climbs that end at level h and never go below 0.  Then

    f(t, h) = f(t-1, h-1) + sum_s c_s f(t-1, h+s-1),

b_t = f(t, 0) and r_t = sum_{h<=n} f(t, h); R counts exactly these paths,
with their intermediate levels uncapped.  `record_series` packs f(t, .)
into one integer F, level h in the W-bit slot h, so a step is a few
whole-integer operations, F <- (F << W) + sum_s c_s (F >> (s-1) W); the
right shifts drop exactly the descents that would end below level 0.  b_t
is the lowest slot, and r_t a running total updated from 2 top slots only
(levels below top - 1 and levels n..n+top-1, top the largest size).

The width is a proved bound.  For z >= 1, G_t(z) = sum_h f(t, h) z^h is at
most psi(z) G_{t-1}(z) with psi(z) = z + sum_s c_s z^(1-s), so no slot
exceeds psi(z)^t.  The bound is read at z = 2^e, the e minimizing it, in
integers: psi(z) z^(top-1) is one.  The walk runs in sixteen epochs and
repacks F at the start of each, to the bound at the epoch's last step.
For m distinct sizes it writes about (m + 1) t_max^2 W / 2 bits; a table
past `_WALK_BITS` (about 10 s on a 2-CPU container) is refused before the
walk starts.

Counts here are exact arbitrary-precision integers.  A term with a
fractional C_j admits floor(C_j) annotations, since class indices are
integers.  The series count r_t matches the level-capped path count
whenever n >= t (no path of t climbs can outgrow its climb count); for
n < t it stays an upper bound, because the excursion factors of R may
transiently exceed the cap.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bounds import QPolynomial, characteristic_system

__all__ = [
    "GrowthReport",
    "count_b",
    "count_r",
    "enumerate_records",
    "growth_check",
    "growth_report",
    "record_series",
]

_ENUMERATION_CAP = 14
_RECORD_CAP = 1_000_000
_WALK_BITS = 1.4e11


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


def record_series(terms, n: int, t_max: int) -> tuple[list[int], list[int]]:
    """b_0..b_{t_max} and r_0..r_{t_max} under level cap n, in one pass."""
    if n < 0:
        raise ValueError(f"level cap must be nonnegative, got {n}")
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    phi: dict[int, int] = {}
    for c, s in _normalize(terms):
        if c and s <= t_max:  # a longer descent never fits under t_max climbs
            phi[s] = phi.get(s, 0) + c
    top = max(phi, default=1)

    def scaled(e: int) -> int:  # psi(2^e) 2^(e (top-1))
        return (1 << e * top) + sum(c << e * (top - s) for s, c in phi.items())

    e = 0  # psi is convex, so psi(2^e) falls to its least value, then rises
    while scaled(e + 1) < scaled(e) << top - 1:
        e += 1
    a, drop = scaled(e), e * (top - 1)
    log_psi = math.log2(a) - drop
    work = (len(phi) + 1) * t_max ** 2 * (t_max * log_psi + 8) / 2
    if work > _WALK_BITS:
        raise ValueError(
            f"refusing to count records up to t_max {t_max}: the level walk "
            f"would write about {work:.2g} bits, past {_WALK_BITS:.2g}")
    # w[h]: the classes of the descents longer than h + 1, which fall below
    # level 0 from level h, and reach level n from level n + h + 1
    w = [sum(c for s, c in phi.items() if s > h + 1) for h in range(top - 1)]
    low = [(x, h) for h, x in enumerate(w) if x]
    high = [(-1, 0), *((x, h + 1) for x, h in low)]
    grow = 1 + sum(phi.values())
    packed, tot, width = 1, 1, 1  # f(0, .) in one-byte slots
    b, r = [1], [1]
    span = -(-t_max // 16) or 1
    for first in range(1, t_max + 1, span):
        last = min(t_max, first + span - 1)
        old, width = width, ((a ** last >> drop * last).bit_length() + 7) // 8
        buf = packed.to_bytes(first * old, "little")  # levels 0..first-1
        packed = int.from_bytes(bytes(width - old).join(
            buf[i:i + old] for i in range(0, len(buf), old)), "little")
        bits = 8 * width
        slot = (1 << bits) - 1
        low_mask = (1 << (top - 1) * bits) - 1
        high_mask = (1 << top * bits) - 1
        shifts = [((s - 1) * bits, c) for s, c in phi.items()]
        low_at = [(x, h * width, (h + 1) * width) for x, h in low]
        high_at = [(x, h * width, (h + 1) * width) for x, h in high]
        for t in range(first, last + 1):
            lo = (packed & low_mask).to_bytes((top - 1) * width, "little")
            tot = grow * tot - sum(
                x * int.from_bytes(lo[i:j], "little") for x, i, j in low_at)
            if n < t:  # f(t-1, n) and the levels above it may be nonzero
                hi = (packed >> n * bits & high_mask).to_bytes(
                    top * width, "little")
                tot += sum(x * int.from_bytes(hi[i:j], "little")
                           for x, i, j in high_at)
            packed = (packed << bits) + sum(c * (packed >> k)
                                            for k, c in shifts)
            b.append(packed & slot)
            r.append(tot)
    return b, r


def count_b(terms, t_max: int) -> list[int]:
    """Excursion counts b_0..b_{t_max} from B = 1 + sum C_j y^{s_j} B^{s_j}."""
    return record_series(terms, 0, t_max)[0]


def count_r(terms, n: int, t_max: int) -> list[int]:
    """Record counts r_0..r_{t_max} from R = sum_{ell<=n} y^ell B^{ell+1}."""
    return record_series(terms, n, t_max)[1]


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


class GrowthReport(NamedTuple):
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
    return growth_report(terms, count_b(terms, t_max))


def growth_report(terms, b: list[int]) -> GrowthReport:
    """`growth_check` on excursion counts b_0..b_{t_max} already counted."""
    t_max = len(b) - 1
    norm = _normalize(terms)
    positive = tuple((float(c), s) for c, s in terms if c > 0)
    if not positive:
        # Q = 1: no event has a class, so the check reads b_t <= 1
        base = prefactor = 1.0
        ok = all(x <= 1 for x in b)
    elif all(s == 1 for _, s in norm):
        base = QPolynomial(positive).q(1.0)
        prefactor = base - 1.0
        total = sum(c for c, _ in norm)
        ok = all(b[t] == total ** t for t in range(t_max + 1))
    else:
        cs = characteristic_system(QPolynomial(positive))
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
