"""Compensated double-double arithmetic.

A value is an (hi, lo) pair of floats with |lo| <= ulp(hi)/2, giving ~31
significant digits. Only the operations needed by the zeta machinery are
provided; everything stays deterministic binary64 pairs.

The helpers (_two_sum, _split, _two_prod, dd_add, dd_mul, ...) are the
readable rule, and the cold paths call them: the cached rows of head logs,
powers and reciprocals that specfun._hz_dd reads, and its derivative mode.
The hot kernels are fused: dd_exp here, and the value loops of
specfun._hz_dd (the head, its binary powering included, and the Bernoulli
tail) expand the helpers in place (Hida, Li & Bailey's QD library does the
same) so that no per-operation call or tuple remains. A fused kernel runs
the same float operations in the same order as its composed form, so every
word it returns is bit-identical; only a split that would be repeated is
done once. tests/test_ddmath.py compares dd_exp with the composed rule, and
tests/test_specfun.py pins the engine's words and compares its fused values
with its composed derivative mode.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

__all__ = [
    "DD",
    "dd_add",
    "dd_add_d",
    "dd_div",
    "dd_exp",
    "dd_from_fraction",
    "dd_ln",
    "dd_mul",
    "dd_mul_d",
    "dd_sub",
    "to_float",
]

DD = Tuple[float, float]

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant

_LN2: DD = (0.6931471805599453, 2.3190468138462996e-17)


def _two_sum(a: float, b: float) -> DD:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float) -> DD:
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _split(a: float) -> DD:
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a: float, b: float) -> DD:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(x: DD, y: DD) -> DD:
    s1, s2 = _two_sum(x[0], y[0])
    t1, t2 = _two_sum(x[1], y[1])
    s2 += t1
    s1, s2 = _quick_two_sum(s1, s2)
    s2 += t2
    return _quick_two_sum(s1, s2)


def dd_add_d(x: DD, y: float) -> DD:
    s1, s2 = _two_sum(x[0], y)
    s2 += x[1]
    return _quick_two_sum(s1, s2)


def dd_sub(x: DD, y: DD) -> DD:
    return dd_add(x, (-y[0], -y[1]))


def dd_mul(x: DD, y: DD) -> DD:
    p1, p2 = _two_prod(x[0], y[0])
    p2 += x[0] * y[1] + x[1] * y[0]
    return _quick_two_sum(p1, p2)


def dd_mul_d(x: DD, y: float) -> DD:
    p1, p2 = _two_prod(x[0], y)
    p2 += x[1] * y
    return _quick_two_sum(p1, p2)


def dd_div(x: DD, y: DD) -> DD:
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul_d(y, q1))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul_d(y, q2))
    q3 = r[0] / y[0]
    q, e = _quick_two_sum(q1, q2)
    return dd_add_d((q, e), q3)


def dd_from_fraction(f: Fraction) -> DD:
    hi = float(f)
    lo = float(f - Fraction(hi))
    return hi, lo


# 1/i! for i = 1 .. 12, the Taylor coefficients of dd_exp
_INV_FACT: Tuple[DD, ...] = tuple(
    dd_from_fraction(Fraction(1, math.factorial(i))) for i in range(1, 13)
)


# splits that dd_exp would otherwise redo on every call: the high word of
# ln 2 and the 1/32 scaling factor
_LN2_HI_SPLIT = _split(_LN2[0])
_SCALE = 1.0 / 32.0
_SCALE_SPLIT = _split(_SCALE)
_INV_FACT_DOWN = _INV_FACT[-2::-1]


def dd_exp(x: DD) -> DD:
    """exp(x) in double-double, fused (see the module docstring).

    Reduce by ln 2, scale the argument into a fast Taylor range, run Horner
    and square back; composed, that is

        r = dd_mul_d(dd_sub(x, dd_mul_d(_LN2, m)), 1/32)
        p = 1/12!;  p = dd_add(dd_mul(p, r), 1/i!) for i = 11 .. 1
        total = dd_add_d(dd_mul(p, r), 1.0)
        total = dd_mul(total, total) five times
    """
    x0, x1 = x
    if x0 < -745.0:
        return 0.0, 0.0
    if x0 > 709.0:
        raise OverflowError("dd_exp overflow")
    sp = _SPLITTER
    m = round(x0 / _LN2[0])
    fm = float(m)
    # q = dd_mul_d(_LN2, fm)
    p = _LN2[0] * fm
    ah, al = _LN2_HI_SPLIT
    t = sp * fm
    bh = t - (t - fm)
    bl = fm - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e += _LN2[1] * fm
    q0 = p + e
    q1 = e - (q0 - p)
    # r = dd_sub(x, q), the dd_add of x and (-q0, -q1)
    q0 = -q0
    q1 = -q1
    s = x0 + q0
    bb = s - x0
    se = (x0 - (s - bb)) + (q0 - bb)
    t = x1 + q1
    bb = t - x1
    te = (x1 - (t - bb)) + (q1 - bb)
    se += t
    u = s + se
    se = se - (u - s)
    se += te
    r0 = u + se
    r1 = se - (r0 - u)
    # r = dd_mul_d(r, 1/32)
    p = r0 * _SCALE
    t = sp * r0
    ah = t - (t - r0)
    al = r0 - ah
    bh, bl = _SCALE_SPLIT
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e += r1 * _SCALE
    r0 = p + e
    r1 = e - (r0 - p)
    t = sp * r0
    rh = t - (t - r0)
    rl = r0 - rh
    # Taylor in Horner form: |r| <= ~0.011 after reduction, 12 terms reach
    # ~1e-33. Each step is p = dd_add(dd_mul(p, r), c).
    p0, p1 = _INV_FACT[-1]
    for c0, c1 in _INV_FACT_DOWN:
        p = p0 * r0
        t = sp * p0
        ah = t - (t - p0)
        al = p0 - ah
        e = ((ah * rh - p) + ah * rl + al * rh) + al * rl
        e += p0 * r1 + p1 * r0
        m0 = p + e
        m1 = e - (m0 - p)
        s = m0 + c0
        bb = s - m0
        se = (m0 - (s - bb)) + (c0 - bb)
        t = m1 + c1
        bb = t - m1
        te = (m1 - (t - bb)) + (c1 - bb)
        se += t
        u = s + se
        se = se - (u - s)
        se += te
        p0 = u + se
        p1 = se - (p0 - u)
    # total = dd_add_d(dd_mul(p, r), 1.0), kept as (t0, t1)
    p = p0 * r0
    t = sp * p0
    ah = t - (t - p0)
    al = p0 - ah
    e = ((ah * rh - p) + ah * rl + al * rh) + al * rl
    e += p0 * r1 + p1 * r0
    m0 = p + e
    m1 = e - (m0 - p)
    s = m0 + 1.0
    bb = s - m0
    se = (m0 - (s - bb)) + (1.0 - bb)
    se += m1
    t0 = s + se
    t1 = se - (t0 - s)
    # undo the 1/32 scaling: total = dd_mul(total, total) five times
    for _ in range(5):
        p = t0 * t0
        t = sp * t0
        ah = t - (t - t0)
        al = t0 - ah
        e = ((ah * ah - p) + ah * al + al * ah) + al * al
        e += t0 * t1 + t1 * t0
        t0 = p + e
        t1 = e - (t0 - p)
    return math.ldexp(t0, m), math.ldexp(t1, m)


def dd_ln(x: float) -> DD:
    # one Newton step for exp(y) = x doubles the float seed's precision
    if x <= 0.0:
        raise ValueError("dd_ln domain")
    y0 = math.log(x)
    e = dd_exp((-y0, 0.0))
    p = dd_mul((x, 0.0), e)
    return dd_add_d(dd_add_d(p, -1.0), y0)


def to_float(x: DD) -> float:
    return x[0] + x[1]
