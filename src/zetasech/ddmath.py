"""Compensated double-double arithmetic.

A value is an (hi, lo) pair of floats with |lo| <= ulp(hi)/2, giving ~31
significant digits. Only the operations needed by the zeta machinery are
provided; everything stays deterministic binary64 pairs.
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


def dd_exp(x: DD) -> DD:
    # reduce by ln 2, then scale the argument into a fast Taylor range
    if x[0] < -745.0:
        return 0.0, 0.0
    if x[0] > 709.0:
        raise OverflowError("dd_exp overflow")
    m = round(x[0] / _LN2[0])
    r = dd_sub(x, dd_mul_d(_LN2, float(m)))
    k = 5
    r = dd_mul_d(r, 1.0 / 32.0)
    # Taylor in Horner form: |r| <= ~0.011 after reduction, 12 terms reach
    # ~1e-33
    p = _INV_FACT[-1]
    for c in _INV_FACT[-2::-1]:
        p = dd_add(dd_mul(p, r), c)
    total = dd_add_d(dd_mul(p, r), 1.0)
    for _ in range(k):
        total = dd_mul(total, total)
    return math.ldexp(total[0], m), math.ldexp(total[1], m)


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
