"""Compensated double-double arithmetic.

A value is an (hi, lo) pair of floats with |lo| <= ulp(hi)/2, giving ~31
significant digits. Only the operations needed by the zeta machinery are
provided; everything stays deterministic binary64 pairs.

The error-free steps _two_sum, _quick_two_sum, _split and _two_prod are the
readable rule. dd_add, dd_add_d, dd_mul and dd_mul_d are written call-free,
as Hida, Li & Bailey's QD library writes them: each runs the float
operations of its composition from those steps, in the same order, so every
word it returns is the same, but makes no inner call. specfun._hz_dd
composes these helpers. dd_exp is the one fused kernel: it expands a chain
of helpers in place and does once a split that they would repeat, again
with every word unchanged. tests/test_ddmath.py compares each helper and
dd_exp with its composition, word for word.

dd_exp is table-driven (Tang, ACM TOMS 15, 1989) and squares nothing.
After the reduction by m ln 2, two steps on the high word, r0 -= j1/64 and
r0 -= j2/8192, are exact (Sterbenz: each subtrahend is within a factor 2
of r0) and leave |r0| <= 2**-14. Taylor orders >= 4 of exp(r0) are then
below 2**-60, so they run in floats, whose rounding stays under 2**-113;
orders 1-3 are double-double products with the float r0. Tabled
double-doubles of exp(j1/64) and exp(j2/8192), built from integers at
import, scale the sum. Against mpmath over 10**5 seeded draws the worst
relative error is 4.9e-32 for |x| <= 0.5 and 5.1e-31 for x in [-40, 40],
where the m ln 2 step, which costs up to ~2**-106 |x|, dominates; dd_ln,
one Newton step on dd_exp, is within 4.5e-32 (1 + |ln x|).
"""
from __future__ import annotations

import math
from numbers import Rational

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

DD = tuple[float, float]

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
    # _two_sum of the hi and of the lo words, then two _quick_two_sums
    x0, x1 = x
    y0, y1 = y
    s = x0 + y0
    bb = s - x0
    e = (x0 - (s - bb)) + (y0 - bb)
    t = x1 + y1
    bb = t - x1
    f = (x1 - (t - bb)) + (y1 - bb)
    e += t
    u = s + e
    e = e - (u - s)
    e += f
    s = u + e
    return s, e - (s - u)


def dd_add_d(x: DD, y: float) -> DD:
    # _two_sum(x0, y), then a _quick_two_sum
    x0, x1 = x
    s = x0 + y
    bb = s - x0
    e = (x0 - (s - bb)) + (y - bb)
    e += x1
    u = s + e
    return u, e - (u - s)


def dd_sub(x: DD, y: DD) -> DD:
    return dd_add(x, (-y[0], -y[1]))


def dd_mul(x: DD, y: DD) -> DD:
    # _two_prod(x0, y0) on the _split of each, the cross terms, then a
    # _quick_two_sum
    x0, x1 = x
    y0, y1 = y
    p = x0 * y0
    t = _SPLITTER * x0
    ah = t - (t - x0)
    al = x0 - ah
    t = _SPLITTER * y0
    bh = t - (t - y0)
    bl = y0 - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e += x0 * y1 + x1 * y0
    s = p + e
    return s, e - (s - p)


def dd_mul_d(x: DD, y: float) -> DD:
    # _two_prod(x0, y), the lo word times y, then a _quick_two_sum
    x0, x1 = x
    p = x0 * y
    t = _SPLITTER * x0
    ah = t - (t - x0)
    al = x0 - ah
    t = _SPLITTER * y
    bh = t - (t - y)
    bl = y - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e += x1 * y
    s = p + e
    return s, e - (s - p)


def dd_div(x: DD, y: DD) -> DD:
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul_d(y, q1))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul_d(y, q2))
    q3 = r[0] / y[0]
    q, e = _quick_two_sum(q1, q2)
    return dd_add_d((q, e), q3)


def _dd_ratio(n: int, d: int) -> DD:
    # the correctly rounded double-double of n/d: int / int rounds once, and
    # hi's exact ratio leaves the remainder as one more integer quotient
    hi = n / d
    a, b = hi.as_integer_ratio()
    return hi, (n * b - a * d) / (d * b)


def dd_from_fraction(f: Rational) -> DD:
    return _dd_ratio(f.numerator, f.denominator)


_TABLE_BITS = 200  # fixed-point scale of the table build


def _exp_table(den: int, jmax: int) -> tuple[DD, ...]:
    """exp(j/den) for j = -jmax .. jmax, entry j at index j + jmax.

    Integers only: exp(1/den) * 2**_TABLE_BITS is a Taylor sum, exp(-1/den)
    its reciprocal, and each entry a power of one of them. Every series
    term and every power floors once, so an entry is off by at most a few
    hundred units of 2**-_TABLE_BITS, under 2**-189 relative, before its
    one rounding to a double-double.
    """
    one = 1 << _TABLE_BITS
    up = term = one
    k = 1
    while term:
        term //= den * k
        up += term
        k += 1
    down = (one * one) // up
    pos, neg = [], []
    v = w = one
    for _ in range(jmax):
        v = (v * up) >> _TABLE_BITS
        w = (w * down) >> _TABLE_BITS
        pos.append(v)
        neg.append(w)
    return tuple(_dd_ratio(v, one) for v in neg[::-1] + [one] + pos)


# exp(j/64) for |j| <= 23 and exp(j/8192) for |j| <= 64: after the ln 2
# reduction |r0| <= ln(2)/2 + tiny puts j1 in [-22, 22], one entry inside
# the table, and |r0 - j1/64| <= 1/128 puts j2 in [-64, 64]
_EXP_J1_MAX = 23
_EXP_J2_MAX = 64
_EXP_J1 = _exp_table(64, _EXP_J1_MAX)
_EXP_J2 = _exp_table(8192, _EXP_J2_MAX)
# Taylor coefficients: 1/6 as a double-double, 1/4! .. 1/7! as floats
_INV6 = _dd_ratio(1, 6)
_C4 = 1.0 / 24.0
_C5 = 1.0 / 120.0
_C6 = 1.0 / 720.0
_C7 = 1.0 / 5040.0
# splits that dd_exp would otherwise redo on every call
_INV6_SPLIT = _split(_INV6[0])
_LN2_HI_SPLIT = _split(_LN2[0])


def dd_exp(x: DD) -> DD:
    """exp(x) in double-double, the one fused kernel (see the module docstring).

    Reduce by m ln 2, then by j1/64 and j2/8192 on the high word alone;
    both steps are exact (Sterbenz) and leave |r0| <= 2**-14. Composed:

        r0, r1 = dd_sub(x, dd_mul_d(_LN2, m))    m = round((x0 + x1) / ln 2)
        r0 -= j1 / 64;  r0 -= j2 / 8192          j = round(r0 * 64), ...
        f = r0 * (1/4! + r0 * (1/5! + r0 * (1/6! + r0 / 7!)))     floats
        p, e = _two_prod(1/6 hi, r0);  e += (1/6 lo + f) * r0
        s, t = _quick_two_sum(0.5, p)
        w = dd_mul(_two_prod(r0, r0), (s, t + e))
        s, t = _quick_two_sum(r0, w[0])
        em1 = _quick_two_sum(s, t + w[1] + (r1 + r1 * s))
        u = dd_mul(_EXP_J1[j1 + 23], _EXP_J2[j2 + 64])
        v = dd_mul(u, em1)
        s, t = _quick_two_sum(u[0], v[0])
        total = _quick_two_sum(s, t + (u[1] + v[1]))

    1 + em1 is exp(r0) (1 + r1), the second factor standing for exp(r1)
    since |r1| <= 2**-55.
    """
    x0, x1 = x
    if x0 < -745.0:
        return 0.0, 0.0
    if x0 > 709.0:
        raise OverflowError("dd_exp overflow")
    sp = _SPLITTER
    # m from x0 + x1, so that a pair whose low word is not below half an ulp
    # still reduces to |r0| <= ln(2)/2 and indexes inside the tables
    m = round((x0 + x1) / _LN2[0])
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
    # the two table steps, exact on the high word
    j1 = round(r0 * 64.0)
    r0 -= j1 / 64.0
    j2 = round(r0 * 8192.0)
    r0 -= j2 / 8192.0
    t = sp * r0
    rh = t - (t - r0)
    rl = r0 - rh
    # orders >= 4 in floats: they are below 2**-60, so a float's rounding
    # stays under 2**-113
    f = r0 * (_C4 + r0 * (_C5 + r0 * (_C6 + r0 * _C7)))
    # p, e = _two_prod(1/6 hi, r0); e += (1/6 lo + f) * r0
    p = _INV6[0] * r0
    ah, al = _INV6_SPLIT
    e = ((ah * rh - p) + ah * rl + al * rh) + al * rl
    e += (_INV6[1] + f) * r0
    # s, t = _quick_two_sum(0.5, p); h = (s, t + e)
    h0 = 0.5 + p
    h1 = (p - (h0 - 0.5)) + e
    # w = dd_mul(_two_prod(r0, r0), h)
    w0 = r0 * r0
    w1 = ((rh * rh - w0) + rh * rl + rl * rh) + rl * rl
    p = w0 * h0
    t = sp * w0
    ah = t - (t - w0)
    al = w0 - ah
    t = sp * h0
    bh = t - (t - h0)
    bl = h0 - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e += w0 * h1 + w1 * h0
    w0 = p + e
    w1 = e - (w0 - p)
    # em1 = r0 + w, times (1 + r1)
    s = r0 + w0
    e = w0 - (s - r0)
    e = e + w1 + (r1 + r1 * s)
    e0 = s + e
    e1 = e - (e0 - s)
    # u = dd_mul(_EXP_J1[j1 + 23], _EXP_J2[j2 + 64])
    a0, a1 = _EXP_J1[j1 + _EXP_J1_MAX]
    b0, b1 = _EXP_J2[j2 + _EXP_J2_MAX]
    p = a0 * b0
    t = sp * a0
    ah = t - (t - a0)
    al = a0 - ah
    t = sp * b0
    bh = t - (t - b0)
    bl = b0 - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e += a0 * b1 + a1 * b0
    u0 = p + e
    u1 = e - (u0 - p)
    # v = dd_mul(u, em1)
    p = u0 * e0
    t = sp * u0
    ah = t - (t - u0)
    al = u0 - ah
    t = sp * e0
    bh = t - (t - e0)
    bl = e0 - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e += u0 * e1 + u1 * e0
    v0 = p + e
    v1 = e - (v0 - p)
    # total = u + v, by quick two-sums since |v| < |u|
    s = u0 + v0
    e = v0 - (s - u0)
    e += u1 + v1
    t0 = s + e
    t1 = e - (t0 - s)
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
