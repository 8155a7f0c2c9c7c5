"""Special functions with order derivatives.

The Hurwitz zeta evaluator runs Euler-Maclaurin summation in compensated
double-double arithmetic because the head sum and the pole/tail terms cancel
catastrophically for negative order; plain binary64 loses seven or more
digits there. Derivatives with respect to the order s are forward-mode:
each intermediate travels as a (value, d/ds) double-double pair, so no
finite differences appear anywhere. The alternating variant switches between
a convergence-accelerated alternating sum (stable near s = 1, including at
the point itself) and the double-double zeta difference (stable for
decidedly non-positive s). S_of compares its value with the direct zeta
difference; that is a second route only inside the accelerated-sum band
|s - 1| < 0.6. Outside it both sides read the same _hz_dd values, and the
comparison re-checks only the 2^s scaling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from .ddmath import (
    DD,
    _two_sum,
    dd_add,
    dd_add_d,
    dd_div,
    dd_exp,
    dd_from_fraction,
    dd_ln,
    dd_mul,
    dd_mul_d,
    dd_sub,
    to_float,
)
from .exact import bernoulli_number
from .quadrature import tanh_sinh

__all__ = [
    "ConstantTable",
    "SpecfunError",
    "constants",
    "digamma",
    "dirichlet_beta",
    "eta",
    "eta_ds",
    "hurwitz_zeta",
    "hurwitz_zeta_ds",
    "hyp2f1_arctan_case",
    "hyp2f1_log_case",
    "hyp3f2_reduction",
    "im_digamma_quarter",
    "laguerre",
    "log_gamma",
    "loggamma_q4",
    "polygamma",
    "S_of",
    "S_ds",
    "zeta_prime_at",
]


class SpecfunError(ValueError):
    """Raised for domain errors and failed internal cross-checks."""


# ----------------------------------------------------------------------
# double-double pieces with an attached d/ds component

_DDual = Tuple[DD, DD]

_LN2_DD = dd_ln(2.0)
_EM_TAIL_TERMS = 15
# Below this order the head terms (k+a)^(-s) cancel past double-double
# precision. Against mpmath at 600 seeded points of each unit band of s,
# a in [0.05, 8], away from the zeros of zeta(s, .) and its d/ds, the worst
# relative error is 6.7e-13 for s in (-12, -11] and 1.9e-11 for s in
# (-13, -12]; it reaches 41 at s = -23.7.
_HZ_MIN_ORDER = -12.0


@lru_cache(maxsize=256)
def _head_log(k: int, a: float) -> DD:
    # ln(k + a) in double-double, shared by every order s that sums over
    # the same a; the low word enters to first order
    x = _two_sum(float(k), a)
    return dd_add_d(dd_ln(x[0]), x[1] / x[0])


def _pow_dual(lnbase: DD, s: float) -> _DDual:
    """base^(-s) and its d/ds, for base = exp(lnbase) constant in s."""
    e = dd_exp(dd_mul_d(lnbase, -s))
    return e, dd_mul(e, (-lnbase[0], -lnbase[1]))


def _ddu_mul(x: _DDual, y: _DDual) -> _DDual:
    return (
        dd_mul(x[0], y[0]),
        dd_add(dd_mul(x[1], y[0]), dd_mul(x[0], y[1])),
    )


@lru_cache(maxsize=1)
def _bern_over_fact() -> Tuple[DD, ...]:
    # B(2j) / (2j)! for j = 1 .. _EM_TAIL_TERMS, exactly rounded to dd
    rows = []
    for j in range(1, _EM_TAIL_TERMS + 1):
        rows.append(dd_from_fraction(bernoulli_number(2 * j) / math.factorial(2 * j)))
    return tuple(rows)


@lru_cache(maxsize=8192)
def _hz_dd(sv: float, a: float) -> Tuple[DD, DD]:
    """Euler-Maclaurin Hurwitz zeta, value and d/ds, both double-double.

    The derivative needs no exp or log of its own, so it is always
    computed, and one cache entry per (s, a) serves both hurwitz_zeta and
    hurwitz_zeta_ds.
    """
    if a <= 0.0:
        raise SpecfunError("hurwitz zeta needs a > 0")
    if abs(sv - 1.0) < 1e-9:
        raise SpecfunError("hurwitz zeta pole at s = 1")
    if sv < _HZ_MIN_ORDER:
        raise SpecfunError(f"hurwitz zeta is not accurate for s < {_HZ_MIN_ORDER:g}")
    zmin = max(12.0, 1.1 * abs(sv) + 3.0)
    n_head = max(0, math.ceil(zmin - a))

    head_v: DD = (0.0, 0.0)
    head_d: DD = (0.0, 0.0)
    for k in range(n_head):
        tv, td = _pow_dual(_head_log(k, a), sv)
        head_v = dd_add(head_v, tv)
        head_d = dd_add(head_d, td)

    z = _two_sum(float(n_head), a)
    pw = _pow_dual(_head_log(n_head, a), sv)  # z^(-s)

    # pole term z^(1-s) / (s-1)
    num_v = dd_mul(z, pw[0])
    num_d = dd_mul(z, pw[1])
    den = _two_sum(sv, -1.0)
    pole_v = dd_div(num_v, den)
    pole_d = dd_div(
        dd_sub(dd_mul(num_d, den), num_v),
        dd_mul(den, den),
    )

    half_v = dd_mul_d(pw[0], 0.5)
    half_d = dd_mul_d(pw[1], 0.5)

    # Bernoulli tail: sum_j B(2j)/(2j)! * (s)_(2j-1) * z^(-s-2j+1)
    z2inv = dd_div((1.0, 0.0), dd_mul(z, z))
    r: _DDual = (dd_div(pw[0], z), dd_div(pw[1], z))  # z^(-s-1)
    c: _DDual = ((sv, 0.0), (1.0, 0.0))  # rising factorial, starts at (s)_1
    tail_v: DD = (0.0, 0.0)
    tail_d: DD = (0.0, 0.0)
    coeffs = _bern_over_fact()
    for j in range(1, _EM_TAIL_TERMS + 1):
        cr = _ddu_mul(c, r)
        b = coeffs[j - 1]
        tail_v = dd_add(tail_v, dd_mul(b, cr[0]))
        tail_d = dd_add(tail_d, dd_mul(b, cr[1]))
        if j < _EM_TAIL_TERMS:
            f1: _DDual = (_two_sum(sv, 2.0 * j - 1.0), (1.0, 0.0))
            f2: _DDual = (_two_sum(sv, 2.0 * j), (1.0, 0.0))
            c = _ddu_mul(c, _ddu_mul(f1, f2))
            r = (dd_mul(r[0], z2inv), dd_mul(r[1], z2inv))

    val = dd_add(dd_add(head_v, pole_v), dd_add(half_v, tail_v))
    der = dd_add(dd_add(head_d, pole_d), dd_add(half_d, tail_d))
    return val, der


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum over k >= 0 of (k+a)^(-s), continued in s."""
    return to_float(_hz_dd(float(s), float(a))[0])


def hurwitz_zeta_ds(s: float, a: float) -> float:
    """d/ds zeta(s, a)."""
    return to_float(_hz_dd(float(s), float(a))[1])


# ----------------------------------------------------------------------
# alternating Hurwitz function

_ETA_BAND = 0.6
_CVZ_TERMS = 60


def _eta_cvz(sv: float, a: float) -> Tuple[float, float]:
    # accelerated alternating sum; weights stay O(1) relative to the result
    # only while the terms (k+a)^(-s) decay, hence the band around s = 1
    n = _CVZ_TERMS
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    acc_v = 0.0
    acc_d = 0.0
    for k in range(n):
        c = b - c
        lt = math.log(k + a)
        term = math.exp(-sv * lt)
        acc_v += c * term
        acc_d += c * term * (-lt)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return acc_v / d, acc_d / d


def _eta_parts(sv: float, a: float) -> Tuple[float, float]:
    # value and d/ds of eta
    if a <= 0.0:
        raise SpecfunError("eta needs a > 0")
    if abs(sv - 1.0) < _ETA_BAND:
        return _eta_cvz(sv, a)
    # eta(s,a) = 2^(-s) * (zeta(s, a/2) - zeta(s, (a+1)/2))
    pv, pd = _hz_dd(sv, 0.5 * a)
    qv, qd = _hz_dd(sv, 0.5 * (a + 1.0))
    diff: _DDual = (dd_sub(pv, qv), dd_sub(pd, qd))
    out = _ddu_mul(_pow_dual(_LN2_DD, sv), diff)
    return to_float(out[0]), to_float(out[1])


def eta(s: float, a: float) -> float:
    """Alternating Hurwitz function sum over k >= 0 of (-1)^k (k+a)^(-s)."""
    return _eta_parts(float(s), float(a))[0]


def eta_ds(s: float, a: float) -> float:
    """d/ds eta(s, a)."""
    return _eta_parts(float(s), float(a))[1]


def _S_parts(sv: float, a: float) -> Tuple[float, float]:
    # value and d/ds of S_of, with the cross-check on the value
    ev, ed = _eta_parts(sv, 2.0 * a)
    pw = math.exp(sv * math.log(2.0))
    val = pw * ev
    der = pw * (math.log(2.0) * ev + ed)
    if abs(sv - 1.0) > 1e-6:
        other = to_float(dd_sub(_hz_dd(sv, a)[0], _hz_dd(sv, a + 0.5)[0]))
        scale = max(abs(val), abs(other))
        tol = 1e-9 + 3e-16 / abs(sv - 1.0)
        if scale > 0.0 and abs(val - other) > tol * scale:
            raise SpecfunError(
                f"S cross-check failed at s={sv}, a={a}: {val} vs {other}"
            )
    return val, der


def S_of(s: float, a: float) -> float:
    """zeta(s, a) - zeta(s, a + 1/2), evaluated through the alternating form.

    The identity S(s,a) = 2^s eta(s, 2a) keeps the value finite at s = 1.
    Away from s = 1 the direct zeta difference is computed as well and the
    two must agree, otherwise a SpecfunError is raised. Only for
    |s - 1| < 0.6, where eta sums the series itself, is that an independent
    route; elsewhere eta is built from the same two zeta values.
    """
    return _S_parts(float(s), float(a))[0]


def S_ds(s: float, a: float) -> float:
    """d/ds of S_of."""
    return _S_parts(float(s), float(a))[1]


# ----------------------------------------------------------------------
# digamma family

_PSI_SHIFT = 12.0
_PSI_TERMS = 10


@lru_cache(maxsize=1)
def _psi_coeffs() -> Tuple[float, ...]:
    return tuple(
        float(bernoulli_number(2 * k)) / (2 * k) for k in range(1, _PSI_TERMS + 1)
    )


def digamma(x: float) -> float:
    """psi(x) for real x off the poles."""
    x = float(x)
    if x <= 0.0:
        if x == math.floor(x):
            raise SpecfunError("digamma pole at non-positive integer")
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < _PSI_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    res = math.log(x) - 0.5 / x
    p = inv2
    for c in _psi_coeffs():
        res -= c * p
        p *= inv2
    return res + acc


def polygamma(m: int, x: float) -> float:
    """psi^(m)(x) for x > 0."""
    if m < 0:
        raise SpecfunError("polygamma needs m >= 0")
    if m == 0:
        return digamma(x)
    if x <= 0.0:
        raise SpecfunError("polygamma needs x > 0")
    sign = -1.0 if m % 2 == 0 else 1.0
    return sign * math.factorial(m) * hurwitz_zeta(float(m + 1), float(x))


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise SpecfunError("log_gamma needs x > 0")
    return math.lgamma(x)


def dirichlet_beta(s: float) -> float:
    """Dirichlet beta, as 2^(-s) eta(s, 1/2); entire in s."""
    sv = float(s)
    ev, _ = _eta_parts(sv, 0.5)
    return math.exp(-sv * math.log(2.0)) * ev


def zeta_prime_at(s: float) -> float:
    """zeta'(s) for the Riemann case a = 1."""
    return hurwitz_zeta_ds(float(s), 1.0)


def laguerre(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^(alpha)(x)."""
    if n < 0:
        raise SpecfunError("laguerre needs n >= 0")
    acc = 0.0
    for j in range(n + 1):
        prod = 1.0
        for i in range(j + 1, n + 1):
            prod *= alpha + i
        acc += prod * (-x) ** j / (math.factorial(n - j) * math.factorial(j))
    return acc


# ----------------------------------------------------------------------
# hypergeometric evaluators for the arctan / log kernel family

def _f21_unit(b: float, z: float) -> float:
    """2F1(1, b; b+1; z) = b * sum over k of z^k / (b + k), for z < 1.

    Small |z| goes through the series; otherwise the Euler integral
    b * int_0^1 u^(b-1) / (1 - z u) du is quadratured, which stays a route
    independent of the arctan/log closed forms the catalog checks against.
    """
    if z >= 1.0:
        raise SpecfunError("2F1 reduction needs z < 1")
    if z == 0.0:
        return 1.0
    if abs(z) <= 0.5:
        acc = 0.0
        term = 1.0
        for k in range(0, 200):
            piece = term / (b + k)
            acc += piece
            term *= z
            if abs(term) / (b + k + 1.0) < 1e-18 * abs(acc):
                break
        return b * acc
    res = tanh_sinh(lambda u: u ** (b - 1.0) / (1.0 - z * u), 0.0, 1.0, rel_tol=1e-14)
    return b * res.value


def hyp2f1_arctan_case(j: int, t: float) -> float:
    """2F1(1, 3/2+j; 5/2+j; -4 t^2)."""
    if j < 0:
        raise SpecfunError("hyp2f1_arctan_case needs j >= 0")
    return _f21_unit(1.5 + j, -4.0 * t * t)


def hyp2f1_log_case(k: int, t: float) -> float:
    """2F1(1, k+1; k+2; -4 t^2)."""
    if k < 0:
        raise SpecfunError("hyp2f1_log_case needs k >= 0")
    return _f21_unit(k + 1.0, -4.0 * t * t)


def _f21_arctan_closed(j: int, z: float) -> float:
    # 2F1(1, 3/2+j; 5/2+j; z) for z < 0 via the arctan reduction
    w = math.sqrt(-z)
    acc = w * math.atan(w)
    p = 1.0
    for pp in range(1, j + 2):
        p *= z
        acc += p / (2.0 * pp - 1.0)
    return (-1.0) ** (j + 1) * (2.0 * j + 3.0) * acc / (-z) ** (j + 2)


def _f21_log_closed(k: int, z: float) -> float:
    # 2F1(1, k+1; k+2; z) for z < 0 via the log reduction
    acc = math.log1p(-z)
    p = 1.0
    for pp in range(1, k + 1):
        p *= z
        acc += p / pp
    return -(k + 1.0) * acc / z ** (k + 1)


def hyp3f2_reduction(m: int, z: float) -> float:
    """3F2(1, 1, 3/2; 2+m, 3/2+m; z) for integer m >= 0 and z <= 0.

    Small |z| sums the defining series. Large negative z goes through the
    double-sum reduction to 2F1 terms, each with an arctan or log closed
    form, which keeps the evaluation stable for the decaying integrands
    that feed on it.
    """
    if m < 0:
        raise SpecfunError("hyp3f2_reduction needs m >= 0")
    if z > 0.0:
        raise SpecfunError("hyp3f2_reduction needs z <= 0")
    if z == 0.0:
        return 1.0
    if abs(z) <= 0.75:
        acc = 0.0
        term = 1.0
        for k in range(0, 500):
            acc += term
            term *= z * (k + 1.0) * (k + 1.5) / ((k + 2.0 + m) * (k + 1.5 + m))
            if abs(term) < 1e-18 * abs(acc):
                break
        return acc
    if m == 0:
        # 3F2(1,1,3/2; 2,3/2; z) collapses to 2F1(1,1;2;z)
        return -math.log1p(-z) / z
    pref = 2.0 * math.factorial(m + 1) * math.gamma(m + 1.5) / math.sqrt(math.pi)
    acc = 0.0
    for k in range(m + 1):
        for j in range(m):
            sgn = -1.0 if (k + j) % 2 else 1.0
            den = (
                math.factorial(m - k)
                * math.factorial(m - 1 - j)
                * math.factorial(k)
                * math.factorial(j)
            )
            fa = _f21_arctan_closed(j, z) / ((1.5 + j) * (k - j - 0.5))
            fl = _f21_log_closed(k, z) / ((k + 1.0) * (j - k + 0.5))
            acc += sgn * (fa + fl) / den
    return pref * acc


# ----------------------------------------------------------------------
# Gamma data on the quarter line

def im_digamma_quarter(w: float) -> float:
    """Im psi(1/4 + i w / (2 pi))."""
    y = w / (2.0 * math.pi)
    if y == 0.0:
        return 0.0
    acc = 0.0
    for k in range(1, 101):
        u = k - 0.75
        acc += y / (u * u + y * y)
    u = 101.0 - 0.75
    r2 = u * u + y * y
    f = y / r2
    fp = -2.0 * y * u / (r2 * r2)
    fppp = 24.0 * y * u * (y * y - u * u) / r2 ** 4
    integral = math.copysign(0.5 * math.pi, y) - math.atan(u / y)
    return acc + integral + 0.5 * f - fp / 12.0 + fppp / 720.0


def loggamma_q4(w: float) -> float:
    """2 ln |Gamma(1/4 + i w / (2 pi))|."""
    y = w / (2.0 * math.pi)
    base = 2.0 * math.lgamma(0.25)
    if y == 0.0:
        return base
    y2 = y * y
    ay = abs(y)
    acc = 0.0
    for k in range(100):
        u = k + 0.25
        acc += math.log1p(y2 / (u * u))
    u = 100.25
    integral = math.pi * ay - u * math.log1p(y2 / (u * u)) - 2.0 * ay * math.atan(u / ay)
    g = math.log1p(y2 / (u * u))
    gp = -2.0 * y2 / (u * (u * u + y2))
    q = u * (u * u + y2)
    h2 = (-6.0 * u * q + 2.0 * (3.0 * u * u + y2) ** 2) / q ** 3
    gppp = -2.0 * y2 * h2
    return base - (acc + integral + 0.5 * g - gp / 12.0 + gppp / 720.0)


# ----------------------------------------------------------------------
# named constants, each produced by the machinery above

@dataclass(frozen=True)
class ConstantTable:
    pi: float
    ln2: float
    euler_gamma: float
    catalan: float
    ln_glaisher: float
    ln_glaisher3: float


@lru_cache(maxsize=1)
def constants() -> ConstantTable:
    return ConstantTable(
        pi=math.pi,
        ln2=math.log(2.0),
        euler_gamma=-digamma(1.0),
        catalan=dirichlet_beta(2.0),
        ln_glaisher=1.0 / 12.0 - zeta_prime_at(-1.0),
        ln_glaisher3=-11.0 / 720.0 - zeta_prime_at(-3.0),
    )
