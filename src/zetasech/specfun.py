"""Special functions with order derivatives.

The Hurwitz zeta evaluator runs Euler-Maclaurin summation in compensated
double-double arithmetic because the head sum and the pole/tail terms cancel
catastrophically for negative order; plain binary64 loses seven or more
digits there. It splits the order as s = s0 + round(s): the powers
(k+a)^(-s0) cost one exp each and are cached in rows that every order
s0 + m at the same a reads, and (k+a)^(-m) is double-double powering, whose
error, unlike that of exp(-s ln(k+a)), does not grow with |s|. The
Bernoulli tail is a polynomial in z^-2, evaluated by Horner on per-order
coefficients B(2j)/(2j)! (s)_(2j-1) that a small cache keeps by s, with
one reciprocal of z for all of it; the first coefficient left out is the
leading term of the Euler-Maclaurin remainder. A value past the
double-double range is a SpecfunError, not a NaN. One
composed rule of double-double steps gives the value and, when asked, the
derivative with respect to the order s, needed only by hurwitz_zeta_ds,
eta_ds, S_ds and zeta_prime_at. The derivative runs in forward mode beside
the value: each intermediate also carries its d/ds, so no finite
differences appear anywhere, and the value words are the same in both
modes. The alternating variant switches between a convergence-accelerated
alternating sum (stable near s = 1, including at the point itself) and the
double-double zeta difference (stable for decidedly non-positive s). S_of
is 2^s times that variant; tests/test_specfun.py checks it, and eta, against
mpmath. Its values and d/ds are cached by (s, a, ds) (_eta_parts), like
_hz_dd's, so a repeat skips the two engine lookups and the exp of 2^(-s).
"""
from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

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
    """Raised for domain errors."""


# ----------------------------------------------------------------------
# the double-double Hurwitz engine, values with an optional d/ds

_DDual = tuple[DD, DD]

_LN2_DD = dd_ln(2.0)
_EM_TAIL_TERMS = 15
# Below this order the head terms (k+a)^(-s) cancel past double-double
# precision. Against mpmath at 600 seeded points of each unit band of s,
# a in [0.05, 8], value and d/ds, skipping points with a zero of zeta(s, .)
# or of its d/ds within 1e-3 in a, the worst relative error is 1.1e-16 for
# s in (-10, -9], 2.2e-16 in (-11, -10], 1.3e-14 in (-12, -11] and 1.2e-12
# in (-13, -12]; it reaches 1.7e2 in (-24, -23].
_HZ_MIN_ORDER = -12.0
# Above this order the work, not the accuracy, is the limit: the head has
# about 1.1 s terms, each a binary power of log2(s) double-double products.
# s = 1000 takes ~0.02 s a call, s = 1e6 took 13 s, and s = 1e8 never ended.
_HZ_MAX_ORDER = 1000.0
# 170! is the largest factorial a float holds. laguerre divides by n!, and
# the large-|z| reduction of hyp3f2_reduction multiplies by (m+1)!, so a
# larger index fails there; at an index of 10^7 their loops of n^2 or m^2
# terms first ran for minutes.
_MAX_FACTORIAL_INDEX = 170


def _head_log(k: int, a: float) -> DD:
    # ln(k + a) in double-double; the low word of k + a enters to first order
    x = _two_sum(float(k), a)
    return dd_add_d(dd_ln(x[0]), x[1] / x[0])


# A row holds one double-double per head term k = 0 .. n - 1, as an array
# of hi words and one of lo words (16 bytes a term). A row is a function of
# its key alone, so a hit returns the words a rebuild would give.
_Row = tuple[array, array]


def _row(terms: Iterable[DD]) -> _Row:
    # appended one term at a time: unzipping all pairs first left offgrid's
    # peak RSS 0.1 MB higher
    hi, lo = array("d"), array("d")
    for t0, t1 in terms:
        hi.append(t0)
        lo.append(t1)
    return hi, lo


@lru_cache(maxsize=512)
def _log_row(a: float, n: int) -> _Row:
    # ln(k + a), shared by every order summed over the same a; an offgrid
    # pass uses fewer than 300 rows, so each log is computed once
    return _row(_head_log(k, a) for k in range(n))


@lru_cache(maxsize=64)
def _frac_row(a: float, s0: float, n: int) -> _Row:
    # (k + a)^(-s0), shared by the orders s0 + m at the same a; dd_exp is a
    # call through this module's attribute, so wrappers that count it see it
    return _row(dd_exp(dd_mul_d(l, -s0)) for l in zip(*_log_row(a, n)))


@lru_cache(maxsize=64)
def _recip_row(a: float, n: int) -> _Row:
    # 1 / (k + a), the base of (k + a)^(-m) for m > 0
    return _row(dd_div((1.0, 0.0), _two_sum(float(k), a)) for k in range(n))


def _pow_dual(lnbase: DD, s: float, ds: bool) -> tuple[DD, DD | None]:
    """base^(-s), and its d/ds if ds, for base = exp(lnbase) constant in s."""
    e = dd_exp(dd_mul_d(lnbase, -s))
    return e, dd_mul(e, (-lnbase[0], -lnbase[1])) if ds else None


def _ddu_mul(x: _DDual, y: _DDual) -> _DDual:
    return (
        dd_mul(x[0], y[0]),
        dd_add(dd_mul(x[1], y[0]), dd_mul(x[0], y[1])),
    )


@lru_cache(maxsize=1)
def _bern_over_fact() -> tuple[DD, ...]:
    # B(2j) / (2j)! for j = 1 .. _EM_TAIL_TERMS, exactly rounded to dd
    rows = []
    for j in range(1, _EM_TAIL_TERMS + 1):
        rows.append(dd_from_fraction(bernoulli_number(2 * j) / math.factorial(2 * j)))
    return tuple(rows)


@lru_cache(maxsize=64)
def _tail_coeffs(sv: float, ds: bool) -> _Row:
    # K_j = B(2j)/(2j)! * (s)_(2j-1) for j = 1 .. _EM_TAIL_TERMS, then, if
    # ds, their d/ds K'_j. They depend on s alone, so the two a of an eta
    # and the orders a catalog sum repeats share them. (s)_(2j+1) is
    # (s)_(2j-1) * g with g = (s+2j-1)(s+2j), and g' = (s+2j-1) + (s+2j).
    c = (sv, 0.0)
    c_d = (1.0, 0.0)
    ks, dks = [], []
    for j, b in enumerate(_bern_over_fact(), 1):
        ks.append(dd_mul(b, c))
        if ds:
            dks.append(dd_mul(b, c_d))
        if j == _EM_TAIL_TERMS:
            break
        fa = _two_sum(sv, 2.0 * j - 1.0)
        fb = _two_sum(sv, 2.0 * j)
        g = dd_mul(fa, fb)
        if ds:
            c_d = dd_add(dd_mul(c_d, g), dd_mul(c, dd_add(fa, fb)))
        c = dd_mul(c, g)
    return _row(ks + dks)


def _horner(row: _Row, start: int, w: DD) -> DD:
    # sum over j < _EM_TAIL_TERMS of row[start + j] * w^j, highest order first
    hi, lo = row
    j = start + _EM_TAIL_TERMS - 1
    p = (hi[j], lo[j])
    while j > start:
        j -= 1
        p = dd_add(dd_mul(p, w), (hi[j], lo[j]))
    return p


def _em_tail(sv: float, z: DD, pw: DD, d: DD | None) -> tuple[DD, DD | None]:
    """The Bernoulli tail of the Euler-Maclaurin sum, and its d/ds if d is given.

    sum_j B(2j)/(2j)! * (s)_(2j-1) * z^(-s-2j+1) is r * P(w) with
    r = z^(-s) / z, w = z^-2 and P(w) = sum_j K_j w^(j-1), the K_j from
    _tail_coeffs. P runs by Horner in w. pw is z^(-s) and d its d/ds; the
    d/ds of the tail is r * Q(w) + r' * P(w), Q the same sum over K'_j.
    One reciprocal of z gives w and r.
    """
    coeffs = _tail_coeffs(sv, d is not None)
    iz = dd_div((1.0, 0.0), z)
    w = dd_mul(iz, iz)
    r = dd_mul(pw, iz)
    p = _horner(coeffs, 0, w)
    tv = dd_mul(r, p)
    if d is None:
        return tv, None
    q = _horner(coeffs, _EM_TAIL_TERMS, w)
    return tv, dd_add(dd_mul(r, q), dd_mul(dd_mul(d, iz), p))


def _past_range(name: str, sv: float, a: float) -> SpecfunError:
    # a word past ~2^996 overflows the splitting step of a product, and a
    # value past ~2^1024 the float itself; either leaves inf or NaN
    return SpecfunError(f"{name}({sv:g}, {a:g}) is past the double-double range")


@lru_cache(maxsize=8192)
def _hz_dd(sv: float, a: float, ds: bool) -> tuple[DD, DD | None]:
    """Euler-Maclaurin Hurwitz zeta as a double-double, and d/ds if ds.

    The order splits exactly as s = s0 + m, m = round(s), and every power
    (k+a)^(-s) is (k+a)^(-s0) * (k+a)^(-m). The first factor is one dd_exp
    per term, kept in a row shared by all orders s0 + m at the same a, and
    exactly 1 at integer s; the second is binary powering of k + a, or of
    1/(k+a) when m > 0. Orders that differ by integers, as in the catalog's
    sums over zeta(s - j, a), so pay the exps once. The powers are
    double-double products: exp(-s ln(k+a)) would carry the log's error
    times |s|, which below s = -9 survives the head's cancellation.

    The Bernoulli tail (_em_tail) is a polynomial in z^-2, run by Horner on
    per-order coefficients that are cached by s, so it computes no exp; one
    reciprocal of z serves the whole tail. Its first omitted coefficient,
    K_16 * z^(-s-31), is the leading term of the Euler-Maclaurin remainder.

    One composed rule serves both modes. Without ds, None stands for the
    derivative. With ds, every intermediate also carries its d/ds, run in
    forward mode beside the value; the value half runs the same operations
    either way, so its words do not depend on ds. The d/ds of a head term
    is v * -ln(k+a), with logs read from the same cached row that built the
    s0 factors, so a derivative after its value computes no exp or log.
    Value and derivative calls at one (s, a) are separate cache entries;
    callers pass ds positionally, so that each mode has one key.
    tests/test_specfun.py pins the words of both modes. A value or d/ds
    that leaves the double-double range is a SpecfunError, not a NaN.
    """
    if a <= 0.0:
        raise SpecfunError("hurwitz zeta needs a > 0")
    if abs(sv - 1.0) < 1e-9:
        raise SpecfunError("hurwitz zeta pole at s = 1")
    if sv < _HZ_MIN_ORDER:
        raise SpecfunError(f"hurwitz zeta is not accurate for s < {_HZ_MIN_ORDER:g}")
    if sv > _HZ_MAX_ORDER:
        raise SpecfunError(f"hurwitz zeta is not computed for s > {_HZ_MAX_ORDER:g}")
    zmin = max(12.0, 1.1 * abs(sv) + 3.0)
    n_head = max(0, math.ceil(zmin - a))
    m = round(sv)
    s0 = sv - m
    n = n_head + 1
    frow = _frac_row(a, s0, n) if s0 != 0.0 else None
    brow = _recip_row(a, n) if m > 0 else None
    lrow = _log_row(a, n) if ds else None
    bits = bin(abs(m))[3:]

    # head: sum over k < n_head of v = (k+a)^(-s), and d = v * -ln(k+a);
    # the term at k = n_head is z^(-s)
    hv = hd = (0.0, 0.0)
    for k in range(n):
        v = None
        if m:
            b = (brow[0][k], brow[1][k]) if brow is not None else _two_sum(float(k), a)
            v = b
            for bit in bits:
                v = dd_mul(v, v)
                if bit == "1":
                    v = dd_mul(v, b)
        if frow is not None:
            f = (frow[0][k], frow[1][k])
            v = f if v is None else dd_mul(v, f)
        if v is None:
            v = (1.0, 0.0)
        if ds:
            d = dd_mul(v, (-lrow[0][k], -lrow[1][k]))
        if k == n_head:
            break
        hv = dd_add(hv, v)
        if ds:
            hd = dd_add(hd, d)
    z = _two_sum(float(n_head), a)
    pw = v  # z^(-s), and d its d/ds

    # pole term z^(1-s) / (s-1)
    num = dd_mul(z, pw)
    den = _two_sum(sv, -1.0)
    pole = dd_div(num, den)

    tv, td = _em_tail(sv, z, pw, d if ds else None)
    value = dd_add(dd_add(hv, pole), dd_add(dd_mul_d(pw, 0.5), tv))
    if not math.isfinite(value[0] + value[1]):
        raise _past_range("hurwitz zeta", sv, a)
    if not ds:
        return value, None
    pole_d = dd_div(dd_sub(dd_mul(dd_mul(z, d), den), num), dd_mul(den, den))
    deriv = dd_add(dd_add(hd, pole_d), dd_add(dd_mul_d(d, 0.5), td))
    if not math.isfinite(deriv[0] + deriv[1]):
        raise _past_range("hurwitz zeta", sv, a)
    return value, deriv


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum over k >= 0 of (k+a)^(-s), continued in s."""
    return to_float(_hz_dd(float(s), float(a), False)[0])


def hurwitz_zeta_ds(s: float, a: float) -> float:
    """d/ds zeta(s, a)."""
    return to_float(_hz_dd(float(s), float(a), True)[1])


# ----------------------------------------------------------------------
# alternating Hurwitz function

_ETA_BAND = 0.6
_CVZ_TERMS = 60


def _eta_cvz(sv: float, a: float) -> tuple[float, float]:
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


# A catalog pass fills 178 entries and an offgrid pass 266, ~250 bytes
# each; keys and values are floats, so 512 entries hold at most ~130 kB.
@lru_cache(maxsize=512)
def _eta_parts(sv: float, a: float, ds: bool) -> tuple[float, float | None]:
    """eta(sv, a), and d/ds if ds (else None), for eta, eta_ds, S_of, S_ds
    and dirichlet_beta.

    Cached like _hz_dd: callers pass the arguments positionally, so each
    mode has one key, and orders 0.0 and -0.0 share an entry, whose words
    are the same from either. A hit also skips the dd_exp of 2^(-s) and
    the two _hz_dd lookups. A refusal raises and is not stored.
    """
    if a <= 0.0:
        raise SpecfunError("eta needs a > 0")
    if abs(sv - 1.0) < _ETA_BAND:
        # a tiny a makes (k+a)^(-s), or its product with a weight, overflow
        try:
            v, d = _eta_cvz(sv, a)
        except OverflowError:
            raise _past_range("eta", sv, a) from None
        # the accelerated sum always gives both
        d = d if ds else 0.0
    else:
        # eta(s,a) = 2^(-s) * (zeta(s, a/2) - zeta(s, (a+1)/2))
        pv, pd = _hz_dd(sv, 0.5 * a, ds)
        qv, qd = _hz_dd(sv, 0.5 * (a + 1.0), ds)
        pw = _pow_dual(_LN2_DD, sv, ds)
        diff = dd_sub(pv, qv)
        if not ds:
            v, d = to_float(dd_mul(pw[0], diff)), 0.0
        else:
            out = _ddu_mul(pw, (diff, dd_sub(pd, qd)))
            v, d = to_float(out[0]), to_float(out[1])
    if not (math.isfinite(v) and math.isfinite(d)):
        raise _past_range("eta", sv, a)
    return v, d if ds else None


def eta(s: float, a: float) -> float:
    """Alternating Hurwitz function sum over k >= 0 of (-1)^k (k+a)^(-s)."""
    return _eta_parts(float(s), float(a), False)[0]


def eta_ds(s: float, a: float) -> float:
    """d/ds eta(s, a)."""
    return _eta_parts(float(s), float(a), True)[1]


def S_of(s: float, a: float) -> float:
    """zeta(s, a) - zeta(s, a + 1/2), evaluated through the alternating form.

    The identity S(s,a) = 2^s eta(s, 2a) keeps the value finite at s = 1.
    Outside |s - 1| < 0.6 eta, and so S, is built from the same _hz_dd
    values as the direct difference; the independent check is mpmath, in
    tests/test_specfun.py.
    """
    sv = float(s)
    # eta first, so an order past the cap is refused by name before 2^s
    # overflows
    ev = _eta_parts(sv, 2.0 * float(a), False)[0]
    return math.exp(sv * math.log(2.0)) * ev


def S_ds(s: float, a: float) -> float:
    """d/ds of S_of."""
    sv = float(s)
    ev, ed = _eta_parts(sv, 2.0 * float(a), True)
    return math.exp(sv * math.log(2.0)) * (math.log(2.0) * ev + ed)


# ----------------------------------------------------------------------
# digamma family

_PSI_SHIFT = 12.0
_PSI_TERMS = 10


@lru_cache(maxsize=1)
def _psi_coeffs() -> tuple[float, ...]:
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
    if m + 1 > _HZ_MAX_ORDER:
        # refused before m!, which alone takes minutes for m = 1e7
        raise SpecfunError(f"polygamma is not computed for m > {_HZ_MAX_ORDER - 1:g}")
    too_large = f"polygamma({m}, {x!r}) is too large for a float"
    try:
        z = hurwitz_zeta(float(m + 1), float(x))
    except SpecfunError:
        # with x > 0 and 2 <= m + 1 <= 1000 the engine refuses only a zeta
        # past the double-double range, and zeta(m+1, x) > 0 leaves it upwards
        raise SpecfunError(too_large) from None
    # zeta(m+1, x) > 0: below the normal floats it has lost its precision,
    # and m! would scale that loss up
    if z < sys.float_info.min:
        raise SpecfunError("polygamma is not computed where zeta(m+1, x) underflows a float")
    # m! times zeta exactly, rounded once: m! alone passes the float range
    # from m = 171
    try:
        value = float(math.factorial(m) * Fraction(z))
    except OverflowError:
        raise SpecfunError(too_large) from None
    return value if m % 2 else -value


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise SpecfunError("log_gamma needs x > 0")
    return math.lgamma(x)


def dirichlet_beta(s: float) -> float:
    """Dirichlet beta, as 2^(-s) eta(s, 1/2); entire in s."""
    sv = float(s)
    ev, _ = _eta_parts(sv, 0.5, False)
    return math.exp(-sv * math.log(2.0)) * ev


def zeta_prime_at(s: float) -> float:
    """zeta'(s) for the Riemann case a = 1."""
    return hurwitz_zeta_ds(float(s), 1.0)


def laguerre(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^(alpha)(x)."""
    if n < 0:
        raise SpecfunError("laguerre needs n >= 0")
    if n > _MAX_FACTORIAL_INDEX:
        raise SpecfunError(f"laguerre is not computed for n > {_MAX_FACTORIAL_INDEX}")
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
    An integral whose ladder runs out unconverged, as at z = -4e200, raises.
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
    if not res.converged:
        raise SpecfunError(
            f"2F1 Euler integral did not converge after {res.evaluations} evaluations"
        )
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
    if m + 1 > _MAX_FACTORIAL_INDEX:
        raise SpecfunError(
            f"hyp3f2_reduction is not computed for m > {_MAX_FACTORIAL_INDEX - 1} and |z| > 0.75"
        )
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

class ConstantTable(
    namedtuple(
        "ConstantTable",
        ("pi", "ln2", "euler_gamma", "catalan", "ln_glaisher", "ln_glaisher3"),
    )
):
    """The float value of each named constant of the expression language."""

    __slots__ = ()


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
