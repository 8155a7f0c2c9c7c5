"""Exact rational arithmetic for Bernoulli and Euler structures.

Everything here is exact, so that identity checks in the exact evaluation
path can demand a residual of exactly zero. Numbers are Fractions; each
polynomial keeps its coefficients as integers over one common denominator
and runs Horner's rule on integers. The wrappers below (eta_exact's halving,
zeta_exact_nonpos's negation, s_diff_exact's difference) stay on those
integer pairs too, so each call builds and normalises one Fraction. The
Bernoulli convention is B(1) == -1/2.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "euler_number",
    "euler_poly",
    "eta_exact",
    "zeta_exact_nonpos",
    "s_diff_exact",
]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)
# The highest Bernoulli order computed. B(n) takes ~n^2/2 Fraction additions
# of growing size: cold, n = 300 takes ~0.1 s, 400 ~0.25 s and 800 ~1.9 s.
# The Euler structures need B up to one order above their own.
_MAX_ORDER = 300


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B(n) with B(1) == -1/2."""
    if n < 0:
        raise ValueError("bernoulli_number needs n >= 0")
    if n > _MAX_ORDER:
        raise ValueError(f"Bernoulli numbers are not computed for n > {_MAX_ORDER}")
    if n == 0:
        return Fraction(1)
    if n > 2 and n % 2 == 1:
        return _ZERO
    acc = _ZERO
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)


def _over_common_denominator(coeffs: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(D, integers C_i) with coeffs[i] == C_i / D, high degree first."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return d, tuple(c.numerator * (d // c.denominator) for c in coeffs)


def _horner(poly: tuple[int, tuple[int, ...]], p: int, q: int) -> tuple[int, int]:
    """The polynomial (D, C) at x = p/q, q > 0, as an unreduced pair
    (numerator, denominator) of integers: after step i the accumulator is
    q^i times the Horner value over D, and the denominator is D q^deg."""
    d, coeffs = poly
    acc = coeffs[0]
    qi = 1
    for c in coeffs[1:]:
        qi *= q
        acc = acc * p + c * qi
    return acc, d * qi


@lru_cache(maxsize=None)
def _euler_poly_ints(n: int) -> tuple[int, tuple[int, ...]]:
    if n + 1 > _MAX_ORDER:
        raise ValueError(f"Euler numbers and polynomials are not computed for n > {_MAX_ORDER - 1}")
    # E_n(x) = sum_k C(n,k) E_k(0) x^(n-k), with E_k(0) = -2 (2^(k+1) - 1) B(k+1) / (k+1)
    return _over_common_denominator([
        math.comb(n, k) * -2 * (2 ** (k + 1) - 1) * bernoulli_number(k + 1) / (k + 1)
        for k in range(n + 1)
    ])


def euler_poly(n: int, x: Fraction) -> Fraction:
    """Euler polynomial E_n(x) evaluated exactly."""
    if n < 0:
        raise ValueError("euler_poly needs n >= 0")
    return Fraction(*_horner(_euler_poly_ints(n), x.numerator, x.denominator))


@lru_cache(maxsize=None)
def _bernoulli_poly_ints(n: int) -> tuple[int, tuple[int, ...]]:
    if n > _MAX_ORDER:
        raise ValueError(f"Bernoulli polynomials are not computed for n > {_MAX_ORDER}")
    # B_n(x) = sum_k C(n,k) B(k) x^(n-k)
    return _over_common_denominator([math.comb(n, k) * bernoulli_number(k) for k in range(n + 1)])


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """Bernoulli polynomial B_n(x) evaluated exactly."""
    if n < 0:
        raise ValueError("bernoulli_poly needs n >= 0")
    return Fraction(*_horner(_bernoulli_poly_ints(n), x.numerator, x.denominator))


@lru_cache(maxsize=None)
def euler_number(n: int) -> int:
    """Euler number E(n) = 2^n E_n(1/2); odd-index values vanish."""
    if n < 0:
        raise ValueError("euler_number needs n >= 0")
    v = Fraction(2) ** n * euler_poly(n, _HALF)
    if v.denominator != 1:
        raise ArithmeticError("euler_number did not reduce to an integer")
    return v.numerator


def eta_exact(m: int, z: Fraction) -> Fraction:
    """Alternating Hurwitz zeta at non-positive integer order: eta(-m, z)."""
    if m < 0:
        raise ValueError("eta_exact needs m >= 0")
    num, den = _horner(_euler_poly_ints(m), z.numerator, z.denominator)
    return Fraction(num, 2 * den)


def zeta_exact_nonpos(m: int, a: Fraction) -> Fraction:
    """Hurwitz zeta at non-positive integer order: zeta(-m, a)."""
    if m < 0:
        raise ValueError("zeta_exact_nonpos needs m >= 0")
    num, den = _horner(_bernoulli_poly_ints(m + 1), a.numerator, a.denominator)
    return Fraction(-num, den * (m + 1))


def s_diff_exact(m: int, q: Fraction) -> Fraction:
    """zeta(-m, q) - zeta(-m, q + 1/2), exactly."""
    if m < 0:
        raise ValueError("s_diff_exact needs m >= 0")
    # (B(q + 1/2) - B(q)) / (m + 1) with B = B_(m+1); q + 1/2 = (2p + r)/(2r),
    # whose denominator is 2^(m+1) times that of q
    p, r = q.numerator, q.denominator
    poly = _bernoulli_poly_ints(m + 1)
    n1, d1 = _horner(poly, p, r)
    n2, d2 = _horner(poly, 2 * p + r, 2 * r)
    return Fraction(n2 - n1 * (d2 // d1), d2 * (m + 1))
