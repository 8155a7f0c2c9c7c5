"""Exact rational arithmetic for Bernoulli and Euler structures.

Everything here is computed over fractions.Fraction so that identity checks
in the exact evaluation path can demand a residual of exactly zero. The
Bernoulli convention is B(1) == -1/2.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

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


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B(n) with B(1) == -1/2."""
    if n < 0:
        raise ValueError("bernoulli_number needs n >= 0")
    if n == 0:
        return Fraction(1)
    if n > 2 and n % 2 == 1:
        return _ZERO
    acc = _ZERO
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def _euler_poly_coeffs(n: int) -> Tuple[Fraction, ...]:
    # E_n(x) = x^n - (1/2) * sum_{k<n} C(n,k) E_k(x), stored low degree first
    if n == 0:
        return (Fraction(1),)
    coeffs = [_ZERO] * (n + 1)
    coeffs[n] = Fraction(1)
    for k in range(n):
        c = math.comb(n, k)
        for i, ek in enumerate(_euler_poly_coeffs(k)):
            coeffs[i] -= _HALF * c * ek
    return tuple(coeffs)


def euler_poly(n: int, x: Fraction) -> Fraction:
    """Euler polynomial E_n(x) evaluated exactly."""
    if n < 0:
        raise ValueError("euler_poly needs n >= 0")
    x = Fraction(x)
    acc = _ZERO
    for c in reversed(_euler_poly_coeffs(n)):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(n: int) -> Tuple[Fraction, ...]:
    # B_n(x) = sum_k C(n,k) B(k) x^(n-k), stored high degree first
    return tuple(math.comb(n, k) * bernoulli_number(k) for k in range(n + 1))


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """Bernoulli polynomial B_n(x) evaluated exactly."""
    if n < 0:
        raise ValueError("bernoulli_poly needs n >= 0")
    x = Fraction(x)
    acc = _ZERO
    for c in _bernoulli_poly_coeffs(n):
        acc = acc * x + c
    return acc


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
    return euler_poly(m, Fraction(z)) / 2


def zeta_exact_nonpos(m: int, a: Fraction) -> Fraction:
    """Hurwitz zeta at non-positive integer order: zeta(-m, a)."""
    if m < 0:
        raise ValueError("zeta_exact_nonpos needs m >= 0")
    return -bernoulli_poly(m + 1, Fraction(a)) / (m + 1)


def s_diff_exact(m: int, q: Fraction) -> Fraction:
    """zeta(-m, q) - zeta(-m, q + 1/2), exactly."""
    q = Fraction(q)
    return zeta_exact_nonpos(m, q) - zeta_exact_nonpos(m, q + _HALF)
