"""Rational special sequences: Bernoulli, Euler, and their polynomials."""

import math
import random
from fractions import Fraction

from hypothesis import given, strategies as st

from zetasech.exact import (
    bernoulli_number,
    bernoulli_poly,
    eta_exact,
    euler_number,
    euler_poly,
    s_diff_exact,
    zeta_exact_nonpos,
)

F = Fraction

BERNOULLI = [
    F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0),
    F(-1, 30), F(0), F(5, 66), F(0), F(-691, 2730),
]
EULER = [1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521, 0, 2702765]

small_n = st.integers(min_value=0, max_value=14)
rationals = st.fractions(
    min_value=F(-6), max_value=F(6), max_denominator=48
)


def test_bernoulli_number_table():
    for n, want in enumerate(BERNOULLI):
        assert bernoulli_number(n) == want


def test_euler_number_table():
    for n, want in enumerate(EULER):
        assert euler_number(n) == want


def test_polynomial_base_cases():
    x = F(3, 7)
    assert bernoulli_poly(0, x) == 1
    assert bernoulli_poly(1, x) == x - F(1, 2)
    assert bernoulli_poly(2, x) == x * x - x + F(1, 6)
    assert euler_poly(0, x) == 1
    assert euler_poly(1, x) == x - F(1, 2)
    assert euler_poly(3, x) == x**3 - F(3, 2) * x**2 + F(1, 4)


@given(small_n, rationals)
def test_bernoulli_reflection(n, x):
    assert bernoulli_poly(n, 1 - x) == (-1) ** n * bernoulli_poly(n, x)


@given(small_n, rationals)
def test_bernoulli_difference(n, x):
    # forward difference picks out the monomial
    got = bernoulli_poly(n, x + 1) - bernoulli_poly(n, x)
    assert got == (n * x ** (n - 1) if n else 0)


@given(small_n)
def test_bernoulli_poly_at_zero_is_number(n):
    assert bernoulli_poly(n, F(0)) == bernoulli_number(n)


@given(small_n, rationals)
def test_euler_reflection(n, x):
    assert euler_poly(n, 1 - x) == (-1) ** n * euler_poly(n, x)


@given(small_n, rationals)
def test_euler_appell_pair(n, x):
    assert euler_poly(n, x + 1) + euler_poly(n, x) == 2 * x**n


@given(small_n)
def test_euler_poly_at_half_scales_to_number(n):
    assert euler_poly(n, F(1, 2)) * 2**n == euler_number(n)


@given(small_n, rationals)
def test_eta_exact_is_half_euler(m, z):
    assert eta_exact(m, z) == euler_poly(m, z) / 2


@given(small_n, rationals)
def test_zeta_nonpos_is_bernoulli_ratio(m, a):
    assert zeta_exact_nonpos(m, a) == -bernoulli_poly(m + 1, a) / (m + 1)


@given(small_n, rationals)
def test_s_diff_splits_over_half_step(m, q):
    want = zeta_exact_nonpos(m, q) - zeta_exact_nonpos(m, q + F(1, 2))
    assert s_diff_exact(m, q) == want


@given(small_n, rationals)
def test_s_diff_matches_eta_scaling(m, q):
    # zeta(s, q) - zeta(s, q + 1/2) == 2^s eta(s, 2q) at s = -m
    assert s_diff_exact(m, q) == eta_exact(m, 2 * q) / 2**m


def test_negative_order_rejected():
    for fn in (bernoulli_number, euler_number):
        try:
            fn(-1)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


def _bernoulli_by_definition(n, x):
    return sum(math.comb(n, k) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1))


def _euler_by_recurrence(n, x, memo):
    # E_n(x) = x^n - (1/2) sum_{k<n} C(n,k) E_k(x)
    if n not in memo:
        tail = sum((math.comb(n, k) * _euler_by_recurrence(k, x, memo) for k in range(n)), F(0))
        memo[n] = x**n - tail / 2
    return memo[n]


def test_polynomials_match_their_definitions_at_seeded_points():
    rng = random.Random(20200509)
    for _ in range(40):
        x = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        memo = {}
        for n in range(41):
            want_b = _bernoulli_by_definition(n, x)
            want_e = _euler_by_recurrence(n, x, memo)
            got_b, got_e = bernoulli_poly(n, x), euler_poly(n, x)
            assert (got_b.numerator, got_b.denominator) == (want_b.numerator, want_b.denominator)
            assert (got_e.numerator, got_e.denominator) == (want_e.numerator, want_e.denominator)
