"""Double-double arithmetic: representation invariants and accuracy."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from zetasech.ddmath import (
    _INV_FACT,
    _LN2,
    DD,
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

mp.mp.dps = 40

# keep magnitudes where double products neither overflow nor go subnormal
finite = st.floats(min_value=-1e80, max_value=1e80, allow_nan=False).filter(
    lambda x: x == 0.0 or abs(x) > 1e-80
)
nonzero = finite.filter(lambda x: x != 0.0)


def as_fraction(x: DD) -> Fraction:
    return Fraction(x[0]) + Fraction(x[1])


def rel_err(got: Fraction, want: Fraction) -> float:
    if want == 0:
        return float(abs(got))
    return float(abs(got - want) / abs(want))


@given(finite, finite)
def test_add_is_nearly_exact(a, b):
    got = as_fraction(dd_add(dd_from_fraction(Fraction(a)), dd_from_fraction(Fraction(b))))
    assert rel_err(got, Fraction(a) + Fraction(b)) < 1e-30


@given(finite, finite)
def test_sub_matches_add_of_negation(a, b):
    x = dd_from_fraction(Fraction(a))
    y = dd_from_fraction(Fraction(b))
    assert dd_sub(x, y) == dd_add(x, (-y[0], -y[1]))


@given(finite, finite)
def test_mul_is_nearly_exact(a, b):
    got = as_fraction(dd_mul(dd_from_fraction(Fraction(a)), dd_from_fraction(Fraction(b))))
    assert rel_err(got, Fraction(a) * Fraction(b)) < 1e-30


@given(finite, nonzero)
def test_div_inverts_mul(a, b):
    x = dd_from_fraction(Fraction(a))
    y = dd_from_fraction(Fraction(b))
    back = as_fraction(dd_mul(dd_div(x, y), y))
    assert rel_err(back, Fraction(a)) < 1e-29


@given(finite, finite)
def test_scalar_helpers_agree_with_full_ops(a, b):
    x = dd_from_fraction(Fraction(a))
    y = dd_from_fraction(Fraction(b))
    assert dd_add_d(x, b) == dd_add(x, y)
    assert dd_mul_d(x, b) == dd_mul(x, y)


@given(nonzero)
def test_lo_component_stays_small(a):
    hi, lo = dd_from_fraction(Fraction(a) / 3)
    # normalized: lo is at most half an ulp of hi
    assert hi + lo == hi


def test_from_fraction_is_faithful():
    f = Fraction(1, 3)
    assert rel_err(as_fraction(dd_from_fraction(f)), f) < 1e-31
    assert to_float(dd_from_fraction(f)) == 1.0 / 3.0


@given(st.floats(min_value=-40.0, max_value=40.0, allow_nan=False))
def test_exp_matches_mpmath(x):
    got = as_fraction(dd_exp(dd_from_fraction(Fraction(x))))
    want = mp.exp(mp.mpf(x))
    assert abs(mp.mpf(got.numerator) / got.denominator - want) < abs(want) * mp.mpf("1e-28")


def test_exp_of_double_double_matches_mpmath():
    # inputs with a nonzero low word, spread over [-60, 60]
    rng = random.Random(2001)
    worst = mp.mpf(0)
    for _ in range(300):
        hi = rng.uniform(-60.0, 60.0)
        x = dd_from_fraction(Fraction(hi) * (1 + Fraction(rng.uniform(-1.0, 1.0)) / 2**60))
        assert x[1] != 0.0
        got = as_fraction(dd_exp(x))
        want = mp.exp(mp.mpf(x[0]) + mp.mpf(x[1]))
        worst = max(worst, abs(mp.mpf(got.numerator) / got.denominator - want) / want)
    assert worst <= mp.mpf("4e-30"), worst


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_ln_matches_mpmath(x):
    got = as_fraction(dd_ln(x))
    want = mp.log(mp.mpf(x))
    assert abs(mp.mpf(got.numerator) / got.denominator - want) < mp.mpf("1e-28") * (
        1 + abs(want)
    )


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_exp_inverts_ln(x):
    back = to_float(dd_exp(dd_ln(x)))
    assert math.isclose(back, x, rel_tol=1e-15)


def test_exp_extremes():
    assert dd_exp((-800.0, 0.0)) == (0.0, 0.0)
    try:
        dd_exp((800.0, 0.0))
    except OverflowError:
        pass
    else:
        raise AssertionError("expected OverflowError for exp(800)")


def composed_exp(x: DD) -> DD:
    # dd_exp as the composition of the double-double helpers; dd_exp runs
    # the same float operations in the same order with the helpers inlined
    if x[0] < -745.0:
        return 0.0, 0.0
    if x[0] > 709.0:
        raise OverflowError("dd_exp overflow")
    m = round(x[0] / _LN2[0])
    r = dd_sub(x, dd_mul_d(_LN2, float(m)))
    r = dd_mul_d(r, 1.0 / 32.0)
    p = _INV_FACT[-1]
    for c in _INV_FACT[-2::-1]:
        p = dd_add(dd_mul(p, r), c)
    total = dd_add_d(dd_mul(p, r), 1.0)
    for _ in range(5):
        total = dd_mul(total, total)
    return math.ldexp(total[0], m), math.ldexp(total[1], m)


def test_exp_is_the_composed_rule_word_for_word():
    rng = random.Random(2026)
    xs = [(-745.0, 0.0), (709.0, 0.0), (0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0), (-800.0, 0.0)]
    for _ in range(3000):
        hi = rng.uniform(-80.0, 80.0)
        xs.append((hi, math.ulp(hi) * rng.uniform(-0.5, 0.5)))
    assert sum(x[1] != 0.0 for x in xs) >= 2990
    for x in xs:
        # float.hex also tells -0.0 from 0.0
        assert [w.hex() for w in dd_exp(x)] == [w.hex() for w in composed_exp(x)], x
    with pytest.raises(OverflowError):
        dd_exp((709.0 + 2**-40, 0.0))


def test_ln_rejects_nonpositive():
    for bad in (0.0, -2.5):
        try:
            dd_ln(bad)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")
