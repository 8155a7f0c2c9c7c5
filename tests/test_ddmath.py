"""Double-double arithmetic: representation invariants and accuracy."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from zetasech import ddmath
from zetasech.ddmath import (
    _C4,
    _C5,
    _C6,
    _C7,
    _EXP_J1,
    _EXP_J2,
    _INV6,
    _LN2,
    _quick_two_sum,
    _two_prod,
    _two_sum,
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


@pytest.fixture(autouse=True, scope="module")
def _mp_digits():
    # mpmath's precision is global, and test_specfun sets it to 30 digits
    # on import; these bounds need 40
    with mp.workdps(40):
        yield


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


def mp_value(x: DD) -> mp.mpf:
    return mp.mpf(x[0]) + mp.mpf(x[1])


# Each bound below is at least twice the worst relative error measured over
# 10**5 seeded draws (for the double-double inputs, over the test's own).


@given(st.floats(min_value=-0.5, max_value=0.5, allow_nan=False))
def test_exp_near_zero_matches_mpmath(x):
    # m = 0: the table steps and the Taylor sum alone (worst 4.9e-32)
    want = mp.exp(mp.mpf(x))
    assert abs(mp_value(dd_exp((x, 0.0))) - want) <= want * mp.mpf("1e-31")


@given(st.floats(min_value=-40.0, max_value=40.0, allow_nan=False))
def test_exp_matches_mpmath(x):
    # r = x - m ln 2 costs up to ~2**-106 |x| (worst 5.1e-31)
    want = mp.exp(mp.mpf(x))
    assert abs(mp_value(dd_exp((x, 0.0))) - want) <= want * mp.mpf("1.2e-30")


def test_exp_of_double_double_matches_mpmath():
    # inputs with a nonzero low word, spread over [-60, 60]
    rng = random.Random(2001)
    worst = mp.mpf(0)
    for _ in range(300):
        hi = rng.uniform(-60.0, 60.0)
        x = dd_from_fraction(Fraction(hi) * (1 + Fraction(rng.uniform(-1.0, 1.0)) / 2**60))
        assert x[1] != 0.0
        want = mp.exp(mp_value(x))
        worst = max(worst, abs(mp_value(dd_exp(x)) - want) / want)
    assert worst <= mp.mpf("1e-30"), worst


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_ln_matches_mpmath(x):
    # worst 4.5e-32 (1 + |ln x|)
    want = mp.log(mp.mpf(x))
    assert abs(mp_value(dd_ln(x)) - want) <= mp.mpf("1e-31") * (1 + abs(want))


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


def reduce_exp_arg(x: DD):
    # dd_exp's argument reduction: x = m ln 2 + j1/64 + j2/8192 + r0 + r1,
    # the two table steps exact on the high word
    m = round((x[0] + x[1]) / _LN2[0])
    r0, r1 = dd_sub(x, dd_mul_d(_LN2, float(m)))
    j1 = round(r0 * 64.0)
    r0 -= j1 / 64.0
    j2 = round(r0 * 8192.0)
    r0 -= j2 / 8192.0
    return m, j1, j2, r0, r1


def composed_exp(x: DD) -> DD:
    # dd_exp as the composition of the double-double helpers; dd_exp runs
    # the same float operations in the same order with the helpers inlined
    if x[0] < -745.0:
        return 0.0, 0.0
    if x[0] > 709.0:
        raise OverflowError("dd_exp overflow")
    m, j1, j2, r0, r1 = reduce_exp_arg(x)
    f = r0 * (_C4 + r0 * (_C5 + r0 * (_C6 + r0 * _C7)))
    p, e = _two_prod(_INV6[0], r0)
    e += (_INV6[1] + f) * r0
    s, t = _quick_two_sum(0.5, p)
    w = dd_mul(_two_prod(r0, r0), (s, t + e))
    s, t = _quick_two_sum(r0, w[0])
    em1 = _quick_two_sum(s, t + w[1] + (r1 + r1 * s))
    u = dd_mul(_EXP_J1[j1 + 23], _EXP_J2[j2 + 64])
    v = dd_mul(u, em1)
    s, t = _quick_two_sum(u[0], v[0])
    total = _quick_two_sum(s, t + (u[1] + v[1]))
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


def composed_add(x: DD, y: DD) -> DD:
    s1, s2 = _two_sum(x[0], y[0])
    t1, t2 = _two_sum(x[1], y[1])
    s2 += t1
    s1, s2 = _quick_two_sum(s1, s2)
    s2 += t2
    return _quick_two_sum(s1, s2)


def composed_add_d(x: DD, y: float) -> DD:
    s1, s2 = _two_sum(x[0], y)
    s2 += x[1]
    return _quick_two_sum(s1, s2)


def composed_mul(x: DD, y: DD) -> DD:
    p1, p2 = _two_prod(x[0], y[0])
    p2 += x[0] * y[1] + x[1] * y[0]
    return _quick_two_sum(p1, p2)


def composed_mul_d(x: DD, y: float) -> DD:
    p1, p2 = _two_prod(x[0], y)
    p2 += x[1] * y
    return _quick_two_sum(p1, p2)


def seeded_pairs(rng: random.Random, n: int):
    # hi words: signed zeros, subnormals, exponents near -1000 and +1000 (so
    # some products overflow) and ordinary ones; lo words zero or up to an
    # ulp of hi, of either sign
    out = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            hi = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1000)])
        elif kind == 1:
            hi = math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, -990))
        elif kind == 2:
            hi = math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(990, 1024))
        else:
            hi = math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-60, 60))
        lo = rng.choice([0.0, -0.0, math.ulp(hi) * rng.uniform(-1.0, 1.0)])
        out.append((hi, lo))
    rng.shuffle(out)
    return out


def test_helpers_are_their_composition_word_for_word():
    # dd_add, dd_add_d, dd_mul and dd_mul_d are written call-free; each runs
    # the operations of its composition from _two_sum, _quick_two_sum and
    # _two_prod in the same order, so every word, signed zeros, infinities
    # and NaNs included, is the same
    rng = random.Random(2301)
    xs = seeded_pairs(rng, 4000)
    ys = seeded_pairs(rng, 4000)
    assert sum(x[1] > 0.0 for x in xs) > 500 and sum(x[1] < 0.0 for x in xs) > 500
    assert sum(0.0 < abs(x[0]) < 2.0**-1022 for x in xs) > 500

    def words(x):
        return [w.hex() for w in x]

    for x, y in zip(xs, ys):
        neg = (-y[0], -y[1])
        assert words(dd_add(x, y)) == words(composed_add(x, y)), (x, y)
        assert words(dd_sub(x, y)) == words(composed_add(x, neg)), (x, y)
        assert words(dd_add_d(x, y[0])) == words(composed_add_d(x, y[0])), (x, y)
        assert words(dd_mul(x, y)) == words(composed_mul(x, y)), (x, y)
        assert words(dd_mul_d(x, y[0])) == words(composed_mul_d(x, y[0])), (x, y)


def test_exp_tables_hold_exp_to_a_double_double():
    assert (len(_EXP_J1), len(_EXP_J2)) == (47, 129)
    with mp.workdps(50):
        for den, table in ((64, _EXP_J1), (8192, _EXP_J2)):
            jmax = len(table) // 2
            for i, (hi, lo) in enumerate(table):
                want = mp.exp(mp.mpf(i - jmax) / den)
                assert abs(lo) <= math.ulp(hi) / 2, (den, i)
                assert abs(mp_value((hi, lo)) - want) <= want * mp.mpf(2) ** -106, (den, i)


def test_reduction_edges_stay_inside_the_tables():
    # x at m ln 2 +- ln 2 / 2, where m flips and |j1| = 22; at r0 = +-21.5/64,
    # where j1 flips and |j2| = 64; at r0 = +-0.5/64; and just inside the
    # -745 and 709 guards. Each as a double-double, so the low word counts.
    xs = [(-745.0, 0.0), (math.nextafter(-745.0, 0.0), 0.0), (709.0, 0.0),
          (math.nextafter(709.0, 0.0), 0.0), (709.0, math.ulp(709.0) * 0.49),
          (0.0, -1.0), (2.0, 0.75), (-30.0, 3.5)]  # low words past ulp/2 too
    with mp.workdps(50):
        ln2 = mp.log(2)
        for m in (-1074, -1022, -300, -1, 0, 1, 45, 1022):
            for off in (ln2 / 2, mp.mpf(21.5) / 64, mp.mpf(0.5) / 64):
                for sign in (1, -1):
                    c = m * ln2 + sign * off
                    for ulps in (-1, 0, 1):
                        hi = float(c)
                        hi = hi + ulps * math.ulp(hi)
                        xs.append((hi, float(c - hi) if ulps == 0 else 0.0))
        seen = set()
        for x in xs:
            if not -745.0 <= x[0] <= 709.0:
                continue
            m, j1, j2, r0, r1 = reduce_exp_arg(x)
            assert abs(j1) <= 22 and abs(j2) <= 64 and abs(r0) <= 2**-14, x
            seen.update((abs(j1), abs(j2)))
            hi, lo = dd_exp(x)
            want = mp.exp(mp_value(x))
            assert math.isfinite(hi) and math.isfinite(lo) and hi > 0.0, x
            if hi >= 2.0**-968:  # the low word is a normal float too
                # r = x - m ln 2 costs up to ~2**-106 |x| (worst measured
                # 2.7e-32 max(1, |x|) over 2 * 10**4 draws in [-744, 709])
                bound = mp.mpf("1e-31") + mp.mpf("6e-32") * abs(x[0])
                assert abs(mp_value((hi, lo)) - want) <= want * bound, x
            elif hi >= 2.0**-1022:
                assert abs(mp_value((hi, lo)) - want) <= 2.0**-1074, x
            else:  # the high word rounds once more as a subnormal
                assert abs(hi - want) <= 2.0**-1074, x
            if hi >= 2.0**-1022 and want != hi:
                # the low word, or the zero it underflowed to, has the
                # sign of what the high word leaves
                assert math.copysign(1.0, lo) == mp.sign(want - hi), x
    assert {22, 64} <= seen


def test_tables_build_from_integers_alone():
    # ddmath runs with fractions, decimal and mpmath unimportable. decimal
    # cannot go into test_catalog's heavy-module list: fractions imports it.
    code = (
        "import importlib.util, sys\n"
        "for name in ('fractions', 'decimal', 'mpmath'):\n"
        "    sys.modules[name] = None\n"
        f"spec = importlib.util.spec_from_file_location('ddmath', {ddmath.__file__!r})\n"
        "mod = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(mod)\n"
        "print(mod._EXP_J1 == {_EXP_J1!r} and mod._EXP_J2 == {_EXP_J2!r})\n"
    ).replace("{_EXP_J1!r}", repr(_EXP_J1)).replace("{_EXP_J2!r}", repr(_EXP_J2))
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "True\n"


def test_ln_rejects_nonpositive():
    for bad in (0.0, -2.5):
        try:
            dd_ln(bad)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")
