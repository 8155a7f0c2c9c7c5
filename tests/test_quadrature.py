"""Deterministic quadrature: finite panels and half-line envelopes."""

import math

import pytest

from zetasech.quadrature import (
    DEFAULT_EVAL_CAP,
    QuadratureError,
    QuadResult,
    integrate_decaying,
    tanh_sinh,
)


def check(res: QuadResult, want: float, rel: float = 1e-12) -> None:
    assert res.converged
    assert math.isclose(res.value, want, rel_tol=rel, abs_tol=1e-15)
    # the estimate must cover the actual miss
    assert abs(res.value - want) <= max(res.abs_error_estimate * 10, 1e-14 * abs(want) + 1e-15)


def test_polynomial_panel():
    check(tanh_sinh(lambda x: x * x, 0.0, 1.0), 1.0 / 3.0)


def test_sine_panel():
    check(tanh_sinh(math.sin, 0.0, math.pi), 2.0)


def test_endpoint_singularity():
    check(tanh_sinh(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0), 2.0, rel=1e-11)


def test_log_singularity():
    check(tanh_sinh(math.log, 0.0, 1.0), -1.0, rel=1e-11)


def test_shifted_interval():
    check(tanh_sinh(lambda x: 1.0 / x, 1.0, math.e), 1.0)


def test_reversed_interval_rejected():
    with pytest.raises(QuadratureError):
        tanh_sinh(lambda x: x, 1.0, 0.0)


def test_eval_cap_blocks_convergence():
    res = tanh_sinh(lambda x: math.sin(x), 0.0, math.pi, eval_cap=20)
    assert not res.converged
    assert res.evaluations <= 20


def test_result_is_deterministic():
    a = tanh_sinh(lambda x: math.cos(3 * x) ** 2, 0.0, 2.0)
    b = tanh_sinh(lambda x: math.cos(3 * x) ** 2, 0.0, 2.0)
    assert a == b


def test_exponential_envelope():
    res = integrate_decaying(lambda v: math.exp(-v), rate=1.0)
    check(res, 1.0, rel=1e-11)


def test_gaussian_like_moment():
    # integral of v^2 exp(-pi v) over [0, inf) is 2 / pi^3
    res = integrate_decaying(lambda v: v * v * math.exp(-math.pi * v), rate=math.pi)
    check(res, 2.0 / math.pi**3, rel=1e-11)


def test_sech_kernel_value():
    # integral of sech(pi v) over [0, inf) is 1/2
    res = integrate_decaying(lambda v: 1.0 / math.cosh(math.pi * v), rate=math.pi)
    check(res, 0.5, rel=1e-11)


def test_algebraic_envelope():
    # integral of (1+v)^(-3) over [0, inf) is 1/2
    res = integrate_decaying(lambda v: (1.0 + v) ** -3, rate=0.0, p_max=-3)
    assert res.converged
    assert abs(res.value - 0.5) <= res.abs_error_estimate + 1e-13
    assert math.isclose(res.value, 0.5, rel_tol=1e-9)


def test_algebraic_envelope_needs_decay():
    with pytest.raises(QuadratureError):
        integrate_decaying(lambda v: 1.0 / (1.0 + v), rate=0.0, p_max=-1)


def test_negative_rate_rejected():
    with pytest.raises(QuadratureError):
        integrate_decaying(lambda v: math.exp(-v), rate=-1.0)


@pytest.mark.parametrize(
    "hints",
    [
        {"rate": math.inf},
        {"rate": 1.0, "scale": math.inf},
        {"rate": 1.0, "vmax": math.nan},
        {"rate": 1.0, "vmax": 0.0},
    ],
    ids=["rate-inf", "scale-inf", "vmax-nan", "vmax-zero"],
)
def test_non_finite_or_empty_hints_rejected(hints):
    # rate=inf once gave the integral over [0, 1] with a zero tail
    with pytest.raises(QuadratureError):
        integrate_decaying(lambda v: math.exp(-v), **hints)


def test_vmax_truncates_and_budgets():
    full = integrate_decaying(lambda v: math.exp(-v), rate=1.0)
    cut = integrate_decaying(lambda v: math.exp(-v), rate=1.0, vmax=8.0)
    # truncation at vmax=8 loses ~exp(-8); the budget must say so
    assert abs(cut.value - full.value) <= cut.abs_error_estimate
    assert cut.abs_error_estimate >= 0.9 * math.exp(-8.0)


@pytest.mark.parametrize(
    "f, rate, p_max, want",
    [
        (lambda v: math.exp(-v), 1.0, 8, 1.0 - math.exp(-0.5)),
        (lambda v: (1.0 + v) ** -3, 0.0, -3, (1.0 - 1.0 / 1.5**2) / 2.0),
    ],
    ids=["exponential", "algebraic"],
)
def test_vmax_below_one_is_the_cutoff(f, rate, p_max, want):
    # the integral over [0, 0.5], not over [0, 1]
    res = integrate_decaying(f, rate=rate, p_max=p_max, vmax=0.5)
    assert res.converged
    assert math.isclose(res.value, want, rel_tol=1e-12)


def test_scale_raises_truncation_target():
    tiny = integrate_decaying(
        lambda v: 1e-12 * math.exp(-v), rate=1.0, scale=1e-12
    )
    assert tiny.converged
    assert math.isclose(tiny.value, 1e-12, rel_tol=1e-10)


def test_default_cap_is_generous():
    assert DEFAULT_EVAL_CAP >= 10**6
