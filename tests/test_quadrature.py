"""Deterministic quadrature: finite panels and half-line envelopes."""

import math

import pytest

from zetasech.evaluator import DEFAULT_EVAL_CAP, EvalError, _Work
from zetasech.quadrature import (
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


def _over_cap(cap):
    return f"^eval cap {cap} exceeded by sum passes and integrand samples$"


def test_eval_cap_blocks_convergence():
    # levels of 7, 8 and 16 samples: the ledger refuses the third at 20
    calls = []

    def f(x):
        calls.append(x)
        return math.sin(x)

    with pytest.raises(EvalError, match=_over_cap(20)):
        tanh_sinh(f, 0.0, math.pi, charge=_Work(20).charge)
    assert len(calls) == 15


@pytest.mark.parametrize("cap", [1, 6])
def test_eval_cap_below_the_first_level_is_refused_before_sampling(cap):
    # level 0 is the center and three pairs: 7 evaluations or none
    calls = []

    def f(x):
        calls.append(x)
        return 1.0

    with pytest.raises(EvalError, match=_over_cap(cap)):
        tanh_sinh(f, 0.0, 1.0, charge=_Work(cap).charge)
    with pytest.raises(EvalError, match=_over_cap(cap)):
        integrate_decaying(f, rate=1.0, charge=_Work(cap).charge)
    assert calls == []
    with pytest.raises(EvalError, match=_over_cap(7)):
        tanh_sinh(f, 0.0, 1.0, charge=_Work(7).charge)
    assert len(calls) == 7


def test_the_ladder_ends_at_its_last_level():
    # with no hook to stop it, an integrand that never converges takes
    # every level: the first (7 samples) and twelve refinements
    def f(x):
        return math.sin(1000.0 * x)

    res = tanh_sinh(f, 0.0, 10.0)
    assert (res.evaluations, res.converged) == (31949, False)
    charges = []
    assert tanh_sinh(f, 0.0, 10.0, charge=charges.append) == res
    assert (sum(charges), len(charges), charges[:3]) == (31949, 13, [7, 8, 16])


def test_each_level_is_charged_before_its_samples():
    events = []

    def f(x):
        events.append("sample")
        return 1.0 / (1.0 + x * x)

    res = tanh_sinh(f, 0.0, 1.0, charge=events.append)
    charges = [e for e in events if e != "sample"]
    assert sum(charges) == res.evaluations == events.count("sample") == 125
    # each charge comes right before its level's samples
    at = 0
    for n in charges:
        assert events[at] == n and events[at + 1:at + 1 + n] == ["sample"] * n
        at += 1 + n


def test_a_refused_charge_stops_the_rule_before_the_level():
    calls = []

    def charge(n):
        if n > 7:
            raise QuadratureError("over")

    def f(x):
        calls.append(x)
        return 1.0

    with pytest.raises(QuadratureError, match="^over$"):
        integrate_decaying(f, rate=1.0, charge=charge)
    assert len(calls) == 7


def test_result_is_deterministic():
    a = tanh_sinh(lambda x: math.cos(3 * x) ** 2, 0.0, 2.0)
    b = tanh_sinh(lambda x: math.cos(3 * x) ** 2, 0.0, 2.0)
    assert a == b


@pytest.mark.parametrize(
    "f, a, b, want",
    [
        (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0,
         ("0x1.0000000000000p+1", "0x1.c000000000000p-49", 63, True)),
        (lambda x: math.exp(-x) * math.sin(5.0 * x), 0.0, 4.0,
         ("0x1.8595d7a6c97e7p-3", "0x1.8595d7a6c97e7p-53", 249, True)),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0,
         ("0x1.921fb54442d18p-1", "0x1.921fb54442d18p-51", 125, True)),
    ],
)
def test_results_are_pinned(f, a, b, want):
    res = tanh_sinh(f, a, b)
    got = (res.value.hex(), res.abs_error_estimate.hex(), res.evaluations, res.converged)
    assert got == want


def test_first_non_finite_sample_stops_the_rule():
    # the center, then the first pair's b - d; its a + d is never sampled
    calls = []

    def f(x):
        calls.append(x)
        return math.inf if x > 0.9 else 1.0

    with pytest.raises(QuadratureError) as info:
        tanh_sinh(f, 0.0, 1.0)
    assert str(info.value) == "integrand not finite at x=0.9756839820363734"
    assert calls == [0.5, 0.9756839820363734]


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
        {"rate": 1.0, "vmax": math.nan},
        {"rate": 1.0, "vmax": 0.0},
        # V is ~1e6 or ~1e304 here, and the tail's (1+V)^p_max overflows
        {"rate": 1.0, "p_max": 100000},
        {"rate": 1e-300},
    ],
    ids=["rate-inf", "vmax-nan", "vmax-zero", "p_max-huge", "rate-tiny"],
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


def test_default_cap_is_generous():
    assert DEFAULT_EVAL_CAP >= 10**6
