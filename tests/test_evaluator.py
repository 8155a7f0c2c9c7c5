"""Numeric and exact evaluation of parsed expressions."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import pytest

from zetasech.catalog import builtin_identities
from zetasech.evaluator import (
    EvalConfig,
    EvalError,
    ExactEvalError,
    _QuadUsage,
    _compile_integral,
    _eval_num,
    bind_parameters,
    bind_parameters_exact,
    evaluate_exact,
    evaluate_numeric,
)
from zetasech.exprlang import Integral, Sum, parse_expression
from zetasech.registry import function_table
from zetasech.verifier import config_for

F = Fraction


def num(src: str, **params):
    return evaluate_numeric(parse_expression(src), params)


def exact(src: str, **params):
    return evaluate_exact(parse_expression(src), {k: F(v) for k, v in params.items()})


def test_arithmetic_has_no_budget():
    res = num("3*(1 + 2)^2 - 4/8")
    assert res.value == 26.5
    assert res.err_budget == 0.0
    assert res.quad_evals == 0
    assert res.converged


def test_constants_resolve():
    assert num("pi").value == math.pi
    assert math.isclose(num("exp(1)").value, math.e, rel_tol=1e-15)


def test_parameters_bind():
    res = num("s^2 + a", s=3.0, a=0.5)
    assert res.value == 9.5


def test_unbound_parameter_is_an_error():
    with pytest.raises(EvalError):
        num("s + 1")


def test_derived_q_binding():
    assert bind_parameters({"a": 1.0})["q"] == 0.5
    assert bind_parameters_exact({"a": F(1)})["q"] == F(1, 2)
    assert num("q", a=3.0).value == 1.0


def test_explicit_q_wins_with_a_warning():
    with pytest.warns(UserWarning):
        env = bind_parameters({"a": 1.0, "q": 0.9})
    assert env["q"] == 0.9


def test_q_alone_passes_through():
    assert bind_parameters({"q": 0.7}) == {"q": 0.7}


def test_fractional_power_of_negative_base_is_an_error():
    with pytest.raises(EvalError):
        num("(-2)^(1/2)")


def test_integer_power_of_negative_base_is_fine():
    assert num("(-2)^3").value == -8.0


def test_division_by_zero_is_an_error():
    with pytest.raises((EvalError, ZeroDivisionError)):
        num("1/(2 - 2)")


def test_sum_evaluates_inclusively():
    assert num("sum[k=1,4]{ k^2 }").value == 30.0


def test_empty_sum_is_zero():
    assert num("sum[k=3,2]{ k }").value == 0.0


def test_sum_bound_must_be_integral():
    with pytest.raises(EvalError):
        num("sum[k=0,1/2]{ k }")


def test_sum_over_parameter_bound():
    assert num("sum[k=0,n]{ binom(n, k) }", n=5).value == 32.0


def test_integral_carries_budget_and_evals():
    res = num("integral[v]{ exp(-pi*v) }")
    assert math.isclose(res.value, 1.0 / math.pi, rel_tol=1e-11)
    assert res.err_budget > 0.0
    assert res.quad_evals > 0
    assert res.converged


def test_integral_respects_decay_config():
    cfg = EvalConfig(quad_decay=2.0)
    res = evaluate_numeric(parse_expression("integral[v]{ exp(-2*v) }"), {}, cfg)
    assert math.isclose(res.value, 0.5, rel_tol=1e-11)


def test_small_eval_cap_spoils_convergence():
    cfg = EvalConfig(eval_cap=25)
    res = evaluate_numeric(parse_expression("integral[v]{ exp(-pi*v) }"), {}, cfg)
    assert not res.converged


def test_budgets_add_across_integrals():
    one = num("integral[v]{ exp(-pi*v) }")
    two = num("integral[v]{ exp(-pi*v) } + integral[v]{ v*exp(-pi*v) }")
    assert two.err_budget > one.err_budget


def test_function_calls_in_numeric_context():
    res = num("digamma(7/8) - digamma(3/8)", )
    assert math.isclose(res.value, 1.9499819775974445, rel_tol=1e-12)


@pytest.mark.parametrize(
    "src, config, want",
    [
        ("integral[v]{1/(v-v)}", {}, "division by zero"),
        ("integral[v]{(-1-v)^(1/2)}", {}, "power produced a complex value"),
        ("integral[v]{ln(0*v)}", {}, "ln failed: math domain error"),
        ("integral[v]{exp(1000*v)}", {}, "exp failed: math range error"),
        ("integral[v]{exp(-a*v)}", {}, "unbound name 'a'"),
        (
            "integral[v]{fact(v)*exp(-pi*v)}",
            {},
            "fact failed: fact needs an integer, got 8.860720131937228",
        ),
        (
            "integral[v]{exp(-pi*v)}",
            {"eval_cap": 20},
            (0.34070424530747634, 0.18804477917617543, 15, False),
        ),
        (
            "integral[v]{sum[k=0,3]{v^k}*exp(-v)}",
            {},
            (9.999859323437366, 2.586005943349802e-12, 125, True),
        ),
        (
            "integral[v]{integral[w]{exp(-v-w)}}",
            {},
            (0.9999999597555242, 4.959455701238146e-15, 15750, True),
        ),
        (
            "integral[v]{sum[k=1,2]{integral[w]{exp(-v-k*w)*w}}}",
            {},
            (1.2499995981299288, 5.181500306163177e-15, 46875, True),
        ),
        ("integral[v]{sum[k=0,1]{b*exp(-v)}}", {}, "unbound name 'b'"),
    ],
)
def test_integral_outcomes_are_pinned(src, config, want):
    # the last two values are wrong (the default envelope decays at pi, the
    # integrands at 1) and pinned as such; an envelope check should move them
    node = parse_expression(src)
    if isinstance(want, str):
        with pytest.raises(EvalError) as info:
            evaluate_numeric(node, {}, EvalConfig(**config))
        assert str(info.value) == want
    else:
        res = evaluate_numeric(node, {}, EvalConfig(**config))
        assert (res.value, res.err_budget, res.quad_evals, res.converged) == want


def _integrals(node, env, cfg):
    """(integral, env) for every integral under node, each enclosing sum
    index bound to every value of its range."""
    if isinstance(node, Integral):
        yield node, env
    elif isinstance(node, Sum):
        lo = _eval_num(node.lo, env, cfg, _QuadUsage())[0]
        hi = _eval_num(node.hi, env, cfg, _QuadUsage())[0]
        for k in range(round(lo), round(hi) + 1):
            yield from _integrals(node.body, {**env, node.var: float(k)}, cfg)
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            for child in value if isinstance(value, tuple) else (value,):
                if dataclasses.is_dataclass(child):
                    yield from _integrals(child, env, cfg)


def _outcome(thunk):
    try:
        return repr(thunk())
    except EvalError as exc:
        return f"EvalError: {exc}"


def test_compiled_integrands_equal_the_ast_walk():
    abscissae = [40.0 * (i / 20) ** 3 for i in range(1, 21)]
    checked = 0
    for record in builtin_identities():
        cfg = config_for(record)
        for params in record.case_params():
            env = bind_parameters(params)
            for side in (record.lhs(), record.rhs()):
                for node, bound in _integrals(side, env, cfg):
                    f = _compile_integral(node)(bound, cfg, _QuadUsage())
                    for x in abscissae:
                        walk = {**bound, node.var: x}
                        assert _outcome(lambda: f(x)) == _outcome(
                            lambda: _eval_num(node.body, walk, cfg, _QuadUsage())[0]
                        ), (record.id, params, x)
                    checked += 1
    assert checked == 476  # one per quadrature call of a catalog run


def test_compiled_sums_read_outer_locals_and_parameters():
    # each sum is a loop inline in the integrand, reading the integrand
    # variable, enclosing indices and parameters as locals
    cfg = EvalConfig()
    node = parse_expression("integral[v]{ sum[k=0,n]{ sum[j=k,n]{ a*v^j/(k+1) } - k*a } }")
    env = bind_parameters({"n": 3.0, "a": 0.5})
    f = _compile_integral(node)(env, cfg, _QuadUsage())
    for x in (0.0, 0.3, 1.7, 12.5):
        walk = {**env, node.var: x}
        assert f(x) == _eval_num(node.body, walk, cfg, _QuadUsage())[0]


def test_exact_arithmetic():
    assert exact("3*(1 + 2)^2 - 4/8") == F(53, 2)
    assert exact("(1/3 + 1/6)^2") == F(1, 4)


def test_exact_parameters_and_q():
    assert exact("q^2", a=F(1)) == F(1, 4)


def test_exact_sum_with_calls():
    got = exact("sum[k=0,n]{ binom(n, k)*bernnum(k) }", n=4)
    # Bernoulli recurrence: sum equals B_4 plus the forward step
    assert got == F(-1, 30) + 4 * F(-1, 2) + 1 + 6 * F(1, 6)


def test_exact_rejects_constants():
    with pytest.raises(ExactEvalError):
        exact("pi")


def test_exact_rejects_integrals():
    with pytest.raises(ExactEvalError):
        exact("integral[v]{ v }")


def test_exact_rejects_fractional_exponents():
    with pytest.raises(ExactEvalError):
        exact("2^(1/2)")


def test_exact_rejects_numeric_only_functions():
    with pytest.raises(ExactEvalError):
        exact("digamma(1/2)")


def test_exact_negative_integer_power():
    assert exact("(2/3)^(-2)") == F(9, 4)


def test_exact_kron_and_fact():
    assert exact("kron(2, 2) + fact(4)") == 25
    assert exact("kron(2, 3)") == 0


def test_exact_results_of_a_catalog_run_are_pinned():
    # the report digest sees only float(left); this pins every Fraction
    # evaluate_exact returns in a catalog run, in order
    from zetasech.verifier import Kind

    reprs = []
    for record in builtin_identities():
        if record.kind is not Kind.EXACT:
            continue
        for params in record.case_params():
            exact_params = {k: F(v) for k, v in params.items()}
            for side in (record.lhs(), record.rhs()):
                value = evaluate_exact(side, exact_params)
                assert type(value) is F
                reprs.append(repr(value))
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert len(reprs) == 928
    assert digest == "fadffb84546cd577f9aaf96d72474d3d6a10d362ee3cd25f66af02818b215e5d"


@pytest.mark.parametrize(
    "src, params, message",
    [
        ("pi", {}, "constant 'pi' is not rational"),
        ("s + 1", {}, "unbound name 's'"),
        ("sum[k=0,2]{k*x}", {}, "unbound name 'x'"),
        ("1/(2 - 2)", {}, "division by zero"),
        ("1/(a - 1)", {"a": 1}, "division by zero"),
        ("2^(1/2)", {}, "exact power needs an integer exponent"),
        ("2^a", {"a": F(1, 3)}, "exact power needs an integer exponent"),
        ("10^(10^8)", {}, "power would exceed 100000 bits"),
        ("0^0", {}, "0 to a non-positive power"),
        ("digamma(1/2)", {}, "digamma has no exact evaluation"),
        # refused before its argument is evaluated
        ("digamma(1/0)", {}, "digamma has no exact evaluation"),
        ("fact(1/2)", {}, "fact failed: fact needs an integer, got Fraction(1, 2)"),
        ("fact(a)", {"a": F(1, 2)}, "fact failed: fact needs an integer, got Fraction(1, 2)"),
        ("binom(-1, 2)", {}, "binom failed: binom needs non-negative integers"),
        ("pow(0, -1)", {}, "pow failed: 0 to a non-positive power"),
        ("hzeta(1, 1/2)", {}, "hzeta failed: exact hzeta needs a non-positive integer order"),
        ("sum[k=0,1/2]{k}", {}, "sum bounds must be integers"),
        ("sum[k=0,a]{k}", {"a": F(3, 2)}, "sum bounds must be integers"),
        ("sum[k=0,10^7]{k}", {}, "sum range too large"),
        ("integral[v]{v}", {}, "integrals have no exact evaluation"),
        # left before right, outer before inner
        ("1/0 + pi", {}, "division by zero"),
        ("pi + 1/0", {}, "constant 'pi' is not rational"),
        ("sum[k=0,1]{1/(k - 1)}", {}, "division by zero"),
    ],
)
def test_exact_errors_are_pinned(src, params, message):
    with pytest.raises(ExactEvalError) as info:
        exact(src, **params)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "src, params, want",
    [
        ("pow(2, -1)", {}, F(1, 2)),
        ("(-2)^(-3)", {}, F(-1, 8)),
        ("abs(-3)/2", {}, F(3, 2)),
        ("binom(4,2)^(-2)", {}, F(1, 36)),
        ("2+3", {}, F(5)),
        ("q", {"a": 3}, F(1)),
        ("q/2 + 1/q", {"a": 3}, F(3, 2)),
        ("n/2 - n^(-1)", {"n": 3}, F(7, 6)),
        ("sum[k=1,4]{1/k}", {}, F(25, 12)),
        ("sum[k=1,3]{k^(-2)} - sum[k=1,3]{(-k)^(-1)}", {}, F(49, 36) + F(11, 6)),
        ("kron(n, 2)/n", {"n": 2}, F(1, 2)),
        ("fact(n)/fact(n + 2)", {"n": 2}, F(1, 12)),
        ("fact(3)*binom(5, 2)", {}, F(60)),
        ("gammafn(4)^(-1)", {}, F(1, 6)),
        ("binom(4, 2)/gammafn(3)", {}, F(3)),
        ("eulernum(4) - kron(1, 1)", {}, F(4)),
        ("sum[k=0,3]{binom(3, k)}", {}, F(8)),
    ],
)
def test_exact_results_are_fractions_at_integer_values(src, params, want):
    got = exact(src, **params)
    assert type(got) is F
    assert got == want


def test_integer_valued_exact_functions_return_ints():
    # so that compiled exact code multiplies them as ints, not Fractions
    table = function_table()
    for name, args, want in [
        ("fact", (F(5),), 120),
        ("binom", (F(5), F(2)), 10),
        ("kron", (F(2), F(2)), 1),
        ("kron", (F(2), F(3)), 0),
        ("gammafn", (F(5),), 24),
        ("eulernum", (F(4),), 5),
    ]:
        got = table[name].exact(*args)
        assert type(got) is int and got == want, name
