"""Numeric and exact evaluation of parsed expressions."""

import hashlib
import inspect
import math
import operator
import typing
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from zetasech import evaluator
from zetasech.catalog import builtin_identities
from zetasech.evaluator import (
    DEFAULT_EVAL_CAP,
    EvalConfig,
    EvalError,
    ExactEvalError,
    _Work,
    _compile_integral,
    _eval_num,
    _qadd,
    _qdiv,
    _qmul,
    _qpow,
    bind_parameters,
    evaluate_exact,
    evaluate_numeric,
)
from zetasech.exprlang import (
    BinaryOp,
    BoundVarRef,
    Call,
    ConstantRef,
    Integral,
    NumberLiteral,
    ParamRef,
    Sum,
    UnaryNeg,
    parse_expression,
)
from zetasech.registry import function_table
from zetasech.specfun import constants
from zetasech.verifier import config_for

F = Fraction


def _over_cap(cap):
    """The message of an evaluation whose sum passes and integrand samples
    together pass cap."""
    return f"eval cap {cap} exceeded by sum passes and integrand samples"


_OVER_CAP = _over_cap(1_000_000)


def num(src: str, **params):
    return evaluate_numeric(parse_expression(src), params)


def exact(src: str, **params):
    return evaluate_exact(parse_expression(src), {k: F(v) for k, v in params.items()})


def test_arithmetic_has_no_budget():
    res = num("3*(1 + 2)^2 - 4/8")
    assert res.value == 26.5
    assert res.err_budget == 0.0
    assert res.quad_evals == 0


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
    assert evaluate_exact(ParamRef("q"), {"a": F(1)}) == F(1, 2)
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


@pytest.mark.parametrize("src, value", [("1/10^(-200)", 1e200), ("2*(10^200*10^200)", math.inf)])
def test_zero_operand_budgets_add_nothing(src, value):
    # |v/rv| or |lv| overflows; inf * 0 must not turn the budget NaN. The
    # walk is called directly: evaluate_numeric refuses the infinite value.
    assert _eval_num(parse_expression(src), {}, EvalConfig(), _Work()) == (value, 0.0)


def test_budget_propagates_past_an_overflowing_quotient():
    integral = num("integral[v]{ exp(-pi*v) }")
    res = num("integral[v]{ exp(-pi*v) }/10^(-200)")
    assert res.err_budget == integral.err_budget / 10.0 ** -200


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "src, message",
    [
        ("x + y", "unbound name 'x'"),
        ("2*y - x", "unbound name 'y'"),
        ("-x / y", "unbound name 'x'"),
        ("binom(x, y)", "unbound name 'x'"),
        ("binom(1, y) + x", "unbound name 'y'"),
        ("sum[k=1,2]{k*x + y}", "unbound name 'x'"),
    ],
)
def test_leaf_operands_fail_left_before_right_in_both_walks(src, message):
    with pytest.raises(EvalError) as info:
        num(src)
    assert str(info.value) == message
    with pytest.raises(ExactEvalError) as info:
        exact(src)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "src, message",
    [
        (f"{_HUGE} * 2", "number literal too large for a float"),
        (f"2 ^ {_HUGE}", "number literal too large for a float"),
        (f"-{_HUGE}", "number literal too large for a float"),
        (f"exp({_HUGE})", "number literal too large for a float"),
        (f"binom(2, {_HUGE})", "number literal too large for a float"),
        (f"{_HUGE} + x", "number literal too large for a float"),
        (f"x + {_HUGE}", "unbound name 'x'"),
    ],
)
def test_a_huge_literal_operand_is_a_numeric_error(src, message):
    with pytest.raises(EvalError) as info:
        num(src)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "src",
    [
        "sum[k=1,2]{sum[j=1,500001]{j}}",
        "sum[k=1,1000]{1 + sum[j=1,1001]{j}}",
        "sum[k=0,1]{sum[j=0,1]{sum[i=0,250000]{i}}}",
        # the inner length grows with k: refused at k = 1412
        "sum[k=0,1999]{sum[j=0,k]{j}}",
    ],
)
def test_nested_sums_share_one_cap(src):
    # each sum charges its range length to the evaluation's passes as it
    # starts, and the total is checked against the cap, in both walks, in
    # generated integrand loops and across an integral
    with pytest.raises(EvalError, match=f"^{_OVER_CAP}$"):
        num(src)
    with pytest.raises(ExactEvalError, match=f"^{_OVER_CAP}$"):
        exact(src)
    with pytest.raises(EvalError, match=f"^{_OVER_CAP}$"):
        num(f"integral[v]{{exp(-v)*{src}}}")
    inner = src.split("{", 1)[1][:-1]
    with pytest.raises(EvalError, match=f"^{_OVER_CAP}$"):
        num(f"{src.split('{', 1)[0]}{{integral[v]{{exp(-v)*{inner}}}}}")


def test_sibling_sums_share_one_cap():
    # each sum alone is under the cap
    with pytest.raises(EvalError, match=f"^{_OVER_CAP}$"):
        num("sum[k=1,600000]{1/k^2} + sum[k=1,600000]{1/k^2}")


def test_an_empty_range_charges_nothing():
    # were the empty range to refund its 10^6 passes, the last sum would
    # be accepted
    src = "sum[j=0,-999999]{1} + sum[k=1,10^6]{1} + sum[k=1,1]{1}"
    with pytest.raises(EvalError, match=f"^{_OVER_CAP}$"):
        num(src)
    with pytest.raises(ExactEvalError, match=f"^{_OVER_CAP}$"):
        exact(src)


def test_a_sum_of_the_cap_s_length_is_accepted():
    assert num("sum[k=1,10^6]{1}").value == 1e6
    assert exact("sum[j=0,-1]{1} + sum[k=1,10^6]{1}") == 10 ** 6


def test_sum_passes_leave_an_integral_the_rest_of_the_cap():
    src = "sum[k=1,1000]{1} + integral[v]{exp(-pi*v)}"
    # the integral converges in 249 samples; with fewer left, the level
    # that passes the cap is refused (at 1020, the third: 15 samples fit)
    res = evaluate_numeric(parse_expression(src), {}, EvalConfig(eval_cap=1249))
    assert res.quad_evals == 249
    for cap in (1248, 1020, 1000):
        with pytest.raises(EvalError, match=f"^{_over_cap(cap)}$"):
            evaluate_numeric(parse_expression(src), {}, EvalConfig(eval_cap=cap))


def test_integrand_samples_leave_a_sum_the_rest_of_the_cap():
    src = "integral[v]{exp(-pi*v)} + sum[k=1,1000]{1}"
    samples = num("integral[v]{exp(-pi*v)}").quad_evals
    res = evaluate_numeric(parse_expression(src), {}, EvalConfig(eval_cap=samples + 1000))
    assert res.quad_evals == samples
    cap = samples + 999
    with pytest.raises(EvalError, match=f"^{_over_cap(cap)}$"):
        evaluate_numeric(parse_expression(src), {}, EvalConfig(eval_cap=cap))


def test_integrand_samples_are_charged_as_each_level_starts():
    # 249 samples, each running a sum of 100 passes: 25,149 units of work.
    # The samples taken so far count when each sum checks the cap.
    src = "integral[v]{exp(-pi*v)*sum[k=1,100]{1}}"
    res = evaluate_numeric(parse_expression(src), {}, EvalConfig(eval_cap=25149))
    assert res.quad_evals == 249
    for cap in (25148, 24900):
        with pytest.raises(EvalError, match=f"^{_over_cap(cap)}$"):
            evaluate_numeric(parse_expression(src), {}, EvalConfig(eval_cap=cap))


def test_literals_past_the_float_range_are_numeric_errors():
    big = "1" + "0" * 400
    with pytest.raises(EvalError, match="number literal too large for a float"):
        num(f"{big} - {big}")
    with pytest.raises(EvalError, match="number literal too large for a float"):
        num(f"integral[v]{{ exp(-v)*{big} }}")
    assert exact(f"{big}/{big}") == 1


def _nested_sum_tree(depth, body):
    # sum[k0=0,0]{ sum[k1=0,0]{ ... body ... } }, built by hand
    zero = NumberLiteral(F(0))
    for i in reversed(range(depth)):
        body = Sum(f"k{i}", zero, zero, body)
    return body


_BINOM = Call("binom", (NumberLiteral(F(2)), NumberLiteral(F(1))))


@pytest.mark.parametrize("depth, body", [(40, NumberLiteral(F(1))), (20, _BINOM)])
def test_compilers_refuse_trees_nested_past_cpython_blocks(monkeypatch, depth, body):
    # loops nested this deep would pass CPython's 20 nested blocks in one
    # code object; no integrand that holds a sum is compiled, so the walk
    # samples it, and each one-pass sum adds its body's value to 0.0
    tree = _nested_sum_tree(depth, body)
    assert evaluate_exact(tree, {}) == _walk(tree, {}, _Work()) == _walk(body, {}, _Work())
    exp_v = Call("exp", (UnaryNeg(BoundVarRef("v")),))
    seen = _sources(monkeypatch)
    got = evaluate_numeric(Integral("v", BinaryOp("*", exp_v, tree)), {})
    assert seen == []
    assert got == evaluate_numeric(Integral("v", BinaryOp("*", exp_v, body)), {})


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


def test_integral_respects_decay_config():
    cfg = EvalConfig(quad_decay=2.0)
    res = evaluate_numeric(parse_expression("integral[v]{ exp(-2*v) }"), {}, cfg)
    assert math.isclose(res.value, 0.5, rel_tol=1e-11)


def test_small_eval_cap_spoils_convergence():
    cfg = EvalConfig(eval_cap=25)
    with pytest.raises(EvalError, match=f"^{_over_cap(25)}$"):
        evaluate_numeric(parse_expression("integral[v]{ exp(-pi*v) }"), {}, cfg)


def test_an_unconverged_inner_integral_is_refused_alike_on_both_paths():
    # the inner integral takes all 31,949 samples of the ladder unconverged;
    # a body that holds an integral is sampled by the walk
    node = parse_expression("integral[v]{integral[w]{exp(-pi*v-pi*w)*sin(1000*w)}}")
    refusal = "^quadrature did not converge after 31949 evaluations$"
    with pytest.raises(EvalError, match=refusal):
        _compile_integral(node)({}, EvalConfig(), _Work())(0.5)
    with pytest.raises(EvalError, match=refusal):
        _eval_num(node.body, {"v": 0.5}, EvalConfig(), _Work())


def test_a_capped_inner_integral_is_refused_alike_on_both_paths():
    # the inner integral fits its first level of 7 samples in the cap of 10,
    # not its second
    node = parse_expression("integral[v]{integral[w]{exp(-v-w)}}")
    cfg = EvalConfig(eval_cap=10)
    with pytest.raises(EvalError, match=f"^{_over_cap(10)}$"):
        _compile_integral(node)({}, cfg, _Work(10))(0.5)
    with pytest.raises(EvalError, match=f"^{_over_cap(10)}$"):
        _eval_num(node.body, {"v": 0.5}, cfg, _Work(10))


def _exp_calls(monkeypatch):
    """The arguments of every exp call from here on. A fresh integrand
    cache compiles each body with the wrapped entry, and is dropped after
    the test."""
    calls = []
    spec = function_table()["exp"]

    def exp(x):
        calls.append(x)
        return spec.numeric(x)

    monkeypatch.setitem(function_table(), "exp", spec._replace(numeric=exp))
    fresh = lru_cache(maxsize=256)(evaluator._compile_integral.__wrapped__)
    monkeypatch.setattr(evaluator, "_compile_integral", fresh)
    return calls


def test_a_refused_inner_integral_runs_once(monkeypatch):
    # the outer integral's first sample makes one exp call, then the inner
    # ladder one per sample until it runs out; the refusal ends the
    # evaluation, so no sample is taken again
    calls = _exp_calls(monkeypatch)
    node = parse_expression("integral[v]{exp(-pi*v)*integral[w]{exp(-pi*w)*sin(1000*w)}}")
    with pytest.raises(EvalError, match="^quadrature did not converge after 31949 evaluations$"):
        evaluate_numeric(node, {})
    assert len(calls) == 1 + 31_949


def test_the_cap_bounds_the_samples_taken(monkeypatch):
    # each sample makes one exp call and is charged before it runs
    calls = _exp_calls(monkeypatch)
    node = parse_expression(
        "integral[u]{exp(-pi*u)*integral[v]{exp(-pi*v)*integral[w]{exp(-pi*w)}}}"
    )
    with pytest.raises(EvalError, match=f"^{_over_cap(100_000)}$"):
        evaluate_numeric(node, {}, EvalConfig(eval_cap=100_000))
    assert 0 < len(calls) <= 100_000


def test_a_spent_exact_cap_raises_exact_eval_error():
    # one ledger serves both paths; the exact path's refuses as its own
    # error, never as the numeric EvalError
    src = "sum[k=1,3]{k} + sum[k=1,1]{k}"
    assert evaluate_exact(parse_expression(src), {}, 4) == 7
    with pytest.raises(ExactEvalError, match=f"^{_over_cap(3)}$"):
        evaluate_exact(parse_expression(src), {}, 3)
    work = _Work(3, ExactEvalError)
    work.charge(passes=3)
    with pytest.raises(ExactEvalError, match=f"^{_over_cap(3)}$"):
        work.charge(passes=1)


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
        ("integral[v]{exp(-pi*v)}", {"eval_cap": 20}, _over_cap(20)),
        (
            "integral[v]{sum[k=0,3]{v^k}*exp(-v)}",
            {},
            (9.999859323437366, 2.586005943349802e-12, 125),
        ),
        (
            "integral[v]{integral[w]{exp(-v-w)}}",
            {},
            (0.9999999597555242, 4.959455701238146e-15, 15750),
        ),
        (
            "integral[v]{sum[k=1,2]{integral[w]{exp(-v-k*w)*w}}}",
            {},
            (1.2499995981299288, 5.181500306163177e-15, 46875),
        ),
        ("integral[v]{sum[k=0,1]{b*exp(-v)}}", {}, "unbound name 'b'"),
        (
            "integral[v]{exp(-pi*v)*sin(1000*v)}",
            {},
            "quadrature did not converge after 31949 evaluations",
        ),
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
        assert (res.value, res.err_budget, res.quad_evals) == want


def _integrals(node, env, cfg):
    """(integral, env) for every integral under node, each enclosing sum
    index bound to every value of its range."""
    if isinstance(node, Integral):
        yield node, env
    elif isinstance(node, Sum):
        lo = _eval_num(node.lo, env, cfg, _Work())[0]
        hi = _eval_num(node.hi, env, cfg, _Work())[0]
        for k in range(round(lo), round(hi) + 1):
            yield from _integrals(node.body, {**env, node.var: float(k)}, cfg)
    else:
        for name in node._fields:
            value = getattr(node, name)
            for child in value if isinstance(value, tuple) else (value,):
                if hasattr(child, "_fields"):
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
                    f = _compile_integral(node)(bound, cfg, _Work())
                    for x in abscissae:
                        walk = {**bound, node.var: x}
                        assert _outcome(lambda: f(x)) == _outcome(
                            lambda: _eval_num(node.body, walk, cfg, _Work())[0]
                        ), (record.id, params, x)
                    checked += 1
    assert checked == 476  # one per quadrature call of a catalog run


def test_compiled_sums_read_outer_locals_and_parameters():
    # a body that holds sums is sampled by the walk, which binds the
    # integrand variable and the indices beside the parameters
    cfg = EvalConfig()
    node = parse_expression("integral[v]{ sum[k=0,n]{ sum[j=k,n]{ a*v^j/(k+1) } - k*a } }")
    env = bind_parameters({"n": 3.0, "a": 0.5})
    f = _compile_integral(node)(env, cfg, _Work())
    for x in (0.0, 0.3, 1.7, 12.5):
        walk = {**env, node.var: x}
        assert f(x) == _eval_num(node.body, walk, cfg, _Work())[0]


def test_parameter_only_call_runs_once_per_integral(monkeypatch):
    calls = []
    spec = function_table()["cosh"]

    def cosh(x):
        calls.append(x)
        return spec.numeric(x)

    monkeypatch.setitem(function_table(), "cosh", spec._replace(numeric=cosh))
    # an integrand no other test compiles, so it is built with the wrapper
    node = parse_expression("integral[v]{exp(-v) * cosh(a/8 + 1/64)}")
    res = evaluate_numeric(node, {"a": 2.0})
    assert calls == [0.265625]
    assert res.quad_evals > 1


def test_parameter_in_an_empty_sum_is_never_read():
    res = num("integral[v]{exp(-v) + sum[k=1,0]{b*v}}")
    assert res.value == num("integral[v]{exp(-v)}").value


def test_parameter_only_failure_is_raised_before_sampling():
    # ln reads v and fails at every sample before the walk reaches 1/a; the
    # compiled integrand computes 1/a in make, before the first sample
    node = parse_expression("integral[v]{ln(0*v) + 1/a}")
    cfg = EvalConfig()
    with pytest.raises(EvalError) as info:
        _eval_num(node.body, {"a": 0.0, "v": 0.5}, cfg, _Work())
    assert str(info.value) == "ln failed: math domain error"
    with pytest.raises(EvalError) as info:
        _compile_integral(node)({"a": 0.0}, cfg, _Work())
    assert str(info.value) == "division by zero"
    with pytest.raises(EvalError) as info:
        evaluate_numeric(node, {"a": 0.0}, cfg)
    assert str(info.value) == "division by zero"


def test_parameter_only_failure_comes_before_the_settings_check():
    node = parse_expression("integral[v]{exp(-v)*(1/a)}")
    cfg = EvalConfig(quad_decay=0.0)
    with pytest.raises(EvalError) as info:
        evaluate_numeric(node, {"a": 0.0}, cfg)
    assert str(info.value) == "division by zero"
    with pytest.raises(EvalError) as info:
        evaluate_numeric(node, {"a": 1.0}, cfg)
    assert str(info.value) == "quadrature failed: algebraic envelope needs p_max < -1"


def test_a_literal_past_the_float_range_comes_before_the_settings_check():
    big = "1" + "0" * 400
    cfg = EvalConfig(quad_decay=0.0)
    with pytest.raises(EvalError, match="^number literal too large for a float$"):
        evaluate_numeric(parse_expression(f"integral[v]{{exp(-v)*{big}}}"), {}, cfg)
    # a body that holds a sum is walked from the first sample on, so the
    # literal is read there, after the check
    node = parse_expression(f"integral[v]{{sum[k=0,1]{{exp(-v)*{big}}}}}")
    with pytest.raises(EvalError, match="^quadrature failed: "):
        evaluate_numeric(node, {}, cfg)
    with pytest.raises(EvalError, match="^number literal too large for a float$"):
        evaluate_numeric(node, {})


def test_an_infinite_parameter_only_value_stays_on_the_fast_path(monkeypatch):
    # (a*a)^2 overflows to inf without raising, so the walk gives each
    # sample the same value as f does; f gets the walked inf as a local
    # and no sample falls back to the walk
    calls = []
    walk = evaluator._eval_num

    def spy(*args):
        calls.append(args[0])
        return walk(*args)

    monkeypatch.setattr(evaluator, "_eval_num", spy)
    # a body no other test compiles, so f's fallback is the spy too
    node = parse_expression("integral[v]{exp(-v)/(a*a)^2}")
    res = evaluate_numeric(node, {"a": 1e200})
    assert res == (0.0, 3.1830988618378954e-15, 15)
    # the integral, then (a*a)^2 walked once: its power and its product,
    # whose leaf operands are read in place. A sample that fell back to
    # the walk would add at least 15 calls, one per sample.
    assert len(calls) == 3


def test_module_functions_have_resolvable_type_hints():
    # annotations are strings (from __future__ import annotations), so a
    # name missing from the imports fails only when they are resolved
    for obj in vars(evaluator).values():
        if inspect.isfunction(inspect.unwrap(obj)) and obj.__module__ == evaluator.__name__:
            typing.get_type_hints(obj)


def test_integral_lookups_hash_each_tree_once(monkeypatch):
    # the compiled-integral cache hashes its key on every evaluation; a
    # node keeps its hash from the first lookup, and parsing takes none
    src = "integral[v]{exp(-b*v) * sum[k=1,2]{ln(1 + v/k)}}"
    first, second = parse_expression(src), parse_expression(src)
    assert first is not second
    assert not hasattr(first, "_hash") and not hasattr(first.body, "_hash")
    make = _compile_integral(first)
    assert _compile_integral(second) is make
    assert hash(first) == hash(second) == hash((first.var, first.body))

    def rehash(node):
        raise AssertionError(f"{type(node).__name__} hashed again")

    for cls in (BinaryOp, BoundVarRef, Call, Integral, NumberLiteral, ParamRef, Sum):
        monkeypatch.setattr(cls, "_hash_fields", rehash)
    assert _compile_integral(first) is make and _compile_integral(second) is make
    assert evaluate_numeric(first, {"b": 2.0}) == evaluate_numeric(second, {"b": 2.0})


def _sources(monkeypatch):
    """The generated sources compiled from here on."""
    seen = []
    compiled = evaluator._compiled

    def spy(source):
        seen.append(source)
        return compiled(source)

    monkeypatch.setattr(evaluator, "_compiled", spy)
    return seen


def test_sample_code_is_one_try_and_one_finiteness_test(monkeypatch):
    # the per-sample function f runs straight through: no raise and no
    # per-step test; on a failure the walk reports it. Exact sides are
    # walked, not compiled.
    seen = _sources(monkeypatch)
    assert exact("x/3 + x*x - sum[k=1,n]{x/k}", x=F(1, 2), n=2) == F(-1, 3)
    node = parse_expression("integral[v]{exp(-v*b) * (b + ln(b*v + 2)/2) / 2^(a/3)}")
    evaluate_numeric(node, {"a": 1.0, "b": 1.0})
    # a body that holds a sum or an integral is not compiled
    evaluate_numeric(parse_expression("integral[v]{exp(-v*b) * sum[k=1,2]{ln(b*v + k)/k}}"),
                     {"b": 1.0})
    (source,) = seen
    for text in ("for ", "srange", "integrate(", "usage.evals"):
        assert text not in source
    lines = source.splitlines()
    start = lines.index("    def f(x):")
    end = next(i for i in range(start + 1, len(lines)) if not lines[i].startswith(" " * 8))
    sample = "\n".join(lines[start:end])
    assert "raise" not in source
    assert sample.count("try:") == 1
    assert sample.count("isfinite(") == 1
    assert "MISSING" not in source
    # the source is the binder and the one f it returns; parameter-only
    # work is walked by make, and its values, b and a/3, are the binder's
    # arguments, each bound there once and never assigned in f
    assert source.count("def ") == 2 and lines[-1] == "    return f"
    binder = lines[0]
    assert binder.startswith("def bind(env, cfg, usage, ") and binder.endswith("):")
    args = binder[len("def bind(") : -2].split(", ")
    assert len(args) == len(set(args)) == 5
    assert not any(f" {a} = " in source for a in args[3:])


def test_each_distinct_parameter_only_subtree_is_walked_once_per_integral(monkeypatch):
    # b is read alone three times and b*b twice: nodes compare by value, so
    # make walks b and b*b once each and the binder takes one local for each
    seen = _sources(monkeypatch)
    calls = []
    walk = evaluator._eval_num

    def spy(*args):
        calls.append(args[0])
        return walk(*args)

    monkeypatch.setattr(evaluator, "_eval_num", spy)
    # a body no other test compiles
    node = parse_expression("integral[v]{exp(-v*b)*(b + v*(b*b)) + (b*b)*exp(-v)/b}")
    cfg = EvalConfig()
    f = _compile_integral(node)({"b": 1.5}, cfg, _Work())
    b = ParamRef("b")
    assert calls == [b, BinaryOp("*", b, b)]
    (source,) = seen
    assert source.startswith("def bind(env, cfg, usage, h0, h1):\n")
    got = [f(x) for x in (0.0, 0.7, 3.0)]
    assert len(calls) == 2
    assert got == [walk(node.body, {"b": 1.5, "v": x}, cfg, _Work())[0] for x in (0.0, 0.7, 3.0)]


@pytest.mark.parametrize("x", [700.0, 709.7])
def test_large_finite_call_results_stay_on_the_fast_path(monkeypatch, x):
    # a finiteness test that summed the results would overflow here
    calls = []
    walk = evaluator._eval_num

    def spy(*args):
        calls.append(args[0])
        return walk(*args)

    monkeypatch.setattr(evaluator, "_eval_num", spy)
    # a body no other test compiles, so its code is built with the spy
    node = parse_expression("integral[v]{cosh(v) + cosh(v) - cosh(v) + v^2/4}")
    cfg = EvalConfig()
    got = _compile_integral(node)({}, cfg, _Work())(x)
    assert calls == []
    want = walk(node.body, {"v": x}, cfg, _Work())[0]
    assert math.isfinite(got) and got == want


def test_a_name_tested_in_a_loop_body_is_tested_again_after_the_loop():
    with pytest.raises(ExactEvalError, match="^unbound name 'x'$"):
        exact("sum[k=1,0]{x} + 2*x")
    with pytest.raises(EvalError, match="^unbound name 'x'$"):
        num("integral[v]{exp(-v)*(sum[k=1,0]{x*v} + v*x)}")
    # 2*b runs in make, before f reads b: make must test b itself
    with pytest.raises(EvalError, match="^unbound name 'b'$"):
        num("integral[v]{exp(-v)*(v*b + 2*b)}")


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
        ("fact(1/2)", {}, "fact failed: fact needs an integer, got 1/2"),
        ("fact(a)", {"a": F(1, 2)}, "fact failed: fact needs an integer, got 1/2"),
        ("binom(-1, 2)", {}, "binom failed: binom needs non-negative integers"),
        ("pow(0, -1)", {}, "pow failed: 0 to a non-positive power"),
        ("hzeta(1, 1/2)", {}, "hzeta failed: exact hzeta needs a non-positive integer order"),
        ("sum[k=0,1/2]{k}", {}, "sum bounds must be integers"),
        ("sum[k=0,a]{k}", {"a": F(3, 2)}, "sum bounds must be integers"),
        ("sum[k=0,10^7]{k}", {}, _OVER_CAP),
        # nested sums share one cap on their passes
        ("sum[k=1,2]{sum[j=1,500001]{j}}", {}, _OVER_CAP),
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


def test_exact_calls_are_cached_by_their_callable(monkeypatch):
    # the key is the registry's callable, not the name: a warm entry must
    # not answer for another callable under the same name
    want = exact("bernpoly(5, 1/3)")
    table = function_table()
    spec = table["bernpoly"]
    calls = []

    def counting(*args):
        calls.append(args)
        return spec.exact(*args)

    monkeypatch.setitem(table, "bernpoly", spec._replace(exact=counting))
    assert exact("bernpoly(5, 1/3)") == want
    assert exact("bernpoly(5, 1/3)") == want
    assert calls == [(F(5), F(1, 3))]


@pytest.mark.parametrize(
    "src, message",
    [
        ("fact(-1)", "fact failed: fact needs n >= 0"),
        ("0^(-1)", "0 to a non-positive power"),
        ("pow(0, -1)", "pow failed: 0 to a non-positive power"),
        ("2^(10^6)", "power would exceed 100000 bits"),
        ("pow(2, 10^6)", "pow failed: power would exceed 100000 bits"),
    ],
)
def test_exact_refusals_are_not_cached(src, message):
    for _ in range(2):
        with pytest.raises(ExactEvalError) as info:
            exact(src)
        assert str(info.value) == message


def test_integer_valued_exact_functions_return_ints():
    # so that the exact walk multiplies them as ints, not Fractions
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


def _walk(node, env, work):
    """node's exact value by a plain Fraction walk, with evaluate_exact's
    rules and messages: the reference it is checked against. Each sum
    charges its range length to work.passes as it starts."""
    if isinstance(node, NumberLiteral):
        return node.value
    if isinstance(node, (ParamRef, BoundVarRef)):
        if node.name not in env:
            raise ExactEvalError(f"unbound name {node.name!r}")
        return env[node.name]
    if isinstance(node, ConstantRef):
        raise ExactEvalError(f"constant {node.name!r} is not rational")
    if isinstance(node, UnaryNeg):
        return -_walk(node.operand, env, work)
    if isinstance(node, BinaryOp):
        x, y = _walk(node.left, env, work), _walk(node.right, env, work)
        if node.op == "/" and y == 0:
            raise ExactEvalError("division by zero")
        if node.op != "^":
            ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
            return ops[node.op](x, y)
        if y.denominator != 1:
            raise ExactEvalError("exact power needs an integer exponent")
        if x == 0 and y <= 0:
            raise ExactEvalError("0 to a non-positive power")
        if abs(y) * (max(x.numerator.bit_length(), x.denominator.bit_length()) - 1) > 100_000:
            raise ExactEvalError("power would exceed 100000 bits")
        return x ** int(y)
    if isinstance(node, Call):
        fn = function_table()[node.name].exact
        if fn is None:
            raise ExactEvalError(f"{node.name} has no exact evaluation")
        args = [_walk(arg, env, work) for arg in node.args]
        try:
            return F(fn(*args))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ExactEvalError(f"{node.name} failed: {exc}") from None
    if isinstance(node, Sum):
        lo, hi = _walk(node.lo, env, work), _walk(node.hi, env, work)
        if lo.denominator != 1 or hi.denominator != 1:
            raise ExactEvalError("sum bounds must be integers")
        work.passes += max(int(hi - lo) + 1, 0)
        if work.evals + work.passes > work.cap:
            raise ExactEvalError(_over_cap(work.cap))
        total = F(0)
        for k in range(int(lo), int(hi) + 1):
            total += _walk(node.body, {**env, node.var: F(k)}, work)
            if max(total.numerator.bit_length(), total.denominator.bit_length()) > 100_000:
                raise ExactEvalError("sum would exceed 100000 bits")
        return total
    raise ExactEvalError("integrals have no exact evaluation")


def _walk_env(params):
    env = {k: F(v) for k, v in params.items()}
    if "a" in env and "q" not in env:
        env["q"] = env["a"] / 4 + F(1, 4)
    return env


def _exact_outcome(thunk):
    try:
        value = thunk()
    except ExactEvalError as exc:
        return f"ExactEvalError: {exc}"
    assert type(value) is F
    # not repr(value): a result may have more digits than str() may print
    return value


def test_exact_results_of_a_catalog_run_equal_a_fraction_walk():
    from zetasech.verifier import Kind

    checked = 0
    for record in builtin_identities():
        if record.kind is not Kind.EXACT:
            continue
        for params in record.case_params():
            exact_params = {k: F(v) for k, v in params.items()}
            for side in (record.lhs(), record.rhs()):
                want = _walk(side, _walk_env(params), _Work())
                assert evaluate_exact(side, exact_params) == want
                checked += 1
    assert checked == 928


def _lit(value):
    return NumberLiteral(F(value))


# sum bounds stay small, so that nested sums run few terms
_BOUNDS = st.one_of(
    st.integers(-2, 3).map(_lit),
    st.sampled_from([ParamRef("n"), ParamRef("a"), BoundVarRef("k")]),
)
# a refused name or function ends the whole evaluation, so they are rare
_NAMES = [ParamRef("n"), ParamRef("a"), ParamRef("q")] * 2 + [BoundVarRef("k"), ConstantRef("pi")]
_LEAVES = st.one_of(
    st.integers(-3, 5).map(_lit),
    st.sampled_from([F(1, 2), F(-3, 4), F(7, 3)]).map(_lit),
    st.sampled_from(_NAMES),
)


def _branches(children):
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from("+-*/^"), children, children),
        st.builds(UnaryNeg, children),
        st.builds(lambda lo, hi, body: Sum("k", lo, hi, body), _BOUNDS, _BOUNDS, children),
        st.builds(lambda f, x: Call(f, (x,)), st.sampled_from(["fact"] * 4 + ["digamma"]), children),
        st.builds(lambda x, y: Call("binom", (x, y)), children, children),
        # a small order: Euler polynomials of high order take long to build
        st.builds(
            lambda n, x: Call("eulerpoly", (n, x)),
            st.one_of(st.integers(0, 6).map(_lit), st.just(ParamRef("n"))),
            children,
        ),
    )


_TREES = st.recursive(_LEAVES, _branches, max_leaves=10)
_INT_VALUES = st.integers(-2, 4)
_FRACTION_VALUES = st.builds(F, st.integers(-9, 9), st.integers(2, 6)).filter(
    lambda x: x.denominator != 1
)


@settings(max_examples=300, deadline=None)
@given(
    _TREES, _INT_VALUES, _FRACTION_VALUES, _INT_VALUES, _FRACTION_VALUES,
    st.sampled_from([3, DEFAULT_EVAL_CAP]),
)
def test_compiled_exact_code_equals_a_fraction_walk(tree, n_int, n_frac, a_int, a_frac, cap):
    # each parameter bound as an int and as a non-integer Fraction; q is
    # derived from a. A cap of 3 passes refuses many sums.
    for n in (n_int, n_frac):
        for a in (a_int, a_frac):
            params = {"n": F(n), "a": F(a)}
            assert _exact_outcome(lambda: evaluate_exact(tree, params, cap)) == _exact_outcome(
                lambda: _walk(tree, _walk_env(params), _Work(cap))
            ), (tree, params)


def _wild(x):
    # a registry function that returns what no real one does
    if x > 2.0:
        return math.inf
    if x < -2.0:
        return math.nan
    if 0.5 < x < 1.0:
        return complex(x, 1.0)
    return x


def _sample_outcome(thunk, usage):
    """A sample's value or failure, and the evaluations and sum passes it
    charged."""
    try:
        outcome = repr(thunk())
    except (EvalError, TypeError) as exc:
        # the walk lets the TypeError of a complex function result through
        outcome = f"{type(exc).__name__}: {exc}"
    return outcome, usage.evals, usage.passes


_V = BoundVarRef("v")
_INTEGRAND_LEAVES = st.one_of(
    st.integers(-2, 3).map(_lit),
    st.sampled_from([F(1, 2), F(-3, 2), F(10 ** 400)]).map(_lit),
    # b is never bound; k is bound only inside a sum
    st.sampled_from([_V] * 4 + [ParamRef("a"), ParamRef("n"), ParamRef("b"), BoundVarRef("k")]),
)
_INTEGRAND_BOUNDS = st.one_of(
    st.integers(-1, 2).map(_lit),
    st.sampled_from([ParamRef("n"), ParamRef("b"), BoundVarRef("k")]),
)


def _inner_integral(body):
    # exp(-w) makes it decay; body may read v, the outer variable
    return Integral("w", BinaryOp("*", Call("exp", (UnaryNeg(BoundVarRef("w")),)), body))


def _integrand_branches(children):
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from("+-*/^"), children, children),
        st.builds(UnaryNeg, children),
        st.builds(
            lambda lo, hi, body: Sum("k", lo, hi, body),
            _INTEGRAND_BOUNDS, _INTEGRAND_BOUNDS, children,
        ),
        st.builds(
            lambda name, x: Call(name, (x,)),
            st.sampled_from(["ln", "exp", "fact", "gammafn", "cosh", "wild"]),
            children,
        ),
        st.builds(_inner_integral, children),
    )


_INTEGRAND_BODIES = st.recursive(_INTEGRAND_LEAVES, _integrand_branches, max_leaves=8)
# a nested integral, then a step that fails at every abscissa
_INTEGRAL_THEN_FAILURE = BinaryOp(
    "+", _inner_integral(_V), Call("ln", (BinaryOp("*", _lit(0), _V),))
)


@settings(max_examples=250, deadline=None)
@given(
    _INTEGRAND_BODIES,
    st.sampled_from([-1.5, 0.0, 0.75, 3.0]),
    st.sampled_from([-1.0, 0.0, 2.0]),
    st.sampled_from([300, DEFAULT_EVAL_CAP]),
)
@example(_INTEGRAL_THEN_FAILURE, 1.0, 2.0, DEFAULT_EVAL_CAP)
@example(BinaryOp("+", _INTEGRAL_THEN_FAILURE, _inner_integral(_V)), 1.0, 2.0, 300)
def test_compiled_samples_equal_the_walk(body, a, n, cap):
    # value or message, quadrature evaluations and sum passes, at each
    # abscissa; make,
    # which may raise before sampling, fails only where the walk fails at
    # every abscissa
    node = Integral("v", body)
    env = bind_parameters({"a": a, "n": n})
    cfg = EvalConfig(eval_cap=cap)
    with pytest.MonkeyPatch.context() as patch:
        wild = function_table()["cosh"]._replace(name="wild", numeric=_wild)
        patch.setitem(function_table(), "wild", wild)
        for x in (0.0, 1e-300, -1.0, 700.0):
            walk, usage = _Work(cap), _Work(cap)
            want = _sample_outcome(
                lambda: _eval_num(body, {**env, "v": x}, cfg, walk)[0], walk
            )
            try:
                f = _compile_integral(node)(env, cfg, usage)
            except (EvalError, TypeError):
                assert want[0].startswith(("EvalError: ", "TypeError: ")), (body, x)
                continue
            assert _sample_outcome(lambda: f(x), usage) == want, (body, x)


def _float_walk(node, env, work):
    """node's value and error budget by a plain float walk, with
    _eval_num's rules and messages: the reference it is checked against.
    Each sum charges its range length to work.passes as it starts."""
    if isinstance(node, NumberLiteral):
        try:
            return float(node.value), 0.0
        except OverflowError:
            raise EvalError("number literal too large for a float") from None
    if isinstance(node, (ParamRef, BoundVarRef)):
        if node.name not in env:
            raise EvalError(f"unbound name {node.name!r}")
        return env[node.name], 0.0
    if isinstance(node, ConstantRef):
        return getattr(constants(), node.name), 0.0
    if isinstance(node, UnaryNeg):
        v, e = _float_walk(node.operand, env, work)
        return -v, e
    if isinstance(node, BinaryOp):
        (x, ex), (y, ey) = _float_walk(node.left, env, work), _float_walk(node.right, env, work)
        # a budget term is added only when its operand budget is nonzero
        if node.op in "+-":
            return (x + y if node.op == "+" else x - y), ex + ey
        if node.op == "*":
            err = abs(x) * ey if ey else 0.0
            return x * y, err + abs(y) * ex if ex else err
        if node.op == "/":
            if y == 0.0:
                raise EvalError("division by zero")
            err = ex / abs(y) if ex else 0.0
            return x / y, err + abs(x / y / y) * ey if ey else err
        try:
            v = x ** y
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalError(f"power failed: {exc}") from None
        if isinstance(v, complex):
            raise EvalError("power produced a complex value")
        err = abs(y * v / x) * ex if ex and x != 0.0 else 0.0
        return v, err + abs(v * math.log(x)) * ey if ey and x > 0.0 else err
    if isinstance(node, Call):
        walked = [_float_walk(arg, env, work) for arg in node.args]
        try:
            v = function_table()[node.name].numeric(*(av for av, _ in walked))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalError(f"{node.name} failed: {exc}") from None
        if not math.isfinite(v):
            raise EvalError(f"{node.name} returned a non-finite value")
        return v, sum(ae for _, ae in walked)
    if isinstance(node, Sum):
        # both bounds are walked before either is checked
        bounds = [_float_walk(node.lo, env, work)[0], _float_walk(node.hi, env, work)[0]]
        for what, x in zip(("lower", "upper"), bounds):
            if not (math.isfinite(x) and abs(x - round(x)) <= 1e-9):
                raise EvalError(f"sum {what} bound must be an integer, got {x!r}")
        lo, hi = map(round, bounds)
        work.passes += max(hi - lo + 1, 0)
        if work.evals + work.passes > work.cap:
            raise EvalError(_over_cap(work.cap))
        total, total_err = 0.0, 0.0
        for k in range(lo, hi + 1):
            v, e = _float_walk(node.body, {**env, node.var: float(k)}, work)
            total += v
            total_err += e
        return total, total_err
    # the integral machinery has its own tests; its budget feeds the walk,
    # and its samples are charged to work against the cap
    return _eval_num(node, env, EvalConfig(), work)


def _walk_outcome(thunk):
    try:
        value, budget = thunk()
    except EvalError as exc:
        return f"EvalError: {exc}"
    return repr(value), repr(budget)


# integrals whose nonzero budgets the walk propagates
_BUDGETED = [
    Integral("v", parse_expression("exp(-pi*v)")),
    Integral("v", parse_expression("exp(-v)*(1 + a*v)")),
]
# a failure ends the whole evaluation, so failing leaves are rare
_NUMERIC_LEAVES = st.one_of(
    st.integers(-3, 5).map(_lit),
    st.sampled_from([F(1, 2), F(-3, 4), F(7, 3)] * 3 + [F(10 ** 400)]).map(_lit),
    # b is never bound; k is bound only inside a sum
    st.sampled_from(_NAMES * 3 + [ParamRef("b")]),
    st.sampled_from(_BUDGETED),
)


def _numeric_branches(children):
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from("+-*/^"), children, children),
        st.builds(UnaryNeg, children),
        st.builds(lambda lo, hi, body: Sum("k", lo, hi, body), _BOUNDS, _BOUNDS, children),
        st.builds(
            lambda f, x: Call(f, (x,)),
            st.sampled_from(["exp", "ln", "fact", "gammafn", "cosh", "digamma"]),
            children,
        ),
        st.builds(
            lambda f, x, y: Call(f, (x, y)),
            st.sampled_from(["pow", "pow", "binom"]),
            children,
            children,
        ),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.recursive(_NUMERIC_LEAVES, _numeric_branches, max_leaves=10),
    st.sampled_from([-1.0, 0.0, 2.0, 2.5]),
    st.sampled_from([-1.5, 0.75, 3.0]),
    st.sampled_from([300, DEFAULT_EVAL_CAP]),
)
@example(
    BinaryOp("*", _BUDGETED[0], BinaryOp("/", ParamRef("n"), _BUDGETED[1])), 2.0, 0.75,
    DEFAULT_EVAL_CAP,
)
@example(
    BinaryOp("*", _BUDGETED[0], BinaryOp("/", ParamRef("n"), _BUDGETED[1])), 2.0, 0.75, 300
)
def test_numeric_walk_equals_a_float_walk(tree, n, a, cap):
    # value and budget, or the message of the first failure; under a cap of
    # 300 the first of _BUDGETED's integrals (249 samples) leaves the next
    # integral or sum little
    env = bind_parameters({"n": n, "a": a})
    assert _walk_outcome(lambda: _eval_num(tree, dict(env), EvalConfig(), _Work(cap))) == (
        _walk_outcome(lambda: _float_walk(tree, env, _Work(cap)))
    ), tree


_BIG = st.integers(2 ** 2000, 2 ** 6000)
_RATIONALS = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-40, 40), st.integers(1, 40)),
    st.builds(lambda n, d, sign: F(sign * n, d), _BIG, _BIG, st.sampled_from([1, -1])),
    st.builds(lambda n, d: F(n, d), st.integers(-(2 ** 64), 2 ** 64), _BIG),
)


def _as_pair(x):
    return x.numerator, x.denominator


@given(_RATIONALS, _RATIONALS)
def test_pair_helpers_equal_fraction_arithmetic(x, y):
    def check(got, want):
        n, d = got
        assert d > 0 and math.gcd(n, d) == 1
        assert (n, d) == _as_pair(want)

    check(_qadd(*_as_pair(x), *_as_pair(y)), x + y)
    check(_qadd(*_as_pair(x), -y.numerator, y.denominator), x - y)
    check(_qmul(*_as_pair(x), *_as_pair(y)), x * y)
    if y:
        check(_qdiv(*_as_pair(x), *_as_pair(y)), x / y)
    with pytest.raises(ExactEvalError, match="^exact power needs an integer exponent$"):
        _qpow(*_as_pair(x), 1, 2)
    for e in (-3, -1, 0, 1, 2, 17):
        width = max(x.numerator.bit_length(), x.denominator.bit_length())
        if x == 0 and e <= 0:
            with pytest.raises(ExactEvalError, match="^0 to a non-positive power$"):
                _qpow(*_as_pair(x), e, 1)
        elif abs(e) * (width - 1) > 100_000:
            with pytest.raises(ExactEvalError, match="^power would exceed 100000 bits$"):
                _qpow(*_as_pair(x), e, 1)
        else:
            check(_qpow(*_as_pair(x), e, 1), x ** e)
