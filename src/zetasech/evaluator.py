"""Evaluate expression ASTs numerically (floats) or exactly (fractions).

The numeric path carries a first-order error budget alongside every value.
Quadrature is the only source that injects nonzero budget; arithmetic then
propagates it linearly so the verifier can add it to the comparison
tolerance. The exact path refuses anything that is not rational-valued, so
a successful exact evaluation is a proof-grade computation.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple, Union

from .exprlang import (
    BinaryOp,
    BoundVarRef,
    Call,
    ConstantRef,
    Integral,
    Node,
    NumberLiteral,
    ParamRef,
    Sum,
    UnaryNeg,
)
from .quadrature import DEFAULT_EVAL_CAP, QuadratureError, integrate_decaying
from .registry import function_table
from .specfun import constants

__all__ = [
    "EvalConfig",
    "EvalError",
    "ExactEvalError",
    "NumericResult",
    "bind_parameters",
    "bind_parameters_exact",
    "evaluate_exact",
    "evaluate_numeric",
]

_SUM_LIMIT = 1_000_000


class EvalError(ValueError):
    """Numeric evaluation failure (domain error, unbound name, overflow)."""


class ExactEvalError(ValueError):
    """The expression has no exact rational evaluation."""


@dataclass(frozen=True)
class EvalConfig:
    quad_rel_tol: float = 1e-12
    quad_decay: float = math.pi
    quad_vmax: Optional[float] = None
    quad_scale: float = 1.0
    quad_p_max: int = 8
    eval_cap: int = DEFAULT_EVAL_CAP


@dataclass(frozen=True)
class NumericResult:
    value: float
    err_budget: float
    quad_evals: int
    converged: bool


def bind_parameters(params: Mapping[str, float]) -> Dict[str, float]:
    """Float bindings with the derived q = a/4 + 1/4 injected when absent."""
    env = {name: float(value) for name, value in params.items()}
    if "q" in env and "a" in env:
        warnings.warn("explicit q overrides the derived q = a/4 + 1/4 binding")
    elif "a" in env:
        env["q"] = env["a"] / 4.0 + 0.25
    return env


def bind_parameters_exact(params: Mapping[str, Fraction]) -> Dict[str, Fraction]:
    """Fraction bindings with the same derived q rule as the float path."""
    env = {name: Fraction(value) for name, value in params.items()}
    if "q" in env and "a" in env:
        warnings.warn("explicit q overrides the derived q = a/4 + 1/4 binding")
    elif "a" in env:
        env["q"] = env["a"] / 4 + Fraction(1, 4)
    return env


class _QuadUsage:
    __slots__ = ("evals", "converged")

    def __init__(self) -> None:
        self.evals = 0
        self.converged = True


def _near_int(x: float, what: str) -> int:
    n = round(x)
    if abs(x - n) > 1e-9:
        raise EvalError(f"{what} must be an integer, got {x!r}")
    return int(n)


def _eval_num(
    node: Node,
    env: Dict[str, float],
    cfg: EvalConfig,
    usage: _QuadUsage,
) -> Tuple[float, float]:
    if isinstance(node, NumberLiteral):
        return float(node.value), 0.0
    if isinstance(node, ConstantRef):
        return getattr(constants(), node.name), 0.0
    if isinstance(node, (ParamRef, BoundVarRef)):
        try:
            return env[node.name], 0.0
        except KeyError:
            raise EvalError(f"unbound name {node.name!r}") from None
    if isinstance(node, UnaryNeg):
        v, e = _eval_num(node.operand, env, cfg, usage)
        return -v, e
    if isinstance(node, BinaryOp):
        lv, le = _eval_num(node.left, env, cfg, usage)
        rv, re_ = _eval_num(node.right, env, cfg, usage)
        op = node.op
        if op == "+":
            return lv + rv, le + re_
        if op == "-":
            return lv - rv, le + re_
        if op == "*":
            return lv * rv, abs(lv) * re_ + abs(rv) * le
        if op == "/":
            if rv == 0.0:
                raise EvalError("division by zero")
            v = lv / rv
            return v, le / abs(rv) + abs(v / rv) * re_
        # power
        try:
            v = lv ** rv
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            raise EvalError(f"power failed: {exc}") from None
        if isinstance(v, complex):
            raise EvalError("power produced a complex value")
        err = 0.0
        if le:
            if lv != 0.0:
                err += abs(rv * v / lv) * le
        if re_ and lv > 0.0:
            err += abs(v * math.log(lv)) * re_
        return v, err
    if isinstance(node, Call):
        vals = []
        errs = 0.0
        for arg in node.args:
            av, ae = _eval_num(arg, env, cfg, usage)
            vals.append(av)
            errs += ae
        spec = function_table()[node.name]
        try:
            v = spec.numeric(*vals)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalError(f"{node.name} failed: {exc}") from None
        if not math.isfinite(v):
            raise EvalError(f"{node.name} returned a non-finite value")
        return v, errs
    if isinstance(node, Sum):
        lov, _ = _eval_num(node.lo, env, cfg, usage)
        hiv, _ = _eval_num(node.hi, env, cfg, usage)
        lo = _near_int(lov, "sum lower bound")
        hi = _near_int(hiv, "sum upper bound")
        if hi - lo > _SUM_LIMIT:
            raise EvalError("sum range too large")
        total = 0.0
        total_err = 0.0
        saved = env.get(node.var)
        had = node.var in env
        try:
            for k in range(lo, hi + 1):
                env[node.var] = float(k)
                v, e = _eval_num(node.body, env, cfg, usage)
                total += v
                total_err += e
        finally:
            if had:
                env[node.var] = saved  # type: ignore[assignment]
            else:
                env.pop(node.var, None)
        return total, total_err
    if isinstance(node, Integral):
        saved = env.get(node.var)
        had = node.var in env

        def integrand(x: float) -> float:
            env[node.var] = x
            v, _ = _eval_num(node.body, env, cfg, usage)
            return v

        try:
            remaining = cfg.eval_cap - usage.evals
            if remaining <= 0:
                raise EvalError("evaluation cap exhausted")
            try:
                quad = integrate_decaying(
                    integrand,
                    rate=cfg.quad_decay,
                    rel_tol=cfg.quad_rel_tol,
                    scale=cfg.quad_scale,
                    p_max=cfg.quad_p_max,
                    vmax=cfg.quad_vmax,
                    eval_cap=remaining,
                )
            except QuadratureError as exc:
                raise EvalError(f"quadrature failed: {exc}") from None
        finally:
            if had:
                env[node.var] = saved  # type: ignore[assignment]
            else:
                env.pop(node.var, None)
        usage.evals += quad.evaluations
        if not quad.converged:
            usage.converged = False
        return quad.value, quad.abs_error_estimate
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_numeric(
    node: Node,
    params: Mapping[str, float],
    config: Optional[EvalConfig] = None,
) -> NumericResult:
    cfg = config or EvalConfig()
    usage = _QuadUsage()
    env = bind_parameters(params)
    try:
        value, err = _eval_num(node, env, cfg, usage)
    except RecursionError:
        raise EvalError("expression nested too deeply to evaluate") from None
    return NumericResult(value, err, usage.evals, usage.converged)


def _eval_exact(node: Node, env: Dict[str, Fraction]) -> Fraction:
    if isinstance(node, NumberLiteral):
        return node.value
    if isinstance(node, ConstantRef):
        raise ExactEvalError(f"constant {node.name!r} is not rational")
    if isinstance(node, (ParamRef, BoundVarRef)):
        try:
            return env[node.name]
        except KeyError:
            raise ExactEvalError(f"unbound name {node.name!r}") from None
    if isinstance(node, UnaryNeg):
        return -_eval_exact(node.operand, env)
    if isinstance(node, BinaryOp):
        lv = _eval_exact(node.left, env)
        rv = _eval_exact(node.right, env)
        op = node.op
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
        if op == "/":
            if rv == 0:
                raise ExactEvalError("division by zero")
            return lv / rv
        if rv.denominator != 1:
            raise ExactEvalError("exact power needs an integer exponent")
        n = rv.numerator
        if lv == 0 and n <= 0:
            raise ExactEvalError("0 to a non-positive power")
        return lv ** n
    if isinstance(node, Call):
        spec = function_table()[node.name]
        if spec.exact is None:
            raise ExactEvalError(f"{node.name} has no exact evaluation")
        args = tuple(_eval_exact(a, env) for a in node.args)
        try:
            return spec.exact(*args)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ExactEvalError(f"{node.name} failed: {exc}") from None
    if isinstance(node, Sum):
        lo = _eval_exact(node.lo, env)
        hi = _eval_exact(node.hi, env)
        if lo.denominator != 1 or hi.denominator != 1:
            raise ExactEvalError("sum bounds must be integers")
        if hi.numerator - lo.numerator > _SUM_LIMIT:
            raise ExactEvalError("sum range too large")
        total = Fraction(0)
        saved = env.get(node.var)
        had = node.var in env
        try:
            for k in range(lo.numerator, hi.numerator + 1):
                env[node.var] = Fraction(k)
                total += _eval_exact(node.body, env)
        finally:
            if had:
                env[node.var] = saved  # type: ignore[assignment]
            else:
                env.pop(node.var, None)
        return total
    if isinstance(node, Integral):
        raise ExactEvalError("integrals have no exact evaluation")
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_exact(node: Node, params: Mapping[str, Fraction]) -> Fraction:
    env = bind_parameters_exact(params)
    try:
        return _eval_exact(node, env)
    except RecursionError:
        raise ExactEvalError("expression nested too deeply to evaluate") from None
