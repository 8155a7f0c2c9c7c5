"""Evaluate expression ASTs numerically (floats) or exactly (fractions).

The numeric path carries a first-order error budget alongside every value.
Quadrature is the only source that injects nonzero budget; arithmetic then
propagates it linearly so the verifier can add it to the comparison
tolerance. Each integral body is compiled once into a Python function of
its variable (_compile_integral), which quadrature samples; the AST walk
handles the rest of an expression once per evaluation. The exact path
refuses anything that is not rational-valued, so a successful exact
evaluation is a proof-grade computation.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

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
from .registry import RegistryError, exact_power, function_table
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
_NUM_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


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
        except _NUM_ERRORS as exc:
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
        except _NUM_ERRORS as exc:
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
        return _integrate(_compile_integral(node), env, cfg, usage)
    raise TypeError(f"not an expression node: {node!r}")


# make(env, cfg, usage) -> f(x): the integrand of one Integral node
_Make = Callable[[Dict[str, float], EvalConfig, _QuadUsage], Callable[[float], float]]


def _integrate(
    make: _Make,
    env: Dict[str, float],
    cfg: EvalConfig,
    usage: _QuadUsage,
) -> Tuple[float, float]:
    """Value and error estimate of one integral, counted against the cap."""
    remaining = cfg.eval_cap - usage.evals
    if remaining <= 0:
        raise EvalError("evaluation cap exhausted")
    try:
        quad = integrate_decaying(
            make(env, cfg, usage),
            rate=cfg.quad_decay,
            rel_tol=cfg.quad_rel_tol,
            scale=cfg.quad_scale,
            p_max=cfg.quad_p_max,
            vmax=cfg.quad_vmax,
            eval_cap=remaining,
        )
    except QuadratureError as exc:
        raise EvalError(f"quadrature failed: {exc}") from None
    usage.evals += quad.evaluations
    if not quad.converged:
        usage.converged = False
    return quad.value, quad.abs_error_estimate


_MISSING = object()


class _Codegen:
    """Python source for one integral body, computing only its value.

    Every node gets one temporary, computed in _eval_num's operation order,
    so a compiled sample equals the AST walk's value bit for bit; each
    failure raises the EvalError message _eval_num raises. The source holds
    only generated names: values, callables and every string taken from the
    expression reach it through the exec namespace.
    """

    def __init__(self) -> None:
        self.namespace: Dict[str, object] = {
            "EvalError": EvalError,
            "MISSING": _MISSING,
            "NUM_ERRORS": _NUM_ERRORS,
            "isfinite": math.isfinite,
            "near_int": _near_int,
            "integrate": _integrate,
        }
        self.params: Dict[str, str] = {}
        self.lines: List[str] = []
        self.temps = 0

    def const(self, value: object) -> str:
        name = f"c{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def line(self, indent: str, text: str) -> None:
        self.lines.append(indent + text)

    def fail_if(self, indent: str, test: str, message: str) -> None:
        self.line(indent, f"if {test}:")
        self.line(indent, f"    raise EvalError({self.const(message)})")

    def guarded(self, indent: str, stmt: str, prefix: str) -> None:
        self.line(indent, "try:")
        self.line(indent, "    " + stmt)
        self.line(indent, "except NUM_ERRORS as exc:")
        self.line(indent, f"    raise EvalError({self.const(prefix)} + str(exc)) from None")

    def emit(self, node: Node, scope: Dict[str, str], indent: str) -> str:
        """Emit the lines computing node; return the name holding its value.

        scope maps each bound variable in reach to its local name; any other
        name is a parameter, read from env once per make() call.
        """
        if isinstance(node, NumberLiteral):
            return self.const(float(node.value))
        if isinstance(node, ConstantRef):
            return self.const(getattr(constants(), node.name))
        if isinstance(node, (ParamRef, BoundVarRef)):
            local = scope.get(node.name)
            if local is None:
                local = self.params.setdefault(node.name, f"p{len(self.params)}")
                self.fail_if(indent, f"{local} is MISSING", f"unbound name {node.name!r}")
            return local
        if isinstance(node, UnaryNeg):
            v = self.emit(node.operand, scope, indent)
            t = self.temp()
            self.line(indent, f"{t} = -{v}")
            return t
        if isinstance(node, BinaryOp):
            lv = self.emit(node.left, scope, indent)
            rv = self.emit(node.right, scope, indent)
            t = self.temp()
            if node.op in ("+", "-", "*"):
                self.line(indent, f"{t} = {lv} {node.op} {rv}")
            elif node.op == "/":
                self.fail_if(indent, f"{rv} == 0.0", "division by zero")
                self.line(indent, f"{t} = {lv} / {rv}")
            else:
                self.guarded(indent, f"{t} = {lv} ** {rv}", "power failed: ")
                self.fail_if(indent, f"isinstance({t}, complex)", "power produced a complex value")
            return t
        if isinstance(node, Call):
            args = ", ".join(self.emit(arg, scope, indent) for arg in node.args)
            fn = self.const(function_table()[node.name].numeric)
            t = self.temp()
            self.guarded(indent, f"{t} = {fn}({args})", f"{node.name} failed: ")
            self.fail_if(indent, f"not isfinite({t})", f"{node.name} returned a non-finite value")
            return t
        if isinstance(node, Sum):
            lov = self.emit(node.lo, scope, indent)
            hiv = self.emit(node.hi, scope, indent)
            lo, hi, total, k, kv = (self.temp() for _ in range(5))
            self.line(indent, f"{lo} = near_int({lov}, {self.const('sum lower bound')})")
            self.line(indent, f"{hi} = near_int({hiv}, {self.const('sum upper bound')})")
            self.fail_if(indent, f"{hi} - {lo} > {self.const(_SUM_LIMIT)}", "sum range too large")
            self.line(indent, f"{total} = 0.0")
            self.line(indent, f"for {k} in range({lo}, {hi} + 1):")
            inner = indent + "    "
            self.line(inner, f"{kv} = float({k})")
            v = self.emit(node.body, {**scope, node.var: kv}, inner)
            self.line(inner, f"{total} += {v}")
            return total
        if isinstance(node, Integral):
            make = self.const(_compile_integral(node))
            bound, t = self.temp(), self.temp()
            self.line(indent, f"{bound} = dict(env)")
            for name, local in scope.items():
                self.line(indent, f"{bound}[{self.const(name)}] = {local}")
            self.line(indent, f"{t} = integrate({make}, {bound}, cfg, usage)[0]")
            return t
        raise TypeError(f"not an expression node: {node!r}")


@lru_cache(maxsize=256)
def _compile_integral(node: Integral) -> _Make:
    """The integrand of node as a factory make(env, cfg, usage) -> f(x).

    Compiled once per distinct node, on first evaluation, so the function
    table is read after any wrapping of its entries. make reads each
    parameter from env once; f then evaluates the body at one abscissa.
    """
    gen = _Codegen()
    result = gen.emit(node.body, {node.var: "x"}, " " * 8)
    source = "\n".join([
        "def make(env, cfg, usage):",
        *(f"    {local} = env.get({gen.const(name)}, MISSING)"
          for name, local in gen.params.items()),
        "    def f(x):",
        *gen.lines,
        f"        return {result}",
        "    return f",
    ])
    exec(compile(source, "<integral>", "exec"), gen.namespace)
    return gen.namespace["make"]  # type: ignore[return-value]


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
        try:
            return exact_power(lv, rv.numerator)
        except RegistryError as exc:
            raise ExactEvalError(str(exc)) from None
    if isinstance(node, Call):
        spec = function_table()[node.name]
        if spec.exact is None:
            raise ExactEvalError(f"{node.name} has no exact evaluation")
        args = tuple(_eval_exact(a, env) for a in node.args)
        try:
            return spec.exact(*args)
        except _NUM_ERRORS as exc:
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
