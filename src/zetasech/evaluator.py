"""Evaluate expression ASTs numerically (floats) or exactly (fractions).

The numeric path carries a first-order error budget alongside every value.
Quadrature is the only source that injects nonzero budget; arithmetic then
propagates it linearly so the verifier can add it to the comparison
tolerance. Each integral body is compiled once into a Python function of
its variable (_compile_integral), which quadrature samples; the AST walk
handles the rest of an expression once per evaluation.

The exact path compiles each expression once per set of integer-valued
parameters into straight-line Python over ints and Fractions
(_compile_exact); there is no exact tree walk. It refuses anything that is
not rational-valued, so a successful exact evaluation is a proof-grade
computation.

Both compilers emit each sum as a for loop inline in the one generated
function, nested in the loop of its enclosing sum. The parser's cap of 16
nested sums is what keeps that within CPython's 20 nested blocks per code
object.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

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
from .registry import _MAX_EXACT_BITS, RegistryError, exact_power, function_table
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
_BODY = " " * 4


class _Emitter:
    """Python source for one generated function, shared by both compilers.

    Every node gets one temporary, computed in the walk's operation order.
    The source holds only generated names: values, callables and every
    string taken from the expression reach it through the exec namespace,
    where Error is the compiler's exception class. Each Sum is an inline
    for loop, so the loops of nested sums nest in one code object; CPython
    allows 20 nested blocks there, and the parser's cap of 16 nested sums
    leaves room for a loop's guarded call.
    """

    def __init__(self, error: type) -> None:
        self.namespace: Dict[str, object] = {
            "Error": error,
            "MISSING": _MISSING,
            "NUM_ERRORS": _NUM_ERRORS,
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

    def fail(self, indent: str, message: str) -> None:
        self.line(indent, f"raise Error({self.const(message)})")

    def fail_if(self, indent: str, test: str, message: str) -> None:
        self.line(indent, f"if {test}:")
        self.fail(indent + "    ", message)

    def guarded(self, indent: str, stmt: str, prefix: str) -> None:
        self.line(indent, "try:")
        self.line(indent, "    " + stmt)
        self.line(indent, "except NUM_ERRORS as exc:")
        self.line(indent, f"    raise Error({self.const(prefix)} + str(exc)) from None")

    def lookup(self, name: str, scope: Dict[str, str], indent: str) -> str:
        """The local holding a bound variable or parameter. scope maps each
        bound variable in reach to its local; any other name is a parameter,
        read once per call of the generated code."""
        local = scope.get(name)
        if local is not None:
            return local
        local = self.params.setdefault(name, f"p{len(self.params)}")
        self.fail_if(indent, f"{local} is MISSING", f"unbound name {name!r}")
        return local

    def build(self, source: List[str]) -> Dict[str, object]:
        """exec source; the resulting namespace."""
        exec(compile("\n".join(source), "<expression>", "exec"), self.namespace)
        return self.namespace


class _Codegen(_Emitter):
    """Python source for one integral body, computing only its value.

    A compiled sample equals _eval_num's value bit for bit, and each
    failure raises the EvalError message _eval_num raises.
    """

    def __init__(self) -> None:
        super().__init__(EvalError)
        self.namespace.update(isfinite=math.isfinite, near_int=_near_int, integrate=_integrate)

    def emit(self, node: Node, scope: Dict[str, str], indent: str) -> str:
        """Emit the lines computing node; return the name holding its value."""
        if isinstance(node, NumberLiteral):
            return self.const(float(node.value))
        if isinstance(node, ConstantRef):
            return self.const(getattr(constants(), node.name))
        if isinstance(node, (ParamRef, BoundVarRef)):
            return self.lookup(node.name, scope, indent)
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
            inner = indent + _BODY
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
    result = gen.emit(node.body, {node.var: "x"}, _BODY * 2)
    namespace = gen.build([
        "def make(env, cfg, usage):",
        *(f"{_BODY}{local} = env.get({gen.const(name)}, MISSING)"
          for name, local in gen.params.items()),
        f"{_BODY}def f(x):",
        *gen.lines,
        f"{_BODY * 2}return {result}",
        f"{_BODY}return f",
    ])
    return namespace["make"]  # type: ignore[return-value]


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


def _exact_div(x: Union[int, Fraction], y: Union[int, Fraction]) -> Fraction:
    """x / y for nonzero y, a Fraction also when both are ints."""
    if type(x) is int and type(y) is int:
        return Fraction(x, y)
    return x / y


def _exact_pow(x: Union[int, Fraction], y: Union[int, Fraction]) -> Union[int, Fraction]:
    """x ** y for an integer y, with exact_power's refusals as ExactEvalError."""
    if y.denominator != 1:
        raise ExactEvalError("exact power needs an integer exponent")
    try:
        return exact_power(x, y.numerator)
    except RegistryError as exc:
        raise ExactEvalError(str(exc)) from None


# the static type of an exact value: int, Fraction, or None for either
_Type = Optional[type]


class _ExactCodegen(_Emitter):
    """Python source for one exact expression, over ints where it can.

    Integer literals, sum indices and parameters bound to integers are
    Python ints, and so are + - * of ints; / of two ints builds a Fraction.
    A / or ^ whose operand types are not both known goes through a helper,
    because int / int and int ** -n give floats. Exact arithmetic does not
    depend on the grouping of its steps, so the value is the Fraction a
    walk of the tree gives; the steps still run in the walk's order, left
    before right, so the first failure raises the same ExactEvalError. A
    function with no exact form fails before its arguments are evaluated.
    """

    def __init__(self, ints: FrozenSet[str]) -> None:
        super().__init__(ExactEvalError)
        self.namespace.update(Fraction=Fraction, div=_exact_div, power=_exact_pow)
        self.ints = ints

    def emit(self, node: Node, scope: Dict[str, str], indent: str) -> Tuple[str, _Type]:
        """Emit the lines computing node; return its name and static type."""
        if isinstance(node, NumberLiteral):
            if node.value.denominator == 1:
                return self.const(node.value.numerator), int
            return self.const(node.value), Fraction
        if isinstance(node, ConstantRef):
            self.fail(indent, f"constant {node.name!r} is not rational")
            return "None", None
        if isinstance(node, (ParamRef, BoundVarRef)):
            is_int = node.name in scope or node.name in self.ints
            return self.lookup(node.name, scope, indent), int if is_int else Fraction
        if isinstance(node, UnaryNeg):
            v, typ = self.emit(node.operand, scope, indent)
            t = self.temp()
            self.line(indent, f"{t} = -{v}")
            return t, typ
        if isinstance(node, BinaryOp):
            lv, lt = self.emit(node.left, scope, indent)
            rv, rt = self.emit(node.right, scope, indent)
            t = self.temp()
            if node.op == "^":
                self.line(indent, f"{t} = power({lv}, {rv})")
                return t, Fraction if lt is Fraction else None
            if node.op == "/":
                self.fail_if(indent, f"{rv} == 0", "division by zero")
                if lt is int and rt is int:
                    self.line(indent, f"{t} = Fraction({lv}, {rv})")
                elif Fraction in (lt, rt):
                    self.line(indent, f"{t} = {lv} / {rv}")
                else:
                    self.line(indent, f"{t} = div({lv}, {rv})")
                return t, Fraction
            self.line(indent, f"{t} = {lv} {node.op} {rv}")
            if lt is int and rt is int:
                return t, int
            return t, Fraction if Fraction in (lt, rt) else None
        if isinstance(node, Call):
            fn = function_table()[node.name].exact
            if fn is None:
                self.fail(indent, f"{node.name} has no exact evaluation")
                return "None", None
            args = ", ".join(self.emit(arg, scope, indent)[0] for arg in node.args)
            t = self.temp()
            self.guarded(indent, f"{t} = {self.const(fn)}({args})", f"{node.name} failed: ")
            return t, None
        if isinstance(node, Sum):
            lo, lt = self.emit(node.lo, scope, indent)
            hi, ht = self.emit(node.hi, scope, indent)
            if lt is not int or ht is not int:
                self.fail_if(
                    indent,
                    f"{lo}.denominator != 1 or {hi}.denominator != 1",
                    "sum bounds must be integers",
                )
                lo, hi = f"{lo}.numerator", f"{hi}.numerator"
            total, k = self.temp(), self.temp()
            self.fail_if(indent, f"{hi} - {lo} > {self.const(_SUM_LIMIT)}", "sum range too large")
            self.line(indent, f"{total} = 0")
            self.line(indent, f"for {k} in range({lo}, {hi} + 1):")
            inner = indent + _BODY
            v, typ = self.emit(node.body, {**scope, node.var: k}, inner)
            self.line(inner, f"{total} += {v}")
            # a long sum grows its total past any single operation's cap
            cap = self.const(_MAX_EXACT_BITS)
            if typ is int:
                too_big = f"{total}.bit_length() > {cap}"
            else:
                too_big = (
                    f"{total}.numerator.bit_length() > {cap}"
                    f" or {total}.denominator.bit_length() > {cap}"
                )
            self.fail_if(inner, too_big, f"sum would exceed {_MAX_EXACT_BITS} bits")
            return total, int if typ is int else None
        if isinstance(node, Integral):
            self.fail(indent, "integrals have no exact evaluation")
            return "None", None
        raise TypeError(f"not an expression node: {node!r}")


class _Identity:
    """A node as a cache key, by identity: a catalog run evaluates the
    same parsed sides many times, and hashing a frozen tree walks all of
    it (~6 us a side). The key holds the node, so its id stays unique."""

    __slots__ = ("node",)

    def __init__(self, node: Node) -> None:
        self.node = node

    def __hash__(self) -> int:
        return id(self.node)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Identity) and self.node is other.node


@lru_cache(maxsize=256)
def _compile_exact(
    key: _Identity, ints: FrozenSet[str]
) -> Callable[[Mapping[str, object]], Fraction]:
    """key's node as a function run(env) -> Fraction of its parameter
    bindings, where the names in ints are bound to Python ints and the
    rest to Fractions. Compiled once per node and ints, on first
    evaluation, so the function table is read after any wrapping of its
    entries."""
    node = key.node
    gen = _ExactCodegen(ints)
    result, typ = gen.emit(node, {}, _BODY)
    namespace = gen.build([
        "def run(env):",
        *(f"{_BODY}{local} = env.get({gen.const(name)}, MISSING)"
          for name, local in gen.params.items()),
        *gen.lines,
        f"{_BODY}return {result if typ is Fraction else f'Fraction({result})'}",
    ])
    return namespace["run"]  # type: ignore[return-value]


def evaluate_exact(node: Node, params: Mapping[str, Fraction]) -> Fraction:
    env: Dict[str, object] = {
        name: value.numerator if value.denominator == 1 else value
        for name, value in bind_parameters_exact(params).items()
    }
    ints = frozenset(name for name, value in env.items() if type(value) is int)
    try:
        return _compile_exact(_Identity(node), ints)(env)
    except RecursionError:
        raise ExactEvalError("expression nested too deeply to evaluate") from None
