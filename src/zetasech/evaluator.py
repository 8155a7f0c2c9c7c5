"""Evaluate expression ASTs numerically (floats) or exactly (fractions).

The numeric path carries a first-order error budget alongside every value.
Quadrature is the only source that injects nonzero budget; arithmetic then
propagates it linearly so the verifier can add it to the comparison
tolerance. Each integral body is compiled once into a Python function of
its variable (_compile_integral), which quadrature samples; the AST walk
handles the rest of an expression once per evaluation. Both read a number
literal's float from the node (NumberLiteral.fvalue, converted once when
the node is built), not from its Fraction.

Code is generated only for what runs at every quadrature sample: the
per-sample function of each integral body that holds no Sum and no
Integral, which quadrature calls hundreds of times per integral. Every
other part of a side, numeric or exact, is walked, and so is every sample
of a body that holds a sum or an integral. One pass over a body
(_fixed_subtrees) finds the subtrees that read only parameters, and
stops at a Sum or an Integral. Those subtrees are walked too, by one
rule: make walks each distinct one, a lone parameter included, once per
integral, before quadrature starts, and hands its value to the generated
function as a local (_Codegen keys them by value). Their failures
therefore raise the walk's message before the first sample, and before
the quadrature settings are checked. Generated sources hold only
generated names, so each distinct text is compiled once and its code
object run in each tree's namespace.

The generated code tests nothing step by step. It runs straight through
inside one try, with one finiteness test over the results of its calls and
powers, and on any failure hands the sample to the AST walk, which gives
the same value or raises its own message. Every error message therefore
comes from _eval_num alone.

The exact path walks the tree over Python ints and pairs of ints, a
numerator and a positive denominator in lowest terms (_eval_exact), and
reads a literal's value from NumberLiteral.exact, built with the node. Pairs
are added, multiplied and divided by Fraction's own gcd rules, and a
Fraction is built only for a registry function's argument and for the
result. It refuses anything that is not rational-valued, so a successful
exact evaluation is a proof-grade computation.

The exact path computes each registry value and each rational power once
per process: a call is looked up by the registry's exact callable and its
operands as ints or pairs (_exact_call), after they are evaluated and
before any Fraction is built, and a power by (p, q, n) in pair_power. Both
caches are bounded lru_caches that fill on first use. An exact result is
the one rational those inputs have, and a refusal raises without being
stored, so no value or message depends on what ran before.
"""
from __future__ import annotations

import math
import warnings
from collections import namedtuple
from collections.abc import Callable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import CodeType

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
from .quadrature import QuadratureError, integrate_decaying
from .registry import _MAX_EXACT_BITS, RegistryError, function_table, pair_power
from .specfun import constants

__all__ = [
    "DEFAULT_EVAL_CAP",
    "EvalConfig",
    "EvalError",
    "ExactEvalError",
    "NumericResult",
    "bind_parameters",
    "evaluate_exact",
    "evaluate_numeric",
]

DEFAULT_EVAL_CAP = 1_000_000
_OVER_CAP = "eval cap {} exceeded by sum passes and integrand samples"
_NOT_FINITE = "the {} is not finite: {!r}"
_NUM_ERRORS = (ValueError, ZeroDivisionError, OverflowError)
_HUGE_LITERAL = "number literal too large for a float"
_MISSING = object()


class EvalError(ValueError):
    """Numeric evaluation failure (domain error, unbound name, overflow)."""


class ExactEvalError(ValueError):
    """The expression has no exact rational evaluation."""


class EvalConfig(
    namedtuple(
        "EvalConfig",
        (
            "quad_decay",  # float
            "quad_vmax",  # float | None
            "quad_p_max",  # int
            "eval_cap",  # int
        ),
        defaults=(math.pi, None, 8, DEFAULT_EVAL_CAP),
    )
):
    """Quadrature settings and the work cap of one numeric evaluation."""

    __slots__ = ()


class NumericResult(namedtuple("NumericResult", ("value", "err_budget", "quad_evals"))):
    """A numeric evaluation: its value and error budget (floats) and the
    quadrature samples it took (int)."""

    __slots__ = ()


def _derive_q(env: dict) -> dict:
    """env, of floats or of Fractions, with q = a/4 + 1/4 bound in their
    arithmetic where a is bound and q is not; where both are, the explicit
    q is kept, with a warning. In floats (a + 1)/4 is a/4 + 0.25 bit for
    bit: dividing by 4 is exact above the subnormal range, and below it
    both give 0.25."""
    if "a" in env:
        if "q" in env:
            warnings.warn("explicit q overrides the derived q = a/4 + 1/4 binding")
        else:
            env["q"] = (env["a"] + 1) / 4
    return env


def bind_parameters(params: Mapping[str, float]) -> dict[str, float]:
    """Float bindings with the derived q (_derive_q)."""
    return _derive_q({name: float(value) for name, value in params.items()})


class _Work:
    """The work of one evaluation: quadrature samples (evals) and passes
    through sum bodies (passes). A sum charges its range length to passes
    as it starts, and a quadrature level its samples to evals; either is
    refused, with error, once evals + passes > cap. charge is the one
    place work meets the cap."""

    __slots__ = ("cap", "error", "evals", "passes")

    def __init__(self, cap: int = DEFAULT_EVAL_CAP, error: type[ValueError] = EvalError) -> None:
        self.cap = cap
        self.error = error
        self.evals = self.passes = 0

    def charge(self, evals: int = 0, passes: int = 0) -> None:
        """Charge a quadrature level's samples, or a sum's passes, before
        they run; past the cap this refuses them."""
        self.evals += evals
        self.passes += passes
        if self.evals + self.passes > self.cap:
            raise self.error(_OVER_CAP.format(self.cap))


def _near_int(x: float, what: str) -> int:
    if math.isfinite(x):
        n = round(x)
        if abs(x - n) <= 1e-9:
            return n
    raise EvalError(f"{what} must be an integer, got {x!r}")


def _sum_range(lov: float, hiv: float, usage: _Work) -> Iterator[float]:
    """The index values, as floats, of a sum with bounds lov and hiv, its
    range length charged to usage.passes against the cap."""
    lo = _near_int(lov, "sum lower bound")
    hi = _near_int(hiv, "sum upper bound")
    usage.charge(passes=max(hi - lo + 1, 0))
    return map(float, range(lo, hi + 1))


def _eval_num(
    node: Node,
    env: dict[str, float],
    cfg: EvalConfig,
    usage: _Work,
) -> tuple[float, float]:
    """node's value and error budget.

    Operators and leaves are most of the nodes on closed-form sides, so
    the walk tests the node's type once, operators first, and reads a leaf
    operand (a literal in the float range, or a bound name) in place. Any
    other operand, a failing leaf included, is walked, so every message
    comes from the leaf's own rule and the left operand fails before the
    right one.
    """
    t = type(node)
    if t is BinaryOp:
        a = node.left
        at = type(a)
        if at is NumberLiteral and a.fvalue is not None:
            lv, le = a.fvalue, 0.0
        elif (at is ParamRef or at is BoundVarRef) and a.name in env:
            lv, le = env[a.name], 0.0
        else:
            lv, le = _eval_num(a, env, cfg, usage)
        b = node.right
        bt = type(b)
        if bt is NumberLiteral and b.fvalue is not None:
            rv, re_ = b.fvalue, 0.0
        elif (bt is ParamRef or bt is BoundVarRef) and b.name in env:
            rv, re_ = env[b.name], 0.0
        else:
            rv, re_ = _eval_num(b, env, cfg, usage)
        op = node.op
        if op == "+":
            return lv + rv, le + re_
        if op == "-":
            return lv - rv, le + re_
        # a term whose operand budget is 0 is skipped: adding +0.0 changes
        # no finite budget, but inf * 0 would make it NaN
        if op == "*":
            err = abs(lv) * re_ if re_ else 0.0
            return lv * rv, err + abs(rv) * le if le else err
        if op == "/":
            if rv == 0.0:
                raise EvalError("division by zero")
            v = lv / rv
            err = le / abs(rv) if le else 0.0
            return v, err + abs(v / rv) * re_ if re_ else err
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
    if t is Call:
        vals = []
        errs = 0.0
        for a in node.args:
            at = type(a)
            if at is NumberLiteral and a.fvalue is not None:
                vals.append(a.fvalue)
            elif (at is ParamRef or at is BoundVarRef) and a.name in env:
                vals.append(env[a.name])
            else:
                av, ae = _eval_num(a, env, cfg, usage)
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
    if t is UnaryNeg:
        a = node.operand
        at = type(a)
        if at is NumberLiteral and a.fvalue is not None:
            return -a.fvalue, 0.0
        if (at is ParamRef or at is BoundVarRef) and a.name in env:
            return -env[a.name], 0.0
        v, e = _eval_num(a, env, cfg, usage)
        return -v, e
    if t is NumberLiteral:
        if node.fvalue is None:
            raise EvalError(_HUGE_LITERAL)
        return node.fvalue, 0.0
    if t is ParamRef or t is BoundVarRef:
        try:
            return env[node.name], 0.0
        except KeyError:
            raise EvalError(f"unbound name {node.name!r}") from None
    if t is ConstantRef:
        return getattr(constants(), node.name), 0.0
    if t is Sum:
        lov, _ = _eval_num(node.lo, env, cfg, usage)
        hiv, _ = _eval_num(node.hi, env, cfg, usage)
        indices = _sum_range(lov, hiv, usage)
        total = 0.0
        total_err = 0.0
        saved = env.get(node.var, _MISSING)
        try:
            for k in indices:
                env[node.var] = k
                v, e = _eval_num(node.body, env, cfg, usage)
                total += v
                total_err += e
        finally:
            if saved is _MISSING:
                env.pop(node.var, None)
            else:
                env[node.var] = saved  # type: ignore[assignment]
        return total, total_err
    if t is Integral:
        return _integrate(_compile_integral(node), env, cfg, usage)
    raise TypeError(f"not an expression node: {node!r}")


# make(env, cfg, usage) -> f(x): the integrand of one Integral node
_Make = Callable[[dict[str, float], EvalConfig, _Work], Callable[[float], float]]


def _integrate(
    make: _Make,
    env: dict[str, float],
    cfg: EvalConfig,
    usage: _Work,
) -> tuple[float, float]:
    """Value and error estimate of one integral. Each level's samples are
    charged to usage.evals as it starts, so the sums and integrals it runs
    meanwhile are checked against them, and usage.charge alone stops it at
    the cap. It raises on a value that is not finite, then on a ladder
    that ran out unconverged."""
    try:
        quad = integrate_decaying(
            make(env, cfg, usage),
            rate=cfg.quad_decay,
            p_max=cfg.quad_p_max,
            vmax=cfg.quad_vmax,
            charge=usage.charge,
        )
    except QuadratureError as exc:
        raise EvalError(f"quadrature failed: {exc}") from None
    if not math.isfinite(quad.value):
        raise EvalError(_NOT_FINITE.format("value", quad.value))
    if not quad.converged:
        raise EvalError(f"quadrature did not converge after {quad.evaluations} evaluations")
    return quad.value, quad.abs_error_estimate


_BODY = " " * 4
# what a generated fast path catches: float arithmetic's ZeroDivisionError
# and OverflowError, the ValueErrors of registry functions, and the
# TypeError a complex value meets
_FAILS = (ArithmeticError, ValueError, TypeError)


@lru_cache(maxsize=256)
def _compiled(source: str) -> CodeType:
    """source compiled once: the text holds only generated names, so trees
    of one shape share a code object and differ in their namespaces."""
    return compile(source, "<expression>", "exec")


class _HoldsLoop(Exception):
    """An integral body holds a Sum or an Integral, so the walk samples it."""


def _fixed_subtrees(node: Node, var: str, out: set[int]) -> bool:
    """Whether node reads no var; adds the id of each such subtree, node
    included, to out. A Sum or an Integral raises _HoldsLoop."""
    if isinstance(node, (Sum, Integral)):
        raise _HoldsLoop
    if isinstance(node, (ParamRef, BoundVarRef)):
        fixed = node.name != var
    elif isinstance(node, UnaryNeg):
        fixed = _fixed_subtrees(node.operand, var, out)
    elif isinstance(node, BinaryOp):
        left = _fixed_subtrees(node.left, var, out)
        fixed = _fixed_subtrees(node.right, var, out) and left
    elif isinstance(node, Call):
        # a list, not a generator: every argument is searched
        fixed = all([_fixed_subtrees(arg, var, out) for arg in node.args])
    else:
        fixed = True
    if fixed:
        out.add(id(node))
    return fixed


class _Codegen:
    """Python source for the per-sample function f of one integral body
    that holds no Sum and no Integral; constructing one raises _HoldsLoop
    for any other body.

    Every node gets one temporary, computed in the walk's operation order,
    so a value is the walk's bit for bit. The source holds only generated
    names; values and callables reach it through the exec namespace, and
    the values of one integral through the arguments of the binder that
    returns f, which f reads as locals; f's argument x is the integration
    variable.

    Parameter-only work is not generated. Every subtree that does not read
    the integration variable, a lone parameter included, is walked once per
    integral by make, unless it is a float literal or a constant. walked
    maps each such subtree to its local; nodes compare by value, so a
    subtree that occurs twice is walked once. A literal past the float
    range is such a subtree, so make raises the walk's message for it.

    f tests no step: it runs straight through inside one try. Division by
    zero and the errors of functions raise on their own; one finiteness
    test over every call and power result (checks) catches an infinite or
    NaN result and a complex power. On a failure f hands the sample to the
    walk, which gives the same value or raises its own message.
    """

    def __init__(self, node: Integral) -> None:
        self.namespace: dict[str, object] = {
            "FAILS": _FAILS,
            "isfinite": math.isfinite,
            "walk": _eval_num,
        }
        self.walked: dict[Node, str] = {}
        self.lines: list[str] = []
        # the call and power results that the finiteness test covers
        self.checks: list[str] = []
        self.temps = 0
        self.fixed: set[int] = set()
        _fixed_subtrees(node.body, node.var, self.fixed)

    def const(self, value: object) -> str:
        name = f"c{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def emit(self, node: Node) -> str:
        """Emit the lines computing node; return the name holding its value."""
        if isinstance(node, NumberLiteral) and node.fvalue is not None:
            return self.const(node.fvalue)
        if isinstance(node, ConstantRef):
            return self.const(getattr(constants(), node.name))
        if id(node) in self.fixed:
            return self.walked.setdefault(node, f"h{len(self.walked)}")
        if isinstance(node, (ParamRef, BoundVarRef)):
            return "x"  # a name that is not fixed is the integration variable
        if isinstance(node, UnaryNeg):
            v = self.emit(node.operand)
            t = self.temp()
            self.lines.append(f"{t} = -{v}")
            return t
        if isinstance(node, BinaryOp):
            lv = self.emit(node.left)
            rv = self.emit(node.right)
            t = self.temp()
            op = "**" if node.op == "^" else node.op
            self.lines.append(f"{t} = {lv} {op} {rv}")
            if op == "**":
                self.checks.append(t)
            return t
        if isinstance(node, Call):
            args = ", ".join(self.emit(arg) for arg in node.args)
            fn = self.const(function_table()[node.name].numeric)
            t = self.temp()
            self.lines.append(f"{t} = {fn}({args})")
            self.checks.append(t)
            return t
        raise TypeError(f"not an expression node: {node!r}")


@lru_cache(maxsize=256)
def _compile_integral(node: Integral) -> _Make:
    """The integrand of node as a factory make(env, cfg, usage) -> f(x).

    Compiled once per distinct node, on first evaluation, so the function
    table is read after any wrapping of its entries. One pass over the body
    (_fixed_subtrees) finds its parameter-only subtrees, and stops at a Sum
    or an Integral: such a body is sampled by the walk. For any other body,
    make walks each distinct parameter-only subtree (see _Codegen) once, in
    the walk's order, so the first of their failures raises before the
    first sample and before the quadrature settings are checked. It binds
    their values into the generated f, which evaluates the rest of the body
    at one abscissa on the fast path and falls back to the walk at that
    abscissa.
    """
    body, var = node.body, node.var
    try:
        gen = _Codegen(node)
    except _HoldsLoop:
        return lambda env, cfg, usage: lambda x: _eval_num(body, {**env, var: x}, cfg, usage)[0]
    fast, ret = gen.lines, f"return {gen.emit(body)}"
    if gen.checks:
        # from a first factor of 0.0 every partial product is exactly 0.0 or
        # -0.0 while the factors are finite floats, so large finite values
        # never fail the test; an infinite or NaN factor makes it NaN, and a
        # complex one raises TypeError in isfinite
        fast.append(f"if isfinite({' * '.join(['0.0', *gen.checks])}):")
        ret = _BODY + ret
    sample = [
        "try:",
        *(_BODY + line for line in [*fast, ret]),
        "except FAILS:",
        _BODY + "pass",
        f"return walk({gen.const(body)}, {{**env, {gen.const(var)}: x}}, cfg, usage)[0]",
    ]
    source = [
        f"def bind({', '.join(['env', 'cfg', 'usage', *gen.walked.values()])}):",
        f"{_BODY}def f(x):",
        *(_BODY * 2 + line for line in sample),
        f"{_BODY}return f",
    ]
    exec(_compiled("\n".join(source)), gen.namespace)
    bind = gen.namespace["bind"]
    walked = tuple(gen.walked)

    def make(env: dict[str, float], cfg: EvalConfig, usage: _Work) -> Callable[[float], float]:
        values = [_eval_num(sub, env, cfg, usage)[0] for sub in walked]
        return bind(env, cfg, usage, *values)  # type: ignore[operator]

    return make


def evaluate_numeric(
    node: Node,
    params: Mapping[str, float],
    config: EvalConfig | None = None,
) -> NumericResult:
    """node's value, error budget and quadrature samples. A value or budget
    that is not finite, or an integral that did not converge, raises."""
    cfg = config or EvalConfig()
    usage = _Work(cfg.eval_cap)
    env = bind_parameters(params)
    try:
        value, err = _eval_num(node, env, cfg, usage)
    except RecursionError:
        raise EvalError("expression nested too deeply to evaluate") from None
    if not math.isfinite(value):
        raise EvalError(_NOT_FINITE.format("value", value))
    if not math.isfinite(err):
        raise EvalError(_NOT_FINITE.format("error budget", err))
    return NumericResult(value, err, usage.evals)


def _qadd(na: int, da: int, nb: int, db: int) -> tuple[int, int]:
    """na/da + nb/db for pairs in lowest terms with positive denominators,
    as such a pair. Fraction's own rule (Knuth, TAOCP Vol. 2, 4.5.1): the
    gcd of the denominators first, then the sum's gcd only against that
    one, which keeps a long running total with small terms cheap."""
    g = gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _qmul(na: int, da: int, nb: int, db: int) -> tuple[int, int]:
    """na/da * nb/db as _qadd's pairs, cross-cancelling before multiplying."""
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return na * nb, da * db


def _qdiv(na: int, da: int, nb: int, db: int) -> tuple[int, int]:
    """na/da / (nb/db) as _qadd's pairs, for nonzero nb."""
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(da, db)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    return (-n, -d) if d < 0 else (n, d)


def _qpow(p: int, q: int, en: int, ed: int) -> tuple[int, int]:
    """(p/q) ** (en/ed) as _qadd's pairs, with pair_power's refusals as
    ExactEvalError."""
    if ed != 1:
        raise ExactEvalError("exact power needs an integer exponent")
    try:
        return pair_power(p, q, en)
    except RegistryError as exc:
        raise ExactEvalError(str(exc)) from None


# an exact value: an int, or a pair (numerator, denominator) in lowest
# terms with a positive denominator
_Exact = int | tuple[int, int]


# A catalog pass makes 521 distinct exact calls, ~270 bytes an entry. An
# entry holds its operands and its result. fact, binom and gammafn results
# are under _MAX_EXACT_BITS (12.5 kB) and pow's pairs under ~40 kB (see
# pair_power), so 1,024 entries of those hold at most ~40 MB; a Bernoulli or
# Euler polynomial value has about (order + 1) times its argument's bits.
@lru_cache(maxsize=1024)
def _exact_call(fn: Callable[..., int | Fraction], *args: _Exact) -> _Exact:
    """fn at args, an int or a pair as _eval_exact returns it. The key is
    the registry's exact callable itself and its operands as ints or pairs,
    so no Fraction is built on a hit. A result is the one rational that fn
    gives at those operands, so a hit is the value a call would return;
    a refusal raises and is not stored, so each repeat raises it again."""
    result = fn(*[v if type(v) is int else Fraction(*v) for v in args])
    return result if type(result) is int else (result.numerator, result.denominator)


def _eval_exact(node: Node, env: dict[str, _Exact], work: _Work) -> _Exact:
    """node's exact value. + - * of two ints stay ints; every other result
    of arithmetic is a pair from _qadd, _qmul, _qdiv or _qpow, an int
    entering as its value over 1. A registry function gets a Fraction for
    each pair argument, since its messages print the argument, and its
    result stays an int when it is one.

    The value is the Fraction a plain Fraction walk gives, and the first
    failure raises the same ExactEvalError: steps run left before right, a
    name fails at its first read, and a function with no exact form fails
    before its arguments are evaluated. As in _eval_num, the node's type is
    tested once and a leaf operand (a literal, or a bound name) is read in
    place; an unbound name is walked, so its own rule raises.
    """
    t = type(node)
    if t is BinaryOp:
        a = node.left
        at = type(a)
        if at is NumberLiteral:
            x = a.exact
        elif (at is ParamRef or at is BoundVarRef) and a.name in env:
            x = env[a.name]
        else:
            x = _eval_exact(a, env, work)
        b = node.right
        bt = type(b)
        if bt is NumberLiteral:
            y = b.exact
        elif (bt is ParamRef or bt is BoundVarRef) and b.name in env:
            y = env[b.name]
        else:
            y = _eval_exact(b, env, work)
        op = node.op
        if type(x) is int:
            if type(y) is int:
                if op == "+":
                    return x + y
                if op == "-":
                    return x - y
                if op == "*":
                    return x * y
            xn, xd = x, 1
        else:
            xn, xd = x
        yn, yd = (y, 1) if type(y) is int else y
        if op == "+":
            return _qadd(xn, xd, yn, yd)
        if op == "-":
            return _qadd(xn, xd, -yn, yd)
        if op == "*":
            return _qmul(xn, xd, yn, yd)
        if op == "/":
            if yn == 0:
                raise ExactEvalError("division by zero")
            return _qdiv(xn, xd, yn, yd)
        return _qpow(xn, xd, yn, yd)
    if t is Call:
        fn = function_table()[node.name].exact
        if fn is None:
            raise ExactEvalError(f"{node.name} has no exact evaluation")
        args = [fn]
        for a in node.args:
            at = type(a)
            if at is NumberLiteral:
                args.append(a.exact)
            elif (at is ParamRef or at is BoundVarRef) and a.name in env:
                args.append(env[a.name])
            else:
                args.append(_eval_exact(a, env, work))
        try:
            return _exact_call(*args)
        except _NUM_ERRORS as exc:
            raise ExactEvalError(f"{node.name} failed: {exc}") from None
    if t is UnaryNeg:
        a = node.operand
        at = type(a)
        if at is NumberLiteral:
            v = a.exact
        elif (at is ParamRef or at is BoundVarRef) and a.name in env:
            v = env[a.name]
        else:
            v = _eval_exact(a, env, work)
        return -v if type(v) is int else (-v[0], v[1])
    if t is NumberLiteral:
        return node.exact
    if t is ParamRef or t is BoundVarRef:
        try:
            return env[node.name]
        except KeyError:
            raise ExactEvalError(f"unbound name {node.name!r}") from None
    if t is Sum:
        return _sum_exact(node, env, work)
    if t is ConstantRef:
        raise ExactEvalError(f"constant {node.name!r} is not rational")
    if t is Integral:
        raise ExactEvalError("integrals have no exact evaluation")
    raise TypeError(f"not an expression node: {node!r}")


def _sum_exact(node: Sum, env: dict[str, _Exact], work: _Work) -> _Exact:
    """_eval_exact for a Sum, whose index is bound in env while its body
    runs; its range length is charged to work, as in _sum_range."""
    lo = _eval_exact(node.lo, env, work)
    hi = _eval_exact(node.hi, env, work)
    # a pair is an integer only over 1
    if type(lo) is not int:
        lo = lo[0] if lo[1] == 1 else None
    if type(hi) is not int:
        hi = hi[0] if hi[1] == 1 else None
    if lo is None or hi is None:
        raise ExactEvalError("sum bounds must be integers")
    work.charge(passes=max(hi - lo + 1, 0))  # type: ignore[operator]
    total: _Exact = 0
    saved = env.get(node.var, _MISSING)
    try:
        for k in range(lo, hi + 1):
            env[node.var] = k
            v = _eval_exact(node.body, env, work)
            if type(total) is int and type(v) is int:
                total += v
                bits = total.bit_length()
            else:
                tn, td = (total, 1) if type(total) is int else total
                vn, vd = (v, 1) if type(v) is int else v
                total = _qadd(tn, td, vn, vd)
                bits = max(total[0].bit_length(), total[1].bit_length())
            # a long sum grows its total past any single operation's cap
            if bits > _MAX_EXACT_BITS:
                raise ExactEvalError(f"sum would exceed {_MAX_EXACT_BITS} bits")
    finally:
        if saved is _MISSING:
            env.pop(node.var, None)
        else:
            env[node.var] = saved
    return total


def _bind_pairs(params: Mapping[str, Fraction]) -> dict[str, _Exact]:
    """Exact bindings with the derived q (_derive_q): an int for each
    integer value, else (numerator, denominator) in lowest terms with a
    positive denominator."""
    env = _derive_q({name: Fraction(value) for name, value in params.items()})
    return {name: v.numerator if v.denominator == 1 else (v.numerator, v.denominator)
            for name, v in env.items()}


def evaluate_exact(
    node: Node, params: Mapping[str, Fraction], eval_cap: int = DEFAULT_EVAL_CAP
) -> Fraction:
    env = _bind_pairs(params)
    try:
        value = _eval_exact(node, env, _Work(eval_cap, ExactEvalError))
    except RecursionError:
        raise ExactEvalError("expression nested too deeply to evaluate") from None
    return Fraction(value) if type(value) is int else Fraction(*value)
