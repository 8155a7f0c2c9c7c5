"""Function registry for the expression language.

Each entry carries a numeric implementation over floats and, where the
function is rational-valued on rational inputs, an exact implementation over
fractions. The exact column is what lets whole identity families be checked
with zero residual instead of a tolerance.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

from . import exact, specfun

__all__ = [
    "FunctionSpec",
    "pair_power",
    "function_arities",
    "function_table",
    "RegistryError",
]

# Largest integer, in bits, that a power, factorial or binomial may build;
# the builtin catalog's estimates stay under 100 bits.
_MAX_EXACT_BITS = 100_000


class RegistryError(ValueError):
    pass


class FunctionSpec(
    namedtuple(
        "FunctionSpec",
        (
            "name",  # str
            "arity",  # int
            "numeric",  # Callable[..., float]
            "exact",  # Callable[..., int | Fraction] | None
        ),
        defaults=(None,),
    )
):
    """A function of the expression language: its float implementation and,
    when it is rational-valued on rationals, its exact one."""

    __slots__ = ()


def _as_index(x: float, what: str) -> int:
    n = round(x)
    if abs(x - n) > 1e-9:
        raise RegistryError(f"{what} needs an integer, got {x!r}")
    return int(n)


def _exact_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise RegistryError(f"{what} needs an integer, got {x}")
    return x.numerator


def _check_bits(bits: int, what: str) -> None:
    if bits > _MAX_EXACT_BITS:
        raise RegistryError(f"{what} would exceed {_MAX_EXACT_BITS} bits")


def _factorial(n: int) -> int:
    if n < 0:
        raise RegistryError("fact needs n >= 0")
    _check_bits(n * n.bit_length(), "factorial")
    return math.factorial(n)


def _comb(n: int, k: int) -> int:
    if n < 0 or k < 0:
        raise RegistryError("binom needs non-negative integers")
    _check_bits(min(k, n - k) * n.bit_length(), "binomial")
    return math.comb(n, k)


def pair_power(p: int, q: int, n: int) -> tuple[int, int]:
    """(p/q)**n as a pair (numerator, denominator > 0) in lowest terms, for
    p/q in lowest terms with q > 0; refuses 0 to a non-positive power and
    results over the bit cap."""
    if p == 0 and n <= 0:
        raise RegistryError("0 to a non-positive power")
    # a lower bound, |n| * floor(log2 max(|p|, q)), so that 1 and -1 pass
    _check_bits(abs(n) * (max(p.bit_length(), q.bit_length()) - 1), "power")
    if n >= 0:
        return p ** n, q ** n
    if p < 0:
        p, q = -p, -q
    return q ** -n, p ** -n


# numeric wrappers ------------------------------------------------------

def _num_fact(x: float) -> float:
    return float(_factorial(_as_index(x, "fact")))


def _num_binom(x: float, y: float) -> float:
    return float(_comb(_as_index(x, "binom"), _as_index(y, "binom")))


def _num_kron(x: float, y: float) -> float:
    return 1.0 if x == y else 0.0


def _num_eulerpoly(n: float, x: float) -> float:
    return float(exact.euler_poly(_as_index(n, "eulerpoly"), Fraction(x)))


def _num_eulernum(n: float) -> float:
    return float(exact.euler_number(_as_index(n, "eulernum")))


def _num_bernpoly(n: float, x: float) -> float:
    return float(exact.bernoulli_poly(_as_index(n, "bernpoly"), Fraction(x)))


def _num_bernnum(n: float) -> float:
    return float(exact.bernoulli_number(_as_index(n, "bernnum")))


def _num_polygamma(m: float, x: float) -> float:
    return specfun.polygamma(_as_index(m, "polygamma"), x)


def _num_laguerre(n: float, alpha: float, x: float) -> float:
    return specfun.laguerre(_as_index(n, "laguerre"), alpha, x)


def _num_h2f1_arctan(j: float, t: float) -> float:
    return specfun.hyp2f1_arctan_case(_as_index(j, "h2f1_arctan"), t)


def _num_h2f1_log(k: float, t: float) -> float:
    return specfun.hyp2f1_log_case(_as_index(k, "h2f1_log"), t)


def _num_h3f2(m: float, z: float) -> float:
    return specfun.hyp3f2_reduction(_as_index(m, "h3f2"), z)


# exact wrappers --------------------------------------------------------

def _ex_fact(x: Fraction) -> int:
    return _factorial(_exact_int(x, "fact"))


def _ex_binom(x: Fraction, y: Fraction) -> int:
    return _comb(_exact_int(x, "binom"), _exact_int(y, "binom"))


def _ex_kron(x: Fraction, y: Fraction) -> int:
    return 1 if x == y else 0


def _ex_gammafn(x: Fraction) -> int:
    n = _exact_int(x, "gammafn")
    if n <= 0:
        raise RegistryError("exact gammafn needs a positive integer")
    return _factorial(n - 1)


def _ex_abs(x: Fraction) -> Fraction:
    return abs(x)


def _ex_pow(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(*pair_power(x.numerator, x.denominator, _exact_int(y, "pow exponent")))


def _ex_eulerpoly(n: Fraction, x: Fraction) -> Fraction:
    return exact.euler_poly(_exact_int(n, "eulerpoly"), x)


def _ex_eulernum(n: Fraction) -> int:
    return exact.euler_number(_exact_int(n, "eulernum"))


def _ex_bernpoly(n: Fraction, x: Fraction) -> Fraction:
    return exact.bernoulli_poly(_exact_int(n, "bernpoly"), x)


def _ex_bernnum(n: Fraction) -> Fraction:
    return exact.bernoulli_number(_exact_int(n, "bernnum"))


def _ex_eta(s: Fraction, z: Fraction) -> Fraction:
    m = _exact_int(s, "exact eta order")
    if m > 0:
        raise RegistryError("exact eta needs a non-positive integer order")
    return exact.eta_exact(-m, z)


def _ex_hzeta(s: Fraction, a: Fraction) -> Fraction:
    m = _exact_int(s, "exact hzeta order")
    if m > 0:
        raise RegistryError("exact hzeta needs a non-positive integer order")
    return exact.zeta_exact_nonpos(-m, a)


def _ex_s(s: Fraction, q: Fraction) -> Fraction:
    m = _exact_int(s, "exact S order")
    if m > 0:
        raise RegistryError("exact S needs a non-positive integer order")
    return exact.s_diff_exact(-m, q)


@lru_cache(maxsize=1)
def function_table() -> Mapping[str, FunctionSpec]:
    specs = [
        FunctionSpec("sin", 1, math.sin),
        FunctionSpec("cos", 1, math.cos),
        FunctionSpec("tan", 1, math.tan),
        FunctionSpec("arctan", 1, math.atan),
        FunctionSpec("sinh", 1, math.sinh),
        FunctionSpec("cosh", 1, math.cosh),
        FunctionSpec("tanh", 1, math.tanh),
        FunctionSpec("exp", 1, math.exp),
        FunctionSpec("expm1", 1, math.expm1),
        FunctionSpec("ln", 1, math.log),
        FunctionSpec("sqrt", 1, math.sqrt),
        FunctionSpec("abs", 1, abs, _ex_abs),
        FunctionSpec("pow", 2, math.pow, _ex_pow),
        FunctionSpec("fact", 1, _num_fact, _ex_fact),
        FunctionSpec("binom", 2, _num_binom, _ex_binom),
        FunctionSpec("kron", 2, _num_kron, _ex_kron),
        FunctionSpec("gammafn", 1, math.gamma, _ex_gammafn),
        FunctionSpec("loggamma", 1, specfun.log_gamma),
        FunctionSpec("digamma", 1, specfun.digamma),
        FunctionSpec("polygamma", 2, _num_polygamma),
        FunctionSpec("hzeta", 2, specfun.hurwitz_zeta, _ex_hzeta),
        FunctionSpec("hzeta_ds", 2, specfun.hurwitz_zeta_ds),
        FunctionSpec("eta", 2, specfun.eta, _ex_eta),
        FunctionSpec("eta_ds", 2, specfun.eta_ds),
        FunctionSpec("S", 2, specfun.S_of, _ex_s),
        FunctionSpec("S_ds", 2, specfun.S_ds),
        FunctionSpec("zetap", 1, specfun.zeta_prime_at),
        FunctionSpec("betadir", 1, specfun.dirichlet_beta),
        FunctionSpec("eulerpoly", 2, _num_eulerpoly, _ex_eulerpoly),
        FunctionSpec("eulernum", 1, _num_eulernum, _ex_eulernum),
        FunctionSpec("bernpoly", 2, _num_bernpoly, _ex_bernpoly),
        FunctionSpec("bernnum", 1, _num_bernnum, _ex_bernnum),
        FunctionSpec("laguerre", 3, _num_laguerre),
        FunctionSpec("h2f1_arctan", 2, _num_h2f1_arctan),
        FunctionSpec("h2f1_log", 2, _num_h2f1_log),
        FunctionSpec("h3f2", 2, _num_h3f2),
        FunctionSpec("impsi_quarter", 1, specfun.im_digamma_quarter),
        FunctionSpec("loggamma_q4", 1, specfun.loggamma_q4),
    ]
    return {spec.name: spec for spec in specs}


@lru_cache(maxsize=1)
def function_arities() -> dict[str, int]:
    return {name: spec.arity for name, spec in function_table().items()}
