"""Deterministic tanh-sinh quadrature for smooth decaying integrands.

The infinite-range driver picks a truncation point V where an exponential
envelope exp(-rate*v) * (1+v)^p bounds the tail below the tolerance, then
refines the finite piece [0, V] with the tanh-sinh node ladder. Node tables
are fixed, summation order is fixed, and there is no randomness, so repeated
runs produce bit-identical results.

tanh_sinh calls the integrand directly, with no wrapper per sample: the
center node first, then each pair's b - d before its a + d. Each value is
tested right after its call, and the first non-finite one raises
QuadratureError before any other node is sampled. Evaluations are counted
from the node tables, not per call, and a caller's charge hook hears of
each level's count as the level starts. A caller that bounds work stops
the ladder before _MAX_LEVEL only by raising from that hook.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

__all__ = [
    "QuadResult",
    "QuadratureError",
    "integrate_decaying",
    "tanh_sinh",
]

# Outermost abscissa of the t-grid. At t = 3.9 the node sits about 1e-33
# of the interval width away from the endpoint and the weight is ~1e-31,
# which exhausts binary64 before the ladder runs out of nodes.
_T_MAX = 3.9
# the ladder's own bound: the first level and 12 refinements, 31,949 samples
_MAX_LEVEL = 12


class QuadratureError(ValueError):
    """Raised when an integrand cannot be handled (non-finite samples)."""


class QuadResult(
    namedtuple("QuadResult", ("value", "abs_error_estimate", "evaluations", "converged"))
):
    """An integral's value and error estimate (floats), the integrand
    evaluations it took (int) and whether refinement met the tolerance."""

    __slots__ = ()


# dm = 1 - tanh((pi/2) sinh t) is the node's distance from the interval edge
# in unit coordinates; w is the tanh-sinh weight at that t.
_NodeRow = tuple[float, float]
_node_cache: dict[int, list[_NodeRow]] = {}


def _node_row(t: float) -> _NodeRow:
    y = 0.5 * math.pi * math.sinh(t)
    dm = 2.0 / (1.0 + math.exp(2.0 * y))
    w = 0.5 * math.pi * math.cosh(t) * dm * (2.0 - dm)
    return dm, w


def _nodes_for_level(level: int) -> list[_NodeRow]:
    rows = _node_cache.get(level)
    if rows is not None:
        return rows
    if level == 0:
        ts = [float(i) for i in range(1, int(_T_MAX) + 1)]
    else:
        h = 0.5 ** level
        ts = []
        t = h
        while t <= _T_MAX:
            ts.append(t)
            t += 2.0 * h
    rows = [_node_row(t) for t in ts]
    _node_cache[level] = rows
    return rows


def _not_finite(x: float) -> QuadratureError:
    return QuadratureError(f"integrand not finite at x={x!r}")


def _no_charge(evals: int) -> None:
    """The default charge hook: evaluations are only counted in the result."""


def _add_pairs(
    f: Callable[[float], float],
    a: float,
    b: float,
    half: float,
    rows: list[_NodeRow],
    total: float,
) -> float:
    """total plus w * (f(b - d) + f(a + d)) for each row, in row order.

    f is called directly, b - d before a + d, and each value is tested
    right after its call, so a + d is never sampled after a non-finite
    f(b - d)."""
    isfinite = math.isfinite
    for dm, w in rows:
        d = half * dm
        x = b - d
        upper = f(x)
        if not isfinite(upper):
            raise _not_finite(x)
        x = a + d
        lower = f(x)
        if not isfinite(lower):
            raise _not_finite(x)
        total += w * (upper + lower)
    return total


def tanh_sinh(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-13,
    charge: Callable[[int], object] = _no_charge,
) -> QuadResult:
    """Integrate f over the finite interval [a, b].

    The error estimate is the difference between the last two refinement
    levels, floored at a few ulps of the result; it is a heuristic, not a
    bound, and callers should fold it into their own error budgets. The
    ladder ends at _MAX_LEVEL, after at most 31,949 evaluations. charge is
    called with each level's evaluations before its first sample; what it
    raises stops the quadrature, the only way a caller ends it sooner.
    """
    if not (b > a):
        raise QuadratureError("tanh_sinh needs b > a")
    # level 0: the center node plus the integer-t pairs
    rows = _nodes_for_level(0)
    evals = 1 + 2 * len(rows)
    charge(evals)
    half = 0.5 * (b - a)
    mid = a + half
    center = f(mid)
    if not math.isfinite(center):
        raise _not_finite(mid)
    total = _add_pairs(f, a, b, half, rows, 0.5 * math.pi * center)
    h = 1.0
    previous = total * h * half

    estimate = previous
    err = abs(previous)
    converged = False
    for level in range(1, _MAX_LEVEL + 1):
        rows = _nodes_for_level(level)
        charge(2 * len(rows))
        inner = _add_pairs(f, a, b, half, rows, 0.0)
        evals += 2 * len(rows)
        h *= 0.5
        estimate = 0.5 * previous + inner * h * half
        err = abs(estimate - previous)
        previous = estimate
        if err <= rel_tol * abs(estimate):
            converged = True
            break
    floor = 4.0 * 2.0 ** -52 * abs(estimate)
    return QuadResult(estimate, max(err, floor), evals, converged)


def _pick_cutoff(rate: float, p_max: int, target: float, vmax: float | None) -> float:
    # fixed-point solve of exp(-rate*V) * (1+V)^p_max == target
    v = 30.0
    log_target = math.log(target)
    for _ in range(50):
        v = (p_max * math.log1p(v) - log_target) / rate
        if v < 1.0:
            v = 1.0
            break
    if vmax is not None and v > vmax:
        v = vmax
    return v


def _algebraic_cutoff(p_max: int, target: float, vmax: float | None) -> float:
    # solve (1+V)^(p_max+1) / (-p_max-1) == target
    power = float(-(p_max + 1))
    v = max((power * target) ** (-1.0 / power) - 1.0, 1.0)
    if vmax is not None and v > vmax:
        v = vmax
    return v


def _no_cutoff(rate: float, p_max: int) -> QuadratureError:
    envelope = f"(1+v)^{p_max}" if rate == 0.0 else f"exp(-{rate!r}*v)*(1+v)^{p_max}"
    return QuadratureError(f"envelope {envelope} has no finite cutoff and tail")


def integrate_decaying(
    f: Callable[[float], float],
    rate: float,
    rel_tol: float = 1e-12,
    p_max: int = 8,
    vmax: float | None = None,
    charge: Callable[[int], object] = _no_charge,
) -> QuadResult:
    """Integrate f over [0, inf) given a decay envelope.

    rate is the decay constant r in |f(v)| <= exp(-r v) (1+v)^p_max for
    large v; the truncation point V is where the envelope's tail falls
    below rel_tol/100.  rate == 0 selects a purely algebraic envelope
    |f(v)| <= (1+v)^p_max, which then needs p_max < -1; the reported tail
    bound is the exact envelope integral.  QuadratureError names the
    envelope when it has no finite cutoff and tail. charge is passed to
    tanh_sinh, and bounds the work as there.
    """
    if not (0.0 <= rate < math.inf):
        raise QuadratureError("integrate_decaying needs a finite nonnegative decay rate")
    if rate == 0.0 and p_max >= -1:
        raise QuadratureError("algebraic envelope needs p_max < -1")
    if vmax is not None and not (0.0 < vmax < math.inf):
        raise QuadratureError("integrate_decaying needs a finite positive vmax")
    target = 0.01 * rel_tol
    try:
        if rate == 0.0:
            v_cut = _algebraic_cutoff(p_max, target, vmax)
            tail = (1.0 + v_cut) ** (p_max + 1) / float(-(p_max + 1))
        else:
            v_cut = _pick_cutoff(rate, p_max, target, vmax)
            tail = math.exp(-rate * v_cut) * (1.0 + v_cut) ** p_max / rate
    except (ArithmeticError, ValueError):
        raise _no_cutoff(rate, p_max) from None
    if not (math.isfinite(v_cut) and math.isfinite(tail)):
        raise _no_cutoff(rate, p_max)
    inner = tanh_sinh(f, 0.0, v_cut, rel_tol=rel_tol, charge=charge)
    return QuadResult(
        inner.value,
        inner.abs_error_estimate + tail,
        inner.evaluations,
        inner.converged,
    )
