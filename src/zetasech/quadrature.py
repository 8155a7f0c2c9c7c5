"""Deterministic tanh-sinh quadrature for smooth decaying integrands.

The infinite-range driver picks a truncation point V where an exponential
envelope exp(-rate*v) * (1+v)^p bounds the tail below the tolerance, then
refines the finite piece [0, V] with the tanh-sinh node ladder. Node tables
are fixed, summation order is fixed, and there is no randomness, so repeated
runs produce bit-identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_EVAL_CAP",
    "QuadResult",
    "QuadratureError",
    "integrate_decaying",
    "tanh_sinh",
]

DEFAULT_EVAL_CAP = 2_000_000

# Outermost abscissa of the t-grid. At t = 3.9 the node sits about 1e-33
# of the interval width away from the endpoint and the weight is ~1e-31,
# which exhausts binary64 before the ladder runs out of nodes.
_T_MAX = 3.9
_MAX_LEVEL = 12


class QuadratureError(ValueError):
    """Raised when an integrand cannot be handled (non-finite samples)."""


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


# dm = 1 - tanh((pi/2) sinh t) is the node's distance from the interval edge
# in unit coordinates; w is the tanh-sinh weight at that t.
_NodeRow = Tuple[float, float]
_node_cache: Dict[int, List[_NodeRow]] = {}


def _node_row(t: float) -> _NodeRow:
    y = 0.5 * math.pi * math.sinh(t)
    dm = 2.0 / (1.0 + math.exp(2.0 * y))
    w = 0.5 * math.pi * math.cosh(t) * dm * (2.0 - dm)
    return dm, w


def _nodes_for_level(level: int) -> List[_NodeRow]:
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


def tanh_sinh(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-13,
    eval_cap: int = DEFAULT_EVAL_CAP,
) -> QuadResult:
    """Integrate f over the finite interval [a, b].

    The error estimate is the difference between the last two refinement
    levels, floored at a few ulps of the result; it is a heuristic, not a
    bound, and callers should fold it into their own error budgets.
    """
    if not (b > a):
        raise QuadratureError("tanh_sinh needs b > a")
    half = 0.5 * (b - a)
    mid = a + half
    evals = 0

    def sample(x: float) -> float:
        nonlocal evals
        evals += 1
        v = f(x)
        if not math.isfinite(v):
            raise QuadratureError(f"integrand not finite at x={x!r}")
        return v

    # level 0: the center node plus the integer-t pairs
    total = 0.5 * math.pi * sample(mid)
    for dm, w in _nodes_for_level(0):
        d = half * dm
        total += w * (sample(b - d) + sample(a + d))
    h = 1.0
    previous = total * h * half

    estimate = previous
    err = abs(previous)
    converged = False
    for level in range(1, _MAX_LEVEL + 1):
        rows = _nodes_for_level(level)
        if evals + 2 * len(rows) > eval_cap:
            break
        inner = 0.0
        for dm, w in rows:
            d = half * dm
            inner += w * (sample(b - d) + sample(a + d))
        h *= 0.5
        estimate = 0.5 * previous + inner * h * half
        err = abs(estimate - previous)
        previous = estimate
        if err <= rel_tol * abs(estimate):
            converged = True
            break
    floor = 4.0 * 2.0 ** -52 * abs(estimate)
    return QuadResult(estimate, max(err, floor), evals, converged)


def _pick_cutoff(rate: float, p_max: int, target: float, vmax: Optional[float]) -> float:
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


def _algebraic_cutoff(p_max: int, target: float, vmax: Optional[float]) -> float:
    # solve (1+V)^(p_max+1) / (-p_max-1) == target
    power = float(-(p_max + 1))
    v = max((power * target) ** (-1.0 / power) - 1.0, 1.0)
    if vmax is not None and v > vmax:
        v = vmax
    return v


def integrate_decaying(
    f: Callable[[float], float],
    rate: float,
    rel_tol: float = 1e-12,
    scale: float = 1.0,
    p_max: int = 8,
    vmax: Optional[float] = None,
    eval_cap: int = DEFAULT_EVAL_CAP,
) -> QuadResult:
    """Integrate f over [0, inf) given an exponential decay envelope.

    rate is the decay constant r in |f(v)| <~ C exp(-r v) (1+v)^p_max for
    large v; scale should be a rough magnitude of the expected result so the
    truncation target is relative rather than absolute.  rate == 0 selects a
    purely algebraic envelope |f(v)| <~ (1+v)^p_max, which then needs
    p_max < -1; the reported tail bound is the exact envelope integral.
    """
    if not (0.0 <= rate < math.inf):
        raise QuadratureError("integrate_decaying needs a finite nonnegative decay rate")
    if rate == 0.0 and p_max >= -1:
        raise QuadratureError("algebraic envelope needs p_max < -1")
    if not (0.0 < scale < math.inf):
        raise QuadratureError("integrate_decaying needs a finite positive scale")
    if vmax is not None and not (0.0 < vmax < math.inf):
        raise QuadratureError("integrate_decaying needs a finite positive vmax")
    target = 0.01 * rel_tol * scale
    if rate == 0.0:
        v_cut = _algebraic_cutoff(p_max, target, vmax)
        tail = (1.0 + v_cut) ** (p_max + 1) / float(-(p_max + 1))
    else:
        v_cut = _pick_cutoff(rate, p_max, target, vmax)
        tail = math.exp(-rate * v_cut) * (1.0 + v_cut) ** p_max / rate
    inner = tanh_sinh(f, 0.0, v_cut, rel_tol=rel_tol, eval_cap=eval_cap)
    return QuadResult(
        inner.value,
        inner.abs_error_estimate + tail,
        inner.evaluations,
        inner.converged,
    )
