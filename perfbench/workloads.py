"""Seeded inputs and expected verdicts for the three perfbench workloads.

catalog
    ``zetasech run --out FILE`` over the builtin catalog; the seed does not
    change it. Many cases reuse the same (s, a) point, so caches help.
offgrid
    ``verify_case`` on the integral-backed sech and Laplace kernel records at
    seeded points off the catalog grid. No case shares a parameter point with
    another, so the Hurwitz engine works mostly from cache misses.
closed-forms
    Every integral-free side at the catalog grid, in a seeded order. No
    quadrature runs; this is the traffic of oracle and mutation checks.

The offgrid draw rule, applied before anything is evaluated (a draw is never
dropped because it failed):

- the integer axes ``n`` and ``J`` take one of the record's listed values;
- every other axis is uniform on [min, max] of the record's listed values,
  rounded to 2 decimals;
- ``s`` is redrawn when it is an integer and the record's closed form calls
  ``hzeta`` or ``S``: the zeta-difference routes have their pole at order 1,
  which the catalog grid avoids the same way;
- a point equal to a catalog grid point, or to an earlier draw for the same
  record, is redrawn.
"""
from __future__ import annotations

import random
import re
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

WORKLOADS = ("catalog", "offgrid", "closed-forms")

OFFGRID_RECORDS = (
    "Theorem4",
    "Theorem2",
    "Theorem4S",
    "Theorem2S",
    "Theorem4a",
    "Hermite",
    "Jid",
    "Jint1",
)
OFFGRID_DRAWS = 25
INTEGER_AXES = frozenset(("n", "J"))

_INTEGRAL = re.compile(r"\bintegral\s*\[")
_POLE_ROUTE = re.compile(r"\b(hzeta|S)\s*\(")

PASS = "PASS"
CONFIRMED = "EXPECTED_FAIL_CONFIRMED"


class Unit(NamedTuple):
    """One unit of closed-forms work.

    side is None for a record whose two sides are both integral-free (the
    unit runs ``verify_case``); otherwise it names the one integral-free side
    ("lhs" or "rhs"), which is evaluated and compared with the seed commit's
    value of the other side.
    """

    record: object
    params: Dict[str, object]
    side: Optional[str]


def case_key(record_id: str, params: Mapping[str, object]) -> str:
    return record_id + "|" + ",".join(f"{k}={v!r}" for k, v in params.items())


def has_integral(src: str) -> bool:
    return _INTEGRAL.search(src) is not None


def expected_status(record) -> str:
    """Expected verdict of a case of record (an IdentityRecord or CaseResult)."""
    return CONFIRMED if record.kind.value == "NEGATIVE_CONTROL" else PASS


def offgrid_cases(records: Sequence, seed: int) -> List[Tuple[object, Dict[str, object]]]:
    by_id = {rec.id: rec for rec in records}
    rng = random.Random(seed)
    cases = []
    for rid in OFFGRID_RECORDS:
        rec = by_id[rid]
        avoid_integer_s = _POLE_ROUTE.search(rec.rhs_src + rec.lhs_src) is not None
        seen = {tuple(p.values()) for p in rec.case_params()}
        drawn = 0
        while drawn < OFFGRID_DRAWS:
            point: Dict[str, object] = {}
            for name, values in rec.grid:
                if name in INTEGER_AXES:
                    point[name] = rng.choice(values)
                else:
                    lo = float(min(values))
                    hi = float(max(values))
                    point[name] = round(rng.uniform(lo, hi), 2)
            if avoid_integer_s and float(point["s"]).is_integer():
                continue
            key = tuple(point.values())
            if key in seen:
                continue
            seen.add(key)
            cases.append((rec, point))
            drawn += 1
    return cases


def closed_form_units(records: Sequence, seed: int) -> List[Unit]:
    units = []
    for rec in records:
        lhs_int = has_integral(rec.lhs_src)
        rhs_int = has_integral(rec.rhs_src)
        if lhs_int and rhs_int:
            continue
        side = None if not (lhs_int or rhs_int) else ("rhs" if lhs_int else "lhs")
        units.extend(Unit(rec, params, side) for params in rec.case_params())
    random.Random(seed).shuffle(units)
    return units


def side_status(record, closed: float, other: float, other_budget: float, tol: float) -> str:
    """Verdict of a closed-form side against a stored value of the other side.

    Mirrors the verifier's rule: scale is 1 for a literal-zero right side,
    else the larger magnitude; a NUMERIC case passes within tol*scale plus
    the other side's error budget, a NEGATIVE_CONTROL case is confirmed when
    the sides differ by more than floor*scale.
    """
    diff = abs(closed - other)
    if record.rhs_src.strip() == "0":
        scale = 1.0
    else:
        scale = max(abs(closed), abs(other), 1e-300)
    if record.kind.value == "NEGATIVE_CONTROL":
        return CONFIRMED if diff > record.floor * scale else "EXPECTED_FAIL_VIOLATED"
    return PASS if diff <= tol * scale + other_budget else "FAIL"
