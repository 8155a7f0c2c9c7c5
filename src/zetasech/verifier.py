"""Run catalog records case by case and serialize the outcomes.

A NUMERIC case passes when both sides agree within the record tolerance
times a magnitude scale, plus the evaluator's propagated error budget.
An EXACT case passes only when the rational residual is identically zero.
A NEGATIVE_CONTROL case is confirmed when the two sides disagree by more
than the record floor, proving the harness can still see a wrong formula.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .catalog import (
    GridValue,
    IdentityRecord,
    Kind,
    TOLERANCES,
    _format_value,
    builtin_identities,
)
from .evaluator import (
    EvalConfig,
    EvalError,
    ExactEvalError,
    evaluate_exact,
    evaluate_numeric,
)
from .exprlang import SourceError
from .quadrature import DEFAULT_EVAL_CAP, QuadratureError
from .specfun import SpecfunError

__all__ = [
    "CaseResult",
    "Status",
    "SuiteResult",
    "config_for",
    "from_json",
    "run_suite",
    "to_csv",
    "to_json",
    "to_markdown",
    "verify_case",
]

# a zero scale would turn the relative test degenerate
_SCALE_FLOOR = 1e-300


class Status(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    ERROR = "ERROR"
    EXPECTED_FAIL_CONFIRMED = "EXPECTED_FAIL_CONFIRMED"
    EXPECTED_FAIL_VIOLATED = "EXPECTED_FAIL_VIOLATED"


@dataclass(frozen=True)
class CaseResult:
    identity: str
    group: str
    kind: Kind
    tol_class: str
    params: Tuple[Tuple[str, GridValue], ...]
    status: Status
    lhs: Optional[float]
    rhs: Optional[float]
    residual: Optional[float]
    allowed: Optional[float]
    err_budget: float
    quad_evals: int
    ms: float
    message: str = ""

    def params_text(self) -> str:
        return ", ".join(f"{k}={_format_value(v)}" for k, v in self.params)


@dataclass(frozen=True)
class SuiteResult:
    results: Tuple[CaseResult, ...]
    elapsed_ms: float

    def counts(self) -> Dict[str, int]:
        out = {status.value: 0 for status in Status}
        for res in self.results:
            out[res.status.value] += 1
        return out

    @property
    def ok(self) -> bool:
        bad = (Status.FAIL, Status.ERROR, Status.EXPECTED_FAIL_VIOLATED)
        return not any(res.status in bad for res in self.results)

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{n} {name}" for name, n in counts.items() if n]
        return f"{len(self.results)} cases: " + ", ".join(parts)


def config_for(record: IdentityRecord, eval_cap: int = DEFAULT_EVAL_CAP) -> EvalConfig:
    """Evaluator settings from a record's quadrature hints."""
    return EvalConfig(
        quad_decay=record.quad_decay,
        quad_vmax=record.quad_vmax,
        quad_scale=record.quad_scale,
        quad_p_max=record.quad_p_max,
        eval_cap=eval_cap,
    )


_EVAL_ERRORS = (
    EvalError,
    ExactEvalError,
    QuadratureError,
    SpecfunError,
    SourceError,
    OverflowError,
    ZeroDivisionError,
)


def _verify_exact(
    record: IdentityRecord, params: Mapping[str, GridValue]
) -> Tuple[Status, Optional[float], Optional[float], Optional[float], str]:
    exact_params = {k: Fraction(v) for k, v in params.items()}
    lv = evaluate_exact(record.lhs(), exact_params)
    rv = evaluate_exact(record.rhs(), exact_params)
    resid = lv - rv
    if resid == 0:
        return Status.PASS, float(lv), float(rv), 0.0, ""
    return (
        Status.FAIL,
        float(lv),
        float(rv),
        abs(float(resid)),
        f"exact residual {resid}",
    )


def verify_case(
    record: IdentityRecord,
    params: Mapping[str, GridValue],
    eval_cap: int = DEFAULT_EVAL_CAP,
    tol_override: Optional[float] = None,
) -> CaseResult:
    """Evaluate both sides of one record at one parameter point."""
    frozen = tuple(params.items())
    start = time.perf_counter()

    def done(
        status: Status,
        lhs: Optional[float] = None,
        rhs: Optional[float] = None,
        residual: Optional[float] = None,
        allowed: Optional[float] = None,
        err_budget: float = 0.0,
        quad_evals: int = 0,
        message: str = "",
    ) -> CaseResult:
        return CaseResult(
            identity=record.id,
            group=record.group,
            kind=record.kind,
            tol_class=record.tol_class.value,
            params=frozen,
            status=status,
            lhs=lhs,
            rhs=rhs,
            residual=residual,
            allowed=allowed,
            err_budget=err_budget,
            quad_evals=quad_evals,
            ms=(time.perf_counter() - start) * 1000.0,
            message=message,
        )

    if record.kind is Kind.EXACT:
        try:
            status, lv, rv, resid, msg = _verify_exact(record, params)
        except _EVAL_ERRORS as exc:
            return done(Status.ERROR, message=str(exc))
        return done(status, lv, rv, resid, allowed=0.0, message=msg)

    cfg = config_for(record, eval_cap=eval_cap)
    try:
        left = evaluate_numeric(record.lhs(), params, cfg)
        right = evaluate_numeric(record.rhs(), params, cfg)
    except _EVAL_ERRORS as exc:
        return done(Status.ERROR, message=str(exc))

    budget = left.err_budget + right.err_budget
    evals = left.quad_evals + right.quad_evals
    diff = abs(left.value - right.value)
    if record.rhs_src.strip() == "0":
        scale = 1.0
    else:
        scale = max(abs(left.value), abs(right.value), _SCALE_FLOOR)
    if not (math.isfinite(left.value) and math.isfinite(right.value)):
        return done(
            Status.ERROR,
            left.value,
            right.value,
            err_budget=budget,
            quad_evals=evals,
            message="non-finite value",
        )

    if record.kind is Kind.NEGATIVE_CONTROL:
        threshold = record.floor * scale
        if not (left.converged and right.converged):
            return done(
                Status.ERROR,
                left.value,
                right.value,
                diff,
                threshold,
                budget,
                evals,
                "quadrature did not converge",
            )
        if diff > threshold:
            return done(
                Status.EXPECTED_FAIL_CONFIRMED,
                left.value,
                right.value,
                diff,
                threshold,
                budget,
                evals,
            )
        return done(
            Status.EXPECTED_FAIL_VIOLATED,
            left.value,
            right.value,
            diff,
            threshold,
            budget,
            evals,
            "control variant was not detectably wrong",
        )

    tol = TOLERANCES[record.tol_class] if tol_override is None else tol_override
    allowed = tol * scale + budget
    if not (left.converged and right.converged):
        return done(
            Status.FAIL,
            left.value,
            right.value,
            diff,
            allowed,
            budget,
            evals,
            "quadrature did not converge",
        )
    if diff <= allowed:
        return done(Status.PASS, left.value, right.value, diff, allowed, budget, evals)
    return done(
        Status.FAIL,
        left.value,
        right.value,
        diff,
        allowed,
        budget,
        evals,
        f"residual {diff:.3e} exceeds allowed {allowed:.3e}",
    )


def run_suite(
    records: Optional[Sequence[IdentityRecord]] = None,
    eval_cap: int = DEFAULT_EVAL_CAP,
    tol_overrides: Optional[Mapping[str, float]] = None,
) -> SuiteResult:
    """Verify every case of every record, in deterministic catalog order.

    tol_overrides maps tolerance class names to replacement relative
    tolerances for NUMERIC records of that class.
    """
    recs = builtin_identities() if records is None else tuple(records)
    overrides = dict(tol_overrides or {})
    start = time.perf_counter()
    results = tuple(
        verify_case(
            rec, params, eval_cap, tol_override=overrides.get(rec.tol_class.value)
        )
        for rec in recs
        for params in rec.case_params()
    )
    elapsed = (time.perf_counter() - start) * 1000.0
    return SuiteResult(results, elapsed)


# ---------------------------------------------------------------------------
# report serialization; field order is part of the format


def _case_dict(res: CaseResult, include_ms: bool) -> Dict[str, object]:
    out: Dict[str, object] = {
        "identity": res.identity,
        "group": res.group,
        "kind": res.kind.value,
        "tol": res.tol_class,
        "params": {k: _format_value(v) for k, v in res.params},
        "status": res.status.value,
        "lhs": res.lhs,
        "rhs": res.rhs,
        "residual": res.residual,
        "allowed": res.allowed,
        "err_budget": res.err_budget,
        "quad_evals": res.quad_evals,
    }
    if include_ms:
        out["ms"] = round(res.ms, 3)
    out["message"] = res.message
    return out


def to_json(suite: SuiteResult, include_ms: bool = True) -> str:
    """JSON report; include_ms=False yields fully run-deterministic text."""
    doc: Dict[str, object] = {
        "suite": "zetasech",
        "ok": suite.ok,
        "counts": suite.counts(),
    }
    if include_ms:
        doc["elapsed_ms"] = round(suite.elapsed_ms, 3)
    doc["cases"] = [_case_dict(res, include_ms) for res in suite.results]
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str) -> SuiteResult:
    """Rebuild a SuiteResult from to_json output (for report re-rendering)."""
    from .catalog import _parse_value

    try:
        doc = json.loads(text)
        cases = []
        for entry in doc["cases"]:
            cases.append(
                CaseResult(
                    identity=entry["identity"],
                    group=entry["group"],
                    kind=Kind(entry["kind"]),
                    tol_class=entry["tol"],
                    params=tuple(
                        (k, _parse_value(v, 0)) for k, v in entry["params"].items()
                    ),
                    status=Status(entry["status"]),
                    lhs=entry["lhs"],
                    rhs=entry["rhs"],
                    residual=entry["residual"],
                    allowed=entry["allowed"],
                    err_budget=entry["err_budget"],
                    quad_evals=entry["quad_evals"],
                    ms=float(entry.get("ms", 0.0)),
                    message=entry.get("message", ""),
                )
            )
        return SuiteResult(tuple(cases), float(doc.get("elapsed_ms", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a zetasech JSON report: {exc}") from None


def _fmt_float(x: Optional[float]) -> str:
    if x is None:
        return ""
    return repr(x)


def to_markdown(suite: SuiteResult) -> str:
    lines = [
        "# zetasech verification report",
        "",
        suite.summary(),
        "",
        "| identity | group | kind | tol | params | status | residual | allowed | message |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for res in suite.results:
        resid = "" if res.residual is None else f"{res.residual:.3e}"
        allowed = "" if res.allowed is None else f"{res.allowed:.3e}"
        lines.append(
            "| "
            + " | ".join(
                (
                    res.identity,
                    res.group,
                    res.kind.value,
                    res.tol_class,
                    res.params_text() or "-",
                    res.status.value,
                    resid,
                    allowed,
                    res.message or "-",
                )
            )
            + " |"
        )
    lines.append("")
    return "\n".join(lines)


_CSV_FIELDS = (
    "identity",
    "group",
    "kind",
    "tol",
    "params",
    "status",
    "lhs",
    "rhs",
    "residual",
    "allowed",
    "err_budget",
    "quad_evals",
    "message",
)


def to_csv(suite: SuiteResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for res in suite.results:
        writer.writerow(
            (
                res.identity,
                res.group,
                res.kind.value,
                res.tol_class,
                res.params_text(),
                res.status.value,
                _fmt_float(res.lhs),
                _fmt_float(res.rhs),
                _fmt_float(res.residual),
                _fmt_float(res.allowed),
                repr(res.err_budget),
                res.quad_evals,
                res.message,
            )
        )
    return buf.getvalue()
