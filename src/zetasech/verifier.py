"""Run catalog records case by case and serialize the outcomes.

A NUMERIC case passes when both sides agree within the record tolerance
times a magnitude scale, plus the evaluator's propagated error budget.
An EXACT case passes only when the rational residual is identically zero.
A NEGATIVE_CONTROL case is confirmed when the two sides disagree by more
than the record floor, proving the harness can still see a wrong formula.

A side the evaluator refuses (a numeric one whose value or budget is not
finite, or whose quadrature did not converge) makes the case an ERROR with
null values, and so does a residual or allowed error past the float range.
The case's err_budget is null too when the sides' budgets sum past it.
"""

from __future__ import annotations

import io
import math
import time
from collections import namedtuple
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from enum import Enum
from fractions import Fraction
from itertools import chain, islice

from .catalog import (
    GridValue,
    IdentityRecord,
    Kind,
    TOLERANCES,
    _format_value,
    _parse_value,
    builtin_identities,
)
from .evaluator import (
    DEFAULT_EVAL_CAP,
    EvalConfig,
    EvalError,
    ExactEvalError,
    NumericResult,
    evaluate_exact,
    evaluate_numeric,
)
from .exprlang import Node, SourceError
from .quadrature import QuadratureError
from .specfun import SpecfunError

__all__ = [
    "CaseResult",
    "Status",
    "SuiteResult",
    "config_for",
    "from_json",
    "judge",
    "run_suite",
    "to_csv",
    "to_json",
    "to_markdown",
    "verify_case",
]

# a zero scale would turn the relative test degenerate
_SCALE_FLOOR = 1e-300
# an exact residual longer than this is described by its size: by default
# Python refuses to print an int of more than 4300 digits (~14,300 bits)
_PRINTED_BITS = 10_000


class Status(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    ERROR = "ERROR"
    EXPECTED_FAIL_CONFIRMED = "EXPECTED_FAIL_CONFIRMED"
    EXPECTED_FAIL_VIOLATED = "EXPECTED_FAIL_VIOLATED"

    @property
    def ok(self) -> bool:
        """False for the verdicts that make a suite fail."""
        return self not in (Status.FAIL, Status.ERROR, Status.EXPECTED_FAIL_VIOLATED)


class CaseResult(
    namedtuple(
        "CaseResult",
        (
            "identity",  # str
            "group",  # str
            "kind",  # Kind
            "tol_class",  # str
            "params",  # tuple[tuple[str, GridValue], ...]
            "status",  # Status
            "lhs",  # float | None
            "rhs",  # float | None
            "residual",  # float | None
            "allowed",  # float | None
            "err_budget",  # float | None
            "quad_evals",  # int
            "ms",  # float
            "message",  # str
        ),
        defaults=("",),
    )
):
    """The verdict on one record at one parameter point. A value that is
    None is null in reports."""

    __slots__ = ()

    def params_text(self) -> str:
        return ", ".join(f"{k}={_format_value(v)}" for k, v in self.params)


class SuiteResult(namedtuple("SuiteResult", ("results", "elapsed_ms"))):
    """The case results of one run, in catalog order, and its time (ms)."""

    __slots__ = ()

    def counts(self) -> dict[str, int]:
        out = {status.value: 0 for status in Status}
        for res in self.results:
            out[res.status.value] += 1
        return out

    @property
    def ok(self) -> bool:
        return all(res.status.ok for res in self.results)

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{n} {name}" for name, n in counts.items() if n]
        return f"{len(self.results)} cases: " + ", ".join(parts)


def config_for(record: IdentityRecord, eval_cap: int = DEFAULT_EVAL_CAP) -> EvalConfig:
    """Evaluator settings from a record's quadrature hints."""
    return EvalConfig(
        quad_decay=record.quad_decay,
        quad_vmax=record.quad_vmax,
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


def judge(
    record: IdentityRecord,
    left: Fraction | NumericResult,
    right: Fraction | NumericResult,
    tol_override: float | None = None,
) -> tuple[Status, float | None, float | None, str]:
    """The verdict on two evaluated sides: (status, residual, allowed, message).

    The sides are Fractions for EXACT records and NumericResults otherwise.
    Nothing is evaluated here, so stored sides can be judged again. A
    residual or allowed error (or threshold) past the float range is ERROR.
    """
    if record.kind is Kind.EXACT:
        resid = left - right
        if resid == 0:
            return Status.PASS, 0.0, 0.0, ""
        n_bits, d_bits = resid.numerator.bit_length(), resid.denominator.bit_length()
        if max(n_bits, d_bits) > _PRINTED_BITS:
            message = (f"exact residual too long to print ({n_bits}-bit numerator,"
                       f" {d_bits}-bit denominator)")
        else:
            message = f"exact residual {resid}"
        return Status.FAIL, _float_or_none(abs(resid)), 0.0, message

    diff = abs(left.value - right.value)
    if record.rhs_src.strip() == "0":
        scale = 1.0
    else:
        scale = max(abs(left.value), abs(right.value), _SCALE_FLOOR)
    control = record.kind is Kind.NEGATIVE_CONTROL
    if control:
        allowed = record.floor * scale
    else:
        tol = TOLERANCES[record.tol_class] if tol_override is None else tol_override
        # budgets first: tol * scale + lb + rb rounds some gates differently
        allowed = tol * scale + (left.err_budget + right.err_budget)
    if not (math.isfinite(diff) and math.isfinite(allowed)):
        return Status.ERROR, None, None, "residual or allowed error past the float range"
    if control:
        if diff > allowed:
            return Status.EXPECTED_FAIL_CONFIRMED, diff, allowed, ""
        return (
            Status.EXPECTED_FAIL_VIOLATED,
            diff,
            allowed,
            "control variant was not detectably wrong",
        )
    if diff <= allowed:
        return Status.PASS, diff, allowed, ""
    message = f"residual {diff:.3e} exceeds allowed {allowed:.3e}"
    return Status.FAIL, diff, allowed, message


def _float_or_none(x: Fraction) -> float | None:
    """x as a float, or None (null in reports) when it does not fit one."""
    try:
        return float(x)
    except OverflowError:
        return None


_Side = Fraction | NumericResult
# (side source, parameter point, EvalConfig or None for exact) -> side
_Memo = dict[tuple[str, Hashable, EvalConfig | None], _Side]


def _point(params: Mapping[str, GridValue]) -> Hashable:
    """params as part of a memo key. 0.0 == -0.0, but a side may tell
    them apart, so a zero also keys by its text."""
    return tuple((k, v, str(v)) if v == 0 else (k, v) for k, v in params.items())


def _side(
    memo: _Memo,
    src: str,
    node: Callable[[], Node],
    params: Mapping[str, GridValue],
    point: Hashable,
    cfg: EvalConfig | None,
    eval_cap: int,
) -> _Side:
    """One side evaluated, or taken from memo when it was evaluated at the
    same point with the same settings. The source text keys the side, as
    it parses to one node. A side that raises is not stored. cfg None is
    the exact path, under eval_cap, which one memo never varies."""
    key = (src, point, cfg)
    side = memo.get(key)
    if side is None:
        if cfg is None:
            side = evaluate_exact(node(), {k: Fraction(v) for k, v in params.items()}, eval_cap)
        else:
            side = evaluate_numeric(node(), params, cfg)
        memo[key] = side
    return side


def verify_case(
    record: IdentityRecord,
    params: Mapping[str, GridValue],
    eval_cap: int = DEFAULT_EVAL_CAP,
    tol_override: float | None = None,
    *,
    memo: _Memo | None = None,
) -> CaseResult:
    """Evaluate both sides of one record at one parameter point, reusing
    the sides stored in memo and storing new ones; None is a fresh memo."""
    memo = {} if memo is None else memo
    start = time.perf_counter()
    try:
        point = _point(params)
        cfg = None if record.kind is Kind.EXACT else config_for(record, eval_cap=eval_cap)
        left = _side(memo, record.lhs_src, record.lhs, params, point, cfg, eval_cap)
        right = _side(memo, record.rhs_src, record.rhs, params, point, cfg, eval_cap)
        status, residual, allowed, message = judge(record, left, right, tol_override)
        if cfg is None:
            lhs, rhs, budget, evals = _float_or_none(left), _float_or_none(right), 0.0, 0
        else:
            lhs, rhs = left.value, right.value
            budget = left.err_budget + right.err_budget
            # two finite budgets may sum past the float range; judge has
            # then made the case an ERROR
            if not math.isfinite(budget):
                budget = None
            evals = left.quad_evals + right.quad_evals
    except _EVAL_ERRORS as exc:
        lhs = rhs = residual = allowed = None
        budget, evals = 0.0, 0
        status, message = Status.ERROR, str(exc)
    return CaseResult(
        identity=record.id,
        group=record.group,
        kind=record.kind,
        tol_class=record.tol_class.value,
        params=tuple(params.items()),
        status=status,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        allowed=allowed,
        err_budget=budget,
        quad_evals=evals,
        ms=(time.perf_counter() - start) * 1000.0,
        message=message,
    )


def run_suite(
    records: Sequence[IdentityRecord] | None = None,
    eval_cap: int = DEFAULT_EVAL_CAP,
    tol_overrides: Mapping[str, float] | None = None,
) -> SuiteResult:
    """Verify every case of every record, in deterministic catalog order.

    tol_overrides maps tolerance class names to replacement relative
    tolerances for NUMERIC records of that class. A side that several
    cases share at one point with the same settings (a negative control
    and its positive record, two closed forms checked against one
    integral) is evaluated once per run; each case still reports the
    side's full quad_evals.
    """
    recs = builtin_identities() if records is None else tuple(records)
    overrides = dict(tol_overrides or {})
    memo: _Memo = {}
    start = time.perf_counter()
    results = tuple(
        verify_case(rec, params, eval_cap, overrides.get(rec.tol_class.value), memo=memo)
        for rec in recs
        for params in rec.case_params()
    )
    elapsed = (time.perf_counter() - start) * 1000.0
    return SuiteResult(results, elapsed)


# ---------------------------------------------------------------------------
# report serialization

# The report columns: one per CaseResult field, in field order. Names and
# order are part of the format. CSV rows leave out "ms", and so do JSON rows
# written with include_ms=False.
_COLUMNS = (
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
    "ms",
    "message",
)


def _row(res: CaseResult, include_ms: bool = True) -> dict[str, object]:
    """A case as a JSON report row."""
    row = dict(zip(_COLUMNS, res))
    row.update(
        kind=res.kind.value,
        params={k: _format_value(v) for k, v in res.params},
        status=res.status.value,
        ms=round(res.ms, 3),
    )
    if not include_ms:
        del row["ms"]
    return row


def _case(row: Mapping[str, object]) -> CaseResult:
    """Inverse of _row; a row without timing reads back with ms 0."""
    cells = {"ms": 0.0, "message": "", **row}
    res = CaseResult(*(cells[name] for name in _COLUMNS))
    return res._replace(
        kind=Kind(res.kind),
        params=tuple((k, _parse_value(v)) for k, v in res.params.items()),
        status=Status(res.status),
        ms=float(res.ms),
    )


# a few tens of KB of report text per write
_CHUNKS_PER_WRITE = 4096


def _emit(chunks: Iterable[str], stream: io.TextIOBase | None) -> str | None:
    """The report's text, or None once it is written to stream a batch of
    chunks at a time as they are rendered, so that no report is held
    whole in memory."""
    if stream is None:
        return "".join(chunks)
    # a write per json chunk would add about a fifth to the report time
    chunks = iter(chunks)
    while text := "".join(islice(chunks, _CHUNKS_PER_WRITE)):
        stream.write(text)
    return None


def to_json(
    suite: SuiteResult, include_ms: bool = True, stream: io.TextIOBase | None = None
) -> str | None:
    """JSON report; include_ms=False yields fully run-deterministic text,
    written to stream as json encodes it when one is given (see _emit)."""
    # json and csv are imported where a report is written or read, so a
    # process that handles no report never loads them
    import json

    doc: dict[str, object] = {
        "suite": "zetasech",
        "ok": suite.ok,
        "counts": suite.counts(),
    }
    if include_ms:
        doc["elapsed_ms"] = round(suite.elapsed_ms, 3)
    doc["cases"] = [_row(res, include_ms) for res in suite.results]
    # the text of json.dumps(doc, indent=2), in chunks
    return _emit(chain(json.JSONEncoder(indent=2).iterencode(doc), ("\n",)), stream)


def from_json(text: str) -> SuiteResult:
    """Rebuild a SuiteResult from to_json output (for report re-rendering)."""
    import json

    try:
        doc = json.loads(text)
        cases = tuple(_case(row) for row in doc["cases"])
        return SuiteResult(cases, float(doc.get("elapsed_ms", 0.0)))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a zetasech JSON report: {exc}") from None


def _markdown_lines(suite: SuiteResult) -> Iterator[str]:
    yield "# zetasech verification report\n"
    yield "\n"
    yield suite.summary() + "\n"
    yield "\n"
    yield "| identity | group | kind | tol | params | status | residual | allowed | message |\n"
    yield "| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
    for res in suite.results:
        resid = "" if res.residual is None else f"{res.residual:.3e}"
        allowed = "" if res.allowed is None else f"{res.allowed:.3e}"
        cells = (
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
        yield "| " + " | ".join(cells) + " |\n"


def to_markdown(suite: SuiteResult, stream: io.TextIOBase | None = None) -> str | None:
    """Markdown report, one table row per case (see _emit for stream)."""
    return _emit(_markdown_lines(suite), stream)


def to_csv(suite: SuiteResult, stream: io.TextIOBase | None = None) -> str | None:
    """CSV report: the JSON rows without timing, params as params_text().
    With a stream the rows are written to it as they are rendered, and
    None is returned, as by _emit."""
    import csv

    out = io.StringIO() if stream is None else stream
    header = [name for name in _COLUMNS if name != "ms"]
    writer = csv.DictWriter(out, header, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for res in suite.results:
        writer.writerow({**_row(res, include_ms=False), "params": res.params_text()})
    return out.getvalue() if stream is None else None
