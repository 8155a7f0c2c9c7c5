"""Command-line front end.

Subcommands: list the identity manifest, run verification suites, evaluate
ad-hoc expressions and one-variable integrals, export the builtin catalog,
and re-render saved JSON reports.  Exit codes: 0 success, 1 verification
failures, 2 bad usage or bad input, 3 I/O errors.  Timings never go to
stdout, so identical flags give identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction
from io import TextIOBase

from .catalog import (
    TOLERANCES,
    CatalogError,
    IdentityRecord,
    _checked_float,
    _parse_value,
    builtin_identities,
    format_catalog,
    parse_catalog,
)
from .evaluator import DEFAULT_EVAL_CAP, EvalConfig, NumericResult, evaluate_exact, evaluate_numeric
from .exprlang import _int_digits, binder_error, parse_expression
from .registry import function_arities
from .verifier import (
    SuiteResult,
    from_json,
    run_suite,
    to_csv,
    to_json,
    to_markdown,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

# every zetasech error class subclasses ValueError
_INPUT_ERRORS = (ValueError, ArithmeticError)


def _fail(message: str, code: int) -> int:
    print(f"zetasech: error: {message}", file=sys.stderr)
    return code


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _finite_float(text: str, zero_ok: bool) -> float:
    try:
        return _checked_float(text, zero_ok)
    except ValueError:
        bound = ">= 0" if zero_ok else "> 0"
        raise argparse.ArgumentTypeError(
            f"expected a finite number {bound}, got {text!r}"
        ) from None


def _positive_float(text: str) -> float:
    return _finite_float(text, zero_ok=False)


def _nonnegative_float(text: str) -> float:
    return _finite_float(text, zero_ok=True)


_TOL_CLASSES = tuple(cls.value for cls in TOLERANCES)


def _tol_override(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    name = name.strip().upper()
    if not sep or name not in _TOL_CLASSES:
        raise argparse.ArgumentTypeError(
            f"expected {'|'.join(_TOL_CLASSES)}=value, got {text!r}"
        )
    return name, _positive_float(value)


def _integration_var(text: str) -> str:
    error = binder_error(text, is_sum=False, functions=function_arities())
    if error:
        raise argparse.ArgumentTypeError(error)
    return text


def _parse_params(pairs: Sequence[str]) -> dict[str, object]:
    params: dict[str, object] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        name = name.strip()
        if not sep or not name.isidentifier():
            raise CatalogError(f"bad --param {pair!r}, expected name=value")
        try:
            params[name] = _parse_value(value)
        except CatalogError as exc:
            raise CatalogError(f"bad --param {pair!r}: {exc}") from None
    return params


def _select_records(args: argparse.Namespace) -> tuple[IdentityRecord, ...]:
    if getattr(args, "catalog", None):
        with open(args.catalog, "r", encoding="utf-8") as fh:
            records = parse_catalog(fh.read())
    else:
        records = builtin_identities()
    if getattr(args, "group", None):
        wanted = set(args.group)
        unknown = wanted - {rec.group for rec in records}
        if unknown:
            raise CatalogError(f"unknown group(s): {', '.join(sorted(unknown))}")
        records = tuple(rec for rec in records if rec.group in wanted)
    if getattr(args, "id", None):
        by_id = {rec.id: rec for rec in records}
        missing = [rid for rid in args.id if rid not in by_id]
        if missing:
            raise CatalogError(f"unknown identity id(s): {', '.join(missing)}")
        records = tuple(by_id[rid] for rid in args.id)
    return tuple(records)


def _write_output(out: str | None, write: Callable[[TextIOBase], object]) -> None:
    """Call write with stdout, or with the file out opened for writing.

    A reader that stops reading stdout early, as `| head` does, ends the
    output without an error; stdout then points at the null device, so
    the flush at exit has nowhere to fail."""
    if out is None:
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    with open(out, "w", encoding="utf-8") as fh:
        write(fh)


def _write_report(suite: SuiteResult, fmt: str, out: str | None) -> None:
    """Write suite's report to the file out, or to stdout, as it is rendered."""

    def write(stream: TextIOBase) -> None:
        if fmt == "json":
            # timings are kept out of stdout so runs stay reproducible
            to_json(suite, include_ms=out is not None, stream=stream)
        elif fmt == "md":
            to_markdown(suite, stream=stream)
        else:
            to_csv(suite, stream=stream)

    _write_output(out, write)


def _cmd_list(args: argparse.Namespace) -> int:
    records = _select_records(args)
    total = 0
    for rec in records:
        total += rec.case_count()
        print(
            f"{rec.id:12s} {rec.group} {rec.kind.value:16s}"
            f" {rec.tol_class.value:5s} {rec.case_count():3d} cases  "
            f"{rec.paper_anchor}"
        )
    print(f"{len(records)} identities, {total} cases")
    return EXIT_OK


def _case_line(res) -> str:
    resid = "" if res.residual is None else f" residual={res.residual:.3e}"
    allowed = "" if res.allowed is None else f" allowed={res.allowed:.3e}"
    params = f" [{res.params_text()}]" if res.params else ""
    msg = f"  {res.message}" if res.message else ""
    return f"{res.status.value} {res.identity}{params}{resid}{allowed}{msg}"


def _cmd_run(args: argparse.Namespace) -> int:
    records = _select_records(args)
    overrides = dict(args.tol or ())
    suite = run_suite(records, eval_cap=args.eval_cap, tol_overrides=overrides)
    for res in suite.results:
        if args.verbose or not res.status.ok:
            print(_case_line(res))
    print(suite.summary())
    if args.out is not None:
        _write_report(suite, args.format, args.out)
    return EXIT_OK if suite.ok else EXIT_VERIFY


def _exact_text(value: Fraction) -> str:
    """value as str() prints it, n or n/d; an exact result may have ~30,000
    digits, past the interpreter's limit on int-to-str conversion."""
    text = _int_digits(value.numerator)
    return text if value.denominator == 1 else f"{text}/{_int_digits(value.denominator)}"


def _cmd_eval(args: argparse.Namespace) -> int:
    node = parse_expression(args.expr)
    params = _parse_params(args.param or ())
    if args.exact:
        print(_exact_text(evaluate_exact(node, params, args.eval_cap)))  # type: ignore[arg-type]
        return EXIT_OK
    cfg = EvalConfig(quad_decay=args.decay, quad_p_max=args.p_max, eval_cap=args.eval_cap)
    result = evaluate_numeric(node, params, cfg)  # type: ignore[arg-type]
    return _print_numeric(result, show_evals=False)


def _print_numeric(result: NumericResult, show_evals: bool) -> int:
    """Print a numeric result for eval and quad. evaluate_numeric has
    already refused, as an input error, a value or error budget that is
    not finite and an integral that did not converge."""
    print(repr(result.value))
    print(f"err_budget = {result.err_budget!r}")
    if show_evals:
        print(f"quad_evals = {result.quad_evals}")
    return EXIT_OK


def _cmd_quad(args: argparse.Namespace) -> int:
    parse_expression(args.expr)  # surface position errors on the raw text
    node = parse_expression(f"integral[{args.var}]{{ {args.expr} }}")
    params = _parse_params(args.param or ())
    cfg = EvalConfig(
        quad_decay=args.decay,
        quad_vmax=args.vmax,
        quad_p_max=args.p_max,
        eval_cap=args.eval_cap,
    )
    result = evaluate_numeric(node, params, cfg)  # type: ignore[arg-type]
    return _print_numeric(result, show_evals=True)


def _cmd_export_catalog(args: argparse.Namespace) -> int:
    text = format_catalog(_select_records(args))
    _write_output(args.out, lambda fh: fh.write(text))
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        suite = from_json(fh.read())
    _write_report(suite, args.format, args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetasech",
        description="verify integral and series identities against each other",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_filters(p: argparse.ArgumentParser) -> None:
        p.add_argument("--id", action="append", metavar="ID",
                       help="select a single identity (repeatable)")
        p.add_argument("--group", action="append", metavar="G",
                       help="select a catalog group (repeatable)")
        p.add_argument("--catalog", metavar="FILE",
                       help="load records from a catalog file instead")

    def add_eval_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument("--eval-cap", type=_positive_int, default=DEFAULT_EVAL_CAP,
                       metavar="N", help="max work per expression, integrand evaluations"
                       " plus sum passes, shared by its integrals and sums (in run: per side)")

    def add_envelope(p: argparse.ArgumentParser) -> None:
        p.add_argument("--decay", type=_nonnegative_float,
                       default=EvalConfig().quad_decay, metavar="R",
                       help="exponential decay rate (0 = algebraic)")
        p.add_argument("--p-max", type=int, default=EvalConfig().quad_p_max, metavar="P",
                       help="polynomial envelope degree")

    p_list = sub.add_parser("list", help="print the identity manifest")
    add_filters(p_list)
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="verify identities")
    add_filters(p_run)
    add_eval_cap(p_run)
    p_run.add_argument("--tol", action="append", type=_tol_override,
                       metavar="CLASS=VALUE",
                       help="override a tolerance class (repeatable)")
    p_run.add_argument("--format", choices=("json", "md", "csv"),
                       default="json", help="report format for --out")
    p_run.add_argument("--out", metavar="FILE", help="write a report file")
    p_run.add_argument("-v", "--verbose", action="store_true",
                       help="print every case, not only failures")
    p_run.set_defaults(func=_cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expr")
    p_eval.add_argument("--param", "-p", action="append", metavar="NAME=VALUE",
                        help="bind a parameter (repeatable)")
    p_eval.add_argument("--exact", action="store_true",
                        help="evaluate over rationals")
    add_envelope(p_eval)
    add_eval_cap(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_quad = sub.add_parser("quad", help="integrate an expression over [0, inf)")
    p_quad.add_argument("expr", help="integrand in the variable given by --var")
    p_quad.add_argument("--var", type=_integration_var, default="v", metavar="NAME",
                        help="integration variable (default v)")
    p_quad.add_argument("--param", "-p", action="append", metavar="NAME=VALUE")
    add_envelope(p_quad)
    p_quad.add_argument("--vmax", type=_positive_float, metavar="V",
                        help="cap the truncation cutoff")
    add_eval_cap(p_quad)
    p_quad.set_defaults(func=_cmd_quad)

    p_export = sub.add_parser("export-catalog",
                              help="emit records in the catalog file format")
    add_filters(p_export)
    p_export.add_argument("--out", metavar="FILE")
    p_export.set_defaults(func=_cmd_export_catalog)

    p_report = sub.add_parser("report", help="re-render a saved JSON report")
    p_report.add_argument("report", metavar="REPORT.json")
    p_report.add_argument("--format", choices=("json", "md", "csv"),
                          default="md")
    p_report.add_argument("--out", metavar="FILE")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    except _INPUT_ERRORS as exc:
        return _fail(str(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
