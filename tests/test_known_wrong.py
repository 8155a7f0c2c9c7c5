"""Known wrong answers: a ledger of the violations two oracles find.

known_wrong.txt holds one line per violation, its fields separated by
" | ": the oracle, the identity or command, the point, the side, and the
error and budget measured when the line was written. The test recomputes
the violations and compares the first four fields only. It fails on a
violation the file does not list, which is a new wrong answer, and on a
listed line that no longer violates ("fixed: strike this line"). So the
file only shrinks, and each fix shows in its diff.

Oracles:

- exact: every side of every EXACT record, at every grid point, through
  the numeric evaluator, against the float of its exact value. A violation
  is |num - exact| > err_budget + 2u|exact|, with u = 2^-53.
- cli: wrong-answer probes of the command line, run in-process through
  cli.main, against known values. A violation is exit 0 with
  |value - truth| > err_budget + 1e-12|truth|.

A refusal (an error raised, or exit 2) is not a violation.
"""

import contextlib
import io
import math
import shlex
from fractions import Fraction
from pathlib import Path

import mpmath

from zetasech import builtin_identities, cli
from zetasech.catalog import Kind
from zetasech.evaluator import evaluate_exact, evaluate_numeric
from zetasech.verifier import config_for

LEDGER = Path(__file__).with_name("known_wrong.txt")
_U = 2.0 ** -53


def _line(oracle, subject, point, side, error, budget):
    return " | ".join((oracle, subject, point, side, f"error={error:.3g} budget={budget:.3g}"))


def _key(line):
    return tuple(line.split(" | ")[:4])


def exact_violations():
    """The numeric sides of EXACT records that miss their exact value."""
    for rec in builtin_identities():
        if rec.kind is not Kind.EXACT:
            continue
        cfg = config_for(rec)
        for params in rec.case_params():
            point = ", ".join(f"{k}={v}" for k, v in params.items()) or "-"
            exact_params = {k: Fraction(v) for k, v in params.items()}
            for side, node in (("lhs", rec.lhs()), ("rhs", rec.rhs())):
                exact = float(evaluate_exact(node, exact_params))
                try:
                    got = evaluate_numeric(node, params, cfg)
                except (ValueError, ArithmeticError):
                    continue
                error = abs(got.value - exact)
                if error > got.err_budget + 2.0 * _U * abs(exact):
                    yield _line("exact", rec.id, point, side, error, got.err_budget)


def _sin_over_one_plus_v():
    """The integral of sin(v)/(1+v) over [0, inf), Ci(1)sin(1) + (pi/2 - Si(1))cos(1)."""
    with mpmath.workdps(40):
        one = mpmath.mpf(1)
        value = mpmath.ci(one) * mpmath.sin(one) + (mpmath.pi / 2 - mpmath.si(one)) * mpmath.cos(one)
        return float(value)


def _probes():
    """Commands whose answer is known, with that answer."""
    return (
        (("quad", "v^8*exp(-v)", "--decay", "3.14159"), float(math.factorial(8))),
        (("eval", "integral[v]{exp(-v)}"), 1.0),
        (("eval", "integral[v]{sin(v)/(1+v)}"), _sin_over_one_plus_v()),
        (("eval", "integral[v]{v^20*exp(-v)}", "--decay", "1"), float(math.factorial(20))),
        (
            (
                "eval",
                "sum[j=0,n]{(-1/2)^j*eulernum(n+j)/(fact(n-j)*fact(j))}",
                "--param",
                "n=12",
            ),
            float(Fraction(1, 1961990553600)),
        ),
    )


def cli_violations():
    """The probes that exit 0 with a value outside their budget."""
    for argv, truth in _probes():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        assert code in (0, 2), (argv, code, err.getvalue())
        if code == 2:
            continue
        value, budget = out.getvalue().splitlines()[:2]
        value = float(value)
        budget = float(budget.removeprefix("err_budget = "))
        error = abs(value - truth)
        if error > budget + 1e-12 * abs(truth):
            yield _line("cli", shlex.join(argv), "-", "value", error, budget)


def _listed():
    lines = [
        line
        for line in LEDGER.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    keys = [_key(line) for line in lines]
    assert len(set(keys)) == len(keys), "known_wrong.txt lists a violation twice"
    return dict(zip(keys, lines))


def test_known_wrong_answers_are_listed():
    found = {_key(line): line for line in [*exact_violations(), *cli_violations()]}
    listed = _listed()
    new = [line for key, line in found.items() if key not in listed]
    fixed = [line for key, line in listed.items() if key not in found]
    assert not new, "wrong answers not in known_wrong.txt:\n" + "\n".join(new)
    assert not fixed, "fixed: strike this line from known_wrong.txt:\n" + "\n".join(fixed)
