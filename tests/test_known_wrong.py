"""Known wrong answers: a ledger of the violations three oracles find.

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
- moment: integrals over [0, inf) whose exact values exact.py gives, in
  four families: v^n exp(-cv) = n!/c^(n+1); the sech kernel,
  v^(2n)/cosh(pi v) = |E_2n|/2^(2n+1); the Bose-Einstein moments,
  v^(2n-1)/(e^(2 pi v) - 1) = |B_2n|/(4n); and the Laplace transforms
  of sin(wv) and cos(wv), w/(c^2+w^2) and c/(c^2+w^2). Each member runs
  with its right hints (decay the integrand's rate, p_max its degree) and
  with wrong ones: twice the rate, the default decay pi where that is
  larger than the rate, and p_max 8 below the degree. A violation is the
  exact oracle's rule.
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
from zetasech.evaluator import EvalConfig, evaluate_exact, evaluate_numeric
from zetasech.exact import bernoulli_number, euler_number
from zetasech.exprlang import parse_expression
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


def _decay(k, of_pi):
    """The decay rate k, or k*pi if of_pi, as its label and its float."""
    if not of_pi:
        return str(k), float(k)
    return ("pi" if k == 1 else f"{k}*pi"), float(k) * math.pi


def _moments():
    """(integrand, exact value, decay rate as (k, of_pi), degree) of each member."""
    for c in map(Fraction, ("1/4", "1/2", "1", "3/2", "2", "3")):
        for n in (0, 1, 2, 4, 6, 8, 12, 16, 20):
            yield f"v^{n}*exp(-{c}*v)", math.factorial(n) / c ** (n + 1), (c, False), n
    for n in range(11):
        exact = Fraction(abs(euler_number(2 * n)), 2 ** (2 * n + 1))
        yield f"v^{2 * n}/cosh(pi*v)", exact, (1, True), 2 * n
    for n in range(1, 11):
        exact = abs(bernoulli_number(2 * n)) / (4 * n)
        yield f"v^{2 * n - 1}/expm1(2*pi*v)", exact, (2, True), 2 * n - 1
    for c in map(Fraction, ("1/4", "1/2", "1", "2", "3")):
        for w in map(Fraction, ("1/2", "1", "2", "5")):
            yield f"exp(-{c}*v)*sin({w}*v)", w / (c * c + w * w), (c, False), 0
            yield f"exp(-{c}*v)*cos({w}*v)", c / (c * c + w * w), (c, False), 0


def _hints(rate, degree):
    """The right hints, then the wrong ones, as (label, decay, p_max)."""
    k, of_pi = rate
    wrong = [(2 * k, of_pi, degree)]
    if _decay(k, of_pi)[1] < math.pi:
        wrong.append((1, True, degree))
    if degree >= 8:
        wrong.append((k, of_pi, degree - 8))
    for k, of_pi, p_max in [(*rate, degree), *wrong]:
        label, decay = _decay(k, of_pi)
        yield f"decay={label}, p_max={p_max}", decay, p_max


def moment_violations():
    """The moment integrals that miss their exact value under some hints."""
    for integrand, exact, rate, degree in _moments():
        node = parse_expression(f"integral[v]{{{integrand}}}")
        exact = float(exact)
        for point, decay, p_max in _hints(rate, degree):
            try:
                got = evaluate_numeric(node, {}, EvalConfig(quad_decay=decay, quad_p_max=p_max))
            except (ValueError, ArithmeticError):
                continue
            error = abs(got.value - exact)
            if error > got.err_budget + 2.0 * _U * abs(exact):
                yield _line("moment", integrand, point, "value", error, got.err_budget)


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
    found = {
        _key(line): line
        for line in [*exact_violations(), *moment_violations(), *cli_violations()]
    }
    listed = _listed()
    new = [line for key, line in found.items() if key not in listed]
    fixed = [line for key, line in listed.items() if key not in found]
    assert not new, "wrong answers not in known_wrong.txt:\n" + "\n".join(new)
    assert not fixed, "fixed: strike this line from known_wrong.txt:\n" + "\n".join(fixed)
