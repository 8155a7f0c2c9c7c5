"""Command line behavior: subcommands, exit codes, and output contracts."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import zetasech
from zetasech.cli import main
from zetasech.verifier import from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_prints_manifest(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "Theorem4" in out
    assert "J2Jbar" in out
    assert out.strip().endswith("119 identities, 994 cases")


def test_list_filters_by_group(capsys):
    code, out, _ = run_cli(capsys, "list", "--group", "F")
    assert code == 0
    assert "Casem1" in out
    assert "Theorem4 " not in out


def test_run_single_identity_passes(capsys):
    code, out, _ = run_cli(capsys, "run", "--id", "SinId")
    assert code == 0
    assert "PASS" in out


def test_run_unknown_identity_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--id", "Nope")
    assert code == 2
    assert "Nope" in err


def test_run_unknown_group_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--group", "Q")
    assert code == 2
    assert "Q" in err


def test_bogus_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_run_stdout_is_deterministic(capsys):
    argv = ("run", "--id", "SinId", "--id", "EuId", "-v")
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert first == second


def test_report_json_stdout_strips_timings(tmp_path, capsys):
    saved = tmp_path / "r.json"
    run_cli(capsys, "run", "--id", "SinId", "--out", str(saved))
    code, out, _ = run_cli(capsys, "report", str(saved), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "elapsed_ms" not in doc
    assert all("ms" not in case for case in doc["cases"])


def test_run_verbose_lists_cases(capsys):
    code, out, _ = run_cli(capsys, "run", "--id", "SinId", "--format", "csv", "-v")
    assert code == 0
    assert out.count("SinId") >= 3


def test_run_writes_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "run", "--id", "SinId", "--out", str(out_path))
    assert code == 0
    suite = from_json(out_path.read_text())
    assert suite.ok


def test_run_exit_one_on_failure(tmp_path, capsys):
    bad = tmp_path / "bad.cat"
    bad.write_text(
        "[identity Wrong]\n"
        "group = A\n"
        "kind = NUMERIC\n"
        "tol = TIGHT\n"
        "paper = probe\n"
        "lhs = 2 + 2\n"
        "rhs = 5\n"
    )
    code, out, _ = run_cli(capsys, "run", "--catalog", str(bad))
    assert code == 1
    assert "FAIL" in out


def _nested_sums(body, depth=16):
    # sum[k0=0,0]{ sum[k1=0,0]{ ... body ... } }: each level adds one term
    return "".join(f"sum[k{i}=0,0]{{" for i in range(depth)) + body + "}" * depth


def _record(kind="NUMERIC", lhs="integral[v]{exp(-v)}", rhs="1", extra=""):
    return (
        f"[identity Probe]\ngroup = A\nkind = {kind}\ntol = TIGHT\npaper = probe\n"
        f"lhs = {lhs}\nrhs = {rhs}\n{extra}"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        # a zero-width tail: [0, 1] would PASS the false value 1 - 1/e
        (_record(rhs="0.6321205588285577",
                 extra="quad = decay=inf vmax=none p_max=8\n"),
         "line 8: bad quad value 'decay=inf'"),
        # a negative floor confirms a control whose sides agree
        (_record(kind="NEGATIVE_CONTROL", lhs="1", extra="floor = -1\n"),
         "line 8: bad floor '-1'"),
        (_record(extra="quad = decay=1 vmax=-3\n"), "line 8: bad quad value 'vmax=-3'"),
        (_record(extra="quad = decay=1 vmax=nan\n"), "line 8: bad quad value 'vmax=nan'"),
        (_record(extra="quad = decay=-1\n"), "line 8: bad quad value 'decay=-1'"),
        (_record(extra="quad = scale=1.0\n"), "line 8: unknown quad key 'scale'"),
        (_record(extra="floor = nan\n"), "line 8: bad floor 'nan'"),
        (_record(lhs="x", rhs="x", extra="params = x in {1.5, 1e999}\n"),
         "line 8: bad grid value '1e999'"),
        # one line per field, one value set per parameter
        (_record(extra="quad = decay=1\nquad = p_max=4\n"), "line 9: repeated field 'quad'"),
        (_record(lhs="x", rhs="x", extra="params = x in {1, 2}; x in {3}\n"),
         "line 8: repeated parameter 'x'"),
    ],
)
def test_catalog_hints_out_of_range_are_input_errors(tmp_path, capsys, text, message):
    path = tmp_path / "probe.cat"
    path.write_text(text)
    code, out, err = run_cli(capsys, "run", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err == f"zetasech: error: {message}\n"


def test_a_record_with_17_nested_sums_runs(tmp_path, capsys):
    path = tmp_path / "probe.cat"
    path.write_text(_record(lhs=_nested_sums("1", 17), rhs="1"))
    code, out, err = run_cli(capsys, "run", "--catalog", str(path))
    assert code == 0, err
    assert out == "1 cases: 1 PASS\n"


def test_non_finite_sum_bound_is_an_error_row(tmp_path, capsys):
    # round() raised a bare ValueError (NaN) or OverflowError (inf), which
    # ended the whole run with no case reported
    path = tmp_path / "bound.cat"
    path.write_text(
        _record(lhs="sum[k=0, 10^308*10 - 10^308*10]{k}", rhs="0")
        + "\n" + _record(lhs="2 + 2", rhs="4").replace("Probe", "Fine")
    )
    code, out, err = run_cli(capsys, "run", "--catalog", str(path), "-v")
    assert code == 1
    assert err == ""
    assert out.splitlines() == [
        "ERROR Probe  sum upper bound must be an integer, got nan",
        "PASS Fine residual=0.000e+00 allowed=4.000e-10",
        "2 cases: 1 PASS, 1 ERROR",
    ]
    for expr, shown in [("sum[k=0, 10^308*10]{k}", "inf"),
                        ("sum[k=0, 10^308*10 - 10^308*10]{k}", "nan")]:
        code, out, err = run_cli(capsys, "eval", expr)
        assert code == 2
        assert out == ""
        assert err == f"zetasech: error: sum upper bound must be an integer, got {shown}\n"


def test_eval_overlong_literal_is_positioned_input_error(capsys):
    code, out, err = run_cli(capsys, "eval", "1 + " + "1" * 5000)
    assert code == 2
    assert out == ""
    assert err == "zetasech: error: number has more than 4300 digits (line 1, column 5)\n"


def test_long_literal_reads_under_the_lowest_digit_limit():
    # 640 is the lowest digit limit CPython accepts; a literal under the
    # 4300-digit cap must read whatever the limit is
    src = os.path.dirname(os.path.dirname(zetasech.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    ones = "1" * 1000
    proc = subprocess.run(
        [sys.executable, "-m", "zetasech.cli", "eval", "--exact", f"{ones}/{ones}"],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": path, "PYTHONINTMAXSTRDIGITS": "640"},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def test_long_exact_fraction_prints_under_the_lowest_digit_limit():
    # numerator and denominator have 6,021 and 6,203 digits, past a limit
    # of 640 on int-to-str conversion; "--" keeps argparse from reading the
    # leading minus as an option
    src = os.path.dirname(os.path.dirname(zetasech.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zetasech.cli", "eval", "--exact", "--", "-2^20000/3^13000"],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": path, "PYTHONINTMAXSTRDIGITS": "640"},
    )
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"-{2**20000}/{3**13000}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


def test_non_finite_param_is_input_error(capsys):
    code, out, err = run_cli(capsys, "eval", "x + 1", "--param", "x=1e999")
    assert code == 2
    assert out == ""
    assert "bad grid value '1e999'" in err


@pytest.mark.parametrize(
    "argv, shown",
    [
        (("eval", "2*(10^200*10^200)"), "inf"),
        (("eval", "10^200*10^200 - 10^200*10^200"), "nan"),
        (("quad", "10^308*exp(-v)*(1+v)"), "inf"),
    ],
)
def test_non_finite_value_is_input_error(capsys, argv, shown):
    # each sample and step is finite, only the result is not
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"zetasech: error: the value is not finite: {shown}\n"


@pytest.mark.parametrize("pair", ["x=1/0", "x=abc"])
def test_bad_param_value_names_the_flag(capsys, pair):
    code, out, err = run_cli(capsys, "eval", "x", "--param", pair)
    assert code == 2
    assert out == ""
    assert err == f"zetasech: error: bad --param {pair!r}: bad grid value {pair[2:]!r}\n"


def test_run_tol_override_flag(capsys):
    code, _, _ = run_cli(capsys, "run", "--id", "SinId", "--tol", "TIGHT=1e-2")
    assert code == 0
    code, _, err = run_cli(capsys, "run", "--id", "SinId", "--tol", "TIGHT=nope")
    assert code == 2


def test_eval_prints_value_and_budget(capsys):
    code, out, _ = run_cli(capsys, "eval", "digamma(7/8) - digamma(3/8)")
    assert code == 0
    value = float(out.splitlines()[0])
    assert abs(value - 1.9499819775974445) < 1e-12
    assert "err_budget" in out


def test_eval_with_parameters(capsys):
    code, out, _ = run_cli(capsys, "eval", "hzeta(s, a)", "--param", "s=2", "-p", "a=1")
    assert code == 0
    assert abs(float(out.splitlines()[0]) - 1.6449340668482264) < 1e-12


def test_eval_exact_mode_prints_fraction(capsys):
    code, out, _ = run_cli(capsys, "eval", "--exact", "bernpoly(4, 1/2)")
    assert code == 0
    assert out.splitlines()[0].strip() == "7/240"


def test_eval_exact_prints_large_integers(capsys):
    # 2^20000 has 6,021 digits, past the interpreter's default str() limit
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "eval", "--exact", "2^20000")
    assert sys.get_int_max_str_digits() == limit
    assert code == 0, err
    sys.set_int_max_str_digits(0)
    try:
        want = str(2**20000)
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.strip() == want


def test_eval_takes_algebraic_envelope(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "integral[v]{1/(1+v)^3}", "--decay", "0", "--p-max", "-3"
    )
    assert code == 0
    assert abs(float(out.splitlines()[0]) - 0.5) < 1e-12


def test_a_body_holding_a_sum_is_checked_at_its_first_sample(capsys):
    # a loop-free body walks its parameter-only parts before quadrature
    # starts; a body that holds a sum is walked from its first sample on,
    # after the quadrature settings are checked
    code, out, err = run_cli(capsys, "quad", "b*exp(-v)", "--decay", "0")
    assert (code, out, err) == (2, "", "zetasech: error: unbound name 'b'\n")
    code, out, err = run_cli(capsys, "quad", "b*sum[k=0,1]{exp(-v)}", "--decay", "0")
    assert (code, out) == (2, "")
    assert err == "zetasech: error: quadrature failed: algebraic envelope needs p_max < -1\n"


@pytest.mark.parametrize("expr", ["10^(10^8)", "pow(10, 10^8)", "fact(10^7)"])
def test_oversized_exact_result_is_input_error(expr):
    # a child process with a timeout, so that a missing guard fails the test
    # instead of hanging it
    src = os.path.dirname(os.path.dirname(zetasech.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zetasech.cli", "eval", "--exact", expr],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert "would exceed 100000 bits" in proc.stderr
    assert proc.stdout == ""


def test_deeply_nested_sums_evaluate(capsys):
    # an integrand that holds sums is sampled by the walk, so no nesting of
    # loops in one code object limits them
    code, out, err = run_cli(capsys, "eval", "--exact", _nested_sums("1"))
    assert code == 0, err
    assert out.strip() == "1"
    code, want, err = run_cli(capsys, "eval", "integral[v]{exp(-v)}")
    assert code == 0, err
    code, out, err = run_cli(capsys, "eval", f"integral[v]{{ {_nested_sums('exp(-v)')} }}")
    assert code == 0, err
    assert out == want


def test_capped_sums_leave_room_for_a_guarded_call(capsys):
    # a call inside 16 nested sums evaluates on the exact, the numeric and
    # the integrand path
    code, out, err = run_cli(capsys, "eval", "--exact", _nested_sums("binom(2, 1)"))
    assert code == 0, err
    assert out.strip() == "2"
    code, out, err = run_cli(capsys, "eval", _nested_sums("cos(0)"))
    assert code == 0, err
    assert out.splitlines()[0] == "1.0"
    code, want, err = run_cli(capsys, "eval", "integral[v]{exp(-v)}")
    assert code == 0, err
    code, out, err = run_cli(
        capsys, "eval", f"integral[v]{{ {_nested_sums('cos(0)*exp(-v)')} }}"
    )
    assert code == 0, err
    assert out == want


@pytest.mark.parametrize("depth", [17, 40])
@pytest.mark.parametrize(
    "argv",
    [
        ("--exact", "{}"),  # exact walk
        ("{}",),  # numeric closed form
        ("integral[v]{{ {} }}",),  # compiled integrand
    ],
)
def test_sums_nested_past_the_cap_are_positioned_errors(capsys, depth, argv):
    # sums nested depth deep evaluate; the one cap on nesting is the
    # parser's 100 levels, which 100 nested sums pass at the 100th sum's
    # lower bound (the integral is a level of its own)
    *flags, template = argv
    body = "exp(-v)" if "integral" in template else "2"
    code, want, err = run_cli(capsys, "eval", *flags, template.format(body))
    assert code == 0, err
    code, out, err = run_cli(capsys, "eval", *flags, template.format(_nested_sums(body, depth)))
    assert code == 0, err
    assert out == want
    expr = template.format(_nested_sums(body, 100))
    code, out, err = run_cli(capsys, "eval", *flags, expr)
    assert (code, out) == (2, "")
    last = "sum[k98=" if "integral" in template else "sum[k99="
    column = expr.index(last) + len(last) + 1
    assert err == (
        "zetasech: error: expression nested more than 100 levels deep"
        f" (line 1, column {column})\n"
    )


def test_exact_sum_total_is_capped():
    # the harmonic sum's denominator passes 100,000 bits near k = 70,000;
    # uncapped, the 10^6 terms run for minutes
    src = os.path.dirname(os.path.dirname(zetasech.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zetasech.cli", "eval", "--exact", "sum[k=1,1000000]{1/k}"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert "sum would exceed 100000 bits" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sum[k=0,10^5]{sum[j=0,10^5]{1}}"],
        ["--exact", "sum[k=0,10^5]{sum[j=0,10^5]{1}}"],
        ["integral[v]{exp(-pi*v)*sum[k=0,3000]{sum[j=0,3000]{1}}}"],
        ["integral[v]{exp(-v)*sum[k=1,999999]{v/k^2}}", "--decay", "1"],
        ["sum[k=1,600000]{1/k^2} + sum[k=1,600000]{1/k^2}"],
    ],
)
def test_nested_sums_are_refused_at_once(argv):
    # each range is under the cap, but the passes of one evaluation through
    # its sum bodies, over all its sums and integrand samples, pass it long
    # before the outer sum or the quadrature ends; the first four ran until
    # a timeout stopped them, or for 34 s and exited 0
    src = os.path.dirname(os.path.dirname(zetasech.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zetasech.cli", "eval", *argv],
        capture_output=True,
        text=True,
        timeout=5,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "zetasech: error: eval cap 1000000 exceeded by sum passes and integrand samples\n"
    )
    assert proc.stdout == ""


def test_polygamma_past_the_float_range_is_input_error(capsys):
    code, out, _ = run_cli(capsys, "eval", "polygamma(171, 2)")
    assert (code, out) == (0, "2.073093314165313e+257\nerr_budget = 0.0\n")
    code, out, err = run_cli(capsys, "eval", "polygamma(999, 2)")
    assert (code, out) == (2, "")
    assert err == (
        "zetasech: error: polygamma failed: polygamma(999, 2.0) is too large for a float\n"
    )


def test_hurwitz_zeta_below_its_accurate_range_is_input_error(capsys):
    # the engine printed -539648.0 with err_budget 0.0 (true value 11287.6)
    code, out, err = run_cli(capsys, "eval", "hzeta(-23.88, 1.177271)")
    assert code == 2
    assert "hurwitz zeta is not accurate for s < -12" in err
    assert out == ""


@pytest.mark.parametrize(
    "expr, message",
    [
        (
            "hzeta(172, 0.01)",
            "hzeta failed: hurwitz zeta(172, 0.01) is past the double-double range",
        ),
        ("eta(152, 0.02)", "eta failed: eta(152, 0.02) is past the double-double range"),
        ("eta(1.5, 10^-250)", "eta failed: eta(1.5, 1e-250) is past the double-double range"),
        (
            "eta_ds(1.5, 10^-250)",
            "eta_ds failed: eta(1.5, 1e-250) is past the double-double range",
        ),
        (
            "polygamma(171, 0.01)",
            "polygamma failed: polygamma(171, 0.01) is too large for a float",
        ),
    ],
)
def test_values_past_the_double_double_range_are_input_errors(capsys, expr, message):
    # hzeta and eta printed "returned a non-finite value" for a NaN here,
    # and eta near s = 1 "math range error"; polygamma names the float
    # range, not the engine's
    code, out, err = run_cli(capsys, "eval", expr)
    assert (code, out, err) == (2, "", f"zetasech: error: {message}\n")


@pytest.mark.parametrize(
    "expr, message",
    [
        ("hzeta(10^8, 2)", "hzeta failed: hurwitz zeta is not computed for s > 1000"),
        ("eta(10^7, 1)", "eta failed: hurwitz zeta is not computed for s > 1000"),
        ("hzeta_ds(10^7, 2)", "hzeta_ds failed: hurwitz zeta is not computed for s > 1000"),
        ("S_ds(10^7, 1)", "S_ds failed: hurwitz zeta is not computed for s > 1000"),
        ("S(10^7, 1)", "S failed: hurwitz zeta is not computed for s > 1000"),
        ("eta_ds(10^7, 1)", "eta_ds failed: hurwitz zeta is not computed for s > 1000"),
        ("polygamma(10^7, 2)", "polygamma failed: polygamma is not computed for m > 999"),
        ("laguerre(10^7, 0, 1)", "laguerre failed: laguerre is not computed for n > 170"),
        (
            "h3f2(10^7, -1)",
            "h3f2 failed: hyp3f2_reduction is not computed for m > 169 and |z| > 0.75",
        ),
        ("bernnum(10^5)", "bernnum failed: Bernoulli numbers are not computed for n > 300"),
        (
            "eulernum(10^5)",
            "eulernum failed: Euler numbers and polynomials are not computed for n > 299",
        ),
        (
            "eulerpoly(10^5, 1/2)",
            "eulerpoly failed: Euler numbers and polynomials are not computed for n > 299",
        ),
        (
            "--exact bernnum(2000)",
            "bernnum failed: Bernoulli numbers are not computed for n > 300",
        ),
    ],
)
def test_large_orders_are_refused_at_once(expr, message):
    # the Euler-Maclaurin head grows with s, polygamma computed m! first,
    # and laguerre, h3f2 and the Bernoulli recurrence take n^2 steps: each
    # of these ran for seconds, minutes or more
    src = os.path.dirname(os.path.dirname(zetasech.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # "--exact EXPR" runs the exact path
    argv = expr.split(" ", 1) if expr.startswith("--exact ") else [expr]
    proc = subprocess.run(
        [sys.executable, "-m", "zetasech.cli", "eval", *argv],
        capture_output=True,
        text=True,
        timeout=2,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert proc.stderr == f"zetasech: error: {message}\n"
    assert proc.stdout == ""


def test_eval_rejects_bad_expression(capsys):
    code, _, err = run_cli(capsys, "eval", "sin(")
    assert code == 2
    assert "line 1" in err


def test_eval_rejects_bad_parameter(capsys):
    assert run_cli(capsys, "eval", "s", "--param", "s")[0] == 2


def test_quad_matches_documented_example(capsys):
    code, out, _ = run_cli(
        capsys, "quad", "v*arctan(2*v)/cosh(pi*v)", "--decay", "3.14159"
    )
    assert code == 0
    assert abs(float(out.splitlines()[0]) - 0.15231869459234065) < 1e-9


def test_quad_honors_var_flag(capsys):
    code, out, _ = run_cli(capsys, "quad", "exp(-pi*t)", "--var", "t")
    assert code == 0
    assert abs(float(out.splitlines()[0]) - 1.0 / 3.141592653589793) < 1e-10


@pytest.mark.parametrize(
    "var, problem",
    [
        # pasted unchecked, this integrated a different expression
        ("v]{exp(-v)} + 0*integral[u", "is not a name, so it cannot be used as"),
        ("x y", "is not a name, so it cannot be used as"),
        ("", "is not a name, so it cannot be used as"),
        ("pi", "cannot be used as"),
    ],
)
def test_quad_var_must_be_one_name(capsys, var, problem):
    code, out, err = run_cli(capsys, "quad", "v", "--var", var)
    assert code == 2
    assert out == ""
    assert f"error: argument --var: {var!r} {problem} an integration variable\n" in err


def test_quad_reports_position_on_bad_body(capsys):
    code, _, err = run_cli(capsys, "quad", "v*")
    assert code == 2
    assert "column 3" in err


def test_overflowing_envelope_is_named(tmp_path, capsys):
    # V is ~1e6 or ~1e304 here, and the tail's (1+V)^p_max overflows
    code, out, err = run_cli(capsys, "quad", "exp(-v)", "--p-max", "100000")
    assert code == 2
    assert out == ""
    assert err == (
        "zetasech: error: quadrature failed: envelope"
        " exp(-3.141592653589793*v)*(1+v)^100000 has no finite cutoff and tail\n"
    )
    path = tmp_path / "probe.cat"
    path.write_text(_record(extra="quad = decay=1e-300\n"))
    code, out, _ = run_cli(capsys, "run", "--catalog", str(path))
    assert code == 1
    assert out.splitlines()[0] == (
        "ERROR Probe  quadrature failed: envelope exp(-1e-300*v)*(1+v)^8"
        " has no finite cutoff and tail"
    )


def test_export_then_run_reproduces_builtin(tmp_path, capsys):
    cat = tmp_path / "subset.cat"
    code, _, _ = run_cli(capsys, "export-catalog", "--group", "E", "--out", str(cat))
    assert code == 0
    ref_out = tmp_path / "ref.json"
    got_out = tmp_path / "got.json"
    assert run_cli(capsys, "run", "--group", "E", "--out", str(ref_out))[0] == 0
    assert run_cli(capsys, "run", "--catalog", str(cat), "--out", str(got_out))[0] == 0
    ref = json.loads(ref_out.read_text())
    got = json.loads(got_out.read_text())
    for doc in (ref, got):
        doc.pop("elapsed_ms", None)
        for case in doc["cases"]:
            case.pop("ms", None)
    assert ref == got


def test_export_catalog_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "export-catalog", "--id", "SinId")
    assert code == 0
    assert "[identity SinId]" in out


def test_report_rerenders_saved_json(tmp_path, capsys):
    saved = tmp_path / "r.json"
    run_cli(capsys, "run", "--id", "SinId", "--out", str(saved))
    code, out, _ = run_cli(capsys, "report", str(saved))
    assert code == 0
    assert "| identity |" in out
    code, out, _ = run_cli(capsys, "report", str(saved), "--format", "csv")
    assert code == 0
    assert out.startswith("identity,")


def _capture_suites(monkeypatch):
    """The suites run_suite returns to the command line, in call order."""
    from zetasech import cli

    suites = []
    run_suite = cli.run_suite

    def recording(*args, **kwargs):
        suites.append(run_suite(*args, **kwargs))
        return suites[-1]

    monkeypatch.setattr(cli, "run_suite", recording)
    return suites


# a PASS, an EXACT PASS and a confirmed negative control
_MIXED = ("--id", "SinId", "--id", "EuId", "--id", "Eq3p1Ctl")


def test_run_out_writes_json_encoders_own_text(tmp_path, capsys, monkeypatch):
    from zetasech.verifier import to_json

    suites = _capture_suites(monkeypatch)
    saved = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "run", *_MIXED, "--out", str(saved))
    assert code == 0
    (suite,) = suites
    text = saved.read_text(encoding="utf-8")
    # the file keeps the timings; json reads back every float exactly
    assert text == to_json(suite) == to_json(suite, include_ms=True)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert {"SinId", "EuId", "Eq3p1Ctl"} == {row["identity"] for row in json.loads(text)["cases"]}


def test_run_out_of_an_empty_suite(tmp_path, capsys):
    empty = tmp_path / "empty.cat"
    empty.write_text("")
    saved = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "run", "--catalog", str(empty), "--out", str(saved))
    assert code == 0
    text = saved.read_text(encoding="utf-8")
    assert text.endswith('  "cases": []\n}\n')
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "md"])
def test_run_out_text_formats_equal_their_renderers(tmp_path, capsys, monkeypatch, fmt):
    from zetasech.verifier import to_csv, to_markdown

    suites = _capture_suites(monkeypatch)
    saved = tmp_path / f"r.{fmt}"
    code, _, _ = run_cli(capsys, "run", *_MIXED, "--format", fmt, "--out", str(saved))
    assert code == 0
    render = to_csv if fmt == "csv" else to_markdown
    assert saved.read_text(encoding="utf-8") == render(suites[0])


def test_report_writes_the_same_text_to_a_file_and_to_stdout(tmp_path, capsys):
    saved = tmp_path / "r.json"
    run_cli(capsys, "run", *_MIXED, "--out", str(saved))
    # re-rendering a saved report as json reproduces it byte for byte
    again = tmp_path / "r2.json"
    assert run_cli(capsys, "report", str(saved), "--format", "json", "--out", str(again))[0] == 0
    assert again.read_bytes() == saved.read_bytes()
    for fmt in ("csv", "md"):
        written = tmp_path / f"r.{fmt}"
        assert run_cli(capsys, "report", str(saved), "--format", fmt, "--out", str(written))[0] == 0
        code, out, _ = run_cli(capsys, "report", str(saved), "--format", fmt)
        assert code == 0
        assert out == written.read_text(encoding="utf-8")


def test_json_reports_go_through_to_json_once(tmp_path, capsys, monkeypatch):
    # the benchmark's tracer times the report by wrapping the name to_json
    from zetasech import cli

    calls = []
    to_json = cli.to_json

    def counting(*args, **kwargs):
        calls.append(kwargs.get("stream") is not None)
        return to_json(*args, **kwargs)

    monkeypatch.setattr(cli, "to_json", counting)
    saved = tmp_path / "r.json"
    assert run_cli(capsys, "run", "--id", "SinId", "--out", str(saved))[0] == 0
    assert calls == [True]
    assert run_cli(capsys, "report", str(saved), "--format", "json")[0] == 0
    assert calls == [True, True]


def test_report_to_a_closed_pipe_ends_quietly(tmp_path):
    # a reader that stops early, as `| head` does: the report is ~1 MB on
    # stdout, far past a pipe's buffer, so writing it meets a closed pipe
    from zetasech import get_identity, verify_case
    from zetasech.verifier import SuiteResult, to_json

    rec = get_identity("SinId")
    suite = SuiteResult((verify_case(rec, rec.case_params()[0]),) * 12000, 1.0)
    saved = tmp_path / "big.json"
    saved.write_text(to_json(suite), encoding="utf-8")
    src_dir = os.path.dirname(os.path.dirname(zetasech.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src_dir!r}); from zetasech.cli import main\n"
        f"sys.exit(main(['report', {str(saved)!r}, '--format', 'md']))\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-I", "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.read(10) == b"# zetasech"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (0, b"")


def test_unwritable_out_is_io_error(tmp_path, capsys):
    target = str(tmp_path / "no" / "such" / "dir" / "r.json")
    code, out, err = run_cli(capsys, "run", "--id", "SinId", "--out", target)
    assert code == 3
    assert err.startswith("zetasech: error: ")
    saved = tmp_path / "r.json"
    run_cli(capsys, "run", "--id", "SinId", "--out", str(saved))
    for fmt in ("json", "csv", "md"):
        code, out, err = run_cli(capsys, "report", str(saved), "--format", fmt, "--out", target)
        assert (code, out) == (3, "")
        assert err.startswith("zetasech: error: ")


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_budget_sum_past_the_float_range_is_null(tmp_path, capsys):
    # each side's budget, 10^308 times a tail bound of ~0.95, is finite;
    # their sum is not
    side = "10^308*integral[v]{exp(-v)}"
    catalog = tmp_path / "probe.cat"
    catalog.write_text(_record(lhs=side, rhs=side, extra="quad = decay=1.0 vmax=0.05 p_max=0\n"))
    saved = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "run", "--catalog", str(catalog), "--out", str(saved))
    assert code == 1
    (row,) = json.loads(saved.read_text(), parse_constant=_refuse_constant)["cases"]
    assert row["status"] == "ERROR"
    assert row["message"] == "residual or allowed error past the float range"
    assert row["err_budget"] is None
    assert row["lhs"] == row["rhs"] > 1e306
    code, out, _ = run_cli(capsys, "report", str(saved), "--format", "csv")
    assert code == 0
    (cells,) = csv.DictReader(io.StringIO(out))
    assert [cells[name] for name in ("status", "residual", "allowed", "err_budget")] == [
        "ERROR", "", "", ""
    ]


def test_cli_import_loads_no_report_modules(tmp_path):
    # typing and json/csv are not on the import path; a report written and
    # read in the same fresh interpreter loads json and csv on the spot
    src_dir = os.path.dirname(os.path.dirname(zetasech.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src_dir!r}); import zetasech.cli\n"
        "loaded = sorted({'typing', 'contextlib', 'json', 'csv'} & set(sys.modules))\n"
        "from zetasech import SuiteResult, from_json, get_identity, to_csv, to_json,"
        " verify_case\n"
        "rec = get_identity('SinId')\n"
        "suite = SuiteResult((verify_case(rec, rec.case_params()[0]),), 1.0)\n"
        "back = from_json(to_json(suite))\n"
        "assert to_json(back, include_ms=False) == to_json(suite, include_ms=False)\n"
        "assert to_csv(back) == to_csv(suite)\n"
        "print(loaded, to_csv(back).splitlines()[1].split(',')[5])\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, check=True, cwd=tmp_path,
    ).stdout
    assert out == "[] PASS\n"


def test_report_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "report", "/no/such/file.json")
    assert code == 3
    assert err


def test_report_rejects_foreign_json(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text('{"hello": 1}')
    code, _, err = run_cli(capsys, "report", str(path))
    assert code == 2
    assert "report" in err


def _over_cap(cap):
    return f"zetasech: error: eval cap {cap} exceeded by sum passes and integrand samples\n"


def test_eval_cap_env_override(capsys):
    # an integral the cap stops is not an answer: nothing goes to stdout
    for cmd in (("quad", "exp(-pi*v)"), ("eval", "integral[v]{exp(-pi*v)}")):
        code, out, err = run_cli(capsys, *cmd, "--eval-cap", "25")
        assert (code, out, err) == (2, "", _over_cap(25)), cmd


def test_eval_cap_below_the_first_level_is_input_error(capsys):
    # the first level takes 7 evaluations, charged before its first sample.
    # A cap below that, or a nested integral whose first level passes what
    # the outer one left, is refused naming the cap that was given: at cap
    # 10 the outer first level takes 7 and the inner one's 7 pass the cap.
    # At cap 252 the integrals fit their first levels but not the ones
    # that would converge them.
    for cmd, cap in (
        (("quad", "exp(-pi*v)"), 3),
        (("eval", "integral[v]{exp(-pi*v)}"), 6),
        (("eval", "integral[v]{integral[w]{exp(-v-w)}}"), 10),
        (("eval", "integral[v]{exp(-pi*v)*integral[w]{exp(-pi*w)}}"), 252),
    ):
        code, out, err = run_cli(capsys, *cmd, "--eval-cap", str(cap))
        assert (code, out, err) == (2, "", _over_cap(cap)), cmd


def test_an_integral_whose_ladder_runs_out_is_input_error(capsys):
    # no cap stops it: the ladder takes all its 31,949 samples unconverged,
    # and N counts those alone, not the samples of an integral around it
    for cmd in (("quad", "exp(-pi*v)*sin(1000*v)"),
                ("eval", "integral[v]{exp(-pi*v)*sin(1000*v)}"),
                ("eval", "integral[v]{exp(-pi*v)*integral[w]{exp(-pi*w)*sin(1000*w)}}")):
        code, out, err = run_cli(capsys, *cmd)
        assert (code, out) == (2, ""), cmd
        assert err == "zetasech: error: quadrature did not converge after 31949 evaluations\n"


def test_quad_takes_no_tolerance_flag(capsys):
    # every integral over [0, inf) is refined to one relative tolerance
    code, out, err = run_cli(capsys, "quad", "exp(-v)", "--rel-tol", "1e-8")
    assert (code, out) == (2, "")
    assert "error: unrecognized arguments: --rel-tol 1e-8" in err


def test_an_euler_integral_whose_ladder_runs_out_is_input_error(capsys):
    # h2f1_log(0, t) integrates 1/(1 + 4t^2 u) over [0, 1]; at t = 10^100
    # the ladder runs out, and its last level gave 1.94e-199 for 1.15e-198
    code, out, err = run_cli(capsys, "eval", "h2f1_log(0, 10^100)")
    assert (code, out) == (2, "")
    assert err == (
        "zetasech: error: h2f1_log failed: 2F1 Euler integral did not converge"
        " after 31949 evaluations\n"
    )
    # 2F1(1, 1; 2; z) = -ln(1 - z)/z, here at z = -4e20
    code, out, err = run_cli(capsys, "eval", "h2f1_log(0, 10^10)")
    assert (code, err) == (0, "")
    want = -math.log1p(4e20) / -4e20
    assert abs(float(out.splitlines()[0]) - want) <= 1e-14 * want


def test_integrand_samples_count_against_the_cap_as_they_are_taken(capsys):
    # 249 samples and 24,900 sum passes: past a cap of 24,900
    code, out, err = run_cli(
        capsys, "eval", "integral[v]{exp(-pi*v)*sum[k=1,100]{1}}", "--eval-cap", "24900"
    )
    assert (code, out) == (2, "")
    assert err == "zetasech: error: eval cap 24900 exceeded by sum passes and integrand samples\n"


def test_eval_cap_bounds_exact_evaluations(capsys):
    code, out, err = run_cli(capsys, "eval", "--exact", "sum[k=1,100]{k}", "--eval-cap", "5")
    assert (code, out) == (2, "")
    assert err == "zetasech: error: eval cap 5 exceeded by sum passes and integrand samples\n"
    code, out, _ = run_cli(capsys, "run", "--id", "BernSum", "--eval-cap", "5")
    assert code == 1
    assert "ERROR BernSum [n=6, a=2]  eval cap 5 exceeded by sum passes" in out
    assert out.endswith("28 cases: 12 PASS, 16 ERROR\n")


def test_eval_cap_env_validation(capsys):
    for cmd in (("run", "--id", "Theorem4"), ("eval", "1 + 1"), ("quad", "exp(-pi*v)")):
        for cap in ("banana", "-3", "0"):
            code, out, err = run_cli(capsys, *cmd, "--eval-cap", cap)
            assert code == 2, (cmd, cap)
            assert "error: argument --eval-cap" in err
            assert out == ""


@pytest.mark.parametrize("exact", [(), ("--exact",)])
def test_long_sum_is_input_error(capsys, exact):
    code, out, err = run_cli(capsys, "eval", *exact, "+".join(["1"] * 5000))
    assert code == 2
    assert "nested too deeply" in err


def test_deep_parentheses_are_positioned_error(capsys):
    code, out, err = run_cli(capsys, "eval", "(" * 3000 + "1" + ")" * 3000)
    assert code == 2
    assert "zetasech: error:" in err
    assert "(line 1, column 101)" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("run", "--id", "SinId", "--tol", "TIGHT=-1"), "--tol"),
        (("run", "--id", "SinId", "--tol", "TIGHT=nan"), "--tol"),
        (("run", "--id", "SinId", "--tol", "TIGHT=inf"), "--tol"),
        (("run", "--id", "SinId", "--tol", "TIGHT=0"), "--tol"),
        (("quad", "exp(-v)", "--vmax", "inf"), "--vmax"),
        (("quad", "exp(-v)", "--p-max", "x"), "--p-max"),
        (("eval", "integral[v]{exp(-v)}", "--p-max", "1.5"), "--p-max"),
        (("quad", "exp(-v)", "--decay", "1", "--vmax", "0"), "--vmax"),
        (("quad", "exp(-v)", "--decay", "1", "--vmax", "-3"), "--vmax"),
        (("quad", "exp(-v)", "--vmax", "nan"), "--vmax"),
        (("quad", "exp(-v)", "--decay", "inf"), "--decay"),
        (("eval", "integral[v]{exp(-v)}", "--decay", "inf"), "--decay"),
        (("eval", "integral[v]{exp(-v)}", "--decay", "-1"), "--decay"),
        (("eval", "integral[v]{exp(-v)}", "--decay", "nan"), "--decay"),
    ],
)
def test_numeric_flags_reject_out_of_range_values(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"error: argument {flag}:" in err
    assert out == ""
