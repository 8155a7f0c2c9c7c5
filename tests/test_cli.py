"""Command line behavior: subcommands, exit codes, and output contracts."""

import json
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
                 extra="quad = decay=inf vmax=none p_max=8 scale=1.0\n"),
         "line 8: bad quad value 'decay=inf'"),
        # a negative floor confirms a control whose sides agree
        (_record(kind="NEGATIVE_CONTROL", lhs="1", extra="floor = -1\n"),
         "line 8: bad floor '-1'"),
        (_record(extra="quad = decay=1 vmax=-3\n"), "line 8: bad quad value 'vmax=-3'"),
        (_record(extra="quad = decay=1 vmax=nan\n"), "line 8: bad quad value 'vmax=nan'"),
        (_record(extra="quad = decay=-1\n"), "line 8: bad quad value 'decay=-1'"),
        (_record(extra="quad = scale=0\n"), "line 8: bad quad value 'scale=0'"),
        (_record(extra="floor = nan\n"), "line 8: bad floor 'nan'"),
        (_record(lhs="x", rhs="x", extra="params = x in {1.5, 1e999}\n"),
         "line 8: bad grid value '1e999'"),
        (_record(lhs=_nested_sums("1", 17)),
         "line 1: record Probe: sums nested more than 16 deep (line 1, column 199)"),
    ],
)
def test_catalog_hints_out_of_range_are_input_errors(tmp_path, capsys, text, message):
    path = tmp_path / "probe.cat"
    path.write_text(text)
    code, out, err = run_cli(capsys, "run", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err == f"zetasech: error: {message}\n"


def test_non_finite_param_is_input_error(capsys):
    code, out, err = run_cli(capsys, "eval", "x + 1", "--param", "x=1e999")
    assert code == 2
    assert out == ""
    assert "bad grid value '1e999'" in err


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
    # 16 is the parser's cap; the compilers nest one loop per sum in one
    # code object, where CPython allows 20 nested blocks
    code, out, err = run_cli(capsys, "eval", "--exact", _nested_sums("1"))
    assert code == 0, err
    assert out.strip() == "1"
    code, want, err = run_cli(capsys, "eval", "integral[v]{exp(-v)}")
    assert code == 0, err
    code, out, err = run_cli(capsys, "eval", f"integral[v]{{ {_nested_sums('exp(-v)')} }}")
    assert code == 0, err
    assert out == want


def test_capped_sums_leave_room_for_a_guarded_call(capsys):
    # a call in the innermost body compiles to a try block inside the loops
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
        ("--exact", "{}"),  # exact compiler
        ("{}",),  # numeric closed form
        ("integral[v]{{ {} }}",),  # compiled integrand
    ],
)
def test_sums_nested_past_the_cap_are_positioned_errors(capsys, depth, argv):
    *flags, template = argv
    expr = template.format(_nested_sums("exp(-v)", depth))
    code, out, err = run_cli(capsys, "eval", *flags, expr)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    column = expr.index("sum[k16=") + 1  # the 17th sum
    assert err == (
        f"zetasech: error: sums nested more than 16 deep (line 1, column {column})\n"
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


def test_hurwitz_zeta_below_its_accurate_range_is_input_error(capsys):
    # the engine printed -539648.0 with err_budget 0.0 (true value 11287.6)
    code, out, err = run_cli(capsys, "eval", "hzeta(-23.88, 1.177271)")
    assert code == 2
    assert "hurwitz zeta is not accurate for s < -12" in err
    assert out == ""


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


def test_quad_reports_position_on_bad_body(capsys):
    code, _, err = run_cli(capsys, "quad", "v*")
    assert code == 2
    assert "column 3" in err


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


def test_eval_cap_env_override(capsys):
    code, out, err = run_cli(capsys, "quad", "exp(-pi*v)", "--eval-cap", "25")
    assert code == 0
    assert "not converged" in err or "converge" in err


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
        (("quad", "exp(-v)", "--rel-tol", "0"), "--rel-tol"),
        (("quad", "exp(-v)", "--rel-tol", "-1"), "--rel-tol"),
        (("quad", "exp(-v)", "--rel-tol", "inf"), "--rel-tol"),
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
