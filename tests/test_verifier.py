"""Verification semantics: statuses, determinism, and report formats."""

import hashlib
import io
import json

import pytest

from zetasech import evaluator, verifier
from zetasech.catalog import builtin_identities, get_identity, parse_catalog
from zetasech.evaluator import DEFAULT_EVAL_CAP
from zetasech.verifier import (
    Status,
    SuiteResult,
    from_json,
    run_suite,
    to_csv,
    to_json,
    to_markdown,
    verify_case,
)

PROBE = """[identity {rid}]
group = A
kind = {kind}
tol = {tol}
paper = probe
lhs = {lhs}
rhs = {rhs}
"""


def probe(rid, lhs, rhs, kind="NUMERIC", tol="TIGHT", extra=""):
    text = PROBE.format(rid=rid, kind=kind, tol=tol, lhs=lhs, rhs=rhs) + extra
    return parse_catalog(text)[0]


def strip_ms(suite):
    return [r._replace(ms=0.0) for r in suite.results]


def test_pass_fields_are_coherent():
    res = verify_case(get_identity("SinId"), {"x": 1.0})
    assert res.status is Status.PASS
    assert res.residual <= res.allowed
    assert res.err_budget == 0.0
    assert res.params_text() == "x=1.0"


def test_relative_scale_uses_both_sides():
    res = verify_case(probe("Big", "10^6 + 1/100", "10^6"), {})
    # residual 0.01 against scale 1e6 sits inside the 1e-10 relative band? no:
    # 0.01 > 1e-10 * 1e6 = 1e-4, so this must fail
    assert res.status is Status.FAIL


def test_zero_rhs_switches_to_absolute_scale():
    res = verify_case(probe("TinyZero", "1/10^12", "0"), {})
    assert res.status is Status.PASS
    res = verify_case(probe("FatZero", "1/10^3", "0"), {})
    assert res.status is Status.FAIL


def test_near_machine_noise_passes():
    res = verify_case(probe("LnExp", "exp(ln(10))", "10"), {})
    assert res.status is Status.PASS
    assert res.residual > 0.0


def test_tol_override_tightens():
    res = verify_case(probe("LnExp", "exp(ln(10))", "10"), {}, tol_override=1e-17)
    assert res.status is Status.FAIL


def test_exact_pass_and_fail():
    ok = verify_case(
        probe("ExactOk", "1/3 - 1/4", "1/12", kind="EXACT", tol="EXACT"), {}
    )
    assert ok.status is Status.PASS
    assert ok.residual == 0.0
    bad = verify_case(
        probe("ExactBad", "1/3", "1/4", kind="EXACT", tol="EXACT"), {}
    )
    assert bad.status is Status.FAIL
    assert "exact residual" in bad.message


def test_domain_error_is_reported_not_raised():
    res = verify_case(probe("Pole", "hzeta(1, 1)", "0"), {})
    assert res.status is Status.ERROR
    assert res.message


def test_exact_domain_errors_are_reported_not_raised():
    fact = probe("FactDomain", "fact(n)", "1", kind="EXACT", tol="EXACT",
                 extra="params = n in {-1, 0}\n")
    euler = probe("EulerDomain", "eulerpoly(n, 1/2)", "0", kind="EXACT", tol="EXACT",
                  extra="params = n in {-1}\n")
    suite = run_suite([fact, euler])
    assert [r.status for r in suite.results] == [Status.ERROR, Status.PASS, Status.ERROR]
    assert suite.results[0].message.startswith("fact failed:")
    assert suite.results[2].message.startswith("eulerpoly failed:")


def test_negative_control_confirmed():
    res = verify_case(get_identity("Eq3p1Ctl"), next(iter(get_identity("Eq3p1Ctl").case_params())))
    assert res.status is Status.EXPECTED_FAIL_CONFIRMED


def test_negative_control_violated_when_sides_agree():
    rec = probe("SneakyCtl", "2 + 2", "4", kind="NEGATIVE_CONTROL", tol="MED")
    res = verify_case(rec, {})
    assert res.status is Status.EXPECTED_FAIL_VIOLATED


def test_suite_ok_logic():
    good = run_suite([get_identity("SinId"), get_identity("Eq3p1Ctl")])
    assert good.ok
    bad = run_suite([probe("SneakyCtl", "1", "1", kind="NEGATIVE_CONTROL", tol="MED")])
    assert not bad.ok
    assert bad.counts()["EXPECTED_FAIL_VIOLATED"] == 1


def test_suite_counts_sum_to_cases():
    suite = run_suite([get_identity("Theorem4a"), get_identity("EuId")])
    assert sum(suite.counts().values()) == len(suite.results)


def test_run_suite_is_deterministic_modulo_timing():
    records = [get_identity(rid) for rid in ("SinId", "CodId", "EuId", "T1s0")]
    first = run_suite(records)
    second = run_suite(records)
    assert strip_ms(first) == strip_ms(second)
    assert to_csv(first) == to_csv(second)
    assert to_json(first, include_ms=False) == to_json(second, include_ms=False)


def test_tol_overrides_by_class():
    records = [get_identity("SinId")]
    relaxed = run_suite(records, tol_overrides={"TIGHT": 1e-6})
    assert relaxed.ok
    brutal = run_suite([probe("LnExp", "exp(ln(10))", "10")], tol_overrides={"TIGHT": 1e-17})
    assert not brutal.ok


def test_json_round_trip_reproduces_results():
    suite = run_suite([get_identity("SinId"), get_identity("EuId")])
    back = from_json(to_json(suite))
    assert [r._replace(ms=0.0) for r in back.results] == strip_ms(suite)
    assert back.counts() == suite.counts()


def test_json_without_ms_has_no_timings():
    suite = run_suite([get_identity("SinId")])
    text = to_json(suite, include_ms=False)
    doc = json.loads(text)
    assert "elapsed_ms" not in doc
    assert all("ms" not in case for case in doc["cases"])
    assert from_json(text).ok


def test_from_json_rejects_foreign_documents():
    with pytest.raises(ValueError):
        from_json('{"hello": "world"}')
    with pytest.raises(ValueError):
        from_json("[]")
    doc = json.loads(to_json(run_suite([get_identity("SinId")])))
    doc["cases"][0]["params"] = ["x"]
    with pytest.raises(ValueError):
        from_json(json.dumps(doc))


def test_csv_shape():
    suite = run_suite([get_identity("SinId")])
    lines = to_csv(suite).splitlines()
    assert lines[0].startswith("identity,group,kind,tol,params,status")
    assert len(lines) == 1 + len(suite.results)
    assert lines[1].startswith("SinId,A,NUMERIC,TIGHT,")


def test_markdown_shape():
    suite = run_suite([get_identity("SinId")])
    text = to_markdown(suite)
    assert text.splitlines()[0].startswith("#")
    assert suite.summary() in text
    assert "| identity |" in text


@pytest.fixture(scope="module")
def builtin_suite():
    """The builtin catalog, verified once for this module."""
    return run_suite(builtin_identities())


def test_full_builtin_suite_is_green(builtin_suite):
    suite = builtin_suite
    assert suite.ok
    counts = suite.counts()
    assert counts["EXPECTED_FAIL_CONFIRMED"] == 4
    assert counts["FAIL"] == 0 and counts["ERROR"] == 0
    assert sum(counts.values()) == 994
    # every report format re-renders byte for byte from the saved JSON
    back = from_json(to_json(suite))
    assert to_json(back, include_ms=False) == to_json(suite, include_ms=False)
    assert to_csv(back) == to_csv(suite)
    assert to_markdown(back) == to_markdown(suite)


@pytest.mark.parametrize(
    "render, digest",
    [
        (lambda suite: to_json(suite, include_ms=False),
         "437e1895e49c58b2c1db5175308f72df0c7d605575fb9ad03d3c44f3529391d5"),
        (to_csv, "39fb2a22182e7a5344491ae3e2413a80ac3a4dec4680800797e3d03e4e68e804"),
        (to_markdown, "e87ae02b9f7bc1a6e5505d8d8d2156ca8795e4dbdee87d06367f50ffe9e6cc13"),
    ],
    ids=["json", "csv", "md"],
)
def test_builtin_reports_are_pinned(builtin_suite, render, digest):
    # the same on CPython 3.10 to 3.13; a change that moves a number must
    # explain it and pin the new digest
    assert hashlib.sha256(render(builtin_suite).encode("utf-8")).hexdigest() == digest


def _streamed(render, suite, **kwargs):
    buf = io.StringIO()
    assert render(suite, stream=buf, **kwargs) is None
    return buf.getvalue()


@pytest.mark.parametrize("include_ms", [True, False])
def test_streamed_json_is_json_dumps_text(builtin_suite, include_ms):
    text = to_json(builtin_suite, include_ms=include_ms)
    assert _streamed(to_json, builtin_suite, include_ms=include_ms) == text
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_streamed_text_reports_equal_their_strings(builtin_suite):
    for render in (to_csv, to_markdown):
        assert _streamed(render, builtin_suite) == render(builtin_suite)


def test_reports_of_an_empty_suite():
    empty = SuiteResult((), 0.0)
    for include_ms in (True, False):
        text = to_json(empty, include_ms=include_ms)
        assert json.loads(text)["cases"] == []
        assert text.endswith('  "cases": []\n}\n')
        assert _streamed(to_json, empty, include_ms=include_ms) == text
    header = (
        "identity,group,kind,tol,params,status,lhs,rhs,residual,allowed,err_budget,quad_evals,"
        "message\n"
    )
    assert to_csv(empty) == _streamed(to_csv, empty) == header
    assert _streamed(to_markdown, empty) == to_markdown(empty)
    assert to_markdown(empty).endswith("| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n")


def test_a_run_integrates_a_shared_side_once_per_point(monkeypatch):
    # Theorem4 and Theorem4S check one integral against two closed forms
    records = [get_identity("Theorem4"), get_identity("Theorem4S")]
    calls = []
    integrate = evaluator.integrate_decaying

    def counted(f, *args, **kwargs):
        calls.append(f)
        return integrate(f, *args, **kwargs)

    monkeypatch.setattr(evaluator, "integrate_decaying", counted)
    suite = run_suite(records)
    assert len(calls) == len(records[0].case_params()) == 60
    alone = [verify_case(rec, params) for rec in records for params in rec.case_params()]
    assert len(calls) == 60 + 87
    assert strip_ms(suite) == [r._replace(ms=0.0) for r in alone]


def test_a_run_tells_signed_zeros_apart():
    rec = probe("Zeros", "a", "0", extra="params = a in {0.0, -0.0}\n")
    suite = run_suite([rec])
    assert [repr(r.lhs) for r in suite.results] == ["0.0", "-0.0"]


def test_a_side_that_raises_is_evaluated_again(monkeypatch):
    calls = []
    evaluate = verifier.evaluate_numeric

    def counted(node, params, cfg):
        calls.append(params)
        return evaluate(node, params, cfg)

    monkeypatch.setattr(verifier, "evaluate_numeric", counted)
    rec = probe("Raises", "1/(a-a)", "0", extra="params = a in {1}\n")
    suite = run_suite([rec, rec])
    assert [r.message for r in suite.results] == ["division by zero"] * 2
    assert calls == [{"a": 1}] * 2


# One probe per verdict branch: the record's sides, kind and tolerance class,
# the case parameters and eval cap, then the expected status, message prefix
# ("" means no message) and which of lhs/rhs/residual/allowed are None.
SIDES = ("lhs", "rhs", "residual", "allowed")
UNCONVERGED = "integral[v]{exp(-pi*v)*sin(1000*v)}"
LADDER_RAN_OUT = "quadrature did not converge after 31949 evaluations"
OVER_CAP_20 = "eval cap 20 exceeded by sum passes and integrand samples"
VERDICT_BRANCHES = [
    pytest.param("exp(ln(10))", "10", "NUMERIC", "TIGHT", {}, DEFAULT_EVAL_CAP,
                 Status.PASS, "", (), id="pass"),
    pytest.param("2 + 2", "5", "NUMERIC", "TIGHT", {}, DEFAULT_EVAL_CAP,
                 Status.FAIL, "residual 1.000e+00 exceeds allowed", (), id="fail"),
    pytest.param("hzeta(1, 1)", "0", "NUMERIC", "TIGHT", {}, DEFAULT_EVAL_CAP,
                 Status.ERROR, "hzeta failed:", SIDES, id="eval-error"),
    pytest.param("10^200*10^200", "1", "NUMERIC", "TIGHT", {}, DEFAULT_EVAL_CAP,
                 Status.ERROR, "the value is not finite: inf", SIDES, id="non-finite"),
    pytest.param(UNCONVERGED, "1000/(pi^2 + 1000^2)", "NUMERIC", "TIGHT", {},
                 DEFAULT_EVAL_CAP, Status.ERROR, LADDER_RAN_OUT, SIDES, id="unconverged"),
    pytest.param("integral[v]{exp(-pi*v)}", "1/pi", "NUMERIC", "TIGHT", {}, 20,
                 Status.ERROR, OVER_CAP_20, SIDES, id="over-cap"),
    # each side is finite, their difference is not
    pytest.param("10^308", "-10^308", "NUMERIC", "TIGHT", {}, DEFAULT_EVAL_CAP,
                 Status.ERROR, "residual or allowed error past the float range",
                 ("residual", "allowed"), id="residual-past-floats"),
    # v/rv overflows; a NaN budget would FAIL this true identity
    pytest.param("10^200", "1/10^(-200)", "NUMERIC", "TIGHT", {}, DEFAULT_EVAL_CAP,
                 Status.PASS, "", (), id="pass-overflowing-quotient"),
    pytest.param("1/3 - 1/4", "1/12", "EXACT", "EXACT", {}, DEFAULT_EVAL_CAP,
                 Status.PASS, "", (), id="exact-pass"),
    pytest.param("1/3", "1/4", "EXACT", "EXACT", {}, DEFAULT_EVAL_CAP,
                 Status.FAIL, "exact residual 1/12", (), id="exact-fail"),
    pytest.param("fact(n)", "1", "EXACT", "EXACT", {"n": -1}, DEFAULT_EVAL_CAP,
                 Status.ERROR, "fact failed:", SIDES, id="exact-error"),
    # past the float range the Fractions are still judged; the float
    # fields that do not fit are None
    pytest.param("2^2000", "4^1000", "EXACT", "EXACT", {}, DEFAULT_EVAL_CAP,
                 Status.PASS, "", ("lhs", "rhs"), id="exact-pass-past-floats"),
    pytest.param("2^2000 + 1", "4^1000", "EXACT", "EXACT", {}, DEFAULT_EVAL_CAP,
                 Status.FAIL, "exact residual 1", ("lhs", "rhs"), id="exact-fail-past-floats"),
    pytest.param("2^2000", "1", "EXACT", "EXACT", {}, DEFAULT_EVAL_CAP,
                 Status.FAIL, "exact residual ", ("lhs", "residual"),
                 id="exact-residual-past-floats"),
    pytest.param("2^20000", "0", "EXACT", "EXACT", {}, DEFAULT_EVAL_CAP, Status.FAIL,
                 "exact residual too long to print (20001-bit numerator, 1-bit denominator)",
                 ("lhs", "residual"), id="exact-residual-past-str"),
    pytest.param("1", "2", "NEGATIVE_CONTROL", "MED", {}, DEFAULT_EVAL_CAP,
                 Status.EXPECTED_FAIL_CONFIRMED, "", (), id="control-confirmed"),
    pytest.param("2 + 2", "4", "NEGATIVE_CONTROL", "MED", {}, DEFAULT_EVAL_CAP,
                 Status.EXPECTED_FAIL_VIOLATED,
                 "control variant was not detectably wrong", (), id="control-violated"),
    pytest.param(UNCONVERGED, "2/pi", "NEGATIVE_CONTROL", "MED", {}, DEFAULT_EVAL_CAP,
                 Status.ERROR, LADDER_RAN_OUT, SIDES, id="control-unconverged"),
    pytest.param("integral[v]{exp(-pi*v)}", "2/pi", "NEGATIVE_CONTROL", "MED", {}, 20,
                 Status.ERROR, OVER_CAP_20, SIDES, id="control-over-cap"),
]


def verdict_case(lhs, rhs, kind, tol, params, eval_cap):
    return verify_case(probe("Branch", lhs, rhs, kind=kind, tol=tol), params, eval_cap)


@pytest.mark.parametrize(
    "lhs, rhs, kind, tol, params, eval_cap, status, prefix, none_sides",
    VERDICT_BRANCHES,
)
def test_every_verdict_branch(lhs, rhs, kind, tol, params, eval_cap, status, prefix,
                              none_sides):
    res = verdict_case(lhs, rhs, kind, tol, params, eval_cap)
    assert res.status is status
    assert res.message.startswith(prefix)
    assert bool(res.message) == bool(prefix)
    for side in SIDES:
        assert (getattr(res, side) is None) == (side in none_sides), side


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_non_finite_outcomes_are_error_rows_in_strict_json():
    # vmax=0.5 leaves a tail bound of ~16, which 10^308 carries past the
    # float range; an infinite allowed error would pass this wrong identity
    budget = probe("Budget", "10^308*integral[v]{exp(-v)}", "2*10^307",
                   extra="quad = decay=1.0 vmax=0.5 p_max=8\n")
    cases = [
        (budget, DEFAULT_EVAL_CAP, "the error budget is not finite: inf"),
        (probe("Unconverged", UNCONVERGED, "0"), DEFAULT_EVAL_CAP, LADDER_RAN_OUT),
        (probe("Capped", "integral[v]{exp(-pi*v)}", "1/pi"), 20, OVER_CAP_20),
        (probe("Value", "10^200*10^200", "1"), DEFAULT_EVAL_CAP,
         "the value is not finite: inf"),
        (probe("Residual", "10^308", "-10^308"), DEFAULT_EVAL_CAP,
         "residual or allowed error past the float range"),
    ]
    suite = SuiteResult(tuple(verify_case(rec, {}, cap) for rec, cap, _ in cases), 1.0)
    doc = json.loads(to_json(suite), parse_constant=_refuse_constant)
    assert [(row["status"], row["message"]) for row in doc["cases"]] == [
        ("ERROR", message) for _, _, message in cases
    ]


def test_mixed_verdicts_re_render_from_json():
    suite = SuiteResult(
        tuple(verdict_case(*branch.values[:6]) for branch in VERDICT_BRANCHES), 12.5
    )
    assert {res.status for res in suite.results} == set(Status)
    back = from_json(to_json(suite))
    assert to_json(back, include_ms=False) == to_json(suite, include_ms=False)
    assert to_csv(back) == to_csv(suite)
    assert to_markdown(back) == to_markdown(suite)
