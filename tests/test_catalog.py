"""Catalog integrity: manifest, validation, and the export file format."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import zetasech
from zetasech.catalog import (
    CatalogError,
    IdentityRecord,
    Kind,
    TOLERANCES,
    TolClass,
    builtin_identities,
    format_catalog,
    get_identity,
    parse_catalog,
)
from zetasech.evaluator import EvalConfig, NumericResult
from zetasech.quadrature import QuadResult
from zetasech.registry import FunctionSpec
from zetasech.specfun import ConstantTable
from zetasech.verifier import CaseResult, SuiteResult

EXPECTED_IDS = [
    "Theorem4", "Theorem4S", "Theorem2", "Theorem2S", "Theorem4a", "Thm4b", "Thm4c", "Eq3p3",
    "sechT", "FTnm1a", "T1s0", "SinId", "CodId", "Rkb", "Rkbo", "T1A",
    "Cor2a", "C2na1", "C2na2", "C2na4", "Tc3a", "T2s1D", "Cn0", "a0n1",
    "C3n0a1", "N0a2", "C3n0a2", "n0a4", "C3n0a4", "Actv2", "Actv3", "AtanId1",
    "AtanId2", "Cn1", "N1a1", "N1a1f", "N1a2", "N1a1b", "Cor4", "C4an0",
    "C4n0a1", "C4n0a2", "C4n0a4", "Lint5", "C4n0", "C4n1", "C4n1a0", "R1",
    "Cor1", "Euid1", "Sx", "SaSum", "BernSum", "BernId1", "BernId2", "BernId3a",
    "BernId3b", "EuId", "Ezm1", "EuRecur", "ScJ1", "New3c", "New3a", "New1A",
    "Zeta2Bern", "EtaMz", "Lims1", "Zp0", "Z1m1", "Z1p2", "Zdiff", "Psi3Q",
    "Zm1h", "Zm2h", "Zm3h", "Zpm2", "Zpminus4", "Zpm4half", "V4mV5", "Rad1",
    "Mult1", "TriPsi", "PsiId", "zm1", "SaDef", "DefSa", "Zids", "Zidd",
    "Zaltm1", "H1", "H2", "Shpot2", "Casem1", "C2b", "Cp5a", "Eq3p1",
    "Eq3p8", "PatkThm2", "PatTheorem3", "PatT3alt", "PatkEq3p10", "Pat3p17", "Patk3p18", "Eq3p1Ctl",
    "Eq3p3Ctl", "Pat3p17Ctl", "Patk3p18Ctl", "Jensen", "Hermite", "Laguerre", "Jid", "JgRecur",
    "T4a", "T4A", "Jint1", "E3", "E4a", "PsId", "J2Jbar",
]

GROUP_SIZES = {"A": 16, "B": 32, "C": 16, "D": 20, "E": 5, "F": 6, "G": 12, "H": 12}


def test_manifest_is_complete_and_ordered():
    assert [r.id for r in builtin_identities()] == EXPECTED_IDS


def test_group_sizes():
    counts = {}
    for rec in builtin_identities():
        counts[rec.group] = counts.get(rec.group, 0) + 1
    assert counts == GROUP_SIZES


def test_every_record_has_an_anchor_and_parses():
    for rec in builtin_identities():
        assert rec.paper_anchor.strip()
        assert rec.lhs() is not None
        if rec.rhs_src.strip() != "0":
            assert rec.rhs() is not None


def test_exact_records_use_exact_tolerance_and_rational_grids():
    for rec in builtin_identities():
        if rec.kind is Kind.EXACT:
            assert rec.tol_class is TolClass.EXACT
            for _, values in rec.grid:
                for v in values:
                    assert not isinstance(v, float)


def test_negative_controls_have_floors():
    controls = [r for r in builtin_identities() if r.kind is Kind.NEGATIVE_CONTROL]
    assert len(controls) == 4
    for rec in controls:
        assert rec.floor >= 1e-3


def test_tolerance_lookup():
    assert TOLERANCES[TolClass.TIGHT] == 1e-10
    assert TOLERANCES[TolClass.MED] == 1e-8
    assert TOLERANCES[TolClass.LOOSE] == 1e-6
    rec = get_identity("Theorem4")
    assert rec.tolerance() == TOLERANCES[rec.tol_class]


def test_case_params_cover_the_grid_in_order():
    rec = get_identity("Theorem4")
    cases = list(rec.case_params())
    assert len(cases) == rec.case_count() == 60
    assert cases[0] == {"n": 0, "a": 0.5, "s": -1.5}
    assert cases[-1] == {"n": 2, "a": 4, "s": 4}
    assert all(tuple(case) == ("n", "a", "s") for case in cases)


def test_exact_sum_grid_covers_small_denominators():
    rec = get_identity("Sx")
    a_values = dict(rec.grid)["a"]
    assert Fraction(1, 2) in a_values
    assert set(a_values) >= {1, 2, 3, 4}


def test_get_identity_unknown_id():
    with pytest.raises(CatalogError):
        get_identity("NoSuchIdentity")


def test_records_are_frozen():
    rec = get_identity("SinId")
    with pytest.raises(AttributeError):
        rec.id = "other"


def test_quad_hints_default_to_pi_decay():
    rec = get_identity("Theorem4")
    assert rec.quad_decay == math.pi


def test_round_trip_preserves_every_record():
    text = format_catalog(builtin_identities())
    parsed = parse_catalog(text)
    assert parsed == builtin_identities()


def test_round_trip_is_stable_text():
    text = format_catalog(builtin_identities())
    assert format_catalog(parse_catalog(text)) == text


def test_grid_value_types_survive_round_trip():
    rec = get_identity("Theorem4")
    back = parse_catalog(format_catalog([rec]))[0]
    values = dict(back.grid)
    assert values["n"] == (0, 1, 2)
    assert all(isinstance(v, int) for v in values["n"])
    assert Fraction(1, 2) in values["a"]
    assert any(isinstance(v, float) for v in values["s"])


def test_parse_rejects_duplicate_ids():
    rec = get_identity("SinId")
    text = format_catalog([rec, rec])
    with pytest.raises(CatalogError):
        parse_catalog(text)


def test_parse_rejects_unknown_fields():
    text = format_catalog([get_identity("SinId")])
    text += "\nbogus = 1\n"
    with pytest.raises(CatalogError):
        parse_catalog(text)


def test_parse_rejects_bad_expressions_with_location():
    text = format_catalog([get_identity("SinId")]).replace(
        "lhs = sin(arctan(x))", "lhs = sin(arctan(x)", 1
    )
    with pytest.raises(CatalogError) as info:
        parse_catalog(text)
    assert "line" in str(info.value)


def test_parse_rejects_repeated_scalar_fields():
    rec = get_identity("SinId")
    lines = format_catalog([rec]).splitlines()
    kind_line = next(ln for ln in lines if ln.startswith("kind"))
    lines.append(kind_line)
    with pytest.raises(CatalogError):
        parse_catalog("\n".join(lines) + "\n")


_PROBE = """[identity Probe]
group = A
kind = {kind}
tol = {tol}
paper = x
lhs = {lhs}
rhs = 0
params = n in {{{values}}}
"""


def _probe_text(kind="NUMERIC", tol="TIGHT", lhs="n", values="1, 2"):
    return _PROBE.format(kind=kind, tol=tol, lhs=lhs, values=values)


def test_validation_rejects_float_grid_for_exact_kind():
    with pytest.raises(CatalogError) as info:
        parse_catalog(_probe_text(kind="EXACT", tol="EXACT", values="0.5"))
    assert "rational" in str(info.value)


def test_validation_ties_exact_kind_to_exact_tolerance():
    with pytest.raises(CatalogError):
        parse_catalog(_probe_text(kind="EXACT", tol="TIGHT"))


def test_validation_rejects_unparsable_source():
    with pytest.raises(CatalogError):
        parse_catalog(_probe_text(lhs="sin("))


def test_overlong_literal_names_the_record_line():
    with pytest.raises(CatalogError) as info:
        parse_catalog("\n" + _probe_text(lhs="n + " + "1" * 4301))
    assert str(info.value) == (
        "line 7, column 11: record Probe: number has more than 4300 digits"
    )


# Each of these costs milliseconds to import, which every `zetasech` command
# would pay before any work; dataclasses brings in inspect, ast, dis and
# tokenize, and typing brings in contextlib before Python 3.13. json and csv
# are loaded where a report is written or read. mpmath is a test dependency
# only. decimal cannot be listed, because fractions imports it; test_ddmath
# builds ddmath's tables with it blocked instead.
_HEAVY_MODULES = {
    "argparse",
    "ast",
    "contextlib",
    "csv",
    "dataclasses",
    "dis",
    "importlib.metadata",
    "importlib.resources",
    "inspect",
    "json",
    "mpmath",
    "pathlib",
    "subprocess",
    "tempfile",
    "tokenize",
    "typing",
    "zipfile",
}


def test_catalog_build_loads_no_heavy_modules():
    src_dir = os.path.dirname(os.path.dirname(zetasech.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src_dir!r}); import zetasech; "
        "zetasech.builtin_identities(); print(*sorted(sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    loaded = set(out.split())
    assert "zetasech.exprlang" in loaded
    assert not loaded & _HEAVY_MODULES


# The record types are plain namedtuples; their fields, order and defaults
# are part of the API (keyword construction, _replace, report columns).
@pytest.mark.parametrize(
    "record_type, fields, defaults",
    [
        (IdentityRecord,
         ("id", "group", "paper_anchor", "kind", "tol_class", "lhs_src", "rhs_src", "grid",
          "quad_decay", "quad_vmax", "quad_p_max", "floor", "notes"),
         {"grid": (), "quad_decay": math.pi, "quad_vmax": None, "quad_p_max": 8,
          "floor": 1e-3, "notes": ""}),
        (EvalConfig,
         ("quad_decay", "quad_vmax", "quad_p_max", "eval_cap"),
         {"quad_decay": math.pi, "quad_vmax": None, "quad_p_max": 8, "eval_cap": 1_000_000}),
        (NumericResult, ("value", "err_budget", "quad_evals"), {}),
        (QuadResult, ("value", "abs_error_estimate", "evaluations", "converged"), {}),
        (FunctionSpec, ("name", "arity", "numeric", "exact"), {"exact": None}),
        (ConstantTable,
         ("pi", "ln2", "euler_gamma", "catalan", "ln_glaisher", "ln_glaisher3"), {}),
        (CaseResult,
         ("identity", "group", "kind", "tol_class", "params", "status", "lhs", "rhs",
          "residual", "allowed", "err_budget", "quad_evals", "ms", "message"),
         {"message": ""}),
        (SuiteResult, ("results", "elapsed_ms"), {}),
    ],
)
def test_record_types_keep_their_shape(record_type, fields, defaults):
    assert record_type._fields == fields
    assert record_type._field_defaults == defaults
    record = record_type(*range(len(fields)))
    assert record == tuple(range(len(fields)))
    assert repr(record).startswith(f"{record_type.__name__}({fields[0]}=0")
    with pytest.raises(AttributeError):
        record.extra = 1
