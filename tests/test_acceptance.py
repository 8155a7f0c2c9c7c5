"""Acceptance gate: the headline guarantees, one printed line per criterion.

Run with -s to see every line; each test prints its verdict before asserting
so the record of what was checked survives a failure.
"""

import math
from fractions import Fraction
from pathlib import Path

from zetasech import catalog
from zetasech.catalog import builtin_identities, format_catalog, get_identity
from zetasech.exact import eta_exact, zeta_exact_nonpos
from zetasech.exprlang import SourceError, format_expression, parse_expression
from zetasech import specfun as sf
from zetasech.verifier import Status, verify_case

F = Fraction


def announce(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {verdict} - {label}{suffix}")


def run_record(rid: str, tol: float):
    rec = get_identity(rid)
    results = [verify_case(rec, params, tol_override=tol) for params in rec.case_params()]
    bad = [r for r in results if r.status is not Status.PASS]
    return results, bad


def grid_values(rid: str, name: str):
    return dict(get_identity(rid).grid)[name]


def test_criterion_1_sech_kernel_theorem():
    rec = get_identity("Theorem4")
    assert dict(rec.grid) == {
        "n": (0, 1, 2),
        "a": (0.5, 1, 2, 4),
        "s": (-1.5, 0.5, 1, 2.3, 4),
    }
    results, bad = run_record("Theorem4", 1e-9)
    ok = len(results) == 60 and not bad
    announce(1, "sech kernel transform on the 60-case grid at 1e-9", ok,
             f"{len(results) - len(bad)}/{len(results)} cases")
    assert ok, [f"{r.params_text()}: {r.status.value}" for r in bad]


def test_criterion_2_cosine_variant_and_limit():
    rec = get_identity("Theorem2")
    assert dict(rec.grid)["s"] == (-1.5, 0.5, 2.3, 4)
    results, bad = run_record("Theorem2", 1e-9)
    limit = verify_case(get_identity("T1s0"), {}, tol_override=1e-10)
    direct = (sf.digamma(7.0 / 8.0) - sf.digamma(3.0 / 8.0)) / 2.0
    limit_ok = (
        limit.status is Status.PASS
        and math.isclose(limit.rhs, direct, rel_tol=1e-14)
    )
    ok = len(results) == 48 and not bad and limit_ok
    announce(2, "cosine-kernel variant at 1e-9 plus the s=1 digamma limit at 1e-10", ok,
             f"{len(results) - len(bad)}/{len(results)} cases, limit residual {limit.residual:.3e}")
    assert ok, ([f"{r.params_text()}: {r.status.value}" for r in bad], limit)


def test_criterion_3_exact_sums_vanish():
    for rid in ("Cor1", "Euid1", "Sx"):
        assert set(grid_values(rid, "n")) == set(range(9))
        assert set(grid_values(rid, "a")) == {F(1, 2), 1, 2, 3, 4}
    assert max(grid_values("ScJ1", "n")) == 12
    for rid in ("New3c", "New3a"):
        assert set(grid_values(rid, "J")) == {1, 3, 5, 7}
        assert set(grid_values(rid, "n")) == set(range(9))

    failures = []
    total = 0
    for rid in ("Cor1", "Euid1", "Sx", "ScJ1", "New3c", "New3a"):
        rec = get_identity(rid)
        for params in rec.case_params():
            total += 1
            res = verify_case(rec, params)
            if res.status is not Status.PASS or res.residual != 0.0:
                failures.append(f"{rid}[{res.params_text()}]")
    ok = not failures and total == 220
    announce(3, "rational-arithmetic sums cancel to exactly zero", ok,
             f"{total - len(failures)}/{total} cases")
    assert ok, failures


def test_criterion_4_closed_form_constants():
    ids = (
        "C3n0a1", "C3n0a2", "C3n0a4", "AtanId1", "AtanId2", "N1a1f", "N1a1b",
        "C4n0", "C4n1a0", "R1", "C2na1", "C2na2", "C2na4",
        "C4n0a1", "C4n0a2", "C4n0a4",
    )
    for rid in ("C2na1", "C2na2", "C2na4"):
        assert max(grid_values(rid, "n")) == 2
    failures = []
    total = 0
    for rid in ids:
        results, bad = run_record(rid, 1e-8)
        total += len(results)
        failures.extend(f"{rid}[{r.params_text()}]" for r in bad)
    ok = not failures
    announce(4, "arctan/log integral constants match closed forms at 1e-8", ok,
             f"{total - len(failures)}/{total} cases over {len(ids)} identities")
    assert ok, failures


def test_criterion_5_odd_zeta_values():
    _, bad3 = run_record("Casem1", 1e-9)
    _, bad5 = run_record("C2b", 1e-9)
    assert tuple(grid_values("Cp5a", "m")) == (1, 2)
    _, bad_a = run_record("Cp5a", 1e-8)

    # the assembled integrals really do land on zeta(3)/pi^2 and zeta(5)/pi^4
    z3 = verify_case(get_identity("Casem1"), {}, tol_override=1e-9)
    z5 = verify_case(get_identity("C2b"), {}, tol_override=1e-9)
    anchors_ok = math.isclose(
        z3.lhs, sf.hurwitz_zeta(3.0, 1.0) / math.pi**2, rel_tol=1e-13
    ) and math.isclose(
        z5.lhs, sf.hurwitz_zeta(5.0, 1.0) / math.pi**4, rel_tol=1e-13
    )
    ok = not (bad3 or bad5 or bad_a) and anchors_ok
    announce(5, "zeta(3), zeta(5), and the 3F2 route to odd zeta values", ok,
             f"residuals {z3.residual:.2e}, {z5.residual:.2e}")
    assert ok, (bad3, bad5, bad_a, anchors_ok)


def test_criterion_6_errata_and_negative_controls():
    corrected = ("Eq3p1", "PatkThm2", "PatTheorem3", "Pat3p17", "Patk3p18", "PatkEq3p10")
    failures = []
    for rid in corrected:
        _, bad = run_record(rid, 1e-9)
        failures.extend(f"{rid}[{r.params_text()}]" for r in bad)

    controls = ("Eq3p1Ctl", "Eq3p3Ctl", "Pat3p17Ctl", "Patk3p18Ctl")
    unconfirmed = []
    for rid in controls:
        rec = get_identity(rid)
        assert rec.floor == 1e-3
        for params in rec.case_params():
            res = verify_case(rec, params)
            if res.status is not Status.EXPECTED_FAIL_CONFIRMED:
                unconfirmed.append(f"{rid}[{res.params_text()}] -> {res.status.value}")
    ok = not failures and not unconfirmed
    announce(6, "corrected errata pass at 1e-9 while broken variants exceed 1e-3", ok,
             f"{len(corrected)} corrected, {len(controls)} controls")
    assert ok, (failures, unconfirmed)


def test_criterion_7_specfun_properties():
    # dual-mode derivatives against Richardson-extrapolated central differences
    h = 1e-5
    fd_bad = []
    for fn, fn_ds in ((sf.hurwitz_zeta, sf.hurwitz_zeta_ds), (sf.eta, sf.eta_ds)):
        for s in (-3.5, -1.0, 0.0, 0.5, 2.3):
            for a in (0.3, 1.0, 2.7):
                dual = fn_ds(s, a)
                d1 = (fn(s + h, a) - fn(s - h, a)) / (2 * h)
                d2 = (fn(s + h / 2, a) - fn(s - h / 2, a)) / h
                richardson = (4 * d2 - d1) / 3
                if not math.isclose(dual, richardson, rel_tol=1e-7, abs_tol=1e-9):
                    fd_bad.append((fn.__name__, s, a, dual, richardson))

    # numeric continuation agrees with the rational values at non-positive orders
    exact_bad = []
    for m in range(0, 11):
        for a in (F(1, 4), F(3, 4), F(3, 2)):
            want = float(zeta_exact_nonpos(m, a))
            got = sf.hurwitz_zeta(float(-m), float(a))
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14):
                exact_bad.append(("zeta", m, a, got, want))
        for z in (F(3, 4), F(5, 4), F(3)):
            want = float(eta_exact(m, z))
            got = sf.eta(float(-m), float(z))
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14):
                exact_bad.append(("eta", m, z, got, want))

    const_ids = (
        "Zm1h", "Zm2h", "Zm3h", "Zpm4half", "Zpm2", "Zpminus4",
        "Psi3Q", "TriPsi", "Zdiff", "V4mV5", "Rad1", "Mult1",
    )
    const_bad = []
    for rid in const_ids:
        _, bad = run_record(rid, 1e-10)
        const_bad.extend(f"{rid}[{r.params_text()}]" for r in bad)

    ok = not fd_bad and not exact_bad and not const_bad
    announce(7, "dual derivatives at 1e-7, exact-order agreement at 1e-12, "
                "constant identities at 1e-10", ok,
             f"{len(const_ids)} constant identities")
    assert ok, (fd_bad, exact_bad, const_bad)


def test_criterion_8_laplace_kernel_checks():
    assert dict(get_identity("Jint1").grid) == {"s": (0.5, 1, 2), "a": (1, 2, 4)}
    assert grid_values("E3", "w") == (0.5, 1, 2, 4)
    assert dict(get_identity("J2Jbar").grid) == {"s": (1.5,), "a": (2,)}

    _, bad_j = run_record("Jint1", 1e-9)
    _, bad_e = run_record("E3", 1e-9)
    _, bad_parts = run_record("J2Jbar", 1e-8)
    ok = not (bad_j or bad_e or bad_parts)
    announce(8, "tanh/digamma Laplace integrals and the integration-by-parts relation", ok,
             "9 + 4 + 1 cases")
    assert ok, (bad_j, bad_e, bad_parts)


MALFORMED = [
    ("", 1, 1),
    ("   ", 1, 4),
    ("1 +", 1, 4),
    ("* 2", 1, 1),
    ("sin(", 1, 5),
    ("sin)", 1, 1),
    ("(2", 1, 3),
    ("2)", 1, 2),
    ("1 @ 2", 1, 3),
    ("sin(1, 2)", 1, 1),
    ("frobnicate(2)", 1, 1),
    ("sum[k]{1}", 1, 6),
    ("sum[k=0]{1}", 1, 8),
    ("sum[k=0,]{1}", 1, 9),
    ("sum[k=0,5]{ }", 1, 13),
    ("integral{ v }", 1, 9),
    ("integral[v]{ }", 1, 14),
    ("1..5", 1, 1),
    ("a b", 1, 3),
    ("2 ^ ^ 3", 1, 5),
    ("hzeta(s)", 1, 1),
    ("1 +\n\n  cos()", 3, 7),
]


def test_criterion_9_parser_and_round_trips():
    trip_bad = []
    for rec in builtin_identities():
        for src in (rec.lhs_src, rec.rhs_src):
            tree = parse_expression(src)
            if parse_expression(format_expression(tree)) != tree:
                trip_bad.append(rec.id)

    position_bad = []
    for src, line, col in MALFORMED:
        try:
            parse_expression(src)
            position_bad.append((src, "no error"))
        except SourceError as exc:
            if (exc.line, exc.col) != (line, col):
                position_bad.append((src, exc.line, exc.col))

    # the builtin records are parsed from this file, so byte equality also
    # shows that format_catalog and parse_catalog invert each other on them
    data_file = Path(catalog.__file__).with_name("builtin_catalog.txt").read_bytes()
    catalog_ok = format_catalog(builtin_identities()).encode("utf-8") == data_file

    ok = not trip_bad and not position_bad and catalog_ok
    announce(9, "expression round-trips, positioned errors, catalog file is canonical", ok,
             f"{2 * len(builtin_identities())} expressions, {len(MALFORMED)} malformed inputs")
    assert ok, (trip_bad, position_bad, catalog_ok)
