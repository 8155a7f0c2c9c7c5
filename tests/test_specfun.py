"""Special-function engine against an independent multiprecision reference.

Frozen literals were produced with mpmath at 40 digits; grid sweeps call
mpmath live (it is a test dependency) so the comparison stays independent
of this package's own series and reflection choices.
"""

import math

import mpmath as mp
import pytest

from zetasech import specfun as sf

mp.mp.dps = 30

# (s, a, zeta(s, a)) frozen at 40 digits
HZETA_CASES = [
    (2.3, 0.7, 2.8358148975703004),
    (0.5, 1.25, -1.7600364755043691),
    (-1.5, 0.5, 0.01647482235172846),
    (-3.5, 2.0, -0.9955589886645205),
    (4.0, 0.25, 256.46369066819807),
    (1.2, 3.0, 4.15630715952969),
    (0.99, 1.0, -99.4235129777281),
    (1.01, 1.0, 100.57794333849678),
]

HZETA_DS_CASES = [
    (2.3, 0.7, 0.2261904589893914),
    (0.5, 1.25, -4.022742546826356),
    (-1.5, 0.5, 0.04308434019571009),
    (-3.5, 2.0, 0.009154213629941512),
    # equals log(gamma(0.375)) - log(2 pi)/2
    (0.0, 0.375, -0.05586455093402528),
]

ETA_CASES = [
    (2.3, 0.7, 2.0462410245416374),
    (0.5, 1.25, 0.5258868775619043),
    (-1.5, 0.5, -0.10194590554786921),
    (1.0, 0.75, 0.9749909887987221),
    (4.0, 0.25, 255.6226305622929),
]

ETA_DS_CASES = [
    (2.3, 0.7, 0.9043159361995922),
    (1.0, 0.75, 0.5177153311760666),
    (-1.5, 0.5, 0.12062089897209982),
]

DIGAMMA_CASES = [
    (0.375, -2.7539990491451394),
    (0.875, -0.8040170715476954),
    (1.0, -0.5772156649015329),
    (2.5, 0.7031566406452432),
    (7.0, 1.8727843350984672),
]

POLYGAMMA_CASES = [
    (1, 0.25, 17.19732915450711),
    (1, 0.75, 2.5418796476716063),
    (2, 0.25, -129.32773993753693),
    (3, 0.25, 1538.7821440091884),
    (3, 0.75, 19.7633125348506),
    (2, 1.5, -0.82879664423432),
]

ZETA_PRIME_CASES = [
    (-3.0, 0.005378576357774301),
    (-2.0, -0.03044845705839327),
    (-1.0, -0.16542114370045094),
    (0.0, -0.9189385332046728),
    (2.0, -0.9375482543158438),
    (-0.5, -0.3608543395999476),
    (-4.0, 0.007983811450268625),
]

BETA_CASES = [
    (1.0, 0.7853981633974483),
    (2.0, 0.915965594177219),
    (3.0, 0.9689461462593694),
    (4.0, 0.9889445517411053),
    (0.5, 0.6676914571896092),
]

LAGUERRE_CASES = [
    (0, 0.0, 1.7, 1.0),
    (3, 0.0, 0.5, -0.14583333333333334),
    (5, 1.0, 2.0, -0.26666666666666666),
    (4, -0.5, 1.25, -0.08056640625),
]

IM_DIGAMMA_CASES = [
    (0.5, 1.2511495491033757),
    (1.0, 2.0007921506705837),
    (3.0, 2.170848126998185),
]

LOGGAMMA_Q4_CASES = [
    (0.5, 2.471961613298229),
    (1.0, 2.2056237141541772),
    (3.0, 0.7778256558619104),
]

H2F1_ARCTAN_CASES = [
    (0, 0.3, 0.8275069406863312),
    (2, 0.7, 0.40535996675044667),
    (4, 1.5, 0.11896981721840806),
    (1, 110.0, 3.443314248654383e-05),
]

H2F1_LOG_CASES = [
    (0, 0.3, 0.8541241659665574),
    (2, 0.7, 0.4167544726538139),
    (3, 1.5, 0.1275399572668837),
    (1, 110.0, 4.131310423147868e-05),
]

H3F2_CASES = [
    (0, -0.5, 0.8109302162163288),
    (1, -0.25, 0.9540052335316719),
    (1, -4.0, 0.6320638048706344),
    (2, -30.0, 0.3902604122837746),
    (3, -1.0, 0.9416227979431573),
]


def assert_rel(got: float, want: float, rel: float) -> None:
    assert math.isclose(got, want, rel_tol=rel, abs_tol=0.0), (got, want)


@pytest.mark.parametrize("s,a,want", HZETA_CASES)
def test_hurwitz_zeta_frozen(s, a, want):
    assert_rel(sf.hurwitz_zeta(s, a), want, 5e-13)


def test_hurwitz_zeta_live_grid():
    for s in (-4.5, -2.2, -0.5, 0.4, 1.3, 2.0, 3.7, 6.0):
        for a in (0.25, 0.5, 1.0, 1.75, 4.0, 9.5):
            want = float(mp.zeta(mp.mpf(s), mp.mpf(a)))
            assert_rel(sf.hurwitz_zeta(s, a), want, 1e-12)


@pytest.mark.parametrize("s,a,want", HZETA_DS_CASES)
def test_hurwitz_zeta_ds_frozen(s, a, want):
    assert_rel(sf.hurwitz_zeta_ds(s, a), want, 5e-12)


@pytest.mark.parametrize("s,a,want", ETA_CASES)
def test_eta_frozen(s, a, want):
    assert_rel(sf.eta(s, a), want, 5e-13)


def test_eta_live_grid():
    for s in (-3.5, -1.0, 0.0, 0.9, 1.0, 1.1, 2.6):
        for a in (0.25, 0.75, 1.0, 2.5, 6.0):
            ref = mp.lerchphi(-1, mp.mpf(s), mp.mpf(a))
            assert abs(mp.im(ref)) < mp.mpf("1e-25")
            assert_rel(sf.eta(s, a), float(mp.re(ref)), 1e-12)


@pytest.mark.parametrize("s,a,want", ETA_DS_CASES)
def test_eta_ds_frozen(s, a, want):
    assert_rel(sf.eta_ds(s, a), want, 5e-12)


def test_eta_is_continuous_through_one():
    # the zeta route has a pole at s = 1; eta must cross it smoothly
    lo, mid, hi = (sf.eta(s, 0.85) for s in (0.999999, 1.0, 1.000001))
    assert lo <= mid <= hi or hi <= mid <= lo


def test_s_route_consistency():
    # S(s, a) = zeta(s, a) - zeta(s, a + 1/2), checked off the pole
    for s in (-1.5, 0.5, 2.3, 4.0):
        for a in (0.5, 1.0, 2.0, 4.0):
            direct = sf.S_of(s, a)
            via_zeta = sf.hurwitz_zeta(s, a) - sf.hurwitz_zeta(s, a + 0.5)
            assert_rel(direct, via_zeta, 1e-11)


# (s, a, (zeta, zeta_ds, eta, eta_ds, S, S_ds)); compared by repr, they hold
# every bit of the engine's output, including at s = 0.5, where eta takes its
# accelerated-sum route
ENGINE_PINS = [
    (-7.0, 0.37, (
        -0.002841284096092346,
        -0.004222105156644617,
        0.4217541819199149,
        -1.8988546383730232,
        -0.005680408253460001,
        -0.008493803953149644,
    )),
    (-7.0, 2.71, (
        -42.84560512543401,
        22.912354718728277,
        42.0116931222272,
        -23.719719802497075,
        218.43232580092686,
        -181.98582991799665,
    )),
    (-1.5, 0.5, (
        0.01647482235172846,
        0.04308434019571009,
        -0.10194590554786921,
        0.12062089897209982,
        0.0419600242415615,
        0.11939359551626097,
    )),
    (-1.5, 1.0, (
        -0.025485201889833036,
        -0.07630925532055088,
        0.11868087071984021,
        0.25543277315331103,
        0.31159336635171225,
        0.12567094035087584,
    )),
    (0.5, 0.37, (
        -0.24452808988810967,
        -2.403065702042037,
        1.1471248147646713,
        1.658924967259684,
        1.036653783552355,
        1.4127454950690888,
    )),
    (0.5, 2.71, (
        -2.9794232524601316,
        -3.596050460497819,
        0.33073748813390563,
        -0.2767120716762201,
        0.31759612059976666,
        -0.28903943318360126,
    )),
    (2.3, 0.5, (
        5.621634885496197,
        2.7997364116044676,
        4.616062014125168,
        3.5040517087656946,
        4.189217086180873,
        3.33221671979619,
    )),
    (2.3, 2.71, (
        0.26788736411007735,
        -0.4260639952528458,
        0.06939101406476503,
        -0.062075441133333395,
        0.0608036756791548,
        -0.05632692600670543,
    )),
    (4.0, 1.0, (
        1.0823232337111381,
        -0.06891126589612538,
        0.9470328294972459,
        0.033478804578565065,
        0.8474747280440652,
        0.05176384508250919,
    )),
    (4.0, 0.37, (
        53.68609638623869,
        52.91489596264098,
        53.099216342120044,
        53.119229369292846,
        51.83571489078181,
        52.751670412917456,
    )),
    (30.0, 0.5, (
        1073741824.0000052,
        744261117.9548908,
        1073741823.9999948,
        744261117.9548951,
        1073741823.0000043,
        744261117.9548903,
    )),
    (30.0, 2.71, (
        1.0255490274713461e-13,
        -1.0224457899233875e-13,
        1.0253831399361705e-13,
        -1.0222283059043728e-13,
        1.019166739164174e-13,
        -1.0150018042608788e-13,
    )),
]


@pytest.mark.parametrize("s,a,want", ENGINE_PINS)
def test_engine_outputs_are_pinned(s, a, want):
    fns = (sf.hurwitz_zeta, sf.hurwitz_zeta_ds, sf.eta, sf.eta_ds, sf.S_of, sf.S_ds)
    assert [repr(f(s, a)) for f in fns] == [repr(w) for w in want]


def test_value_and_derivative_share_one_engine_entry():
    sf._hz_dd.cache_clear()
    s, a = 3.456789, 1.2345
    sf.hurwitz_zeta(s, a)
    sf.hurwitz_zeta_ds(s, a)
    info = sf._hz_dd.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_s_finite_at_pole():
    # the zeta poles cancel in the difference
    val = sf.S_of(1.0, 3.0)
    want = sf.digamma(3.5) - sf.digamma(3.0)
    assert_rel(val, want, 1e-12)


@pytest.mark.parametrize("x,want", DIGAMMA_CASES)
def test_digamma_frozen(x, want):
    assert_rel(sf.digamma(x), want, 1e-13)


@pytest.mark.parametrize("m,x,want", POLYGAMMA_CASES)
def test_polygamma_frozen(m, x, want):
    assert_rel(sf.polygamma(m, x), want, 1e-12)


def test_digamma_recurrence_and_reflection():
    for x in (0.1, 0.37, 1.8, 5.5):
        assert_rel(sf.digamma(x + 1.0), sf.digamma(x) + 1.0 / x, 1e-13)
    x = 0.3
    want = sf.digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    assert_rel(sf.digamma(x), want, 1e-12)


@pytest.mark.parametrize("s,want", ZETA_PRIME_CASES)
def test_zeta_prime_frozen(s, want):
    assert_rel(sf.zeta_prime_at(s), want, 5e-12)


@pytest.mark.parametrize("s,want", BETA_CASES)
def test_dirichlet_beta_frozen(s, want):
    assert_rel(sf.dirichlet_beta(s), want, 1e-12)


@pytest.mark.parametrize("n,alpha,x,want", LAGUERRE_CASES)
def test_laguerre_frozen(n, alpha, x, want):
    assert_rel(sf.laguerre(n, alpha, x), want, 1e-12)


def test_laguerre_live_grid():
    # binomial form: L_n(x) = sum_k C(n, k) (-x)^k / k!
    for n in range(0, 7):
        for x in (0.2, 1.0, 3.5):
            want = float(
                sum(
                    mp.binomial(n, k) * (-mp.mpf(x)) ** k / mp.factorial(k)
                    for k in range(n + 1)
                )
            )
            assert math.isclose(sf.laguerre(n, 0.0, x), want, rel_tol=1e-11, abs_tol=1e-13)


@pytest.mark.parametrize("w,want", IM_DIGAMMA_CASES)
def test_im_digamma_quarter_frozen(w, want):
    assert_rel(sf.im_digamma_quarter(w), want, 1e-12)


@pytest.mark.parametrize("w,want", LOGGAMMA_Q4_CASES)
def test_loggamma_q4_frozen(w, want):
    assert_rel(sf.loggamma_q4(w), want, 1e-12)


def test_gamma_quarter_line_live():
    for w in (0.1, 0.8, 2.0, 5.0, 20.0):
        z = mp.mpf("0.25") + 1j * mp.mpf(w) / (2 * mp.pi)
        assert_rel(sf.im_digamma_quarter(w), float(mp.im(mp.psi(0, z))), 1e-12)
        assert_rel(sf.loggamma_q4(w), float(2 * mp.re(mp.loggamma(z))), 1e-12)


@pytest.mark.parametrize("j,t,want", H2F1_ARCTAN_CASES)
def test_hyp2f1_arctan_frozen(j, t, want):
    assert_rel(sf.hyp2f1_arctan_case(j, t), want, 1e-12)


@pytest.mark.parametrize("k,t,want", H2F1_LOG_CASES)
def test_hyp2f1_log_frozen(k, t, want):
    assert_rel(sf.hyp2f1_log_case(k, t), want, 1e-12)


@pytest.mark.parametrize("m,z,want", H3F2_CASES)
def test_hyp3f2_frozen(m, z, want):
    assert_rel(sf.hyp3f2_reduction(m, z), want, 1e-12)


def test_hyp3f2_rejects_positive_argument():
    with pytest.raises(sf.SpecfunError):
        sf.hyp3f2_reduction(1, 0.5)


def test_hurwitz_zeta_domain_errors():
    with pytest.raises(sf.SpecfunError):
        sf.hurwitz_zeta(2.0, 0.0)
    with pytest.raises(sf.SpecfunError):
        sf.hurwitz_zeta(2.0, -1.5)
    with pytest.raises(sf.SpecfunError):
        sf.hurwitz_zeta(1.0, 2.0)
    # below s = -12 the double-double head sum cancels past 1e-12
    for fn in (sf.hurwitz_zeta, sf.hurwitz_zeta_ds, sf.eta, sf.S_of):
        with pytest.raises(sf.SpecfunError, match="not accurate for s < -12"):
            fn(-12.01, 1.177271)


def test_hurwitz_zeta_is_accurate_down_to_its_bound():
    # points of [-12, -11] away from the zeros of zeta(s, .) and its d/ds,
    # where a relative error means nothing
    for s, a in [(-12.0, 0.37), (-12.0, 5.0), (-11.9, 0.7), (-11.6, 1.177271), (-11.3, 0.37)]:
        assert float(abs(sf.hurwitz_zeta(s, a) / mp.zeta(s, a) - 1)) <= 1e-12, (s, a)
        assert float(abs(sf.hurwitz_zeta_ds(s, a) / mp.zeta(s, a, 1) - 1)) <= 1e-12, (s, a)


def test_ds_against_central_difference():
    h = 1e-5
    for s in (-1.8, 0.4, 2.2):
        for a in (0.7, 2.0):
            fd = (sf.hurwitz_zeta(s + h, a) - sf.hurwitz_zeta(s - h, a)) / (2 * h)
            assert math.isclose(sf.hurwitz_zeta_ds(s, a), fd, rel_tol=1e-8, abs_tol=1e-10)


def test_log_gamma_matches_lgamma():
    for x in (0.25, 1.0, 3.7, 12.0):
        assert_rel(sf.log_gamma(x), math.lgamma(x), 1e-14)


def test_constant_table_frozen():
    c = sf.constants()
    assert c.pi == math.pi
    assert c.ln2 == math.log(2.0)
    assert_rel(c.euler_gamma, 0.5772156649015329, 1e-14)
    assert_rel(c.catalan, 0.915965594177219, 1e-14)
    assert_rel(c.ln_glaisher, 0.24875447703378425, 1e-13)
    assert_rel(c.ln_glaisher3, -0.02065635413555208, 1e-12)
