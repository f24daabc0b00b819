import warnings

import mpmath
import numpy as np
import pytest
from dataclasses import replace

from irs_sskrpm import (ErrorEventMoments, SystemConfig, build_g_bar,
                        laplace, moments_joint, moments_rpm, moments_ssk,
                        validate)
from oracles import (build_h, event_direction, laplace_by_quadrature, laplace_reference, ncx2_pdf,
                     pdf_mass, pdf_mean, sample_xi)


@pytest.fixture(scope="module")
def hg(cfg):
    return build_h(cfg), build_g_bar(cfg)


# ---- moment builders ---------------------------------------------------------

def test_moments_ssk_rejects_equal_indices(hg, cfg):
    h, g_bar = hg
    with pytest.raises(ValueError):
        moments_ssk(h, g_bar, cfg, 1, 1)


def test_moments_rpm_rejects_equal_indices(hg, cfg):
    h, g_bar = hg
    with pytest.raises(ValueError):
        moments_rpm(h, g_bar, cfg, 1, 2, 2)


def test_moments_joint_rejects_equal_indices(hg, cfg):
    h, g_bar = hg
    with pytest.raises(ValueError):
        moments_joint(h, g_bar, cfg, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        moments_joint(h, g_bar, cfg, 1, 2, 2, 2)


def test_moments_rayleigh_limit_is_central(hg):
    h, g_bar = hg
    cfg0 = validate(SystemConfig(k_r=0.0))
    assert moments_ssk(h, g_bar, cfg0, 1, 2).s_sq == 0.0
    assert moments_rpm(h, g_bar, cfg0, 1, 1, 2).s_sq == 0.0
    assert moments_joint(h, g_bar, cfg0, 1, 2, 1, 2).s_sq == 0.0


def test_moments_identical_columns_are_degenerate(cfg):
    g_bar = build_g_bar(cfg)
    col = np.exp(1j * np.linspace(0, 1, cfg.n_elements))
    h_same = np.stack([col, col], axis=1)
    mom = moments_ssk(h_same, g_bar, cfg, 1, 2)
    assert mom.sigma_sq == 0.0 and mom.s_sq == 0.0


def test_moments_ssk_matches_stated_formula(hg, cfg):
    h, g_bar = hg
    mom = moments_ssk(h, g_bar, cfg, 1, 2)
    dh = h[:, 0] - h[:, 1]
    sigma_expected = cfg.nu_r / (2 * (1 + cfg.k_r)) * np.sum(np.abs(dh) ** 2)
    assert mom.sigma_sq == pytest.approx(sigma_expected, rel=1e-13)
    assert mom.n_r == cfg.n_r


def test_moments_rpm_matches_stated_formula(hg, cfg):
    # binary phases: the phase gap factor 2*(1 - cos(pi)) = 4
    h, g_bar = hg
    mom = moments_rpm(h, g_bar, cfg, 1, 1, 2)
    expected = 2 * cfg.nu_r / (1 + cfg.k_r) * np.sum(np.abs(h[:, 0]) ** 2)
    assert mom.sigma_sq == pytest.approx(expected, rel=1e-13)


def test_moments_rpm_small_phase_gap_vanishes(cfg):
    # with a large constellation, adjacent phases give a small gap factor
    big = validate(replace(cfg, m_rpm=256))
    h, g_bar = build_h(big), build_g_bar(big)
    adjacent = moments_rpm(h, g_bar, big, 1, 1, 2)
    opposite = moments_rpm(h, g_bar, big, 1, 1, 129)
    gap = 2 * (1 - np.cos(2 * np.pi / 256))
    assert adjacent.sigma_sq == pytest.approx(opposite.sigma_sq * gap / 4.0, rel=1e-10)
    assert adjacent.sigma_sq < 1e-3 * opposite.sigma_sq


def test_moments_joint_reduces_to_rpm_when_alternative_column_is_zero(cfg):
    # with h_that == 0 the joint direction is exp(j*phi_m) * h_t, so sigma^2
    # equals the phase-error sigma^2 without the phase-gap factor
    g_bar = build_g_bar(cfg)
    col = np.exp(1j * np.linspace(0.2, 2.0, cfg.n_elements))
    h_synth = np.stack([col, np.zeros(cfg.n_elements, dtype=complex)], axis=1)
    mom = moments_joint(h_synth, g_bar, cfg, 1, 2, 1, 2)
    base = cfg.nu_r / (2 * (1 + cfg.k_r)) * np.sum(np.abs(col) ** 2)
    assert mom.sigma_sq == pytest.approx(base, rel=1e-13)


@pytest.mark.parametrize("kind,idx", [("ssk", (1, 2, 1, 1)),
                                      ("rpm", (1, 1, 1, 2)),
                                      ("joint", (1, 2, 1, 2))])
def test_empirical_moments_match(cfg, hg, kind, idx):
    # mean s^2 + 2 n_r sigma^2 and variance 4 n_r sigma^4 + 4 sigma^2 s^2
    h, g_bar = hg
    t, t_hat, m, m_hat = idx
    builder = {"ssk": lambda: moments_ssk(h, g_bar, cfg, t, t_hat),
               "rpm": lambda: moments_rpm(h, g_bar, cfg, t, m, m_hat),
               "joint": lambda: moments_joint(h, g_bar, cfg, t, t_hat, m, m_hat)}[kind]
    mom = builder()
    d = event_direction(cfg, h, kind, t, t_hat, m, m_hat)
    xi = sample_xi(cfg, d, 100_000, np.random.default_rng(42))
    n = xi.size
    mean_th = mom.s_sq + 2 * mom.n_r * mom.sigma_sq
    var_th = 4 * mom.n_r * mom.sigma_sq ** 2 + 4 * mom.sigma_sq * mom.s_sq
    se_mean = xi.std(ddof=1) / np.sqrt(n)
    assert abs(xi.mean() - mean_th) < 3 * se_mean
    centered_sq = (xi - xi.mean()) ** 2
    se_var = centered_sq.std(ddof=1) / np.sqrt(n)
    assert abs(xi.var(ddof=1) - var_th) < 3 * se_var


def test_empirical_laplace_matches(cfg, hg):
    h, g_bar = hg
    mom = moments_joint(h, g_bar, cfg, 1, 2, 1, 2)
    d = event_direction(cfg, h, "joint", 1, 2, 1, 2)
    xi = sample_xi(cfg, d, 100_000, np.random.default_rng(3))
    rng = np.random.default_rng(8)
    for a in rng.uniform(0.05, 3.0, size=5):
        samples = np.exp(-a * xi)
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - laplace(mom, a)) < 3 * se


# ---- density -----------------------------------------------------------------

def test_pdf_rejects_bad_domain():
    mom = ErrorEventMoments(s_sq=1.0, sigma_sq=0.5, n_r=2)
    with pytest.raises(ValueError):
        ncx2_pdf(0.0, mom)
    with pytest.raises(ValueError):
        ncx2_pdf(-1.0, mom)
    with pytest.raises(ValueError):
        ncx2_pdf(1.0, ErrorEventMoments(s_sq=0.0, sigma_sq=0.0, n_r=1))


def test_pdf_central_single_antenna_is_exponential():
    mom = ErrorEventMoments(s_sq=0.0, sigma_sq=0.7, n_r=1)
    x = np.linspace(0.01, 8.0, 50)
    np.testing.assert_allclose(ncx2_pdf(x, mom),
                               np.exp(-x / 1.4) / 1.4, rtol=1e-12)


@pytest.mark.parametrize("mom", [
    ErrorEventMoments(s_sq=0.0, sigma_sq=1.3, n_r=1),
    ErrorEventMoments(s_sq=3.0, sigma_sq=1.0, n_r=2),
    ErrorEventMoments(s_sq=25.0, sigma_sq=0.2, n_r=3),
    ErrorEventMoments(s_sq=0.04, sigma_sq=4.0, n_r=4),
])
def test_pdf_normalizes(mom):
    assert pdf_mass(mom) == pytest.approx(1.0, abs=1e-8)


def test_pdf_mean_identity_by_quadrature():
    mom = ErrorEventMoments(s_sq=3.0, sigma_sq=1.0, n_r=2)
    assert pdf_mean(mom) == pytest.approx(7.0, abs=1e-6)


def test_pdf_nonnegative_and_unimodal(rng):
    for _ in range(15):
        mom = ErrorEventMoments(s_sq=float(rng.uniform(0, 8.0)),
                                sigma_sq=float(rng.uniform(0.1, 3.0)),
                                n_r=int(rng.integers(1, 5)))
        x = np.linspace(1e-6, mom.s_sq + 2 * mom.n_r * mom.sigma_sq + 40 * mom.sigma_sq, 800)
        f = ncx2_pdf(x, mom)
        assert np.all(f >= 0)
        d = np.diff(f)
        falling = False
        for step in d:
            if step < -1e-15:
                falling = True
            elif step > 1e-15:
                assert not falling, "density rose again after its mode"


def test_pdf_large_argument_no_overflow():
    mom = ErrorEventMoments(s_sq=4e4, sigma_sq=0.01, n_r=2)
    val = ncx2_pdf(mom.s_sq * 1.001, mom)
    assert np.isfinite(val) and val > 0


# ---- Laplace transform --------------------------------------------------------

def test_laplace_at_zero_is_one():
    mom = ErrorEventMoments(s_sq=2.0, sigma_sq=0.5, n_r=3)
    assert laplace(mom, 0.0) == 1.0


def test_laplace_central_closed_form():
    mom = ErrorEventMoments(s_sq=0.0, sigma_sq=0.8, n_r=2)
    a = 1.7
    assert laplace(mom, a) == pytest.approx((1 + 2 * a * 0.8) ** -2, rel=1e-14)


def test_laplace_stability_region():
    mom = ErrorEventMoments(s_sq=1.0, sigma_sq=1.0, n_r=1)
    assert laplace(mom, -0.2) > 1.0
    with pytest.raises(ValueError):
        laplace(mom, -0.5)
    # at sigma^2 = 0 every finite a is inside the region, but a = -inf is not,
    # while NaN stays NaN and +inf gives the limit 0
    for s_sq in (0.0, 0.7):
        flat = ErrorEventMoments(s_sq=s_sq, sigma_sq=0.0, n_r=2)
        for a in (-np.inf, np.array([1.0, -np.inf])):
            with pytest.raises(ValueError, match="stability region"):
                laplace(flat, a)
        assert np.isnan(laplace(flat, np.nan)) and laplace(flat, np.inf) == 0.0


def test_laplace_limit_where_the_argument_overflows():
    # exact limit 0 where a is infinite or 1 + 2 a sigma^2 overflows, with no
    # warning; every finite, non-overflowing argument keeps the closed form bitwise
    mom = ErrorEventMoments(s_sq=2.0, sigma_sq=0.5, n_r=2)
    a = np.array([0.0, 1.0, 1e300, 1.7e308, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = laplace(mom, a)
        assert laplace(mom, np.inf) == 0.0
        assert laplace(ErrorEventMoments(s_sq=1.0, sigma_sq=0.0, n_r=1), np.inf) == 0.0
    denom = 1.0 + 2.0 * a[:3] * mom.sigma_sq
    np.testing.assert_array_equal(out[:3], denom ** -2 * np.exp(-a[:3] * mom.s_sq / denom))
    np.testing.assert_array_equal(out[3:], 0.0)


def _laplace_arguments(rng) -> list:
    """A Python float, then arrays of shapes (), (5,) and (3, 61, 96): a over 1e-20..1e300,
    with 0, inf and values at which 1 + 2 a sigma^2 overflows among them."""
    big = rng.random((3, 61, 96)) * 10.0 ** rng.uniform(-20.0, 300.0, (3, 61, 96))
    big.flat[:4] = [0.0, np.inf, 1.7e308, np.finfo(float).max]
    return [2.5, np.array(0.75), np.array([0.0, 1e-3, 1e300, 1.7e308, np.inf]), big]


@pytest.mark.parametrize("read_only", [True, False])
def test_laplace_leaves_its_argument_alone_and_keeps_its_bits(rng, read_only):
    # the three in-place buffers give bitwise the out-of-place values, of the same
    # type, and never write into a: a read-only table, or a writeable array
    for n_r in range(1, 9):
        for s_sq, sigma_sq in ((0.0, 0.8), (1.2, 0.44), (0.7, 0.0), (25.0, 0.6)):
            mom = ErrorEventMoments(s_sq=s_sq, sigma_sq=sigma_sq, n_r=n_r)
            for a in _laplace_arguments(rng):
                before = np.array(a, copy=True)
                if isinstance(a, np.ndarray):
                    a.flags.writeable = not read_only
                got, want = laplace(mom, a), laplace_reference(mom, a)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                assert np.asarray(a).tobytes() == before.tobytes()


def test_laplace_against_quadrature(rng):
    for _ in range(12):
        mom = ErrorEventMoments(s_sq=float(rng.uniform(0, 6.0)),
                                sigma_sq=float(rng.uniform(0.1, 2.5)),
                                n_r=int(rng.integers(1, 5)))
        a = float(rng.uniform(0.01, 4.0))
        ref = laplace_by_quadrature(mom, a)
        assert laplace(mom, a) == pytest.approx(ref, rel=1e-6)


def test_laplace_decreasing_and_log_convex():
    mom = ErrorEventMoments(s_sq=2.5, sigma_sq=0.6, n_r=2)
    a = np.linspace(0.0, 20.0, 201)
    vals = laplace(mom, a)
    assert np.all(np.diff(vals) < 0)
    log_vals = np.log(vals)
    assert np.all(np.diff(log_vals, 2) >= -1e-12)


#: (s^2, sigma^2) of the 50-digit check: central, the stress scenario's unit law,
#: and two noncentral laws up to s^2 / (2 sigma^2) = 21, where exp's argument,
#: and so its rounding, is largest.
MP_LAWS = [(0.0, 0.8), (1.153411170414086, 0.43983597025763155), (2.0, 0.5), (25.0, 0.6)]
#: a from 1e-20 to 1e300 in steps of a quarter decade.
MP_ARGS = 10.0 ** (np.arange(-80, 1201) / 4.0)


def _closed_form_50_digits(s_sq: float, sigma_sq: float, n_r: int, a: float) -> float:
    """(1 + 2 a sigma^2)^(-n_r) exp(-a s^2 / (1 + 2 a sigma^2)) at 50 digits, rounded once."""
    with mpmath.workdps(50):
        a, denom = mpmath.mpf(a), 1 + 2 * mpmath.mpf(a) * mpmath.mpf(sigma_sq)
        return float(denom ** -n_r * mpmath.exp(-a * mpmath.mpf(s_sq) / denom))


@pytest.mark.parametrize("n_r", range(1, 9))
def test_laplace_matches_the_closed_form_to_50_digits(n_r):
    # n_r = 1..8 runs every branch of the square-and-multiply power: within 1e-14
    # of the 50-digit value wherever it exceeds 1e-290, exactly 0 where a is
    # infinite or 1 + 2 a sigma^2 overflows, NaN for NaN, a float for a float
    for s_sq, sigma_sq in MP_LAWS:
        mom = ErrorEventMoments(s_sq=s_sq, sigma_sq=sigma_sq, n_r=n_r)
        want = np.array([_closed_form_50_digits(s_sq, sigma_sq, n_r, a) for a in MP_ARGS])
        got, keep = laplace(mom, MP_ARGS), want > 1e-290
        assert keep[:200].all()  # a up to 1e30 at least
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-14, atol=0)
        assert np.all((got[~keep] >= 0.0) & (got[~keep] <= 1e-289))
        if 2.0 * sigma_sq > 1.0 / 0.9:  # 1 + 2 a sigma^2 overflows from a = 0.9 * max on
            big = np.finfo(float).max * np.array([0.9, 1.0])
            np.testing.assert_array_equal(laplace(mom, big), 0.0)
        assert type(laplace(mom, 0.5)) is float and laplace(mom, np.inf) == 0.0
        assert laplace(mom, 1.0) == laplace(mom, np.array([1.0]))[0]
        assert np.isnan(laplace(mom, np.nan)) and np.isnan(laplace(mom, [1.0, np.nan])[1])
        assert laplace(mom, -0.999 / (2.0 * sigma_sq)) > 1.0
        for outside in (-1.0 / (2.0 * sigma_sq), -1e300, -np.inf):
            with pytest.raises(ValueError, match="stability region"):
                laplace(mom, np.array([1.0, outside]))
    singular = ErrorEventMoments(s_sq=0.7, sigma_sq=0.0, n_r=n_r)
    assert laplace(singular, np.inf) == 0.0 and laplace(singular, 2.0) == np.exp(-1.4)
