"""Textbook anchors: the analytic layer and the simulation against classical closed forms
that share no code with the library.

Where the constellation is a textbook one, the link has results that need only the config:
the effective channel's law (ROADMAP, "The fact the items build on") and the constellation's
distances. xi_1 = nu ||g_eff||^2 is sigma^2 times a noncentral chi-square with 2 n_r degrees of
freedom and noncentrality s^2 / sigma^2, where 2 sigma^2 = nu nu_r N / (1 + k_r) and
s^2 = nu nu_r k_r / (1 + k_r) n_r |a_irs(psi)^H a_irs(phi)|^2. The references below are
written out here and import only SciPy and `math`:
- K = 2 (BPSK: n_t = 1, m_rpm = 2; or two SSK points: n_t = 2, m_rpm = 1) has one pair, with
  Hamming distance 1, so the ABER is its PEP E[Q(sqrt(P_s xi_1 d / 2))], d = |c_0 - c_1|^2.
  With k_r = 0 this is maximal-ratio combining over n_r Rayleigh branches (Proakis, Digital
  Communications, 4th ed., eq. 14.4-15); for any k_r it is an integral over SciPy's ncx2 law.
- QPSK (n_t = 1, m_rpm = 4) with the natural labels 00, 01, 10, 11 around the circle errs to
  each neighbour with probability q (1 - q) and to the opposite point with q^2, q =
  Q(sqrt(P_s xi_1)); the neighbours cost 1 and 2 bits and the opposite point 1, so the BER is
  E[(3 q - 2 q^2) / 2] (Simon and Alouini, 2005, ch. 8).
- As k_r grows, xi_1 concentrates at s^2 and the link becomes AWGN: a K = 2 ABER tends to
  Q(sqrt(P_s s^2 d / 2)), with a relative gap of order 1 / k_r.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special, stats

from irs_sskrpm import (aber_union, load_config, make_channel, pep_of_event, simulate_ber,
                        unit_moments, validate)
from conftest import config_path

#: The constellations with K = 2, as (n_t, m_rpm).
K2 = {"bpsk": (1, 2), "ssk": (2, 1)}


def anchor_config(n_t: int, m_rpm: int, n_r: int, k_r: float):
    """aber_n32's geometry with the given constellation, receive antennas and K-factor."""
    return validate(replace(load_config(config_path("aber_n32.cfg")), n_t=n_t, m_rpm=m_rpm,
                            n_r=n_r, k_r=k_r))


def law(cfg) -> tuple[float, float]:
    """(s^2, sigma^2) of xi_1 = nu ||g_eff||^2 from the config alone: the IRS responses
    exp(-j 2 pi kappa/lambda (n_x sin(e) cos(a) + n_y cos(e))) at the arrival (phi) and
    departure (psi) angles meet in |a_irs(psi)^H a_irs(phi)|^2."""
    alpha = 2.0 * math.pi * cfg.kappa_over_lambda * (
        math.sin(cfg.phi_e) * math.cos(cfg.phi_a) - math.sin(cfg.psi_e) * math.cos(cfg.psi_a))
    beta = 2.0 * math.pi * cfg.kappa_over_lambda * (math.cos(cfg.phi_e) - math.cos(cfg.psi_e))
    angles = [alpha * nx + beta * ny for nx in range(cfg.n_x) for ny in range(cfg.n_y)]
    gain = math.fsum(map(math.cos, angles)) ** 2 + math.fsum(map(math.sin, angles)) ** 2
    path = cfg.nu * cfg.nu_r / (1.0 + cfg.k_r)
    return path * cfg.k_r * cfg.n_r * gain, path * cfg.n_elements / 2.0


def pair_distance(cfg) -> float:
    """|c_0 - c_1|^2 of a K = 2 constellation: the points are half a turn apart (BPSK) or
    (delta/lambda) sin(phi_d) turns apart (SSK)."""
    turns = 0.5 if cfg.n_t == 1 else cfg.delta_over_lambda * math.sin(cfg.phi_d)
    return 4.0 * math.sin(math.pi * turns) ** 2


def q_function(z: float) -> float:
    return 0.5 * special.erfc(z / math.sqrt(2.0))


def proakis_mrc(gamma: float, branches: int) -> float:
    """BPSK over `branches` Rayleigh branches with MRC at mean branch SNR gamma (Proakis eq.
    14.4-15), with 1 - mu formed as 1 / ((1 + gamma)(1 + mu)): the plain subtraction cancels."""
    mu = math.sqrt(gamma / (1.0 + gamma))
    below, above = 0.5 / ((1.0 + gamma) * (1.0 + mu)), (1.0 + mu) / 2.0
    return below ** branches * math.fsum(math.comb(branches - 1 + l, l) * above ** l
                                         for l in range(branches))


def fading_mean(f, s_sq: float, sigma_sq: float, n_r: int, turn: float) -> float:
    """E[f(xi)] for xi = sigma^2 X, X ~ ncx2(2 n_r, s^2 / sigma^2), by adaptive quadrature
    split at X's mean and at decades around xi = turn, where f turns, up to X's 1e-30 tail."""
    x = stats.ncx2(2 * n_r, s_sq / sigma_sq) if s_sq > 0 else stats.chi2(2 * n_r)
    cut = float(x.isf(1e-30))
    marks = [float(x.mean()), *(10.0 ** k * turn / sigma_sq for k in range(-4, 5))]
    edges = [0.0, *sorted(m for m in marks if 0.0 < m < cut), cut]
    return math.fsum(integrate.quad(lambda v: f(sigma_sq * v) * float(x.pdf(v)), lo, hi,
                                    epsabs=0.0, epsrel=1e-13, limit=400)[0]
                     for lo, hi in zip(edges, edges[1:]))


def k2_reference(cfg, p_s: float) -> float:
    """The ABER of a K = 2 constellation at power p_s: Proakis at k_r = 0, else the integral."""
    (s_sq, sigma_sq), d = law(cfg), pair_distance(cfg)
    if cfg.k_r == 0:
        return proakis_mrc(p_s * sigma_sq * d / 2.0, cfg.n_r)
    return fading_mean(lambda xi: q_function(math.sqrt(p_s * xi * d / 2.0)),
                       s_sq, sigma_sq, cfg.n_r, 2.0 / (p_s * d))


def qpsk_reference(cfg, p_s: float) -> float:
    """The BER of QPSK with natural labels at power p_s, E[(3 q - 2 q^2) / 2]."""
    def ber(xi):
        q = q_function(math.sqrt(p_s * xi))
        return (3.0 * q - 2.0 * q * q) / 2.0
    return fading_mean(ber, *law(cfg), cfg.n_r, 1.0 / p_s)


#: The SNR points of each K = 2 identity, in dB: -10 to 60 dB with k_r = 0, where the closed
#: form holds at any power, and 0/10/20 dB with k_r = 2.
IDENTITY_DB = {0.0: tuple(range(-10, 61, 5)), 2.0: (0, 10, 20)}


@pytest.mark.parametrize("k_r", sorted(IDENTITY_DB))
@pytest.mark.parametrize("n_r", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(K2))
def test_k2_union_bound_is_the_textbook_error_rate(name, n_r, k_r):
    # one pair with Hamming distance 1: the exact-PEP union bound is the ABER itself, and
    # the pair's exact PEP (the unit law at power p_s d) is the same number, to 1e-10 relative
    cfg = anchor_config(*K2[name], n_r, k_r)
    chan = make_channel(cfg)
    distances, index = chan.distances
    p = 10.0 ** (np.array(IDENTITY_DB[k_r], dtype=float) / 10.0)
    want = np.array([k2_reference(cfg, float(p_s)) for p_s in p])
    assert np.all(want > 0.0)
    np.testing.assert_allclose(aber_union(chan, cfg, p, exact_pep=True), want, rtol=1e-10, atol=0)
    pep = pep_of_event(unit_moments(chan), p * distances[index[0, 1]]).exact
    np.testing.assert_allclose(pep, want, rtol=1e-10, atol=0)


#: The simulated anchors: (constellation, n_t, m_rpm, n_r, k_r).
SIMULATED = [("bpsk", 1, 2, 1, 2.0), ("bpsk", 1, 2, 3, 2.0), ("ssk", 2, 1, 2, 2.0),
             ("qpsk", 1, 4, 2, 2.0), ("qpsk", 1, 4, 1, 0.0)]


@pytest.mark.parametrize("name,n_t,m_rpm,n_r,k_r", SIMULATED)
def test_simulated_error_rate_meets_the_textbook_value(name, n_t, m_rpm, n_r, k_r):
    # 400k trials at the config's own seed, one call over 0/10/20 dB: each row within 3 sigma
    # of the reference x, with the conservative sigma = sqrt(x / trials) (a trial's bit error
    # fraction is in [0, 1], so its variance is at most its mean)
    cfg, trials = anchor_config(n_t, m_rpm, n_r, k_r), 400_000
    p = 10.0 ** (np.array([0.0, 10.0, 20.0]) / 10.0)
    reference = qpsk_reference if name == "qpsk" else k2_reference
    want = np.array([reference(cfg, float(p_s)) for p_s in p])
    aber, _ = simulate_ber(cfg, p, trials, cfg.seed)
    z = (aber - want) / np.sqrt(want / trials)
    assert np.all(np.abs(z) <= 3.0), (aber, want, z)


def awgn_gap(cfg, p_s: float) -> float:
    """The relative gap of a K = 2 ABER E[f(xi)], f(x) = Q(sqrt(b x)) and b = P_s d / 2, to the
    AWGN value f(s^2), to first order in sigma^2 (the delta method): E[xi] - s^2 = 2 n_r sigma^2
    and Var xi = 4 sigma^2 (s^2 + n_r sigma^2), so E[f(xi)] - f(s^2) = f'(s^2) 2 n_r sigma^2 +
    f''(s^2) 2 s^2 sigma^2 + O(sigma^4), with f'(x) = -phi(t) b / (2 t) and
    f''(x) = b^2 phi(t) (1 + 1/t^2) / (4 t) at t = sqrt(b x), phi the normal density."""
    (s_sq, sigma_sq), b = law(cfg), p_s * pair_distance(cfg) / 2.0
    t = math.sqrt(b * s_sq)
    phi = math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    slope, curve = -phi * b / (2.0 * t), b * b * phi * (1.0 + 1.0 / t ** 2) / (4.0 * t)
    return (slope * 2.0 * cfg.n_r + curve * 2.0 * s_sq) * sigma_sq / q_function(t)


@pytest.mark.parametrize("snr_db", [-10.0, 0.0])
@pytest.mark.parametrize("n_r", [1, 2])
def test_awgn_limit_gap_shrinks_as_one_over_k_r(n_r, snr_db):
    # as k_r grows, xi_1 = nu ||g_eff||^2 concentrates at s^2, so BPSK's ABER tends to the AWGN
    # value Q(sqrt(P_s s^2 d / 2)); the relative gap of the exact-PEP union bound to it is of
    # order 1 / k_r: each decade of k_r from 1e3 to 1e6 divides it by 10 (to 3%), at 1e6 it is
    # below 1e-5, and at each k_r it is its first-order term `awgn_gap` to 1%
    p_s, gaps, first_order = 10.0 ** (snr_db / 10.0), [], []
    for k_r in (1e3, 1e4, 1e5, 1e6):
        cfg = anchor_config(*K2["bpsk"], n_r, k_r)
        awgn = q_function(math.sqrt(p_s * law(cfg)[0] * pair_distance(cfg) / 2.0))
        union = float(aber_union(make_channel(cfg), cfg, np.array([p_s]), exact_pep=True)[0])
        gaps.append((union - awgn) / awgn)
        first_order.append(awgn_gap(cfg, p_s))
    np.testing.assert_allclose(np.divide(gaps[:-1], gaps[1:]), 10.0, rtol=0.03)
    assert 0.0 < abs(gaps[-1]) < 1e-5
    np.testing.assert_allclose(gaps, first_order, rtol=0.01)
