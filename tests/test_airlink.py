import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from irs_sskrpm import (SystemConfig, load_config, make_channel, ml_detect, rpm_phases,
                        steering_irs, validate)
from oracles import (full_g_signatures, ml_detect_reference, pair_classes_reference, sample_g,
                     wedge_detect_reference)
from test_channel import (ANTIPODAL_EDGES, NEAR_LOCATIONS, ON_RPM_STEPS, POINT_ON_EDGE,
                          STRESS_CONFIG, constellation_configs)


def test_rpm_phases_structure():
    for m in (1, 2, 4, 8):
        ph = rpm_phases(m)
        assert ph[0] == 0.0
        assert np.all(np.diff(ph) > 0)
        np.testing.assert_allclose(ph, 2 * np.pi * np.arange(m) / m)


@pytest.mark.parametrize("n_t,m_rpm", [(2, 2), (4, 2), (2, 8), (16, 16)])
def test_bit_mapping_bijection(n_t, m_rpm):
    # the label of a hypothesis is the natural binary code of its antenna
    # index followed by that of its phase index, so the flat t-major index
    # read as bits is the label; pair_classes_reference reads both masks and
    # every Hamming distance off the flat indices
    b_t, b_m = n_t.bit_length() - 1, m_rpm.bit_length() - 1
    labels = [format(t, f"0{b_t}b") + format(m, f"0{b_m}b")
              for t in range(n_t) for m in range(m_rpm)]
    assert [int(label, 2) for label in labels] == list(range(n_t * m_rpm))
    assert all(len(label) == b_t + b_m for label in labels)
    same_t, same_m, dist = pair_classes_reference(n_t, m_rpm)
    for i, j in itertools.product(range(n_t * m_rpm), repeat=2):
        (t, m), (t_hat, m_hat) = divmod(i, m_rpm), divmod(j, m_rpm)
        assert same_t[i, j] == (t == t_hat) and same_m[i, j] == (m == m_hat)
        hamming = bin(t ^ t_hat).count("1") + bin(m ^ m_hat).count("1")
        assert dist[i, j] == hamming == sum(a != b for a, b in zip(labels[i], labels[j]))


def _g_eff(cfg: SystemConfig, g: np.ndarray) -> np.ndarray:
    """g_eff = G^H a_irs of one full draw G."""
    return g.conj().T @ steering_irs(cfg.phi_a, cfg.phi_e, cfg.n_x, cfg.n_y,
                                     cfg.kappa_over_lambda)


def _min_distance(points: np.ndarray) -> float:
    d = np.abs(points[:, None] - points[None, :])
    return float(d[~np.eye(points.size, dtype=bool)].min(initial=math.inf))


def test_ml_detect_matches_norm_minimization(rng):
    # the rank-1 score equals the literal argmin of ||y - sqrt(P_s) lambda_k||^2
    # over the full-G signatures lambda_k = e^{j phi_m} G^H h_t
    cfg = validate(SystemConfig(n_t=4, m_rpm=4, n_r=2))
    chan = make_channel(cfg)
    p_s = 3.0
    for _ in range(10):
        g = sample_g(cfg, chan.g_bar, rng)
        lam = full_g_signatures(cfg, g)
        y = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
        ip = chan.sqrt_nu * y @ _g_eff(cfg, g).conj()
        detected = ml_detect(chan.wedges, ip)
        dists = np.sum(np.abs(y[:, None, :] - np.sqrt(p_s) * lam[None]) ** 2, axis=2)
        np.testing.assert_array_equal(detected, np.argmin(dists, axis=1))


def test_ml_detect_zero_observation_tie_break(chan):
    # y = 0: every score ties, and +0 decides index 0
    assert np.all(ml_detect(chan.wedges, np.zeros(5, dtype=complex)) == 0)


def test_ml_detect_global_phase_invariance(rng):
    # a common phase on the channel and the observation changes no decision
    cfg = validate(SystemConfig(n_t=4, m_rpm=4, n_r=2))
    chan = make_channel(cfg)
    for _ in range(20):
        g_eff = _g_eff(cfg, sample_g(cfg, chan.g_bar, rng))
        y = (rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))) * 3.0
        rot = np.exp(1j * rng.uniform(0, 2 * np.pi))
        i0 = ml_detect(chan.wedges, chan.sqrt_nu * y @ g_eff.conj())
        i1 = ml_detect(chan.wedges, chan.sqrt_nu * (rot * y) @ (rot * g_eff).conj())
        np.testing.assert_array_equal(i0, i1)


@settings(max_examples=60, deadline=None)
@given(n_t=st.sampled_from([1, 2, 4, 8]), m_rpm=st.sampled_from([1, 2, 4, 8]),
       n_r=st.integers(1, 4), n_x=st.integers(1, 4), n_y=st.integers(1, 4),
       phi_d=st.floats(-math.pi, math.pi), seed=st.integers(0, 2**32 - 1))
def test_ml_detect_recovers_noise_free_symbol(n_t, m_rpm, n_r, n_x, n_y, phi_d, seed):
    # every noise-free hypothesis of a full-G draw is detected as itself
    cfg = validate(SystemConfig(n_t=n_t, m_rpm=m_rpm, n_r=n_r, n_x=n_x, n_y=n_y, phi_d=phi_d))
    chan = make_channel(cfg)
    assume(_min_distance(chan.points) >= 1e-3)
    g = sample_g(cfg, chan.g_bar, np.random.default_rng(seed))
    p_s = 10.0
    y = np.sqrt(p_s) * full_g_signatures(cfg, g)
    ip = chan.sqrt_nu * y @ _g_eff(cfg, g).conj()
    np.testing.assert_array_equal(ml_detect(chan.wedges, ip), np.arange(n_t * m_rpm))


@settings(max_examples=200, deadline=None)
@given(cfg=constellation_configs(), seed=st.integers(0, 2**32 - 1))
@example(cfg=validate(ON_RPM_STEPS), seed=0)
def test_wedge_detector_matches_the_exhaustive_argmin(cfg, seed):
    # the wedge lookup against the K-score argmin, on random statistics and
    # ip = 0; draws within 1e-12 rad of a bisector, where rounding decides, are
    # left out
    chan = make_channel(cfg)
    assume(chan.points.size >= 2)
    wedges = chan.wedges
    rng = np.random.default_rng(seed)
    ip = np.concatenate([[0.0], rng.standard_normal(400) + 1j * rng.standard_normal(400)])
    ip *= 10.0 ** rng.uniform(-3, 3, ip.size)
    gap = np.abs((np.angle(ip)[:, None] - wedges[0] + np.pi) % (2 * np.pi) - np.pi)
    ip = ip[(gap.min(axis=1) > 1e-12) | (ip == 0)]
    # The reference argmin runs over the points that own a wedge, one per
    # location: rounding-level copies of a location would otherwise tie with
    # it up to rounding, and rounding would decide between them.
    owners = np.unique(wedges[1])
    detected = ml_detect(wedges, ip)
    reference = owners[ml_detect_reference(chan.points[owners], ip, math.sqrt(5.0))]
    np.testing.assert_array_equal(detected, reference)
    assert detected[0] == 0


def _ulps(v: np.ndarray, n: int) -> np.ndarray:
    """v and its n floats either side, ascending along a new last axis."""
    out = [v]
    for _ in range(n):
        out = [np.nextafter(out[0], -np.inf), *out, np.nextafter(out[-1], np.inf)]
    return np.stack(out, axis=-1)


@settings(max_examples=100, deadline=None)
@given(cfg=constellation_configs())
@example(cfg=validate(ON_RPM_STEPS))
@example(cfg=validate(NEAR_LOCATIONS))
@example(cfg=validate(POINT_ON_EDGE))
@example(cfg=validate(ANTIPODAL_EDGES))
@example(cfg=validate(load_config(STRESS_CONFIG)))
def test_ml_detect_breaks_ties_as_the_broadcast_count(cfg):
    # the binary search decides bitwise as the oracle's count of the bisectors strictly below
    # angle(ip), on a 2-D ip whose shape it keeps: angles exactly on every bisector in
    # [-pi, pi] and one ulp either side (each found among the floats 2 ulps around
    # cos + j sin of it), -1 + 0j and -1 - 0j (angles pi and -pi), +0 and -0.0 + 0j (angle
    # pi). NaN is left out: it has no ML decision, and no caller passes one
    wedges = make_channel(cfg).wedges
    bisectors = wedges[0][np.abs(wedges[0]) <= np.pi]
    theta = _ulps(bisectors, 1).ravel()
    theta = theta[np.abs(theta) <= np.pi]
    ip = _ulps(np.cos(theta), 2)[:, :, None] + 1j * _ulps(np.sin(theta), 2)[:, None, :]
    ip = ip.reshape(theta.size, -1)
    assert np.isin(theta, np.angle(ip)).all()
    ties = np.array([-1 + 0j, complex(-1.0, -0.0), 0j, complex(-0.0, 0.0)])
    ip = np.vstack([ip, np.resize(ties, ip.shape[1])])
    detected = ml_detect(wedges, ip)
    assert detected.shape == ip.shape
    np.testing.assert_array_equal(detected,
                                  wedge_detect_reference(wedges, ip.ravel()).reshape(ip.shape))
