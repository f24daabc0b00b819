import math
import os

import numpy as np
import pytest
from dataclasses import replace

from irs_sskrpm import (ErrorEventMoments, NumericalError, SystemConfig, aber_union,
                        aber_union_terms, capacity_closed, laplace, load_config, make_channel,
                        moments_joint, moments_rpm, moments_ssk, pep_chiani, pep_of_event,
                        run_sweep, simulate_ber, simulate_capacity, unit_moments, validate)
from oracles import craig_by_quadrature, diversity_slope, pep_by_quadrature


def test_pep_at_zero_power(chan, cfg):
    mom = moments_ssk(chan.h, chan.g_bar, cfg, 1, 2)
    v = pep_of_event(mom, 0.0)
    assert v.exact == pytest.approx(0.5, abs=1e-12)
    assert v.chiani == 1.0 / 3.0  # exactly, in float64


def test_pep_decays_to_zero(chan, cfg):
    mom = moments_ssk(chan.h, chan.g_bar, cfg, 1, 2)
    v = pep_of_event(mom, 1e16)
    assert v.exact < 1e-12


def test_pep_bounds_and_monotonicity(chan, cfg):
    mom = moments_joint(chan.h, chan.g_bar, cfg, 1, 2, 1, 2)
    prev = None
    for p_s in 10 ** np.linspace(-2, 5, 30):
        v = pep_of_event(mom, p_s)
        assert 0.0 <= v.exact <= 0.5
        assert 0.0 <= v.chiani <= 1.0 / 3.0
        if prev is not None:
            assert v.exact <= prev.exact + 1e-15
            assert v.chiani <= prev.chiani + 1e-15
        prev = v


def test_pep_exact_matches_direct_quadrature(rng):
    for _ in range(10):
        mom = ErrorEventMoments(s_sq=float(rng.uniform(0.0, 5.0)),
                                sigma_sq=float(rng.uniform(0.1, 2.0)),
                                n_r=int(rng.integers(1, 4)))
        p_s = float(rng.uniform(0.5, 80.0))
        ref = pep_by_quadrature(mom, p_s)
        assert pep_of_event(mom, p_s).exact == pytest.approx(ref, rel=1e-8)


def test_pep_ssk_is_phase_invariant(chan, cfg):
    # the antenna-error moments never touch the phase alphabet (bitwise-equal
    # results), and under every applied phase the antenna error 1 -> 2 has
    # the same PEP
    big = validate(replace(cfg, m_rpm=4))
    mom = moments_ssk(chan.h, chan.g_bar, big, 1, 2)
    assert mom == moments_ssk(chan.h, chan.g_bar, cfg, 1, 2)
    ref = pep_of_event(mom, 13.0).exact
    points = make_channel(big).points.reshape(big.n_t, big.m_rpm)
    for m in range(big.m_rpm):
        v = pep_of_event(unit_moments(chan), 13.0 * abs(points[0, m] - points[1, m]) ** 2)
        assert v.exact == pytest.approx(ref, rel=1e-12)


def test_pep_rpm_adjacent_phases_worse_than_antipodal(chan, cfg):
    big = validate(replace(cfg, m_rpm=8))
    for t in range(1, big.n_t + 1):
        adjacent = pep_of_event(moments_rpm(chan.h, chan.g_bar, big, t, 1, 2), 25.0)
        antipodal = pep_of_event(moments_rpm(chan.h, chan.g_bar, big, t, 1, 5), 25.0)
        assert adjacent.exact > antipodal.exact


def test_pep_joint_decreases_with_surface_size(cfg):
    p_s = 10 ** 2.0
    small = validate(replace(cfg, n_x=4, n_y=4))
    large = validate(replace(cfg, n_x=8, n_y=4))
    v_small, v_large = (
        pep_of_event(moments_joint(ch.h, ch.g_bar, c, 1, 2, 1, 2), p_s)
        for c, ch in ((small, make_channel(small)), (large, make_channel(large))))
    assert v_large.exact < v_small.exact


def test_paper_literal_args_doubles_transform_argument(chan, cfg):
    # the doubled-argument convention at P_s = 8 is the PEP at 16
    mom = moments_ssk(chan.h, chan.g_bar, cfg, 1, 2)
    lit = pep_of_event(mom, 16.0)
    assert lit.chiani == pytest.approx(laplace(mom, 4.0) / 12 + laplace(mom, 16.0 / 3.0) / 4,
                                       rel=1e-14)
    assert lit.exact < pep_of_event(mom, 8.0).exact


def test_run_sweep_literal_rows_are_the_bound_at_double_power(chan, cfg):
    for exact in (False, True):
        columns = run_sweep(cfg, "aber", mode="analytic", exact_pep=exact,
                            paper_literal_args=True)
        assert columns["aber_analytical"] == [
            aber_union(chan, cfg, 2.0 * 10.0 ** (s / 10.0), exact) for s in cfg.snr_grid_db]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_power_is_rejected(chan, cfg, bad):
    mom = moments_ssk(chan.h, chan.g_bar, cfg, 1, 2)
    for p_s in (bad, np.array([1.0, bad]), np.array([[bad]])):
        with pytest.raises(ValueError, match="finite"):
            pep_of_event(mom, p_s)
    with pytest.raises(ValueError, match="finite"):
        aber_union(chan, cfg, bad, exact_pep=True)
    with pytest.raises(ValueError, match="finite"):
        capacity_closed(chan, cfg, bad)


#: Every function that takes an array of powers, as a map from p to its arrays.
ARRAY_FUNCTIONS = {
    "pep_of_event": lambda chan, cfg, p: vars(pep_of_event(unit_moments(chan), p)).values(),
    "pep_chiani": lambda chan, cfg, p: (pep_chiani(unit_moments(chan), p),),
    "aber_union": lambda chan, cfg, p: (aber_union(chan, cfg, p),),
    "aber_union exact": lambda chan, cfg, p: (aber_union(chan, cfg, p, exact_pep=True),),
    "capacity_closed": lambda chan, cfg, p: (capacity_closed(chan, cfg, p),),
    "simulate_ber": lambda chan, cfg, p: simulate_ber(cfg, p, 200, seed=1),
    "simulate_capacity": lambda chan, cfg, p: simulate_capacity(cfg, p, 200, 1, with_stderr=True),
}


@pytest.mark.parametrize("p", [np.array([]), np.array([[0.0, 1.0], [10.0, 1e3]])],
                         ids=["empty", "2x2"])
@pytest.mark.parametrize("name", sorted(ARRAY_FUNCTIONS))
def test_array_powers_return_the_shape_of_p(chan, cfg, name, p):
    # an empty array of powers is an empty answer, not a failed reduction
    for value in ARRAY_FUNCTIONS[name](chan, cfg, p):
        assert isinstance(value, np.ndarray) and value.shape == p.shape, name


def test_craig_check_fails_closed_on_nan():
    # a NaN spread is not a converged integral
    with pytest.raises(NumericalError, match="did not converge"):
        pep_of_event(ErrorEventMoments(s_sq=math.nan, sigma_sq=0.5, n_r=1), 1.0)


#: Two antennas a small phase step apart: pair distance 0.0289, so -30 and
#: -20 dB are the effective powers 2.9e-5 and 2.9e-4, inside the layer of the
#: Craig integrand at w = 0.
SMALL_STEP = replace(SystemConfig(), n_t=2, m_rpm=1, n_r=1, k_r=0.5,
                     delta_over_lambda=0.05078125, phi_d=0.5625)

STRESS_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "scenarios",
                             "stress_nt8m8.cfg")


def _unit_law(name: str):
    """The unit law and the distinct pair distances of a named scenario."""
    cfg = load_config(STRESS_CONFIG) if name == "stress_nt8m8" else validate(SMALL_STEP)
    chan = make_channel(cfg)
    return unit_moments(chan), chan.distances[0]


@pytest.mark.parametrize("name", ["stress_nt8m8", "small_step"])
def test_pep_matches_the_craig_form_by_quadrature(name):
    # the integrand turns within about sqrt(a) of w = 0, from a = 1e-20 to 1e10
    # and at SMALL_STEP's -30/-20 dB and a = 3e-8; at a = 1e-14 nodes that miss
    # the layer miss it at both orders alike, so the value is off while the
    # order-doubling check passes
    mom, d = _unit_law(name)
    a = 10.0 ** (np.arange(-40, 21) / 2.0)
    if name == "small_step":
        a = np.concatenate([a, np.array([1e-3, 1e-2]) * d[1], [3e-8]])
    assert 1e-14 in a
    ref = [craig_by_quadrature(mom, float(x)) for x in a]
    np.testing.assert_allclose(pep_of_event(mom, a).exact, ref, rtol=1e-10, atol=0)


@pytest.mark.parametrize("name", ["stress_nt8m8", "small_step"])
def test_pep_stays_in_zero_half_and_falls_with_power(name):
    # the rule overshoots 1/2 by a few ulps near zero power; the value is capped
    # there, as Q(x) <= 1/2 for x >= 0
    mom, d = _unit_law(name)
    p = np.multiply.outer(10.0 ** (np.arange(-300, 61) / 10.0), d)
    for exact in (pep_of_event(mom, p).exact, pep_of_event(mom, np.array([0.0, 1e-30])).exact):
        assert np.all((exact >= 0.0) & (exact <= 0.5))
        assert np.all(np.diff(exact, axis=0) <= 0.0)


def test_chiani_fails_closed_on_nan(chan, cfg):
    # the default union bound runs no quadrature, so the closed form itself
    # rejects a NaN PEP, on array powers too
    nan = ErrorEventMoments(s_sq=math.nan, sigma_sq=0.5, n_r=1)
    with pytest.raises(NumericalError, match="not finite"):
        pep_chiani(nan, np.array([1.0, 10.0]))
    with pytest.raises(NumericalError, match="not finite"):
        aber_union(replace(chan, scale=math.nan), cfg, 10.0)


def test_chiani_tracks_exact_in_the_low_error_regime(chan, cfg):
    # single receive antenna: the two-exponential closed form stays within
    # 15% of the Craig value once the PEP is below 1e-2
    checked = 0
    for p_s in 10 ** np.linspace(1.0, 6.0, 24):
        for mom in (moments_ssk(chan.h, chan.g_bar, cfg, 1, 2),
                    moments_rpm(chan.h, chan.g_bar, cfg, 1, 1, 2),
                    moments_joint(chan.h, chan.g_bar, cfg, 1, 2, 1, 2)):
            v = pep_of_event(mom, p_s)
            if v.exact <= 1e-2 and v.exact > 1e-300:
                assert abs(v.chiani - v.exact) / v.exact <= 0.15
                checked += 1
    assert checked > 10


def test_chiani_offset_bounded_for_multiple_antennas(rng):
    # with n_r >= 2 the closed form carries a larger systematic offset
    # (about 19-21% in the deep-decay limit); keep it under 25%
    for nr in (2, 3, 4):
        mom = ErrorEventMoments(s_sq=1.0, sigma_sq=0.5, n_r=nr)
        for p_s in 10 ** np.linspace(1.5, 6.0, 12):
            v = pep_of_event(mom, p_s)
            if v.exact <= 1e-2 and v.exact > 1e-300:
                assert abs(v.chiani - v.exact) / v.exact <= 0.25


# ---- union bound ---------------------------------------------------------------

def test_aber_union_single_ssk_term_reduction(cfg):
    # with one phase symbol only the antenna term survives and the weighted
    # sum collapses to the single pairwise error probability
    ssk_only = validate(replace(cfg, m_rpm=1))
    chan = make_channel(ssk_only)
    p_s = 50.0
    terms = aber_union_terms(chan, ssk_only, p_s, exact_pep=True)
    assert terms[1] == 0.0 and terms[2] == 0.0
    expected = pep_of_event(moments_ssk(chan.h, chan.g_bar, ssk_only, 1, 2), p_s).exact
    assert aber_union(chan, ssk_only, p_s, exact_pep=True) == pytest.approx(expected, rel=1e-13)


def test_aber_union_degenerate_zero_bits():
    # 0 bits per use: the error rate is 0/0, rejected as by `simulate_ber`
    cfg0 = validate(SystemConfig(n_t=1, m_rpm=1))
    chan = make_channel(cfg0)
    for exact in (False, True):
        with pytest.raises(ValueError, match="nothing to transmit"):
            aber_union(chan, cfg0, 10.0, exact_pep=exact)


def test_aber_union_dominates_each_component(chan, cfg):
    for p_s in (1.0, 30.0, 1000.0):
        terms = aber_union_terms(chan, cfg, p_s, exact_pep=True)
        total = aber_union(chan, cfg, p_s, exact_pep=True)
        assert all(total >= term - 1e-18 for term in terms)
        assert total == pytest.approx(sum(terms), rel=1e-14)


def test_aber_union_monotone_on_grid(chan, cfg):
    vals = [aber_union(chan, cfg, 10 ** (s / 10)) for s in cfg.snr_grid_db]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_aber_union_array_gain_shift(cfg):
    # doubling the surface shifts the curve left by about 3 dB at 1e-2
    from oracles import crossing_snr
    grid = np.arange(16.0, 34.0, 1.0)
    small = validate(replace(cfg, n_x=4, n_y=4))
    large = validate(replace(cfg, n_x=8, n_y=4))
    a_small = [aber_union(make_channel(small), small, 10 ** (s / 10), exact_pep=True)
               for s in grid]
    a_large = [aber_union(make_channel(large), large, 10 ** (s / 10), exact_pep=True)
               for s in grid]
    shift = crossing_snr(grid, a_small, 1e-2) - crossing_snr(grid, a_large, 1e-2)
    assert shift == pytest.approx(3.0, abs=1.0)


# ---- diversity slope -----------------------------------------------------------

def test_diversity_slope_definition():
    snr = [10.0, 20.0, 30.0]
    aber = [1e-2, 1e-3, 1e-4]  # one decade per 10 dB
    assert diversity_slope(snr, aber) == pytest.approx(1.0, abs=1e-12)


def test_diversity_slope_cubic_decay():
    snr = np.linspace(5, 35, 13)
    aber = 2.7 * (10 ** (snr / 10.0)) ** -3.0
    assert diversity_slope(snr, aber) == pytest.approx(3.0, abs=1e-6)


def test_diversity_slope_needs_two_points():
    with pytest.raises(ValueError):
        diversity_slope([10.0], [1e-3])
    with pytest.raises(ValueError):
        diversity_slope([10.0, 20.0], [0.0, 0.0])


# ---- capacity ------------------------------------------------------------------

def test_capacity_zero_power_closed_form(chan, cfg):
    # K = 4 hypotheses and 4 cross pairs: 2*log2(4) - log2(4 + 4) = 1 bit
    assert capacity_closed(chan, cfg, 0.0) == pytest.approx(1.0, abs=0.0)
    k = cfg.n_t * cfg.m_rpm
    pairs = cfg.m_rpm * (cfg.m_rpm - 1) * cfg.n_t * (cfg.n_t - 1)
    expected = 2 * np.log2(k) - np.log2(k + pairs)
    assert capacity_closed(chan, cfg, 0.0) == expected


def test_capacity_reaches_upper_limit(chan, cfg):
    limit = np.log2(cfg.n_t * cfg.m_rpm)
    assert capacity_closed(chan, cfg, 1e7) == pytest.approx(limit, abs=1e-6)


def test_capacity_monotone_in_power(chan, cfg):
    vals = [capacity_closed(chan, cfg, 10 ** (s / 10)) for s in cfg.snr_grid_db]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ---- reference distance ----------------------------------------------------------

def test_distances_are_measured_in_units_of_d_0(cfg):
    # path loss depends on d/d_0 only: scaling d_t, d_r and d_0 together
    # leaves the link unchanged, moving d_0 alone does not
    p_s = 10.0 ** 1.5

    def link(c):
        c = validate(c)
        chan = make_channel(c)
        return aber_union(chan, c, p_s), capacity_closed(chan, c, p_s)

    base = link(cfg)
    scaled = link(replace(cfg, d_t=2.5 * cfg.d_t, d_r=2.5 * cfg.d_r, d_0=2.5 * cfg.d_0))
    assert scaled == pytest.approx(base, rel=1e-12)
    moved = link(replace(cfg, d_0=2.0 * cfg.d_0))
    assert moved[0] < base[0] and moved[1] > base[1]
