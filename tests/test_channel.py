import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from irs_sskrpm import (SystemConfig, build_g_bar, load_config, make_channel,
                        ml_detect, steering_bs, steering_irs, validate)
from irs_sskrpm.channel import _NEAR, _SLACK, rician_weights
from oracles import (build_h, distances_reference, full_g_signatures, pair_classes_reference,
                     pair_distances_reference, sample_g)
from test_config import PATH_LOSS_4KM


def test_steering_irs_axis_examples():
    np.testing.assert_allclose(steering_irs(0.0, np.pi / 2, 2, 1, 0.5),
                               [1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(steering_irs(0.3, 0.0, 1, 2, 0.5),
                               [1.0, -1.0], atol=1e-12)


def test_steering_first_entry_exactly_one():
    v = steering_irs(1.1, 0.7, 3, 4, 0.5)
    assert v[0] == 1.0 + 0.0j
    u = steering_bs(0.9, 5, 0.5)
    assert u[0] == 1.0 + 0.0j


def test_steering_bs_examples():
    np.testing.assert_allclose(steering_bs(0.0, 4, 0.5), np.ones(4), atol=0)
    np.testing.assert_allclose(steering_bs(2.2, 1, 0.5), [1.0], atol=0)
    np.testing.assert_allclose(steering_bs(np.pi / 2, 2, 0.5), [1.0, -1.0], atol=1e-12)


def test_steering_unit_modulus(rng):
    for _ in range(25):
        v = steering_irs(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi),
                         rng.integers(1, 7), rng.integers(1, 7), 0.5)
        np.testing.assert_allclose(np.abs(v), 1.0, rtol=1e-13)
        u = steering_bs(rng.uniform(0, 2 * np.pi), rng.integers(1, 9), 0.5)
        np.testing.assert_allclose(np.abs(u), 1.0, rtol=1e-13)


def test_steering_irs_enumeration_is_y_major():
    # flat index of grid element (nx, ny) must be ny * n_x + nx
    phi_a, phi_e, n_x, n_y = 0.8, 0.6, 3, 2
    v = steering_irs(phi_a, phi_e, n_x, n_y, 0.5)
    for ny in range(n_y):
        for nx in range(n_x):
            expected = np.exp(-2j * np.pi * 0.5
                              * (nx * np.sin(phi_e) * np.cos(phi_a) + ny * np.cos(phi_e)))
            assert v[ny * n_x + nx] == pytest.approx(expected, rel=1e-13)


def test_build_h_unit_modulus_and_rank(cfg):
    h = build_h(replace(cfg, d_t=1.0))
    np.testing.assert_allclose(np.abs(h), 1.0, rtol=1e-13)
    assert np.linalg.matrix_rank(h) == 1


def test_build_h_path_loss_magnitude(cfg):
    h = build_h(replace(cfg, d_t=4.0))
    np.testing.assert_allclose(np.abs(h) ** 2, PATH_LOSS_4KM, rtol=1e-12)


def test_build_g_bar_structure(cfg):
    g_bar = build_g_bar(replace(cfg, n_r=3, psi_d=0.0))
    np.testing.assert_allclose(np.abs(g_bar), 1.0, rtol=1e-13)
    assert np.linalg.matrix_rank(g_bar) == 1
    # broadside user array: all columns identical
    np.testing.assert_allclose(g_bar[:, 0], g_bar[:, 1], rtol=1e-13)
    np.testing.assert_allclose(g_bar[:, 0], g_bar[:, 2], rtol=1e-13)


def test_effective_channel_reproduces_every_signature(rng):
    # every hypothesis signature of a full G draw is sqrt(nu) c_k G^H a_irs
    cfg = validate(SystemConfig(n_t=4, m_rpm=4, n_x=3, n_y=5, n_r=3, phi_d=1.1))
    chan = make_channel(cfg)
    g = sample_g(cfg, chan.g_bar, rng)
    a_irs = steering_irs(cfg.phi_a, cfg.phi_e, cfg.n_x, cfg.n_y, cfg.kappa_over_lambda)
    g_eff = g.conj().T @ a_irs
    np.testing.assert_allclose(full_g_signatures(cfg, g),
                               chan.sqrt_nu * chan.points[:, None] * g_eff[None, :],
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(np.abs(chan.points), 1.0, rtol=1e-15)
    np.testing.assert_array_equal(chan.h, build_h(cfg))
    np.testing.assert_array_equal(chan.g_bar, build_g_bar(cfg))
    w_los, w_nlos = rician_weights(cfg)
    np.testing.assert_allclose(chan.mean, w_los * (chan.g_bar.conj().T @ a_irs), rtol=1e-15)
    assert chan.scale == pytest.approx(w_nlos * np.sqrt(cfg.n_elements), rel=1e-15)
    assert chan.sqrt_nu ** 2 == pytest.approx(cfg.nu, rel=1e-15)


def test_sample_g_limits(cfg, rng):
    g_bar = build_g_bar(cfg)
    nearly_los = sample_g(replace(cfg, k_r=1e12), g_bar, rng)
    np.testing.assert_allclose(nearly_los, np.sqrt(cfg.nu_r) * g_bar, atol=1e-4)
    rayleigh_cfg = replace(cfg, k_r=0.0)
    draws = np.stack([sample_g(rayleigh_cfg, g_bar, rng) for _ in range(4000)])
    assert np.abs(draws.mean()) < 4 * np.sqrt(cfg.nu_r) / np.sqrt(4000 * g_bar.size)


def test_sample_g_moments(rng):
    # K_r = 2 and unit link path loss: mean sqrt(2/3) * g_bar, complex variance 1/3
    cfg = validate(SystemConfig(k_r=2.0, d_r=1.0))
    g_bar = build_g_bar(cfg)
    n_draws = 100_000
    acc = np.zeros_like(g_bar)
    acc2 = np.zeros(g_bar.shape)
    mu = np.sqrt(2.0 / 3.0) * g_bar
    for _ in range(n_draws):
        g = sample_g(cfg, g_bar, rng)
        acc += g
        acc2 += np.abs(g - mu) ** 2
    mean = acc / n_draws
    # per-entry complex variance 1/3 -> stderr of the complex mean sqrt((1/3)/n)
    se_mean = np.sqrt((1.0 / 3.0) / n_draws)
    assert np.max(np.abs(mean - mu)) < 3 * se_mean
    var = acc2 / n_draws
    # |w|^2 of a CN(0, 1/3) entry has standard deviation 1/3
    se_var = (1.0 / 3.0) / np.sqrt(n_draws)
    assert np.max(np.abs(var - 1.0 / 3.0)) < 3 * se_var


def test_sample_g_frobenius_power(cfg, rng):
    g_bar = build_g_bar(cfg)
    total = 0.0
    n_draws = 20_000
    for _ in range(n_draws):
        g = sample_g(cfg, g_bar, rng)
        total += np.sum(np.abs(g) ** 2)
    expected = cfg.n_elements * cfg.n_r * cfg.nu_r
    assert total / n_draws == pytest.approx(expected, rel=0.02)


@st.composite
def constellation_configs(draw):
    """Validated configs whose antenna phase step is arbitrary, zero
    (phi_d = 0: all antennas coincide) or a multiple of the RPM phase step."""
    n_t, m_rpm = draw(st.sampled_from([1, 2, 4, 8])), draw(st.sampled_from([1, 2, 4, 8]))
    kind = draw(st.sampled_from(["any", "phi_d=0", "on_rpm_phases"]))
    if kind == "on_rpm_phases":
        # delta*sin(phi_d) = q/m_rpm cycles per antenna
        phi_d = draw(st.sampled_from([math.pi / 2, -math.pi / 2, math.pi / 6, math.asin(0.25)]))
        delta = draw(st.integers(1, 2 * m_rpm)) / (m_rpm * abs(math.sin(phi_d)))
    else:
        phi_d = 0.0 if kind == "phi_d=0" else draw(st.floats(-math.pi, math.pi))
        delta = draw(st.floats(0.05, 2.0))
    return validate(replace(SystemConfig(), n_t=n_t, m_rpm=m_rpm, phi_d=phi_d,
                            delta_over_lambda=delta))


STRESS_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "scenarios",
                             "stress_nt8m8.cfg")

#: n_t = m_rpm = 4 with an antenna phase step of one RPM step (pi/2): the 16
#: points sit on 4 locations, which rounding alone would keep apart.
ON_RPM_STEPS = replace(SystemConfig(), n_t=4, m_rpm=4, phi_d=math.pi / 6,
                       delta_over_lambda=0.5)


#: Four locations 1.6e-9 rad apart in a row: wedges narrower than the walk resolves.
NEAR_LOCATIONS = replace(SystemConfig(), n_t=4, m_rpm=1, phi_d=1e-9, delta_over_lambda=0.25)

#: Two locations of two points each, 2^-40 turn apart, point 1 exactly on its home edge.
POINT_ON_EDGE = replace(SystemConfig(), n_t=4, m_rpm=1, phi_d=1.78e-12, delta_over_lambda=0.25)

#: Three locations a third of a turn apart: each point has a wedge edge at its antipode.
ANTIPODAL_EDGES = replace(SystemConfig(), n_t=4, m_rpm=1, phi_d=math.pi / 2,
                          delta_over_lambda=1.0 / 3.0)


def _config_turns(cfg: SystemConfig) -> list[float]:
    """Each point's angle in turns, t-major, from the config alone (with numpy's
    sine, which may round unlike math.sin, so grid keys agree bitwise)."""
    s = cfg.delta_over_lambda * float(np.sin(cfg.phi_d))
    return [m / cfg.m_rpm - s * t for t in range(cfg.n_t) for m in range(cfg.m_rpm)]


def _rpm_step_multiple(cfg: SystemConfig) -> int | None:
    """q when the antenna phase step is q RPM phase steps up to rounding
    (q = 0 for phi_d = 0), else None."""
    r = cfg.delta_over_lambda * math.sin(cfg.phi_d) * cfg.m_rpm
    return round(r) if abs(r - round(r)) <= 1e-14 * max(1, abs(round(r))) else None


@settings(max_examples=200, deadline=None)
@given(cfg=constellation_configs())
@example(cfg=validate(replace(SystemConfig(), n_t=2, m_rpm=2, phi_d=1e-9,
                              delta_over_lambda=1.0)))
@example(cfg=validate(replace(SystemConfig(), n_t=8, m_rpm=1, phi_d=math.asin(1.3 * 2.0 ** -40),
                              delta_over_lambda=0.5)))
@example(cfg=validate(replace(SystemConfig(), n_t=8, m_rpm=1, phi_d=1.9894512827678674,
                              delta_over_lambda=1.166652824169546)))
@example(cfg=validate(replace(SystemConfig(), n_t=4, m_rpm=4, phi_d=4.75202301763078e-13,
                              delta_over_lambda=1.0)))
def test_distances_are_the_offsets_from_hypothesis_0(cfg):
    # the antenna phases stay below ~90 rad here, so the two roundings of a
    # pair's phase (direct, or at its offset) agree to ~1e-14; at phi_d = 1e-9
    # two distinct offsets near half a turn both give the float 4.0, and at
    # phi_d = 1.989... rounded pair offsets of one true offset fall on both
    # sides of a grid-step boundary (9 groups of 8 points when keyed directly)
    chan = make_channel(cfg)
    d, index = chan.distances
    full = pair_distances_reference(chan.points)
    # a pair's distance is resolved only to the 2^-40-turn grid of `_group`: each
    # point's location owner is within 1 step of it, so the owners' offset is
    # within 2 steps of the pair's own, and the nearest folded group within 3
    # more; |c_i - c_j|^2 = 2 - 2 cos(phase) moves by at most 2 per radian. At
    # phi_d = 4.75e-13 (0.52 steps per antenna) 58 of 256 pairs are 1.2e-11 off
    grid_atol = 2.0 * 5.0 * 2.0 * np.pi * 2.0 ** -40
    np.testing.assert_allclose(d[index], full, rtol=1e-12, atol=grid_atol)
    assert np.all(d[index[full == 0]] == 0)
    # the points of one location (one wedge) are exactly 0 apart, also where
    # they sit 0.65 grid steps apart (antenna phase step 0.65 * 2^-40 turn)
    key = [round(u * 2 ** 40) % 2 ** 40 for u in _config_turns(cfg)]
    assert np.all(d[index[np.equal.outer(key, key)]] == 0)
    q = _rpm_step_multiple(cfg)
    if q is not None:
        # hypotheses (t, m) and (t', m') share a location when
        # m' - m = q (t' - t) mod M, whatever rounding did to their points
        t, m = np.divmod(np.arange(chan.points.size), cfg.m_rpm)
        same = (np.subtract.outer(m, m) - q * np.subtract.outer(t, t)) % cfg.m_rpm == 0
        assert np.all(d[index[same]] == 0)
    np.testing.assert_array_equal(index, index.T)
    assert d.size <= chan.points.size
    assert np.all(np.diff(d) > 0)


def test_distances_on_coincident_and_stress_constellations():
    # 16 points on 4 locations a quarter turn apart: |1 - j|^2 = 2 rounds to
    # 1.9999999999999996
    chan = make_channel(validate(ON_RPM_STEPS))
    d, index = chan.distances
    assert d[0] == 0.0 and d[2] == 4.0
    np.testing.assert_allclose(d, [0.0, 2.0, 4.0], rtol=4e-16)
    assert np.sum(index == 0) == 16 * 4
    assert chan.wedges[0].size == 4 + 1
    # the true offsets from hypothesis 0 take 61 values (smallest real gap
    # 0.0035 turns); rounding the points' own distances splits 3 of them
    stress = validate(load_config(STRESS_CONFIG))
    assert make_channel(stress).distances[0].size == 61


@settings(max_examples=200, deadline=None)
@given(cfg=constellation_configs())
@example(cfg=validate(ON_RPM_STEPS))
@example(cfg=validate(replace(SystemConfig(), n_t=8, m_rpm=8, phi_d=0.0)))
@example(cfg=validate(NEAR_LOCATIONS))
@example(cfg=validate(POINT_ON_EDGE))
@example(cfg=validate(ANTIPODAL_EDGES))
@example(cfg=validate(replace(SystemConfig(), n_t=4, m_rpm=4, phi_d=4.75202301763078e-13,
                              delta_over_lambda=1.0)))
@example(cfg=validate(load_config(STRESS_CONFIG)))
def test_distances_deduplicate_the_group_distances_bitwise(cfg):
    # the distinct distances come from the <= K group distances that some pair
    # uses, not from the (K, K) table read at every pair: the same floats and
    # the same index, bit for bit
    d, index = make_channel(cfg).distances
    ref_d, ref_index = distances_reference(make_channel(cfg))
    assert d.dtype == ref_d.dtype and index.dtype == ref_index.dtype
    assert d.tobytes() == ref_d.tobytes()
    np.testing.assert_array_equal(index, ref_index)


@settings(max_examples=200, deadline=None)
@given(cfg=constellation_configs())
@example(cfg=validate(replace(SystemConfig(), n_t=2, m_rpm=1, phi_d=3.1e-263,
                              delta_over_lambda=0.5)))
@example(cfg=validate(ON_RPM_STEPS))
def test_wedges_partition_the_circle(cfg):
    # one interval per location, i.e. per angle in turns from the config on a
    # 2^-40-turn grid modulo one turn (phi_d = 3.1e-263 puts two points 1e-262
    # rad apart: one location), won by its smallest index; the locations are
    # closed into a ring by the last one a turn below and the first a turn above
    chan = make_channel(cfg)
    bisectors, winners = chan.wedges
    turns = _config_turns(cfg)
    owner: dict[int, int] = {}
    for k, u in enumerate(turns):
        owner.setdefault(round(u * 2 ** 40) % 2 ** 40, k)
    at = sorted(owner.values(), key=lambda k: turns[k] - round(turns[k]))
    assert np.all(np.diff(bisectors) >= 0) and bisectors.size == len(owner) + 1
    assert bisectors[-1] - bisectors[0] == pytest.approx(2 * np.pi)
    np.testing.assert_array_equal(winners, [at[-1], *at, at[0]])
    assert winners[np.sum(0.0 > bisectors)] == 0


@settings(max_examples=100, deadline=None)
@given(cfg=constellation_configs())
@example(cfg=validate(ON_RPM_STEPS))
@example(cfg=validate(replace(SystemConfig(), phi_d=0.0)))
@example(cfg=validate(NEAR_LOCATIONS))
@example(cfg=validate(ANTIPODAL_EDGES))
@example(cfg=validate(POINT_ON_EDGE))
def test_edges_list_each_wedge_edge_and_owner_outward_from_each_point(cfg):
    # brute force over the bisectors: on each side of each point, every bisector
    # less than pi away, ascending, then pi (an edge within rounding of the antipode
    # may stand in for it); and the middle of each wedge on the way (from the point to
    # its first edge, between two edges, from the last edge to the antipode) decides
    # the owner listed for it, which repeats past the last edge
    chan = make_channel(cfg)
    beta, owner = chan.edges
    wedges = chan.wedges
    assert beta.shape[:2] == (2, chan.points.size)
    assert owner.shape == (*beta.shape[:2], beta.shape[2] + 1)
    ring = (wedges[0][1:] + 2 * np.pi * np.arange(-1, 2)[:, None]).ravel()  # each edge, +-1 turn
    turns, first = _config_turns(cfg), {}
    home = [first.setdefault(round(u * 2 ** 40) % 2 ** 40, k) for k, u in enumerate(turns)]
    for k, centre in enumerate(np.angle(chan.points[home])):
        angle = centre + np.angle(chan.points[k] * chan.points[home[k]].conj())
        for side, sign in enumerate((-1, 1)):
            # the edges outward from the owner's angle, measured from the point's
            seen = np.sort(sign * (ring - centre))
            seen = seen[seen > 0][:wedges[0].size - 1] + sign * (centre - angle)
            seen = seen[seen < np.pi - 1e-12]
            reach = seen.size
            np.testing.assert_allclose(beta[side, k, :reach], seen, rtol=0, atol=1e-12)
            assert np.all(beta[side, k, reach:] >= np.pi - 1e-12) and np.all(beta <= np.pi)
            ends = np.concatenate([[0.0], seen, [np.pi]])
            probe = ml_detect(wedges, np.exp(1j * (angle + sign * (ends[:-1] + ends[1:]) / 2)))
            wide = np.diff(ends) > 1e-9  # a point on or past its own edge has no home to probe
            np.testing.assert_array_equal(probe[wide], owner[side, k, :reach + 1][wide])
            assert np.all(owner[side, k, reach + 1:] == owner[side, k, -1])


@settings(max_examples=100, deadline=None)
@given(cfg=constellation_configs())
@example(cfg=validate(ON_RPM_STEPS))
@example(cfg=validate(replace(SystemConfig(), phi_d=0.0)))
@example(cfg=validate(NEAR_LOCATIONS))
@example(cfg=validate(ANTIPODAL_EDGES))
@example(cfg=validate(POINT_ON_EDGE))
@example(cfg=validate(load_config(STRESS_CONFIG)))
def test_walk_reads_each_row_off_the_edges(cfg):
    # per row side * K + code, read off `edges` and `hamming` one row at a time: whether the
    # home edge is within _NEAR of the point, the home's Hamming distance and the Hamming step
    # of each edge crossed; per edge, bitwise, its cot and its slack (1 / sin beta) * _SLACK,
    # and -inf and 0 within _NEAR of the antipode, which the walk never crosses
    chan = make_channel(cfg)
    (beta, owner), k = chan.edges, chan.points.size
    narrow, home, cot, slack, step = chan.walk
    assert narrow.shape == home.shape == (2 * k,)
    assert cot.shape == slack.shape == step.shape == (beta.shape[2], 2 * k)
    for side in range(2):
        for code in range(k):
            row, edge = side * k + code, beta[side, code]
            bits = chan.hamming[code, owner[side, code]]
            assert narrow[row] == (edge[0] <= _NEAR) and home[row] == bits[0]
            np.testing.assert_array_equal(step[:, row], np.diff(bits))
            seen = edge < np.pi - _NEAR
            with np.errstate(divide="ignore"):  # a point on its home edge
                np.testing.assert_array_equal(cot[seen, row], 1.0 / np.tan(edge[seen]))
                np.testing.assert_array_equal(slack[seen, row], 1.0 / np.sin(edge[seen]) * _SLACK)
            assert np.all(cot[~seen, row] == -np.inf) and np.all(slack[~seen, row] == 0.0)


def test_shared_tables_are_read_only(cold_caches):
    # one instance serves every later call, so no caller can write into it
    cfg = validate(SystemConfig())
    chan = make_channel(cfg)
    shared = [chan.h, chan.g_bar, chan.points, chan.turns, chan.mean, *chan.distances,
              *chan.wedges, *chan.edges, *chan.walk, chan.hamming,
              *(a for c in chan.classes for a in c)]
    assert len(shared) == 23
    for table in shared:
        with pytest.raises(ValueError, match="read-only"):
            table[...] = table
    assert make_channel(cfg) is chan and chan.classes[2][1] is shared[-1]


@settings(max_examples=100, deadline=None)
@given(cfg=constellation_configs())
@example(cfg=validate(replace(SystemConfig(), n_t=1, m_rpm=4)))
@example(cfg=validate(replace(SystemConfig(), n_t=4, m_rpm=1)))
@example(cfg=validate(replace(SystemConfig(), n_t=1, m_rpm=1)))
@example(cfg=validate(load_config(STRESS_CONFIG)))
def test_pair_classes_are_the_label_masks_bitwise(cfg):
    # the label Hamming table and the antenna-only (same phase), phase-only (same
    # antenna) and joint classes, the first two with the diagonal, are the masks of the
    # flat indices' antenna and phase indices applied to distances[1], dtypes included
    chan = make_channel(cfg)
    same_t, same_m, dist = pair_classes_reference(cfg.n_t, cfg.m_rpm)
    index = chan.distances[1]
    got = [chan.hamming, *(a for c in chan.classes for a in c)]
    want = [dist, *(a[mask] for mask in (same_m, same_t, ~same_t & ~same_m) for a in (index, dist))]
    assert len(got) == len(want) == 7
    for table, ref in zip(got, want):
        assert table.dtype == ref.dtype and table.shape == ref.shape
        assert table.tobytes() == ref.tobytes()


#: A valid new value of each field the channel reads, from `_GEOMETRY_BASE` (two receive
#: antennas: at one, psi_d leaves the channel as it is).
_GEOMETRY_BASE = replace(SystemConfig(), n_r=2)
GEOMETRY_CHANGES = dict(n_t=4, n_r=3, n_x=2, n_y=3, m_rpm=4, d_t=1.5, d_r=3.0, d_0=0.5, eta=2.0,
                        rho_0=2.0, k_r=1.0, kappa_over_lambda=0.25, delta_over_lambda=0.25,
                        phi_a=1.0, phi_e=1.0, phi_d=0.3, psi_a=1.0, psi_e=1.0, psi_d=0.5)


def test_configs_of_one_geometry_share_one_channel(cold_caches):
    # the grid, the seed and the trial count are the only fields no channel reads
    unread = {f.name for f in fields(SystemConfig)} - set(GEOMETRY_CHANGES)
    assert unread == {"snr_grid_db", "seed", "trials"}
    base = validate(SystemConfig())
    chan = make_channel(base)
    for other in (replace(base, snr_grid_db=(1.0, 3.0)), replace(base, seed=5),
                  replace(base, trials=7)):
        assert make_channel(validate(other)) is chan


def _channel_bytes(chan) -> list[bytes]:
    arrays = [chan.h, chan.g_bar, chan.points, chan.turns, chan.mean, *chan.distances]
    return [a.tobytes() for a in arrays] + [np.float64([chan.scale, chan.sqrt_nu]).tobytes()]


@pytest.mark.parametrize("field", GEOMETRY_CHANGES)
def test_each_geometry_gets_its_own_channel_bitwise_a_cold_build(field, cold_caches):
    base = validate(_GEOMETRY_BASE)
    other = validate(replace(base, **{field: GEOMETRY_CHANGES[field]}))
    chan, warm = make_channel(base), make_channel(other)
    assert warm is not chan and _channel_bytes(warm) != _channel_bytes(chan)
    cold_caches()
    cold = make_channel(other)
    assert cold is not warm and _channel_bytes(cold) == _channel_bytes(warm)
