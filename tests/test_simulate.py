import math
import os
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats

from irs_sskrpm import (NumericalError, SystemConfig, aber_union, aber_union_terms,
                        capacity_closed, joint_distances, load_config, make_channel, pep_of_event,
                        run_sweep, simulate_ber, simulate_capacity, unit_moments, validate)
from irs_sskrpm import airlink, config, simulate
from irs_sskrpm.simulate import resolve_workers
from conftest import config_path
from oracles import (ber_chunk, ber_chunk_reference, ber_decide_reference, ber_draw_reference,
                     ber_full_g, ber_noise, ber_trials, capacity_sampled_reference,
                     energy_reference, ml_detect_reference, pair_classes_reference)
from test_channel import (ANTIPODAL_EDGES, NEAR_LOCATIONS, ON_RPM_STEPS, POINT_ON_EDGE,
                          STRESS_CONFIG, constellation_configs)

FAST = dict(snr_grid_db=(0.0, 10.0, 20.0), trials=4000)


@pytest.mark.parametrize("quantity", ["aber", "capacity"])
def test_a_both_sweep_builds_one_channel(quantity, channel_builds):
    # the analytic and the simulated columns read the one channel of the geometry
    cfg = replace(validate(SystemConfig()), snr_grid_db=(0.0, 10.0), trials=300)
    run_sweep(cfg, quantity, "both")
    assert len(channel_builds) == 1


def test_ber_zero_errors_at_extreme_power(cfg):
    aber, stderr = simulate_ber(cfg, 10 ** 6.0, 10_000, seed=3)
    assert aber == 0.0 and stderr == 0.0


def test_ber_half_at_zero_power(cfg):
    # at zero power the detector sees identical scores for every hypothesis,
    # so detection is constant and the average bit error rate is 1/2
    aber, stderr = simulate_ber(cfg, 0.0, 20_000, seed=4)
    assert aber == pytest.approx(0.5, abs=3 * max(stderr, 1e-3))


@pytest.mark.parametrize("path", [None, STRESS_CONFIG], ids=["default", "stress_nt8m8"])
def test_ber_at_zero_power_is_the_sent_labels_weight_exactly(path):
    # at zero power every score ties and index 0 is decided, so the errors are the sent
    # labels' popcounts, over two full chunks and a partial one, bitwise; alone, and where
    # zero sits among positive powers, which keep their values alone
    cfg = validate(load_config(path) if path else SystemConfig())
    chan, n, seed = make_channel(cfg), 2 * simulate.CHUNK_TRIALS + 1000, 17
    k = chan.points.size
    weight = np.array([bin(v).count("1") for v in range(k)])
    errors = sum(int(weight[ber_draw_reference(chan, seed, c, size)[0] % k].sum())
                 for c, size in enumerate([simulate.CHUNK_TRIALS] * 2 + [1000]))
    expected = errors / ((k.bit_length() - 1) * n)
    assert simulate_ber(cfg, 0.0, n, seed)[0] == expected
    powers = np.array([[10.0, 0.0], [0.0, 1e-3]])
    aber = simulate_ber(cfg, powers, n, seed)[0]
    assert np.all(aber[powers == 0.0] == expected)
    assert [aber[0, 0], aber[1, 1]] == [simulate_ber(cfg, p, n, seed)[0] for p in (10.0, 1e-3)]


@pytest.mark.parametrize("p_s", [math.inf, -math.inf, math.nan, -1.0])
@pytest.mark.parametrize("estimator", [simulate_ber, simulate_capacity])
def test_estimators_reject_invalid_power(cfg, estimator, p_s):
    with pytest.raises(ValueError, match="finite and non-negative"):
        estimator(cfg, p_s, 100, seed=1)


def test_ber_rejects_zero_bits():
    cfg0 = validate(SystemConfig(n_t=1, m_rpm=1))
    with pytest.raises(ValueError, match="nothing to transmit"):
        simulate_ber(cfg0, 10.0, 100, seed=1)


def test_gaussian_is_standard_complex_normal():
    # 10^6 CN(0, 1) values of one chunk key: Re and Im are independent N(0, 1/2), so
    # |z|^2 ~ Exp(1) and the phase is uniform; each moment is held to 5 sigma of the
    # sampling error that the law itself gives it
    shape = (250_000, 4)
    parts = simulate._polar(simulate._chunk_rng(2024, simulate._DOMAIN_BER, 0, 0), shape, 1.0)
    assert all(v.dtype == np.float64 and v.shape == shape for v in parts)
    z = parts[0] + 1j * parts[1]
    assert z.dtype == np.complex128 and z.shape == shape
    again = simulate._polar(simulate._chunk_rng(2024, simulate._DOMAIN_BER, 0, 0), shape, 1.0)
    assert z.tobytes() == (again[0] + 1j * again[1]).tobytes()
    n = z.size
    # (statistic, its mean, its variance per value) under N(0, 1/2): E x^2 = 1/2,
    # E x^4 = 3/4, E x^8 = 105/16
    for part in (z.real.ravel(), z.imag.ravel()):
        sq = part * part
        for values, mean, var in ((part, 0.0, 0.5), (sq, 0.5, 0.5), (sq * sq, 0.75, 6.0)):
            assert abs(values.mean() - mean) <= 5 * math.sqrt(var / n), (mean, values.mean())
    cross = (z.real ** 2 * z.imag ** 2).ravel()
    assert abs(cross.mean() - 0.25) <= 5 * math.sqrt(0.5 / n), cross.mean()
    assert stats.kstest((np.abs(z) ** 2).ravel(), "expon").pvalue > 1e-3
    counts, _ = np.histogram(np.angle(z), bins=16, range=(-math.pi, math.pi))
    assert stats.chisquare(counts).pvalue > 1e-3, counts


@pytest.mark.parametrize("e", [0.0, 1.0])
def test_gaussian_is_finite_at_the_edge_of_its_draws(e):
    # every uniform 0 puts the phase at -pi, where tan(theta / 2) is at -pi/2, and every
    # exponential e; a zero modulus gives z = 0, the u = 0 the edge walk leaves to ml_detect
    rng = SimpleNamespace(standard_exponential=lambda shape: np.full(shape, e), random=np.zeros)
    re, im = simulate._polar(rng, (3, 2), 1.0)
    z = re + 1j * im
    assert z.dtype == np.complex128 and z.shape == (3, 2) and np.all(np.isfinite(z))
    np.testing.assert_allclose(np.abs(z) ** 2, e, rtol=1e-15, atol=0)
    np.testing.assert_allclose(z, -math.sqrt(e), rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("k_r", [0.0, 2.0])
@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_energy_has_the_noncentral_chi_square_law(n_r, k_r):
    # ||g_eff||^2 of g_eff ~ CN(mean, s^2 I_{n_r}) is (s^2 / 2) times a noncentral chi-square
    # with 2 n_r degrees of freedom and noncentrality ||mean||^2 / (s^2 / 2); SciPy's law
    # pins 200k draws of one chunk key, which are bitwise the out-of-place reference's
    chan = make_channel(validate(SystemConfig(n_r=n_r, k_r=k_r)))
    half = chan.scale ** 2 / 2.0
    law = stats.ncx2(2 * n_r, np.linalg.norm(chan.mean) ** 2 / half, scale=half)
    key = (7, simulate._DOMAIN_CAPACITY, 0, 0)
    energy = simulate._energy(chan, simulate._chunk_rng(*key), 200_000)
    again = energy_reference(chan, simulate._chunk_rng(*key), 200_000)
    assert energy.tobytes() == again.tobytes()
    assert stats.kstest(energy, law.cdf).pvalue > 1e-3


#: A 16-point constellation with two receive antennas, for the tests of the BER draw's law.
SIXTEEN = validate(SystemConfig(n_t=4, m_rpm=4, n_r=2, phi_d=0.3))


def test_ber_draw_noise_is_unit_complex_normal_given_the_channel():
    # u = w / (sqrt(nu) ||g_eff||): nu ||g_eff||^2 |u|^2 = |w|^2 ~ Exp(1), whatever the fade
    chan, n = make_channel(SIXTEEN), 100_000
    row, energy, x, h = ber_draw_reference(chan, SIXTEEN.seed, 0, n)
    drawn = simulate._ber_draw(chan, SIXTEEN.seed, 0, n)
    assert len(drawn) == 3 and all(a.tobytes() == b.tobytes() for a, b in zip(drawn, (row, x, h)))
    assert stats.kstest(chan.sqrt_nu ** 2 * energy * (x * x + h * h), "expon").pvalue > 1e-3


def test_ber_draw_phase_is_uniform_and_independent_of_the_code():
    # a row x phase-bin table of 8 chunks: row = side K + code and the phase of u on its side,
    # angle(x + jh) in [0, pi], split in 8 bins; each of the 2K * 8 cells expects n / (16 K)
    # trials
    chan, n = make_channel(SIXTEEN), simulate.CHUNK_TRIALS
    table = np.zeros((2 * chan.points.size, 8), np.int64)
    for c in range(8):
        row, x, h = simulate._ber_draw(chan, SIXTEEN.seed, c, n)
        assert np.all(h >= 0.0)
        phase = np.minimum(np.floor(np.arctan2(h, x) / math.pi * 8).astype(int), 7)
        np.add.at(table, (row, phase), 1)
    assert table.sum() == 8 * n
    assert stats.chisquare(table.ravel()).pvalue > 1e-3, table


@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0 ** -53])
def test_ber_draw_is_finite_at_the_edge_of_its_uniforms(u):
    # U = 0 is row 0 at phase 0 (h = 0, x = |u|), and U = 1 - 2^-53 is row 2K - 1 at a phase
    # 2K 2^-53 pi short of pi, where tan(phase / 2) is near its largest: x and h stay finite,
    # h >= 0, and x^2 + h^2 is |u|^2
    chan, n = make_channel(SIXTEEN), 6
    rng = SimpleNamespace(standard_exponential=lambda shape: np.full(shape, 1.0),
                          random=lambda shape: np.full(shape, u))
    with mock.patch.object(simulate, "_chunk_rng", lambda *key: rng):
        row, x, h = simulate._ber_draw(chan, SIXTEEN.seed, 0, n)
    energy = simulate._energy(chan, rng, n)
    assert np.all(row == (0 if u == 0.0 else 2 * chan.points.size - 1))
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(h)) and np.all(h >= 0.0)
    np.testing.assert_allclose(chan.sqrt_nu ** 2 * energy * (x * x + h * h), 1.0, rtol=1e-14)
    if u == 0.0:
        assert np.all(x > 0.0) and np.all(h == 0.0)
    else:
        assert np.all(x < 0.0)


class _Tally:
    """A generator stub: each draw is passed to the generator it wraps, and its method name
    and number of values are recorded."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            out = getattr(self.rng, name)(*args, **kwargs)
            self.calls.append((name, np.size(out)))
            return out
        return draw


@pytest.mark.parametrize("n_r", [1, 3])
def test_a_chunk_draws_exactly_the_detector_s_statistics(n_r, monkeypatch):
    # a BER chunk of n trials draws z_1 (n exponentials, n uniforms), the n (n_r - 1)
    # exponentials of the rest of ||g_eff||^2, then w's n exponentials and the n uniforms that
    # give each trial's row and phase, in that order: no integer and 4 + (n_r - 1) floats per
    # trial. A capacity chunk draws z_1 and the exponentials only
    cfg, n = validate(SystemConfig(n_r=n_r)), 1000
    chan, rngs, chunk_rng = make_channel(cfg), [], simulate._chunk_rng

    def counted(*key):
        rngs.append(_Tally(chunk_rng(*key)))
        return rngs[-1]

    monkeypatch.setattr(simulate, "_chunk_rng", counted)
    energy = [("standard_exponential", n), ("random", n)]
    energy += [("standard_exponential", (n_r - 1) * n)] if n_r > 1 else []
    simulate._ber_draw(chan, cfg.seed, 0, n)
    assert rngs[-1].calls == [*energy, ("standard_exponential", n), ("random", n)]
    simulate_capacity(cfg, 10.0, n, cfg.seed)
    assert len(rngs) == 2 and rngs[-1].calls == energy


@pytest.mark.parametrize("name", ["aber_n32.cfg", "diversity_nr3.cfg"])
@pytest.mark.parametrize("snr_db", [10.0, 20.0])
def test_rank1_ber_matches_full_g_reference(name, snr_db):
    # the effective-channel kernel against the full N x n_r sampler; sigma is
    # the conservative per-trial bound sqrt(x/trials) of each estimate
    cfg = validate(load_config(config_path(name)))
    p_s = 10 ** (snr_db / 10)
    trials = 100_000
    fast, _ = simulate_ber(cfg, p_s, trials, seed=cfg.seed)
    ref = ber_full_g(cfg, p_s, trials, np.random.default_rng(404))
    sigma = math.sqrt(fast / trials + ref / trials)
    assert abs(fast - ref) <= 4 * sigma, (fast, ref, sigma)


#: The powers of one `ber_chunk` call in the chunk replay test, in dB.
CHUNK_SNR_DB = (-math.inf, -30.0, 0.0, 10.0, 20.0, 60.0)


@pytest.mark.parametrize("name,overrides", [
    ("aber_n32.cfg", {}), ("diversity_nr3.cfg", {}), ("aber_n16.cfg", {"phi_d": 0.0}),
    ("aber_n16.cfg", {"n_t": 8, "m_rpm": 8, "n_r": 4})])
@pytest.mark.parametrize("snr_db", CHUNK_SNR_DB)
def test_ber_chunk_counts_the_errors_of_the_full_observation(name, overrides, snr_db):
    # replay one chunk's draws the long way at snr_db: the code and w = sqrt(E) e^{j phi} read
    # from the chunk's uniform U (2 K U = side K + code + phi / pi, phi negated on side 0), an
    # n_r-vector g_eff with the drawn ||g_eff||^2 in a direction of its own, the noise vector
    # z = (g_eff / ||g_eff||) c_k w + z_perp, with z_perp drawn from a separate stream and
    # projected orthogonal to g_eff, the received vector y, the matched filter
    # ip = sqrt(nu) g_eff^H y, the exhaustive argmin and the label Hamming distances; the
    # scalar kernel, deciding the chunk at all CHUNK_SNR_DB in one call, must count the same
    # errors at snr_db, so its decision reads neither z_perp nor the direction of g_eff
    cfg = validate(replace(load_config(config_path(name)), **overrides))
    chan = make_channel(cfg)
    p_s = 10 ** (snr_db / 10)
    sqrt_p, n = math.sqrt(p_s), simulate.CHUNK_TRIALS
    rng, k = simulate._chunk_rng(cfg.seed, simulate._DOMAIN_BER, 0, 1), chan.points.size
    energy = energy_reference(chan, rng, n)
    modulus, v = np.sqrt(rng.standard_exponential(n)), rng.random(n) * (2 * k)
    row = np.floor(v)
    side, code = np.divmod(row.astype(int), k)
    w = modulus * np.exp(1j * math.pi * (v - row) * (2 * side - 1))
    other = np.random.default_rng([cfg.seed, 1])  # a stream of the test's own
    direction = other.standard_normal((n, cfg.n_r)) + 1j * other.standard_normal((n, cfg.n_r))
    g = direction * (np.sqrt(energy) / np.linalg.norm(direction, axis=1))[:, None]
    z_any = other.standard_normal((n, cfg.n_r)) + 1j * other.standard_normal((n, cfg.n_r))
    z_perp = z_any - g * (np.einsum("br,br->b", g.conj(), z_any) / energy)[:, None]
    assert np.max(np.abs(np.einsum("br,br->b", g.conj(), z_perp)) / np.sqrt(energy)) < 1e-12
    z = g * (chan.points[code] * w / np.sqrt(energy))[:, None] + z_perp
    y = (sqrt_p * chan.sqrt_nu * chan.points[code])[:, None] * g + z
    ip = chan.sqrt_nu * np.einsum("br,br->b", g.conj(), y)
    detected = ml_detect_reference(chan.points, ip, sqrt_p)
    expected = sum(bin(c ^ d).count("1") for c, d in zip(code.tolist(), detected.tolist()))
    sqrt_ps = np.sqrt(10 ** (np.array(CHUNK_SNR_DB) / 10))
    counts = ber_chunk(chan, sqrt_ps, cfg.seed, 1, n)
    assert counts.dtype == np.int64 and counts.shape == sqrt_ps.shape
    assert counts[CHUNK_SNR_DB.index(snr_db)] == expected


def test_capacity_sim_zero_power_is_exact(cfg):
    chan = make_channel(cfg)
    assert simulate_capacity(cfg, 0.0, 2000, seed=1) == capacity_closed(chan, cfg, 0.0)


def test_capacity_sim_matches_closed_form(cfg):
    chan = make_channel(cfg)
    for snr in (5.0, 15.0):
        p_s = 10 ** (snr / 10)
        cap, se = simulate_capacity(cfg, p_s, 100_000, seed=2, with_stderr=True)
        assert abs(cap - capacity_closed(chan, cfg, p_s)) < 3 * se


def test_capacity_sim_approaches_limit(cfg):
    cap = simulate_capacity(cfg, 10 ** 4.5, 20_000, seed=6)
    limit = np.log2(cfg.n_t * cfg.m_rpm)
    assert cap <= limit + 1e-12
    assert cap > limit - 0.05


#: k_r = 0 a millimetre from the surface: the diffuse variance is about 6e12, so at 3000 dB
#: the sampled exponent -P_s xi / 2 overflows to -inf before exp.
LOUD_CAPACITY = replace(SystemConfig(), k_r=0.0, d_t=1e-3, d_r=1e-3, snr_grid_db=(0.0, 3000.0),
                        trials=64)


def test_capacity_sim_takes_an_overflowing_exponent_as_its_limit():
    # exp(-inf) = 0 is the exact limit: no overflow warning (an error under the test
    # filter), and every term 0 gives the closed form's limit log2 K
    cfg = validate(LOUD_CAPACITY)
    assert capacity_closed(make_channel(cfg), cfg, 1e300) == 2.0
    assert simulate_capacity(cfg, 1e300, 64, 1) == 2.0


def test_capacity_pair_distances_cover_every_joint_pair():
    cfg = validate(SystemConfig(n_t=8, m_rpm=8, phi_d=0.3))
    d2, mult = joint_distances(make_channel(cfg))
    assert mult.sum() == 8 * 7 * 8 * 7
    assert np.all(np.diff(d2) > 0) and d2[0] >= 0.0
    # the pair set is closed under swapping the two hypotheses
    assert np.all(mult % 2 == 0)
    # n_t != m_rpm: the joint pairs are those whose t-major antenna and
    # phase indices both differ
    cfg = validate(SystemConfig(n_t=2, m_rpm=8, phi_d=0.3))
    points = make_channel(cfg).points
    t, m = np.divmod(np.arange(points.size), cfg.m_rpm)
    joint = (t[:, None] != t) & (m[:, None] != m)
    # every pair distance is |c_0 - c_k|^2 at the pair's offset k, which
    # agrees with the directly computed one up to rounding
    ref = np.sort((np.abs(points[:, None] - points) ** 2)[joint])
    d2, mult = joint_distances(make_channel(cfg))
    assert mult.sum() == ref.size
    assert np.all(np.diff(d2) > 0) and np.all(mult % 2 == 0)
    np.testing.assert_allclose(np.repeat(d2, mult.astype(int)), ref, rtol=1e-12, atol=0)


def test_capacity_pair_blocks_do_not_change_the_estimate(monkeypatch):
    cfg = validate(SystemConfig(n_t=4, m_rpm=4, phi_d=0.3))
    whole = simulate_capacity(cfg, 10.0, 3000, seed=8)
    monkeypatch.setattr("irs_sskrpm.simulate._PAIR_BLOCK_ELEMENTS", 1)  # one distance per block
    assert simulate_capacity(cfg, 10.0, 3000, seed=8) == pytest.approx(whole, rel=1e-13)


@pytest.mark.parametrize("scenario", ["default", "stress_nt8m8"])
def test_capacity_matches_the_reference_at_its_chunk_keys(scenario):
    # two chunks (8192 + 808 samples) at 0, 10 and 20 dB from point index 2: power q
    # draws the chunks of point 2 + q, and the estimate and its stderr are the
    # reference's, summed over every joint pair of the label masks
    cfg = validate(SystemConfig() if scenario == "default" else load_config(STRESS_CONFIG))
    powers, n = np.array([1.0, 10.0, 100.0]), simulate.CHUNK_TRIALS + 808
    cap, se = simulate_capacity(cfg, powers, n, cfg.seed, point_index=2, with_stderr=True)
    for q, p_s in enumerate(powers.tolist()):
        ref_cap, ref_se = capacity_sampled_reference(cfg, p_s, n, cfg.seed, 2 + q)
        assert cap[q] == pytest.approx(ref_cap, rel=1e-12, abs=0)
        assert se[q] == pytest.approx(ref_se, rel=1e-12, abs=0)


def test_resolve_workers_env_not_an_integer(monkeypatch):
    # IRS_SSKRPM_THREADS is not read: a value that is not an integer is no error
    monkeypatch.setenv("IRS_SSKRPM_THREADS", "two")
    assert resolve_workers(None) == 1


def test_resolve_workers_clamps(monkeypatch):
    # every sweep runs in one process, whatever is requested, set in
    # IRS_SSKRPM_THREADS or reported as the CPU count
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.delenv("IRS_SSKRPM_THREADS", raising=False)
    for threads in (None, "10000", "3", "0"):
        if threads is not None:
            monkeypatch.setenv("IRS_SSKRPM_THREADS", threads)
        assert [resolve_workers(n) for n in (None, 0, 2, 8, 64)] == [1] * 5
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert resolve_workers(8) == 1


def _sweep_of_blocks(cfg, quantity, mode, blocks):
    """The columns of cfg's sweep evaluated as `blocks` contiguous blocks of its
    grid, each block swept on its own and the blocks' columns joined in order; a
    block's sampled capacity draws the chunks of its points' indices in the whole grid."""
    columns = {}
    for block in np.array_split(np.arange(len(cfg.snr_grid_db)), blocks):
        if not block.size:
            continue
        part = validate(replace(cfg, snr_grid_db=tuple(cfg.snr_grid_db[i] for i in block)))
        got = run_sweep(part, quantity, mode)
        if quantity == "capacity" and mode != "analytic":
            p = np.array([10.0 ** (snr_db / 10.0) for snr_db in part.snr_grid_db])
            caps = simulate_capacity(part, p, cfg.trials, cfg.seed, point_index=int(block[0]))
            got["cap_sim"] = caps.tolist()
        for key, values in got.items():
            columns.setdefault(key, []).extend(values)
    return columns


def test_run_sweep_empty_grid(cfg):
    # an empty grid gives the mode's columns, each with no entry
    empty = validate(replace(cfg, snr_grid_db=()))
    assert run_sweep(empty, "aber", mode="analytic") == {"snr_db": [], "aber_analytical": []}
    assert run_sweep(empty, "capacity", mode="sim") == {"snr_db": [], "cap_sim": [],
                                                        "samples": []}


def test_run_sweep_repeatable(cfg):
    quick = validate(replace(cfg, **FAST))
    first = run_sweep(quick, "aber", mode="both")
    second = run_sweep(quick, "aber", mode="both")
    assert first == second
    assert first["snr_db"] == [0.0, 10.0, 20.0]


@pytest.mark.parametrize("quantity", ["aber", "capacity"])
def test_run_sweep_equals_the_sweep_of_its_contiguous_blocks(cfg, quantity, monkeypatch):
    # a sweep is the sweep of any split of its grid into contiguous blocks,
    # each swept on its own, and neither the CPU count nor a leftover
    # IRS_SSKRPM_THREADS (read by nothing) changes it
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    monkeypatch.setenv("IRS_SSKRPM_THREADS", "3")
    quick = validate(replace(cfg, **FAST))
    whole = run_sweep(quick, quantity, "both")
    assert whole == _sweep_of_blocks(quick, quantity, "both", 3)
    assert whole == _sweep_of_blocks(quick, quantity, "both", 2)
    monkeypatch.delenv("IRS_SSKRPM_THREADS")
    assert run_sweep(quick, quantity, "both") == whole


def test_capacity_sweep_rows_draw_at_their_point_index(cfg):
    # row i of a sampled capacity sweep is simulate_capacity alone at its power
    # with point_index=i, the call the benchmark's capacity check makes
    quick = validate(replace(cfg, **FAST))
    columns = run_sweep(quick, "capacity", "sim")
    for i, (snr_db, cap) in enumerate(zip(columns["snr_db"], columns["cap_sim"])):
        p = 10.0 ** (snr_db / 10.0)
        assert cap == simulate_capacity(quick, p, quick.trials, quick.seed, point_index=i)
    assert len(set(columns["cap_sim"])) == len(columns["snr_db"])


@st.composite
def sweep_configs(draw):
    """Small validated configs over `constellation_configs`: 1 to 3 receive
    antennas, any K-factor and seed, 2 or 3 SNR points and a few hundred trials."""
    grid = sorted(draw(st.sets(st.sampled_from([0.0, 5.0, 10.0, 20.0, 30.0]),
                               min_size=2, max_size=3)))
    return validate(replace(draw(constellation_configs()), n_r=draw(st.integers(1, 3)),
                            k_r=draw(st.floats(0.0, 10.0)), seed=draw(st.integers(0, 2**31)),
                            snr_grid_db=tuple(grid), trials=draw(st.integers(1, 600))))


#: Powers of the kernel's property test, in dB: zero power and -30 to 60 dB.
KERNEL_DB = [-math.inf, *np.arange(-30.0, 61.0, 2.5).tolist()]
KERNEL_SNR_DB = st.sampled_from(KERNEL_DB)


@settings(max_examples=40, deadline=None)
@example(cfg=validate(replace(SystemConfig(), phi_d=0.0, n_r=2)),
         snr_db=[20.0, -math.inf, 60.0, 20.0, -30.0], chunk=0, n=2000)
@example(cfg=validate(replace(ON_RPM_STEPS, n_r=2)), snr_db=[10.0, 0.0, 10.0, -math.inf],
         chunk=1, n=2000)
@example(cfg=validate(load_config(STRESS_CONFIG)), snr_db=[40.0, 0.0, 20.0, -math.inf, 0.0],
         chunk=2, n=3000)
# the benchmark's grid on a full chunk: no trial left to ml_detect
@example(cfg=validate(load_config(config_path("aber_n32.cfg"))),
         snr_db=np.arange(0.0, 41.0, 2.0).tolist(), chunk=0, n=8192)
# three locations with a bisector exactly at point 0's antipode: an edge the walk never
# crosses (cot -inf) whose Hamming step is nonzero, at every kernel power
@example(cfg=validate(replace(SystemConfig(), n_t=4, m_rpm=1, phi_d=math.asin(2.0 / 3.0))),
         snr_db=KERNEL_DB, chunk=3, n=4096)
@given(cfg=sweep_configs(), snr_db=st.lists(KERNEL_SNR_DB, min_size=1, max_size=8),
       chunk=st.integers(0, 3), n=st.integers(1, 4096))
def test_ber_chunk_counts_exactly_what_the_dense_reference_counts(cfg, snr_db, chunk, n):
    # a trial leaves the power sweep once its scalar is in its home wedge; the
    # settled trials' owner distances plus the pairs still decided by ml_detect
    # must be the int64 counts of deciding every pair with ml_detect, for powers
    # in any order, repeated, and zero
    chan, hamming = make_channel(cfg), pair_classes_reference(cfg.n_t, cfg.m_rpm)[2]
    sqrt_ps = np.sqrt(10.0 ** (np.array(snr_db) / 10.0))
    counts = ber_chunk(chan, sqrt_ps, cfg.seed, chunk, n)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(
        counts, ber_chunk_reference(chan, chan.wedges, hamming, sqrt_ps, cfg.seed, chunk, n))


#: Amplitudes of the adversarial decision test besides the crossings: zero power,
#: -200 dB, 0 dB and +200 dB.
EXTREME_AMPS = (0.0, 1e-10, 1.0, 1e10)


@settings(max_examples=60, deadline=None)
@example(cfg=validate(replace(SystemConfig(), phi_d=0.0)), seed=0)
@example(cfg=validate(ON_RPM_STEPS), seed=1)
@example(cfg=validate(load_config(STRESS_CONFIG)), seed=2)
@example(cfg=validate(NEAR_LOCATIONS), seed=3)
@example(cfg=validate(ANTIPODAL_EDGES), seed=4)
@example(cfg=validate(POINT_ON_EDGE), seed=5)
@given(cfg=constellation_configs(), seed=st.integers(0, 2**32 - 1))
def test_ber_decide_counts_exactly_at_adversarial_trials(cfg, seed):
    # synthetic trials made to sit where the edge walk's model is least sure: the
    # scalar u = conj(c_k) n / (sqrt(nu) e) of a synthetic noise n and energy e on an
    # edge of the point (a rotated bisector), on an absolute bisector, real (Im u == 0,
    # exactly for the point 1), random; at amplitudes exactly at walked crossings and one ulp either
    # side, among zero power and +-200 dB, repeated and unsorted. The int64 counts must
    # be the dense pass's; ml_detect runs at most once, on every positive amplitude of the
    # trials the walk leaves, among them every exact crossing (zero power ties every score
    # and needs no call)
    rng = np.random.default_rng(seed)
    chan, hamming, n = make_channel(cfg), pair_classes_reference(cfg.n_t, cfg.m_rpm)[2], 300
    wedges, (beta, _) = chan.wedges, chan.edges
    code = rng.integers(0, chan.points.size, n)
    energy = rng.exponential(size=n)
    side, j = rng.integers(0, 2, n), rng.integers(0, beta.shape[2], n)
    angle = np.angle(chan.points[code])
    theta = np.select([np.arange(n) % 4 == q for q in range(3)],
                      [angle + (2 * side - 1) * beta[side, code, j],
                       wedges[0][rng.integers(0, wedges[0].size, n)],
                       angle + np.pi * side], rng.uniform(-np.pi, np.pi, n))
    noise = rng.exponential(size=n) * np.exp(1j * theta)
    real = np.arange(n) % 4 == 2
    noise[real & (code == 0)] = noise[real & (code == 0)].real
    # each trial's u, and the crossings a = |Im u| cot(beta) - Re u the walk computes and
    # their neighbours
    u = chan.points.conj()[code] * noise / (chan.sqrt_nu * energy)
    with np.errstate(divide="ignore", invalid="ignore"):
        cot = 1.0 / np.tan(beta[(u.imag >= 0).astype(int), code])
        a = np.abs(u.imag)[:, None] * cot - u.real[:, None]
    a = rng.permutation(a[np.isfinite(a) & (a > 0)])[:8]
    amps = np.concatenate([a, np.nextafter(a, 0.0), np.nextafter(a, np.inf), EXTREME_AMPS, a[:2]])
    amps = rng.permutation(amps)
    trials = ber_trials(chan, code, u)  # the walk's (row, x, h) of each u
    with mock.patch.object(airlink, "ml_detect", wraps=airlink.ml_detect) as detect:
        counts = airlink._ber_decide(chan, airlink._ber_walk(amps), *trials)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts,
                                  ber_decide_reference(chan, wedges, hamming, amps, *trials))
    sizes = [np.size(call.args[1]) for call in detect.call_args_list]
    assert len(sizes) <= 1 and sum(sizes) >= a.size
    # with no positive amplitude (zero power twice, or none) nothing walks: the trials the
    # walk leaves (the real u among them) reach the one ml_detect call, which decides nothing
    for amps in (np.zeros(2), np.zeros(0)):
        with mock.patch.object(airlink, "ml_detect", wraps=airlink.ml_detect) as detect:
            counts = airlink._ber_decide(chan, airlink._ber_walk(amps), *trials)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts,
                                      ber_decide_reference(chan, wedges, hamming, amps, *trials))
        assert [np.size(call.args[1]) for call in detect.call_args_list] == [0]


def test_ber_decide_walks_again_without_the_trials_in_a_band():
    # a full aber_n32 chunk on the benchmark's 21 amplitudes, zero power, and the exact
    # crossing of 3 trials with one ulp either side: those 3 trials fall in a rounding
    # band, so the walk leaves them to ml_detect and walks the chunk again without them.
    # The int64 counts must be the dense pass's; ml_detect runs once, on exactly those 3
    # trials at every nonzero amplitude (zero power needs no call)
    cfg = validate(load_config(config_path("aber_n32.cfg")))
    chan, n = make_channel(cfg), simulate.CHUNK_TRIALS
    row, _, x, h = ber_draw_reference(chan, cfg.seed, 0, n)
    code, u = ber_noise(chan, row, x, h)
    amps = np.sqrt(10.0 ** (np.arange(0.0, 41.0, 2.0) / 10.0))
    cot = 1.0 / np.tan(chan.edges[0][row // chan.points.size, code, 0])
    a = h * cot - x  # each trial's crossing of its home edge
    t = np.flatnonzero((a > 2.0) & (a < 50.0))[:3]
    a = a[t]
    amps = np.concatenate([amps, [0.0], a, np.nextafter(a, 0.0), np.nextafter(a, np.inf)])
    with mock.patch.object(airlink, "ml_detect", wraps=airlink.ml_detect) as detect:
        counts = airlink._ber_decide(chan, airlink._ber_walk(amps), row, x, h)
    assert counts.dtype == np.int64
    hamming = pair_classes_reference(cfg.n_t, cfg.m_rpm)[2]
    np.testing.assert_array_equal(
        counts, ber_decide_reference(chan, chan.wedges, hamming, amps, row, x, h))
    calls = [call.args[1] for call in detect.call_args_list]
    assert len(calls) == 1
    nonzero = np.unique(amps[amps > 0.0])
    left = chan.points[code[t]] * (nonzero[:, None] + u[t])
    np.testing.assert_array_equal(np.sort(calls[0]), np.sort(left.ravel()))


#: The largest amplitude a validated grid gives: the square root of the largest power.
MAX_AMP = math.sqrt(10.0 ** (config._MAX_SNR_DB / 10.0))


@st.composite
def bucket_grids(draw):
    """Sorted unique positive amplitudes: drawn from subnormal up to 1e10 (`EXTREME_AMPS`'s
    range), some of them packed into one bucket table cell (a shared int64 bits >> shift, the
    low bits drawn), or the amplitudes of a validated SNR grid (up to `MAX_AMP`)."""
    if draw(st.booleans()):
        grid = draw(st.lists(st.floats(-3000.0, config._MAX_SNR_DB, exclude_max=True),
                             min_size=1, max_size=12, unique=True))
        cfg = validate(replace(SystemConfig(), snr_grid_db=tuple(sorted(grid))))
        amps = np.sqrt(np.array([10.0 ** (v / 10.0) for v in cfg.snr_grid_db]))
    else:
        amps = np.array(draw(st.lists(st.floats(5e-324, 1e10, allow_subnormal=True),
                                      max_size=12)))
        cell = draw(st.sampled_from([0, *(np.array(EXTREME_AMPS[1:]).view(np.int64)
                                          >> airlink._CELL_SHIFT).tolist()]))
        low = draw(st.lists(st.integers(1, (1 << airlink._CELL_SHIFT) - 1), max_size=6))
        packed = (cell << airlink._CELL_SHIFT) + np.array(low, np.int64)
        amps = np.append(amps, packed.view(float))
    amps = np.unique(amps[amps > 0.0])
    assume(amps.size > 0)
    return amps


@settings(max_examples=200, deadline=None)
@example(amps=np.array([5e-324, 1e-10, 1.0, 1e10]))  # EXTREME_AMPS without zero power
@example(amps=np.array([1.0, np.nextafter(1.0, 2.0), 1.0 + 2.0 ** -5, np.nextafter(1.0625, 1.0)]))
@example(amps=np.array([MAX_AMP]))
@given(amps=bucket_grids())
def test_bucket_is_the_binary_search(amps):
    # the walk's bucket (`airlink._above` on the call's table) is np.searchsorted(amps, top,
    # "right") at every amplitude and one ulp either side, below the smallest, at zero and +inf
    grid, table, rounds = airlink._ber_walk(np.append(amps, 0.0))[:3]
    np.testing.assert_array_equal(grid[1:-1], amps)
    top = np.concatenate([amps, np.nextafter(amps, 0.0), np.nextafter(amps, np.inf),
                          [0.0, amps[0] / 2.0, np.inf]])
    np.testing.assert_array_equal(airlink._above(grid, table, rounds, top),
                                  np.searchsorted(amps, top, "right"))
    cells = amps.view(np.int64) >> airlink._CELL_SHIFT  # a cell's amplitudes past its lowest
    off_low = amps.view(np.int64) & ((1 << airlink._CELL_SHIFT) - 1) != 0
    assert rounds == np.bincount(cells[off_low], minlength=1).max()


#: The shipped configs' grids, the stress scenario's and the benchmark's (0 to 40 dB in 2 dB
#: steps).
SHIPPED_GRIDS = {**{name: load_config(config_path(name)).snr_grid_db
                    for name in sorted(os.listdir(os.path.dirname(config_path("aber.cfg"))))},
                 "stress_nt8m8.cfg": load_config(STRESS_CONFIG).snr_grid_db,
                 "benchmark": tuple(range(0, 41, 2))}


@pytest.mark.parametrize("name", sorted(SHIPPED_GRIDS))
def test_shipped_grids_take_one_bucket_round(name):
    # each puts at most one amplitude past a cell's lowest value in any cell, and one somewhere
    amps = np.sqrt(np.array([10.0 ** (v / 10.0) for v in SHIPPED_GRIDS[name]]))
    assert airlink._ber_walk(amps)[2] == 1


def test_ber_chunk_memory_stays_within_the_dense_pass():
    # on the stress scenario at -30 to 0 dB the walk is at its heaviest: at the
    # lowest power over 90% of the trials are past a non-home edge, so most trials
    # walk several edges; its traced peak stays within 1.25 times that of the dense
    # pass. On the aber_n32 benchmark grid (0 to 40 dB in 2 dB steps) it stays
    # within the dense pass's peak
    cfg = validate(load_config(STRESS_CONFIG))
    chan, n = make_channel(cfg), simulate.CHUNK_TRIALS
    row, _, x, h = ber_draw_reference(chan, cfg.seed, 0, n)
    code, u = ber_noise(chan, row, x, h)
    rel = np.angle(10 ** -1.5 + u)  # each trial's angle from its point at -30 dB
    assert np.mean(np.abs(rel) > chan.edges[0][(rel >= 0).astype(int), code, 1]) >= 0.9
    for path, snr_db, bound in ((STRESS_CONFIG, np.arange(-30.0, 1.0), 1.25),
                                (config_path("aber_n32.cfg"), np.arange(0.0, 41.0, 2.0), 1.0)):
        cfg = validate(load_config(path))
        chan = make_channel(cfg)
        sqrt_ps = np.sqrt(10.0 ** (snr_db / 10.0))
        reference = (chan, chan.wedges, pair_classes_reference(cfg.n_t, cfg.m_rpm)[2], sqrt_ps,
                     cfg.seed, 0, n)
        peaks = []
        for kernel, args in ((ber_chunk_reference, reference),
                             (ber_chunk, (chan, sqrt_ps, cfg.seed, 0, n))):
            tracemalloc.start()
            try:
                kernel(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        assert peaks[1] <= bound * peaks[0], (path, peaks)


@settings(max_examples=8, deadline=None)
@given(cfg=sweep_configs(), quantity=st.sampled_from(["aber", "capacity"]),
       mode=st.sampled_from(["sim", "both"]), blocks=st.integers(2, 3))
def test_any_sweep_equals_the_sweep_of_its_contiguous_blocks(cfg, quantity, mode, blocks):
    # splitting the grid into 2 or 3 contiguous blocks, each swept on its own,
    # gives the whole sweep's columns, and IRS_SSKRPM_THREADS is not read
    assume(quantity == "capacity" or cfg.bits_total > 0)
    env = {k: v for k, v in os.environ.items() if k != "IRS_SSKRPM_THREADS"}
    with mock.patch.dict(os.environ, env, clear=True):
        whole = run_sweep(cfg, quantity, mode)
    assert _sweep_of_blocks(cfg, quantity, mode, blocks) == whole
    with mock.patch.dict(os.environ, {"IRS_SSKRPM_THREADS": str(blocks)}):
        assert run_sweep(cfg, quantity, mode) == whole


@settings(max_examples=8, deadline=None)
@given(cfg=sweep_configs())
def test_ber_sweep_rows_are_common_random_numbers(cfg):
    # every row of a simulated ABER sweep is decided on the same draws: row i
    # is simulate_ber at its own power alone, a point's value does not depend
    # on the other points of the grid, and the draws move with the seed
    assume(cfg.bits_total > 0)
    columns = run_sweep(cfg, "aber", "sim")
    for snr_db, *row in zip(columns["snr_db"], columns["aber_sim"], columns["aber_stderr"]):
        alone = simulate_ber(cfg, 10.0 ** (snr_db / 10.0), cfg.trials, cfg.seed)
        assert tuple(row) == alone
    last = validate(replace(cfg, snr_grid_db=cfg.snr_grid_db[-1:]))
    assert run_sweep(last, "aber", "sim") == {k: v[-1:] for k, v in columns.items()}
    # at zero power over one chunk the error count alone has a spread of over
    # 45, so three other seeds all reproducing every value has odds below 1e-6
    p = np.array([0.0, *(10.0 ** (np.array(cfg.snr_grid_db) / 10.0))])
    n = simulate.CHUNK_TRIALS
    values = simulate_ber(cfg, p, n, cfg.seed)[0]
    assert any(not np.array_equal(simulate_ber(cfg, p, n, cfg.seed + k)[0], values)
               for k in (1, 2, 3))


def _outcome(column, p, at):
    """column(p, at), or None where a numerical check fails closed."""
    try:
        return column(p, at)
    except NumericalError:
        return None


@settings(max_examples=12, deadline=None)
@given(cfg=sweep_configs(), data=st.data())
def test_a_call_over_powers_is_the_scalar_calls_at_each_power(cfg, data):
    # every column takes a vector of powers; each power's value is bitwise the
    # scalar call at that power (for the sampled capacity, at point index
    # point_index + q), whatever other powers share the call, so splitting the
    # vector into two calls changes nothing; a check failing at one power
    # fails every call that holds it
    powers = st.one_of(st.just(0.0), st.floats(1e-2, 1e5))
    p = np.array(sorted(data.draw(st.lists(powers, min_size=2, max_size=5))))
    cut, at = data.draw(st.integers(1, p.size - 1)), data.draw(st.integers(0, 40))
    chan, n = make_channel(cfg), cfg.trials
    columns = {
        "capacity_closed": lambda p, at: capacity_closed(chan, cfg, p),
        "simulate_capacity": lambda p, at: simulate_capacity(cfg, p, n, cfg.seed, at, True),
    }
    if cfg.bits_total > 0:
        columns.update({
            "aber_union": lambda p, at: aber_union(chan, cfg, p),
            "aber_union exact": lambda p, at: aber_union(chan, cfg, p, exact_pep=True),
            "aber_union_terms": lambda p, at: aber_union_terms(chan, cfg, p),
            "simulate_ber": lambda p, at: simulate_ber(cfg, p, n, cfg.seed),
        })
    for name, column in columns.items():
        alone = [_outcome(column, float(v), at + q) for q, v in enumerate(p)]
        scalars = np.array([a for a in alone if a is not None], dtype=object)
        assert all(isinstance(v, float) for v in scalars.ravel()), name
        calls = ((p, at, alone), (p[:cut], at, alone[:cut]), (p[cut:], at + cut, alone[cut:]))
        for powers, first, want in calls:
            got = _outcome(column, powers, first)
            if any(v is None for v in want):
                assert got is None, name
            else:
                got, want = np.array(got), np.stack([np.array(v) for v in want], axis=-1)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_run_sweep_modes(cfg):
    quick = validate(replace(cfg, **FAST))
    # a mode's columns are computed at every point, and no other column is present
    aber = run_sweep(quick, "aber", mode="analytic")
    assert list(aber) == ["snr_db", "aber_analytical"] and len(aber["aber_analytical"]) == 3
    assert None not in aber["aber_analytical"]
    capacity = run_sweep(quick, "capacity", mode="analytic")
    assert list(capacity) == ["snr_db", "cap_closed"] and len(capacity["cap_closed"]) == 3
    assert None not in capacity["cap_closed"]
    sim = run_sweep(quick, "aber", mode="sim")
    assert list(sim) == ["snr_db", "aber_sim", "aber_stderr", "trials"]
    assert len(sim["aber_sim"]) == 3 and None not in sim["aber_sim"]
    with pytest.raises(ValueError, match="mode"):
        run_sweep(quick, "aber", mode="exact")


def test_run_sweep_computes_only_requested_quantities(cfg, monkeypatch):
    quick = validate(replace(cfg, **FAST))

    def forbidden(*args, **kwargs):
        raise AssertionError("computed a quantity that was not requested")

    for name in ("capacity_closed", "simulate_capacity"):
        monkeypatch.setattr(f"irs_sskrpm.simulate.{name}", forbidden)
    columns = run_sweep(quick, "aber", mode="both")
    assert "cap_closed" not in columns and "cap_sim" not in columns
    assert None not in columns["aber_analytical"] + columns["aber_sim"]
    monkeypatch.undo()
    for name in ("aber_union", "simulate_ber"):
        monkeypatch.setattr(f"irs_sskrpm.simulate.{name}", forbidden)
    columns = run_sweep(quick, "capacity", mode="both")
    assert "aber_analytical" not in columns and "aber_sim" not in columns
    assert None not in columns["cap_closed"] + columns["cap_sim"]
    with pytest.raises(ValueError, match="quantity"):
        run_sweep(quick, "ber")


def test_run_sweep_stderr_contract(cfg):
    quick = validate(replace(cfg, **FAST))
    columns = run_sweep(quick, "aber", mode="sim")
    for aber, stderr, trials in zip(columns["aber_sim"], columns["aber_stderr"],
                                    columns["trials"]):
        expected = np.sqrt(aber * (1 - aber) / (trials * quick.bits_total))
        assert stderr == pytest.approx(expected, rel=1e-12)
        assert 0.0 <= aber <= 1.0


def test_sim_agrees_with_union_bound(cfg):
    # the exact-PEP union bound sits above the simulation, within 3 sigma,
    # and within a factor 3 in its tight regime
    quick = validate(replace(cfg, snr_grid_db=(26.0, 30.0, 34.0), trials=60_000))
    columns = run_sweep(quick, "aber", mode="both", exact_pep=True)
    for bound, aber, stderr in zip(columns["aber_analytical"], columns["aber_sim"],
                                   columns["aber_stderr"]):
        assert bound >= aber - 3 * stderr
        if 1e-4 <= aber <= 1e-1:
            assert bound / aber <= 3.0


def test_diversity_config_levels():
    # 5x4 surface, two receive antennas, far user: the simulated error rate
    # passes close to 1e-2 at 15 dB and 1e-4 at 25 dB
    cfg = validate(SystemConfig(n_x=5, n_y=4, n_r=2, d_r=4.0))
    aber15, _ = simulate_ber(cfg, 10 ** 1.5, 100_000, seed=cfg.seed)
    aber25, _ = simulate_ber(cfg, 10 ** 2.5, 100_000, seed=cfg.seed)
    assert 1e-2 / 3 <= aber15 <= 1e-2 * 3
    assert 1e-4 / 3 <= aber25 <= 1e-4 * 3


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


#: Grid points of the domain fuzz: round values from -300 to 3000 dB, or any in between.
DOMAIN_DB = st.one_of(st.sampled_from([-300.0, -60.0, -20.0, 0.0, 20.0, 60.0, 120.0, 200.0,
                                       300.0, 3000.0]), st.floats(-300.0, 3000.0))


@st.composite
def domain_configs(draw):
    """Configs over the whole of what `validate` accepts, with K <= 64 and at most 300
    trials: log-uniform distances, rho_0 and spacings, k_r zero or 1e-6 to 1e12, any
    angles and 3-point grids from -300 to 3000 dB."""
    size, angle = st.sampled_from([1, 2, 4, 8]), st.floats(-1e3, 1e3)
    distance, spacing = _log_uniform(1e-4, 1e4), _log_uniform(1e-3, 1e2)
    open_turn = st.floats(0.0, 2.0 * math.pi, exclude_min=True, exclude_max=True)
    grid = st.lists(DOMAIN_DB, min_size=3, max_size=3, unique=True).map(sorted).map(tuple)
    return validate(SystemConfig(
        n_t=draw(size), m_rpm=draw(size), n_r=draw(st.integers(1, 4)),
        n_x=draw(st.integers(1, 8)), n_y=draw(st.integers(1, 8)),
        d_t=draw(distance), d_r=draw(distance), d_0=draw(distance), eta=draw(st.floats(0.1, 6.0)),
        rho_0=draw(_log_uniform(1e-12, 1e12)),
        k_r=draw(st.one_of(st.just(0.0), _log_uniform(1e-6, 1e12))),
        kappa_over_lambda=draw(spacing), delta_over_lambda=draw(spacing),
        phi_a=draw(open_turn), phi_e=draw(open_turn), phi_d=draw(angle), psi_a=draw(angle),
        psi_e=draw(angle), psi_d=draw(angle), snr_grid_db=draw(grid),
        seed=draw(st.integers(0, 2 ** 64 - 1)), trials=draw(st.integers(1, 300))))


@settings(max_examples=200, deadline=None)
@given(cfg=domain_configs())
def test_every_config_validate_accepts_gives_finite_cells_in_range(cfg):
    # every sweep and every point's PEPs return finite cells in range: PEPs in [0, 1/2],
    # ABER and its stderr >= 0, the simulated ABER <= 1 and capacity in [0, log2 K]; a
    # zero-bit config may only raise its ValueError, in the aber sweeps
    chan, k = make_channel(cfg), cfg.n_t * cfg.m_rpm
    top = dict(aber_analytical=math.inf, aber_sim=1.0, aber_stderr=math.inf,
               cap_closed=math.log2(k), cap_sim=math.log2(k))
    for quantity, mode, exact in (("aber", "both", False), ("aber", "analytic", True),
                                  ("capacity", "both", False)):
        if quantity == "aber" and cfg.bits_total == 0:
            with pytest.raises(ValueError, match="zero bits"):
                run_sweep(cfg, quantity, mode, exact)
            continue
        for key, cells in run_sweep(cfg, quantity, mode, exact).items():
            cells = np.array(cells, dtype=float)
            assert cells.shape == (3,) and np.all(np.isfinite(cells))
            assert key not in top or np.all((cells >= 0.0) & (cells <= top[key])), key
    unit, d = unit_moments(chan), chan.distances[0]
    for snr_db in cfg.snr_grid_db:
        v = pep_of_event(unit, 10.0 ** (snr_db / 10.0) * d)
        for pep in (v.exact, v.chiani):
            assert np.all(np.isfinite(pep) & (pep >= 0.0) & (pep <= 0.5))
