"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion. The heavier criteria use the shipped scenario files in configs/.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from irs_sskrpm import (ErrorEventMoments, SystemConfig, aber_union, build_g_bar,
                        capacity_closed, laplace,
                        load_config, make_channel, moments_joint, moments_rpm,
                        moments_ssk, pep_of_event, run_sweep,
                        simulate_capacity, validate)
from irs_sskrpm.cli import main as cli_main
from conftest import config_path
from oracles import (build_h, crossing_snr, crossing_snr_linear, diversity_slope, event_direction,
                     laplace_by_quadrature, pairwise_error_rate,
                     pdf_mass, pep_by_quadrature, sample_xi)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def _analytic_curve(cfg, exact_pep=True):
    chan = make_channel(cfg)
    return np.array([aber_union(chan, cfg, 10 ** (s / 10), exact_pep=exact_pep)
                     for s in cfg.snr_grid_db])


def _capacity_curve(cfg):
    chan = make_channel(cfg)
    return np.array([capacity_closed(chan, cfg, 10 ** (s / 10)) for s in cfg.snr_grid_db])


def test_criterion_1_special_function_oracles():
    with criterion(1, "Laplace transform vs quadrature; density normalization"):
        rng = np.random.default_rng(1001)
        for i in range(100):
            mom = ErrorEventMoments(
                s_sq=0.0 if i % 7 == 0 else float(rng.uniform(0.0, 8.0)),
                sigma_sq=float(rng.uniform(0.05, 3.0)),
                n_r=int(rng.integers(1, 5)))
            a = float(10 ** rng.uniform(-2, 1))
            ref = laplace_by_quadrature(mom, a)
            assert laplace(mom, a) == pytest.approx(ref, rel=1e-6), (mom, a)
        for i in range(25):
            mom = ErrorEventMoments(
                s_sq=0.0 if i % 5 == 0 else float(rng.uniform(0.0, 8.0)),
                sigma_sq=float(rng.uniform(0.05, 3.0)),
                n_r=int(rng.integers(1, 5)))
            assert pdf_mass(mom) == pytest.approx(1.0, abs=1e-8), mom


def _random_config(rng) -> SystemConfig:
    return validate(SystemConfig(
        n_t=int(rng.choice([2, 4])),
        m_rpm=int(rng.choice([2, 4])),
        n_x=int(rng.integers(2, 6)),
        n_y=int(rng.integers(2, 6)),
        n_r=int(rng.integers(1, 4)),
        k_r=float(rng.uniform(0.0, 4.0)),
        d_r=float(rng.uniform(1.5, 6.0)),
        d_t=float(rng.uniform(0.5, 2.0)),
        phi_a=float(rng.uniform(0.05, 2 * np.pi - 0.05)),
        phi_e=float(rng.uniform(0.05, 2 * np.pi - 0.05)),
        phi_d=float(rng.uniform(-np.pi, np.pi)),
        psi_a=float(rng.uniform(0.05, 2 * np.pi - 0.05)),
        psi_e=float(rng.uniform(0.05, 2 * np.pi - 0.05)),
        psi_d=float(rng.uniform(-np.pi, np.pi)),
    ))


def test_criterion_2_moment_identities():
    with criterion(2, "empirical moments of the decision statistic"):
        rng = np.random.default_rng(2002)
        n_samples = 100_000
        for _ in range(20):
            cfg = _random_config(rng)
            h, g_bar = build_h(cfg), build_g_bar(cfg)
            t, t_hat = 1, 2
            m, m_hat = 1, 2
            events = [
                ("ssk", moments_ssk(h, g_bar, cfg, t, t_hat)),
                ("rpm", moments_rpm(h, g_bar, cfg, t, m, m_hat)),
                ("joint", moments_joint(h, g_bar, cfg, t, t_hat, m, m_hat)),
            ]
            for kind, mom in events:
                d = event_direction(cfg, h, kind, t, t_hat, m, m_hat)
                xi = sample_xi(cfg, d, n_samples, rng)
                mean_th = mom.s_sq + 2 * mom.n_r * mom.sigma_sq
                var_th = 4 * mom.n_r * mom.sigma_sq ** 2 + 4 * mom.sigma_sq * mom.s_sq
                se_mean = xi.std(ddof=1) / math.sqrt(n_samples)
                assert abs(xi.mean() - mean_th) < 3 * se_mean, (kind, cfg)
                centered_sq = (xi - xi.mean()) ** 2
                se_var = centered_sq.std(ddof=1) / math.sqrt(n_samples)
                assert abs(xi.var(ddof=1) - var_th) < 3 * se_var, (kind, cfg)


def test_criterion_3_pep_cross_validation():
    with criterion(3, "exact PEP vs quadrature and pairwise Monte-Carlo"):
        cfg = validate(load_config(config_path("aber_n16.cfg")))
        h, g_bar = build_h(cfg), build_g_bar(cfg)
        events = [
            ("ssk", (1, 2, 1, 1), moments_ssk(h, g_bar, cfg, 1, 2)),
            ("rpm", (1, 1, 1, 2), moments_rpm(h, g_bar, cfg, 1, 1, 2)),
            ("joint", (1, 2, 1, 2), moments_joint(h, g_bar, cfg, 1, 2, 1, 2)),
        ]
        rng = np.random.default_rng(3003)
        for kind, (t, t_hat, m, m_hat), mom in events:
            # pick two SNRs with PEP inside [1e-4, 1e-1]
            snrs = []
            for snr in np.arange(0.0, 46.0, 1.0):
                p = pep_of_event(mom, 10 ** (snr / 10)).exact
                if 1e-4 <= p <= 1e-1:
                    snrs.append(snr)
            picked = [snrs[0], snrs[len(snrs) // 2]]
            for snr in picked:
                p_s = 10 ** (snr / 10)
                exact = pep_of_event(mom, p_s).exact
                ref = pep_by_quadrature(mom, p_s)
                assert exact == pytest.approx(ref, rel=1e-8), (kind, snr)
                rate, stderr = pairwise_error_rate(cfg, kind, t, t_hat, m, m_hat,
                                                   p_s, 1_000_000, rng)
                assert abs(exact - rate) < 3 * stderr, (kind, snr, exact, rate)


def test_criterion_4_aber_reproduction():
    with criterion(4, "ABER curves: bound vs simulation, array and distance gains"):
        start = time.monotonic()
        cfg16 = validate(load_config(config_path("aber_n16.cfg")))
        cfg32 = validate(load_config(config_path("aber_n32.cfg")))
        cfg16_near = validate(load_config(config_path("aber_n16_near.cfg")))

        curves = {}
        for tag, cfg in (("n16", cfg16), ("n32", cfg32)):
            analytic = _analytic_curve(cfg)
            sim = run_sweep(replace(cfg, trials=100_000), "aber", mode="sim")
            for a_val, snr_db, aber, stderr in zip(analytic, sim["snr_db"], sim["aber_sim"],
                                                   sim["aber_stderr"]):
                # (a) the union bound sits above the simulation at every point
                assert a_val >= aber - 3 * stderr, (tag, snr_db)
                # (b) and within a factor 3 in the tight regime
                if 1e-4 <= aber <= 1e-2:
                    assert a_val / aber <= 3.0, (tag, snr_db, a_val, aber)
            curves[tag] = analytic

        grid = np.asarray(cfg16.snr_grid_db)
        # (c) doubling the surface: 3 +- 1 dB at ABER 1e-2
        shift = crossing_snr(grid, curves["n16"], 1e-2) - crossing_snr(grid, curves["n32"], 1e-2)
        assert abs(shift - 3.0) <= 1.0, shift
        # (d) halving the surface-to-user distance: 7 +- 1.5 dB at ABER 1e-3
        near = _analytic_curve(cfg16_near)
        gain = crossing_snr(grid, curves["n16"], 1e-3) - crossing_snr(grid, near, 1e-3)
        assert abs(gain - 7.0) <= 1.5, gain
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds the 5-minute target"
        print(f"\n  criterion 4 detail: shift={shift:+.2f} dB, distance gain={gain:+.2f} dB, "
              f"runtime={elapsed:.1f}s")


def test_criterion_5_diversity():
    with criterion(5, "receive-antenna gain and diversity slope"):
        cfg2 = validate(load_config(config_path("diversity_nr2.cfg")))
        cfg3 = validate(load_config(config_path("diversity_nr3.cfg")))
        a2 = _analytic_curve(cfg2)
        a3 = _analytic_curve(cfg3)
        grid = np.asarray(cfg2.snr_grid_db)
        # (a) 2 -> 3 receive antennas: 5 +- 1.5 dB at ABER 1e-3
        gain = crossing_snr(grid, a2, 1e-3) - crossing_snr(grid, a3, 1e-3)
        assert abs(gain - 5.0) <= 1.5, gain
        # (b) slope of the 2-antenna curve between 15 and 25 dB is 2.0 +- 0.3
        window = (grid >= 15.0) & (grid <= 25.0)
        slope = diversity_slope(grid[window], a2[window])
        assert abs(slope - 2.0) <= 0.3, slope
        print(f"\n  criterion 5 detail: antenna gain={gain:+.2f} dB, slope={slope:.3f}")


def test_criterion_6_capacity():
    with criterion(6, "ergodic capacity: limit, antenna gain, sampled agreement"):
        cfg1 = validate(load_config(config_path("capacity_nr1.cfg")))
        cfg2 = validate(load_config(config_path("capacity_nr2.cfg")))
        limit = math.log2(cfg1.n_t * cfg1.m_rpm)
        c1 = _capacity_curve(cfg1)
        c2 = _capacity_curve(cfg2)
        grid = np.asarray(cfg1.snr_grid_db)
        assert np.all(np.diff(c1) >= -1e-12) and np.all(np.diff(c2) >= -1e-12)
        assert limit - c1[-1] < 0.05 and limit - c2[-1] < 0.05
        # adding a receive antenna: 4 +- 1.5 dB at the midpoint of the
        # curve's dynamic range (halfway from the zero-power value to the limit)
        mid = 0.5 * (c1[0] + limit)
        gain = crossing_snr_linear(grid, c1, mid) - crossing_snr_linear(grid, c2, mid)
        assert abs(gain - 4.0) <= 1.5, gain
        # sampled expectation agrees with the closed form at 1e5 channel draws
        chan2 = make_channel(cfg2)
        for snr in (8.0, 16.0, 24.0):
            p_s = 10 ** (snr / 10)
            cap, se = simulate_capacity(cfg2, p_s, 100_000, seed=2, with_stderr=True)
            closed = capacity_closed(chan2, cfg2, p_s)
            assert abs(cap - closed) < 3 * se, (snr, cap, closed, se)
        print(f"\n  criterion 6 detail: top gap={limit - c1[-1]:.4f} bits, "
              f"antenna gain={gain:+.2f} dB")


def test_criterion_7_determinism(tmp_path):
    # reruns in one process write byte-identical CSVs; the 20000 trials span three
    # BER chunks (8192, 8192 and a partial 3616), each decided at every SNR point
    with criterion(7, "byte-identical reruns in one process"):
        cfg_text = (
            "n_x=4\nn_y=4\nn_r=1\nd_r=4.0\nsnr_grid_db=0,20,40\nseed=31\ntrials=20000\n")
        cfg_file = tmp_path / "det.cfg"
        cfg_file.write_text(cfg_text)
        outputs = []
        for run in range(3):
            out = str(tmp_path / f"det_{run}.csv")
            assert cli_main(["aber", "--config", str(cfg_file),
                             "--mode", "both", "--out", out]) == 0
            outputs.append(open(out, "rb").read())
        assert outputs[0] == outputs[1] == outputs[2]
        cap_outputs = []
        for run in range(2):
            out = str(tmp_path / f"cap_{run}.csv")
            assert cli_main(["capacity", "--config", str(cfg_file),
                             "--mode", "both", "--out", out]) == 0
            cap_outputs.append(open(out, "rb").read())
        assert cap_outputs[0] == cap_outputs[1]
        rerun = str(tmp_path / "det_rerun.csv")
        assert cli_main(["aber", "--config", str(cfg_file),
                         "--mode", "both", "--out", rerun]) == 0
        assert open(rerun, "rb").read() == outputs[0]
