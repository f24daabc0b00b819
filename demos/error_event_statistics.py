"""The decision statistic of each error event is noncentral chi-square with
2*n_r degrees of freedom. Compare the analytical moments and Laplace
transform against raw channel sampling, for all three event kinds.

H is rank 1, so event i -> j has the statistic |c_i - c_j|^2 xi_1 (c_k the
constellation points): its moments are those of xi_1 (`unit_moments`) scaled
by |c_i - c_j|^2, and its transform at a is xi_1's at a |c_i - c_j|^2.

Run: python demos/error_event_statistics.py
"""

import numpy as np

from irs_sskrpm import (SystemConfig, build_g_bar, laplace, make_channel, steering_bs,
                        steering_irs, unit_moments, validate)
from irs_sskrpm.channel import rician_weights

cfg = validate(SystemConfig(n_r=2))
chan = make_channel(cfg)
unit, (distance, index) = unit_moments(chan), chan.distances
a_irs = steering_irs(cfg.phi_a, cfg.phi_e, cfg.n_x, cfg.n_y, cfg.kappa_over_lambda)
a_bs = steering_bs(cfg.phi_d, cfg.n_t, cfg.delta_over_lambda)
g_bar = build_g_bar(cfg)

# (t, m) sent -> (t_hat, m_hat) detected, zero-based antenna and phase indices
events = {
    "antenna error (1->2)": ((0, 0), (1, 0)),
    "phase error (1->2)": ((0, 0), (0, 1)),
    "joint error": ((0, 0), (1, 1)),
}

rng = np.random.default_rng(1)
w_los, w_nlos = rician_weights(cfg)
n_samples, block = 200_000, 20_000


def project(d):
    """sum_n x[b, n, r] d[n] for the next (n_samples, N, n_r) standard normals x of rng,
    drawn in row blocks (the stream of one call) so no full array is held."""
    return np.concatenate([
        np.einsum("bnr,n->br", rng.standard_normal((block, cfg.n_elements, cfg.n_r)), d)
        for _ in range(n_samples // block)])


for name, ((t, m), (t_hat, m_hat)) in events.items():
    dist = distance[index[t * cfg.m_rpm + m, t_hat * cfg.m_rpm + m_hat]]  # |c_i - c_j|^2
    s_sq, sigma_sq = dist * unit.s_sq, dist * unit.sigma_sq
    # xi = ||G^H d||^2, d = sqrt(nu) (e^{j phi_m} a_bs[t] - e^{j phi_mhat} a_bs[t_hat]) a_irs
    phase, phase_hat = np.exp(2j * np.pi * np.array([m, m_hat]) / cfg.m_rpm)
    d = np.sqrt(cfg.nu) * (phase * a_bs[t] - phase_hat * a_bs[t_hat]) * a_irs
    # G = w_los G_bar + w_nlos sqrt(1/2) (X + jY), so G^H d = w_los G_bar^H d
    # + w_nlos sqrt(1/2) (X^T d - j Y^T d), X drawn first, then Y
    gh_d = w_los * (g_bar.conj().T @ d) + w_nlos * np.sqrt(0.5) * (project(d) - 1j * project(d))
    xi = np.sum(np.abs(gh_d) ** 2, axis=1)

    mean_th = s_sq + 2 * cfg.n_r * sigma_sq
    var_th = 4 * cfg.n_r * sigma_sq ** 2 + 4 * sigma_sq * s_sq
    print(f"{name}: s^2={s_sq:.4f} sigma^2={sigma_sq:.4f}")
    print(f"  mean      theory {mean_th:10.4f}   sampled {xi.mean():10.4f}")
    print(f"  variance  theory {var_th:10.4f}   sampled {xi.var(ddof=1):10.4f}")
    for a in (0.2, 1.0, 5.0):
        print(f"  E[exp(-{a}*xi)]  theory {laplace(unit, a * dist):.6f}   "
              f"sampled {np.exp(-a * xi).mean():.6f}")
    print()
