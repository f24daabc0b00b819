"""Walk through the channel model: steering vectors, the rank-1 BS-to-surface
link, and the Rician surface-to-user link, with empirical moment checks.

Run: python demos/channel_anatomy.py
"""

import numpy as np

from irs_sskrpm import SystemConfig, build_g_bar, steering_bs, steering_irs, validate
from irs_sskrpm.channel import rician_weights

cfg = validate(SystemConfig())
print(f"scenario: {cfg.n_x}x{cfg.n_y} surface (N={cfg.n_elements}), "
      f"{cfg.n_t} TX / {cfg.n_r} RX antennas, K_r={cfg.k_r}")
print(f"link path losses: BS->IRS nu={cfg.nu:.4g}, IRS->UT nu_r={cfg.nu_r:.4g}\n")

a = steering_irs(cfg.phi_a, cfg.phi_e, cfg.n_x, cfg.n_y, cfg.kappa_over_lambda)
print("surface steering vector: first entry", a[0], "| all moduli 1:",
      np.allclose(np.abs(a), 1.0))

h = np.sqrt(cfg.nu) * np.outer(a, steering_bs(cfg.phi_d, cfg.n_t, cfg.delta_over_lambda))
print("H is rank", np.linalg.matrix_rank(h),
      f"with constant |h| = {np.abs(h[0, 0]):.6f} (= sqrt(nu))")

# G = w_los G_bar + w_nlos W, W entries i.i.d. CN(0, 1): 20k draws at once
w_los, w_nlos = rician_weights(cfg)
parts = np.random.default_rng(0).standard_normal((20_000, 2, cfg.n_elements, cfg.n_r))
draws = w_los * build_g_bar(cfg) + w_nlos * ((parts[:, 0] + 1j * parts[:, 1]) * np.sqrt(0.5))
print("\nRician mixture over 20k draws:")
print(f"  LoS weight          theory {w_los:.6f}   empirical "
      f"{np.abs(draws.mean(axis=0)).mean():.6f}")
print(f"  per-entry variance  theory {cfg.nu_r / (1 + cfg.k_r):.6f}   empirical "
      f"{np.var(draws - draws.mean(axis=0), axis=0).mean().real:.6f}")
print(f"  total power/entry   theory {cfg.nu_r:.6f}   empirical "
      f"{np.mean(np.abs(draws) ** 2):.6f}")
