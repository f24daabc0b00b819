"""Array responses and channel matrices.

The BS->IRS link H is a deterministic rank-1 line-of-sight outer product; the
IRS->UT link G is Rician: a rank-1 LoS component G_bar plus an i.i.d.
circularly-symmetric Gaussian part, mixed by the K-factor. Because H is
rank-1, the receiver sees G only through the n_r-vector g_eff = G^H a_irs
(see `Channel`).

IRS elements are enumerated y-major: the flat index of grid element
(nx, ny) is ny * n_x + nx. All sums downstream run over all N elements,
so results do not depend on this choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .airlink import rpm_phases
from .config import SystemConfig


def steering_irs(phi_a: float, phi_e: float, n_x: int, n_y: int,
                 kappa_over_lambda: float) -> np.ndarray:
    """Planar-array response of the IRS; unit-modulus, first entry exactly 1.

    Entry for grid index (nx, ny) is
    exp(-j*2*pi*(kappa/lambda)*(nx*sin(phi_e)*cos(phi_a) + ny*cos(phi_e))),
    flattened y-major.
    """
    if n_x < 1 or n_y < 1:
        raise ValueError(f"grid dimensions must be >= 1, got n_x={n_x}, n_y={n_y}")
    nx = np.arange(n_x)
    ny = np.arange(n_y)
    # shape (n_y, n_x); C-order ravel gives flat index ny * n_x + nx
    phase = nx[None, :] * (np.sin(phi_e) * np.cos(phi_a)) + ny[:, None] * np.cos(phi_e)
    return np.exp(-2j * np.pi * kappa_over_lambda * phase).ravel()


def steering_bs(phi_d: float, n_t: int, delta_over_lambda: float) -> np.ndarray:
    """Uniform-linear-array response; element k is exp(-j*2*pi*(delta/lambda)*k*sin(phi_d))."""
    if n_t < 1:
        raise ValueError(f"array length must be >= 1, got n_t={n_t}")
    return np.exp(-2j * np.pi * delta_over_lambda * np.arange(n_t) * np.sin(phi_d))


def build_h(cfg: SystemConfig) -> np.ndarray:
    """Deterministic BS->IRS matrix sqrt(nu) * a_irs(phi_a, phi_e) outer a_bs(phi_d)."""
    a_irs = steering_irs(cfg.phi_a, cfg.phi_e, cfg.n_x, cfg.n_y, cfg.kappa_over_lambda)
    a_bs = steering_bs(cfg.phi_d, cfg.n_t, cfg.delta_over_lambda)
    return np.sqrt(cfg.nu) * np.outer(a_irs, a_bs)


def build_g_bar(cfg: SystemConfig) -> np.ndarray:
    """Unit-modulus LoS component of the IRS->UT matrix.

    The UT array response reuses the ULA formula at the configured
    delta/lambda spacing (the UT spacing is not specified independently).
    """
    a_irs = steering_irs(cfg.psi_a, cfg.psi_e, cfg.n_x, cfg.n_y, cfg.kappa_over_lambda)
    a_ut = steering_bs(cfg.psi_d, cfg.n_r, cfg.delta_over_lambda)
    return np.outer(a_irs, a_ut)


def rician_weights(cfg: SystemConfig) -> tuple[float, float]:
    """(LoS amplitude, NLoS amplitude) of the IRS->UT mixture:
    sqrt(K*nu_r/(1+K)) and sqrt(nu_r/(1+K))."""
    return (np.sqrt(cfg.k_r * cfg.nu_r / (1.0 + cfg.k_r)),
            np.sqrt(cfg.nu_r / (1.0 + cfg.k_r)))


def sample_g(cfg: SystemConfig, g_bar: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one Rician IRS->UT realization.

    G = sqrt(K*nu_r/(1+K)) * g_bar + sqrt(nu_r/(1+K)) * W with W entries
    i.i.d. CN(0, 1) (real and imaginary parts each of variance 1/2).
    """
    n, n_r = g_bar.shape
    if (n, n_r) != (cfg.n_elements, cfg.n_r):
        raise ValueError(f"g_bar has shape {g_bar.shape}, expected {(cfg.n_elements, cfg.n_r)}")
    w_los, w_nlos = rician_weights(cfg)
    parts = rng.standard_normal((2, n, n_r))
    w = (parts[0] + 1j * parts[1]) * np.sqrt(0.5)
    return w_los * g_bar + w_nlos * w


@dataclass(frozen=True)
class Channel:
    """The deterministic part of the link and its rank-1 reduction.

    H = sqrt(nu) a_irs a_bs^T, so hypothesis k has the noise-free signature
    sqrt_nu * points[k] * g_eff, where g_eff = G^H a_irs ~ CN(mean, scale^2 I_{n_r}).

    h       -- BS->IRS matrix, (N, n_t).
    g_bar   -- unit-modulus LoS component of the IRS->UT matrix G, (N, n_r).
    points  -- the n_t*m_rpm unit-circle points a_bs[t] e^{j phi_m}, t-major;
               points[0] == 1 exactly.
    m_rpm   -- reflection phases per antenna (points[k] has t, m = divmod(k, m_rpm)).
    mean    -- LoS part of g_eff, w_los * G_bar^H a_irs, shape (n_r,).
    scale   -- diffuse amplitude w_nlos * sqrt(N).
    sqrt_nu -- amplitude of the BS->IRS path loss.
    """

    h: np.ndarray
    g_bar: np.ndarray
    points: np.ndarray
    m_rpm: int
    mean: np.ndarray
    scale: float
    sqrt_nu: float

    def distances(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct |c_i - c_j|^2 over all ordered pairs of constellation
        points, ascending (at most K values), and the (K, K) index of each pair
        into them.

        a_bs is a geometric sequence and the phases a group, so conj(c_i) c_j
        is the point at the pair's offset (t_j - t_i, m_j - m_i mod M), taken
        with t_j >= t_i (and the smaller of m_j - m_i and m_i - m_j mod M when
        t_j == t_i, so the index is symmetric): every pair distance is
        |c_0 - c_k|^2 = |1 - c_k|^2 for some k. Coincident points map to 0.
        """
        d, inverse = np.unique(np.abs(1.0 - self.points) ** 2, return_inverse=True)
        t, m = np.divmod(np.arange(self.points.size), self.m_rpm)
        dt = t[None, :] - t[:, None]
        dm = np.where(dt < 0, -1, 1) * (m[None, :] - m[:, None]) % self.m_rpm
        dm = np.where(dt == 0, np.minimum(dm, self.m_rpm - dm), dm)
        index = inverse.ravel()[np.abs(dt) * self.m_rpm + dm]
        index[self.points[:, None] == self.points] = 0
        return d, index

    def wedges(self) -> tuple[np.ndarray, np.ndarray]:
        """The ML decision regions (`airlink.ml_detect`): the ascending bisectors
        of the distinct point angles, closed into a ring by the last angle a
        turn below and the first a turn above, and the flat index winning each
        interval: an angle in [-pi, pi] decides winners[bisectors below it].
        Coincident points go to the smallest index; points[0] == 1 owns 0."""
        angle, owner = np.unique(np.angle(self.points), return_index=True)
        ring = np.concatenate([angle[-1:] - 2.0 * np.pi, angle, angle[:1] + 2.0 * np.pi])
        return (ring[:-1] + ring[1:]) / 2.0, np.concatenate([owner[-1:], owner, owner[:1]])


def make_channel(cfg: SystemConfig) -> Channel:
    """H, G_bar, the constellation and the g_eff distribution of cfg."""
    a_irs = steering_irs(cfg.phi_a, cfg.phi_e, cfg.n_x, cfg.n_y, cfg.kappa_over_lambda)
    a_bs = steering_bs(cfg.phi_d, cfg.n_t, cfg.delta_over_lambda)
    g_bar = build_g_bar(cfg)
    w_los, w_nlos = rician_weights(cfg)
    return Channel(h=build_h(cfg), g_bar=g_bar,
                   points=np.outer(a_bs, np.exp(1j * rpm_phases(cfg.m_rpm))).ravel(),
                   m_rpm=cfg.m_rpm,
                   mean=w_los * (g_bar.conj().T @ a_irs),
                   scale=float(w_nlos * np.sqrt(cfg.n_elements)),
                   sqrt_nu=float(np.sqrt(cfg.nu)))

