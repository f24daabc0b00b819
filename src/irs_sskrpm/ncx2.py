"""Distribution of the ML decision statistic xi for each error event.

For an error event the statistic is xi = ||G^H d||^2 with a deterministic
direction d in C^N that depends only on H and the hypothesis pair:

    antenna error (t -> t_hat, phase correct):   d = h_t - h_that
    phase error (m -> m_hat, antenna correct):   d = (e^{j phi_m} - e^{j phi_mhat}) h_t
    joint error:                                 d = e^{j phi_m} h_t - e^{j phi_mhat} h_that

Because H is deterministic and the diffuse part of G is Gaussian, G^H d is a
circularly-symmetric complex Gaussian vector of length n_r, so xi is exactly
noncentral chi-square with 2*n_r degrees of freedom, per-real-component
variance sigma^2 = nu_r/(2*(1+K_r)) * ||d||^2 and noncentrality
s^2 = K_r*nu_r/(1+K_r) * ||G_bar^H d||^2 (the squared norm of the mean).

These per-event builders keep the exact N-dimensional direction d. Through
the rank-1 identity d = sqrt(nu) (c_i - c_j) a_irs, every event's statistic
is |c_i - c_j|^2 times xi_1 = nu ||g_eff||^2, whose moments `unit_moments`
gives. No library code path reads the builders: `unit_moments` is what the
analytic layer evaluates, and the builders are the reference it is tested
against (they also serve the benchmark's ABER bracket).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .airlink import rpm_phases
from .channel import Channel
from .config import SystemConfig


@dataclass(frozen=True)
class ErrorEventMoments:
    """Gaussian moments of one error event: noncentrality s^2, per-component
    variance sigma^2, and n_r (the statistic has 2*n_r degrees of freedom).

    sigma_sq == 0 only for degenerate events whose two hypotheses produce
    identical signatures; such events carry no decision information.
    """

    s_sq: float
    sigma_sq: float
    n_r: int


def _moments_from_direction(d: np.ndarray, g_bar: np.ndarray, cfg: SystemConfig) -> ErrorEventMoments:
    """Moments of the event with the direction d."""
    sigma_sq = cfg.nu_r / (2.0 * (1.0 + cfg.k_r)) * np.sum(np.abs(d) ** 2)
    s_sq = cfg.k_r * cfg.nu_r / (1.0 + cfg.k_r) * np.sum(np.abs(g_bar.conj().T @ d) ** 2)
    return ErrorEventMoments(s_sq=float(s_sq), sigma_sq=float(sigma_sq), n_r=g_bar.shape[1])


def unit_moments(chan: Channel) -> ErrorEventMoments:
    """Moments of xi_1 = nu ||g_eff||^2: nu ||mean||^2 and nu scale^2 / 2. Event i -> j
    has the statistic |c_i - c_j|^2 xi_1, so its transform at a is xi_1's at a|c_i - c_j|^2."""
    nu = chan.sqrt_nu ** 2
    return ErrorEventMoments(s_sq=float(nu * np.sum(np.abs(chan.mean) ** 2)),
                             sigma_sq=float(nu * chan.scale ** 2 / 2.0), n_r=chan.mean.size)


def moments_ssk(h: np.ndarray, g_bar: np.ndarray, cfg: SystemConfig,
                t: int, t_hat: int) -> ErrorEventMoments:
    """Moments of the antenna-index error statistic; independent of the applied phase."""
    if t == t_hat:
        raise ValueError(f"t={t} and t_hat={t_hat} must differ")
    d = h[:, t - 1] - h[:, t_hat - 1]
    return _moments_from_direction(d, g_bar, cfg)


def moments_rpm(h: np.ndarray, g_bar: np.ndarray, cfg: SystemConfig,
                t: int, m: int, m_hat: int) -> ErrorEventMoments:
    """Moments of the phase-index error statistic for a known antenna t.

    Both moments carry the common factor |e^{j phi_m} - e^{j phi_mhat}|^2
    = 2*(1 - cos(phi_m - phi_mhat)).
    """
    if m == m_hat:
        raise ValueError(f"m={m} and m_hat={m_hat} must differ")
    phases = rpm_phases(cfg.m_rpm)
    d = (np.exp(1j * phases[m - 1]) - np.exp(1j * phases[m_hat - 1])) * h[:, t - 1]
    return _moments_from_direction(d, g_bar, cfg)


def moments_joint(h: np.ndarray, g_bar: np.ndarray, cfg: SystemConfig,
                  t: int, t_hat: int, m: int, m_hat: int) -> ErrorEventMoments:
    """Moments of the statistic when both antenna and phase are detected
    wrongly, from the exact signature difference e^{j phi_m} h_t - e^{j phi_mhat} h_that."""
    if t == t_hat:
        raise ValueError(f"t={t} and t_hat={t_hat} must differ")
    if m == m_hat:
        raise ValueError(f"m={m} and m_hat={m_hat} must differ")
    phases = rpm_phases(cfg.m_rpm)
    d = np.exp(1j * phases[m - 1]) * h[:, t - 1] - np.exp(1j * phases[m_hat - 1]) * h[:, t_hat - 1]
    return _moments_from_direction(d, g_bar, cfg)


def laplace(mom: ErrorEventMoments, a):
    """E[exp(-a*xi)] = (1 + 2*a*sigma^2)^(-n_r) * exp(-a*s^2 / (1 + 2*a*sigma^2)).

    Evaluated with no pow, as exp(-a*s^2*x) times x^n_r, x = 1/(1 + 2*a*sigma^2), in three
    buffers filled in place (never in a). Finite for every a >= 0, with the exact limit 0 where
    a is infinite or 1 + 2*a*sigma^2 overflows; NaN stays NaN. A finite negative a is accepted
    only inside the stability region 1 + 2*a*sigma^2 > 0, and a = -inf never, whatever sigma^2.
    """
    a = np.asarray(a, dtype=float)
    denom, x, out = np.empty_like(a), np.empty_like(a), np.empty_like(a)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(1.0, np.multiply(a, 2.0 * mom.sigma_sq, out=denom), out=denom)
        if np.any(denom <= 0.0 if mom.sigma_sq else a == -np.inf):  # 1 + -inf * 0 is NaN
            raise ValueError("transform argument outside the stability region")
        np.multiply(np.multiply(a, -mom.s_sq, out=out), np.divide(1.0, denom, out=x), out=out)
        out, n = np.exp(out, out=out), mom.n_r
        while n:  # times x^n_r by square-and-multiply
            out, n = (np.multiply(out, x, out=out) if n & 1 else out), n >> 1
            x = np.multiply(x, x, out=x) if n else x
    limit = np.isinf(denom) if mom.sigma_sq else a == np.inf  # denom is NaN at sigma^2 = 0
    np.copyto(out, 0.0, where=limit)
    return out if out.shape else float(out)
