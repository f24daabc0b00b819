"""Hypothesis labels and joint ML detection.

A transmitted hypothesis is the pair (t, m): active BS antenna t in [1, n_t]
and reflection-phase index m in [1, m_rpm]. Its bit label is the natural
binary code of t-1 (width log2(n_t)) followed by that of m-1 (width
log2(m_rpm)), so the label read as an integer is the flat hypothesis index
(t-1)*m_rpm + (m-1): the flat index is the label.
"""

from __future__ import annotations

import numpy as np


def rpm_phases(m_rpm: int) -> np.ndarray:
    """Reflection-phase constellation 2*pi*(m-1)/M for m = 1..M; first phase is 0."""
    if m_rpm < 1:
        raise ValueError(f"m_rpm={m_rpm} must be >= 1")
    return 2.0 * np.pi * np.arange(m_rpm) / m_rpm


def pair_classes(n_t: int, m_rpm: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over the ordered pairs (i, j) of flat hypothesis indices, each (K, K):
    same antenna, same phase, and the Hamming distance of the two bit labels."""
    idx = np.arange(n_t * m_rpm)
    t, m = np.divmod(idx, m_rpm)
    weight = np.array([bin(v).count("1") for v in range(idx.size)])
    return (t[:, None] == t[None, :], m[:, None] == m[None, :],
            weight[np.bitwise_xor.outer(idx, idx)])


def ml_detect(wedges: tuple[np.ndarray, np.ndarray], ip: np.ndarray,
              sqrt_p: float) -> np.ndarray:
    """Joint ML decisions over the n_t*m_rpm hypotheses, one per trial.

    Every signature sqrt(nu) points[k] g_eff has the energy nu ||g_eff||^2, so
    the ML metric ||y - sqrt(P_s nu) points[k] g_eff||^2 is smallest for the
    point nearest in angle to the scalar ip = g_eff^H y (or any positive
    multiple): the location owning the `Channel.wedges()` interval that holds
    angle(ip), found by counting the bisectors below it. Returns flat t-major
    indices; ip = 0 and P_s = 0 (every score ties) decide index 0.
    """
    bisectors, winners = wedges
    theta = np.angle(ip) if sqrt_p > 0 else np.zeros(np.shape(ip))
    below = np.sum(theta > bisectors[:, None], axis=0, dtype=np.min_scalar_type(bisectors.size))
    return winners[below]
