"""Hypothesis labels and exhaustive joint ML detection.

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


def label_weights(k: int) -> np.ndarray:
    """Number of ones in the bit label of each flat hypothesis index 0..k-1;
    the labels of hypotheses i and j differ in label_weights(k)[i ^ j] bits."""
    return np.array([bin(v).count("1") for v in range(k)])


def pair_classes(n_t: int, m_rpm: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over the ordered pairs (i, j) of flat hypothesis indices, each (K, K):
    same antenna, same phase, and the Hamming distance of the two bit labels."""
    idx = np.arange(n_t * m_rpm)
    t, m = np.divmod(idx, m_rpm)
    return (t[:, None] == t[None, :], m[:, None] == m[None, :],
            label_weights(idx.size)[np.bitwise_xor.outer(idx, idx)])


def ml_detect(points: np.ndarray, ip: np.ndarray, sqrt_p: float) -> np.ndarray:
    """Exhaustive joint ML decisions over the n_t*m_rpm hypotheses, one per trial.

    Hypothesis k has the signature sqrt(nu) * points[k] * g_eff, and every
    signature has the energy nu ||g_eff||^2, so the ML metric
    ||y - sqrt(P_s nu) points[k] g_eff||^2 reduces to the score
    -2 sqrt(P_s) Re(conj(points[k]) ip) with ip = sqrt(nu) g_eff^H y (one
    entry per trial). Returns the flat t-major index of the smallest score;
    ties, such as every score at P_s = 0 or y = 0, go to the smallest index.
    """
    score = -2.0 * sqrt_p * np.real(ip[:, None] * points.conj())
    return np.argmin(score, axis=1)
