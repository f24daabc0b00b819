"""Bit mapping and exhaustive joint ML detection.

A transmitted hypothesis is the pair (t, m): active BS antenna t in [1, n_t]
and reflection-phase index m in [1, m_rpm]. Its bit label is the natural
binary code of t-1 (width log2(n_t)) followed by that of m-1 (width
log2(m_rpm)); the flat hypothesis index (t-1)*m_rpm + (m-1) therefore equals
the label read as an integer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def rpm_phases(m_rpm: int) -> np.ndarray:
    """Reflection-phase constellation 2*pi*(m-1)/M for m = 1..M; first phase is 0."""
    if m_rpm < 1:
        raise ValueError(f"m_rpm={m_rpm} must be >= 1")
    return 2.0 * np.pi * np.arange(m_rpm) / m_rpm


@dataclass(frozen=True)
class SymbolPair:
    """Transmitted hypothesis: antenna index t, phase index m (1-based) and its bit label."""

    t: int
    m: int
    bits: str


def _bit_widths(n_t: int, m_rpm: int) -> tuple[int, int]:
    b_bs = n_t.bit_length() - 1
    b_irs = m_rpm.bit_length() - 1
    return b_bs, b_irs


def symbol_bits(t: int, m: int, n_t: int, m_rpm: int) -> str:
    """Bit label of hypothesis (t, m): BS bits first, then IRS bits."""
    b_bs, b_irs = _bit_widths(n_t, m_rpm)
    if not 1 <= t <= n_t:
        raise ValueError(f"t={t} out of range [1, {n_t}]")
    if not 1 <= m <= m_rpm:
        raise ValueError(f"m={m} out of range [1, {m_rpm}]")
    return format(t - 1, f"0{b_bs}b")[:b_bs] + format(m - 1, f"0{b_irs}b")[:b_irs]


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


def map_bits(bits: str, n_t: int, m_rpm: int) -> SymbolPair:
    """Map a bit string to (t, m); the first log2(n_t) bits select the antenna."""
    b_bs, b_irs = _bit_widths(n_t, m_rpm)
    if len(bits) != b_bs + b_irs or any(c not in "01" for c in bits):
        raise ValueError(f"expected {b_bs + b_irs} bits, got {bits!r}")
    t = int(bits[:b_bs], 2) + 1 if b_bs else 1
    m = int(bits[b_bs:], 2) + 1 if b_irs else 1
    return SymbolPair(t=t, m=m, bits=bits)


def demap(pair: SymbolPair, n_t: int, m_rpm: int) -> str:
    """Inverse of map_bits; exact round trip."""
    return symbol_bits(pair.t, pair.m, n_t, m_rpm)


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
