"""Bit mapping, received-signal synthesis and exhaustive joint ML detection.

A transmitted hypothesis is the pair (t, m): active BS antenna t in [1, n_t]
and reflection-phase index m in [1, m_rpm]. Its bit label is the natural
binary code of t-1 (width log2(n_t)) followed by that of m-1 (width
log2(m_rpm)); the flat hypothesis index (t-1)*m_rpm + (m-1) therefore equals
the label read as an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .channel import ChannelPair


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


def base_signatures(chan: ChannelPair) -> np.ndarray:
    """Per-antenna noise-free signatures G^H h_t, shape (n_r, n_t).

    The full hypothesis signature is lambda_{t,m} = exp(j*phi_m) * column t,
    so signature energies do not depend on m.
    """
    if chan.g is None:
        raise ValueError("channel realization has no sampled G")
    return chan.g.conj().T @ chan.h


def signatures(chan: ChannelPair, m_rpm: int) -> np.ndarray:
    """All n_t*m_rpm hypothesis signatures, shape (n_t*m_rpm, n_r), t-major order."""
    base = base_signatures(chan)            # (n_r, n_t)
    phasors = np.exp(1j * rpm_phases(m_rpm))
    n_r, n_t = base.shape
    lam = np.empty((n_t * m_rpm, n_r), dtype=complex)
    for t in range(n_t):
        lam[t * m_rpm:(t + 1) * m_rpm] = phasors[:, None] * base[:, t][None, :]
    return lam


def synthesize_rx(chan: ChannelPair, pair: SymbolPair, p_s: float, m_rpm: int,
                  noise: np.ndarray | None = None) -> np.ndarray:
    """Received vector sqrt(P_s) * exp(j*phi_m) * G^H h_t + noise.

    noise is a length-n_r complex vector, or None for the noise-free signal.
    """
    if p_s < 0:
        raise ValueError(f"p_s={p_s} must be non-negative")
    base = base_signatures(chan)
    n_r = base.shape[0]
    phase = rpm_phases(m_rpm)[pair.m - 1]
    y = np.sqrt(p_s) * np.exp(1j * phase) * base[:, pair.t - 1]
    if noise is not None:
        noise = np.asarray(noise)
        if noise.shape != (n_r,):
            raise ValueError(f"noise has shape {noise.shape}, expected ({n_r},)")
        y = y + noise
    return y


def _detect_index(base: np.ndarray, phasors: np.ndarray, y: np.ndarray, p_s: float) -> int:
    """Flat argmin of ||y - sqrt(P_s) * phasor_m * base_t||^2, ties to the smallest index.

    Expanded form: the energy term uses ||base_t||^2 directly, so it is exactly
    m-invariant and the documented tie-break is honored bit-for-bit.
    """
    sqrt_p = np.sqrt(p_s)
    energy = np.sum(np.abs(base) ** 2, axis=0)            # (n_t,)
    ip = base.conj().T @ y                                # (n_t,)
    score = p_s * energy[:, None] - 2.0 * sqrt_p * np.real(ip[:, None] * phasors.conj()[None, :])
    return int(np.argmin(score.ravel()))


def ml_detect(chan: ChannelPair, y: np.ndarray, p_s: float, m_rpm: int) -> SymbolPair:
    """Exhaustive joint ML detection over all n_t * m_rpm hypotheses.

    Returns the hypothesis minimizing ||y - sqrt(P_s)*lambda_{t,m}||^2; ties
    are broken deterministically toward the smallest (t, then m).
    """
    base = base_signatures(chan)
    phasors = np.exp(1j * rpm_phases(m_rpm))
    idx = _detect_index(base, phasors, np.asarray(y), p_s)
    t, m = idx // m_rpm + 1, idx % m_rpm + 1
    n_t = base.shape[1]
    return SymbolPair(t=t, m=m, bits=symbol_bits(t, m, n_t, m_rpm))
