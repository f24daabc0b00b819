"""Analytical performance: pairwise error probabilities, the Hamming-weighted
union bound on the average bit error rate, high-SNR diversity slope, and the
closed-form ergodic capacity of the discrete-input channel.

PEP of an event with statistic xi is E[Q(sqrt(P_s*xi/2))]. Craig's finite
integral for Q turns this into (1/pi) * int_0^{pi/2} L(P_s/(4*sin^2 w)) dw
where L is the Laplace transform of xi; the Chiani two-exponential
approximation of Q gives the closed form L(P_s/4)/12 + L(P_s/3)/4. These
arguments are the ones consistent with Q(sqrt(P_s*xi/2)) and are validated
against direct quadrature and Monte-Carlo; the doubled-argument convention
of some texts is the PEP at 2*P_s.

H is rank-1, so the statistic of the error event i -> j is |c_i - c_j|^2
times one Rician statistic xi_1 (`ncx2.unit_moments`), and its PEP at P_s
is the PEP of xi_1 at the effective power P_s*|c_i - c_j|^2. The union
bound, the closed-form capacity and the `pep` table therefore evaluate xi_1
once per transmit power, over the distinct constellation distances. An
error event is a pair (i, j) of flat t-major hypothesis indices, and its
PEP is pep_of_event(unit_moments(chan), P_s*|c_i - c_j|^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .airlink import pair_classes
from .channel import Channel
from .config import SystemConfig
from .ncx2 import ErrorEventMoments, laplace, unit_moments


class NumericalError(RuntimeError):
    """A quadrature or evaluation failed to reach its required accuracy."""


#: Gauss-Legendre order for the Craig integral (>= 64); convergence is
#: checked against the doubled order on every evaluation.
GL_ORDER = 96

_MAX_REL_SPREAD = 1e-9


@lru_cache(maxsize=8)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped from [-1, 1] to (0, pi/2)."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) * (np.pi / 4.0), w * (np.pi / 4.0)


@dataclass(frozen=True)
class PepValue:
    """Pairwise error probability: exact Craig-integral value and the
    Chiani closed-form approximation (arrays for an array of powers)."""

    exact: float | np.ndarray
    chiani: float | np.ndarray


def _power(p_s) -> np.ndarray:
    """p_s as a float array; ValueError unless every entry is finite and >= 0."""
    p = np.asarray(p_s, dtype=float)
    if not np.all(np.isfinite(p) & (p >= 0)):
        raise ValueError(f"p_s={p_s} must be finite and non-negative")
    return p


def _bits(cfg: SystemConfig) -> int:
    """Bits per channel use; ValueError for a zero-bit config (n_t = m_rpm = 1)."""
    if cfg.bits_total == 0:
        raise ValueError("nothing to transmit: n_t=1 and m_rpm=1 carry zero bits")
    return cfg.bits_total


def _craig_at_order(mom: ErrorEventMoments, p_s: np.ndarray, order: int):
    omega, w = _gl_nodes(order)
    with np.errstate(over="ignore"):  # an overflowing argument is infinite: laplace gives 0
        a = np.divide.outer(p_s, 4.0 * np.sin(omega) ** 2)
    return laplace(mom, a) @ w / np.pi


def pep_of_event(mom: ErrorEventMoments, p_s) -> PepValue:
    """PEP of an error event at transmit power p_s (unit noise); for an array
    of powers both fields are arrays of its shape.

    The exact value is the Craig integral evaluated with fixed-order
    Gauss-Legendre quadrature; a relative spread above 1e-9 between the
    base and doubled orders, at any power, raises NumericalError.
    """
    p = _power(p_s)
    lo = _craig_at_order(mom, p, GL_ORDER)
    hi = _craig_at_order(mom, p, 2 * GL_ORDER)
    spread = np.max(np.abs(hi - lo) / np.maximum(np.abs(hi), 1e-300))
    if not spread <= _MAX_REL_SPREAD:
        raise NumericalError(
            f"Craig quadrature did not converge: spread {spread:.3e} at orders "
            f"{GL_ORDER}/{2 * GL_ORDER}")
    return PepValue(exact=hi, chiani=laplace(mom, p / 4.0) / 12.0 + laplace(mom, p / 3.0) / 4.0)


def aber_union_terms(chan: Channel, cfg: SystemConfig, p_s: float,
                     exact_pep: bool = False) -> tuple[float, float, float]:
    """The three union-bound components (antenna-only, phase-only, joint):
    over the ordered hypothesis pairs of each class, the sum of the PEPs
    weighted by the Hamming distance of the two labels, divided by K*b.
    A zero-bit config (n_t = m_rpm = 1) raises ValueError, as in `simulate_ber`."""
    b = _bits(cfg)
    d, index = chan.distances()
    v = pep_of_event(unit_moments(chan), _power(p_s) * d)
    same_t, same_m, dist = pair_classes(cfg.n_t, cfg.m_rpm)
    weighted = dist * (v.exact if exact_pep else v.chiani)[index] / (dist.shape[0] * b)
    return (float(weighted[same_m].sum()), float(weighted[same_t].sum()),
            float(weighted[~same_t & ~same_m].sum()))


def aber_union(chan: Channel, cfg: SystemConfig, p_s: float, exact_pep: bool = False) -> float:
    """Union bound on the average bit error rate.

    Uses the Chiani closed-form PEP by default; exact_pep=True switches every
    term to the Craig integral.
    """
    return float(sum(aber_union_terms(chan, cfg, p_s, exact_pep)))


def diversity_slope(snr_db, aber) -> float:
    """Empirical diversity order: the negated least-squares slope of
    log10(aber) against snr_db / 10."""
    snr_db = np.asarray(snr_db, dtype=float)
    aber = np.asarray(aber, dtype=float)
    keep = aber > 0
    if keep.sum() < 2:
        raise ValueError("need at least 2 points with positive error rate")
    coeff = np.polyfit(snr_db[keep] / 10.0, np.log10(aber[keep]), 1)
    return float(-coeff[0])


def joint_distances(chan: Channel, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |c_i - c_j|^2 over the ordered pairs whose antenna and
    phase indices both differ, ascending, with their multiplicities."""
    d, index = chan.distances()
    same_t, same_m, _ = pair_classes(cfg.n_t, cfg.m_rpm)
    ids, mult = np.unique(index[~same_t & ~same_m], return_counts=True)
    return d[ids], mult.astype(float)


def capacity_closed(chan: Channel, cfg: SystemConfig, p_s: float) -> float:
    """Closed-form ergodic capacity of the joint discrete-input channel,
    in bits per channel use.

    C = 2*log2(n_t*M) - log2(n_t*M + sum over pairs with both indices
    different of L_xi(P_s/2)); it grows from the zero-power baseline to the
    limit log2(n_t*M).
    """
    k = cfg.n_t * cfg.m_rpm
    d, mult = joint_distances(chan, cfg)
    total = np.dot(mult, laplace(unit_moments(chan), _power(p_s) / 2.0 * d))
    return 2.0 * math.log2(k) - math.log2(k + total)
