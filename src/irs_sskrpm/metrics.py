"""Analytical performance: pairwise error probabilities, the Hamming-weighted
union bound on the average bit error rate and the paper's closed-form
capacity expression for the discrete-input channel.

PEP of an event with statistic xi is E[Q(sqrt(P_s*xi/2))]. Craig's finite
integral for Q turns this into (1/pi) * int_0^{pi/2} L(P_s/(4*sin^2 w)) dw
where L is the Laplace transform of xi, evaluated by Gauss-Legendre on v in
(0, 1) under w = (pi/2) v^4: below a power of 1 the integrand turns within
about sqrt(P_s) of w = 0, and the nodes cluster there. The Chiani
two-exponential approximation of Q gives the closed form
L(P_s/4)/12 + L(P_s/3)/4 (`pep_chiani`). These arguments are the ones
consistent with Q(sqrt(P_s*xi/2)) and are validated against direct
quadrature and Monte-Carlo; the doubled-argument convention of some texts is
the PEP at 2*P_s. The union bound reads the Chiani form unless asked for the
exact one, and only the exact one runs the quadrature.

H is rank-1, so the PEP at P_s of the error event i -> j (flat t-major indices) is
that of one Rician statistic xi_1 (`ncx2.unit_moments`) at P_s*|c_i - c_j|^2. The
union bound, the closed-form capacity and the `pep` table evaluate xi_1 once per
transmit power over the distinct distances (`Channel.distances`), and take one power
or an array of powers. The union bound weighs each power's PEPs at the distances by
each class's summed Hamming distances there (`Channel.classes`) and sums over the
distances; the capacity reads the joint pairs' count at each distance there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import Channel, _frozen
from .config import SystemConfig
from .ncx2 import ErrorEventMoments, laplace, unit_moments


class NumericalError(RuntimeError):
    """A quadrature or evaluation failed to reach its required accuracy."""


#: Gauss-Legendre order of the Craig integral (>= 64) on the clustered nodes of
#: `_gl_nodes`; `pep_of_event` checks it against the doubled and quadrupled orders.
GL_ORDER = 96

_MAX_REL_SPREAD = 1e-9


def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes of order n on (0, 1), ascending, and weights summing to 1: Newton in
    theta on P_n(cos theta) from Tricomi's estimates for theta <= pi/2, mirrored to pi - theta."""
    theta = np.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    theta += (n - 1) / (8.0 * n ** 3) / np.tan(theta)
    for _ in range(4):  # the fourth pass moves theta by about an ulp up to n = 384
        s, p, d = np.sin(theta / 2.0) ** 2, 1.0, 0.0  # (1 - x) / 2 with no rounding of x
        for k in range(n):  # p = P_k(x), d = P_k(x) - P_{k-1}(x)
            d = (k * d - (4 * k + 2) * s * p) / (k + 1)
            p = p + d
        slope = 2.0 * s * p - d  # P_{n-1}(x) - x P_n(x)
        theta = theta + p * np.sin(theta) / (n * slope)
    v, w = np.sin(theta / 2.0) ** 2, (np.sin(theta) / slope) ** 2
    v, w = np.concatenate([v, 1.0 - v[::-1][n % 2:]]), np.concatenate([w, w[::-1][n % 2:]])
    return v, w / w.sum()


@lru_cache(maxsize=8)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Craig's 4 sin^2 w at the nodes on (0, pi/2), and the weights, read-only: `_legendre_rule`
    under w = (pi/2) v^4 with the Jacobian 2 pi v^3, so the nodes cluster at w = 0 as v^4."""
    v, w = _legendre_rule(order)
    return _frozen(4.0 * np.sin((np.pi / 2.0) * v ** 4) ** 2, w * 2.0 * np.pi * v ** 3)


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
    four_sin_sq, w = _gl_nodes(order)
    with np.errstate(over="ignore"):  # an overflowing argument is infinite: laplace gives 0
        a = np.divide.outer(p_s, four_sin_sq)
    return np.einsum("...k,k->...", laplace(mom, a), w) / np.pi  # each power's row on its own


def pep_chiani(mom: ErrorEventMoments, p_s):
    """Chiani closed-form PEP of an error event at transmit power p_s (unit
    noise), of p_s's shape; a non-finite value raises NumericalError."""
    p = _power(p_s)
    quarter, third = laplace(mom, np.stack([p / 4.0, p / 3.0]))
    v = quarter / 12.0 + third / 4.0
    if not np.all(np.isfinite(v)):
        raise NumericalError("Chiani closed-form PEP is not finite")
    return v


def pep_of_event(mom: ErrorEventMoments, p_s) -> PepValue:
    """PEP of an error event at transmit power p_s (unit noise); for an array
    of powers both fields are arrays of its shape.

    The exact value is the Craig integral on the nodes of `_gl_nodes` at order GL_ORDER,
    checked against the doubled order at every power; the powers whose relative spread exceeds
    1e-9 take the order-384 value if orders 192/384 pass the same gate, else NumericalError is
    raised. The value is capped at 1/2, the bound of Q on x >= 0, which the rule overshoots by
    a few ulps near zero power.
    """
    p = _power(p_s)
    lo, hi = (_craig_at_order(mom, p, order) for order in (GL_ORDER, 2 * GL_ORDER))
    redo = ~(np.abs(hi - lo) / np.maximum(np.abs(hi), 1e-300) <= _MAX_REL_SPREAD)  # NaN too
    if redo.any():
        hi, top = np.asarray(hi), _craig_at_order(mom, p[redo], 4 * GL_ORDER)
        spread = np.max(np.abs(top - hi[redo]) / np.maximum(np.abs(top), 1e-300))
        if not spread <= _MAX_REL_SPREAD:
            raise NumericalError(f"Craig quadrature did not converge: spread {spread:.3e} at "
                                 f"orders {2 * GL_ORDER}/{4 * GL_ORDER}")
        hi[redo] = top
    return PepValue(exact=np.minimum(hi, 0.5)[()], chiani=pep_chiani(mom, p))


def _shaped(values, p: np.ndarray):
    """values, one per entry of p in C order: a float for a scalar p, else an
    array of p's shape."""
    out = np.array(values, dtype=float).reshape(p.shape)
    return out if out.shape else float(out)


def aber_union_terms(chan: Channel, cfg: SystemConfig, p_s, exact_pep: bool = False) -> tuple:
    """The three union-bound components (antenna-only, phase-only, joint) at
    p_s, a scalar or an array of powers (floats or arrays of p_s's shape):
    over the ordered hypothesis pairs of each class, the sum of the PEPs
    weighted by the Hamming distance of the two labels, divided by K*b; each
    power's sums are its own. A zero-bit config (n_t = m_rpm = 1) raises
    ValueError, as in `simulate_ber`."""
    b = _bits(cfg)
    d, p = chan.distances[0], _power(p_s)
    mom, pd = unit_moments(chan), np.multiply.outer(p.ravel(), d)
    pep = pep_of_event(mom, pd).exact if exact_pep else pep_chiani(mom, pd)
    # per class, its summed Hamming distances times each power's PEPs, over the distances
    terms = ((chan.classes[:3, None] * pep).sum(-1) / (chan.points.size * b)).reshape(3, *p.shape)
    return tuple(terms if p.shape else terms.tolist())


def aber_union(chan: Channel, cfg: SystemConfig, p_s, exact_pep: bool = False):
    """Union bound on the average bit error rate at p_s, a scalar or an array
    of powers (a float or an array of p_s's shape).

    Uses the Chiani closed-form PEP by default; exact_pep=True switches every
    term to the Craig integral.
    """
    return sum(aber_union_terms(chan, cfg, p_s, exact_pep))


def joint_distances(chan: Channel) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |c_i - c_j|^2 over the ordered pairs whose antenna and
    phase indices both differ, ascending, with their multiplicities."""
    d, mult = chan.distances[0], chan.classes[3]
    return d[mult > 0], mult[mult > 0]


def capacity_closed(chan: Channel, cfg: SystemConfig, p_s):
    """The paper's closed-form capacity expression for the joint discrete-input
    channel, in bits per channel use, at p_s, a scalar or an array of powers (a
    float or an array of p_s's shape; one dot product per power).

    C = 2*log2(n_t*M) - log2(n_t*M + sum over pairs with both indices
    different of L_xi(P_s/2)); it grows from the zero-power baseline to the
    limit log2(n_t*M). It is not the mutual information: at zero power, where
    no information passes, it is 1 bit for n_t = M = 2.
    """
    k = cfg.n_t * cfg.m_rpm
    d, mult = joint_distances(chan)
    p = _power(p_s)
    lap = laplace(unit_moments(chan), np.multiply.outer(p.ravel() / 2.0, d))
    return _shaped([2.0 * math.log2(k) - math.log2(k + np.dot(mult, row)) for row in lap], p)
