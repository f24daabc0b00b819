"""Analytical performance: pairwise error probabilities, the Hamming-weighted
union bound on the average bit error rate and the closed-form ergodic
capacity of the discrete-input channel.

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

H is rank-1, so the statistic of the error event i -> j is |c_i - c_j|^2
times one Rician statistic xi_1 (`ncx2.unit_moments`), and its PEP at P_s
is the PEP of xi_1 at the effective power P_s*|c_i - c_j|^2, for a pair
(i, j) of flat t-major hypothesis indices. The union bound, the closed-form
capacity and the `pep` table therefore evaluate xi_1 once per transmit power,
over the distinct constellation distances (`Channel.distances`), and take
one power or an array of powers; the pair classes are the channel's (`Channel.classes`).
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


#: Gauss-Legendre order for the Craig integral (>= 64), on the clustered
#: nodes of `_gl_nodes`; convergence is checked against the doubled order on
#: every evaluation.
GL_ORDER = 96

_MAX_REL_SPREAD = 1e-9


@lru_cache(maxsize=8)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Craig's 4 sin^2 w at the nodes on (0, pi/2), and the weights, read-only: Gauss-Legendre
    on v in (0, 1) under w = (pi/2) v^4, the weights carrying the Jacobian 2 pi v^3, so the
    nodes cluster at w = 0 as v^4."""
    x, w = np.polynomial.legendre.leggauss(order)
    v = (x + 1.0) / 2.0
    return _frozen(4.0 * np.sin((np.pi / 2.0) * v ** 4) ** 2, w * np.pi * v ** 3)


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
    return laplace(mom, a) @ w / np.pi


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

    The exact value is the Craig integral by fixed-order Gauss-Legendre on v
    in (0, 1) under w = (pi/2) v^4, whose nodes cluster where the integrand
    turns below an effective power of 1 (within about sqrt(p_s) of w = 0),
    checked against the doubled order at every power: a relative spread above
    1e-9 raises NumericalError. The value is capped at 1/2, the bound of Q on
    x >= 0, which the rule overshoots by a few ulps near zero power.
    """
    p = _power(p_s)
    lo, hi = (_craig_at_order(mom, p, order) for order in (GL_ORDER, 2 * GL_ORDER))
    spread = np.max(np.abs(hi - lo) / np.maximum(np.abs(hi), 1e-300), initial=0.0)
    if not spread <= _MAX_REL_SPREAD:
        raise NumericalError(f"Craig quadrature did not converge: spread {spread:.3e} at "
                             f"orders {GL_ORDER}/{2 * GL_ORDER}")
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
    scale = chan.points.size * b
    # each class gathered once; one 1-D sum per class and power, as a lone call makes
    terms = [[(weight * row[at] / scale).sum() for at, weight in chan.classes] for row in pep]
    return tuple(_shaped(column, p) for column in np.reshape(terms, (-1, 3)).T)


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
    ids, mult = np.unique(chan.classes[2][0], return_counts=True)
    return chan.distances[0][ids], mult.astype(float)


def capacity_closed(chan: Channel, cfg: SystemConfig, p_s):
    """Closed-form ergodic capacity of the joint discrete-input channel,
    in bits per channel use, at p_s, a scalar or an array of powers (a float
    or an array of p_s's shape; one dot product per power).

    C = 2*log2(n_t*M) - log2(n_t*M + sum over pairs with both indices
    different of L_xi(P_s/2)); it grows from the zero-power baseline to the
    limit log2(n_t*M).
    """
    k = cfg.n_t * cfg.m_rpm
    d, mult = joint_distances(chan)
    p = _power(p_s)
    lap = laplace(unit_moments(chan), np.multiply.outer(p.ravel() / 2.0, d))
    return _shaped([2.0 * math.log2(k) - math.log2(k + np.dot(mult, row)) for row in lap], p)
