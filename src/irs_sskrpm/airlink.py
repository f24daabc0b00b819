"""Hypothesis labels and joint ML detection.

A transmitted hypothesis is the pair (t, m): active BS antenna t in [1, n_t]
and reflection-phase index m in [1, m_rpm]. Its bit label is the natural
binary code of t-1 (width log2(n_t)) followed by that of m-1 (width
log2(m_rpm)), so the label read as an integer is the flat hypothesis index
(t-1)*m_rpm + (m-1): the flat index is the label (see `Channel.hamming`).

`ml_detect` decides one scalar per trial; `_ber_decide` counts the detector's bit
errors on a block of trials at a whole grid of powers, by walking each trial's
wedge-edge crossings (`Channel.edges`) instead of detecting every (trial, power).
"""

from __future__ import annotations

import numpy as np

from .channel import _NEAR, Channel

#: `_ber_decide`'s relative slack on a crossing amplitude.
_SLACK = 1e-9


def rpm_phases(m_rpm: int) -> np.ndarray:
    """Reflection-phase constellation 2*pi*(m-1)/M for m = 1..M; first phase is 0."""
    if m_rpm < 1:
        raise ValueError(f"m_rpm={m_rpm} must be >= 1")
    return 2.0 * np.pi * np.arange(m_rpm) / m_rpm


def ml_detect(wedges: tuple[np.ndarray, np.ndarray], ip: np.ndarray,
              sqrt_p: float) -> np.ndarray:
    """Joint ML decisions over the n_t*m_rpm hypotheses, one per trial.

    Every signature sqrt(nu) points[k] g_eff has the energy nu ||g_eff||^2, so
    the ML metric ||y - sqrt(P_s nu) points[k] g_eff||^2 is smallest for the
    point nearest in angle to the scalar ip = g_eff^H y (or any positive
    multiple): the location owning the `Channel.wedges` interval that holds
    angle(ip), found by counting the bisectors below it. Returns flat t-major
    indices; ip = 0 and P_s = 0 (every score ties) decide index 0.
    """
    bisectors, winners = wedges
    theta = np.angle(ip) if sqrt_p > 0 else np.zeros(np.shape(ip))
    below = np.sum(theta > bisectors[:, None], axis=0, dtype=np.min_scalar_type(bisectors.size))
    return winners[below]


def _ber_walk(chan: Channel, sqrt_ps: np.ndarray) -> tuple:
    """`_ber_decide`'s view of sqrt_ps, built once per call: the distinct positive amplitudes,
    below[i] (the largest of their first i), np.unique's inverse, whether zero is in, _SLACK/sin."""
    amps, inverse = np.unique(sqrt_ps, return_inverse=True)
    zero = np.count_nonzero(amps[:1] == 0.0)  # zero power ties every score
    return amps[zero:], np.append(-np.inf, amps[zero:]), inverse, zero, chan.walk[3] * _SLACK


def _ber_decide(chan: Channel, walk: tuple, row: np.ndarray, x: np.ndarray,
                h: np.ndarray) -> np.ndarray:
    """The bit-error counts (int64) of the joint ML detector on the trials (row, x, h) of
    `simulate._ber_draw` at every amplitude of a `_ber_walk`, in the order of its sqrt_ps.

    Row side K + code sent points[code] with noise u = x + jy in the point's frame, scaled to
    unit signal, h = |y| and y >= 0 on side 1. The angle of points[code] (A + u) moves towards
    the point's as A grows, crossing edge j of `Channel.edges` (on its side) once, at
    a_j = h cot beta_j - x, decreasing in j. A trial counts its home's Hamming distance plus the
    step of each edge crossed (`Channel.walk`), walked edge by edge (a searchsorted and a
    bincount each) until its next crossing is below the smallest amplitude. `ml_detect` decides
    zero power and every amplitude of the trials the walk leaves: u or home edge within `_NEAR`
    of the real axis or the point, or an amplitude within `_SLACK` of a crossing, where rounding
    may put the detector on either side (the walk then runs again without it). The counts are
    bitwise `ml_detect`'s on points[code] (A + u)."""
    (amps, below, inverse, zero, slack), (narrow, home, cot, _, step) = walk, chan.walk
    k, counts = chan.points.size, np.zeros(amps.size + zero, np.int64)
    if zero:
        counts[0] = chan.hamming[row % k, ml_detect(chan.wedges, x, 0.0)].sum()
    if not amps.size:
        return counts[inverse]
    width = np.abs(x)
    left = ~(h > 2.0 * _NEAR * width) | narrow[row]
    width += h  # h + |x|, which with |a| sets the width of a crossing's rounding band
    again = True
    while again:  # ends: each pass leaves more trials, and a trial left never walks again
        width[left], again = np.nan, False  # the walk passes them by
        ids, r, hr, xr, wr, gains = None, row, h, x, width, np.zeros(amps.size + 1)
        with np.errstate(invalid="ignore"):
            for j in range(cot.shape[0]):
                # the amplitude a where the angle of a + x + jh crosses edge j and the top of
                # its rounding band, where the detector may read either side (NaN: never crossed)
                a = cot[j][r]
                np.subtract(np.multiply(a, hr, out=a), xr, out=a)
                top = np.abs(a)
                np.add(np.multiply(np.add(top, wr, out=top), slack[j][r], out=top), a, out=top)
                go = np.flatnonzero(top >= amps[0])  # the trials that cross edge j or come near it
                if not go.size:
                    break
                ids, a, top = go if ids is None else ids[go], a[go], top[go]
                r, hr, xr, wr = r[go], hr[go], xr[go], wr[go]
                above = np.searchsorted(amps, top, "right")  # the amplitudes modelled past edge j
                gains += np.bincount(above, step[j][r], amps.size + 1)
                hit = ids[below[above] >= np.subtract(a + a, top, out=a)]  # the band's bottom
                left[hit], again = True, again or hit.size > 0
                del a, top, above
    counts[zero:] = home[row[~left]].sum() + np.cumsum(gains[::-1])[::-1][1:]
    t = np.flatnonzero(left)
    if t.size:
        code, y = row[t] % k, np.where(row[t] < k, -h[t], h[t])
        ip = chan.points[code] * (amps[:, None] + (x[t] + 1j * y))
        decided = ml_detect(chan.wedges, ip.ravel(), amps[0]).reshape(ip.shape)
        counts[zero:] += chan.hamming[code, decided].sum(axis=1)
    return counts[inverse]
