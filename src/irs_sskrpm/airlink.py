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


def _ber_decide(chan: Channel, sqrt_ps: np.ndarray, code: np.ndarray, energy: np.ndarray,
                noise: np.ndarray) -> np.ndarray:
    """The bit-error counts (int64) of the joint ML detector on the trials (code, energy,
    noise) of `simulate._ber_draw` at every amplitude of sqrt_ps, in any order.

    With u = conj(points[code]) noise / (sqrt_nu energy), the detector reads the angle of
    A + u at amplitude A, which moves monotonically towards 0 as A grows: it crosses edge
    j of `Channel.edges` (on the side of Im u) once, at a_j = |Im u| cot beta_j - Re u,
    decreasing in j. A trial counts its home's Hamming distance plus a step per edge
    crossed (the tables of `Channel.walk`), walked edge by edge (one searchsorted and one
    bincount each) until its next crossing is below the smallest amplitude. `ml_detect`
    decides zero power and every amplitude of the trials the walk leaves: those whose u or
    home edge is within `_NEAR` of the real axis or the point, and those with an amplitude
    within `_SLACK` of a crossing, where rounding may put the detector on either side; a
    walk that meets one walks again without it. The counts are bitwise `ml_detect`'s."""
    amps, inverse = np.unique(sqrt_ps, return_inverse=True)
    narrow, home, cot, invsin, step = chan.walk
    k, zero = chan.points.size, np.count_nonzero(amps[:1] == 0.0)  # zero power ties every score
    amps, counts = amps[zero:], np.zeros(amps.size, np.int64)
    if zero:
        counts[0] = chan.hamming[code, ml_detect(chan.wedges, noise, 0.0)].sum()
    if not amps.size:
        return counts[inverse]
    u = chan.points.conj()[code] * noise * (1.0 / (chan.sqrt_nu * energy))  # bitwise the quotient
    row = k * (u.imag >= 0) + code
    y, x = np.abs(u.imag), u.real.copy()
    del u
    left = ~(y > 2.0 * _NEAR * np.abs(x)) | narrow[row]
    below = np.append(-np.inf, amps)  # below[i]: the largest of the first i amplitudes
    again = True
    while again:  # ends: each pass leaves more trials, and a trial left never walks again
        y[left], again = np.nan, False  # the walk passes them by
        ids, r, yr, xr, gains = None, row, y, x, np.zeros(amps.size + 1)
        with np.errstate(invalid="ignore"):
            for j in range(cot.shape[0]):
                # the amplitude a where the angle of a + x + jy (y > 0) crosses edge j and the top
                # of its rounding band, where the detector may read either side (NaN: never crossed)
                a = cot[j][r] * yr - xr
                top = (np.abs(a) + yr + np.abs(xr)) * invsin[j][r] * _SLACK + a
                go = np.flatnonzero(top >= amps[0])  # the trials that cross edge j or come near it
                if not go.size:
                    break
                ids, a, top = go if ids is None else ids[go], a[go], top[go]
                r, yr, xr = r[go], yr[go], xr[go]
                above = np.searchsorted(amps, top, "right")  # the amplitudes modelled past edge j
                gains += np.bincount(above, step[j][r], amps.size + 1)
                a = 2.0 * a - top  # the bottom of the band
                hit = ids[below[above] >= a]
                left[hit], again = True, again or hit.size > 0
                del a, top, above
    counts[zero:] = home[row[~left]].sum() + np.cumsum(gains[::-1])[::-1][1:]
    t = np.flatnonzero(left)
    if t.size:
        ip = (amps[:, None] * chan.sqrt_nu) * energy[t] * chan.points[code[t]] + noise[t]
        decided = ml_detect(chan.wedges, ip.ravel(), amps[0]).reshape(ip.shape)
        counts[zero:] += chan.hamming[code[t], decided].sum(axis=1)
    return counts[inverse]
