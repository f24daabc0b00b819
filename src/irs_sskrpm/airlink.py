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

#: A `_ber_walk` table cell keeps 4 mantissa bits: it spans 1/16 to 1/32 of its lowest value.
_CELL_SHIFT = 52 - 4
_INF_CELL = int(np.float64(np.inf).view(np.int64)) >> _CELL_SHIFT


def rpm_phases(m_rpm: int) -> np.ndarray:
    """Reflection-phase constellation 2*pi*(m-1)/M for m = 1..M; first phase is 0."""
    if m_rpm < 1:
        raise ValueError(f"m_rpm={m_rpm} must be >= 1")
    return 2.0 * np.pi * np.arange(m_rpm) / m_rpm


def ml_detect(wedges: tuple[np.ndarray, np.ndarray], ip: np.ndarray) -> np.ndarray:
    """Joint ML decisions over the n_t*m_rpm hypotheses, one per trial.

    Every signature sqrt(nu) points[k] g_eff has the energy nu ||g_eff||^2, so
    the ML metric ||y - sqrt(P_s nu) points[k] g_eff||^2 is smallest for the
    point nearest in angle to the scalar ip = g_eff^H y (or any positive
    multiple, at any P_s > 0): the location owning the `Channel.wedges` interval
    that holds angle(ip), one binary search for the bisectors strictly below it, on ip
    of any shape. Returns flat t-major indices. At ip = 0 every score ties, so any decision
    is ML: +0 decides index 0, while -0.0 + 0j has angle pi and decides the owner of angle pi.
    """
    bisectors, winners = wedges
    return winners[np.searchsorted(bisectors, np.angle(ip))]


def _ber_walk(sqrt_ps: np.ndarray) -> tuple:
    """`_ber_decide`'s view of sqrt_ps, built once per call: the distinct positive amplitudes
    between -inf and NaN (grid[i] is the largest of their first i), their bucket table and its
    rounds (`_above`), np.unique's inverse, and whether zero is in."""
    amps, inverse = np.unique(sqrt_ps, return_inverse=True)
    zero = np.count_nonzero(amps[:1] == 0.0)  # zero power ties every score
    amps = amps[zero:]
    bits = amps.view(np.int64)
    # amps[i] is at or below the lowest value of the cells from ((bits[i] - 1) >> shift) + 1 up
    spans = np.diff(((bits - 1) >> _CELL_SHIFT) + 1, prepend=0, append=_INF_CELL + 1)
    table = np.repeat(np.arange(amps.size + 1), spans)
    rounds = int(np.max(np.arange(1, amps.size + 1) - table[bits >> _CELL_SHIFT], initial=0))
    return np.concatenate(([-np.inf], amps, [np.nan])), table, rounds, inverse, zero


def _above(grid: np.ndarray, table: np.ndarray, rounds: int, top: np.ndarray) -> np.ndarray:
    """np.searchsorted(grid[1:-1], top, "right") of a `_ber_walk` for tops in [+0, +inf], with no
    branch on top: positive floats order like their int64 bits, table[bits >> _CELL_SHIFT]
    counts the amplitudes at or below the lowest value of top's cell, and each of `rounds` steps
    adds the next one if it is at or below top (never past grid[-1], NaN)."""
    above = table[top.view(np.int64) >> _CELL_SHIFT]
    for _ in range(rounds):
        above += grid[1:][above] <= top
    return above


def _ber_decide(chan: Channel, walk: tuple, row: np.ndarray, x: np.ndarray,
                h: np.ndarray) -> np.ndarray:
    """The bit-error counts (int64) of the joint ML detector on the trials (row, x, h) of
    `simulate._ber_draw` at every amplitude of a `_ber_walk`, in the order of its sqrt_ps.

    Row side K + code sent points[code] with noise u = x + jy in the point's frame, scaled to
    unit signal, h = |y| and y >= 0 on side 1. The angle of points[code] (A + u) moves towards
    the point's as A grows, crossing edge j of `Channel.edges` (on its side) once, at
    a_j = h cot beta_j - x, decreasing in j. A trial counts its home's Hamming distance plus the
    step of each edge crossed (`Channel.walk`), walked edge by edge (a bucket, `_above`, and a
    bincount each) until its next crossing is below grid[1] (NaN with no positive amplitude). At
    zero power every score ties: index 0 is decided. `ml_detect` decides every positive amplitude
    of the trials the walk leaves: u or home edge within `_NEAR` of the real axis or the point, or
    an amplitude within the `Channel.walk` slack of a crossing, where rounding may decide either
    side (the walk reruns without it). Counts are bitwise `ml_detect`'s on points[code] (A + u)."""
    grid, table, rounds, inverse, zero = walk
    (narrow, home, cot, slack, step), amps, k = chan.walk, grid[1:-1], chan.points.size
    counts = np.zeros(amps.size + zero, np.int64)
    if zero:
        counts[0] = np.bincount(row, minlength=2 * k).reshape(2, k).sum(axis=0) @ chan.hamming[:, 0]
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
                go = np.flatnonzero(top >= grid[1])  # the trials that cross edge j or come near it
                if not go.size:
                    break
                ids, a, top = go if ids is None else ids[go], a[go], top[go]
                r, hr, xr, wr = r[go], hr[go], xr[go], wr[go]
                above = _above(grid, table, rounds, top)  # the amplitudes modelled past edge j
                gains += np.bincount(above, step[j][r], amps.size + 1)
                hit = ids[grid[above] >= np.subtract(a + a, top, out=a)]  # the band's bottom
                left[hit], again = True, again or hit.size > 0
                del a, top, above
    counts[zero:] = home[row[~left]].sum() + np.cumsum(gains[::-1])[::-1][1:]
    t = np.flatnonzero(left)
    if t.size:
        code, y = row[t] % k, np.where(row[t] < k, -h[t], h[t])
        ip = chan.points[code] * (amps[:, None] + (x[t] + 1j * y))
        decided = ml_detect(chan.wedges, ip.ravel()).reshape(ip.shape)
        counts[zero:] += chan.hamming[code, decided].sum(axis=1)
    return counts[inverse]
