"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's moment/Laplace code paths
and its rank-1 Monte-Carlo kernel: statistics are sampled from raw draws of
the full N x n_r matrix G and signature differences, and integrals are
evaluated with scipy's adaptive quadrature against the closed-form density.
These are the reference implementations the library is checked against.
`sample_g` is the full Rician IRS->UT draw G that the sampled statistics start from.
`craig_by_quadrature` integrates Craig's form itself, with the transform
written out, as the reference for the library's node rule, and
`laplace_reference` is the library's transform computed out of place, the
bitwise reference for its in-place buffers.

The per-event loops at the end are the exception: they rebuild the union
bound, the closed-form capacity and the pep table one error event at a time
from `pep_of_event(moments_*)` (whose moments and integrals the oracles
above check), as the reference for the vectorised hypothesis-pair table;
`pep_events_reference` lists the pep table's rows one event at a time, and
`pep_csv_reference` formats the whole CSV from them line by line.
`distances_reference` is `Channel.distances` deduplicated over the full
(K, K) table of gathered group distances, and `aber_union_terms_table_reference`
sums the library's PEPs through the full (K, K) table of weighted terms.
`capacity_sampled_reference` is `simulate_capacity` at one power, summed over
every joint pair of the label masks on the library's chunk draws of ||g_eff||^2
(`energy_reference`, the library's `_energy` written out of place).
`ber_chunk_reference` is the dense per-power BER chunk the library's kernel
must count exactly: its draws (`ber_draw_reference`: the codes, ||g_eff||^2 and
the noise u in the sent point's frame) and every trial decided by `ml_detect` on
points[code] (A + u) at every amplitude A (`ber_decide_reference`, which also
takes synthetic trials); `ber_chunk` runs the library's kernel on one chunk as
`simulate_ber` does. `pair_classes_reference` builds the label tables from the flat indices'
antenna and phase indices, independently of `Channel.hamming` and `Channel.classes`.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
from scipy import integrate, special, stats

from irs_sskrpm import (PepValue, SystemConfig, build_g_bar, build_h, laplace, make_channel,
                        ml_detect, moments_joint, moments_rpm, moments_ssk, pep_chiani,
                        pep_of_event, rpm_phases, simulate, unit_moments)
from irs_sskrpm.airlink import _ber_decide
from irs_sskrpm.channel import Channel, _group, rician_weights
from irs_sskrpm.ncx2 import ErrorEventMoments


def ncx2_pdf(x, mom: ErrorEventMoments):
    """Density of xi at x > 0.

    Assembled in log space with the exponentially scaled Bessel function
    ive(n_r - 1, .), which keeps the evaluation finite for large
    sqrt(x)*s/sigma^2. For s^2 = 0 the noncentral form is singular and the
    central limit applies: a gamma density with shape n_r and scale 2*sigma^2.
    """
    if mom.sigma_sq <= 0:
        raise ValueError(f"sigma_sq={mom.sigma_sq} must be positive for a density")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("x must be strictly positive")
    nr = mom.n_r
    two_sig = 2.0 * mom.sigma_sq
    if mom.s_sq == 0.0:
        log_pdf = ((nr - 1) * np.log(x) - x / two_sig
                   - nr * np.log(two_sig) - special.gammaln(nr))
        out = np.exp(log_pdf)
        return out if out.shape else float(out)
    s = np.sqrt(mom.s_sq)
    sqrt_x = np.sqrt(x)
    z = sqrt_x * s / mom.sigma_sq
    log_pdf = (-np.log(two_sig)
               + 0.5 * (nr - 1) * (np.log(x) - np.log(mom.s_sq))
               - (sqrt_x - s) ** 2 / two_sig
               + np.log(special.ive(nr - 1, z)))
    out = np.exp(log_pdf)
    return out if out.shape else float(out)


def event_direction(cfg: SystemConfig, h: np.ndarray, kind: str,
                    t: int, t_hat: int, m: int, m_hat: int) -> np.ndarray:
    """Signature-difference direction d of one error event (xi = ||G^H d||^2)."""
    phases = rpm_phases(cfg.m_rpm)
    if kind == "ssk":
        return h[:, t - 1] - h[:, t_hat - 1]
    if kind == "rpm":
        return (np.exp(1j * phases[m - 1]) - np.exp(1j * phases[m_hat - 1])) * h[:, t - 1]
    if kind == "joint":
        return (np.exp(1j * phases[m - 1]) * h[:, t - 1]
                - np.exp(1j * phases[m_hat - 1]) * h[:, t_hat - 1])
    raise ValueError(kind)


def sample_g(cfg: SystemConfig, g_bar: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one Rician IRS->UT realization.

    G = sqrt(K*nu_r/(1+K)) * g_bar + sqrt(nu_r/(1+K)) * W with W entries
    i.i.d. CN(0, 1) (real and imaginary parts each of variance 1/2).
    """
    n, n_r = g_bar.shape
    if (n, n_r) != (cfg.n_elements, cfg.n_r):
        raise ValueError(f"g_bar has shape {g_bar.shape}, expected {(cfg.n_elements, cfg.n_r)}")
    w_los, w_nlos = rician_weights(cfg)
    parts = rng.standard_normal((2, n, n_r))
    w = (parts[0] + 1j * parts[1]) * np.sqrt(0.5)
    return w_los * g_bar + w_nlos * w


def full_g_signatures(cfg: SystemConfig, g: np.ndarray) -> np.ndarray:
    """All hypothesis signatures e^{j phi_m} G^H h_t of one full N x n_r draw G,
    shape (n_t*m_rpm, n_r), t-major."""
    base = g.conj().T @ build_h(cfg)                      # (n_r, n_t)
    phasors = np.exp(1j * rpm_phases(cfg.m_rpm))
    return (base.T[:, None, :] * phasors[None, :, None]).reshape(-1, g.shape[1])


def ml_detect_reference(points: np.ndarray, ip: np.ndarray, sqrt_p: float) -> np.ndarray:
    """Exhaustive joint ML decisions: the argmin over all K hypotheses of the
    score -2 sqrt(P_s) Re(conj(points[k]) ip), ip = sqrt(nu) g_eff^H y (one
    entry per trial); ties, such as every score at P_s = 0 or y = 0, go to
    the smallest index."""
    score = -2.0 * sqrt_p * np.real(ip[:, None] * points.conj())
    return np.argmin(score, axis=1)


def sample_xi(cfg: SystemConfig, d: np.ndarray, n_samples: int,
              rng: np.random.Generator) -> np.ndarray:
    """Draw the decision statistic directly: redraw G, form G^H d, take the norm."""
    g_bar = build_g_bar(cfg)
    w_los, w_nlos = rician_weights(cfg)
    n, n_r = g_bar.shape
    out = np.empty(n_samples)
    done = 0
    while done < n_samples:
        block = min(n_samples - done, 50_000)
        w = (rng.standard_normal((block, n, n_r))
             + 1j * rng.standard_normal((block, n, n_r))) * np.sqrt(0.5)
        g = w_los * g_bar[None] + w_nlos * w
        proj = np.einsum("bnr,n->br", g.conj(), d)
        out[done:done + block] = np.sum(np.abs(proj) ** 2, axis=1)
        done += block
    return out


def pairwise_error_rate(cfg: SystemConfig, kind: str,
                        t: int, t_hat: int, m: int, m_hat: int,
                        p_s: float, trials: int, rng: np.random.Generator) -> tuple[float, float]:
    """Binary hypothesis test between (t, m) and (t_hat, m_hat).

    Per trial: redraw G, transmit the (t, m) signature in CN(0, I) noise and
    pick the closer of the two candidate signatures. Returns the error
    fraction and its binomial standard error. For kind "ssk" the phase index
    is common to both hypotheses; for "rpm" the antenna is.
    """
    h = build_h(cfg)
    g_bar = build_g_bar(cfg)
    w_los, w_nlos = rician_weights(cfg)
    n, n_r = g_bar.shape
    phases = rpm_phases(cfg.m_rpm)
    pt = np.exp(1j * phases[m - 1])
    pth = pt if kind == "ssk" else np.exp(1j * phases[m_hat - 1])
    t_hat_eff = t if kind == "rpm" else t_hat
    sqrt_p = math.sqrt(p_s)
    errors = 0
    done = 0
    while done < trials:
        block = min(trials - done, 50_000)
        w = (rng.standard_normal((block, n, n_r))
             + 1j * rng.standard_normal((block, n, n_r))) * np.sqrt(0.5)
        g = w_los * g_bar[None] + w_nlos * w
        lam_true = pt * np.einsum("bnr,n->br", g.conj(), h[:, t - 1])
        lam_alt = pth * np.einsum("bnr,n->br", g.conj(), h[:, t_hat_eff - 1])
        z = (rng.standard_normal((block, n_r))
             + 1j * rng.standard_normal((block, n_r))) * np.sqrt(0.5)
        y = sqrt_p * lam_true + z
        d_true = np.sum(np.abs(y - sqrt_p * lam_true) ** 2, axis=1)
        d_alt = np.sum(np.abs(y - sqrt_p * lam_alt) ** 2, axis=1)
        errors += int(np.sum(d_alt < d_true))
        done += block
    rate = errors / trials
    stderr = math.sqrt(max(rate * (1.0 - rate), 1.0 / trials) / trials)
    return rate, stderr


def ber_full_g(cfg: SystemConfig, p_s: float, trials: int,
               rng: np.random.Generator) -> float:
    """Average bit error rate from the full signal model.

    Per trial: uniform hypothesis, a fresh N x n_r matrix G, the received
    vector sqrt(P_s) e^{j phi_m} G^H h_t + noise and exhaustive ML detection
    over the per-antenna signatures G^H h_t.
    """
    n, n_r, n_t, m_rpm = cfg.n_elements, cfg.n_r, cfg.n_t, cfg.m_rpm
    h = build_h(cfg)
    g_bar = build_g_bar(cfg)
    w_los, w_nlos = rician_weights(cfg)
    phasors = np.exp(1j * rpm_phases(m_rpm))
    popcount = np.array([bin(v).count("1") for v in range(n_t * m_rpm)])
    sqrt_p = math.sqrt(p_s)
    errors = 0
    done = 0
    while done < trials:
        block = min(trials - done, 8192)
        code = rng.integers(0, n_t * m_rpm, size=block)
        gw = rng.standard_normal((2, block, n, n_r))
        zw = rng.standard_normal((2, block, n_r))
        g = w_los * g_bar[None] + w_nlos * math.sqrt(0.5) * (gw[0] + 1j * gw[1])
        z = math.sqrt(0.5) * (zw[0] + 1j * zw[1])
        base = np.einsum("bnr,nt->brt", g.conj(), h)          # G^H h_t per trial
        t_idx, m_idx = np.divmod(code, m_rpm)
        y = sqrt_p * phasors[m_idx][:, None] * base[np.arange(block), :, t_idx] + z
        energy = np.sum(np.abs(base) ** 2, axis=1)            # (trials, n_t)
        ip = np.einsum("brt,br->bt", base.conj(), y)          # (trials, n_t)
        score = (p_s * energy[:, :, None]
                 - 2.0 * sqrt_p * np.real(ip[:, :, None] * phasors.conj()[None, None, :]))
        detected = np.argmin(score.reshape(block, n_t * m_rpm), axis=1)
        errors += int(popcount[code ^ detected].sum())
        done += block
    return errors / (cfg.bits_total * trials)


def energy_reference(chan: Channel, rng: np.random.Generator, n: int) -> np.ndarray:
    """`simulate._energy` written out of place: the library's draws in its order (and an empty
    one at n_r = 1, which moves no generator) and its operations in theirs, so its values are
    bitwise the library's: n draws of ||g_eff||^2 = |m + scale z_1|^2 + scale^2 (E_2 + ... +
    E_{n_r}), m = ||mean||."""
    re, im = simulate._polar(rng, n, chan.scale)
    rest = rng.standard_exponential((chan.mean.size - 1, n)).sum(axis=0)
    return (re + np.linalg.norm(chan.mean)) ** 2 + im ** 2 + chan.scale ** 2 * rest


def ber_draw_reference(chan: Channel, seed: int, chunk_index: int,
                       n_trials: int) -> tuple[np.ndarray, ...]:
    """A BER chunk's draws with the library's own generator and draw order: each trial's
    symbol code, ||g_eff||^2 (`energy_reference`), and the real and imaginary parts of
    u = w / (sqrt(nu) ||g_eff||), w ~ CN(0, 1)."""
    rng = simulate._chunk_rng(seed, simulate._DOMAIN_BER, 0, chunk_index)
    code = rng.integers(0, chan.points.size, size=n_trials)
    energy = energy_reference(chan, rng, n_trials)
    return (code, energy, *simulate._polar(rng, n_trials, 1.0 / (np.sqrt(energy) * chan.sqrt_nu)))


def pair_classes_reference(n_t: int, m_rpm: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Over the ordered pairs (i, j) of flat hypothesis indices, each (K, K): same antenna,
    same phase, and the labels' Hamming distance popcount(i ^ j)."""
    idx = np.arange(n_t * m_rpm)
    t, m = np.divmod(idx, m_rpm)
    weight = np.array([bin(v).count("1") for v in range(idx.size)])
    return (t[:, None] == t[None, :], m[:, None] == m[None, :],
            weight[np.bitwise_xor.outer(idx, idx)])


def ber_chunk(chan: Channel, sqrt_ps: np.ndarray, seed: int, chunk_index: int,
              n_trials: int) -> np.ndarray:
    """The library's bit-error counts of one chunk at every amplitude of sqrt_ps, as
    `simulate_ber` counts each of its chunks."""
    return _ber_decide(chan, sqrt_ps, *simulate._ber_draw(chan, seed, chunk_index, n_trials))


def ber_decide_reference(chan: Channel, wedges: tuple[np.ndarray, np.ndarray],
                         hamming: np.ndarray, sqrt_ps: np.ndarray, code: np.ndarray,
                         x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The bit-error counts of `airlink._ber_decide` the dense way: one `ml_detect` pass
    over every trial (code, u = x + jy) at each amplitude A of sqrt_ps, on the scalar
    points[code] (A + u), in the given order."""
    signal, u = chan.points[code], x + 1j * y
    row, flat = code * hamming.shape[1], hamming.ravel()
    return np.array([flat[row + ml_detect(wedges, signal * (sqrt_p + u), sqrt_p)].sum()
                     for sqrt_p in sqrt_ps.tolist()], dtype=np.int64)


def ber_chunk_reference(chan: Channel, wedges: tuple[np.ndarray, np.ndarray],
                        hamming: np.ndarray, sqrt_ps: np.ndarray, seed: int,
                        chunk_index: int, n_trials: int) -> np.ndarray:
    """The bit-error counts of `ber_chunk` the dense way: the chunk's draws
    (`ber_draw_reference`) decided by `ber_decide_reference`."""
    code, _, x, y = ber_draw_reference(chan, seed, chunk_index, n_trials)
    return ber_decide_reference(chan, wedges, hamming, sqrt_ps, code, x, y)


def capacity_sampled_reference(cfg: SystemConfig, p_s: float, samples: int, seed: int,
                               point_index: int) -> tuple[float, float]:
    """`simulate_capacity`'s (capacity, stderr) at one power p_s, drawn as sweep point
    point_index: the library's chunk generator and draw order, and per sample the sum of
    exp(-p_s nu |c_i - c_j|^2 ||g_eff||^2 / 2) over every ordered pair (i, j) whose antenna
    and phase indices both differ, taken from the label masks and the points themselves.
    C = 2 log2 K - log2(K + mean), stderr = std / sqrt(n) / ((K + mean) ln 2) with the
    unbiased sample standard deviation."""
    chan = make_channel(cfg)
    k = chan.points.size
    t, m = np.divmod(np.arange(k), cfg.m_rpm)
    joint = (t[:, None] != t) & (m[:, None] != m)
    d2 = np.abs(chan.points[:, None] - chan.points) ** 2
    agg = []
    for c, lo in enumerate(range(0, samples, simulate.CHUNK_TRIALS)):
        size = min(simulate.CHUNK_TRIALS, samples - lo)
        rng = simulate._chunk_rng(seed, simulate._DOMAIN_CAPACITY, point_index, c)
        energy = energy_reference(chan, rng, size)
        # one row i of pairs at a time keeps the block at (size, K)
        agg.append(sum(np.exp(-0.5 * p_s * cfg.nu * np.multiply.outer(energy, d2[i][joint[i]]))
                       .sum(axis=1) for i in range(k)))
    a = np.concatenate(agg)
    mean = a.mean()
    std = a.std(ddof=1) if samples > 1 else math.inf
    return (2.0 * math.log2(k) - math.log2(k + mean),
            std / math.sqrt(samples) / ((k + mean) * math.log(2.0)))


def pdf_mass(mom: ErrorEventMoments) -> float:
    """Adaptive quadrature of the density over (0, inf)."""
    cut = float(stats.ncx2.isf(1e-14, df=2 * mom.n_r, nc=mom.s_sq / mom.sigma_sq)) * mom.sigma_sq
    val, _ = integrate.quad(lambda x: ncx2_pdf(x, mom), 0.0, cut,
                            limit=400, epsabs=1e-13, epsrel=1e-12)
    return val


def pdf_mean(mom: ErrorEventMoments) -> float:
    cut = float(stats.ncx2.isf(1e-15, df=2 * mom.n_r, nc=mom.s_sq / mom.sigma_sq)) * mom.sigma_sq
    val, _ = integrate.quad(lambda x: x * ncx2_pdf(x, mom), 0.0, cut,
                            limit=400, epsabs=1e-13, epsrel=1e-12)
    return val


def laplace_by_quadrature(mom: ErrorEventMoments, a: float) -> float:
    """Direct quadrature of E[exp(-a*xi)] against the density."""
    cut = float(stats.ncx2.isf(1e-15, df=2 * mom.n_r, nc=mom.s_sq / mom.sigma_sq)) * mom.sigma_sq
    mode = mom.s_sq + 2 * mom.n_r * mom.sigma_sq
    pts = sorted(p for p in (1.0 / a if a > 0 else cut / 2, mode) if 0 < p < cut)
    val, _ = integrate.quad(lambda x: math.exp(-a * x) * ncx2_pdf(x, mom), 0.0, cut,
                            points=pts or None, limit=400, epsabs=1e-14, epsrel=1e-12)
    return val


def laplace_reference(mom: ErrorEventMoments, a):
    """`ncx2.laplace` written out of place: the same operations in the same order, each
    into a new array, so its values are bitwise the library's."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        denom = 1.0 + a * (2.0 * mom.sigma_sq)
        if np.any(denom <= 0.0 if mom.sigma_sq else a == -np.inf):
            raise ValueError("transform argument outside the stability region")
        x = 1.0 / denom
        out, n = np.exp(a * -mom.s_sq * x), mom.n_r
        while n:
            out, n = (out * x if n & 1 else out), n >> 1
            x = x * x if n else x
    limit = np.isinf(denom) if mom.sigma_sq else a == np.inf
    out = np.where(limit, 0.0, out) if limit.any() else out
    return out if out.shape else float(out)


def pep_by_quadrature(mom: ErrorEventMoments, p_s: float) -> float:
    """Direct quadrature of E[Q(sqrt(P_s*xi/2))] against the density."""
    cut = float(stats.ncx2.isf(1e-15, df=2 * mom.n_r, nc=mom.s_sq / mom.sigma_sq)) * mom.sigma_sq

    def integrand(x):
        return 0.5 * special.erfc(math.sqrt(p_s * x) / 2.0) * ncx2_pdf(x, mom)

    mode = mom.s_sq + 2 * mom.n_r * mom.sigma_sq
    pts = sorted(p for p in (4.0 / p_s if p_s > 0 else cut / 2, mode) if 0 < p < cut)
    val, _ = integrate.quad(integrand, 0.0, cut, points=pts or None,
                            limit=500, epsabs=1e-16, epsrel=1e-11)
    return val


def craig_by_quadrature(mom: ErrorEventMoments, a: float) -> float:
    """Adaptive quadrature of Craig's form (1/pi) int_0^{pi/2} L(a/(4 sin^2 w)) dw
    at effective power a, with L the closed-form transform of xi; breakpoints at
    sqrt(a)*10^k, k = -3..3, bracket the layer near w = 0 where L turns."""
    def integrand(w):
        s = a / (4.0 * math.sin(w) ** 2)
        denom = 1.0 + 2.0 * s * mom.sigma_sq
        return denom ** -mom.n_r * math.exp(-s * mom.s_sq / denom)

    pts = [math.sqrt(a) * 10.0 ** k for k in range(-3, 4)]
    val, _ = integrate.quad(integrand, 0.0, math.pi / 2.0,
                            points=[p for p in pts if 0 < p < math.pi / 2.0] or None,
                            limit=400, epsabs=0.0, epsrel=1e-13)
    return val / math.pi


def crossing_snr(snr_db, values, level) -> float | None:
    """SNR where a positive, decreasing (or increasing) curve crosses `level`,
    by log-linear (linear for capacity-like curves) interpolation."""
    snr_db = np.asarray(snr_db, dtype=float)
    values = np.asarray(values, dtype=float)
    logs = np.log10(values)
    target = math.log10(level)
    for i in range(len(snr_db) - 1):
        lo, hi = logs[i], logs[i + 1]
        if (lo - target) * (hi - target) <= 0 and lo != hi:
            f = (target - lo) / (hi - lo)
            return float(snr_db[i] + f * (snr_db[i + 1] - snr_db[i]))
    return None


def crossing_snr_linear(snr_db, values, level) -> float | None:
    snr_db = np.asarray(snr_db, dtype=float)
    values = np.asarray(values, dtype=float)
    for i in range(len(snr_db) - 1):
        lo, hi = values[i], values[i + 1]
        if (lo - level) * (hi - level) <= 0 and lo != hi:
            f = (level - lo) / (hi - lo)
            return float(snr_db[i] + f * (snr_db[i + 1] - snr_db[i]))
    return None


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


# ---- per-event references for the hypothesis-pair table ----------------------

def pair_distances_reference(points: np.ndarray) -> np.ndarray:
    """The full (K, K) table |c_i - c_j|^2 over the ordered pairs of points,
    one subtraction per pair (the reference for `Channel.distances`)."""
    return np.array([[abs(ci - cj) ** 2 for cj in points] for ci in points])


def distances_reference(chan: Channel) -> tuple[np.ndarray, np.ndarray]:
    """`Channel.distances` by the rule that deduplicates the gathered (K, K) table:
    each pair takes the folded group of turns nearest its offset, and `np.unique`
    runs over the group distances read at every pair."""
    first, group = _group(chan.turns)
    owned = chan.turns[first][group]
    offset = owned[None, :] - owned[:, None]
    offset = np.abs(offset - np.rint(offset))
    first, _ = _group(chan.turns, fold=True)
    near = np.append(np.abs(chan.turns[first]), np.inf)
    above = np.searchsorted(near, offset).clip(1)
    nearest = np.where(offset - near[above - 1] <= near[above] - offset, above - 1, above)
    d, index = np.unique((np.abs(1.0 - chan.points[first]) ** 2)[nearest], return_inverse=True)
    return d, index.reshape(offset.shape)


def _hamming(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def _ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]


def _pep_rpm(chan: Channel, cfg: SystemConfig, m: int, m_hat: int, p_s: float) -> PepValue:
    """PEP of the phase error m -> m_hat, averaged over the active antenna."""
    vals = [pep_of_event(moments_rpm(chan.h, chan.g_bar, cfg, t, m, m_hat), p_s)
            for t in range(1, cfg.n_t + 1)]
    return PepValue(exact=float(np.mean([v.exact for v in vals])),
                    chiani=float(np.mean([v.chiani for v in vals])))


def aber_union_terms_reference(chan: Channel, cfg: SystemConfig, p_s: float,
                               exact_pep: bool = False) -> tuple[float, float, float]:
    """Union-bound components (antenna-only, phase-only, joint) summed event
    by event: each PEP weighted by the Hamming distance of the two labels."""
    b = cfg.bits_total
    pick = (lambda v: v.exact) if exact_pep else (lambda v: v.chiani)
    h, g_bar = chan.h, chan.g_bar
    p_ssk = sum(_hamming(t - 1, t_hat - 1)
                * pick(pep_of_event(moments_ssk(h, g_bar, cfg, t, t_hat), p_s))
                for t, t_hat in _ordered_pairs(cfg.n_t)) / (cfg.n_t * b)
    p_rpm = sum(_hamming(m - 1, m_hat - 1) * pick(_pep_rpm(chan, cfg, m, m_hat, p_s))
                for m, m_hat in _ordered_pairs(cfg.m_rpm)) / (cfg.m_rpm * b)
    p_joint = 0.0
    for m, m_hat in _ordered_pairs(cfg.m_rpm):
        for t, t_hat in _ordered_pairs(cfg.n_t):
            d = _hamming(t - 1, t_hat - 1) + _hamming(m - 1, m_hat - 1)
            mom = moments_joint(h, g_bar, cfg, t, t_hat, m, m_hat)
            p_joint += d * pick(pep_of_event(mom, p_s))
    return (p_ssk, p_rpm, p_joint / (cfg.m_rpm * cfg.n_t * b))


def aber_union_terms_table_reference(chan: Channel, cfg: SystemConfig, p_s,
                                     exact_pep: bool = False) -> tuple:
    """`aber_union_terms` from the library's PEPs at the distinct distances, summed
    through the full (K, K) table: per power, the Hamming-weighted terms
    dist * pep[index] / (K b) of every ordered pair, compressed through each class
    mask (antenna-only, phase-only, joint) and summed in 1-D. Floats for a scalar
    p_s, else arrays of its shape."""
    d, index = chan.distances
    p = np.asarray(p_s, dtype=float)
    mom, pd = unit_moments(chan), np.multiply.outer(p.ravel(), d)
    pep = pep_of_event(mom, pd).exact if exact_pep else pep_chiani(mom, pd)
    same_t, same_m, dist = pair_classes_reference(cfg.n_t, cfg.m_rpm)
    masks, scale = (same_m, same_t, ~same_t & ~same_m), dist.shape[0] * cfg.bits_total
    terms = [[w[mask].sum() for mask in masks] for w in (dist * row[index] / scale for row in pep)]
    return tuple(float(c[0]) if not p.shape else np.array(c, dtype=float).reshape(p.shape)
                 for c in np.reshape(terms, (-1, 3)).T)


def capacity_closed_reference(chan: Channel, cfg: SystemConfig, p_s: float) -> float:
    """2 log2 K - log2(K + sum of L_xi(P_s/2) over the pairs with both indices
    different), one joint event at a time."""
    k = cfg.n_t * cfg.m_rpm
    total = 0.0
    for m, m_hat in _ordered_pairs(cfg.m_rpm):
        for t, t_hat in _ordered_pairs(cfg.n_t):
            total += laplace(moments_joint(chan.h, chan.g_bar, cfg, t, t_hat, m, m_hat), p_s / 2.0)
    return 2.0 * math.log2(k) - math.log2(k + total)


def pep_rows_reference(chan: Channel, cfg: SystemConfig,
                       paper_literal_args: bool = False) -> list[list]:
    """Rows of the `pep` command over cfg's SNR grid, one event at a time:
    [snr_db, event, t, t_hat, m, m_hat, pep_exact, pep_chiani] with empty
    cells for the indices an event does not have. The literal convention is
    the PEP at twice the power."""
    rows: list[list] = []
    for snr_db in cfg.snr_grid_db:
        p_s = (2.0 if paper_literal_args else 1.0) * 10.0 ** (snr_db / 10.0)
        for t, t_hat in _ordered_pairs(cfg.n_t):
            v = pep_of_event(moments_ssk(chan.h, chan.g_bar, cfg, t, t_hat), p_s)
            rows.append([snr_db, "ssk", t, t_hat, "", "", v.exact, v.chiani])
        for m, m_hat in _ordered_pairs(cfg.m_rpm):
            v = _pep_rpm(chan, cfg, m, m_hat, p_s)
            rows.append([snr_db, "rpm", "", "", m, m_hat, v.exact, v.chiani])
        for m, m_hat in _ordered_pairs(cfg.m_rpm):
            for t, t_hat in _ordered_pairs(cfg.n_t):
                mom = moments_joint(chan.h, chan.g_bar, cfg, t, t_hat, m, m_hat)
                v = pep_of_event(mom, p_s)
                rows.append([snr_db, "joint", t, t_hat, m, m_hat, v.exact, v.chiani])
    return rows


def pep_csv_reference(cfg: SystemConfig, paper_literal_args: bool = False) -> str:
    """The text of the `pep` CSV, one formatted line per event and SNR point: the
    PEPs of the one unit law at each distinct distance, read through the pair index."""
    chan = make_channel(cfg)
    unit, (d, index) = unit_moments(chan), chan.distances
    lines = ["snr_db,event,t,t_hat,m,m_hat,pep_exact,pep_chiani"]
    for snr_db in cfg.snr_grid_db:
        v = pep_of_event(unit, (2.0 if paper_literal_args else 1.0) * 10.0 ** (snr_db / 10.0) * d)
        for key, i, j in pep_events_reference(cfg.n_t, cfg.m_rpm):
            at = index[i, j]
            lines.append(f"{float(snr_db)!r},{key},{float(v.exact[at])!r},{float(v.chiani[at])!r}")
    return "\n".join(lines) + "\n"


def pep_events_reference(n_t: int, m_rpm: int) -> list[tuple[str, int, int]]:
    """The pep rows of one SNR point: key cells "event,t,t_hat,m,m_hat" and the
    flat t-major pair (i, j) of the event. Antenna errors are at phase 1, phase
    errors at antenna 1 (every antenna has the same pair distance), and joint
    errors m-major."""
    ts, ms = list(permutations(range(n_t), 2)), list(permutations(range(m_rpm), 2))
    return ([(f"ssk,{t + 1},{u + 1},,", t * m_rpm, u * m_rpm) for t, u in ts]
            + [(f"rpm,,,{m + 1},{n + 1}", m, n) for m, n in ms]
            + [(f"joint,{t + 1},{u + 1},{m + 1},{n + 1}", t * m_rpm + m, u * m_rpm + n)
               for m, n in ms for t, u in ts])
