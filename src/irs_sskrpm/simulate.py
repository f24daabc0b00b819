"""Monte-Carlo estimation of the bit error rate (exact signal model plus the
joint ML detector) and of the sampled mutual-information expectation, with
reproducible RNG, and the SNR sweep that runs them.

H is rank-1, so a trial draws only the n_r-vector g_eff = G^H a_irs
(`channel.Channel`), not the N*n_r entries of G.

Reproducibility scheme: the estimators split their trials into fixed-size
chunks, and the RNG for chunk c of sweep point i is a Philox generator keyed
by (seed, domain, i, c); partial results are reduced in chunk order (integer
error counts exactly, float partials in a fixed order). The unit of parallel
work is the SNR point: `run_sweep` maps its points over one process pool per
simulating sweep, and a point's result does not depend on the process that
computes it, so a sweep is bit-identical for any number of workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .airlink import label_weights, ml_detect
from .channel import Channel, make_channel
from .config import ConfigError, SystemConfig, validate
from .metrics import NumericalError, _bits, _power, aber_union, capacity_closed, joint_distances

#: Trials per RNG chunk. Fixed: changing it changes every simulated result.
CHUNK_TRIALS = 8192

#: Upper bound on the (samples x pair distances) block evaluated at once by
#: the capacity kernel, in array elements.
_PAIR_BLOCK_ELEMENTS = 1 << 20

_DOMAIN_BER = 0
_DOMAIN_CAPACITY = 1


@dataclass
class SweepRecord:
    """One (SNR, config) row of a sweep; fields not requested are None."""

    snr_db: float
    aber_analytical: float | None
    aber_sim: float | None
    aber_stderr: float | None
    cap_closed: float | None
    cap_sim: float | None
    trials: int


def resolve_workers(workers: int | None = None, points: int | None = None) -> int:
    """Process-pool size for a sweep's SNR points.

    The IRS_SSKRPM_THREADS environment variable caps it (and supplies the
    default when workers is None); the result is further clamped to the CPU
    count and, when given, to the number of points.
    """
    env = os.environ.get("IRS_SSKRPM_THREADS")
    try:
        cap = None if env is None else max(1, int(env))
    except ValueError:
        raise ConfigError(f"IRS_SSKRPM_THREADS={env!r} must be an integer") from None
    if workers is None:
        workers = cap or 1
    limits = [v for v in (workers, cap, points, os.cpu_count() or 1) if v is not None]
    return max(1, min(limits))


def sweep_workers(cfg: SystemConfig, mode: str, workers: int | None = None) -> int:
    """Process-pool size of a `run_sweep` of cfg in mode: 1 (no pool) for an
    analytic sweep, else `resolve_workers(workers, points)`."""
    return 1 if mode == "analytic" else resolve_workers(workers, len(cfg.snr_grid_db))


def _chunk_rng(seed: int, domain: int, point_index: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, point_index, chunk_index))
    return np.random.Generator(np.random.Philox(ss))


def _chunk_sizes(total: int) -> list[int]:
    full, rest = divmod(total, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


def _gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """CN(0, 1) entries: real and imaginary parts each of variance 1/2."""
    w = rng.standard_normal((2, *shape))
    return math.sqrt(0.5) * (w[0] + 1j * w[1])


def _ber_chunk(chan: Channel, p_s: float, seed: int, point_index: int,
               chunk_index: int, n_trials: int) -> int:
    """Simulate one chunk of trials with the joint ML detector; returns the
    bit-error count."""
    rng = _chunk_rng(seed, _DOMAIN_BER, point_index, chunk_index)
    n_r = chan.mean.size
    sqrt_p = math.sqrt(p_s)

    # Fixed draw order per chunk: symbol codes, diffuse channel part, noise.
    code = rng.integers(0, chan.points.size, size=n_trials)
    g = chan.mean + chan.scale * _gaussian(rng, (n_trials, n_r))
    z = _gaussian(rng, (n_trials, n_r))
    y = (sqrt_p * chan.sqrt_nu * chan.points[code])[:, None] * g + z

    ip = chan.sqrt_nu * np.einsum("br,br->b", g.conj(), y)
    detected = ml_detect(chan.points, ip, sqrt_p)

    return int(label_weights(chan.points.size)[code ^ detected].sum())


def simulate_ber(cfg: SystemConfig, p_s: float, trials: int, seed: int,
                 point_index: int = 0) -> tuple[float, float]:
    """Estimate the average bit error rate at transmit power p_s.

    Per trial: uniform information bits, channel redraw, noisy reception and
    joint ML detection; returns (errors / (bits * trials), binomial standard
    error over all transmitted bits). Deterministic for fixed (seed, trials,
    cfg, point_index).
    """
    validate(cfg)
    _power(p_s)
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")
    b = _bits(cfg)
    chan = make_channel(cfg)
    # exact integer reduction, order-insensitive
    errors = sum(_ber_chunk(chan, p_s, seed, point_index, c, size)
                 for c, size in enumerate(_chunk_sizes(trials)))
    bits = b * trials
    aber = errors / bits
    return aber, math.sqrt(max(aber * (1.0 - aber), 0.0) / bits)


def _capacity_chunk(chan: Channel, p_s: float, seed: int, point_index: int,
                    chunk_index: int, n_samples: int,
                    dist: tuple[np.ndarray, np.ndarray]) -> tuple[float, float]:
    """Partial sums (sum_a, sum_a_sq) of the per-sample aggregate
    a = sum over hypothesis pairs of exp(-p_s * xi / 2), where
    xi = nu |c_k - c_j|^2 ||g_eff||^2 and dist holds the distinct nu |c_k - c_j|^2
    of `metrics.joint_distances` with their multiplicities."""
    rng = _chunk_rng(seed, _DOMAIN_CAPACITY, point_index, chunk_index)
    g = chan.mean + chan.scale * _gaussian(rng, (n_samples, chan.mean.size))
    energy = np.sum(np.abs(g) ** 2, axis=1)
    d2, mult = dist

    agg = np.zeros(n_samples)
    step = max(1, _PAIR_BLOCK_ELEMENTS // n_samples)
    for lo in range(0, d2.size, step):
        terms = np.exp(np.multiply.outer(energy, -0.5 * p_s * d2[lo:lo + step]))
        agg += np.sum(terms * mult[lo:lo + step], axis=1)
    return float(agg.sum()), float(np.dot(agg, agg))


def simulate_capacity(cfg: SystemConfig, p_s: float, channel_samples: int, seed: int,
                      point_index: int = 0, with_stderr: bool = False):
    """Sampled ergodic capacity: every E[exp(-P_s*xi/2)] is averaged over
    redrawn effective channels with xi computed directly from the
    constellation distance and ||g_eff||^2 (an independent code path from
    the moment-based closed form).

    Returns the capacity in bits per channel use, or (capacity, stderr) when
    with_stderr is True.
    """
    validate(cfg)
    _power(p_s)
    if channel_samples < 1:
        raise ValueError(f"channel_samples={channel_samples} must be >= 1")
    k = cfg.n_t * cfg.m_rpm
    chan = make_channel(cfg)
    d2, mult = joint_distances(chan, cfg)
    dist = (chan.sqrt_nu ** 2 * d2, mult)
    partials = [_capacity_chunk(chan, p_s, seed, point_index, c, size, dist)
                for c, size in enumerate(_chunk_sizes(channel_samples))]
    # reduce in chunk order: the float result is fixed by the chunk keys
    sum_a, sum_a_sq = (sum(column) for column in zip(*partials))
    n = channel_samples
    mean_a = sum_a / n
    cap = 2.0 * math.log2(k) - math.log2(k + mean_a)
    if not with_stderr:
        return cap
    var_a = max(sum_a_sq / n - mean_a ** 2, 0.0) * n / (n - 1) if n > 1 else math.inf
    return cap, math.sqrt(var_a / n) / ((k + mean_a) * math.log(2.0))


def _sweep_point(cfg: SystemConfig, quantity: str, mode: str, exact_pep: bool,
                 paper_literal_args: bool, chan: Channel | None, point_index: int,
                 snr_db: float) -> SweepRecord:
    """One row of `run_sweep`: quantity at SNR point point_index of cfg's grid."""
    p_s = 10.0 ** (snr_db / 10.0)
    analytic, sim = mode != "sim", mode != "analytic"
    aber_a = aber_sim = stderr = cap_c = cap_s = None
    try:
        if quantity == "aber" and analytic:
            aber_a = aber_union(chan, cfg, 2 * p_s if paper_literal_args else p_s, exact_pep)
        if quantity == "aber" and sim:
            aber_sim, stderr = simulate_ber(cfg, p_s, cfg.trials, cfg.seed, point_index)
        if quantity == "capacity" and analytic:
            cap_c = capacity_closed(chan, cfg, p_s)
        if quantity == "capacity" and sim:
            cap_s = simulate_capacity(cfg, p_s, cfg.trials, cfg.seed, point_index)
    except NumericalError as exc:
        raise NumericalError(f"sweep point snr_db={snr_db}: {exc}") from exc
    return SweepRecord(snr_db, aber_a, aber_sim, stderr, cap_c, cap_s, cfg.trials)


def run_sweep(cfg: SystemConfig, quantity: str, mode: str = "both", exact_pep: bool = False,
              paper_literal_args: bool = False, workers: int | None = 1) -> list[SweepRecord]:
    """Evaluate quantity ("aber" or "capacity") at every SNR point of cfg's grid.

    mode selects how: "analytic" (union bound, closed-form capacity), "sim"
    (Monte-Carlo ABER and sampled capacity at cfg.trials per point) or
    "both". Only quantity's fields are computed, the others stay None. Rows
    are ordered by SNR and the whole sweep is deterministic for a fixed
    cfg.seed. paper_literal_args puts the union bound at 2*P_s (doubled
    transform arguments). The points are mapped over one pool of
    `sweep_workers(cfg, mode, workers)` processes when that is above 1.
    """
    validate(cfg)
    if mode not in ("analytic", "sim", "both"):
        raise ValueError(f"mode={mode!r} must be analytic, sim or both")
    if quantity not in ("aber", "capacity"):
        raise ValueError(f"quantity={quantity!r} must be aber or capacity")
    grid = cfg.snr_grid_db
    point = partial(_sweep_point, cfg, quantity, mode, exact_pep, paper_literal_args,
                    make_channel(cfg) if mode != "sim" else None)
    workers = sweep_workers(cfg, mode, workers)
    if workers == 1:
        return list(map(point, range(len(grid)), grid))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(point, range(len(grid)), grid))
