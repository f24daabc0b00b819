"""Monte-Carlo estimation of the bit error rate (exact signal model plus the
joint ML detector) and of the sampled mutual-information expectation, with
reproducible RNG, and the SNR sweep that runs them.

H is rank-1, so a trial draws only the n_r-vector g_eff = G^H a_irs
(`channel.Channel`), not the N*n_r entries of G, and the ML detector reads one
scalar per trial, g_eff^H y, decided by the angle wedge that holds it.

Reproducibility scheme: the estimators split their trials into fixed-size
chunks, and the RNG of a chunk is an SFC64 generator seeded by
SeedSequence(seed, spawn_key=(domain, point, c)) for chunk c; partial results
are reduced in chunk order (integer error counts exactly, float partials in a
fixed order). A BER chunk has the key (0, 0, c) at every SNR point: a power
only rescales the signal term of the scalar g_eff^H y, so one draw of the
codes, channels and noise is decided at every point of the grid (common random
numbers); as the power grows, the scalar's angle moves monotonically towards the
sent point's, crossing each wedge edge once at an amplitude in closed form, and a
chunk is decided by walking those crossings (on the tables of `Channel.walk`).
Each row keeps the law and the standard-error formula it has alone; only the
rows' errors are correlated. A capacity chunk of sweep point i keeps the key
(1, i, c) (power q of a call draws point point_index + q): the benchmark's
capacity check (`perfbench/workloads.py`) recomputes each row's stderr with
`point_index=i`, so that key changes only with the benchmark.
"""

from __future__ import annotations

import math

import numpy as np

from .airlink import _ber_decide
from .channel import Channel, make_channel
from .config import SystemConfig, validate
from .metrics import (NumericalError, _bits, _power, _shaped, aber_union, capacity_closed,
                      joint_distances)

#: Trials per RNG chunk. Fixed: changing it changes every simulated result.
CHUNK_TRIALS = 8192

#: Upper bound on the (samples x pair distances) block evaluated at once by
#: the capacity kernel, in array elements.
_PAIR_BLOCK_ELEMENTS = 1 << 20

_DOMAIN_BER = 0
_DOMAIN_CAPACITY = 1


def resolve_workers(_=None) -> int:
    """1: every sweep runs in one process. Only the benchmark's run record reads it."""
    return 1


def _chunk_rng(seed: int, domain: int, point_index: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, point_index, chunk_index))
    return np.random.Generator(np.random.SFC64(ss))


def _chunk_sizes(total: int) -> list[int]:
    full, rest = divmod(total, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


def _gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """CN(0, 1) entries: a float draw scaled in place to variance 1/2, viewed as complex."""
    parts = rng.standard_normal((*shape, 2))
    return np.multiply(parts, math.sqrt(0.5), out=parts).view(np.complex128)[..., 0]


def _ber_draw(chan: Channel, seed: int, chunk_index: int,
              n_trials: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A BER chunk's draws, in a fixed order: each trial's symbol code, then g_eff and z,
    kept as ||g_eff||^2 and g_eff^H z (g_eff^H y / sqrt(nu) = sqrt(P_s nu) ||g_eff||^2
    points[code] + g_eff^H z, so only the signal term depends on the power)."""
    rng = _chunk_rng(seed, _DOMAIN_BER, 0, chunk_index)
    code = rng.integers(0, chan.points.size, size=n_trials)
    g = chan.mean + chan.scale * _gaussian(rng, (n_trials, chan.mean.size))
    z = _gaussian(rng, (n_trials, chan.mean.size))
    return code, np.sum(g.real ** 2 + g.imag ** 2, axis=1), np.sum(g.conj() * z, axis=1)


def simulate_ber(cfg: SystemConfig, p_s, trials: int, seed: int) -> tuple:
    """Estimate the average bit error rate at transmit power p_s, a scalar or an
    array of powers (an empty one included).

    Per trial: uniform information bits, channel redraw, noisy reception and
    joint ML detection; returns (errors / (bits * trials), binomial standard
    error over all transmitted bits), each of p_s's shape. Every power decides
    the same trials, so one power's value does not depend on the others.
    Deterministic for fixed (seed, trials, cfg).
    """
    chan = make_channel(validate(cfg))
    p = _power(p_s)
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")
    bits, sqrt_ps = _bits(cfg) * trials, np.sqrt(p).ravel()
    # exact integer reduction, order-insensitive
    errors = sum(_ber_decide(chan, sqrt_ps, *_ber_draw(chan, seed, c, size))
                 for c, size in enumerate(_chunk_sizes(trials)))
    aber = errors.reshape(p.shape) / bits
    return aber, np.sqrt(np.maximum(aber * (1.0 - aber), 0.0) / bits)


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


def simulate_capacity(cfg: SystemConfig, p_s, channel_samples: int, seed: int,
                      point_index: int = 0, with_stderr: bool = False):
    """Sampled ergodic capacity: every E[exp(-P_s*xi/2)] is averaged over
    redrawn effective channels with xi computed directly from the
    constellation distance and ||g_eff||^2 (an independent code path from
    the moment-based closed form).

    p_s is a scalar or an array of powers; the q-th power (C order) draws the
    chunks of sweep point point_index + q. Returns the capacity in bits per
    channel use, or (capacity, stderr) when with_stderr is True, each a float
    or an array of p_s's shape.
    """
    chan = make_channel(validate(cfg))
    p = _power(p_s)
    if channel_samples < 1:
        raise ValueError(f"channel_samples={channel_samples} must be >= 1")
    k, n = cfg.n_t * cfg.m_rpm, channel_samples
    d2, mult = joint_distances(chan)
    dist = (chan.sqrt_nu ** 2 * d2, mult)
    est = []
    for q, p_q in enumerate(p.ravel().tolist()):
        partials = [_capacity_chunk(chan, p_q, seed, point_index + q, c, size, dist)
                    for c, size in enumerate(_chunk_sizes(n))]
        # reduce in chunk order: the float result is fixed by the chunk keys
        sum_a, sum_a_sq = (sum(column) for column in zip(*partials))
        mean_a = sum_a / n
        var_a = max(sum_a_sq / n - mean_a ** 2, 0.0) * n / (n - 1) if n > 1 else math.inf
        est.append((2.0 * math.log2(k) - math.log2(k + mean_a),
                    math.sqrt(var_a / n) / ((k + mean_a) * math.log(2.0))))
    cap, stderr = (_shaped(v, p) for v in np.reshape(est, (-1, 2)).T)
    return (cap, stderr) if with_stderr else cap


def draw_scheme(quantity: str) -> dict:
    """How the simulated rows of a quantity sweep draw, for the run manifest: the
    trials per RNG chunk, and whether every SNR point decides the same chunks."""
    return {"chunk_trials": CHUNK_TRIALS, "shared_across_points": quantity == "aber"}


def run_sweep(cfg: SystemConfig, quantity: str, mode: str = "both", exact_pep: bool = False,
              paper_literal_args: bool = False) -> dict[str, list]:
    """Evaluate quantity ("aber" or "capacity") at every SNR point of cfg's grid.

    mode selects how: "analytic" (union bound, closed-form capacity), "sim"
    (Monte-Carlo ABER and sampled capacity at cfg.trials per point) or
    "both". Returns the sweep's CSV columns, keyed by header name in CSV order,
    one entry per SNR point: snr_db; aber_analytical or cap_closed unless mode
    is "sim"; aber_sim, aber_stderr, trials or cap_sim, samples unless mode is
    "analytic". Only quantity's columns are computed, each by one call over
    the grid's powers, and the whole sweep is deterministic for a fixed
    cfg.seed. paper_literal_args puts the union bound at 2*P_s (doubled
    transform arguments).
    """
    validate(cfg)
    if mode not in ("analytic", "sim", "both"):
        raise ValueError(f"mode={mode!r} must be analytic, sim or both")
    if quantity not in ("aber", "capacity"):
        raise ValueError(f"quantity={quantity!r} must be aber or capacity")
    grid = cfg.snr_grid_db
    powers = np.array([10.0 ** (snr_db / 10.0) for snr_db in grid])
    analytic, sim = mode != "sim", mode != "analytic"
    columns = {"snr_db": grid}
    try:
        if quantity == "aber" and analytic:
            columns["aber_analytical"] = aber_union(
                make_channel(cfg), cfg, 2 * powers if paper_literal_args else powers, exact_pep)
        if quantity == "aber" and sim:
            aber, stderr = simulate_ber(cfg, powers, cfg.trials, cfg.seed)
            columns.update(aber_sim=aber, aber_stderr=stderr, trials=cfg.trials)
        if quantity == "capacity" and analytic:
            columns["cap_closed"] = capacity_closed(make_channel(cfg), cfg, powers)
        if quantity == "capacity" and sim:
            columns.update(cap_sim=simulate_capacity(cfg, powers, cfg.trials, cfg.seed),
                           samples=cfg.trials)
    except NumericalError as exc:
        raise NumericalError(f"sweep points snr_db={list(grid)}: {exc}") from exc
    # a single value, such as the trial count, holds at every point
    return {key: np.broadcast_to(v, len(grid)).tolist() for key, v in columns.items()}
