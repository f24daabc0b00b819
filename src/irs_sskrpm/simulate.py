"""Monte-Carlo estimation of the bit error rate (exact signal model plus the joint ML
detector) and of the sampled mutual-information expectation, with reproducible RNG, and the
SNR sweep that runs them.

H is rank-1, so the ML detector reads one scalar per trial, g_eff^H y with g_eff = G^H a_irs
(`channel.Channel`), and g_eff^H y / ||g_eff|| = sqrt(P_s nu) ||g_eff|| c_k + w, w ~ CN(0, 1)
independent of g_eff and c_k: a trial draws ||g_eff||^2 (`_energy`), w and its code, not G.

Reproducibility scheme: trials are split into fixed-size chunks, and chunk c is drawn by an
SFC64 generator seeded by SeedSequence(seed, spawn_key=(domain, point, c)); chunk results are
reduced in chunk order (error counts exactly, float sums left to right). CN(0, 1) values are
drawn in polar form (`_polar`); numpy's SIMD tan and exp may differ from libm's by 1 ulp, so the
bits of a draw are those of the numpy build and CPU path. A BER chunk has the key (0, 0, c) at
every SNR point: a power only scales the signal term, so one draw is decided at every point of
the grid (common random numbers) by walking each trial's wedge-edge crossings
(`airlink._ber_decide`), and each row keeps the law and stderr formula it has alone. A capacity
chunk of sweep point i has the key (1, i, c): the benchmark's capacity check
(`perfbench/workloads.py`) recomputes each row's stderr with `point_index=i`.
"""

from __future__ import annotations

import math

import numpy as np

from .airlink import _ber_decide, _ber_walk
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


def _polar(rng: np.random.Generator, shape, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """scale times CN(0, 1) values in polar form, (real, imaginary), worked in place: moduli
    sqrt(E), E ~ Exp(1), drawn first, then phases 2 pi U - pi, U ~ U[0, 1), turned by `_turn`."""
    modulus, t = rng.standard_exponential(shape), rng.random(shape)
    np.tan(np.subtract(np.multiply(t, math.pi, out=t), 0.5 * math.pi, out=t), out=t)
    return _turn(np.multiply(np.sqrt(modulus, out=modulus), scale, out=modulus), t)


def _turn(modulus: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """modulus (cos phi, sin phi) as modulus (1 - t^2, 2t) / (1 + t^2), t = tan(phi/2), in place."""
    t_sq = np.multiply(t, t)
    re = np.subtract(1.0, t_sq)
    np.divide(modulus, np.add(t_sq, 1.0, out=t_sq), out=modulus)
    return np.multiply(re, modulus, out=re), np.multiply(np.add(t, t, out=t), modulus, out=t)


def _energy(chan: Channel, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of ||g_eff||^2, g_eff ~ CN(mean, scale^2 I_{n_r}), from its law alone: the law
    is rotation-invariant, so ||g_eff||^2 = |m + scale z_1|^2 + scale^2 (E_2 + ... + E_{n_r}),
    m = ||mean||, z_1 ~ CN(0, 1) (`_polar`) and then the E_i ~ Exp(1) drawn. Each part is
    squared as it is: the expanded m^2 + scale^2 |z_1|^2 + 2 m scale Re z_1 cancels in deep
    fades."""
    re, im = _polar(rng, n, chan.scale)
    re += chan.mean_norm
    energy = np.add(np.multiply(re, re, out=re), np.multiply(im, im, out=im), out=re)
    if chan.mean.size > 1:
        energy += chan.scale ** 2 * rng.standard_exponential((chan.mean.size - 1, n)).sum(axis=0)
    return energy


def _ber_draw(chan: Channel, seed: int, chunk_index: int, n_trials: int) -> tuple:
    """A BER chunk's trials (row, x, h) of `airlink._ber_decide`: ||g_eff||^2 (`_energy`), then
    E ~ Exp(1) and U ~ U[0, 1) of w ~ CN(0, 1), u = x + jy = w / (sqrt(nu) ||g_eff||) in the
    sent point's frame: 2 K U = row + f exactly, row = side K + code, y >= 0 on side 1, and
    |u| = sqrt(E / (nu ||g_eff||^2)), x = |u| cos(pi f) and h = |y| = |u| sin(pi f)."""
    rng = _chunk_rng(seed, _DOMAIN_BER, 0, chunk_index)
    energy = _energy(chan, rng, n_trials)
    modulus, v = rng.standard_exponential(n_trials), rng.random(n_trials)
    row = np.multiply(v, 2 * chan.points.size, out=v).astype(np.intp)
    np.tan(np.multiply(np.subtract(v, row, out=v), 0.5 * math.pi, out=v), out=v)
    np.divide(modulus, np.multiply(energy, chan.sqrt_nu ** 2, out=energy), out=modulus)
    return (row, *_turn(np.sqrt(modulus, out=modulus), v))


def simulate_ber(cfg: SystemConfig, p_s, trials: int, seed: int) -> tuple:
    """The average bit error rate at transmit power p_s, a scalar or an array (empty included).

    Per trial: a uniform symbol, ||g_eff||^2 and the noise the detector reads (`_ber_draw`),
    and joint ML detection at every power (`airlink._ber_decide`). Returns (errors / (bits *
    trials), binomial standard error over all transmitted bits), each of p_s's shape. Every
    power decides the same trials, so no power's value depends on the others. Deterministic
    for fixed (seed, trials, cfg).
    """
    chan = make_channel(validate(cfg))
    p = _power(p_s)
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")
    bits, walk = _bits(cfg) * trials, _ber_walk(np.sqrt(p).ravel())
    # exact integer reduction, order-insensitive
    errors = sum(_ber_decide(chan, walk, *_ber_draw(chan, seed, c, size))
                 for c, size in enumerate(_chunk_sizes(trials)))
    aber = errors.reshape(p.shape) / bits
    return aber, np.sqrt(np.maximum(aber * (1.0 - aber), 0.0) / bits)


def simulate_capacity(cfg: SystemConfig, p_s, channel_samples: int, seed: int,
                      point_index: int = 0, with_stderr: bool = False):
    """Sampled ergodic capacity 2 log2 K - log2(K + mean a), where a sample's a is the sum of
    exp(-P_s xi / 2) over the joint pairs, with xi = nu |c_k - c_j|^2 ||g_eff||^2 drawn by
    `_energy` (an independent code path from the moment-based closed form), and its stderr
    s / sqrt(n) / ((K + mean a) ln 2), s the unbiased sample deviation of a.

    p_s is a scalar or an array of powers; the q-th power (C order) draws the chunks of sweep
    point point_index + q, and adds their sums of a and a^2 in chunk order. Returns the
    capacity in bits per channel use, or (capacity, stderr) when with_stderr is True, each a
    float or an array of p_s's shape.
    """
    chan = make_channel(validate(cfg))
    p = _power(p_s)
    if channel_samples < 1:
        raise ValueError(f"channel_samples={channel_samples} must be >= 1")
    d2, mult = joint_distances(chan)
    k, n, nu_d2 = chan.points.size, channel_samples, chan.sqrt_nu ** 2 * d2
    cap, stderr = np.empty(p.size), np.empty(p.size)
    for q, p_q in enumerate(p.ravel().tolist()):
        sum_a = sum_a_sq = 0.0
        for c, size in enumerate(_chunk_sizes(n)):
            rng = _chunk_rng(seed, _DOMAIN_CAPACITY, point_index + q, c)
            energy, agg = _energy(chan, rng, size), np.zeros(size)
            step = max(1, _PAIR_BLOCK_ELEMENTS // size)
            for lo in range(0, nu_d2.size, step):
                terms = np.exp(np.multiply.outer(energy, -0.5 * p_q * nu_d2[lo:lo + step]))
                agg += np.sum(terms * mult[lo:lo + step], axis=1)
            sum_a += float(agg.sum())
            sum_a_sq += float(np.dot(agg, agg))
        mean_a = sum_a / n
        var_a = max(sum_a_sq / n - mean_a ** 2, 0.0) * n / (n - 1) if n > 1 else math.inf
        cap[q] = 2.0 * math.log2(k) - math.log2(k + mean_a)
        stderr[q] = math.sqrt(var_a / n) / ((k + mean_a) * math.log(2.0))
    return (_shaped(cap, p), _shaped(stderr, p)) if with_stderr else _shaped(cap, p)


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
