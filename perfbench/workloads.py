"""The benchmark's workloads: the CLI operations of one pass, the scenario
files they read, and an output check for every operation.

Every check is a rule that holds for any seed, so no golden numbers are
stored. References (bounds, closed forms, standard errors) are computed in
`prepare`, before any timing starts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

SCENARIOS = Path(__file__).resolve().parent / "scenarios"

#: Bracket half-width, in standard deviations of the estimator.
SIGMAS = 5.0


@dataclass
class Op:
    """One CLI call; `check` returns the problems found in its CSV rows."""

    argv: list[str]
    out: Path
    check: Callable[[list[dict]], list[str]]


@dataclass
class Plan:
    setup_config: Path
    ops: list[Op]
    points: int                 # SNR points completed per pass
    mc_samples: int             # requested Monte-Carlo samples per pass
    info: dict = field(default_factory=dict)


def derive_scenario(name: str, dst: Path, **overrides) -> Path:
    """Copy a scenario file from SCENARIOS, replacing the given keys."""
    lines = []
    for line in (SCENARIOS / name).read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        if key in overrides:
            value = overrides.pop(key)
            if isinstance(value, (list, tuple)):
                value = ",".join(f"{v:g}" for v in value)
            line = f"{key}={value}"
        lines.append(line)
    if overrides:
        raise KeyError(f"{name} has no keys {sorted(overrides)}")
    dst.write_text("\n".join(lines) + "\n")
    return dst


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: (float(v) if v != "" and k != "event" else v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def min_constellation_distance(cfg) -> float:
    """Smallest distance between two of the n_t*M unit-circle points
    a_bs[t] * exp(j*phi_m) that carry the hypotheses."""
    from irs_sskrpm.airlink import rpm_phases
    from irs_sskrpm.channel import steering_bs
    a = steering_bs(cfg.phi_d, cfg.n_t, cfg.delta_over_lambda)
    pts = (a[:, None] * np.exp(1j * rpm_phases(cfg.m_rpm))[None, :]).ravel()
    d = np.abs(pts[:, None] - pts[None, :])
    return float(d[~np.eye(pts.size, dtype=bool)].min())


def _load(path: Path, **overrides):
    from irs_sskrpm.config import load_config, validate
    return validate(replace(load_config(str(path)), **overrides))


def _grid_problems(rows: list[dict], grid) -> list[str]:
    got = [r["snr_db"] for r in rows]
    return [] if got == list(grid) else [f"snr_db column {got} != {list(grid)}"]


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


# ---- sim_aber_n32 ------------------------------------------------------------

def _pair_pep_exact(chan, cfg, i: int, j: int, p_s: float) -> float:
    """Exact (Craig) PEP of hypothesis i -> j, flat t-major indices."""
    from irs_sskrpm.metrics import pep_of_event
    from irs_sskrpm.ncx2 import moments_joint, moments_rpm, moments_ssk
    t, m = divmod(i, cfg.m_rpm)
    t_hat, m_hat = divmod(j, cfg.m_rpm)
    if m == m_hat:
        mom = moments_ssk(chan.h, chan.g_bar, cfg, t + 1, t_hat + 1)
    elif t == t_hat:
        mom = moments_rpm(chan.h, chan.g_bar, cfg, t + 1, m + 1, m_hat + 1)
    else:
        mom = moments_joint(chan.h, chan.g_bar, cfg, t + 1, t_hat + 1, m + 1, m_hat + 1)
    return pep_of_event(mom, p_s).exact


def aber_bracket(cfg) -> list[tuple[float, float]]:
    """(lower, upper) ABER per SNR point.

    lower = (1/(K*b)) * sum_i max_{j != i} PEP_exact(i -> j): a symbol error
    from i is at least as likely as its likeliest pairwise error and costs at
    least one bit. upper = the exact-Craig union bound.
    """
    from irs_sskrpm.channel import make_channel
    from irs_sskrpm.metrics import aber_union
    chan = make_channel(cfg)
    k, b = cfg.n_t * cfg.m_rpm, cfg.bits_total
    out = []
    for snr_db in cfg.snr_grid_db:
        p_s = 10.0 ** (snr_db / 10.0)
        lower = sum(max(_pair_pep_exact(chan, cfg, i, j, p_s) for j in range(k) if j != i)
                    for i in range(k)) / (k * b)
        out.append((lower, aber_union(chan, cfg, p_s, exact_pep=True)))
    return out


def check_aber_sim(rows: list[dict], grid, trials: int,
                   bracket: list[tuple[float, float]]) -> list[str]:
    """Each row finite, 0 <= aber_sim <= 0.5, and inside the bracket widened
    by SIGMAS standard deviations of the estimator at the bracket end.

    The deviation is sqrt(x/trials) for a true ABER x: a trial flips between
    0 and b of its b bits, so Var(errors/b) <= E[errors/b] per trial. This
    holds although the bits of one symbol err together, and it does not
    vanish when a row sees no errors, unlike the row's binomial stderr.
    """
    problems = _grid_problems(rows, grid)
    if len(rows) != len(bracket):
        return problems + [f"{len(rows)} rows, expected {len(bracket)}"]
    for row, (lower, upper) in zip(rows, bracket):
        a = row["aber_sim"]
        where = f"snr_db={row['snr_db']}"
        if not (_finite(a) and _finite(row["aber_stderr"])):
            problems.append(f"{where}: non-finite value")
            continue
        if not 0.0 <= a <= 0.5:
            problems.append(f"{where}: aber_sim={a} outside [0, 0.5]")
        if row["trials"] != trials:
            problems.append(f"{where}: trials={row['trials']} != {trials}")
        lo = lower - SIGMAS * math.sqrt(lower / trials)
        hi = upper + SIGMAS * math.sqrt(upper / trials)
        if not lo <= a <= hi:
            problems.append(f"{where}: aber_sim={a:.4e} outside [{lo:.4e}, {hi:.4e}]")
    return problems


def prepare_sim_aber(seed: int, work: Path, quick: bool) -> Plan:
    grid = (0, 20, 40) if quick else tuple(range(0, 41, 2))
    trials = 512 if quick else 32768          # 4 RNG chunks per point
    scen = derive_scenario("aber_n32.cfg", work / "aber_n32.cfg", snr_grid_db=grid)
    cfg = _load(scen, trials=trials)
    bracket = aber_bracket(cfg)
    out = work / "aber_sim.csv"
    op = Op(["aber", "--config", str(scen), "--mode", "sim", "--trials", str(trials),
             "--seed", str(seed), "--out", str(out)], out,
            lambda rows: check_aber_sim(rows, cfg.snr_grid_db, trials, bracket))
    return Plan(scen, [op], points=len(grid), mc_samples=len(grid) * trials,
                info={"min_constellation_distance": min_constellation_distance(cfg)})


# ---- analytic_nt8m8 ----------------------------------------------------------

def event_count(cfg) -> int:
    """Rows per SNR point of the pep table: antenna-only, phase-only
    (averaged over the antenna) and joint events."""
    pt, pm = cfg.n_t * (cfg.n_t - 1), cfg.m_rpm * (cfg.m_rpm - 1)
    return pt + pm + pt * pm


def _nonincreasing(values: list[float]) -> bool:
    return all(b <= a * (1.0 + 1e-12) for a, b in zip(values, values[1:]))


def check_aber_analytic(rows: list[dict], grid) -> list[str]:
    """Finite, non-negative, and not increasing with SNR (every PEP term
    falls as the transmit power grows)."""
    problems = _grid_problems(rows, grid)
    values = [r["aber_analytical"] for r in rows]
    if not all(_finite(v) and v >= 0.0 for v in values):
        problems.append(f"aber_analytical not finite and non-negative: {values}")
    elif not _nonincreasing(values):
        problems.append(f"union bound increases with SNR: {values}")
    return problems


def check_pep(rows: list[dict], grid, events: int) -> list[str]:
    """One row per event and point; every PEP finite in [0, 0.5] and each
    event's exact PEP not increasing with SNR."""
    if len(rows) != len(grid) * events:
        return [f"{len(rows)} pep rows, expected {len(grid)} x {events}"]
    problems = []
    by_event: dict[tuple, list[float]] = {}
    for row in rows:
        for col in ("pep_exact", "pep_chiani"):
            if not (_finite(row[col]) and 0.0 <= row[col] <= 0.5):
                problems.append(f"snr_db={row['snr_db']} {row['event']}: {col}={row[col]}")
        key = (row["event"], row["t"], row["t_hat"], row["m"], row["m_hat"])
        by_event.setdefault(key, []).append(row["pep_exact"])
    if len(by_event) != events:
        problems.append(f"{len(by_event)} distinct events, expected {events}")
    rising = [k for k, v in by_event.items() if not _nonincreasing(v)]
    if rising:
        problems.append(f"{len(rising)} events with PEP rising in SNR, e.g. {rising[0]}")
    return problems[:5]


def prepare_analytic(seed: int, work: Path, quick: bool) -> Plan:
    aber_grid = (0, 40) if quick else tuple(range(0, 41, 4))
    pep_grid = (10,) if quick else (0, 10, 20)
    scen = derive_scenario("stress_nt8m8.cfg", work / "stress_aber.cfg", snr_grid_db=aber_grid)
    scen_pep = derive_scenario("stress_nt8m8.cfg", work / "stress_pep.cfg", snr_grid_db=pep_grid)
    cfg = _load(scen)
    events = event_count(cfg)
    out_aber, out_pep = work / "aber_analytic.csv", work / "pep.csv"
    ops = [
        Op(["aber", "--config", str(scen), "--mode", "analytic", "--seed", str(seed),
            "--out", str(out_aber)], out_aber,
           lambda rows: check_aber_analytic(rows, aber_grid)),
        Op(["pep", "--config", str(scen_pep), "--seed", str(seed), "--out", str(out_pep)],
           out_pep, lambda rows: check_pep(rows, pep_grid, events)),
    ]
    return Plan(scen, ops, points=len(aber_grid) + len(pep_grid), mc_samples=0,
                info={"min_constellation_distance": min_constellation_distance(cfg),
                      "pep_events_per_point": events})


# ---- sim_capacity_nt8m8 ------------------------------------------------------

def capacity_references(cfg, samples: int, seed: int) -> list[tuple[float, float]]:
    """(closed-form capacity, sampled-capacity stderr) per SNR point; the
    stderr comes from the same draws the CLI makes for this seed."""
    from irs_sskrpm.channel import make_channel
    from irs_sskrpm.metrics import capacity_closed
    from irs_sskrpm.simulate import simulate_capacity
    chan = make_channel(cfg)
    refs = []
    for i, snr_db in enumerate(cfg.snr_grid_db):
        p_s = 10.0 ** (snr_db / 10.0)
        _cap, stderr = simulate_capacity(cfg, p_s, samples, seed, point_index=i, with_stderr=True)
        refs.append((capacity_closed(chan, cfg, p_s), stderr))
    return refs


def check_capacity_sim(rows: list[dict], grid, samples: int, k: int,
                       refs: list[tuple[float, float]]) -> list[str]:
    """Finite, at most log2 K, and within SIGMAS stderr of the closed form."""
    problems = _grid_problems(rows, grid)
    if len(rows) != len(refs):
        return problems + [f"{len(rows)} rows, expected {len(refs)}"]
    for row, (closed, stderr) in zip(rows, refs):
        c = row["cap_sim"]
        where = f"snr_db={row['snr_db']}"
        if not _finite(c):
            problems.append(f"{where}: cap_sim={c}")
            continue
        if c > math.log2(k) + 1e-12:
            problems.append(f"{where}: cap_sim={c} > log2 K")
        if row["samples"] != samples:
            problems.append(f"{where}: samples={row['samples']} != {samples}")
        if abs(c - closed) > SIGMAS * stderr:
            problems.append(f"{where}: |cap_sim - cap_closed| = {abs(c - closed):.4e} "
                            f"> {SIGMAS:g} x stderr {stderr:.4e}")
    return problems


def prepare_sim_capacity(seed: int, work: Path, quick: bool) -> Plan:
    grid = (10,) if quick else (0, 10, 20)
    samples = 256 if quick else 4096
    scen = derive_scenario("stress_nt8m8.cfg", work / "stress_capacity.cfg", snr_grid_db=grid)
    cfg = _load(scen, trials=samples, seed=seed)
    refs = capacity_references(cfg, samples, seed)
    k = cfg.n_t * cfg.m_rpm
    out = work / "capacity_sim.csv"
    op = Op(["capacity", "--config", str(scen), "--mode", "sim", "--trials", str(samples),
             "--seed", str(seed), "--out", str(out)], out,
            lambda rows: check_capacity_sim(rows, grid, samples, k, refs))
    return Plan(scen, [op], points=len(grid), mc_samples=len(grid) * samples,
                info={"min_constellation_distance": min_constellation_distance(cfg)})


#: sim_capacity_nt8m8 is runnable by name but not listed in BENCHMARK.json:
#: three workloads left too little time per run for steady medians on a
#: 2-core machine, and sim_aber_n32 already reaches every simulate layer.
WORKLOADS = {
    "sim_aber_n32": prepare_sim_aber,
    "analytic_nt8m8": prepare_analytic,
    "sim_capacity_nt8m8": prepare_sim_capacity,
}
