"""Scenario parameters: a single validated record consumed by every other module.

Conventions baked in here:

* noise power is 1 per receive antenna, so "SNR (dB)" is just 10*log10(P_s);
* element spacings are configured as ratios kappa/lambda and delta/lambda;
* angles are plain radians and are always pinned explicitly in config files.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace


class ConfigError(ValueError):
    """Raised for an invalid parameter value or a malformed config file."""


#: Grid values at or above this make 8 P_s overflow, the largest effective
#: power the analytic layer forms: |c_i - c_j|^2 <= 4, doubled by the
#: paper-literal convention.
_MAX_SNR_DB = 10.0 * math.log10(sys.float_info.max / 8.0)


def path_loss(rho_0: float, d: float, eta: float) -> float:
    """Distance power law rho_0 * d**(-eta) of a distance d relative to the reference distance."""
    if rho_0 <= 0 or d <= 0 or eta <= 0:
        raise ValueError(f"path_loss requires positive arguments, got rho_0={rho_0}, d={d}, eta={eta}")
    return rho_0 * d ** (-eta)


@dataclass(frozen=True)
class SystemConfig:
    """All physical and dimensional parameters of one scenario.

    Immutable after construction; `validate` checks the invariants and returns
    the same object.
    """

    n_t: int = 2                      # BS transmit antennas (power of two)
    n_r: int = 1                      # UT receive antennas
    n_x: int = 4                      # IRS grid, x direction
    n_y: int = 4                      # IRS grid, y direction
    m_rpm: int = 2                    # reflection-phase constellation size (power of two)
    d_t: float = 1.0                  # BS->IRS distance, km
    d_r: float = 4.0                  # IRS->UT distance, km
    d_0: float = 1.0                  # reference distance, km
    eta: float = 2.3                  # path-loss exponent
    rho_0: float = 1.0                # path loss at the reference distance
    k_r: float = 2.0                  # Rician K-factor of the IRS->UT link
    kappa_over_lambda: float = 0.5    # IRS element spacing / wavelength
    delta_over_lambda: float = 0.5    # BS (and UT) antenna spacing / wavelength
    phi_a: float = 1.2695             # azimuth AoA at the IRS, rad, in (0, 2*pi)
    phi_e: float = 1.1864             # elevation AoA at the IRS, rad, in (0, 2*pi)
    phi_d: float = 0.4174             # AoD at the BS, rad
    psi_a: float = 1.6710             # azimuth AoD from the IRS, rad
    psi_e: float = 1.5708             # elevation AoD from the IRS, rad
    psi_d: float = 0.7854             # AoA at the UT, rad
    snr_grid_db: tuple[float, ...] = tuple(float(v) for v in range(0, 42, 2))
    seed: int = 20240915              # master RNG seed (64-bit unsigned)
    trials: int = 100_000             # Monte-Carlo trials per SNR point

    # ---- derived quantities -------------------------------------------------

    @property
    def n_elements(self) -> int:
        """Total IRS element count N = n_x * n_y."""
        return self.n_x * self.n_y

    @property
    def bits_total(self) -> int:
        """Bits per channel use, log2(n_t * m_rpm)."""
        return (self.n_t * self.m_rpm).bit_length() - 1

    @property
    def nu(self) -> float:
        """Path loss of the BS->IRS link, distance measured in units of d_0."""
        return path_loss(self.rho_0, self.d_t / self.d_0, self.eta)

    @property
    def nu_r(self) -> float:
        """Path loss of the IRS->UT link, distance measured in units of d_0."""
        return path_loss(self.rho_0, self.d_r / self.d_0, self.eta)


def _is_power_of_two(n: int) -> bool:
    return type(n) is int and n >= 1 and (n & (n - 1)) == 0


def validate(cfg: SystemConfig) -> SystemConfig:
    """Check every invariant; return cfg unchanged or raise ConfigError naming the first offender.
    An integer field takes an int only: not a bool, which would pass as 0 or 1."""
    if not _is_power_of_two(cfg.n_t):
        raise ConfigError(f"n_t={cfg.n_t} not a power of two")
    if not _is_power_of_two(cfg.m_rpm):
        raise ConfigError(f"m_rpm={cfg.m_rpm} not a power of two")
    for name in ("n_r", "n_x", "n_y"):
        v = getattr(cfg, name)
        if type(v) is not int or v < 1:
            raise ConfigError(f"{name}={v} must be a positive integer")
    for name in ("d_t", "d_r", "d_0", "eta", "rho_0", "kappa_over_lambda", "delta_over_lambda"):
        v = getattr(cfg, name)
        if not 0 < v < math.inf:
            raise ConfigError(f"{name}={v} must be finite and strictly positive")
    for name, d in (("nu", "d_t"), ("nu_r", "d_r")):
        try:
            v = getattr(cfg, name)
        except OverflowError:  # d ** -eta past the float range
            v = math.inf
        if not sys.float_info.min <= v < math.inf:
            raise ConfigError(f"{name}=rho_0*({d}/d_0)**-eta={v} must be a finite normal float")
    if not 0 <= cfg.k_r < math.inf:
        raise ConfigError(f"k_r={cfg.k_r} must be finite and non-negative")
    for name in ("phi_a", "phi_e"):
        v = getattr(cfg, name)
        if not 0.0 < v < 2.0 * math.pi:
            raise ConfigError(f"{name}={v} must lie in the open interval (0, 2*pi)")
    for name in ("phi_d", "psi_a", "psi_e", "psi_d"):
        v = getattr(cfg, name)
        if not math.isfinite(v):
            raise ConfigError(f"{name}={v} must be finite")
    grid = cfg.snr_grid_db
    if not all(-math.inf < v < _MAX_SNR_DB for v in grid):
        raise ConfigError(f"snr_grid_db={list(grid)} must be finite and below {_MAX_SNR_DB:.1f} dB")
    if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
        raise ConfigError(f"snr_grid_db={list(grid)} must be strictly increasing")
    if type(cfg.seed) is not int or not 0 <= cfg.seed < 2**64:
        raise ConfigError(f"seed={cfg.seed} must be a 64-bit unsigned integer")
    if type(cfg.trials) is not int or cfg.trials < 1:
        raise ConfigError(f"trials={cfg.trials} must be a positive integer")
    return cfg


def _parse_value(key: str, raw: str, lineno: int):
    try:
        if key == "snr_grid_db":
            return tuple(float(tok) for tok in raw.split(",")) if raw else ()  # empty: no point
        return type(getattr(SystemConfig, key))(raw)  # int or float, as the field's default
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: cannot parse {key}={raw!r}") from exc


def parse_config(text: str) -> SystemConfig:
    """Parse a key=value config body ('#' comments, one key per field, unknown keys rejected)."""
    known = {f.name for f in fields(SystemConfig)}
    seen: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = _parse_value(key, raw, lineno)
    return replace(SystemConfig(), **seen)


def load_config(path: str) -> SystemConfig:
    """Read and parse a config file; the result is not yet validated."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
