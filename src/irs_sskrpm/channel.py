"""Array responses and channel matrices.

The BS->IRS link H is a deterministic rank-1 line-of-sight outer product; the
IRS->UT link G is Rician: a rank-1 LoS component G_bar plus an i.i.d.
circularly-symmetric Gaussian part, mixed by the K-factor. Because H is
rank-1, the receiver sees G only through the n_r-vector g_eff = G^H a_irs
(see `Channel`).

IRS elements are enumerated y-major: the flat index of grid element
(nx, ny) is ny * n_x + nx. All sums downstream run over all N elements,
so results do not depend on this choice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .config import SystemConfig

#: Geometries whose tables a process keeps, least recently used dropped first.
_CACHED_GEOMETRIES = 16


def steering_irs(phi_a: float, phi_e: float, n_x: int, n_y: int,
                 kappa_over_lambda: float) -> np.ndarray:
    """Planar-array response of the IRS; unit-modulus, first entry exactly 1.

    Entry for grid index (nx, ny) is
    exp(-j*2*pi*(kappa/lambda)*(nx*sin(phi_e)*cos(phi_a) + ny*cos(phi_e))),
    flattened y-major.
    """
    if n_x < 1 or n_y < 1:
        raise ValueError(f"grid dimensions must be >= 1, got n_x={n_x}, n_y={n_y}")
    nx = np.arange(n_x)
    ny = np.arange(n_y)
    # shape (n_y, n_x); C-order ravel gives flat index ny * n_x + nx
    phase = nx[None, :] * (np.sin(phi_e) * np.cos(phi_a)) + ny[:, None] * np.cos(phi_e)
    return np.exp(-2j * np.pi * kappa_over_lambda * phase).ravel()


def steering_bs(phi_d: float, n_t: int, delta_over_lambda: float) -> np.ndarray:
    """Uniform-linear-array response; element k is exp(-j*2*pi*(delta/lambda)*k*sin(phi_d))."""
    if n_t < 1:
        raise ValueError(f"array length must be >= 1, got n_t={n_t}")
    return np.exp(-2j * np.pi * delta_over_lambda * np.arange(n_t) * np.sin(phi_d))


def build_g_bar(cfg: SystemConfig) -> np.ndarray:
    """Unit-modulus LoS component of the IRS->UT matrix.

    The UT array response reuses the ULA formula at the configured
    delta/lambda spacing (the UT spacing is not specified independently).
    """
    a_irs = steering_irs(cfg.psi_a, cfg.psi_e, cfg.n_x, cfg.n_y, cfg.kappa_over_lambda)
    a_ut = steering_bs(cfg.psi_d, cfg.n_r, cfg.delta_over_lambda)
    return np.outer(a_irs, a_ut)


def rician_weights(cfg: SystemConfig) -> tuple[float, float]:
    """(LoS amplitude, NLoS amplitude) of the IRS->UT mixture:
    sqrt(K*nu_r/(1+K)) and sqrt(nu_r/(1+K))."""
    return (np.sqrt(cfg.k_r * cfg.nu_r / (1.0 + cfg.k_r)),
            np.sqrt(cfg.nu_r / (1.0 + cfg.k_r)))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """arrays, made read-only: a cached table is shared by every later caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


#: The radians within which an edge or a trial's angle is too near its point or the antipode
#: for the edge walk (`Channel.walk`), far above the 5.7e-12 rad that `_group` resolves.
_NEAR = 1e-7
#: The walk's relative slack on a crossing amplitude (`Channel.walk`).
_SLACK = 1e-9


def _group(turns: np.ndarray, fold: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The one rule for which constellation angles (in turns) coincide: those on one
    step of a 2^-40-turn grid modulo one turn (with fold, also modulo sign), which the
    detector's float angle cannot resolve anyway (5.7e-12 rad). Returns each group's
    first index, ascending by step, and the group of each entry."""
    key = np.rint(turns * 2.0 ** 40).astype(np.int64) % 2 ** 40
    key = np.minimum(key, 2 ** 40 - key) if fold else key
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    return first, group.reshape(np.shape(turns))


@dataclass(frozen=True, eq=False)
class Channel:
    """The deterministic part of the link and its rank-1 reduction; read-only, as its tables
    (the cached properties `distances`, `hamming`, `classes`, `wedges`, `edges` and `walk`,
    each built on first read), and one instance per geometry, so identity is equality.

    H = sqrt(nu) a_irs a_bs^T, so hypothesis k has the noise-free signature
    sqrt_nu * points[k] * g_eff, where g_eff = G^H a_irs ~ CN(mean, scale^2 I_{n_r}).

    h       -- BS->IRS matrix, (N, n_t).
    g_bar   -- unit-modulus LoS component of the IRS->UT matrix G, (N, n_r).
    points  -- the n_t*m_rpm unit-circle points exp(2 pi j turns), t-major; points[0] == 1.
    turns   -- point t*M + m at m/M - (delta/lambda) sin(phi_d) t turns, in [-1/2, 1/2];
               a group of `_group` is one location, owned by its smallest index.
    mean    -- LoS part of g_eff, w_los * G_bar^H a_irs, shape (n_r,), and mean_norm its norm.
    scale   -- diffuse amplitude w_nlos * sqrt(N).
    sqrt_nu -- amplitude of the BS->IRS path loss.
    m_rpm   -- phases per antenna: the label of point t*M + m is its flat index.
    """

    h: np.ndarray
    g_bar: np.ndarray
    points: np.ndarray
    turns: np.ndarray
    mean: np.ndarray
    mean_norm: float
    scale: float
    sqrt_nu: float
    m_rpm: int

    @cached_property
    def distances(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct |c_i - c_j|^2 over the ordered pairs of points, ascending (at
        most K; 0 within a location), and the (K, K) index of each pair into them."""
        # every pair offset is, up to rounding, an offset from hypothesis 0: a folded
        # group of turns, and pair (0, first[g]) is exactly at group g. A pair takes the
        # nearest one, so a rounded offset on a grid-step boundary opens no group of its own.
        first, group = _group(self.turns)
        owned = self.turns[first][group]  # a location's points are 0 apart
        offset = owned[None, :] - owned[:, None]
        offset = np.abs(offset - np.rint(offset))
        first, _ = _group(self.turns, fold=True)  # ascending in |turns|, first[0] == 0
        near = np.append(np.abs(self.turns[first]), np.inf)
        above = np.searchsorted(near, offset).clip(1)
        nearest = np.where(offset - near[above - 1] <= near[above] - offset, above - 1, above)
        d, group = np.unique(np.abs(1.0 - self.points[first]) ** 2, return_inverse=True)
        return _frozen(d, group[nearest])

    @cached_property
    def hamming(self) -> np.ndarray:
        """The (K, K) Hamming distance of the labels of each ordered pair, popcount(i ^ j)."""
        idx = np.arange(self.points.size)
        weight = np.array([bin(v).count("1") for v in idx.tolist()])
        return _frozen(weight[np.bitwise_xor.outer(idx, idx)])[0]

    @cached_property
    def classes(self) -> np.ndarray:
        """(4, D) over the D `distances`: per error event class -- antenna-only (same phase),
        phase-only (same antenna) and joint -- the summed Hamming distance of its ordered pairs
        at each distance, then the count of joint pairs at each distance."""
        idx, (d, index) = np.arange(self.points.size), self.distances
        xor = np.bitwise_xor.outer(idx, idx)  # the diagonal, of Hamming distance 0, is class 0
        key = (np.where(xor & (self.m_rpm - 1), 2 - (xor < self.m_rpm), 0) * d.size + index).ravel()
        hamming = np.bincount(key, self.hamming.ravel(), 3 * d.size).reshape(3, -1)
        return _frozen(np.vstack([hamming, np.bincount(key, minlength=3 * d.size)[2 * d.size:]]))[0]

    @cached_property
    def wedges(self) -> tuple[np.ndarray, np.ndarray]:
        """The ML decision regions (`airlink.ml_detect`): the ascending bisectors of
        the locations' angles, closed into a ring a turn below and above, and the
        owner of each interval: an angle in [-pi, pi] decides winners[bisectors below it]."""
        owner, _ = _group(self.turns)
        owner = owner[np.argsort(self.turns[owner])]
        angle = 2.0 * np.pi * self.turns[owner]
        ring = np.concatenate([angle[-1:] - 2.0 * np.pi, angle, angle[:1] + 2.0 * np.pi])
        return _frozen((ring[:-1] + ring[1:]) / 2.0, np.concatenate([owner[-1:], owner, owner[:1]]))

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Each point's `wedges` edges on each side (0: below its angle, 1: above), from
        its home wedge outward: the radians from the point to each edge short of the
        antipode, (2, K, J), padded with pi, and the owner of each wedge on the way,
        (2, K, J + 1), home first and the last repeated."""
        owner, (bisectors, winners) = np.take(*_group(self.turns)), self.wedges
        n, side = bisectors.size - 1, np.arange(2)[:, None, None]
        angle = 2.0 * np.pi * (self.turns - np.rint(self.turns - self.turns[owner]))
        # ring index e of each edge outward (column 0: the home's other edge): edge e lies at
        # bisectors[1 + (e - 1) % n] plus whole turns, and winners[1 + (e + side - 1) % n]
        # owns the wedge past it
        ring = (np.searchsorted(bisectors, 2.0 * np.pi * self.turns[owner])[:, None] + side - 1
                + (2 * side - 1) * np.arange(-1, n))
        beta = (2 * side - 1) * (bisectors[1 + (ring - 1) % n] + 2.0 * np.pi * ((ring - 1) // n)
                                 - angle[:, None])
        reach = np.sum(beta[..., 1:] < np.pi, axis=-1, keepdims=True)  # edges ascend outward
        j = np.arange(max(1, reach.max()) + 1)
        ring = np.take_along_axis(ring, np.minimum(j, reach), -1) + side - 1
        return _frozen(np.where(j[1:] <= reach, beta[..., j[1:]], np.pi), winners[1 + ring % n])

    @cached_property
    def walk(self) -> tuple[np.ndarray, ...]:
        """The `edges` as `airlink._ber_decide` walks them. Per row side * K + code: whether the
        home edge is within `_NEAR` of the point, and the home's Hamming distance. Per edge,
        (J, 2K): its cot and crossing slack `_SLACK`/sin (-inf and 0 within `_NEAR` of the antipode,
        so never crossed), and the Hamming step of crossing it, hamming[code, owner] differenced."""
        (beta, owner), k = self.edges, self.points.size
        seen = beta < np.pi - _NEAR
        bits = self.hamming[np.arange(k)[:, None], owner].astype(float)  # bincount weighs in floats
        with np.errstate(divide="ignore"):  # a point on its home edge is left to the detector
            edge = (np.where(seen, 1.0 / np.tan(beta), -np.inf),
                    np.where(seen, 1.0 / np.sin(beta), 0.0) * _SLACK, np.diff(bits, axis=-1))
        return _frozen((beta[..., 0] <= _NEAR).ravel(), bits[..., 0].ravel(),
                       *(v.reshape(2 * k, -1).T.copy() for v in edge))


@lru_cache(maxsize=_CACHED_GEOMETRIES)
def _geometry(cfg: SystemConfig) -> SystemConfig:
    """The geometry cache key: cfg less the grid, seed and trial count, which no channel reads."""
    return replace(cfg, snr_grid_db=(), seed=0, trials=1)


def make_channel(cfg: SystemConfig) -> Channel:
    """H, G_bar, the constellation and the g_eff distribution of cfg: one read-only instance per
    geometry (all fields but snr_grid_db, seed and trials), for the last `_CACHED_GEOMETRIES`."""
    return _channel(_geometry(cfg))


@lru_cache(maxsize=_CACHED_GEOMETRIES)
def _channel(cfg: SystemConfig) -> Channel:
    a_irs = steering_irs(cfg.phi_a, cfg.phi_e, cfg.n_x, cfg.n_y, cfg.kappa_over_lambda)
    h = np.sqrt(cfg.nu) * np.outer(a_irs, steering_bs(cfg.phi_d, cfg.n_t, cfg.delta_over_lambda))
    g_bar = build_g_bar(cfg)
    w_los, w_nlos = rician_weights(cfg)
    t, m = np.divmod(np.arange(cfg.n_t * cfg.m_rpm), cfg.m_rpm)
    turns = m / cfg.m_rpm - cfg.delta_over_lambda * np.sin(cfg.phi_d) * t
    turns -= np.rint(turns)
    h, g_bar, points, turns, mean = _frozen(h, g_bar, np.exp(2j * np.pi * turns), turns,
                                            w_los * (g_bar.conj().T @ a_irs))
    return Channel(h=h, g_bar=g_bar, points=points, turns=turns, mean=mean,
                   scale=float(w_nlos * np.sqrt(cfg.n_elements)), sqrt_nu=float(np.sqrt(cfg.nu)),
                   m_rpm=cfg.m_rpm, mean_norm=float(np.linalg.norm(mean)))
