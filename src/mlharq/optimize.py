"""Throughput maximization over the power splits and (optionally) the rate.

Grid-then-shrink search rather than gradient methods: the objectives carry
kinks at the vanishing-threshold boundaries and can be multi-modal, while a
full grid is cheap.  Ties are broken toward alpha = beta = 1 (the
time-sharing corner), which picks a canonical representative on the flat
regions that appear at low SNR and large rate.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .closed_form import (
    prob_p0,
    prob_p1,
    prob_p2,
    prob_p3,
    prob_p4,
    throughput_mlh,
    throughput_sc,
    throughput_ts,
)
from .model import PROTOCOLS, PowerSplit, SystemConfig
from .quadrature import QuadratureSettings

__all__ = ["Optimum", "optimize_split", "optimize_rate_and_split"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Optimum:
    alpha_star: float
    beta_star: float
    rate_star: Optional[float]   # None when the rate was fixed
    throughput_star: float
    evaluations: int


def _axis_points(grid_step: float) -> list[float]:
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
    n = max(1, round(1.0 / grid_step))
    return [i / n for i in range(n + 1)]


def _window(center: float, step: float) -> list[float]:
    pts = sorted({min(1.0, max(0.0, center + k * step)) for k in range(-10, 11)})
    return pts


class _Search:
    """Bookkeeping shared by the per-protocol searches."""

    def __init__(self):
        self.evaluations = 0
        self.best = (-math.inf, -1.0, -1.0)  # (value, alpha, beta)

    def offer(self, value, alpha, beta):
        self.evaluations += 1
        if (value, alpha, beta) > self.best:
            self.best = (value, alpha, beta)


def _search_mlh(cfg, grid_step, refine_tol, settings):
    """Coarse 2-D grid exploiting the mirror symmetries, then local shrink.

    On the coarse grid the mirrored events are evaluated at the mirrored
    grid index (exact index mirror, never 1 - a); refinement and the
    returned value use the canonical objective.
    """
    pts = _axis_points(grid_step)
    n = len(pts) - 1
    search = _Search()

    r = cfg.rate_R
    for i, a in enumerate(pts):
        m = pts[n - i]
        p0 = prob_p0(a, cfg)
        base = (2.0 * p0 + 2.0 * (prob_p1(a, cfg, settings)
                                  + prob_p1(m, cfg, settings))
                + prob_p2(a, cfg, settings) + prob_p2(m, cfg, settings))
        denom = 2.0 - p0
        for j, b in enumerate(pts):
            # p3(i, j) = p3(n - i, n - j) is exact on the grid indices, not
            # on floats: the two quadratures differ in the last bits.  Both
            # read the canonical index, which the kernel cache then serves.
            ci, cj = min((i, j), (n - i, n - j))
            q = (base + 2.0 * prob_p3(pts[ci], pts[cj], cfg, settings)
                 + prob_p4(a, b, cfg, settings)
                 + prob_p4(m, pts[n - j], cfg, settings))
            search.offer(r * q / denom, a, b)

    def objective(a, b):
        return throughput_mlh(PowerSplit(alpha=a, beta=b), cfg, settings)

    step = grid_step
    while 2.0 * step > refine_tol:
        step /= 10.0
        _, a0, b0 = search.best
        for a in _window(a0, step):
            for b in _window(b0, step):
                search.offer(objective(a, b), a, b)

    _, a_star, b_star = search.best
    return Optimum(alpha_star=a_star, beta_star=b_star, rate_star=None,
                   throughput_star=objective(a_star, b_star),
                   evaluations=search.evaluations)


def _search_sc(cfg, grid_step, refine_tol, settings):
    search = _Search()

    def objective(a):
        return throughput_sc(a, cfg, settings)

    for a in _axis_points(grid_step):
        search.offer(objective(a), a, a)

    step = grid_step
    while 2.0 * step > refine_tol:
        step /= 10.0
        _, a0, _b = search.best
        for a in _window(a0, step):
            search.offer(objective(a), a, a)

    _, a_star, _ = search.best
    return Optimum(alpha_star=a_star, beta_star=a_star, rate_star=None,
                   throughput_star=objective(a_star),
                   evaluations=search.evaluations)


def optimize_split(protocol: str, cfg: SystemConfig, grid_step: float = 0.01,
                   refine_tol: float = 1e-4,
                   settings: Optional[QuadratureSettings] = None) -> Optimum:
    """Maximize throughput over the free power splits of one protocol.

    Time-sharing has no free split; superposition coding optimizes alpha
    only; multi-layer optimizes (alpha, beta) jointly.  The coarse grid has
    pitch grid_step (rounded to an integer subdivision of [0, 1]) and the
    incumbent is then refined by repeated 10x grid shrinks until the
    remaining argument box is below refine_tol per coordinate.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")
    if not refine_tol > 0:
        raise ValueError(f"refine_tol must be > 0, got {refine_tol}")
    if protocol == "ts":
        return Optimum(alpha_star=1.0, beta_star=1.0, rate_star=None,
                       throughput_star=throughput_ts(cfg, settings),
                       evaluations=1)
    if protocol == "sc":
        return _search_sc(cfg, grid_step, refine_tol, settings)
    return _search_mlh(cfg, grid_step, refine_tol, settings)


def default_rate_grid() -> list[float]:
    """60 log-spaced rates covering the regimes of interest."""
    return [float(r) for r in np.geomspace(0.05, 12.0, 60)]


def optimize_rate_and_split(protocol: str, cfg: SystemConfig,
                            rate_grid: Optional[Sequence[float]] = None,
                            grid_step: float = 0.01, refine_tol: float = 1e-4,
                            rate_refine_tol: float = 1e-3,
                            settings: Optional[QuadratureSettings] = None) -> Optimum:
    """Maximize throughput over the rate as well as the splits.

    Runs optimize_split at every rate of the grid, then refines the rate by
    golden-section search between the neighbors of the best grid point
    (local unimodality assumed there; the grid incumbent protects against a
    refinement miss).  cfg.rate_R is ignored and replaced point by point.
    """
    if rate_grid is None:
        rate_grid = default_rate_grid()
    rates = [float(r) for r in rate_grid]
    if not rates:
        raise ValueError("rate_grid must be nonempty")
    if any(r <= 0 for r in rates):
        raise ValueError("rates must be positive")
    if sorted(rates) != rates:
        raise ValueError("rate_grid must be sorted ascending")

    evaluations = 0
    cache: dict[float, Optimum] = {}

    def at_rate(r: float) -> Optimum:
        nonlocal evaluations
        if r not in cache:
            opt = optimize_split(protocol, replace(cfg, rate_R=r),
                                 grid_step=grid_step, refine_tol=refine_tol,
                                 settings=settings)
            cache[r] = opt
            evaluations += opt.evaluations
        return cache[r]

    best_rate = max(rates, key=lambda r: (at_rate(r).throughput_star, r))
    k = rates.index(best_rate)
    lo = rates[max(0, k - 1)]
    hi = rates[min(len(rates) - 1, k + 1)]

    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc = at_rate(c).throughput_star
    fd = at_rate(d).throughput_star
    tol = rate_refine_tol * max(1.0, best_rate)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = at_rate(c).throughput_star
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = at_rate(d).throughput_star

    rate_star = max(cache, key=lambda r: (cache[r].throughput_star, r))
    inner = cache[rate_star]
    return Optimum(alpha_star=inner.alpha_star, beta_star=inner.beta_star,
                   rate_star=rate_star, throughput_star=inner.throughput_star,
                   evaluations=evaluations)
