"""Throughput maximization over the power splits and (optionally) the rate.

Grid-then-shrink search rather than gradient methods: the objectives carry
kinks at the vanishing-threshold boundaries and can be multi-modal, while a
full grid is cheap.  Ties are broken toward alpha = beta = 1 (the
time-sharing corner), which picks a canonical representative on the flat
regions that appear at low SNR and large rate.

Each coarse grid and refinement window is evaluated with one lockstep
quadrature per slot-2 kernel (the closed forms' _grid functions, whose
values have the scalar closed forms' bits), and the values are then
offered one by one in the scalar search's order and arithmetic.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .closed_form import (
    EventProbs,
    mlh_throughput_from_probs,
    prob_p0,
    prob_p1,
    prob_p2,
    prob_p3,
    prob_p3_grid,
    prob_p4,
    prob_p4_grid,
    prob_sc_grid,
    sc_throughput_from_probs,
    throughput_mlh,
    throughput_sc,
    throughput_ts,
)
from .model import PROTOCOLS, PowerSplit, SystemConfig
from .quadrature import NonConvergence, QuadratureSettings

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


def _coarse_kernels(pts, cfg, settings):
    """Lookups p3(i, j) and p4(i, j) of the slot-2 kernels at grid indices;
    p3 is read only at canonical indices, (i, j) <= (n - i, n - j).

    Both come from one lockstep quadrature each.  If one fails to converge,
    the lookups fall back to the scalar closed forms, which then raise the
    failure that the scalar search meets first.
    """
    n = len(pts) - 1
    idx = range(n + 1)
    canon = [(i, j) for i in idx for j in idx if (i, j) <= (n - i, n - j)]
    try:
        t4 = prob_p4_grid([pts[i] for i in idx for _ in idx], pts * (n + 1),
                          cfg, settings).reshape(n + 1, n + 1).tolist()
        t3 = dict(zip(canon, prob_p3_grid([pts[i] for i, _ in canon],
                                          [pts[j] for _, j in canon],
                                          cfg, settings).tolist()))
    except NonConvergence:
        return (lambda i, j: prob_p3(pts[i], pts[j], cfg, settings),
                lambda i, j: prob_p4(pts[i], pts[j], cfg, settings))
    return (lambda i, j: t3[i, j]), (lambda i, j: t4[i][j])


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
    p3, p4 = _coarse_kernels(pts, cfg, settings)
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
            # read the canonical index.
            ci, cj = min((i, j), (n - i, n - j))
            q = base + 2.0 * p3(ci, cj) + p4(i, j) + p4(n - i, n - j)
            search.offer(r * q / denom, a, b)

    def objective(a, b):
        return throughput_mlh(PowerSplit(alpha=a, beta=b), cfg, settings)

    step = grid_step
    while 2.0 * step > refine_tol:
        step /= 10.0
        _, a0, b0 = search.best
        window = [(a, b) for a in _window(a0, step) for b in _window(b0, step)]
        try:
            values = _mlh_values(window, cfg, settings)
        except NonConvergence:
            # point by point, the failure the scalar search meets first
            values = (objective(a, b) for a, b in window)
        for (a, b), value in zip(window, values):
            search.offer(value, a, b)

    _, a_star, b_star = search.best
    return Optimum(alpha_star=a_star, beta_star=b_star, rate_star=None,
                   throughput_star=objective(a_star, b_star),
                   evaluations=search.evaluations)


def _mlh_values(points, cfg, settings):
    """throughput_mlh at each (alpha, beta) of points, with the same bits."""
    alphas = [a for a, _ in points]
    betas = [b for _, b in points]
    p3 = prob_p3_grid(alphas, betas, cfg, settings).tolist()
    p4 = prob_p4_grid(alphas + [1.0 - a for a in alphas],
                      betas + [1.0 - b for b in betas], cfg, settings).tolist()
    # the slot-1 events depend on alpha alone: once per distinct alpha
    slot1 = {a: (prob_p0(a, cfg),
                 prob_p1(a, cfg, settings), prob_p1(1.0 - a, cfg, settings),
                 prob_p2(a, cfg, settings), prob_p2(1.0 - a, cfg, settings))
             for a in dict.fromkeys(alphas)}
    values = []
    for k, a in enumerate(alphas):
        p0, p1, p1p, p2, p2p = slot1[a]
        probs = EventProbs(p0=p0, p1=p1, p1p=p1p, p2=p2, p2p=p2p,
                           p3=p3[k], p4=p4[k], p4p=p4[len(alphas) + k])
        values.append(mlh_throughput_from_probs(probs, cfg))
    return values


def _search_sc(cfg, grid_step, refine_tol, settings):
    search = _Search()

    def objective(a):
        return throughput_sc(a, cfg, settings)

    def offer_all(alphas):
        for a, probs in zip(alphas, prob_sc_grid(alphas, cfg, settings)):
            search.offer(sc_throughput_from_probs(probs, cfg), a, a)

    offer_all(_axis_points(grid_step))
    step = grid_step
    while 2.0 * step > refine_tol:
        step /= 10.0
        _, a0, _b = search.best
        offer_all(_window(a0, step))

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
