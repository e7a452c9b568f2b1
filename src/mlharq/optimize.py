"""Throughput maximization over the power splits and (optionally) the rate.

Grid-then-shrink search rather than gradient methods: the objectives carry
kinks at the vanishing-threshold boundaries and can be multi-modal, while a
full grid is cheap.  Ties are broken toward alpha = beta = 1 (the
time-sharing corner), which picks a canonical representative on the flat
regions that appear at low SNR and large rate.

Each coarse grid and refinement window is evaluated in lockstep
quadratures (closed_form's _mlh_columns and _sc_columns, whose values
have the scalar closed forms' bits) for all its integrals: p1 at each
distinct share and its mirror, then p3 and p4 for mlh, tp3, tp4 and tp4p
for sc; one call per window and per sc grid.  The mlh coarse grid
integrates only the points that can still be its argmax: the others are
pruned by upper bounds on p3 and p4 (closed_form's prob_p3_p4_bound)
against an incumbent, in a few _mlh_columns calls (_coarse_values), the
first of which carries p1.  The values are combined elementwise by
mlh_throughput_from_probs and sc_throughput_from_probs and offered as one
array, a pruned point as NaN: the winner is the one a point-by-point loop
in the scalar search's order would keep.  A lockstep call that fails
raises the NonConvergence of its lowest failing integral, which names a
kernel, shares and config at which the scalar closed form fails too.
"""

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .closed_form import (
    EventProbs,
    _bound_slack,
    _mlh_columns,
    _sc_columns,
    mlh_throughput_from_probs,
    prob_p3_p4_bound,
    sc_throughput_from_probs,
    throughput_mlh,
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


_MAX_GRID = 1000   # cap on the coarse grid's subdivisions of [0, 1]
_BOUND_PIECES = (8, 32)   # pieces of the mlh coarse grid's bounds, pass by pass
_INCUMBENT_POINTS = 16    # points integrated per pass: the highest bounds


def _axis_points(grid_step: float) -> list[float]:
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
    if 1.0 / grid_step > _MAX_GRID + 0.5:   # it would round to more
        raise ValueError(f"grid_step {grid_step} makes more than {_MAX_GRID} "
                         "subdivisions of [0, 1]")
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

    def offer(self, values, alphas, betas):
        """Offer the points (values[k], alphas[k], betas[k]) in order.

        The best becomes what a loop of `if point > best: best = point`
        over them leaves: the lexicographic max of (value, alpha, beta),
        the earliest of equal ones, where a NaN value never wins.
        """
        values, alphas, betas = (np.asarray(x, dtype=float)
                                 for x in (values, alphas, betas))
        self.evaluations += len(values)
        top = ~np.isnan(values)
        if not top.any():
            return
        for key in (values, alphas, betas):
            top &= key == key[top].max()
        k = int(np.argmax(top))
        point = (float(values[k]), float(alphas[k]), float(betas[k]))
        if point > self.best:
            self.best = point


def _coarse_values(pts, cfg, settings):
    """The mlh objective at every coarse grid point (pts[i], pts[j]), an
    (n + 1, n + 1) array, in mlh_throughput_from_probs' arithmetic; NaN at
    a point pruned as one that cannot be the grid's argmax.

    The mirrored events are evaluated at the mirrored grid index (exact
    index mirror, never 1 - a), and p3(i, j) = p3(n - i, n - j), which is
    exact on the indices, not on floats (the two quadratures differ in the
    last bits), at the canonical one of the two.  The slot-1 events depend
    on the row alone: the first _mlh_columns call integrates p1 at every
    grid share, then the corner's p3 and p4, and the later calls, which
    pass no rows, p3 and p4 alone.

    Only the argmax is used, so only the points that can still win are
    integrated.  prob_p3_p4_bound gives each p3/p4 integral an upper bound
    on the value its quadrature returns, with no quadrature, so the
    objective in the same arithmetic gives each point a bound.  The
    incumbent starts at the time-sharing corner (1, 1).  Then for 8, then
    32 pieces: the points still in play are bounded, the 16 highest bounds
    are integrated and the best value found becomes the incumbent, and a
    point whose bound lies below it is pruned.  Two margins keep that
    sound: each integral's bound carries closed_form._BOUND_MARGIN for its
    own rounding and 6 max(abs_tol, rel_tol) of the run's settings for the
    quadrature's, so the objective's bound carries 24 R max(abs_tol,
    rel_tol) over a denominator 2 - p0 <= 2: at least 12 R max(abs_tol,
    rel_tol).  A pruned point's value thus lies below the incumbent, a
    value of the grid, and never wins; a NaN or +inf bound never prunes.
    No integral's bound falls below those margins, so a point whose
    objective at the margins alone reaches the incumbent cannot be pruned
    and is not bounded again.  The points left are integrated in one last
    lockstep call, each integral once over all the calls.  The pruned
    points are offered as NaN, which never wins, so the argmax, the windows
    and `evaluations` are those of the whole grid.

    Each lockstep call's NonConvergence names its lowest failing integral
    (p1 before p3 before p4), a share or point at which the scalar closed
    form fails as well; an integral at a pruned point is never run and
    cannot fail.
    tests/test_optimizer.py pins the search to its scalar_search, which
    integrates every point (TestMatchesScalarSearch).
    """
    n = len(pts) - 1
    size = (n + 1) ** 2
    grid = np.array(pts)
    i, j = np.divmod(np.arange(size), n + 1)
    alphas, betas = grid[i], grid[j]
    # flat indices: the mirror of point k is size - 1 - k, and p3 lives at
    # the lower of the two, the canonical point
    canon = np.minimum(np.arange(size), np.arange(size)[::-1])

    def needs(points):
        """Masks of the p3 and p4 integrals that the objective at `points`
        reads."""
        need3 = np.zeros(size, dtype=bool)
        need3[canon[points]] = True
        return need3, points | points[::-1]

    p3, p4 = np.full(size, np.nan), np.full(size, np.nan)   # NaN: not run

    def missing(points):
        """The p3 and p4 integrals that the objective at `points` reads and
        that have not run."""
        return (np.flatnonzero(need & np.isnan(p))
                for need, p in zip(needs(points), (p3, p4)))

    def integrate(points, shares=grid[:0]):
        """Run the p3 and p4 integrals that the objective at `points` reads
        and that have not run, with the slot-1 terms of the rows `shares`;
        those terms."""
        k3, k4 = missing(points)
        slot1, p3[k3], p4[k4] = _mlh_columns(shares, shares[::-1], alphas[k3],
                                             betas[k3], alphas[k4], betas[k4],
                                             cfg, settings)
        return slot1

    # the first lockstep call: every row's slot-1 terms, at its share and
    # its mirrored share, with the corner (1, 1)
    slot1 = integrate(np.arange(size) == size - 1, grid)
    rows = {name: column[:, None] for name, column in vars(slot1).items()}

    def objective(p3, p4):
        """mlh_throughput_from_probs at every point, the rows' slot-1
        columns broadcast along the rows."""
        square = (n + 1, n + 1)
        probs = SimpleNamespace(**rows, p3=p3[canon].reshape(square),
                                p4=p4.reshape(square), p4p=p4[::-1].reshape(square))
        return mlh_throughput_from_probs(probs, cfg).ravel()

    u3, u4 = np.full(size, np.nan), np.full(size, np.nan)   # the bounds

    def bound(points, pieces):
        k3, k4 = (np.flatnonzero(need) for need in needs(points))
        u3[k3], u4[k4] = prob_p3_p4_bound(alphas[k3], betas[k3], alphas[k4],
                                          betas[k4], cfg, pieces, settings)
        return objective(u3, u4)

    slack = np.full(size, _bound_slack(settings))
    floor = objective(slack, slack)   # no point's bound lies below its floor
    incumbent = objective(p3, p4)[-1]
    live = np.ones(size, dtype=bool)
    candidates = live   # the points to bound: at first all of them
    for pieces in _BOUND_PIECES:
        if not (candidates & (floor < incumbent)).any():
            break
        tb = np.where(live, bound(candidates, pieces), np.nan)
        top = np.zeros(size, dtype=bool)
        top[np.argsort(-tb, kind="stable")[:_INCUMBENT_POINTS]] = True
        top &= live
        integrate(top)
        incumbent = max(incumbent, objective(p3, p4)[top].max(initial=-math.inf))
        live = live & ~(tb < incumbent)
        candidates = live & (floor < incumbent)
    integrate(live)
    return objective(p3, p4).reshape(n + 1, n + 1)


def _search_mlh(cfg, grid_step, refine_tol, settings):
    """Coarse 2-D grid exploiting the mirror symmetries, then local shrink.

    Refinement and the returned value use the canonical objective.  Each
    window holds its centre (center + 0*step), so the incumbent is a point
    of the last window, whose values have throughput_mlh's bits: that
    value is returned without integrating it again.  With no window, the
    objective is evaluated at the incumbent.
    """
    pts = _axis_points(grid_step)
    grid = np.array(pts)
    search = _Search()
    search.offer(_coarse_values(pts, cfg, settings).ravel(),
                 np.repeat(grid, len(grid)), np.tile(grid, len(grid)))

    def objective(a, b):
        return throughput_mlh(PowerSplit(alpha=a, beta=b), cfg, settings)

    at_star = []   # the last window's value at the incumbent
    step = grid_step
    while 2.0 * step > refine_tol:
        step /= 10.0
        _, a0, b0 = search.best
        wa, wb = np.array(_window(a0, step)), np.array(_window(b0, step))
        alphas, betas = np.repeat(wa, len(wb)), np.tile(wb, len(wa))
        values = _mlh_values(alphas, betas, cfg, settings)
        search.offer(values, alphas, betas)
        _, a_star, b_star = search.best
        at_star = values[(alphas == a_star) & (betas == b_star)]

    _, a_star, b_star = search.best
    value = float(at_star[0]) if len(at_star) else objective(a_star, b_star)
    return Optimum(alpha_star=a_star, beta_star=b_star, rate_star=None,
                   throughput_star=value, evaluations=search.evaluations)


def _mlh_values(alphas, betas, cfg, settings):
    """throughput_mlh at each point (alphas[k], betas[k]), with the same
    bits, in one lockstep call: p1 at each distinct alpha and 1 - alpha,
    then the p3 and p4 integrals.  At the first point whose EventProbs
    fails a check, the same ValueError."""
    n = len(alphas)
    distinct, inverse = np.unique(alphas, return_inverse=True)
    slot1, p3, p4 = _mlh_columns(distinct, 1.0 - distinct, alphas, betas,
                                 np.concatenate([alphas, 1.0 - alphas]),
                                 np.concatenate([betas, 1.0 - betas]), cfg,
                                 settings)
    probs = EventProbs.checked_columns(
        **{name: column[inverse] for name, column in vars(slot1).items()},
        p3=p3, p4=p4[:n], p4p=p4[n:])
    return mlh_throughput_from_probs(probs, cfg)


def _search_sc(cfg, grid_step, refine_tol, settings):
    """Coarse 1-D grid, then local shrink.

    The returned value is the best offer's: the grid and every window are
    evaluated by sc_throughput_from_probs on prob_sc's bits, so it equals
    throughput_sc(alpha_star) bit for bit without integrating it again.
    """
    search = _Search()

    def offer_all(alphas):
        search.offer(sc_throughput_from_probs(_sc_columns(alphas, cfg, settings),
                                              cfg), alphas, alphas)

    offer_all(_axis_points(grid_step))
    step = grid_step
    while 2.0 * step > refine_tol:
        step /= 10.0
        _, a0, _b = search.best
        offer_all(_window(a0, step))

    value, a_star, _ = search.best
    return Optimum(alpha_star=a_star, beta_star=a_star, rate_star=None,
                   throughput_star=value,
                   evaluations=search.evaluations)


def optimize_split(protocol: str, cfg: SystemConfig, grid_step: float = 0.01,
                   refine_tol: float = 1e-4,
                   settings: Optional[QuadratureSettings] = None) -> Optimum:
    """Maximize throughput over the free power splits of one protocol.

    Time-sharing has no free split; superposition coding optimizes alpha
    only; multi-layer optimizes (alpha, beta) jointly.  The coarse grid has
    pitch grid_step (rounded to an integer subdivision of [0, 1], at most
    1000 of them, else ValueError) and the incumbent is then refined by
    repeated 10x grid shrinks until the remaining argument box is below
    refine_tol per coordinate.

    The mlh coarse grid integrates only the points whose upper bound, with
    margins for rounding and for the quadrature tolerance, still reaches the
    best value integrated so far; a pruned point is offered as NaN, so the
    result and `evaluations` (every grid and window point) are those of the
    whole grid.  An integral at a pruned point is never run, so it cannot
    raise NonConvergence either.
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
