"""Throughput maximization over the power splits and (optionally) the rate.

Grid-then-shrink search rather than gradient methods: the objectives carry
kinks at the vanishing-threshold boundaries and can be multi-modal, while a
full grid is cheap.  Ties are broken toward alpha = beta = 1 (the
time-sharing corner), which picks a canonical representative on the flat
regions that appear at low SNR and large rate.

Each coarse grid and refinement window is evaluated in lockstep
quadratures (closed_form's _mlh_columns, _sc_columns and _lockstep, whose
values have the scalar closed forms' bits) for all its integrals: p1 at
each distinct share and its mirror, then p3 and p4 for mlh, tp3, tp4 and
tp4p for sc.  One call per sc grid, and one call per window, unless a
stage ends on the point it started from (the coarse grid on the
time-sharing corner, where it seeds its incumbent, or a window on its
centre; at 3 dB both searches keep the corner throughout at 9 of the 12
rates of the benchmark's sweep): then all the remaining windows, centred
on that point, run in one call, and are offered in turn until one moves
the best point (_refine).  The later windows are dropped, so the windows
offered, their values and failures, the result and `evaluations` are
those of one call per window.  The mlh coarse grid integrates only the
points that can still be its argmax: the others are pruned by upper
bounds on p3 and p4 against an incumbent (closed_form's _cell_bound),
first over blocks of points, then at each point left, a one-point block,
in a few _mlh_columns calls (_coarse_values), the first of which carries
p1.  The values are combined elementwise by
mlh_throughput_from_probs and sc_throughput_from_probs and offered as one
array, a pruned point as NaN: the winner is the one a point-by-point loop
in the scalar search's order would keep.  A lockstep call that fails
raises the NonConvergence of its lowest failing integral, which names a
kernel, shares and config at which the scalar closed form fails too; one
that holds speculative windows runs its first window again alone, which
raises only if that window fails.
"""

import math
from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .closed_form import (
    EventProbs,
    ScProbs,
    _bound_slack,
    _cell_bound,
    _lockstep,
    _mlh_columns,
    _mlh_job,
    _sc_columns,
    _sc_job,
    mlh_throughput_from_probs,
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
_PASSES = ((8, 32), (1, 8), (1, 32))   # mlh coarse grid bounds: (block side, pieces)
_INCUMBENT_POINTS = 16    # points integrated per point pass: the highest bounds


def _axis_points(grid_step: float) -> list[float]:
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
    if 1.0 / grid_step > _MAX_GRID + 0.5:   # it would round to more
        raise ValueError(f"grid_step {grid_step} makes more than {_MAX_GRID} "
                         "subdivisions of [0, 1]")
    n = max(1, round(1.0 / grid_step))
    return [i / n for i in range(n + 1)]


def _blocks(n, side):
    """The blocks of the grid indices 0..n: `side` indices each from either
    end, and the rest, fewer than 2 side, in one middle block.  Returns
    (first, last, block): each block's first and last index, and each
    index's block.  The blocks are mirror-symmetric: the mirrors n - i of
    block b's indices are block nb - 1 - b."""
    m = (n + 1) // (2 * side)
    middle = [m * side] if n + 1 > 2 * m * side else []
    first = np.array([*range(0, m * side, side), *middle,
                      *range(n + 1 - m * side, n + 1, side)])
    last = np.append(first[1:], n + 1) - 1
    return first, last, np.repeat(np.arange(len(first)), last - first + 1)


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
    integrated.  closed_form's _cell_bound gives the p3/p4 integrals at
    every point of a cell of shares an upper bound on the values their
    quadratures return, with no quadrature, so the objective in the same
    arithmetic gives each point a bound.  The incumbent starts at the
    time-sharing corner (1, 1).

    The passes of _PASSES run in turn, each bounding the points left by
    blocks of side x side points (_blocks, mirror-symmetric), each block a
    cell: a point's bound takes p3 from the canonical point's cell, p4
    from its own and p4' from its mirror's (the exact index mirror), and
    only the cells read are bounded.  A point whose bound lies below the
    incumbent is pruned.  The block pass, 8 x 8 blocks at 32 pieces (169
    cells at 0.01, 91 of them for p3), runs against the corner's value:
    where the corner is the argmax (9 of the 12 rates at 3 dB) it prunes
    92-99% of the points.  Then the point passes (side 1) at 8, then 32
    pieces, each integrating the 16 points of highest bound for a new
    incumbent; the 8-piece pass is skipped once a point is pruned (it
    then prunes few, 13% at 3 dB, R = 1.3, or few points are left).  A
    side's first pass bounds every point left, a later one only those
    whose objective at the margins alone lies below the incumbent; the
    others keep their earlier bounds.

    Two margins keep that sound: each integral's bound carries
    closed_form._BOUND_MARGIN for its own rounding and 6 max(abs_tol,
    rel_tol) of the run's settings for the quadrature's, so the
    objective's bound carries 24 R max(abs_tol, rel_tol) over a
    denominator 2 - p0 <= 2: at least 12 R max(abs_tol, rel_tol).  A
    pruned point's value thus lies below the incumbent, a value of the
    grid, and never wins; a NaN or +inf bound never prunes.  No
    integral's bound falls below those margins, so a point whose objective
    at the margins alone reaches the incumbent cannot be pruned; where
    every point's does, no pass runs.  The points left are integrated in
    one last lockstep call, each integral once over all the calls.  The
    pruned points are offered as NaN, which never wins, so the argmax, the
    windows and `evaluations` are those of the whole grid.

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
        those terms.  With nothing to integrate, no lockstep call."""
        k3, k4 = missing(points)
        if not (len(shares) or k3.size or k4.size):
            return None
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

    cells = {}   # per block side: point-to-cell map, block ends, p3/p4 bounds

    def bound(points, side, pieces):
        """Each point's bound, the objective at its cells' bounds (see
        above): the cells that the objective reads at `points` are bounded
        at `pieces`, the others keep an earlier pass's bounds at this side,
        NaN where there was none.  At side 1 each point is its own cell."""
        if side not in cells:
            first, last, block = _blocks(n, side)
            nb = len(first)
            cells[side] = (np.add.outer(block * nb, block).ravel() if side > 1 else None,
                           grid[first], grid[last],
                           np.full(nb * nb, np.nan), np.full(nb * nb, np.nan))
        cell, lo, hi, c3, c4 = cells[side]

        def read(need):
            """The cells read at the points of the mask `need`, and their
            corners (alpha0, alpha1, beta0, beta1)."""
            if cell is None:
                k = np.flatnonzero(need)
                a, b = alphas[k], betas[k]
                return k, (a, a, b, b)
            at = np.zeros(len(c3), dtype=bool)
            at[cell[need]] = True
            k = np.flatnonzero(at)
            bi, bj = np.divmod(k, len(lo))
            return k, (lo[bi], hi[bi], lo[bj], hi[bj])

        (k3, corners3), (k4, corners4) = map(read, needs(points))
        c3[k3], c4[k4] = _cell_bound(corners3, corners4, cfg, pieces, settings)
        return objective(c3, c4) if cell is None else objective(c3[cell], c4[cell])

    slack = np.full(size, _bound_slack(settings))
    floor = objective(slack, slack)   # no point's bound lies below its floor
    incumbent = objective(p3, p4)[-1]
    live = np.ones(size, dtype=bool)
    for side, pieces in _PASSES:
        if pieces < _PASSES[-1][1] and not live.all():
            continue
        # a side's first pass bounds every point left; a later one only
        # those whose bound can still fall below the incumbent
        candidates = live & (floor < incumbent) if side in cells else live
        if not (candidates & (floor < incumbent)).any():
            break
        tb = np.where(live, bound(candidates, side, pieces), np.nan)
        if side == 1:
            top = np.zeros(size, dtype=bool)
            top[np.argsort(-tb, kind="stable")[:_INCUMBENT_POINTS]] = True
            top &= live
            integrate(top)
            incumbent = max(incumbent,
                            objective(p3, p4)[top].max(initial=-math.inf))
        live = live & ~(tb < incumbent)
    integrate(live)
    return objective(p3, p4).reshape(n + 1, n + 1)


def _refine(search, grid_step, refine_tol, window, values):
    """Offer the refinement windows: one per 10x shrink of grid_step while
    twice the step exceeds refine_tol, each centred on the search's best
    point (alpha, beta) and offered in turn.  Returns the last window
    offered as (values, alphas, betas), or None when there is none.

    window(centre, step) gives the points (alphas, betas) of the window at
    centre; values(windows) runs the windows' integrals in one lockstep
    call and returns, for each window (for the first alone if the call
    failed, see closed_form._lockstep), a function that runs its checks
    and returns its values.

    One call per window, unless a stage ends on the point it started from
    (the coarse grid on its incumbent seed, the time-sharing corner (1, 1),
    or a window on its centre): then the next windows are centred on that
    point as long as each keeps it, so all the remaining windows run in one
    call, centred on it.  They are offered window by window; the first
    whose best point moves ends the run, and the later windows, centred on
    the old point, are dropped unchecked and not counted.  So each window
    offered is the one a call per window would offer, with the same values,
    checks and failures, and so are the best point and `evaluations`.
    """
    steps = []
    step = grid_step
    while 2.0 * step > refine_tol:
        step /= 10.0
        steps.append(step)
    start, last = (1.0, 1.0), None
    while steps:
        centre = search.best[1:]
        windows = [window(centre, step)
                   for step in (steps if centre == start else steps[:1])]
        for points, checked in zip(windows, values(windows)):
            last = (checked(), *points)
            search.offer(*last)
            steps.pop(0)
            if search.best[1:] != centre:
                break
        start = centre
    return last


def _search_mlh(cfg, grid_step, refine_tol, settings):
    """Coarse 2-D grid exploiting the mirror symmetries, then local shrink
    (_refine).

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

    def square(centre, step):
        wa, wb = (np.array(_window(x, step)) for x in centre)
        return np.repeat(wa, len(wb)), np.tile(wb, len(wa))

    last = _refine(search, grid_step, refine_tol, square,
                   lambda windows: _mlh_values(windows, cfg, settings))
    _, a_star, b_star = search.best
    if last is None:
        value = throughput_mlh(PowerSplit(alpha=a_star, beta=b_star), cfg, settings)
    else:
        values, alphas, betas = last
        value = float(values[(alphas == a_star) & (betas == b_star)][0])
    return Optimum(alpha_star=a_star, beta_star=b_star, rate_star=None,
                   throughput_star=value, evaluations=search.evaluations)


def _mlh_values(windows, cfg, settings):
    """For each window (alphas, betas), a function that returns
    throughput_mlh at its points (alphas[k], betas[k]), with the same bits,
    and at the first point whose EventProbs fails a check, raises the same
    ValueError.  The windows' integrals run in one lockstep call
    (closed_form._lockstep): p1 at each window's distinct alpha and
    1 - alpha, then the p3 and p4 integrals.  After a failure of a later
    window, the first window's function alone."""
    jobs, inverses = [], []
    for alphas, betas in windows:
        distinct, inverse = np.unique(alphas, return_inverse=True)
        jobs.append(_mlh_job(distinct, 1.0 - distinct, alphas, betas,
                             np.concatenate([alphas, 1.0 - alphas]),
                             np.concatenate([betas, 1.0 - betas]), cfg))
        inverses.append(inverse)

    def checked(result, inverse):
        slot1, p3, p4 = result
        n = len(p3)
        probs = EventProbs.checked_columns(
            **{name: column[inverse] for name, column in vars(slot1).items()},
            p3=p3, p4=p4[:n], p4p=p4[n:])
        return mlh_throughput_from_probs(probs, cfg)

    return [partial(checked, result, inverse) for result, inverse
            in zip(_lockstep(jobs, cfg, settings), inverses)]


def _search_sc(cfg, grid_step, refine_tol, settings):
    """Coarse 1-D grid, then local shrink (_refine).

    The returned value is the best offer's: the grid and every window are
    evaluated by sc_throughput_from_probs on prob_sc's bits, so it equals
    throughput_sc(alpha_star) bit for bit without integrating it again.
    """
    search = _Search()
    grid = _axis_points(grid_step)
    search.offer(sc_throughput_from_probs(_sc_columns(grid, cfg, settings), cfg),
                 grid, grid)

    def line(centre, step):
        alphas = np.array(_window(centre[0], step))
        return alphas, alphas

    _refine(search, grid_step, refine_tol, line,
            lambda windows: _sc_values(windows, cfg, settings))
    value, a_star, _ = search.best
    return Optimum(alpha_star=a_star, beta_star=a_star, rate_star=None,
                   throughput_star=value,
                   evaluations=search.evaluations)


def _sc_values(windows, cfg, settings):
    """For each window (alphas, alphas), a function that returns
    throughput_sc at its splits, with the same bits, and raises the
    ValueError of ScProbs' checks that prob_sc raises at the first bad
    split.  The windows' integrals run in one lockstep call
    (closed_form._lockstep).  After a failure of a later window, the first
    window's function alone."""
    def checked(columns):
        return sc_throughput_from_probs(ScProbs.checked_columns(**columns), cfg)

    return [partial(checked, columns) for columns in _lockstep(
        [_sc_job(alphas, cfg) for alphas, _ in windows], cfg, settings)]


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
    raise NonConvergence either.  Neither can one of a window that runs
    speculatively, beside the window offered next, and is then dropped.
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
