"""Throughput maximization over the power splits and (optionally) the rate.

Grid-then-shrink search rather than gradient methods: the objectives carry
kinks at the vanishing-threshold boundaries and can be multi-modal, while a
full grid is cheap.  Ties are broken toward alpha = beta = 1 (the
time-sharing corner), which picks a canonical representative on the flat
regions that appear at low SNR and large rate.

One search, _search, serves both protocols.  Each coarse grid and
refinement window is evaluated in lockstep quadratures (closed_form's
_mlh_columns and _sc_columns, whose values have the scalar closed forms'
bits) for all its integrals: p1 at each distinct share and its mirror,
then p3 and p4 for mlh, tp3, tp4 and tp4p for sc.  _values runs a list
of windows as one set of points: their points concatenated into one
call, whose columns are split back per window; each value depends on its
own integral alone, so a window's values are those it has alone.  One
call per window, unless a stage ends on the point it started from (the
coarse grid on the time-sharing corner, where it seeds its incumbent, or
a window on its centre; at 3 dB both searches keep the corner throughout
at 9 of the 12 rates of the benchmark's sweep): then all the remaining
windows, centred on that point, run in one call, and are offered in turn
until one moves the best point (_refine).  The later windows are
dropped, so the windows offered, their values and failures, the result
and `evaluations` are those of one call per window.

Both coarse grids integrate only the points that can still be their
argmax, the others pruned by bounds from closed_form that need no
quadrature.  The mlh grid bounds p3 and p4 from above (_cell_bound)
against an incumbent, first over blocks of points, then at each point
left, a one-point block, in a few _mlh_columns calls (_coarse_values),
the first of which carries p1.  The sc grid bounds each split's
throughput from above and below (_sc_bounds) and prunes the splits whose
upper bound lies below the largest lower bound; the splits left are the
first window of one _values call, which also carries the corner's
refinement windows where the corner has the largest lower bound
(_sc_coarse), so that at a corner rate an sc search makes one call.  The
values are combined elementwise by mlh_throughput_from_probs and
sc_throughput_from_probs and offered as one array, a pruned point as
NaN: the winner is the one a point-by-point loop in the scalar search's
order would keep.  A lockstep call that fails raises the NonConvergence
of its lowest failing integral, which names a kernel, shares and config
at which the scalar closed form fails too; one that holds speculative
windows runs its first window again alone, which raises only if that
window fails.
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
    _mlh_columns,
    _sc_bounds,
    _sc_columns,
    mlh_throughput_from_probs,
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


def _points(protocol, centre, step):
    """The refinement window of `step` at centre (alpha, beta), as arrays
    (alphas, betas): a square of alphas x betas for mlh, the splits
    alpha = beta around alpha for sc."""
    if protocol == "sc":
        alphas = np.array(_window(centre[0], step))
        return alphas, alphas
    wa, wb = (np.array(_window(x, step)) for x in centre)
    return np.repeat(wa, len(wb)), np.tile(wb, len(wa))


def _values(protocol, windows, cfg, settings):
    """For each window (alphas, betas), a function that returns the
    protocol's throughput (throughput_mlh at (alphas[k], betas[k]), or
    throughput_sc at alphas[k]) at its points, with the same bits, and at
    the first point whose EventProbs or ScProbs fails a check raises the
    same ValueError.

    The windows' points are concatenated into one _mlh_columns call (p1 at
    the distinct alphas over all windows and at their 1 - alpha, then p3
    and p4 at every point and its mirror) or one _sc_columns call, and the
    columns are split at the cumulative window sizes.  Each value depends
    on its own integral alone, so a window's values are those of the
    window run alone.  The later windows are speculative: if the call
    fails, the first window runs again alone, so a NonConvergence is
    raised only if that window fails, and is then the one it raises
    alone; the list then holds its function only."""
    def columns(windows):
        alphas = np.concatenate([a for a, _ in windows])
        if protocol == "sc":
            return _sc_columns(alphas, cfg, settings)
        betas = np.concatenate([b for _, b in windows])
        distinct, inverse = np.unique(alphas, return_inverse=True)
        slot1, p3, p4 = _mlh_columns(distinct, 1.0 - distinct, alphas, betas,
                                     np.concatenate([alphas, 1.0 - alphas]),
                                     np.concatenate([betas, 1.0 - betas]),
                                     cfg, settings)
        n = len(alphas)
        return SimpleNamespace(**{name: column[inverse] for name, column
                                  in vars(slot1).items()},
                               p3=p3, p4=p4[:n], p4p=p4[n:])

    try:
        cols = columns(windows)
    except NonConvergence:
        if len(windows) == 1:
            raise
        windows = windows[:1]
        cols = columns(windows)
    probs, throughput = ((ScProbs, sc_throughput_from_probs) if protocol == "sc"
                         else (EventProbs, mlh_throughput_from_probs))

    def checked(lo, hi):
        return throughput(probs.checked_columns(**{
            name: column[lo:hi] for name, column in vars(cols).items()}), cfg)

    ends = np.cumsum([len(a) for a, _ in windows]).tolist()
    return [partial(checked, lo, hi) for lo, hi in zip([0] + ends, ends)]


def _steps(grid_step, refine_tol):
    """The refinement windows' steps: one per 10x shrink of grid_step while
    twice the step exceeds refine_tol."""
    steps = []
    step = grid_step
    while 2.0 * step > refine_tol:
        step /= 10.0
        steps.append(step)
    return steps


def _refine(protocol, search, steps, cfg, settings, ahead):
    """Offer the refinement windows, one per step of `steps`, each centred
    on the search's best point (alpha, beta) (_points) and offered in turn.
    Returns the last window offered as (values, alphas, betas), or None
    when there is none.

    One _values call per window, unless a stage ends on the point it
    started from (the coarse grid on its incumbent seed, the time-sharing
    corner (1, 1), or a window on its centre): then the next windows are
    centred on that point as long as each keeps it, so all the remaining
    windows run in one call, centred on it.  They are offered window by
    window; the first whose best point moves ends the run, and the later
    windows, centred on the old point, are dropped unchecked and not
    counted.  So each window offered is the one a call per window would
    offer, with the same values, checks and failures, and so are the best
    point and `evaluations`.  `ahead` holds the corner's windows as
    (points, values) pairs if the coarse grid's call ran them (_sc_coarse),
    else nothing: they stand for the call of all the windows where the
    coarse grid ends on the corner, and are dropped unread otherwise.
    """
    steps = list(steps)
    start, last = (1.0, 1.0), None
    while steps:
        centre = search.best[1:]
        if centre == start and ahead:
            pairs = ahead
        else:
            windows = [_points(protocol, centre, step)
                       for step in (steps if centre == start else steps[:1])]
            pairs = zip(windows, _values(protocol, windows, cfg, settings))
        ahead = ()
        for points, checked in pairs:
            last = (checked(), *points)
            search.offer(*last)
            steps.pop(0)
            if search.best[1:] != centre:
                break
        start = centre
    return last


def _sc_coarse(grid, steps, cfg, settings):
    """The sc objective at every split of the coarse grid, NaN at a split
    pruned as one that cannot be its argmax, and the time-sharing corner's
    windows of `steps` as (points, values) pairs if the grid's call ran
    them (for _refine's `ahead`), else none.

    closed_form's _sc_bounds gives each split an upper and a lower bound on
    throughput_sc with no quadrature, at the pieces of _PASSES' last pass.
    A split whose upper bound lies below the largest lower bound is
    pruned: its value is at most its upper bound, below the value of the
    split with that lower bound, which is not pruned.  A NaN bound never
    prunes and never sets the largest lower bound.  The splits left are
    the first window of one _values call; if the largest lower bound is
    the corner's (alpha = 1, or its exact mirror alpha = 0, whose bounds
    have the same bits), the corner is likely the argmax, and the call
    carries its refinement windows too.  If the call fails, the splits
    left run again alone (_values), and then no window is returned.  The
    pruned splits are offered as NaN, which never wins, so the argmax, the
    windows, every value and `evaluations` are those of the whole grid; an
    integral at a pruned split is never run, so it can neither raise
    NonConvergence nor fail an ScProbs check.
    """
    upper, lower = (sc_throughput_from_probs(side, cfg) for side in
                    _sc_bounds(grid, cfg, _PASSES[-1][1], settings))
    lead = np.max(lower, initial=-math.inf, where=~np.isnan(lower))
    keep = ~(upper < lead)
    windows = [(grid[keep], grid[keep])]
    if lower[0] == lead or lower[-1] == lead:
        windows += [_points("sc", (1.0, 1.0), step) for step in steps]
    coarse, *ahead = _values("sc", windows, cfg, settings)
    values = np.full(len(grid), np.nan)
    values[keep] = coarse()
    return values, list(zip(windows[1:], ahead))


def _search(protocol, cfg, grid_step, refine_tol, settings):
    """The coarse grid, 2-D for mlh (_coarse_values, with the mirror
    symmetries) and 1-D for sc (_sc_coarse), both pruned by bounds, then
    local shrink (_refine).

    Each window holds its centre (center + 0*step), so the incumbent is a
    point of the last window, whose values have throughput_mlh's or
    throughput_sc's bits: that value is returned without integrating it
    again.  With no window, the throughput is evaluated at the incumbent
    (the mlh coarse grid's values may differ from it in the last bit).
    """
    pts = _axis_points(grid_step)
    grid = np.array(pts)
    steps = _steps(grid_step, refine_tol)
    search = _Search()
    ahead = []
    if protocol == "sc":
        values, ahead = _sc_coarse(grid, steps, cfg, settings)
        search.offer(values, grid, grid)
    else:
        search.offer(_coarse_values(pts, cfg, settings).ravel(),
                     np.repeat(grid, len(grid)), np.tile(grid, len(grid)))
    last = _refine(protocol, search, steps, cfg, settings, ahead)
    _, a_star, b_star = search.best
    if last is None:
        value = (throughput_sc(a_star, cfg, settings) if protocol == "sc" else
                 throughput_mlh(PowerSplit(alpha=a_star, beta=b_star), cfg, settings))
    else:
        values, alphas, betas = last
        value = float(values[(alphas == a_star) & (betas == b_star)][0])
    return Optimum(alpha_star=a_star, beta_star=b_star, rate_star=None,
                   throughput_star=value, evaluations=search.evaluations)


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

    The coarse grid integrates only the points whose upper bound, with
    margins for rounding and for the quadrature tolerance, still reaches the
    best value integrated so far (mlh) or the largest lower bound on the
    grid (sc); a pruned point is offered as NaN, so the result and
    `evaluations` (every grid and window point) are those of the whole
    grid.  An integral at a pruned point is never run, so it cannot raise
    NonConvergence either.  Neither can one of a window that runs
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
    return _search(protocol, cfg, grid_step, refine_tol, settings)


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
