"""Adaptive one-dimensional quadrature for the outage-probability integrands.

The integrands are piecewise-smooth: products of exponentials with kinks
where a max(...) or positive-part branch switches.  The driver pre-splits
the interval at caller-supplied kink locations and then refines adaptively,
estimating the error on each panel from an embedded low/high-order
Gauss-Legendre pair.  Integrands are evaluated on numpy arrays of sample
points, one batched call per refinement round: a (P, 22) array, one row of
rule nodes per panel.

integrate_finite_many runs a whole family of such integrals in lockstep:
their kinks come as one NaN-padded (n, m) array, one row per integral,
their panels are flattened with an owner index, and each refinement round
makes one integrand call for the live panels of all owners: the same
(P, 22) node array, and the (P, 1) column of the panels' owners, against
which per-integral parameters broadcast.  No step runs Python once per
integral.  It is the same algorithm, not an approximation of it: every
owner keeps integrate_finite's panel order and rules, its rule-pair
matvecs are the same BLAS calls (owners are grouped by panel count, since
a gemv result can depend on the row count) and its sums reduce
equal-length rows, so each value has the bits integrate_finite gives it
alone.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSettings",
    "NonConvergence",
    "TAIL_SPAN",
    "integrate_finite",
    "integrate_finite_many",
]

MAX_SUBDIVISIONS = 2000   # cap on the total number of panels

# integrate_finite_many runs its integrals in blocks of this many, so one
# integrand call sees the new panels of at most this many integrals and a
# round's arrays stay small.  Larger blocks make fewer rounds: 1024 against
# 256 took sweep-rate wall_s from 2.16 s to 1.69 s (medians of 10
# alternating pairs, all won; 2-vCPU VM).  Since the slot-2 integrands work
# in place on a few sample-sized buffers, a block of 1024 costs little
# memory: one optimize_split("mlh") at 3 dB, R=1 peaks at 4.1 MB under
# tracemalloc (2.8 MB at 256, 6.3 MB at 2048), where the expression-form
# integrands peaked at 3.9 MB at 256 and 11.4 MB at 1024, and peak RSS of
# a sweep-rate pass rises by 0.8 MB over 256.  A test in
# tests/test_optimizer.py holds the tracemalloc peak.
BLOCK_OWNERS = 1024

# Exponential tails exp(-g/s) are cut at g = s*TAIL_SPAN, where they have
# fallen to 1e-14, well inside abs_tol for the envelopes used here.
TAIL_SPAN = math.log(1.0 / 1e-14)


@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")


DEFAULT_SETTINGS = QuadratureSettings()


class NonConvergence(RuntimeError):
    """Error estimate still above tolerance after the panel budget is spent.

    integral names the failing integral when the caller knows it; owner is
    its index in an integrate_finite_many batch (None for integrate_finite).
    """

    def __init__(self, estimate, error, panels, integral=None, owner=None):
        text = (f"quadrature did not converge: estimate={estimate!r}, "
                f"error={error!r} with {panels} panels")
        if integral is not None:
            text += f" in {integral}"
        super().__init__(text)
        self.estimate = estimate
        self.error = error
        self.panels = panels
        self.integral = integral
        self.owner = owner

    def named(self, integral):
        """The same failure, naming the integral."""
        return NonConvergence(self.estimate, self.error, self.panels,
                              integral, self.owner)


# Embedded rule pair: value from GL15, error from |GL15 - GL7|.  Nodes are
# interior, so integrands are never sampled at panel edges (where a kink or
# a removable division may sit).
_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)
_NODES = np.concatenate([_X7, _X15])


def _nodes(lo, hi):
    """The (P, 22) rule nodes of panels [lo_i, hi_i], mid + half * node,
    and the half widths.

    Each column is written through the transposed view, one contiguous
    pass per node: 2.1 ns an element where the broadcast
    mid[:, None] + half[:, None] * _NODES took 6.3 ns at P = 2,300, equal
    at P = 50 and 0.2-0.4 us a call slower at P = 2-10 (2-vCPU VM), with
    the same two roundings, so the same bits."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = np.empty((len(lo), len(_NODES)))
    xt = x.T
    np.multiply(_NODES[:, None], half, out=xt)
    xt += mid
    return x, half


def _rule_batch(f, lo, hi):
    """Apply the rule pair to a batch of panels [lo_i, hi_i]."""
    x, half = _nodes(lo, hi)
    y = np.asarray(f(x), dtype=float)
    coarse = (y[:, :7] @ _W7) * half
    fine = (y[:, 7:] @ _W15) * half
    return fine, np.abs(fine - coarse)


def integrate_finite(f, a, b, breakpoints,
                     settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Integrate f over [a, b] with error <= max(abs_tol, rel_tol*|result|).

    breakpoints lists known kink locations, possibly empty, unsorted or
    repeated; the interval is split at those inside (a, b) before any
    refinement, and the others are ignored.  f receives a round's sample
    points as a (P, 22) array, one row of rule nodes per panel; it must
    return the (P, 22) integrand values, elementwise, and must not write
    its argument.

    Raises NonConvergence if refinement would need more than
    MAX_SUBDIVISIONS panels.
    """
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0

    interior = sorted({float(p) for p in breakpoints if a < p < b})
    edges = np.array([a, *interior, b], dtype=float)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    width = b - a

    vals, errs = _rule_batch(f, lo, hi)
    while True:
        total = float(vals.sum())
        err_total = float(errs.sum())
        tol = max(settings.abs_tol, settings.rel_tol * abs(total))
        if err_total <= tol:
            return total

        # Split every panel holding more than its width-proportional share
        # of the budget; always at least the worst one.
        share = tol * (hi - lo) / width
        split = errs > share
        if not split.any():
            split[int(np.argmax(errs))] = True
        n_new = len(lo) + int(split.sum())
        if n_new > MAX_SUBDIVISIONS:
            raise NonConvergence(total, err_total, len(lo))

        s_lo, s_hi = lo[split], hi[split]
        s_mid = 0.5 * (s_lo + s_hi)
        child_lo = np.concatenate([s_lo, s_mid])
        child_hi = np.concatenate([s_mid, s_hi])
        child_vals, child_errs = _rule_batch(f, child_lo, child_hi)

        keep = ~split
        lo = np.concatenate([lo[keep], child_lo])
        hi = np.concatenate([hi[keep], child_hi])
        vals = np.concatenate([vals[keep], child_vals])
        errs = np.concatenate([errs[keep], child_errs])


def _rows_by_length(start, count):
    """(rows, index) for each distinct segment length k: rows selects the
    segments of length k, index is their (G, k) array of element indices."""
    for k in np.flatnonzero(np.bincount(count)):
        rows = count == k
        yield rows, start[rows, None] + np.arange(k)


def _segments(owner):
    """Start and length of each owner's run in a nonempty owner-sorted
    array."""
    start = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
    return start, np.concatenate((start[1:], [len(owner)])) - start


def _rule_many(f, lo, hi, owner):
    """_rule_batch for owner-sorted panels, one integrand call for all.

    Each owner's panels go through the same matvec call as in _rule_batch,
    stacked with the other owners of equal panel count."""
    x, half = _nodes(lo, hi)
    y = np.asarray(f(x, owner[:, None]), dtype=float)
    coarse = np.empty_like(lo)
    fine = np.empty_like(lo)
    for _, idx in _rows_by_length(*_segments(owner)):
        yk = y[idx]
        coarse[idx] = (yk[..., :7] @ _W7) * half[idx]
        fine[idx] = (yk[..., 7:] @ _W15) * half[idx]
    return fine, np.abs(fine - coarse)


def _run_block(f, a, b, breakpoints, owners, settings, out):
    """integrate_finite for each owner in lockstep; values go to out.

    Returns the NonConvergence of the lowest failing owner, or None."""
    # first panels as integrate_finite builds them: each row's edges are a,
    # its breakpoints inside (a, b) sorted (the others replaced by b), then
    # b, and a panel joins each pair of adjacent distinct edges
    ao, bo = a[owners, None], b[owners, None]
    bps = breakpoints[owners]
    edges = np.concatenate(
        [ao, np.sort(np.where((ao < bps) & (bps < bo), bps, bo), axis=1), bo],
        axis=1)
    new = edges[:, :-1] != edges[:, 1:]
    lo, hi = edges[:, :-1][new], edges[:, 1:][new]
    own = np.repeat(owners, new.sum(axis=1))
    width = b - a
    vals, errs = _rule_many(f, lo, hi, own)
    failure = None

    while True:
        start, count = _segments(own)
        total = np.empty(len(start))
        err_total = np.empty(len(start))
        for rows, idx in _rows_by_length(start, count):
            total[rows] = vals[idx].sum(axis=1)
            err_total[rows] = errs[idx].sum(axis=1)
        scaled = settings.rel_tol * np.abs(total)
        tol = np.where(scaled > settings.abs_tol, scaled, settings.abs_tol)
        done = err_total <= tol
        seg_owner = own[start]
        out[seg_owner[done]] = total[done]

        seg = np.repeat(np.arange(len(start)), count)
        split = errs > tol[seg] * (hi - lo) / width[own]
        n_split = np.add.reduceat(split.astype(np.intp), start)
        worst = ~done & (n_split == 0)
        for rows, idx in _rows_by_length(start[worst], count[worst]):
            split[idx[np.arange(len(idx)), np.argmax(errs[idx], axis=1)]] = True
        n_split[worst] = 1
        failed = ~done & (count + n_split > MAX_SUBDIVISIONS)
        if failed.any():
            k = int(np.flatnonzero(failed)[0])
            o = int(seg_owner[k])
            if failure is None or o < failure.owner:
                failure = NonConvergence(float(total[k]), float(err_total[k]),
                                         int(count[k]), f"integral {o}", o)

        live = ~done & ~failed
        if not live.any():
            return failure
        live = live[seg]
        split &= live
        keep = live & ~split
        s_lo, s_hi, s_own = lo[split], hi[split], own[split]
        s_mid = 0.5 * (s_lo + s_hi)
        # per owner: left halves, then right halves, as in integrate_finite
        order = np.argsort(np.concatenate([s_own, s_own]), kind="stable")
        c_lo = np.concatenate([s_lo, s_mid])[order]
        c_hi = np.concatenate([s_mid, s_hi])[order]
        c_own = np.concatenate([s_own, s_own])[order]
        c_vals, c_errs = _rule_many(f, c_lo, c_hi, c_own)

        # per owner: kept panels, then children
        own = np.concatenate([own[keep], c_own])
        order = np.argsort(own, kind="stable")
        own = own[order]
        lo = np.concatenate([lo[keep], c_lo])[order]
        hi = np.concatenate([hi[keep], c_hi])[order]
        vals = np.concatenate([vals[keep], c_vals])[order]
        errs = np.concatenate([errs[keep], c_errs])[order]


def integrate_finite_many(f, a, b, breakpoints,
                          settings: QuadratureSettings = DEFAULT_SETTINGS
                          ) -> np.ndarray:
    """integrate_finite for many integrals at once, with the same bits.

    breakpoints is an (n, m) float array, one row per integral, padded
    with NaN where an integral has fewer than m kinks; as in
    integrate_finite, entries that are NaN, infinite or outside (a, b) are
    ignored, and repeats count once.  Integral i runs over [a[i], b[i]]
    (a and b broadcast to n entries) with kinks breakpoints[i].
    f(x, owner) receives a round's sample points as a (P, 22) array, one
    row per panel, and the (P, 1) integer column of the panels' integrals,
    in ascending order, so that owner indexes per-integral parameters into
    a column that broadcasts against x; it must return the (P, 22)
    integrand values, elementwise, and must not write x.  Entry i of the
    result equals integrate_finite(lambda x: f(x, np.full((len(x), 1), i)),
    a[i], b[i], breakpoints[i], settings) bit for bit, whatever the other
    integrals are.

    Raises what a loop of integrate_finite over i would raise first: the
    ValueError of an entry with a > b, or the NonConvergence (with its
    owner set) of the first integral that fails before it.
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    if breakpoints.ndim != 2:
        raise ValueError("breakpoints must be an (n, m) array, "
                         f"got shape {breakpoints.shape}")
    n = len(breakpoints)
    a = np.broadcast_to(np.asarray(a, dtype=float), (n,))
    b = np.broadcast_to(np.asarray(b, dtype=float), (n,))
    bad = np.flatnonzero(a > b)
    stop = int(bad[0]) if bad.size else n
    out = np.zeros(n)
    for first in range(0, stop, BLOCK_OWNERS):
        owners = np.arange(first, min(first + BLOCK_OWNERS, stop))
        owners = owners[a[owners] != b[owners]]   # a == b integrates to 0.0
        if owners.size:
            failure = _run_block(f, a, b, breakpoints, owners, settings, out)
            if failure is not None:
                raise failure
    if bad.size:
        raise ValueError(f"need a <= b, got a={float(a[stop])}, "
                         f"b={float(b[stop])} (integral {stop})")
    return out
