"""Adaptive one-dimensional quadrature for the outage-probability integrands.

The integrands are piecewise-smooth: products of exponentials with kinks
where a max(...) or positive-part branch switches.  The driver pre-splits
the interval at caller-supplied kink locations and then refines adaptively,
estimating the error on each panel from an embedded low/high-order
Gauss-Legendre pair.  Integrands are evaluated on numpy arrays of sample
points, at most one batched call per refinement round: a (P, 22) array,
one row of rule nodes per panel.

integrate_finite keeps its panels in Python lists.  Single integrals are
small: in a scatter-eval pass an integral evaluates a median of 6 panels
(at most 34) in 2.7 rounds, and its largest round has at most 10 panels.
The array form spent about 35 numpy calls a round on arrays of 1-10
elements, about as long as the integrand took.  Now numpy runs, once a
round, the rule nodes, the integrand, the two rule sums and one reduction
for both totals; the shares, the split test, the midpoints and the panel
lists are Python floats, the IEEE operations that the array form did
elementwise.  The price is O(P) Python work a round: an all-NaN
integrand, which spends the 2,000-panel budget one split a round, takes
0.5-0.6 s where the array form took 0.08 s.

A narrow round after the first, one that needs at most
_LOOKAHEAD_CHILDREN new children, also evaluates two generations of their
halves in its integrand call and keeps them, by their edges, for the
rounds that split those children.  So the integrand may see sub-panels
that the loop never keeps, and a chain of rounds that refine one or two
panels each makes one call per three rounds at best; the panels kept and
every value stay those of one call per round.

integrate_finite_many runs a whole family of such integrals in lockstep:
their kinks come as one NaN-padded (n, m) array, one row per integral,
and their panels are flattened with an owner index.  It runs rolling
rounds: each round evaluates the children of the live integrals' split
panels and the first panels of integrals admitted in index order while
the round has room, so rounds stay full while the slowest integrals
finish.  The integrand gets a round in calls of a bounded panel count:
the (P, 22) node array, and the (P, 1) column of the panels' owners,
against which per-integral parameters broadcast.  No step runs Python
once per integral.  It is the same algorithm, not an approximation of
it: every owner keeps integrate_finite's panel order and rules, and both
paths reduce alike, each result depending on the owner's own data only:
a panel's rule sums on its row (_rule_sums), an integral's totals on its
run of panels (np.add.reduceat) and its forced split on its own errors.
So each value has the bits integrate_finite gives it alone, however the
panels are batched; tests hold each reduction to that bit for bit.

The rule tables are literals, the reprs of numpy's leggauss(7) and
leggauss(15), which round-trip exactly (a test pins them bit for bit):
building them at import loaded numpy.polynomial and ran its eigensolver,
1.9 MB and 5.5 ms of every process's start-up.
"""

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:   # numpy < 2: np.einsum calls the same function
    _einsum = np.einsum

__all__ = [
    "QuadratureSettings",
    "NonConvergence",
    "TAIL_SPAN",
    "integrate_finite",
    "integrate_finite_many",
]

MAX_SUBDIVISIONS = 2000   # cap on the total number of panels

# integrate_finite_many admits integrals into a round while its panels stay
# within this many, and hands a round to the integrand in calls of at most
# this many panels, so the integrands' (P, 22) buffers do not grow with the
# round.  Every value has the same bits at any budget.  With the mlh coarse
# grid pruned, a sweep-rate pass evaluates 91,212 panels in 603 rounds
# (median 28 panels, none over 1,024), and admitting up to 3,072 panels a
# round ran it in 580 rounds (14 over 1,024) but bought no speed: 0.299 s
# a pass against 0.302 s (mlh and sc at the 12 sweep-rate rates at 3 dB,
# best of 5 in each of 5 alternating fresh processes, medians; 2-vCPU VM),
# within the runs' spread, and peaked higher (tracemalloc,
# optimize_split("mlh") at 3 dB: 3.05 against 2.84 MB at R = 1, 4.57
# against 4.30 MB at R = 9.5).  Calls of 2,048 panels peaked at 4.9 MB
# where 1,024 peaked at 4.1 MB.
CALL_PANELS = 1024

# integrate_finite's rounds after the first that need at most this many
# unevaluated children evaluate two generations of their halves with them
# (at most 4 + 8 + 16 = 28 panels a call).  A scalar integral's costly
# tail is a chain of rounds that each refine one or two panels, and an
# integrand call on 28 panels costs 1.2-1.5x one on a single panel (_f4
# 30 -> 37 us, _f1 8 -> 12 us; 2-vCPU VM), so looking ahead there cut
# scatter-eval's integrand calls from 12.6 to 8.5 an op (seed 1) while
# its panels rose from 35 to 75.  The first round does not look ahead:
# 45% of scalar integrals converge in it.
_LOOKAHEAD_CHILDREN = 4

# Exponential tails exp(-g/s) are cut at g = s*TAIL_SPAN, where they have
# fallen to 1e-14, well inside abs_tol for the envelopes used here.
TAIL_SPAN = math.log(1.0 / 1e-14)


@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        # the integrals are probabilities, so a tolerance of 1 or more
        # accepts any estimate, and a huge one overflows the error test
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"{name} must be finite and > 0, and below 1, "
                                 f"got {value}")


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
# a removable division may sit).  The tables are
# np.polynomial.legendre.leggauss(7) and leggauss(15), written out.
_X7 = np.array([-0.9491079123427586, -0.7415311855993945, -0.4058451513773972,
                0.0, 0.4058451513773972, 0.7415311855993945, 0.9491079123427586])
_W7 = np.array([0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
                0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
                0.12948496616886973])
_X15 = np.array([-0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
                 -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
                 -0.20119409399743451, 0.0, 0.20119409399743451,
                 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
                 0.8482065834104272, 0.9372733924007058, 0.9879925180204854])
_W15 = np.array([0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
                 0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
                 0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
                 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
                 0.10715922046717141, 0.0703660474881084, 0.030753241996117203])
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


def _rule_sums(y):
    """The GL7 and GL15 sums of each row of the C-ordered (P, 22)
    integrand values.  einsum runs along each row, so a row's sums do not
    depend on the row count, its offset or the other rows.  A BLAS gemv
    does not promise that (one gemv over a call's panels moved 23 of 101
    prob_sc rows of a coarse sc grid at -4 dB, R = 0.8), and a stacked
    per-row dot (matmul, vecdot) moves sc's split at 3 dB, R = 0.5 to its
    mirror.  _einsum is np.einsum less its Python wrapper, which cost
    2.4 us a call on 3 rows (2-vCPU VM)."""
    return (_einsum("ij,j->i", y[:, :7], _W7),
            _einsum("ij,j->i", y[:, 7:], _W15))


def _rule(f, lo, hi):
    """Apply the rule pair to the panels [lo_i, hi_i], given as lists of
    floats; their values and error estimates, as lists.

    The nodes are half * node + mid, the roundings of _nodes; the rest is
    Python arithmetic on the floats, the IEEE operations that
    _rule_many does elementwise."""
    half = [0.5 * (h - l) for l, h in zip(lo, hi)]
    x = np.multiply.outer(half, _NODES)
    x += np.array([0.5 * (l + h) for l, h in zip(lo, hi)])[:, None]
    coarse, fine = _rule_sums(np.asarray(f(x), dtype=float, order="C"))
    vals = [v * w for v, w in zip(fine.tolist(), half)]
    return vals, [abs(v - c * w) for v, c, w in zip(vals, coarse.tolist(), half)]


def integrate_finite(f, a, b, breakpoints,
                     settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Integrate f over [a, b] with error <= max(abs_tol, rel_tol*|result|).

    breakpoints lists known kink locations, possibly empty, unsorted or
    repeated; the interval is split at those inside (a, b) before any
    refinement, and the others are ignored.  f receives a round's sample
    points as a (P, 22) array, one row of rule nodes per panel; it must
    return the (P, 22) integrand values, elementwise, and must not write
    its argument.

    A round after the first that needs at most _LOOKAHEAD_CHILDREN
    children not yet evaluated also evaluates two generations of their
    halves in the same call of f, cut where the loop would cut them, and
    later rounds take their children from those.  So f may be called on
    sub-panels of [a, b] that the loop never keeps; the panels kept, the
    result and every NonConvergence are those of one call of f per round,
    as a panel's value and error depend on its edges alone.

    Raises NonConvergence if refinement would need more than
    MAX_SUBDIVISIONS panels.
    """
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0

    interior = sorted({float(p) for p in breakpoints if a < p < b})
    lo = [float(a), *interior]
    hi = [*interior, float(b)]
    width = float(b - a)

    # the panels, in order: kept ones, then left halves, then right halves
    vals, errs = _rule(f, lo, hi)
    ahead = {}   # (val, err) of each panel evaluated later, by its (lo, hi)
    while True:
        # the reduction integrate_finite_many runs over each owner's panels
        total, err_total = np.add.reduceat(np.array([vals, errs]), [0],
                                           axis=1)[:, 0].tolist()
        tol = max(settings.abs_tol, settings.rel_tol * abs(total))
        if err_total <= tol:
            return total

        # Split every panel holding more than its width-proportional share
        # of the budget; always at least the worst one (the first NaN, else
        # the first largest).
        split = [e > tol * (h - l) / width for l, h, e in zip(lo, hi, errs)]
        if not any(split):
            split[int(np.argmax(errs))] = True
        if len(lo) + sum(split) > MAX_SUBDIVISIONS:
            raise NonConvergence(total, err_total, len(lo))

        keep = [not s for s in split]
        s_lo = list(compress(lo, split))
        s_hi = list(compress(hi, split))
        s_mid = [0.5 * (l + h) for l, h in zip(s_lo, s_hi)]
        child_lo = s_lo + s_mid
        child_hi = s_mid + s_hi
        children = list(zip(child_lo, child_hi))
        need = [c for c in children if c not in ahead]
        if need:
            if len(need) <= _LOOKAHEAD_CHILDREN:
                wave = need
                for _ in range(2):
                    wave = [half for l, h in wave for half in
                            ((l, 0.5 * (l + h)), (0.5 * (l + h), h))]
                    need += wave
            ahead.update(zip(need, zip(*_rule(f, *zip(*need)))))
        child_vals, child_errs = zip(*map(ahead.get, children))
        lo = [*compress(lo, keep), *child_lo]
        hi = [*compress(hi, keep), *child_hi]
        vals = [*compress(vals, keep), *child_vals]
        errs = [*compress(errs, keep), *child_errs]


def _segments(owner):
    """Start and length of each owner's run in a nonempty owner-sorted
    array."""
    start = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
    return start, np.concatenate((start[1:], [len(owner)])) - start


def _rule_many(f, lo, hi, owner):
    """_rule for owner-sorted panels in arrays, in integrand calls of at
    most CALL_PANELS panels, wherever the owners' runs fall."""
    fine = np.empty_like(lo)
    errs = np.empty_like(lo)
    for s in range(0, len(lo), CALL_PANELS):
        run = slice(s, s + CALL_PANELS)
        x, half = _nodes(lo[run], hi[run])
        coarse, fine[run] = _rule_sums(
            np.asarray(f(x, owner[run, None]), dtype=float, order="C"))
        fine[run] *= half
        errs[run] = np.abs(fine[run] - coarse * half)
    return fine, errs


def _first_panels(a, b, breakpoints, owners):
    """The owners' first panels (lo, hi, owner) as integrate_finite builds
    them: each row's edges are a, its breakpoints inside (a, b) sorted (the
    others replaced by b), then b, and a panel joins each pair of adjacent
    distinct edges."""
    ao, bo = a[owners, None], b[owners, None]
    bps = breakpoints[owners]
    edges = np.concatenate(
        [ao, np.sort(np.where((ao < bps) & (bps < bo), bps, bo), axis=1), bo],
        axis=1)
    new = edges[:, :-1] != edges[:, 1:]
    return (edges[:, :-1][new], edges[:, 1:][new],
            np.repeat(owners, new.sum(axis=1)))


def _split_round(lo, hi, vals, errs, own, width, settings, out, failure):
    """integrate_finite's convergence test and split for each owner of the
    owner-sorted panels; the totals of the owners that converge go to out.

    Returns the mask of the panels kept as they are, the children (lo, hi,
    owner; per owner, left halves, then right halves) and the NonConvergence
    of the lowest owner that has failed so far (failure, or one raised here
    below it), or None.  Owners above that one stop: they cannot change
    what is raised."""
    if not len(own):   # before the first round
        return np.zeros(0, dtype=bool), lo, hi, own, failure
    start, count = _segments(own)
    total = np.add.reduceat(vals, start)
    err_total = np.add.reduceat(errs, start)
    scaled = settings.rel_tol * np.abs(total)
    tol = np.where(scaled > settings.abs_tol, scaled, settings.abs_tol)
    done = err_total <= tol
    seg_owner = own[start]
    out[seg_owner[done]] = total[done]

    seg = np.repeat(np.arange(len(start)), count)
    split = errs > tol[seg] * (hi - lo) / width[own]
    n_split = np.add.reduceat(split.astype(np.intp), start)
    # np.argmax's panel of each owner that splits none: its first NaN
    # (np.maximum propagates it), else its first largest
    worst = ~done & (n_split == 0)
    if worst.any():
        peak = np.maximum.reduceat(errs, start)[seg]
        hits = np.flatnonzero((errs == peak) | np.isnan(errs))
        split[hits[np.searchsorted(hits, start[worst])]] = True
    n_split[worst] = 1
    failed = ~done & (count + n_split > MAX_SUBDIVISIONS)
    if failed.any():
        k = int(np.flatnonzero(failed)[0])
        o = int(seg_owner[k])
        if failure is None or o < failure.owner:
            failure = NonConvergence(float(total[k]), float(err_total[k]),
                                     int(count[k]), f"integral {o}", o)

    live = ~done & ~failed
    if failure is not None:
        live &= seg_owner < failure.owner
    live = live[seg]
    split &= live
    s_lo, s_hi, s_own = lo[split], hi[split], own[split]
    s_mid = 0.5 * (s_lo + s_hi)
    order = np.argsort(np.concatenate([s_own, s_own]), kind="stable")
    return (live & ~split, np.concatenate([s_lo, s_mid])[order],
            np.concatenate([s_mid, s_hi])[order],
            np.concatenate([s_own, s_own])[order], failure)


def integrate_finite_many(f, a, b, breakpoints,
                          settings: QuadratureSettings = DEFAULT_SETTINGS
                          ) -> np.ndarray:
    """integrate_finite for many integrals at once, with the same bits.

    breakpoints is an (n, m) float array, one row per integral, padded
    with NaN where an integral has fewer than m kinks; as in
    integrate_finite, entries that are NaN, infinite or outside (a, b) are
    ignored, and repeats count once.  Integral i runs over [a[i], b[i]]
    (a and b broadcast to n entries) with kinks breakpoints[i].
    f(x, owner) receives sample points as a (P, 22) array, one row per
    panel, and the (P, 1) integer column of the panels' integrals, in
    ascending order, so that owner indexes per-integral parameters into a
    column that broadcasts against x; it must return the (P, 22) integrand
    values, elementwise, and must not write x.  Entry i of the
    result equals integrate_finite(lambda x: f(x, np.full((len(x), 1), i)),
    a[i], b[i], breakpoints[i], settings) bit for bit, whatever the other
    integrals are.

    The integrals run in rolling rounds.  A round evaluates the children
    of every live integral's split panels, then the first panels of the
    next integrals in index order, admitted while the round's panels stay
    within CALL_PANELS (an integral's first panels counted as 1 + its
    kinks inside (a, b); a round with nothing else to do admits one).  f
    gets a round in calls of at most CALL_PANELS panels, cut wherever that
    count falls, so one integral's panels may span two calls.  Once an
    integral fails, none is admitted; the live ones below it run on, and
    the lowest failure is raised.

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
    pending = np.flatnonzero(a[:stop] != b[:stop])   # a == b integrates to 0.0
    # an integral has at most 1 + (its kinks inside (a, b)) first panels;
    # admission counts them so, before building them
    bound = np.cumsum(1 + ((a[:, None] < breakpoints)
                           & (breakpoints < b[:, None])).sum(axis=1)[pending])
    width = b - a
    admitted = 0                      # pending[:admitted] have entered
    lo = hi = vals = errs = np.empty(0)
    own = np.empty(0, dtype=np.intp)
    failure = None
    while True:
        keep, c_lo, c_hi, c_own, failure = _split_round(
            lo, hi, vals, errs, own, width, settings, out, failure)
        # admit the next integrals, in index order, while the round has
        # room (an otherwise empty round takes one); they sort after every
        # live owner, whose indices are lower
        if failure is None and admitted < len(pending):
            used = bound[admitted - 1] if admitted else 0
            end = int(np.searchsorted(bound, used + CALL_PANELS - len(c_own),
                                      side="right"))
            end = max(end, admitted + (len(c_own) == 0))
            if end > admitted:
                new = _first_panels(a, b, breakpoints, pending[admitted:end])
                admitted = end
                c_lo, c_hi, c_own = (np.concatenate(pair) for pair in
                                     zip((c_lo, c_hi, c_own), new))
        if not len(c_own):
            break
        c_vals, c_errs = _rule_many(f, c_lo, c_hi, c_own)

        # per owner: kept panels, then children (or first panels)
        own = np.concatenate([own[keep], c_own])
        order = np.argsort(own, kind="stable")
        own = own[order]
        lo = np.concatenate([lo[keep], c_lo])[order]
        hi = np.concatenate([hi[keep], c_hi])[order]
        vals = np.concatenate([vals[keep], c_vals])[order]
        errs = np.concatenate([errs[keep], c_errs])[order]

    if failure is not None:
        raise failure
    if bad.size:
        raise ValueError(f"need a <= b, got a={float(a[stop])}, "
                         f"b={float(b[stop])} (integral {stop})")
    return out
