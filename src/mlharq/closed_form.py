"""Closed-form decoding-event probabilities and throughputs.

All quantities describe one two-slot slice carrying two messages over
independent exponential channel gains (mean sigma2).  The expressions are
exact up to one-dimensional quadrature: the inner (slot-2) gain integrates
analytically against the exponential density, leaving integrals over the
slot-1 gain whose integrands combine exponentials of the gain thresholds
g_min/g_max, h3, h4 and h4_bar.  Those rest on the rate's constants, 2^R,
2^(2R), their thresholds 2^R - 1 and 2^(2R) - 1, the sum-rate gain
threshold (2^(2R) - 1)/P and sigma2 P, which SystemConfig computes once
when it validates a scenario (cfg.k1, k2, t1, t2, g_sum and s2p), and
which no function here computes again.

Analytic, with no quadrature: p0 everywhere, and p1/p2 where m2's slot-1
power (1 - alpha)P is 0.0 (alpha = 1, or a share whose product
underflows), hence p1'/p2' at alpha = 0.  m2's residual is then the
constant 2^R - 1 and the p1 integrand a plain exponential in g, whose
integral over the window cut at the tail truncation point is exact.  So
time-sharing (alpha = 1) integrates only its p4.

Superposition coding is the multi-layer both-fail branch with beta = alpha
and no slot-1 decoding: it evaluates the same two slot-2 kernels (_JOINT:
p3, tp3; _ONLY_M1: p4, p4', tp4, tp4p), with the slot-1 gain integrated up
to the tail truncation point instead of g_max.

The grid functions evaluate many integrals in one lockstep quadrature
(integrate_finite_many, through _kernel_grid) with the same integrands
(_f1, _f3, _f4) and breakpoints as the scalar path, so each value has the
scalar path's bits.  _mlh_columns runs an mlh grid's integrals: the p1
integrals of its rows (each distinct share and mirrored share once), then
its p3 and p4 integrals; _sc_columns an sc grid's three kernels (tp3,
tp4, tp4p), a tp4p integral that is also a tp4 integral once
(_sc_shares, which _sc_bounds uses too).  Each value depends on its own
integral alone, so the columns of several grids' points concatenated
into one call are, split back, each grid's columns alone; only the
NonConvergence raised, that of the lowest failing integral, depends on
what else the call holds.
The bounds need no quadrature.  _kernel_bounds holds the one rule: a
Riemann sum of a kernel's integrand over pieces of the slot-1 range, an
upper one with h3, h4 and h4_bar at the piece ends that make the slot-2
factor largest, as they do not increase with g, and a lower one with them
at the other ends.  _cell_bound bounds what prob_p3 and prob_p4 return at
every point of a rectangle of shares from above, each term taken at the
corner of the rectangle where it is least (h3's two layer terms at two
corners) or largest, as they are monotone in the shares; a point is the
one-point cell.  _sc_bounds bounds what prob_sc returns at a split from
above and from below.  The optimizer prunes the mlh coarse grid with the
first, over blocks of points and at single points, and the sc coarse
grid with the second.
p1's window rule has one form, _p1_window and _p1_closed, which both
paths call once per share.  Each slot-2 kernel is one _Kernel record, its
integrand, kink root terms, vanishing rule and bound factor, which the
scalar path, the lockstep path and the bounds all read.  The kink
candidates are solved from the one set of terms into a list for single
calls and into an array for grids, with the same bits.  Only g_max is
written twice, as g_max and _g_max_cell (tests pin g_max to the
one-point cell).  The grid functions do not read or fill the scalar
caches.

A kernel's integral that is exactly 0.0 by proof is returned without
integrating, on both paths, so skipping it moves no bit: _ONLY_M1's where
h4's interference cap binds on the whole slot-1 range, with a margin over
rounding (_only_m1_vanishes), and _JOINT's where one layer has share 0 in
both slots (_joint_vanishes).

Extended-real conventions used throughout: x/0+ = +inf for x > 0,
exp(-inf) = 0, max(..., +inf) = +inf; an infinite p1 window is cut at the
tail truncation point.  The floating-point events that make these values
(overflow to +inf, division by zero, 0 * inf) are intended, and each is
silenced where it is made: in _over_power, h4, _decay, _threshold and
_kinks_grid.  So no call into this module emits a RuntimeWarning, and
callers, the CLI among them, need no np.errstate of their own.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .model import PowerSplit, SystemConfig, safe_div_threshold
from .quadrature import (
    DEFAULT_SETTINGS,
    TAIL_SPAN,
    NonConvergence,
    QuadratureSettings,
    integrate_finite,
    integrate_finite_many,
)

__all__ = [
    "EventProbs",
    "ScProbs",
    "g_min",
    "g_max",
    "h3",
    "h4",
    "prob_p0",
    "prob_p1",
    "prob_p1_prime",
    "prob_p2",
    "prob_p2_prime",
    "prob_p3",
    "prob_p4",
    "prob_p4_prime",
    "prob_sc",
    "event_probs",
    "throughput_ts",
    "throughput_mlh",
    "throughput_sc",
    "mlh_throughput_from_probs",
    "sc_throughput_from_probs",
    "vanishing_threshold",
]

_PROB_SLACK = 1e-9  # float-noise allowance on the [0, 1] field checks
_SUM_SLACK = 1e-8   # and on the check that the fields sum to at most 1
# Entries in each of the two caches, _p1_value's and _slot2's (both
# slot-2 kernels).  Every hit is a reuse within one operation: p2 asking
# for p1 again, throughput_mlh and throughput_sc asking for event_probs
# and prob_sc again.  Hits of _p1_value / _slot2, the same at 256
# entries, 1,024 and unbounded: a scatter-eval pass (seed 1) 8,966 /
# 14,448, a sweep-rate pass 12 / 0 (time-sharing's p2 asking for p1 at
# alpha = 1 again).  The mlh and sc searches call neither once they
# refine.  At 65,536 a scatter-eval pass kept 23,856 entries, about 6 MB.
_CACHE_SIZE = 1024


def _check_prob(name, value, slack=_PROB_SLACK):
    if not -slack <= value <= 1.0 + slack:
        raise ValueError(f"{name} must be a probability, got {value}")


class _Probs:
    """Field checks and helpers shared by the probability records; each
    subclass names itself in _label."""

    def __post_init__(self):
        for name, value in self.as_dict().items():
            _check_prob(name, value)
        if self.total() > 1.0 + _SUM_SLACK:
            raise ValueError(
                f"{self._label} probabilities sum to {self.total()} > 1")

    def total(self) -> float:
        return reduce(operator.add, self.as_dict().values())

    @classmethod
    def checked_columns(cls, **columns):
        """columns (arrays of the fields, one entry per point) as a record
        that the *_from_probs functions accept, after the field checks at
        every point: the first point that fails one builds its record,
        which raises the ValueError that a loop of records would."""
        values = list(columns.values())
        ok = reduce(operator.and_, [(-_PROB_SLACK <= c) & (c <= 1.0 + _PROB_SLACK)
                                    for c in values])
        ok &= ~(reduce(operator.add, values) > 1.0 + _SUM_SLACK)
        bad = np.flatnonzero(~ok)
        if bad.size:
            k = int(bad[0])
            cls(**{name: float(c[k]) for name, c in columns.items()})
        return SimpleNamespace(**columns)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class EventProbs(_Probs):
    """Probabilities of the eight decoding events of one multi-layer slice.

    The residual 1 - total() is the all-fail event, which has no closed
    form of its own.  Fields may carry float noise of order 1e-9 around
    the exact [0, 1] range.
    """

    _label = "event"

    p0: float    # both decoded at slot 1
    p1: float    # only m1 at slot 1, m2 recovered at slot 2
    p1p: float   # only m2 at slot 1, m1 recovered at slot 2
    p2: float    # only m1 at slot 1, m2 lost
    p2p: float   # only m2 at slot 1, m1 lost
    p3: float    # both recovered at slot 2
    p4: float    # only m1 recovered at slot 2
    p4p: float   # only m2 recovered at slot 2


@dataclass(frozen=True)
class ScProbs(_Probs):
    """Probabilities of the superposition-coding outcomes (two-slot joint
    decoding only, no intermediate feedback)."""

    _label = "sc"

    tp3: float   # both messages decoded
    tp4: float   # only m1 decoded
    tp4p: float  # only m2 decoded


def vanishing_threshold(cfg: SystemConfig) -> float:
    """Largest slot-1 share below which SIC of m1 is impossible at slot 1.

    For alpha at or below 2^R/(2^R + 1) message m1 can never be decoded
    alone in slot 1, so the only-m1 events have probability exactly 0.
    """
    return cfg.k1 / (cfg.k1 + 1.0)


# ---------------------------------------------------------------------------
# Gain thresholds
# ---------------------------------------------------------------------------

def g_min(alpha: float, cfg: SystemConfig) -> float:
    """Smallest slot-1 gain at which both messages decode jointly in slot 1.

    +inf when a layer has zero power (alpha in {0, 1}): joint slot-1
    success is then impossible.
    """
    p = cfg.power_P
    return max(safe_div_threshold(cfg.t1, alpha * p),
               safe_div_threshold(cfg.t1, (1.0 - alpha) * p),
               cfg.g_sum)


def g_max(alpha: float, cfg: SystemConfig) -> float:
    """Largest slot-1 gain at which both messages still fail in slot 1."""
    t1, k1, p = cfg.t1, cfg.k1, cfg.power_P
    return min(safe_div_threshold(t1, (1.0 + k1 * (alpha - 1.0)) * p),
               safe_div_threshold(t1, (1.0 - k1 * alpha) * p),
               cfg.g_sum)


def _over_power(n, w):
    """n / w, where w is a layer's slot-2 power; a zero-power layer gives
    the limit +inf where n > 0, else 0.  Elementwise over n and w (w
    broadcasts against n); the result overwrites n.

    Every caller's |n| is at most 2^R < 2^512 (SystemConfig), so n / w
    cannot overflow for w > 2^-500, and the fast paths (a float power, or
    powers that all exceed it) divide only there; a smaller positive power,
    where n / w may overflow to the +inf it means, takes the masked path,
    which divides quietly to the same bits."""
    if isinstance(w, float):               # the scalar path
        if w > 2.0 ** -500:
            n /= w
            return n
        if w == 0.0:                       # +0.0 or -0.0: the bits below
            pos = n > 0.0
            n.fill(0.0)
            np.copyto(n, np.inf, where=pos)
            return n
    w = np.asarray(w)
    if (w > 2.0 ** -500).all():            # the float path's rule, every lane
        n /= w
        return n
    zero = ~(w > 0.0)
    # n / +0.0 is +inf where n > 0 (a -0.0 power must not flip it to -inf);
    # the other zero-power lanes, -inf and NaN among them, become 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n /= np.where(zero, 0.0, w)
    np.copyto(n, 0.0, where=zero & ~(n > 0.0))
    return n


# The thresholds and integrands below work in place on a few buffers of the
# samples' shape, with the operations of their expression forms in the same
# order, so each value keeps its bits: 1 + g*(1-alpha)*P is ((g*(1-alpha))*P)
# + 1, and max(0, x) is np.maximum(0.0, x).  g itself is never written.

def _shape(g, *shares):
    """The broadcast shape of the samples g and the shares; g's own shape
    at float shares, without building a broadcast object."""
    for x in shares:
        if not isinstance(x, float):
            return np.broadcast(g, *shares).shape
    return g.shape


def _residual(k, g, share, p, out):
    """k / (1 + g*share*P) - 1 into out."""
    np.multiply(g, share, out=out)
    out *= p
    out += 1.0
    np.divide(k, out, out=out)
    out -= 1.0
    return out


def h3(g, alpha, beta, cfg):
    """Slot-2 gain threshold for joint success after a both-fail slot 1.

    Elementwise over g (and over alpha and beta if they are arrays); max
    of the three accumulated MAC constraints with the positive-part clamp,
    +inf where a zero-power slot-2 layer still needs positive extra mutual
    information.  Returns a new array, 0-d at scalar arguments (where the
    expression form before the in-place rewrite returned a numpy float).
    """
    return _h3(g, alpha, beta, alpha, beta, cfg)


def _h3(g, alpha, beta, alpha2, beta2, cfg):
    """h3 with m1's term at the shares (alpha, beta) and m2's at (alpha2,
    beta2), in h3's operations.  m1's term (as its max with 0) does not
    increase with alpha or beta, and m2's does not decrease, so over the
    shares of a cell [a0, a1] x [b0, b1] the least h3 is at least
    _h3(g, a1, b1, a0, b0); each operation rounds monotonically, so that
    holds in floats too."""
    g = np.asarray(g, dtype=float)
    p, k1 = cfg.power_P, cfg.k1
    shape = _shape(g, alpha, beta, alpha2, beta2)

    # max(0, max(t1, max(t2, t3))) over the layer terms t1 (m2, share
    # 1-beta) and t2 (m1, share beta) and the sum-rate term t3 (full power).
    # Branch on each layer's slot-2 power, not its share: a tiny positive
    # share can still underflow to zero power.
    t = np.multiply(g, p, out=np.empty(shape))
    t += 1.0
    np.divide(cfg.k2, t, out=t)
    t -= 1.0
    t /= p
    term = _over_power(_residual(k1, g, alpha, p, np.empty(shape)), beta * p)
    np.maximum(term, t, out=t)
    term = _over_power(_residual(k1, g, 1.0 - alpha2, p, term), (1.0 - beta2) * p)
    np.maximum(term, t, out=t)
    return np.maximum(0.0, t, out=t)


def h4(g, alpha, beta, cfg):
    """Lower/upper slot-2 gain thresholds for "only m1 recovers at slot 2".

    h4 is the smallest slot-2 gain letting m1 through with m2 treated as
    noise in both slots; it is 0 when the slot-1 SINR already suffices and
    +inf when the needed slot-2 boost exceeds the interference-limited cap
    beta/(1-beta).  h4_bar is the largest slot-2 gain at which m2 (clean,
    after hypothetical SIC) still fails.  Elementwise over g (and over
    alpha and beta if they are arrays); returns two new arrays, 0-d at
    scalar arguments (where the expression form before the in-place
    rewrite returned a numpy float for h4_bar).  Its residual overflows to
    +inf near the largest accepted rate, and h4 is then +inf, quietly.
    """
    g = np.asarray(g, dtype=float)
    p, k1 = cfg.power_P, cfg.k1
    shape = _shape(g, alpha, beta)

    u = np.multiply(g, 1.0 - alpha, out=np.empty(shape))
    u *= p
    u += 1.0                                   # 1 + g(1-alpha)P
    v = np.multiply(g, p, out=np.empty(shape))
    v += 1.0                                   # 1 + gP
    # residual SINR required of slot 2: 2^R / (1 + slot-1 SINR of m1) - 1.
    # Three events are intended, so numpy stays quiet: n overflows to the
    # +inf it means at huge rates; at beta = 1, (1 - beta) n is then
    # 0 * inf, a NaN that the cap test sends to +inf, as it does a finite
    # n's cap; and an uncapped d P can underflow to 0 at a tiny beta P
    # (n / 0, or 0 / 0 where clear overwrites it).
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n = np.multiply(k1, u, out=np.empty(shape))
        n -= v
        n /= v
        d = np.multiply(1.0 - beta, n, out=v)
        np.subtract(beta, d, out=d)            # the interference cap
        capped = ~(d > 0.0)
        clear = n <= 0.0
        np.copyto(d, 1.0, where=capped)
        d *= p
        h4v = np.divide(n, d, out=n)
    np.copyto(h4v, np.inf, where=capped)
    np.copyto(h4v, 0.0, where=clear)

    np.divide(k1, u, out=u)
    u -= 1.0                                   # nbar
    hbar = _over_power(np.maximum(0.0, u, out=u), (1.0 - beta) * p)
    return h4v, hbar


# ---------------------------------------------------------------------------
# Kink candidates for the quadratures
# ---------------------------------------------------------------------------

# A slot-2 kernel's kink candidates are the roots of its root terms, which
# are written once, elementwise over float or array shares: ratios
# (num, den, mask), whose root num / den exists where mask holds, and
# quadratics (a2, a1, a0, mask), whose real roots of a2 g^2 + a1 g + a0
# exist where mask holds.  _kinks solves them into a list for single calls,
# _kinks_grid into an (n, m) array for grids: row i holds the list at
# (alpha[i], beta[i]) in its order, NaN where the list has no entry.
# numpy rounds the IEEE operations and sqrt as Python does, so every
# candidate has the same bits on both paths.  A ratio's mask includes
# den > 0.0, so the list never divides by zero.  Candidates outside the
# integration range are left for the quadrature to drop.

def _quadratic_roots(a2, a1, a0):
    if a2 == 0.0:
        if a1 == 0.0:
            return []
        return [-a0 / a1]
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    return [(-a1 + sq) / (2.0 * a2), (-a1 - sq) / (2.0 * a2)]


def _quadratic_roots_into(a2, a1, a0, first, second, where=True):
    """_quadratic_roots elementwise where `where` holds, written into the
    NaN-filled first and second; a linear root goes to first."""
    linear = a2 == 0.0
    np.divide(-a0, a1, out=first, where=where & linear & (a1 != 0.0))
    sq = np.sqrt(a1 * a1 - 4.0 * a2 * a0)   # NaN where disc < 0
    den = 2.0 * a2
    quadratic = where & ~linear
    np.divide(-a1 + sq, den, out=first, where=quadratic)
    np.divide(-a1 - sq, den, out=second, where=quadratic)


def _kinks(terms, alpha, beta, cfg):
    """The kink candidates of the root terms at float shares, as a list:
    the ratios' roots, then each quadratic's."""
    ratios, quadratics = terms(alpha, beta, cfg)
    pts = [num / den for num, den, mask in ratios if mask]
    for a2, a1, a0, mask in quadratics:
        if mask:
            pts.extend(_quadratic_roots(a2, a1, a0))
    return pts


def _kinks_grid(terms, alpha, beta, cfg):
    """_kinks at each point (alpha[i], beta[i]) of the arrays, as an (n, m)
    array.  One np.errstate(all="ignore") covers the terms and the roots:
    the where= divisions skip masked lanes, but the terms can overflow and
    sqrt of a negative discriminant still occurs."""
    with np.errstate(all="ignore"):
        ratios, quadratics = terms(alpha, beta, cfg)
        out = np.full((len(ratios) + 2 * len(quadratics), len(alpha)), np.nan)
        for row, (num, den, mask) in zip(out, ratios):
            np.divide(num, den, out=row, where=mask)
        roots = out[len(ratios):]
        for k, (a2, a1, a0, mask) in enumerate(quadratics):
            _quadratic_roots_into(a2, a1, a0, roots[2 * k], roots[2 * k + 1],
                                  where=mask)
    return out.T


def _switch(wi, ki, ci, wj, kj, cj):
    """The quadratic whose roots are where two of h3's terms (K/(1 + c g) -
    1)/(w P) are equal, for two terms with positive shares w."""
    dw = wi - wj
    return (dw * ci * cj, dw * (ci + cj) + wj * ki * cj - wi * kj * ci,
            dw + wj * ki - wi * kj, (wi > 0.0) & (wj > 0.0))


def _joint_terms(alpha, beta, cfg):
    """h3's root terms: each term's zero crossing, then the switches of the
    max between each pair of terms.  The terms, as (share w, 2^rate factor
    K, gain coefficient c), are m2's, m1's and the sum rate's."""
    p, k1, k2 = cfg.power_P, cfg.k1, cfg.k2
    c2 = (1.0 - alpha) * p
    c1 = alpha * p
    return (((cfg.t1, c2, c2 > 0.0), (cfg.t1, c1, c1 > 0.0),
             (cfg.t2, p, p > 0.0)),
            (_switch(1.0 - beta, k1, c2, beta, k1, c1),
             _switch(1.0 - beta, k1, c2, 1.0, k2, p),
             _switch(beta, k1, c1, 1.0, k2, p)))


def _only_m1_terms(alpha, beta, cfg):
    """h4's root terms: the zero crossings of its residual n, of its
    interference cap d and of m2's residual nbar, then the switch of the
    positive-part clamp, h4 = h4_bar.  Cross-multiplying the two rational
    forms (u = 1 + g(1-alpha)P, v = 1 + gP) reduces that to
    beta*u*v - k*v + (1-beta)*k^2*u = 0, a quadratic in g; roots off the
    active branches only add harmless panel splits."""
    p, k1 = cfg.power_P, cfg.k1
    n_den = p * (1.0 + k1 * (alpha - 1.0))
    kb = k1 * (1.0 - beta)
    d_den = p * (1.0 - kb * (1.0 - alpha))
    c1 = (1.0 - alpha) * p
    return (((cfg.t1, n_den, n_den > 0.0),
             (kb - 1.0, d_den, (kb > 1.0) & (d_den > 0.0)),
             (cfg.t1, c1, c1 > 0.0)),
            ((beta * c1 * p,
              beta * (c1 + p) - k1 * p + (1.0 - beta) * k1 * k1 * c1,
              beta - k1 + (1.0 - beta) * k1 * k1, True),))


# ---------------------------------------------------------------------------
# Event probabilities
# ---------------------------------------------------------------------------

def _integral(kernel, cfg, alpha, beta=None):
    """Name of one kernel integral for NonConvergence messages."""
    shares = f"alpha={alpha!r}" if beta is None else f"alpha={alpha!r}, beta={beta!r}"
    return f"{kernel} at {shares}, {cfg!r}"


def prob_p0(alpha: float, cfg: SystemConfig) -> float:
    """Both messages decode jointly at slot 1 (analytic, no quadrature)."""
    return math.exp(-g_min(alpha, cfg) / cfg.sigma2)


def _decay(x, s2, out):
    """exp(-x / s2) into out, which may be x itself; x / -s2 has the bits
    of -x / s2.  x is finite or +inf, so the quotient can overflow only at
    s2 < 1 (a threshold past s2 DBL_MAX, as at a tiny slot-2 power, or
    p1's residual past sigma2 P DBL_MAX): to -inf, where exp gives the
    limit 0, quietly."""
    if s2 < 1.0:
        with np.errstate(over="ignore"):
            np.divide(x, -s2, out=out)
    else:
        np.divide(x, -s2, out=out)
    return np.exp(out, out=out)


def _p1_bounds(alpha, cfg):
    """The ends (lo, hi) of p1's slot-1 window: m1 decodes over m2's
    interference from lo on, and m2 fails up to hi.  Each is +inf where
    its power coefficient is not positive, as in g_max.  Above R = 53,
    t + 1 is inexact and vanishing_threshold can round one ulp low; a share
    just above it can then have a negative coefficient for lo, and
    lo = +inf leaves the window empty."""
    p = cfg.power_P
    lo = safe_div_threshold(cfg.t1, (1.0 + cfg.k1 * (alpha - 1.0)) * p)
    hi = safe_div_threshold(cfg.t1, (1.0 - alpha) * p)
    return lo, hi


def _p1_window(alpha, cfg):
    """p1's slot-1 window at share alpha, the gains [lo, hi] at which only
    m1 decodes at slot 1, as (lo, hi, mass): hi cut at the tail truncation
    point lo + sigma2 TAIL_SPAN where it is infinite, and the window's
    slot-1 mass exp(-lo/s2) - exp(-hi/s2) before the cut, which prob_p2
    reads.  None at or below the vanishing threshold and where the window
    is empty."""
    if alpha <= vanishing_threshold(cfg):
        return None
    lo, hi = _p1_bounds(alpha, cfg)
    if lo >= hi:
        # just above the vanishing threshold the window is empty but its
        # bounds can cross by rounding
        return None
    s2 = cfg.sigma2
    mass = math.exp(-lo / s2) - math.exp(-hi / s2)
    if math.isinf(hi):
        hi = lo + s2 * TAIL_SPAN
    return lo, hi, mass


def _p1_closed(lo, hi, cfg):
    """p1 over the window [lo, hi] where m2 has no slot-1 power ((1 -
    alpha)P is 0.0: alpha = 1, or a share whose product underflows).  m2's
    residual is then the constant 2^R - 1, so the integrand is
    C exp(-g/s2)/s2 with C = exp(-(2^R - 1)/(s2 P)), and its integral over
    the window, cut as the quadrature would cut it, is
    C (exp(-lo/s2) - exp(-hi/s2)).  SystemConfig keeps s2 P above 0.0."""
    s2 = cfg.sigma2
    return (math.exp(-cfg.t1 / cfg.s2p)
            * (math.exp(-lo / s2) - math.exp(-hi / s2)))


def _f1(g, c, cfg):
    """Integrand of p1, m2's slot-1 power c = (1-alpha)P: slot-1 gain
    density times m2's recovery at slot 2, elementwise over g and c.
    m2's residual max(0, 2^R/(1 + g c) - 1) over sigma2 P is divided as
    _decay divides, so a tiny sigma2 P gives exp(-inf) = 0 quietly."""
    s2 = cfg.sigma2
    y = np.multiply(g, c)
    y += 1.0
    np.divide(cfg.k1, y, out=y)
    y -= 1.0
    np.maximum(0.0, y, out=y)
    _decay(y, cfg.s2p, y)
    y *= _decay(g, s2, np.empty_like(y))
    y /= s2
    return y


@lru_cache(maxsize=_CACHE_SIZE)
def _p1_value(alpha, cfg, settings):
    window = _p1_window(alpha, cfg)
    if window is None:
        return 0.0
    lo, hi, _ = window
    c = (1.0 - alpha) * cfg.power_P
    if c == 0.0:
        return _p1_closed(lo, hi, cfg)
    # the positive part activates on the whole window (it reaches zero
    # exactly at the upper limit), so the integrand is smooth inside
    try:
        return integrate_finite(lambda g: _f1(g, c, cfg), lo, hi,
                                breakpoints=[], settings=settings)
    except NonConvergence as exc:
        raise exc.named(_integral("p1", cfg, alpha)) from None


def prob_p1(alpha: float, cfg: SystemConfig,
            settings: Optional[QuadratureSettings] = None) -> float:
    """Only m1 decodes at slot 1 and the retransmitted m2 recovers at slot 2.

    Exactly 0 for alpha at or below the vanishing threshold 2^R/(2^R + 1).
    """
    return _p1_value(alpha, cfg, settings or DEFAULT_SETTINGS)


def prob_p1_prime(alpha: float, cfg: SystemConfig,
                  settings: Optional[QuadratureSettings] = None) -> float:
    """Mirror of prob_p1 with the message roles swapped (alpha -> 1-alpha)."""
    return prob_p1(1.0 - alpha, cfg, settings)


def prob_p2(alpha: float, cfg: SystemConfig,
            settings: Optional[QuadratureSettings] = None) -> float:
    """Only m1 decodes at slot 1 and m2 stays lost after slot 2.

    Window probability of the slot-1 only-m1 gains, minus prob_p1.
    """
    window = _p1_window(alpha, cfg)
    if window is None:
        return 0.0
    return window[2] - prob_p1(alpha, cfg, settings)


def prob_p2_prime(alpha: float, cfg: SystemConfig,
                  settings: Optional[QuadratureSettings] = None) -> float:
    """Mirror of prob_p2 with the message roles swapped."""
    return prob_p2(1.0 - alpha, cfg, settings)


def _f3(g, alpha, beta, cfg):
    """_JOINT's integrand: slot-1 gain density times joint slot-2 success."""
    s2 = cfg.sigma2
    y = h3(g, alpha, beta, cfg)
    _decay(y, s2, y)
    y *= _decay(g, s2, np.empty_like(y))
    y /= s2
    return y


def _f4(g, alpha, beta, cfg):
    """_ONLY_M1's integrand: slot-1 gain density times only-m1 at slot 2."""
    s2 = cfg.sigma2
    hv, hb = h4(g, alpha, beta, cfg)
    _decay(hv, s2, hv)
    hv -= _decay(hb, s2, hb)
    layer = np.maximum(0.0, hv, out=hv)
    layer *= _decay(g, s2, hb)
    layer /= s2
    return layer


# The bound factors: bounds, at most 1, on an integrand's slot-2 factor on
# each piece between consecutive edges (an (n, pieces + 1) array), as a
# pair (upper, lower) of (n, pieces) arrays, lower None unless asked for.
# The upper factor holds at every share of a cell [alpha0, alpha1] x
# [beta0, beta1] (the corners are (n, 1) columns), the lower one at a point
# (the cell alpha0 = alpha1, beta0 = beta1).  h3, h4 and h4_bar do not
# increase with g, so each is taken at the end of the piece that makes the
# factor largest (upper) or least (lower), and at the cell's corner that
# makes it largest (see _h3 and _f4_factor).

def _f3_factor(edges, alpha0, beta0, alpha1, beta1, cfg, lower):
    """_f3's factor exp(-h3/s2) at each piece's right end (upper) and, if
    `lower`, at its left end (lower: both are views of one array), with
    h3's m1 term at (alpha1, beta1) and its m2 term at (alpha0, beta0)."""
    y = _h3(edges if lower else edges[:, 1:], alpha1, beta1, alpha0, beta0, cfg)
    _decay(y, cfg.sigma2, y)
    return (y[:, 1:], y[:, :-1]) if lower else (y, None)


def _f4_factor(edges, alpha0, beta0, alpha1, beta1, cfg, lower):
    """Bounds on _f4's factor max(0, exp(-h4/s2) - exp(-h4_bar/s2)) on
    each piece, both at the cell's corner (alpha1, beta1): upper,
    exp(-h4/s2) at its right end less exp(-h4_bar/s2) at its left end, or
    0; if `lower`, lower, exp(-h4/s2) at its left end less exp(-h4_bar/s2)
    at its right end, or 0.  h4's residual n does not increase with alpha,
    and its interference cap beta - (1 - beta) n (where n > 0) does not
    decrease with alpha or beta, so h4 is least there; h4_bar's residual
    does not decrease with alpha, nor its 1 / ((1 - beta) P) with beta, so
    h4_bar is largest there."""
    s2 = cfg.sigma2
    hv, hb = h4(edges, alpha1, beta1, cfg)
    _decay(hv, s2, hv)
    _decay(hb, s2, hb)
    least = np.maximum(hv[:, :-1] - hb[:, 1:], 0.0) if lower else None
    most = hv[:, 1:]
    most -= hb[:, :-1]   # in place: hv's left ends are read already
    return np.maximum(most, 0.0, out=most), least


# The vanishing rules, elementwise over floats or arrays: True where a
# kernel's integral over [0, upper] is exactly 0.0 by proof, so that
# neither path integrates it.

def _joint_vanishes(alpha, beta, upper, cfg):
    """True where one layer has share 0 in both slots (alpha == beta == 1.0
    for m2, alpha == beta == 0.0 for m1).  That layer's residual is then
    2^R - 1 > 0 at every g and its slot-2 power is +0.0, so h3 = +inf and
    _f3 = +0.0 at every sample."""
    return (alpha == beta) & ((alpha == 0.0) | (alpha == 1.0))


# Margin M of _only_m1_vanishes.  h4's computed n and d at a sample, and the
# rule's n at upper, lie within about 10 ulps of n + 1 of their exact values
# (a sample rounded one ulp past upper included); M exceeds that by a
# factor of about 2^19.
_ONLY_M1_MARGIN = 2.0 ** -30


def _only_m1_vanishes(alpha, beta, upper, cfg):
    """True where h4's interference cap binds on all of [0, upper].

    h4's residual n(g) = 2^R (1 + g(1-alpha)P)/(1 + gP) - 1 does not
    increase with g (its slope has the sign of -alpha), so the cap
    d = beta - (1-beta) n <= 0 binds on all of [0, upper] once
    n(upper) >= beta/(1-beta) (1 + M) + M, M = _ONLY_M1_MARGIN, which
    covers the rounding of h4's own n and d.  Every sample then has n > 0
    and d <= 0, h4 = +inf and _f4 = +0.0, and the quadrature would return
    0.0 after its first round.  n(upper) is computed as 2^R (u / v) - 1,
    u = 1 + upper(1-alpha)P and v = 1 + upper*P, which cannot overflow (an
    overflowing u or v gives NaN, and False), and the rule is multiplied
    out by 1 - beta."""
    p = cfg.power_P
    ratio = (upper * (1.0 - alpha) * p + 1.0) / (upper * p + 1.0)
    n = cfg.k1 * ratio - 1.0
    return ((1.0 - beta) * (n - _ONLY_M1_MARGIN)
            >= beta * (1.0 + _ONLY_M1_MARGIN))


class _Kernel(NamedTuple):
    """One slot-2 kernel after a both-fail slot 1: the integral of
    integrand(g, alpha, beta, cfg) over the slot-1 gain g in [0, upper].
    The scalar path (_slot2), the lockstep path (_slot2_part) and the
    bounds (_kernel_bounds) all read it.

    terms(alpha, beta, cfg) gives the integrand's kink root terms,
    vanishes(alpha, beta, upper, cfg) its vanishing rule, and
    factor(edges, alpha0, beta0, alpha1, beta1, cfg, lower) bounds (upper,
    lower) on its slot-2 factor on each piece between consecutive edges,
    the upper one at every share of the cell [alpha0, alpha1] x [beta0,
    beta1], the lower one, if asked for, at a point."""
    integrand: Callable
    terms: Callable
    vanishes: Callable
    factor: Callable


_JOINT = _Kernel(_f3, _joint_terms, _joint_vanishes, _f3_factor)
_ONLY_M1 = _Kernel(_f4, _only_m1_terms, _only_m1_vanishes, _f4_factor)


@lru_cache(maxsize=_CACHE_SIZE)
def _slot2(kernel, alpha, beta, upper, cfg, settings):
    """The kernel's integral at float shares over [0, upper]; 0.0 without
    integrating where it vanishes, as on the lockstep path."""
    if kernel.vanishes(alpha, beta, upper, cfg):
        return 0.0
    return integrate_finite(lambda g: kernel.integrand(g, alpha, beta, cfg),
                            0.0, upper,
                            breakpoints=_kinks(kernel.terms, alpha, beta, cfg),
                            settings=settings)


def _slot2_prob(name, kernel, alpha, beta, cfg, settings):
    """prob_p3 or prob_p4: the kernel over [0, g_max(alpha)], 0.0 where
    g_max <= 0, and a NonConvergence named `name` at the shares."""
    gm = g_max(alpha, cfg)
    if gm <= 0.0:
        return 0.0
    try:
        return _slot2(kernel, alpha, beta, gm, cfg, settings or DEFAULT_SETTINGS)
    except NonConvergence as exc:
        raise exc.named(_integral(name, cfg, alpha, beta)) from None


class _Part(NamedTuple):
    """One family of integrals of a lockstep quadrature (_kernel_grid):
    integral i is integrand(g, *(x[i] for x in args), cfg) over
    [lower[i], upper[i]] (lower and upper broadcast), with the kink
    candidates row i of kinks(*args, cfg).  Its NonConvergence is named
    `name` at the shares (x[i] for x in shares)."""
    name: str
    shares: tuple
    integrand: Callable
    kinks: Callable
    args: tuple
    lower: object
    upper: object


def _slot2_part(name, shares, kernel, alpha, beta, upper, cfg):
    """The _Part of the kernel at each point (alpha[i], beta[i]) over
    [0, upper[i]] (upper broadcasts), 0.0 where upper[i] <= 0, the g_max
    guard of prob_p3/prob_p4.  An integral that the kernel's vanishing rule
    proves zero gets the upper limit 0.0, so integrate_finite_many returns
    0.0 for it without integrating, as _slot2 does."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    limit = np.maximum(np.broadcast_to(upper, alpha.shape), 0.0)
    limit[kernel.vanishes(alpha, beta, limit, cfg)] = 0.0
    return _Part(name, shares, kernel.integrand,
                 partial(_kinks_grid, kernel.terms),
                 (alpha, beta), 0.0, limit)


def _no_kinks(c, cfg):
    """p1's kink candidates: none (see _p1_value)."""
    return np.empty((len(c), 0))


def _kernel_grid(parts, cfg, settings):
    """The integrals of the _Parts, all in one lockstep quadrature; one
    array of values per part.

    The parts' integrals are the quadrature's owners in order, their kink
    arrays NaN-padded to the widest.  The panels reach the integrand sorted
    by owner, so each part's panels are one run of rows, found by
    searchsorted on the owner column, and each part's integrand gets its
    run as a row slice of the nodes.  A NonConvergence, that of the lowest
    failing owner, is named after its part's name and shares.
    """
    starts = np.cumsum([0] + [len(part.args[0]) for part in parts])
    kinks = [part.kinks(*part.args, cfg) for part in parts]
    rows = np.full((starts[-1], max(k.shape[1] for k in kinks)), np.nan)
    for k, first in zip(kinks, starts):
        rows[first:first + len(k), :k.shape[1]] = k
    del kinks   # rows holds them for the whole quadrature
    lower, upper = np.empty(starts[-1]), np.empty(starts[-1])
    for part, first, last in zip(parts, starts, starts[1:]):
        lower[first:last] = part.lower
        upper[first:last] = part.upper

    def f(g, owner):
        cuts = np.searchsorted(owner[:, 0], starts)
        runs = []
        for part, first, lo, hi in zip(parts, starts, cuts, cuts[1:]):
            if lo < hi:
                own = owner[lo:hi] - first
                runs.append(part.integrand(g[lo:hi], *(x[own] for x in part.args),
                                           cfg))
        return runs[0] if len(runs) == 1 else np.concatenate(runs)

    try:
        values = integrate_finite_many(f, lower, upper, rows, settings)
    except NonConvergence as exc:
        i = int(np.searchsorted(starts, exc.owner, side="right")) - 1
        at = exc.owner - starts[i]
        raise exc.named(_integral(parts[i].name, cfg, *(
            float(x[at]) for x in parts[i].shares))) from None
    return [values[first:last] for first, last in zip(starts, starts[1:])]


def prob_p3(alpha: float, beta: float, cfg: SystemConfig,
            settings: Optional[QuadratureSettings] = None) -> float:
    """Both messages fail at slot 1 and decode jointly at slot 2."""
    return _slot2_prob("p3", _JOINT, alpha, beta, cfg, settings)


def prob_p4(alpha: float, beta: float, cfg: SystemConfig,
            settings: Optional[QuadratureSettings] = None) -> float:
    """Both messages fail at slot 1 and only m1 recovers at slot 2."""
    return _slot2_prob("p4", _ONLY_M1, alpha, beta, cfg, settings)


def _threshold(t, c, p):
    """safe_div_threshold(t, c[i] * p) at each c[i], for t > 0; a product
    or quotient that overflows is +-inf, quietly, as in Python's float
    arithmetic (a product overflowing to -inf is a non-positive power)."""
    with np.errstate(over="ignore"):
        d = c * p
        return np.divide(t, d, out=np.full(len(d), np.inf), where=d > 0.0)


def _g_max_cell(alpha0, alpha1, cfg):
    """At least g_max at every share of each interval [alpha0[i],
    alpha1[i]], in g_max's arithmetic: its first threshold does not
    increase with alpha and its second does not decrease, so the first is
    taken at alpha0 and the second at alpha1.  At alpha0 = alpha1 it is
    g_max at each share, with g_max's bits: its arithmetic elementwise,
    which numpy rounds as Python does."""
    t1, k1, p = cfg.t1, cfg.k1, cfg.power_P
    upper = np.minimum(_threshold(t1, 1.0 + k1 * (alpha0 - 1.0), p),
                       _threshold(t1, 1.0 - k1 * alpha1, p))
    return np.minimum(upper, cfg.g_sum, out=upper)


def _mlh_columns(alphas, mirrors, p3_alphas, p3_betas, p4_alphas, p4_betas,
                 cfg, settings=None):
    """The slot-1 events of rows, and prob_p3 at each point (p3_alphas[i],
    p3_betas[i]) and prob_p4 at each point (p4_alphas[j], p4_betas[j]),
    with the scalar closed forms' bits, all integrals in one lockstep
    quadrature.  The rows may be empty, and so may the points.

    Row k has the share alphas[k] and the mirror share mirrors[k].  Its
    slot-1 fields of EventProbs are returned as columns in a namespace: p0
    (prob_p0 at alphas), p1 and p2 (prob_p1 and prob_p2 at alphas), and
    p1p and p2p (at mirrors); then the p3 and p4 arrays.

    The slot-1 terms are computed once per distinct share, so rows may
    repeat shares, in the order in which a loop over the rows asks for p1
    at alphas[k], then at mirrors[k]: each share's prob_p0 and _p1_window,
    then _p1_closed where (1 - alpha)P is 0.0, else one p1 integral.  The
    quadrature's owners are those p1 integrals in that order, then the p3
    and p4 integrals, each failure named as the scalar closed form names
    it; so a NonConvergence is the one that loop, then a loop of prob_p3
    then prob_p4, raises first.  The scalar caches are neither read nor
    filled."""
    alphas = np.asarray(alphas, dtype=float)
    rows = np.stack([alphas, np.asarray(mirrors, dtype=float)], axis=1).ravel()
    shares, first, inverse = np.unique(rows, return_index=True,
                                       return_inverse=True)
    p0, p1, p2, lo, hi, c = np.zeros((6, len(shares)))
    order = np.argsort(first)
    for k in order.tolist():
        share = float(shares[k])
        p0[k] = prob_p0(share, cfg)
        window = _p1_window(share, cfg)
        if window is None:
            continue
        lo[k], hi[k], p2[k] = window
        c[k] = (1.0 - share) * cfg.power_P
        if c[k] == 0.0:
            p1[k] = _p1_closed(*window[:2], cfg)
    index = order[c[order] > 0.0]   # the p1 integrals, in the loop's order
    parts = [_Part("p1", (shares[index],), _f1, _no_kinks, (c[index],),
                   lo[index], hi[index])]
    for name, kernel, a, b in (("p3", _JOINT, p3_alphas, p3_betas),
                               ("p4", _ONLY_M1, p4_alphas, p4_betas)):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        parts.append(_slot2_part(name, (a, b), kernel, a, b,
                                 _g_max_cell(a, a, cfg), cfg))
    p1[index], p3, p4 = _kernel_grid(parts, cfg, settings or DEFAULT_SETTINGS)
    # prob_p2's window - p1; 0.0 - 0.0 where the window is None
    (r0, _), (r1, m1), (r2, m2) = (x[inverse].reshape(-1, 2).T
                                   for x in (p0, p1, p2 - p1))
    return SimpleNamespace(p0=r0, p1=r1, p1p=m1, p2=r2, p2p=m2), p3, p4


# Margins of the slot-2 kernels' bounds.  _BOUND_MARGIN M covers rounding:
# the bound's own (h3/h4 and their exponentials at a piece's ends, the
# piece masses and their sum, a few ulps each of terms at most 1: some
# 2^-45 in all at 32 pieces), and the quadrature's where the sum is exact
# (the integrand's factor constant in g, as p4 at alpha = 0, beta = 1:
# values were measured up to 5e-17 above the sum, and a lower sum is then
# exact too).  M = 2^-30 exceeds both by a factor of over 2^10.
# _TOL_SLACK covers the quadrature's tolerance: prob_p3, prob_p4 and
# prob_sc stop once their error estimate is within max(abs_tol,
# rel_tol |value|) <= max(abs_tol, rel_tol), the values being
# probabilities, and the slack allows 6 times that.  tests/test_bounds.py
# holds the bounds against the quadratures.
_BOUND_MARGIN = 2.0 ** -30
_TOL_SLACK = 6.0
# Points per (points, pieces) block of a bound.  Each row's sum is its own,
# so a bound has the same bits at any block size (checked at 512, 1,024,
# 2,048 and one block of 10,201 points over 50 configs).  At 3 dB, R = 3.3
# the 8-piece bound of a 0.01 grid took 5.1 ms at 512, 4.4 ms at 1,024 and
# 3.9 ms at 2,048, which raised the tracemalloc peak of
# test_peak_memory_of_one_mlh_search from 2.9 to 4.0 MiB; 1,024 leaves it
# at 2.9 MiB.
_BOUND_CHUNK = 1024


def _slot1_pieces(upper, s2, pieces):
    """The edges of `pieces` pieces of [0, cut], cut = min(upper[i],
    sigma2 TAIL_SPAN), for each upper[i] >= 0, as an (n, pieces + 1) array,
    and their slot-1 masses exp(-lo/s2) - exp(-hi/s2), then the mass past
    the cut up to upper[i], as an (n, pieces + 1) array.

    The edges are those of pieces - pieces // 2 pieces of equal width and
    of pieces // 2 pieces of equal slot-1 mass, so 8 pieces are nested in
    32.  Equal widths alone leave most of the mass in the first piece
    where cut >> sigma2 (at 40 dB, R = 12 the optimizer then prunes 3% of
    the coarse points, against 99.7% with both); equal masses alone leave
    the last piece wide where the integrand grows late in g (at -5 dB,
    R = 1.5, 47% pruned against 99.8%)."""
    cut = np.minimum(upper, s2 * TAIL_SPAN)
    n_mass = pieces // 2
    n_width = pieces - n_mass
    width = np.multiply.outer(cut, np.arange(n_width + 1) / n_width)   # 0 ... cut
    # -s2 log(1 - q k/n_mass), q = 1 - exp(-cut/s2) the mass of [0, cut]
    mass = np.log1p(np.multiply.outer(-np.expm1(cut / -s2),
                                      np.arange(1, n_mass) / -n_mass))
    mass *= -s2
    edges = np.sort(np.concatenate([width, np.minimum(mass, cut[:, None])],
                                   axis=1), axis=1)
    survival = np.concatenate([edges, upper[:, None]], axis=1)
    _decay(survival, s2, survival)
    return edges, survival[:, :-1] - survival[:, 1:]


def _bound_slack(settings):
    """The least value of an upper bound of _kernel_bounds at these
    settings."""
    settings = settings or DEFAULT_SETTINGS
    return _BOUND_MARGIN + _TOL_SLACK * max(settings.abs_tol, settings.rel_tol)


def _riemann_sums(kernel, corners, edges, mass, cfg, lower):
    """The upper and lower Riemann sums of _kernel_bounds at each cell
    (corners: alpha0, alpha1, beta0, beta1, one entry per cell) over its
    pieces (edges[i], mass[i]); no lower sum unless `lower`."""
    alpha0, alpha1, beta0, beta1 = (x[:, None] for x in corners)
    most, least = kernel.factor(edges, alpha0, beta0, alpha1, beta1, cfg, lower)
    piece = mass[:, :-1]
    if lower:   # before `most` is scaled in place: it may share least's array
        least = (least * piece).sum(axis=1)
    most *= piece
    return most.sum(axis=1) + mass[:, -1], least


def _kernel_bounds(kernel, cells, limit, cfg, pieces, settings, lower=False):
    """Bounds (upper, lower) on what the kernel's quadrature over
    [0, limit[i]] returns at these settings, with no quadrature: the upper
    one at every point of cell i, the lower one (None unless `lower`) where
    that cell is a point.  cells holds four arrays (alpha0, alpha1, beta0,
    beta1), one entry per cell, and limit an array of limits >= 0, one per
    cell.

    Each piece of _slot1_pieces over [0, limit] contributes the kernel's
    bound factors on it (kernel.factor) times its exact slot-1 mass, and
    the range past the cut its mass to the upper sum, nothing to the lower
    one.  With M = _BOUND_MARGIN and T = _TOL_SLACK max(abs_tol, rel_tol),
    the upper sum is inflated to (1 + M) sum + M + T and the lower one
    deflated to (1 - M) sum - M - T, floored at 0.  The vanishing rule is
    proved at a point, so only a point's integral that it proves 0.0 gets
    no sum: its bounds are _bound_slack and 0.0.  More pieces give tighter
    bounds; a NaN sum gives NaN bounds."""
    alpha0, alpha1, beta0, beta1 = cells = [np.asarray(x, dtype=float)
                                            for x in cells]
    distinct, inverse = np.unique(limit, return_inverse=True)
    edges, mass = _slot1_pieces(distinct, cfg.sigma2, pieces)
    upper = np.zeros(len(alpha0))
    below = np.zeros(len(alpha0)) if lower else None
    vanishes = ((alpha0 == alpha1) & (beta0 == beta1)
                & kernel.vanishes(alpha1, beta1, limit, cfg))
    rest = np.flatnonzero(~vanishes)
    for s in range(0, len(rest), _BOUND_CHUNK):
        run = rest[s:s + _BOUND_CHUNK]
        at = inverse[run]
        upper[run], least = _riemann_sums(
            kernel, [x[run] for x in cells], edges[at], mass[at], cfg, lower)
        if lower:
            below[run] = least
    slack = _bound_slack(settings)
    upper *= 1.0 + _BOUND_MARGIN
    upper += slack
    if not lower:
        return upper, None
    below *= 1.0 - _BOUND_MARGIN
    below -= slack
    return upper, np.maximum(below, 0.0, out=below)


def _cell_bound(p3_cells, p4_cells, cfg, pieces, settings=None):
    """Upper bounds on what prob_p3 returns at every point of each cell of
    p3_cells and prob_p4 at every point of each cell of p4_cells, at these
    settings, with no quadrature.  A cell is [alpha0, alpha1] x [beta0,
    beta1] in the unit square, and cells are given as four arrays (alpha0,
    alpha1, beta0, beta1), one entry per cell; a point is the cell
    alpha0 = alpha1, beta0 = beta1.  Each is _kernel_bounds' upper bound
    with `pieces` pieces over [0, _g_max_cell] (0 where that is <= 0,
    prob_p3/prob_p4's guard)."""
    bounds = []
    for kernel, cells in ((_JOINT, p3_cells), (_ONLY_M1, p4_cells)):
        cells = [np.asarray(x, dtype=float) for x in cells]
        limit = _g_max_cell(cells[0], cells[1], cfg)
        np.maximum(limit, 0.0, out=limit)
        bounds.append(_kernel_bounds(kernel, cells, limit, cfg, pieces,
                                     settings)[0])
    return bounds[0], bounds[1]


def _sc_shares(alpha):
    """The distinct shares of alpha and 1 - alpha, told apart by their
    bits and in the order of their bit patterns (ascending on [0, 1]), and
    the inverse as a (2, n) array: shares[inverse[0]] is alpha and
    shares[inverse[1]] is 1 - alpha.  tp4 at split a and tp4p at split a'
    are the same integral when a == 1 - a' (same shares, kinks and upper
    limit), so sc's tp4 and tp4p are taken at each distinct share once."""
    both = np.concatenate([alpha, 1.0 - alpha])
    _, first, inverse = np.unique(both.view(np.int64), return_index=True,
                                  return_inverse=True)
    return both[first], inverse.reshape(2, -1)


def _sc_bounds(alphas, cfg, pieces, settings=None):
    """Bounds on what prob_sc returns at each split alphas[i], at these
    settings, with no quadrature: two namespaces (upper, lower) of the
    arrays tp3, tp4 and tp4p, each _kernel_bounds' bound with `pieces`
    pieces over [0, sigma2 TAIL_SPAN] at the point (alpha, alpha), tp4p's
    at (1 - alpha, 1 - alpha), each distinct share of _sc_shares bounded
    once.  sc_throughput_from_probs does not decrease in any field, and
    rounds monotonically, so it makes each side a bound on what
    throughput_sc returns."""
    alpha = np.asarray(alphas, dtype=float)
    shares, inverse = _sc_shares(alpha)
    limit = cfg.sigma2 * TAIL_SPAN
    tp3 = _kernel_bounds(_JOINT, [alpha] * 4, np.full_like(alpha, limit), cfg,
                         pieces, settings, lower=True)
    tp4 = _kernel_bounds(_ONLY_M1, [shares] * 4, np.full_like(shares, limit),
                         cfg, pieces, settings, lower=True)
    return tuple(SimpleNamespace(tp3=t3, tp4=t4[inverse[0]], tp4p=t4[inverse[1]])
                 for t3, t4 in zip(tp3, tp4))


def prob_p4_prime(alpha: float, beta: float, cfg: SystemConfig,
                  settings: Optional[QuadratureSettings] = None) -> float:
    """Both messages fail at slot 1 and only m2 recovers at slot 2.

    Swapping the message labels swaps both power shares, so this is
    prob_p4 at (1-alpha, 1-beta); the slot-1 both-fail region itself is
    mirror-symmetric in alpha.  The Monte-Carlo oracle confirms this
    two-coordinate mirror (see tests) against the tempting single-mirror
    variant prob_p4(alpha, 1-beta), which disagrees with simulation.
    """
    return prob_p4(1.0 - alpha, 1.0 - beta, cfg, settings)


def prob_sc(alpha: float, cfg: SystemConfig,
            settings: Optional[QuadratureSettings] = None) -> ScProbs:
    """Outcome probabilities of superposition coding over the two slots.

    Both slots reuse the slot-1 split, so these are the multi-layer slot-2
    kernels at beta = alpha; with no slot-1 decoding attempt the slot-1
    gain runs up to the tail truncation point instead of stopping at g_max.
    """
    settings = settings or DEFAULT_SETTINGS
    upper = cfg.sigma2 * TAIL_SPAN
    try:
        tp3 = _slot2(_JOINT, alpha, alpha, upper, cfg, settings)
        tp4 = _slot2(_ONLY_M1, alpha, alpha, upper, cfg, settings)
        tp4p = _slot2(_ONLY_M1, 1.0 - alpha, 1.0 - alpha, upper, cfg, settings)
    except NonConvergence as exc:
        raise exc.named(_integral("sc", cfg, alpha)) from None
    return ScProbs(tp3=tp3, tp4=tp4, tp4p=tp4p)


def _sc_columns(alphas, cfg, settings):
    """prob_sc's fields at each split alphas[i], with the same bits and
    unchecked, as the arrays tp3, tp4 and tp4p of a namespace, for
    ScProbs.checked_columns.

    All three kernels go through one lockstep quadrature, tp4 and tp4p
    at the distinct shares of _sc_shares.  A NonConvergence is that of the
    lowest failing integral, tp3 at each split in order, then the distinct
    shares, named "sc" at its split: alphas[i] for tp3, the share s for
    tp4, which prob_sc(s) integrates as its tp4, so prob_sc fails at the
    named split as well."""
    alpha = np.asarray(alphas, dtype=float)
    shares, inverse = _sc_shares(alpha)
    upper = cfg.sigma2 * TAIL_SPAN
    tp3, tp4 = _kernel_grid(
        [_slot2_part("sc", (alpha,), _JOINT, alpha, alpha, upper, cfg),
         _slot2_part("sc", (shares,), _ONLY_M1, shares, shares, upper, cfg)],
        cfg, settings or DEFAULT_SETTINGS)
    return SimpleNamespace(tp3=tp3, tp4=tp4[inverse[0]], tp4p=tp4[inverse[1]])


def event_probs(split: PowerSplit, cfg: SystemConfig,
                settings: Optional[QuadratureSettings] = None) -> EventProbs:
    """All eight event probabilities of one multi-layer evaluation."""
    a, b = split.alpha, split.beta
    return EventProbs(
        p0=prob_p0(a, cfg),
        p1=prob_p1(a, cfg, settings),
        p1p=prob_p1_prime(a, cfg, settings),
        p2=prob_p2(a, cfg, settings),
        p2p=prob_p2_prime(a, cfg, settings),
        p3=prob_p3(a, b, cfg, settings),
        p4=prob_p4(a, b, cfg, settings),
        p4p=prob_p4_prime(a, b, cfg, settings),
    )


# ---------------------------------------------------------------------------
# Throughputs (renewal-reward: mean delivered bits over mean slice length)
# ---------------------------------------------------------------------------

def throughput_ts(cfg: SystemConfig,
                  settings: Optional[QuadratureSettings] = None) -> float:
    """Time-sharing throughput: one message per full-power slot, two slots."""
    r = cfg.rate_R
    p1 = prob_p1(1.0, cfg, settings)
    p2 = prob_p2(1.0, cfg, settings)
    p4 = prob_p4(1.0, 1.0, cfg, settings)
    return r * p1 + 0.5 * r * (p2 + p4)


def mlh_throughput_from_probs(probs: EventProbs, cfg: SystemConfig) -> float:
    """Multi-layer throughput from precomputed event probabilities (an
    EventProbs, or EventProbs.checked_columns of arrays, elementwise).

    The slice lasts one slot with probability p0 and two otherwise, so the
    mean duration is 2 - p0 slots.
    """
    q = (2.0 * probs.p0 + 2.0 * (probs.p1 + probs.p1p) + 2.0 * probs.p3
         + probs.p2 + probs.p2p + probs.p4 + probs.p4p)
    return cfg.rate_R * q / (2.0 - probs.p0)


def throughput_mlh(split: PowerSplit, cfg: SystemConfig,
                   settings: Optional[QuadratureSettings] = None) -> float:
    """Multi-layer throughput at the given power split."""
    return mlh_throughput_from_probs(event_probs(split, cfg, settings), cfg)


def sc_throughput_from_probs(probs: ScProbs, cfg: SystemConfig) -> float:
    """Superposition-coding throughput from outcome probabilities (a
    ScProbs, or ScProbs.checked_columns of arrays, elementwise)."""
    r = cfg.rate_R
    return r * probs.tp3 + 0.5 * r * (probs.tp4 + probs.tp4p)


def throughput_sc(alpha: float, cfg: SystemConfig,
                  settings: Optional[QuadratureSettings] = None) -> float:
    """Superposition-coding throughput at the given split (two-slot slices)."""
    return sc_throughput_from_probs(prob_sc(alpha, cfg, settings), cfg)
