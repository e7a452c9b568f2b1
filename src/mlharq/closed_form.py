"""Closed-form decoding-event probabilities and throughputs.

All quantities describe one two-slot slice carrying two messages over
independent exponential channel gains (mean sigma2).  The expressions are
exact up to one-dimensional quadrature: the inner (slot-2) gain integrates
analytically against the exponential density, leaving integrals over the
slot-1 gain whose integrands combine exponentials of the gain thresholds
g_min/g_max, h3, h4 and h4_bar.

Superposition coding is the multi-layer both-fail branch with beta = alpha
and no slot-1 decoding: it evaluates the same two slot-2 kernels (_k3,
_k4), with the slot-1 gain integrated up to the tail truncation point
instead of g_max.

Extended-real conventions used throughout: x/0+ = +inf for x > 0,
exp(-inf) = 0, max(..., +inf) = +inf; an infinite p1 window is cut at the
tail truncation point.
"""

import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from .model import PowerSplit, SystemConfig, safe_div_threshold
from .quadrature import (
    DEFAULT_SETTINGS,
    TAIL_SPAN,
    QuadratureSettings,
    integrate_finite,
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
_CACHE_SIZE = 65536


def _check_prob(name, value, slack=_PROB_SLACK):
    if not -slack <= value <= 1.0 + slack:
        raise ValueError(f"{name} must be a probability, got {value}")


class _Probs:
    """Field checks and helpers shared by the probability records; each
    subclass names itself in _label."""

    def __post_init__(self):
        for name, value in self.as_dict().items():
            _check_prob(name, value)
        if self.total() > 1.0 + 1e-8:
            raise ValueError(
                f"{self._label} probabilities sum to {self.total()} > 1")

    def total(self) -> float:
        return reduce(operator.add, self.as_dict().values())

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    t = 2.0 ** cfg.rate_R
    return t / (t + 1.0)


# ---------------------------------------------------------------------------
# Gain thresholds
# ---------------------------------------------------------------------------

def g_min(alpha: float, cfg: SystemConfig) -> float:
    """Smallest slot-1 gain at which both messages decode jointly in slot 1.

    +inf when a layer has zero power (alpha in {0, 1}): joint slot-1
    success is then impossible.
    """
    t1 = 2.0 ** cfg.rate_R - 1.0
    t2 = 2.0 ** (2.0 * cfg.rate_R) - 1.0
    p = cfg.power_P
    return max(safe_div_threshold(t1, alpha * p),
               safe_div_threshold(t1, (1.0 - alpha) * p),
               t2 / p)


def g_max(alpha: float, cfg: SystemConfig) -> float:
    """Largest slot-1 gain at which both messages still fail in slot 1."""
    t1 = 2.0 ** cfg.rate_R - 1.0
    t2 = 2.0 ** (2.0 * cfg.rate_R) - 1.0
    p = cfg.power_P
    pow2r = 2.0 ** cfg.rate_R
    return min(safe_div_threshold(t1, (1.0 + pow2r * (alpha - 1.0)) * p),
               safe_div_threshold(t1, (1.0 - pow2r * alpha) * p),
               t2 / p)


def h3(g, alpha, beta, cfg):
    """Slot-2 gain threshold for joint success after a both-fail slot 1.

    Elementwise over g; max of the three accumulated MAC constraints with
    the positive-part clamp, +inf where a zero-power slot-2 layer still
    needs positive extra mutual information.
    """
    g = np.asarray(g, dtype=float)
    r = cfg.rate_R
    p = cfg.power_P
    k1 = 2.0 ** r
    k2 = 2.0 ** (2.0 * r)

    n1 = k1 / (1.0 + g * (1.0 - alpha) * p) - 1.0   # m2 layer, share 1-beta
    n2 = k1 / (1.0 + g * alpha * p) - 1.0           # m1 layer, share beta
    n3 = k2 / (1.0 + g * p) - 1.0                   # sum rate, full power

    # branch on each layer's slot-2 power, not its share: a tiny positive
    # share can still underflow to zero power
    if (1.0 - beta) * p > 0.0:
        t1 = n1 / ((1.0 - beta) * p)
    else:
        t1 = np.where(n1 > 0.0, np.inf, 0.0)
    if beta * p > 0.0:
        t2 = n2 / (beta * p)
    else:
        t2 = np.where(n2 > 0.0, np.inf, 0.0)
    t3 = n3 / p
    return np.maximum(0.0, np.maximum(t1, np.maximum(t2, t3)))


def h4(g, alpha, beta, cfg):
    """Lower/upper slot-2 gain thresholds for "only m1 recovers at slot 2".

    h4 is the smallest slot-2 gain letting m1 through with m2 treated as
    noise in both slots; it is 0 when the slot-1 SINR already suffices and
    +inf when the needed slot-2 boost exceeds the interference-limited cap
    beta/(1-beta).  h4_bar is the largest slot-2 gain at which m2 (clean,
    after hypothetical SIC) still fails.
    """
    g = np.asarray(g, dtype=float)
    r = cfg.rate_R
    p = cfg.power_P
    k1 = 2.0 ** r

    u = 1.0 + g * (1.0 - alpha) * p
    v = 1.0 + g * p
    # residual SINR required of slot 2: 2^R / (1 + slot-1 SINR of m1) - 1
    n = (k1 * u - v) / v
    d = beta - (1.0 - beta) * n
    d_safe = np.where(d > 0.0, d, 1.0)
    h4v = np.where(n <= 0.0, 0.0,
                   np.where(d > 0.0, n / (p * d_safe), np.inf))

    nbar = k1 / u - 1.0
    if (1.0 - beta) * p > 0.0:
        hbar = np.maximum(0.0, nbar) / ((1.0 - beta) * p)
    else:
        hbar = np.where(nbar > 0.0, np.inf, 0.0)
    return h4v, hbar


# ---------------------------------------------------------------------------
# Breakpoint bookkeeping for the quadratures
# ---------------------------------------------------------------------------

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


def _h3_breakpoints(alpha, beta, cfg):
    """Kink candidates of h3: branch switches of the max and zero crossings
    of each term (linear or quadratic in g).  Candidates outside the
    integration range are left for integrate_finite to drop."""
    r = cfg.rate_R
    p = cfg.power_P
    # terms as (share w, 2^rate factor K, gain coefficient c): value is
    # (K/(1+c*g) - 1) / (w*P)
    terms = [(1.0 - beta, 2.0 ** r, (1.0 - alpha) * p),
             (beta, 2.0 ** r, alpha * p),
             (1.0, 2.0 ** (2.0 * r), p)]
    pts = []
    for w, k, c in terms:
        if c > 0.0:
            pts.append((k - 1.0) / c)
    for i in range(3):
        for j in range(i + 1, 3):
            wi, ki, ci = terms[i]
            wj, kj, cj = terms[j]
            if wi <= 0.0 or wj <= 0.0:
                continue
            a2 = (wi - wj) * ci * cj
            a1 = (wi - wj) * (ci + cj) + wj * ki * cj - wi * kj * ci
            a0 = (wi - wj) + wj * ki - wi * kj
            pts.extend(_quadratic_roots(a2, a1, a0))
    return pts


def _h4_breakpoints(alpha, beta, cfg):
    """Kink candidates of the only-m1 integrand, in or out of range."""
    r = cfg.rate_R
    p = cfg.power_P
    k1 = 2.0 ** r
    pts = []
    # residual requirement n crosses zero
    den = 1.0 + k1 * (alpha - 1.0)
    if den > 0.0:
        pts.append((k1 - 1.0) / (p * den))
    # interference cap d crosses zero
    if beta < 1.0 and k1 * (1.0 - beta) > 1.0:
        den = 1.0 - k1 * (1.0 - beta) * (1.0 - alpha)
        if den > 0.0:
            pts.append((k1 * (1.0 - beta) - 1.0) / (p * den))
    # m2 residual nbar crosses zero
    if alpha < 1.0:
        pts.append((k1 - 1.0) / ((1.0 - alpha) * p))
    # positive-part clamp switch h4 = h4_bar: cross-multiplying the two
    # rational forms (u = 1 + g(1-alpha)P, v = 1 + gP) reduces to
    # beta*u*v - k*v + (1-beta)*k^2*u = 0, a quadratic in g.  Roots off the
    # active branches only add harmless panel splits.
    c1 = (1.0 - alpha) * p
    c2 = p
    pts.extend(_quadratic_roots(
        beta * c1 * c2,
        beta * (c1 + c2) - k1 * c2 + (1.0 - beta) * k1 * k1 * c1,
        beta - k1 + (1.0 - beta) * k1 * k1,
    ))
    return pts


# ---------------------------------------------------------------------------
# Event probabilities
# ---------------------------------------------------------------------------

def prob_p0(alpha: float, cfg: SystemConfig) -> float:
    """Both messages decode jointly at slot 1 (analytic, no quadrature)."""
    return math.exp(-g_min(alpha, cfg) / cfg.sigma2)


def _p1_bounds(alpha, cfg):
    t1 = 2.0 ** cfg.rate_R - 1.0
    p = cfg.power_P
    lo = t1 / ((1.0 + 2.0 ** cfg.rate_R * (alpha - 1.0)) * p)
    hi = safe_div_threshold(t1, (1.0 - alpha) * p)
    return lo, hi


@lru_cache(maxsize=_CACHE_SIZE)
def _p1_value(alpha, cfg, settings):
    if alpha <= vanishing_threshold(cfg):
        return 0.0
    lo, hi = _p1_bounds(alpha, cfg)
    if lo >= hi:
        # just above the vanishing threshold the window is empty but its
        # bounds can cross by rounding
        return 0.0
    r = cfg.rate_R
    p = cfg.power_P
    s2 = cfg.sigma2
    c = (1.0 - alpha) * p
    k1 = 2.0 ** r

    def f(g):
        resid = np.maximum(0.0, k1 / (1.0 + g * c) - 1.0)
        return np.exp(-resid / (s2 * p)) * np.exp(-g / s2) / s2

    if math.isinf(hi):
        hi = lo + s2 * TAIL_SPAN
    # the positive part activates on the whole window (it reaches zero
    # exactly at the upper limit), so the integrand is smooth inside
    return integrate_finite(f, lo, hi, breakpoints=[], settings=settings)


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
    if alpha <= vanishing_threshold(cfg):
        return 0.0
    s2 = cfg.sigma2
    lo, hi = _p1_bounds(alpha, cfg)
    if lo >= hi:
        return 0.0
    window = math.exp(-lo / s2) - math.exp(-hi / s2)
    return window - prob_p1(alpha, cfg, settings)


def prob_p2_prime(alpha: float, cfg: SystemConfig,
                  settings: Optional[QuadratureSettings] = None) -> float:
    """Mirror of prob_p2 with the message roles swapped."""
    return prob_p2(1.0 - alpha, cfg, settings)


@lru_cache(maxsize=_CACHE_SIZE)
def _k3(alpha, beta, upper, cfg, settings):
    """Both fail at slot 1, joint success at slot 2, slot-1 gain in [0, upper]."""
    s2 = cfg.sigma2

    def f(g):
        return np.exp(-h3(g, alpha, beta, cfg) / s2) * np.exp(-g / s2) / s2

    bps = _h3_breakpoints(alpha, beta, cfg)
    return integrate_finite(f, 0.0, upper, breakpoints=bps, settings=settings)


@lru_cache(maxsize=_CACHE_SIZE)
def _k4(alpha, beta, upper, cfg, settings):
    """Both fail at slot 1, only m1 at slot 2, slot-1 gain in [0, upper]."""
    s2 = cfg.sigma2

    def f(g):
        hv, hb = h4(g, alpha, beta, cfg)
        layer = np.maximum(0.0, np.exp(-hv / s2) - np.exp(-hb / s2))
        return layer * np.exp(-g / s2) / s2

    bps = _h4_breakpoints(alpha, beta, cfg)
    return integrate_finite(f, 0.0, upper, breakpoints=bps, settings=settings)


def prob_p3(alpha: float, beta: float, cfg: SystemConfig,
            settings: Optional[QuadratureSettings] = None) -> float:
    """Both messages fail at slot 1 and decode jointly at slot 2."""
    gm = g_max(alpha, cfg)
    if gm <= 0.0:
        return 0.0
    return _k3(alpha, beta, gm, cfg, settings or DEFAULT_SETTINGS)


def prob_p4(alpha: float, beta: float, cfg: SystemConfig,
            settings: Optional[QuadratureSettings] = None) -> float:
    """Both messages fail at slot 1 and only m1 recovers at slot 2."""
    gm = g_max(alpha, cfg)
    if gm <= 0.0:
        return 0.0
    return _k4(alpha, beta, gm, cfg, settings or DEFAULT_SETTINGS)


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
    return ScProbs(tp3=_k3(alpha, alpha, upper, cfg, settings),
                   tp4=_k4(alpha, alpha, upper, cfg, settings),
                   tp4p=_k4(1.0 - alpha, 1.0 - alpha, upper, cfg, settings))


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
    """Multi-layer throughput from precomputed event probabilities.

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
    r = cfg.rate_R
    return r * probs.tp3 + 0.5 * r * (probs.tp4 + probs.tp4p)


def throughput_sc(alpha: float, cfg: SystemConfig,
                  settings: Optional[QuadratureSettings] = None) -> float:
    """Superposition-coding throughput at the given split (two-slot slices)."""
    return sc_throughput_from_probs(prob_sc(alpha, cfg, settings), cfg)
