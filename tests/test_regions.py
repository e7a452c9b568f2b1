"""The closed forms' decode regions against the Monte-Carlo oracle, draw by
draw.

The closed forms integrate over regions of the gains (g1, g2) bounded by
their own thresholds: slot 1 by g_min, g_max and the p1 window
(_p1_bounds, empty at or below vanishing_threshold), the single-message
retransmission by p1's residual threshold, the joint slot-2 attempt by h3,
and h4 / h4_bar at (a, b) and at the mirror (1 - a, 1 - b).  The oracle
classifies each draw with the decode ladder (`_ladder` over `_terms`),
which shares none of those thresholds.  Each draw's event, built from the
thresholds, must be the oracle's wherever the draw is not within a
relative REL of a threshold it is compared with; there the two may round
to different sides.
"""

import math

import numpy as np

from mlharq.closed_form import _p1_bounds, g_max, g_min, h3, h4, vanishing_threshold
from mlharq.model import _GAIN_SPAN, SliceEvent, SystemConfig
from mlharq.monte_carlo import _mlh_events, _sc_events

REL = 1e-7
CONFIGS = 400
DRAWS = 3000


def near(g, thresholds):
    """Where g lies within a relative REL of one of the finite thresholds
    (each a float or an array of g's shape)."""
    out = np.zeros(g.shape, dtype=bool)
    with np.errstate(invalid="ignore"):   # inf - inf where t = g = inf
        for t in thresholds:
            out |= np.isfinite(t) & (np.abs(g - t) <= REL * t)
    return out


def slot1_regions(g1, alpha, cfg):
    """The closed forms' slot-1 regions of the gains g1 at m1's share alpha,
    (both, only_m1, only_m2, neither) masks, and the thresholds bounding
    them."""
    lo_both, hi_neither = g_min(alpha, cfg), g_max(alpha, cfg)
    thresholds = [lo_both, hi_neither]
    only = []
    for share in (alpha, 1.0 - alpha):
        if share > vanishing_threshold(cfg):
            lo, hi = _p1_bounds(share, cfg)
            only.append((g1 >= lo) & (g1 < hi))
            thresholds += [lo, hi]
        else:
            only.append(np.zeros(g1.shape, dtype=bool))
    return (g1 >= lo_both, only[0], only[1], g1 < hi_neither), thresholds


def retransmission_threshold(g1, residual_power, cfg):
    """p1's slot-2 threshold: the smallest g2 at which the message left
    after slot 1, with its clean slot-1 term at residual_power, clears R
    sent alone at full power."""
    p = cfg.power_P
    return np.maximum(0.0, 2.0 ** cfg.rate_R / (1.0 + g1 * residual_power) - 1.0) / p


def joint_thresholds(g1, alpha, beta, cfg):
    """The joint slot-2 attempt's thresholds at each g1: h3, then h4 and
    h4_bar at (alpha, beta) and at the mirror (1 - alpha, 1 - beta)."""
    return [h3(g1, alpha, beta, cfg), *h4(g1, alpha, beta, cfg),
            *h4(g1, 1.0 - alpha, 1.0 - beta, cfg)]


def joint_events(g2, thresholds):
    """The closed forms' event of the joint attempt at each g2 (g2 >= h3,
    h4 <= g2 < h4_bar, or the same at the mirror), and how many of those
    regions each g2 lies in."""
    joint, low, high, low_m, high_m = thresholds
    masks = [g2 >= joint, (g2 >= low) & (g2 < high), (g2 >= low_m) & (g2 < high_m)]
    events = np.select(masks, [SliceEvent.OMEGA3, SliceEvent.OMEGA4,
                               SliceEvent.OMEGA4P], SliceEvent.NONE_DECODED)
    return events, np.sum(masks, axis=0)


def place_near(rng, g, thresholds, cfg, where=True):
    """g with about a third of its entries (of those in `where`) moved to a
    relative 1e-6 to 1e-2 either side of one of the thresholds, picked at
    random per entry, where that threshold is positive and within the
    gains the oracle samples; and the mask of the moved entries."""
    t = np.choose(rng.integers(len(thresholds), size=g.shape), thresholds)
    step = rng.choice([1e-6, -1e-6, 1e-4, -1e-4, 1e-2, -1e-2], size=g.shape)
    move = (where & (rng.random(g.shape) < 0.35) & (t > 0.0)
            & (t <= cfg.sigma2 * _GAIN_SPAN))
    return np.where(move, t * (1.0 + step), g), move


def cases():
    """CONFIGS configs over R in [0.05, 24], -5 to 40 dB and three sigma2,
    each with a split whose shares include 0, 0.5, 1, the vanishing
    threshold and the ulp above it, and their mirrors."""
    rng = np.random.default_rng(2021)
    for _ in range(CONFIGS):
        cfg = SystemConfig.from_snr_db(rng.uniform(-5.0, 40.0),
                                       rng.uniform(0.05, 24.0),
                                       float(rng.choice([1.0, 0.3, 2.5])))
        vt = vanishing_threshold(cfg)
        edges = [0.0, 0.5, 1.0, vt, math.nextafter(vt, 2.0), 1.0 - vt]

        def share():
            return (float(rng.choice(edges)) if rng.random() < 0.5
                    else rng.uniform(0.0, 1.0))

        yield rng, cfg, share(), share()


def test_closed_form_regions_equal_the_oracle_draw_by_draw():
    compared = total = 0
    for rng, cfg, alpha, beta in cases():
        # some g1 near a slot-1 threshold, some g2 near a slot-2 one; not
        # both, as the slot-2 thresholds are ill-conditioned near slot 1's
        g1 = rng.exponential(cfg.sigma2, DRAWS)
        _, t1 = slot1_regions(g1, alpha, cfg)
        g1, moved = place_near(rng, g1, t1, cfg)
        (both, only1, only2, neither), t1 = slot1_regions(g1, alpha, cfg)
        g2 = rng.exponential(cfg.sigma2, DRAWS)
        resend1 = retransmission_threshold(g1, (1.0 - alpha) * cfg.power_P, cfg)
        resend2 = retransmission_threshold(g1, alpha * cfg.power_P, cfg)
        t2 = joint_thresholds(g1, alpha, beta, cfg)
        g2, _ = place_near(rng, g2, t2 + [resend1, resend2], cfg, ~moved)

        # mlh: slot 1, then the retransmission or the joint attempt
        skip = (near(g1, t1) | (only1 & near(g2, [resend1]))
                | (only2 & near(g2, [resend2])) | (neither & near(g2, t2)))
        keep = ~skip
        regions = np.stack([both, only1, only2, neither]).sum(axis=0)
        assert (regions[keep] == 1).all(), cfg   # the slot-1 regions partition
        joint, overlap = joint_events(g2, t2)
        assert (overlap[keep & neither] <= 1).all(), cfg
        want = np.select(
            [both, only1 & (g2 >= resend1), only1, only2 & (g2 >= resend2),
             only2, neither],
            [SliceEvent.OMEGA0, SliceEvent.OMEGA1, SliceEvent.OMEGA2,
             SliceEvent.OMEGA1P, SliceEvent.OMEGA2P, joint])
        got = _mlh_events(g1, g2, alpha, beta, cfg)
        bad = np.flatnonzero(keep & (got != want))
        assert bad.size == 0, (cfg, alpha, beta, g1[bad[:3]], g2[bad[:3]])
        compared += int(keep.sum())

        # sc: one joint attempt over both slots at share alpha
        t_sc = joint_thresholds(g1, alpha, alpha, cfg)
        keep = ~near(g2, t_sc)
        want, overlap = joint_events(g2, t_sc)
        assert (overlap[keep] <= 1).all(), cfg
        bad = np.flatnonzero(keep & (_sc_events(g1, g2, alpha, cfg) != want))
        assert bad.size == 0, (cfg, alpha, g1[bad[:3]], g2[bad[:3]])
        compared += int(keep.sum())
        total += 2 * DRAWS
    assert compared >= 0.999 * total
