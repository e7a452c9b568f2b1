"""Draw-by-draw classifiers over the Monte-Carlo oracle's decode walks.

The library counts a walk's events (`monte_carlo._count`) and never builds
a per-trial event array.  Tests that compare single draws with a hand
classification, a reference ladder or the closed forms' regions scatter
the same walks (`_mlh_walk`, `_sc_walk`) into one event per trial.
"""

import numpy as np

from mlharq.model import SliceEvent
from mlharq.monte_carlo import _mlh_walk, _sc_walk


def _scatter(walk, n):
    """The slice event of each of a walk's n trials."""
    ev = np.full(n, int(SliceEvent.NONE_DECODED), dtype=np.int64)
    for event, idx, mask in walk:
        ev[mask if idx is None else idx[mask]] = int(event)
    return ev


def mlh_events(g1, g2, alpha, beta, cfg):
    """The mlh slice event of each trial (g1[i], g2[i])."""
    return _scatter(_mlh_walk(g1, g2, alpha, beta, cfg), len(g1))


def sc_events(g1, g2, alpha, cfg):
    """The sc slice event of each trial (g1[i], g2[i])."""
    return _scatter(_sc_walk(np.stack((g1, g2)), alpha, cfg), len(g1))
