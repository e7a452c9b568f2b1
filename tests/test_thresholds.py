"""The in-place thresholds and integrands against their expression forms.

h3, h4, _f3 and _f4 work in place on a few sample-sized buffers, with the
operations of the expression forms kept below in the same order, so every
value must have the expression form's bits (compared by float.hex) and g
must come back unmodified.  The samples come as a (P, 22) array, and the
shares as floats, as on the scalar path, or as (P, 1) owner columns, as on
the lockstep path.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlharq.closed_form import (
    _JOINT,
    _ONLY_M1,
    _f3,
    _f4,
    _kinks,
    h3,
    h4,
    vanishing_threshold,
)
from mlharq.model import SystemConfig

# ---------------------------------------------------------------------------
# The expression forms: the reference, as the closed forms once wrote them
# ---------------------------------------------------------------------------


def _over_power_expr(n, w):
    if isinstance(w, float) and w > 0.0:
        return n / w
    return np.divide(n, w, out=np.where(n > 0.0, np.inf, 0.0), where=w > 0.0)


def h3_expr(g, alpha, beta, cfg):
    g = np.asarray(g, dtype=float)
    r = cfg.rate_R
    p = cfg.power_P
    k1 = 2.0 ** r
    k2 = 2.0 ** (2.0 * r)
    n1 = k1 / (1.0 + g * (1.0 - alpha) * p) - 1.0
    n2 = k1 / (1.0 + g * alpha * p) - 1.0
    n3 = k2 / (1.0 + g * p) - 1.0
    t1 = _over_power_expr(n1, (1.0 - beta) * p)
    t2 = _over_power_expr(n2, beta * p)
    t3 = n3 / p
    return np.maximum(0.0, np.maximum(t1, np.maximum(t2, t3)))


def h4_expr(g, alpha, beta, cfg):
    g = np.asarray(g, dtype=float)
    r = cfg.rate_R
    p = cfg.power_P
    k1 = 2.0 ** r
    u = 1.0 + g * (1.0 - alpha) * p
    v = 1.0 + g * p
    n = (k1 * u - v) / v
    d = beta - (1.0 - beta) * n
    d_safe = np.where(d > 0.0, d, 1.0)
    h4v = np.where(n <= 0.0, 0.0,
                   np.where(d > 0.0, n / (p * d_safe), np.inf))
    nbar = k1 / u - 1.0
    hbar = _over_power_expr(np.maximum(0.0, nbar), (1.0 - beta) * p)
    return h4v, hbar


def f3_expr(g, alpha, beta, cfg):
    s2 = cfg.sigma2
    return np.exp(-h3_expr(g, alpha, beta, cfg) / s2) * np.exp(-g / s2) / s2


def f4_expr(g, alpha, beta, cfg):
    s2 = cfg.sigma2
    hv, hb = h4_expr(g, alpha, beta, cfg)
    layer = np.maximum(0.0, np.exp(-hv / s2) - np.exp(-hb / s2))
    return layer * np.exp(-g / s2) / s2


# ---------------------------------------------------------------------------


def _bits(values):
    """Exact images of an array's floats (float.hex tells -0.0 from 0.0)."""
    return [float.hex(v) for v in np.asarray(values, dtype=float).ravel().tolist()]


@st.composite
def threshold_cases(draw):
    """A config (sigma2 not always 1), 1-6 owners with shares biased to the
    edges, and a (P, 22) sample array per owner row: zeros, the owner's own
    kink candidates (where the branches switch) and random gains."""
    rate = draw(st.floats(0.05, 12.0))
    snr_db = draw(st.floats(-5.0, 40.0))
    sigma2 = draw(st.sampled_from([1.0, 0.3, 2.5]))
    cfg = SystemConfig.from_snr_db(snr_db, rate, sigma2)
    t = vanishing_threshold(cfg)
    edges = [0.0, -0.0, 1.0, 5e-324, 1e-320, t, math.nextafter(t, 2.0), 1.0 - t,
             0.5]
    share = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0))
    owners = draw(st.lists(st.tuples(share, share), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for a, b in owners:
        kinks = [x for x in (_kinks(_JOINT.terms, a, b, cfg)
                             + _kinks(_ONLY_M1.terms, a, b, cfg))
                 if math.isfinite(x) and x >= 0.0]
        row = [0.0, *kinks[:8]]
        row += (sigma2 * rng.exponential(4.0, 22 - len(row))).tolist()
        rows.append(rng.permutation(row))
    return cfg, owners, np.array(rows)


def _check(g, alpha, beta, cfg):
    """Each in-place form equals its expression form at (g, alpha, beta)
    bit for bit and leaves g as it was."""
    before = np.array(g, copy=True)
    cases = [(h3, h3_expr), (lambda *a: h4(*a)[0], lambda *a: h4_expr(*a)[0]),
             (lambda *a: h4(*a)[1], lambda *a: h4_expr(*a)[1]),
             (_f3, f3_expr), (_f4, f4_expr)]
    with np.errstate(all="ignore"):
        for in_place, expr in cases:
            want = expr(g, alpha, beta, cfg)
            got = in_place(g, alpha, beta, cfg)
            assert np.shape(got) == np.shape(want)
            assert _bits(got) == _bits(want)
            assert np.asarray(g).tobytes() == before.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=threshold_cases())
@example(case=(SystemConfig.from_snr_db(3.0, 1.0, 2.0),
               [(0.0, 1.0), (1.0, 0.0), (5e-324, 1e-320), (1e-320, 5e-324)],
               np.zeros((4, 22))))
@example(case=(SystemConfig.from_snr_db(3.0, 1.0),
               [(-0.0, -0.0), (0.5, -0.0), (-0.0, 0.5), (1.0, -0.0)],
               np.zeros((4, 22))))
def test_in_place_forms_equal_the_expression_forms(case):
    cfg, owners, g = case
    # scalar path: float shares
    for a, b in owners:
        _check(g, a, b, cfg)
    _check(0.0, owners[0][0], owners[0][1], cfg)
    # lockstep path: (P, 1) owner columns against (P, 22) samples
    alpha = np.array([a for a, _ in owners])[:, None]
    beta = np.array([b for _, b in owners])[:, None]
    _check(g, alpha, beta, cfg)
