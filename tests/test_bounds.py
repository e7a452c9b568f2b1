"""Bounds on the slot-2 kernels, which prune the coarse grids.

closed_form's _cell_bound claims to bound from above, with no quadrature,
what prob_p3 and prob_p4 return at the given settings at every point of a
rectangle of shares; a point is the one-point cell.  _sc_bounds claims to
bound what prob_sc returns at a split from above and from below.
These tests hold the claims against the quadratures where the integrands
change form: shares 0 and 1, the vanishing threshold 2^R/(2^R + 1), one
ulp either side of it and its mirror, and a subnormal share, over rates,
SNRs and sigma2 from 0.3 to the largest decade a config accepts.
"""

import math

import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from mlharq.closed_form import (
    _JOINT,
    _ONLY_M1,
    _bound_slack,
    _cell_bound,
    _g_max_cell,
    _sc_bounds,
    _slot1_pieces,
    prob_p3,
    prob_p4,
    prob_sc,
    sc_throughput_from_probs,
    throughput_sc,
    vanishing_threshold,
)
from mlharq.model import SystemConfig
from mlharq.quadrature import (
    DEFAULT_SETTINGS,
    TAIL_SPAN,
    NonConvergence,
    QuadratureSettings,
)

LOOSE = QuadratureSettings(abs_tol=1e-6, rel_tol=1e-4)


def _edge_shares(cfg):
    """The shares where the integrands change form, and a subnormal share,
    at which h3 divides by a power that can be subnormal too."""
    vt = vanishing_threshold(cfg)
    return [0.0, 1.0, vt, math.nextafter(vt, 0.0), math.nextafter(vt, 1.0),
            1.0 - vt, 2.2250738585e-313]


def _config(draw):
    """A config over rates, SNRs and sigma2 up to the largest decade."""
    rate = draw(st.floats(0.05, 24.0))
    snr_db = draw(st.floats(-5.0, 40.0))
    sigma2 = draw(st.sampled_from([0.3, 1.0, 4.0, 1e153]))
    try:
        return SystemConfig.from_snr_db(snr_db, rate, sigma2)
    except ValueError:   # sigma2 * P overflows at the largest sigma2
        reject()


def _shares(cfg):
    return st.one_of(st.sampled_from(_edge_shares(cfg)), st.floats(0.0, 1.0))


def _point_bound(alphas, betas, cfg, pieces, quad=None):
    """_cell_bound at the one-point cells (alphas[k], betas[k]), for p3 and
    for p4."""
    points = (alphas, alphas, betas, betas)
    return _cell_bound(points, points, cfg, pieces, quad)


@st.composite
def bound_cases(draw):
    """(alphas, betas, cfg, settings, pieces): up to 6 points with shares on
    the edges above, or anywhere in [0, 1]."""
    cfg = _config(draw)
    shares = _shares(cfg)
    n = draw(st.integers(1, 6))
    alphas = draw(st.lists(shares, min_size=n, max_size=n))
    betas = draw(st.lists(shares, min_size=n, max_size=n))
    quad = draw(st.sampled_from([DEFAULT_SETTINGS, LOOSE]))
    pieces = draw(st.sampled_from([1, 8, 32]))
    return alphas, betas, cfg, quad, pieces


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=bound_cases())
@example(case=([0.0, 1.0], [1.0, 0.0], SystemConfig.from_snr_db(25.5, 2.0, 4.0),
               LOOSE, 32))
@example(case=([1.0], [0.6942738200469402], SystemConfig.from_snr_db(32.7, 1.18, 4.0),
               DEFAULT_SETTINGS, 8))
def test_the_bounds_reach_past_the_values(case):
    """Each bound is at least what prob_p3 / prob_p4 return there, plus
    twice the tolerance that value was computed to: the integral may lie a
    tolerance above the value, and another value computed to that tolerance
    a tolerance above the integral.  The pieces' slot-1 masses and the
    mass past their cut add up to the slot-1 mass of [0, g_max].  The
    examples are points where the integrand's factor is constant in g, so
    that the sum is the integral itself."""
    alphas, betas, cfg, quad, pieces = case
    upper = np.maximum(_g_max_cell(np.array(alphas), np.array(alphas), cfg), 0.0)
    _, mass = _slot1_pieces(upper, cfg.sigma2, pieces)
    for row, g in zip(mass.tolist(), upper.tolist()):
        # the pieces and the tail partition [0, g_max]
        assert abs(math.fsum(row) + math.expm1(-g / cfg.sigma2)) <= 1e-15
    u3, u4 = _point_bound(alphas, betas, cfg, pieces, quad)
    room = 2.0 * max(quad.abs_tol, quad.rel_tol)
    for k, (a, b) in enumerate(zip(alphas, betas)):
        try:
            v3, v4 = prob_p3(a, b, cfg, quad), prob_p4(a, b, cfg, quad)
        except NonConvergence:
            continue
        assert u3[k] - room >= v3, (a, b, cfg, quad, pieces)
        assert u4[k] - room >= v4, (a, b, cfg, quad, pieces)


def test_more_pieces_bound_tighter():
    """32 pieces nest the 8, so each of their bounds is at most the 8's (up
    to rounding, where the integrand's factor is constant in g), and none
    falls below the slack."""
    cfg = SystemConfig.from_snr_db(3.0, 1.0)
    grid = np.linspace(0.0, 1.0, 21)
    alphas, betas = np.repeat(grid, 21), np.tile(grid, 21)
    coarse = _point_bound(alphas, betas, cfg, 8)
    fine = _point_bound(alphas, betas, cfg, 32)
    for c, f in zip(coarse, fine):
        assert (f <= c + 2.0 ** -50).all()
        assert (f >= _bound_slack(None)).all()


@st.composite
def cell_cases(draw):
    """(cells, points, cfg, settings, pieces): up to 3 rectangles [alpha0,
    alpha1] x [beta0, beta1] whose corners lie on the edges above or
    anywhere in [0, 1], a third of them one point, and for each its four
    corners and 3 points inside."""
    cfg = _config(draw)
    shares = _shares(cfg)
    cells, points = [], []
    for _ in range(draw(st.integers(1, 3))):
        alpha = sorted(draw(st.lists(shares, min_size=2, max_size=2)))
        beta = sorted(draw(st.lists(shares, min_size=2, max_size=2)))
        if draw(st.integers(0, 2)) == 0:
            alpha[1], beta[1] = alpha[0], beta[0]
        inside = [tuple(min(hi, max(lo, lo + t * (hi - lo)))
                        for (lo, hi), t in zip((alpha, beta), ts))
                  for ts in draw(st.lists(st.tuples(st.floats(0.0, 1.0),
                                                    st.floats(0.0, 1.0)),
                                          min_size=3, max_size=3))]
        cells.append((*alpha, *beta))
        points.append([(a, b) for a in alpha for b in beta] + inside)
    quad = draw(st.sampled_from([DEFAULT_SETTINGS, LOOSE]))
    pieces = draw(st.sampled_from([1, 8, 32]))
    return cells, points, cfg, quad, pieces


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=cell_cases())
def test_the_cell_bounds_reach_past_the_values(case):
    """Each cell's bound is at least what prob_p3 / prob_p4 return at its
    corners and at points inside it, plus twice the tolerance (as in
    test_the_bounds_reach_past_the_values), and a one-point cell's bound
    has the bits of that point bounded alone."""
    cells, points, cfg, quad, pieces = case
    corners = tuple(np.array(x) for x in zip(*cells))
    u3, u4 = _cell_bound(corners, corners, cfg, pieces, quad)
    room = 2.0 * max(quad.abs_tol, quad.rel_tol)
    for k, (cell, inside) in enumerate(zip(cells, points)):
        alpha0, alpha1, beta0, beta1 = cell
        if alpha0 == alpha1 and beta0 == beta1:
            w3, w4 = _point_bound([alpha0], [beta0], cfg, pieces, quad)
            assert (u3[k].hex(), u4[k].hex()) == (w3[0].hex(), w4[0].hex())
        for a, b in inside:
            try:
                v3, v4 = prob_p3(a, b, cfg, quad), prob_p4(a, b, cfg, quad)
            except NonConvergence:
                continue
            assert u3[k] - room >= v3, (cell, a, b, cfg, quad, pieces)
            assert u4[k] - room >= v4, (cell, a, b, cfg, quad, pieces)


@st.composite
def sc_cases(draw):
    """(alphas, cfg, settings, pieces): up to 6 splits on the edges above,
    or anywhere in [0, 1]."""
    cfg = _config(draw)
    alphas = draw(st.lists(_shares(cfg), min_size=1, max_size=6))
    quad = draw(st.sampled_from([DEFAULT_SETTINGS, LOOSE]))
    pieces = draw(st.sampled_from([1, 8, 32]))
    return alphas, cfg, quad, pieces


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=sc_cases())
@example(case=([0.0, 1.0, 0.5], SystemConfig.from_snr_db(3.0, 2.8), DEFAULT_SETTINGS,
               32))
def test_the_sc_bounds_hold_the_values(case):
    """Each lower bound is 0.0 (its floor) or lies at least twice the
    tolerance (as in test_the_bounds_reach_past_the_values) below what
    prob_sc returns at its split for tp3, tp4 and tp4p, and each upper
    bound lies as far above it; the
    bounds that sc_throughput_from_probs makes of them hold throughput_sc
    the same way, the tolerance scaled by the rate.  A field whose
    vanishing rule holds is 0.0, its lower bound 0.0 and its upper bound
    the slack, with no sum.  The example's splits are the corner, its
    mirror and the middle at a rate where the corner wins."""
    alphas, cfg, quad, pieces = case
    upper, lower = _sc_bounds(alphas, cfg, pieces, quad)
    t_upper, t_lower = (sc_throughput_from_probs(side, cfg) for side in (upper, lower))
    room = 2.0 * max(quad.abs_tol, quad.rel_tol)
    limit = cfg.sigma2 * TAIL_SPAN
    for k, a in enumerate(alphas):
        try:
            probs = prob_sc(a, cfg, quad)
        except NonConvergence:
            continue
        for name, kernel, share in (("tp3", _JOINT, a), ("tp4", _ONLY_M1, a),
                                    ("tp4p", _ONLY_M1, 1.0 - a)):
            value = getattr(probs, name)
            hi, lo = getattr(upper, name)[k], getattr(lower, name)[k]
            assert lo <= max(value - room, 0.0), (name, a, cfg, quad, pieces)
            assert value <= hi - room, (name, a, cfg, quad, pieces)
            if kernel.vanishes(share, share, limit, cfg):
                assert (value, lo, hi) == (0.0, 0.0, _bound_slack(quad))
        t = throughput_sc(a, cfg, quad)
        r_room = cfg.rate_R * room
        assert t_lower[k] <= max(t - r_room, 0.0), (a, cfg, quad, pieces)
        assert t <= t_upper[k] - r_room, (a, cfg, quad, pieces)


@st.composite
def corner_cases(draw):
    """(cfg, settings, pieces) at the pieces the sc coarse grid uses."""
    return (_config(draw), draw(st.sampled_from([DEFAULT_SETTINGS, LOOSE])),
            draw(st.sampled_from([8, 32])))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=corner_cases())
def test_the_sc_corner_bounds_match_their_mirror(case):
    """Each side of _sc_bounds makes the same throughput bound, bit for bit,
    at splits 0 and 1: tp3 vanishes at both, and tp4 and tp4p swap.  So the
    sc coarse grid tests alpha = 1 alone for the corner's largest lower
    bound."""
    cfg, quad, pieces = case
    for side in _sc_bounds([0.0, 1.0], cfg, pieces, quad):
        at0, at1 = (float(t).hex() for t in sc_throughput_from_probs(side, cfg))
        assert at0 == at1, (cfg, quad, pieces)
