"""Slot-2 integrals that are zero by proof are never integrated.

closed_form._ONLY_M1's vanishing rule claims that h4's interference cap
binds on the whole slot-1 range [0, upper], so that the p4/tp4 integral is
exactly 0.0; closed_form._JOINT's that one layer has share 0 in both
slots, so that the p3/tp3 integral is exactly 0.0.  The first tests hold the claims
against the unskipped quadrature wherever they are made, on random and
adversarial cases.  The others switch the claims off (all False, which is
the program without the skips) and compare the closed forms, their grids,
their failures and the optimizer's results with and without them, by repr
and float.hex, in the same process: frozen hex constants would depend on
the CPU's BLAS kernels, this comparison does not.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlharq import closed_form
from mlharq.closed_form import (
    _JOINT,
    _ONLY_M1,
    _ONLY_M1_MARGIN,
    ScProbs,
    _f3,
    _f4,
    _joint_vanishes,
    _kinks,
    _mlh_columns,
    _only_m1_vanishes,
    _sc_columns,
    event_probs,
    g_max,
    prob_sc,
    throughput_mlh,
    throughput_sc,
    throughput_ts,
    vanishing_threshold,
)
from mlharq.model import PowerSplit, SystemConfig
from mlharq.optimize import optimize_split
from mlharq.quadrature import (
    TAIL_SPAN,
    NonConvergence,
    QuadratureSettings,
    _nodes,
    integrate_finite,
)

ONE_MINUS_ULP = math.nextafter(1.0, 0.0)
SUBNORMALS = [5e-324, 1e-320, math.nextafter(2.2250738585072014e-308, 0.0)]


def _n_upper(alpha, upper, cfg):
    """h4's residual n at g = upper, in _only_m1_vanishes's arithmetic."""
    p = cfg.power_P
    ratio = (upper * (1.0 - alpha) * p + 1.0) / (upper * p + 1.0)
    return 2.0 ** cfg.rate_R * ratio - 1.0


def _ulps(x, k, lo=0.0, hi=1.0):
    """x moved k ulps (down for k < 0), kept in [lo, hi]."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return min(max(x, lo), hi)


# ---------------------------------------------------------------------------
# Soundness: where the test holds, the unskipped integral is +0.0
# ---------------------------------------------------------------------------

@st.composite
def vanishing_cases(draw):
    """(alpha, beta, upper, cfg) with upper g_max(alpha), the sc tail limit
    sigma2*TAIL_SPAN, a subnormal, or the gain where n crosses the margin
    (at beta = 0), moved a few ulps; beta an edge share, a random one, or
    the share at which the test switches, moved a few ulps."""
    rate = draw(st.floats(0.05, 12.0))
    snr_db = draw(st.floats(-5.0, 40.0))
    sigma2 = draw(st.sampled_from([1.0, 0.3, 2.5]))
    cfg = SystemConfig.from_snr_db(snr_db, rate, sigma2)
    t = vanishing_threshold(cfg)
    edges = [0.0, 5e-324, ONE_MINUS_ULP, 1.0, t, math.nextafter(t, 2.0),
             1.0 - t, math.nextafter(1.0 - t, -1.0), 0.5]
    # above t, g_max is where n crosses 0, so n(g_max) is rounding noise
    alpha = draw(st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0),
                           st.floats(t, 1.0)))
    kind = draw(st.sampled_from(["g_max", "tail", "subnormal", "margin"]))
    k = draw(st.integers(-4, 4))
    upper = (cfg.sigma2 * TAIL_SPAN if kind == "tail"
             else draw(st.sampled_from(SUBNORMALS)) if kind == "subnormal"
             else g_max(alpha, cfg))
    if kind == "margin":
        # n(g) = M where k1 (1 + g c P) = (1 + M)(1 + g P), c = 1 - alpha
        k1, p = 2.0 ** rate, cfg.power_P
        den = p * ((1.0 + _ONLY_M1_MARGIN) - k1 * (1.0 - alpha))
        g = (k1 - 1.0 - _ONLY_M1_MARGIN) / den if den > 0.0 else -1.0
        if 0.0 < g < math.inf:
            upper = _ulps(g, k, hi=math.inf)
    n = _n_upper(alpha, upper, cfg)
    switch = (n - _ONLY_M1_MARGIN) / (n + 1.0) if n > _ONLY_M1_MARGIN else 0.0
    beta = draw(st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0),
                          st.just(_ulps(switch, k))))
    if kind == "margin":
        beta = draw(st.sampled_from([0.0, beta]))
    return alpha, beta, upper, cfg


def _assert_zero_unskipped(integrand, alpha, beta, upper, cfg, bps):
    """The unskipped quadrature of the integrand over [0, upper] gives +0.0,
    and the integrand is +0.0 on every node of the first round."""
    with np.errstate(all="ignore"):
        value = integrate_finite(lambda g: integrand(g, alpha, beta, cfg),
                                 0.0, upper, bps)
        assert float.hex(value) == "0x0.0p+0"
        edges = np.array([0.0, *sorted({p for p in bps if 0.0 < p < upper}),
                          upper])
        x, _ = _nodes(edges[:-1], edges[1:])
        y = integrand(x, alpha, beta, cfg)
    assert not np.signbit(y).any() and not y.any()


def _assert_zero_if_claimed(alpha, beta, upper, cfg):
    """Where _only_m1_vanishes holds, the unskipped quadrature gives +0.0 and _f4
    is +0.0 on every node of the first round; the array form of the test
    agrees with the float form."""
    claim = _only_m1_vanishes(alpha, beta, upper, cfg)
    assert type(claim) is bool   # plain float arithmetic on the scalar path
    as_arrays = _only_m1_vanishes(np.array([alpha]), np.array([beta]),
                             np.array([upper]), cfg)
    assert as_arrays.tolist() == [claim]
    if not claim:
        return False
    _assert_zero_unskipped(_f4, alpha, beta, upper, cfg,
                           _kinks(_ONLY_M1.terms, alpha, beta, cfg))
    return True


# 3 dB, R = 1.8, alpha = 0.9, beta = 0 at g_max: n(upper) is rounding noise
# around 0, so a test without the margin skips an integral of 1.757e-17
ADVERSARIAL = (0.9, 0.0, g_max(0.9, SystemConfig.from_snr_db(3.0, 1.8)),
               SystemConfig.from_snr_db(3.0, 1.8))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(case=vanishing_cases())
@example(case=ADVERSARIAL)
@example(case=(0.6, 0.6, TAIL_SPAN, SystemConfig.from_snr_db(3.0, 1.0)))
@example(case=(0.4, 0.4, TAIL_SPAN, SystemConfig.from_snr_db(3.0, 1.0)))
@example(case=(0.0, 0.0, 5e-324, SystemConfig.from_snr_db(3.0, 1.0)))
@example(case=(ONE_MINUS_ULP, 5e-324, 1.0, SystemConfig.from_snr_db(40.0, 12.0)))
def test_a_vanishing_integral_is_zero_unskipped(case):
    _assert_zero_if_claimed(*case)


def test_the_margin_keeps_a_nonzero_integral():
    """The case that breaks a margin-free test: h4's own n at g_max is
    1.8e-16 > 0 (beta = 0 needs only n > 0), but the nodes near g_max see
    n <= 0 and the integral is 1.757e-17."""
    alpha, beta, upper, cfg = ADVERSARIAL
    k1, p = 2.0 ** cfg.rate_R, cfg.power_P
    u, v = upper * (1.0 - alpha) * p + 1.0, upper * p + 1.0
    assert 0.0 < (k1 * u - v) / v < 1e-15
    value = integrate_finite(lambda g: _f4(g, alpha, beta, cfg), 0.0, upper,
                             _kinks(_ONLY_M1.terms, alpha, beta, cfg))
    assert value == pytest.approx(1.757e-17, rel=1e-3)
    assert not _only_m1_vanishes(alpha, beta, upper, cfg)


@pytest.mark.parametrize("snr_db, rate, alpha, beta, upper", [
    (3.0, 1.0, 0.2, 0.2, "tail"),      # tp4 at a small share
    (3.0, 1.0, 0.1, 0.3, "g_max"),     # p4 at small shares
    (3.0, 1.0, 0.0, 0.4, "g_max"),     # m1 silent at slot 1
    (25.0, 4.3, 0.7, 0.7, "tail"),
    (-4.0, 0.3, 0.5, 0.0, "g_max"),    # m1 silent at slot 2
])
def test_the_claim_is_made_and_holds(snr_db, rate, alpha, beta, upper):
    """Cases the quadrature does skip, each checked unskipped."""
    cfg = SystemConfig.from_snr_db(snr_db, rate)
    upper = cfg.sigma2 * TAIL_SPAN if upper == "tail" else g_max(alpha, cfg)
    assert _assert_zero_if_claimed(alpha, beta, upper, cfg)


@st.composite
def k3_cases(draw):
    """(alpha, beta, upper, cfg) with shares on or one step beside the
    edges 0 and 1, and upper g_max(alpha), the sc tail limit or a
    subnormal."""
    rate = draw(st.floats(0.05, 24.0))
    snr_db = draw(st.floats(-5.0, 40.0))
    sigma2 = draw(st.sampled_from([1.0, 0.3, 2.5]))
    cfg = SystemConfig.from_snr_db(snr_db, rate, sigma2)
    shares = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, ONE_MINUS_ULP]),
                       st.floats(0.0, 1.0))
    alpha = draw(shares)
    beta = draw(st.one_of(st.just(alpha), shares))
    upper = draw(st.sampled_from([g_max(alpha, cfg), sigma2 * TAIL_SPAN,
                                  *SUBNORMALS]))
    return alpha, beta, upper, cfg


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=k3_cases())
@example(case=(1.0, 1.0, g_max(1.0, SystemConfig.from_snr_db(3.0, 1.0)),
               SystemConfig.from_snr_db(3.0, 1.0)))
@example(case=(0.0, 0.0, TAIL_SPAN, SystemConfig.from_snr_db(40.0, 24.0)))
def test_a_vanishing_k3_integral_is_zero_unskipped(case):
    """_joint_vanishes holds exactly where one layer has share 0 in both
    slots; there the unskipped quadrature gives +0.0 and _f3 is +0.0 on
    every node of the first round; the array form agrees."""
    alpha, beta, upper, cfg = case
    claim = _joint_vanishes(alpha, beta, upper, cfg)
    assert type(claim) is bool
    assert claim == (alpha == beta and alpha in (0.0, 1.0))
    assert _joint_vanishes(np.array([alpha]), np.array([beta]),
                           np.array([upper]), cfg).tolist() == [claim]
    if claim:
        _assert_zero_unskipped(_f3, alpha, beta, upper, cfg,
                               _kinks(_JOINT.terms, alpha, beta, cfg))


# ---------------------------------------------------------------------------
# Bit identity: the program with and without the skip, in one process
# ---------------------------------------------------------------------------

def _never(alpha, *_):
    return np.zeros(np.shape(alpha), dtype=bool)


def _cold():
    for cached in (closed_form._slot2, closed_form._p1_value):
        cached.cache_clear()


KERNELS = ("_JOINT", "_ONLY_M1")


def _with_and_without_skip(monkeypatch, compute):
    """compute() with the skips and without them, each from cold caches,
    and how many integrals each kernel's vanishing rule claimed zero."""
    claims = {name: 0 for name in KERNELS}

    def spy(name):
        test = getattr(closed_form, name).vanishes

        def claim(*args):
            out = test(*args)
            claims[name] += int(np.sum(out))
            return out
        return claim

    def with_rules(m, rule):
        for name in KERNELS:
            kernel = getattr(closed_form, name)
            m.setattr(closed_form, name, kernel._replace(vanishes=rule(name)))

    _cold()
    with monkeypatch.context() as m:
        with_rules(m, spy)
        got = compute()
    _cold()
    with monkeypatch.context() as m:
        with_rules(m, lambda _: _never)
        want = compute()
    _cold()
    return got, want, claims


def _hex(x):
    return float.hex(float(x))


def _sc_reprs(alphas, cfg):
    """The reprs of the lockstep sc records, one per split."""
    cols = _sc_columns(alphas, cfg, None)
    return [repr(ScProbs(tp3=t3, tp4=t4, tp4p=t4p)) for t3, t4, t4p in
            zip(cols.tp3.tolist(), cols.tp4.tolist(), cols.tp4p.tolist())]


@pytest.mark.parametrize("protocol", ["mlh", "sc"])
def test_optima_do_not_move(monkeypatch, protocol):
    configs = [SystemConfig.from_snr_db(s, r)
               for s in (-4.0, 3.0, 10.0, 25.0) for r in (0.3, 1.3, 2.8, 4.3)]
    got, want, skipped = _with_and_without_skip(
        monkeypatch,
        lambda: [repr(optimize_split(protocol, cfg)) for cfg in configs])
    assert got == want
    assert min(skipped.values()) > 0


def _scatter_configs(n, seed):
    """Scatter-style configs: R in [0.25, 6], SNR in [-5, 40] dB and random
    splits, every tenth on an edge split."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        cfg = SystemConfig.from_snr_db(rng.uniform(-5.0, 40.0),
                                       rng.uniform(0.25, 6.0))
        t = vanishing_threshold(cfg)
        edge = [(t, rng.random()), (math.nextafter(t, 2.0), rng.random()),
                (rng.choice((0.0, 1.0)), rng.random()),
                (rng.random(), rng.choice((0.0, 1.0))), (1.0, 1.0)]
        split = (edge[i // 10 % 5] if i % 10 == 9
                 else (rng.random(), rng.random()))
        out.append((cfg, PowerSplit(*split)))
    return out


def test_single_calls_do_not_move(monkeypatch):
    configs = _scatter_configs(1000, seed=12)

    def compute():
        out = []
        for cfg, split in configs:
            out += [repr(event_probs(split, cfg)), repr(prob_sc(split.alpha, cfg)),
                    _hex(throughput_ts(cfg)), _hex(throughput_mlh(split, cfg)),
                    _hex(throughput_sc(split.alpha, cfg))]
        return out

    got, want, skipped = _with_and_without_skip(monkeypatch, compute)
    assert got == want
    assert min(skipped.values()) > 0


@pytest.mark.parametrize("snr_db, rate", [(3.0, 1.0), (-4.0, 0.3), (25.0, 4.3)])
def test_grids_do_not_move(monkeypatch, snr_db, rate):
    cfg = SystemConfig.from_snr_db(snr_db, rate)
    pts = [i / 20 for i in range(21)]
    alphas, betas = np.repeat(pts, 21), np.tile(pts, 21)

    def compute():
        _, p3, p4 = _mlh_columns([], [], alphas, betas, alphas, betas, cfg)
        return ([_hex(v) for v in p4], [_hex(v) for v in p3],
                _sc_reprs(pts, cfg))

    got, want, skipped = _with_and_without_skip(monkeypatch, compute)
    assert got == want
    assert min(skipped.values()) > 0


@pytest.mark.parametrize("rate", [0.8, 2.0])
def test_failures_do_not_move(monkeypatch, rate):
    """The failing owner and message of the grid forms at a tolerance that
    no nonzero integral meets, as in
    test_grid_forms_name_the_first_failure_of_the_scalar_loop."""
    cfg = SystemConfig.from_snr_db(3.0, rate)
    quad = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-300)
    points = [(0.0, 0.0), (0.5, 0.5), (0.3, 0.7), (0.9, 0.1)]
    alphas = [a for a, _ in points]
    betas = [b for _, b in points]

    def compute():
        out = []
        for call in (lambda: _mlh_columns([], [], [], [], alphas, betas, cfg, quad),
                     lambda: _mlh_columns([], [], alphas, betas, [], [], cfg, quad),
                     lambda: _sc_columns(alphas, cfg, quad)):
            with pytest.raises(NonConvergence) as info:
                call()
            out.append((str(info.value), info.value.owner))
        return out

    got, want, _ = _with_and_without_skip(monkeypatch, compute)
    assert got == want
