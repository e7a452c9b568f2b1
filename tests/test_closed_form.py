"""Tests for the closed-form probabilities and throughputs.

Golden values marked "MC pin" were frozen from the Monte-Carlo oracle at
10^7 trials (R=1, P=2, sigma2=1); each assertion allows 4 binomial
standard errors of that run.
"""

import functools
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlharq import closed_form
from mlharq.closed_form import (
    EventProbs,
    ScProbs,
    _f3,
    _f4,
    _mlh_columns,
    _over_power,
    _p1_bounds,
    _p1_window,
    event_probs,
    g_max,
    g_min,
    h3,
    h4,
    mlh_throughput_from_probs,
    prob_p0,
    prob_p1,
    prob_p1_prime,
    prob_p2,
    prob_p2_prime,
    prob_p3,
    prob_p4,
    prob_p4_prime,
    prob_sc,
    throughput_mlh,
    throughput_sc,
    throughput_ts,
    vanishing_threshold,
)
from mlharq.model import PowerSplit, SystemConfig
from mlharq.optimize import optimize_split
from mlharq.quadrature import TAIL_SPAN, _nodes

CFG = SystemConfig(rate_R=1.0, power_P=2.0)

# (callable, MC mean, MC standard error) at R=1, P=2, sigma2=1
MC_PINS = [
    (lambda: prob_p1(0.9, CFG), 0.4041053, 1.552e-04),
    (lambda: prob_p2(0.9, CFG), 0.1245641, 1.044e-04),
    (lambda: prob_p3(0.5, 0.5, CFG), 0.4687485, 1.578e-04),
    (lambda: prob_p4(0.5, 0.5, CFG), 0.0, 1.0e-07),
    (lambda: prob_p4_prime(0.5, 0.5, CFG), 0.0, 1.0e-07),
    (lambda: prob_p4(0.3, 0.7, CFG), 0.0115775, 3.383e-05),
    (lambda: prob_p4_prime(0.3, 0.7, CFG), 0.0066171, 2.564e-05),
    (lambda: prob_p1(1.0, CFG), 0.3677546, 1.525e-04),
    (lambda: prob_p2(1.0, CFG), 0.2384905, 1.348e-04),
    (lambda: prob_p4(1.0, 1.0, CFG), 0.3212948, 1.477e-04),
    (lambda: throughput_ts(CFG), 0.6476473, 8.819e-05),
    (lambda: prob_sc(0.5, CFG).tp3, 0.6918405, 1.460e-04),
    (lambda: prob_sc(0.5, CFG).tp4, 0.0, 1.0e-07),
    (lambda: prob_sc(0.8, CFG).tp3, 0.3570173, 1.515e-04),
    (lambda: prob_sc(0.8, CFG).tp4, 0.5069410, 1.581e-04),
    (lambda: prob_sc(0.8, CFG).tp4p, 0.0, 1.0e-07),
]


@pytest.mark.parametrize("idx", range(len(MC_PINS)))
def test_against_frozen_oracle(idx):
    fn, mean, se = MC_PINS[idx]
    assert abs(fn() - mean) <= 4.0 * se


class TestThresholds:
    def test_g_min_interior(self):
        assert g_min(0.5, CFG) == pytest.approx(1.5)  # max(1, 1, 1.5)

    def test_g_min_degenerate_shares(self):
        assert g_min(0.0, CFG) == math.inf
        assert g_min(1.0, CFG) == math.inf

    def test_g_max_values(self):
        assert g_max(1.0, CFG) == pytest.approx(0.5)  # min(0.5, inf, 1.5)
        assert g_max(0.5, CFG) == pytest.approx(1.5)  # min(inf, inf, 1.5)

    def test_g_max_bounded_by_sum_rate(self):
        bound = (2 ** (2 * CFG.rate_R) - 1) / CFG.power_P
        for alpha in np.linspace(0.0, 1.0, 21):
            assert g_max(float(alpha), CFG) <= bound + 1e-12

    def test_h3_values(self):
        assert h3(0.0, 0.5, 0.5, CFG) == pytest.approx(1.5)  # max(1, 1, 1.5)
        assert h3(1e9, 0.5, 0.5, CFG) == 0.0
        assert h3(0.0, 0.5, 1.0, CFG) == math.inf

    def test_h4_values(self):
        cfg2 = SystemConfig(rate_R=2.0, power_P=2.0)
        # residual N=3 at g=0 exceeds the beta/(1-beta) = 0.25 cap
        assert h4(0.0, 0.5, 0.2, cfg2)[0] == math.inf
        # slot-1 SINR already clears the rate: nothing needed from slot 2
        assert h4(100.0, 0.9, 0.5, CFG)[0] == 0.0
        assert h4(0.0, 0.5, 1.0, CFG)[1] == math.inf

    @pytest.mark.parametrize("beta", [1.0, math.nextafter(1.0, 0.0), 0.5, 0.0])
    def test_h4_of_an_overflowing_residual_is_inf(self, beta):
        """Near the largest accepted rate, 2^R (1 + g(1-alpha)P) overflows,
        and so does the residual n: the needed slot-2 gain is +inf, with
        no cap at beta = 1 and with the cap binding below it.  h4 silences
        the overflow and the 0 * inf at beta = 1 itself, so the calls warn
        nowhere, and a float beta gives the bits of a (P, 1) column of it."""
        cfg = SystemConfig.from_snr_db(3.0, 511.99999999999994)
        g = np.array([[0.0, 1.0, 1e150, 1e200, 1e300]] * 2)
        scalar = h4(g, 0.5, beta, cfg)
        column = h4(g, 0.5, np.full((len(g), 1), beta), cfg)
        assert scalar[0][:, 3:].tolist() == [[math.inf, math.inf]] * 2
        for got, want in zip(scalar, column):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("probe", [
        lambda: prob_p4(0.1, 1.0, SystemConfig.from_snr_db(3.0, 400.0)) == 0.0,
        lambda: prob_p3(1.0, 2.2250738585e-313,
                        SystemConfig(1.0, 0.3, 0.3)) == 0.0,
        lambda: prob_p1(0.9, SystemConfig(1.0, 1e-160, 1e-160)) == 0.0,
        lambda: _sc_optimum(SystemConfig.from_snr_db(3.0, 8.0, 1e153))
        == (0.999, 7.999999999999918),
    ], ids=["p4-overflowing-residual", "p3-subnormal-beta",
            "p1-subnormal-sigma2-power", "sc-search-overflowing-residual"])
    def test_h4_overflow_is_quiet_on_the_library_path(self, probe):
        """With no errstate around the call, each extended-real event stays
        quiet (a RuntimeWarning fails the test) and gives the value it
        means: h4's 2^R u overflowing to +inf, at 3 dB, R = 400 through
        prob_p4's scalar integrand and at sigma2 = 1e153, R = 8 through the
        sc search's lockstep one; h3's n / w at a subnormal slot-2 power
        beta P; and p1's residual over a subnormal sigma2 P."""
        assert probe()


def _sc_optimum(cfg):
    """The coarse sc search's (alpha_star, throughput_star) at cfg."""
    opt = optimize_split("sc", cfg, grid_step=0.1, refine_tol=0.01)
    return opt.alpha_star, opt.throughput_star


class TestZeroPowerFastPath:
    """_over_power's float branch for a zero-power layer (w == +-0.0) gives
    the array branch's bits, and so do the thresholds and integrands at
    float shares 0 and 1 against (P, 1)-column shares."""

    N = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -2.5, 1e308,
         math.inf, -math.inf, math.nan]

    @pytest.mark.parametrize("w", [0.0, -0.0])
    @pytest.mark.parametrize("shape", [(12,), (3, 4), ()])
    def test_over_power_keeps_the_array_branch_bits(self, w, shape):
        values = np.array(self.N)
        cases = [values.reshape(shape)] if shape else [np.array(v) for v in self.N]
        for n in cases:
            got = _over_power(n.copy(), w)
            assert got.shape == n.shape
            # a (1,) w cannot broadcast into a 0-d n in place
            for as_array in (np.array(w), np.array([w]))[:1 + (n.ndim > 0)]:
                want = _over_power(n.copy(), as_array)
                assert got.tobytes() == want.tobytes(), (n, as_array)
            assert got.tobytes() == np.where(n > 0.0, math.inf, 0.0).tobytes()

    @pytest.mark.parametrize("snr_db, rate", [
        (3.0, 1.0), (-5.0, 0.05), (40.0, 12.0), (3.0, 511.99999999999994)])
    def test_float_edge_shares_keep_the_column_bits(self, snr_db, rate):
        cfg = SystemConfig.from_snr_db(snr_db, rate)
        edges = np.linspace(0.0, cfg.sigma2 * TAIL_SPAN, 9)
        g, _ = _nodes(edges[:-1], edges[1:])
        column = np.ones((g.shape[0], 1))
        for alpha in (0.0, 1.0):
            for beta in (0.0, 1.0):
                for fn in (h3, h4, _f3, _f4):
                    got = fn(g, alpha, beta, cfg)
                    want = fn(g, alpha * column, beta * column, cfg)
                    if fn is h4:
                        got, want = np.stack(got), np.stack(want)
                    assert got.tobytes() == want.tobytes(), (fn, alpha, beta)


class TestVanishing:
    def test_threshold_value(self):
        assert vanishing_threshold(CFG) == pytest.approx(2.0 / 3.0)

    def test_p1_p2_zero_at_and_below(self):
        for alpha in (0.1, 0.5, 2.0 / 3.0):
            assert prob_p1(alpha, CFG) == 0.0
            assert prob_p2(alpha, CFG) == 0.0

    def test_mirrored_threshold(self):
        assert prob_p1_prime(0.4, CFG) == 0.0
        assert prob_p2_prime(0.4, CFG) == 0.0

    def test_empty_window_just_above_threshold(self):
        # the p1 window bounds cross by rounding here; the window is empty
        cfg = SystemConfig.from_snr_db(7.692280364297938, 3.936831108168777)
        split = PowerSplit(0.9387050224783754, 0.44750058773658685)
        probs = event_probs(split, cfg)
        assert probs.p1 == 0.0
        assert probs.p2 == 0.0
        assert throughput_mlh(split, cfg) > 0.0

    def test_positive_above(self):
        assert prob_p1(0.7, CFG) > 0.0
        assert prob_p2(0.7, CFG) > 0.0

    def test_share_past_a_threshold_rounded_low_has_an_empty_window(self):
        """Past R = 53, t + 1 is inexact and vanishing_threshold rounds one
        ulp low: alpha = 1 - 2^-53 passes it while the coefficient
        1 + 2^R (alpha - 1) of p1's lower window end is negative.  The
        window is empty, so p1 = p2 = 0.0 on both paths (the simulation
        finds 0 too), and the primes are 0.0 at 2^-53."""
        cfg = SystemConfig.from_snr_db(3.0, 53.1)
        alpha, mirror = 1.0 - 2.0 ** -53, 2.0 ** -53
        assert alpha > vanishing_threshold(cfg)
        assert 1.0 + 2.0 ** cfg.rate_R * (alpha - 1.0) < 0.0
        assert _p1_window(alpha, cfg) is None
        assert prob_p1(alpha, cfg) == prob_p2(alpha, cfg) == 0.0
        assert prob_p1_prime(mirror, cfg) == prob_p2_prime(mirror, cfg) == 0.0
        for split in (PowerSplit(alpha, 0.5), PowerSplit(mirror, 0.5)):
            assert set(event_probs(split, cfg).as_dict().values()) == {0.0}
        rows, _, _ = _mlh_columns([alpha, mirror], [mirror, alpha],
                                  [], [], [], [], cfg)
        for column in (rows.p1, rows.p2, rows.p1p, rows.p2p):
            assert column.tolist() == [0.0, 0.0]


def _ulps(x, k):
    """x moved k ulps (down for k < 0), kept in [0, 1]."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return min(max(x, 0.0), 1.0)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rate=st.floats(1.7e-16, 511.99), snr_db=st.floats(0.0, 40.0),
       near=st.sampled_from(["threshold", "one"]), k=st.integers(-11, 3))
@example(rate=53.1, snr_db=3.0, near="one", k=-1)
def test_p1_window_is_empty_or_ordered(rate, snr_db, near, k):
    """Within a few ulps of the vanishing threshold or of 1, p1's window is
    None or has 0 <= lo < hi (a low-rounded threshold once let through a
    negative lo, and math.exp(-lo/s2) overflowed).  SNRs from 0 dB keep
    (2^(2R) - 1)/P finite at every rate, as SystemConfig requires."""
    cfg = SystemConfig.from_snr_db(snr_db, rate)
    alpha = _ulps(vanishing_threshold(cfg) if near == "threshold" else 1.0, k)
    window = _p1_window(alpha, cfg)
    assert window is None or 0.0 <= window[0] < window[1]


class TestAnalyticValues:
    def test_p0_interior(self):
        assert prob_p0(0.5, CFG) == pytest.approx(math.exp(-1.5), abs=1e-14)

    def test_p0_degenerate(self):
        assert prob_p0(1.0, CFG) == 0.0
        assert prob_p0(0.0, CFG) == 0.0

    def test_p1_at_full_share(self):
        # reduces to Pr(g1 >= 0.5) * Pr(g2 >= 0.5)
        assert prob_p1(1.0, CFG) == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_tail_cut_at_full_share_matches_exact(self):
        """At alpha = 1 the p1 window is unbounded and the integral is cut
        at the tail truncation point; the exact values are
        p1 = exp(-2(2^R-1)/(P sigma2)) and p2 = exp(-(2^R-1)/(P sigma2)) - p1."""
        for rate in (0.05, 0.3, 1.0, 2.5, 6.0, 12.0):
            for snr_db in (-5.0, 0.0, 3.0, 10.0, 20.0, 40.0):
                for sigma2 in (0.3, 1.0, 4.0):
                    cfg = SystemConfig.from_snr_db(snr_db, rate, sigma2)
                    x = (2.0 ** rate - 1.0) / (cfg.power_P * sigma2)
                    p1 = math.exp(-2.0 * x)
                    p2 = math.exp(-x) - p1
                    case = (rate, snr_db, sigma2)
                    assert abs(prob_p1(1.0, cfg) - p1) <= 1e-10, case
                    assert abs(prob_p2(1.0, cfg) - p2) <= 1e-10, case

    @staticmethod
    def _tail_cut_reference(alpha, cfg):
        """p1 and p2 at a share with (1 - alpha)P = 0, at 30 digits: the
        tail-cut expression C (exp(-lo/s2) - exp(-hi/s2)) and
        exp(-lo/s2) - p1, at the closed form's own float lo and
        hi = lo + s2 TAIL_SPAN, with C = exp(-(2^R - 1)/(s2 P)) from the float
        rate; also the exponent x of C exp(-lo/s2)."""
        with mpmath.workdps(30):
            lo, _ = _p1_bounds(alpha, cfg)
            hi = lo + cfg.sigma2 * TAIL_SPAN
            s2 = mpmath.mpf(cfg.sigma2)
            c = (mpmath.mpf(2) ** cfg.rate_R - 1) / (s2 * cfg.power_P)
            near = mpmath.exp(-mpmath.mpf(lo) / s2)
            p1 = mpmath.exp(-c) * (near - mpmath.exp(-mpmath.mpf(hi) / s2))
            return p1, near - p1, float(c + mpmath.mpf(lo) / s2)

    @staticmethod
    def _assert_near(got1, got2, want1, want2, x, case):
        """p1 within 8 ulps per unit of its exponent (exp(-x) turns a
        rounding of x into a relative error of x ulps), p2 within 1e-15."""
        assert abs(got1 - want1) <= 8.0 * (1.0 + x) * math.ulp(float(want1)), case
        assert abs(got2 - want2) <= 1e-15, case

    def test_zero_power_p1_matches_the_tail_cut_at_30_digits(self):
        for rate in (0.05, 0.3, 1.0, 2.5, 6.0, 12.0, 24.0):
            for snr_db in (-5.0, 0.0, 3.0, 10.0, 20.0, 40.0):
                for sigma2 in (0.3, 1.0, 4.0):
                    cfg = SystemConfig.from_snr_db(snr_db, rate, sigma2)
                    self._assert_near(prob_p1(1.0, cfg), prob_p2(1.0, cfg),
                                      *self._tail_cut_reference(1.0, cfg),
                                      (rate, snr_db, sigma2))

    def test_slot2_kernels_at_an_underflowing_slot1_power(self):
        """(1 - alpha)P underflows to 0.0 below alpha = 1: no kink root
        divides by it (the scalar list once raised ZeroDivisionError where
        the array form gave an out-of-range +inf), and the scalar p3 and p4
        equal the lockstep ones."""
        alpha = math.nextafter(1.0, 0.0)
        cfg = SystemConfig(rate_R=0.05, power_P=2e-308, sigma2=4e306)
        assert (1.0 - alpha) * cfg.power_P == 0.0
        for beta in (0.0, 0.5, 1.0):
            _, p3, p4 = _mlh_columns([], [], [alpha], [beta], [alpha], [beta], cfg)
            assert (prob_p3(alpha, beta, cfg), prob_p4(alpha, beta, cfg)) == \
                (p3[0], p4[0])

    def test_underflowing_share_takes_the_closed_form(self):
        """alpha < 1 whose (1 - alpha)P underflows to 0.0 (P subnormal):
        m2 has no slot-1 power, as at alpha = 1, and p1 is the tail-cut
        expression at this share's own window."""
        alpha = math.nextafter(1.0, 0.0)
        cfg = SystemConfig(rate_R=0.05, power_P=2e-308, sigma2=4e306)
        assert (1.0 - alpha) * cfg.power_P == 0.0
        assert alpha > vanishing_threshold(cfg)
        got1, got2 = prob_p1(alpha, cfg), prob_p2(alpha, cfg)
        want1, want2, x = self._tail_cut_reference(alpha, cfg)
        assert 0.1 < got1 < 1.0
        self._assert_near(got1, got2, want1, want2, x, alpha)

    def test_p1_prime_mirror(self):
        assert prob_p1_prime(0.0, CFG) == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert prob_p1_prime(0.5, CFG) == prob_p1(0.5, CFG)

    def test_p2_at_full_share(self):
        want = math.exp(-0.5) - math.exp(-1.0)
        assert prob_p2(1.0, CFG) == pytest.approx(want, abs=1e-9)
        assert prob_p2_prime(0.0, CFG) == pytest.approx(want, abs=1e-9)

    def test_p1_plus_p2_window_identity(self):
        """Above the vanishing threshold the sum telescopes to the window
        probability of the slot-1 only-m1 gains."""
        r, p, s2 = CFG.rate_R, CFG.power_P, CFG.sigma2
        k = 2.0 ** r
        for alpha in [i / 20 for i in range(14, 21)]:
            want = (math.exp(-(k - 1) / ((1 + k * (alpha - 1)) * s2 * p))
                    - (0.0 if alpha == 1.0
                       else math.exp(-(k - 1) / ((1 - alpha) * s2 * p))))
            got = prob_p1(alpha, CFG) + prob_p2(alpha, CFG)
            assert got == pytest.approx(want, abs=1e-8), alpha

    def test_p3_degenerate(self):
        assert prob_p3(1.0, 1.0, CFG) == 0.0

    def test_p4_zero_slot2_share(self):
        # beta=0 gives m1 no slot-2 power and slot-1-only success was
        # already excluded by the both-fail conditioning
        for alpha in (0.2, 0.5, 0.8):
            assert prob_p4(alpha, 0.0, CFG) == 0.0

    def test_degeneracy_list(self):
        assert prob_p0(1.0, CFG) == 0.0
        assert prob_p1_prime(1.0, CFG) == 0.0
        assert prob_p2_prime(1.0, CFG) == 0.0
        assert prob_p3(1.0, 1.0, CFG) == 0.0
        assert prob_p4_prime(1.0, 1.0, CFG) == 0.0

    def test_sc_degenerate_share(self):
        assert prob_sc(1.0, CFG).tp3 == 0.0


class TestSymmetries:
    def test_p0_mirror(self):
        for alpha in np.linspace(0.0, 1.0, 11):
            a = float(alpha)
            assert abs(prob_p0(a, CFG) - prob_p0(1.0 - a, CFG)) <= 1e-9

    def test_p3_joint_mirror(self):
        for a in (0.1, 0.3, 0.5, 0.8):
            for b in (0.2, 0.5, 0.9):
                assert abs(prob_p3(a, b, CFG)
                           - prob_p3(1.0 - a, 1.0 - b, CFG)) <= 1e-9

    def test_sc_throughput_mirror(self):
        for a in np.linspace(0.0, 1.0, 11):
            a = float(a)
            assert abs(throughput_sc(a, CFG)
                       - throughput_sc(1.0 - a, CFG)) <= 1e-9

    def test_sc_tp3_mirror(self):
        for a in (0.2, 0.35, 0.7):
            assert abs(prob_sc(a, CFG).tp3 - prob_sc(1.0 - a, CFG).tp3) <= 1e-9


class TestRanges:
    def test_probabilities_clamp_free(self):
        """Raw values stay inside [0, 1 + 1e-12] without any clamping."""
        for snr_db in (-5.0, 0.0, 3.0, 10.0, 20.0, 40.0):
            for r in (0.25, 1.0, 2.0):
                cfg = SystemConfig.from_snr_db(snr_db, r)
                for a in (0.0, 0.3, 0.7, 0.9, 1.0):
                    for b in (0.0, 0.5, 1.0):
                        probs = event_probs(PowerSplit(a, b), cfg)
                        for name, value in probs.as_dict().items():
                            assert 0.0 <= value <= 1.0 + 1e-12, \
                                (snr_db, r, a, b, name, value)
                    sc = prob_sc(a, cfg)
                    for name, value in sc.as_dict().items():
                        assert 0.0 <= value <= 1.0 + 1e-12, \
                            (snr_db, r, a, name, value)

    def test_event_probs_validation(self):
        with pytest.raises(ValueError):
            EventProbs(p0=1.2, p1=0, p1p=0, p2=0, p2p=0, p3=0, p4=0, p4p=0)
        with pytest.raises(ValueError):
            ScProbs(tp3=0.5, tp4=0.4, tp4p=0.2)  # sums past 1

    @pytest.mark.parametrize("column, bad", [
        ("tp4", {2: 1.5, 3: math.nan}),    # a field out of range first
        ("tp3", {1: 0.99, 2: -1.0}),       # a sum past 1 first
        ("tp4p", {3: math.nan}),
        ("tp3", {}),
    ])
    def test_checked_columns_raise_what_the_first_failing_record_raises(
            self, column, bad):
        cols = {"tp3": np.array([0.5, 0.3, 0.2, 0.1, 0.0]),
                "tp4": np.array([0.1, 0.2, 0.3, 0.4, 0.5]),
                "tp4p": np.array([0.1, 0.1, 0.1, 0.1, 0.1])}
        for k, value in bad.items():
            cols[column][k] = value
        want = None
        for k in range(5):
            try:
                ScProbs(**{name: float(c[k]) for name, c in cols.items()})
            except ValueError as exc:
                want = str(exc)
                break
        if want is None:
            record = ScProbs.checked_columns(**cols)
            assert all(getattr(record, name) is c for name, c in cols.items())
        else:
            with pytest.raises(ValueError) as got:
                ScProbs.checked_columns(**cols)
            assert str(got.value) == want

    def test_success_probabilities_monotone_in_power(self):
        for a, b in ((0.3, 0.6), (0.5, 0.5), (0.8, 0.2)):
            last_p0, last_tp3 = -1.0, -1.0
            for p in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
                cfg = SystemConfig(rate_R=1.0, power_P=p)
                p0 = prob_p0(a, cfg)
                tp3 = prob_sc(a, cfg).tp3
                assert p0 >= last_p0 - 1e-12
                assert tp3 >= last_tp3 - 1e-12
                last_p0, last_tp3 = p0, tp3


class TestThroughputs:
    def test_ts_equals_mlh_at_full_shares(self):
        for snr_db in (-5.0, 3.0, 20.0):
            for r in (0.5, 1.0, 4.0):
                cfg = SystemConfig.from_snr_db(snr_db, r)
                eta_ts = throughput_ts(cfg)
                eta_mlh = throughput_mlh(PowerSplit(1.0, 1.0), cfg)
                assert abs(eta_ts - eta_mlh) <= 1e-9

    def test_bounds(self):
        for snr_db in (-5.0, 3.0, 40.0):
            for r in (0.25, 1.0, 4.0):
                cfg = SystemConfig.from_snr_db(snr_db, r)
                assert 0.0 <= throughput_ts(cfg) <= 2.0 * r
                assert 0.0 <= throughput_mlh(PowerSplit(0.6, 0.4), cfg) <= 2.0 * r
                assert 0.0 <= throughput_sc(0.6, cfg) <= 2.0 * r

    def test_vanish_at_tiny_power(self):
        cfg = SystemConfig(rate_R=1.0, power_P=1e-9)
        assert throughput_ts(cfg) == pytest.approx(0.0, abs=1e-8)
        assert throughput_mlh(PowerSplit(0.5, 0.5), cfg) == pytest.approx(0.0, abs=1e-8)
        assert throughput_sc(0.5, cfg) == pytest.approx(0.0, abs=1e-8)

    def test_from_probs_helpers_consistent(self):
        split = PowerSplit(0.7, 0.4)
        probs = event_probs(split, CFG)
        assert mlh_throughput_from_probs(probs, CFG) == throughput_mlh(split, CFG)


class TestCacheBound:
    """The kernel caches, _p1_value's and the one of both slot-2 kernels,
    hold at most _CACHE_SIZE entries each, and that bound costs no hit:
    every hit is a reuse within one operation."""

    CACHES = ("_p1_value", "_slot2")

    def test_caches_hold_at_most_cache_size_entries(self):
        cfg = SystemConfig.from_snr_db(3.0, 1.0)   # vanishing threshold 2/3
        n = closed_form._CACHE_SIZE + 100
        for name in self.CACHES:
            getattr(closed_form, name).cache_clear()
        for i in range(n):
            alpha = 0.7 + 0.25 * i / n
            prob_p1(alpha, cfg)
            prob_p3(alpha, 0.5, cfg)
            prob_p4(alpha, 0.9, cfg)
        for name, misses in zip(self.CACHES, (n, 2 * n)):
            info = getattr(closed_form, name).cache_info()
            assert info.misses == misses, name
            assert info.currsize == closed_form._CACHE_SIZE, name

    @staticmethod
    def _scatter_ops():
        """300 scatter-eval-shaped operations: event_probs, prob_sc and the
        three throughputs at one config each.  They make more slot-2
        entries than the bound holds, so the bounded cache evicts."""
        rng = random.Random(16)
        for i in range(300):
            cfg = SystemConfig.from_snr_db(rng.uniform(-5.0, 40.0),
                                           rng.uniform(0.25, 6.0))
            edges = [(vanishing_threshold(cfg), rng.random()),
                     (rng.choice((0.0, 1.0)), rng.random()), (1.0, 1.0)]
            split = PowerSplit(*(edges[i // 10 % 3] if i % 10 == 9
                                 else (rng.random(), rng.random())))
            event_probs(split, cfg)
            prob_sc(split.alpha, cfg)
            throughput_ts(cfg)
            throughput_mlh(split, cfg)
            throughput_sc(split.alpha, cfg)

    @pytest.mark.parametrize("ops", ["_scatter_ops"])
    def test_bound_keeps_every_hit_of_an_unbounded_cache(self, monkeypatch, ops):
        def hits(maxsize):
            """Hits and misses of each cache over ops, from fresh caches."""
            for name in self.CACHES:
                wrapped = getattr(closed_form, name).__wrapped__
                monkeypatch.setattr(closed_form, name,
                                    functools.lru_cache(maxsize=maxsize)(wrapped))
            getattr(self, ops)()
            return {name: getattr(closed_form, name).cache_info()[:2]
                    for name in self.CACHES}

        bounded = hits(closed_form._CACHE_SIZE)
        assert bounded == hits(None)
        assert bounded["_p1_value"][0] > 0 and bounded["_slot2"][0] > 0
        assert bounded["_slot2"][1] > closed_form._CACHE_SIZE

    @pytest.mark.parametrize("rate", [0.3, 1.3])
    def test_mlh_search_leaves_the_caches_alone(self, rate):
        """An mlh split search integrates p1 in its lockstep calls, not
        through the scalar closed forms: it reads and fills no cache."""
        before = {name: getattr(closed_form, name).cache_info()
                  for name in self.CACHES}
        optimize_split("mlh", SystemConfig.from_snr_db(3.0, rate))
        assert {name: getattr(closed_form, name).cache_info()
                for name in self.CACHES} == before
