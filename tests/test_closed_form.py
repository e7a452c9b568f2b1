"""Tests for the closed-form probabilities and throughputs.

Golden values marked "MC pin" were frozen from the Monte-Carlo oracle at
10^7 trials (R=1, P=2, sigma2=1); each assertion allows 4 binomial
standard errors of that run.
"""

import math

import numpy as np
import pytest

from mlharq.closed_form import (
    EventProbs,
    ScProbs,
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
