"""Property tests of the closed forms over the whole input range.

Rates span [0.05, 12] and SNRs [-5, 40] dB; the power shares are biased
toward the edges where the closed forms switch branches: the vanishing
threshold, one ulp above it, its mirror, and the zero-power layers.  The
run is derandomized, so every run checks the same examples.

Bodies call the library with numpy's default error state: any
RuntimeWarning, an intended x/0+ = +inf included, fails the test, as the
closed forms silence their intended events themselves.
"""

import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlharq.closed_form import (
    event_probs,
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


@st.composite
def cases(draw):
    rate = draw(st.floats(0.05, 12.0))
    snr_db = draw(st.floats(-5.0, 40.0))
    t = vanishing_threshold(SystemConfig.from_snr_db(snr_db, rate))
    edges = [t, math.nextafter(t, 2.0), 1.0 - t, 0.0, 1.0]
    share = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0))
    return rate, snr_db, draw(share), draw(share)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(case=cases())
# p1 window bounds cross by rounding just above the vanishing threshold
@example(case=(1.6276197687631888, -3.500785684197352,
               0.7555028780966168, 0.73))
@example(case=(3.936831108168777, 7.692280364297938,
               0.9387050224783754, 0.44750058773658685))
# beta * P underflows to zero power although beta > 0
@example(case=(1.0, -4.0, 0.6666666666666666, 5e-324))
def test_closed_forms_defined_everywhere(case):
    rate, snr_db, alpha, beta = case
    cfg = SystemConfig.from_snr_db(snr_db, rate)
    split = PowerSplit(alpha=alpha, beta=beta)

    prob_p0(alpha, cfg)
    p1, p1p = prob_p1(alpha, cfg), prob_p1_prime(alpha, cfg)
    p2, p2p = prob_p2(alpha, cfg), prob_p2_prime(alpha, cfg)
    prob_p3(alpha, beta, cfg)
    prob_p4(alpha, beta, cfg)
    prob_p4_prime(alpha, beta, cfg)
    event_probs(split, cfg)
    prob_sc(alpha, cfg)
    throughput_ts(cfg)
    throughput_mlh(split, cfg)
    throughput_sc(alpha, cfg)

    t = vanishing_threshold(cfg)
    if alpha <= t:
        assert p1 == 0.0 and p2 == 0.0
    if 1.0 - alpha <= t:
        assert p1p == 0.0 and p2p == 0.0


def _mirror_tol(rate, throughput):
    """Two throughputs' error budget: 12 probability terms of abs 1e-10
    scaled by R, plus rel 1e-8 of the value."""
    return 2.0 * (12.0 * rate * 1e-10 + 1e-8 * throughput)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=cases(), louder=st.floats(1.0, 100.0))
def test_mirror_identities_and_p0_monotone_in_power(case, louder):
    rate, snr_db, alpha, beta = case
    cfg = SystemConfig.from_snr_db(snr_db, rate)

    mlh = throughput_mlh(PowerSplit(alpha=alpha, beta=beta), cfg)
    mlh_mirror = throughput_mlh(
        PowerSplit(alpha=1.0 - alpha, beta=1.0 - beta), cfg)
    sc = throughput_sc(alpha, cfg)
    sc_mirror = throughput_sc(1.0 - alpha, cfg)
    assert abs(mlh - mlh_mirror) <= _mirror_tol(rate, mlh)
    assert abs(sc - sc_mirror) <= _mirror_tol(rate, sc)

    stronger = replace(cfg, power_P=cfg.power_P * louder)
    assert prob_p0(alpha, stronger) >= prob_p0(alpha, cfg)
