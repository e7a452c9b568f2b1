"""Unit tests for the scenario types and decode-event predicates."""

import math

import numpy as np
import pytest

from mlharq.closed_form import g_max
from mlharq.model import (
    _GAIN_SPAN,
    ChannelDraw,
    JointOutcome,
    PowerSplit,
    SliceEvent,
    SliceOutcome,
    SystemConfig,
    classify_slot1,
    classify_slot2_joint,
    classify_slot2_single,
    mi_single,
    mi_sinr,
    pos_part,
    safe_div_threshold,
)
from mlharq.quadrature import TAIL_SPAN

CFG = SystemConfig(rate_R=1.0, power_P=2.0)


class TestTypes:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(rate_R=0.0, power_P=1.0)
        with pytest.raises(ValueError):
            SystemConfig(rate_R=1.0, power_P=-1.0)
        with pytest.raises(ValueError):
            SystemConfig(rate_R=1.0, power_P=1.0, sigma2=0.0)

    @pytest.mark.parametrize("field", ["rate_R", "power_P", "sigma2"])
    def test_config_rejects_infinite(self, field):
        kwargs = {"rate_R": 1.0, "power_P": 1.0, field: math.inf}
        with pytest.raises(ValueError, match=field):
            SystemConfig(**kwargs)

    def test_config_rate_range(self):
        """The smallest rate with 2^R - 1 > 0 and the largest with a finite
        2^(2R) are accepted; one ulp beyond either is refused."""
        smallest, largest = 1.601713251907459e-16, 511.99999999999994
        for rate in (smallest, largest):
            assert SystemConfig(rate_R=rate, power_P=1.0).rate_R == rate
        with pytest.raises(ValueError, match="rate_R must be at least"):
            SystemConfig(rate_R=math.nextafter(smallest, 0.0), power_P=1.0)
        with pytest.raises(ValueError, match="rate_R must be below 512"):
            SystemConfig(rate_R=math.nextafter(largest, 1e3), power_P=1.0)

    def test_config_power_floor_at_the_largest_rate(self):
        """(2**(2R) - 1) / P must be finite: at the largest rate the
        smallest accepted power is 0.9999999999999213, and one ulp below it
        is refused with an error that names rate_R and power_P."""
        largest, floor = 511.99999999999994, 0.9999999999999213
        cfg = SystemConfig(rate_R=largest, power_P=floor)
        assert math.isfinite(g_max(0.5, cfg))
        with pytest.raises(ValueError, match="rate_R .* power_P .* overflow"):
            SystemConfig(rate_R=largest, power_P=math.nextafter(floor, 0.0))

    def test_config_gain_ceiling(self):
        """sigma2 * power_P is bounded so that the largest gain either path
        samples, times power_P, is finite: Monte-Carlo's largest gain
        -sigma2 * log1p(-u) at u = 1 - 2^-53 is the bound's _GAIN_SPAN * sigma2,
        above the closed forms' sigma2 * TAIL_SPAN.  At sigma2 = 1 the largest
        accepted power is accepted and one ulp above it is refused with an
        error that names sigma2 and power_P."""
        assert -math.log1p(-(1.0 - 2.0 ** -53)) == _GAIN_SPAN > TAIL_SPAN
        ceiling = math.nextafter(math.inf, 0.0) / _GAIN_SPAN
        while math.isinf(_GAIN_SPAN * ceiling):
            ceiling = math.nextafter(ceiling, 0.0)
        while math.isfinite(_GAIN_SPAN * math.nextafter(ceiling, math.inf)):
            ceiling = math.nextafter(ceiling, math.inf)
        assert SystemConfig(rate_R=1.0, power_P=ceiling).power_P == ceiling
        with pytest.raises(ValueError, match="sigma2 .* power_P .* overflow"):
            SystemConfig(rate_R=1.0, power_P=math.nextafter(ceiling, math.inf))
        # from_snr_db's power grows with sigma2: at 3 dB, 1e153 is accepted
        SystemConfig.from_snr_db(3.0, 1.0, 1e153)
        for sigma2 in (3e153, 1e154):
            with pytest.raises(ValueError, match="sigma2"):
                SystemConfig.from_snr_db(3.0, 1.0, sigma2)

    def test_snr_roundtrip(self):
        cfg = SystemConfig.from_snr_db(3.0, 1.0)
        assert cfg.snr_db == pytest.approx(3.0, abs=1e-12)
        assert cfg.power_P == pytest.approx(10 ** 0.3)

    def test_split_range(self):
        PowerSplit(alpha=0.0, beta=1.0)  # extremes are legal
        with pytest.raises(ValueError):
            PowerSplit(alpha=1.5, beta=0.5)
        with pytest.raises(ValueError):
            PowerSplit(alpha=0.5, beta=-0.1)

    def test_channel_draw_nonnegative(self):
        with pytest.raises(ValueError):
            ChannelDraw(g1=-0.1, g2=0.0)

    def test_slice_outcome_rewards(self):
        assert SliceOutcome.from_event(SliceEvent.OMEGA0).reward_messages == 2
        assert SliceOutcome.from_event(SliceEvent.OMEGA0).duration_slots == 1
        assert SliceOutcome.from_event(SliceEvent.OMEGA2).reward_messages == 1
        assert SliceOutcome.from_event(SliceEvent.OMEGA3).duration_slots == 2
        assert SliceOutcome.from_event(SliceEvent.NONE_DECODED).reward_messages == 0


class TestScalarHelpers:
    def test_pos_part(self):
        assert pos_part(-2.5) == 0.0
        assert pos_part(0.0) == 0.0
        assert pos_part(3.7) == 3.7

    def test_safe_div_threshold(self):
        assert safe_div_threshold(1.0, 0.5) == 2.0
        assert safe_div_threshold(1.0, 0.0) == math.inf
        assert safe_div_threshold(1.0, -0.3) == math.inf
        with pytest.raises(ValueError):
            safe_div_threshold(0.0, 1.0)

    def test_mi_single(self):
        assert mi_single(0.0, 5.0) == 0.0
        assert mi_single(1.5, 2.0) == pytest.approx(2.0)
        assert mi_single(3.0, 1.0) == pytest.approx(2.0)

    def test_mi_sinr(self):
        g = 0.7
        assert mi_sinr(g, 2.0, 0.0) == pytest.approx(mi_single(g, 2.0))
        assert mi_sinr(0.0, 3.0, 1.0) == 0.0
        assert mi_sinr(1.0, 2.0, 2.0) == pytest.approx(math.log2(1 + 2 / 3))


class TestClassifySlot1:
    def test_strong_gain_decodes_both(self):
        # all three gain thresholds max out at 2.5 < 10
        assert classify_slot1(10.0, 0.8, CFG) is JointOutcome.BOTH

    def test_zero_gain_decodes_nothing(self):
        assert classify_slot1(0.0, 0.3, CFG) is JointOutcome.NEITHER

    def test_full_share_gives_only_m1(self):
        # m2 has zero power; m1 sees log2(5) >= 1
        assert classify_slot1(2.0, 1.0, CFG) is JointOutcome.ONLY_M1

    def test_exhaustive_and_ladder_consistent(self):
        """The two single-message conditions never hold together outside the
        joint region, so step 3 is unreachable with step 2's condition true."""
        rng = np.random.default_rng(42)
        for _ in range(5000):
            g1 = rng.exponential(2.0)
            alpha = rng.uniform(0.0, 1.0)
            cfg = SystemConfig(rate_R=rng.uniform(0.1, 4.0),
                               power_P=rng.uniform(0.1, 50.0))
            r, p = cfg.rate_R, cfg.power_P
            out = classify_slot1(g1, alpha, cfg)
            assert out in JointOutcome
            c1 = r <= mi_sinr(g1, alpha * p, (1 - alpha) * p)
            c2 = r <= mi_sinr(g1, (1 - alpha) * p, alpha * p)
            if c1 and c2:
                assert out is JointOutcome.BOTH, (g1, alpha, cfg)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(7)
        swap = {JointOutcome.ONLY_M1: JointOutcome.ONLY_M2,
                JointOutcome.ONLY_M2: JointOutcome.ONLY_M1,
                JointOutcome.BOTH: JointOutcome.BOTH,
                JointOutcome.NEITHER: JointOutcome.NEITHER}
        for _ in range(2000):
            g1 = rng.exponential(1.5)
            alpha = rng.uniform(0.0, 1.0)
            assert classify_slot1(g1, alpha, CFG) is \
                swap[classify_slot1(g1, 1.0 - alpha, CFG)]

    def test_monotone_in_gain(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            alpha = rng.uniform(0.05, 0.95)
            g1 = rng.exponential(2.0)
            if classify_slot1(g1, alpha, CFG) is JointOutcome.BOTH:
                for bump in (1.1, 2.0, 10.0):
                    assert classify_slot1(g1 * bump, alpha, CFG) is JointOutcome.BOTH


class TestClassifySlot2:
    def test_zero_gains(self):
        draw = ChannelDraw(0.0, 0.0)
        assert classify_slot2_joint(draw, PowerSplit(0.4, 0.6), CFG) \
            is JointOutcome.NEITHER

    def test_m1_alone_with_huge_second_slot(self):
        # m2 has zero slot-2 power and no slot-1 accumulation
        draw = ChannelDraw(0.0, 1e9)
        assert classify_slot2_joint(draw, PowerSplit(0.4, 1.0), CFG) \
            is JointOutcome.ONLY_M1

    def test_both_with_strong_gains(self):
        draw = ChannelDraw(10.0, 10.0)
        assert classify_slot2_joint(draw, PowerSplit(0.5, 0.5), CFG) \
            is JointOutcome.BOTH

    def test_swap_invariance(self):
        rng = np.random.default_rng(11)
        swap = {JointOutcome.ONLY_M1: JointOutcome.ONLY_M2,
                JointOutcome.ONLY_M2: JointOutcome.ONLY_M1,
                JointOutcome.BOTH: JointOutcome.BOTH,
                JointOutcome.NEITHER: JointOutcome.NEITHER}
        for _ in range(2000):
            draw = ChannelDraw(rng.exponential(1.0), rng.exponential(1.0))
            a, b = rng.uniform(0.0, 1.0, size=2)
            out = classify_slot2_joint(draw, PowerSplit(a, b), CFG)
            mirrored = classify_slot2_joint(
                draw, PowerSplit(1.0 - a, 1.0 - b), CFG)
            assert out is swap[mirrored]

    def test_single_message_accumulation(self):
        # slot 2 alone suffices
        assert classify_slot2_single(0.0, 0.4, 10.0, CFG)
        # nothing accumulated anywhere
        assert not classify_slot2_single(0.0, 0.4, 0.0, CFG)
        # log2(1.4) + log2(2) = 1.485 >= 1
        assert classify_slot2_single(0.5, 0.8, 0.5, CFG)
