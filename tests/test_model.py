"""Unit tests for the scenario types, the reward rules and the decode
ladder (`monte_carlo._ladder` over `_terms`) on hand-classified draws."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mlharq.closed_form import g_max, throughput_ts
from mlharq.model import (
    _GAIN_SPAN,
    _REWARD_MESSAGES,
    PowerSplit,
    SliceEvent,
    SystemConfig,
    safe_div_threshold,
)
from mlharq.monte_carlo import _ladder, _run_block, _terms
from mlharq.quadrature import TAIL_SPAN
from walk_events import mlh_events

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
        # 2^R overflows as well from R = 1024 on
        for rate in (math.nextafter(largest, 1e3), math.nextafter(1024.0, 0.0),
                     1024.0, 2000.0, 1e308):
            with pytest.raises(ValueError, match="rate_R must be below 512"):
                SystemConfig(rate_R=rate, power_P=1.0)

    def test_config_snr_db_whose_power_overflows(self):
        """from_snr_db refuses an SNR whose 10**(snr_db/10) overflows with
        an error that names snr_db; below that the power is built and the
        gain ceiling refuses it, naming sigma2 and power_P."""
        with pytest.raises(ValueError, match="sigma2 .* power_P .* overflow"):
            SystemConfig.from_snr_db(3082.0, 1.0)
        for snr_db in (3083.0, 4000.0, 1e308):
            with pytest.raises(ValueError, match="snr_db must be below"):
                SystemConfig.from_snr_db(snr_db, 1.0)

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

    def test_config_gain_floor(self):
        """p1 divides m2's residual by sigma2 * power_P, so a product that
        underflows to 0.0 is refused with an error that names sigma2 and
        power_P, where p1 divided by zero; the smallest nonzero product is
        accepted, and time-sharing's p1 (alpha = 1, the closed form) is
        then exp(-inf) = 0.0."""
        with pytest.raises(ValueError, match="sigma2 .* power_P .* underflow"):
            SystemConfig(rate_R=1.0, power_P=1e-170, sigma2=1e-170)
        with pytest.raises(ValueError, match="underflow"):
            SystemConfig(rate_R=1.0, power_P=2.0 ** -600, sigma2=2.0 ** -600)
        for power, sigma2 in ((1.0, 5e-324), (1e-160, 1e-160)):
            cfg = SystemConfig(rate_R=1.0, power_P=power, sigma2=sigma2)
            assert cfg.sigma2 * cfg.power_P > 0.0
            assert throughput_ts(cfg) == 0.0

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

    def test_slice_outcome_rewards(self):
        """A slice's reward counts the messages it delivers, and it lasts
        one slot only when both clear at slot 1 (OMEGA0), else two."""
        assert _REWARD_MESSAGES[SliceEvent.OMEGA0] == 2
        assert _REWARD_MESSAGES[SliceEvent.OMEGA2] == 1
        assert _REWARD_MESSAGES[SliceEvent.NONE_DECODED] == 0
        n = 5000
        counts, reward, duration = _run_block(
            ("mlh", 0.6, 0.5, SystemConfig.from_snr_db(10.0, 1.0), n, 3, 0))
        one_slot = int(counts[SliceEvent.OMEGA0])
        assert 0 < one_slot < n
        assert duration == one_slot + 2 * (n - one_slot)
        assert reward == sum(int(counts[ev]) * _REWARD_MESSAGES[ev]
                             for ev in SliceEvent)


# The smallest and the largest accepted rate (test_config_rate_range).
RATE_EDGES = (1.601713251907459e-16, 511.99999999999994)


def _rate_constants(rate_R, power_P, sigma2):
    """The rate's constants that SystemConfig keeps, each by its defining
    expression, as float.hex."""
    k1, k2 = 2.0 ** rate_R, 2.0 ** (2.0 * rate_R)
    return {name: float.hex(value) for name, value in [
        ("k1", k1), ("k2", k2), ("t1", k1 - 1.0), ("t2", k2 - 1.0),
        ("g_sum", (k2 - 1.0) / power_P), ("s2p", sigma2 * power_P)]}


def _kept(cfg):
    return {name: float.hex(getattr(cfg, name))
            for name in ("k1", "k2", "t1", "t2", "g_sum", "s2p")}


@st.composite
def accepted_configs(draw):
    rate = draw(st.one_of(st.sampled_from(RATE_EDGES),
                          st.floats(*RATE_EDGES)))
    power = draw(st.one_of(st.sampled_from([1.0, 2.0, 1e5]),
                           st.floats(1e-300, 1e300)))
    sigma2 = draw(st.one_of(st.sampled_from([1.0, 0.3, 4.0]),
                            st.floats(1e-300, 1e150)))
    try:
        return SystemConfig(rate_R=rate, power_P=power, sigma2=sigma2)
    except ValueError:
        assume(False)


class TestRateConstants:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(cfg=accepted_configs(),
           rate=st.one_of(st.sampled_from(RATE_EDGES[:1]),
                          st.floats(RATE_EDGES[0], 8.0)))
    @example(cfg=SystemConfig(rate_R=RATE_EDGES[0], power_P=1.0),
             rate=RATE_EDGES[1])
    @example(cfg=SystemConfig(rate_R=RATE_EDGES[1], power_P=1.0),
             rate=RATE_EDGES[0])
    def test_config_computes_the_rate_constants(self, cfg, rate):
        """SystemConfig keeps k1, k2, t1, t2, g_sum and s2p with the bits
        of their defining expressions, as attributes, not fields: fields,
        repr, == and hash are the three fields', also after replace and a
        pickle round trip, and replace with a new rate recomputes them."""
        want = _rate_constants(cfg.rate_R, cfg.power_P, cfg.sigma2)
        assert _kept(cfg) == want
        assert [f.name for f in dataclasses.fields(SystemConfig)] == [
            "rate_R", "power_P", "sigma2"]
        assert repr(cfg) == (f"SystemConfig(rate_R={cfg.rate_R!r}, "
                             f"power_P={cfg.power_P!r}, sigma2={cfg.sigma2!r})")
        for twin in (dataclasses.replace(cfg), pickle.loads(pickle.dumps(cfg))):
            assert (repr(twin), hash(twin)) == (repr(cfg), hash(cfg))
            assert twin == cfg
            assert _kept(twin) == want
        moved = dataclasses.replace(cfg, rate_R=rate)
        assert _kept(moved) == _rate_constants(rate, cfg.power_P, cfg.sigma2)
        assert moved == SystemConfig(rate, cfg.power_P, cfg.sigma2)


class TestScalarHelpers:
    def test_safe_div_threshold(self):
        assert safe_div_threshold(1.0, 0.5) == 2.0
        assert safe_div_threshold(1.0, 0.0) == math.inf
        assert safe_div_threshold(1.0, -0.3) == math.inf
        with pytest.raises(ValueError):
            safe_div_threshold(0.0, 1.0)


BOTH, ONLY_M1, ONLY_M2, NEITHER = range(4)
SWAP = np.array([BOTH, ONLY_M2, ONLY_M1, NEITHER])   # the outcome with m1, m2 swapped


def outcome(masks):
    """The outcome code of each trial from `_ladder`'s disjoint masks."""
    both, only1, only2 = masks
    return np.select([both, only1, only2], [BOTH, ONLY_M1, ONLY_M2], NEITHER)


def slot1(g1, alpha, cfg):
    """The slot-1 outcome of each gain in g1 at m1's share alpha."""
    g1 = np.asarray(g1, dtype=float)
    return outcome(_ladder(cfg.rate_R, _terms(g1, alpha, cfg.power_P)))


def slot2_joint(g1, g2, alpha, beta, cfg):
    """The outcome of the joint attempt after a both-fail slot 1: the
    ladder on both slots' terms summed, slot-2 shares beta / 1 - beta."""
    p = cfg.power_P
    terms = [a + b for a, b in zip(_terms(np.asarray(g1, dtype=float), alpha, p),
                                   _terms(np.asarray(g2, dtype=float), beta, p))]
    return outcome(_ladder(cfg.rate_R, terms))


class TestTerms:
    def test_terms_of_one_layer_alone(self):
        """At share 1, m1's term is log2(1 + g*P), the interference-free
        mutual information, and m2's is 0."""
        m1, m2, total, _, _ = _terms(np.array([0.0, 1.5]), 1.0, 2.0)
        assert m1.tolist() == [0.0, pytest.approx(2.0)]
        assert m2.tolist() == [0.0, 0.0]
        assert _terms(np.array([3.0]), 1.0, 1.0)[0][0] == pytest.approx(2.0)
        assert total.tolist() == m1.tolist()

    def test_terms_over_the_other_layer(self):
        """A layer decoded with the other treated as noise: equal to the
        layer alone when the other has no power, 0 at g = 0, and
        log2(1 + gq1 / (1 + gq2)) otherwise."""
        g = np.array([0.7])
        m1, _, _, m1_over, _ = _terms(g, 1.0, 2.0)
        assert m1_over[0] == pytest.approx(m1[0])
        assert _terms(np.array([0.0]), 0.75, 4.0)[3][0] == 0.0
        assert _terms(np.array([1.0]), 0.5, 4.0)[3][0] == \
            pytest.approx(math.log2(1 + 2 / 3))


class TestClassifySlot1:
    def test_strong_gain_decodes_both(self):
        # all three gain thresholds max out at 2.5 < 10
        assert slot1([10.0], 0.8, CFG)[0] == BOTH

    def test_zero_gain_decodes_nothing(self):
        assert slot1([0.0], 0.3, CFG)[0] == NEITHER

    def test_full_share_gives_only_m1(self):
        # m2 has zero power; m1 sees log2(5) >= 1
        assert slot1([2.0], 1.0, CFG)[0] == ONLY_M1

    def test_exhaustive_and_ladder_consistent(self):
        """The two single-message conditions never hold together outside the
        joint region, so step 3 is unreachable with step 2's condition true."""
        rng = np.random.default_rng(42)
        for _ in range(500):
            alpha = rng.uniform(0.0, 1.0)
            cfg = SystemConfig(rate_R=rng.uniform(0.1, 4.0),
                               power_P=rng.uniform(0.1, 50.0))
            g1 = rng.exponential(2.0, size=10)
            terms = _terms(g1, alpha, cfg.power_P)
            out = outcome(_ladder(cfg.rate_R, terms))
            c1 = cfg.rate_R <= terms[3]
            c2 = cfg.rate_R <= terms[4]
            assert (out[c1 & c2] == BOTH).all(), (g1, alpha, cfg)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            g1 = rng.exponential(1.5, size=10)
            alpha = rng.uniform(0.0, 1.0)
            assert (slot1(g1, alpha, CFG) == SWAP[slot1(g1, 1.0 - alpha, CFG)]).all()

    def test_monotone_in_gain(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            alpha = rng.uniform(0.05, 0.95)
            g1 = rng.exponential(2.0, size=10)
            both = g1[slot1(g1, alpha, CFG) == BOTH]
            for bump in (1.1, 2.0, 10.0):
                assert (slot1(both * bump, alpha, CFG) == BOTH).all()


class TestClassifySlot2:
    def test_zero_gains(self):
        assert slot2_joint([0.0], [0.0], 0.4, 0.6, CFG)[0] == NEITHER

    def test_m1_alone_with_huge_second_slot(self):
        # m2 has zero slot-2 power and no slot-1 accumulation
        assert slot2_joint([0.0], [1e9], 0.4, 1.0, CFG)[0] == ONLY_M1

    def test_both_with_strong_gains(self):
        assert slot2_joint([10.0], [10.0], 0.5, 0.5, CFG)[0] == BOTH

    def test_swap_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g1, g2 = rng.exponential(1.0, size=(2, 10))
            a, b = rng.uniform(0.0, 1.0, size=2)
            out = slot2_joint(g1, g2, a, b, CFG)
            mirrored = slot2_joint(g1, g2, 1.0 - a, 1.0 - b, CFG)
            assert (out == SWAP[mirrored]).all()

    def test_single_message_accumulation(self):
        """After only m1 clears slot 1, m2 is sent alone at full power and
        clears once its clean slot-1 term plus log2(1 + g2*P) reaches R."""
        # ts (alpha = 1): m2 accumulated nothing at slot 1, so slot 2
        # alone decides
        ts = mlh_events(np.array([2.0, 2.0]), np.array([10.0, 0.0]), 1.0, 1.0, CFG)
        assert ts.tolist() == [SliceEvent.OMEGA1, SliceEvent.OMEGA2]
        # alpha = 0.9, g1 = 1: only m1 clears slot 1, m2 keeps log2(1.2);
        # slot 2 alone falls short (log2(1.8) < 1), the sum clears R
        assert slot1([1.0], 0.9, CFG)[0] == ONLY_M1
        mlh = mlh_events(np.array([1.0, 1.0]), np.array([0.4, 0.3]), 0.9, 0.5, CFG)
        assert mlh.tolist() == [SliceEvent.OMEGA1, SliceEvent.OMEGA2]
