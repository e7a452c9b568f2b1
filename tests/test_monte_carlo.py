"""Tests for the Monte-Carlo oracle: slice classification, statistics,
and the determinism contract across worker counts."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlharq import monte_carlo
from mlharq.closed_form import (
    EventProbs,
    ScProbs,
    prob_p0,
    throughput_ts,
    vanishing_threshold,
)
from mlharq.model import _REWARD_MESSAGES, PowerSplit, SliceEvent, SystemConfig
from mlharq.monte_carlo import (
    _BOOTSTRAP_STREAM,
    InvalidTrials,
    _block_stream,
    _count,
    _mlh_walk,
    _run_block,
    _sc_walk,
    _terms,
    estimate,
)
from walk_events import mlh_events, sc_events

CFG = SystemConfig(rate_R=1.0, power_P=2.0)


class TestSampleGain:
    def test_fixed_seed_repeats(self):
        """A block's stream, hence its gains -log1p(-u), repeats at a fixed
        (master seed, block index)."""
        a, b = (-np.log1p(-_block_stream(9, 3).random(3)) for _ in range(2))
        assert a.tolist() == b.tolist()


def mlh_event(g1, g2, alpha, beta, cfg=CFG):
    return SliceEvent(int(mlh_events(np.array([g1]), np.array([g2]), alpha,
                                     beta, cfg)[0]))


def sc_event(g1, g2, alpha, cfg=CFG):
    return SliceEvent(int(sc_events(np.array([g1]), np.array([g2]), alpha, cfg)[0]))


class TestScalarSlices:
    """Hand-classified draws through the block runner's ladder; a slice's
    duration follows from its event (tests/test_model.py holds that rule)."""

    def test_mlh_strong_first_slot(self):
        assert mlh_event(1e9, 0.0, 0.6, 0.5) is SliceEvent.OMEGA0

    def test_mlh_dead_channel(self):
        assert mlh_event(0.0, 0.0, 0.6, 0.5) is SliceEvent.NONE_DECODED

    def test_mlh_hand_classified_draw(self):
        # slot 1 fails outright; accumulated SINR then carries only m1
        event = mlh_event(0.3, 0.6, 0.9, 0.5)
        assert event is SliceEvent.OMEGA4
        assert _REWARD_MESSAGES[event] == 1

    def test_ts_one_message_per_slot(self):
        theta = (2 ** CFG.rate_R - 1) / CFG.power_P
        good = 2.0 * theta
        assert mlh_event(good, good, 1.0, 1.0) is SliceEvent.OMEGA1
        assert mlh_event(good, 0.0, 1.0, 1.0) is SliceEvent.OMEGA2
        # g1 short of theta but two-slot accumulation clears R
        g1 = 0.8 * theta
        need = (2 ** CFG.rate_R / (1 + g1 * CFG.power_P) - 1) / CFG.power_P
        assert mlh_event(g1, 1.5 * need, 1.0, 1.0) is SliceEvent.OMEGA4

    def test_ts_never_one_slot(self):
        rng = np.random.default_rng(5)
        g1, g2 = rng.exponential(2.0, size=(2, 500))
        assert (mlh_events(g1, g2, 1.0, 1.0, CFG) != SliceEvent.OMEGA0).all()

    def test_sc_outcomes(self):
        assert sc_event(50.0, 50.0, 0.6) is SliceEvent.OMEGA3
        assert sc_event(0.0, 0.0, 0.6) is SliceEvent.NONE_DECODED

    def test_sc_full_share_never_joint(self):
        rng = np.random.default_rng(6)
        g1, g2 = rng.exponential(3.0, size=(2, 500))
        assert (sc_events(g1, g2, 1.0, CFG) != SliceEvent.OMEGA3).all()


class TestEstimate:
    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidTrials):
            estimate("mlh", PowerSplit(0.5, 0.5), CFG, trials=0, master_seed=1)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            estimate("tdma", PowerSplit(0.5, 0.5), CFG, trials=10, master_seed=1)

    def test_frequencies_sum_to_one(self):
        rep = estimate("mlh", PowerSplit(0.4, 0.6), CFG, trials=37_123,
                       master_seed=77)
        total = rep.event_probs.total() + rep.none_prob
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sc_frequencies_sum_to_one(self):
        rep = estimate("sc", PowerSplit(0.4, 0.4), CFG, trials=20_000,
                       master_seed=78)
        assert rep.sc_probs.total() + rep.none_prob == pytest.approx(1.0, abs=1e-12)
        assert rep.event_probs is None

    def test_ts_equals_mlh_at_full_shares(self):
        ts = estimate("ts", None, CFG, trials=50_000, master_seed=11)
        mlh = estimate("mlh", PowerSplit(1.0, 1.0), CFG, trials=50_000,
                       master_seed=11)
        assert ts.event_probs == mlh.event_probs
        assert ts.throughput == mlh.throughput

    def test_report_fields_follow_slice_events(self):
        """estimate builds EventProbs from the frequencies of SliceEvent
        OMEGA0-OMEGA4P in order, and ScProbs from OMEGA3-OMEGA4P: each
        field is named after its event."""
        events = [ev for ev in SliceEvent if ev != SliceEvent.NONE_DECODED]
        fields = ["p" + ev.name.removeprefix("OMEGA").lower() for ev in events]
        assert [int(ev) for ev in events] == list(range(len(events)))
        assert list(EventProbs.__dataclass_fields__) == fields
        assert list(ScProbs.__dataclass_fields__) == \
            ["t" + name for name in fields[SliceEvent.OMEGA3:]]

    @pytest.mark.parametrize("protocol, split", [("mlh", PowerSplit(0.7, 0.4)),
                                                 ("sc", PowerSplit(0.4, 0.4))])
    def test_report_fields_are_their_event_frequencies(self, monkeypatch,
                                                       protocol, split):
        """Each report field is the frequency of the event it is named
        after, in the blocks' counts."""
        run_block = monte_carlo._run_block
        counts = []

        def spy(job):
            result = run_block(job)
            counts.append(result[0])
            return result

        monkeypatch.setattr(monte_carlo, "_run_block", spy)
        trials = 40_000
        rep = estimate(protocol, split, CFG, trials=trials, master_seed=21)
        freq = sum(counts) / trials
        probs = rep.sc_probs if protocol == "sc" else rep.event_probs
        for name, value in probs.as_dict().items():
            event = SliceEvent["OMEGA" + name.lstrip("t")[1:].upper()]
            assert value == freq[event]
        assert rep.none_prob == freq[SliceEvent.NONE_DECODED]
        # distinct values, so that a field read from another event differs
        assert len(set(probs.as_dict().values())) >= 3

    def test_same_seed_same_report(self):
        a = estimate("mlh", PowerSplit(0.3, 0.8), CFG, trials=30_000, master_seed=5)
        b = estimate("mlh", PowerSplit(0.3, 0.8), CFG, trials=30_000, master_seed=5)
        assert a == b

    def test_worker_count_does_not_change_report(self):
        one = estimate("mlh", PowerSplit(0.3, 0.8), CFG, trials=30_000,
                       master_seed=5, workers=1)
        four = estimate("mlh", PowerSplit(0.3, 0.8), CFG, trials=30_000,
                        master_seed=5, workers=4)
        assert one == four

    def test_throughput_matches_closed_form_ts(self):
        rep = estimate("ts", None, CFG, trials=400_000, master_seed=99)
        want = throughput_ts(CFG)
        assert abs(rep.throughput.mean - want) <= 4.0 * rep.throughput.std_err

    def test_p0_matches_closed_form(self):
        cfg = SystemConfig.from_snr_db(3.0, 1.0)
        rep = estimate("mlh", PowerSplit(0.5, 0.5), cfg, trials=400_000,
                       master_seed=101)
        p_hat = rep.event_probs.p0
        se = math.sqrt(p_hat * (1 - p_hat) / rep.trials)
        assert abs(p_hat - prob_p0(0.5, cfg)) <= 4.0 * se

    def test_small_trial_counts(self):
        rep = estimate("mlh", PowerSplit(0.5, 0.5), CFG, trials=7, master_seed=1)
        assert rep.trials == 7
        assert rep.event_probs.total() + rep.none_prob == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# The block runner against a reference ladder, bit for bit
#
# The reference is the runner's earlier form: every mutual-information term
# over every trial, the slot-2 joint ladder over the whole block, reward and
# duration read off the event array.  The runner computes each term once,
# only on the trials that use it, so its events must equal these.
# ---------------------------------------------------------------------------

def _mi1(g, p):
    return np.log2(1.0 + g * p)


def _misinr(g, p_sig, p_int):
    return np.log2(1.0 + g * p_sig / (1.0 + g * p_int))


def ref_terms(g, share, p):
    """The five terms of one slot, in `_terms`' order."""
    return (_mi1(g, share * p), _mi1(g, (1.0 - share) * p), _mi1(g, p),
            _misinr(g, share * p, (1.0 - share) * p),
            _misinr(g, (1.0 - share) * p, share * p))


def ref_slot1_masks(g1, alpha, cfg):
    r, p = cfg.rate_R, cfg.power_P
    both = ((r <= _mi1(g1, alpha * p))
            & (r <= _mi1(g1, (1.0 - alpha) * p))
            & (2.0 * r <= _mi1(g1, p)))
    only1 = ~both & (r <= _misinr(g1, alpha * p, (1.0 - alpha) * p))
    only2 = ~both & ~only1 & (r <= _misinr(g1, (1.0 - alpha) * p, alpha * p))
    return both, only1, only2


def ref_joint2_masks(g1, g2, alpha, beta, cfg):
    r, p = cfg.rate_R, cfg.power_P
    both = ((r <= _mi1(g1, alpha * p) + _mi1(g2, beta * p))
            & (r <= _mi1(g1, (1.0 - alpha) * p) + _mi1(g2, (1.0 - beta) * p))
            & (2.0 * r <= _mi1(g1, p) + _mi1(g2, p)))
    only1 = ~both & (r <= _misinr(g1, alpha * p, (1.0 - alpha) * p)
                     + _misinr(g2, beta * p, (1.0 - beta) * p))
    only2 = ~both & ~only1 & (r <= _misinr(g1, (1.0 - alpha) * p, alpha * p)
                              + _misinr(g2, (1.0 - beta) * p, beta * p))
    return both, only1, only2


def ref_mlh_events(g1, g2, alpha, beta, cfg):
    r, p = cfg.rate_R, cfg.power_P
    both1, only1, only2 = ref_slot1_masks(g1, alpha, cfg)
    neither = ~(both1 | only1 | only2)
    m2_ok = r <= _mi1(g1, (1.0 - alpha) * p) + _mi1(g2, p)
    m1_ok = r <= _mi1(g1, alpha * p) + _mi1(g2, p)
    jboth, jonly1, jonly2 = ref_joint2_masks(g1, g2, alpha, beta, cfg)

    ev = np.full(g1.shape, int(SliceEvent.NONE_DECODED), dtype=np.int64)
    ev[both1] = int(SliceEvent.OMEGA0)
    ev[only1 & m2_ok] = int(SliceEvent.OMEGA1)
    ev[only1 & ~m2_ok] = int(SliceEvent.OMEGA2)
    ev[only2 & m1_ok] = int(SliceEvent.OMEGA1P)
    ev[only2 & ~m1_ok] = int(SliceEvent.OMEGA2P)
    ev[neither & jboth] = int(SliceEvent.OMEGA3)
    ev[neither & jonly1] = int(SliceEvent.OMEGA4)
    ev[neither & jonly2] = int(SliceEvent.OMEGA4P)
    return ev


def ref_sc_events(g1, g2, alpha, cfg):
    jboth, jonly1, jonly2 = ref_joint2_masks(g1, g2, alpha, alpha, cfg)
    ev = np.full(g1.shape, int(SliceEvent.NONE_DECODED), dtype=np.int64)
    ev[jboth] = int(SliceEvent.OMEGA3)
    ev[jonly1] = int(SliceEvent.OMEGA4)
    ev[jonly2] = int(SliceEvent.OMEGA4P)
    return ev


REF_REWARDS = np.array([_REWARD_MESSAGES[ev] for ev in SliceEvent])


def ref_stream(master_seed, block_index):
    """A new Philox generator keyed on (master_seed, block_index), which
    `_block_stream`'s re-keyed generators must equal draw for draw."""
    key = np.array([master_seed & (2 ** 64 - 1), block_index & (2 ** 64 - 1)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def ref_run_block(args):
    """One block in one piece: g1 is the stream's first n draws, g2 the next n."""
    protocol, alpha, beta, cfg, n, master_seed, block_index = args
    rng = ref_stream(master_seed, block_index)
    g1 = -cfg.sigma2 * np.log1p(-rng.random(n))
    g2 = -cfg.sigma2 * np.log1p(-rng.random(n))
    if protocol == "sc":
        ev = ref_sc_events(g1, g2, alpha, cfg)
    else:
        ev = ref_mlh_events(g1, g2, alpha, beta, cfg)
    counts = np.bincount(ev, minlength=9)
    reward = int(REF_REWARDS[ev].sum())
    duration = int(np.where(ev == int(SliceEvent.OMEGA0), 1, 2).sum())
    return counts, reward, duration


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def _rung_value(g1, g2, alpha, beta, p, rung):
    """Rung `rung` of the slot-1 ladder (0-4) or the joint one (5-9) at one
    trial, as a rate R that puts the trial exactly on it."""
    t1 = ref_terms(np.array([g1]), alpha, p)
    t2 = ref_terms(np.array([g2]), beta, p)
    k = rung % 5
    value = float(t1[k][0] if rung < 5 else t1[k][0] + t2[k][0])
    return value / 2.0 if k == 2 else value   # the sum rate is tested at 2R


@st.composite
def ladder_cases(draw):
    """A config, a split and gains, with edge shares and edge gains."""
    rate = draw(st.floats(0.05, 12.0))
    snr_db = draw(st.floats(-5.0, 40.0))
    sigma2 = draw(st.sampled_from([1.0, 0.3, 2.5]))
    cfg = SystemConfig.from_snr_db(snr_db, rate, sigma2)
    t = vanishing_threshold(cfg)
    share = st.one_of(
        st.sampled_from([0.0, 1.0, 0.5, t, math.nextafter(t, 2.0)]),
        st.floats(0.0, 1.0))
    alpha, beta = draw(st.one_of(st.just((1.0, 1.0)), st.tuples(share, share)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 400))
    g1 = rng.exponential(sigma2, n)
    g2 = rng.exponential(sigma2, n)
    g1[rng.random(n) < 0.05] = 0.0
    g2[rng.random(n) < 0.05] = 0.0
    # optionally move R onto one rung of one trial: that comparison is ==
    rung = draw(st.one_of(st.none(), st.integers(0, 9)))
    if rung is not None:
        i = draw(st.integers(0, n - 1))
        r = _rung_value(g1[i], g2[i], alpha, beta, cfg.power_P, rung)
        if r >= 1e-12:
            cfg = SystemConfig(rate_R=r, power_P=cfg.power_P, sigma2=sigma2)
    return cfg, alpha, beta, g1, g2


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=ladder_cases())
@example(case=(SystemConfig(rate_R=1.0, power_P=2.0), 1.0, 1.0,
               np.array([0.0, 0.5, 3.0]), np.array([2.0, 0.0, 0.1])))
def test_events_equal_the_reference_ladder(case):
    cfg, alpha, beta, g1, g2 = case
    p = cfg.power_P
    for g in (g1, g2):
        for share in (alpha, beta):
            got, want = _terms(g, share, p), ref_terms(g, share, p)
            assert [_bits(x) for x in got] == [_bits(x) for x in want]
    want_mlh = ref_mlh_events(g1, g2, alpha, beta, cfg)
    want_sc = ref_sc_events(g1, g2, alpha, cfg)
    assert np.array_equal(mlh_events(g1, g2, alpha, beta, cfg), want_mlh)
    assert np.array_equal(sc_events(g1, g2, alpha, cfg), want_sc)
    # a block counts the masks instead: the subsets' padded repeats
    # (`_trials`) must not count, at sizes that are not multiples of 8
    n = len(g1)
    assert (_count(_mlh_walk(g1, g2, alpha, beta, cfg), n)
            == np.bincount(want_mlh, minlength=9).tolist())
    assert (_count(_sc_walk(np.stack((g1, g2)), alpha, cfg), n)
            == np.bincount(want_sc, minlength=9).tolist())


@pytest.mark.parametrize("rate,snr_db,sigma2", [
    (1.0, 3.0, 1.0), (0.3, -5.0, 2.5), (2.4, 12.0, 0.3), (0.05, 40.0, 1.0),
    (6.0, 25.0, 1.0),
])
def test_reports_equal_the_reference_runner(monkeypatch, rate, snr_db, sigma2):
    cfg = SystemConfig.from_snr_db(snr_db, rate, sigma2)
    t = vanishing_threshold(cfg)
    cases = [("ts", None), ("sc", PowerSplit(0.5, 0.5)),
             ("sc", PowerSplit(t, t)), ("sc", PowerSplit(0.0, 0.0)),
             ("mlh", PowerSplit(0.5, 0.5)), ("mlh", PowerSplit(1.0, 1.0)),
             ("mlh", PowerSplit(0.0, 1.0)),
             ("mlh", PowerSplit(math.nextafter(t, 2.0), 0.3)),
             ("mlh", PowerSplit(0.8, 0.0))]
    for protocol, split in cases:
        for trials in (1, 7, 20_000):
            got = estimate(protocol, split, cfg, trials, master_seed=trials + 3)
            with monkeypatch.context() as m:
                m.setattr(monte_carlo, "_run_block", ref_run_block)
                want = estimate(protocol, split, cfg, trials,
                                master_seed=trials + 3)
            assert repr(got) == repr(want), (protocol, split, trials)


def test_rekeyed_streams_equal_new_generators():
    """`_block_stream` re-keys a cached generator per thread and role; each
    stream it hands out must equal a new Philox generator draw for draw."""
    # block after block, each left with its Philox buffer partly used
    for block, draws in enumerate((5, 7, 10, 9, 6)):
        want = _bits(ref_stream(12345, block).random(draws))
        for role in (0, 1):
            got = _block_stream(12345, block, role).random(draws)
            assert _bits(got) == want
    # a chunked block's first and advanced second streams, held at once
    for n in (70_001, 70_002, 70_003, 70_004):
        first = _block_stream(2 ** 70 + 9, 17)
        second = _block_stream(2 ** 70 + 9, 17, role=1)
        second.bit_generator.advance(n // 4)
        second.random(n % 4)
        want = ref_stream(2 ** 70 + 9, 17).random(n + 6)
        assert _bits(first.random(6)) == _bits(want[:6]), n
        assert _bits(second.random(6)) == _bits(want[n:]), n
    # the bootstrap stream's resampled block indices (an odd count of
    # 32-bit draws leaves half of a 64-bit one for the next re-key to drop)
    for seed in (0, 77, -1):
        got, want = (stream(seed, _BOOTSTRAP_STREAM).integers(0, 100, (3, 101))
                     for stream in (_block_stream, ref_stream))
        assert got.tolist() == want.tolist()


def test_threads_equal_serial_runs():
    """Four threads estimating at once, on different seeds and with the
    interpreter switching threads every microsecond, each use their own
    cached streams: the reports equal serial runs."""
    cfg = SystemConfig.from_snr_db(4.0, 1.1)
    cases = [("mlh", PowerSplit(0.7, 0.4), 31),
             ("sc", PowerSplit(0.3, 0.3), 32), ("ts", None, 33),
             ("mlh", PowerSplit(0.2, 0.9), 34)]
    want = [repr(estimate(p, split, cfg, 60_000, seed))
            for p, split, seed in cases]
    got = [None] * len(cases)
    start = threading.Barrier(len(cases), timeout=60)

    def run(i):
        protocol, split, seed = cases[i]
        start.wait()
        got[i] = [repr(estimate(protocol, split, cfg, 60_000, seed))
                  for _ in range(3)]

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 3 for w in want]


CHUNK_CFG = SystemConfig.from_snr_db(4.0, 1.1)
CHUNK_CASES = [("ts", 1.0, 1.0), ("mlh", 0.6, 0.3), ("sc", 0.7, 0.7)]


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_chunked_blocks_equal_one_chunk(monkeypatch, chunk):
    """Past one chunk, g2 comes from a copy of the stream advanced by n
    draws; every block size and chunk size gives the one-chunk counts."""
    for protocol, alpha, beta in CHUNK_CASES:
        split = PowerSplit(alpha, beta)
        for size in (1, 5, 6, 7, 8, 13):
            want = estimate(protocol, split, CHUNK_CFG, 100 * size,
                            master_seed=size)
            with monkeypatch.context() as m:
                m.setattr(monte_carlo, "CHUNK_TRIALS", chunk)
                got = estimate(protocol, split, CHUNK_CFG, 100 * size,
                               master_seed=size)
            assert repr(got) == repr(want), (protocol, size)
        args = (protocol, alpha, beta, CHUNK_CFG, 5000, 17, 4)
        with monkeypatch.context() as m:
            m.setattr(monte_carlo, "CHUNK_TRIALS", chunk)
            got = _run_block(args)
        assert repr(got) == repr(ref_run_block(args)), protocol


@pytest.mark.parametrize("protocol,alpha,beta", CHUNK_CASES)
def test_block_memory_scales_with_the_chunk(monkeypatch, protocol, alpha,
                                            beta):
    """A block of 4 chunks peaks at one chunk's arrays (about 150 bytes per
    chunk trial); the bound is 200.  The same block in one piece peaks at
    1.1-2.3 MB, above the bound's 0.8 MB."""
    chunk = 4096
    monkeypatch.setattr(monte_carlo, "CHUNK_TRIALS", chunk)
    args = (protocol, alpha, beta, CHUNK_CFG, 4 * chunk, 5, 0)
    _run_block(args)   # warm up the imports and caches outside the trace
    tracemalloc.start()
    try:
        _run_block(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 200 * chunk
