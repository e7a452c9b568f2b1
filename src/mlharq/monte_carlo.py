"""Independent brute-force oracle for the analytic event probabilities.

Simulates the two-slot slice of each protocol by sampling exponential
channel gains and classifying decoding events with the same inequality
ladders as the scalar predicates in `model`.  Trials are partitioned into
blocks, each driven by its own counter-based Philox stream keyed on
(master_seed, block index), so a run is bit-identical no matter how many
workers execute it.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closed_form import EventProbs, ScProbs
from .model import (
    PROTOCOLS,
    _REWARD_MESSAGES,
    ChannelDraw,
    JointOutcome,
    PowerSplit,
    SliceEvent,
    SliceOutcome,
    SystemConfig,
    classify_slot1,
    classify_slot2_joint,
    classify_slot2_single,
)

__all__ = [
    "InvalidTrials",
    "McEstimate",
    "McReport",
    "sample_gain",
    "simulate_slice_mlh",
    "simulate_slice_ts",
    "simulate_slice_sc",
    "estimate",
    "resolve_workers",
]

_SEED_MASK = (1 << 64) - 1
_BOOTSTRAP_STREAM = _SEED_MASK  # block index reserved for the bootstrap RNG
_BOOTSTRAP_RESAMPLES = 1000
_REWARDS = np.array([_REWARD_MESSAGES[ev] for ev in SliceEvent], dtype=np.int64)


class InvalidTrials(ValueError):
    pass


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_err: float
    trials: int


@dataclass(frozen=True)
class McReport:
    """Empirical probabilities and throughput of one simulated protocol run.

    event_probs is filled for ts/mlh runs, sc_probs for sc runs; none_prob
    completes either set to exactly 1 (it is the all-fail frequency).
    """

    protocol: str
    trials: int
    master_seed: int
    event_probs: Optional[EventProbs]
    sc_probs: Optional[ScProbs]
    none_prob: float
    throughput: McEstimate


def sample_gain(stream: np.random.Generator, sigma2: float) -> float:
    """Draw one exponential channel gain with mean sigma2 (inverse CDF)."""
    u = stream.random()  # in [0, 1); 1-u is the U in -sigma2*ln(U)
    return -sigma2 * math.log1p(-u)


# ---------------------------------------------------------------------------
# Scalar slice simulators (unit-test surface; the block runner below applies
# the same inequalities vectorized).
# ---------------------------------------------------------------------------

def simulate_slice_mlh(draw: ChannelDraw, split: PowerSplit,
                       cfg: SystemConfig) -> SliceOutcome:
    """Classify one multi-layer slice: decode at slot 1, adapt slot 2."""
    first = classify_slot1(draw.g1, split.alpha, cfg)
    p = cfg.power_P
    if first is JointOutcome.BOTH:
        return SliceOutcome.from_event(SliceEvent.OMEGA0)
    if first is JointOutcome.ONLY_M1:
        # m1 removed by SIC; m2 keeps its clean slot-1 residual and gets
        # the whole slot-2 power.
        ok = classify_slot2_single(draw.g1, (1.0 - split.alpha) * p, draw.g2, cfg)
        return SliceOutcome.from_event(
            SliceEvent.OMEGA1 if ok else SliceEvent.OMEGA2)
    if first is JointOutcome.ONLY_M2:
        ok = classify_slot2_single(draw.g1, split.alpha * p, draw.g2, cfg)
        return SliceOutcome.from_event(
            SliceEvent.OMEGA1P if ok else SliceEvent.OMEGA2P)
    second = classify_slot2_joint(draw, split, cfg)
    return SliceOutcome.from_event({
        JointOutcome.BOTH: SliceEvent.OMEGA3,
        JointOutcome.ONLY_M1: SliceEvent.OMEGA4,
        JointOutcome.ONLY_M2: SliceEvent.OMEGA4P,
        JointOutcome.NEITHER: SliceEvent.NONE_DECODED,
    }[second])


def simulate_slice_ts(draw: ChannelDraw, cfg: SystemConfig) -> SliceOutcome:
    """Classify one time-sharing slice (one message per slot, full power).

    Equals the multi-layer slice at alpha = beta = 1: the zero-power m2
    layer makes slot-1 joint success impossible, so every slice lasts two
    slots.
    """
    return simulate_slice_mlh(draw, PowerSplit(alpha=1.0, beta=1.0), cfg)


def simulate_slice_sc(draw: ChannelDraw, alpha: float,
                      cfg: SystemConfig) -> SliceOutcome:
    """Classify one superposition-coding slice (no slot-1 decoding attempt).

    Both slots superpose the messages with the same split alpha; decoding
    happens once, on the two accumulated observations.
    """
    second = classify_slot2_joint(draw, PowerSplit(alpha=alpha, beta=alpha), cfg)
    return SliceOutcome.from_event({
        JointOutcome.BOTH: SliceEvent.OMEGA3,
        JointOutcome.ONLY_M1: SliceEvent.OMEGA4,
        JointOutcome.ONLY_M2: SliceEvent.OMEGA4P,
        JointOutcome.NEITHER: SliceEvent.NONE_DECODED,
    }[second])


# ---------------------------------------------------------------------------
# Vectorized block runner
# ---------------------------------------------------------------------------

def _mi1(g, p):
    return np.log2(1.0 + g * p)


def _misinr(g, p_sig, p_int):
    return np.log2(1.0 + g * p_sig / (1.0 + g * p_int))


def _slot1_masks(g1, alpha, cfg):
    r, p = cfg.rate_R, cfg.power_P
    both = ((r <= _mi1(g1, alpha * p))
            & (r <= _mi1(g1, (1.0 - alpha) * p))
            & (2.0 * r <= _mi1(g1, p)))
    only1 = ~both & (r <= _misinr(g1, alpha * p, (1.0 - alpha) * p))
    only2 = ~both & ~only1 & (r <= _misinr(g1, (1.0 - alpha) * p, alpha * p))
    return both, only1, only2


def _joint2_masks(g1, g2, alpha, beta, cfg):
    r, p = cfg.rate_R, cfg.power_P
    both = ((r <= _mi1(g1, alpha * p) + _mi1(g2, beta * p))
            & (r <= _mi1(g1, (1.0 - alpha) * p) + _mi1(g2, (1.0 - beta) * p))
            & (2.0 * r <= _mi1(g1, p) + _mi1(g2, p)))
    only1 = ~both & (r <= _misinr(g1, alpha * p, (1.0 - alpha) * p)
                     + _misinr(g2, beta * p, (1.0 - beta) * p))
    only2 = ~both & ~only1 & (r <= _misinr(g1, (1.0 - alpha) * p, alpha * p)
                              + _misinr(g2, (1.0 - beta) * p, beta * p))
    return both, only1, only2


def _mlh_events(g1, g2, alpha, beta, cfg):
    r, p = cfg.rate_R, cfg.power_P
    both1, only1, only2 = _slot1_masks(g1, alpha, cfg)
    neither = ~(both1 | only1 | only2)
    m2_ok = r <= _mi1(g1, (1.0 - alpha) * p) + _mi1(g2, p)
    m1_ok = r <= _mi1(g1, alpha * p) + _mi1(g2, p)
    jboth, jonly1, jonly2 = _joint2_masks(g1, g2, alpha, beta, cfg)

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


def _sc_events(g1, g2, alpha, cfg):
    jboth, jonly1, jonly2 = _joint2_masks(g1, g2, alpha, alpha, cfg)
    ev = np.full(g1.shape, int(SliceEvent.NONE_DECODED), dtype=np.int64)
    ev[jboth] = int(SliceEvent.OMEGA3)
    ev[jonly1] = int(SliceEvent.OMEGA4)
    ev[jonly2] = int(SliceEvent.OMEGA4P)
    return ev


def _block_stream(master_seed: int, block_index: int) -> np.random.Generator:
    key = np.array([master_seed & _SEED_MASK, block_index & _SEED_MASK],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_block(args):
    protocol, alpha, beta, cfg, n, master_seed, block_index = args
    rng = _block_stream(master_seed, block_index)
    g1 = -cfg.sigma2 * np.log1p(-rng.random(n))
    g2 = -cfg.sigma2 * np.log1p(-rng.random(n))
    if protocol == "sc":
        ev = _sc_events(g1, g2, alpha, cfg)
    else:
        ev = _mlh_events(g1, g2, alpha, beta, cfg)
    counts = np.bincount(ev, minlength=9)
    reward = int(_REWARDS[ev].sum())
    duration = int(np.where(ev == int(SliceEvent.OMEGA0), 1, 2).sum())
    return counts, reward, duration


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument, else the HARQ_WORKERS environment variable, else 1."""
    if workers is None:
        raw = os.environ.get("HARQ_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ValueError(f"HARQ_WORKERS must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _block_sizes(trials: int) -> list[int]:
    # >= 100 blocks whenever the trial count allows it; sizes differ by at
    # most one so the bootstrap sees (nearly) equal blocks.
    n_blocks = min(trials, 100)
    base, rem = divmod(trials, n_blocks)
    return [base + 1 if i < rem else base for i in range(n_blocks)]


def estimate(protocol: str, split: Optional[PowerSplit], cfg: SystemConfig,
             trials: int, master_seed: int,
             workers: Optional[int] = None) -> McReport:
    """Run `trials` independent slices and report empirical statistics.

    Throughput is the ratio of sums, total delivered bits over total slot
    time, matching the renewal-reward definition; its standard error comes
    from a bootstrap over the simulation blocks.  Identical master_seed
    gives an identical report at any worker count.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")
    if trials < 1:
        raise InvalidTrials(f"trials must be >= 1, got {trials}")
    if protocol == "ts":
        alpha, beta = 1.0, 1.0
    elif split is None:
        raise ValueError(f"protocol {protocol!r} needs a PowerSplit")
    elif protocol == "sc":
        alpha, beta = split.alpha, split.alpha
    else:
        alpha, beta = split.alpha, split.beta

    sizes = _block_sizes(trials)
    jobs = [(protocol, alpha, beta, cfg, n, master_seed, i)
            for i, n in enumerate(sizes)]
    workers = resolve_workers(workers)
    if workers == 1 or len(jobs) == 1:
        results = [_run_block(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, jobs, chunksize=4))

    counts = np.zeros(9, dtype=np.int64)
    block_reward = np.empty(len(results), dtype=np.int64)
    block_duration = np.empty(len(results), dtype=np.int64)
    for i, (c, rew, dur) in enumerate(results):
        counts += c
        block_reward[i] = rew
        block_duration[i] = dur

    freq = [float(c) / trials for c in counts]
    rate = cfg.rate_R
    mean = rate * float(block_reward.sum()) / float(block_duration.sum())

    boot_rng = _block_stream(master_seed, _BOOTSTRAP_STREAM)
    if len(results) > 1:
        idx = boot_rng.integers(0, len(results),
                                size=(_BOOTSTRAP_RESAMPLES, len(results)))
        ratios = (rate * block_reward[idx].sum(axis=1)
                  / block_duration[idx].sum(axis=1))
        std_err = float(ratios.std(ddof=1))
    else:
        std_err = 0.0

    throughput = McEstimate(mean=mean, std_err=std_err, trials=trials)
    if protocol == "sc":
        event_probs = None
        sc_probs = ScProbs(tp3=freq[int(SliceEvent.OMEGA3)],
                           tp4=freq[int(SliceEvent.OMEGA4)],
                           tp4p=freq[int(SliceEvent.OMEGA4P)])
    else:
        event_probs = EventProbs(
            p0=freq[int(SliceEvent.OMEGA0)],
            p1=freq[int(SliceEvent.OMEGA1)],
            p1p=freq[int(SliceEvent.OMEGA1P)],
            p2=freq[int(SliceEvent.OMEGA2)],
            p2p=freq[int(SliceEvent.OMEGA2P)],
            p3=freq[int(SliceEvent.OMEGA3)],
            p4=freq[int(SliceEvent.OMEGA4)],
            p4p=freq[int(SliceEvent.OMEGA4P)],
        )
        sc_probs = None
    return McReport(protocol=protocol, trials=trials,
                    master_seed=master_seed & _SEED_MASK,
                    event_probs=event_probs, sc_probs=sc_probs,
                    none_prob=freq[int(SliceEvent.NONE_DECODED)],
                    throughput=throughput)
