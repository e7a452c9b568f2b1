"""Independent brute-force oracle for the analytic event probabilities.

Simulates the two-slot slice of each protocol by sampling exponential
channel gains and classifying decoding events with the mutual-information
decode ladder, stated here once and independent of the closed forms' gain
thresholds (g_min, g_max, h3, h4).  Trials are partitioned into
blocks, each driven by its own counter-based Philox stream keyed on
(master_seed, block index), so a run is bit-identical no matter how many
workers execute it.

The block runner has one decode ladder, `_ladder`, over five
mutual-information terms (m1 alone, m2 alone, the sum rate, m1 over m2,
m2 over m1): slot 1 feeds it one slot's terms, the joint slot-2 attempt
(mlh and sc) the sums of both slots' terms.  Each term is computed once,
only on the trials that use it: mlh's slot-2 rungs run on the slot-1
failures, its single-message retransmissions on the only-m1 / only-m2
trials.  A zero-power layer's terms are exact without a log2, so ts takes
one log2 per slot.  Each protocol walks the ladder once (`_mlh_walk`,
`_sc_walk`), yielding each event's mask over its subset of trials; a
block counts the masks' trials (`_count`), NONE_DECODED being the
remainder, and builds no per-trial event array.  A block runs in chunks
of at most CHUNK_TRIALS trials, which caps a worker's memory at any trial
count without moving a draw.

Each thread keeps one Philox generator per role (a block's first stream,
and the second one a chunked block advances to g2) and re-keys it for
each block, which costs about 1 us where a new Philox(key=...) costs
17 us, most of it a SeedSequence() from OS entropy that a keyed stream
never uses.

Importing this module loads neither numpy.random nor a process pool, so
closed forms, optimization and sweeps do not pay for them: the Generator
annotations are strings, and numpy 2.x loads numpy.random at the first
attribute access, the first _block_stream call, which builds the
thread's generators (6.3 MB and 14 ms, once per process);
ProcessPoolExecutor is imported only when estimate runs more than one
worker (concurrent.futures.process, 1.9 MB and 23 ms).
"""

import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closed_form import EventProbs, ScProbs
from .model import (
    PROTOCOLS,
    _REWARD_MESSAGES,
    PowerSplit,
    SliceEvent,
    SystemConfig,
)

__all__ = [
    "InvalidTrials",
    "McEstimate",
    "McReport",
    "estimate",
    "resolve_workers",
]

_SEED_MASK = (1 << 64) - 1
_BOOTSTRAP_STREAM = _SEED_MASK  # block index reserved for the bootstrap RNG
_BOOTSTRAP_RESAMPLES = 1000
_REWARDS = np.array([_REWARD_MESSAGES[ev] for ev in SliceEvent], dtype=np.int64)
# the events of a joint slot-2 ladder's (both, only1, only2)
_JOINT_EVENTS = (SliceEvent.OMEGA3, SliceEvent.OMEGA4, SliceEvent.OMEGA4P)
# per-thread cache of the block streams' generators (_block_stream)
_THREAD = threading.local()
# Trials per chunk of a block: a block's arrays scale with this, not with
# the block.  A block of 4 chunks of 65,536 peaks at 10.2 MB under
# tracemalloc (mlh with every trial failing slot 1, 156 bytes a trial; sc
# 9.4 MB, ts 8.3 MB).
CHUNK_TRIALS = 65_536


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


# ---------------------------------------------------------------------------
# The decode ladder and the block runner
# ---------------------------------------------------------------------------

def _log2_1p(x):
    """log2(1 + x), computed in the buffer of x."""
    x += 1.0
    return np.log2(x, out=x)


def _terms(g, share, p):
    """One slot's five mutual-information terms at m1's power share: m1
    alone, m2 alone, the sum rate, m1 over m2 and m2 over m1.

    With q1 = share*p and q2 = (1 - share)*p, the terms are log2(1 + g*q1),
    log2(1 + g*q2), log2(1 + g*p), log2(1 + g*q1 / (1 + g*q2)) and
    log2(1 + g*q2 / (1 + g*q1)), each computed once and sharing g*q1, g*q2,
    1 + g*q1 and 1 + g*q2.  A zero-power layer takes no log2 (g is finite
    and >= 0): its terms are log2(1 + g*0) = 0.0, and the other layer over
    it divides by 1 + g*0 = 1.0, so it equals that layer alone bit for bit.
    """
    q1, q2 = share * p, (1.0 - share) * p
    total = _log2_1p(g * p)
    if q1 == 0.0 or q2 == 0.0:
        m1, m2 = (np.zeros(g.shape) if q == 0.0 else total if q == p
                  else _log2_1p(g * q) for q in (q1, q2))
        return m1, m2, total, m1, m2
    s1, s2 = g * q1, g * q2
    d1, d2 = s1 + 1.0, s2 + 1.0
    s1 /= d2
    s2 /= d1
    return (np.log2(d1, out=d1), np.log2(d2, out=d2), total,
            _log2_1p(s1), _log2_1p(s2))


def _ladder(r, terms):
    """(both, only1, only2) of one decoding attempt on the five terms of
    `_terms` (one slot's, or two slots' summed): joint decoding first, then
    each message with the other treated as noise."""
    m1, m2, total, m1_over, m2_over = terms
    both = (r <= m1) & (r <= m2) & (2.0 * r <= total)
    only1 = ~both & (r <= m1_over)
    only2 = ~(both | only1) & (r <= m2_over)
    return both, only1, only2


def _trials(mask):
    """Indices of the trials in mask, the first one repeated to make the
    count a multiple of 8, and the count without the repeats.

    Subset arrays then grow in steps of 64 bytes.  At arbitrary lengths,
    which change from block to block, they fragmented glibc's heap: 16 mlh
    estimates of 500,000 trials grew it from 6.6 to 7.6 MB, and the
    mc-oracle benchmark's peak RSS rose by 0.5-1.6 MB a pass.
    """
    idx = mask.nonzero()[0]
    pad = -idx.size % 8
    return (np.concatenate((idx, np.full(pad, idx[0]))) if pad else idx,
            idx.size)


def _mlh_walk(g1, g2, alpha, beta, cfg):
    """mlh's decode ladder over one chunk, as (event, idx, mask) triples:
    mask marks the trials of `event` among g1[idx] (idx None: among all).
    The masks are disjoint, and a trial in none of them decoded nothing."""
    r, p = cfg.rate_R, cfg.power_P
    t1 = _terms(g1, alpha, p)
    both, only1, only2 = _ladder(r, t1)
    yield SliceEvent.OMEGA0, None, both
    # a message decoded at slot 1 is removed by SIC; the other keeps its
    # clean slot-1 term and is sent alone at full power in slot 2.  At
    # alpha >= 0.5 (ts included) m1 over m2 is at least m2 over m1, so no
    # trial decodes only m2, and at alpha <= 0.5 none only m1: one of the
    # two subsets is usually empty.
    for got, kept, done, lost in (
            (only1, t1[1], SliceEvent.OMEGA1, SliceEvent.OMEGA2),
            (only2, t1[0], SliceEvent.OMEGA1P, SliceEvent.OMEGA2P)):
        idx, k = _trials(got)
        if not k:
            continue
        ok = (r <= kept[idx] + _log2_1p(g2[idx] * p))[:k]
        yield done, idx[:k], ok
        yield lost, idx[:k], ~ok
    # slot-1 failures only: both slots' terms summed, one joint ladder
    idx, k = _trials(~(both | only1 | only2))
    joint = [a[idx] + b for a, b in zip(t1, _terms(g2[idx], beta, p))]
    for event, mask in zip(_JOINT_EVENTS, _ladder(r, joint)):
        yield event, idx[:k], mask[:k]


def _sc_walk(g, alpha, cfg):
    """sc's decode ladder over one chunk's gains g = (g1, g2), as
    `_mlh_walk`'s triples.  Both slots share alpha: each term is computed
    once over g as one flat view, then the two slots' halves are summed."""
    m = g.shape[1]
    joint = [t[:m] + t[m:] for t in _terms(g.reshape(-1), alpha, cfg.power_P)]
    for event, mask in zip(_JOINT_EVENTS, _ladder(cfg.rate_R, joint)):
        yield event, None, mask


def _count(walk, n):
    """The 9 event counts of a walk over n trials: each mask's trials, and
    NONE_DECODED the remainder."""
    counts = [0] * 9
    for event, _, mask in walk:
        counts[event] += np.count_nonzero(mask)
    counts[SliceEvent.NONE_DECODED] = n - sum(counts)
    return counts


def _block_stream(master_seed: int, block_index: int,
                  role: int = 0) -> "np.random.Generator":
    """The Philox stream keyed on (master_seed, block_index), at its start.

    Each thread keeps one generator per role and re-keys it here (key, a
    zero counter and an empty buffer, the state a new Philox(key=...) has),
    which skips the constructor's SeedSequence() from OS entropy.  So a
    stream holds until the next call for its role in its thread; a caller
    that needs two streams at once takes them under roles 0 and 1.
    """
    streams = getattr(_THREAD, "streams", None)
    if streams is None:
        streams = _THREAD.streams = [np.random.Generator(np.random.Philox(0))
                                     for _ in range(2)]
    rng = streams[role]
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0),
                  "key": (master_seed & _SEED_MASK, block_index & _SEED_MASK)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return rng


def _run_block(args):
    """Event counts, reward (messages) and duration (slots) of one block.

    g1 is the first n draws of the block's stream and g2 the next n.  The
    block runs in chunks of at most CHUNK_TRIALS trials; past one chunk, a
    second copy of the stream, advanced by n draws, serves g2 (a Philox
    counter step is 4 doubles), so the draws and the counts do not depend
    on the chunk size.
    """
    protocol, alpha, beta, cfg, n, master_seed, block_index = args
    first = second = _block_stream(master_seed, block_index)
    if n > CHUNK_TRIALS:
        second = _block_stream(master_seed, block_index, role=1)
        second.bit_generator.advance(n // 4)
        second.random(n % 4)
    counts = np.zeros(9, dtype=np.int64)
    for start in range(0, n, CHUNK_TRIALS):
        m = min(CHUNK_TRIALS, n - start)
        g = np.empty((2, m))   # g1, g2 = -sigma2 * log1p(-u), in place
        first.random(out=g[0])
        second.random(out=g[1])
        np.negative(g, out=g)
        np.log1p(g, out=g)
        g *= -cfg.sigma2
        if protocol == "sc":
            walk = _sc_walk(g, alpha, cfg)
        else:
            walk = _mlh_walk(g[0], g[1], alpha, beta, cfg)
        counts += _count(walk, m)
    reward = int(counts @ _REWARDS)
    duration = 2 * n - int(counts[SliceEvent.OMEGA0])
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
        from concurrent.futures import ProcessPoolExecutor

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
    # SliceEvent OMEGA0-OMEGA4P are EventProbs' fields in order, and
    # OMEGA3-OMEGA4P ScProbs'
    if protocol == "sc":
        event_probs = None
        sc_probs = ScProbs(*freq[SliceEvent.OMEGA3:SliceEvent.NONE_DECODED])
    else:
        event_probs = EventProbs(*freq[:SliceEvent.NONE_DECODED])
        sc_probs = None
    return McReport(protocol=protocol, trials=trials,
                    master_seed=master_seed & _SEED_MASK,
                    event_probs=event_probs, sc_probs=sc_probs,
                    none_prob=freq[int(SliceEvent.NONE_DECODED)],
                    throughput=throughput)
