"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Its work is fixed: a set number of
rounds, and round r of seed s is generated from (workload, s, r) alone, so
every pass over the work repeats it exactly.  The benchmark times the work
in `passes` passes, each in a fresh interpreter.  No input is ever
repeated within a pass, so mlharq's lru caches only ever help within an
operation, as they do for one CLI invocation.

collect() turns an operation's result into plain JSON data, so that the
outputs of several passes can be checked against one reference in a
separate process.  check() returns (errors, notes): an error is an output
that disagrees with the reference, a note an operation whose reference
raised, which says nothing about the program under test.
"""

import dataclasses
import io
import json
import math
import os
import random
from contextlib import redirect_stdout

PROTOCOLS = ("ts", "mlh", "sc")

# Declared closed-form tolerance per probability; checks allow twice it.
ABS_TOL = 1e-10
REL_TOL = 1e-8
# Reward weights of the mlh throughput numerator sum to 12 (the sc and ts
# ones to less), and the slice lasts at least one slot, so one probability
# tolerance moves a throughput by at most 12 * R * ABS_TOL + REL_TOL * T.
REWARD_WEIGHT = 12.0
REFINE_TOL = 1e-4   # the CLI's default --refine-tol

SWEEP_SNR_DB = 3.0
# Default axis of `mlharq sweep --kind splits-vs-rate`: 0.1 to 6.0 by 0.1,
# built the way SweepSpec.axis_values builds it, so every point matches a
# row of the reference CSV bit for bit.
SWEEP_LATTICE = [0.1 + k * 0.1 for k in range(60)]


def _fmt(x):
    return f"{x:.12g}"


def _close(value, ref, scale=1.0):
    return abs(value - ref) <= 2.0 * (ABS_TOL * scale + REL_TOL * abs(ref))


def _throughput_close(value, ref, rate):
    return _close(value, ref, scale=REWARD_WEIGHT * rate)


def _plain(obj):
    """A dataclass result as JSON data, numpy scalars included."""
    return json.loads(json.dumps(dataclasses.asdict(obj),
                                 default=lambda x: x.item()))


def _check_all(workload, ops, passes, ref, compare):
    """Compare every pass's outputs with one reference per operation.

    compare(op, got, want) returns a list of mismatches.  An output of None
    is an operation that raised, which the measuring pass has counted.
    """
    errors, notes = [], []
    for i, op in enumerate(ops):
        outputs = [outputs[i] for outputs in passes]
        if all(got is None for got in outputs):
            continue
        try:
            want = workload.collect(op, workload.run(ref, op))
        except Exception as exc:
            notes.append(f"{op}: reference raised {type(exc).__name__}: {exc}")
            continue
        for n, got in enumerate(outputs):
            bad = [] if got is None else compare(op, got, want)
            if bad:
                errors.append(f"pass {n + 1} {op}: " + "; ".join(bad))
    return errors, notes


class SweepRate:
    """`mlharq sweep --kind splits-vs-rate --snr-db 3` through cli.main.

    One operation is one sweep point: one protocol at one rate of the CLI's
    default axis.  A round runs ts, mlh and sc at 4 rates spaced 1.5 apart,
    so every round spans both the superposition regime (R below about 1.5)
    and the ts-corner regime.  The 3 rounds take the points nearest the
    middles of 12 equal strata of the axis.  This is the paper's fixed
    figure traffic, so the seed does not change it.  A round runs in the
    CLI's own order, protocols sorted and rates ascending: the lru caches
    carry over from one operation to the next, so a shuffled order would
    change the work.
    """

    name = "sweep-rate"
    rounds = 3
    passes = 2      # a pass takes about 25 s at the seed commit, 5x the others

    def __init__(self, workdir):
        self.csv_path = os.path.join(workdir, "point.csv")

    def inputs(self, seed, r, smoke=False):
        rates = SWEEP_LATTICE[2 + 5 * r::15][:1 if smoke else 4]
        return [(protocol, rate) for protocol in sorted(PROTOCOLS) for rate in rates]

    def run(self, api, op):
        protocol, rate = op
        argv = ["sweep", "--kind", "splits-vs-rate",
                "--snr-db", _fmt(SWEEP_SNR_DB),
                "--axis-min", repr(rate), "--axis-max", repr(rate),
                "--axis-step", "0.1", "--protocols", protocol,
                "--out", self.csv_path]
        out = io.StringIO()
        with redirect_stdout(out):
            code = api.cli_main(argv)
        return code, out.getvalue()

    def collect(self, op, result):
        try:
            with open(self.csv_path, encoding="ascii") as fh:
                text = fh.read()
        except FileNotFoundError:   # the CLI failed before writing; check() reports it
            return list(result) + [""]
        os.remove(self.csv_path)
        return list(result) + [text]

    def check(self, ops, passes, ref):
        """ref is the text of the reference CSV of the whole default sweep."""
        lines = ref.splitlines()
        header = lines[0]
        rows = {}
        for line in lines[1:]:
            fields = line.split(",")
            rows[(fields[0], fields[2])] = fields
        errors = []
        for n, outputs in enumerate(passes):
            for (protocol, rate), got in zip(ops, outputs):
                if got is None:
                    continue
                bad = self._compare(got, rows[(protocol, _fmt(rate))], header, rate)
                if bad:
                    errors.append(f"pass {n + 1} {protocol} R={rate}: {bad}")
        return errors, []

    @staticmethod
    def _compare(output, want, header, rate):
        code, stdout, text = output
        if code != 0 or stdout != "1\n":
            return f"exit {code}, stdout {stdout!r}"
        out = text.splitlines()
        if len(out) != 2 or out[0] != header:
            return f"CSV layout {out!r}"
        got = out[1].split(",")
        if len(got) != len(want) or got[:3] != want[:3] or got[6:] != want[6:]:
            return f"row {got} vs {want}"
        if (abs(float(got[3]) - float(want[3])) > REFINE_TOL
                or abs(float(got[4]) - float(want[4])) > REFINE_TOL):
            return f"split {got[3:5]} vs {want[3:5]}"
        if not _throughput_close(float(got[5]), float(want[5]), rate):
            return f"throughput {got[5]} vs {want[5]}"
        return None


def _edge_split(rng, rate, kind):
    """A split on an edge of the closed forms, by kind 0-4: the vanishing
    threshold, just above it, a zero-power layer, or the ts corner."""
    t = 2.0 ** rate
    threshold = t / (t + 1.0)
    if kind == 0:
        return threshold, rng.random()
    if kind == 1:
        step = rng.choice((0.0, 1e-12, 1e-9, 1e-6))
        return min(1.0, math.nextafter(threshold + step, 2.0)), rng.random()
    if kind == 2:
        return rng.choice((0.0, 1.0)), rng.random()
    if kind == 3:
        return rng.random(), rng.choice((0.0, 1.0))
    return 1.0, 1.0


class ScatterEval:
    """Single closed-form evaluations at distinct configurations.

    One operation is event_probs, prob_sc and the three throughputs at one
    configuration: R uniform in [0.25, 6], SNR uniform in [-5, 40] dB and
    uniform splits, with every tenth operation on an edge split.  R and
    SNR form a Latin hypercube in each round, one configuration in each of
    200 equal strata of either range, and the edge kinds take turns, so
    that every seed draws the same mix of cheap and costly configurations.
    """

    name = "scatter-eval"
    round_ops = 200
    rounds = 12
    passes = 5

    def __init__(self, workdir):
        pass

    def inputs(self, seed, r, smoke=False):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        n = 20 if smoke else self.round_ops
        rate_strata = rng.sample(range(n), n)
        snr_strata = rng.sample(range(n), n)
        ops = []
        for i in range(n):
            rate = 0.25 + 5.75 * (rate_strata[i] + rng.random()) / n
            snr_db = -5.0 + 45.0 * (snr_strata[i] + rng.random()) / n
            if i % 10 == 9:
                alpha, beta = _edge_split(rng, rate, kind=i // 10 % 5)
            else:
                alpha, beta = rng.random(), rng.random()
            ops.append((rate, snr_db, alpha, beta))
        return ops

    @staticmethod
    def run(api, op):
        rate, snr_db, alpha, beta = op
        cfg = api.SystemConfig.from_snr_db(snr_db, rate)
        split = api.PowerSplit(alpha=alpha, beta=beta)
        return (api.event_probs(split, cfg), api.prob_sc(alpha, cfg),
                api.throughput_ts(cfg), api.throughput_mlh(split, cfg),
                api.throughput_sc(alpha, cfg))

    @staticmethod
    def collect(op, result):
        event, sc, *throughputs = result
        return [_plain(event), _plain(sc), *throughputs]

    def check(self, ops, passes, ref):
        """ref is the reference package's namespace of the same functions."""
        return _check_all(self, ops, passes, ref, self._compare)

    @staticmethod
    def _compare(op, got, want):
        bad = []
        for got_probs, want_probs in zip(got[:2], want[:2]):
            for name, value in want_probs.items():
                if not _close(got_probs.get(name, math.nan), value):
                    bad.append(f"{name}={got_probs.get(name)!r} vs {value!r}")
        for name, got_t, want_t in zip(("ts", "mlh", "sc"), got[2:], want[2:]):
            if not _throughput_close(got_t, want_t, op[0]):
                bad.append(f"throughput_{name}={got_t!r} vs {want_t!r}")
        return bad


class McOracle:
    """monte_carlo.estimate with workers=1 at seeded configurations.

    One operation is one estimate call of 500,000 trials; a round runs
    ts, mlh and sc at two configurations, each call with its own master
    seed.
    """

    name = "mc-oracle"
    trials = 500_000
    rounds = 8
    passes = 5

    def __init__(self, workdir):
        pass

    def inputs(self, seed, r, smoke=False):
        rng = random.Random(f"{self.name}:{seed}:{r}")
        trials = 20_000 if smoke else self.trials
        ops = []
        for _ in range(1 if smoke else 2):
            rate = rng.uniform(0.5, 3.0)
            snr_db = rng.uniform(0.0, 20.0)
            alpha = rng.uniform(0.05, 0.95)
            beta = rng.uniform(0.05, 0.95)
            for protocol in PROTOCOLS:
                ops.append((protocol, rate, snr_db, alpha, beta, trials,
                            rng.getrandbits(63)))
        return ops

    @staticmethod
    def run(api, op):
        protocol, rate, snr_db, alpha, beta, trials, master_seed = op
        cfg = api.SystemConfig.from_snr_db(snr_db, rate)
        split = api.PowerSplit(alpha=alpha, beta=beta)
        return api.estimate(protocol, split, cfg, trials, master_seed,
                            workers=1)

    @staticmethod
    def collect(op, result):
        return _plain(result)

    def check(self, ops, passes, ref):
        """Reports must equal the reference package's bit for bit."""
        return _check_all(self, ops, passes, ref, self._compare)

    @staticmethod
    def _compare(op, got, want):
        return [f"{name}={got.get(name)!r} vs {value!r}"
                for name, value in want.items() if got.get(name) != value]


WORKLOADS = {w.name: w for w in (SweepRate, ScatterEval, McOracle)}
