"""Print one digest line per scatter-eval operation of a seed.

Runs every scatter-eval operation (event_probs, prob_sc and the three
throughputs at 2,400 configurations) on the package under src/, taking the
inputs from perfbench/workloads.py.  A line is the round, the operation and
the first 12 hex digits of the SHA-1 of the repr of its collected output
(plain floats), so that diff -u against scatter_eval_seed1.digests names
the operations that moved.  A change that moves values on purpose
regenerates that reference with this script:

    python3 tests/refs/scatter_eval_digests.py > tests/refs/scatter_eval_seed1.digests

An optional argument picks another seed (default 1).
"""

import hashlib
import pathlib
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import ScatterEval  # noqa: E402

from mlharq import closed_form, model  # noqa: E402


def main(seed=1):
    api = types.SimpleNamespace(
        SystemConfig=model.SystemConfig, PowerSplit=model.PowerSplit,
        event_probs=closed_form.event_probs, prob_sc=closed_form.prob_sc,
        throughput_ts=closed_form.throughput_ts,
        throughput_mlh=closed_form.throughput_mlh,
        throughput_sc=closed_form.throughput_sc)
    workload = ScatterEval(None)
    for r in range(workload.rounds):
        for i, op in enumerate(workload.inputs(seed, r)):
            out = repr(workload.collect(op, workload.run(api, op)))
            print(r, i, hashlib.sha1(out.encode()).hexdigest()[:12])


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
