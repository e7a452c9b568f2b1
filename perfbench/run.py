"""mlharq benchmark: sweep-rate, scatter-eval and mc-oracle.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-rate --seed 1 --seconds 15 --trace 0

Every workload does fixed work.  --trace 0 runs that work in a few passes
(5; 2 for the slow sweep-rate), each in a fresh interpreter, and takes
every operation's median time over the passes; before each pass it times
2 interpreter starts for setup_s.  These times are scaled to a reference
machine speed, measured with the calibration loop of speed.py.  --trace 1 gives the per-layer metrics: one untraced and two traced
passes, the tracing overhead, and a check that the work counts of the two
traced passes are equal.  Either way one more fresh interpreter checks the
outputs of every pass against the reference.  --workload all runs every
workload in turn.  --smoke runs the benchmark's self-tests on tiny inputs.
--ref-commit takes the references from another git commit instead of the
committed seed-state copies.  --seconds is accepted so that the command
line matches other benchmarks; the work is fixed and does not depend on it.

Every line but the last is for people; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import EXACT_COUNTS  # noqa: E402

SEEDREF = os.path.join(HERE, "seedref")
SWEEP_REF = os.path.join(HERE, "refs", "splits_vs_rate_snr3.csv")
DEADLINE_S = 170.0     # a run must end within 180 s
SETUP_STARTS = 2       # interpreter starts timed before each pass
SETUP_CODE = "import time, mlharq.cli; print(repr(time.time()))"

END_TO_END = (("wall_s", "s"), ("op_s_p50", "s"), ("op_s_tail", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["HARQ_WORKERS"] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def machine_facts():
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"machine: nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={numpy_version} "
            f"load={load}")


def time_starts(deadline, starts):
    """Times from starting an interpreter to mlharq.cli imported."""
    samples = []
    for _ in range(starts):
        t0 = time.time()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip()) - t0)
    return samples


def run_worker(args, deadline, outputs, *flags):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--outputs", *outputs, *flags]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args, deadline, flags, before_pass=None):
    """Run one pass per entry of flags, each in a fresh interpreter, then
    check the outputs of all of them in one more."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="passes-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        raws, paths = [], []
        for i, pass_flags in enumerate(flags):
            if before_pass is not None:
                before_pass()
            paths.append(os.path.join(tmp, f"outputs-{i}.json"))
            raws.append(run_worker(args, deadline, [paths[-1]], *pass_flags))
        checked = run_worker(args, deadline, paths, "--check",
                             "--ref-pkg", args.ref_pkg, "--ref-csv", args.ref_csv)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = sum(len(r["latencies"]) for r in raws)
    failed = sum(r["failed"] for r in raws) + checked["failed"]
    errors = [e for r in raws for e in r["errors"]] + checked["errors"]
    notes = [f"check skipped, {n}" for n in checked["notes"]]
    return raws, attempted, failed, errors, notes


def tail(latencies):
    """Highest percentile with at least 10 operations above it, as
    (value, percentile, operation count); the maximum below 11 operations."""
    values = sorted(latencies)
    n = len(values)
    if n < 11:
        return values[-1], 100.0, n
    return values[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(args, deadline):
    passes = workloads.WORKLOADS[args.workload].passes
    time_starts(deadline, 1)    # the first start may compile bytecode
    setup = []

    def time_setup():
        loops = [speed.loop_time() for _ in range(3)]
        fastest = min(time_starts(deadline, SETUP_STARTS))
        loops += [speed.loop_time() for _ in range(3)]
        setup.append(fastest / speed.slowdown(loops))

    raws, attempted, failed, errors, notes = run_passes(
        args, deadline, [()] * passes, before_pass=time_setup)
    scaled = [[t / f for t, f in zip(r["latencies"], r["slowdowns"])] for r in raws]
    latencies = [statistics.median(t) for t in zip(*scaled)]
    value, pct, n = tail(latencies)
    metrics = {
        "wall_s": sum(latencies),
        "op_s_p50": statistics.median(latencies),
        "op_s_tail": value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in raws),
        "setup_s": statistics.median(setup),
    }
    notes_of = {"wall_s": f"sum over {n} operations, each at its median "
                          f"over {passes} passes",
                "op_s_p50": f"of {n} operations",
                "op_s_tail": f"p{pct:.2f} of {n} operations",
                "setup_s": f"median over {passes} passes of the fastest of "
                           f"{SETUP_STARTS} starts"}
    lines = [f"{args.workload:<14} {name:<12} {metrics[name]:.6g} {unit}"
             + (f"  ({notes_of[name]})" if name in notes_of else "")
             for name, unit in END_TO_END]
    lines.append(f"{args.workload:<14} {'error_rate':<12} "
                 f"{failed / attempted:.6g}  "
                 f"({failed} of {attempted} operations failed)")
    lines.append(f"{args.workload:<14} times are scaled to the reference speed; "
                 f"median slowdown of each pass "
                 + ", ".join(f"{r['slowdown']:.3f}" for r in raws)
                 + "; unscaled time of each pass "
                 + ", ".join(f"{r['wall_s']:.4g} s" for r in raws))
    units = dict(END_TO_END)
    return ({name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            attempted, failed, errors, lines + notes)


def per_layer(args, deadline):
    spans = os.path.join(ROOT, ".perfbench",
                         f"spans-{args.workload}-seed{args.seed}-{{}}.csv.gz")
    raws, attempted, failed, errors, notes = run_passes(
        args, deadline,
        [()] + [("--trace", "--spans", spans.format(i)) for i in (1, 2)])
    plain, traced = raws[0], raws[1:]
    repeat = traced[0]["counts"] == traced[1]["counts"]
    layers = dict(traced[0]["layers"])
    untraced_wall = plain["wall_s"]
    layers["trace.overhead_s"] = traced[0]["wall_s"] - untraced_wall
    layers["trace.untraced_wall_s"] = untraced_wall
    if not repeat:
        errors.append(f"work counts differ between traced runs: "
                      f"{traced[0]['counts']} vs {traced[1]['counts']}")
    lines = [f"{args.workload:<14} {name:<42} {value:.6g} {unit_of(name)}"
             for name, value in layers.items()]
    lines.append(f"{args.workload:<14} work counts "
                 f"{'repeat exactly' if repeat else 'DIFFER'}: "
                 + ", ".join(f"{k}={traced[0]['counts'][k]}" for k in EXACT_COUNTS))
    return ({name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()},
            attempted, failed, errors, lines + notes)


def unit_of(name):
    for suffix, unit in (("_s", "s"), ("us_per_call", "us"),
                         ("us_per_evaluation", "us"), ("ns_per_sample", "ns"),
                         ("ns_per_trial", "ns"), ("bytes_per_trial", "B"),
                         ("csv_bytes", "B"), ("_per_call", "ratio"),
                         ("_per_evaluation", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def reference_from_commit(commit, need_csv):
    """Extract src/mlharq of a git commit and, for sweep-rate, rebuild the
    reference CSV with that commit's CLI (the full default sweep)."""
    proc = subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"no commit {commit}: {proc.stderr.strip()}")
    commit = proc.stdout.strip()    # a branch name would go stale in the cache
    dest = os.path.join(ROOT, ".perfbench", f"ref-{commit}")
    pkg = os.path.join(dest, "src", "mlharq")
    if not os.path.isdir(pkg):
        proc = subprocess.run(["git", "archive", "--format=tar", commit,
                               "src/mlharq"], cwd=ROOT, capture_output=True)
        if proc.returncode != 0:
            raise BenchError(f"git archive {commit} failed: "
                             f"{proc.stderr.decode().strip()}")
        with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
            tar.extractall(dest, filter="data")
    csv_path = os.path.join(dest, "splits_vs_rate_snr3.csv")
    if need_csv and not os.path.isfile(csv_path):
        env = child_env()
        env["PYTHONPATH"] = os.path.join(dest, "src")
        subprocess.run([sys.executable, "-m", "mlharq.cli", "sweep",
                        "--kind", "splits-vs-rate", "--snr-db", "3",
                        "--out", csv_path], cwd=dest, env=env, check=True,
                       capture_output=True)
    return pkg, csv_path


def expect(condition, what):
    if not condition:
        raise BenchError(f"smoke test failed: {what}")


class _Raises:
    """A reference whose every function raises, as the seed commit's does
    on some edge inputs."""

    def __getattr__(self, name):
        raise ValueError("need a <= b")


def smoke():
    """Self-tests of the benchmark's own code on tiny inputs."""
    expect(tail(list(range(100))) == (89, 90.0, 100), "tail of 100")
    expect(tail([3.0, 1.0]) == (3.0, 100.0, 2), "tail of 2")
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(HERE)
        expect(wl.inputs(1, 0) == wl.inputs(1, 0), f"{name} repeats a seed")
        expect(wl.inputs(1, 0) != wl.inputs(1, 1), f"{name} varies by round")
        if name != "sweep-rate":    # the fixed figure sweep
            expect(wl.inputs(1, 0) != wl.inputs(2, 0), f"{name} varies with the seed")
    sweep = workloads.SweepRate(HERE)
    seen = {op for r in range(sweep.rounds) for op in sweep.inputs(7, r)}
    expect(len(seen) == 3 * 4 * sweep.rounds, "sweep-rate repeats no point")
    with speed.Sampler(0.02) as sampler:
        time.sleep(0.1)
    expect(len(sampler.took) >= 4,
           f"the timer samples the loop ({len(sampler.took)} samples)")
    expect(sampler.busy_during(sampler.began[1], sampler.at[2])
           == sampler.at[1] - sampler.began[1] + sampler.at[2] - sampler.began[2],
           "the loops' time within an operation")
    expect(sampler.slowdown_during(sampler.at[1], sampler.at[2])
           == speed.slowdown(sampler.took[1:3]), "an operation's slowdown")
    for cls in (workloads.ScatterEval, workloads.McOracle):
        ops = cls(HERE).inputs(1, 0, smoke=True)[:2]
        errors, notes = cls(HERE).check(ops, [[{}, None]], _Raises())
        expect(not errors and len(notes) == 1,
               f"{cls.name}: a raising reference gives notes, not errors "
               f"({errors}, {notes})")
    deadline = time.monotonic() + DEADLINE_S
    for name in workloads.WORKLOADS:
        args = argparse.Namespace(workload=name, seed=3, smoke=True,
                                  ref_pkg=SEEDREF, ref_csv=SWEEP_REF)
        metrics, attempted, failed, errors, _ = per_layer(args, deadline)
        expect(failed == 0 and not errors, f"{name}: {errors}")
        layers = {k: v["value"] for k, v in metrics.items()}
        self_total = sum(v for k, v in layers.items()
                         if k.endswith(".self_s")) + layers["quadrature.integrand_s"]
        traced_wall = layers["trace.untraced_wall_s"] + layers["trace.overhead_s"]
        expect(0 < self_total <= traced_wall,
               f"{name} self times {self_total} fit in the wall time {traced_wall}")
        busy = {"sweep-rate": "optimize.evaluations",
                "scatter-eval": "quadrature.samples",
                "mc-oracle": "monte_carlo.trials"}[name]
        expect(layers[busy] > 0, f"{name} counts {busy}")
        print(f"smoke: {name} ok ({layers[busy]} {busy}, {attempted} operations)")
    print("smoke: ok")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--ref-commit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mlharq", "__init__.py")):
        print(f"error: no mlharq sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.smoke:
        try:
            smoke()
        except (BenchError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    deadline = time.monotonic() + DEADLINE_S
    print(machine_facts())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        if args.ref_commit:
            args.ref_pkg, args.ref_csv = reference_from_commit(
                args.ref_commit, "sweep-rate" in names)
            deadline = time.monotonic() + DEADLINE_S
        else:
            args.ref_pkg, args.ref_csv = SEEDREF, SWEEP_REF
        for name in names:
            args.workload = name
            if len(names) > 1:
                deadline = time.monotonic() + DEADLINE_S
            measure = per_layer if args.trace else end_to_end
            m, a, f, errors, lines = measure(args, deadline)
            for line in lines:
                print(line)
            for error in errors:
                print(f"{name}: failed: {error}")
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
            correct = correct and f == 0 and not errors
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
