"""Run one pass over a workload, or check passes, in this fresh interpreter.

run.py starts this script once per pass, from the root of the checkout,
with HARQ_WORKERS=1; the package under test is imported from ./src and
nowhere else.  A pass runs the workload's fixed rounds once and writes
each operation's output, as JSON data, to --outputs.  With --check the
script instead reads the outputs of several passes and checks each against
one reference per operation; it does not import the package under test.
Every 0.1 s it times the calibration loop of speed.py.  The last line of
standard output is one JSON object: per-operation latencies, their sum,
each operation's slowdown against the reference speed and the pass's,
peak RSS, failures and, for a traced
pass, the per-layer metrics; or, with --check, the check failures.
"""

import argparse
import importlib
import importlib.util
import json
import os
import resource
import shutil
import sys
import time
import types

import speed
import workloads
from tracer import EXACT_COUNTS, Tracer

MODULES = ("cli", "sweeps", "optimize", "closed_form", "quadrature",
           "monte_carlo", "model")
CALIBRATE_EVERY_S = 0.1   # between two calibration loops


def import_package(src_dir):
    """Import mlharq from src_dir, refusing a copy found anywhere else."""
    sys.path.insert(0, src_dir)
    modules = {name: importlib.import_module(f"mlharq.{name}")
               for name in MODULES}
    where = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if where != os.path.join(src_dir, "mlharq"):
        raise ImportError(f"mlharq imported from {where}, not {src_dir}")
    return modules


def load_reference(pkg_dir):
    """Load a reference copy of mlharq under a private package name."""
    name = "mlharq_reference"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"),
        submodule_search_locations=[pkg_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("closed_form", "model", "monte_carlo")}


def api_of(modules):
    """The functions the workloads call, gathered where the tracer can wrap
    them without touching the package's own bindings."""
    cf, model = modules["closed_form"], modules["model"]
    return types.SimpleNamespace(
        cli_main=getattr(modules.get("cli"), "main", None),
        event_probs=cf.event_probs,
        prob_sc=cf.prob_sc,
        throughput_ts=cf.throughput_ts,
        throughput_mlh=cf.throughput_mlh,
        throughput_sc=cf.throughput_sc,
        estimate=modules["monte_carlo"].estimate,
        SystemConfig=model.SystemConfig,
        PowerSplit=model.PowerSplit,
    )


def all_inputs(workload, seed, smoke):
    rounds = 1 if smoke else workload.rounds
    return [workload.inputs(seed, r, smoke) for r in range(rounds)]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where a traced pass writes its spans")
    parser.add_argument("--check", action="store_true",
                        help="check the outputs of the passes named by --outputs")
    parser.add_argument("--ref-pkg")
    parser.add_argument("--ref-csv")
    parser.add_argument("--outputs", nargs="+", required=True)
    args = parser.parse_args()

    root = os.getcwd()
    workdir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        rounds = all_inputs(workload, args.seed, args.smoke)
        if args.check:
            result = check(args, workload, rounds)
        else:
            modules = import_package(os.path.join(root, "src"))
            result = measure(args, workload, rounds, modules)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def measure(args, workload, rounds, modules):
    api = api_of(modules)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(modules, api)

    outputs, spans, errors = [], [], []
    # the calibration loop would count as self time of the traced layers
    every_s = None if tracer else CALIBRATE_EVERY_S
    with speed.Sampler(every_s) as sampler:
        for ops in rounds:
            for op in ops:
                t0 = time.perf_counter()
                try:
                    result, ok = workload.run(api, op), True
                except Exception as exc:
                    errors.append(f"{op}: {type(exc).__name__}: {exc}")
                    ok = False
                spans.append((t0, time.perf_counter()))
                outputs.append(workload.collect(op, result) if ok else None)
    latencies = [end - start - sampler.busy_during(start, end)
                 for start, end in spans]

    out = {"latencies": latencies, "wall_s": sum(latencies),
           "slowdowns": [sampler.slowdown_during(*span) for span in spans],
           "slowdown": speed.slowdown(sampler.took),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "failed": len(errors), "errors": errors[:20]}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        out["layers"] = layers
        out["counts"] = {name: layers[name] for name in EXACT_COUNTS}
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.outputs[0], "w", encoding="utf-8") as fh:
        json.dump(outputs, fh)
    return out


def check(args, workload, rounds):
    ops = [op for ops in rounds for op in ops]
    passes = []
    for path in args.outputs:
        with open(path, encoding="utf-8") as fh:
            passes.append(json.load(fh))
    if args.workload == "sweep-rate":
        with open(args.ref_csv, encoding="ascii") as fh:
            ref = fh.read()
    else:
        ref = api_of(load_reference(args.ref_pkg))
    errors, notes = workload.check(ops, passes, ref)
    return {"failed": len(errors), "errors": errors[:20], "notes": notes[:20],
            "reference_raised": len(notes)}


if __name__ == "__main__":
    main()
