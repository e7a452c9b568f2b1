"""Span tracer for the traced benchmark run.

The tracer replaces public functions of mlharq at every module that binds
them (``from .x import y`` copies the name into the importing module, so
each binding is wrapped on its own) and records one span per call: layer,
function, start, end and parent span.  Spans live in flat arrays while the
workload runs and are written out once it has finished.  The integrand
handed to the quadrature is wrapped as well; its calls are too many and
too short for spans, so they are counted and timed into the enclosing
quadrature span instead.
"""

import functools
import gzip
import os
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("cli", "sweeps", "optimize", "closed_form", "quadrature",
          "monte_carlo")

_QUADRATURE = LAYERS.index("quadrature")

# Work counts that must repeat exactly between two traced runs of the same
# inputs.
EXACT_COUNTS = ("optimize.evaluations", "quadrature.calls",
                "quadrature.samples", "monte_carlo.trials", "sweeps.points")


class Tracer:
    def __init__(self):
        self._names = []                 # "layer:function", indexed by name id
        self._name_layer = []            # layer index of each name id
        self.name_id = array("l")
        self.layer = array("b")
        self.outer = array("b")          # 1 unless an enclosing span has the same layer
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.integrand_ns = array("q")   # integrand time spent directly in the span
        self._stack = []
        self._depth = [0] * len(LAYERS)
        self._restore = []
        self.counts = {
            "quadrature.integrand_calls": 0,
            "quadrature.samples": 0,
            "quadrature.failures": 0,
            "optimize.evaluations": 0,
            "sweeps.points": 0,
            "sweeps.csv_bytes": 0,
            "monte_carlo.trials": 0,
            "monte_carlo.blocks": 0,
        }
        self.mc_peak_bytes_per_trial = 0.0
        self.mc_calls = 0
        self.mc_plain_ns = 0       # estimate() time and trials without
        self.mc_plain_trials = 0   # tracemalloc

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name_id):
        layer = self._name_layer[name_id]
        sid = len(self.start)
        self.name_id.append(name_id)
        self.layer.append(layer)
        self.outer.append(1 if self._depth[layer] == 0 else 0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.integrand_ns.append(0)
        self.end.append(0)
        self._depth[layer] += 1
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[self.layer[sid]] -= 1

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr, layer, after=None, integrand=False):
        """Replace owner.attr by a traced wrapper; missing names are skipped.

        after(args, kwargs, result) runs when the call returns.  With
        integrand=True the first argument is an integrand to count, unless
        the call is nested in another quadrature call that already counts it.
        """
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return
        name_id = len(self._names)
        self._names.append(f"{layer}:{attr}")
        self._name_layer.append(LAYERS.index(layer))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if integrand and args and not self._depth[_QUADRATURE]:
                args = (self._counted(args[0]),) + args[1:]
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if layer == "quadrature" and self.outer[sid]:
                    self.counts["quadrature.failures"] += 1
                raise
            finally:
                self._close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def _counted(self, f):
        counts = self.counts
        stack = self._stack
        integrand_ns = self.integrand_ns

        def counted(x):
            t0 = time.perf_counter_ns()
            y = f(x)
            integrand_ns[stack[-1]] += time.perf_counter_ns() - t0
            counts["quadrature.integrand_calls"] += 1
            counts["quadrature.samples"] += int(np.size(x))
            return y

        return counted

    def install(self, mlharq_modules, api):
        """Wrap the package bindings and the benchmark's own call sites.

        mlharq_modules maps a module name ("cli", "sweeps", ...) to the
        imported module; api is the namespace the workloads call through.
        """
        cli = mlharq_modules["cli"]
        sweeps = mlharq_modules["sweeps"]
        optimize = mlharq_modules["optimize"]
        closed_form = mlharq_modules["closed_form"]
        quadrature = mlharq_modules["quadrature"]
        monte_carlo = mlharq_modules["monte_carlo"]
        counts = self.counts

        def after_sweep(args, kwargs, rows):
            counts["sweeps.points"] += len(rows)

        def after_write(args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            counts["sweeps.csv_bytes"] += os.path.getsize(path)

        def after_optimize(args, kwargs, opt):
            counts["optimize.evaluations"] += opt.evaluations

        def after_estimate(args, kwargs, report):
            counts["monte_carlo.trials"] += report.trials

        def after_block(args, kwargs, result):
            counts["monte_carlo.blocks"] += 1

        self.wrap(api, "cli_main", "cli")
        self.wrap(cli, "run_sweep", "sweeps", after=after_sweep)
        self.wrap(cli, "write_csv", "sweeps", after=after_write)
        self.wrap(sweeps, "optimize_split", "optimize", after=after_optimize)
        self.wrap(sweeps, "estimate", "monte_carlo", after=after_estimate)
        self.wrap(api, "estimate", "monte_carlo", after=after_estimate)
        self.wrap(monte_carlo, "_run_block", "monte_carlo", after=after_block)
        for attr in sorted(vars(optimize)):
            if attr.startswith(("prob_", "throughput_")):
                self.wrap(optimize, attr, "closed_form")
        for attr in sorted(vars(api)):
            if attr.startswith(("prob_", "throughput_", "event_probs")):
                self.wrap(api, attr, "closed_form")
        self.wrap(closed_form, "integrate_finite", "quadrature", integrand=True)
        self.wrap(closed_form, "integrate_semi_infinite", "quadrature",
                  integrand=True)
        self.wrap(quadrature, "integrate_finite", "quadrature", integrand=True)
        self._measure_estimate(api)

    def _measure_estimate(self, api):
        """Add the tracemalloc peak and the time per trial to api.estimate.

        tracemalloc slows estimate() by about a third, so it runs on every
        other call only, and ns_per_trial is taken from the other calls.
        """
        traced = getattr(api, "estimate", None)
        if traced is None:
            return

        @functools.wraps(traced)
        def measured(protocol, split, cfg, trials, master_seed, workers=None):
            blocks_before = self.counts["monte_carlo.blocks"]
            with_tracemalloc = self.mc_calls % 2 == 0
            self.mc_calls += 1
            if with_tracemalloc:
                tracemalloc.start()
            t0 = time.perf_counter_ns()
            try:
                report = traced(protocol, split, cfg, trials, master_seed,
                                workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                elapsed = time.perf_counter_ns() - t0
                tracemalloc.stop()
            blocks = self.counts["monte_carlo.blocks"] - blocks_before
            if not with_tracemalloc:
                self.mc_plain_ns += elapsed
                self.mc_plain_trials += trials
            elif blocks:
                largest_block = -(-trials // blocks)
                self.mc_peak_bytes_per_trial = max(
                    self.mc_peak_bytes_per_trial, peak / largest_block)
            return report

        api.estimate = measured

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def _arrays(self):
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        dur = (end - start).astype(np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        integ = np.frombuffer(self.integrand_ns, dtype=np.int64,
                              count=n).astype(np.float64)
        layer = np.frombuffer(self.layer, dtype=np.int8, count=n)
        outer = np.frombuffer(self.outer, dtype=np.int8, count=n).astype(bool)
        name_id = np.frombuffer(self.name_id, dtype=np.int64, count=n)
        return dur, dur - child - integ, integ, layer, outer, name_id

    def metrics(self):
        """Per-layer metrics; a layer's calls count only its outermost spans."""
        dur, self_ns, integ, layer, outer, name_id = self._arrays()

        def layer_stats(name):
            mask = layer == LAYERS.index(name)
            outer_mask = mask & outer
            return (int(outer_mask.sum()), float(self_ns[mask].sum()) / 1e9,
                    float(dur[outer_mask].sum()) / 1e9)

        def ratio(a, b, scale=1.0):
            return a / b * scale if b else 0.0

        c = self.counts
        q_calls, q_self, q_incl = layer_stats("quadrature")
        cf_calls, cf_self, cf_incl = layer_stats("closed_form")
        o_calls, o_self, o_incl = layer_stats("optimize")
        _, s_self, _ = layer_stats("sweeps")
        _, cli_self, _ = layer_stats("cli")
        mc_calls, mc_self, _ = layer_stats("monte_carlo")
        integrand_s = float(integ.sum()) / 1e9
        write_ids = [i for i, n in enumerate(self._names) if n == "sweeps:write_csv"]
        write_csv_s = float(dur[np.isin(name_id, write_ids)].sum()) / 1e9
        evaluations = c["optimize.evaluations"]
        return {
            "quadrature.calls": q_calls,
            "quadrature.self_s": q_self,
            "quadrature.us_per_call": ratio(q_incl, q_calls, 1e6),
            "quadrature.integrand_calls": c["quadrature.integrand_calls"],
            "quadrature.samples": c["quadrature.samples"],
            "quadrature.samples_per_call": ratio(c["quadrature.samples"], q_calls),
            "quadrature.integrand_s": integrand_s,
            "quadrature.ns_per_sample": ratio(integrand_s, c["quadrature.samples"], 1e9),
            "quadrature.failures": c["quadrature.failures"],
            "closed_form.calls": cf_calls,
            "closed_form.self_s": cf_self,
            "closed_form.us_per_call": ratio(cf_incl, cf_calls, 1e6),
            "closed_form.quadratures_per_call": ratio(q_calls, cf_calls),
            "optimize.calls": o_calls,
            "optimize.self_s": o_self,
            "optimize.evaluations": evaluations,
            "optimize.us_per_evaluation": ratio(o_incl, evaluations, 1e6),
            "optimize.closed_form_calls_per_evaluation": ratio(cf_calls, evaluations),
            "sweeps.points": c["sweeps.points"],
            "sweeps.self_s": s_self,
            "sweeps.write_csv_s": write_csv_s,
            "sweeps.csv_bytes": c["sweeps.csv_bytes"],
            "cli.self_s": cli_self,
            "monte_carlo.calls": mc_calls,
            "monte_carlo.self_s": mc_self,
            "monte_carlo.trials": c["monte_carlo.trials"],
            "monte_carlo.blocks": c["monte_carlo.blocks"],
            "monte_carlo.ns_per_trial": ratio(self.mc_plain_ns, self.mc_plain_trials),
            "monte_carlo.peak_bytes_per_trial": self.mc_peak_bytes_per_trial,
        }

    def write_spans(self, path):
        """Write every span as gzip CSV: id, parent, name, start/end ns,
        integrand ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns,integrand_ns\n")
            names = self._names
            for sid in range(len(self.start)):
                fh.write(f"{sid},{self.parent[sid]},{names[self.name_id[sid]]},"
                         f"{self.start[sid]},{self.end[sid]},"
                         f"{self.integrand_ns[sid]}\n")
