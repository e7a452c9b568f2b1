"""The names the benchmark binds in the package.

perfbench/worker.py's api_of gathers the functions its workloads call, and
perfbench/tracer.py's Tracer.install wraps package bindings by name to
time each layer.  The tracer skips a missing name without a word, so a
refactor that renames or drops one of them would quietly stop timing a
layer (as closed_form's integrate_semi_infinite did).  These tests fail
instead.
"""

import pytest

from mlharq import cli, closed_form, model, monte_carlo, optimize, quadrature, sweeps

# api_of's bindings
API = [(cli, "main"), (model.SystemConfig, "from_snr_db"), (model, "PowerSplit"),
       (closed_form, "event_probs"), (closed_form, "prob_sc"),
       (closed_form, "throughput_ts"), (closed_form, "throughput_mlh"),
       (closed_form, "throughput_sc"), (monte_carlo, "estimate")]
# the bindings that Tracer.install wraps by name
TRACED = [(cli, "run_sweep"), (cli, "write_csv"), (sweeps, "optimize_split"),
          (sweeps, "estimate"), (monte_carlo, "_run_block"),
          (closed_form, "integrate_finite"), (quadrature, "integrate_finite")]


@pytest.mark.parametrize("owner, name", API + TRACED,
                         ids=[f"{owner.__name__}.{name}" for owner, name in API + TRACED])
def test_the_benchmark_finds_it(owner, name):
    assert callable(getattr(owner, name, None))


def test_optimize_binds_a_closed_form_the_tracer_times():
    """Tracer.install times optimize's prob_* and throughput_* bindings as
    the closed_form layer."""
    assert any(callable(fn) for name, fn in vars(optimize).items()
               if name.startswith(("prob_", "throughput_")))
