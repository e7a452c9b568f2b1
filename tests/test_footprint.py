"""What `import mlharq` loads.

Closed forms, optimization and sweeps need neither numpy.random, nor a
process pool, nor numpy.polynomial.  numpy.random loads at the first
simulated block, concurrent.futures only for workers > 1, and the rule
tables are literals.  Each check runs in a fresh interpreter and is held
against a bare `import numpy` in the same kind of interpreter: numpy 1.x
loads numpy.random itself.
"""

import json
import os
import subprocess
import sys

import pytest

import mlharq
from mlharq.model import PowerSplit, SystemConfig
from mlharq.monte_carlo import estimate

HEAVY = ("numpy.random", "concurrent.futures", "numpy.polynomial")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(mlharq.__file__)))

# prints, after each step, the HEAVY modules loaded so far
PROBE = """
import json, sys

def heavy():
    print(json.dumps(sorted(m for m in sys.modules
                            if any(m == h or m.startswith(h + ".")
                                   for h in {heavy!r}))))

{code}
"""
# the estimate of the determinism tests in tests/test_monte_carlo.py (TestEstimate)
ESTIMATE = ("mlh", PowerSplit(0.3, 0.8), SystemConfig(rate_R=1.0, power_P=2.0))


def _run(code):
    """The lines that PROBE around code prints in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE.format(heavy=HEAVY, code=code)],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


@pytest.fixture(scope="module")
def bare():
    (line,) = _run("import numpy\nheavy()")
    return set(json.loads(line))


@pytest.mark.parametrize("module", ["mlharq", "mlharq.cli"])
def test_import_loads_no_simulation_or_rule_machinery(bare, module):
    protocol, split, cfg = ESTIMATE
    imported, report, simulated = _run(f"""
import {module}
heavy()
from mlharq.model import PowerSplit, SystemConfig
from mlharq.monte_carlo import estimate
print(repr(estimate({protocol!r}, {split!r}, {cfg!r}, trials=30_000,
                    master_seed=5, workers=1)))
heavy()
""")
    assert set(json.loads(imported)) <= bare
    # the first block loads numpy.random; one worker starts no pool
    assert report == repr(estimate(protocol, split, cfg, trials=30_000,
                                   master_seed=5, workers=1))
    simulated = set(json.loads(simulated))
    assert "numpy.random" in simulated
    assert not any(m.startswith("concurrent.futures") for m in simulated - bare)
