"""Adaptive one-dimensional quadrature for the outage-probability integrands.

The integrands are piecewise-smooth: products of exponentials with kinks
where a max(...) or positive-part branch switches.  The driver pre-splits
the interval at caller-supplied kink locations and then refines adaptively,
estimating the error on each panel from an embedded low/high-order
Gauss-Legendre pair.  Integrands are evaluated on numpy arrays of sample
points, one batched call per refinement round.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSettings",
    "NonConvergence",
    "integrate_finite",
    "integrate_semi_infinite",
]


@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000   # cap on the total number of panels
    tail_epsilon: float = 1e-14    # truncation level for semi-infinite tails

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_subdivisions < 10:
            raise ValueError(
                f"max_subdivisions must be >= 10, got {self.max_subdivisions}"
            )
        if not self.tail_epsilon > 0:
            raise ValueError(
                f"tail_epsilon must be > 0, got {self.tail_epsilon}"
            )


DEFAULT_SETTINGS = QuadratureSettings()


class NonConvergence(RuntimeError):
    """Error estimate still above tolerance after the panel budget is spent."""

    def __init__(self, estimate, error, panels):
        super().__init__(
            f"quadrature did not converge: estimate={estimate!r}, "
            f"error={error!r} with {panels} panels"
        )
        self.estimate = estimate
        self.error = error
        self.panels = panels


# Embedded rule pair: value from GL15, error from |GL15 - GL7|.  Nodes are
# interior, so integrands are never sampled at panel edges (where a kink or
# a removable division may sit).
_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)
_NODES = np.concatenate([_X7, _X15])


def _rule_batch(f, lo, hi):
    """Apply the rule pair to a batch of panels [lo_i, hi_i]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(f(x.reshape(-1)), dtype=float).reshape(x.shape)
    coarse = (y[:, :7] @ _W7) * half
    fine = (y[:, 7:] @ _W15) * half
    return fine, np.abs(fine - coarse)


def integrate_finite(f, a, b, breakpoints=None,
                     settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Integrate f over [a, b] with error <= max(abs_tol, rel_tol*|result|).

    breakpoints lists known kink locations; the interval is split there
    before any refinement (points outside (a, b) are ignored).  Passing
    None means "kink locations unknown", which triggers a uniform 64-panel
    pre-split as a safety net.  f must accept a numpy array of sample
    points and return the integrand values elementwise.

    Raises NonConvergence if the panel budget runs out first.
    """
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0

    if breakpoints is None:
        edges = np.linspace(a, b, 65)
    else:
        interior = sorted({float(p) for p in breakpoints if a < p < b})
        edges = np.array([a, *interior, b], dtype=float)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    width = b - a

    vals, errs = _rule_batch(f, lo, hi)
    while True:
        total = float(vals.sum())
        err_total = float(errs.sum())
        tol = max(settings.abs_tol, settings.rel_tol * abs(total))
        if err_total <= tol:
            return total

        # Split every panel holding more than its width-proportional share
        # of the budget; always at least the worst one.
        share = tol * (hi - lo) / width
        split = errs > share
        if not split.any():
            split[int(np.argmax(errs))] = True
        n_new = len(lo) + int(split.sum())
        if n_new > settings.max_subdivisions:
            raise NonConvergence(total, err_total, len(lo))

        s_lo, s_hi = lo[split], hi[split]
        s_mid = 0.5 * (s_lo + s_hi)
        child_lo = np.concatenate([s_lo, s_mid])
        child_hi = np.concatenate([s_mid, s_hi])
        child_vals, child_errs = _rule_batch(f, child_lo, child_hi)

        keep = ~split
        lo = np.concatenate([lo[keep], child_lo])
        hi = np.concatenate([hi[keep], child_hi])
        vals = np.concatenate([vals[keep], child_vals])
        errs = np.concatenate([errs[keep], child_errs])


def integrate_semi_infinite(f, a, decay_scale, breakpoints=None,
                            settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Integrate f over [a, inf) for integrands bounded by C*exp(-g/decay_scale).

    Truncates at a + decay_scale*ln(1/tail_epsilon) and delegates to
    integrate_finite; the discarded tail is at most C*decay_scale*
    tail_epsilon, well inside abs_tol for the envelopes used here.
    """
    if not decay_scale > 0:
        raise ValueError(f"decay_scale must be > 0, got {decay_scale}")
    b = a + decay_scale * math.log(1.0 / settings.tail_epsilon)
    return integrate_finite(f, a, b, breakpoints=breakpoints, settings=settings)
