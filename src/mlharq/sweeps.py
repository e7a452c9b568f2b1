"""Scenario runner: regenerates the throughput / optimal-split / optimal-rate
curves as CSV data files (rendering is left to external tooling)."""

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .model import PROTOCOLS, PowerSplit, SystemConfig
from .monte_carlo import estimate
from .optimize import optimize_rate_and_split, optimize_split
from .quadrature import QuadratureSettings

__all__ = ["SweepSpec", "SweepRow", "run_sweep", "write_csv"]


# Kinds sharing a computation differ only in which columns the figure plots.
SWEEP_KINDS = {
    "t-vs-rate": "rate",
    "splits-vs-rate": "rate",
    "t-vs-snr": "snr_fixed_rate",
    "splits-vs-snr": "snr_fixed_rate",
    "t-vs-snr-opt-rate": "snr_opt_rate",
    "splits-vs-snr-opt-rate": "snr_opt_rate",
    "rate-star-vs-snr": "snr_opt_rate",
}

CSV_HEADER = "protocol,snr_db,rate,alpha,beta,throughput,source,trials,seed"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis grid, the fixed parameters, and the protocols.

    Rate sweeps fix snr_db and walk the rate axis; SNR sweeps walk the SNR
    axis with either a fixed or a re-optimized rate.  With mc_trials > 0
    every optimized point is re-evaluated by the Monte-Carlo estimator and
    emitted as a monte_carlo-source row instead of the closed-form value.
    """

    kind: str
    axis_min: float
    axis_max: float
    axis_step: float
    protocols: tuple = PROTOCOLS
    snr_db: Optional[float] = None     # fixed SNR for rate sweeps
    rate: Optional[float] = None       # fixed rate for t-vs-snr sweeps
    sigma2: float = 1.0
    grid_step: float = 0.01
    refine_tol: float = 1e-4
    mc_trials: int = 0
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValueError(
                f"unknown sweep kind {self.kind!r}, expected one of "
                f"{sorted(SWEEP_KINDS)}")
        if not self.axis_step > 0:
            raise ValueError(f"axis_step must be > 0, got {self.axis_step}")
        if self.axis_max < self.axis_min:
            raise ValueError("axis_max must be >= axis_min")
        mode = SWEEP_KINDS[self.kind]
        if mode == "rate" and self.snr_db is None:
            raise ValueError(f"kind {self.kind!r} needs a fixed snr_db")
        if mode == "snr_fixed_rate" and self.rate is None:
            raise ValueError(f"kind {self.kind!r} needs a fixed rate")
        if not self.protocols:
            raise ValueError("protocols must be nonempty")
        for proto in self.protocols:
            if proto not in PROTOCOLS:
                raise ValueError(f"unknown protocol {proto!r}")

    def axis_values(self) -> list[float]:
        n = int(math.floor((self.axis_max - self.axis_min) / self.axis_step + 1e-9))
        return [self.axis_min + k * self.axis_step for k in range(n + 1)]


@dataclass(frozen=True)
class SweepRow:
    protocol: str
    snr_db: float
    rate: float
    alpha: float
    beta: float
    throughput: float
    source: str      # closed_form | monte_carlo
    trials: int      # 0 for closed_form rows
    seed: int

    def __post_init__(self):
        if self.throughput < 0:
            raise ValueError(f"throughput must be >= 0, got {self.throughput}")
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("alpha and beta must be in [0, 1]")


def _point_row(spec, protocol, snr_db, cfg, settings):
    mode = SWEEP_KINDS[spec.kind]
    if mode == "snr_opt_rate":
        opt = optimize_rate_and_split(
            protocol, cfg, grid_step=spec.grid_step,
            refine_tol=spec.refine_tol, settings=settings)
        rate = opt.rate_star
    else:
        opt = optimize_split(protocol, cfg, grid_step=spec.grid_step,
                             refine_tol=spec.refine_tol, settings=settings)
        rate = cfg.rate_R

    throughput = opt.throughput_star
    source, trials, seed = "closed_form", 0, 0
    if spec.mc_trials > 0:
        split = PowerSplit(alpha=opt.alpha_star, beta=opt.beta_star)
        report = estimate(protocol, split, replace(cfg, rate_R=rate),
                          trials=spec.mc_trials, master_seed=spec.master_seed)
        throughput = report.throughput.mean
        source, trials, seed = "monte_carlo", spec.mc_trials, spec.master_seed
    return SweepRow(protocol=protocol, snr_db=snr_db, rate=rate,
                    alpha=opt.alpha_star, beta=opt.beta_star,
                    throughput=throughput, source=source, trials=trials,
                    seed=seed)


def run_sweep(spec: SweepSpec,
              settings: Optional[QuadratureSettings] = None) -> list[SweepRow]:
    """Optimize every (protocol, axis point) of the sweep and emit rows.

    A failed point aborts the sweep with a diagnostic naming it.
    """
    mode = SWEEP_KINDS[spec.kind]
    rows = []
    for protocol in sorted(set(spec.protocols)):
        for x in spec.axis_values():
            if mode == "rate":
                snr_db = spec.snr_db
                cfg = SystemConfig.from_snr_db(snr_db, x, sigma2=spec.sigma2)
            elif mode == "snr_fixed_rate":
                snr_db = x
                cfg = SystemConfig.from_snr_db(snr_db, spec.rate,
                                               sigma2=spec.sigma2)
            else:
                snr_db = x
                # rate_R placeholder; optimize_rate_and_split replaces it
                cfg = SystemConfig.from_snr_db(snr_db, 1.0, sigma2=spec.sigma2)
            try:
                rows.append(_point_row(spec, protocol, snr_db, cfg, settings))
            except Exception as exc:
                # name the point but keep the type, so that the CLI still
                # maps the failure to its exit code
                exc.args = (f"sweep point failed: protocol={protocol}, "
                            f"axis={x!r} ({spec.kind}): {exc}",)
                raise
    rows.sort(key=lambda row: (row.protocol, row.snr_db, row.rate))
    return rows


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_csv(rows: Sequence[SweepRow], path: str) -> None:
    """Write rows to CSV: fixed header, 12 significant digits, \\n endings."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join([
            row.protocol, _fmt(row.snr_db), _fmt(row.rate), _fmt(row.alpha),
            _fmt(row.beta), _fmt(row.throughput), row.source,
            str(row.trials), str(row.seed),
        ]))
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IOError(f"cannot write sweep CSV to {path!r}: {exc}") from exc
