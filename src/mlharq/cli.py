"""Command-line interface: closed-form evaluation, simulation, optimization,
CSV sweeps, and closed-form-vs-Monte-Carlo validation.

Exit codes: 0 success, 1 usage or validation error, 2 numerical failure
(quadrature non-convergence), 3 validation-suite failure.  Diagnostics go
to standard error; results go to standard output as JSON (single
evaluations) or CSV (sweeps).  The commands run with numpy's default
floating-point error handling: the library silences the overflows and
divisions by zero that its closed forms intend, so no RuntimeWarning
reaches stderr.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .closed_form import (
    event_probs,
    mlh_throughput_from_probs,
    prob_sc,
    sc_throughput_from_probs,
    throughput_ts,
)
from .model import PROTOCOLS, PowerSplit, SystemConfig
from .monte_carlo import estimate
from .optimize import optimize_rate_and_split, optimize_split
from .quadrature import DEFAULT_SETTINGS, NonConvergence, QuadratureSettings
from .sweeps import SWEEP_KINDS, SweepSpec, run_sweep, write_csv

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_scenario_args(sub):
    sub.add_argument("--protocol", required=True, choices=PROTOCOLS)
    sub.add_argument("--rate", type=float, help="per-message rate, bits per channel use")
    sub.add_argument("--snr-db", type=float, required=True)
    sub.add_argument("--sigma2", type=float, default=1.0,
                     help="mean channel gain (default 1.0)")


def _add_split_args(sub):
    sub.add_argument("--alpha", type=float, help="slot-1 power share of m1")
    sub.add_argument("--beta", type=float, help="slot-2 power share of m1")


def _add_quadrature_args(sub):
    sub.add_argument("--abs-tol", type=float, default=DEFAULT_SETTINGS.abs_tol)
    sub.add_argument("--rel-tol", type=float, default=DEFAULT_SETTINGS.rel_tol)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlharq",
                     description="Two-message retransmission-scheme throughput toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="closed-form probabilities and throughput")
    _add_scenario_args(p_eval)
    _add_split_args(p_eval)
    _add_quadrature_args(p_eval)

    p_sim = subs.add_parser("simulate", help="Monte-Carlo estimate of one scenario")
    _add_scenario_args(p_sim)
    _add_split_args(p_sim)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)

    p_opt = subs.add_parser("optimize", help="maximize throughput over the splits")
    _add_scenario_args(p_opt)
    p_opt.add_argument("--opt-rate", action="store_true",
                       help="optimize the rate as well (--rate is then ignored)")
    p_opt.add_argument("--grid-step", type=float, default=0.01)
    p_opt.add_argument("--refine-tol", type=float, default=1e-4)
    _add_quadrature_args(p_opt)

    p_sweep = subs.add_parser("sweep", help="write one figure's data as CSV")
    p_sweep.add_argument("--kind", required=True, choices=sorted(SWEEP_KINDS))
    p_sweep.add_argument("--snr-db", type=float, help="fixed SNR for rate sweeps")
    p_sweep.add_argument("--rate", type=float, help="fixed rate for t-vs-snr sweeps")
    p_sweep.add_argument("--sigma2", type=float, default=1.0)
    p_sweep.add_argument("--axis-min", type=float)
    p_sweep.add_argument("--axis-max", type=float)
    p_sweep.add_argument("--axis-step", type=float)
    p_sweep.add_argument("--protocols", default=",".join(PROTOCOLS),
                         help="comma-separated subset of %(default)s")
    p_sweep.add_argument("--grid-step", type=float, default=0.01)
    p_sweep.add_argument("--refine-tol", type=float, default=1e-4)
    p_sweep.add_argument("--trials", type=int, default=0,
                         help="if > 0, re-evaluate optimized points by Monte-Carlo")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", required=True)
    _add_quadrature_args(p_sweep)

    p_val = subs.add_parser("validate",
                            help="randomized closed-form vs Monte-Carlo cross-checks")
    p_val.add_argument("--configs", type=int, default=20)
    p_val.add_argument("--trials", type=int, default=1_000_000)
    p_val.add_argument("--seed", type=int, default=7)
    _add_quadrature_args(p_val)
    return parser


def _settings(args) -> QuadratureSettings:
    return QuadratureSettings(args.abs_tol, args.rel_tol)


def _require_rate(args):
    if args.rate is None:
        raise _UsageError("--rate is required")
    return args.rate


def _split_for(args) -> PowerSplit:
    proto = args.protocol
    if proto == "ts":
        if args.alpha is not None or args.beta is not None:
            raise _UsageError("protocol ts takes no --alpha/--beta")
        return PowerSplit(alpha=1.0, beta=1.0)
    if proto == "sc":
        if args.alpha is None:
            raise _UsageError("protocol sc needs --alpha")
        if args.beta is not None:
            raise _UsageError("protocol sc takes --alpha only (slot 2 reuses it)")
        return PowerSplit(alpha=args.alpha, beta=args.alpha)
    if args.alpha is None or args.beta is None:
        raise _UsageError("protocol mlh needs --alpha and --beta")
    return PowerSplit(alpha=args.alpha, beta=args.beta)


def _print_json(obj):
    print(json.dumps(obj, indent=2))


def _cmd_eval(args) -> int:
    cfg = SystemConfig.from_snr_db(args.snr_db, _require_rate(args), args.sigma2)
    split = _split_for(args)
    settings = _settings(args)
    out = {
        "protocol": args.protocol,
        "rate": cfg.rate_R,
        "snr_db": args.snr_db,
        "sigma2": cfg.sigma2,
        "power": cfg.power_P,
        "alpha": split.alpha,
        "beta": split.beta,
    }
    if args.protocol == "sc":
        probs = prob_sc(split.alpha, cfg, settings)
        out["sc_probs"] = probs.as_dict()
        out["throughput"] = sc_throughput_from_probs(probs, cfg)
    else:
        probs = event_probs(split, cfg, settings)
        out["event_probs"] = probs.as_dict()
        if args.protocol == "ts":
            out["throughput"] = throughput_ts(cfg, settings)
        else:
            out["throughput"] = mlh_throughput_from_probs(probs, cfg)
    _print_json(out)
    return 0


def _cmd_simulate(args) -> int:
    cfg = SystemConfig.from_snr_db(args.snr_db, _require_rate(args), args.sigma2)
    split = _split_for(args)
    report = estimate(args.protocol, split, cfg, trials=args.trials,
                      master_seed=args.seed)
    out = {
        "protocol": report.protocol,
        "rate": cfg.rate_R,
        "snr_db": args.snr_db,
        "sigma2": cfg.sigma2,
        "alpha": split.alpha,
        "beta": split.beta,
        "trials": report.trials,
        "master_seed": report.master_seed,
    }
    if report.event_probs is not None:
        out["event_probs"] = report.event_probs.as_dict()
    if report.sc_probs is not None:
        out["sc_probs"] = report.sc_probs.as_dict()
    out["none_prob"] = report.none_prob
    out["throughput"] = {"mean": report.throughput.mean,
                         "std_err": report.throughput.std_err,
                         "trials": report.throughput.trials}
    _print_json(out)
    return 0


def _cmd_optimize(args) -> int:
    settings = _settings(args)
    if args.opt_rate:
        cfg = SystemConfig.from_snr_db(args.snr_db, 1.0, args.sigma2)
        opt = optimize_rate_and_split(args.protocol, cfg,
                                      grid_step=args.grid_step,
                                      refine_tol=args.refine_tol,
                                      settings=settings)
        rate_field = None
    else:
        cfg = SystemConfig.from_snr_db(args.snr_db, _require_rate(args), args.sigma2)
        opt = optimize_split(args.protocol, cfg, grid_step=args.grid_step,
                             refine_tol=args.refine_tol, settings=settings)
        rate_field = cfg.rate_R
    _print_json({
        "protocol": args.protocol,
        "rate": rate_field,
        "snr_db": args.snr_db,
        "sigma2": args.sigma2,
        "alpha_star": opt.alpha_star,
        "beta_star": opt.beta_star,
        "rate_star": opt.rate_star,
        "throughput_star": opt.throughput_star,
        "evaluations": opt.evaluations,
    })
    return 0


_SWEEP_AXIS_DEFAULTS = {
    "rate": (0.1, 6.0, 0.1),
    "snr_fixed_rate": (-5.0, 40.0, 1.0),
    "snr_opt_rate": (-5.0, 40.0, 1.0),
}


def _cmd_sweep(args) -> int:
    mode = SWEEP_KINDS[args.kind]
    lo, hi, step = _SWEEP_AXIS_DEFAULTS[mode]
    spec = SweepSpec(
        kind=args.kind,
        axis_min=args.axis_min if args.axis_min is not None else lo,
        axis_max=args.axis_max if args.axis_max is not None else hi,
        axis_step=args.axis_step if args.axis_step is not None else step,
        protocols=tuple(p.strip() for p in args.protocols.split(",") if p.strip()),
        snr_db=args.snr_db,
        rate=args.rate,
        sigma2=args.sigma2,
        grid_step=args.grid_step,
        refine_tol=args.refine_tol,
        mc_trials=args.trials,
        master_seed=args.seed,
    )
    rows = run_sweep(spec, settings=_settings(args))
    write_csv(rows, args.out)
    print(len(rows))
    return 0


def _cmd_validate(args) -> int:
    if args.configs < 1:
        raise _UsageError(f"--configs must be >= 1, got {args.configs}")
    settings = _settings(args)
    rng = np.random.default_rng(args.seed)
    failures = 0
    print(f"{'cfg':>3} {'rate':>7} {'snr_db':>7} {'alpha':>6} {'beta':>6} "
          f"{'worst_z':>8} result")
    for i in range(args.configs):
        rate = rng.uniform(0.25, 4.0)
        snr_db = rng.uniform(-5.0, 20.0)
        alpha = rng.uniform(0.05, 0.95)
        beta = rng.uniform(0.05, 0.95)
        cfg = SystemConfig.from_snr_db(snr_db, rate)
        split = PowerSplit(alpha=alpha, beta=beta)
        seed_i = args.seed * 1_000_003 + i

        worst = 0.0
        mlh = estimate("mlh", split, cfg, trials=args.trials, master_seed=seed_i)
        cf = event_probs(split, cfg, settings)
        for name, p_hat in mlh.event_probs.as_dict().items():
            worst = max(worst, _z_score(getattr(cf, name), p_hat, args.trials))
        sc = estimate("sc", split, cfg, trials=args.trials, master_seed=seed_i + 1)
        cf_sc = prob_sc(alpha, cfg, settings)
        for name, p_hat in sc.sc_probs.as_dict().items():
            worst = max(worst, _z_score(getattr(cf_sc, name), p_hat, args.trials))

        ok = worst <= 4.0
        failures += 0 if ok else 1
        print(f"{i:>3} {rate:>7.3f} {snr_db:>7.2f} {alpha:>6.3f} {beta:>6.3f} "
              f"{worst:>8.2f} {'PASS' if ok else 'FAIL'}")
    passed = args.configs - failures
    print(f"{passed}/{args.configs} pass")
    return 0 if failures == 0 else 3


def _z_score(p_closed: float, p_hat: float, trials: int) -> float:
    # binomial standard error with a 1/trials floor so exact zeros compare
    se = max(math.sqrt(p_hat * (1.0 - p_hat) / trials), 1.0 / trials)
    return abs(p_closed - p_hat) / se


_COMMANDS = {
    "eval": _cmd_eval,
    "simulate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process, at the first main() call: parsing
    leaves a parser as it found it, and building one costs more than a
    time-sharing sweep point."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
