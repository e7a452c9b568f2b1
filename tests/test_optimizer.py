"""Tests for the split/rate optimizer."""

import math
import re
import tracemalloc
from types import SimpleNamespace

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlharq import closed_form, optimize
from mlharq.closed_form import (
    EventProbs,
    mlh_throughput_from_probs,
    prob_p0,
    prob_p1,
    prob_p2,
    prob_p3,
    prob_p4,
    prob_sc,
    throughput_mlh,
    throughput_sc,
    throughput_ts,
)
from mlharq.model import PowerSplit, SystemConfig
from mlharq.optimize import (
    Optimum,
    _axis_points,
    _Search,
    _values,
    optimize_rate_and_split,
    optimize_split,
)
from mlharq.quadrature import NonConvergence, QuadratureSettings

CFG_3DB = SystemConfig.from_snr_db(3.0, 1.0)


def scalar_search(protocol, cfg, grid_step=0.01, refine_tol=1e-4, settings=None):
    """optimize_split for mlh or sc, one closed-form call per point.

    The reference for the batched search: the same grid, windows, mirror
    indices, arithmetic and tie-break, on the public scalar closed forms.
    The one difference is the order of the mlh coarse objective's sum:
    here the slot-1 terms first, where the search sums in
    mlh_throughput_from_probs' order, as its windows and throughput_mlh
    do; the coarse values may differ in their last bit, the Optimum must
    not.
    """
    n = max(1, round(1.0 / grid_step))
    pts = [i / n for i in range(n + 1)]
    best = (-math.inf, -1.0, -1.0)
    evaluations = 0

    def offer(value, a, b):
        nonlocal best, evaluations
        evaluations += 1
        best = max(best, (value, a, b))

    def window(center, step):
        return sorted({min(1.0, max(0.0, center + k * step)) for k in range(-10, 11)})

    if protocol == "sc":
        for a in pts:
            offer(throughput_sc(a, cfg, settings), a, a)
    else:
        for i, a in enumerate(pts):
            m = pts[n - i]
            p0 = prob_p0(a, cfg)
            base = (2.0 * p0 + 2.0 * (prob_p1(a, cfg, settings)
                                      + prob_p1(m, cfg, settings))
                    + prob_p2(a, cfg, settings) + prob_p2(m, cfg, settings))
            for j, b in enumerate(pts):
                ci, cj = min((i, j), (n - i, n - j))
                q = (base + 2.0 * prob_p3(pts[ci], pts[cj], cfg, settings)
                     + prob_p4(a, b, cfg, settings)
                     + prob_p4(m, pts[n - j], cfg, settings))
                offer(cfg.rate_R * q / (2.0 - p0), a, b)

    step = grid_step
    while 2.0 * step > refine_tol:
        step /= 10.0
        _, a0, b0 = best
        for a in window(a0, step):
            if protocol == "sc":
                offer(throughput_sc(a, cfg, settings), a, a)
            else:
                for b in window(b0, step):
                    offer(throughput_mlh(PowerSplit(a, b), cfg, settings), a, b)

    _, a, b = best
    value = (throughput_sc(a, cfg, settings) if protocol == "sc"
             else throughput_mlh(PowerSplit(a, b), cfg, settings))
    return Optimum(alpha_star=a, beta_star=b, rate_star=None,
                   throughput_star=value, evaluations=evaluations)


class TestOptimizeSplit:
    def test_ts_is_trivial(self):
        opt = optimize_split("ts", CFG_3DB)
        assert opt.alpha_star == 1.0 and opt.beta_star == 1.0
        assert opt.rate_star is None
        assert opt.throughput_star == throughput_ts(CFG_3DB)

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            optimize_split("noma", CFG_3DB)

    def test_reported_value_reproducible(self):
        opt = optimize_split("mlh", CFG_3DB, grid_step=0.05, refine_tol=1e-3)
        again = throughput_mlh(PowerSplit(opt.alpha_star, opt.beta_star), CFG_3DB)
        assert abs(opt.throughput_star - again) <= 1e-10

    @pytest.mark.parametrize("snr_db, rate", [(3.0, 1.0), (3.0, 0.3), (-4.0, 0.8),
                                              (25.0, 2.3), (40.0, 12.0)])
    def test_sc_value_is_throughput_sc_at_the_split(self, snr_db, rate):
        """The sc search returns its best offer's value, not a fresh
        integration; it must still be throughput_sc's bits at alpha_star."""
        cfg = SystemConfig.from_snr_db(snr_db, rate)
        opt = optimize_split("sc", cfg)
        assert float.hex(opt.throughput_star) == \
            float.hex(throughput_sc(opt.alpha_star, cfg))

    @pytest.mark.parametrize("snr_db, rate, grid_step, refine_tol", [
        (3.0, 1.0, 0.01, 1e-4), (3.0, 0.3, 0.01, 1e-4), (-4.0, 0.8, 0.01, 1e-4),
        (25.0, 2.3, 0.01, 1e-4), (10.0, 4.3, 0.01, 1e-4),
        (3.0, 1.0, 0.1, 0.2),   # 2 * grid_step <= refine_tol: no window
    ])
    def test_mlh_value_is_throughput_mlh_at_the_split(self, snr_db, rate,
                                                      grid_step, refine_tol):
        """The mlh search returns the last window's value at its incumbent
        (or the objective there, with no window); it must be
        throughput_mlh's bits at the split."""
        cfg = SystemConfig.from_snr_db(snr_db, rate)
        opt = optimize_split("mlh", cfg, grid_step=grid_step,
                             refine_tol=refine_tol)
        split = PowerSplit(opt.alpha_star, opt.beta_star)
        assert float.hex(opt.throughput_star) == \
            float.hex(throughput_mlh(split, cfg))

    def test_beats_brute_force_grid(self):
        opt = optimize_split("mlh", CFG_3DB, grid_step=0.05, refine_tol=1e-3)
        brute = max(throughput_mlh(PowerSplit(i / 20, j / 20), CFG_3DB)
                    for i in range(21) for j in range(21))
        assert opt.throughput_star >= brute - 1e-12

    def test_sc_argmax_matches_dense_brute_force(self):
        """The refined argmax lands within one refinement box (plus the
        brute-force pitch) of an exhaustive 0.001-step scan."""
        opt = optimize_split("sc", CFG_3DB, refine_tol=1e-3)
        values = [throughput_sc(i / 1000, CFG_3DB) for i in range(1001)]
        brute_alpha = max(range(1001), key=lambda i: (values[i], i)) / 1000
        assert opt.throughput_star >= max(values) - 1e-10
        assert min(abs(opt.alpha_star - brute_alpha),
                   abs(opt.alpha_star - (1.0 - brute_alpha))) <= 2e-3

    def test_no_improvement_from_random_probes(self):
        rng = np.random.default_rng(77)
        for protocol in ("mlh", "sc"):
            opt = optimize_split(protocol, CFG_3DB, grid_step=0.05,
                                 refine_tol=1e-3)
            for _ in range(100):
                a, b = rng.uniform(0.0, 1.0, size=2)
                if protocol == "sc":
                    probe = throughput_sc(a, CFG_3DB)
                else:
                    probe = throughput_mlh(PowerSplit(a, b), CFG_3DB)
                # the refinement box bounds how far a probe can exceed the
                # reported maximum
                assert probe <= opt.throughput_star + 1e-6

    def test_mlh_at_least_ts(self):
        for snr_db in (-5.0, 3.0, 10.0):
            for r in (0.5, 1.0, 4.0):
                cfg = SystemConfig.from_snr_db(snr_db, r)
                mlh = optimize_split("mlh", cfg, grid_step=0.05, refine_tol=1e-3)
                assert mlh.throughput_star >= throughput_ts(cfg) - 1e-9

    def test_large_rate_prefers_time_sharing_corner(self):
        cfg = SystemConfig.from_snr_db(3.0, 4.0)
        opt = optimize_split("mlh", cfg, grid_step=0.05, refine_tol=1e-3)
        assert opt.alpha_star >= 0.99
        assert opt.beta_star >= 0.99

    def test_sc_mirror_attains_same_value(self):
        opt = optimize_split("sc", CFG_3DB)
        mirrored = throughput_sc(1.0 - opt.alpha_star, CFG_3DB)
        assert abs(mirrored - opt.throughput_star) <= 1e-9

    def test_deterministic(self):
        a = optimize_split("mlh", CFG_3DB, grid_step=0.1, refine_tol=1e-3)
        b = optimize_split("mlh", CFG_3DB, grid_step=0.1, refine_tol=1e-3)
        assert a == b

    def test_scaling_invariance(self):
        """Scaling sigma2 by c and P by 1/c changes nothing, argmax included."""
        c = 3.7
        cfg_a = SystemConfig(rate_R=1.3, power_P=2.7, sigma2=1.0)
        cfg_b = SystemConfig(rate_R=1.3, power_P=2.7 * c, sigma2=1.0 / c)
        for a, b in ((0.3, 0.6), (0.55, 0.5), (1.0, 1.0)):
            split = PowerSplit(a, b)
            assert abs(throughput_mlh(split, cfg_a)
                       - throughput_mlh(split, cfg_b)) <= 1e-12
        opt_a = optimize_split("sc", cfg_a, grid_step=0.1, refine_tol=1e-3)
        opt_b = optimize_split("sc", cfg_b, grid_step=0.1, refine_tol=1e-3)
        assert opt_a.alpha_star == opt_b.alpha_star
        assert abs(opt_a.throughput_star - opt_b.throughput_star) <= 1e-12


def _repr_cases():
    """The default search for both protocols at six configs, the last of
    which (3 dB, R = 2.8) keeps the time-sharing corner from the coarse
    grid on, so its three windows run in one speculative call; the sc
    search at three configs where a window keeps its centre and the next
    two run in one call: at 10 dB, R = 1.3 and 20 dB, R = 5.3 the second
    moves the best point, so the third is dropped and run again, centred
    on the new point (at 20 dB, R = 2.3 both are kept).  Then the mlh
    search at a coarser grid, at four configs where the bounds prune 95%
    (40 dB, R = 12) to 96% of the coarse points, and at a loose tolerance
    (73% pruned).  Then the default mlh search at two configs where the
    corner wins and the block pass alone prunes 98.7% of the coarse points
    (-5 dB, R = 2 and 20 dB, R = 10).  Last the sc search where its bounds
    prune the coarse grid: at 30 dB, R = 12 the corner has the largest
    lower bound and wins, so the coarse call carries its windows (2 of 101
    splits left); at 30 dB, R = 10.1 the corner has it too, but a survivor
    (6 left) wins and the carried windows are dropped; at 30 dB, R = 9
    (6 left) and at 40 dB, R = 2.3 and 11 (99 left) another split has it."""
    cases = [pytest.param(protocol, snr_db, rate, {},
                          id=f"{snr_db}-{rate}-{protocol}")
             for snr_db, rate in [(3.0, 0.3), (3.0, 0.8), (3.0, 1.3),
                                  (-4.0, 1.0), (25.0, 2.3), (3.0, 2.8)]
             for protocol in ("mlh", "sc")]
    cases += [pytest.param("sc", snr_db, rate, {}, id=f"{snr_db}-{rate}-sc")
              for snr_db, rate in [(10.0, 1.3), (20.0, 2.3), (20.0, 5.3)]]
    coarse = {"grid_step": 0.05, "refine_tol": 1e-3}
    cases += [pytest.param("mlh", snr_db, rate, coarse,
                           id=f"{snr_db}-{rate}-mlh-grid0.05")
              for snr_db, rate in [(-5.0, 0.05), (10.0, 4.3), (40.0, 12.0),
                                   (3.0, 5.8)]]
    loose = QuadratureSettings(abs_tol=1e-6, rel_tol=1e-4)
    cases.append(pytest.param("mlh", 3.0, 1.0, dict(coarse, settings=loose),
                              id="3.0-1.0-mlh-grid0.05-loose"))
    cases += [pytest.param("mlh", snr_db, rate, {}, id=f"{snr_db}-{rate}-mlh")
              for snr_db, rate in [(-5.0, 2.0), (20.0, 10.0)]]
    cases += [pytest.param("sc", snr_db, rate, {}, id=f"{snr_db}-{rate}-sc")
              for snr_db, rate in [(30.0, 12.0), (30.0, 10.1), (30.0, 9.0),
                                   (40.0, 2.3), (40.0, 11.0)]]
    return cases


class TestMatchesScalarSearch:
    """The batched search returns the scalar search's Optimum, repr for
    repr.  At 3 dB, R = 0.3, 0.8 and 1.3 sc's split is decided by a
    5.6e-17 margin or by an exact tie between mirror splits, so a value
    that moved by one ulp would move the reported split.  The scalar search
    integrates every coarse point, so it is also the reference for the
    bound-pruned coarse grids."""

    @pytest.mark.parametrize("protocol, snr_db, rate, search", _repr_cases())
    def test_repr_identical(self, protocol, snr_db, rate, search):
        cfg = SystemConfig.from_snr_db(snr_db, rate)
        assert repr(optimize_split(protocol, cfg, **search)) == \
            repr(scalar_search(protocol, cfg, **search))

    @pytest.mark.parametrize("protocol, snr_db, tol", [("mlh", 3.0, 1e-19),
                                                       ("mlh", 10.0, 1e-18),
                                                       ("sc", 3.0, 1e-19)])
    def test_names_a_point_the_scalar_fails_at(self, monkeypatch, protocol,
                                               snr_db, tol):
        """A lockstep call that fails raises the NonConvergence of its
        lowest failing integral, and the scalar closed form fails at the
        point that it names.  The three cases fail in the mlh coarse grid
        (3 dB), in an mlh refinement window (10 dB) and in the sc coarse
        grid (3 dB), whose splits left by its bounds run as the first
        window of a _values call (here its only one: the corner does not
        have the largest lower bound)."""
        cfg = SystemConfig.from_snr_db(snr_db, 1.0)
        tight = QuadratureSettings(abs_tol=tol, rel_tol=tol)
        coarse = np.array(_axis_points(0.1))
        failed = []   # the lockstep calls that raised, in order
        for name in ("_coarse_values", "_values"):
            def spy(*args, name=name, call=getattr(optimize, name)):
                try:
                    return call(*args)
                except NonConvergence:
                    if name == "_values":
                        windows = args[1]
                        grid = len(windows) == 1 and \
                            set(windows[0][0].tolist()) <= set(coarse.tolist())
                        name += " grid" if grid else " windows"
                    failed.append(name)
                    raise
            monkeypatch.setattr(optimize, name, spy)
        messages = []
        for _ in range(2):
            with pytest.raises(NonConvergence) as info:
                optimize_split(protocol, cfg, 0.1, 1e-2, tight)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        phase = {(3.0, "mlh"): "_coarse_values", (10.0, "mlh"): "_values windows",
                 (3.0, "sc"): "_values grid"}[snr_db, protocol]
        assert failed == [phase, phase]
        assert info.value.owner is not None   # the lockstep call's own error

        named = re.fullmatch(r"(p3|p4|sc) at alpha=([^,]+)(?:, beta=([^,]+))?, "
                             + re.escape(repr(cfg)), info.value.integral)
        assert named is not None, info.value.integral
        kernel, *shares = named.groups()
        shares = [float(x) for x in shares if x is not None]
        assert len(shares) == (1 if kernel == "sc" else 2)
        assert all(0.0 <= x <= 1.0 for x in shares)
        scalar = {"p3": prob_p3, "p4": prob_p4, "sc": prob_sc}[kernel]
        with pytest.raises(NonConvergence):
            scalar(*shares, cfg, tight)


class TestSpeculativeWindows:
    """A stage that ends on the point it started from runs all the
    remaining windows in one lockstep call, centred on that point; the
    searches offer them one by one and drop the rest at the first that
    moves the best point."""

    @pytest.mark.parametrize("protocol", ["mlh", "sc"])
    @pytest.mark.parametrize("rate, calls", [(2.8, [3]), (0.8, [1, 1, 1])])
    def test_window_calls(self, monkeypatch, protocol, rate, calls):
        """At 3 dB, R = 2.8 the coarse grid and every window keep the
        time-sharing corner: one call for the three windows.  At R = 0.8
        each window moves the best point, so each runs alone.  sc's coarse
        grid is the first window of a _values call, the splits that its
        bounds leave: at R = 2.8 the corner has the largest lower bound,
        so that call also carries the corner's three windows, and sc makes
        one call in all; at R = 0.8 it does not, and the call holds the
        grid alone."""
        sizes = []   # the windows of each call
        grids = []   # whether each call's first window is on the coarse grid

        def spy(protocol, windows, *args):
            sizes.append(len(windows))
            grids.append(set(windows[0][0].tolist()) <= set(_axis_points(0.01)))
            return _values(protocol, windows, *args)

        monkeypatch.setattr(optimize, "_values", spy)
        optimize_split(protocol, SystemConfig.from_snr_db(3.0, rate))
        if protocol == "mlh":
            assert sizes == calls
            assert grids == [False] * len(calls)
        elif calls == [3]:   # the coarse grid's call carries the windows
            assert sizes == [1 + 3]
            assert grids == [True]
        else:
            assert sizes == [1] + calls
            assert grids == [True] + [False] * len(calls)

    @pytest.mark.parametrize("spoiled, fails", [((0.649905, 0.649995), False),
                                                ((0.64905, 0.64995), True)])
    def test_only_offered_windows_can_fail(self, monkeypatch, spoiled, fails):
        """At 10 dB, R = 1.3 sc's first window keeps its centre 0.65, so the
        second and third run in one call, centred on it; the second moves
        the best point to 0.6501.  tp3's integrand is made NaN at the
        splits strictly inside `spoiled`, so their integrals cannot
        converge.  (0.649905, 0.649995) holds points of the dropped third
        window only: the speculative call fails, the second window runs
        again alone, and the search returns the Optimum of the unspoiled
        search.  (0.64905, 0.64995) holds points of the second window,
        which is offered: the call fails, the second window runs again
        alone and fails too, and the search raises the NonConvergence that
        the second window raises alone, naming a split inside the
        interval."""
        cfg = SystemConfig.from_snr_db(10.0, 1.3)
        want = optimize_split("sc", cfg)
        joint = closed_form._JOINT
        lo, hi = spoiled

        def integrand(g, alpha, beta, cfg):
            return np.where((lo < alpha) & (alpha < hi), np.nan,
                            joint.integrand(g, alpha, beta, cfg))

        monkeypatch.setattr(closed_form, "_JOINT", joint._replace(integrand=integrand))
        failures = []   # the lockstep quadratures that raised
        kernel_grid = closed_form._kernel_grid

        def spy(*args):
            try:
                return kernel_grid(*args)
            except NonConvergence as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(closed_form, "_kernel_grid", spy)
        if fails:
            with pytest.raises(NonConvergence) as info:
                optimize_split("sc", cfg)
            assert len(failures) == 2   # the joint call, then the second alone
            split = float(re.match(r"sc at alpha=([^,]+),", info.value.integral)[1])
            assert lo < split < hi
            second = np.array(optimize._window(0.65, 1e-4))
            with pytest.raises(NonConvergence) as alone:
                optimize._values("sc", [(second, second)], cfg, None)
            assert (str(info.value), info.value.owner) == \
                (str(alone.value), alone.value.owner)
        else:
            assert repr(optimize_split("sc", cfg)) == repr(want)
            assert len(failures) == 1


    @pytest.mark.parametrize("protocol", ["mlh", "sc"])
    def test_one_call_equals_the_windows_alone(self, monkeypatch, protocol):
        """Three windows centred on (0.8, 0.7) at 3 dB, R = 1 run in one
        _values call.  For mlh its quadrature holds one p1 integral per
        distinct share over all the windows (the mirrored shares near 0.2
        lie below the vanishing threshold and have none), fewer than the
        windows run alone hold in all, as they share their centre.  Each
        window's values are those of the window run alone, bit for bit."""
        windows = [optimize._points(protocol, (0.8, 0.7), step)
                   for step in (1e-3, 1e-4, 1e-5)]
        p1_shares = []   # the p1 integrals of each lockstep quadrature
        kernel_grid = closed_form._kernel_grid

        def spy(parts, *args):
            p1_shares.extend(part.shares[0] for part in parts if part.name == "p1")
            return kernel_grid(parts, *args)

        monkeypatch.setattr(closed_form, "_kernel_grid", spy)
        joint = [values() for values in _values(protocol, windows, CFG_3DB, None)]
        alone = [_values(protocol, [window], CFG_3DB, None)[0]()
                 for window in windows]
        for got, want in zip(joint, alone):
            assert [float.hex(v) for v in got.tolist()] == \
                [float.hex(v) for v in want.tolist()]
        if protocol == "mlh":
            distinct = np.unique(np.concatenate([a for a, _ in windows]))
            speculative, *singles = p1_shares
            assert sorted(speculative.tolist()) == distinct.tolist()
            assert len(speculative) < sum(map(len, singles))
            assert [len(x) for x in singles] == \
                [len(np.unique(a)) for a, _ in windows]


class TestPruning:
    """The mlh coarse grid prunes a point only where its objective's bound
    lies below an incumbent, and the sc coarse grid a split only where its
    upper bound lies below the largest lower bound: a NaN or +inf bound
    never prunes."""

    @staticmethod
    def objective(pts, cfg, integrals):
        """_coarse_values' objective over the grid of pts, in its
        arithmetic (mlh_throughput_from_probs), from the scalar slot-1
        closed forms at each row and its mirrored row, and p3 and p4
        (values or bounds) at every point."""
        n = len(pts) - 1
        grid = np.array(pts)
        a, b = np.repeat(grid, n + 1), np.tile(grid, n + 1)
        p3, p4 = integrals(a, b, a, b, cfg)
        k = np.arange((n + 1) ** 2)

        def rows(closed_form, shares):
            return np.repeat([closed_form(x, cfg) for x in shares], n + 1)

        probs = SimpleNamespace(
            p0=rows(prob_p0, pts), p1=rows(prob_p1, pts),
            p1p=rows(prob_p1, pts[::-1]), p2=rows(prob_p2, pts),
            p2p=rows(prob_p2, pts[::-1]),
            p3=p3[np.minimum(k, k[::-1])],   # the canonical point's value
            p4=p4, p4p=p4[::-1])
        return mlh_throughput_from_probs(probs, cfg)

    @classmethod
    def unpruned(cls, pts, cfg):
        """_coarse_values with every integral run, in its arithmetic."""
        return cls.objective(pts, cfg, lambda *points: optimize._mlh_columns(
            [], [], *points)[1:])

    @staticmethod
    def cells(pts, side):
        """Each point's cell among the blocks of `side` (optimize._blocks),
        as its corner indices (i0, i1, j0, j1), a (4, points) array; the
        mirror point's cell is the mirror block."""
        n = len(pts) - 1
        first, last, block = optimize._blocks(n, side)
        i, j = np.repeat(block, n + 1), np.tile(block, n + 1)
        return np.array([first[i], last[i], first[j], last[j]])

    @classmethod
    def block_bound(cls, pts, cfg):
        """The block pass's bound at every point, in its arithmetic, from
        its blocks' cell bounds: p3 at the canonical point's block, p4 at
        the point's block and p4' at its mirror block."""
        side, pieces = optimize._PASSES[0]
        cell = tuple(np.array(pts)[cls.cells(pts, side)])
        u3, u4 = closed_form._cell_bound(cell, cell, cfg, pieces)
        return cls.objective(pts, cfg, lambda *_: (u3, u4))

    @staticmethod
    def point_bound(a3, b3, a4, b4, cfg, pieces=32):
        """_cell_bound at one-point cells: p3 at (a3[k], b3[k]), p4 at
        (a4[k], b4[k])."""
        return closed_form._cell_bound((a3, a3, b3, b3), (a4, a4, b4, b4), cfg,
                                       pieces)

    @staticmethod
    def block_pass_alone(monkeypatch):
        """Bounds of +inf at one-point cells, which never prune: what
        _coarse_values prunes is then what its block pass prunes."""
        cell_bound = optimize._cell_bound

        def blocks_only(p3_cells, p4_cells, *args):
            bounds = cell_bound(p3_cells, p4_cells, *args)
            for u, (alpha0, alpha1, beta0, beta1) in zip(bounds, (p3_cells, p4_cells)):
                u[(alpha0 == alpha1) & (beta0 == beta1)] = np.inf
            return bounds
        monkeypatch.setattr(optimize, "_cell_bound", blocks_only)

    @pytest.mark.parametrize("rate", [3.3, 1.8])
    def test_blocks_prune_at_a_corner_rate(self, monkeypatch, rate):
        """Where the time-sharing corner is the 0.01 grid's argmax (3 dB,
        R = 3.3 and 1.8), the block pass alone prunes at least 90% of the
        points (98.7% and 92.2%), each with a block bound below the grid's
        exact maximum, and the points left keep their bits.  Multiplying
        the block pass's incumbent by 1.001 in _coarse_values prunes
        points that this test catches (48 block bounds at R = 1.8 lie in
        [max, 1.001 max))."""
        cfg = SystemConfig.from_snr_db(3.0, rate)
        pts = _axis_points(0.01)
        exact = self.unpruned(pts, cfg)
        assert exact[-1] == exact.max()
        got = optimize._coarse_values(pts, cfg, None).ravel()
        kept = ~np.isnan(got)
        assert [float.hex(x) for x in got[kept]] == \
            [float.hex(x) for x in exact[kept]]
        self.block_pass_alone(monkeypatch)
        blocked = np.isnan(optimize._coarse_values(pts, cfg, None).ravel())
        assert blocked.sum() >= 0.9 * blocked.size
        assert (self.block_bound(pts, cfg)[blocked] < exact.max()).all()

    @pytest.mark.parametrize("snr_db,rate", [(3.0, 1.0), (10.0, 1.78)])
    def test_every_pruned_point_has_a_bound_below_the_grid_maximum(self, snr_db,
                                                                   rate):
        """Every point the 0.01 grid prunes has a 32-piece bound below the
        grid's exact maximum, each point integrated; comparing values alone
        would not do, as a pruned value below the kept maximum says nothing
        of the bound that pruned it.  A point pruned at 8 pieces passes
        too, as more pieces bound tighter.  Multiplying the incumbent by
        1.001 in _coarse_values prunes points that this test catches (46
        and 30 bounds here lie in [max, 1.001 max))."""
        cfg = SystemConfig.from_snr_db(snr_db, rate)
        pts = _axis_points(0.01)
        got = optimize._coarse_values(pts, cfg, None).ravel()
        exact = self.unpruned(pts, cfg)
        pruned = np.isnan(got)
        assert pruned.sum() > 5000
        assert [float.hex(x) for x in got[~pruned]] == \
            [float.hex(x) for x in exact[~pruned]]
        bound = self.objective(pts, cfg, self.point_bound)
        assert (bound[pruned] < exact.max()).all()

    def spoiled_bounds_never_prune(self, monkeypatch, bad, every, step, cfg, side,
                                   spoiled):
        """Spoil, with `bad`, the bounds that optimize._cell_bound gives at
        the cells (one-point cells if side is 1, else blocks of `side`, with
        point bounds of +inf) whose first indices (i0, j0) have
        spoiled(i0, j0, kernel) for kernel 0 (p3) or 1 (p4), on a grid of
        `step`.  No point whose objective reads a spoiled bound (p3 at the
        canonical point's cell, p4 at its own, p4' at its mirror's) is
        pruned, each point that is not pruned has the unpruned grid's bits,
        and with every = 3 the other points are still pruned."""
        pts = _axis_points(step)
        n = len(pts) - 1
        cell_bound = optimize._cell_bound

        def patched(p3_cells, p4_cells, cfg, pieces, quad=None):
            bounds = cell_bound(p3_cells, p4_cells, cfg, pieces, quad)
            for kernel, (u, cells) in enumerate(zip(bounds, (p3_cells, p4_cells))):
                i0, i1, j0, j1 = (np.rint(np.asarray(x) * n).astype(int)
                                  for x in cells)
                point = (i0 == i1) & (j0 == j1)
                u[spoiled(i0, j0, kernel) & (point if side == 1 else ~point)] = bad
            return bounds

        monkeypatch.setattr(optimize, "_cell_bound", patched)
        if side > 1:
            self.block_pass_alone(monkeypatch)
        got = optimize._coarse_values(pts, cfg, None).ravel()
        want = self.unpruned(pts, cfg)
        i0, _, j0, _ = self.cells(pts, side)
        k = np.arange(len(got))
        canon = np.minimum(k, k[::-1])
        reads = (spoiled(i0[canon], j0[canon], 0) | spoiled(i0, j0, 1)
                 | spoiled(i0[::-1], j0[::-1], 1))
        assert reads.any()
        kept = ~np.isnan(got)
        assert kept[reads].all()
        assert [float.hex(x) for x in got[kept]] == \
            [float.hex(x) for x in want[kept]]
        if every == 3:
            assert not kept.all()   # the other points are still pruned

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("every", [1, 3])
    def test_a_nan_or_inf_bound_never_prunes(self, monkeypatch, bad, every):
        """Spoil the bound of every integral (every = 1), or of the points
        (i, j) with i + j divisible by 3, at one-point cells on a 0.1 grid
        at 3 dB, R = 1: nothing that reads a spoiled bound is pruned."""
        def spoiled(i0, j0, kernel):
            return (i0 + j0) % every == 0

        self.spoiled_bounds_never_prune(monkeypatch, bad, every, 0.1, CFG_3DB, 1,
                                        spoiled)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("every", [1, 3])
    def test_a_nan_or_inf_cell_bound_never_prunes(self, monkeypatch, bad, every):
        """Spoil the p3 and p4 cell bounds of every block (every = 1), or
        p3's of the blocks whose first indices (i0, j0) have i0 + j0 = 0
        mod 3 and p4's of those with i0 + j0 = 1 mod 3, with point bounds
        of +inf, on a 0.02 grid of 7 x 7 blocks at 3 dB, R = 3.3: nothing
        that reads a spoiled bound is pruned."""
        def spoiled(i0, j0, kernel):   # kernel 0 is p3, 1 is p4
            return (i0 + j0) % every == kernel % every

        self.spoiled_bounds_never_prune(
            monkeypatch, bad, every, 0.02, SystemConfig.from_snr_db(3.0, 3.3),
            optimize._PASSES[0][0], spoiled)


    @staticmethod
    def sc_bounds(grid, cfg):
        """The bounds (upper, lower) on throughput_sc at each split that
        sc's coarse grid prunes with."""
        return [closed_form.sc_throughput_from_probs(side, cfg) for side in
                optimize._sc_bounds(grid, cfg, optimize._PASSES[-1][1], None)]

    @pytest.mark.parametrize("snr_db, rate", [(3.0, 2.8), (-5.0, 0.4), (30.0, 9.0),
                                              (40.0, 11.0), (15.0, 0.6)])
    def test_every_pruned_sc_split_has_a_bound_below_the_largest_lower_bound(
            self, snr_db, rate):
        """sc's coarse grid prunes a split only where its upper bound lies
        below the largest lower bound over the grid, and the split with that
        lower bound survives, its value at least that bound; each split left
        has throughput_sc's bits.  At 3 dB, R = 2.8 the corner has the
        largest lower bound (8 splits are left); at -5 dB, R = 0.4 it has
        it too (87 left), but a split in the middle wins; at 30 dB, R = 9,
        40 dB, R = 11 and 15 dB, R = 0.6 another split has it (6, 99 and 89
        left).
        At 15 dB, R = 0.6 a split left has an upper bound within 1.1e-5 of
        the largest lower bound: scaling that lower bound by 1.0001 in
        _sc_coarse prunes it, which this test catches."""
        cfg = SystemConfig.from_snr_db(snr_db, rate)
        grid = np.array(_axis_points(0.01))
        upper, lower = self.sc_bounds(grid, cfg)
        got, _ = optimize._sc_coarse(grid, [], cfg, None)
        exact = np.array([throughput_sc(a, cfg) for a in grid.tolist()])
        pruned = np.isnan(got)
        assert pruned.any()
        lead = lower.max()
        assert (upper[pruned] < lead).all()
        assert not pruned[lower == lead].any()
        assert (exact[lower == lead] >= lead).all()
        assert [float.hex(x) for x in got[~pruned]] == \
            [float.hex(x) for x in exact[~pruned]]

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_nan_sc_bound_never_prunes(self, monkeypatch, side):
        """tp3's upper (side 0) or lower (side 1) bound is made NaN at every
        split k with k = 1 mod 3, the corner alpha = 1 among them, at 3 dB,
        R = 2.8, where the corner has the largest lower bound: a split with
        a NaN upper bound is never pruned, a NaN lower bound never is the
        largest, the other splits are still pruned, and the search returns
        the Optimum of the unspoiled one."""
        cfg = SystemConfig.from_snr_db(3.0, 2.8)
        want = repr(optimize_split("sc", cfg))
        sc_bounds = optimize._sc_bounds
        spoiled = np.arange(101) % 3 == 1

        def patched(alphas, *args):
            bounds = sc_bounds(alphas, *args)
            bounds[side].tp3[spoiled[:len(alphas)]] = np.nan
            return bounds

        monkeypatch.setattr(optimize, "_sc_bounds", patched)
        grid = np.array(_axis_points(0.01))
        upper, lower = self.sc_bounds(grid, cfg)
        got, _ = optimize._sc_coarse(grid, [], cfg, None)
        pruned = np.isnan(got)
        assert np.isnan([upper, lower][side][spoiled]).all()
        assert pruned.any()
        assert (pruned == (upper < np.nanmax(lower))).all()
        if side == 0:
            assert not pruned[spoiled].any()
        assert repr(optimize_split("sc", cfg)) == want


class TestArrayOffers:
    """The searches offer each grid and window as arrays; the result must be
    what the scalar search's point-by-point offers give."""

    @staticmethod
    def scalar_offers(batches):
        best, evaluations = (-math.inf, -1.0, -1.0), 0
        for batch in batches:
            for point in batch:
                evaluations += 1
                if point > best:
                    best = point
        return best, evaluations

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @given(batches=st.lists(st.lists(st.tuples(
        st.sampled_from([math.nan, -math.inf, math.inf, 0.0, -0.0, 5e-324, 0.5]),
        st.sampled_from([0.0, -0.0, 0.5, 1.0]),
        st.sampled_from([0.0, -0.0, 0.5, 1.0])), max_size=8), max_size=4))
    def test_offer_equals_a_loop_of_scalar_offers(self, batches):
        """Ties on value (and on alpha), NaN, -inf and +-0.0 included."""
        search = _Search()
        for batch in batches:
            search.offer(*(np.array([point[k] for point in batch]) for k in range(3)))
        best, evaluations = self.scalar_offers(batches)
        assert [float.hex(x) for x in search.best] == [float.hex(x) for x in best]
        assert search.evaluations == evaluations

    @pytest.mark.parametrize("bad", [{4: 1.5, 5: 2.0}, {2: 1.0, 4: 1.5},
                                     {3: math.nan}, {5: -0.25}])
    def test_mlh_values_raise_the_error_of_the_first_bad_point(self, monkeypatch,
                                                              bad):
        """A p3 grid value out of range (or one that makes the fields sum
        past 1) raises what the scalar EventProbs of that point raises,
        when the window's values are read, and only then."""
        window = [0.5, 0.53, 0.56]
        alphas = np.repeat(window, 3)
        betas = np.tile(window, 3)
        mlh_columns = closed_form._mlh_columns

        def patched(*args, **kwargs):
            slot1, p3, p4 = mlh_columns(*args, **kwargs)
            # every window but the first, in the concatenated points
            for start in range(len(alphas), len(p3), len(alphas)):
                for k, value in bad.items():
                    p3[start + k] = value
            return slot1, p3, p4

        monkeypatch.setattr(optimize, "_mlh_columns", patched)
        p3 = mlh_columns(alphas, 1.0 - alphas, alphas, betas, [], [], CFG_3DB)[1]
        for k, value in bad.items():
            p3[k] = value
        p3 = p3.tolist()
        with pytest.raises(ValueError) as want:
            for k, (a, b) in enumerate(zip(alphas.tolist(), betas.tolist())):
                EventProbs(p0=prob_p0(a, CFG_3DB), p1=prob_p1(a, CFG_3DB),
                           p1p=prob_p1(1.0 - a, CFG_3DB), p2=prob_p2(a, CFG_3DB),
                           p2p=prob_p2(1.0 - a, CFG_3DB), p3=p3[k],
                           p4=prob_p4(a, b, CFG_3DB),
                           p4p=prob_p4(1.0 - a, 1.0 - b, CFG_3DB))
        first, second = _values("mlh", [(alphas, betas)] * 2, CFG_3DB, None)
        first()
        with pytest.raises(ValueError) as got:
            second()
        assert str(got.value) == str(want.value)

    def test_mlh_values_equal_throughput_mlh(self):
        """Window by window, whatever the windows run with."""
        alphas = np.repeat([0.0, 0.5, 0.71, 1.0], 4)
        betas = np.tile([0.0, 0.3, 0.9, 1.0], 4)
        windows = [(alphas, betas), (alphas[5:], betas[5:]), (alphas[:3], betas[:3])]
        for k in range(len(windows)):
            for (a, b), values in zip(windows[k:], _values("mlh", windows[k:],
                                                           CFG_3DB, None)):
                want = [throughput_mlh(PowerSplit(x, y), CFG_3DB)
                        for x, y in zip(a.tolist(), b.tolist())]
                assert [float.hex(v) for v in values().tolist()] == \
                    [float.hex(v) for v in want]


class TestGridStep:
    def test_axis_points_cap_the_subdivisions_at_1000(self):
        assert len(_axis_points(1e-3)) == 1001
        assert len(_axis_points(1.0 / 1000.4)) == 1001   # rounds to 1000
        for step in (1.0 / 1000.6, 1e-9, 5e-324):
            with pytest.raises(ValueError, match="more than 1000 subdivisions"):
                _axis_points(step)

    def test_optimize_split_rejects_a_tiny_grid_step(self):
        with pytest.raises(ValueError, match="more than 1000 subdivisions"):
            optimize_split("mlh", CFG_3DB, grid_step=1e-9)


# tracemalloc peak of optimize_split("mlh") at 3 dB, R = 1 with the slot-2
# integrands written as numpy expressions and the lockstep quadrature in
# fixed blocks of 256 integrals, measured in a fresh interpreter (numpy
# 2.4): 3.93 MB.  The in-place integrands in rolling rounds and integrand
# calls of at most 1,024 panels, with the coarse grid pruned, peak at
# 2.84 MB.
EXPRESSION_FORM_PEAK_MB = 3.93
PEAK_SLACK_MB = 1.0


def test_peak_memory_of_one_mlh_search():
    """A larger CALL_PANELS (or heavier integrands) must not quietly trade
    memory for speed: before the coarse grid was pruned, calls of 2,048
    panels peaked at 4.9 MB where 1,024 peaked at 4.1 MB, and fixed blocks
    of 1,024 integrals with the expression forms peaked at 11.4 MB; rounds
    admitted up to 3,072 panels peak at 3.05 MB, against 2.84 MB at
    1,024."""
    cfg = SystemConfig.from_snr_db(3.0, 1.0)
    tracemalloc.start()
    try:
        optimize_split("mlh", cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (EXPRESSION_FORM_PEAK_MB + PEAK_SLACK_MB) * 1e6


class TestOptimizeRateAndSplit:
    def test_ts_against_rate_brute_force(self):
        cfg = SystemConfig.from_snr_db(10.0, 1.0)
        opt = optimize_rate_and_split("ts", cfg)
        brute = max(throughput_ts(SystemConfig.from_snr_db(10.0, 0.05 + 0.01 * k))
                    for k in range(1196))
        assert opt.throughput_star >= brute - 1e-6
        assert opt.rate_star is not None and opt.rate_star > 0

    def test_validates_grid(self):
        with pytest.raises(ValueError):
            optimize_rate_and_split("ts", CFG_3DB, rate_grid=[])
        with pytest.raises(ValueError):
            optimize_rate_and_split("ts", CFG_3DB, rate_grid=[2.0, 1.0])
        with pytest.raises(ValueError):
            optimize_rate_and_split("ts", CFG_3DB, rate_grid=[-1.0, 2.0])

    def test_mlh_dominates_ts_with_optimized_rate(self):
        cfg = SystemConfig.from_snr_db(40.0, 1.0)
        grid = [float(r) for r in np.geomspace(0.2, 12.0, 12)]
        mlh = optimize_rate_and_split("mlh", cfg, rate_grid=grid,
                                      grid_step=0.1, refine_tol=1e-2,
                                      rate_refine_tol=0.05)
        ts = optimize_rate_and_split("ts", cfg, rate_grid=grid,
                                     rate_refine_tol=0.05)
        assert mlh.throughput_star >= ts.throughput_star - 1e-9

    def test_reported_args_reproduce_value(self):
        grid = [0.5, 1.0, 2.0]
        opt = optimize_rate_and_split("sc", CFG_3DB, rate_grid=grid,
                                      grid_step=0.1, refine_tol=1e-2,
                                      rate_refine_tol=0.05)
        cfg = SystemConfig.from_snr_db(3.0, opt.rate_star)
        assert abs(throughput_sc(opt.alpha_star, cfg)
                   - opt.throughput_star) <= 1e-10
