"""Tests for the adaptive integrator, including a brute-force midpoint oracle."""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlharq import quadrature
from mlharq.closed_form import _f1, _p1_window, prob_p1
from mlharq.model import SystemConfig
from mlharq.quadrature import (
    _NODES,
    _W7,
    _W15,
    DEFAULT_SETTINGS,
    TAIL_SPAN,
    NonConvergence,
    QuadratureSettings,
    _nodes,
    _rule_sums,
    integrate_finite,
)


def midpoint_oracle(f, a, b, panels=1_000_000):
    """Brute-force midpoint rule, the independent reference for accuracy."""
    x = a + (np.arange(panels) + 0.5) * (b - a) / panels
    return float(np.sum(f(x)) * (b - a) / panels)


class TestFinite:
    def test_linear(self):
        assert integrate_finite(lambda g: g, 0.0, 1.0, []) == pytest.approx(0.5, abs=1e-12)

    def test_exponential(self):
        got = integrate_finite(lambda g: np.exp(-g), 0.0, 1.0, [])
        assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_kink_with_breakpoint(self):
        got = integrate_finite(lambda g: np.maximum(0.0, g - 0.5), 0.0, 1.0, [0.5])
        assert got == pytest.approx(0.125, abs=1e-12)

    def test_kink_without_breakpoint_still_converges(self):
        # no breakpoint marks the kink at 0.37, so adaptive refinement has
        # to find it on its own
        got = integrate_finite(lambda g: np.maximum(0.0, g - 0.37), 0.0, 1.0, [])
        assert got == pytest.approx(0.5 * 0.63 ** 2, abs=1e-8)

    def test_empty_interval(self):
        assert integrate_finite(lambda g: g, 2.0, 2.0, []) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda g: g, 1.0, 0.0, [])

    def test_out_of_range_breakpoints_ignored(self):
        got = integrate_finite(lambda g: g * g, 0.0, 1.0, [-3.0, 0.25, 7.0])
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestSemiInfinite:
    """Integrals over [0, inf) of unit-scale exponential tails, cut at
    TAIL_SPAN as the closed forms cut them."""

    def test_unit_exponential(self):
        got = integrate_finite(lambda g: np.exp(-g), 0.0, TAIL_SPAN, [])
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_faster_decay(self):
        got = integrate_finite(lambda g: np.exp(-2.0 * g), 0.0, TAIL_SPAN, [])
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_shifted_indicator(self):
        f = lambda g: np.exp(-g) * (g >= 3.0)
        got = integrate_finite(f, 0.0, TAIL_SPAN, [3.0])
        assert got == pytest.approx(math.exp(-3.0), abs=1e-10)


class TestErrorControl:
    def test_tolerance_self_consistency(self):
        """Tightening tolerances by 10x moves the result by less than the
        coarser tolerance."""
        f = lambda g: np.exp(-g) * np.cos(5.0 * g) + np.maximum(0.0, g - 1.0)
        coarse = QuadratureSettings(abs_tol=1e-6, rel_tol=1e-5)
        fine = QuadratureSettings(abs_tol=1e-7, rel_tol=1e-6)
        a = integrate_finite(f, 0.0, 3.0, [1.0], settings=coarse)
        b = integrate_finite(f, 0.0, 3.0, [1.0], settings=fine)
        assert abs(a - b) < max(1e-6, 1e-5 * abs(a))

    def test_linearity(self):
        f = lambda g: np.exp(-g) + g * g
        base = integrate_finite(f, 0.0, 2.0, [])
        scaled = integrate_finite(lambda g: 3.5 * f(g), 0.0, 2.0, [])
        assert scaled == pytest.approx(3.5 * base, rel=1e-9)

    def test_nonconvergence_on_tiny_budget(self):
        settings = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-14)
        noisy = lambda g: np.sin(1000.0 * g) / (np.abs(g - 0.37) + 1e-9)
        with pytest.raises(NonConvergence):
            integrate_finite(noisy, 0.0, 1.0, [], settings=settings)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            QuadratureSettings(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSettings(rel_tol=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                QuadratureSettings(abs_tol=bad)
            with pytest.raises(ValueError, match="finite"):
                QuadratureSettings(rel_tol=bad)
        # a tolerance of 1 or more accepts any estimate of a probability
        for bad in (1.0, 2.0, 1e308):
            with pytest.raises(ValueError, match="below 1"):
                QuadratureSettings(abs_tol=bad)
            with pytest.raises(ValueError, match="below 1"):
                QuadratureSettings(rel_tol=bad)
        QuadratureSettings(abs_tol=math.nextafter(1.0, 0.0),
                           rel_tol=math.nextafter(1.0, 0.0))


class TestAgainstMidpointOracle:
    def test_randomized_piecewise_smooth_integrands(self):
        """20 random integrands built like the outage integrands: exponential
        envelopes with positive-part kinks at known locations."""
        rng = np.random.default_rng(314)
        for trial in range(20):
            a_coef = rng.uniform(0.2, 2.0)
            b_coef = rng.uniform(0.5, 3.0)
            kink1 = rng.uniform(0.2, 1.8)
            kink2 = rng.uniform(0.2, 1.8)
            scale = rng.uniform(0.1, 5.0)

            def f(g):
                return (scale * np.exp(-a_coef * g)
                        + np.maximum(0.0, g - kink1) * np.exp(-b_coef * g)
                        + np.where(g > kink2, 0.3, 0.0))

            got = integrate_finite(f, 0.0, 2.0, [kink1, kink2])
            want = midpoint_oracle(f, 0.0, 2.0)
            assert got == pytest.approx(want, abs=1e-6), f"trial {trial}"


@pytest.mark.parametrize("n", [7, 15])
def test_rule_tables_are_leggauss_bit_for_bit(n):
    """The literal rule tables are numpy's Gauss-Legendre rules, float.hex
    for float.hex (numpy.polynomial is imported here, not by the package)."""
    x, w = np.polynomial.legendre.leggauss(n)
    for name, want in ((f"_X{n}", x), (f"_W{n}", w)):
        table = getattr(quadrature, name)
        assert table.dtype == want.dtype and table.shape == want.shape, name
        assert [float.hex(v) for v in table.tolist()] == \
            [float.hex(v) for v in want.tolist()], name
    assert _NODES.tolist() == [*quadrature._X7.tolist(), *quadrature._X15.tolist()]


def test_nodes_equal_the_broadcast_expression():
    """_nodes fills its (P, 22) array column by column, with the roundings
    of mid + half * node, so it has the broadcast expression's bits, for
    normal, subnormal, huge and empty widths and for P from 0 to 3000."""
    rng = np.random.default_rng(7)
    tiny = 5e-324
    panels = [(0.0, tiny), (tiny, 2 * tiny), (0.0, 1e-320), (1e-310, 3e-308),
              (0.0, 1e308), (-1e308, 1e308), (1.0, math.nextafter(1.0, 2.0)),
              (2.5, 2.5), (0.0, 32.2), (-3.0, 7.0)]
    lo = np.array([a for a, _ in panels])
    hi = np.array([b for _, b in panels])
    cases = [(lo, hi), (lo[:0], hi[:0])]
    for p in (1, 2, 50, 3000):
        a = rng.normal(size=p) * 10.0 ** rng.integers(-300, 300, size=p)
        width = np.abs(rng.normal(size=p)) * 10.0 ** rng.integers(-300, 3, size=p)
        cases.append((a, a + width))
    for lo, hi in cases:
        # an infinite width (the panel over +-1e308) gives NaN at the zero
        # node in both forms
        with np.errstate(over="ignore", invalid="ignore"):
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            want = mid[:, None] + half[:, None] * _NODES[None, :]
            x, got_half = _nodes(lo, hi)
        assert x.shape == (len(lo), 22) and x.flags.c_contiguous
        assert x.tobytes() == want.tobytes()
        assert got_half.tobytes() == half.tobytes()


# ---------------------------------------------------------------------------
# The list loop against the array loop, bit for bit
#
# The reference is integrate_finite's earlier form, whose panels lived in
# numpy arrays: the same rules, split order, row sums (np.einsum) and
# totals (np.add.reduceat over one segment), so every value and every
# NonConvergence must equal its.  It reads MAX_SUBDIVISIONS from the
# module, as integrate_finite does, so both run on a patched budget.  It
# evaluates each round's children in one call, so it also holds
# integrate_finite's look-ahead to the panels of a loop without one.
# ---------------------------------------------------------------------------

def ref_rule_batch(f, lo, hi):
    x, half = _nodes(lo, hi)
    y = np.asarray(f(x), dtype=float)
    coarse = np.einsum("ij,j->i", y[:, :7], _W7) * half
    fine = np.einsum("ij,j->i", y[:, 7:], _W15) * half
    return fine, np.abs(fine - coarse)


def ref_integrate_finite(f, a, b, breakpoints, settings=DEFAULT_SETTINGS):
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    interior = sorted({float(p) for p in breakpoints if a < p < b})
    edges = np.array([a, *interior, b], dtype=float)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    width = b - a
    vals, errs = ref_rule_batch(f, lo, hi)
    while True:
        total = float(np.add.reduceat(vals, [0])[0])
        err_total = float(np.add.reduceat(errs, [0])[0])
        tol = max(settings.abs_tol, settings.rel_tol * abs(total))
        if err_total <= tol:
            return total
        share = tol * (hi - lo) / width
        split = errs > share
        if not split.any():
            split[int(np.argmax(errs))] = True
        n_new = len(lo) + int(split.sum())
        if n_new > quadrature.MAX_SUBDIVISIONS:
            raise NonConvergence(total, err_total, len(lo))
        s_lo, s_hi = lo[split], hi[split]
        s_mid = 0.5 * (s_lo + s_hi)
        child_lo = np.concatenate([s_lo, s_mid])
        child_hi = np.concatenate([s_mid, s_hi])
        child_vals, child_errs = ref_rule_batch(f, child_lo, child_hi)
        keep = ~split
        lo = np.concatenate([lo[keep], child_lo])
        hi = np.concatenate([hi[keep], child_hi])
        vals = np.concatenate([vals[keep], child_vals])
        errs = np.concatenate([errs[keep], child_errs])


def _bits(value):
    """The exact image of a float, NaN payload and sign of zero included."""
    return struct.pack("<d", value).hex()


# the settings of tests/test_lockstep.py, and tolerances no budget meets
LOOP_SETTINGS = [QuadratureSettings(),
                 QuadratureSettings(abs_tol=1e-13, rel_tol=1e-12),
                 QuadratureSettings(abs_tol=1e-6, rel_tol=1e-4),
                 QuadratureSettings(abs_tol=1e-9, rel_tol=1e-3),
                 QuadratureSettings(abs_tol=1e-14, rel_tol=1e-14)]
ODD_KINKS = [math.nan, math.inf, -math.inf, -1e300, 1e300]


@st.composite
def loop_cases(draw):
    """An interval (sometimes empty), kinks (repeated, non-finite or out of
    range among them), an integrand with a peak, a jump and a kinked ramp
    that may be NaN, +inf or -inf past a cut, settings and a panel budget.
    An integrand that is not finite somewhere never converges: it spends
    its budget one split a round, so it gets a small one.  Its "coarse"
    kind is NaN past the cut at the 7-point nodes only, so that a panel has
    a finite value and a NaN error, and which panel the forced split takes
    moves the estimate."""
    a = draw(st.floats(-2.0, 2.0))
    b = a if draw(st.integers(0, 5)) == 0 else a + draw(st.floats(1e-3, 5.0))
    kink = draw(st.floats(a - 1.0, b + 1.0))
    kinks = draw(st.lists(st.one_of(st.floats(-4.0, 8.0), st.sampled_from(ODD_KINKS),
                                    st.just(kink), st.just(a), st.just(b)),
                          max_size=8))
    kinks = kinks + draw(st.lists(st.sampled_from(kinks), max_size=3)) if kinks else kinks
    shape = (draw(st.floats(0.1, 30.0)), draw(st.floats(-1.0, 1.0)),
             draw(st.floats(-2.0, 2.0)))
    bad = draw(st.sampled_from([None, None, None, math.nan, math.inf, -math.inf,
                                "coarse"]))
    cut = draw(st.floats(a - 0.5, b + 0.5))
    quad = draw(st.sampled_from(LOOP_SETTINGS))
    budget = draw(st.sampled_from([40, 1, 2, 7] if bad is not None
                                  else [quadrature.MAX_SUBDIVISIONS, 1, 2, 7, 40]))
    return a, b, kinks, (kink, shape, bad, cut), quad, budget


def _integrand(kink, shape, bad, cut):
    scale, jump, ramp = shape

    def f(x):
        d = x - kink
        y = (np.exp(-scale * np.abs(d)) + jump * (d > 0.0)
             + ramp * np.maximum(0.0, d) ** 2 + np.sin(scale * x))
        if bad == "coarse":
            y[:, :7] = np.where(x[:, :7] > cut, math.nan, y[:, :7])
            return y
        return y if bad is None else np.where(x > cut, bad, y)

    return f


def _outcome(integrate, f, a, b, kinks, quad, budget):
    """A value's bits, or a NonConvergence's estimate, error and panels."""
    with mock.patch.object(quadrature, "MAX_SUBDIVISIONS", budget), \
            np.errstate(all="ignore"):
        try:
            value = integrate(f, a, b, kinks, quad)
        except NonConvergence as exc:
            return "fails", _bits(exc.estimate), _bits(exc.error), exc.panels
    assert type(value) is float
    return "value", _bits(value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=loop_cases())
@example(case=(0.0, 1.0, [0.5, 0.5, math.nan, 7.0], (0.37, (5.0, 0.0, 0.0), math.nan,
                                                     0.6), LOOP_SETTINGS[0], 40))
@example(case=(-1e308, 1e308, [0.0], (0.0, (1.0, 0.0, 0.0), None, 0.0),
               LOOP_SETTINGS[0], 40))
@example(case=(0.0, 5e-324, [], (0.0, (1.0, 1.0, 1.0), None, 0.0),
               LOOP_SETTINGS[4], quadrature.MAX_SUBDIVISIONS))
@example(case=(0.0, 1.0, [], (0.37, (30.0, 1.0, 2.0), None, 0.0), LOOP_SETTINGS[4],
               quadrature.MAX_SUBDIVISIONS))
# NaN on one ulp: the midpoint rounds to the left edge, so every split
# repeats the panel's edges in a child, [1, 1] or [1, 1 + ulp], and the
# look-ahead meets each edge pair again and again
@example(case=(1.0, math.nextafter(1.0, 2.0), [], (0.0, (1.0, 0.0, 0.0), math.nan, 0.0),
               LOOP_SETTINGS[0], 40))
def test_list_loop_equals_the_array_loop(case):
    """integrate_finite equals the array loop bit for bit, failures
    included, at its look-ahead, with none and with one in every round
    after the first."""
    a, b, kinks, family, quad, budget = case
    f = _integrand(*family)
    want = _outcome(ref_integrate_finite, f, a, b, kinks, quad, budget)
    for children in (quadrature._LOOKAHEAD_CHILDREN, 0, 10_000):
        with mock.patch.object(quadrature, "_LOOKAHEAD_CHILDREN", children):
            got = _outcome(integrate_finite, f, a, b, kinks, quad, budget)
        assert got == want, children


def test_a_chain_of_narrow_rounds_looks_ahead():
    """p1 at 3 dB, R = 1, alpha = 0.999 refines one or two panels a round
    for 8 rounds.  With the look-ahead integrate_finite makes fewer
    integrand calls than that, on nodes inside [a, b] only, and returns the
    value of a loop with one call a round, which prob_p1 returns too."""
    cfg = SystemConfig.from_snr_db(3.0, 1.0)
    alpha = 0.999
    a, b, _ = _p1_window(alpha, cfg)
    c = (1.0 - alpha) * cfg.power_P

    def run(children):
        seen = []

        def f(x):
            seen.append(x.copy())
            return _f1(x, c, cfg)

        with mock.patch.object(quadrature, "_LOOKAHEAD_CHILDREN", children):
            return integrate_finite(f, a, b, []), seen

    value, seen = run(quadrature._LOOKAHEAD_CHILDREN)
    want, rounds = run(0)
    assert [len(x) for x in rounds] == [1, 2, 2, 2, 2, 2, 2, 2]
    assert len(seen) < len(rounds)
    assert all(((a <= x) & (x <= b)).all() for x in seen)
    assert _bits(value) == _bits(want) == _bits(prob_p1(alpha, cfg))


def _odd_values(rng, shape):
    """Signed values of magnitude 1e-300 to 1e300, some of them +-0, +-inf
    or NaN."""
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan])
    values = rng.choice([-1.0, 1.0], size=shape) * rng.random(shape) \
        * 10.0 ** rng.integers(-300, 301, size=shape)
    odd = rng.random(shape) < rng.choice([0.0, 0.05, 0.3])
    values[odd] = rng.choice(special, size=int(odd.sum()))
    return values


def _bits_list(values):
    return [_bits(v) for v in np.asarray(values).tolist()]


def _rows_at(rng, rows, p, offset):
    """rows (k, m) placed at row offset of a (p, m) array of other values,
    itself a view that starts 0-3 elements into its buffer, so that its
    rows start at varied alignments."""
    k, m = rows.shape
    shift = int(rng.integers(0, 4))
    flat = np.empty(p * m + shift)
    y = flat[shift:].reshape(p, m)
    y[:] = _odd_values(rng, (p, m))
    y[offset:offset + k] = rows
    return y


def test_a_rows_rule_sums_depend_on_that_row_alone():
    """_rule_sums gives each row the sums it gets alone, whatever the row
    count (1-64), its offset among the rows and the other rows' values,
    for signed zeros, infinities, NaNs and magnitudes of 1e-300 to 1e300;
    and it equals np.einsum, bit for bit."""
    rng = np.random.default_rng(19)
    with np.errstate(all="ignore"):
        for p in range(1, 65):
            for _ in range(10):
                k = int(rng.integers(1, p + 1))
                rows = _odd_values(rng, (k, 22))
                alone = [_rule_sums(rows[i:i + 1]) for i in range(k)]
                offset = int(rng.integers(0, p - k + 1))
                y = _rows_at(rng, rows, p, offset)
                coarse, fine = _rule_sums(y)
                assert _bits_list(coarse) == _bits_list(
                    np.einsum("ij,j->i", y[:, :7], _W7))
                assert _bits_list(fine) == _bits_list(
                    np.einsum("ij,j->i", y[:, 7:], _W15))
                assert _bits_list(coarse[offset:offset + k]) == \
                    [_bits(c[0]) for c, _ in alone]
                assert _bits_list(fine[offset:offset + k]) == \
                    [_bits(f[0]) for _, f in alone]


def test_both_totals_in_one_reduction_are_the_one_dimensional_sums():
    """integrate_finite sums a round's values and errors as the two rows
    of one reduceat over [0], integrate_finite_many each owner's as one
    segment of a reduceat over its owners' starts (_split_round): a
    segment's total is the same whatever segments surround it, bit for
    bit, for segments of 1 to 64 panels at varied offsets and alignments,
    and values from signed zeros and non-finite ones to magnitudes of
    1e-300 to 1e300."""
    rng = np.random.default_rng(15)
    with np.errstate(all="ignore"):
        for p in range(1, 65):
            for _ in range(20):
                v, e = _odd_values(rng, (2, p))
                both = np.add.reduceat(np.array([v.tolist(), e.tolist()]), [0],
                                       axis=1)[:, 0]
                counts = rng.integers(1, 65, size=int(rng.integers(1, 6)))
                place = int(rng.integers(0, len(counts)))
                counts[place] = p
                start = np.concatenate(([0], np.cumsum(counts)[:-1]))
                for k, row in enumerate((v, e)):
                    seq = _rows_at(rng, row[:, None], int(counts.sum()),
                                   int(start[place]))[:, 0]
                    total = np.add.reduceat(seq, start)[place]
                    alone = np.add.reduceat(row, [0])[0]
                    assert _bits(both[k]) == _bits(alone) == _bits(total)
