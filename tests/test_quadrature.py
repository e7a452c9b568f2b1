"""Tests for the adaptive integrator, including a brute-force midpoint oracle."""

import math

import numpy as np
import pytest

from mlharq.quadrature import (
    TAIL_SPAN,
    NonConvergence,
    QuadratureSettings,
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
