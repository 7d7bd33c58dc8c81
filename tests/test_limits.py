"""Tests for the smooth limit functions."""

import math

import numpy as np
import pytest

from adnlab.errors import ModelValidationError
from adnlab.limits import (
    _lncosh,
    anti_windup_rate,
    rate_window,
    sat,
    sat_vector,
    smooth_deadband,
)
from oracles import hard_clip, sat_slope, smooth_deadband_slope


class TestSat:
    def test_zero_maps_to_zero(self):
        assert sat(1.0, 1.0, 0.0) == 0.0

    def test_unit_limiter_k1_at_limit(self):
        # limit * tanh(k x / limit) at limit=1, k=1, x=1
        assert sat(1.0, 1.0, 1.0) == pytest.approx(
            math.tanh(1.0), abs=1e-15)
        assert math.tanh(1.0) == pytest.approx(0.761594, abs=1e-6)

    def test_k10_approaches_hard_clip(self):
        y = float(sat(1.0, 10.0, 1.0))
        assert y == pytest.approx(math.tanh(10.0), abs=1e-15)
        assert y >= 0.9999

    def test_odd_and_bounded(self):
        lim = 2.0, 5.0
        xs = np.linspace(-30.0, 30.0, 301)
        ys = np.array([sat(*lim, x) for x in xs])
        assert np.allclose(ys, [-sat(*lim, -x) for x in xs], atol=1e-15)
        assert np.all(np.abs(ys) <= 2.0)
        # strictly below the limit wherever tanh has not rounded to 1
        mid = np.array([sat(*lim, x) for x in np.linspace(-3.0, 3.0, 301)])
        assert np.all(np.abs(mid) < 2.0)
        assert np.all(np.diff(mid) > 0.0)

    def test_lipschitz_constant_is_k(self):
        lim = 1.5, 7.0
        xs = np.linspace(-5.0, 5.0, 2001)
        slopes = np.diff([sat(*lim, x) for x in xs]) / np.diff(xs)
        assert np.max(np.abs(slopes)) <= 7.0 + 1e-9
        assert sat_slope(*lim, 0.0) == pytest.approx(7.0, rel=1e-12)

    def test_pointwise_convergence_on_saturated_region(self):
        xs = np.concatenate([np.linspace(1.0, 4.0, 31),
                             np.linspace(-4.0, -1.0, 31)])
        err = [np.max(np.abs(hard_clip(1.0, xs)
                             - [sat(1.0, k, x) for x in xs]))
               for k in (1, 2, 5, 10, 20, 50)]
        assert all(e2 <= e1 + 1e-15 for e1, e2 in zip(err, err[1:]))
        assert err[-1] < 1e-4

    def test_error_at_limit_small_for_default_sharpness(self):
        # design point: error below 1e-4 * limit at |x| = limit for k = 10
        lim = 3.0, 10.0
        assert abs(3.0 - float(sat(*lim, 3.0))) < 1e-4 * 3.0

    def test_fd_slope_matches_analytic(self):
        lim = 1.2, 8.0
        h = 1e-7
        for x in (-2.0, -0.3, 0.0, 0.17, 1.2, 4.0):
            fd = (float(sat(*lim, x + h)) - float(sat(*lim, x - h))) / (2 * h)
            ana = float(sat_slope(*lim, x))
            assert fd == pytest.approx(ana, rel=1e-6, abs=1e-9)



class TestSatVector:
    def test_limit_not_positive_refused_even_for_zero_vector(self):
        for limit in (0.0, -1.0, math.nan):
            for xd, xq in ((0.0, 0.0), (0.3, -0.4)):
                with pytest.raises(ModelValidationError,
                                   match="limiter magnitude must be positive"):
                    sat_vector(limit, 10.0, xd, xq)

    def test_zero_vector_unchanged(self):
        assert sat_vector(1.0, 5.0, 0.0, 0.0) == (0.0, 0.0)

    def test_d_axis_stays_on_d_axis(self):
        d, q = sat_vector(1.0, 5.0, 0.7, 0.0)
        assert q == 0.0
        assert d > 0.0

    def test_worked_magnitude_and_direction(self):
        lim = 1.2, 5.0
        d, q = sat_vector(*lim, 3.0, 4.0)
        mag = math.hypot(d, q)
        assert mag == pytest.approx(1.2 * math.tanh(5.0 * 5.0 / 1.2), rel=1e-12)
        assert mag == pytest.approx(1.2, abs=1e-6)
        assert (d / mag, q / mag) == pytest.approx((0.6, 0.8), rel=1e-12)

    def test_angle_preserved_on_grid(self):
        lim = 0.9, 3.0
        rng = np.random.default_rng(42)
        for _ in range(50):
            xd, xq = rng.uniform(-3, 3, 2)
            if math.hypot(xd, xq) < 1e-12:
                continue
            yd, yq = sat_vector(*lim, xd, xq)
            cross = xd * yq - xq * yd
            assert abs(cross) <= 1e-12 * math.hypot(xd, xq)
            assert xd * yd + xq * yq >= 0.0


class TestSmoothDeadband:
    def test_zero_error(self):
        assert float(smooth_deadband(0.1, 10.0, 0.0)) == 0.0

    def test_far_outside_matches_shifted_identity(self):
        d = 0.05
        e = 10 * d
        y = float(smooth_deadband(d, 50.0, e))
        assert y == pytest.approx(e - d, rel=0.02)

    def test_odd_on_grid(self):
        es = np.linspace(-0.5, 0.5, 101)
        y = [smooth_deadband(0.07, 20.0, e) for e in es]
        assert np.allclose(y, [-smooth_deadband(0.07, 20.0, -e) for e in es],
                           atol=1e-15)

    def test_monotone_nondecreasing(self):
        es = np.linspace(-1.0, 1.0, 4001)
        y = [smooth_deadband(0.1, 30.0, e) for e in es]
        assert np.all(np.diff(y) >= -1e-14)

    def test_small_inside_band(self):
        d, k = 0.1, 20.0
        inside = np.linspace(-0.8 * d, 0.8 * d, 41)
        y = [smooth_deadband(d, k, e) for e in inside]
        assert np.max(np.abs(y)) < 0.02 * d

    def test_fd_slope_matches_analytic(self):
        d, k = 0.08, 12.0
        h = 1e-7
        for e in (-0.3, -0.08, 0.0, 0.05, 0.08, 0.4):
            fd = (float(smooth_deadband(d, k, e + h))
                  - float(smooth_deadband(d, k, e - h))) / (2 * h)
            ana = float(smooth_deadband_slope(d, k, e))
            assert fd == pytest.approx(ana, rel=1e-6, abs=1e-9)

    def test_zero_width_is_identity(self):
        assert float(smooth_deadband(0.0, 10.0, 0.37)) == 0.37


class TestRateWindow:
    def test_interior_near_unity(self):
        assert rate_window(1.0, 0.9, 1.1, 50.0, +1.0) >= 0.999
        assert rate_window(1.0, 0.9, 1.1, 50.0, -1.0) >= 0.999

    def test_at_limit_toward_it(self):
        w = rate_window(1.1, 0.9, 1.1, 50.0, +1.0)
        assert w <= 0.5
        beyond = rate_window(1.11, 0.9, 1.1, 50.0, +1.0)
        assert beyond < w

    def test_at_limit_away_from_it(self):
        assert rate_window(1.1, 0.9, 1.1, 50.0, -1.0) >= 0.999

    def test_suppression_factor_at_limit(self):
        interior = rate_window(1.0, 0.9, 1.1, 50.0, +1.0)
        at_limit = rate_window(1.1, 0.9, 1.1, 50.0, +1.0)
        assert at_limit < interior * 1e-3

    def test_zero_direction(self):
        assert rate_window(1.05, 0.9, 1.1, 50.0, 0.0) == 1.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            rate_window(1.0, 1.1, 0.9, 50.0, 1.0)


class TestFloatKernel:
    """Every limiter returns a Python float for float inputs, so the
    residual code that uses it stays in float arithmetic."""

    def test_float_in_float_out(self):
        lim = 1.2, 5.0
        values = [sat(*lim, 0.7), *sat_vector(*lim, 3.0, 4.0),
                  smooth_deadband(0.1, 10.0, 0.3), _lncosh(-2.5),
                  rate_window(1.05, 0.9, 1.1, 50.0, 1.0)]
        assert [type(v) for v in values] == [float] * 6


class TestAntiWindup:
    def test_unsaturated_reduces_to_plain_integration(self):
        assert anti_windup_rate(0.3, 0.7, 0.7, 1.0) == 0.3

    def test_bleeds_when_saturated(self):
        assert anti_windup_rate(0.0, 1.5, 1.0, 1.0) < 0.0

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            anti_windup_rate(0.0, 1.0, 1.0, -0.1)

    def test_pi_loop_integrator_peak_smaller_with_antiwindup(self):
        # first-order plant driven by a PI controller whose command is
        # hard-limited; back-calculation keeps the integrator small
        def simulate(k_aw):
            kp, ki, u_lim = 2.0, 20.0, 0.5
            tau, h = 0.05, 1e-4
            y = xi = 0.0
            peak = 0.0
            for _ in range(int(1.0 / h)):
                e = 1.0 - y
                u_raw = kp * e + xi
                u_sat = max(-u_lim, min(u_lim, u_raw))
                xi += h * anti_windup_rate(ki * e, u_raw, u_sat, k_aw)
                y += h * (u_sat - y) / tau
                peak = max(peak, abs(xi))
            return peak

        assert simulate(1.0) < simulate(0.0)
