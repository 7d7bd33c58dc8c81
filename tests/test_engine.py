"""Tests for the numerical engine: Newton, Jacobians, spectra, integration."""

import math
import warnings

import numpy as np
import pytest

from adnlab.engine import (
    SLOW_STEP,
    DaeSystem,
    Params,
    eigenvalues,
    equilibrium_sensitivity,
    integrate,
    jacobian_fd,
    newton_equilibrium,
    reduced_state_matrix,
)
from adnlab.errors import IntegrationError, NonConvergenceError, SingularJacobianError
from adnlab.limits import SmoothLimiter, sat
from oracles import sat_slope


def linear_system(a_matrix, params=None):
    a_matrix = np.asarray(a_matrix, dtype=float)
    n = a_matrix.shape[0]
    p0 = params if params is not None else Params((), [])
    return DaeSystem(n, lambda x, p: a_matrix @ x, lambda p: np.ones(n), p0)


class TestParams:
    def test_roundtrip_and_immutability(self):
        p = Params(("a", "b"), [1.0, 2.0])
        assert p["a"] == 1.0
        q = p.with_value("b", 5.0)
        assert p["b"] == 2.0 and q["b"] == 5.0
        with pytest.raises(KeyError):
            p.with_value("c", 0.0)
        with pytest.raises(ValueError):
            Params(("a", "a"), [1.0, 2.0])

    def test_values_are_one_tuple_of_floats(self):
        p = Params(("a", "b"), np.array([1, 2.5]))
        assert p.values == (1.0, 2.5)
        assert all(type(v) is float for v in p.values)
        assert type(p["a"]) is float
        q = p.with_value("b", np.float64(5.0))
        assert q.values == (1.0, 5.0) and type(q.values[1]) is float
        assert p.values == (1.0, 2.5)
        assert p.with_values({"a": 3.0}).values == (3.0, 2.5)


class TestJacobianFd:
    def test_linear_system_exact(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        sys = linear_system(a)
        jac = jacobian_fd(sys, rng.normal(size=5), sys.params0)
        assert np.max(np.abs(jac - a)) < 1e-9

    def test_sat_row_matches_analytic_slope(self):
        lim = SmoothLimiter(1.0, 10.0)
        sys = DaeSystem(1, lambda x, p: np.array([float(sat(lim, x[0]))]),
                        lambda p: np.ones(1), Params((), []))
        for x0 in (-1.5, -0.2, 0.0, 0.08, 0.6, 2.0):
            jac = jacobian_fd(sys, np.array([x0]), sys.params0)
            assert jac[0, 0] == pytest.approx(float(sat_slope(lim, x0)),
                                              rel=1e-6, abs=1e-9)

    def test_nonfinite_entry_reported(self):
        def residual(x, p):
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.array([np.log(x[0])])

        sys = DaeSystem(1, residual, lambda p: np.ones(1), Params((), []),
                        state_names=("u",))
        with pytest.raises(NonConvergenceError, match="u"):
            jacobian_fd(sys, np.array([0.0]), sys.params0)


class TestNewton:
    def test_fixed_point_returns_immediately(self):
        a = -np.eye(3)
        sys = linear_system(a)
        sol = newton_equilibrium(sys, np.zeros(3), sys.params0)
        assert sol.iterations <= 1
        assert sol.residual_norm <= 1e-9

    def test_quadratic_root(self):
        sys = DaeSystem(1, lambda x, p: np.array([p["mu"] - x[0] ** 2]),
                        lambda p: np.ones(1), Params(("mu",), [4.0]))
        sol = newton_equilibrium(sys, np.array([1.0]), sys.params0)
        assert sol.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_no_solution_raises_with_diagnostics(self):
        sys = DaeSystem(1, lambda x, p: np.array([1.0 + x[0] ** 2]),
                        lambda p: np.ones(1), Params((), []),
                        state_names=("w",))
        with pytest.raises(NonConvergenceError) as err:
            newton_equilibrium(sys, np.array([0.5]), sys.params0)
        assert err.value.residual_norm is not None
        assert err.value.worst_name == "w"

    def test_singular_jacobian_raises(self):
        sys = DaeSystem(2, lambda x, p: np.array([x[0] + x[1] - 1.0,
                                                  x[0] + x[1] - 1.0]),
                        lambda p: np.ones(2), Params((), []))
        with pytest.raises(SingularJacobianError):
            newton_equilibrium(sys, np.array([5.0, 5.0]), sys.params0)

    def test_overflowed_trial_is_not_evaluated(self):
        # the full step overflows (the root lies beyond the float range):
        # each trial must count as failed without a residual call
        def res(x, p):
            assert np.all(np.isfinite(x)), "residual of an overflowed trial"
            return 1e-12 * x - 1e297

        sys = DaeSystem(1, res, lambda p: np.ones(1), Params((), []))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonConvergenceError, match="stalled"):
                newton_equilibrium(sys, np.array([1.7e308]), sys.params0)

    def test_invariant_under_state_reordering(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) - 3 * np.eye(4)
        b = rng.normal(size=4)
        sys = DaeSystem(4, lambda x, p: a @ x - b, lambda p: np.ones(4),
                        Params((), []))
        perm = np.array([2, 0, 3, 1])
        a_p = a[np.ix_(perm, perm)]
        b_p = b[perm]
        sys_p = DaeSystem(4, lambda x, p: a_p @ x - b_p,
                          lambda p: np.ones(4), Params((), []))
        x0 = rng.normal(size=4)
        sol = newton_equilibrium(sys, x0, sys.params0)
        sol_p = newton_equilibrium(sys_p, x0[perm], sys_p.params0)
        assert np.max(np.abs(sol.x[perm] - sol_p.x)) < 1e-8


class TestEquilibriumSensitivity:
    # the fold toy F = mu - c x^2 has the equilibrium x = sqrt(mu / c)
    fold = DaeSystem(1, lambda x, p: np.array([p["mu"] - p["c"] * x[0] ** 2]),
                     lambda p: np.ones(1), Params(("mu", "c"), [4.0, 1.0]))

    @pytest.mark.parametrize("x", [0.5, 2.0, 3.0])
    def test_fold_toy_closed_form(self, x):
        p = self.fold.params0.with_value("mu", x * x)
        dx = equilibrium_sensitivity(self.fold, np.array([x]), p, ("mu", "c"))
        assert dx.shape == (1, 2)
        assert dx[0, 0] == pytest.approx(1.0 / (2.0 * x), rel=1e-8)
        assert dx[0, 1] == pytest.approx(-x / 2.0, rel=1e-8)

    def test_singular_at_the_fold(self):
        p = self.fold.params0.with_value("mu", 0.0)
        with pytest.raises(SingularJacobianError):
            equilibrium_sensitivity(self.fold, np.array([0.0]), p, ("mu",))


class TestReducedStateMatrix:
    def test_all_dynamic_scales_by_inverse_mass(self):
        a = np.array([[-2.0, 1.0], [0.5, -3.0]])
        mass = np.array([2.0, 4.0])
        sys = DaeSystem(2, lambda x, p: a @ x, lambda p: mass, Params((), []))
        red = reduced_state_matrix(sys, np.zeros(2), sys.params0)
        assert np.allclose(red, a / mass[:, None], atol=1e-8)

    def test_scalar_decay(self):
        sys = DaeSystem(1, lambda x, p: np.array([-3.5 * x[0]]),
                        lambda p: np.ones(1), Params((), []))
        red = reduced_state_matrix(sys, np.zeros(1), sys.params0)
        assert red[0, 0] == pytest.approx(-3.5, rel=1e-8)

    def test_algebraic_elimination(self):
        # x' = -x + y with algebraic 0 = x - 2 y  ->  x' = -x/2
        def res(x, p):
            return np.array([-x[0] + x[1], x[0] - 2.0 * x[1]])

        sys = DaeSystem(2, res, lambda p: np.array([1.0, 0.0]), Params((), []))
        red = reduced_state_matrix(sys, np.zeros(2), sys.params0)
        assert red.shape == (1, 1)
        assert red[0, 0] == pytest.approx(-0.5, rel=1e-8)

    def test_singular_algebraic_block(self):
        def res(x, p):
            return np.array([-x[0], 0.0 * x[1]])

        sys = DaeSystem(2, res, lambda p: np.array([1.0, 0.0]), Params((), []))
        with pytest.raises(SingularJacobianError):
            reduced_state_matrix(sys, np.zeros(2), sys.params0)

    def test_denormal_mass_names_its_row(self):
        sys = DaeSystem(2, lambda x, p: -x, lambda p: np.array([1.0, 5e-324]),
                        Params((), []), state_names=("a", "b"))
        with pytest.raises(NonConvergenceError, match="'b'") as err:
            reduced_state_matrix(sys, np.zeros(2), sys.params0)
        assert err.value.worst_index == 1


class TestEigenvalues:
    def test_diagonal(self):
        rep = eigenvalues(np.diag([-1.0, -7.0, 2.5]))
        assert rep.rightmost_real == pytest.approx(2.5, abs=1e-12)
        assert np.allclose(sorted(rep.eigenvalues.real), [-7.0, -1.0, 2.5])

    def test_rotation_plus_damping(self):
        rep = eigenvalues([[-1.0, 5.0], [-5.0, -1.0]])
        assert np.allclose(sorted(rep.eigenvalues.imag), [-5.0, 5.0], atol=1e-12)
        assert np.allclose(rep.eigenvalues.real, -1.0, atol=1e-12)

    def test_companion_cubic(self):
        # (s + 1)(s^2 + 0.2 s + 4) = s^3 + 1.2 s^2 + 4.2 s + 4
        comp = np.array([[0.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0],
                         [-4.0, -4.2, -1.2]])
        rep = eigenvalues(comp)
        eigs = sorted(rep.eigenvalues, key=lambda z: (round(z.real, 9), z.imag))
        assert eigs[0] == pytest.approx(-1.0, abs=1e-9)
        assert eigs[1].real == pytest.approx(-0.1, abs=1e-9)
        assert abs(eigs[1].imag) == pytest.approx(math.sqrt(3.99), abs=1e-9)
        assert math.sqrt(3.99) == pytest.approx(1.997498, abs=1e-6)

    def test_sorted_descending_real(self):
        rep = eigenvalues(np.diag([1.0, -2.0, 0.5]))
        assert list(rep.eigenvalues.real) == sorted(rep.eigenvalues.real,
                                                    reverse=True)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[np.nan]]))


class TestIntegrate:
    def test_exponential_decay(self):
        sys = DaeSystem(1, lambda x, p: -x, lambda p: np.ones(1), Params((), []))
        traj = integrate(sys, np.array([1.0]), sys.params0, t_end=1.0, h=1e-3)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_stiff_mode_decays(self):
        # a mode 100 times faster than the step rate is damped, not rung
        sys = DaeSystem(1, lambda x, p: -1e4 * x, lambda p: np.ones(1),
                        Params((), []))
        traj = integrate(sys, np.array([1.0]), sys.params0, t_end=0.1, h=1e-2)
        assert abs(traj.states[-1, 0]) < 1e-9

    def test_second_order(self):
        sys = DaeSystem(1, lambda x, p: -x, lambda p: np.ones(1), Params((), []))
        errors = [abs(integrate(sys, np.array([1.0]), sys.params0, t_end=1.0,
                                h=h).states[-1, 0] - math.exp(-1.0))
                  for h in (1e-2, 5e-3)]
        assert errors[1] < 0.3 * errors[0]

    def test_equilibrium_stays_put(self):
        def res(x, p):
            return np.array([-2.0 * (x[0] - 3.0)])

        sys = DaeSystem(1, res, lambda p: np.ones(1), Params((), []))
        traj = integrate(sys, np.array([3.0]), sys.params0, t_end=2.0, h=1e-2)
        assert np.max(np.abs(traj.states - 3.0)) < 1e-9

    def test_algebraic_row_enforced(self):
        # y is pinned to 2 x algebraically while x decays
        def res(x, p):
            return np.array([-x[0], 2.0 * x[0] - x[1]])

        sys = DaeSystem(2, res, lambda p: np.array([1.0, 0.0]), Params((), []))
        traj = integrate(sys, np.array([1.0, 2.0]), sys.params0, t_end=1.0,
                         h=1e-3)
        assert np.max(np.abs(traj.states[:, 1] - 2.0 * traj.states[:, 0])) < 1e-9

    def test_matches_the_bdf2_recursion(self):
        """The extrapolated start moves only where Newton begins: on a
        linear DAE, ``integrate`` lands on the backward-Euler-then-BDF2
        recursion solved directly."""
        a = np.array([[-1.0, 0.0, 0.5], [1.0, -2.0, 0.0],
                      [1.0, 1.0, -1.0]])
        m = np.array([1.0, 1.0, 0.0])
        sys = DaeSystem(3, lambda x, p: a @ x, lambda p: m, Params((), []))
        h, x0 = 0.01, np.array([1.0, 0.0, 1.0])
        traj = integrate(sys, x0, sys.params0, t_end=1.0, h=h)

        def bdf_step(base, coef):
            # dynamic rows: m (z - base) = coef A z; algebraic row: A z = 0
            lhs = np.where(m[:, None] > 0.0, np.diag(m) - coef * a, a)
            return np.linalg.solve(lhs, np.where(m > 0.0, m * base, 0.0))

        ref = [x0, bdf_step(x0, h)]
        while len(ref) < len(traj.times):
            ref.append(bdf_step((4.0 * ref[-1] - ref[-2]) / 3.0, 2.0 * h / 3.0))
        assert np.max(np.abs(traj.states - np.array(ref))) < 1e-12

    def test_one_residual_call_per_newton_check(self, monkeypatch):
        """Outside Jacobians, the only residual calls are one per
        step-Newton correction: the step that a correction's own size
        accepts makes no further residual call.  Each step-Jacobian build
        is inverted once, and every correction applies that inverse
        instead of a linear solve."""
        from adnlab import engine

        a = np.array([[-1.0, 2.0, 0.5], [-2.0, -1.0, 0.0],
                      [1.0, 0.0, -1.0]])
        calls = {"residual": 0, "jacobian": 0, "build": 0, "inv": 0,
                 "correction": 0, "solve": 0}

        class CountedInverse(np.ndarray):
            def __matmul__(self, other):
                calls["correction"] += 1
                return np.asarray(self) @ other

        def residual(x, p):
            calls["residual"] += 1
            return a @ x

        def counted_jacobian(*args):
            before = calls["residual"]
            jac = jacobian_fd(*args)
            calls["jacobian"] += calls["residual"] - before
            calls["build"] += 1
            return jac

        inv, solve = np.linalg.inv, np.linalg.solve

        def counted_inv(matrix):
            calls["inv"] += 1
            return inv(matrix).view(CountedInverse)

        def counted_solve(*args):
            calls["solve"] += 1
            return solve(*args)

        monkeypatch.setattr(engine, "jacobian_fd", counted_jacobian)
        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        sys = DaeSystem(3, residual, lambda p: np.array([1.0, 1.0, 0.0]),
                        Params((), []))
        traj = integrate(sys, np.array([1.0, 0.0, 1.0]), sys.params0,
                         t_end=0.2, h=0.01)
        steps = len(traj.times) - 1
        assert calls["build"] >= 1
        assert calls["inv"] == calls["build"]
        assert calls["solve"] == 0
        assert calls["correction"] >= steps
        assert calls["residual"] - calls["jacobian"] == calls["correction"]

    def test_fast_steps_keep_one_matrix_per_coefficient(self, monkeypatch):
        """A linear DAE whose every step converges in one or two
        corrections inverts one matrix for the backward-Euler step and one
        for every BDF2 step of a 120-step run."""
        a = np.array([[-1.0, 0.0, 0.5], [1.0, -2.0, 0.0],
                      [1.0, 1.0, -1.0]])
        calls = {"inv": 0, "check": 0}
        inv = np.linalg.inv

        def counted_inv(matrix):
            calls["inv"] += 1
            return inv(matrix)

        def residual(x, p):
            calls["check"] += 1
            return a @ x

        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        sys = DaeSystem(3, residual, lambda p: np.array([1.0, 1.0, 0.0]),
                        Params((), []))
        traj = integrate(sys, np.array([1.0, 0.0, 1.0]), sys.params0,
                         t_end=1.2, h=0.01)
        steps = len(traj.times) - 1
        assert steps == 120
        # without a pattern, each Jacobian makes 2 residual calls per state
        assert calls["check"] - 2 * 3 * calls["inv"] <= 3 * steps
        assert calls["inv"] == 2

    def test_a_slow_step_rebuilds_the_matrix_before_the_next_step(
            self, monkeypatch):
        """x' = -x above 0.5 and -50 x below: the step that crosses 0.5
        iterates on the matrix of the slow decay and needs many
        corrections.  It keeps that matrix to the end; the next step
        rebuilds it at its own start iterate, the quadratic predictor
        ``3 x_n - 3 x_(n-1) + x_(n-2)``, and the fast steps after that
        keep the new one."""
        from adnlab import engine

        events = []
        in_jacobian = [False]

        def residual(x, p):
            if not in_jacobian[0]:
                events.append(("check", x.copy()))
            return np.where(x > 0.5, -x, -50.0 * x)

        def recorded_jacobian(sys, x, p):
            events.append(("build", x.copy()))
            in_jacobian[0] = True
            try:
                return jacobian_fd(sys, x, p)
            finally:
                in_jacobian[0] = False

        monkeypatch.setattr(engine, "jacobian_fd", recorded_jacobian)
        sys = DaeSystem(1, residual, lambda p: np.ones(1), Params((), []))
        states = integrate(sys, np.array([1.0]), sys.params0, t_end=1.2,
                           h=0.01).states
        # each step's start iterate, formed as integrate forms it
        from_two = np.array([[-1.0 / 3.0, 4.0 / 3.0], [-1.0, 2.0]])
        from_three = np.array([[0.0, -1.0 / 3.0, 4.0 / 3.0],
                               [1.0, -3.0, 3.0]])
        starts = [states[0], (from_two @ states[:2])[1]]
        starts += [(from_three @ states[k - 2:k + 1])[1]
                   for k in range(2, len(states) - 1)]
        # split the events by step: a step's first check is at its start
        step, checks, built_in = 0, [0] * (len(states) - 1), []
        for kind, x in events:
            if step + 1 < len(starts) and np.array_equal(x, starts[step + 1]):
                step += 1
            if kind == "build":
                built_in.append((step, x))
            else:
                checks[step] += 1
        assert step == len(starts) - 1
        slow, = [k for k, c in enumerate(checks) if c >= SLOW_STEP]
        assert [k for k, _ in built_in] == [0, 1, slow + 1]
        assert np.array_equal(built_in[2][1], starts[slow + 1])

    def test_bad_step_rejected(self):
        sys = linear_system(-np.eye(1))
        with pytest.raises(ValueError):
            integrate(sys, np.array([1.0]), sys.params0, t_end=1.0, h=0.0)

    def test_failure_carries_time_stamp(self):
        # finite-time blow-up: x' = x^2, x(0)=1 diverges at t=1.  A step
        # attempt ends at its first non-finite residual, so no residual call
        # gets a non-finite state and the integrator's arithmetic raises no
        # RuntimeWarning (the model's own overflow to inf is silenced).
        states = []

        def res(x, p):
            states.append(x.copy())
            with np.errstate(over="ignore"):
                return np.array([x[0] ** 2])

        sys = DaeSystem(1, res, lambda p: np.ones(1), Params((), []))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IntegrationError) as err:
                integrate(sys, np.array([1.0]), sys.params0, t_end=2.0,
                          h=1e-3)
        assert err.value.time is not None
        assert 0.9 < err.value.time <= 2.0
        assert np.all(np.isfinite(states))
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
