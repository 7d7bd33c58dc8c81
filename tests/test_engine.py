"""Tests for the numerical engine: Newton, Jacobians, spectra, integration."""

import math

import numpy as np
import pytest

from adnlab.engine import (
    DaeSystem,
    Params,
    eigenvalues,
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

    def test_values_not_writable(self):
        p = Params(("a",), [1.0])
        with pytest.raises(ValueError):
            p.values[0] = 3.0


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

    def test_oscillator_energy_drift(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = linear_system(a)
        period = 2 * math.pi
        traj = integrate(sys, np.array([1.0, 0.0]), sys.params0,
                         t_end=100 * period, h=period / 100.0)
        energy = np.sum(traj.states ** 2, axis=1)
        assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-6

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

    def test_one_residual_call_per_newton_check(self, monkeypatch):
        """Each step starts from the residual its predecessor's last Newton
        check computed: outside Jacobians, the only calls are ``F(x0)`` and
        one per step-Newton iteration (each solve plus each converged
        check)."""
        from adnlab import engine

        a = np.array([[-1.0, 2.0, 0.5], [-2.0, -1.0, 0.0],
                      [1.0, 0.0, -1.0]])
        calls = {"residual": 0, "jacobian": 0, "solve": 0}

        def residual(x, p):
            calls["residual"] += 1
            return a @ x

        def counted_jacobian(*args):
            before = calls["residual"]
            jac = jacobian_fd(*args)
            calls["jacobian"] += calls["residual"] - before
            return jac

        solve = np.linalg.solve

        def counted_solve(*args):
            calls["solve"] += 1
            return solve(*args)

        monkeypatch.setattr(engine, "jacobian_fd", counted_jacobian)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        sys = DaeSystem(3, residual, lambda p: np.array([1.0, 1.0, 0.0]),
                        Params((), []))
        traj = integrate(sys, np.array([1.0, 0.0, 1.0]), sys.params0,
                         t_end=0.2, h=0.01, startup_be_steps=2,
                         damped_every=5)
        damped = {0, 1, 4, 9, 14, 19}          # steps taken as two halves
        sub_steps = len(traj.times) - 1 + len(damped)
        assert calls["solve"] >= sub_steps
        assert calls["residual"] - calls["jacobian"] == \
            1 + calls["solve"] + sub_steps

    def test_bad_step_rejected(self):
        sys = linear_system(-np.eye(1))
        with pytest.raises(ValueError):
            integrate(sys, np.array([1.0]), sys.params0, t_end=1.0, h=0.0)

    def test_failure_carries_time_stamp(self):
        # finite-time blow-up: x' = x^2, x(0)=1 diverges at t=1
        sys = DaeSystem(1, lambda x, p: np.array([x[0] ** 2]),
                        lambda p: np.ones(1), Params((), []))
        with pytest.raises(IntegrationError) as err:
            integrate(sys, np.array([1.0]), sys.params0, t_end=2.0, h=1e-3)
        assert err.value.time is not None
        assert 0.9 < err.value.time <= 2.0
