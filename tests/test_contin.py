"""Tests for pseudo-arclength continuation and bifurcation machinery."""

import math
from pathlib import Path

import numpy as np
import pytest

import adnlab.contin
import adnlab.engine
from adnlab.contin import (
    Branch,
    BranchPoint,
    ContinuationSettings,
    continue_branch,
    locate_all,
    locate_bifurcation,
    trace_boundary_2d,
    _classify,
    _dF_dlam,
)
from adnlab.converters import GflConverter
from adnlab.engine import (
    DaeSystem,
    Params,
    SpectrumReport,
    jacobian_fd,
    newton_equilibrium,
    spectrum_at,
)
from adnlab.errors import ConfigurationError
from adnlab.network import (
    Bus,
    GridSource,
    NetworkModel,
    RlBranch,
    ZipLoad,
    reactance_to_inductance,
)
from adnlab.scenario import load_scenario
from oracles import full_trace_boundary_row, limit_cycle_amplitude

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def classified(branch):
    """The coarse records of a branch, without their brackets."""
    return [rec for rec, _ in _classify(branch)]


def fold_system():
    return DaeSystem(1, lambda x, p: np.array([p["mu"] - x[0] ** 2]),
                     lambda p: np.ones(1), Params(("mu",), [1.0]),
                     state_names=("x",))


def hopf_system(mu0=-0.5):
    def residual(x, p):
        mu = p["mu"]
        r2 = x[0] ** 2 + x[1] ** 2
        return np.array([mu * x[0] - x[1] - x[0] * r2,
                         x[0] + mu * x[1] - x[1] * r2])

    return DaeSystem(2, residual, lambda p: np.ones(2),
                     Params(("mu",), [mu0]), state_names=("x", "y"))


def two_bus_system(x_line=0.5, p0=0.8, b_sh=1e-6):
    model = NetworkModel(
        buses=(Bus("b1", b_sh=b_sh), Bus("b2", b_sh=b_sh)),
        branches=(RlBranch("line", "b1", "b2", r=0.0,
                           l=reactance_to_inductance(x_line)),),
        sources=(GridSource("grid", "b1"),),
        zip_loads=(ZipLoad("load", "b2", p0=p0),),
    )
    return model.build()


def gfl_weak_grid_system():
    model = NetworkModel(
        buses=(Bus("b1", b_sh=1e-4), Bus("b2", b_sh=1e-4)),
        branches=(RlBranch("line", "b1", "b2", r=0.02,
                           l=reactance_to_inductance(0.2)),),
        sources=(GridSource("grid", "b1"),),
        gfls=(GflConverter("c1", "b2", p_ref=0.75, kq=0.5, limiter_k=1.0,
                           kp_pll=20.0, ki_pll=200.0, tau_meas=0.005),),
    )
    return model.build()


class TestNormalForms:
    def test_fold_located_to_1e8(self):
        sys = fold_system()
        sol = newton_equilibrium(sys, np.array([1.0]), sys.params0)
        settings = ContinuationSettings(h0=0.05, direction=-1.0,
                                        param_min=-1.0, param_max=2.0,
                                        max_steps=200)
        branch = continue_branch(sys, sol, "mu", settings)
        assert not branch.truncated
        # the branch traverses the fold onto the unstable segment
        assert branch[-1].lam > 0.5
        records = locate_all(sys, branch, sys.params0)
        snbs = [r for r in records if r.kind == "SNB"]
        assert len(snbs) == 1
        assert abs(snbs[0].lam) <= 1e-8
        assert abs(snbs[0].n_unstable_after - snbs[0].n_unstable_before) == 1

    def test_hopf_located_to_1e8(self):
        sys = hopf_system()
        sol = newton_equilibrium(sys, np.zeros(2), sys.params0)
        settings = ContinuationSettings(h0=0.02, direction=1.0,
                                        param_min=-1.0, param_max=0.5,
                                        max_steps=200)
        branch = continue_branch(sys, sol, "mu", settings)
        records = locate_all(sys, branch, sys.params0)
        hbs = [r for r in records if r.kind == "HB"]
        assert len(hbs) == 1
        assert abs(hbs[0].lam) <= 1e-8
        assert abs(hbs[0].eig.imag) == pytest.approx(1.0, rel=1e-6)
        assert abs(hbs[0].n_unstable_after - hbs[0].n_unstable_before) == 2

    def test_hopf_amplitude_square_root_law(self):
        sys = hopf_system()
        sol = newton_equilibrium(sys, np.zeros(2), sys.params0)
        branch = continue_branch(
            sys, sol, "mu",
            ContinuationSettings(h0=0.02, direction=1.0, param_min=-1.0,
                                 param_max=0.5, max_steps=200))
        hb = [r for r in locate_all(sys, branch, sys.params0)
              if r.kind == "HB"][0]
        amp = limit_cycle_amplitude(sys, hb, "mu", 0.04, "x")
        assert amp == pytest.approx(math.sqrt(0.04), rel=0.05)

    def test_hopf_amplitude_zero_on_stable_side(self):
        sys = hopf_system()
        sol = newton_equilibrium(sys, np.zeros(2), sys.params0)
        branch = continue_branch(
            sys, sol, "mu",
            ContinuationSettings(h0=0.02, direction=1.0, param_min=-1.0,
                                 param_max=0.5, max_steps=200))
        hb = [r for r in locate_all(sys, branch, sys.params0)
              if r.kind == "HB"][0]
        assert limit_cycle_amplitude(sys, hb, "mu", -0.05, "x") < 1e-6


class TestTwoBusNose:
    def test_single_snb_at_analytic_nose(self):
        sys = two_bus_system()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        settings = ContinuationSettings(h0=0.02, param_min=0.05,
                                        param_max=5.0, max_steps=500)
        branch = continue_branch(sys, sol, "lambda", settings)
        records = locate_all(sys, branch, sys.params0)
        snbs = [r for r in records if r.kind == "SNB"]
        assert len(snbs) == 1
        # maximum deliverable power V1^2 / (2 X) = 1.0 at X = 0.5
        assert snbs[0].lam * 0.8 == pytest.approx(1.0, abs=1e-4)
        assert len(records) == 1
        # branch continues past the fold onto the low-voltage segment
        v2 = [sys.bus_voltage_mag(pt.x, "b2") for pt in branch.points]
        assert min(v2) < 0.55

    def test_fold_tangent_nearly_vertical_in_lambda(self):
        sys = two_bus_system()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        branch = continue_branch(
            sys, sol, "lambda",
            ContinuationSettings(h0=0.02, param_min=0.05, param_max=5.0,
                                 max_steps=500))
        snb = [r for r in locate_all(sys, branch, sys.params0)
               if r.kind == "SNB"][0]
        # bordered tangent at the located fold
        p_star = sys.params0.with_value("lambda", snb.lam)
        jac = jacobian_fd(sys, snb.x, p_star)
        flam = _dF_dlam(sys, snb.x, p_star, "lambda")
        n = sys.n
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = jac
        aug[:n, n] = flam
        aug[n, :] = np.concatenate([np.zeros(n), [1.0]])
        # least-squares null direction of the bordered system
        _, _, vh = np.linalg.svd(aug[:n, :])
        tangent = vh[-1]
        tangent /= np.linalg.norm(tangent)
        assert abs(tangent[n]) <= 0.05

    def test_records_bisect_the_classified_bracket(self):
        sys = two_bus_system()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        branch = continue_branch(
            sys, sol, "lambda",
            ContinuationSettings(h0=0.02, param_min=0.05, param_max=5.0,
                                 max_steps=500))
        coarse, = classified(branch)
        assert coarse.kind == "SNB"
        # the consecutive pair the fold's determinant changes sign between
        pts = branch.points
        pairs = [(a, b) for a, b in zip(pts, pts[1:])
                 if a.det_sign * b.det_sign < 0.0]
        assert len(pairs) == 1
        lo, hi = pairs[0]
        bisected = locate_bifurcation(sys, "lambda", sys.params0, lo, hi,
                                      "SNB")
        located, = locate_all(sys, branch, sys.params0)
        assert (located.kind, located.lam, located.tol_achieved) == \
            (bisected.kind, bisected.lam, bisected.tol_achieved)
        assert located.s == coarse.s

    def test_branch_points_satisfy_residual_tolerance(self):
        sys = two_bus_system()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        branch = continue_branch(
            sys, sol, "lambda",
            ContinuationSettings(h0=0.02, param_min=0.3, param_max=5.0,
                                 max_steps=200))
        for pt in branch.points:
            p = sys.params0.with_value("lambda", pt.lam)
            assert np.max(np.abs(sys.residual(pt.x, p))) <= 1e-9

    def test_upper_branch_matches_per_point_newton(self):
        sys = two_bus_system()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        branch = continue_branch(
            sys, sol, "lambda",
            ContinuationSettings(h0=0.02, param_min=0.3, param_max=5.0,
                                 max_steps=200))
        checked = 0
        guess = sol.x
        for pt in branch.points:
            if pt.lam > 1.2 or pt.det_sign < 0:
                continue
            p = sys.params0.with_value("lambda", pt.lam)
            direct = newton_equilibrium(sys, guess, p)
            guess = direct.x
            assert np.max(np.abs(direct.x - pt.x)) < 1e-8
            checked += 1
        assert checked >= 5

    def test_start_outside_range_raises(self):
        sys = two_bus_system()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        with pytest.raises(ConfigurationError) as info:
            continue_branch(sys, sol, "line.l", ContinuationSettings(
                param_min=0.05, param_max=5.0))
        assert str(info.value) == (
            f"continuation of 'line.l' starts at {sys.params0['line.l']!r}, "
            "outside [param_min, param_max] = [0.05, 5.0]")

    def test_nonexistent_equilibrium_raises(self):
        sys = two_bus_system()
        p = sys.params0.with_value("lambda", 1.5)   # above the nose
        with pytest.raises(Exception):
            newton_equilibrium(sys, sys.initial_guess(), p)


class TestClassification:
    def _synthetic_point(self, s, lam, det_sign, hb_metric, hb_im=100.0,
                         activities=None, n_unstable=0, alg_cond=1.0):
        eigs = np.array([hb_metric + 1j * hb_im, hb_metric - 1j * hb_im]
                        + [-1.0] * (2 * n_unstable == 0)).astype(complex)
        spec = SpectrumReport(
            eigenvalues=np.array([1.0 + 0j] * n_unstable + [-1.0 + 0j]
                                 * (3 - n_unstable)),
            rightmost_real=1.0 if n_unstable else -1.0)
        return BranchPoint(x=np.zeros(2), lam=lam, s=s, spectrum=spec,
                           activities=activities or {}, det_sign=det_sign,
                           hb_metric=hb_metric, hb_im=hb_im,
                           alg_cond=alg_cond)

    def test_stable_branch_yields_no_records(self):
        branch = Branch(param="lambda")
        for i in range(5):
            branch.points.append(self._synthetic_point(
                s=0.1 * i, lam=1.0 + 0.1 * i, det_sign=1.0, hb_metric=-1.0))
        assert classified(branch) == []

    def test_lib_needs_activity_crossing_and_spectrum_change(self):
        branch = Branch(param="lambda")
        branch.points.append(self._synthetic_point(
            0.0, 1.0, 1.0, -1.0, activities={"c1": 0.8}, n_unstable=0))
        branch.points.append(self._synthetic_point(
            0.1, 1.1, 1.0, -1.0, activities={"c1": 1.2}, n_unstable=1))
        recs = classified(branch)
        assert [r.kind for r in recs] == ["LIB"]
        assert recs[0].limiter == "c1"
        # same crossing without a spectrum change is not an event
        branch2 = Branch(param="lambda")
        branch2.points.append(self._synthetic_point(
            0.0, 1.0, 1.0, -1.0, activities={"c1": 0.8}, n_unstable=0))
        branch2.points.append(self._synthetic_point(
            0.1, 1.1, 1.0, -1.0, activities={"c1": 1.2}, n_unstable=0))
        assert classified(branch2) == []

    def test_sib_candidate_on_conditioning_collapse(self):
        branch = Branch(param="lambda")
        branch.points.append(self._synthetic_point(
            0.0, 1.0, 1.0, -1.0, alg_cond=1e6))
        branch.points.append(self._synthetic_point(
            0.1, 1.1, 1.0, -1.0, alg_cond=1e13))
        recs = classified(branch)
        assert [r.kind for r in recs] == ["SIB-candidate"]

    def test_locate_rejects_sign_agreeing_bracket(self):
        sys = fold_system()
        sol = newton_equilibrium(sys, np.array([1.0]), sys.params0)
        branch = continue_branch(
            sys, sol, "mu",
            ContinuationSettings(h0=0.02, direction=-1.0, param_min=0.5,
                                 param_max=2.0, max_steps=50))
        with pytest.raises(ValueError):
            locate_bifurcation(sys, "mu", sys.params0, branch.points[0],
                               branch.points[1], "SNB")

    def test_truncation_diagnostic_at_wall(self):
        def residual(x, p):
            val = p["mu"] - x[0]
            if x[0] > 1.0:
                val = float("nan")
            return np.array([val])

        sys = DaeSystem(1, residual, lambda p: np.ones(1),
                        Params(("mu",), [0.0]), state_names=("x",))
        sol = newton_equilibrium(sys, np.array([0.0]), sys.params0)
        branch = continue_branch(
            sys, sol, "mu",
            ContinuationSettings(h0=0.05, h_min=1e-5, direction=1.0,
                                 param_min=-1.0, param_max=10.0,
                                 max_steps=500))
        assert branch.truncated
        assert "corrector failed" in branch.message
        assert branch[-1].lam < 1.01


class TestGflHopf:
    def test_one_hb_before_the_fold_on_weakening_grid(self):
        sys = gfl_weak_grid_system()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        settings = ContinuationSettings(
            h0=0.01, h_max=0.05,
            param_min=reactance_to_inductance(0.05),
            param_max=reactance_to_inductance(3.0), max_steps=400)
        branch = continue_branch(sys, sol, "line.l", settings)
        records = locate_all(sys, branch, sys.params0)
        hbs = [r for r in records if r.kind == "HB"]
        snbs = [r for r in records if r.kind == "SNB"]
        assert len(hbs) == 1
        assert snbs, "the weakening-grid branch should also fold"
        assert hbs[0].s < min(r.s for r in snbs)
        assert abs(hbs[0].n_unstable_after - hbs[0].n_unstable_before) == 2
        for snb in snbs:
            assert abs(snb.n_unstable_after - snb.n_unstable_before) == 1
        # independent oracle: eigenvalue sweep brackets the crossing
        lo = reactance_to_inductance(0.2)
        hi = reactance_to_inductance(0.4)
        assert lo < hbs[0].lam < hi
        x = sol.x
        for l_val, expect_stable in ((lo, True), (hi, False)):
            p = sys.params0.with_value("line.l", l_val)
            s = newton_equilibrium(sys, x, p)
            x = s.x
            rightmost = spectrum_at(sys, s.x, p).rightmost_real
            assert (rightmost < 0.0) == expect_stable

    def test_amplitude_scaling_near_supercritical_hopf(self):
        sys = gfl_weak_grid_system()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        branch = continue_branch(
            sys, sol, "line.l",
            ContinuationSettings(h0=0.01, h_max=0.05,
                                 param_min=reactance_to_inductance(0.05),
                                 param_max=reactance_to_inductance(3.0),
                                 max_steps=400))
        hb = [r for r in locate_all(sys, branch, sys.params0)
              if r.kind == "HB"][0]
        delta = 0.10 * hb.lam
        a1 = limit_cycle_amplitude(sys, hb, "line.l", hb.lam + delta,
                                   "b2.vq")
        a2 = limit_cycle_amplitude(sys, hb, "line.l", hb.lam + 2 * delta,
                                   "b2.vq")
        assert a1 > 1e-6 and a2 > 1e-6
        assert a2 / a1 == pytest.approx(math.sqrt(2.0), rel=0.20)


class TestBoundary2D:
    def test_analytic_reactance_family(self):
        sys = two_bus_system()
        base = sys.params0.with_value("lambda", 0.25)
        grid = [reactance_to_inductance(x) for x in (0.25, 0.5, 1.0)]
        settings = ContinuationSettings(h0=0.02, param_min=0.05,
                                        param_max=5.0, max_steps=600)
        boundary = trace_boundary_2d(sys, "lambda", "line.l", grid,
                                     settings, params=base)
        assert len(boundary.rows) == 3
        for row, x_val in zip(boundary.rows, (0.25, 0.5, 1.0)):
            assert row.kind == "SNB"
            expected = 1.0 / (2.0 * x_val)
            assert row.lam * 0.8 == pytest.approx(expected, rel=0.01)
        # lam* X = const to 1 percent across the family
        products = [row.lam * 0.8 * x for row, x in
                    zip(boundary.rows, (0.25, 0.5, 1.0))]
        assert max(products) - min(products) <= 0.01 * max(products)

    @staticmethod
    def bundled(name):
        """A bundled scenario's system, base parameters, continuation
        parameter and settings, as the ``boundary2d`` command reads them."""
        scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
        sys = scenario.build()
        cfg = dict(scenario.analysis["continuation"])
        param = cfg.pop("param")
        return (scenario, sys, scenario.base_params(sys), param,
                ContinuationSettings(**cfg))

    @pytest.mark.parametrize("name, param2, grid, kind", [
        ("two_bus", None, None, "SNB"),       # the scenario's own grid
        ("gfl_feeder", "c1.kq", [0.0, 0.5, 1.0], "HB"),
        ("showcase", "im1.t_mech", [0.27, 0.30, 0.33], "SNB"),
    ])
    def test_rows_equal_the_full_trace(self, name, param2, grid, kind):
        # a row stops at its first limit; the whole branch gives the same
        # row, to the bit
        scenario, sys, p, param, settings = self.bundled(name)
        if grid is None:
            param2 = scenario.analysis["boundary2d"]["param2"]
            grid = scenario.analysis["boundary2d"]["grid"]
        rows = trace_boundary_2d(sys, param, param2, grid, settings,
                                 params=p).rows
        expected = [full_trace_boundary_row(sys, param, param2, g, settings,
                                            p) for g in grid]
        assert [r.kind for r in expected] == [kind] * len(grid)
        assert [(r.param2, r.kind, r.lam.hex(), r.message) for r in rows] \
            == [(r.param2, r.kind, r.lam.hex(), r.message) for r in expected]

    def test_bundled_two_bus_work(self, monkeypatch):
        # the whole branches took 1 033 Jacobians and 10 580 residuals
        counts = {"residual": 0, "jacobian": 0}
        residual = adnlab.engine.DaeSystem.residual
        jacobian = adnlab.engine.jacobian_fd

        def counted_residual(self, x, p):
            counts["residual"] += 1
            return residual(self, x, p)

        def counted_jacobian(sys, x, p):
            counts["jacobian"] += 1
            return jacobian(sys, x, p)

        monkeypatch.setattr(adnlab.engine.DaeSystem, "residual",
                            counted_residual)
        for module in (adnlab.engine, adnlab.contin):
            monkeypatch.setattr(module, "jacobian_fd", counted_jacobian)
        scenario, sys, p, param, settings = self.bundled("two_bus")
        cfg = scenario.analysis["boundary2d"]
        trace_boundary_2d(sys, param, cfg["param2"], cfg["grid"], settings,
                          params=p)
        assert counts["jacobian"] <= 600
        assert counts["residual"] <= 6000

    def test_empty_grid(self):
        sys = two_bus_system()
        boundary = trace_boundary_2d(sys, "lambda", "line.l", [],
                                     ContinuationSettings(), sys.params0)
        assert boundary.rows == ()

    def test_row_failure_recorded(self):
        sys = two_bus_system()
        # the base loading is feasible at X=0.5 (nose at 1.25) but not at
        # X=1.0 (nose at 0.625): that row fails, the sweep proceeds
        base = sys.params0.with_value("lambda", 1.0)
        grid = [reactance_to_inductance(x) for x in (0.5, 1.0)]
        boundary = trace_boundary_2d(
            sys, "lambda", "line.l", grid,
            ContinuationSettings(h0=0.02, param_min=0.05, param_max=5.0,
                                 max_steps=300),
            params=base)
        kinds = [row.kind for row in boundary.rows]
        assert kinds[0] == "SNB"       # feasible at X=0.5 (nose at 1.25 pu)
        assert kinds[1] == "error"     # infeasible at X=1.0 (nose at 0.625)
        assert boundary.rows[1].message

    def test_start_outside_range_raises_before_any_row(self):
        sys = two_bus_system()
        # lambda = 6 is above param_max and above the nose of every row, so
        # every row would fail and be recorded as an error row
        base = sys.params0.with_value("lambda", 6.0)
        grid = [reactance_to_inductance(x) for x in (0.5, 1.0)]
        with pytest.raises(ConfigurationError, match="starts at 6.0"):
            trace_boundary_2d(
                sys, "lambda", "line.l", grid,
                ContinuationSettings(param_min=0.05, param_max=5.0),
                params=base)

    def test_sweep_against_itself_raises(self):
        # every row would set lambda to its grid value and then trace from
        # there, so all rows would report the same nose
        sys = two_bus_system()
        with pytest.raises(ConfigurationError, match="against itself"):
            trace_boundary_2d(sys, "lambda", "lambda", [0.3, 0.6],
                              ContinuationSettings(), sys.params0)

    def test_unsorted_grid_rejected(self):
        sys = two_bus_system()
        with pytest.raises(ValueError):
            trace_boundary_2d(sys, "lambda", "line.l", [2.0, 1.0],
                              ContinuationSettings(), sys.params0)
