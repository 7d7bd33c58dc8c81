"""Tests for complex-frequency computation and per-block decomposition."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from adnlab.cfreq import (
    CfSeries,
    cf_from_trajectory,
    cf_of_bus,
    decompose_converter_cf,
    derivative,
    pll_internal_frequency,
)
from adnlab.cli import EXIT_OK, run_command
from adnlab.converters import GflConverter, GfmDroop
from adnlab.engine import integrate, newton_equilibrium
from adnlab.errors import ConfigurationError, DegenerateVoltageError
from adnlab.network import (
    OMEGA0,
    Bus,
    GridSource,
    NetworkModel,
    RlBranch,
    reactance_to_inductance,
)
from oracles import cf_additivity_residual

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def sampled(fn, t_end=1.0, h=1e-4):
    t = np.arange(0.0, t_end + h / 2, h)
    v = np.array([fn(tk) for tk in t])
    return t, v[:, 0], v[:, 1]


class TestCfFromTrajectory:
    def test_constant_phasor_is_null(self):
        t, vd, vq = sampled(lambda tk: (0.97, 0.13))
        cf = cf_from_trajectory(t, vd, vq, OMEGA0)
        assert np.max(np.abs(cf.rho)) <= 1e-9
        assert np.max(np.abs(cf.omega - OMEGA0)) <= 1e-9

    def test_exponential_magnitude_gives_rho(self):
        sigma = 2.5
        t, vd, vq = sampled(lambda tk: (math.exp(sigma * tk), 0.0), t_end=0.1)
        cf = cf_from_trajectory(t, vd, vq, OMEGA0)
        assert np.max(np.abs(cf.rho - sigma)) < 1e-6
        assert np.max(np.abs(cf.omega - OMEGA0)) < 1e-9

    def test_chirp_recovers_linear_frequency_ramp(self):
        a = 12.0
        t, vd, vq = sampled(lambda tk: (math.cos(0.5 * a * tk * tk),
                                        math.sin(0.5 * a * tk * tk)))
        cf = cf_from_trajectory(t, vd, vq, OMEGA0)
        expected = OMEGA0 + a * t
        # second-order stencils are exact for the quadratic angle
        assert np.max(np.abs(cf.omega - expected)) < 1e-7
        assert np.max(np.abs(cf.rho)) < 1e-7

    def test_frame_covariance(self):
        delta = 3.0
        t, vd, vq = sampled(lambda tk: (math.cos(0.3 + 2 * tk),
                                        math.sin(0.3 + 2 * tk)), t_end=0.5)
        base = cf_from_trajectory(t, vd, vq, OMEGA0)
        # the same signal expressed in a frame rotating Delta faster
        rot = np.exp(-1j * delta * t) * (vd + 1j * vq)
        shifted = cf_from_trajectory(t, rot.real, rot.imag, OMEGA0)
        assert np.allclose(shifted.omega, base.omega - delta, atol=1e-7)
        assert np.allclose(shifted.rho, base.rho, atol=1e-9)
        # declaring the faster frame restores the absolute frequency
        consistent = cf_from_trajectory(t, rot.real, rot.imag, OMEGA0 + delta)
        assert np.allclose(consistent.omega, base.omega, atol=1e-7)

    def test_scaling_invariance(self):
        t, vd, vq = sampled(lambda tk: (math.cos(2 * tk) * (1 + 0.1 * tk),
                                        math.sin(2 * tk) * (1 + 0.1 * tk)),
                            t_end=0.5)
        base = cf_from_trajectory(t, vd, vq, OMEGA0)
        scaled = cf_from_trajectory(t, 3.7 * vd, 3.7 * vq, OMEGA0)
        assert np.allclose(scaled.rho, base.rho, atol=1e-12)
        assert np.allclose(scaled.omega, base.omega, atol=1e-12)

    def test_floor_violation_names_time(self):
        t = np.array([0.0, 1e-4, 2e-4])
        vd = np.array([1.0, 0.005, 1.0])
        vq = np.zeros(3)
        with pytest.raises(DegenerateVoltageError) as err:
            cf_from_trajectory(t, vd, vq, OMEGA0)
        assert err.value.time == pytest.approx(1e-4)

    def test_window_smooths_alternating_noise(self):
        t = np.arange(0.0, 0.1, 1e-4)
        noise = 1e-5 * (-1.0) ** np.arange(len(t))
        vd = 1.0 + noise
        vq = np.zeros(len(t))
        raw = cf_from_trajectory(t, vd, vq, OMEGA0)
        smooth = cf_from_trajectory(t, vd, vq, OMEGA0, window=2)
        assert np.max(np.abs(smooth.rho[2:-2])) < 0.01 * np.max(np.abs(raw.rho))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            CfSeries(np.zeros(3), np.zeros(2), np.zeros(3))


class TestDerivative:
    def test_quadratic_exact_including_ends(self):
        t = np.linspace(0.0, 1.0, 51)
        vals = 3.0 * t * t - 2.0 * t + 1.0
        d = derivative(t, vals)
        assert np.allclose(d, 6.0 * t - 2.0, atol=1e-10)


def step_feeder(rotating=False):
    return NetworkModel(
        buses=(Bus("b1", b_sh=1e-3), Bus("b2", b_sh=1e-3)),
        branches=(RlBranch("line", "b1", "b2", r=0.03,
                           l=reactance_to_inductance(0.2)),),
        sources=(GridSource("grid", "b1", r_g=0.01,
                            l_g=reactance_to_inductance(0.05),
                            rotating=rotating),),
        gfls=(GflConverter("c1", "b2", p_ref=0.4, kq=0.5, limiter_k=1.0),),
    )


class TestPllInternalFrequency:
    def test_locked_steady_state(self):
        sys = step_feeder().build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        traj = integrate(sys, sol.x, sys.params0, t_end=0.05, h=1e-4)
        series = pll_internal_frequency(sys, traj, "c1", sys.params0)
        assert np.max(np.abs(series.omega - OMEGA0)) < 1e-9

    def test_frequency_step_divergence_and_reconvergence(self):
        model = step_feeder(rotating=True)
        sys0 = model.build()
        sol = newton_equilibrium(sys0, sys0.initial_guess(), sys0.params0)
        sys = model.build(rotating_sources=True)
        x0 = np.zeros(sys.n)
        for i, name in enumerate(sys.state_names):
            if name != "grid.theta_g":
                x0[i] = sol.x[sys0.state_index(name)]
        p = sys.params0.with_value("grid.omega_offset", 1.0)
        traj = integrate(sys, x0, p, t_end=4.0, h=5e-4)
        bus = cf_of_bus(sys, traj, "b2", OMEGA0, window=2)
        internal = pll_internal_frequency(sys, traj, "c1", p, window=2)
        diff = np.abs(internal.omega - bus.omega)
        early = diff[: len(diff) // 4]
        assert np.max(early) > 0.5          # genuinely different signals
        assert diff[-1] < 1e-4              # and they reconverge
        assert bus.omega[-1] - OMEGA0 == pytest.approx(1.0, abs=1e-3)

    def test_shares_one_walk_with_the_decomposition(self):
        sys = step_feeder().build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        p_step = sys.params0.with_value("grid.theta", 0.02)
        traj = integrate(sys, sol.x, p_step, t_end=0.02, h=1e-4)
        walked = []
        outputs = sys.outputs
        sys.outputs = lambda x, p: walked.append(p) or outputs(x, p)
        internal = pll_internal_frequency(sys, traj, "c1", p_step)
        dec = decompose_converter_cf(sys, traj, "c1", OMEGA0, p_step)
        assert len(walked) == len(traj.times)
        # another parameter vector is another walk
        decompose_converter_cf(sys, traj, "c1", OMEGA0, sys.params0)
        assert len(walked) == 2 * len(traj.times)
        del sys.outputs
        fresh = integrate(sys, sol.x, p_step, t_end=0.02, h=1e-4)
        assert np.array_equal(
            pll_internal_frequency(sys, fresh, "c1", p_step).omega,
            internal.omega)
        assert np.array_equal(
            decompose_converter_cf(sys, fresh, "c1", OMEGA0,
                                   p_step).total.omega,
            dec.total.omega)

    def test_wrong_converter_id(self):
        sys = step_feeder().build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        traj = integrate(sys, sol.x, sys.params0, t_end=0.01, h=1e-4)
        with pytest.raises(ConfigurationError):
            pll_internal_frequency(sys, traj, "nope", sys.params0)


class TestDecomposition:
    def test_steady_state_blocks(self):
        sys = step_feeder().build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        traj = integrate(sys, sol.x, sys.params0, t_end=0.05, h=1e-4)
        dec = decompose_converter_cf(sys, traj, "c1", OMEGA0, sys.params0)
        assert np.max(np.abs(dec.synchronization.omega)) < 1e-9
        assert np.max(np.abs(dec.synchronization.rho)) == 0.0
        assert np.max(np.abs(dec.regulation.omega - OMEGA0)) < 1e-9
        assert np.max(np.abs(dec.regulation.rho)) < 1e-9
        assert cf_additivity_residual(dec) < 1e-9

    def test_additivity_on_transient(self):
        sys = step_feeder().build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        p_step = sys.params0.with_value("grid.theta", 0.02)
        traj = integrate(sys, sol.x, p_step, t_end=0.5, h=2e-4)
        dec = decompose_converter_cf(sys, traj, "c1", OMEGA0, p_step)
        assert cf_additivity_residual(dec) < 1e-6

    def test_pure_resync_action_in_sync_block(self):
        # lightly loaded converter on a stiff bus with a slow measurement:
        # the current reference is effectively frozen while the PLL relocks
        model = NetworkModel(
            buses=(Bus("b1", b_sh=1e-4),),
            sources=(GridSource("grid", "b1"),),
            gfls=(GflConverter("c1", "b1", p_ref=0.02, kq=0.0,
                               limiter_k=1.0, tau_meas=0.1),),
        )
        sys = model.build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        p_step = sys.params0.with_value("grid.theta", 0.01)
        traj = integrate(sys, sol.x, p_step, t_end=1.5, h=1e-4)
        dec = decompose_converter_cf(sys, traj, "c1", OMEGA0, p_step)
        skip = 5    # one-sided stencils right at the discontinuity
        assert np.max(np.abs(dec.regulation.rho[skip:])) < 1e-3
        assert np.max(np.abs(dec.synchronization.omega[skip:])) > 0.05
        assert cf_additivity_residual(dec) < 1e-6

    def test_gfm_blocks(self):
        model = NetworkModel(
            buses=(Bus("b0", b_sh=1e-3), Bus("b1", b_sh=1e-3)),
            branches=(RlBranch("br", "b0", "b1", r=0.05,
                               l=reactance_to_inductance(0.2)),),
            sources=(GridSource("grid", "b0", r_g=0.01,
                                l_g=reactance_to_inductance(0.05)),),
            gfms=(GfmDroop("g1", "b1", p_set=0.2),),
        )
        sys = model.build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        p_step = sys.params0.with_value("g1.p_set", 0.3)
        traj = integrate(sys, sol.x, p_step, t_end=2.0, h=5e-4)
        dec = decompose_converter_cf(sys, traj, "g1", OMEGA0, p_step)
        assert cf_additivity_residual(dec) < 1e-6
        # the droop swings the angle; the E-magnitude branch carries rho
        assert np.max(np.abs(dec.synchronization.omega[5:])) > 0.01
        assert np.max(np.abs(dec.regulation.omega - OMEGA0)) < 1e-9

    def test_unknown_converter(self):
        sys = step_feeder().build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        traj = integrate(sys, sol.x, sys.params0, t_end=0.01, h=1e-4)
        with pytest.raises(ConfigurationError):
            decompose_converter_cf(sys, traj, "ghost", OMEGA0,
                                   sys.params0)


class TestSteadyStateNull:
    def test_final_tenth_of_converged_run(self):
        sys = step_feeder().build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        p_step = sys.params0.with_value("grid.theta", 0.02)
        traj = integrate(sys, sol.x, p_step, t_end=1.0, h=2e-4)
        cf = cf_of_bus(sys, traj, "b2", OMEGA0, window=2)
        tail = slice(-len(traj.times) // 10, None)
        assert np.max(np.abs(cf.rho[tail])) < 1e-4
        assert np.max(np.abs(cf.omega[tail] - OMEGA0)) < 1e-4


class TestStepRefinement:
    def test_cf_csv_converges_as_the_step_halves(self, tmp_path):
        """``cf`` on cf_step to t = 1 s: halving ``h`` (and doubling the
        window, so it spans the same seconds) moves the typical rho of the
        bus and regulation blocks by less than 1e-5, and all but the
        largest 1 % of samples by less than 1e-4 (no isolated spikes)."""
        data = json.loads((SCENARIO_DIR / "cf_step.json").read_text())
        rho = []
        for h, window in ((5e-4, 2), (2.5e-4, 4)):
            data["analysis"]["simulation"].update(t_end=1.0, h=h)
            data["analysis"]["cf"]["window"] = window
            path = tmp_path / f"cf_{window}.json"
            path.write_text(json.dumps(data))
            out = tmp_path / f"out_{window}"
            assert run_command(["cf", "--scenario", str(path), "--out",
                                str(out), "--quiet"]) == EXIT_OK
            with open(out / "cf.csv", newline="") as handle:
                rows = list(csv.DictReader(handle))
            rho.append({block: np.array([float(r["rho"]) for r in rows
                                         if r["block"] == block])
                        for block in ("bus", "regulation")})
        coarse, fine = rho
        keep = np.arange(len(coarse["bus"])) * 5e-4 >= 0.05
        for block in ("bus", "regulation"):
            delta = np.abs(fine[block][::2] - coarse[block])[keep]
            assert np.median(delta) < 1e-5, block
            assert np.percentile(delta, 99) < 1e-4, block
