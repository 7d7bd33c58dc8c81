"""Integration tests on the full distribution benchmark scenario and the
tap-limit behavior of the LTC."""

from pathlib import Path

import numpy as np
import pytest

from adnlab.contin import ContinuationSettings, continue_branch, locate_all
from adnlab.engine import integrate, newton_equilibrium, spectrum_at
from adnlab.network import (
    Bus,
    GridSource,
    LtcTransformer,
    NetworkModel,
    RlBranch,
    ZipLoad,
    reactance_to_inductance,
)
from adnlab.scenario import load_scenario
from oracles import power_balance, rotate_dq, rotate_params, rotate_states

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def showcase():
    scenario = load_scenario(SCENARIO_DIR / "showcase.json")
    sys = scenario.build()
    p = scenario.base_params(sys)
    sol = newton_equilibrium(sys, sys.initial_guess(), p)
    return scenario, sys, p, sol


class TestShowcaseBenchmark:
    def test_equilibrium_is_settled_and_balanced(self, showcase):
        scenario, sys, p, sol = showcase
        spec = spectrum_at(sys, sol.x, p)
        # the continuous-tap deadband direction is quasi-neutral; everything
        # else is damped
        assert spec.rightmost_real < 1e-4
        assert sorted(e.real for e in spec.eigenvalues)[-2] < -1.0
        rep = power_balance(sys, sol.x, p)
        assert rep["generated"] == pytest.approx(
            rep["consumed"] + rep["branch_losses"], abs=1e-8)

    def test_ltc_regulates_its_bus(self, showcase):
        scenario, sys, p, sol = showcase
        ltc = scenario.model.ltcs[0]
        v_mv = sys.bus_voltage_mag(sol.x, "mv")
        n_tap = sol.x[sys.state_index("ltc.n")]
        assert abs(ltc.v_ref - v_mv) <= ltc.d_band + 3.0 / ltc.k_s
        assert ltc.n_min < n_tap < ltc.n_max

    def test_pll_locked_on_both_converters(self, showcase):
        scenario, sys, p, sol = showcase
        outs = sys.outputs(sol.x, p)
        for conv_id in sys.gfl_ids():
            assert abs(outs[conv_id]["v_pll_q"]) < 1e-8

    def test_frame_invariance_with_every_device_family(self, showcase):
        scenario, sys, p, sol = showcase
        rng = np.random.default_rng(9)
        x = sol.x + rng.normal(scale=0.02, size=sys.n)
        phi = 0.9
        f = sys.residual(x, p)
        f_rot = sys.residual(rotate_states(sys, x, phi),
                             rotate_params(sys, p, phi))
        assert np.max(np.abs(f_rot - rotate_dq(sys, f, phi))) < 1e-12

    def test_loading_continuation_finds_the_collapse_point(self, showcase):
        scenario, sys, p, sol = showcase
        settings = ContinuationSettings(h0=0.02, h_max=0.05, param_min=0.5,
                                        param_max=6.0, max_steps=250)
        branch = continue_branch(sys, sol, "lambda", settings)
        records = locate_all(sys, branch, p)
        snbs = [r for r in records if r.kind == "SNB"]
        assert snbs
        assert 2.0 < snbs[0].lam < 5.0
        assert abs(snbs[0].n_unstable_after - snbs[0].n_unstable_before) == 1

    def test_disturbance_simulation_runs_clean(self, showcase):
        scenario, sys, p, sol = showcase
        p_step = p.with_values({"im1.t_mech": 0.45, "lambda": 1.15})
        traj = integrate(sys, sol.x, p_step, t_end=1.0, h=5e-4,
                         startup_be_steps=2, damped_every=25)
        assert np.all(np.isfinite(traj.states))
        # machine picks up the extra torque with a higher slip
        assert traj.column("im1.s")[-1] > sol.x[sys.state_index("im1.s")]
        # trajectory heads to the stepped equilibrium
        sol2 = newton_equilibrium(sys, traj.states[-1], p_step)
        fast = [i for i, name in enumerate(sys.state_names)
                if name.split(".")[1] in ("s", "ed", "eq", "theta", "eps")]
        assert np.max(np.abs(traj.states[-1][fast] - sol2.x[fast])) < 5e-3


class TestTapLimit:
    def _stall_model(self):
        return NetworkModel(
            buses=(Bus("b1", b_sh=1e-4), Bus("b2", b_sh=1e-4),
                   Bus("b3", b_sh=1e-4)),
            branches=(RlBranch("line", "b1", "b2", r=0.04,
                               l=reactance_to_inductance(0.2)),),
            sources=(GridSource("grid", "b1", e_mag=1.0),),
            ltcs=(LtcTransformer("ltc1", "b2", "b3", v_ref=1.0, t_ltc=2.0),),
            zip_loads=(ZipLoad("load", "b3", p0=0.5, q0=0.15, a_z=0.7,
                               a_i=0.1, a_p=0.2, b_z=0.7, b_i=0.1,
                               b_p=0.2),),
        )

    def test_tap_rests_at_limit_when_target_is_unreachable(self):
        sys = self._stall_model().build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        ltc = sys.model.ltcs[0]
        assert sol.x[sys.state_index("ltc1.n")] < ltc.n_max
        # the weakened source makes the regulation target unreachable: the
        # rate window parks the tap at the limit while the voltage stays low
        p_step = sys.params0.with_value("grid.e_mag", 0.9)
        traj = integrate(sys, sol.x, p_step, t_end=80.0, h=0.02,
                         startup_be_steps=2, damped_every=25)
        n = traj.column("ltc1.n")
        assert n[-1] <= ltc.n_max + 0.02
        rate = (n[-1] - n[-50]) / (49 * 0.02)
        assert abs(rate) < 1e-4 * abs(n[2] - n[1]) / 0.02 + 1e-4
        v3 = sys.bus_voltage_mag(traj.states[-1], "b3")
        assert v3 < ltc.v_ref - ltc.d_band
