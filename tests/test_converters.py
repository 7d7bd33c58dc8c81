"""Tests for the grid-following and droop grid-forming converter models."""

import math
from dataclasses import replace

import numpy as np
import pytest

from adnlab.converters import GflConverter, GfmDroop
from adnlab.engine import integrate, newton_equilibrium
from adnlab.limits import sat
from adnlab.network import (
    OMEGA0,
    Bus,
    GridSource,
    NetworkModel,
    RlBranch,
    reactance_to_inductance,
)


def gfl_feeder(conv_kwargs=None, x_line=0.25, r_line=0.03, rotating=False):
    kw = dict(p_ref=0.4, kq=1.0, limiter_k=1.0)
    kw.update(conv_kwargs or {})
    model = NetworkModel(
        buses=(Bus("b1", b_sh=1e-4), Bus("b2", b_sh=1e-4)),
        branches=(RlBranch("line", "b1", "b2", r=r_line,
                           l=reactance_to_inductance(x_line)),),
        sources=(GridSource("grid", "b1", rotating=rotating),),
        gfls=(GflConverter("c1", "b2", **kw),),
    )
    return model


def device_outputs(device, vd, vq, **states):
    """Outputs of ``device`` alone on its bus at the voltage ``vd + j vq``,
    evaluated by the assembled system.  A GFL converter runs with
    ``tau_meas = 0``, so its reference path sees the PLL projection of the
    bus voltage.  ``states`` name device states by suffix (``theta``,
    ``id``, ``pf``, ...); the others are zero."""
    bus = (Bus(device.bus),)
    if isinstance(device, GflConverter):
        device = replace(device, tau_meas=0.0)
        model = NetworkModel(buses=bus, gfls=(device,))
    else:
        model = NetworkModel(buses=bus, gfms=(device,))
    sys = model.build()
    x = np.zeros(sys.n)
    x[sys.state_index(f"{device.bus}.vd")] = vd
    x[sys.state_index(f"{device.bus}.vq")] = vq
    for name, value in states.items():
        x[sys.state_index(f"{device.id}.{name}")] = value
    return sys.outputs(x, sys.params0)[device.id]


def current_reference(conv, vd, vq):
    """Limited PLL-frame current reference at zero PLL angle."""
    out = device_outputs(conv, vd, vq)
    return out["iref_d"], out["iref_q"]


class TestPll:
    def test_aligned_voltage_locked_form(self):
        conv = GflConverter("c", "b")
        vmag = 0.98
        vd, vq = vmag * math.cos(0.3), vmag * math.sin(0.3)
        out = device_outputs(conv, vd, vq, theta=0.3, eps=0.05)
        assert out["f_theta"] == pytest.approx(0.05, abs=1e-12)
        assert out["f_eps"] == pytest.approx(0.0, abs=1e-9)
        # full lock once the integrator is at zero
        out = device_outputs(conv, vd, vq, theta=0.3, eps=0.0)
        assert out["f_theta"] == 0.0
        assert out["omega_pll"] == OMEGA0

    def test_projection_of_rotated_voltage(self):
        conv = GflConverter("c", "b")
        vd, vq = math.cos(0.1), math.sin(0.1)
        f_eps = device_outputs(conv, vd, vq, theta=0.0)["f_eps"]
        assert f_eps / conv.ki_pll == pytest.approx(math.sin(0.1), rel=1e-12)
        assert math.sin(0.1) == pytest.approx(0.099833, abs=1e-6)

    def test_frequency_step_absorbed_by_integrator(self):
        model = gfl_feeder(rotating=True)
        sys0 = model.build()
        sol = newton_equilibrium(sys0, sys0.initial_guess(), sys0.params0)
        sys_rot = model.build(rotating_sources=True)
        x0 = np.zeros(sys_rot.n)
        for i, name in enumerate(sys_rot.state_names):
            if name != "grid.theta_g":
                x0[i] = sol.x[sys0.state_index(name)]
        d_omega = 1.0
        p = sys_rot.params0.with_value("grid.omega_offset", d_omega)
        traj = integrate(sys_rot, x0, p, t_end=3.0, h=5e-4)
        assert traj.column("c1.eps")[-1] == pytest.approx(d_omega, abs=1e-4)


class TestCurrentReference:
    def test_droop_null_purely_active(self):
        conv = GflConverter("c", "b", p_ref=0.4, kq=2.0, v_ref=1.0, q0=0.0,
                            limiter_k=1.0)
        i_d, i_q = current_reference(conv, 1.0, 0.0)
        assert i_q == pytest.approx(0.0, abs=1e-15)
        expected = float(sat(conv.i_max, conv.limiter_k, conv.p_ref / 1.0))
        assert i_d == pytest.approx(expected, rel=1e-12)
        # near-transparent limiter at this operating point
        assert i_d == pytest.approx(conv.p_ref, rel=0.05)

    def test_droop_slope_arithmetic(self):
        conv = GflConverter("c", "b", p_ref=0.4, kq=2.0, v_ref=1.0, q0=0.0,
                            limiter_k=1.0)
        i_d, i_q = current_reference(conv, 0.95, 0.0)
        # q_ref = 2 * (1 - 0.95) = 0.1, injected as negative q-axis current
        assert i_q / i_d == pytest.approx(-0.1 / 0.4, rel=1e-12)

    def test_deep_saturation_magnitude(self):
        conv = GflConverter("c", "b", p_ref=3.6, kq=0.0, i_max=1.2,
                            limiter_k=10.0)
        i_d, i_q = current_reference(conv, 1.0, 0.0)
        assert abs(conv.p_ref / 1.0) == pytest.approx(3.0 * conv.i_max,
                                                      rel=1e-12)
        assert math.hypot(i_d, i_q) >= 0.9999 * conv.i_max


class TestGflResidual:
    def test_tracking_point_zeroes_residuals_without_antiwindup(self):
        conv = GflConverter("c", "b", p_ref=0.4, kq=0.0, limiter_k=1.0,
                            k_aw=0.0)
        vd, vq = 1.0, 0.0
        iref = current_reference(conv, vd, vq)
        out = device_outputs(conv, vd, vq, id=iref[0], iq=iref[1],
                             xid=conv.r_f * iref[0], xiq=conv.r_f * iref[1])
        for key in ("f_theta", "f_id", "f_iq", "f_xid", "f_xiq"):
            assert out[key] == pytest.approx(0.0, abs=1e-12)
        # steady modulation voltage feeds the drop plus decoupling
        assert out["vmod_d"] == pytest.approx(
            vd + conv.r_f * iref[0] - OMEGA0 * conv.l_f * iref[1], rel=1e-12)
        assert out["vmod_q"] == pytest.approx(
            conv.r_f * iref[1] + OMEGA0 * conv.l_f * iref[0], rel=1e-12)

    def test_zero_gains_reduce_to_passive_filter(self):
        conv = GflConverter("c", "b", kp_cc=0.0, ki_cc=0.0, limiter_k=1.0)
        out = device_outputs(conv, 1.0, 0.0, id=0.3, iq=-0.1)
        assert out["f_id"] == pytest.approx(-conv.r_f * 0.3, rel=1e-12)
        assert out["f_iq"] == pytest.approx(conv.r_f * 0.1, rel=1e-12)

    def test_injection_is_rotated_filter_current(self):
        conv = GflConverter("c", "b")
        theta = 0.4
        out = device_outputs(conv, math.cos(theta), math.sin(theta),
                             theta=theta, id=0.5, iq=0.2)
        inj = complex(out["inj_d"], out["inj_q"])
        expected = complex(0.5, 0.2) * complex(math.cos(theta),
                                               math.sin(theta))
        assert inj == pytest.approx(expected, rel=1e-12)

    def test_closed_loop_tracking_error_at_equilibrium(self):
        # small reference keeps the limiter transparent; integral action
        # then tracks the limited reference to numerical tolerance
        model = gfl_feeder(dict(p_ref=0.05, kq=0.0, ki_cc=40.0))
        sys = model.build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        out = sys.outputs(sol.x, sys.params0)["c1"]
        err = math.hypot(out["iref_d"] - sol.x[sys.state_index("c1.id")],
                         out["iref_q"] - sol.x[sys.state_index("c1.iq")])
        assert err < 1e-6

    def test_pll_locked_at_every_equilibrium(self):
        for kw in (dict(), dict(kq=2.0), dict(p_ref=0.6),
                   dict(val_mode="qval")):
            sys = gfl_feeder(kw).build()
            sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
            out = sys.outputs(sol.x, sys.params0)["c1"]
            assert abs(out["v_pll_q"]) < 1e-8

    def test_limited_reference_bounded_along_transient(self):
        # step the set-point deep into saturation from a settled state: the
        # smooth limiter keeps the reference below the rating at every
        # sample, and the tracked filter current stays within a few percent
        model = gfl_feeder(dict(p_ref=0.4, kq=0.0, i_max=1.2, limiter_k=5.0))
        sys = model.build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        p_step = sys.params0.with_value("c1.p_ref", 2.5)
        traj = integrate(sys, sol.x, p_step, t_end=0.4, h=2e-4)
        bound = 1.2 * (1 + 1e-6)
        for x in traj.states[::20]:
            out = sys.outputs(x, p_step)["c1"]
            assert math.hypot(out["iref_d"], out["iref_q"]) < bound
        i_mag = np.hypot(traj.column("c1.id"), traj.column("c1.iq"))
        assert np.max(i_mag) <= 1.2 * 1.05


class TestGfmDroop:
    def test_droop_equilibrium_identities(self):
        gfm = GfmDroop("g", "b", p_set=0.4, q_set=0.1)
        out = device_outputs(gfm, 1.0, 0.0, theta=0.1, pf=0.4, qf=0.25)
        assert out["f_theta"] == 0.0
        out2 = device_outputs(gfm, 1.0, 0.0, theta=0.1, pf=0.7, qf=0.1)
        assert out2["e_mag"] == gfm.v_set
        assert out2["f_theta"] == pytest.approx(-gfm.m_p * 0.3, rel=1e-12)

    def test_injection_through_virtual_impedance(self):
        gfm = GfmDroop("g", "b", v_set=1.0, n_q=0.0)
        out = device_outputs(gfm, 0.95, 0.0, theta=0.2)
        e = complex(math.cos(0.2), math.sin(0.2))
        z = complex(gfm.r_v, OMEGA0 * gfm.l_v)
        expected = (e - complex(0.95, 0.0)) / z
        assert complex(out["inj_d"], out["inj_q"]) == pytest.approx(
            expected, rel=1e-12)

    def test_symmetric_load_sharing(self):
        gfm_kw = dict(m_p=6.28, n_q=0.05, v_set=1.0)
        model = NetworkModel(
            buses=(Bus("b0", b_sh=1e-4), Bus("b1", b_sh=1e-4),
                   Bus("b2", b_sh=1e-4)),
            branches=(RlBranch("br1", "b0", "b1", r=0.05,
                               l=reactance_to_inductance(0.2)),
                      RlBranch("br2", "b0", "b2", r=0.05,
                               l=reactance_to_inductance(0.2)),),
            sources=(GridSource("grid", "b0"),),
            gfms=(GfmDroop("g1", "b1", p_set=0.35, **gfm_kw),
                  GfmDroop("g2", "b2", p_set=0.15, **gfm_kw)),
        )
        sys = model.build()
        # start from an asymmetric dispatch, then step both set-points to
        # the common value and let the droops re-share
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        p_eq = sys.params0.with_values({"g1.p_set": 0.25, "g2.p_set": 0.25})
        traj = integrate(sys, sol.x, p_eq, t_end=3.0, h=1e-3)
        outs = sys.outputs(traj.states[-1], p_eq)
        p1 = outs["g1"]["p_inst"]
        p2 = outs["g2"]["p_inst"]
        assert abs(p1 - p2) <= 0.01 * max(abs(p1), abs(p2))

    def test_droop_statics_identity_at_equilibrium(self):
        gfm_kw = dict(m_p=6.28, p_set=0.25)
        model = NetworkModel(
            buses=(Bus("b0", b_sh=1e-4), Bus("b1", b_sh=1e-4)),
            branches=(RlBranch("br", "b0", "b1", r=0.05,
                               l=reactance_to_inductance(0.2)),),
            sources=(GridSource("grid", "b0"),),
            gfms=(GfmDroop("g1", "b1", **gfm_kw),),
        )
        sys = model.build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        p_f = sol.x[sys.state_index("g1.pf")]
        # at equilibrium the frequency deviation -m_p (P_f - p_set) is zero
        assert -6.28 * (p_f - 0.25) == pytest.approx(0.0, abs=1e-8)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GfmDroop("g", "b", m_p=0.0)
        with pytest.raises(ValueError):
            GflConverter("c", "b", l_f=0.0)
        with pytest.raises(ValueError):
            GflConverter("c", "b", val_mode="weird")
