"""Tests for the per-unit network model and its assembly."""

import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from adnlab.converters import GflConverter
from adnlab.engine import newton_equilibrium, spectrum_at
from adnlab.errors import ModelValidationError
from adnlab.network import (
    OMEGA0,
    Bus,
    GridSource,
    InductionMachine,
    LtcTransformer,
    NetworkModel,
    RlBranch,
    ZipLoad,
    im_rates,
    ltc_rate,
    reactance_to_inductance,
    zip_injection,
)
from adnlab.scenario import load_scenario
from oracles import (im_steady_torque, power_balance, rotate_dq,
                     rotate_params, rotate_states)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def two_bus_feeder(x_line=0.5, p0=0.8, b_sh=1e-6, r_line=0.0):
    return NetworkModel(
        buses=(Bus("b1", b_sh=b_sh), Bus("b2", b_sh=b_sh)),
        branches=(RlBranch("line", "b1", "b2", r=r_line,
                           l=reactance_to_inductance(x_line)),),
        sources=(GridSource("grid", "b1"),),
        zip_loads=(ZipLoad("load", "b2", p0=p0),),
    )


def quartic_v2(p_load, x_line, b_sh, upper=True):
    """Load-bus voltage of the lossless two-bus feeder with a local shunt
    susceptance, from the closed-form quadratic in V^2."""
    c = 1.0 - b_sh * x_line
    disc = 1.0 - 4.0 * c * c * x_line * x_line * p_load * p_load
    if disc < 0.0:
        raise ValueError("no equilibrium")
    u = (1.0 + math.sqrt(disc)) / (2.0 * c * c) if upper else \
        (1.0 - math.sqrt(disc)) / (2.0 * c * c)
    return math.sqrt(u)


class TestZipLoad:
    def test_pure_impedance_at_reference(self):
        load = ZipLoad("z", "b", p0=0.7, a_z=1.0, a_p=0.0, b_z=1.0, b_p=0.0)
        i_d, i_q = zip_injection(load, 1.0, 0.0, 1.0)
        assert i_d * 1.0 + i_q * 0.0 == pytest.approx(0.7, abs=1e-15)

    def test_pure_power_independent_of_voltage(self):
        load = ZipLoad("p", "b", p0=0.7)
        for vmag in (0.8, 1.0, 1.1):
            i_d, i_q = zip_injection(load, vmag, 0.0, 1.0)
            assert vmag * i_d == pytest.approx(0.7, abs=1e-14)
            assert i_q == pytest.approx(0.0, abs=1e-15)

    def test_equal_mix_polynomial(self):
        third = 1.0 / 3.0
        load = ZipLoad("m", "b", p0=1.0, a_z=third, a_i=third, a_p=third,
                       b_z=third, b_i=third, b_p=third)
        p = load.p0 * (load.a_z * 0.9 ** 2 + load.a_i * 0.9 + load.a_p)
        assert p == pytest.approx((0.81 + 0.9 + 1.0) / 3.0, abs=1e-12)
        assert p == pytest.approx(0.903333, abs=1e-6)
        i_d, i_q = zip_injection(load, 0.9, 0.0, 1.0)
        assert 0.9 * i_d == pytest.approx(p, abs=1e-12)

    def test_loading_factor_scales_power(self):
        load = ZipLoad("s", "b", p0=0.5, q0=0.1)
        i1 = zip_injection(load, 1.0, 0.0, 1.0)
        i2 = zip_injection(load, 1.0, 0.0, 1.7)
        assert i2[0] == pytest.approx(1.7 * i1[0], rel=1e-12)
        assert i2[1] == pytest.approx(1.7 * i1[1], rel=1e-12)

    def test_guarded_bounded_and_angle_aligned_below_floor(self):
        load = ZipLoad("g", "b", p0=1.0)
        at_floor = zip_injection(load, 0.01, 0.0, 1.0)
        below = zip_injection(load, 0.004, 0.003, 1.0)
        mag_floor = math.hypot(*at_floor)
        mag_below = math.hypot(*below)
        assert mag_below <= mag_floor * (1.0 + 1e-12)
        # direction follows the voltage angle
        vmag = math.hypot(0.004, 0.003)
        assert below[0] / mag_below == pytest.approx(0.004 / vmag, rel=1e-12)

    def test_continuity_and_differentiability_above_floor(self):
        load = ZipLoad("c", "b", p0=0.8, q0=0.3, a_z=0.2, a_i=0.3, a_p=0.5,
                       b_z=0.2, b_i=0.3, b_p=0.5)
        # central differences at two step sizes agree, so the injection is
        # differentiable everywhere above the floor
        for v in (0.012, 0.05, 0.3, 1.0, 1.3):
            slopes = []
            for h in (1e-6 * v, 5e-7 * v):
                ip = zip_injection(load, v + h, 0.0, 1.0)[0]
                im = zip_injection(load, v - h, 0.0, 1.0)[0]
                slopes.append((ip - im) / (2 * h))
            assert slopes[0] == pytest.approx(slopes[1], rel=1e-5)

    def test_fraction_validation(self):
        with pytest.raises(ModelValidationError):
            ZipLoad("bad", "b", p0=1.0, a_z=0.5, a_i=0.2, a_p=0.5)


class TestInductionMachine:
    # t0' (here 1.0) enters neither the slip row nor the stator current
    def test_zero_torque_balance(self):
        m = InductionMachine("m", "b", t_mech=0.0)
        f_s, _, _, i_d, i_q = im_rates(m, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0,
                                       m.t_mech, 1.0, OMEGA0)
        # e' = 0 gives zero electrical torque, so the slip rate vanishes
        assert f_s == pytest.approx(0.0, abs=1e-15)

    def test_short_circuit_current(self):
        m = InductionMachine("m", "b")
        e_d, e_q = 0.7, -0.2
        _, _, _, i_d, i_q = im_rates(m, 0.0, 0.0, 0.05, e_d, e_q, 1.0,
                                     m.t_mech, 1.0, OMEGA0)
        den = complex(m.r_s, m.x_prime)
        expected = -complex(e_d, e_q) / den
        assert i_d == pytest.approx(expected.real, rel=1e-12)
        assert i_q == pytest.approx(expected.imag, rel=1e-12)

    def test_equilibrium_slip_matches_circuit_bisection(self):
        m = InductionMachine("im1", "b2")
        model = NetworkModel(
            buses=(Bus("b1", b_sh=1e-4), Bus("b2", b_sh=1e-4)),
            branches=(RlBranch("line", "b1", "b2", r=0.01,
                               l=reactance_to_inductance(0.05)),),
            sources=(GridSource("grid", "b1"),),
            machines=(m,),
        )
        sys = model.build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        v2 = sys.bus_voltage_mag(sol.x, "b2")
        lo, hi = 1e-6, 0.2
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if im_steady_torque(m, v2, mid) < m.t_mech:
                lo = mid
            else:
                hi = mid
        assert sol.x[sys.state_index("im1.s")] == pytest.approx(
            0.5 * (lo + hi), abs=1e-8)

    def test_invariants_validated(self):
        with pytest.raises(ModelValidationError):
            InductionMachine("m", "b", h=0.0)
        with pytest.raises(ModelValidationError, match="r_r"):
            InductionMachine("m", "b", r_r=0.0)
        with pytest.raises(ModelValidationError, match="underflows"):
            NetworkModel(buses=(Bus("b"),), omega0=1e-30,
                         machines=(InductionMachine("m", "b", r_r=1e-300),))

    def test_time_constant_and_slip_coupling_at_network_frequency(self):
        w60 = 2.0 * math.pi * 60.0
        m = InductionMachine("im", "b2")
        model = NetworkModel(
            buses=(Bus("b1"), Bus("b2")),
            branches=(RlBranch("line", "b1", "b2", r=0.01,
                               l=reactance_to_inductance(0.05, w60)),),
            sources=(GridSource("grid", "b1"),),
            machines=(m,), omega0=w60)
        sys = model.build()
        t0p = (m.x_r + m.x_m) / (w60 * m.r_r)
        ed = sys.state_index("im.ed")
        mass = sys.mass(sys.params0)
        assert mass[ed] == mass[ed + 1] == pytest.approx(t0p, rel=1e-15)
        x = sys.initial_guess()
        x[sys.state_index("im.s")] = 0.05
        x[ed + 1] = 0.3
        f_ed = sys.residual(x, sys.params0)[ed]
        i_q = sys.outputs(x, sys.params0)["im.i"][1]
        expected = t0p * w60 * 0.05 * 0.3 - x[ed] - (m.x0 - m.x_prime) * i_q
        assert f_ed == pytest.approx(expected, rel=1e-12)


class TestLtc:
    def test_deadband_center(self):
        t = LtcTransformer("t", "a", "b")
        assert ltc_rate(t, v_reg=t.v_ref, n=1.0, v_ref=t.v_ref) == 0.0

    def test_tap_rises_to_boost_low_voltage(self):
        t = LtcTransformer("t", "a", "b")
        assert ltc_rate(t, v_reg=t.v_ref - 2 * t.d_band, n=1.0,
                        v_ref=t.v_ref) > 0.0
        assert ltc_rate(t, v_reg=t.v_ref + 2 * t.d_band, n=1.0,
                        v_ref=t.v_ref) < 0.0

    def test_window_suppresses_motion_at_limit(self):
        t = LtcTransformer("t", "a", "b", k_s=50.0)
        v_low = t.v_ref - 3 * t.d_band
        interior = abs(ltc_rate(t, v_reg=v_low, n=1.0, v_ref=t.v_ref))
        at_limit = abs(ltc_rate(t, v_reg=v_low, n=t.n_max, v_ref=t.v_ref))
        assert at_limit < interior * 1e-3

    def test_equilibrium_regulates_within_band(self):
        model = NetworkModel(
            buses=(Bus("b1", b_sh=1e-4), Bus("b2", b_sh=1e-4),
                   Bus("b3", b_sh=1e-4)),
            branches=(RlBranch("line", "b1", "b2", r=0.02,
                               l=reactance_to_inductance(0.15)),),
            sources=(GridSource("grid", "b1"),),
            ltcs=(LtcTransformer("ltc1", "b2", "b3"),),
            zip_loads=(ZipLoad("load", "b3", p0=0.6, q0=0.2, a_z=0.7, a_i=0.1,
                               a_p=0.2, b_z=0.7, b_i=0.1, b_p=0.2),),
        )
        sys = model.build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        t = model.ltcs[0]
        n_tap = sol.x[sys.state_index("ltc1.n")]
        assert t.n_min < n_tap < t.n_max
        v3 = sys.bus_voltage_mag(sol.x, "b3")
        assert abs(t.v_ref - v3) <= t.d_band + 3.0 / t.k_s
        # the tap boosts the regulated side above the unregulated feeder
        assert v3 > sys.bus_voltage_mag(sol.x, "b2")


class TestNetworkResidual:
    def test_unforced_network_zero_equilibrium(self):
        model = NetworkModel(
            buses=(Bus("a"), Bus("b")),
            branches=(RlBranch("br", "a", "b", r=0.1,
                               l=reactance_to_inductance(0.3)),),
        )
        sys = model.build()
        f = sys.residual(np.zeros(sys.n), sys.params0)
        assert np.max(np.abs(f)) == 0.0

    def test_single_branch_phasor_ohms_law(self):
        r, x = 0.07, 0.4
        model = NetworkModel(
            buses=(Bus("a"), Bus("b")),
            branches=(RlBranch("br", "a", "b", r=r,
                               l=reactance_to_inductance(x)),),
        )
        sys = model.build()
        v1, v2 = complex(1.02, 0.05), complex(0.97, -0.04)
        i = (v1 - v2) / complex(r, x)
        state = np.zeros(sys.n)
        state[sys.state_index("a.vd")] = v1.real
        state[sys.state_index("a.vq")] = v1.imag
        state[sys.state_index("b.vd")] = v2.real
        state[sys.state_index("b.vq")] = v2.imag
        state[sys.state_index("br.id")] = i.real
        state[sys.state_index("br.iq")] = i.imag
        f = sys.residual(state, sys.params0)
        assert abs(f[sys.state_index("br.id")]) < 1e-14
        assert abs(f[sys.state_index("br.iq")]) < 1e-14
        # a wrong current breaks the branch rows
        state[sys.state_index("br.id")] += 0.01
        f_bad = sys.residual(state, sys.params0)
        assert abs(f_bad[sys.state_index("br.id")]) > 1e-5

    def test_two_bus_upper_root_matches_quartic(self):
        b_sh = 1e-6
        model = two_bus_feeder(x_line=0.5, p0=0.8, b_sh=b_sh)
        sys = model.build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        v2 = sys.bus_voltage_mag(sol.x, "b2")
        assert v2 == pytest.approx(quartic_v2(0.8, 0.5, b_sh), abs=1e-9)
        assert v2 == pytest.approx(0.894427, abs=2e-6)

    def test_two_bus_lower_root_reachable(self):
        b_sh = 1e-6
        sys = two_bus_feeder(b_sh=b_sh).build()
        v_low = quartic_v2(0.8, 0.5, b_sh, upper=False)
        # exact lossless phasor construction of the low-voltage solution
        delta = -math.asin(0.8 * 0.5 / v_low)
        v2 = v_low * complex(math.cos(delta), math.sin(delta))
        i = (1.0 - v2) / complex(0.0, 0.5)
        x0 = sys.initial_guess()
        x0[sys.state_index("b2.vd")] = v2.real
        x0[sys.state_index("b2.vq")] = v2.imag
        x0[sys.state_index("line.id")] = i.real
        x0[sys.state_index("line.iq")] = i.imag
        sol = newton_equilibrium(sys, x0, sys.params0)
        assert sys.bus_voltage_mag(sol.x, "b2") == pytest.approx(v_low, abs=1e-6)
        assert v_low == pytest.approx(0.447214, abs=2e-6)

    def test_equilibria_from_nearby_guesses_agree(self):
        sys = two_bus_feeder().build()
        rng = np.random.default_rng(11)
        base = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        for _ in range(3):
            x0 = sys.initial_guess() + rng.normal(scale=1e-3, size=sys.n)
            sol = newton_equilibrium(sys, x0, sys.params0)
            assert np.max(np.abs(sol.x - base.x)) < 1e-8

    def test_power_balance_on_mixed_network(self):
        model = NetworkModel(
            buses=(Bus("b1", b_sh=1e-4), Bus("b2", b_sh=1e-4),
                   Bus("b3", b_sh=1e-4)),
            branches=(RlBranch("l12", "b1", "b2", r=0.05,
                               l=reactance_to_inductance(0.2)),
                      RlBranch("l23", "b2", "b3", r=0.08,
                               l=reactance_to_inductance(0.15)),),
            sources=(GridSource("grid", "b1"),),
            zip_loads=(ZipLoad("z3", "b3", p0=0.3, q0=0.1, a_z=0.5, a_i=0.2,
                               a_p=0.3, b_z=0.5, b_i=0.2, b_p=0.3),),
            machines=(InductionMachine("im2", "b2", t_mech=0.3),),
            gfls=(GflConverter("c3", "b3", p_ref=0.25, kq=1.0, limiter_k=1.0),),
        )
        sys = model.build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        rep = power_balance(sys, sol.x, sys.params0)
        assert rep["generated"] == pytest.approx(
            rep["consumed"] + rep["branch_losses"], abs=1e-8)
        assert rep["branch_losses"] > 0.0

    def test_thevenin_source_ohms_law(self):
        model = NetworkModel(
            buses=(Bus("b1", b_sh=1e-4),),
            sources=(GridSource("grid", "b1", e_mag=1.0, r_g=0.1,
                                l_g=reactance_to_inductance(0.2)),),
            zip_loads=(ZipLoad("z", "b1", p0=0.4, a_z=1.0, a_p=0.0,
                               b_z=1.0, b_p=0.0),),
        )
        sys = model.build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        v = complex(*sys.bus_voltage(sol.x, "b1"))
        i = complex(sol.x[sys.state_index("grid.id")],
                    sol.x[sys.state_index("grid.iq")])
        assert abs(complex(1.0, 0.0) - v - complex(0.1, 0.2) * i) < 1e-8


class TestFrameInvariance:
    def _mixed_system(self):
        model = NetworkModel(
            buses=(Bus("b1", b_sh=1e-4), Bus("b2", b_sh=1e-4),
                   Bus("b3", b_sh=1e-4)),
            branches=(RlBranch("l12", "b1", "b2", r=0.05,
                               l=reactance_to_inductance(0.2)),),
            sources=(GridSource("grid", "b1", r_g=0.02,
                                l_g=reactance_to_inductance(0.1)),),
            ltcs=(LtcTransformer("ltc", "b2", "b3"),),
            zip_loads=(ZipLoad("z", "b3", p0=0.3, q0=0.05, a_z=0.4, a_i=0.3,
                               a_p=0.3, b_z=0.4, b_i=0.3, b_p=0.3),),
            machines=(InductionMachine("im", "b3", t_mech=0.2),),
            gfls=(GflConverter("c", "b2", p_ref=0.3, kq=0.8, limiter_k=1.0),),
        )
        return model.build()

    def test_residual_rotates_with_states(self):
        sys = self._mixed_system()
        rng = np.random.default_rng(5)
        x = sys.initial_guess() + rng.normal(scale=0.05, size=sys.n)
        phi = 0.7
        f = sys.residual(x, sys.params0)
        f_rot = sys.residual(rotate_states(sys, x, phi),
                             rotate_params(sys, sys.params0, phi))
        assert np.max(np.abs(f_rot - rotate_dq(sys, f, phi))) < 1e-12
        assert np.linalg.norm(f_rot) == pytest.approx(np.linalg.norm(f),
                                                      rel=1e-12)

    def test_rotated_equilibrium_is_equilibrium(self):
        sys = self._mixed_system()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        phi = -1.1
        f = sys.residual(rotate_states(sys, sol.x, phi),
                         rotate_params(sys, sys.params0, phi))
        assert np.max(np.abs(f)) < 1e-8


class TestSymmetry:
    def test_jacobian_commutes_with_swap_of_identical_halves(self):
        model = NetworkModel(
            buses=(Bus("b0", b_sh=1e-4), Bus("b1", b_sh=1e-4),
                   Bus("b2", b_sh=1e-4)),
            branches=(RlBranch("br1", "b0", "b1", r=0.05,
                               l=reactance_to_inductance(0.2)),
                      RlBranch("br2", "b0", "b2", r=0.05,
                               l=reactance_to_inductance(0.2)),),
            sources=(GridSource("grid", "b0"),),
            gfls=(GflConverter("c1", "b1", p_ref=0.3, kq=1.0, limiter_k=1.0),
                  GflConverter("c2", "b2", p_ref=0.3, kq=1.0, limiter_k=1.0)),
        )
        sys = model.build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        from adnlab.engine import jacobian_fd
        jac = jacobian_fd(sys, sol.x, sys.params0)

        swap = {"b1": "b2", "b2": "b1", "br1": "br2", "br2": "br1",
                "c1": "c2", "c2": "c1"}
        perm = np.empty(sys.n, dtype=int)
        for i, name in enumerate(sys.state_names):
            dev, field = name.split(".", 1)
            target = f"{swap.get(dev, dev)}.{field}"
            perm[i] = sys.state_index(target)
        jac_swapped = jac[np.ix_(perm, perm)]
        assert np.max(np.abs(jac_swapped - jac)) < 1e-8


class TestValidation:
    def test_disconnected_graph_rejected(self):
        with pytest.raises(ModelValidationError, match="disconnected"):
            NetworkModel(buses=(Bus("a"), Bus("b"), Bus("c")),
                         branches=(RlBranch("br", "a", "b", r=0.1,
                                            l=1e-3),))

    def test_dangling_reference_rejected(self):
        with pytest.raises(ModelValidationError, match="B9"):
            NetworkModel(buses=(Bus("a"),),
                         sources=(GridSource("g", "B9"),))

    def test_duplicate_device_id_rejected(self):
        with pytest.raises(ModelValidationError, match="duplicate"):
            NetworkModel(
                buses=(Bus("a"), Bus("b")),
                branches=(RlBranch("d", "a", "b", r=0.1, l=1e-3),),
                sources=(GridSource("d", "a"),))

    def test_bus_invariant(self):
        with pytest.raises(ModelValidationError):
            Bus("a", b_sh=0.0)

    def test_stable_base_cases(self):
        # converter feeder and machine feeder are stable at base load
        model = NetworkModel(
            buses=(Bus("b1", b_sh=1e-4), Bus("b2", b_sh=1e-4)),
            branches=(RlBranch("line", "b1", "b2", r=0.03,
                               l=reactance_to_inductance(0.25)),),
            sources=(GridSource("grid", "b1"),),
            gfls=(GflConverter("c1", "b2", p_ref=0.4, kq=1.0,
                               limiter_k=1.0),),
        )
        sys = model.build()
        sol = newton_equilibrium(sys, sys.initial_guess(), sys.params0)
        assert spectrum_at(sys, sol.x, sys.params0).rightmost_real < 0.0


def with_device_field(model, param, value):
    """``model`` with the device field behind parameter ``param`` set to
    ``value``, or ``None`` when no device field backs the parameter."""
    dev_id, _, name = param.partition(".")
    for group in fields(NetworkModel):
        devices = getattr(model, group.name)
        if not isinstance(devices, tuple):
            continue
        for i, dev in enumerate(devices):
            if dev.id != dev_id:
                continue
            if name in {f.name for f in fields(dev)}:
                new = replace(dev, **{name: value})
            elif hasattr(dev, "val") and hasattr(dev.val, name):
                new = replace(dev, val=replace(dev.val, **{name: value}))
            else:
                return None
            return replace(model, **{group.name: devices[:i] + (new,)
                                     + devices[i + 1:]})
    return None


class TestParameterLiveness:
    @pytest.mark.parametrize("scenario", ["showcase", "secondary_4bus"])
    def test_every_device_parameter_is_live(self, scenario):
        # changing a registered parameter must change the model exactly as
        # rebuilding it with the device field changed does
        model = load_scenario(SCENARIO_DIR / f"{scenario}.json").model
        sys = model.build()
        rng = np.random.default_rng(3)
        x = sys.initial_guess() + rng.normal(scale=0.01, size=sys.n)
        unbacked = []
        for name in sys.params0.names:
            value = sys.params0[name] * 1.1 + 0.01
            rebuilt = with_device_field(model, name, value)
            if rebuilt is None:
                unbacked.append(name)
                continue
            other = rebuilt.build()
            p = sys.params0.with_value(name, value)
            assert np.array_equal(other.params0.values, p.values), name
            assert np.array_equal(sys.residual(x, p),
                                  other.residual(x, other.params0)), name
            assert np.array_equal(sys.mass(p), other.mass(other.params0)), name
        # only the loading factor and the source angles are not device fields
        assert unbacked == ["lambda"] + [f"{src.id}.theta"
                                         for src in model.sources]
