"""Tests for the recursive secondary voltage controller."""

import numpy as np
import pytest

from adnlab.converters import GflConverter
from adnlab.engine import newton_equilibrium
from adnlab.errors import ConfigurationError
from adnlab.network import (
    Bus,
    GridSource,
    NetworkModel,
    RlBranch,
    ZipLoad,
    reactance_to_inductance,
)
from adnlab.secondary import (
    WeightVector,
    collect_measurements,
    gain_sensitivity,
    run_recursive,
    solve_update,
)
from adnlab.val import ValGains

from feeders import MIXED_ZIP, over_under_feeder, secondary_feeder, two_bus_pq


def solved(sys, p=None):
    p = p if p is not None else sys.params0
    return newton_equilibrium(sys, sys.initial_guess(), p)


class TestCollect:
    def test_two_bus_voltage_entry(self):
        sys = two_bus_pq().build()
        sol = solved(sys)
        snap = collect_measurements(sys, sol.x, 0)
        assert snap.voltages["b2"] == pytest.approx(0.894427, abs=2e-6)
        assert snap.voltages["b1"] == pytest.approx(1.0, abs=1e-9)

    def test_one_current_per_converter(self):
        sys = secondary_feeder().build()
        sol = solved(sys)
        snap = collect_measurements(sys, sol.x, 0)
        assert set(snap.converter_currents) == {"c2", "c3"}
        for conv_id, mag in snap.converter_currents.items():
            i_d = sol.x[sys.state_index(f"{conv_id}.id")]
            i_q = sol.x[sys.state_index(f"{conv_id}.iq")]
            assert mag == pytest.approx(np.hypot(i_d, i_q), rel=1e-12)

    def test_deterministic(self):
        sys = secondary_feeder().build()
        sol = solved(sys)
        a = collect_measurements(sys, sol.x, 0)
        b = collect_measurements(sys, sol.x.copy(), 0)
        assert a.voltages == b.voltages
        assert a.converter_currents == b.converter_currents


class TestSensitivity:
    def test_decoupled_bus_has_zero_columns(self):
        # b3 hangs off the pinned bus, so converter gains cannot move it
        box = 5.0
        model = NetworkModel(
            buses=(Bus("b1", b_sh=1e-4), Bus("b2", b_sh=1e-4),
                   Bus("b3", b_sh=1e-4)),
            branches=(RlBranch("l12", "b1", "b2", r=0.1,
                               l=reactance_to_inductance(0.05)),
                      RlBranch("l13", "b1", "b3", r=0.1,
                               l=reactance_to_inductance(0.05)),),
            sources=(GridSource("grid", "b1"),),
            zip_loads=(ZipLoad("z2", "b2", p0=0.4, q0=0.1, **MIXED_ZIP),),
            gfls=(GflConverter("c2", "b2", p_ref=0.2, kq=0.0, limiter_k=1.0,
                               val_mode="qval",
                               val=ValGains(g_min=-box, g_max=box,
                                            b_min=-box, b_max=box)),),
        )
        sys = model.build()
        sol = solved(sys)
        sens = gain_sensitivity(sys, sol.x, sys.params0)
        j3 = sens.bus_ids.index("b3")
        assert np.max(np.abs(sens.voltage[j3, :])) <= 1e-8

    def test_conductance_raises_own_bus_voltage_under_load(self):
        sys = secondary_feeder().build()
        sol = solved(sys)
        sens = gain_sensitivity(sys, sol.x, sys.params0)
        j = sens.bus_ids.index("b2")
        k = sens.gain_names.index("c2.g_v")
        assert sens.voltage[j, k] > 0.0

    def test_matches_central_differences(self):
        sys = secondary_feeder().build()
        sol = solved(sys)
        sens = gain_sensitivity(sys, sol.x, sys.params0)
        h = 1e-3
        for j, name in enumerate(sens.gain_names):
            p_hi = sys.params0.with_value(name, h)
            p_lo = sys.params0.with_value(name, -h)
            hi = newton_equilibrium(sys, sol.x, p_hi)
            lo = newton_equilibrium(sys, sol.x, p_lo)
            for i, bus in enumerate(sens.bus_ids):
                central = (sys.bus_voltage_mag(hi.x, bus)
                           - sys.bus_voltage_mag(lo.x, bus)) / (2 * h)
                assert sens.voltage[i, j] == pytest.approx(
                    central, rel=0.02, abs=1e-7)

    def test_requires_qval(self):
        sys = secondary_feeder().build()
        model = sys.model
        bad = NetworkModel(
            buses=model.buses, branches=model.branches, sources=model.sources,
            zip_loads=model.zip_loads,
            gfls=tuple(GflConverter(c.id, c.bus, val_mode="off")
                       for c in model.gfls))
        bad_sys = bad.build()
        sol = solved(bad_sys)
        with pytest.raises(ConfigurationError):
            gain_sensitivity(bad_sys, sol.x, bad_sys.params0)


class TestSolveUpdate:
    def _setup(self, sys, p=None):
        p = p if p is not None else sys.params0
        sol = newton_equilibrium(sys, sys.initial_guess(), p)
        snap = collect_measurements(sys, sol.x, 0)
        sens = gain_sensitivity(sys, sol.x, p)
        boxes = {}
        limits = {}
        for conv_id in sys.gfl_ids():
            conv = sys.converter(conv_id)
            boxes[f"{conv_id}.g_v"] = (conv.val.g_min, conv.val.g_max)
            boxes[f"{conv_id}.b_v"] = (conv.val.b_min, conv.val.b_max)
            limits[conv_id] = conv.i_max
        return sol, snap, sens, boxes, limits

    def test_flat_profile_yields_zero_update(self):
        # a snapshot exactly at the nominal profile has zero gradient
        sys = secondary_feeder().build()
        sol, snap, sens, boxes, limits = self._setup(sys)
        flat = snap.__class__(snap.iteration,
                              {b: 1.0 for b in snap.voltages},
                              snap.converter_currents)
        w = WeightVector({b: 1.0 for b in sys.bus_ids})
        upd = solve_update(flat, sens, w, boxes, limits, sys.params0)
        assert np.max(np.abs(upd.delta)) < 1e-9

    def test_single_dof_closed_form(self):
        # freeze every gain except c2.g_v and regulate bus b2 only
        sys = secondary_feeder().build()
        sol, snap, sens, boxes, limits = self._setup(sys)
        for name in list(boxes):
            if name != "c2.g_v":
                boxes[name] = (0.0, 0.0)
        w = WeightVector({"b2": 1.0, "b0": 0.0, "b1": 0.0, "b3": 0.0})
        upd = solve_update(snap, sens, w, boxes, limits, sys.params0)
        i = sens.bus_ids.index("b2")
        j = sens.gain_names.index("c2.g_v")
        expected = (1.0 - snap.voltages["b2"]) / sens.voltage[i, j]
        assert upd.delta[j] == pytest.approx(expected, rel=1e-6)
        for k, name in enumerate(sens.gain_names):
            if name != "c2.g_v":
                assert upd.delta[k] == pytest.approx(0.0, abs=1e-12)

    def test_active_box_bound_with_positive_multiplier(self):
        sys = secondary_feeder().build()
        sol, snap, sens, boxes, limits = self._setup(sys)
        for name in list(boxes):
            boxes[name] = (0.0, 0.0) if name != "c2.g_v" else (-0.5, 0.5)
        w = WeightVector({"b2": 1.0, "b0": 0.0, "b1": 0.0, "b3": 0.0})
        upd = solve_update(snap, sens, w, boxes, limits, sys.params0)
        j = sens.gain_names.index("c2.g_v")
        assert upd.delta[j] == pytest.approx(0.5, abs=1e-10)
        assert "c2.g_v<=max" in upd.active_constraints
        mu = upd.multipliers[[lab for lab in _labels(sens, boxes, limits)
                              ].index("c2.g_v<=max")]
        assert mu > 0.0

    def test_weight_scaling_leaves_minimizer_unchanged(self):
        sys = secondary_feeder().build()
        sol, snap, sens, boxes, limits = self._setup(sys)
        w1 = WeightVector({b: 1.0 for b in sys.bus_ids}, rho=0.0)
        w2 = WeightVector({b: 2.0 for b in sys.bus_ids}, rho=0.0)
        u1 = solve_update(snap, sens, w1, boxes, limits, sys.params0)
        u2 = solve_update(snap, sens, w2, boxes, limits, sys.params0)
        assert np.allclose(u1.delta, u2.delta, atol=1e-9)

    def test_infeasible_box_rejected(self):
        sys = secondary_feeder().build()
        sol, snap, sens, boxes, limits = self._setup(sys)
        boxes["c2.g_v"] = (1.0, -1.0)
        w = WeightVector({b: 1.0 for b in sys.bus_ids})
        with pytest.raises(ConfigurationError):
            solve_update(snap, sens, w, boxes, limits, sys.params0)

    def test_all_columns_unusable_is_noop(self):
        sys = secondary_feeder().build()
        sol, snap, sens, boxes, limits = self._setup(sys)
        dead = sens.__class__(sens.gain_names, sens.bus_ids, sens.conv_ids,
                              sens.voltage, sens.current,
                              np.zeros_like(sens.usable))
        w = WeightVector({b: 1.0 for b in sys.bus_ids})
        upd = solve_update(snap, dead, w, boxes, limits, sys.params0)
        assert upd.no_op
        assert np.all(upd.delta == 0.0)


def _labels(sens, boxes, limits):
    labels = []
    for name in sens.gain_names:
        labels += [f"{name}<=max", f"{name}>=min"]
    for conv_id in sens.conv_ids:
        if conv_id in limits:
            labels.append(f"{conv_id}.imax")
    return labels


class TestRunRecursive:
    def test_terminates_immediately_without_violation(self):
        # balanced load and injection keep every bus inside the band
        sys = secondary_feeder(p_load=0.1, p_ref=0.14).build()
        hist = run_recursive(sys, sys.params0, WeightVector(
            {b: 1.0 for b in sys.bus_ids}, rho=1e-8))
        assert hist.converged
        assert len(hist.iterations) == 1
        gains = hist.iterations[0]["gains"]
        assert all(g == 0.0 and b == 0.0 for g, b in gains.values())

    def test_four_bus_feeder_reaches_band(self):
        sys = secondary_feeder().build()
        sol = solved(sys)
        dev0 = max(abs(1.0 - v)
                   for v in sys.voltage_magnitudes(sol.x).values())
        assert 0.04 <= dev0 <= 0.06
        hist = run_recursive(sys, sys.params0, WeightVector(
            {b: 1.0 for b in sys.bus_ids}, rho=1e-8), alpha=1.0)
        assert hist.converged
        assert len(hist.iterations) - 1 <= 20
        final = hist.iterations[-1]["snapshot"].voltages
        assert max(abs(1.0 - v) for v in final.values()) <= 0.01
        objs = [entry["objective"] for entry in hist.iterations]
        assert all(b2 <= a + 1e-14 for a, b2 in zip(objs, objs[1:]))

    def test_gains_stay_in_box_and_currents_below_rating(self):
        sys = secondary_feeder(box=20.0).build()
        hist = run_recursive(sys, sys.params0, WeightVector(
            {b: 1.0 for b in sys.bus_ids}, rho=1e-8), alpha=1.0)
        for entry in hist.iterations:
            for conv_id, (g, b) in entry["gains"].items():
                conv = sys.converter(conv_id)
                assert conv.val.g_min - 1e-9 <= g <= conv.val.g_max + 1e-9
                assert conv.val.b_min - 1e-9 <= b <= conv.val.b_max + 1e-9
            for conv_id, mag in entry["snapshot"].converter_currents.items():
                assert mag <= sys.converter(conv_id).i_max * (1 + 1e-6)

    def test_simultaneous_over_and_under_voltage(self):
        sys = over_under_feeder().build()
        sol = solved(sys)
        v0 = sys.voltage_magnitudes(sol.x)
        assert v0["b1"] > 1.01 and v0["b3"] < 0.99
        hist = run_recursive(sys, sys.params0, WeightVector(
            {b: 1.0 for b in sys.bus_ids}, rho=1e-8), alpha=1.0)
        vf = hist.iterations[-1]["snapshot"].voltages
        assert abs(1.0 - vf["b1"]) < abs(1.0 - v0["b1"])
        assert abs(1.0 - vf["b3"]) < abs(1.0 - v0["b3"])

    def test_no_iteration_walks_the_device_outputs(self):
        # voltages and converter currents are read from the states
        sys = secondary_feeder().build()
        walked = []
        outputs = sys.outputs
        sys.outputs = lambda x, p: walked.append(p) or outputs(x, p)
        hist = run_recursive(sys, sys.params0, WeightVector(
            {b: 1.0 for b in sys.bus_ids}, rho=1e-8))
        assert len(hist.iterations) > 1
        assert walked == []

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.5, 2.0])
    def test_trust_factor_outside_unit_interval_rejected(self, alpha):
        # the full optimizer step already reaches the gain boxes, so a
        # factor above 1 would step past them
        sys = secondary_feeder().build()
        with pytest.raises(ConfigurationError, match="alpha"):
            run_recursive(sys, sys.params0, WeightVector(
                {b: 1.0 for b in sys.bus_ids}), alpha=alpha)

    def test_bit_identical_reruns(self):
        def run():
            sys = secondary_feeder().build()
            hist = run_recursive(sys, sys.params0, WeightVector(
                {b: 1.0 for b in sys.bus_ids}, rho=1e-8), alpha=1.0)
            return [(e["objective"], tuple(sorted(e["gains"].items())))
                    for e in hist.iterations]

        assert run() == run()
