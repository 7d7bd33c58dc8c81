"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are pinned here and nowhere else."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from adnlab.cfreq import (
    cf_from_trajectory,
    cf_of_bus,
    decompose_converter_cf,
)
from adnlab.cli import EXIT_OK, run_command
from adnlab.contin import (
    ContinuationSettings,
    continue_branch,
    locate_all,
    trace_boundary_2d,
)
from adnlab.engine import (
    DaeSystem,
    Params,
    integrate,
    jacobian_fd,
    newton_equilibrium,
    reduced_state_matrix,
)
from adnlab.limits import sat, sat_vector
from adnlab.network import OMEGA0, reactance_to_inductance
from adnlab.secondary import WeightVector, run_recursive
from adnlab.val import ValGains

from feeders import (
    gfl_loaded_feeder,
    gfl_two_bus,
    over_under_feeder,
    secondary_feeder,
    two_bus_pq,
)
from oracles import (cf_additivity_residual, hard_clip, limit_cycle_amplitude,
                     sat_slope)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def report(number: int, label: str):
    print(f"[PASS] criterion {number}: {label}")


def solve(sys, p=None, x0=None):
    return newton_equilibrium(
        sys, x0 if x0 is not None else sys.initial_guess(),
        p if p is not None else sys.params0)


def loading_settings(**kw):
    base = dict(h0=0.02, h_max=0.05, param_min=0.05, param_max=10.0,
                max_steps=800)
    base.update(kw)
    return ContinuationSettings(**base)


def first_snb(sys, p, settings):
    sol = newton_equilibrium(sys, sys.initial_guess(), p)
    branch = continue_branch(sys, sol, "lambda", settings)
    snbs = [r for r in locate_all(sys, branch, p) if r.kind == "SNB"]
    assert snbs, "no fold found on the loading branch"
    return min(snbs, key=lambda r: r.s)


def test_criterion_1_analytic_nose():
    t_start = time.perf_counter()
    sys = two_bus_pq(x_line=0.5).build()
    p = sys.params0.with_value("lambda", 0.25)
    snb = first_snb(sys, p, loading_settings(param_max=5.0, max_steps=600))
    assert snb.lam * 0.8 == pytest.approx(1.0, rel=0.005)

    grid = [reactance_to_inductance(x) for x in (0.25, 0.5, 1.0)]
    boundary = trace_boundary_2d(
        sys, "lambda", "line.l", grid,
        loading_settings(param_max=5.0, max_steps=600), p)
    for row, x_val in zip(boundary.rows, (0.25, 0.5, 1.0)):
        assert row.kind == "SNB"
        assert row.lam * 0.8 == pytest.approx(1.0 / (2.0 * x_val), rel=0.01)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 10.0
    report(1, f"two-bus fold at the analytic maximum loading "
              f"({elapsed:.1f} s for the reactance family)")


def test_criterion_2_bifurcation_normal_forms():
    fold = DaeSystem(1, lambda x, p: np.array([p["mu"] - x[0] ** 2]),
                     lambda p: np.ones(1), Params(("mu",), [1.0]),
                     state_names=("x",))
    sol = newton_equilibrium(fold, np.array([1.0]), fold.params0)
    branch = continue_branch(
        fold, sol, "mu",
        ContinuationSettings(h0=0.05, direction=-1.0, param_min=-1.0,
                             param_max=2.0, max_steps=200))
    snb = [r for r in locate_all(fold, branch, fold.params0)
           if r.kind == "SNB"][0]
    assert abs(snb.lam) <= 1e-8

    def hopf_res(x, p):
        mu = p["mu"]
        r2 = x[0] ** 2 + x[1] ** 2
        return np.array([mu * x[0] - x[1] - x[0] * r2,
                         x[0] + mu * x[1] - x[1] * r2])

    hopf = DaeSystem(2, hopf_res, lambda p: np.ones(2),
                     Params(("mu",), [-0.5]), state_names=("x", "y"))
    sol = newton_equilibrium(hopf, np.zeros(2), hopf.params0)
    branch = continue_branch(
        hopf, sol, "mu",
        ContinuationSettings(h0=0.02, direction=1.0, param_min=-1.0,
                             param_max=0.5, max_steps=200))
    hb = [r for r in locate_all(hopf, branch, hopf.params0)
          if r.kind == "HB"][0]
    assert abs(hb.lam) <= 1e-8
    amp = limit_cycle_amplitude(hopf, hb, "mu", 0.04, "x")
    assert amp == pytest.approx(math.sqrt(0.04), rel=0.05)
    report(2, "fold and Hopf normal forms localized to 1e-8; "
              "limit-cycle amplitude follows sqrt(mu)")


def test_criterion_3_smooth_limit_convergence():
    limit = 1.7
    xs = np.concatenate([np.linspace(limit, 4.0 * limit, 61),
                         -np.linspace(limit, 4.0 * limit, 61)])
    errors = []
    for k in (1, 2, 5, 10, 20, 50):
        errors.append(float(np.max(np.abs(
            hard_clip(limit, xs)
            - np.array([sat(limit, float(k), x) for x in xs])))))
    assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-4 * limit

    lim = (1.2, 5.0)
    rng = np.random.default_rng(1)
    for _ in range(200):
        xd, xq = rng.uniform(-4, 4, 2)
        mag = math.hypot(xd, xq)
        if mag < 1e-9:
            continue
        yd, yq = sat_vector(*lim, xd, xq)
        assert abs(xd * yq - xq * yd) <= 1e-12 * mag
    report(3, "tanh limiter converges monotonically to the hard clip on "
              "the saturated region; vector limiting preserves angles")


def test_criterion_4_linearization_consistency():
    # extra line resistance damps the fast terminal resonance well below
    # the PLL mode, so the rightmost pair is resolvable by the integrator
    sys = gfl_two_bus(r_line=0.1).build()
    p = sys.params0
    sol = solve(sys)
    reduced = reduced_state_matrix(sys, sol.x, p)
    eigs, right = np.linalg.eig(reduced)
    _, left = np.linalg.eig(reduced.T)
    k = int(np.argmax(eigs.real))
    lam1 = eigs[k]
    assert lam1.real < 0.0
    eigs_l = np.linalg.eig(reduced.T)[0]
    kl = int(np.argmin(np.abs(eigs_l - lam1)))
    w = left[:, kl]

    mass = sys.mass(p)
    dyn = np.flatnonzero(mass > 0.0)
    direction = np.real(right[:, k])
    direction /= np.linalg.norm(direction)
    x0 = sol.x.copy()
    x0[dyn] += 1e-4 * direction
    t_end = 0.4
    traj = integrate(sys, x0, p, t_end=t_end, h=2e-4)
    delta = traj.states[:, dyn] - sol.x[dyn]
    s = delta @ w
    t1_idx = len(traj.times) - 1
    sigma_fit = math.log(abs(s[t1_idx]) / abs(s[0])) / traj.times[t1_idx]
    assert sigma_fit == pytest.approx(lam1.real, rel=0.05)

    # analytic sat row against the finite-difference Jacobian
    lim = (1.0, 10.0)
    sat_sys = DaeSystem(1, lambda x, q: np.array([float(sat(*lim, x[0]))]),
                        lambda q: np.ones(1), Params((), []))
    for x_val in (-0.2, -0.05, 0.02, 0.15):
        jac = jacobian_fd(sat_sys, np.array([x_val]), sat_sys.params0)
        assert jac[0, 0] == pytest.approx(float(sat_slope(*lim, x_val)),
                                          rel=1e-5, abs=1e-9)

    # analytic PLL rows of the assembled system
    jac = jacobian_fd(sys, sol.x, p)
    i_th = sys.state_index("c1.theta")
    i_eps = sys.state_index("c1.eps")
    i_vd = sys.state_index("b2.vd")
    i_vq = sys.state_index("b2.vq")
    theta = sol.x[i_th]
    vd, vq = sol.x[i_vd], sol.x[i_vq]
    v_pll_d = vd * math.cos(theta) + vq * math.sin(theta)
    kp, ki = p["c1.kp_pll"], p["c1.ki_pll"]
    expected = {
        (i_th, i_th): -kp * v_pll_d,
        (i_th, i_eps): 1.0,
        (i_th, i_vd): -kp * math.sin(theta),
        (i_th, i_vq): kp * math.cos(theta),
        (i_eps, i_th): -ki * v_pll_d,
        (i_eps, i_vd): -ki * math.sin(theta),
        (i_eps, i_vq): ki * math.cos(theta),
    }
    for (row, col), value in expected.items():
        assert jac[row, col] == pytest.approx(value, rel=1e-5, abs=1e-7)
    report(4, f"fitted decay {sigma_fit:.3f} matches rightmost eigenvalue "
              f"{lam1.real:.3f}; analytic saturation and PLL rows agree")


def test_criterion_5_reactive_support_widens_margin():
    settings = loading_settings()
    lam_stars = {}
    for kq in (0.0, 2.0):
        sys = gfl_loaded_feeder(dict(kq=kq, p_ref=0.3)).build()
        lam_stars[kq] = first_snb(sys, sys.params0, settings).lam
    assert lam_stars[2.0] > lam_stars[0.0]
    report(5, f"Volt/VAR droop widens the loading margin: "
              f"{lam_stars[0.0]:.4f} -> {lam_stars[2.0]:.4f}")


def test_criterion_6_dval_qval_equivalence():
    gains = dict(g_v=1.2, b_v=-0.6)
    points = (0.8, 0.9, 1.0, 1.1, 1.2)
    for lam in points:
        sys_d = gfl_loaded_feeder(dict(val_mode="dval",
                                       val=ValGains(**gains))).build()
        sys_q = gfl_loaded_feeder(dict(val_mode="qval",
                                       val=ValGains(**gains))).build()
        p_d = sys_d.params0.with_value("lambda", lam)
        p_q = sys_q.params0.with_value("lambda", lam)
        sol_d = solve(sys_d, p_d)
        sol_q = solve(sys_q, p_q)
        for name in sys_q.state_names:
            diff = abs(sol_q.x[sys_q.state_index(name)]
                       - sol_d.x[sys_d.state_index(name)])
            assert diff < 1e-6, (lam, name, diff)
    report(6, f"dynamic and quasi-stationary VAL equilibria coincide to "
              f"1e-6 pu at {len(points)} operating points")


def test_criterion_7_val_voltage_support_and_margin():
    r_values = (0.08, 0.10, 0.12, 0.14, 0.16)
    gains = ValGains(g_v=1.5, b_v=-0.5)
    margins = {}
    for r in r_values:
        sys_off = gfl_loaded_feeder(r_line=r).build()
        sys_val = gfl_loaded_feeder(dict(val_mode="qval", val=gains),
                                    r_line=r).build()
        dev_off = abs(1.0 - sys_off.bus_voltage_mag(solve(sys_off).x, "b2"))
        dev_val = abs(1.0 - sys_val.bus_voltage_mag(solve(sys_val).x, "b2"))
        assert dev_val < dev_off, r
        lam_off = first_snb(sys_off, sys_off.params0, loading_settings()).lam
        lam_val = first_snb(sys_val, sys_val.params0, loading_settings()).lam
        assert lam_val > lam_off, r
        margins[r] = (lam_off, lam_val)
    report(7, "virtual admittance reduces voltage deviation and widens the "
              f"loading margin at all {len(r_values)} grid impedances")


def test_criterion_8_secondary_end_to_end():
    t_start = time.perf_counter()
    sys = secondary_feeder().build()
    dev0 = max(abs(1.0 - v)
               for v in sys.voltage_magnitudes(solve(sys).x).values())
    assert 0.04 <= dev0 <= 0.06
    weights = WeightVector({b: 1.0 for b in sys.bus_ids}, rho=1e-8)
    hist = run_recursive(sys, sys.params0, weights, alpha=1.0)
    assert hist.converged
    assert len(hist.iterations) - 1 <= 20
    final = hist.iterations[-1]["snapshot"]
    assert max(abs(1.0 - v) for v in final.voltages.values()) <= 0.01
    objs = [entry["objective"] for entry in hist.iterations]
    assert all(b <= a + 1e-14 for a, b in zip(objs, objs[1:]))
    for entry in hist.iterations:
        for conv_id, (g, b) in entry["gains"].items():
            conv = sys.converter(conv_id)
            assert conv.val.g_min - 1e-9 <= g <= conv.val.g_max + 1e-9
            assert conv.val.b_min - 1e-9 <= b <= conv.val.b_max + 1e-9
        for conv_id, mag in entry["snapshot"].converter_currents.items():
            assert mag <= sys.converter(conv_id).i_max * (1.0 + 1e-6)

    mixed = over_under_feeder().build()
    v0 = mixed.voltage_magnitudes(solve(mixed).x)
    hist2 = run_recursive(mixed, mixed.params0, WeightVector(
        {b: 1.0 for b in mixed.bus_ids}, rho=1e-8), alpha=1.0)
    vf = hist2.iterations[-1]["snapshot"].voltages
    assert abs(1.0 - vf["b1"]) < abs(1.0 - v0["b1"])   # overvoltage reduced
    assert abs(1.0 - vf["b3"]) < abs(1.0 - v0["b3"])   # undervoltage reduced
    elapsed = time.perf_counter() - t_start
    assert elapsed < 60.0
    report(8, f"secondary controller: {dev0:.3f} pu -> "
              f"{max(abs(1.0 - v) for v in final.voltages.values()):.4f} pu "
              f"in {len(hist.iterations) - 1} updates ({elapsed:.1f} s)")


def test_criterion_9_complex_frequency():
    # steady phasor
    t = np.arange(0.0, 0.2, 1e-4)
    cf = cf_from_trajectory(t, np.full_like(t, 0.98),
                            np.full_like(t, -0.05), OMEGA0)
    assert np.max(np.abs(cf.rho)) <= 1e-9
    assert np.max(np.abs(cf.omega - OMEGA0)) <= 1e-9

    # chirp
    a = 8.0
    theta = 0.5 * a * t * t
    cfc = cf_from_trajectory(t, np.cos(theta), np.sin(theta), OMEGA0)
    h = t[1] - t[0]
    assert np.max(np.abs(cfc.omega - (OMEGA0 + a * t))) <= 10.0 * h * h

    # decomposition additivity and internal-frequency behavior on the
    # grid-frequency-step study
    model = gfl_two_bus(dict(kq=0.5), x_line=0.2, b_sh=1e-3, rotating=True)
    model = model.__class__(
        buses=model.buses, branches=model.branches,
        sources=(model.sources[0].__class__(
            id="grid", bus="b1", e_mag=1.0, r_g=0.01,
            l_g=reactance_to_inductance(0.05), rotating=True),),
        gfls=model.gfls)
    sys0 = model.build()
    sol = solve(sys0)
    sys = model.build(rotating_sources=True)
    x0 = np.zeros(sys.n)
    for i, name in enumerate(sys.state_names):
        if name != "grid.theta_g":
            x0[i] = sol.x[sys0.state_index(name)]
    p = sys.params0.with_value("grid.omega_offset", 1.0)
    traj = integrate(sys, x0, p, t_end=4.0, h=5e-4)
    dec = decompose_converter_cf(sys, traj, "c1", OMEGA0, p)
    assert cf_additivity_residual(dec) < 1e-6
    bus = cf_of_bus(sys, traj, "b2", OMEGA0, window=2)
    internal = decompose_converter_cf(sys, traj, "c1", OMEGA0, p,
                                      window=2).internal
    diff = np.abs(internal.omega - bus.omega)
    assert np.max(diff[: len(diff) // 4]) > 0.5
    assert diff[-1] < 1e-4

    # additivity also on an angle-step trajectory of the static twin
    p_step = sys0.params0.with_value("grid.theta", 0.02)
    traj2 = integrate(sys0, sol.x, p_step, t_end=0.5, h=2e-4)
    assert cf_additivity_residual(decompose_converter_cf(
        sys0, traj2, "c1", OMEGA0, p_step)) < 1e-6
    report(9, "complex frequency: exact steady nulls, chirp recovery, "
              "block additivity, and PLL-internal vs bus frequency "
              "divergence/reconvergence")


def test_criterion_10_determinism(tmp_path):
    runs = (
        ("equilibrium", "two_bus.json"),
        ("continue", "two_bus.json"),
        ("boundary2d", "two_bus.json"),
        ("simulate", "gfl_feeder.json"),
        ("secondary", "secondary_4bus.json"),
        ("cf", "cf_step.json"),
    )
    for command, scenario in runs:
        digests = []
        for tag in ("first", "second"):
            out = tmp_path / f"{command}_{tag}"
            rc = run_command([command, "--scenario",
                              str(SCENARIO_DIR / scenario),
                              "--out", str(out), "--quiet"])
            assert rc == EXIT_OK
            digest = {f.name: f.read_bytes()
                      for f in sorted(out.glob("*.csv"))}
            assert digest, command
            digests.append(digest)
        assert digests[0] == digests[1], command
    report(10, f"byte-identical CSV artifacts across repeated runs of "
               f"{len(runs)} commands")
