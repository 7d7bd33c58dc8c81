"""Independent reference implementations the tests compare the model
against: analytic slopes of the smooth limits, the ideal hard clip they
converge to, the steady-state induction-machine circuit, the frame
rotation of an assembled network, its active-power balance, the
additivity of the complex-frequency blocks, a boundary row from the
whole branch, the post-Hopf limit-cycle amplitude by simulation and the
residual of an assembled network from a loop over its devices."""

import math

import numpy as np

from adnlab.contin import (OMEGA_MIN, BoundaryRow, continue_branch,
                           locate_all)
from adnlab.converters import gfl_rates, gfm_rates, pll_project
from adnlab.engine import integrate, newton_equilibrium, reduced_state_matrix
from adnlab.errors import NonConvergenceError, SingularJacobianError
from adnlab.limits import SmoothLimiter
from adnlab.network import im_rates, ltc_rate, zip_injection
from adnlab.val import dval_rate, dval_realization, qval_correction


def sat_slope(lim, x):
    """Analytic derivative of :func:`adnlab.limits.sat` with respect to ``x``."""
    t = np.tanh(lim.k * np.asarray(x, dtype=float) / lim.limit)
    return lim.k * (1.0 - t * t)


def hard_clip(limit: float, x):
    """Ideal saturation: identity inside ``[-limit, limit]``, flat outside."""
    return np.clip(np.asarray(x, dtype=float), -limit, limit)


def smooth_deadband_slope(d: float, k: float, e):
    """Analytic derivative of :func:`adnlab.limits.smooth_deadband` with
    respect to ``e``."""
    e = np.asarray(e, dtype=float)
    if d == 0.0:
        return np.ones_like(e)
    z = e / d
    return 1.0 - 0.5 * (np.tanh(k * (z + 1.0)) - np.tanh(k * (z - 1.0)))


def im_steady_torque(m, vmag: float, s: float) -> float:
    """Electrical torque from the classic steady-state equivalent circuit
    (magnetizing branch in parallel with the rotor branch).  Used as an
    independent oracle for the dynamic-model equilibrium."""
    if s == 0.0:
        return 0.0
    v = complex(vmag, 0.0)
    z_rot = complex(m.r_r / s, m.x_r)
    z_mag = complex(0.0, m.x_m)
    z_par = z_mag * z_rot / (z_mag + z_rot)
    i_s = v / (complex(m.r_s, m.x_s) + z_par)
    i_r = i_s * z_mag / (z_mag + z_rot)
    return abs(i_r) ** 2 * m.r_r / s


def _frame_states(sys):
    """State indices of an assembled network that a rotation of the
    network frame moves: the first index of every network-frame dq pair
    and every absolute angle.  Converter-frame states (GFL currents and
    integrators, measurements, dynamic VAL currents) are not among them."""
    model = sys.model
    firsts = [f"{b.id}.vd" for b in model.buses]
    firsts += [f"{d.id}.id" for d in (*model.branches, *model.sources,
                                      *model.ltcs)]
    firsts += [f"{m.id}.ed" for m in model.machines]
    angles = [f"{s.id}.theta_g" for s in model.sources]
    angles += [f"{c.id}.theta" for c in (*model.gfls, *model.gfms)]
    names = sys.state_names

    def present(labels):
        return np.array([names.index(n) for n in labels if n in names],
                        dtype=int)

    return present(firsts), present(angles)


def rotate_dq(sys, v, phi: float) -> np.ndarray:
    """A state or residual vector with every network-frame dq pair
    multiplied by ``exp(j phi)``; every other entry is kept."""
    pairs, _ = _frame_states(sys)
    v = np.array(v, dtype=float)
    z = (v[pairs] + 1j * v[pairs + 1]) * np.exp(1j * phi)
    v[pairs], v[pairs + 1] = z.real, z.imag
    return v


def rotate_states(sys, x, phi: float) -> np.ndarray:
    """The state ``x`` seen in a network frame turned by ``phi``."""
    _, angles = _frame_states(sys)
    x = rotate_dq(sys, x, phi)
    x[angles] += phi
    return x


def rotate_params(sys, p, phi: float):
    """``p`` with every source angle turned by ``phi``; with
    :func:`rotate_states` it maps solutions to solutions.  A rotating
    source's angle state already turns with the states, so its ``theta``
    parameter is kept."""
    return p.with_values({f"{s.id}.theta": p[f"{s.id}.theta"] + phi
                          for s in sys.model.sources
                          if f"{s.id}.theta_g" not in sys.state_names})


def power_balance(sys, x, p) -> dict:
    """Active power generated, consumed by loads and lost in branch
    resistances at an equilibrium ``x``.

    Power is ``Re(v conj(i))`` at each device terminal.  A pinned source
    supplies the current that KCL at its bus leaves over once every other
    device current and the bus shunt ``j b_sh v`` are counted.
    """
    model = sys.model
    outs = sys.outputs(x, p)
    v = {b.id: complex(*sys.bus_voltage(x, b.id)) for b in model.buses}
    into = dict.fromkeys(v, 0j)      # device current into each bus

    def state_current(device_id):
        k = sys.state_index(f"{device_id}.id")
        return complex(x[k], x[k + 1])

    def power(bus, i):
        return (v[bus] * i.conjugate()).real

    losses = 0.0
    for br in model.branches:
        i = state_current(br.id)
        into[br.from_bus] -= i
        into[br.to_bus] += i
        losses += p[f"{br.id}.r"] * abs(i) ** 2
    for ltc in model.ltcs:
        i = state_current(ltc.id)
        into[ltc.from_bus] -= x[sys.state_index(f"{ltc.id}.n")] * i
        into[ltc.to_bus] += i
    consumed = 0.0
    for load in (*model.zip_loads, *model.machines):
        i = complex(*outs[f"{load.id}.i"])
        into[load.bus] -= i
        consumed += power(load.bus, i)
    generated = 0.0
    for conv in (*model.gfls, *model.gfms):
        i = complex(outs[conv.id]["inj_d"], outs[conv.id]["inj_q"])
        into[conv.bus] += i
        generated += power(conv.bus, i)
    for src in model.sources:
        if not src.pinned:
            i = state_current(src.id)
            into[src.bus] += i
            generated += power(src.bus, i)
    b_sh = {b.id: b.b_sh for b in model.buses}
    for src in model.sources:
        if src.pinned:
            i = 1j * b_sh[src.bus] * v[src.bus] - into[src.bus]
            generated += power(src.bus, i)
    return {"generated": generated, "consumed": consumed,
            "branch_losses": losses}


def cf_additivity_residual(dec) -> float:
    """Largest pointwise gap between the sum of the synchronization and
    regulation blocks of a converter cf decomposition and its total, over
    both ``rho`` and ``omega``."""
    return max(float(np.max(np.abs(getattr(dec.synchronization, k)
                                   + getattr(dec.regulation, k)
                                   - getattr(dec.total, k))))
               for k in ("rho", "omega"))


def full_trace_boundary_row(sys, param1, param2, value, settings, params):
    """One row of :func:`adnlab.contin.trace_boundary_2d`, computed from the
    whole branch: the equilibrium at ``param2 = value`` from the initial
    guess, the branch over ``param1`` traced to its end, every record
    located, and the record of smallest ``s`` kept."""
    p_row = params.with_value(param2, float(value))
    try:
        sol = newton_equilibrium(sys, sys.initial_guess(), p_row)
        branch = continue_branch(sys, sol, param1, settings)
        records = locate_all(sys, branch, p_row)
    except (NonConvergenceError, SingularJacobianError) as exc:
        return BoundaryRow(float(value), "error", float("nan"), str(exc))
    if not records:
        return BoundaryRow(float(value), "none", float("nan"))
    first = min(records, key=lambda r: r.s)
    return BoundaryRow(float(value), first.kind, first.lam)


# below this half peak-to-peak a probe has no sustained cycle
AMPLITUDE_FLOOR = 1e-6


def limit_cycle_amplitude(sys, hb, param, lam_probe, observable) -> float:
    """Post-Hopf limit-cycle amplitude of one observable by simulation, at
    the system's default parameters with ``param`` set to ``lam_probe``.

    Integrates from a perturbed equilibrium for ``20/|Im|`` seconds,
    discards the first half and returns half the peak-to-peak of the
    observable; returns 0 when the equilibrium at the probe is stable or
    the oscillation is still decaying (no sustained cycle).
    """
    if hb.eig is None or abs(hb.eig.imag) <= OMEGA_MIN:
        raise ValueError("record does not carry a Hopf crossing pair")
    p = sys.params0.with_value(param, lam_probe)
    sol = newton_equilibrium(sys, hb.x, p)
    reduced = reduced_state_matrix(sys, sol.x, p)
    eigs, vecs = np.linalg.eig(reduced)
    k = int(np.argmin(np.abs(eigs.imag - abs(hb.eig.imag))
                      + np.abs(eigs.real)))
    if float(np.max(eigs.real)) < 0.0:
        return 0.0
    omega_i = abs(eigs[k].imag) if abs(eigs[k].imag) > OMEGA_MIN \
        else abs(hb.eig.imag)
    direction = np.real(vecs[:, k])
    nrm = np.linalg.norm(direction)
    if nrm == 0.0:
        direction = np.ones_like(direction)
        nrm = np.linalg.norm(direction)
    direction /= nrm
    size = max(1e-3, math.sqrt(abs(lam_probe - hb.lam)))
    m = sys.mass(p)
    x0 = sol.x.copy()
    dyn = np.flatnonzero(m > 0.0)
    x0[dyn] += size * direction
    t_end = 20.0 / omega_i
    h = 2.0 * math.pi / omega_i / 200.0
    traj = integrate(sys, x0, p, t_end, h)
    col = traj.states[:, sys.state_index(observable)]
    keep = col[col.size // 2:]
    amp = 0.5 * float(np.max(keep) - np.min(keep))
    half = keep.size // 2
    amp_early = 0.5 * float(np.max(keep[:half]) - np.min(keep[:half]))
    amp_late = 0.5 * float(np.max(keep[half:]) - np.min(keep[half:]))
    if amp < AMPLITUDE_FLOOR or amp_late < 0.5 * amp_early:
        return 0.0
    return amp


def reference_residual(sys, x, p, outputs=None):
    """Residual of an assembled network from a loop over the devices of
    ``sys.model``, as :class:`adnlab.network.AssembledSystem` evaluated it
    before its kernel was generated; ``outputs``, when given, receives
    every device's auxiliary outputs.  Every state is found by its name
    with ``sys.state_index`` and every parameter by its name with
    ``p.index``; the limiters and DVAL realizations are built here.  So
    the loop shares no index and no object with the system's layout."""
    model = sys.model
    w0 = model.omega0
    xs = np.asarray(x, dtype=float).tolist()
    pv = list(p.values)
    lam = pv[p.index("lambda")]
    f = [0.0] * sys.n
    pins = []              # source rows of pinned buses, set last

    def pair(dev_id, d="id", q="iq"):
        return (sys.state_index(f"{dev_id}.{d}"),
                sys.state_index(f"{dev_id}.{q}"))

    def par(dev_id, name):
        return pv[p.index(f"{dev_id}.{name}")]

    def inject(bus_id, i_d, i_q):       # a current into the bus
        rd, rq = bus[bus_id]
        f[rd] += i_d
        f[rq] += i_q

    def draw(bus_id, i_d, i_q):         # a current out of the bus
        rd, rq = bus[bus_id]
        f[rd] -= i_d
        f[rq] -= i_q

    bus = {b.id: pair(b.id, "vd", "vq") for b in model.buses}
    v = {b: (xs[d], xs[q]) for b, (d, q) in bus.items()}

    for br in model.branches:
        rd, rq = pair(br.id)
        i_d, i_q = xs[rd], xs[rq]
        r, l = par(br.id, "r"), par(br.id, "l")
        (vfd, vfq), (vtd, vtq) = v[br.from_bus], v[br.to_bus]
        f[rd] = vfd - vtd - r * i_d + w0 * l * i_q
        f[rq] = vfq - vtq - r * i_q - w0 * l * i_d
        draw(br.from_bus, i_d, i_q)
        inject(br.to_bus, i_d, i_q)

    for src in model.sources:
        vd, vq = v[src.bus]
        theta = par(src.id, "theta")
        if f"{src.id}.theta_g" in sys.state_names:
            th = sys.state_index(f"{src.id}.theta_g")
            theta += xs[th]
            f[th] = par(src.id, "omega_offset")
        e_d = par(src.id, "e_mag") * math.cos(theta)
        e_q = par(src.id, "e_mag") * math.sin(theta)
        if src.pinned:
            pins.append((bus[src.bus], e_d - vd, e_q - vq))
            continue
        rd, rq = pair(src.id)
        i_d, i_q = xs[rd], xs[rq]
        r_g, l_g = par(src.id, "r_g"), par(src.id, "l_g")
        f[rd] = e_d - vd - r_g * i_d + w0 * l_g * i_q
        f[rq] = e_q - vq - r_g * i_q - w0 * l_g * i_d
        inject(src.bus, i_d, i_q)

    for ltc in model.ltcs:
        rd, rq = pair(ltc.id)
        rn = sys.state_index(f"{ltc.id}.n")
        i_d, i_q, n_tap = xs[rd], xs[rq], xs[rn]
        l_t = ltc.x_t / w0
        (vfd, vfq), (vtd, vtq) = v[ltc.from_bus], v[ltc.to_bus]
        f[rd] = n_tap * vfd - vtd + w0 * l_t * i_q
        f[rq] = n_tap * vfq - vtq - w0 * l_t * i_d
        f[rn] = ltc_rate(ltc, math.hypot(vtd, vtq), n_tap,
                         par(ltc.id, "v_ref"))
        draw(ltc.from_bus, n_tap * i_d, n_tap * i_q)
        inject(ltc.to_bus, i_d, i_q)

    for m in model.machines:
        rows = [sys.state_index(f"{m.id}.{nm}") for nm in ("s", "ed", "eq")]
        t0p = (m.x_r + m.x_m) / (w0 * m.r_r)
        *rates, i_d, i_q = im_rates(m, *v[m.bus], *(xs[i] for i in rows),
                                    lam, par(m.id, "t_mech"), t0p, w0)
        for i, rate in zip(rows, rates):
            f[i] = rate
        draw(m.bus, i_d, i_q)
        if outputs is not None:
            outputs[f"{m.id}.i"] = (i_d, i_q)

    for load in model.zip_loads:
        i_d, i_q = zip_injection(load, *v[load.bus], lam)
        draw(load.bus, i_d, i_q)
        if outputs is not None:
            outputs[f"{load.id}.i"] = (i_d, i_q)

    for conv in model.gfls:
        vd, vq = v[conv.bus]
        rows = [sys.state_index(f"{conv.id}.{nm}")
                for nm in ("theta", "eps", "id", "iq", "xid", "xiq")]
        theta = xs[rows[0]]
        if conv.tau_meas > 0.0:
            md, mq = pair(conv.id, "vmd", "vmq")
            vm_d, vm_q = xs[md], xs[mq]
        else:
            vm_d, vm_q = pll_project(vd, vq, theta)
        corr_d = corr_q = 0.0
        if conv.val_mode == "qval":
            corr_d, corr_q = qval_correction(
                par(conv.id, "g_v"), par(conv.id, "b_v"),
                par(conv.id, "v_nom") - vm_d, -vm_q)
        elif conv.val_mode == "dval":
            cd, cq = pair(conv.id, "ivd", "ivq")
            corr_d, corr_q = xs[cd], xs[cq]
        lim = SmoothLimiter(par(conv.id, "i_max"), conv.limiter_k)
        gains = [par(conv.id, nm) for nm in (
            "p_ref", "q0", "kq", "v_ref", "kp_pll", "ki_pll", "kp_cc",
            "ki_cc", "k_aw")]
        out = None if outputs is None else {}
        rates = gfl_rates(w0, *(xs[i] for i in rows), vd, vq, vm_d, vm_q,
                          corr_d, corr_q, *gains, lim, conv.l_f, conv.r_f,
                          out)
        for i, rate in zip(rows, rates):
            f[i] = rate
        if conv.tau_meas > 0.0:
            f[md], f[mq] = rates[6], rates[7]
        if conv.val_mode == "dval":
            real = dval_realization(conv.val.g_v, conv.val.b_v, w0)
            f[cd], f[cq] = dval_rate(real, corr_d, corr_q,
                                     conv.val.v_nom - vm_d, -vm_q, w0)
        inject(conv.bus, rates[8], rates[9])
        if outputs is not None:
            outputs[conv.id] = out

    for gfm in model.gfms:
        rows = [sys.state_index(f"{gfm.id}.{nm}")
                for nm in ("theta", "pf", "qf")]
        out = None if outputs is None else {}
        *rates, i_d, i_q = gfm_rates(
            w0, *(xs[i] for i in rows), *v[gfm.bus],
            *(par(gfm.id, nm) for nm in ("m_p", "n_q", "v_set", "p_set",
                                        "q_set")),
            gfm.r_v, gfm.l_v, gfm.tau_p, gfm.tau_q, out)
        for i, rate in zip(rows, rates):
            f[i] = rate
        inject(gfm.bus, i_d, i_q)
        if outputs is not None:
            outputs[gfm.id] = out

    pinned = {src.bus for src in model.sources if src.pinned}
    for b in model.buses:
        if b.id not in pinned:
            wc = w0 * (b.b_sh / w0)
            vd, vq = v[b.id]
            rd, rq = bus[b.id]
            f[rd] += wc * vq
            f[rq] -= wc * vd
    for (rd, rq), f_d, f_q in pins:
        f[rd], f[rq] = f_d, f_q
    return np.fromiter(f, float, sys.n)
