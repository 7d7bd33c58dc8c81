"""Independent reference implementations the tests compare the model
against: analytic slopes of the smooth limits, the ideal hard clip they
converge to, the steady-state induction-machine circuit, the frame
rotation of an assembled network, its active-power balance, the
additivity of the complex-frequency blocks, a boundary row from the
whole branch and the residual of an assembled network from a loop over
its devices."""

import math

import numpy as np

from adnlab.contin import BoundaryRow, continue_branch, locate_all
from adnlab.converters import gfl_rates, gfm_rates, pll_project
from adnlab.engine import newton_equilibrium
from adnlab.errors import NonConvergenceError, SingularJacobianError
from adnlab.limits import SmoothLimiter
from adnlab.network import im_rates, ltc_rate, zip_injection
from adnlab.val import dval_rate, qval_correction


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


def reference_residual(sys, x, p, outputs=None):
    """Residual of an assembled network from a loop over its devices, as
    :class:`adnlab.network.AssembledSystem` evaluated it before its kernel
    was generated; ``outputs``, when given, receives every device's
    auxiliary outputs.  A converter whose ``i_max`` differs from its
    cached limiter gets a fresh one, and the cache is left alone."""
    w0 = sys.omega0
    xs = np.asarray(x, dtype=float).tolist()
    pv = p.values.tolist()
    lam = pv[0]
    f = [0.0] * sys.n
    pins = []              # source rows of pinned buses, set last

    for vf, vt, idx, ip_r, ip_l in sys._branches:
        i_d, i_q = xs[idx], xs[idx + 1]
        r, l = pv[ip_r], pv[ip_l]
        f[idx] = xs[vf] - xs[vt] - r * i_d + w0 * l * i_q
        f[idx + 1] = xs[vf + 1] - xs[vt + 1] - r * i_q - w0 * l * i_d
        f[vf] -= i_d
        f[vf + 1] -= i_q
        f[vt] += i_d
        f[vt + 1] += i_q

    for (vi, i_idx, th_idx, ip_e, ip_th, ip_rg, ip_lg,
         ip_off) in sys._sources:
        theta = pv[ip_th] + xs[th_idx] if th_idx >= 0 else pv[ip_th]
        e_d = pv[ip_e] * math.cos(theta)
        e_q = pv[ip_e] * math.sin(theta)
        if th_idx >= 0:
            f[th_idx] = pv[ip_off]
        if i_idx < 0:
            pins.append((vi, e_d, e_q))
        else:
            i_d, i_q = xs[i_idx], xs[i_idx + 1]
            r_g, l_g = pv[ip_rg], pv[ip_lg]
            f[i_idx] = e_d - xs[vi] - r_g * i_d + w0 * l_g * i_q
            f[i_idx + 1] = e_q - xs[vi + 1] - r_g * i_q - w0 * l_g * i_d
            f[vi] += i_d
            f[vi + 1] += i_q

    for ltc, vf, vt, idx, ip_vref, l_t in sys._ltcs:
        i_d, i_q, n_tap = xs[idx], xs[idx + 1], xs[idx + 2]
        f[idx] = n_tap * xs[vf] - xs[vt] + w0 * l_t * i_q
        f[idx + 1] = n_tap * xs[vf + 1] - xs[vt + 1] - w0 * l_t * i_d
        f[idx + 2] = ltc_rate(ltc, math.hypot(xs[vt], xs[vt + 1]), n_tap,
                              pv[ip_vref])
        f[vf] -= n_tap * i_d
        f[vf + 1] -= n_tap * i_q
        f[vt] += i_d
        f[vt + 1] += i_q

    for m, vi, idx, ip_tm, t0p in sys._machines:
        f[idx], f[idx + 1], f[idx + 2], i_d, i_q = im_rates(
            m, xs[vi], xs[vi + 1], xs[idx], xs[idx + 1], xs[idx + 2], lam,
            pv[ip_tm], t0p, w0)
        f[vi] -= i_d
        f[vi + 1] -= i_q
        if outputs is not None:
            outputs[f"{m.id}.i"] = (i_d, i_q)

    for load, vi in sys._zips:
        i_d, i_q = zip_injection(load, xs[vi], xs[vi + 1], lam)
        f[vi] -= i_d
        f[vi + 1] -= i_q
        if outputs is not None:
            outputs[f"{load.id}.i"] = (i_d, i_q)

    for k, (conv, vi, idx, pidx, val_idx, real, vm_idx,
            dv_idx) in enumerate(sys._gfls):
        vd, vq = xs[vi], xs[vi + 1]
        if vm_idx >= 0:
            vm_d, vm_q = xs[vm_idx], xs[vm_idx + 1]
        else:
            vm_d, vm_q = pll_project(vd, vq, xs[idx])
        corr_d = corr_q = 0.0
        if val_idx is not None:
            dv_d = pv[val_idx[2]] - vm_d
            dv_q = -vm_q
            corr_d, corr_q = qval_correction(pv[val_idx[0]],
                                             pv[val_idx[1]], dv_d, dv_q)
        elif real is not None:
            corr_d, corr_q = xs[dv_idx], xs[dv_idx + 1]
        # pidx: consecutive indices in GFL_PARAMS order, i_max last
        i_max = pv[pidx[-1]]
        lim = sys._limiters[k]
        if lim.limit != i_max:
            lim = SmoothLimiter(i_max, conv.limiter_k)
        out = None if outputs is None else {}
        rates = gfl_rates(w0, *xs[idx:idx + 6], vd, vq, vm_d, vm_q,
                          corr_d, corr_q, *pv[pidx[0]:pidx[-1]], lim,
                          conv.l_f, conv.r_f, out)
        f[idx:idx + 6] = rates[:6]
        if vm_idx >= 0:
            f[vm_idx], f[vm_idx + 1] = rates[6], rates[7]
        if real is not None:
            dv_d = conv.val.v_nom - vm_d
            dv_q = -vm_q
            f[dv_idx], f[dv_idx + 1] = dval_rate(
                real, xs[dv_idx], xs[dv_idx + 1], dv_d, dv_q, w0)
        f[vi] += rates[8]
        f[vi + 1] += rates[9]
        if outputs is not None:
            outputs[conv.id] = out

    for gfm, vi, idx, pidx in sys._gfms:
        out = None if outputs is None else {}
        f[idx], f[idx + 1], f[idx + 2], i_d, i_q = gfm_rates(
            w0, xs[idx], xs[idx + 1], xs[idx + 2], xs[vi], xs[vi + 1],
            pv[pidx[0]], pv[pidx[1]], pv[pidx[2]], pv[pidx[3]],
            pv[pidx[4]], gfm.r_v, gfm.l_v, gfm.tau_p, gfm.tau_q, out)
        f[vi] += i_d
        f[vi + 1] += i_q
        if outputs is not None:
            outputs[gfm.id] = out

    for vi, wc in sys._free_buses:
        f[vi] += wc * xs[vi + 1]
        f[vi + 1] -= wc * xs[vi]
    for vi, e_d, e_q in pins:
        f[vi] = e_d - xs[vi]
        f[vi + 1] = e_q - xs[vi + 1]
    return np.fromiter(f, float, sys.n)
