"""Independent reference implementations the tests compare the model
against: analytic slopes of the smooth limits, the ideal hard clip they
converge to, the steady-state induction-machine circuit, the frame
rotation of an assembled network, its active-power balance and the
additivity of the complex-frequency blocks."""

import numpy as np


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
    :func:`rotate_states` it maps solutions to solutions."""
    return p.with_values({f"{s.id}.theta": p[f"{s.id}.theta"] + phi
                          for s in sys.model.sources})


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
