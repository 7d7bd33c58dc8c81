"""Per-unit network model and assembly into a residual system.

The network is formulated as dynamic phasors in a synchronous dq frame
rotating at the nominal speed ``omega0``.  Every bus carries a small shunt
capacitance so node voltages are states and the default model is a pure
ODE; pinned (infinite-bus) sources and degenerate virtual-admittance
branches introduce zero-mass algebraic rows that the engine handles as a
semi-explicit DAE.

Sign conventions: a dq pair maps to the complex phasor ``x_d + j x_q``;
the frame-rotation coupling enters every inductive/capacitive dynamic as
``-j omega0``, so a static branch satisfies the familiar phasor law
``v_from - v_to = (r + j omega0 l) i``.  Device injections are positive
into the bus; loads return consumed current and are subtracted.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .converters import (GflConverter, V_FLOOR, gfl_rates, gfm_rates,
                         pll_project)
from .engine import DaeSystem, Params
from .errors import ModelValidationError
from .limits import SmoothLimiter, rate_window, smooth_deadband
from .val import dval_rate, dval_realization, qval_correction

__all__ = [
    "OMEGA0",
    "Bus",
    "RlBranch",
    "ZipLoad",
    "InductionMachine",
    "LtcTransformer",
    "GridSource",
    "NetworkModel",
    "AssembledSystem",
    "zip_injection",
    "im_rates",
    "ltc_rate",
    "reactance_to_inductance",
]

OMEGA0 = 2.0 * math.pi * 50.0


def reactance_to_inductance(x_pu: float, omega0: float = OMEGA0) -> float:
    """Convert a reactance at nominal frequency to the inductance used by
    the dynamic equations (``l = x / omega0``)."""
    return x_pu / omega0


@dataclass(frozen=True)
class Bus:
    """Network node; ``b_sh`` is the shunt susceptance at nominal frequency
    (pu, > 0) giving the capacitance ``c = b_sh / omega0``."""

    id: str
    b_sh: float = 1e-4
    v_d: float = 1.0   # initial guess
    v_q: float = 0.0

    def __post_init__(self):
        if self.b_sh <= 0.0:
            raise ModelValidationError(
                f"bus {self.id!r}: shunt susceptance must be positive")


@dataclass(frozen=True)
class RlBranch:
    """Series RL line between two buses; ``l`` in seconds (x/omega0)."""

    id: str
    from_bus: str
    to_bus: str
    r: float
    l: float

    def __post_init__(self):
        if self.l <= 0.0:
            raise ModelValidationError(f"branch {self.id!r}: l must be positive")
        if self.r < 0.0:
            raise ModelValidationError(f"branch {self.id!r}: r must be >= 0")
        if self.from_bus == self.to_bus:
            raise ModelValidationError(f"branch {self.id!r}: from == to")


@dataclass(frozen=True)
class ZipLoad:
    """Static load: constant-impedance + constant-current + constant-power
    mixture referenced to ``v0``."""

    id: str
    bus: str
    p0: float
    q0: float = 0.0
    a_z: float = 0.0
    a_i: float = 0.0
    a_p: float = 1.0
    b_z: float = 0.0
    b_i: float = 0.0
    b_p: float = 1.0
    v0: float = 1.0

    def __post_init__(self):
        for name, frac in (("a_z", self.a_z), ("a_i", self.a_i), ("a_p", self.a_p),
                           ("b_z", self.b_z), ("b_i", self.b_i), ("b_p", self.b_p)):
            if not 0.0 <= frac <= 1.0:
                raise ModelValidationError(
                    f"load {self.id!r}: fraction {name}={frac} outside [0, 1]")
        if abs(self.a_z + self.a_i + self.a_p - 1.0) > 1e-9:
            raise ModelValidationError(f"load {self.id!r}: active fractions must sum to 1")
        if abs(self.b_z + self.b_i + self.b_p - 1.0) > 1e-9:
            raise ModelValidationError(f"load {self.id!r}: reactive fractions must sum to 1")
        if self.v0 <= 0.0:
            raise ModelValidationError(f"load {self.id!r}: v0 must be positive")
        if self.v0 * self.v0 == 0.0:      # the residual divides by it
            raise ModelValidationError(
                f"load {self.id!r}: v0 is too small, its square underflows")


@dataclass(frozen=True)
class InductionMachine:
    """Third-order induction-machine load (stator transients neglected)."""

    id: str
    bus: str
    x_s: float = 0.1
    x_r: float = 0.18
    x_m: float = 3.2
    r_r: float = 0.03
    r_s: float = 0.01
    h: float = 0.6
    t_mech: float = 0.5
    s0: float = 0.02         # initial slip guess
    omega0: float = OMEGA0

    def __post_init__(self):
        if self.h <= 0.0:
            raise ModelValidationError(f"machine {self.id!r}: inertia must be positive")
        if self.t0_prime <= 0.0 or self.x_prime <= 0.0:
            raise ModelValidationError(
                f"machine {self.id!r}: derived time constant / transient "
                "reactance must be positive")
        if self.r_s * self.r_s + self.x_prime * self.x_prime == 0.0:
            raise ModelValidationError(          # the residual divides by it
                f"machine {self.id!r}: stator impedance is too small, "
                "its squared magnitude underflows")

    # Derived once per machine: every residual call reads them.
    @cached_property
    def x0(self) -> float:
        return self.x_s + self.x_m

    @cached_property
    def x_prime(self) -> float:
        return self.x_s + self.x_m * self.x_r / (self.x_m + self.x_r)

    @cached_property
    def t0_prime(self) -> float:
        return (self.x_r + self.x_m) / (self.omega0 * self.r_r)


@dataclass(frozen=True)
class LtcTransformer:
    """Transformer with a continuous load-tap-changer regulating the
    ``to``-side voltage magnitude within a smooth deadband."""

    id: str
    from_bus: str
    to_bus: str
    x_t: float = 0.1
    n0: float = 1.0
    n_min: float = 0.9
    n_max: float = 1.1
    t_ltc: float = 30.0
    v_ref: float = 1.0
    d_band: float = 0.01
    k_s: float = 5.0

    def __post_init__(self):
        if not self.n_min < self.n_max:
            raise ModelValidationError(f"ltc {self.id!r}: n_min must be < n_max")
        if self.t_ltc <= 0.0 or self.x_t <= 0.0 or self.k_s <= 0.0:
            raise ModelValidationError(f"ltc {self.id!r}: x_t, t_ltc, k_s must be positive")
        if self.from_bus == self.to_bus:
            raise ModelValidationError(f"ltc {self.id!r}: from == to")


@dataclass(frozen=True)
class GridSource:
    """Thevenin grid equivalent.  With ``r_g == l_g == 0`` the source pins
    its bus voltage (infinite bus, algebraic rows); otherwise the source
    current is a dynamic state behind ``r_g + j omega0 l_g``.

    ``rotating=True`` adds an angle state ``d(theta)/dt = omega_offset``
    so grid-frequency steps can be simulated; such a system has no
    equilibrium and is meant for time-domain studies initialized from the
    non-rotating twin.
    """

    id: str
    bus: str
    e_mag: float = 1.0
    r_g: float = 0.0
    l_g: float = 0.0
    rotating: bool = False

    def __post_init__(self):
        if self.e_mag <= 0.0:
            raise ModelValidationError(f"source {self.id!r}: e_mag must be positive")
        if self.r_g < 0.0 or self.l_g < 0.0:
            raise ModelValidationError(f"source {self.id!r}: impedance must be >= 0")

    @property
    def pinned(self) -> bool:
        return self.r_g == 0.0 and self.l_g == 0.0


def zip_injection(load: ZipLoad, vd: float, vq: float, lam: float):
    """Consumed current of a ZIP load (load convention, out of the bus).

    ``P(V) = lam p0 (a_z (V/v0)^2 + a_i (V/v0) + a_p)`` and analogously for
    Q; the injection is ``conj((P + jQ)/v)``.  Below the voltage floor the
    magnitude of the 1/V branches is frozen at its floor value along the
    voltage angle, so residuals stay bounded near collapse.
    """
    vmag = math.hypot(vd, vq)
    if vmag == 0.0:
        return 0.0, 0.0
    veff = max(vmag, V_FLOOR)
    # constant-impedance part: P_z/V^2 is voltage independent
    cz_p = lam * load.p0 * load.a_z / (load.v0 * load.v0)
    cz_q = lam * load.q0 * load.b_z / (load.v0 * load.v0)
    i_d = cz_p * vd + cz_q * vq
    i_q = cz_p * vq - cz_q * vd
    # constant-current and constant-power parts share the guarded divisor
    p_ip = lam * load.p0 * (load.a_i * vmag / load.v0 + load.a_p)
    q_ip = lam * load.q0 * (load.b_i * vmag / load.v0 + load.b_p)
    den = vmag * veff
    i_d += (p_ip * vd + q_ip * vq) / den
    i_q += (p_ip * vq - q_ip * vd) / den
    return i_d, i_q


def im_rates(m: InductionMachine, vd: float, vq: float, s: float,
             e_d: float, e_q: float, lam: float, t_mech: float):
    """Third-order machine residual rates and stator current.

    ``t_mech`` is the mechanical load torque at ``lam = 1``; it is passed
    in, not read from ``m``, so the assembled system can vary it as a
    parameter.  Returns ``(f_s, f_ed, f_eq, i_d, i_q)`` where the slip row
    has mass ``2h`` and the EMF rows mass ``t0'``; the stator current
    follows ``(v - e')/(r_s + j x')`` in motor convention and the
    electrical torque is ``Re(e' conj(i))``.
    """
    xp = m.x_prime
    x0 = m.x0
    t0p = m.t0_prime
    den = m.r_s * m.r_s + xp * xp
    dd = vd - e_d
    dq = vq - e_q
    i_d = (dd * m.r_s + dq * xp) / den
    i_q = (dq * m.r_s - dd * xp) / den
    t_e = e_d * i_d + e_q * i_q
    f_s = lam * t_mech - t_e
    f_ed = t0p * m.omega0 * s * e_q - e_d - (x0 - xp) * i_q
    f_eq = -t0p * m.omega0 * s * e_d - e_q + (x0 - xp) * i_d
    return f_s, f_ed, f_eq, i_d, i_q


def ltc_rate(t: LtcTransformer, v_reg: float, n: float, v_ref: float) -> float:
    """Tap residual row ``t_ltc * dn/dt``, mass factored out as in
    :func:`im_rates`.

    The smooth deadband acts on the regulation error ``v_ref - v_reg`` and
    the rate window suppresses motion toward a nearby tap limit.
    """
    err = float(smooth_deadband(t.d_band, t.k_s, v_ref - v_reg))
    return err * rate_window(n, t.n_min, t.n_max, t.k_s, err)


@dataclass(frozen=True)
class NetworkModel:
    """Immutable network description; ``build`` compiles it to a residual
    system."""

    buses: tuple
    branches: tuple = ()
    sources: tuple = ()
    zip_loads: tuple = ()
    machines: tuple = ()
    ltcs: tuple = ()
    gfls: tuple = ()
    gfms: tuple = ()
    omega0: float = OMEGA0

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ModelValidationError("duplicate bus id")
        device_ids = [d.id for group in (self.branches, self.sources,
                                         self.zip_loads, self.machines,
                                         self.ltcs, self.gfls, self.gfms)
                      for d in group]
        if len(set(device_ids)) != len(device_ids):
            raise ModelValidationError("duplicate device id")
        for gfm in self.gfms:
            x_v = self.omega0 * gfm.l_v
            if gfm.r_v * gfm.r_v + x_v * x_v == 0.0:    # gfm_rates divides
                raise ModelValidationError(
                    f"gfm {gfm.id!r}: virtual impedance is too small, its "
                    "squared magnitude underflows")
        bus_set = set(ids)
        for group, attr in ((self.sources, "bus"), (self.zip_loads, "bus"),
                            (self.machines, "bus"), (self.gfls, "bus"),
                            (self.gfms, "bus")):
            for dev in group:
                if getattr(dev, attr) not in bus_set:
                    raise ModelValidationError(
                        f"device {dev.id!r} references unknown bus "
                        f"{getattr(dev, attr)!r}")
        for dev in (*self.branches, *self.ltcs):
            for end in (dev.from_bus, dev.to_bus):
                if end not in bus_set:
                    raise ModelValidationError(
                        f"device {dev.id!r} references unknown bus {end!r}")
        self._check_connected()

    def _check_connected(self):
        if len(self.buses) <= 1:
            return
        parent = {b.id: b.id for b in self.buses}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for dev in (*self.branches, *self.ltcs):
            parent[find(dev.from_bus)] = find(dev.to_bus)
        roots = {find(b.id) for b in self.buses}
        if len(roots) != 1:
            raise ModelValidationError(
                f"network graph is disconnected ({len(roots)} islands)")

    def build(self, rotating_sources: bool = False) -> "AssembledSystem":
        return AssembledSystem(self, rotating_sources)




class AssembledSystem(DaeSystem):
    """Compiled residual system for a :class:`NetworkModel`.

    State layout: bus voltage pairs, then branch currents, source currents
    (Thevenin only) and angles (rotating only), LTC current/tap, machine
    (slip, e') triples, GFL converter states and GFM droop states.  All
    runtime-variable quantities are read from the parameter vector through
    indices precomputed here, and the shunt terms of the bus rows and each
    converter's limiter are set up here too.  One evaluation reads the
    states and parameter values once as Python floats, accumulates in
    Python lists and converts the residual to an array once.  The layout
    also declares, row by row, the states each residual row reads: the
    sparsity pattern that :func:`~adnlab.engine.jacobian_fd` colours.
    """

    def __init__(self, model: NetworkModel, rotating_sources: bool = False):
        self.model = model
        self.omega0 = model.omega0
        self.rotating = rotating_sources

        names = []
        reads = []             # per residual row, the states it reads
        mass_const = []
        mass_param = []        # (state index, parameter name) fixed up below
        pnames, pvals = ["lambda"], [1.0]

        def add_states(*labels):
            names.extend(labels)
            reads.extend(set() for _ in labels)
            return len(names) - len(labels)

        def add_param(name, value):
            pnames.append(name)
            pvals.append(float(value))
            return len(pnames) - 1

        self.bus_ids = tuple(b.id for b in model.buses)
        self.bus_pos = {b.id: i for i, b in enumerate(model.buses)}
        self.vidx = {}
        pinned_sources = {}
        for src in model.sources:
            if src.pinned:
                if src.bus in pinned_sources:
                    raise ModelValidationError(
                        f"bus {src.bus!r} pinned by more than one source")
                pinned_sources[src.bus] = src
        self.pinned = pinned_sources

        def inject(bus_id, d_reads, q_reads):
            """Declare what a device's injection reads in its bus's KCL
            rows; a pinned bus has source rows instead."""
            if bus_id not in pinned_sources:
                vi = self.vidx[bus_id]
                reads[vi].update(d_reads)
                reads[vi + 1].update(q_reads)

        for bus in model.buses:
            vi = add_states(f"{bus.id}.vd", f"{bus.id}.vq")
            self.vidx[bus.id] = vi
            c = 0.0 if bus.id in pinned_sources else bus.b_sh / model.omega0
            mass_const += [c, c]
            inject(bus.id, {vi + 1}, {vi})    # shunt
        # KCL rows of the buses no source pins: (bus, first row, w0 * c)
        self._free_buses = tuple(
            (bp, self.vidx[b.id], model.omega0 * (b.b_sh / model.omega0))
            for bp, b in enumerate(model.buses) if b.id not in pinned_sources)

        self._branches = []
        for br in model.branches:
            idx = add_states(f"{br.id}.id", f"{br.id}.iq")
            vf, vt = self.vidx[br.from_bus], self.vidx[br.to_bus]
            reads[idx].update((vf, vt, idx, idx + 1))
            reads[idx + 1].update((vf + 1, vt + 1, idx, idx + 1))
            inject(br.from_bus, {idx}, {idx + 1})
            inject(br.to_bus, {idx}, {idx + 1})
            ip_r = add_param(f"{br.id}.r", br.r)
            ip_l = add_param(f"{br.id}.l", br.l)
            mass_const += [0.0, 0.0]
            mass_param += [(idx, ip_l), (idx + 1, ip_l)]
            self._branches.append((br, self.bus_pos[br.from_bus],
                                   self.bus_pos[br.to_bus], vf, vt, idx,
                                   ip_r, ip_l))

        self._sources = []
        for src in model.sources:
            vi = self.vidx[src.bus]
            ip_e = add_param(f"{src.id}.e_mag", src.e_mag)
            ip_th = add_param(f"{src.id}.theta", 0.0)
            i_idx = th_idx = -1
            ip_rg = ip_lg = ip_off = -1
            if not src.pinned:
                i_idx = add_states(f"{src.id}.id", f"{src.id}.iq")
                ip_rg = add_param(f"{src.id}.r_g", src.r_g)
                ip_lg = add_param(f"{src.id}.l_g", src.l_g)
                mass_const += [0.0, 0.0]
                mass_param += [(i_idx, ip_lg), (i_idx + 1, ip_lg)]
            if rotating_sources and src.rotating:
                th_idx = add_states(f"{src.id}.theta_g")
                ip_off = add_param(f"{src.id}.omega_offset", 0.0)
                mass_const += [1.0]
            emf = {th_idx} if th_idx >= 0 else set()
            if i_idx < 0:
                reads[vi].update(emf | {vi})
                reads[vi + 1].update(emf | {vi + 1})
            else:
                reads[i_idx].update(emf | {vi, i_idx, i_idx + 1})
                reads[i_idx + 1].update(emf | {vi + 1, i_idx, i_idx + 1})
                inject(src.bus, {i_idx}, {i_idx + 1})
            self._sources.append((src, self.bus_pos[src.bus], vi, i_idx,
                                  th_idx, ip_e, ip_th, ip_rg, ip_lg, ip_off))

        self._ltcs = []
        for ltc in model.ltcs:
            idx = add_states(f"{ltc.id}.id", f"{ltc.id}.iq", f"{ltc.id}.n")
            vf, vt = self.vidx[ltc.from_bus], self.vidx[ltc.to_bus]
            reads[idx].update((vf, vt, idx + 1, idx + 2))
            reads[idx + 1].update((vf + 1, vt + 1, idx, idx + 2))
            reads[idx + 2].update((vt, vt + 1, idx + 2))
            inject(ltc.from_bus, {idx, idx + 2}, {idx + 1, idx + 2})
            inject(ltc.to_bus, {idx}, {idx + 1})
            ip_vref = add_param(f"{ltc.id}.v_ref", ltc.v_ref)
            l_t = ltc.x_t / model.omega0
            mass_const += [l_t, l_t, ltc.t_ltc]
            self._ltcs.append((ltc, self.bus_pos[ltc.from_bus],
                               self.bus_pos[ltc.to_bus], vf, vt, idx,
                               ip_vref, l_t))

        self._machines = []
        for m in model.machines:
            vi = self.vidx[m.bus]
            idx = add_states(f"{m.id}.s", f"{m.id}.ed", f"{m.id}.eq")
            stator = {vi, vi + 1, idx + 1, idx + 2}   # the current reads these
            reads[idx].update(stator)
            reads[idx + 1].update(stator | {idx})
            reads[idx + 2].update(stator | {idx})
            inject(m.bus, stator, stator)
            ip_tm = add_param(f"{m.id}.t_mech", m.t_mech)
            mass_const += [2.0 * m.h, m.t0_prime, m.t0_prime]
            self._machines.append((m, self.bus_pos[m.bus], vi, idx, ip_tm))

        self._zips = []
        for load in model.zip_loads:
            vi = self.vidx[load.bus]
            inject(load.bus, {vi, vi + 1}, {vi, vi + 1})
            self._zips.append((load, self.bus_pos[load.bus], vi))

        GFL_PARAMS = ("p_ref", "q0", "kq", "v_ref", "kp_pll", "ki_pll",
                      "kp_cc", "ki_cc", "k_aw", "i_max")
        self._gfls = []
        for conv in model.gfls:
            vi = self.vidx[conv.bus]
            idx = add_states(f"{conv.id}.theta", f"{conv.id}.eps",
                             f"{conv.id}.id", f"{conv.id}.iq",
                             f"{conv.id}.xid", f"{conv.id}.xiq")
            mass_const += [1.0, 1.0, conv.l_f, conv.l_f, 1.0, 1.0]
            pidx = tuple(add_param(f"{conv.id}.{nm}", getattr(conv, nm))
                         for nm in GFL_PARAMS)
            v_pll = {vi, vi + 1, idx}       # bus voltage in the PLL frame
            vm_d = vm_q = v_pll
            vm_idx = -1
            if conv.tau_meas > 0.0:
                vm_idx = add_states(f"{conv.id}.vmd", f"{conv.id}.vmq")
                mass_const += [conv.tau_meas, conv.tau_meas]
                vm_d, vm_q = {vm_idx}, {vm_idx + 1}
                reads[vm_idx].update(v_pll | vm_d)
                reads[vm_idx + 1].update(v_pll | vm_q)
            corr = set()
            val_idx = None
            real = None
            dv_idx = -1
            if conv.val_mode == "qval":
                val_idx = (add_param(f"{conv.id}.g_v", conv.val.g_v),
                           add_param(f"{conv.id}.b_v", conv.val.b_v),
                           add_param(f"{conv.id}.v_nom", conv.val.v_nom))
                corr = vm_d | vm_q
            elif conv.val_mode == "dval":
                real = dval_realization(conv.val.g_v, conv.val.b_v,
                                        model.omega0)
                dv_idx = add_states(f"{conv.id}.ivd", f"{conv.id}.ivq")
                mass_const += [real.l_mag, real.l_mag]
                corr = {dv_idx, dv_idx + 1}
                reads[dv_idx].update(vm_d | corr)
                reads[dv_idx + 1].update(vm_q | corr)
            iref = vm_d | vm_q | corr       # the limited current reference
            reads[idx].update(v_pll | {idx + 1})
            reads[idx + 1].update(v_pll)
            reads[idx + 2].update(iref | {idx + 2, idx + 4})
            reads[idx + 3].update(iref | {idx + 3, idx + 5})
            reads[idx + 4].update(iref | {idx + 2})
            reads[idx + 5].update(iref | {idx + 3})
            inject(conv.bus, {idx, idx + 2, idx + 3}, {idx, idx + 2, idx + 3})
            self._gfls.append((conv, self.bus_pos[conv.bus], vi, idx, pidx,
                               val_idx, real, vm_idx, dv_idx))
        # the limiter of each converter, rebuilt when its i_max changes
        self._limiters = [SmoothLimiter(conv.i_max, conv.limiter_k)
                          for conv in model.gfls]

        GFM_PARAMS = ("m_p", "n_q", "v_set", "p_set", "q_set")
        self._gfms = []
        for gfm in model.gfms:
            vi = self.vidx[gfm.bus]
            idx = add_states(f"{gfm.id}.theta", f"{gfm.id}.pf",
                             f"{gfm.id}.qf")
            out = {vi, vi + 1, idx, idx + 2}    # the injection reads these
            reads[idx].add(idx + 1)
            reads[idx + 1].update(out | {idx + 1})
            reads[idx + 2].update(out)
            inject(gfm.bus, out, out)
            mass_const += [1.0, gfm.tau_p, gfm.tau_q]
            pidx = tuple(add_param(f"{gfm.id}.{nm}", getattr(gfm, nm))
                         for nm in GFM_PARAMS)
            self._gfms.append((gfm, self.bus_pos[gfm.bus], vi, idx, pidx))

        self._mass_base = np.array(mass_const)
        self._mass_param = tuple(mass_param)
        params0 = Params(pnames, np.array(pvals))
        super().__init__(len(names), self._evaluate, self._mass_impl,
                         params0, state_names=names,
                         limiter_activity_fn=self._activity_impl,
                         pattern=reads)

    # ------------------------------------------------------------------
    # evaluation

    def _mass_impl(self, p: Params):
        m = self._mass_base.copy()
        pv = p.values
        for i, j in self._mass_param:
            m[i] = pv[j]
        return m

    def _evaluate(self, x, p: Params, outputs: dict | None = None):
        """Residual vector; ``outputs``, when given, receives every
        device's auxiliary outputs."""
        w0 = self.omega0
        xs = x.tolist()
        pv = p.values.tolist()
        lam = pv[0]
        inj_d = [0.0] * len(self.bus_ids)
        inj_q = [0.0] * len(self.bus_ids)
        f = [0.0] * self.n

        for br, fp, tp, vf, vt, idx, ip_r, ip_l in self._branches:
            i_d, i_q = xs[idx], xs[idx + 1]
            r, l = pv[ip_r], pv[ip_l]
            f[idx] = xs[vf] - xs[vt] - r * i_d + w0 * l * i_q
            f[idx + 1] = xs[vf + 1] - xs[vt + 1] - r * i_q - w0 * l * i_d
            inj_d[fp] -= i_d
            inj_q[fp] -= i_q
            inj_d[tp] += i_d
            inj_q[tp] += i_q

        for (src, bp, vi, i_idx, th_idx, ip_e, ip_th, ip_rg, ip_lg,
             ip_off) in self._sources:
            theta = xs[th_idx] if th_idx >= 0 else pv[ip_th]
            e_d = pv[ip_e] * math.cos(theta)
            e_q = pv[ip_e] * math.sin(theta)
            if th_idx >= 0:
                f[th_idx] = pv[ip_off]
            if i_idx < 0:
                f[vi] = e_d - xs[vi]
                f[vi + 1] = e_q - xs[vi + 1]
            else:
                i_d, i_q = xs[i_idx], xs[i_idx + 1]
                r_g, l_g = pv[ip_rg], pv[ip_lg]
                f[i_idx] = e_d - xs[vi] - r_g * i_d + w0 * l_g * i_q
                f[i_idx + 1] = e_q - xs[vi + 1] - r_g * i_q - w0 * l_g * i_d
                inj_d[bp] += i_d
                inj_q[bp] += i_q

        for ltc, fp, tp, vf, vt, idx, ip_vref, l_t in self._ltcs:
            i_d, i_q, n_tap = xs[idx], xs[idx + 1], xs[idx + 2]
            f[idx] = n_tap * xs[vf] - xs[vt] + w0 * l_t * i_q
            f[idx + 1] = n_tap * xs[vf + 1] - xs[vt + 1] - w0 * l_t * i_d
            f[idx + 2] = ltc_rate(ltc, math.hypot(xs[vt], xs[vt + 1]), n_tap,
                                  pv[ip_vref])
            inj_d[fp] -= n_tap * i_d
            inj_q[fp] -= n_tap * i_q
            inj_d[tp] += i_d
            inj_q[tp] += i_q

        for m, bp, vi, idx, ip_tm in self._machines:
            f[idx], f[idx + 1], f[idx + 2], i_d, i_q = im_rates(
                m, xs[vi], xs[vi + 1], xs[idx], xs[idx + 1], xs[idx + 2], lam,
                pv[ip_tm])
            inj_d[bp] -= i_d
            inj_q[bp] -= i_q
            if outputs is not None:
                outputs[f"{m.id}.i"] = (i_d, i_q)

        for load, bp, vi in self._zips:
            i_d, i_q = zip_injection(load, xs[vi], xs[vi + 1], lam)
            inj_d[bp] -= i_d
            inj_q[bp] -= i_q
            if outputs is not None:
                outputs[f"{load.id}.i"] = (i_d, i_q)

        for k, (conv, bp, vi, idx, pidx, val_idx, real, vm_idx,
                dv_idx) in enumerate(self._gfls):
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
            lim = self._limiters[k]
            if lim.limit != i_max:
                lim = self._limiters[k] = SmoothLimiter(i_max, conv.limiter_k)
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
            inj_d[bp] += rates[8]
            inj_q[bp] += rates[9]
            if outputs is not None:
                outputs[conv.id] = out

        for gfm, bp, vi, idx, pidx in self._gfms:
            out = None if outputs is None else {}
            f[idx], f[idx + 1], f[idx + 2], i_d, i_q = gfm_rates(
                w0, xs[idx], xs[idx + 1], xs[idx + 2], xs[vi], xs[vi + 1],
                pv[pidx[0]], pv[pidx[1]], pv[pidx[2]], pv[pidx[3]],
                pv[pidx[4]], gfm.r_v, gfm.l_v, gfm.tau_p, gfm.tau_q, out)
            inj_d[bp] += i_d
            inj_q[bp] += i_q
            if outputs is not None:
                outputs[gfm.id] = out

        for bp, vi, wc in self._free_buses:
            f[vi] = inj_d[bp] + wc * xs[vi + 1]
            f[vi + 1] = inj_q[bp] - wc * xs[vi]
        return np.fromiter(f, float, self.n)

    def _activity_impl(self, x, p: Params):
        if not self._gfls:
            return {}
        outputs = {}
        self._evaluate(x, p, outputs)
        return {conv.id: outputs[conv.id]["activity"]
                for conv, *_ in self._gfls}

    # ------------------------------------------------------------------
    # helpers

    def initial_guess(self) -> np.ndarray:
        x = np.zeros(self.n)
        for bus in self.model.buses:
            vi = self.vidx[bus.id]
            x[vi], x[vi + 1] = bus.v_d, bus.v_q
        for ltc, fp, tp, vf, vt, idx, ip_vref, l_t in self._ltcs:
            x[idx + 2] = ltc.n0
        for m, bp, vi, idx, ip_tm in self._machines:
            x[idx] = m.s0
            x[idx + 1], x[idx + 2] = 0.95, 0.0
        for conv, bp, vi, idx, pidx, val_idx, real, vm_idx, dv_idx in self._gfls:
            q_ref = conv.q0 + conv.kq * (conv.v_ref - 1.0)
            x[idx + 2] = conv.p_ref
            x[idx + 3] = -q_ref
            x[idx + 4] = conv.r_f * x[idx + 2]
            x[idx + 5] = conv.r_f * x[idx + 3]
            if vm_idx >= 0:
                x[vm_idx] = 1.0
        return x

    def bus_voltage(self, x, bus_id: str):
        vi = self.vidx[bus_id]
        return float(x[vi]), float(x[vi + 1])

    def bus_voltage_mag(self, x, bus_id: str) -> float:
        vd, vq = self.bus_voltage(x, bus_id)
        return math.hypot(vd, vq)

    def voltage_magnitudes(self, x) -> dict:
        return {b: self.bus_voltage_mag(x, b) for b in self.bus_ids}

    def outputs(self, x, p: Params) -> dict:
        """Per-device auxiliary outputs (converter internals, load currents)."""
        out = {}
        self._evaluate(np.asarray(x, dtype=float), p, out)
        return out

    def gfl_ids(self):
        return tuple(conv.id for conv, *_ in self._gfls)

    def gfm_ids(self):
        return tuple(gfm.id for gfm, *_ in self._gfms)

    def gfl_state_index(self, conv_id: str) -> int:
        for conv, bp, vi, idx, *_ in self._gfls:
            if conv.id == conv_id:
                return idx
        raise KeyError(f"unknown converter {conv_id!r}")

    def converter(self, conv_id: str) -> GflConverter:
        for conv, *_ in self._gfls:
            if conv.id == conv_id:
                return conv
        for gfm, *_ in self._gfms:
            if gfm.id == conv_id:
                return gfm
        raise KeyError(f"unknown converter {conv_id!r}")
