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
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

import numpy as np

from .converters import (GflConverter, V_FLOOR, gfl_rates, gfm_rates,
                         pll_project)
from .engine import DaeSystem, Params
from .errors import ModelValidationError
from .limits import rate_window, smooth_deadband
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

    def __post_init__(self):
        if self.h <= 0.0:
            raise ModelValidationError(f"machine {self.id!r}: inertia must be positive")
        # t0' = (x_r + x_m) / (omega0 r_r) is positive with these
        if not (self.r_r > 0.0 and self.x_r + self.x_m > 0.0
                and self.x_prime > 0.0):
            raise ModelValidationError(
                f"machine {self.id!r}: r_r, x_r + x_m and the transient "
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

    ``rotating=True`` adds an angle state ``d(theta_g)/dt = omega_offset``
    to the ``theta`` parameter, so grid-frequency and phase steps can both
    be simulated; such a system has no equilibrium and is meant for
    time-domain studies initialized from the non-rotating twin.
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
    den = max(vmag, 1e-300) * veff
    i_d += (p_ip * vd + q_ip * vq) / den
    i_q += (p_ip * vq - q_ip * vd) / den
    return i_d, i_q


def im_rates(m: InductionMachine, vd: float, vq: float, s: float,
             e_d: float, e_q: float, lam: float, t_mech: float, t0p: float,
             omega0: float):
    """Third-order machine residual rates and stator current.

    ``t_mech`` is the mechanical load torque at ``lam = 1``; it is passed
    in, not read from ``m``, so the assembled system can vary it as a
    parameter.  ``t0p`` is the open-circuit time constant
    ``t0' = (x_r + x_m) / (omega0 r_r)`` at the network's nominal speed
    ``omega0``.  Returns ``(f_s, f_ed, f_eq, i_d, i_q)`` where the slip
    row has mass ``2h`` and the EMF rows mass ``t0'``; the stator current
    follows ``(v - e')/(r_s + j x')`` in motor convention and the
    electrical torque is ``Re(e' conj(i))``.
    """
    xp = m.x_prime
    x0 = m.x0
    den = m.r_s * m.r_s + xp * xp
    dd = vd - e_d
    dq = vq - e_q
    i_d = (dd * m.r_s + dq * xp) / den
    i_q = (dq * m.r_s - dd * xp) / den
    t_e = e_d * i_d + e_q * i_q
    f_s = lam * t_mech - t_e
    f_ed = t0p * omega0 * s * e_q - e_d - (x0 - xp) * i_q
    f_eq = -t0p * omega0 * s * e_d - e_q + (x0 - xp) * i_d
    return f_s, f_ed, f_eq, i_d, i_q


def ltc_rate(t: LtcTransformer, v_reg: float, n: float, v_ref: float) -> float:
    """Tap residual row ``t_ltc * dn/dt``, mass factored out as in
    :func:`im_rates`.

    The smooth deadband acts on the regulation error ``v_ref - v_reg`` and
    the rate window suppresses motion toward a nearby tap limit.
    """
    err = smooth_deadband(t.d_band, t.k_s, v_ref - v_reg)
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
        if not self.buses:      # a kernel over no states cannot be written
            raise ModelValidationError("network has no buses")
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ModelValidationError("duplicate bus id")
        devices = (*self.sources, *self.zip_loads, *self.machines,
                   *self.gfls, *self.gfms, *self.branches, *self.ltcs)
        device_ids = [d.id for d in devices]
        if len(set(device_ids)) != len(device_ids):
            raise ModelValidationError("duplicate device id")
        for gfm in self.gfms:
            x_v = self.omega0 * gfm.l_v
            if gfm.r_v * gfm.r_v + x_v * x_v == 0.0:    # gfm_rates divides
                raise ModelValidationError(
                    f"gfm {gfm.id!r}: virtual impedance is too small, its "
                    "squared magnitude underflows")
        for m in self.machines:
            if self.omega0 * m.r_r == 0.0:    # t0' divides by it
                raise ModelValidationError(
                    f"machine {m.id!r}: omega0 * r_r underflows")
        bus_set = set(ids)
        for dev in devices:
            for end in ((dev.bus,) if hasattr(dev, "bus")
                        else (dev.from_bus, dev.to_bus)):
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


@lru_cache(maxsize=64)
def _compile_kernel(source: str):
    """Code object of a generated residual kernel or outputs walk,
    memoised by its source text, so systems of one layout compile it
    once."""
    return compile(source, "<adnlab residual kernel>", "exec")


def _bind_source(unpack_env: str, name: str, args: str, lines) -> str:
    """Source of ``bind(env)``, which runs the line ``unpack_env`` and
    returns the function ``name(args)`` whose body is ``lines``."""
    return "\n".join(["def bind(env):", f"    {unpack_env}",
                      f"    def {name}({args}):",
                      *(f"        {line}" for line in lines),
                      f"    return {name}", ""])


# A name in a kernel line: neither an attribute nor part of a number.
_NAME = re.compile(r"(?<![.\w])[A-Za-z_]\w*")


@lru_cache(maxsize=64)
def _difference_source(body: tuple, unpack: tuple, colour: tuple,
                       rows: tuple, cols: tuple, param) -> str:
    """Source of the difference kernel of the residual kernel whose lines
    are ``body``, each ``targets = expression``, and whose lines unpacking
    ``env``, ``x`` and ``p`` are ``unpack``.

    ``colour``, ``rows`` and ``cols`` are the column colouring of
    :meth:`~adnlab.engine.DaeSystem.colouring`: the group of each state,
    and the row and column of each Jacobian entry; ``param`` is the index
    of the parameter to difference.
    ``bind(env)`` returns ``difference(x, xp, xm, d, p, pl)``.
    It runs the kernel lines once at ``x`` and ``p``.  Then, for each
    group's ``+h`` state (from ``xp``), each ``-h`` state (``xm``) and the
    parameter's two values (``pl``), in that order, it runs again only
    the lines that read a perturbed name, directly or through an earlier
    such line, on copies that tag ``__<perturbation>`` to every target
    and to every perturbed name read.
    It returns one list: the residual, every entry ``(f+ - f-) / d`` with
    ``d`` the column's ``2h``, and every row's ``(f+ - f-) / d_p``,
    ``d_p`` the last item of ``pl``.
    """
    steps = []
    for line in body:
        targets, expr = line.split(" = ", 1)
        steps.append((targets, expr, set(_NAME.findall(targets)),
                      set(_NAME.findall(expr))))
    unpack_env, unpack_x, unpack_p = unpack
    lines = [unpack_x, unpack_p, *body]

    def rerun(seeds, tag):
        """Append the lines ``seeds`` reach, with the names they set and
        the perturbed names they read tagged; return the perturbed
        names."""
        dirty = set(seeds)
        for targets, expr, writes, reads in steps:
            if reads & dirty:
                targets = _NAME.sub(rf"\g<0>__{tag}", targets)
                expr = _NAME.sub(lambda name: f"{name[0]}__{tag}"
                                 if name[0] in dirty else name[0], expr)
                lines.append(f"{targets} = {expr}")
                dirty |= writes
        return dirty

    def row_name(row, dirty, tag):
        return f"f{row}__{tag}" if f"f{row}" in dirty else f"f{row}"

    n, sides = len(colour), []
    group = [colour[col] for col in cols]      # of each entry
    for sign, states in (("p", "xp"), ("m", "xm")):
        lines.append(", ".join(f"x{i}__{c}{sign}" for i, c
                               in enumerate(colour)) + f", = {states}")
        dirty = [rerun({f"x{i}" for i, c in enumerate(colour) if c == k},
                       f"{k}{sign}") for k in range(max(colour) + 1)]
        sides.append([row_name(row, dirty[k], f"{k}{sign}")
                      for row, k in zip(rows, group)])
    lines.append(", ".join(f"d{i}" for i in range(n)) + ", = d")
    diffs = [f"({a} - {b}) / d{col}" for a, b, col in zip(*sides, cols)]
    lines.append(f"p{param}__lp, p{param}__lm, d_p = pl")
    sides = []
    for tag in ("lp", "lm"):
        dirty = rerun({f"p{param}"}, tag)
        sides.append([row_name(row, dirty, tag) for row in range(n)])
    diffs += [f"({a} - {b}) / d_p" for a, b in zip(*sides)]
    returned = ", ".join([f"f{i}" for i in range(n)] + diffs)
    return _bind_source(unpack_env, "difference", "x, xp, xm, d, p, pl",
                        [*lines, f"return [{returned}]"])


class AssembledSystem(DaeSystem):
    """Compiled residual system for a :class:`NetworkModel`.

    State layout: bus voltage pairs, then branch currents, source currents
    (Thevenin only) and angles (rotating only), LTC current/tap, machine
    (slip, e') triples, GFL converter states and GFM droop states.  One
    walk over the devices declares, device by device and side by side,
    its states (with mass and initial guess), its parameters, the states
    each of its residual rows reads (the sparsity pattern that
    :func:`~adnlab.engine.jacobian_fd` colours), its terms in the KCL rows
    of its buses and its lines of one straight-line residual kernel.

    The kernel source defines ``bind(env)``, which unpacks ``env`` into
    names and returns ``kernel(x, p)``.  The kernel reads the states and
    the parameter values (``p.values``) as Python floats into locals
    ``x0 ...`` and ``p0 ...``, runs one ``targets = expression`` line after
    another, with no branch, and returns the residual as a list.  Each
    device kernel is called once per device, by its name in this module,
    so a wrapper set on that name after build sees the call.  The KCL row
    of a free bus sums its device injections from ``0.0`` in device order
    and adds the shunt term last.  Device objects and float constants
    reach the kernel through ``env``, which it only reads, so the source
    holds no scenario text; a converter's limiter is its ``i_max``
    parameter and its sharpness, two floats passed to :func:`gfl_rates`.
    The source is written at build and compiled on the first evaluation,
    once per layout; an evaluation converts the residual to an array
    once.

    Each device with outputs (a machine, a load or a converter) records
    them once, as a value expression and its own kernel lines; a
    converter's outputs dict is ``None`` in ``env``, so its device call
    fills nothing in the kernel.  :meth:`outputs`,
    :meth:`converter_outputs` and the limiter activity all run one walk
    generated from that record (:meth:`_walk`).

    :meth:`linearize`, and so :func:`~adnlab.engine.jacobian_fd`, runs a
    difference kernel generated from the residual kernel's lines: the
    kernel lines once at the point, then for each perturbation of a
    colour group or of one parameter only the lines that read a perturbed
    name, directly or through an earlier such line.  The parameter is
    ``lambda`` unless another is named, so a continuation over ``lambda``
    compiles one kernel.
    """

    def __init__(self, model: NetworkModel, rotating_sources: bool = False):
        self.model = model
        self.omega0 = w0 = model.omega0

        names = []
        reads = []             # per residual row, the states it reads
        masses = []
        mass_param = []        # (state index, parameter index)
        guess = []
        pnames, pvals = ["lambda"], [1.0]
        labels, env = ["w0"], [w0]     # what the kernel binds
        body = []              # kernel lines
        kcl = {}               # free bus row -> its terms, in device order
        pins = {}              # bus row -> source row of a pinned bus
        outs = {}              # output key -> (value, its device's lines)

        def add_states(dev_id, *states):
            """Declare the states ``(name, mass, initial guess)`` of one
            device, labelled ``dev_id.name``; a mass given as a kernel
            local ``p{j}`` is that parameter.  Return the first state's
            index."""
            for name, mass, x0 in states:
                if isinstance(mass, str):
                    mass_param.append((len(names), int(mass[1:])))
                    mass = 0.0
                names.append(f"{dev_id}.{name}")
                reads.append(set())
                masses.append(mass)
                guess.append(x0)
            return len(names) - len(states)

        def add_param(name, value):
            """Declare a parameter; return its kernel local ``p{j}``."""
            pnames.append(name)
            pvals.append(float(value))
            return f"p{len(pnames) - 1}"

        def bind(obj):
            """Pass ``obj`` to the kernel in ``env``; return its name."""
            labels.append(f"k{len(labels)}")
            env.append(obj)
            return labels[-1]

        self.bus_ids = tuple(b.id for b in model.buses)
        self.vidx = {}
        pinned = set()
        for src in model.sources:
            if src.pinned:
                if src.bus in pinned:
                    raise ModelValidationError(
                        f"bus {src.bus!r} pinned by more than one source")
                pinned.add(src.bus)

        def inject(bus_id, d_reads, q_reads, d_term, q_term):
            """Add a device's injection to the KCL rows of its bus: the
            states each row reads and the kernel term; a pinned bus has
            source rows instead."""
            if bus_id not in pinned:
                vi = self.vidx[bus_id]
                reads[vi].update(d_reads)
                reads[vi + 1].update(q_reads)
                kcl.setdefault(vi, []).append(d_term)
                kcl.setdefault(vi + 1, []).append(q_term)

        for bus in model.buses:
            c = 0.0 if bus.id in pinned else bus.b_sh / w0
            self.vidx[bus.id] = add_states(
                bus.id, ("vd", c, bus.v_d), ("vq", c, bus.v_q))

        for br in model.branches:
            r = add_param(f"{br.id}.r", br.r)
            l = add_param(f"{br.id}.l", br.l)
            idx = add_states(br.id, ("id", l, 0.0), ("iq", l, 0.0))
            vf, vt = self.vidx[br.from_bus], self.vidx[br.to_bus]
            reads[idx].update((vf, vt, idx, idx + 1))
            reads[idx + 1].update((vf + 1, vt + 1, idx, idx + 1))
            i_d, i_q = f"x{idx}", f"x{idx + 1}"
            body += [f"f{idx} = x{vf} - x{vt} - {r} * {i_d} + w0 * {l} * {i_q}",
                     f"f{idx + 1} = x{vf + 1} - x{vt + 1} - {r} * {i_q} "
                     f"- w0 * {l} * {i_d}"]
            inject(br.from_bus, {idx}, {idx + 1}, f"- {i_d}", f"- {i_q}")
            inject(br.to_bus, {idx}, {idx + 1}, f"+ {i_d}", f"+ {i_q}")

        for k, src in enumerate(model.sources):
            vi = self.vidx[src.bus]
            e_mag = add_param(f"{src.id}.e_mag", src.e_mag)
            theta = add_param(f"{src.id}.theta", 0.0)
            if not src.pinned:
                r_g = add_param(f"{src.id}.r_g", src.r_g)
                l_g = add_param(f"{src.id}.l_g", src.l_g)
                i_idx = add_states(src.id, ("id", l_g, 0.0), ("iq", l_g, 0.0))
            emf = set()
            if rotating_sources and src.rotating:
                th_idx = add_states(src.id, ("theta_g", 1.0, 0.0))
                off = add_param(f"{src.id}.omega_offset", 0.0)
                emf = {th_idx}
                body += [f"e{k}_th = {theta} + x{th_idx}", f"f{th_idx} = {off}"]
                theta = f"e{k}_th"
            e_d, e_q = f"e{k}_d", f"e{k}_q"
            body += [f"{e_d} = {e_mag} * math.cos({theta})",
                     f"{e_q} = {e_mag} * math.sin({theta})"]
            if src.pinned:
                reads[vi].update(emf | {vi})
                reads[vi + 1].update(emf | {vi + 1})
                pins[vi] = f"{e_d} - x{vi}"
                pins[vi + 1] = f"{e_q} - x{vi + 1}"
                continue
            reads[i_idx].update(emf | {vi, i_idx, i_idx + 1})
            reads[i_idx + 1].update(emf | {vi + 1, i_idx, i_idx + 1})
            i_d, i_q = f"x{i_idx}", f"x{i_idx + 1}"
            body += [f"f{i_idx} = {e_d} - x{vi} - {r_g} * {i_d} "
                     f"+ w0 * {l_g} * {i_q}",
                     f"f{i_idx + 1} = {e_q} - x{vi + 1} - {r_g} * {i_q} "
                     f"- w0 * {l_g} * {i_d}"]
            inject(src.bus, {i_idx}, {i_idx + 1}, f"+ {i_d}", f"+ {i_q}")

        for ltc in model.ltcs:
            l_t = ltc.x_t / w0
            idx = add_states(ltc.id, ("id", l_t, 0.0), ("iq", l_t, 0.0),
                             ("n", ltc.t_ltc, ltc.n0))
            v_ref = add_param(f"{ltc.id}.v_ref", ltc.v_ref)
            vf, vt = self.vidx[ltc.from_bus], self.vidx[ltc.to_bus]
            reads[idx].update((vf, vt, idx + 1, idx + 2))
            reads[idx + 1].update((vf + 1, vt + 1, idx, idx + 2))
            reads[idx + 2].update((vt, vt + 1, idx + 2))
            i_d, i_q, n_tap = f"x{idx}", f"x{idx + 1}", f"x{idx + 2}"
            l_t = bind(l_t)
            body += [f"f{idx} = {n_tap} * x{vf} - x{vt} + w0 * {l_t} * {i_q}",
                     f"f{idx + 1} = {n_tap} * x{vf + 1} - x{vt + 1} "
                     f"- w0 * {l_t} * {i_d}",
                     f"f{idx + 2} = ltc_rate({bind(ltc)}, "
                     f"math.hypot(x{vt}, x{vt + 1}), {n_tap}, {v_ref})"]
            inject(ltc.from_bus, {idx, idx + 2}, {idx + 1, idx + 2},
                   f"- {n_tap} * {i_d}", f"- {n_tap} * {i_q}")
            inject(ltc.to_bus, {idx}, {idx + 1}, f"+ {i_d}", f"+ {i_q}")

        for k, m in enumerate(model.machines):
            vi = self.vidx[m.bus]
            t0p = (m.x_r + m.x_m) / (w0 * m.r_r)
            idx = add_states(m.id, ("s", 2.0 * m.h, m.s0), ("ed", t0p, 0.95),
                             ("eq", t0p, 0.0))
            t_mech = add_param(f"{m.id}.t_mech", m.t_mech)
            stator = {vi, vi + 1, idx + 1, idx + 2}   # the current reads these
            reads[idx].update(stator)
            reads[idx + 1].update(stator | {idx})
            reads[idx + 2].update(stator | {idx})
            i_d, i_q = f"m{k}_d", f"m{k}_q"
            body.append(f"f{idx}, f{idx + 1}, f{idx + 2}, {i_d}, {i_q} = "
                        f"im_rates({bind(m)}, x{vi}, x{vi + 1}, x{idx}, "
                        f"x{idx + 1}, x{idx + 2}, p0, {t_mech}, {bind(t0p)}, "
                        "w0)")
            inject(m.bus, stator, stator, f"- {i_d}", f"- {i_q}")
            outs[f"{m.id}.i"] = (f"({i_d}, {i_q})", body[-1:])

        for k, load in enumerate(model.zip_loads):
            vi = self.vidx[load.bus]
            i_d, i_q = f"z{k}_d", f"z{k}_q"
            body.append(f"{i_d}, {i_q} = zip_injection({bind(load)}, x{vi}, "
                        f"x{vi + 1}, p0)")
            inject(load.bus, {vi, vi + 1}, {vi, vi + 1}, f"- {i_d}", f"- {i_q}")
            outs[f"{load.id}.i"] = (f"({i_d}, {i_q})", body[-1:])

        GFL_PARAMS = ("p_ref", "q0", "kq", "v_ref", "kp_pll", "ki_pll",
                      "kp_cc", "ki_cc", "k_aw", "i_max")
        for k, conv in enumerate(model.gfls):
            vi = self.vidx[conv.bus]
            i_q = -(conv.q0 + conv.kq * (conv.v_ref - 1.0))
            idx = add_states(conv.id, ("theta", 1.0, 0.0), ("eps", 1.0, 0.0),
                             ("id", conv.l_f, conv.p_ref),
                             ("iq", conv.l_f, i_q),
                             ("xid", 1.0, conv.r_f * conv.p_ref),
                             ("xiq", 1.0, conv.r_f * i_q))
            *gains, i_max = (add_param(f"{conv.id}.{nm}", getattr(conv, nm))
                             for nm in GFL_PARAMS)
            gains = ", ".join(gains)
            out = bind(None)        # the outputs dict, a fresh one in a walk
            first = len(body)
            v_pll = {vi, vi + 1, idx}       # bus voltage in the PLL frame
            if conv.tau_meas > 0.0:
                vm = add_states(conv.id, ("vmd", conv.tau_meas, 1.0),
                                ("vmq", conv.tau_meas, 0.0))
                reads[vm].update(v_pll | {vm})
                reads[vm + 1].update(v_pll | {vm + 1})
                vm_d, vm_q = f"x{vm}", f"x{vm + 1}"
                vm_rows = f"f{vm}, f{vm + 1}"
                md, mq = {vm}, {vm + 1}     # the states vm_d, vm_q read
            else:
                vm_d, vm_q, vm_rows = f"g{k}_vd", f"g{k}_vq", "_, _"
                md = mq = v_pll
                body.append(f"{vm_d}, {vm_q} = pll_project(x{vi}, x{vi + 1}, "
                            f"x{idx})")
            corr, corr_reads = "0.0, 0.0", set()
            if conv.val_mode == "qval":
                g_v, b_v, v_nom = (add_param(f"{conv.id}.{nm}",
                                             getattr(conv.val, nm))
                                   for nm in ("g_v", "b_v", "v_nom"))
                corr, corr_reads = f"g{k}_cd, g{k}_cq", md | mq
                body.append(f"{corr} = qval_correction({g_v}, {b_v}, "
                            f"{v_nom} - {vm_d}, -{vm_q})")
            elif conv.val_mode == "dval":
                real = dval_realization(conv.val.g_v, conv.val.b_v, w0)
                dv = add_states(conv.id, ("ivd", real.l_mag, 0.0),
                                ("ivq", real.l_mag, 0.0))
                corr, corr_reads = f"x{dv}, x{dv + 1}", {dv, dv + 1}
                reads[dv].update(md | corr_reads)
                reads[dv + 1].update(mq | corr_reads)
            iref = md | mq | corr_reads     # the limited current reference
            reads[idx].update(v_pll | {idx + 1})
            reads[idx + 1].update(v_pll)
            reads[idx + 2].update(iref | {idx + 2, idx + 4})
            reads[idx + 3].update(iref | {idx + 3, idx + 5})
            reads[idx + 4].update(iref | {idx + 2})
            reads[idx + 5].update(iref | {idx + 3})
            states = ", ".join(f"x{idx + j}" for j in range(6))
            rows = ", ".join(f"f{idx + j}" for j in range(6))
            body.append(f"{rows}, {vm_rows}, g{k}_d, g{k}_q = gfl_rates(w0, "
                        f"{states}, x{vi}, x{vi + 1}, {vm_d}, {vm_q}, {corr}, "
                        f"{gains}, {i_max}, {bind(conv.limiter_k)}, "
                        f"{bind(conv.l_f)}, {bind(conv.r_f)}, {out})")
            outs[conv.id] = (out, [f"{out} = {{}}", *body[first:]])
            if conv.val_mode == "dval":
                body.append(f"f{dv}, f{dv + 1} = dval_rate({bind(real)}, "
                            f"x{dv}, x{dv + 1}, {bind(conv.val.v_nom)} - "
                            f"{vm_d}, -{vm_q}, w0)")
            inject(conv.bus, {idx, idx + 2, idx + 3}, {idx, idx + 2, idx + 3},
                   f"+ g{k}_d", f"+ g{k}_q")

        GFM_PARAMS = ("m_p", "n_q", "v_set", "p_set", "q_set")
        for k, gfm in enumerate(model.gfms):
            vi = self.vidx[gfm.bus]
            idx = add_states(gfm.id, ("theta", 1.0, 0.0),
                             ("pf", gfm.tau_p, 0.0), ("qf", gfm.tau_q, 0.0))
            gains = ", ".join(add_param(f"{gfm.id}.{nm}", getattr(gfm, nm))
                              for nm in GFM_PARAMS)
            inj = {vi, vi + 1, idx, idx + 2}    # the injection reads these
            reads[idx].add(idx + 1)
            reads[idx + 1].update(inj | {idx + 1})
            reads[idx + 2].update(inj)
            out = bind(None)
            consts = ", ".join(bind(getattr(gfm, name))
                               for name in ("r_v", "l_v", "tau_p", "tau_q"))
            body.append(f"f{idx}, f{idx + 1}, f{idx + 2}, h{k}_d, h{k}_q = "
                        f"gfm_rates(w0, x{idx}, x{idx + 1}, x{idx + 2}, "
                        f"x{vi}, x{vi + 1}, {gains}, {consts}, {out})")
            outs[gfm.id] = (out, [f"{out} = {{}}", body[-1]])
            inject(gfm.bus, inj, inj, f"+ h{k}_d", f"+ h{k}_q")

        for bus in model.buses:
            if bus.id not in pinned:     # shunt terms, last in each KCL row
                vi = self.vidx[bus.id]
                wc = bind(w0 * (bus.b_sh / w0))
                inject(bus.id, {vi + 1}, {vi}, f"+ {wc} * x{vi + 1}",
                       f"- {wc} * x{vi}")
        body += [f"f{row} = " + " ".join(["0.0", *terms])
                 for row, terms in kcl.items()]
        body += [f"f{row} = {expr}" for row, expr in pins.items()]
        n = len(names)
        unpack_env, unpack_x, unpack_p = self._unpack = (
            f"{', '.join(labels)}, = env",
            f"{', '.join(f'x{i}' for i in range(n))}, = x",
            f"{', '.join(f'p{i}' for i in range(len(pnames)))}, = p")
        self._source = _bind_source(unpack_env, "kernel", "x, p", [
            unpack_x, unpack_p, *body,
            f"return [{', '.join(f'f{i}' for i in range(n))}]"])
        self._body = tuple(body)
        self._env = tuple(env)
        self._kernel = None
        self._differences = {}
        self._outs = outs
        self._walks = {}
        self._converters = {c.id: c for c in (*model.gfls, *model.gfms)}
        self._mass_base = np.array(masses, dtype=float)
        self._mass_param = tuple(mass_param)
        self._guess = np.array(guess, dtype=float)
        params0 = Params(pnames, pvals)
        super().__init__(n, self._evaluate, self._mass_impl,
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

    def _bind(self, source: str):
        """The function that generated ``source`` returns from
        ``bind(env)``, bound to this system's ``env``."""
        scope = {}
        exec(_compile_kernel(source), globals(), scope)
        return scope["bind"](self._env)

    def _evaluate(self, x, p: Params):
        """Residual vector from the generated kernel, which is compiled on
        the first evaluation."""
        if self._kernel is None:
            self._kernel = self._bind(self._source)
        return np.fromiter(self._kernel(x.tolist(), p.values), float, self.n)

    def linearize(self, x, p: Params, param=None):
        """:meth:`DaeSystem.linearize` from one call of the difference
        kernel (:func:`_difference_source`) of ``param``, or of
        ``lambda`` (``p0``) when none is named, whose ``F_param`` is then
        dropped.  A kernel is generated on the first call for its
        parameter and compiled once per layout.  The kernel runs the
        lines of the residual calls that the base class makes, in their
        order, less those whose inputs are the base point's, so each
        value has their bits."""
        j = 0 if param is None else p.index(param)
        run = self._differences.get(j)
        if run is None:
            run = self._differences[j] = self._bind(_difference_source(
                self._body, self._unpack,
                *(tuple(index.tolist()) for index in self.colouring()), j))
        lam = p.values[j]
        h_p = 1e-6 * max(1.0, abs(lam))
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        n, k = self.n, self.colouring()[2].size
        values = np.fromiter(
            run(x.tolist(), (x + h).tolist(), (x - h).tolist(),
                (2.0 * h).tolist(), p.values,
                (lam + h_p, lam - h_p, 2.0 * h_p)),
            float, 2 * n + k)
        return values[:n], self._dense(values[n:n + k]), \
            None if param is None else values[n + k:]

    def _walk(self, states, p: Params, keys: tuple, get) -> list:
        """``get`` of the outputs ``keys`` at every row of ``states``, one
        argument per key.

        Only the kernel lines of the devices with those outputs run, the
        same device calls with the same arguments as in the residual
        kernel, so each value has their bits; a converter's outputs dict,
        ``None`` in the kernel, is a fresh dict here.  The walk over the
        rows is generated from those lines and compiled on first use, once
        per ``keys``.
        """
        walk = self._walks.get(keys)
        if walk is None:
            unpack_env, unpack_x, unpack_p = self._unpack
            values = ", ".join(self._outs[key][0] for key in keys)
            loop = [unpack_x, *(line for key in keys
                                for line in self._outs[key][1]),
                    f"rows.append(get({values}))"]
            walk = self._walks[keys] = self._bind(_bind_source(
                unpack_env, "walk", "xs, p, get",
                [unpack_p, "rows = []", "for x in xs:",
                 *(f"    {line}" for line in loop), "return rows"]))
        return walk(np.asarray(states, dtype=float).tolist(), p.values, get)

    def outputs(self, x, p: Params) -> dict:
        """Per-device auxiliary outputs (converter internals, machine and
        load currents), in device order."""
        keys = tuple(self._outs)
        return self._walk([x], p, keys,
                          lambda *values: dict(zip(keys, values)))[0]

    def converter_outputs(self, states, p: Params, conv_id: str,
                          keys) -> dict:
        """Outputs ``keys`` of converter ``conv_id`` at every row of
        ``states``, one array per key, with the bits :meth:`outputs`
        gives."""
        rows = self._walk(states, p, (conv_id,), itemgetter(*keys))
        table = np.array(rows, dtype=float).reshape(-1, len(keys)).T.copy()
        return dict(zip(keys, table))

    def _activity_impl(self, x, p: Params):
        ids = self.gfl_ids()
        return self._walk([x], p, ids, lambda *outs: {
            conv_id: out["activity"] for conv_id, out in zip(ids, outs)})[0]

    # ------------------------------------------------------------------
    # helpers

    def initial_guess(self) -> np.ndarray:
        return self._guess.copy()

    def bus_voltage(self, x, bus_id: str):
        vi = self.vidx[bus_id]
        return float(x[vi]), float(x[vi + 1])

    def bus_voltage_mag(self, x, bus_id: str) -> float:
        vd, vq = self.bus_voltage(x, bus_id)
        return math.hypot(vd, vq)

    def voltage_magnitudes(self, x) -> dict:
        return {b: self.bus_voltage_mag(x, b) for b in self.bus_ids}

    def gfl_ids(self):
        return tuple(conv.id for conv in self.model.gfls)

    def gfm_ids(self):
        return tuple(gfm.id for gfm in self.model.gfms)

    def converter(self, conv_id: str) -> GflConverter:
        return self._converters[conv_id]
