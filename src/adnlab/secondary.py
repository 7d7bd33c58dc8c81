"""Recursive secondary voltage controller.

The controller periodically measures the solved operating point (bus
voltage magnitudes and converter current magnitudes), computes
finite-difference sensitivities of the voltage profile to the virtual
admittance gains of every converter, solves a small box- and
current-constrained weighted least-squares update, and dispatches new
gains.  Measurements are taken from equilibria: the secondary layer is
slow compared with the primary dynamics, so each iteration sees a settled
network.

Gains enter the model as named parameters, which requires the converters
to run the quasi-stationary VAL (the dynamic realization would change the
mass matrix with the gains; the two coincide at every equilibrium).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import Params, newton_equilibrium
from .errors import ConfigurationError, NonConvergenceError, SingularJacobianError

__all__ = [
    "MeasurementSnapshot",
    "WeightVector",
    "GainSensitivity",
    "GainUpdate",
    "SecondaryHistory",
    "collect_measurements",
    "gain_sensitivity",
    "solve_update",
    "run_recursive",
]

V_NOM = 1.0
GAIN_STEP = 1e-4            # forward-difference step on each VAL gain
DELTA_GAIN_TOL = 1e-6
KKT_TOL = 1e-8


@dataclass(frozen=True)
class MeasurementSnapshot:
    """One round of gathered network measurements."""

    iteration: int
    voltages: dict              # bus id -> |v| (pu)
    converter_currents: dict    # converter id -> |i| (pu)


@dataclass(frozen=True)
class WeightVector:
    """Per-bus non-negative weights and Tikhonov regularization."""

    weights: dict
    rho: float = 0.0

    def __post_init__(self):
        if any(w < 0.0 for w in self.weights.values()):
            raise ConfigurationError("bus weights must be non-negative")
        if sum(self.weights.values()) <= 0.0:
            raise ConfigurationError("at least one bus weight must be positive")
        if self.rho < 0.0:
            raise ConfigurationError("regularization must be non-negative")


@dataclass(frozen=True)
class GainSensitivity:
    """Forward-difference sensitivities at a solved operating point."""

    gain_names: tuple           # parameter names, (conv1.g_v, conv1.b_v, ...)
    bus_ids: tuple
    conv_ids: tuple
    voltage: np.ndarray         # d|v| / d(gain), buses x gains
    current: np.ndarray         # d|i_conv| / d(gain), converters x gains
    usable: np.ndarray          # per-column validity mask


@dataclass(frozen=True)
class GainUpdate:
    delta: np.ndarray           # raw optimizer step (before the trust factor)
    no_op: bool = False


@dataclass
class SecondaryHistory:
    iterations: list = field(default_factory=list)   # per-iteration dicts
    converged: bool = False
    aborted: str = ""


def _gain_names(sys):
    names = []
    for conv_id in sys.gfl_ids():
        conv = sys.converter(conv_id)
        if conv.val_mode != "qval":
            raise ConfigurationError(
                f"secondary control needs the quasi-stationary VAL on every "
                f"converter; {conv_id!r} runs {conv.val_mode!r}")
        names += [f"{conv_id}.g_v", f"{conv_id}.b_v"]
    if not names:
        raise ConfigurationError("no converters with tunable VAL gains")
    return tuple(names)


def collect_measurements(sys, x, iteration: int) -> MeasurementSnapshot:
    """Extract |v| per bus and |i| per converter at the operating point."""
    return MeasurementSnapshot(
        iteration, sys.voltage_magnitudes(x),
        {c: _conv_current(sys, x, c) for c in sys.gfl_ids()})


def gain_sensitivity(sys, x, p: Params) -> GainSensitivity:
    """Forward differences of |v| and |i_conv| over every VAL gain.

    Each column re-solves the equilibrium with one perturbed gain, warm
    started from the base solution; a column whose perturbed equilibrium
    fails to converge is flagged unusable and simply excluded from the
    update.
    """
    gain_names = _gain_names(sys)
    bus_ids = sys.bus_ids
    conv_ids = sys.gfl_ids()
    base_v = np.array([sys.bus_voltage_mag(x, b) for b in bus_ids])
    base_i = np.array([_conv_current(sys, x, c) for c in conv_ids])
    s_v = np.zeros((len(bus_ids), len(gain_names)))
    s_i = np.zeros((len(conv_ids), len(gain_names)))
    usable = np.ones(len(gain_names), dtype=bool)
    for j, name in enumerate(gain_names):
        p_j = p.with_value(name, p[name] + GAIN_STEP)
        try:
            sol = newton_equilibrium(sys, x, p_j)
        except (NonConvergenceError, SingularJacobianError):
            usable[j] = False
            continue
        v_j = np.array([sys.bus_voltage_mag(sol.x, b) for b in bus_ids])
        i_j = np.array([_conv_current(sys, sol.x, c) for c in conv_ids])
        s_v[:, j] = (v_j - base_v) / GAIN_STEP
        s_i[:, j] = (i_j - base_i) / GAIN_STEP
    return GainSensitivity(gain_names, bus_ids, conv_ids, s_v, s_i, usable)


def _conv_current(sys, x, conv_id):
    return math.hypot(x[sys.state_index(f"{conv_id}.id")],
                      x[sys.state_index(f"{conv_id}.iq")])


def _solve_qp(h_mat, f_vec, a_mat, b_vec):
    """Dense primal active-set QP: min 1/2 d'Hd + f'd  s.t.  A d <= b.

    Starts from d = 0 (kept feasible by clamping b at zero) and terminates
    at an exact KKT point; problem sizes here are a handful of gains and a
    few dozen constraints.
    """
    n = len(f_vec)
    d = np.zeros(n)
    b_vec = np.maximum(b_vec, 0.0)
    working = []
    for _ in range(200):
        a_w = a_mat[working] if working else np.zeros((0, n))
        kkt = np.zeros((n + len(working), n + len(working)))
        kkt[:n, :n] = h_mat
        if working:
            kkt[:n, n:] = a_w.T
            kkt[n:, :n] = a_w
        rhs = np.concatenate([-(h_mat @ d + f_vec), np.zeros(len(working))])
        sol = np.linalg.solve(kkt, rhs)
        step = sol[:n]
        mult = sol[n:]
        if np.max(np.abs(step)) <= 1e-10 * max(1.0, float(np.max(np.abs(d)))):
            if not working or np.min(mult) >= -KKT_TOL:
                return d
            working.pop(int(np.argmin(mult)))
            continue
        # largest feasible step toward the blocking constraint
        alpha = 1.0
        blocking = -1
        for i in range(len(a_mat)):
            if i in working:
                continue
            denom = float(a_mat[i] @ step)
            if denom > 1e-14:
                # compare before dividing: slack / denom can overflow
                slack = b_vec[i] - float(a_mat[i] @ d)
                if slack < (alpha - 1e-15) * denom:
                    alpha = max(slack / denom, 0.0)
                    blocking = i
        d = d + alpha * step
        if blocking >= 0:
            working.append(blocking)
        elif alpha >= 1.0:
            continue
    raise NonConvergenceError("active-set QP did not terminate")


def solve_update(snapshot: MeasurementSnapshot, sens: GainSensitivity,
                 weights: WeightVector, boxes: dict, current_limits: dict,
                 p: Params) -> GainUpdate:
    """One constrained weighted least-squares gain update.

    Minimizes ``sum_i w_i (|v_i| + (S dg)_i - V_NOM)^2 + rho ||dg||^2``
    subject to the per-converter gain boxes and the linearized converter
    current limits.  ``boxes`` maps a gain parameter name to (lo, hi) on
    the absolute gain; ``current_limits`` maps a converter id to its rated
    current.
    """
    names = sens.gain_names
    n = len(names)
    w = np.array([weights.weights.get(b, 0.0) for b in sens.bus_ids])
    r = np.array([snapshot.voltages[b] - V_NOM for b in sens.bus_ids])
    s_v = sens.voltage.copy()
    s_v[:, ~sens.usable] = 0.0
    h_mat = 2.0 * (s_v.T @ (w[:, None] * s_v))
    f_vec = 2.0 * (s_v.T @ (w * r))
    if not np.all(np.isfinite(h_mat)) or not np.all(np.isfinite(f_vec)):
        raise ConfigurationError("non-finite sensitivity data")
    rho_eff = max(weights.rho, 1e-12 * max(1.0, float(np.trace(h_mat)) / n))
    h_mat[np.diag_indices(n)] += 2.0 * rho_eff
    if not np.all(np.isfinite(np.diag(h_mat))):
        raise ConfigurationError(f"regularization rho = {weights.rho!r} "
                                 "overflows the update's Hessian")

    rows, rhs = [], []
    for j, name in enumerate(names):
        lo, hi = boxes[name]
        if lo > hi:
            raise ConfigurationError(f"infeasible box for {name}: [{lo}, {hi}]")
        if not sens.usable[j]:
            lo = hi = p[name]    # freeze unusable columns
        up = np.zeros(n)
        up[j] = 1.0
        rows += [up, -up]
        rhs += [hi - p[name], p[name] - lo]
    for k, conv_id in enumerate(sens.conv_ids):
        if conv_id not in current_limits:
            continue
        margin = current_limits[conv_id] - snapshot.converter_currents[conv_id]
        rows.append(sens.current[k] * sens.usable)
        rhs.append(margin)
    a_mat = np.array(rows)
    b_vec = np.array(rhs)

    if not np.any(sens.usable):
        return GainUpdate(delta=np.zeros(n), no_op=True)

    return GainUpdate(delta=_solve_qp(h_mat, f_vec, a_mat, b_vec))


def _objective(voltages: dict, weights: WeightVector) -> float:
    return float(sum(weights.weights.get(b, 0.0) * (v - V_NOM) ** 2
                     for b, v in voltages.items()))


def _max_weighted_deviation(voltages: dict, weights: WeightVector) -> float:
    return float(max(weights.weights.get(b, 0.0) * abs(v - V_NOM)
                     for b, v in voltages.items()))


def run_recursive(sys, p: Params, weights: WeightVector,
                  max_iter: int = 30, tol_v: float = 0.01,
                  alpha: float = 1.0) -> SecondaryHistory:
    """Measure-update loop, started from the system's initial guess, until
    the weighted voltage deviation is inside the band, the update stalls,
    or the iteration budget runs out.

    The accepted weighted objective never increases: a worse trial point
    halves the trust step (up to five times) and a lost equilibrium
    reverts the gains the same way; persistent failure aborts with the
    history collected so far.  The first trial takes ``alpha`` in (0, 1]
    of the optimizer step, whose full length already reaches the boxes.
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(
            f"trust factor alpha = {alpha!r} is outside (0, 1]")
    gain_names = _gain_names(sys)
    boxes, limits = {}, {}
    for conv_id in sys.gfl_ids():
        conv = sys.converter(conv_id)
        boxes[f"{conv_id}.g_v"] = (conv.val.g_min, conv.val.g_max)
        boxes[f"{conv_id}.b_v"] = (conv.val.b_min, conv.val.b_max)
        limits[conv_id] = conv.i_max
    x = newton_equilibrium(sys, sys.initial_guess(), p).x
    history = SecondaryHistory()
    for it in range(max_iter):
        snap = collect_measurements(sys, x, it)
        obj = _objective(snap.voltages, weights)
        history.iterations.append(
            {"iteration": it, "snapshot": snap, "objective": obj,
             "gains": {c: (p[f"{c}.g_v"], p[f"{c}.b_v"])
                       for c in sys.gfl_ids()}})
        if _max_weighted_deviation(snap.voltages, weights) <= tol_v:
            history.converged = True
            return history
        sens = gain_sensitivity(sys, x, p)
        update = solve_update(snap, sens, weights, boxes, limits, p)
        if update.no_op or float(np.max(np.abs(update.delta))) <= DELTA_GAIN_TOL:
            return history
        a = alpha
        for _ in range(6):
            p_try = p.with_values({name: p[name] + a * update.delta[j]
                                   for j, name in enumerate(gain_names)})
            try:
                trial = newton_equilibrium(sys, x, p_try)
            except (NonConvergenceError, SingularJacobianError):
                a *= 0.5
                continue
            if _objective(sys.voltage_magnitudes(trial.x), weights) \
                    <= obj + 1e-14:
                p, x = p_try, trial.x
                break
            a *= 0.5
        else:
            history.aborted = (f"no acceptable step at iteration {it} "
                               f"(objective {obj:.3e})")
            return history
    return history
