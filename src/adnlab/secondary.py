"""Recursive secondary voltage controller.

The controller periodically measures the solved operating point (bus
voltage magnitudes and converter current magnitudes), computes the
sensitivities of the voltage profile to the virtual admittance gains of
every converter from one Jacobian solve at that point, solves a small
box- and current-constrained weighted least-squares update, and
dispatches new gains.  Measurements are taken from equilibria: the
secondary layer is slow compared with the primary dynamics, so each
iteration sees a settled network.

Gains enter the model as named parameters, which requires the converters
to run the quasi-stationary VAL (the dynamic realization would change the
mass matrix with the gains; the two coincide at every equilibrium).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import Params, equilibrium_sensitivity, newton_equilibrium
from .errors import ConfigurationError, NonConvergenceError, SingularJacobianError

__all__ = [
    "MeasurementSnapshot",
    "WeightVector",
    "GainSensitivity",
    "SecondaryHistory",
    "collect_measurements",
    "gain_sensitivity",
    "solve_update",
    "run_recursive",
]

V_NOM = 1.0
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
    """Gain sensitivities at a solved operating point."""

    gain_names: tuple           # parameter names, (conv1.g_v, conv1.b_v, ...)
    bus_ids: tuple
    conv_ids: tuple
    voltage: np.ndarray         # d|v| / d(gain), buses x gains
    current: np.ndarray         # d|i_conv| / d(gain), converters x gains


@dataclass
class SecondaryHistory:
    iterations: list = field(default_factory=list)   # per-iteration dicts
    converged: bool = False
    stalled: str = ""
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
        {c: math.hypot(x[sys.state_index(f"{c}.id")],
                       x[sys.state_index(f"{c}.iq")]) for c in sys.gfl_ids()})


def gain_sensitivity(sys, x, p: Params) -> GainSensitivity:
    """Derivatives of |v| and |i_conv| over every VAL gain at the
    equilibrium ``x``: the chain rule on ``dx/dp`` from one Jacobian solve
    there (:func:`~adnlab.engine.equilibrium_sensitivity`, which raises on
    a singular or non-finite Jacobian)."""
    gain_names = _gain_names(sys)
    conv_ids = sys.gfl_ids()
    dx = equilibrium_sensitivity(sys, x, p, gain_names)
    v_d = np.array([sys.vidx[b] for b in sys.bus_ids])
    i_d = [sys.state_index(f"{c}.id") for c in conv_ids]
    i_q = [sys.state_index(f"{c}.iq") for c in conv_ids]
    return GainSensitivity(gain_names, sys.bus_ids, conv_ids,
                           _magnitude_derivative(x, dx, v_d, v_d + 1),
                           _magnitude_derivative(x, dx, i_d, i_q))


def _magnitude_derivative(x, dx, d, q):
    """Rows of ``d|(x_d, x_q)|``; ``|(dx_d, dx_q)|`` at a zero magnitude."""
    x_d, x_q = x[d, None], x[q, None]
    mag = np.hypot(x_d, x_q)
    return np.divide(x_d * dx[d] + x_q * dx[q], mag,
                     out=np.hypot(dx[d], dx[q]), where=mag > 0.0)


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
                 p: Params) -> np.ndarray:
    """One constrained weighted least-squares gain update.

    Minimizes ``sum_i w_i (|v_i| + (S dg)_i - V_NOM)^2 + rho ||dg||^2``
    subject to the per-converter gain boxes and the linearized converter
    current limits.  ``boxes`` maps a gain parameter name to (lo, hi) on
    the absolute gain; ``current_limits`` maps a converter id to its rated
    current.  Returns the optimizer step on the gains, before the trust
    factor.  Sensitivities that make a gain's column of the normal
    equations non-finite raise :class:`ConfigurationError` naming the
    first such gain.
    """
    names = sens.gain_names
    n = len(names)
    w = np.array([weights.weights.get(b, 0.0) for b in sens.bus_ids])
    r = np.array([snapshot.voltages[b] - V_NOM for b in sens.bus_ids])
    s_v = sens.voltage
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        h_mat = 2.0 * (s_v.T @ (w[:, None] * s_v))
        f_vec = 2.0 * (s_v.T @ (w * r))
    finite = np.isfinite(h_mat).all(axis=0) & np.isfinite(f_vec)
    if not finite.all():
        raise ConfigurationError(
            "non-finite sensitivity data for gain "
            f"{names[int(np.argmin(finite))]!r}")
    rho_eff = max(weights.rho, 1e-12 * max(1.0, float(np.trace(h_mat)) / n))
    h_mat[np.diag_indices(n)] += 2.0 * rho_eff
    if not np.all(np.isfinite(np.diag(h_mat))):
        raise ConfigurationError(f"regularization rho = {weights.rho!r} "
                                 "overflows the update's Hessian")

    rows, rhs, unit = [], [], np.eye(n)
    for j, name in enumerate(names):
        lo, hi = boxes[name]
        if lo > hi:
            raise ConfigurationError(f"infeasible box for {name}: [{lo}, {hi}]")
        rows += [unit[j], -unit[j]]
        rhs += [hi - p[name], p[name] - lo]
    for k, conv_id in enumerate(sens.conv_ids):
        if conv_id in current_limits:
            rows.append(sens.current[k])
            rhs.append(current_limits[conv_id]
                       - snapshot.converter_currents[conv_id])
    return _solve_qp(h_mat, f_vec, np.array(rows), np.array(rhs))


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
    or ``max_iter`` updates have been applied (the point the last one
    reached is measured and checked too).

    The accepted weighted objective never increases: a worse trial point
    halves the trust step (up to five times) and a lost equilibrium
    reverts the gains the same way; persistent failure, or a failed
    sensitivity solve, aborts with the history collected so far.  The
    first trial takes ``alpha`` in (0, 1] of the optimizer step, whose
    full length already reaches the boxes.
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
    for it in range(max_iter + 1):
        snap = collect_measurements(sys, x, it)
        obj = _objective(snap.voltages, weights)
        history.iterations.append(
            {"iteration": it, "snapshot": snap, "objective": obj,
             "gains": {c: (p[f"{c}.g_v"], p[f"{c}.b_v"])
                       for c in sys.gfl_ids()}})
        history.converged = \
            _max_weighted_deviation(snap.voltages, weights) <= tol_v
        if history.converged or it == max_iter:
            return history
        try:
            sens = gain_sensitivity(sys, x, p)
        except (NonConvergenceError, SingularJacobianError) as exc:
            history.aborted = f"sensitivity failed at iteration {it}: {exc}"
            return history
        delta = solve_update(snap, sens, weights, boxes, limits, p)
        if float(np.max(np.abs(delta))) <= DELTA_GAIN_TOL:
            history.stalled = f"update stalled at iteration {it}"
            return history
        a = alpha
        for _ in range(6):
            p_try = p.with_values({name: p[name] + a * delta[j]
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
