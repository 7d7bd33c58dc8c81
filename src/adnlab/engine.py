"""Core numerics: system container, Newton solver, Jacobians, spectra and
implicit time integration.

Every model in the package reduces to ``M(p) * dx/dt = F(x, p)`` with a
diagonal, state-independent mass.  Rows with zero mass are algebraic
constraints, so the same machinery covers the pure-ODE default models and
DAE variants (pinned source buses, algebraic virtual-admittance branches).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IntegrationError,
    NonConvergenceError,
    SingularJacobianError,
)

__all__ = [
    "Params",
    "DaeSystem",
    "EquilibriumSolution",
    "SpectrumReport",
    "Trajectory",
    "newton_equilibrium",
    "jacobian_fd",
    "reduced_state_matrix",
    "eigenvalues",
    "spectrum_at",
    "integrate",
    "TOL_EQ",
]

TOL_EQ = 1e-9
NEWTON_MAX_ITER = 50
NEWTON_MIN_DAMPING = 2.0 ** -20
STEP_NEWTON_TOL = 1e-10


class Params:
    """Immutable named parameter vector.

    Parameter names are registered once at assembly time; values are read
    with ``p["name"]`` and varied with :meth:`with_value`, which returns a
    new instance so residual evaluation stays pure.
    """

    __slots__ = ("names", "values", "_index")

    def __init__(self, names, values):
        self.names = tuple(names)
        self.values = np.asarray(values, dtype=float).copy()
        self.values.flags.writeable = False
        if len(self.names) != self.values.size:
            raise ValueError("parameter names and values differ in length")
        self._index = {n: i for i, n in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise ValueError("duplicate parameter name")

    def __getitem__(self, name: str) -> float:
        return float(self.values[self._index[name]])

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown parameter {name!r}; known: {sorted(self._index)}")
        return self._index[name]

    def with_value(self, name: str, value: float) -> "Params":
        vals = self.values.copy()
        vals[self.index(name)] = value
        return Params(self.names, vals)

    def with_values(self, mapping) -> "Params":
        vals = self.values.copy()
        for name, value in mapping.items():
            vals[self.index(name)] = value
        return Params(self.names, vals)

    def __repr__(self):
        items = ", ".join(f"{n}={v:.6g}" for n, v in zip(self.names, self.values))
        return f"Params({items})"


class DaeSystem:
    """Residual system ``M(p) * dx/dt = F(x, p)`` with diagonal mass.

    ``residual_fn(x, p) -> ndarray`` must be deterministic and free of
    side effects.  ``mass_fn(p) -> ndarray`` returns the mass diagonal;
    entries equal to zero mark algebraic rows and the zero/positive
    pattern must not depend on ``p``.

    ``pattern`` declares, per residual row, the state indices the row
    reads; ``None`` means every row reads every state.  Rows must not read
    a state outside their declared set: :func:`jacobian_fd` relies on it.
    """

    def __init__(self, n, residual_fn, mass_fn, params0: Params,
                 state_names=None, limiter_activity_fn=None, pattern=None):
        self.n = int(n)
        self._residual_fn = residual_fn
        self._mass_fn = mass_fn
        self.params0 = params0
        self.state_names = tuple(state_names) if state_names is not None \
            else tuple(f"x{i}" for i in range(self.n))
        if len(self.state_names) != self.n:
            raise ValueError("state_names length does not match n")
        self._limiter_activity_fn = limiter_activity_fn
        if pattern is not None:
            pattern = tuple(pattern)
            if len(pattern) != self.n:
                raise ValueError("pattern length does not match n")
        self.pattern = pattern
        self._groups = None

    def residual(self, x, p: Params) -> np.ndarray:
        f = np.asarray(self._residual_fn(np.asarray(x, dtype=float), p), dtype=float)
        if f.shape != (self.n,):
            raise ValueError(f"residual shape {f.shape} != ({self.n},)")
        return f

    def mass(self, p: Params) -> np.ndarray:
        m = np.asarray(self._mass_fn(p), dtype=float)
        if m.shape != (self.n,):
            raise ValueError(f"mass shape {m.shape} != ({self.n},)")
        if np.any(m < 0.0):
            raise ValueError("mass entries must be zero or positive")
        return m

    def limiter_activity(self, x, p: Params) -> dict:
        """Per-limiter utilization ``k * |input| / limit`` (empty if none)."""
        if self._limiter_activity_fn is None:
            return {}
        return self._limiter_activity_fn(np.asarray(x, dtype=float), p)

    def state_index(self, name: str) -> int:
        try:
            return self.state_names.index(name)
        except ValueError:
            raise KeyError(f"unknown state {name!r}") from None

    def column_groups(self) -> tuple:
        """Structurally orthogonal column groups, computed on first use.

        Greedy largest-first colouring of the column intersection graph
        (Curtis, Powell and Reid 1974; Coleman and Moré 1983): no residual
        row reads two columns of one group.  Each item is ``(cols, rows,
        owner)``: the group's state indices, the rows that read one of
        them, and for each of those rows the group column it reads.  A
        system without a pattern has ``n`` singleton groups.
        """
        if self._groups is None:
            n = self.n
            pattern = self.pattern or (range(n),) * n
            readers = [[] for _ in range(n)]     # per column, its rows
            shared = [set() for _ in range(n)]   # columns read together
            for i, row in enumerate(pattern):
                for j in row:
                    if not 0 <= j < n:
                        raise ValueError(f"pattern row {i} reads state {j} "
                                         f"outside 0..{n - 1}")
                    readers[j].append(i)
                    shared[j].update(row)
            colour = [-1] * n
            for j in sorted(range(n), key=lambda j: -len(shared[j])):
                taken = {colour[k] for k in shared[j]}
                colour[j] = next(c for c in range(n) if c not in taken)
            groups = []
            for c in range(max(colour, default=-1) + 1):
                cols = [j for j in range(n) if colour[j] == c]
                owner = {i: j for j in cols for i in readers[j]}
                rows = sorted(owner)
                groups.append((np.array(cols, dtype=int),
                               np.array(rows, dtype=int),
                               np.array([owner[i] for i in rows], dtype=int)))
            self._groups = tuple(groups)
        return self._groups


@dataclass(frozen=True)
class EquilibriumSolution:
    x: np.ndarray
    params: Params
    residual_norm: float
    iterations: int


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of the reduced state matrix, sorted by descending real part."""

    eigenvalues: np.ndarray
    rightmost_real: float

    @property
    def n_unstable(self) -> int:
        return int(np.sum(self.eigenvalues.real > 0.0))


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step trajectory: ``states[i]`` is the state at ``times[i]``.

    ``memo`` holds results that post-processing derives from the
    trajectory and shares between its callers; it lives as long as the
    trajectory does.
    """

    times: np.ndarray
    states: np.ndarray
    state_names: tuple = field(default=())
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def column(self, name: str) -> np.ndarray:
        return self.states[:, self.state_names.index(name)]


def jacobian_fd(sys: DaeSystem, x, p: Params) -> np.ndarray:
    """Central-difference Jacobian of ``F`` with per-column step
    ``1e-6 * max(1, |x_j|)``.

    The columns of each :meth:`DaeSystem.column_groups` group are
    perturbed together, one ``+h``/``-h`` residual pair per group.  A row
    reads at most one column of a group, so each entry equals the one
    column-by-column differencing gives, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    jac = np.zeros((sys.n, sys.n))
    for cols, rows, owner in sys.column_groups():
        xp = x.copy()
        xm = x.copy()
        xp[cols] += h[cols]
        xm[cols] -= h[cols]
        fp = sys.residual(xp, p)
        fm = sys.residual(xm, p)
        entries = (fp[rows] - fm[rows]) / (2.0 * h[owner])
        if not np.all(np.isfinite(entries)):
            k = int(np.flatnonzero(~np.isfinite(entries))[0])
            bad = int(rows[k])
            raise NonConvergenceError(
                f"non-finite Jacobian entry in equation {sys.state_names[bad]!r} "
                f"w.r.t. state {sys.state_names[owner[k]]!r}",
                worst_index=bad, worst_name=sys.state_names[bad])
        jac[rows, owner] = entries
    return jac


def newton_equilibrium(sys: DaeSystem, x0, p: Params) -> EquilibriumSolution:
    """Damped Newton with backtracking halving on the residual inf-norm,
    to :data:`TOL_EQ` within ``NEWTON_MAX_ITER`` iterations."""
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("initial guess contains non-finite entries")
    f = sys.residual(x, p)
    norm = float(np.max(np.abs(f)))
    for it in range(NEWTON_MAX_ITER):
        if norm <= TOL_EQ:
            return EquilibriumSolution(x, p, norm, it)
        jac = jacobian_fd(sys, x, p)
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular Jacobian at Newton iteration {it} "
                f"(residual inf-norm {norm:.3e})") from exc
        damping = 1.0
        while True:
            x_trial = x + damping * dx
            f_trial = sys.residual(x_trial, p)
            norm_trial = float(np.max(np.abs(f_trial)))
            if np.isfinite(norm_trial) and norm_trial < norm:
                break
            damping *= 0.5
            if damping < NEWTON_MIN_DAMPING:
                worst = int(np.argmax(np.abs(f)))
                raise NonConvergenceError(
                    f"Newton stalled at iteration {it}: residual inf-norm "
                    f"{norm:.3e}, worst equation {sys.state_names[worst]!r}",
                    residual_norm=norm, worst_index=worst,
                    worst_name=sys.state_names[worst], iterations=it)
        x, f, norm = x_trial, f_trial, norm_trial
    if norm <= TOL_EQ:
        return EquilibriumSolution(x, p, norm, NEWTON_MAX_ITER)
    worst = int(np.argmax(np.abs(f)))
    raise NonConvergenceError(
        f"Newton did not converge in {NEWTON_MAX_ITER} iterations: residual "
        f"inf-norm {norm:.3e}, worst equation {sys.state_names[worst]!r}",
        residual_norm=norm, worst_index=worst,
        worst_name=sys.state_names[worst], iterations=NEWTON_MAX_ITER)


def reduced_state_matrix(sys: DaeSystem, x_star, p: Params) -> np.ndarray:
    """State matrix over the dynamic states at an equilibrium.

    The Jacobian is partitioned into dynamic rows/columns (mass > 0) and
    algebraic ones (mass = 0); the algebraic block is eliminated:
    ``A = M_d^{-1} (f_x - f_y g_y^{-1} g_x)``.  With an all-dynamic model
    this is exactly ``diag(1/m_i) J``.
    """
    return _state_matrix_and_condition(sys, x_star, p)[0]


def _state_matrix_and_condition(sys: DaeSystem, x_star, p: Params):
    """:func:`reduced_state_matrix` and the condition number of the
    algebraic block (1.0 when all-dynamic), from one Jacobian."""
    m = sys.mass(p)
    jac = jacobian_fd(sys, x_star, p)
    dyn = np.flatnonzero(m > 0.0)
    alg = np.flatnonzero(m == 0.0)
    f_x = jac[np.ix_(dyn, dyn)]
    cond = 1.0
    if alg.size:
        f_y = jac[np.ix_(dyn, alg)]
        g_x = jac[np.ix_(alg, dyn)]
        g_y = jac[np.ix_(alg, alg)]
        try:
            reduced = f_x - f_y @ np.linalg.solve(g_y, g_x)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                "algebraic block is singular (singularity-induced "
                "bifurcation candidate)") from exc
        cond = float(np.linalg.cond(g_y))
        if cond > 1e14:
            raise SingularJacobianError(
                f"algebraic block is numerically singular (cond={cond:.3e})")
    else:
        reduced = f_x
    return reduced / m[dyn][:, None], cond


def eigenvalues(matrix) -> SpectrumReport:
    """Full complex spectrum of a dense matrix, descending by real part."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite entries")
    try:
        eigs = np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError("eigenvalue iteration failed") from exc
    order = np.argsort(-eigs.real, kind="stable")
    eigs = eigs[order]
    return SpectrumReport(eigs, float(eigs[0].real) if eigs.size else -np.inf)


def spectrum_at(sys: DaeSystem, x_star, p: Params) -> SpectrumReport:
    """Spectrum of the reduced state matrix at an equilibrium."""
    return eigenvalues(reduced_state_matrix(sys, x_star, p))


def integrate(sys: DaeSystem, x0, p: Params, t_end: float, h: float,
              startup_be_steps: int = 0, damped_every: int = 0) -> Trajectory:
    """Fixed-step implicit trapezoidal integration from t = 0.

    It takes ``round(t_end / h)`` steps of size ``h``, so the last sample
    lies at ``t_end`` only when the ratio is whole; the scenario loader
    rejects a ratio that is not.

    Dynamic rows advance with the trapezoidal rule; algebraic rows are
    enforced at the step end point.  Each step is solved by Newton to an
    inf-norm of 1e-10 with a lazily refreshed Jacobian.

    The scheme is A-stable but not L-stable: network modes far above the
    step rate ring instead of decaying.  Two opt-in remedies for step
    studies keep the default contract intact: ``startup_be_steps`` grid
    steps right after a t=0 discontinuity, and (for transients that keep
    shaking the fast modes) every ``damped_every``-th grid step, are taken
    as two backward-Euler half steps each, which critically damps the
    unresolvable content while the remaining march stays energy
    preserving.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    x = np.asarray(x0, dtype=float).copy()
    n_steps = int(round(t_end / h))
    times = h * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1, sys.n))
    out[0] = x
    stepper = _Stepper(sys, p)
    f = sys.residual(x, p)
    for step in range(n_steps):
        t_next = float(times[step + 1])
        damp = step < startup_be_steps or (
            damped_every > 0 and step % damped_every == damped_every - 1)
        if damp:
            x, f = stepper.step(x, 0.5 * h, t_next)
            x, f = stepper.step(x, 0.5 * h, t_next)
        else:
            x, f = stepper.step(x, 0.5 * h, t_next, f)
        out[step + 1] = x
    return Trajectory(times, out, sys.state_names)


class _Stepper:
    """One-step theta-method solver with a lazily refreshed Jacobian."""

    def __init__(self, sys, p):
        self.sys = sys
        self.p = p
        self.m = sys.mass(p)
        self.dyn = self.m > 0.0
        self._jac_step = None
        self._jac_key = None
        self._steps_since_jac = 0

    def step(self, x, a, t_next, f_old=None):
        """Solve ``m (z - x) = a (F(z) + f_old)`` on dynamic rows and
        ``F(z) = 0`` on algebraic rows; return ``(z, F(z))``.

        With ``f_old = F(x)`` this is a trapezoidal step of size ``2a``;
        without it, a backward-Euler step of size ``a``.  ``F(z)`` is the
        residual of the converged Newton check, so the next trapezoidal
        step can take it as its ``f_old``.
        """
        key = (f_old is None, a)
        z = x.copy()
        for attempt in range(2):
            if (self._jac_step is None or self._steps_since_jac >= 50
                    or self._jac_key != key or attempt > 0):
                jac = jacobian_fd(self.sys, z, self.p)
                self._jac_step = -a * jac
                self._jac_step[self.dyn] += np.diag(self.m)[self.dyn]
                self._jac_step[~self.dyn] = jac[~self.dyn]
                self._jac_key = key
                self._steps_since_jac = 0
            for _ in range(25):
                f = self.sys.residual(z, self.p)
                rate = f if f_old is None else f + f_old
                res = np.where(self.dyn, self.m * (z - x) - a * rate, f)
                if float(np.max(np.abs(res))) <= STEP_NEWTON_TOL:
                    self._steps_since_jac += 1
                    return z, f
                try:
                    dz = np.linalg.solve(self._jac_step, -res)
                except np.linalg.LinAlgError as exc:
                    raise IntegrationError(
                        f"singular step Jacobian at t={t_next:.6g}s",
                        time=t_next) from exc
                z = z + dz
            z = x.copy()   # retry once with a fresh Jacobian
        raise IntegrationError(
            f"step Newton failed at t={t_next:.6g}s; try a smaller step "
            "size", time=t_next)
