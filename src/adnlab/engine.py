"""Core numerics: system container, Newton solver, Jacobians, spectra and
implicit time integration.

Every model in the package reduces to ``M(p) * dx/dt = F(x, p)`` with a
diagonal, state-independent mass.  Rows with zero mass are algebraic
constraints, so the same machinery covers the pure-ODE default models and
DAE variants (pinned source buses, algebraic virtual-admittance branches).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IntegrationError,
    ModelValidationError,
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
    "param_derivative",
    "equilibrium_sensitivity",
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
SLOW_STEP = 3


class Params:
    """Immutable named parameter vector.

    Parameter names are registered once at assembly time; values are read
    with ``p["name"]`` and varied with :meth:`with_value`, which returns a
    new instance so residual evaluation stays pure.  ``values`` is one
    tuple of Python floats, which residual kernels read as it is.
    """

    __slots__ = ("names", "values", "_index")

    def __init__(self, names, values, index=None):
        """``index``, the name index of a Params with these same names, is
        shared instead of rebuilt and checked again."""
        self.names = tuple(names)
        self.values = tuple(map(float, values))
        if len(self.names) != len(self.values):
            raise ValueError("parameter names and values differ in length")
        if index is None:
            index = {n: i for i, n in enumerate(self.names)}
            if len(index) != len(self.names):
                raise ValueError("duplicate parameter name")
        self._index = index

    def __getitem__(self, name: str) -> float:
        return self.values[self._index[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown parameter {name!r}; known: {sorted(self._index)}")
        return self._index[name]

    def with_value(self, name: str, value: float) -> "Params":
        return self.with_values({name: value})

    def with_values(self, mapping) -> "Params":
        vals = list(self.values)
        for name, value in mapping.items():
            vals[self.index(name)] = value
        return Params(self.names, vals, self._index)

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
        self._fd_index = None
        self._blocks = {}

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
            i = int(np.argmax(m < 0.0))
            raise ModelValidationError(
                f"state {self.state_names[i]!r} has negative mass {m[i]:.6g}")
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

    def _difference_index(self) -> tuple:
        """Flat index arrays over every :meth:`column_groups` group, in
        group order, computed on first use.

        Returns ``(colour, group, rows, owner)``: the group of each state,
        and for every Jacobian entry a difference gives, its group, its
        residual row and its state column.
        """
        if self._fd_index is None:
            groups = self.column_groups()
            colour = np.empty(self.n, dtype=int)
            for k, (cols, _, _) in enumerate(groups):
                colour[cols] = k
            self._fd_index = (
                colour,
                np.repeat(np.arange(len(groups)),
                          [rows.size for _, rows, _ in groups]),
                np.concatenate([rows for _, rows, _ in groups]),
                np.concatenate([owner for _, _, owner in groups]))
        return self._fd_index

    def linearize(self, x, p: Params, param=None):
        """``(F, J, F_param)`` at ``x`` and ``p``: the residual, the dense
        Jacobian of :func:`jacobian_fd` and, when ``param`` is named, its
        :func:`param_derivative` (else ``None``).

        After ``F``, the ``2g`` perturbed states of the ``g`` groups,
        ``x_j + h_j`` and ``x_j - h_j`` on each group's columns with
        ``h_j = 1e-6 * max(1, |x_j|)``, are built as one array and the
        residual is called once per state; each entry is
        ``(f+ - f-) / (2 h_j)``.  :meth:`_dense` checks the entries after
        every residual call.
        """
        x = np.asarray(x, dtype=float)
        f = self.residual(x, p)
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        colour, group, rows, owner = self._difference_index()
        g = len(self.column_groups())
        cols = np.arange(self.n)
        # rows 0..g-1 of the stack are the +h states, rows g..2g-1 the -h ones
        states = np.tile(x, (2 * g, 1))
        states[colour, cols] = x + h
        states[colour + g, cols] = x - h
        fs = np.array([self.residual(state, p) for state in states])
        # a non-finite difference is reported below, not warned about
        with np.errstate(invalid="ignore", over="ignore"):
            entries = (fs[group, rows] - fs[group + g, rows]) / (2.0 * h[owner])
        f_param = None if param is None else \
            param_derivative(self, x, p, param)
        return f, self._dense(entries), f_param

    def _dense(self, entries) -> np.ndarray:
        """The ``(n, n)`` Jacobian holding ``entries``, given in
        :meth:`_difference_index` order, and zero elsewhere.  A non-finite
        entry raises :class:`NonConvergenceError` naming the first."""
        _, _, rows, owner = self._difference_index()
        finite = np.isfinite(entries)
        if not finite.all():
            k = int(np.argmin(finite))
            bad = int(rows[k])
            raise NonConvergenceError(
                f"non-finite Jacobian entry in equation "
                f"{self.state_names[bad]!r} w.r.t. state "
                f"{self.state_names[owner[k]]!r}",
                worst_index=bad, worst_name=self.state_names[bad])
        jac = np.zeros((self.n, self.n))
        jac[rows, owner] = entries
        return jac

    def _state_blocks(self, m) -> tuple:
        """``(dyn, alg, dd, da, ad, aa)``: the states with positive and with
        zero mass ``m``, and the ``np.ix_`` meshes of the four Jacobian
        blocks between them, cached per sign pattern of ``m``."""
        key = np.sign(m).tobytes()
        blocks = self._blocks.get(key)
        if blocks is None:
            dyn, alg = np.flatnonzero(m > 0.0), np.flatnonzero(m == 0.0)
            blocks = self._blocks[key] = (
                dyn, alg, np.ix_(dyn, dyn), np.ix_(dyn, alg),
                np.ix_(alg, dyn), np.ix_(alg, alg))
        return blocks


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
    ``1e-6 * max(1, |x_j|)``: ``sys.linearize(x, p)[1]``.

    The columns of each :meth:`DaeSystem.column_groups` group are
    perturbed together, one ``+h``/``-h`` pair per group: ``2g`` residual
    calls beside ``F`` for a hand-written system, one call of the
    generated difference kernel for an assembled network.  A row reads at
    most one column of a group, so each entry equals the one
    column-by-column differencing gives, bit for bit.  A non-finite entry
    raises :class:`NonConvergenceError` naming the first one in group
    order.
    """
    return sys.linearize(np.asarray(x, dtype=float), p)[1]


def param_derivative(sys: DaeSystem, x, p: Params, name: str) -> np.ndarray:
    """Central difference of ``F`` over the parameter ``name``, with step
    ``1e-6 * max(1, |p|)``."""
    lam = p[name]
    h = 1e-6 * max(1.0, abs(lam))
    fp = sys.residual(x, p.with_value(name, lam + h))
    fm = sys.residual(x, p.with_value(name, lam - h))
    return (fp - fm) / (2.0 * h)


def equilibrium_sensitivity(sys: DaeSystem, x, p: Params, names) -> np.ndarray:
    """The ``(n, k)`` matrix ``dx/dp = -J^{-1} F_p`` of the equilibrium
    ``x`` over the parameters ``names`` (implicit-function theorem; Greene,
    Dobson and Alvarado, *IEEE TPWRS* 12(1), 1997).  A singular Jacobian
    raises :class:`SingularJacobianError`."""
    jac = jacobian_fd(sys, x, p)
    f_p = np.column_stack([param_derivative(sys, x, p, k) for k in names])
    try:
        return np.linalg.solve(jac, -f_p)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobianError(
            "singular Jacobian at the equilibrium") from exc


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
            if np.all(np.isfinite(x_trial)):   # an overflowed trial fails
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


def reduced_state_matrix(sys: DaeSystem, x_star, p: Params,
                         jac=None) -> np.ndarray:
    """State matrix over the dynamic states at an equilibrium.

    The Jacobian is partitioned into dynamic rows/columns (mass > 0) and
    algebraic ones (mass = 0); the algebraic block is eliminated:
    ``A = M_d^{-1} (f_x - f_y g_y^{-1} g_x)``.  With an all-dynamic model
    this is exactly ``diag(1/m_i) J``.  ``jac`` is the Jacobian at
    ``(x_star, p)`` when the caller has it; without it one is built with
    :func:`jacobian_fd`.  An exactly singular algebraic block raises
    :class:`SingularJacobianError`, and a non-finite row of the result
    raises :class:`NonConvergenceError` naming its state.
    """
    m = sys.mass(p)
    if jac is None:
        jac = jacobian_fd(sys, x_star, p)
    dyn, alg, dd, da, ad, aa = sys._state_blocks(m)
    f_x = jac[dd]
    if alg.size:
        f_y = jac[da]
        g_x = jac[ad]
        g_y = jac[aa]
        try:
            reduced = f_x - f_y @ np.linalg.solve(g_y, g_x)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                "algebraic block is singular (singularity-induced "
                "bifurcation candidate)") from exc
    else:
        reduced = f_x
    with np.errstate(all="ignore"):     # a denormal mass is reported below
        reduced = reduced / m[dyn][:, None]
    bad = np.flatnonzero(~np.all(np.isfinite(reduced), axis=1))
    if bad.size:
        row = int(dyn[bad[0]])
        raise NonConvergenceError(
            f"non-finite state matrix row {sys.state_names[row]!r} "
            f"(mass {m[row]:.3g})", worst_index=row,
            worst_name=sys.state_names[row])
    return reduced


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


def integrate(sys: DaeSystem, x0, p: Params, t_end: float,
              h: float) -> Trajectory:
    """Fixed-step BDF2 integration from t = 0.

    It takes ``round(t_end / h)`` steps of size ``h``, so the last sample
    lies at ``t_end`` only when the ratio is whole; the scenario loader
    rejects a ratio that is not.

    The first step is backward Euler, ``M (x_1 - x_0) = h F(x_1)``; every
    later step solves ``M (x_+ - (4 x_n - x_(n-1)) / 3) = (2h/3) F(x_+)``.
    Both formulas are L-stable, so modes far above the step rate decay
    instead of ringing; BDF2 is second order (Brenan, Campbell and
    Petzold, *Numerical Solution of Initial-Value Problems in
    Differential-Algebraic Equations*, SIAM 1996).

    Each step solves ``c (z - base) = F(z)`` with ``c = m / a``, where
    ``a`` is the step coefficient (``h``, then ``2h/3``) and ``c = 0``
    marks an algebraic row, by simplified Newton (Hairer and Wanner,
    *Solving Ordinary Differential Equations II*, IV.8) on the inverse of
    ``diag(c) - J``.  The start iterate is ``x_0`` on the backward-Euler
    step, ``2 x_1 - x_0`` on the first BDF2 step and the quadratic through
    the last three states, ``3 x_n - 3 x_(n-1) + x_(n-2)``, on every
    later one: DASSL's predictor has order k + 1 (Brenan, Campbell and
    Petzold, ch. 5).  A start iterate whose residual
    ``c (z - base) - F(z)``, ``F`` in its own units, is within
    :data:`TOL_EQ` on every row is the step's result, so a run from an
    equilibrium solved to that tolerance stays put.  Otherwise each
    correction is applied, and the step ends with no further residual
    once the correction's inf-norm in mass units (``m`` on dynamic rows,
    1 on algebraic ones) is at most :data:`STEP_NEWTON_TOL`, or, from the
    second correction on, once DASSL's error estimate
    ``rate / (1 - rate)`` times that norm is, ``rate`` being its ratio to
    the previous correction's norm.  A rate of 0.9 or more ends the
    attempt.  The inverse is rebuilt at a step's start iterate only when
    ``a`` changes or the previous step needed :data:`SLOW_STEP` or more
    corrections.  A step that fails within 25 corrections or meets a
    non-finite residual or correction is retried once from the accepted
    state, with a matrix rebuilt there.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    n_steps = int(round(t_end / h))
    times = h * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1, sys.n))
    out[0] = x0
    m = sys.mass(p)
    w = np.where(m > 0.0, m, 1.0)       # the corrections' weights
    # base and start iterate of the first BDF2 step from x_0, x_1, and of
    # every later one from x_(n-2), x_(n-1), x_n
    from_two = np.array([[-1.0 / 3.0, 4.0 / 3.0], [-1.0, 2.0]])
    from_three = np.array([[0.0, -1.0 / 3.0, 4.0 / 3.0], [1.0, -3.0, 3.0]])
    inf_norm = np.maximum.reduce        # skips ndarray.max's Python wrapper
    inv_a, slow = None, False
    base, z, a = out[0], out[0], h
    for step in range(n_steps):
        for attempt in range(2):
            if a != inv_a or slow or attempt:
                c = m / a
                try:
                    inv = np.linalg.inv(np.diag(c) - jacobian_fd(sys, z, p))
                except np.linalg.LinAlgError as exc:
                    raise IntegrationError(
                        f"singular step Jacobian at t={times[step + 1]:.6g}s",
                        time=float(times[step + 1])) from exc
                inv_a = a
            done = False
            for corrections in range(1, 26):
                res = c * (z - base) - sys.residual(z, p)
                err = inf_norm(abs(res))
                if corrections == 1 and err <= TOL_EQ:
                    done, corrections = True, 0     # the start solves it
                    break
                if not math.isfinite(err):
                    break
                dz = inv @ res
                z = z - dz
                delta = inf_norm(abs(w * dz))
                if not math.isfinite(delta):
                    break
                if delta <= STEP_NEWTON_TOL:
                    done = True
                elif corrections > 1:
                    rate = delta / last
                    if rate >= 0.9:
                        break
                    done = rate / (1.0 - rate) * delta <= STEP_NEWTON_TOL
                if done:
                    break
                last = delta
            if done:
                break
            z = out[step]   # retry once from the accepted state
        else:
            raise IntegrationError(
                f"step Newton failed at t={times[step + 1]:.6g}s; try a "
                "smaller step size", time=float(times[step + 1]))
        slow = corrections >= SLOW_STEP
        out[step + 1] = z
        start = (from_three @ out[step - 1:step + 2] if step
                 else from_two @ out[:2])
        base, z, a = start[0], start[1], 2.0 * h / 3.0
    return Trajectory(times, out, sys.state_names)
