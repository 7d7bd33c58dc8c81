"""Pseudo-arclength continuation of equilibria and bifurcation analysis.

A branch is traced over one named parameter with a secant/tangent
predictor and a Newton corrector on the augmented system
``[F(x, lam) = 0; t . (X - X_pred) = 0]``, which traverses folds where a
parameter-parameterized Newton would fail.  Each accepted point carries
the spectrum of the reduced state matrix, smooth-limiter activities and
scalar test functions; sign changes of the test functions between
consecutive points are classified as saddle-node (fold), Hopf or
limit-induced events and refined by bisection along the branch.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (
    DaeSystem,
    EquilibriumSolution,
    Params,
    SpectrumReport,
    TOL_EQ,
    jacobian_fd,
    newton_equilibrium,
    eigenvalues,
    param_derivative,
    reduced_state_matrix,
)
from .errors import (ConfigurationError, NonConvergenceError,
                     SingularJacobianError)

__all__ = [
    "ContinuationSettings",
    "BranchPoint",
    "Branch",
    "BifurcationRecord",
    "Boundary2D",
    "BoundaryRow",
    "continue_branch",
    "locate_bifurcation",
    "locate_all",
    "trace_boundary_2d",
]

OMEGA_MIN = 1e-3        # rad/s: minimum |Im| for a pair to count as Hopf
HB_NOISE_REL = 1e-6     # ignore real-part crossings inside the FD noise band
CORRECTOR_MAX_ITER = 12     # per branch point; a failure halves the step
LOCATE_MAX_ITER = 100       # bisection probes per record
LOCATE_LAM_TOL = 1e-6       # relative parameter gap that ends a bisection


@dataclass(frozen=True)
class ContinuationSettings:
    h0: float = 0.02
    h_min: float = 1e-5
    h_max: float = 0.05
    max_steps: int = 2000
    param_min: float = 0.0
    param_max: float = 1e6
    direction: float = 1.0


@dataclass(frozen=True)
class BranchPoint:
    """One converged continuation point with its stability fingerprint."""

    x: np.ndarray
    lam: float
    s: float
    spectrum: SpectrumReport
    activities: dict
    det_sign: float
    hb_metric: float
    hb_im: float

    @property
    def n_unstable(self) -> int:
        return self.spectrum.n_unstable


@dataclass
class Branch:
    param: str
    points: list = field(default_factory=list)
    truncated: bool = False
    message: str = ""

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]


@dataclass(frozen=True)
class BifurcationRecord:
    kind: str                     # SNB | HB | LIB; SIB is not detected
    lam: float
    x: np.ndarray
    s: float
    eig: complex | None
    tol_achieved: float
    n_unstable_before: int
    n_unstable_after: int
    limiter: str | None = None


@dataclass(frozen=True)
class BoundaryRow:
    param2: float
    kind: str                     # bifurcation kind, "none" or "error"
    lam: float                    # nan when kind is none/error
    message: str = ""


@dataclass(frozen=True)
class Boundary2D:
    param1: str
    param2: str
    rows: tuple


def _point_fingerprint(sys: DaeSystem, x, p: Params, lam: float,
                       s: float, jac) -> BranchPoint:
    """The branch point at ``(x, p)``, from its Jacobian ``jac``."""
    reduced = reduced_state_matrix(sys, x, p, jac)
    spec = eigenvalues(reduced)
    sign, _ = np.linalg.slogdet(reduced)
    eigs = spec.eigenvalues
    cplx = eigs[np.abs(eigs.imag) > OMEGA_MIN]
    if cplx.size:
        k = int(np.argmax(cplx.real))
        hb_metric = float(cplx.real[k])
        hb_im = float(abs(cplx.imag[k]))
    else:
        hb_metric, hb_im = -np.inf, 0.0
    return BranchPoint(
        x=np.asarray(x, dtype=float).copy(), lam=lam, s=s, spectrum=spec,
        activities=sys.limiter_activity(x, p), det_sign=float(sign),
        hb_metric=hb_metric, hb_im=hb_im)


def _corrector(sys: DaeSystem, param: str, p: Params, x_pred, lam_pred,
               tangent, x_ref, lam_ref, ds, max_iter):
    """Newton on the augmented system with the pseudo-arclength constraint
    ``tangent . (X - X_ref) = ds``, to :data:`TOL_EQ`.

    Each iteration makes one :meth:`~adnlab.engine.DaeSystem.linearize`
    call for ``F``, the Jacobian and ``F_param``.  Returns the converged
    ``x`` and parameter value, the iterations taken and the Jacobian at
    that point.
    """
    n = sys.n
    x = np.asarray(x_pred, dtype=float).copy()
    lam = float(lam_pred)
    for it in range(max_iter):
        f, jac, flam = sys.linearize(x, p.with_value(param, lam), param)
        g = float(tangent[:n] @ (x - x_ref) + tangent[n] * (lam - lam_ref) - ds)
        norm = max(float(np.max(np.abs(f))), abs(g))
        if norm <= TOL_EQ:
            return x, lam, it, jac
        aug = np.empty((n + 1, n + 1))
        aug[:n, :n] = jac
        aug[:n, n] = flam
        aug[n, :] = tangent
        rhs = np.concatenate([-f, [-g]])
        try:
            delta = np.linalg.solve(aug, rhs)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError("singular augmented Jacobian") from exc
        x = x + delta[:n]
        lam = lam + delta[n]
    raise NonConvergenceError(
        f"corrector did not converge in {max_iter} iterations")


def _initial_tangent(jac, f_param, direction):
    """The unit tangent ``(dx/dlam, 1)`` of the branch, from the start's
    Jacobian ``jac`` and ``F_param``, pointing along ``direction``."""
    try:
        dx = np.linalg.solve(jac, -f_param)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobianError(
            "Jacobian singular at the branch start (starting at a fold?)"
        ) from exc
    t = np.concatenate([dx, [1.0]])
    t /= np.linalg.norm(t)
    if direction < 0:
        t = -t
    return t


def continue_branch(sys: DaeSystem, start: EquilibriumSolution, param: str,
                    settings: ContinuationSettings) -> Branch:
    """Trace an equilibrium branch over ``param`` from a converged start.

    Raises :class:`ConfigurationError` when the start lies outside
    ``[settings.param_min, settings.param_max]``.
    """
    for branch in _trace(sys, start, param, settings):
        pass
    return branch


def _trace(sys: DaeSystem, start: EquilibriumSolution, param: str,
           settings: ContinuationSettings):
    """The loop of :func:`continue_branch`: yields the branch, one object
    that grows in place, after the start and after each accepted point."""
    p = start.params
    lam = p[param]
    _check_start(param, lam, settings)
    branch = Branch(param=param)
    sol = newton_equilibrium(sys, start.x, p)
    jac = jacobian_fd(sys, sol.x, p)
    branch.points.append(_point_fingerprint(sys, sol.x, p, lam, 0.0, jac))
    yield branch
    tangent = _initial_tangent(jac, param_derivative(sys, sol.x, p, param),
                               settings.direction)

    h = settings.h0
    s = 0.0
    easy_streak = 0
    n = sys.n
    x, cur_lam = sol.x, lam
    while len(branch.points) < settings.max_steps:
        x_pred = x + h * tangent[:n]
        lam_pred = cur_lam + h * tangent[n]
        try:
            x_new, lam_new, iters, jac = _corrector(
                sys, param, p, x_pred, lam_pred, tangent, x, cur_lam, h,
                CORRECTOR_MAX_ITER)
        except (NonConvergenceError, SingularJacobianError) as exc:
            if h <= settings.h_min * (1.0 + 1e-12):
                branch.truncated = True
                branch.message = (f"corrector failed at minimal step "
                                  f"(s={s:.4g}, lam={cur_lam:.6g}): {exc}")
                break
            h = max(h * 0.5, settings.h_min)
            easy_streak = 0
            continue
        if not settings.param_min <= lam_new <= settings.param_max:
            break
        ds_vec = np.concatenate([x_new - x, [lam_new - cur_lam]])
        s_new = s + float(np.linalg.norm(ds_vec))
        pk = p.with_value(param, lam_new)
        branch.points.append(_point_fingerprint(
            sys, x_new, pk, lam_new, s_new, jac))
        yield branch
        tangent = ds_vec / np.linalg.norm(ds_vec)
        x, cur_lam, s = x_new, lam_new, s_new
        if iters <= 3:
            easy_streak += 1
            if easy_streak >= 3:
                h = min(h * 1.3, settings.h_max)
                easy_streak = 0
        else:
            easy_streak = 0


def _check_start(param: str, start: float, settings: ContinuationSettings):
    if not settings.param_min <= start <= settings.param_max:
        raise ConfigurationError(
            f"continuation of {param!r} starts at {start!r}, outside "
            f"[param_min, param_max] = [{settings.param_min!r}, "
            f"{settings.param_max!r}]")


def _test_value(point: BranchPoint, kind: str,
                limiter: str | None = None) -> float:
    if kind == "SNB":
        return point.det_sign
    if kind == "HB":
        return point.hb_metric
    if kind == "LIB":
        return point.activities[limiter] - 1.0
    raise ValueError(f"unknown bifurcation kind {kind!r}")


def _flips(lo: BranchPoint, hi: BranchPoint, kind: str,
           limiter: str | None = None) -> bool:
    return _test_value(lo, kind, limiter) * _test_value(hi, kind, limiter) < 0.0


def _classify(branch: Branch) -> list:
    """The coarse records of a branch (segment midpoints), each with its
    bracket: the pair of points its test function changes sign between."""
    pts = branch.points
    found = []
    for i in range(1, len(pts)):
        for kind, lo, hi, limiter, bracket in _segment(pts, i):
            found.append((BifurcationRecord(
                kind=kind, lam=0.5 * (lo.lam + hi.lam),
                x=0.5 * (lo.x + hi.x), s=0.5 * (lo.s + hi.s),
                eig=_crossing_eigenvalue(kind, lo, hi),
                tol_achieved=abs(hi.lam - lo.lam),
                n_unstable_before=lo.n_unstable,
                n_unstable_after=hi.n_unstable, limiter=limiter), bracket))
    return found


def _segment(pts, i: int) -> list:
    """The events of the segment from ``pts[i - 1]`` to ``pts[i]``, each
    ``(kind, lo, hi, limiter, bracket)``.  A fold also reads the look-ahead
    point ``pts[i + 1]``; without it no fold is reported."""
    a, b = pts[i - 1], pts[i]
    seg = []
    # fold: lam direction reverses at an interior point
    if i + 1 < len(pts):
        c = pts[i + 1]
        if (b.lam - a.lam) * (c.lam - b.lam) < 0.0 and _flips(a, c, "SNB"):
            bracket = (a, b) if _flips(a, b, "SNB") else \
                (b, c) if _flips(b, c, "SNB") else (a, c)
            seg.append(("SNB", a, c, None, bracket))
    ha, hb = _test_value(a, "HB"), _test_value(b, "HB")
    if np.isfinite(ha) and np.isfinite(hb) and ha * hb < 0.0:
        floor = HB_NOISE_REL * max(1.0, 0.5 * (a.hb_im + b.hb_im))
        if max(abs(ha), abs(hb)) > floor:
            seg.append(("HB", a, b, None, (a, b)))
    for name in a.activities:
        if _flips(a, b, "LIB", name) and a.n_unstable != b.n_unstable \
                and not seg:
            seg.append(("LIB", a, b, name, (a, b)))
    return seg


def _crossing_eigenvalue(kind: str, lo: BranchPoint, hi: BranchPoint):
    eigs = hi.spectrum.eigenvalues
    if kind == "SNB":
        real = eigs[np.abs(eigs.imag) <= OMEGA_MIN]
        if real.size:
            return complex(real[np.argmin(np.abs(real.real))])
        return None
    if kind == "HB":
        cplx = eigs[np.abs(eigs.imag) > OMEGA_MIN]
        if cplx.size:
            return complex(cplx[np.argmin(np.abs(cplx.real))])
        return None
    return None


def locate_bifurcation(sys: DaeSystem, param: str, p: Params,
                       pt_a: BranchPoint, pt_b: BranchPoint, kind: str,
                       limiter: str | None = None) -> BifurcationRecord:
    """Bisection along the branch between two bracketing points.

    Each probe re-solves the equilibrium on the secant hyperplane and
    re-evaluates the kind-specific test function; the bracket shrinks
    until the parameter gap is within :data:`LOCATE_LAM_TOL` of
    ``max(1, |lam|)`` and the arclength gap is negligible (folds are
    quadratic in arclength, so the parameter gap alone can be deceptively
    small on a symmetric bracket).
    """
    n = sys.n
    xa, la = pt_a.x.copy(), pt_a.lam
    xb, lb = pt_b.x.copy(), pt_b.lam
    fa = _test_value(pt_a, kind, limiter)
    fb = _test_value(pt_b, kind, limiter)
    if not (np.isfinite(fa) and np.isfinite(fb)) or fa * fb > 0.0:
        raise ValueError(
            f"test function for {kind} does not change sign across the "
            f"bracket ({fa:.3g} .. {fb:.3g})")
    na, nb = pt_a.n_unstable, pt_b.n_unstable
    s_width0 = max(float(np.linalg.norm(np.concatenate(
        [xb - xa, [lb - la]]))), 1e-12)
    pt_mid = None
    for _ in range(LOCATE_MAX_ITER):
        secant = np.concatenate([xb - xa, [lb - la]])
        s_width = float(np.linalg.norm(secant))
        if s_width < 1e-14:
            break
        tangent = secant / s_width
        x_pred = 0.5 * (xa + xb)
        lam_pred = 0.5 * (la + lb)
        x_mid, lam_mid, _, jac = _corrector(
            sys, param, p, x_pred, lam_pred, tangent, xa, la,
            0.5 * s_width, 30)
        p_mid = p.with_value(param, lam_mid)
        pt_mid = _point_fingerprint(sys, x_mid, p_mid, lam_mid, 0.0, jac)
        f_mid = _test_value(pt_mid, kind, limiter)
        if fa * f_mid <= 0.0:
            xb, lb, fb = x_mid, lam_mid, f_mid
        else:
            xa, la, fa = x_mid, lam_mid, f_mid
        lam_gap = abs(lb - la)
        if lam_gap <= LOCATE_LAM_TOL * max(1.0, abs(lam_mid)) \
                and s_width <= max(1e-10, 1e-8 * s_width0):
            break
    lam_star = 0.5 * (la + lb)
    x_star = 0.5 * (xa + xb)
    eig = _crossing_eigenvalue(kind, pt_a, pt_mid if pt_mid is not None
                               else pt_b)
    return BifurcationRecord(
        kind=kind, lam=lam_star, x=x_star, s=0.0, eig=eig,
        tol_achieved=abs(lb - la), n_unstable_before=na,
        n_unstable_after=nb, limiter=limiter)


def locate_all(sys: DaeSystem, branch: Branch, p: Params) -> list:
    """Classify a branch and refine every record by bisection of the
    bracket it was found in."""
    return [_refine(sys, branch.param, p, rec, bracket)
            for rec, bracket in _classify(branch)]


def _refine(sys: DaeSystem, param: str, p: Params, rec: BifurcationRecord,
            bracket) -> BifurcationRecord:
    """``rec`` bisected in ``bracket``, keeping its coarse ``s``; or ``rec``
    itself when the bisection fails."""
    lo, hi = bracket
    try:
        located = locate_bifurcation(sys, param, p, lo, hi, rec.kind,
                                     rec.limiter)
        return replace(located, s=rec.s)
    except (NonConvergenceError, SingularJacobianError, ValueError):
        return rec   # keep the coarse record


def trace_boundary_2d(sys: DaeSystem, param1: str, param2: str, grid,
                      settings: ContinuationSettings,
                      params: Params) -> Boundary2D:
    """First-bifurcation boundary over a grid of a second parameter.

    Each row re-solves the equilibrium at ``params`` with ``param2`` set
    to the grid value, from the system's initial guess, traces the branch
    over ``param1`` up to its first limit (:func:`_until_first_limit`)
    and records the first refined bifurcation (or an explicit marker).
    Row failures are recorded in-row and the sweep proceeds.  A ``param2``
    equal to ``param1``, or a start of ``param1`` outside the settings'
    range, raises :class:`ConfigurationError` before any row.
    """
    if param2 == param1:
        raise ConfigurationError(f"boundary2d sweeps {param2!r} against "
                                 "itself; the sweep and continuation "
                                 "parameters must differ")
    grid = np.asarray(grid, dtype=float)
    if grid.size and np.any(np.diff(grid) <= 0.0):
        raise ValueError("boundary grid must be strictly increasing")
    if not np.all(np.isfinite(grid)):
        raise ValueError("boundary grid must be finite")
    _check_start(param1, params[param1], settings)
    guess = sys.initial_guess()
    rows = []
    for g in grid:
        p_row = params.with_value(param2, float(g))
        try:
            sol = newton_equilibrium(sys, guess, p_row)
            branch = _until_first_limit(sys, sol, param1, settings)
            found = _classify(branch)
            if found:
                # refined records keep their coarse s, so the first coarse
                # record is the first refined one
                rec, bracket = min(found, key=lambda f: f[0].s)
                first = _refine(sys, param1, p_row, rec, bracket)
                rows.append(BoundaryRow(float(g), first.kind, first.lam))
            else:
                rows.append(BoundaryRow(float(g), "none", float("nan")))
        except (NonConvergenceError, SingularJacobianError) as exc:
            rows.append(BoundaryRow(float(g), "error", float("nan"),
                                    str(exc)))
    return Boundary2D(param1, param2, tuple(rows))


def _until_first_limit(sys: DaeSystem, start: EquilibriumSolution,
                       param: str, settings: ContinuationSettings) -> Branch:
    """The branch traced until the segment before its newest point, which
    then has its fold look-ahead, holds a record; or in full.  Records of
    later segments lie at larger ``s`` (a fold on segment ``i`` is centred
    on ``(s[i-1], s[i+1])``, any other record on ``(s[i-1], s[i])``), so the
    first record of this prefix is the first of the whole branch."""
    for branch in _trace(sys, start, param, settings):
        if len(branch) >= 3 and _segment(branch.points[-3:], 1):
            break
    return branch
