"""Smooth replacements for hard device limits.

Hard saturations, deadbands and rate limits introduce non-smooth points
that break Newton solvers and equilibrium continuation.  Every limit in
this package is therefore expressed with hyperbolic-tangent based
functions that are C1, odd where applicable, and converge to the hard
characteristic on the saturated region as the sharpness grows.
"""

import math

from .errors import ModelValidationError

__all__ = [
    "sat",
    "sat_vector",
    "smooth_deadband",
    "rate_window",
    "anti_windup_rate",
]


def sat(limit: float, k: float, x: float) -> float:
    """Smooth saturation ``limit * tanh(k * x / limit)``.

    ``limit`` is the rated magnitude (pu) and ``k`` the sharpness, so the
    characteristic is odd, strictly increasing, Lipschitz with constant
    ``k`` and bounded by ``limit`` for every finite input.
    """
    return limit * math.tanh(k * x / limit)


def sat_vector(limit: float, k: float, xd: float, xq: float):
    """Magnitude-limit a dq pair, preserving its angle.

    The pair is scaled by ``sat(|x|)/|x|``; a zero vector is returned
    unchanged.  Converter current limiting is a rated-capacity constraint
    on the magnitude, so no per-axis clipping is performed.  A ``limit``
    that is not positive is refused, for a zero vector too.
    """
    if not limit > 0.0:
        raise ModelValidationError(
            f"limiter magnitude must be positive, got {limit}")
    mag = math.hypot(xd, xq)
    if mag == 0.0:
        return 0.0, 0.0
    scale = sat(limit, k, mag) / mag
    return xd * scale, xq * scale


def smooth_deadband(d: float, k: float, e: float) -> float:
    """Smooth deadband: ~0 for |e| <= d, ~(e - d*sign(e)) outside.

    Implemented as ``e`` minus a smoothly clipped copy of ``e`` with
    plateau ``d``.  The clipped copy is the log-cosh saturation
    ``(d/(2k)) * (lncosh(k(e/d + 1)) - lncosh(k(e/d - 1)))`` whose slope
    at the origin is ``tanh(k) < 1``, which keeps the result odd and
    strictly increasing for every ``k >= 1``.
    """
    if d == 0.0:
        return e + 0.0
    z = e / d
    clipped = (d / (2.0 * k)) * (_lncosh(k * (z + 1.0)) - _lncosh(k * (z - 1.0)))
    return e - clipped


_LN2 = math.log(2.0)


def _lncosh(z: float) -> float:
    """Overflow-safe log(cosh(z))."""
    a = abs(z)
    return a + math.log1p(math.exp(-2.0 * a)) - _LN2


_WINDOW_GAIN = 2.6
_WINDOW_INSET = 1.5


def rate_window(n: float, n_min: float, n_max: float, k: float,
                direction: float) -> float:
    """Multiplier in (0, 1) suppressing motion toward a nearby limit.

    The distance to the limit that ``direction`` pushes toward is
    normalized by the range and passed through a shifted tanh sigmoid, so
    the window is close to 1 over the interior (for ``k`` of a few and
    above), drops below ``1e-3`` of its interior value at the limit
    itself, and keeps falling beyond it.  Motion away from a limit is
    never suppressed.
    """
    if not n_min < n_max:
        raise ModelValidationError("rate window requires n_min < n_max")
    span = n_max - n_min
    if direction > 0.0:
        u = (n_max - n) / span
    elif direction < 0.0:
        u = (n - n_min) / span
    else:
        return 1.0
    return 0.5 * (1.0 + math.tanh(_WINDOW_GAIN * (k * u - _WINDOW_INSET)))


def anti_windup_rate(e, u, u_sat, k_aw: float):
    """Back-calculation integrator rate: ``e + k_aw * (u_sat - u)``.

    Reduces to plain integration of ``e`` whenever the limited command
    ``u_sat`` equals the raw command ``u``; when the limiter is active the
    feedback term bleeds the integrator off instead of letting it wind up.
    """
    if k_aw < 0.0:
        raise ModelValidationError("anti-windup gain must be non-negative")
    return e + k_aw * (u_sat - u)
