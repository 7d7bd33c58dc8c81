"""Complex frequency: eta = rho + j*omega from sampled trajectories.

The real part is the log-magnitude rate of the voltage phasor
("instantaneous bandwidth") and the imaginary part the angle rate; both
are obtained by differentiating sampled dq trajectories with second-order
stencils, so no per-device closed forms are required.  The per-converter
decomposition exploits the exact multiplicative structure of the internal
voltage, ``v = m * exp(j*theta)``: the synchronization block contributes
the angle rate of the synchronization state and the regulation block the
complex frequency of the modulation vector in the converter frame, so the
two blocks sum to the total by construction.
"""

from dataclasses import dataclass

import numpy as np

from .converters import V_FLOOR
from .engine import Params, Trajectory
from .errors import ConfigurationError, DegenerateVoltageError

__all__ = [
    "CfSeries",
    "CfDecomposition",
    "derivative",
    "cf_from_trajectory",
    "cf_of_bus",
    "pll_internal_frequency",
    "decompose_converter_cf",
]


@dataclass(frozen=True)
class CfSeries:
    """Sampled complex-frequency trajectory rho(t) + j*omega(t).

    For bus-voltage series ``omega`` is the absolute angular frequency
    (frame speed plus angle rate).  Block series produced by the
    decomposition may carry only deviations.
    """

    times: np.ndarray
    rho: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.rho) == len(self.omega)):
            raise ValueError("series lengths differ")


@dataclass(frozen=True)
class CfDecomposition:
    """Per-block complex frequency of a converter internal voltage."""

    synchronization: CfSeries
    regulation: CfSeries
    total: CfSeries


def derivative(times, values):
    """Sampled time derivative: central differences in the interior and
    second-order one-sided stencils at the ends (exact for quadratics)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    m = len(times)
    if m < 2:
        return np.zeros_like(values)
    out = np.empty_like(values)
    if m == 2:
        out[:] = (values[1] - values[0]) / (times[1] - times[0])
        return out
    h = times[1] - times[0]
    out[1:-1] = (values[2:] - values[:-2]) / (times[2:] - times[:-2])
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


def _smooth(series, window: int):
    if window <= 1:
        return series
    kernel = np.ones(window) / window
    pad = window // 2
    padded = np.concatenate([np.full(pad, series[0]), series,
                             np.full(window - 1 - pad, series[-1])])
    return np.convolve(padded, kernel, mode="valid")


def cf_from_trajectory(times, v_d, v_q, omega_frame: float,
                       window: int = 1) -> CfSeries:
    """Complex frequency of a sampled dq voltage pair.

    ``rho = d(ln |v|)/dt`` and ``omega = omega_frame + d(angle v)/dt``
    with the angle unwrapped before differentiation.  Raises when any
    sample magnitude is at or below the voltage floor.
    """
    times = np.asarray(times, dtype=float)
    v_d = np.asarray(v_d, dtype=float)
    v_q = np.asarray(v_q, dtype=float)
    mag = np.hypot(v_d, v_q)
    bad = np.flatnonzero(mag <= V_FLOOR)
    if bad.size:
        t_bad = float(times[bad[0]])
        raise DegenerateVoltageError(
            f"voltage magnitude {mag[bad[0]]:.4g} pu at t={t_bad:.6g}s is at "
            f"or below the {V_FLOOR} pu floor", time=t_bad)
    theta = np.unwrap(np.arctan2(v_q, v_d))
    rho = derivative(times, np.log(mag))
    omega = omega_frame + derivative(times, theta)
    return CfSeries(times, _smooth(rho, window), _smooth(omega, window))


def cf_of_bus(sys, traj: Trajectory, bus_id: str, omega_frame: float,
              window: int = 1) -> CfSeries:
    """Complex frequency of a bus voltage along a trajectory."""
    return cf_from_trajectory(
        traj.times, traj.states[:, sys.state_index(f"{bus_id}.vd")],
        traj.states[:, sys.state_index(f"{bus_id}.vq")], omega_frame, window)


# The converter outputs the cf series read: what pll_internal_frequency
# and decompose_converter_cf need between them, per converter family.
_GFL_SERIES = ("omega_pll", "vmod_d", "vmod_q")
_GFM_SERIES = ("e_mag",)


def _output_series(sys, traj: Trajectory, conv_id: str, p: Params) -> dict:
    """The converter's cf outputs sampled along ``traj``, one array per key.

    The walk is kept on the trajectory, keyed by the identity of the
    system and the parameters, so the PLL frequency and the block
    decomposition of one run walk the trajectory once.
    """
    key = ("cf outputs", sys, conv_id, p)
    series = traj.memo.get(key)
    if series is None:
        keys = _GFL_SERIES if conv_id in sys.gfl_ids() else _GFM_SERIES
        series = {k: np.empty(len(traj.times)) for k in keys}
        for i, x in enumerate(traj.states):
            o = sys.outputs(x, p)[conv_id]
            for k in keys:
                series[k][i] = o[k]
        traj.memo[key] = series
    return series


def pll_internal_frequency(sys, traj: Trajectory, conv_id: str, p: Params,
                           window: int = 1) -> CfSeries:
    """Converter-internal frequency estimate along a trajectory.

    ``omega_hat = omega0 + kp_pll * v_q_pll(t) + eps(t)`` evaluated
    pointwise from the PLL states, with no numerical differentiation; it
    differs from the bus complex frequency while the PLL is re-locking.
    """
    if conv_id not in sys.gfl_ids():
        raise ConfigurationError(f"{conv_id!r} is not a GFL converter")
    # a copy: the trajectory's memo keeps the walk for other callers
    omega_pll = _output_series(sys, traj, conv_id, p)["omega_pll"].copy()
    return CfSeries(traj.times, np.zeros(len(traj.times)),
                    _smooth(omega_pll, window))


def decompose_converter_cf(sys, traj: Trajectory, conv_id: str,
                           omega_frame: float, p: Params) -> CfDecomposition:
    """Split the converter internal-voltage complex frequency per block.

    GFL: the synchronization block carries the PLL angle rate (a deviation
    series) and the regulation block the complex frequency of the
    modulation vector in the PLL frame (carrying the frame base).  GFM
    droop: the droop angle rate and the log rate of the internal EMF
    magnitude.  The total is computed independently from the composed
    internal voltage in the network frame, so additivity is a numerical
    identity rather than a definition.
    """
    times = traj.times
    if conv_id in sys.gfl_ids():
        series = _output_series(sys, traj, conv_id, p)
        m_d, m_q = series["vmod_d"], series["vmod_q"]
    elif conv_id in sys.gfm_ids():
        m_d = _output_series(sys, traj, conv_id, p)["e_mag"]
        m_q = np.zeros_like(m_d)
    else:
        raise ConfigurationError(f"unknown converter {conv_id!r}")
    theta = traj.column(f"{conv_id}.theta")
    sync = CfSeries(times, np.zeros(len(times)), derivative(times, theta))
    regulation = cf_from_trajectory(times, m_d, m_q, omega_frame)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    v_net_d = m_d * cos_t - m_q * sin_t
    v_net_q = m_d * sin_t + m_q * cos_t
    total = cf_from_trajectory(times, v_net_d, v_net_q, omega_frame)
    return CfDecomposition(sync, regulation, total)
