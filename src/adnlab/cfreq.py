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
    """Per-block complex frequency of a converter internal voltage, and
    the PLL-internal frequency of a GFL converter (``None`` for GFM)."""

    synchronization: CfSeries
    regulation: CfSeries
    total: CfSeries
    internal: CfSeries | None


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


def pll_internal_frequency(times, omega_pll, window: int = 1) -> CfSeries:
    """Converter-internal frequency estimate from the sampled PLL output.

    ``omega_pll = omega0 + kp_pll * v_q_pll(t) + eps(t)`` is a converter
    output, evaluated pointwise from the PLL states with no numerical
    differentiation; it differs from the bus complex frequency while the
    PLL is re-locking.  The series is smoothed over ``window`` samples.
    """
    return CfSeries(times, np.zeros(len(times)), _smooth(omega_pll, window))


def decompose_converter_cf(sys, traj: Trajectory, conv_id: str,
                           omega_frame: float, p: Params,
                           window: int = 1) -> CfDecomposition:
    """Split the converter internal-voltage complex frequency per block.

    GFL: the synchronization block carries the PLL angle rate (a deviation
    series) and the regulation block the complex frequency of the
    modulation vector in the PLL frame (carrying the frame base).  GFM
    droop: the droop angle rate and the log rate of the internal EMF
    magnitude.  The total is computed independently from the composed
    internal voltage in the network frame, so additivity is a numerical
    identity rather than a definition.  ``internal`` is a GFL converter's
    :func:`pll_internal_frequency` smoothed over ``window`` samples, and
    ``None`` for a GFM unit; the blocks are not smoothed.  The converter's
    outputs are walked along ``traj`` once
    (:meth:`~adnlab.network.AssembledSystem.converter_outputs`).
    """
    times = traj.times
    internal = None
    if conv_id in sys.gfl_ids():
        series = sys.converter_outputs(traj.states, p, conv_id,
                                       ("omega_pll", "vmod_d", "vmod_q"))
        m_d, m_q = series["vmod_d"], series["vmod_q"]
        internal = pll_internal_frequency(times, series["omega_pll"], window)
    elif conv_id in sys.gfm_ids():
        m_d = sys.converter_outputs(traj.states, p, conv_id,
                                    ("e_mag",))["e_mag"]
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
    return CfDecomposition(sync, regulation, total, internal)
