"""Grid-following and minimal grid-forming converter models.

The GFL converter is an L-filtered current source synchronized by an
SRF-PLL.  Its dq current controller runs in the PLL frame with decoupling
and bus-voltage feed-forward; the current reference combines an active
power set-point, a Volt/VAR droop and an optional virtual-admittance
correction, and is magnitude-limited by a smooth tanh saturation with
back-calculation anti-windup on the controller integrators.

The GFM model is a plain P/f-Q/V droop behind a virtual output impedance;
it exists to exercise the grid-forming branch of the complex-frequency
taxonomy, not to be a complete voltage-source converter.
"""

import math
from dataclasses import dataclass, field

from .errors import ModelValidationError
from .limits import anti_windup_rate, sat_vector
from .val import ValGains

__all__ = [
    "V_FLOOR",
    "GflConverter",
    "GfmDroop",
    "pll_project",
    "gfl_rates",
    "gfm_rates",
    "GFL_RATES",
    "GFM_RATES",
]

V_FLOOR = 0.01


@dataclass(frozen=True)
class GflConverter:
    """Grid-following converter parameters (all pu unless noted)."""

    id: str
    bus: str
    l_f: float = 2.5e-4        # filter inductance, s (x_f / omega0)
    r_f: float = 0.005
    kp_cc: float = 0.3
    ki_cc: float = 20.0
    kp_pll: float = 20.0       # rad/s per pu
    ki_pll: float = 200.0      # rad/s^2 per pu
    p_ref: float = 0.4
    kq: float = 0.0            # Volt/VAR droop slope, pu/pu
    v_ref: float = 1.0
    q0: float = 0.0
    i_max: float = 1.2
    limiter_k: float = 10.0
    k_aw: float = 1.0
    tau_meas: float = 0.002    # reference-path voltage measurement filter, s
    val_mode: str = "off"      # off | qval | dval
    val: ValGains = field(default_factory=ValGains)

    def __post_init__(self):
        if self.l_f <= 0.0:
            raise ModelValidationError("filter inductance must be positive")
        if self.i_max <= 0.0:
            raise ModelValidationError("rated current must be positive")
        if not self.limiter_k >= 1.0:
            raise ModelValidationError("limiter sharpness must be >= 1")
        for g in (self.kp_cc, self.ki_cc, self.kp_pll, self.ki_pll, self.k_aw):
            if g < 0.0:
                raise ModelValidationError("controller gains must be non-negative")
        if self.tau_meas < 0.0:
            raise ModelValidationError("measurement time constant must be non-negative")
        if self.val_mode not in ("off", "qval", "dval"):
            raise ModelValidationError(f"unknown VAL mode {self.val_mode!r}")


@dataclass(frozen=True)
class GfmDroop:
    """Droop-based grid-forming converter behind a virtual impedance."""

    id: str
    bus: str
    m_p: float = 6.28          # rad/s per pu of active power
    n_q: float = 0.05
    v_set: float = 1.0
    p_set: float = 0.0
    q_set: float = 0.0
    r_v: float = 0.02
    l_v: float = 6.4e-4        # virtual inductance, s
    tau_p: float = 0.02
    tau_q: float = 0.02

    def __post_init__(self):
        if self.m_p <= 0.0:
            raise ModelValidationError("P/f droop slope must be positive")
        if self.n_q < 0.0:
            raise ModelValidationError("Q/V droop slope must be non-negative")
        if self.l_v <= 0.0:
            raise ModelValidationError("virtual inductance must be positive")
        if self.tau_p < 0.0 or self.tau_q < 0.0:
            raise ModelValidationError("filter time constants must be non-negative")


def pll_project(vd: float, vq: float, theta: float):
    """Rotate a network-frame dq pair into the PLL frame."""
    c, s = math.cos(theta), math.sin(theta)
    return vd * c + vq * s, -vd * s + vq * c


# Names of the residual rates and injection that :func:`gfl_rates` and
# :func:`gfm_rates` return, in order; their ``outputs`` dicts use them too.
GFL_RATES = ("f_theta", "f_eps", "f_id", "f_iq", "f_xid", "f_xiq",
             "f_vmd", "f_vmq", "inj_d", "inj_q")
GFM_RATES = ("f_theta", "f_pf", "f_qf", "inj_d", "inj_q")


def gfl_rates(omega0, theta, eps, i_d, i_q, xi_d, xi_q, vd, vq,
              vm_d, vm_q, corr_d, corr_q, p_ref, q0, kq, v_ref, kp_pll,
              ki_pll, kp_cc, ki_cc, k_aw, i_max, limiter_k, l_f, r_f,
              outputs=None):
    """All GFL residuals for one evaluation point.

    ``vm_d/vm_q`` is the PLL-frame voltage measurement feeding the
    reference path (droop, power-to-current division, VAL deviation); the
    PLL itself always sees the raw bus voltage.  ``corr_d/corr_q`` is the
    VAL current correction in the PLL frame; pass zeros when the loop is
    disabled.  ``i_max`` and ``limiter_k`` are the current limiter's
    magnitude and sharpness (:func:`~adnlab.limits.sat_vector`).

    Returns the residual rates (mass factored out where it is not 1) and
    the network-frame injected current, named by :data:`GFL_RATES`.  An
    ``outputs`` dict receives those under their names plus the PLL-frame
    voltage and frequency, the raw and limited references, the modulation
    voltage used by the complex-frequency decomposition and the limiter
    activity.
    """
    # pll_project written out: the injection rotation reuses the pair
    c, s = math.cos(theta), math.sin(theta)
    v_pll_d, v_pll_q = vd * c + vq * s, -vd * s + vq * c
    omega_pll = omega0 + kp_pll * v_pll_q + eps
    vmag = math.hypot(vm_d, vm_q)
    veff = max(vmag, V_FLOOR)
    q_ref = q0 + kq * (v_ref - vmag)
    # conj((P + jQ)/v) in the PLL frame; below the floor the magnitude is
    # frozen at its value at the floor along the voltage angle.
    den = max(vmag, 1e-300) * veff
    is_d = (p_ref * vm_d + q_ref * vm_q) / den
    is_q = (p_ref * vm_q - q_ref * vm_d) / den
    raw_d = is_d + corr_d
    raw_q = is_q + corr_q
    iref_d, iref_q = sat_vector(i_max, limiter_k, raw_d, raw_q)
    e_d = iref_d - i_d
    e_q = iref_q - i_q
    rates = (omega_pll - omega0,
             ki_pll * v_pll_q,
             kp_cc * e_d + xi_d - r_f * i_d,      # mass l_f
             kp_cc * e_q + xi_q - r_f * i_q,      # mass l_f
             anti_windup_rate(ki_cc * e_d, raw_d, iref_d, k_aw),
             anti_windup_rate(ki_cc * e_q, raw_q, iref_q, k_aw),
             v_pll_d - vm_d,                      # mass tau_meas
             v_pll_q - vm_q,
             i_d * c - i_q * s,
             i_d * s + i_q * c)
    if outputs is not None:
        outputs.update(zip(GFL_RATES, rates))
        outputs.update(
            v_pll_d=v_pll_d, v_pll_q=v_pll_q, omega_pll=omega_pll,
            raw_d=raw_d, raw_q=raw_q, iref_d=iref_d, iref_q=iref_q,
            vmod_d=v_pll_d + kp_cc * e_d + xi_d - omega_pll * l_f * i_q,
            vmod_q=v_pll_q + kp_cc * e_q + xi_q + omega_pll * l_f * i_d,
            activity=limiter_k * math.hypot(raw_d, raw_q) / i_max)
    return rates


def gfm_rates(omega0, theta, p_f, q_f, vd, vq, m_p, n_q, v_set, p_set,
              q_set, r_v, l_v, tau_p, tau_q, outputs=None):
    """GFM droop residuals and injected current, named by
    :data:`GFM_RATES`.

    The internal source ``E = v_set - n_q (Q_f - q_set)`` at angle
    ``theta`` injects through ``r_v + j omega0 l_v``; measured powers are
    first-order filtered with time constants ``tau_p`` and ``tau_q``
    (masses of the corresponding rows).  An ``outputs`` dict receives the
    rates under their names plus ``e_mag``, ``p_inst`` and ``q_inst``.
    """
    e_mag = v_set - n_q * (q_f - q_set)
    e_d = e_mag * math.cos(theta)
    e_q = e_mag * math.sin(theta)
    x_v = omega0 * l_v
    den = r_v * r_v + x_v * x_v
    dd = e_d - vd
    dq = e_q - vq
    inj_d = (dd * r_v + dq * x_v) / den
    inj_q = (dq * r_v - dd * x_v) / den
    p_inst = vd * inj_d + vq * inj_q
    q_inst = vq * inj_d - vd * inj_q
    rates = (-m_p * (p_f - p_set),
             p_inst - p_f,      # mass tau_p
             q_inst - q_f,      # mass tau_q
             inj_d,
             inj_q)
    if outputs is not None:
        outputs.update(zip(GFM_RATES, rates))
        outputs.update(e_mag=e_mag, p_inst=p_inst, q_inst=q_inst)
    return rates
