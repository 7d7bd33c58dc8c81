"""Virtual admittance loop (VAL) for grid-following converters.

The loop emulates a configurable admittance ``y = g_v + j*b_v`` tied
between the converter bus and a stiff reference ``v_nom`` at the PLL
angle.  The resulting current correction, added to the converter current
reference ahead of the magnitude limiter, supports the bus voltage with
coupled active and reactive current.

Two implementations are provided:

* DVAL emulates the admittance dynamics with a series R-L equivalent,
  adding two current states per converter.
* QVAL applies the quasi-stationary approximation: the derivative is
  replaced by the fundamental-frequency rotation, so the correction is
  algebraic and the two equilibria coincide exactly.
"""

from dataclasses import dataclass

from .errors import ConfigurationError

__all__ = ["ValGains", "DvalRealization", "qval_correction", "dval_realization",
           "dval_rate"]


@dataclass(frozen=True)
class ValGains:
    """Virtual conductance/susceptance with their tuning box."""

    g_v: float = 0.0
    b_v: float = 0.0
    v_nom: float = 1.0
    g_min: float = -5.0
    g_max: float = 5.0
    b_min: float = -5.0
    b_max: float = 5.0

    def __post_init__(self):
        for lo, hi, val, name in ((self.g_min, self.g_max, self.g_v, "g_v"),
                                  (self.b_min, self.b_max, self.b_v, "b_v")):
            if not lo <= hi:
                raise ConfigurationError(f"empty tuning box for {name}")
            if not lo <= val <= hi:
                raise ConfigurationError(
                    f"{name}={val} outside its tuning box [{lo}, {hi}]")


def qval_correction(g_v: float, b_v: float, dv_d: float, dv_q: float):
    """Algebraic correction ``(g_v + j b_v) * dv`` (quasi-stationary VAL).

    ``dv`` is the support deviation (reference minus measured voltage in
    the PLL frame), so positive conductance injects current under
    undervoltage.  No states are added.
    """
    return (g_v * dv_d - b_v * dv_q, g_v * dv_q + b_v * dv_d)


@dataclass(frozen=True)
class DvalRealization:
    """Series R-L equivalent realizing ``y = g_v + j*b_v`` at ``omega0``.

    ``z = 1/y = r_eq + j*x_eq``; the inductance magnitude ``|x_eq|/omega0``
    becomes the mass of the virtual current states and ``coupling_sign``
    flips the frame rotation term so that capacitive susceptances are
    realized by a stable branch as well.  A purely conductive admittance
    (``x_eq = 0``) degenerates to an algebraic (zero-mass) branch.
    """

    r_eq: float
    l_mag: float
    coupling_sign: float


def dval_realization(g_v: float, b_v: float, omega0: float) -> DvalRealization:
    y2 = g_v * g_v + b_v * b_v
    if y2 == 0.0:
        raise ConfigurationError(
            "dynamic VAL requested with zero admittance; use the "
            "quasi-stationary implementation instead")
    r_eq = g_v / y2
    x_eq = -b_v / y2
    sign = 0.0 if x_eq == 0.0 else (1.0 if x_eq > 0.0 else -1.0)
    return DvalRealization(r_eq=r_eq, l_mag=abs(x_eq) / omega0, coupling_sign=sign)


def dval_rate(real: DvalRealization, i_d: float, i_q: float,
              dv_d: float, dv_q: float, omega0: float):
    """Residual pair of the virtual branch: ``l dI/dt = dv - z_eq I``.

    Returned with the branch mass ``l_mag`` factored out, i.e. this is the
    right-hand side of ``l_mag * dI/dt = ...``; when ``l_mag`` is zero the
    pair is the algebraic constraint ``0 = dv - r_eq I``.
    """
    w = real.coupling_sign * omega0 * real.l_mag
    fd = dv_d - real.r_eq * i_d + w * i_q
    fq = dv_q - real.r_eq * i_q - w * i_d
    return fd, fq
