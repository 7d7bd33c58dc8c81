"""Scenario files: strict JSON schema, defaulting and canonical form.

A scenario fully describes a study: the per-unit network tables, optional
initial parameter overrides and per-analysis settings.  Unknown keys are
rejected everywhere, defaults are applied deterministically, and the
canonical serialization (sorted keys, all defaults filled) round-trips
byte for byte.
"""

import json
import math
from dataclasses import dataclass, fields as dataclass_fields
from functools import partial

from .contin import ContinuationSettings
from .converters import GflConverter, GfmDroop
from .errors import ConfigurationError, ScenarioError
from .network import (
    Bus,
    GridSource,
    InductionMachine,
    LtcTransformer,
    NetworkModel,
    RlBranch,
    ZipLoad,
    reactance_to_inductance,
)
from .val import ValGains

__all__ = ["Scenario", "load_scenario", "loads_scenario"]

_REQUIRED = object()

# Most integration steps a simulation block may ask for.
MAX_STEPS = 10 ** 6

BASE_FIELDS = {"f_hz": 50.0}
BUS_FIELDS = {"id": _REQUIRED, "b_sh": 1e-4, "v_d": 1.0, "v_q": 0.0}
BRANCH_FIELDS = {"id": _REQUIRED, "from": _REQUIRED, "to": _REQUIRED,
                 "r": 0.0, "x": _REQUIRED}
SOURCE_FIELDS = {"id": _REQUIRED, "bus": _REQUIRED, "e_mag": 1.0,
                 "r_g": 0.0, "x_g": 0.0, "rotating": False}
ZIP_FIELDS = {"id": _REQUIRED, "bus": _REQUIRED, "p0": _REQUIRED, "q0": 0.0,
              "a_z": 0.0, "a_i": 0.0, "a_p": 1.0,
              "b_z": 0.0, "b_i": 0.0, "b_p": 1.0, "v0": 1.0}
MACHINE_FIELDS = {"id": _REQUIRED, "bus": _REQUIRED, "x_s": 0.1, "x_r": 0.18,
                  "x_m": 3.2, "r_r": 0.03, "r_s": 0.01, "h": 0.6,
                  "t_mech": 0.5, "s0": 0.02}
LTC_FIELDS = {"id": _REQUIRED, "from": _REQUIRED, "to": _REQUIRED,
              "x_t": 0.1, "n0": 1.0, "n_min": 0.9, "n_max": 1.1,
              "t_ltc": 30.0, "v_ref": 1.0, "d_band": 0.01, "k_s": 5.0}
VAL_FIELDS = {"mode": "off", "g_v": 0.0, "b_v": 0.0, "v_nom": 1.0,
              "g_min": -5.0, "g_max": 5.0, "b_min": -5.0, "b_max": 5.0}
GFL_FIELDS = {"id": _REQUIRED, "bus": _REQUIRED, "kind": "gfl",
              "x_f": 0.08, "r_f": 0.005, "kp_cc": 0.3, "ki_cc": 20.0,
              "kp_pll": 20.0, "ki_pll": 200.0, "p_ref": 0.4, "kq": 0.0,
              "v_ref": 1.0, "q0": 0.0, "i_max": 1.2, "limiter_k": 10.0,
              "k_aw": 1.0, "tau_meas": 0.002, "val": None}
GFM_FIELDS = {"id": _REQUIRED, "bus": _REQUIRED, "kind": "gfm_droop",
              "m_p": 6.28, "n_q": 0.05, "v_set": 1.0, "p_set": 0.0,
              "q_set": 0.0, "r_v": 0.02, "x_v": 0.2, "tau_p": 0.02,
              "tau_q": 0.02}
CONTINUATION_FIELDS = {"param": "lambda", **{
    f.name: f.default for f in dataclass_fields(ContinuationSettings)}}
BOUNDARY_FIELDS = {"param2": _REQUIRED, "grid": _REQUIRED}
SIMULATION_FIELDS = {"t_end": 1.0, "h": 1e-3, "param_steps": None}
SECONDARY_FIELDS = {"weights": None, "default_weight": 1.0, "rho": 1e-8,
                    "alpha": 1.0, "max_iter": 30, "tol_v": 0.01}
CF_FIELDS = {"bus": _REQUIRED, "converter": None, "window": 2}
ANALYSIS_FIELDS = {"continuation": None, "boundary2d": None,
                   "simulation": None, "secondary": None, "cf": None}
TOP_FIELDS = {"name": "scenario", "base": None, "buses": _REQUIRED,
              "branches": [], "sources": [], "zip_loads": [],
              "machines": [], "ltcs": [], "converters": [],
              "analysis": None, "params": {}}


def _apply(fields: dict, data: dict, where: str) -> dict:
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected an object, got "
                            f"{type(data).__name__}")
    unknown = set(data) - set(fields)
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) "
                            f"{', '.join(sorted(repr(k) for k in unknown))}")
    out = {}
    for key, default in fields.items():
        if key in data:
            out[key] = data[key]
        elif default is _REQUIRED:
            raise ScenarioError(f"{where}: missing required key {key!r}")
        else:
            out[key] = default
    return out


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: canonical dict plus the compiled network."""

    name: str
    f_hz: float
    canonical: dict
    model: NetworkModel
    analysis: dict
    param_overrides: dict

    @property
    def omega0(self) -> float:
        return 2.0 * math.pi * self.f_hz

    def canonical_json(self) -> str:
        return json.dumps(self.canonical, sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"

    def build(self, rotating_sources: bool = False):
        return self.model.build(rotating_sources=rotating_sources)

    def base_params(self, sys):
        p = sys.params0
        if self.param_overrides:
            try:
                p = p.with_values(self.param_overrides)
            except KeyError as exc:
                raise ScenarioError(f"params: {exc.args[0]}") from None
        return p


# Errors raised by converting a field or constructing a device from it.
_BAD_VALUE = (ConfigurationError, ValueError, TypeError, OverflowError)


# Scenario keys whose device field has another name; a reactance (pu at
# nominal frequency) becomes the inductance the dynamic equations use.
_TEXT = {"id": "id", "bus": "bus", "from": "from_bus", "to": "to_bus"}
_REACTANCE = {"x": "l", "x_g": "l_g", "x_f": "l_f", "x_v": "l_v"}
_NOT_FIELDS = {"kind", "val", "mode"}


def _device(cls, data, omega0, /, **extra):
    """Construct ``cls`` from one validated scenario entry."""
    kwargs = dict(extra)
    for key, value in data.items():
        if key in _TEXT:
            kwargs[_TEXT[key]] = _text(value)
        elif key in _REACTANCE:
            kwargs[_REACTANCE[key]] = reactance_to_inductance(_number(value),
                                                              omega0)
        elif key == "rotating":
            kwargs[key] = _flag(value)
        elif key not in _NOT_FIELDS:
            kwargs[key] = _number(value)
    return cls(**kwargs)


def _gfl(data, omega0):
    val = data["val"]
    return _device(GflConverter, data, omega0, val_mode=str(val["mode"]),
                   val=_device(ValGains, val, omega0))


# Device families in build order: scenario key (also the NetworkModel
# field name), schema, constructor.
_FAMILIES = (("buses", BUS_FIELDS, partial(_device, Bus)),
             ("branches", BRANCH_FIELDS, partial(_device, RlBranch)),
             ("sources", SOURCE_FIELDS, partial(_device, GridSource)),
             ("zip_loads", ZIP_FIELDS, partial(_device, ZipLoad)),
             ("machines", MACHINE_FIELDS, partial(_device, InductionMachine)),
             ("ltcs", LTC_FIELDS, partial(_device, LtcTransformer)))


def _build(where, make, *args):
    try:
        return make(*args)
    except _BAD_VALUE as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ScenarioError(f"number {text} is not finite")
    return value


def _number(value) -> float:
    """A scenario number: anything but a bool that ``float`` accepts and
    that is finite."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is a bool, not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _mapping(value) -> dict:
    """An object of numbers keyed by name; ``None`` stands for ``{}``."""
    if not isinstance(value, dict | None):
        raise ValueError(f"expected an object, got {type(value).__name__}")
    return {str(k): _number(v) for k, v in (value or {}).items()}


def _positive(value) -> float:
    number = _number(value)
    if not number > 0.0:
        raise ValueError(f"{value!r} is not positive")
    return number


def _fraction(value) -> float:
    if not _positive(value) <= 1.0:
        raise ValueError(f"{value!r} is above 1")
    return float(value)


def _count(value) -> int:
    number = _number(value)
    if not (number.is_integer() and number >= 1):
        raise ValueError(f"{value!r} is not a positive integer")
    return int(number)


def _grid(value) -> list:
    grid = [_number(g) for g in value]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return grid


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _optional_text(value):
    return None if value is None else _text(value)


# Analysis blocks in schema order: key, fields, the converter of each
# field that is not a plain number, and the chains of keys whose values
# must not decrease in the order given.
_ANALYSES = (
    ("continuation", CONTINUATION_FIELDS,
     {"param": _text, "max_steps": _count, "h_min": _positive},
     (("h_min", "h0", "h_max"), ("param_min", "param_max"))),
    ("boundary2d", BOUNDARY_FIELDS, {"param2": _text, "grid": _grid}, ()),
    ("simulation", SIMULATION_FIELDS,
     {"t_end": _positive, "h": _positive, "param_steps": _mapping}, ()),
    ("secondary", SECONDARY_FIELDS,
     {"weights": _mapping, "max_iter": _count, "alpha": _fraction}, ()),
    ("cf", CF_FIELDS,
     {"bus": _text, "converter": _optional_text, "window": _count}, ()),
)


def loads_scenario(text: str) -> Scenario:
    """Parse and validate a scenario from a JSON string.

    ``NaN``, ``Infinity`` and float literals that overflow are rejected, so
    no non-finite number reaches a model.
    """
    try:
        raw = json.loads(text, parse_constant=_finite_float,
                         parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"JSON parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    top = _apply(TOP_FIELDS, raw, "scenario")
    scenario_name = _build("name", _text, top["name"])
    base = _apply(BASE_FIELDS, top["base"] or {}, "base")
    f_hz = _build("base", _number, base["f_hz"])
    if not f_hz > 0.0:
        raise ScenarioError("base: f_hz must be positive")
    omega0 = 2.0 * math.pi * f_hz
    overrides = _build("params", _mapping, top["params"])

    canonical = {"name": top["name"], "base": base,
                 "params": dict(top["params"] or {})}

    devices = {}
    for key, fields, make in _FAMILIES:
        if not isinstance(top[key], list):
            raise ScenarioError(f"{key}: expected a list")
        canonical[key] = []
        devices[key] = []
        for i, entry in enumerate(top[key]):
            where = f"{key}[{i}]"
            d = _apply(fields, entry, where)
            canonical[key].append(d)
            devices[key].append(_build(where, make, d, omega0))

    gfls, gfms = [], []
    canonical["converters"] = []
    if not isinstance(top["converters"], list):
        raise ScenarioError("converters: expected a list")
    for i, entry in enumerate(top["converters"]):
        where = f"converters[{i}]"
        kind = entry.get("kind", "gfl") if isinstance(entry, dict) else "gfl"
        if kind == "gfl":
            c = _apply(GFL_FIELDS, entry, where)
            c["val"] = _apply(VAL_FIELDS, c["val"] or {}, f"{where}.val")
            canonical["converters"].append(c)
            gfls.append(_build(where, _gfl, c, omega0))
        elif kind == "gfm_droop":
            c = _apply(GFM_FIELDS, entry, where)
            canonical["converters"].append(c)
            gfms.append(_build(where, _device, GfmDroop, c, omega0))
        else:
            raise ScenarioError(f"{where}: unknown kind {kind!r}")

    analysis_raw = _apply(ANALYSIS_FIELDS, top["analysis"] or {}, "analysis")
    analysis = {}
    canonical["analysis"] = {}
    for key, fields, kinds, ordered in _ANALYSES:
        # A block without required keys stands for its defaults when absent;
        # the canonical form keeps only the blocks that were given.
        given = analysis_raw[key] is not None
        if not given and _REQUIRED in fields.values():
            continue
        where = f"analysis.{key}"
        entry = _apply(fields, analysis_raw[key] if given else {}, where)
        values = {
            name: _build(f"{where}.{name}", kinds.get(name, _number), value)
            for name, value in entry.items()}
        for chain in ordered:
            for lo, hi in zip(chain, chain[1:]):
                if values[hi] < values[lo]:
                    raise ScenarioError(
                        f"{where}.{hi}: {values[hi]!r} is below "
                        f"{lo} = {values[lo]!r}")
        if "t_end" in values:
            # integrate allocates every sample up front, so the step count
            # is bounded before anything runs
            steps = values["t_end"] / values["h"]
            if not steps <= MAX_STEPS:
                raise ScenarioError(
                    f"{where}.t_end: {values['t_end']!r} takes {steps:.10g} "
                    f"steps of h = {values['h']!r}, more than {MAX_STEPS}")
            # a fixed-step integration must land on t_end
            if abs(steps - round(steps)) > 1e-9 * steps:
                raise ScenarioError(
                    f"{where}.t_end: {values['t_end']!r} is not a whole "
                    f"number of steps h = {values['h']!r} ({steps:.10g})")
        if "window" in values:
            # the moving average allocates its window, so it is bounded by
            # the samples of the simulation it smooths
            sim = analysis["simulation"]
            samples = round(sim["t_end"] / sim["h"]) + 1
            if values["window"] > samples:
                raise ScenarioError(
                    f"{where}.window: {values['window']!r} is more than the "
                    f"{samples} samples of analysis.simulation")
        analysis[key] = values
        if given:
            for name, kind in kinds.items():
                if kind is _mapping and entry[name] is None:
                    entry[name] = {}
            canonical["analysis"][key] = entry

    try:
        model = NetworkModel(
            **{key: tuple(devs) for key, devs in devices.items()},
            gfls=tuple(gfls), gfms=tuple(gfms), omega0=omega0)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    # the device ids an analysis block names must exist in the model
    buses = {bus.id for bus in model.buses}
    named = [("secondary.weights", bus, buses)
             for bus in analysis["secondary"]["weights"]]
    if "cf" in analysis:
        named.append(("cf.bus", analysis["cf"]["bus"], buses))
        if analysis["cf"]["converter"] is not None:
            named.append(("cf.converter", analysis["cf"]["converter"],
                          {c.id for c in model.gfls + model.gfms}))
    for key, name, known in named:
        if name not in known:
            raise ScenarioError(f"analysis.{key}: unknown id {name!r}; "
                                f"known: {', '.join(sorted(known))}")

    return Scenario(name=scenario_name, f_hz=f_hz, canonical=canonical,
                    model=model, analysis=analysis, param_overrides=overrides)


def load_scenario(path) -> Scenario:
    """Parse, validate and default a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    return loads_scenario(text)
