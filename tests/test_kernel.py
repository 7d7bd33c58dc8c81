"""Guards on one residual evaluation of every bundled scenario.

A parameter driven to the edge of its range may make a device model
reject it, but only as a ``ModelValidationError``: never as a
``ZeroDivisionError``, an ``OverflowError`` or a bare ``ValueError``.  A
device constant the residual divides by is checked when the model is
built.  And the residual is a pure function of ``(x, p)``: it leaves
``x`` alone, returns a fresh array and repeats bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from adnlab.cli import EXIT_NUMERICAL, run_command
from adnlab.errors import ModelValidationError
from adnlab.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))


def _system(name, rotating=False):
    scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
    sys = scenario.build(rotating_sources=rotating)
    return sys, scenario.base_params(sys)


def _points(sys):
    """The initial guess and a seeded point near it."""
    x0 = sys.initial_guess()
    rng = np.random.default_rng(7)
    return x0, x0 + 0.05 * rng.standard_normal(sys.n)


@pytest.mark.parametrize("value", [0.0, -1.0])
@pytest.mark.parametrize("name", SCENARIOS)
def test_parameter_at_edge_returns_or_names_the_model_error(name, value):
    sys, p = _system(name)
    rejected = set()
    for param in p.names:
        q = p.with_value(param, value)
        for x in _points(sys):
            for evaluate in (sys.residual, sys.outputs):
                try:
                    with np.errstate(all="ignore"):
                        evaluate(x, q)
                except ModelValidationError:
                    rejected.add(param)
    # a converter's current limit is checked on every evaluation
    assert {f"{c}.i_max" for c in sys.gfl_ids()} <= rejected


@pytest.mark.parametrize("rotating", [False, True])
@pytest.mark.parametrize("name", SCENARIOS)
def test_residual_is_pure_and_fresh(name, rotating):
    sys, p = _system(name, rotating)
    for x in _points(sys):
        before = x.copy()
        f1 = sys.residual(x, p)
        f2 = sys.residual(x, p)
        assert x.tobytes() == before.tobytes()
        assert f1.dtype == np.float64 and f1.shape == (sys.n,)
        assert not np.shares_memory(f1, f2)
        assert not np.shares_memory(f1, x)
        assert f1.tobytes() == f2.tobytes()
        # neither scribbling on a result nor evaluating at other parameter
        # values changes what the next call returns
        f1[:] = 0.0
        for param in p.names:
            sys.residual(x, p.with_value(param, 1.1 * p[param] + 0.01))
        assert sys.residual(x, p).tobytes() == f2.tobytes()


def test_rotating_source_angle_adds_its_parameter():
    # the rotating build drives the source EMF at theta + theta_g, so a
    # phase step given as a theta parameter step moves it there as well
    sys, p = _system("cf_step", rotating=True)
    _, x = _points(sys)
    i = sys.state_index("grid.theta_g")
    delta = 0.02
    x[i] = 0.0
    stepped = sys.residual(x, p.with_value("grid.theta", delta))
    x[i] = delta
    assert stepped.tobytes() == sys.residual(x, p).tobytes()


@pytest.mark.parametrize("family, index, fields", [
    ("zip_loads", 0, {"v0": 1e-200}),
    ("machines", 0, {"x_s": 1e-170, "x_m": 1e-170, "x_r": 1e-170,
                     "r_s": 0.0}),
    ("converters", 2, {"x_v": 1e-170, "r_v": 0.0}),
])
def test_divisor_that_underflows_is_one_error_line(tmp_path, capsys, family,
                                                  index, fields):
    scenario = json.loads((SCENARIO_DIR / "showcase.json").read_text())
    scenario[family][index].update(fields)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(scenario))
    rc = run_command(["equilibrium", "--scenario", str(path),
                      "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "underflows" in err
    assert err.count("\n") == 1
