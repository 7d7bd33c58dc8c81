"""Layout invariance: the order of the rows of a scenario's tables does not
move a result.

Each bundled scenario is loaded once as written and once with every device
table, the buses included, in reverse order.  States and gains are compared
by name, so the different state order of the two builds does not matter:
the equilibrium of every scenario, the bifurcation records of ``continue``
on the scenarios the command reads, and the final gains of ``secondary``.
"""

import json
from pathlib import Path

import pytest

from adnlab.contin import ContinuationSettings, continue_branch, locate_all
from adnlab.engine import newton_equilibrium
from adnlab.scenario import loads_scenario
from adnlab.secondary import WeightVector, run_recursive

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))
TABLES = ("buses", "branches", "sources", "zip_loads", "machines", "ltcs",
          "converters")


def _layouts(stem):
    """The scenario as written and with every table reversed."""
    data = json.loads((SCENARIO_DIR / f"{stem}.json").read_text())
    flipped = {**data, **{table: data[table][::-1]
                          for table in TABLES if table in data}}
    return [loads_scenario(json.dumps(d)) for d in (data, flipped)]


def _equilibrium(scenario):
    sys = scenario.build()
    p = scenario.base_params(sys)
    return sys, p, newton_equilibrium(sys, sys.initial_guess(), p)


@pytest.mark.parametrize("stem", SCENARIOS)
def test_equilibrium_states_do_not_depend_on_layout(stem):
    states = []
    for scenario in _layouts(stem):
        sys, _, sol = _equilibrium(scenario)
        states.append(dict(zip(sys.state_names, sol.x)))
    bundled, flipped = states
    assert list(bundled) != list(flipped)       # the layouts differ
    assert bundled.keys() == flipped.keys()
    for name, value in bundled.items():
        assert flipped[name] == pytest.approx(value, rel=0.0, abs=1e-12), name


@pytest.mark.parametrize("stem", ["two_bus", "gfl_feeder", "showcase"])
def test_bifurcation_records_do_not_depend_on_layout(stem):
    found = []
    for scenario in _layouts(stem):
        sys, p, sol = _equilibrium(scenario)
        cfg = dict(scenario.analysis["continuation"])
        param = cfg.pop("param")
        branch = continue_branch(sys, sol, param, ContinuationSettings(**cfg))
        found.append(locate_all(sys, branch, p))
    bundled, flipped = found
    assert bundled
    assert [r.kind for r in flipped] == [r.kind for r in bundled]
    for a, b in zip(bundled, flipped):
        assert b.lam == pytest.approx(a.lam, rel=1e-8)


def test_secondary_gains_do_not_depend_on_layout():
    gains = []
    for scenario in _layouts("secondary_4bus"):
        sys = scenario.build()
        cfg = scenario.analysis["secondary"]
        weights = {b: cfg["weights"].get(b, cfg["default_weight"])
                   for b in sys.bus_ids}
        history = run_recursive(
            sys, scenario.base_params(sys),
            WeightVector(weights, rho=cfg["rho"]), max_iter=cfg["max_iter"],
            tol_v=cfg["tol_v"], alpha=cfg["alpha"])
        gains.append(history.iterations[-1]["gains"])
    bundled, flipped = gains
    assert bundled and bundled.keys() == flipped.keys()
    for conv_id, pair in bundled.items():
        assert flipped[conv_id] == pytest.approx(pair, rel=0.0, abs=1e-6)
