"""Tests for scenario parsing, validation and canonical serialization."""

import inspect
import json
from pathlib import Path

import pytest

from adnlab.contin import ContinuationSettings
from adnlab.errors import ScenarioError
from adnlab.scenario import MAX_STEPS, load_scenario, loads_scenario
from adnlab.secondary import run_recursive

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
{
  "buses": [{"id": "b1"}, {"id": "b2"}],
  "branches": [{"id": "line", "from": "b1", "to": "b2", "x": 0.5}],
  "sources": [{"id": "grid", "bus": "b1"}],
  "zip_loads": [{"id": "load", "bus": "b2", "p0": 0.8}]
}
"""


class TestParsing:
    def test_minimal_scenario_with_defaults(self):
        sc = loads_scenario(MINIMAL)
        assert len(sc.model.buses) == 2
        assert sc.model.buses[0].b_sh == 1e-4          # default applied
        assert sc.model.branches[0].r == 0.0
        assert sc.canonical["base"]["f_hz"] == 50.0
        assert sc.name == "scenario"

    def test_dangling_bus_reference(self):
        bad = MINIMAL.replace('"bus": "b1"', '"bus": "B9"')
        with pytest.raises(ScenarioError, match="B9"):
            loads_scenario(bad)

    def test_unknown_key_rejected(self):
        bad = MINIMAL.replace('"p0": 0.8', '"p0": 0.8, "pq": 1')
        with pytest.raises(ScenarioError, match="pq"):
            loads_scenario(bad)

    def test_missing_required_key(self):
        bad = MINIMAL.replace('"x": 0.5', '"r": 0.1')
        with pytest.raises(ScenarioError, match="x"):
            loads_scenario(bad)

    def test_parse_error_reports_line_and_column(self):
        with pytest.raises(ScenarioError, match=r"line \d+, column \d+"):
            loads_scenario("{\n  \"buses\": [,]\n}")

    # a list or object kind is unhashable, so no dict lookup may see it
    @pytest.mark.parametrize("kind", ["vsm", [], {}, 3, None, True],
                             ids=["vsm", "list", "object", "3", "null",
                                  "true"])
    def test_unknown_converter_kind(self, kind):
        bad = json.loads(MINIMAL)
        bad["converters"] = [{"id": "c", "bus": "b2", "kind": kind}]
        with pytest.raises(ScenarioError) as info:
            loads_scenario(json.dumps(bad))
        assert str(info.value) == f"converters[0]: unknown kind {kind!r}"

    def test_unknown_param_override(self):
        bad = json.loads(MINIMAL)
        bad["params"] = {"does.not.exist": 1.0}
        sc = loads_scenario(json.dumps(bad))
        sys = sc.build()
        with pytest.raises(ScenarioError, match="does.not.exist"):
            sc.base_params(sys)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                         "1e999", "-1e999"])
    def test_non_finite_number_rejected(self, literal):
        bad = MINIMAL.replace('"x": 0.5', f'"x": {literal}')
        with pytest.raises(ScenarioError, match="finite"):
            loads_scenario(bad)

    @pytest.mark.parametrize("edit, where", [
        (lambda d: d["branches"][0].update(x="abc"), "branches[0]"),
        (lambda d: d["branches"][0].update(x=10 ** 400), "branches[0]"),
        (lambda d: d["zip_loads"][0].update(p0=[1]), "zip_loads[0]"),
        (lambda d: d.update(converters=[{"id": "c", "bus": "b2",
                                         "i_max": -1}]), "converters[0]"),
        (lambda d: d.update(converters=[{"id": "c", "bus": "b2", "val": {
            "mode": "qval", "g_v": 9.0}}]), "converters[0]"),
        (lambda d: d.update(base={"f_hz": "fifty"}), "base"),
        (lambda d: d.update(base={"f_hz": 0}), "base"),
        (lambda d: d.update(params={"lambda": "high"}), "params"),
        (lambda d: d.update(buses=5), "buses"),
        (lambda d: d["branches"][0].update(r="nan"), "branches[0]"),
        (lambda d: d.update(analysis={"simulation": {"t_end": "abc"}}),
         "analysis.simulation.t_end"),
        (lambda d: d.update(analysis={"simulation": {"param_steps": 5}}),
         "analysis.simulation.param_steps"),
        (lambda d: d.update(analysis={"continuation": {"max_steps": 2.5}}),
         "analysis.continuation.max_steps"),
        (lambda d: d.update(analysis={"secondary": {"weights": {"b2": "x"}}}),
         "analysis.secondary.weights"),
        (lambda d: d.update(analysis={"boundary2d": {
            "param2": "line.l", "grid": [0.002, 0.001]}}),
         "analysis.boundary2d.grid"),
        (lambda d: d.update(analysis={"cf": {"bus": "b2", "window": "two"}}),
         "analysis.cf.window"),
        pytest.param(
            lambda d: d.update(analysis={"cf": {"bus": "b2",
                                                "converter": False}}),
            "analysis.cf.converter", id="cf-converter-false"),
        pytest.param(lambda d: d.update(analysis={"continuation": {
            "param": 5}}), "analysis.continuation.param",
            id="continuation-param-number"),
        pytest.param(lambda d: d.update(analysis={"simulation": {"h": 0}}),
                     "analysis.simulation.h", id="simulation-h-zero"),
        pytest.param(
            lambda d: d.update(analysis={"simulation": {"t_end": -1}}),
            "analysis.simulation.t_end", id="simulation-t_end-negative"),
        pytest.param(
            lambda d: d.update(analysis={"simulation": {"h": -2e-4}}),
            "analysis.simulation.h", id="simulation-h-negative"),
        pytest.param(
            lambda d: d.update(analysis={"simulation": {"t_end": 0}}),
            "analysis.simulation.t_end", id="simulation-t_end-zero"),
        pytest.param(
            lambda d: d.update(analysis={"continuation": {"h0": -1}}),
            "analysis.continuation.h0", id="continuation-h0-negative"),
        pytest.param(
            lambda d: d.update(analysis={"continuation": {"h0": 0.1}}),
            "analysis.continuation.h_max", id="continuation-h_max-below-h0"),
        pytest.param(
            lambda d: d.update(analysis={"continuation": {"h_min": 0}}),
            "analysis.continuation.h_min", id="continuation-h_min-zero"),
        pytest.param(
            lambda d: d.update(analysis={"continuation": {
                "param_min": 3.0, "param_max": 1.0}}),
            "analysis.continuation.param_max",
            id="continuation-param_max-below-param_min"),
        pytest.param(
            lambda d: d.update(analysis={"continuation": {"max_steps": 0}}),
            "analysis.continuation.max_steps",
            id="continuation-max_steps-zero"),
        pytest.param(lambda d: d.update(analysis={"simulation": 0}),
                     "analysis.simulation", id="simulation-not-an-object"),
        pytest.param(
            lambda d: d.update(analysis={"simulation": {"t_end": 1.0,
                                                        "h": 0.3}}),
            "analysis.simulation.t_end", id="simulation-t_end-not-whole-steps"),
        pytest.param(
            lambda d: d.update(analysis={"simulation": {"t_end": 1e-4}}),
            "analysis.simulation.t_end", id="simulation-t_end-below-one-step"),
        pytest.param(
            lambda d: d.update(analysis={"simulation": {"t_end": 1e3,
                                                        "h": 1e-4}}),
            "analysis.simulation.t_end", id="simulation-steps-above-bound"),
        pytest.param(
            lambda d: d.update(analysis={"simulation": {"t_end": 1e300,
                                                        "h": 1e-300}}),
            "analysis.simulation.t_end", id="simulation-steps-overflow"),
        pytest.param(
            lambda d: d.update(analysis={"secondary": {"max_iter": -3}}),
            "analysis.secondary.max_iter", id="secondary-max_iter-negative"),
        pytest.param(
            lambda d: d.update(analysis={"secondary": {"alpha": 0.0}}),
            "analysis.secondary.alpha", id="secondary-alpha-zero"),
        pytest.param(
            lambda d: d.update(analysis={"secondary": {"alpha": 2.0}}),
            "analysis.secondary.alpha", id="secondary-alpha-above-one"),
        pytest.param(
            lambda d: d.update(analysis={"cf": {"bus": "b2", "window": -4}}),
            "analysis.cf.window", id="cf-window-negative"),
        pytest.param(
            lambda d: d.update(analysis={"cf": {"bus": "b2",
                                                "window": 10 ** 15}}),
            "analysis.cf.window", id="cf-window-above-samples"),
        # the CSV artifacts write ids unquoted
        pytest.param(lambda d: d["buses"][1].update(id="b,2"), "buses[1]",
                     id="bus-id-comma"),
        pytest.param(lambda d: d["zip_loads"][0].update(bus='b"2'),
                     "zip_loads[0]", id="load-bus-quote"),
        pytest.param(lambda d: d["branches"][0].update({"from": "b\r1"}),
                     "branches[0]", id="branch-from-cr"),
        pytest.param(lambda d: d["branches"][0].update(to="b\n2"),
                     "branches[0]", id="branch-to-lf"),
    ])
    def test_bad_value_names_its_entry(self, edit, where):
        data = json.loads(MINIMAL)
        edit(data)
        with pytest.raises(ScenarioError) as info:
            loads_scenario(json.dumps(data))
        assert str(info.value).startswith(f"{where}: ")

    @pytest.mark.parametrize("analysis, where", [
        pytest.param({"cf": {"bus": "nosuch"}}, "analysis.cf.bus",
                     id="cf-bus"),
        pytest.param({"cf": {"bus": "b2", "converter": "c9"}},
                     "analysis.cf.converter", id="cf-converter"),
        pytest.param({"cf": {"bus": "b2", "converter": ""}},
                     "analysis.cf.converter", id="cf-converter-empty"),
        pytest.param({"secondary": {"weights": {"b2": 1.0, "b9": 5.0}}},
                     "analysis.secondary.weights", id="secondary-weights"),
    ])
    def test_unknown_id_names_its_key(self, analysis, where):
        data = json.loads(MINIMAL)
        data["converters"] = [{"id": "c1", "bus": "b2"}]
        data["analysis"] = analysis
        with pytest.raises(ScenarioError) as info:
            loads_scenario(json.dumps(data))
        assert str(info.value).startswith(f"{where}: unknown id ")

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: d.update(base={"s_mva": 1}),
                     "base: unknown key(s) 's_mva'", id="base-s_mva"),
        # a cf block runs the simulation block; it holds no run settings
        pytest.param(
            lambda d: d.update(analysis={"cf": {"bus": "b2", "t_end": 4.0}}),
            "analysis.cf: unknown key(s) 't_end'", id="cf-t_end"),
    ])
    def test_retired_key_is_unknown(self, edit, message):
        data = json.loads(MINIMAL)
        edit(data)
        with pytest.raises(ScenarioError) as info:
            loads_scenario(json.dumps(data))
        assert str(info.value) == message

    @pytest.mark.parametrize("params, kind", [([1], "list"), ("x", "str")])
    def test_params_must_be_an_object(self, params, kind):
        data = json.loads(MINIMAL)
        data["params"] = params
        with pytest.raises(ScenarioError) as info:
            loads_scenario(json.dumps(data))
        assert str(info.value) == f"params: expected an object, got {kind}"

    def test_params_null_stands_for_no_overrides(self):
        data = json.loads(MINIMAL)
        data["params"] = None
        sc = loads_scenario(json.dumps(data))
        assert sc.param_overrides == {}
        assert sc.canonical_json() == loads_scenario(MINIMAL).canonical_json()

    def test_step_count_bound_is_inclusive(self):
        # loading allocates nothing, so the largest step count is safe here
        data = json.loads(MINIMAL)
        data["analysis"] = {"simulation": {"t_end": MAX_STEPS * 1e-3,
                                           "h": 1e-3}}
        sc = loads_scenario(json.dumps(data))
        assert sc.analysis["simulation"]["t_end"] == MAX_STEPS * 1e-3

    def test_step_count_whole_up_to_rounding(self):
        data = json.loads(MINIMAL)
        data["analysis"] = {"simulation": {"t_end": 0.3, "h": 0.1}}
        sc = loads_scenario(json.dumps(data))     # 0.3 / 0.1 = 2.9999999999999996
        assert sc.analysis["simulation"]["t_end"] == 0.3

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/path.json")

    def test_file_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value).startswith(f"scenario file {path} is not UTF-8")


class TestCanonicalForm:
    def test_round_trip_is_byte_identical(self):
        sc = loads_scenario(MINIMAL)
        text = sc.canonical_json()
        again = loads_scenario(text).canonical_json()
        assert text == again

    def test_bundled_scenarios_round_trip(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            sc = load_scenario(path)
            text = sc.canonical_json()
            assert loads_scenario(text).canonical_json() == text, path.name

    def test_absent_blocks_without_required_keys_take_defaults(self):
        sc = loads_scenario(MINIMAL)
        assert sorted(sc.analysis) == ["continuation", "secondary",
                                       "simulation"]
        assert sc.analysis["continuation"]["h0"] == 0.02
        assert sc.analysis["simulation"]["param_steps"] == {}
        assert sc.analysis["secondary"]["weights"] == {}
        # the canonical form (and so the scenario hash) holds given blocks only
        assert sc.canonical["analysis"] == {}

    def test_analysis_defaults_are_the_library_defaults(self):
        sc = loads_scenario(MINIMAL)
        cont = dict(sc.analysis["continuation"])
        assert cont.pop("param") == "lambda"
        assert ContinuationSettings(**cont) == ContinuationSettings()
        signature = inspect.signature(run_recursive).parameters
        for key in ("alpha", "max_iter", "tol_v"):
            assert signature[key].default == \
                sc.analysis["secondary"][key], key

    def test_reactance_to_inductance_conversion(self):
        sc = loads_scenario(MINIMAL)
        assert sc.model.branches[0].l == pytest.approx(0.5 / sc.model.omega0)


class TestBundledScenarios:
    def test_all_build_and_carry_analysis(self):
        names = {p.name for p in SCENARIO_DIR.glob("*.json")}
        assert {"two_bus.json", "gfl_feeder.json", "secondary_4bus.json",
                "cf_step.json", "showcase.json"} <= names
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            sc = load_scenario(path)
            sys = sc.build()
            assert sys.n > 0
            assert sc.name == json.loads(path.read_text())["name"]

    def test_showcase_has_every_device_family(self):
        sc = load_scenario(SCENARIO_DIR / "showcase.json")
        m = sc.model
        assert m.ltcs and m.machines and m.zip_loads and m.gfls and m.gfms
        modes = {c.val_mode for c in m.gfls}
        assert {"qval", "dval"} <= modes
