"""Tests for the command-line front end."""

import hashlib
import itertools
import json
import platform
import re
from pathlib import Path

import numpy as np
import pytest

import adnlab.engine
import adnlab.network
import adnlab.secondary
from adnlab.cli import (
    CSV_CHUNK_LINES,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    _write_csv,
    run_command,
)
from adnlab.errors import SingularJacobianError
from adnlab.scenario import MAX_STEPS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def edited(tmp_path, stem, edit):
    """``scenarios/<stem>.json`` changed in place by ``edit`` and written
    under ``tmp_path``; returns the new file's path."""
    scenario = json.loads((SCENARIO_DIR / f"{stem}.json").read_text())
    edit(scenario)
    path = tmp_path / f"{stem}_edited.json"
    path.write_text(json.dumps(scenario))
    return path


def continuation(**settings):
    """An ``edit`` that updates the ``analysis.continuation`` block."""
    return lambda scenario: scenario["analysis"]["continuation"].update(
        settings)


@pytest.fixture
def two_bus_full_load(tmp_path):
    """Two-bus scenario at the base loading factor (lambda = 1)."""
    scenario = json.loads((SCENARIO_DIR / "two_bus.json").read_text())
    scenario["params"] = {}
    path = tmp_path / "two_bus_full.json"
    path.write_text(json.dumps(scenario))
    return path


class TestCommands:
    def test_equilibrium_writes_analytic_voltage(self, two_bus_full_load,
                                                 tmp_path):
        out = tmp_path / "eq"
        rc = run_command(["equilibrium", "--scenario",
                          str(two_bus_full_load), "--out", str(out),
                          "--quiet"])
        assert rc == EXIT_OK
        header, rows = read_csv(out / "bus_voltages.csv")
        v2 = {row[0]: float(row[1]) for row in rows}["b2"]
        assert v2 == pytest.approx(0.894427, abs=1e-5)

    def test_continue_reaches_the_analytic_nose(self, tmp_path):
        out = tmp_path / "cont"
        rc = run_command(["continue", "--scenario",
                          str(SCENARIO_DIR / "two_bus.json"),
                          "--out", str(out), "--quiet"])
        assert rc == EXIT_OK
        header, rows = read_csv(out / "branch.csv")
        lam_col = header.index("lambda")
        lam_max = max(float(row[lam_col]) for row in rows)
        assert lam_max * 0.8 == pytest.approx(1.0, rel=0.005)
        header, rows = read_csv(out / "bifurcations.csv")
        kinds = [row[0] for row in rows]
        assert kinds == ["SNB"]

    def test_branch_file_points_reverify(self, tmp_path):
        # 17 significant digits round-trip float64, so every stored branch
        # point still satisfies the equilibrium tolerance when re-evaluated
        out = tmp_path / "cont2"
        run_command(["continue", "--scenario",
                     str(SCENARIO_DIR / "two_bus.json"),
                     "--out", str(out), "--quiet"])
        from adnlab.scenario import load_scenario
        from adnlab.engine import newton_equilibrium
        import numpy as np
        scenario = load_scenario(SCENARIO_DIR / "two_bus.json")
        sys = scenario.build()
        p = scenario.base_params(sys)
        header, rows = read_csv(out / "branch.csv")
        lam_col = header.index("lambda")
        state_cols = [header.index(name) for name in sys.state_names]
        for row in rows[:: max(1, len(rows) // 20)]:
            x = np.array([float(row[c]) for c in state_cols])
            p_row = p.with_value("lambda", float(row[lam_col]))
            assert np.max(np.abs(sys.residual(x, p_row))) <= 1e-9

    def test_boundary2d_analytic_family(self, tmp_path):
        out = tmp_path / "b2d"
        rc = run_command(["boundary2d", "--scenario",
                          str(SCENARIO_DIR / "two_bus.json"),
                          "--out", str(out), "--quiet"])
        assert rc == EXIT_OK
        header, rows = read_csv(out / "boundary.csv")
        for row, x_val in zip(rows, (0.25, 0.5, 1.0)):
            assert row[2] == "SNB"
            assert float(row[1]) * 0.8 == pytest.approx(1.0 / (2 * x_val),
                                                        rel=0.01)

    def test_simulate_and_secondary_and_cf(self, tmp_path):
        rc = run_command(["simulate", "--scenario",
                          str(SCENARIO_DIR / "gfl_feeder.json"),
                          "--out", str(tmp_path / "sim"), "--quiet"])
        assert rc == EXIT_OK
        assert (tmp_path / "sim" / "trajectory.csv").exists()
        rc = run_command(["secondary", "--scenario",
                          str(SCENARIO_DIR / "secondary_4bus.json"),
                          "--out", str(tmp_path / "sec"), "--quiet"])
        assert rc == EXIT_OK
        header, rows = read_csv(tmp_path / "sec" / "secondary_voltages.csv")
        final_iter = max(int(row[0]) for row in rows)
        final = {row[1]: float(row[2]) for row in rows
                 if int(row[0]) == final_iter}
        assert max(abs(1.0 - v) for v in final.values()) <= 0.01
        rc = run_command(["cf", "--scenario",
                          str(SCENARIO_DIR / "cf_step.json"),
                          "--out", str(tmp_path / "cf"), "--quiet"])
        assert rc == EXIT_OK
        header, rows = read_csv(tmp_path / "cf" / "cf.csv")
        blocks = {row[3] for row in rows}
        assert {"bus", "pll_internal", "synchronization", "regulation",
                "total"} <= blocks
        manifest = json.loads((tmp_path / "cf" / "manifest.json").read_text())
        assert manifest["scenario"] == "cf-frequency-step"

    def test_simulate_runs_the_rotating_frequency_step(self, tmp_path):
        # cf_step's source rotates, so simulate runs the same rotating
        # transient as cf: the source angle grows at omega_offset = 1 rad/s
        out = tmp_path / "sim_cf"
        rc = run_command(["simulate", "--scenario",
                          str(SCENARIO_DIR / "cf_step.json"),
                          "--out", str(out), "--quiet"])
        assert rc == EXIT_OK
        header, rows = read_csv(out / "trajectory.csv")
        assert float(rows[-1][0]) == pytest.approx(4.0, rel=1e-12)
        theta_g = float(rows[-1][header.index("grid.theta_g")])
        assert theta_g == pytest.approx(4.0, rel=1e-9)


def test_showcase_continuation_work(tmp_path, monkeypatch):
    # each corrector iteration is one call of the generated difference
    # kernel, which runs a device again only for the perturbations that
    # reach its inputs; one residual call per perturbed state made 18 884
    # residual calls and 38 406 gfl_rates calls
    counts = {"residual": 0, "gfl_rates": 0}
    residual, gfl_rates = adnlab.engine.DaeSystem.residual, \
        adnlab.network.gfl_rates

    def counted_residual(self, x, p):
        counts["residual"] += 1
        return residual(self, x, p)

    def counted_gfl_rates(*args):
        counts["gfl_rates"] += 1
        return gfl_rates(*args)

    monkeypatch.setattr(adnlab.engine.DaeSystem, "residual",
                        counted_residual)
    monkeypatch.setattr(adnlab.network, "gfl_rates", counted_gfl_rates)
    rc = run_command(["continue", "--scenario",
                      str(SCENARIO_DIR / "showcase.json"),
                      "--out", str(tmp_path), "--quiet"])
    assert rc == EXIT_OK
    assert counts["residual"] <= 100
    assert counts["gfl_rates"] <= 30000


def _unboxed(data):
    for conv in data["converters"]:
        conv["val"].update(g_min=0.0, g_max=0.0, b_min=0.0, b_max=0.0)


def _singular_sensitivity(*args):
    raise SingularJacobianError("singular Jacobian at the equilibrium")


class TestSecondaryStatusLine:
    """Every outcome of the secondary loop prints one status line of the
    form ``secondary loop: <status> after N iteration(s)``, the line the
    benchmark reads the loop's outcome from."""

    OUTCOMES = pytest.mark.parametrize("edit, patch, status", [
        (None, None, "converged"),
        (_unboxed, None, "update stalled at iteration 0"),
        (lambda d: d["analysis"]["secondary"].update(max_iter=1), None,
         "iteration budget exhausted"),
        (None, _singular_sensitivity,
         "sensitivity failed at iteration 0: singular Jacobian at the "
         "equilibrium"),
    ], ids=["converged", "stalled", "budget", "aborted"])

    @staticmethod
    def _run(tmp_path, monkeypatch, edit, patch, *flags):
        scenario = json.loads((SCENARIO_DIR / "secondary_4bus.json")
                              .read_text())
        if edit is not None:
            edit(scenario)
        if patch is not None:
            monkeypatch.setattr(adnlab.secondary, "gain_sensitivity", patch)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(scenario))
        return run_command(["secondary", "--scenario", str(path),
                            "--out", str(tmp_path / "out"), *flags])

    @OUTCOMES
    def test_one_status_line(self, tmp_path, capsys, monkeypatch, edit,
                             patch, status):
        rc = self._run(tmp_path, monkeypatch, edit, patch)
        assert rc == EXIT_OK
        found = [re.match(r"^secondary loop: (.*) after \d+ iteration", line)
                 for line in capsys.readouterr().out.splitlines()]
        statuses = [m.group(1) for m in found if m]
        assert statuses == [status]

    @OUTCOMES
    def test_every_status_but_converged_reaches_the_manifest(
            self, tmp_path, capsys, monkeypatch, edit, patch, status):
        rc = self._run(tmp_path, monkeypatch, edit, patch, "--quiet")
        assert rc == EXIT_OK
        assert capsys.readouterr().out == ""
        manifest = json.loads((tmp_path / "out" / "manifest.json")
                              .read_text())
        assert manifest["warnings"] == ([] if status == "converged"
                                        else [status])

    def test_overflowing_sensitivity_names_its_gain(self, tmp_path, capsys):
        # c2's deviation v_nom - |v| is ~1e200, so its gain columns of the
        # update overflow; c3's stay finite
        scenario = json.loads((SCENARIO_DIR / "secondary_4bus.json")
                              .read_text())
        for conv in scenario["converters"]:
            if conv["id"] == "c2":
                conv["val"]["v_nom"] = 1e200
        path = tmp_path / "case.json"
        path.write_text(json.dumps(scenario))
        rc = run_command(["secondary", "--scenario", str(path),
                          "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == ("error: non-finite sensitivity data for gain "
                       "'c2.g_v'\n")

    def test_gain_override_outside_its_box_names_it(self, tmp_path, capsys):
        # ValGains checks the gain a device is built with; a params
        # override is checked against the same box before the loop starts
        scenario = json.loads((SCENARIO_DIR / "secondary_4bus.json")
                              .read_text())
        scenario["params"] = {"c2.g_v": 1000}
        path = tmp_path / "case.json"
        path.write_text(json.dumps(scenario))
        rc = run_command(["secondary", "--scenario", str(path),
                          "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == ("error: c2.g_v = 1000.0 is outside its tuning box "
                       "[-200.0, 200.0]\n")


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run_command(["frobnicate"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_missing_arguments_is_usage_error(self):
        assert run_command(["equilibrium"]) == EXIT_USAGE

    def test_numerical_failure_exits_2(self, tmp_path, two_bus_full_load,
                                       capsys):
        scenario = json.loads(two_bus_full_load.read_text())
        scenario["params"] = {"lambda": 2.0}    # beyond the nose
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(scenario))
        rc = run_command(["equilibrium", "--scenario", str(path),
                          "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("converters", "i_max", -1),
        ("branches", "r", "abc"),
        ("converters", "limiter_k", 0.5),
        ("buses", "b_sh", True),          # a bool is not a number
        ("sources", "rotating", "yes"),   # a flag is true or false
        ("buses", "id", 5),               # an id is a string
    ])
    def test_bad_device_field_is_one_error_line(self, tmp_path, capsys,
                                                section, key, value):
        scenario = json.loads((SCENARIO_DIR / "gfl_feeder.json").read_text())
        scenario[section][0][key] = value
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps(scenario))
        rc = run_command(["equilibrium", "--scenario", str(path),
                          "--out", str(tmp_path / "z"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}[0]: ")
        assert err.count("\n") == 1

    def test_non_text_name_is_one_error_line(self, tmp_path, capsys):
        scenario = json.loads((SCENARIO_DIR / "gfl_feeder.json").read_text())
        scenario["name"] = 5
        path = tmp_path / "bad_name.json"
        path.write_text(json.dumps(scenario))
        rc = run_command(["equilibrium", "--scenario", str(path),
                          "--out", str(tmp_path / "n"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: name: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("out, prefix", [
        ("taken", "error: --out taken: "),
        ("", "error: --out '': "),     # Path("") is the current directory
    ], ids=["file", "empty"])
    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys,
                                              monkeypatch, out, prefix):
        monkeypatch.chdir(tmp_path)
        if out:
            (tmp_path / out).write_text("not a directory\n")
        rc = run_command(["equilibrium", "--scenario",
                          str(SCENARIO_DIR / "two_bus.json"),
                          "--out", out, "--quiet"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ([out] if out else [])
        if out:
            assert (tmp_path / out).read_text() == "not a directory\n"

    def test_boundary2d_rejects_sweep_against_itself(self, tmp_path, capsys):
        # two_bus sweeps line.l in its boundary2d block
        path = edited(tmp_path, "two_bus", continuation(param="line.l"))
        out = tmp_path / "self"
        rc = run_command(["boundary2d", "--scenario", str(path),
                          "--out", str(out), "--quiet"])
        assert rc == EXIT_NUMERICAL
        assert "against itself" in capsys.readouterr().err
        assert not out.exists()

    def test_boundary2d_needs_its_block(self, tmp_path, capsys):
        out = tmp_path / "noblock"
        rc = run_command(["boundary2d", "--scenario",
                          str(SCENARIO_DIR / "gfl_feeder.json"),
                          "--out", str(out), "--quiet"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "error: scenario has no analysis.boundary2d block\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, block, setting", [
        ("simulate", "simulation", {"h": 0}),
        ("simulate", "simulation", {"t_end": -1}),
        ("continue", "continuation", {"h0": -1}),
    ])
    def test_non_positive_step_is_one_error_line(self, tmp_path, capsys,
                                                 command, block, setting):
        scenario = json.loads((SCENARIO_DIR / "gfl_feeder.json").read_text())
        scenario["analysis"][block] = setting
        path = tmp_path / "bad_step.json"
        path.write_text(json.dumps(scenario))
        rc = run_command([command, "--scenario", str(path),
                          "--out", str(tmp_path / "n"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        key, = setting
        assert err.startswith(f"error: analysis.{block}.{key}: ")
        assert err.count("\n") == 1

    def test_parameter_out_of_model_range_mid_branch(self, tmp_path, capsys):
        scenario = json.loads((SCENARIO_DIR / "gfl_feeder.json").read_text())
        scenario["analysis"]["continuation"].update(
            param="c1.i_max", direction=-1, param_min=-1)
        path = tmp_path / "i_max_down.json"
        path.write_text(json.dumps(scenario))
        rc = run_command(["continue", "--scenario", str(path),
                          "--out", str(tmp_path / "m"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: limiter magnitude must be positive")
        assert err.count("\n") == 1

    def test_continuation_start_outside_range_is_one_error_line(
            self, tmp_path, capsys):
        path = edited(tmp_path, "two_bus", continuation(param="line.l"))
        out = tmp_path / "outside"
        rc = run_command(["continue", "--scenario", str(path),
                          "--out", str(out), "--quiet"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: continuation of 'line.l' starts at "
                              "0.0015915494309189")
        assert "[param_min, param_max] = [0.05, 5.0]" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_absent_settings_block_runs_on_defaults(self, tmp_path):
        # secondary_4bus has no continuation block
        out = tmp_path / "defaults"
        rc = run_command(["continue", "--scenario",
                          str(SCENARIO_DIR / "secondary_4bus.json"),
                          "--out", str(out), "--quiet"])
        assert rc == EXIT_OK
        header, rows = read_csv(out / "branch.csv")
        lam = [float(row[1]) for row in rows]
        # the default range [0, 1e6] lets the branch pass its nose and
        # fall back below its start
        assert header[1] == "lambda" and max(lam) > lam[0] > lam[-1] >= 0.0

    # an empty name is unknown too
    @pytest.mark.parametrize("name", ["nosuch", ""],
                             ids=["nosuch", "empty"])
    @pytest.mark.parametrize("command, scenario", [
        ("continue", "gfl_feeder"), ("boundary2d", "two_bus")])
    def test_unknown_param_is_one_error_line(self, tmp_path, capsys,
                                             command, scenario, name):
        path = edited(tmp_path, scenario, continuation(param=name))
        rc = run_command([command, "--scenario", str(path),
                          "--out", str(tmp_path / "p"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown parameter {name!r}; known: ")
        assert "lambda" in err and "line.l" in err
        assert err.count("\n") == 1
        # the name is checked once the output directory is made, and the
        # failed run removes it again
        assert not (tmp_path / "p").exists()

    def test_failed_run_keeps_a_directory_it_did_not_make(self, tmp_path,
                                                          capsys):
        path = edited(tmp_path, "two_bus", continuation(param="nosuch"))
        out = tmp_path / "existing"
        out.mkdir()
        rc = run_command(["continue", "--scenario", str(path),
                          "--out", str(out), "--quiet"])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith(
            "error: unknown parameter 'nosuch'")
        assert out.is_dir() and not any(out.iterdir())

    @pytest.mark.parametrize("command", ["equilibrium", "continue",
                                         "simulate"])
    def test_network_without_buses_is_one_error_line(self, tmp_path, capsys,
                                                     command):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"buses": []}))
        rc = run_command([command, "--scenario", str(path),
                          "--out", str(tmp_path / "e"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: network has no buses\n"

    @pytest.mark.parametrize("command, flag, value", [
        ("continue", "--steps", "3"), ("boundary2d", "--grid", "0:1:3"),
        ("continue", "--param", "lambda")])
    def test_removed_override_flag_is_usage_error(self, tmp_path, capsys,
                                                  command, flag, value):
        # the scenario alone sets what a command computes
        out = tmp_path / "old"
        rc = run_command([command, "--scenario",
                          str(SCENARIO_DIR / "two_bus.json"),
                          "--out", str(out), "--quiet", flag, value])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert err.endswith(
            f"\nerror: unrecognized arguments: {flag} {value}\n")
        assert err.count("error:") == 1
        assert not out.exists()

    @pytest.mark.parametrize("num", [1001, 10 ** 12])
    def test_grid_above_point_bound_is_usage_error(self, tmp_path, capsys,
                                                   num):
        # no command reads a grid from the command line, so even a huge
        # one is refused before any row is traced
        rc = run_command(["boundary2d", "--scenario",
                          str(SCENARIO_DIR / "gfl_feeder.json"),
                          "--out", str(tmp_path / "g"), "--quiet",
                          "--grid", f"0.5:1:{num}"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "Traceback" not in err

    def test_step_count_above_bound_exits_2_before_running(self, tmp_path,
                                                           capsys):
        # an infinite step count cannot reach an allocation even unchecked:
        # round(inf) raises first
        scenario = json.loads((SCENARIO_DIR / "cf_step.json").read_text())
        scenario["analysis"]["simulation"].update(t_end=1e300, h=1e-300)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(scenario))
        rc = run_command(["cf", "--scenario", str(path),
                          "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: analysis.simulation.t_end: ")
        assert f"more than {MAX_STEPS}" in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_non_numeric_analysis_setting_is_one_error_line(self, tmp_path,
                                                           capsys):
        scenario = json.loads((SCENARIO_DIR / "gfl_feeder.json").read_text())
        scenario["analysis"]["simulation"]["t_end"] = "abc"
        path = tmp_path / "bad_setting.json"
        path.write_text(json.dumps(scenario))
        rc = run_command(["simulate", "--scenario", str(path),
                          "--out", str(tmp_path / "s"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: analysis.simulation.t_end: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, base, keys, value, state, mass", [
        ("equilibrium", "two_bus", ("params",),
         {"lambda": 0.25, "line.l": -0.001}, "line.id", -0.001),
        ("continue", "two_bus", ("params",),
         {"lambda": 0.25, "line.l": -0.001}, "line.id", -0.001),
        ("equilibrium", "showcase", ("params",), {"grid.l_g": -1e-5},
         "grid.id", -1e-5),
        ("simulate", "gfl_feeder", ("analysis", "simulation", "param_steps"),
         {"line.l": -0.001}, "line.id", -0.001),
        ("boundary2d", "two_bus", ("analysis", "boundary2d", "grid"),
         [-0.001, 0.001], "line.id", -0.001),
    ], ids=["equilibrium-params", "continue-params", "showcase-params",
            "simulate-param_steps", "boundary2d-grid"])
    def test_negative_mass_is_one_error_line(self, tmp_path, capsys, command,
                                             base, keys, value, state, mass):
        scenario = json.loads((SCENARIO_DIR / f"{base}.json").read_text())
        block = scenario
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
        path = tmp_path / "negative_mass.json"
        path.write_text(json.dumps(scenario))
        rc = run_command([command, "--scenario", str(path),
                          "--out", str(tmp_path / "m"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == f"error: state {state!r} has negative mass {mass:g}\n"

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = run_command(["equilibrium", "--scenario", str(path),
                          "--out", str(tmp_path / "y"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        assert "line" in capsys.readouterr().err


class TestManifestAndDeterminism:
    def test_manifest_lists_existing_hashed_outputs(self, tmp_path):
        out = tmp_path / "eq"
        run_command(["equilibrium", "--scenario",
                     str(SCENARIO_DIR / "two_bus.json"), "--out", str(out),
                     "--quiet"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "equilibrium"
        assert manifest["outputs"]
        import hashlib
        for entry in manifest["outputs"]:
            path = out / entry["path"]
            data = path.read_bytes()
            assert len(data) == entry["bytes"] > 0
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_manifest_records_the_scenario_and_versions(self, tmp_path):
        # re-running a command on the manifest's canonical scenario
        # reproduces the run: the same scenario hash and output digests
        for command, scenario in (("continue", "two_bus"),
                                  ("boundary2d", "two_bus"),
                                  ("cf", "cf_step")):
            manifests = []
            path = SCENARIO_DIR / f"{scenario}.json"
            for tag in ("first", "rerun"):
                out = tmp_path / command / tag
                rc = run_command([command, "--scenario", str(path), "--out",
                                  str(out), "--quiet"])
                assert rc == EXIT_OK
                manifests.append(
                    json.loads((out / "manifest.json").read_text()))
                path = out.with_suffix(".json")
                path.write_text(
                    json.dumps(manifests[-1]["canonical_scenario"]))
            first, rerun = manifests
            assert first["python_version"] == platform.python_version()
            assert first["numpy_version"] == np.__version__
            assert rerun["scenario_hash"] == first["scenario_hash"]
            assert rerun["outputs"] == first["outputs"]

    def test_truncated_branch_reaches_the_manifest(self, tmp_path, capsys):
        # the showcase branch truncates on the LTC tap's kinked row
        out = tmp_path / "show"
        rc = run_command(["continue", "--scenario",
                          str(SCENARIO_DIR / "showcase.json"),
                          "--out", str(out), "--quiet"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == ""
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == [
            "corrector failed at minimal step (s=13.98, lam=0.212996): "
            "singular augmented Jacobian"]

    def test_boundary_error_row_reaches_the_manifest(self, tmp_path,
                                                     capsys):
        # at lambda = 1 the row at X = 1.0 (nose at 0.625) has no
        # equilibrium; the rows at X = 0.25 and 0.5 do
        scenario = json.loads((SCENARIO_DIR / "two_bus.json").read_text())
        scenario["params"] = {"lambda": 1.0}
        path = tmp_path / "loaded.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "bd"
        rc = run_command(["boundary2d", "--scenario", str(path),
                          "--out", str(out), "--quiet"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == ""
        _, rows = read_csv(out / "boundary.csv")
        assert [row[2] for row in rows] == ["SNB", "SNB", "error"]
        (warning,) = json.loads((out / "manifest.json").read_text())[
            "warnings"]
        assert warning.startswith(f"line.l = {float(rows[2][0])!r}: "
                                  "Newton stalled at iteration ")

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = run_command(["continue", "--scenario",
                              str(SCENARIO_DIR / "two_bus.json"),
                              "--out", str(out), "--quiet"])
            assert rc == EXIT_OK
            outs.append(out)
        for name in ("branch.csv", "bifurcations.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def per_cell_csv(header, rows) -> bytes:
    """Reference writer: one line per row, every number formatted on its
    own with ``format(float(v), ".17g")``."""
    return b"".join(
        ",".join(cell if isinstance(cell, str) else format(float(cell), ".17g")
                 for cell in row).encode("utf-8") + b"\n"
        for row in itertools.chain((header,), rows))


class TestCsvWriter:
    CELLS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
             -1.7976931348623157e308, 7, -2 ** 60, True, np.float64(0.1),
             np.float64(-0.0), np.int64(-3), np.float32(0.1), 2.0 / 3.0)

    def check(self, path, header, rows):
        sha, size = _write_csv(path, header, iter(rows))
        data = path.read_bytes()
        assert data == per_cell_csv(header, rows)
        assert (sha, size) == (hashlib.sha256(data).hexdigest(), len(data))

    def test_same_bytes_as_per_cell_writer(self, tmp_path):
        cells = itertools.cycle(self.CELLS)
        rows = [(f"r{k}", *itertools.islice(cells, 4), "blk", k * 1e-4)
                for k in range(2 * CSV_CHUNK_LINES + 3)]
        self.check(tmp_path / "mixed.csv", ("id", "a", "b", "c", "d",
                                            "block", "t"), rows)

    @pytest.mark.parametrize("count", [0, 1, CSV_CHUNK_LINES - 1,
                                       CSV_CHUNK_LINES, CSV_CHUNK_LINES + 1])
    def test_same_bytes_at_chunk_edges(self, tmp_path, count):
        rng = np.random.default_rng(count)
        rows = [(float(t), *row.tolist())
                for t, row in zip(rng.normal(size=count),
                                  rng.normal(size=(count, 3)))]
        self.check(tmp_path / "numbers.csv", ("t", "x", "y", "z"), rows)

    @pytest.mark.parametrize("second", [(1.0, 2.0), ("b", "c")],
                             ids=["number-for-string", "string-for-number"])
    def test_row_layout_differing_from_the_first_raises(self, tmp_path,
                                                         second):
        with pytest.raises(TypeError):
            _write_csv(tmp_path / "bad.csv", ("k", "v"), [("a", 1.0), second])
