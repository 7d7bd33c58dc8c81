"""Each correctness check passes on real artifacts and fails on a
deliberately corrupted copy."""

import json
import shutil

import pytest

import checks
import run
from adnlab.cli import run_command
from adnlab.scenario import load_scenario


def canonical(name):
    return load_scenario(run.SCENARIO_DIR / f"{name}.json").canonical


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    for command, name in (("boundary2d", "two_bus"),
                          ("secondary", "secondary_4bus"),
                          ("cf", "cf_step")):
        assert run_command([command, "--scenario",
                            str(run.SCENARIO_DIR / f"{name}.json"),
                            "--out", str(root / command), "--quiet"]) == 0
    return root


@pytest.fixture
def copy_of(artifacts, tmp_path):
    def make(command):
        dst = tmp_path / command
        shutil.copytree(artifacts / command, dst)
        return dst
    return make


def rewrite_cell(path, row_index, col, value):
    lines = path.read_text().splitlines()
    cells = lines[row_index].split(",")
    cells[col] = value
    lines[row_index] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_clean_artifacts_pass_every_check(artifacts):
    assert checks.study_problems("boundary2d", artifacts / "boundary2d",
                                 canonical("two_bus"), check_nose=True) == []
    assert checks.study_problems("secondary", artifacts / "secondary",
                                 canonical("secondary_4bus"), False) == []
    assert checks.study_problems("cf", artifacts / "cf",
                                 canonical("cf_step"), False) == []


def test_manifest_hash_mismatch_fails(copy_of):
    out = copy_of("boundary2d")
    with open(out / "boundary.csv", "a") as handle:
        handle.write("0.1,1,SNB\n")
    assert any("sha256" in p for p in checks.manifest_problems(out))


def test_manifest_missing_file_fails(copy_of):
    out = copy_of("boundary2d")
    (out / "boundary.csv").unlink()
    assert checks.manifest_problems(out) == ["boundary.csv: listed but missing"]


def test_nose_off_by_more_than_tolerance_fails(copy_of):
    out = copy_of("boundary2d")
    rewrite_cell(out / "boundary.csv", 1, 1, "2.5000100000000000")
    problems = checks.nose_problems(out, canonical("two_bus"))
    assert len(problems) == 1 and "lambda_star" in problems[0]


def test_nose_includes_the_load_bus_shunt():
    scenario = canonical("two_bus")
    line_l = 0.0031830988618379067           # X = 1 pu
    with_shunt = checks.analytic_nose(scenario, line_l)
    scenario["buses"][1]["b_sh"] = 0.0
    assert checks.analytic_nose(scenario, line_l) == pytest.approx(0.625)
    assert with_shunt / 0.625 - 1.0 == pytest.approx(1e-6, rel=1e-5)


def test_cf_additivity_violation_fails(copy_of):
    out = copy_of("cf")
    lines = (out / "cf.csv").read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.endswith(",total"))
    t, rho, omega, block = lines[k].split(",")
    rewrite_cell(out / "cf.csv", k, 2, repr(float(omega) + 2e-6))
    problems = checks.cf_additivity_problems(out)
    assert len(problems) == 1 and "additivity" in problems[0]


def test_secondary_objective_increase_fails(copy_of):
    out = copy_of("secondary")
    path = out / "secondary_gains.csv"
    header, rows = checks.read_rows(path)
    last = len(rows)                          # 1-based line of the last row
    rewrite_cell(path, last, 4, repr(float(rows[0][4]) * 2.0))
    problems = checks.secondary_problems(out, canonical("secondary_4bus"))
    assert any("objective rose" in p for p in problems)


def test_secondary_gain_outside_box_fails(copy_of):
    out = copy_of("secondary")
    rewrite_cell(out / "secondary_gains.csv", 1, 2, "200.5")
    problems = checks.secondary_problems(out, canonical("secondary_4bus"))
    assert any("outside" in p for p in problems)


def test_csv_difference_between_passes_fails():
    study = run.Study("cf", "cf_step", 0)
    same = {"problems": [], "hashes": {"cf.csv": "a"}}
    other = {"problems": [], "hashes": {"cf.csv": "b"}}
    passes = [[dict(same)], [dict(same, problems=[])], [other]]
    run.mark_nondeterminism([study], passes)
    assert [p[0]["problems"] for p in passes] == [
        [], [], ["CSV bytes differ between passes"]]


def test_degradations_are_read_from_stdout_and_boundary_rows(copy_of):
    out = copy_of("boundary2d")
    assert checks.degradations("boundary2d", "", out) == []
    rewrite_cell(out / "boundary.csv", 2, 2, "error")
    stdout = ("wrote x\nbranch truncated: corrector failed\n"
              "secondary loop: converged after 4 iteration(s)\n"
              "secondary loop: iteration budget exhausted after 30 "
              "iteration(s)\n")
    found = checks.degradations("boundary2d", stdout, out)
    assert len(found) == 3
    assert found[0].startswith("branch truncated:")
    assert "budget exhausted" in found[1]
    assert found[2].endswith(": error")


def test_failed_exit_code_is_a_failed_study(tmp_path):
    study = run.Study("boundary2d", "gfl_feeder", 0)
    run.prepare([study], 0, tmp_path / "work")
    result = run.run_study(study, tmp_path / "out")
    assert result["problems"] and result["problems"][0].startswith(
        "exit code 2: error:")
