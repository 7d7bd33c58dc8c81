"""Seeded scenario generation."""

import json

import pytest

import run
from adnlab.scenario import loads_scenario
from generate import SCALE_HI, SCALE_LO, variant_text

BUNDLED = sorted(run.SCENARIO_DIR.glob("*.json"))


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_seed_zero_reproduces_bundled_bytes(path):
    text = path.read_text(encoding="utf-8")
    for variant in (0, 5):
        assert variant_text(text, path.stem, 0, variant) == text


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_other_seeds_scale_loads_and_converters_only(path):
    text = path.read_text(encoding="utf-8")
    base = json.loads(text)
    out = variant_text(text, path.stem, 7, 3)
    assert out == variant_text(text, path.stem, 7, 3)
    loads_scenario(out)
    varied = json.loads(out)
    for old, new in zip(base.get("zip_loads", []),
                        varied.get("zip_loads", [])):
        factor = new["p0"] / old["p0"]
        assert SCALE_LO <= factor <= SCALE_HI
        assert new.get("q0", 0.0) == pytest.approx(old.get("q0", 0.0)
                                                    * factor)
    for old, new in zip(base.get("converters", []),
                        varied.get("converters", [])):
        if "p_ref" in old:
            assert SCALE_LO <= new["p_ref"] / old["p_ref"] <= SCALE_HI
    for key in base:
        if key not in ("zip_loads", "converters"):
            assert varied[key] == base[key]


def test_seeds_and_variants_draw_different_factors():
    text = (run.SCENARIO_DIR / "secondary_4bus.json").read_text()
    outs = {variant_text(text, "secondary_4bus", seed, variant)
            for seed in (1, 2) for variant in (0, 1)}
    assert len(outs) == 4


def test_invalid_scenario_is_a_failed_study_not_a_crash(tmp_path, monkeypatch):
    bad = tmp_path / "bundled"
    bad.mkdir()
    (bad / "two_bus.json").write_text('{"buses": [], "bogus": 1}')
    monkeypatch.setattr(run, "SCENARIO_DIR", bad)
    studies = [run.Study("equilibrium", "two_bus", 0),
               run.Study("equilibrium", "missing", 0)]
    run.prepare(studies, 0, tmp_path / "work")
    for study in studies:
        assert study.error.startswith("scenario generation:")
        result = run.run_study(study, tmp_path / "out")
        assert result["problems"] == [study.error]
