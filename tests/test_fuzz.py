"""Device-field fuzzing: no bad number in a device ends in a traceback.

Every schema key of every ``showcase.json`` device, defaulted keys and
the ``val`` sub-keys included, is set in turn to each value of
:data:`VALUES`, and ``equilibrium`` runs in-process on the result.  The
run must exit 0 (a model that still solves), 2 (one ``error:`` line) or
64, and no exception may escape ``run_command``.  The sweep runs a fixed
half of the mutations, every second one in schema order, to stay within
a few seconds; the defects the sweep found are pinned by name as well.
A second sweep runs ``secondary`` on ``secondary_4bus.json`` over every
key of its first converter and of ``analysis.secondary``, each set to
every value of :data:`VALUES`.  A ``RuntimeWarning`` fails a run too:
numpy prints it to stderr beside the ``error:`` line.
"""

import json
import traceback
import warnings
from pathlib import Path

import pytest

from adnlab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, run_command
from adnlab.scenario import (BRANCH_FIELDS, BUS_FIELDS, GFL_FIELDS,
                             GFM_FIELDS, LTC_FIELDS, MACHINE_FIELDS,
                             SECONDARY_FIELDS, SOURCE_FIELDS, VAL_FIELDS,
                             ZIP_FIELDS)

SHOWCASE = Path(__file__).resolve().parent.parent / "scenarios" / "showcase.json"
SECONDARY_4BUS = SHOWCASE.with_name("secondary_4bus.json")

VALUES = (0, -1, 5e-324, 1e200, -1e200, 1e308)

_SCHEMAS = {"buses": BUS_FIELDS, "branches": BRANCH_FIELDS,
            "sources": SOURCE_FIELDS, "zip_loads": ZIP_FIELDS,
            "machines": MACHINE_FIELDS, "ltcs": LTC_FIELDS}

# Mutations that ended in a traceback before they were mended.
REPRODUCERS = (
    ("buses", "f1", "b_sh", 1e308),         # Newton evaluated an overflow
    ("converters", "bat", "tau_p", -1),     # negative GFM filter constant
    ("converters", "bat", "tau_q", -1),
    ("machines", "im1", "r_r", 0),          # t0' divided by zero
    ("buses", "f1", "v_d", 5e-324),         # ZIP divisor underflowed
    ("buses", "f3", "v_d", 5e-324),
    ("converters", "pv1", "tau_meas", 5e-324),  # denormal mass
    ("machines", "im1", "h", 5e-324),
    ("ltcs", "ltc", "t_ltc", 5e-324),
    ("converters", "bat", "tau_p", 5e-324),
    # these printed a numpy RuntimeWarning beside the error line
    ("buses", "f1", "v_d", -1e200),         # FD difference of infinities
    ("ltcs", "ltc", "d_band", 5e-324),      # numpy-scalar log-cosh
    ("ltcs", "ltc", "k_s", 5e-324),
)

# Mutations of secondary_4bus that printed a numpy RuntimeWarning from the
# secondary command before they were mended.
SECONDARY_REPRODUCERS = (
    ("converters", "c2", "i_max", 1e308),       # QP ratio test overflowed
    ("analysis", "secondary", "rho", 1e308),    # inf * 0 in the Hessian
    ("analysis", "secondary", "alpha", 1e308),  # an infinite gain entered
)


def _keys(family, entry):
    """The schema keys of one device, the ``val`` sub-keys of a GFL
    converter included."""
    if family != "converters":
        return list(_SCHEMAS[family])
    if entry.get("kind") == "gfm_droop":
        return list(GFM_FIELDS)
    keys = list(GFL_FIELDS)
    keys.remove("val")
    return keys + [f"val.{k}" for k in VAL_FIELDS]


def _mutations(scenario):
    """``(family, device id, key, value)`` over every schema key."""
    for family, entries in scenario.items():
        if not isinstance(entries, list):
            continue
        for entry in entries:
            for key in _keys(family, entry):
                for value in VALUES:
                    yield family, entry["id"], key, value


def _secondary_mutations(scenario):
    """``(family, device id, key, value)`` over every key of the first
    converter and of ``analysis.secondary``."""
    conv = scenario["converters"][0]
    keys = [("converters", conv["id"], k) for k in _keys("converters", conv)]
    keys += [("analysis", "secondary", k) for k in SECONDARY_FIELDS]
    for family, device, key in keys:
        for value in VALUES:
            yield family, device, key, value


def _mutated(scenario, family, device, key, value):
    data = json.loads(json.dumps(scenario))
    if family == "analysis":
        entry = data["analysis"][device]
    else:
        entry = next(e for e in data[family] if e["id"] == device)
    if key.startswith("val."):
        entry = entry.setdefault("val", {})
        key = key[len("val."):]
    entry[key] = value
    return data


def _run(tmp_path, capsys, data, command="equilibrium"):
    """The failure of one mutated run as text, or ``None`` if it is clean."""
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = run_command([command, "--scenario", str(path),
                                "--out", str(tmp_path / "out"), "--quiet"])
        except BaseException:        # an escaping SystemExit fails too
            return traceback.format_exc(limit=-1).strip().splitlines()[-1]
    err = capsys.readouterr().err
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            return (f"RuntimeWarning at {Path(w.filename).name}:{w.lineno}: "
                    f"{w.message}")
    if code not in (EXIT_OK, EXIT_NUMERICAL, EXIT_USAGE):
        return f"exit {code}"
    if code == EXIT_OK and err:
        return f"exit 0 with stderr: {err!r}"
    if code == EXIT_NUMERICAL and not (err.startswith("error: ")
                                       and err.count("\n") == 1):
        return f"exit 2 without one error line: {err!r}"
    return None


def test_sweep_covers_every_key():
    scenario = json.loads(SHOWCASE.read_text())
    mutations = list(_mutations(scenario))
    assert len(mutations) == 146 * len(VALUES)    # 146 device keys
    assert set(REPRODUCERS) <= set(mutations)


@pytest.mark.parametrize("family, device, key, value", REPRODUCERS,
                         ids=[f"{d}.{k}={v}" for _, d, k, v in REPRODUCERS])
def test_reproducer_exits_cleanly(tmp_path, capsys, family, device, key,
                                  value):
    scenario = json.loads(SHOWCASE.read_text())
    failure = _run(tmp_path, capsys,
                   _mutated(scenario, family, device, key, value))
    assert failure is None


def test_device_field_sweep(tmp_path, capsys):
    scenario = json.loads(SHOWCASE.read_text())
    failures = []
    for mutation in list(_mutations(scenario))[::2]:
        failure = _run(tmp_path, capsys, _mutated(scenario, *mutation))
        if failure is not None:
            failures.append(f"{mutation}: {failure}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("family, device, key, value", SECONDARY_REPRODUCERS,
                         ids=[f"{d}.{k}={v}"
                              for _, d, k, v in SECONDARY_REPRODUCERS])
def test_secondary_reproducer_exits_cleanly(tmp_path, capsys, family,
                                            device, key, value):
    scenario = json.loads(SECONDARY_4BUS.read_text())
    failure = _run(tmp_path, capsys,
                   _mutated(scenario, family, device, key, value),
                   "secondary")
    assert failure is None


def test_secondary_field_sweep(tmp_path, capsys):
    scenario = json.loads(SECONDARY_4BUS.read_text())
    mutations = list(_secondary_mutations(scenario))
    assert set(SECONDARY_REPRODUCERS) <= set(mutations)
    failures = []
    for mutation in mutations:
        failure = _run(tmp_path, capsys, _mutated(scenario, *mutation),
                       "secondary")
        if failure is not None:
            failures.append(f"{mutation}: {failure}")
    assert not failures, "\n".join(failures)
