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
every value of :data:`VALUES`.  A third sweep empties one device table
of a bundled scenario at a time, and adds a scenario with no buses, and
runs every command on the result.  A fourth sweep sets each key path of
each bundled scenario (the top-level keys, every device entry and a GFL
converter's ``val``, and every analysis block) to each value of
:data:`SWAPS`, a value of the wrong type, and runs the commands that read
the scenario.  A ``RuntimeWarning`` fails a run too: numpy prints it to
stderr beside the ``error:`` line; so does an ``error:`` line longer
than ``MAX_ERROR_CHARS``.
"""

import json
import traceback
import warnings
from pathlib import Path

import pytest

from adnlab.cli import (COMMANDS, ERROR_CUT, EXIT_NUMERICAL, EXIT_OK,
                        EXIT_USAGE, FLAG_READERS, MAX_ERROR_CHARS,
                        run_command)
from adnlab.scenario import (ANALYSIS_FIELDS, BRANCH_FIELDS, BUS_FIELDS,
                             GFL_FIELDS, GFM_FIELDS, LTC_FIELDS,
                             MACHINE_FIELDS, SECONDARY_FIELDS, SOURCE_FIELDS,
                             TOP_FIELDS, VAL_FIELDS, ZIP_FIELDS,
                             loads_scenario)

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


def _run(tmp_path, capsys, data, command="equilibrium", flags=()):
    """The failure of one mutated run as text, or ``None`` if it is clean."""
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = run_command([command, "--scenario", str(path),
                                "--out", str(tmp_path / "out"), "--quiet",
                                *flags])
        except BaseException:        # an escaping SystemExit fails too
            return traceback.format_exc(limit=-1).strip().splitlines()[-1]
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if len(errors) > 1:
        return f"more than one error line: {err!r}"
    if any(len(line) > MAX_ERROR_CHARS for line in errors):
        return f"error line of more than {MAX_ERROR_CHARS} characters"
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


# The device tables of a scenario file.
TABLES = ("buses", "branches", "sources", "zip_loads", "machines", "ltcs",
          "converters")


def _emptied_tables():
    """``(label, scenario)``: each bundled scenario with one of its
    non-empty device tables set to ``[]``, then a scenario of no buses."""
    for path in sorted(SHOWCASE.parent.glob("*.json")):
        scenario = json.loads(path.read_text())
        for table in TABLES:
            if scenario.get(table):
                yield f"{path.stem} without {table}", {**scenario, table: []}
    yield "no buses", {"buses": []}


def test_empty_table_sweep(tmp_path, capsys):
    cases = list(_emptied_tables())
    assert len(cases) == 26          # 25 non-empty tables, and no buses
    failures = []
    for label, data in cases:
        for command in COMMANDS:
            flags = ("--steps", "20") if command in FLAG_READERS["steps"] \
                else ()
            failure = _run(tmp_path, capsys, data, command, flags)
            if failure is not None:
                failures.append(f"{label}, {command}: {failure}")
    assert not failures, "\n".join(failures)


# Values of the wrong type for every key path the type-swap sweep sets.
SWAPS = (True, "x", [], {}, None)

# The commands that read each bundled scenario.
READERS = {"two_bus": ("equilibrium", "continue", "boundary2d"),
           "gfl_feeder": ("equilibrium", "simulate"),
           "secondary_4bus": ("secondary",),
           "cf_step": ("cf",),
           "showcase": ("equilibrium",)}


def _key_paths(scenario):
    """The top-level keys, every device entry and a GFL converter's
    ``val``, and every analysis block, as tuples of keys."""
    yield from ((key,) for key in TOP_FIELDS)
    for table in TABLES:
        for i, entry in enumerate(scenario.get(table, ())):
            yield table, i
            if table == "converters" and entry.get("kind", "gfl") == "gfl":
                yield table, i, "val"
    yield from (("analysis", key) for key in ANALYSIS_FIELDS)


def _swapped(scenario, path, value):
    data = json.loads(json.dumps(scenario))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _type_swaps():
    """``(label, scenario, command)`` for every key path, value and
    command.  A swap the schema reads as its default (``None`` for an
    absent block, say) loads to the bundled scenario itself, whose runs
    the golden tests check, so it is left out."""
    for stem, commands in READERS.items():
        scenario = json.loads(SHOWCASE.with_name(f"{stem}.json").read_text())
        bundled = loads_scenario(json.dumps(scenario)).canonical_json()
        for path in _key_paths(scenario):
            for value in SWAPS:
                data = _swapped(scenario, path, value)
                try:
                    if loads_scenario(json.dumps(data)).canonical_json() \
                            == bundled:
                        continue
                except Exception:       # the run below reports it
                    pass
                label = f"{stem} {'.'.join(map(str, path))}={value!r}"
                for command in commands:
                    yield label, data, command


def test_type_swap_sweep(tmp_path, capsys):
    failures = []
    for label, data, command in list(_type_swaps())[::2]:
        flags = ("--steps", "15") if command in FLAG_READERS["steps"] else ()
        failure = _run(tmp_path, capsys, data, command, flags)
        if failure is not None:
            failures.append(f"{label}, {command}: {failure}")
    assert not failures, "\n".join(failures)


def _deep_params():
    scenario = json.loads(SHOWCASE.with_name("two_bus.json").read_text())
    return json.dumps({**scenario, "params": "@"}).replace(
        '"@"', '{"a": ' * 3000 + "{}" + "}" * 3000).encode()


def _hostile_id():
    text = SHOWCASE.with_name("two_bus.json").read_text()
    return text.replace('"b2"', json.dumps('b,2\n"x')).encode()


def _two_bus(edit):
    """``two_bus.json`` changed in place by ``edit``, as file bytes."""
    def make():
        scenario = json.loads(SHOWCASE.with_name("two_bus.json").read_text())
        edit(scenario)
        return json.dumps(scenario).encode()
    return make


# Scenario files that ended in a traceback, or in a CSV that splits into
# ragged rows, or in an error line that echoed a huge value whole, before
# they were mended; each is now one error line of at most MAX_ERROR_CHARS.
INPUT_REPRODUCERS = {
    "not-utf8": lambda: b"\xff\xfe\x00garbage",
    "deep-list": lambda: ("[" * 100000 + "]" * 100000).encode(),
    "deep-params": _deep_params,
    "id-with-csv-characters": _hostile_id,
    "long-name": _two_bus(lambda d: d.update(name=list(range(5000)))),
    "many-unknown-keys": _two_bus(lambda d: d["buses"][0].update(
        {f"k{i}": 0 for i in range(3000)})),
    "long-params-key": _two_bus(lambda d: d.update(params={"p" * 50000: 1})),
    "long-b_sh-string": _two_bus(lambda d: d["buses"][0].update(
        b_sh="x" * 50000)),
    "long-cf-bus": _two_bus(lambda d: d.setdefault("analysis", {}).update(
        cf={"bus": "b" * 20000})),
}


@pytest.mark.parametrize("label", INPUT_REPRODUCERS)
def test_input_reproducer_is_one_error_line(tmp_path, capsys, label):
    path = tmp_path / "bad.json"
    path.write_bytes(INPUT_REPRODUCERS[label]())
    out = tmp_path / "out"
    code = run_command(["equilibrium", "--scenario", str(path), "--out",
                        str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) <= MAX_ERROR_CHARS + 1
    if label == "long-params-key":
        # parameter names are checked once the output directory is made
        assert not any(out.iterdir())
    else:
        assert not out.exists()


def test_long_error_line_is_cut_with_a_marker(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(INPUT_REPRODUCERS["long-b_sh-string"]())
    run_command(["equilibrium", "--scenario", str(path), "--out",
                 str(tmp_path / "out"), "--quiet"])
    line = capsys.readouterr().err.rstrip("\n")
    assert len(line) == MAX_ERROR_CHARS
    assert line.startswith("error: buses[0]: ") and line.endswith(ERROR_CUT)
