"""Guards on one residual evaluation of every bundled scenario.

A parameter driven to the edge of its range may make a device model
reject it, but only as a ``ModelValidationError``: never as a
``ZeroDivisionError``, an ``OverflowError`` or a bare ``ValueError``.  A
device constant the residual divides by is checked when the model is
built.  And the residual is a pure function of ``(x, p)``: it leaves
``x`` alone, returns a fresh array and repeats bit for bit.

The residual comes from a kernel generated per layout.  It gives the
bits of the device loop in ``tests/oracles.py``, its source holds no
scenario text, and it looks the device functions up at call time.  The
difference kernel generated from it gives ``F``, the coloured Jacobian
and ``F_param`` with the bits of the residual calls the generic
``DaeSystem`` path makes.
"""

import dataclasses
import json
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from adnlab import network
from adnlab.cli import EXIT_NUMERICAL, run_command
from adnlab.converters import GflConverter, GfmDroop
from adnlab.contin import ContinuationSettings, continue_branch
from adnlab.engine import (DaeSystem, jacobian_fd, newton_equilibrium,
                           param_derivative)
from adnlab.errors import ModelValidationError, NonConvergenceError
from adnlab.network import (Bus, GridSource, InductionMachine, LtcTransformer,
                            NetworkModel, RlBranch, ZipLoad)
from adnlab.scenario import load_scenario
from adnlab.val import ValGains
from feeders import MIXED_ZIP
from oracles import reference_residual

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


def _bits(value):
    """A float, or a tuple or dict of them, as comparable bytes; dict
    entries keep their order."""
    if isinstance(value, dict):
        return [(key, _bits(v)) for key, v in value.items()]
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    return struct.pack("<d", value)


def _generated(sys, x, q):
    return sys.residual(x, q), sys.outputs(x, q)


def _reference(sys, x, q):
    out = {}
    f = reference_residual(sys, x, q)
    reference_residual(sys, x, q, out)
    return f, out


def _outcome(evaluate, sys, x, q):
    """The residual and outputs as bytes, or the model error raised."""
    try:
        with np.errstate(all="ignore"):
            f, out = evaluate(sys, x, q)
    except ModelValidationError as exc:
        return repr(exc)
    return f.tobytes(), _bits(out)


@pytest.mark.parametrize("rotating", [False, True])
@pytest.mark.parametrize("name", SCENARIOS)
def test_kernel_matches_the_reference_loop(name, rotating):
    sys, p = _system(name, rotating)
    rng = np.random.default_rng(11)
    x0 = sys.initial_guess()
    states = [x0 + scale * rng.standard_normal(sys.n)
              for scale in (0.0, 0.05, 0.05, 0.5, 0.5)]
    params = [p] + [p.with_value(param, value) for param in p.names
                    for value in (0.0, -1.0)]
    for q in params:
        for x in states:
            assert (_outcome(_generated, sys, x, q)
                    == _outcome(_reference, sys, x, q))


def test_kernel_compiles_on_first_evaluation_once_per_layout():
    # compiling at build would show in every scenario load; the source
    # text alone is written there
    model = load_scenario(SCENARIO_DIR / "gfl_feeder.json").model
    scaled = dataclasses.replace(model, branches=tuple(
        dataclasses.replace(br, r=2.0 * br.r) for br in model.branches))
    a, b = model.build(), scaled.build()
    assert a._kernel is None and b._kernel is None
    assert a._source == b._source
    assert a.params0.values != b.params0.values
    for sys in (a, b):
        sys.residual(sys.initial_guess(), sys.params0)
    assert a._kernel.__code__ is b._kernel.__code__


HOSTILE = "'\"\n__import__('os').system('true')"


def _every_device_model(name):
    """A network with every device kind and layout case: a pinned and a
    rotating Thevenin source, an LTC, a machine, a ZIP load, GFL
    converters without a measurement filter, with QVAL and with DVAL,
    and a GFM.  ``name`` maps each plain id to the id used."""
    b = [name(f"b{i}") for i in range(5)]
    gains = ValGains(g_v=1.0, b_v=-0.5)
    return NetworkModel(
        buses=tuple(Bus(i) for i in b),
        branches=tuple(RlBranch(name(f"l{i}"), b[i], b[i + 1], r=0.04,
                                l=1e-4) for i in (1, 2, 3)),
        sources=(GridSource(name("grid"), b[0]),
                 GridSource(name("thev"), b[4], r_g=0.01, l_g=2.5e-4,
                            rotating=True)),
        ltcs=(LtcTransformer(name("ltc"), b[0], b[1], x_t=0.08),),
        zip_loads=(ZipLoad(name("z"), b[2], p0=0.2, q0=0.05, **MIXED_ZIP),),
        machines=(InductionMachine(name("im"), b[3]),),
        gfls=(GflConverter(name("pll"), b[2], tau_meas=0.0),
              GflConverter(name("q"), b[3], val_mode="qval", val=gains),
              GflConverter(name("d"), b[4], val_mode="dval", val=gains)),
        gfms=(GfmDroop(name("gfm"), b[1]),),
    )


def test_hostile_ids_reach_no_source_and_change_no_bits():
    plain = _every_device_model(lambda i: i).build(rotating_sources=True)
    hostile = _every_device_model(
        lambda i: i + HOSTILE).build(rotating_sources=True)
    source = hostile._source
    assert source == plain._source
    for text in ("'", '"', "__import__", "system"):
        assert text not in source
    p = plain.params0
    q = hostile.params0
    assert q.values == p.values
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = plain.initial_guess() + 0.05 * rng.standard_normal(plain.n)
        assert hostile.residual(x, q).tobytes() == \
            plain.residual(x, p).tobytes()
        assert _outcome(_generated, hostile, x, q) == \
            _outcome(_reference, hostile, x, q)
        assert _bits(hostile.outputs(x, q)) == [
            (key.replace(".", HOSTILE + ".", 1) if "." in key
             else key + HOSTILE, value)
            for key, value in _bits(plain.outputs(x, p))]
    # an evaluation error names the same state, under its hostile name
    x = plain.initial_guess()
    x[plain.state_index("b2.vd")] = np.nan
    errors = []
    for sys, params in ((plain, p), (hostile, q)):
        with pytest.raises(NonConvergenceError) as exc:
            jacobian_fd(sys, x, params)
        errors.append(exc.value)
    renamed = str(errors[0])
    for old, new in zip(plain.state_names, hostile.state_names):
        renamed = renamed.replace(repr(old), repr(new))
    assert str(errors[1]) == renamed
    assert errors[1].worst_name == hostile.state_names[
        plain.state_index(errors[0].worst_name)]
    assert HOSTILE in errors[1].worst_name
    with pytest.raises(ModelValidationError, match="limiter magnitude"):
        hostile.residual(hostile.initial_guess(),
                         q.with_value(f"pll{HOSTILE}.i_max", 0.0))


def test_converter_outputs_give_the_kernel_bits():
    """Every device's outputs, one converter's outputs row by row and the
    limiter activity give the bits of the reference loop's outputs, for
    every device kind and layout case, fixed and rotating."""
    for rotating in (False, True):
        sys = _every_device_model(lambda i: i).build(
            rotating_sources=rotating)
        p = sys.params0.with_value("pll.i_max", 0.9)
        rng = np.random.default_rng(3)
        states = sys.initial_guess() + 0.05 * rng.standard_normal((6, sys.n))
        reference = []
        for x in states:
            out = {}
            reference_residual(sys, x, p, out)
            reference.append(out)
            assert _bits(sys.outputs(x, p)) == _bits(out)
            assert _bits(sys.limiter_activity(x, p)) == _bits(
                {conv: out[conv]["activity"] for conv in sys.gfl_ids()})
        for conv_id in (*sys.gfl_ids(), *sys.gfm_ids()):
            keys = tuple(reference[0][conv_id])
            for asked in (keys, keys[-1:]):
                series = sys.converter_outputs(states, p, conv_id, asked)
                assert list(series) == list(asked)
                for key in asked:
                    assert series[key].tobytes() == np.array(
                        [out[conv_id][key] for out in reference]).tobytes()


def test_device_functions_are_looked_up_at_call_time(monkeypatch):
    sys, p = _system("showcase")
    x = sys.initial_guess()
    sys.residual(x, p)              # the kernel exists before the wrappers
    calls = Counter()

    def counting(name):
        fn = getattr(network, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("gfl_rates", "zip_injection"):
        monkeypatch.setattr(network, name, counting(name))
    sys.residual(x, p)
    sys.outputs(x, p)
    jacobian_fd(sys, x, p)
    # the difference kernel makes each call once at x, then again at the
    # +h and the -h state of each group that perturbs one of its inputs
    # (the states a converter's rows read, or a load's bus voltage) and,
    # for a load, which reads lambda, at lambda's +h and -h
    colour = sys._difference_index()[0]

    def evaluations(inputs, reads_lambda):
        return 2 + 1 + 2 * len({colour[j] for j in inputs}) \
            + 2 * reads_lambda

    expected = Counter()
    for conv in sys.model.gfls:
        rows = [i for i, name in enumerate(sys.state_names)
                if name.startswith(f"{conv.id}.")]
        expected["gfl_rates"] += evaluations(
            set().union(*(sys.pattern[i] for i in rows)), False)
    for load in sys.model.zip_loads:
        vi = sys.vidx[load.bus]
        expected["zip_injection"] += evaluations({vi, vi + 1}, True)
    assert calls == expected
    assert expected["gfl_rates"] < len(sys.model.gfls) * (
        3 + 2 * len(sys.column_groups()))


def test_one_difference_kernel_per_differenced_parameter(monkeypatch):
    # a lambda continuation and every Jacobian around it share the kernel
    # that differences lambda; another parameter gets its own
    differenced = []
    source = network._difference_source
    monkeypatch.setattr(network, "_difference_source", lambda *args:
                        differenced.append(args[3]) or source(*args))
    sys, p = _system("two_bus")
    sol = newton_equilibrium(sys, sys.initial_guess(), p)
    branch = continue_branch(sys, sol, "lambda",
                             ContinuationSettings(max_steps=5))
    assert len(branch) == 5
    assert differenced == [p.index("lambda")] == [0]
    f, jac, f_param = sys.linearize(sol.x, p)
    assert f_param is None
    other = next(name for name in p.names if name != "lambda")
    sys.linearize(sol.x, p, other)
    assert differenced == [0, p.index(other)]


def _linearized_system(name, rotating=False):
    """A bundled scenario, or ``"every_device"``, with its base
    parameters."""
    if name == "every_device":
        sys = _every_device_model(lambda i: i).build(rotating_sources=rotating)
        return sys, sys.params0
    return _system(name, rotating)


def _result(fn):
    """What ``fn()`` returns, as bytes per array, or the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return [None if a is None else a.tobytes() for a in fn()]
    except (ModelValidationError, NonConvergenceError, ValueError) as exc:
        return repr(exc)


@pytest.mark.parametrize("rotating", [False, True])
@pytest.mark.parametrize("name", SCENARIOS + ["every_device"])
def test_generated_jacobian_has_the_bits_of_the_generic_path(name, rotating):
    # the generic path is the stacked residual calls of DaeSystem; the
    # dense reference differences one column at a time
    sys, p = _linearized_system(name, rotating)
    dense = DaeSystem(sys.n, sys.residual, sys.mass, p)
    rng = np.random.default_rng(13)
    for scale in (0.0, 0.05, 0.5):
        x = sys.initial_guess() + scale * rng.standard_normal(sys.n)
        assert _result(lambda: sys.linearize(x, p)) == _result(
            lambda: DaeSystem.linearize(sys, x, p))
        assert np.array_equal(jacobian_fd(sys, x, p), jacobian_fd(dense, x, p))


@pytest.mark.parametrize("name", ["showcase", "every_device"])
def test_generated_f_and_f_param_have_the_bits_of_residual_calls(name):
    sys, p = _linearized_system(name)
    # the load scale, a branch inductance (a mass) and a current limit
    assert "lambda" in p.names
    assert any(k.endswith(".l") for k in p.names)
    assert any(k.endswith(".i_max") for k in p.names)
    rng = np.random.default_rng(17)
    x = sys.initial_guess() + 0.05 * rng.standard_normal(sys.n)
    for param in p.names:
        # the base value, a moved one, and for a current limit values at
        # which the base or the -h evaluation leaves the model's range
        values = [None, 1.1 * p[param] + 0.01]
        if param.endswith(".i_max"):
            values += [5e-7, -1.0]
        for value in values:
            q = p if value is None else p.with_value(param, value)
            generated = _result(lambda: sys.linearize(x, q, param))
            assert generated == _result(
                lambda: DaeSystem.linearize(sys, x, q, param))
            if not isinstance(generated, str):
                assert generated[0] == sys.residual(x, q).tobytes()
                assert generated[2] == \
                    param_derivative(sys, x, q, param).tobytes()
    # the error a limit out of range raises on the -h side names it
    i_max = next(k for k in p.names if k.endswith(".i_max"))
    with pytest.raises(ModelValidationError, match="limiter magnitude"):
        sys.linearize(x, p.with_value(i_max, 5e-7), i_max)


@pytest.mark.parametrize("name", SCENARIOS + ["every_device"])
def test_nan_state_raises_the_generic_error(name):
    sys, p = _linearized_system(name)
    hand = DaeSystem(sys.n, sys.residual, sys.mass, p,
                     state_names=sys.state_names, pattern=sys.pattern)
    for i in (0, sys.n // 2, sys.n - 1):
        x = sys.initial_guess()
        x[i] = np.nan
        errors = []
        for system in (sys, hand):
            with np.errstate(all="ignore"), \
                    pytest.raises(NonConvergenceError) as exc:
                jacobian_fd(system, x, p)
            errors.append((str(exc.value), exc.value.worst_name))
        assert errors[0] == errors[1]


def test_build_generates_and_compiles_nothing(monkeypatch):
    # the residual and difference kernels are written and compiled on
    # first use; a scenario load pays for neither
    calls = []
    monkeypatch.setattr(network, "_compile_kernel",
                        lambda *args: calls.append("compile"))
    monkeypatch.setattr(network, "_difference_source",
                        lambda *args: calls.append("difference"))
    for name in SCENARIOS:
        for rotating in (False, True):
            scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
            scenario.base_params(scenario.build(rotating_sources=rotating))
    assert calls == []


def test_kernel_sources_name_no_outputs(monkeypatch):
    # device outputs come from their own walk: neither the residual kernel
    # nor a difference kernel fills or passes an outputs dict
    sources = []
    difference = network._difference_source
    monkeypatch.setattr(network, "_difference_source", lambda *args:
                        sources.append(difference(*args)) or sources[-1])
    for name in SCENARIOS:
        for rotating in (False, True):
            sys, p = _system(name, rotating)
            sys.linearize(sys.initial_guess(), p)
            sources.append(sys._source)
    assert len(sources) == 4 * len(SCENARIOS)
    assert not [source for source in sources if "outputs" in source]
