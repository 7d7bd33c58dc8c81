"""The tracer reaches every call site, leaves results unchanged and
reproduces the baseline work counts."""

import sys

import numpy as np
import pytest

import run
import tracing
import adnlab.cli  # noqa: F401  (loads every adnlab module)


def bound_originals():
    """(namespace, attribute, object) for every binding of a target."""
    found = []
    for name, module, attr, owner in tracing.TARGETS:
        mod = sys.modules[module]
        if owner is not None:
            cls = getattr(mod, owner)
            found.append((cls, attr, cls.__dict__[attr]))
            continue
        fn = getattr(mod, attr)
        for ns in tracing.binding_namespaces(fn, module, attr):
            found.append((ns, attr, fn))
    return found


def test_wrappers_replace_every_binding_and_are_removed():
    before = bound_originals()
    assert any(ns is sys.modules["adnlab.contin"] and attr == "jacobian_fd"
               for ns, attr, _ in before)
    assert any(ns is sys.modules["adnlab.network"] and attr == "gfl_rates"
               for ns, attr, _ in before)
    assert any(ns is sys.modules["adnlab.cli"] and attr == "integrate"
               for ns, attr, _ in before)
    with tracing.Tracer().installed():
        for ns, attr, original in before:
            current = vars(ns)[attr]
            assert current is not original
            assert current.__wrapped__ is original
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("adnlab"):
                for _, attr, original in before:
                    assert vars(mod).get(attr) is not original
    for ns, attr, original in before:
        assert vars(ns)[attr] is original


def test_self_time_and_ancestry_on_known_spans():
    tracer = tracing.Tracer()
    ids = {n: i for i, n in enumerate(tracer.names)}
    # run_command [0, 100) > integrate [10, 90) > jacobian [20, 50) >
    # residual [30, 40); then a top-level jacobian [105, 109).
    spans = [("cli.run_command", -1, 0, 100), ("engine.integrate", 0, 10, 90),
             ("engine.jacobian", 1, 20, 50), ("network.residual", 2, 30, 40),
             ("engine.jacobian", -1, 105, 109)]
    for name, parent, start, end in spans:
        tracer.name.append(ids[name])
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.raised.append(0)
    table = tracing.SpanTable(tracer)
    assert np.allclose(table.self_time * 1e9, [20, 50, 20, 10, 4])
    assert list(table.under(["engine.integrate"])) == [
        False, False, True, True, False]
    assert list(table.child_of("engine.integrate")) == [
        False, False, True, False, False]
    assert table.descendants("cli.run_command") == [(1, 4)]


def run_pair(study, tmp_path):
    run.prepare([study], 0, tmp_path / "work")
    plain = run.run_study(study, tmp_path / "plain")
    results, layers, tracer = run.traced_pass([study], tmp_path)
    return plain, results[0], layers, tracing.study_counts(tracer)


PAIRS = [(command, name) for command, name, _ in
         sum(run.WORKLOADS.values(), ()) if (command, name) in run.BASELINE]


@pytest.mark.parametrize("command,name", sorted(set(PAIRS)))
def test_traced_counts_match_baseline_and_results_unchanged(command, name,
                                                            tmp_path):
    plain, traced, layers, counts = run_pair(run.Study(command, name, 0),
                                             tmp_path)
    assert counts == [run.BASELINE[(command, name)]]
    assert layers["network.residual_calls"] == counts[0][0]
    assert layers["engine.jacobian_calls"] == counts[0][1]
    assert plain["problems"] == [] and traced["problems"] == []
    assert traced["hashes"] and traced["hashes"] == plain["hashes"]


def test_layer_metrics_cover_the_declared_per_layer_list():
    import json
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    produced = set(tracing.layer_metrics(tracing.Tracer())) | {
        "cli.bytes_written", "trace.study_s", "trace.overhead_s"} | {
        f"cli.{command}_s" for command in run.COMMANDS}
    assert produced == names
