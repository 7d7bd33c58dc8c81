"""Study benchmark for adnlab: two workloads, untraced or traced.

Run one workload from the repository root::

    python3 perfbench/run.py --workload stability --seed 0 --seconds 58 --trace 0
    python3 perfbench/run.py --workload stability --seed 0 --seconds 58 --trace 1

The runner drives adnlab in-process through its public entry point
``adnlab.cli.run_command``, one study at a time (a closed loop with one
client and one study in flight), in a single process with one BLAS thread.
It prints a human-readable summary and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Study artifacts go to
``.perfbench/`` in the repository root and are deleted after they are
checked; a traced run leaves its spans in ``.perfbench/traces/``.

Seeds
-----
The program receives only generated scenario files (``generate.py``).
Seed 0 runs the bundled files unchanged, so on seed 0 the variants of one
scenario are identical.  Any other seed scales each ZIP load's
``p0``/``q0`` and each converter's ``p_ref`` by a factor drawn from
U(0.95, 1.05), drawn anew for every variant.  The seed barely changes the
work: residual counts move by about 1 %.  Every generated file passes
``adnlab.scenario.loads_scenario`` before any timing; one that fails to
generate or validate makes each of its studies a failed study.

Workloads
---------
Each workload drives the layers named here hard and leaves the others
nearly idle, so an optimisation of one layer shows on one workload and is
predicted to change little on the other.  The short control studies
(``equilibrium`` and ``secondary``) ride along in the workload whose
layers they share, rather than in a workload of their own, so that each
run can be long enough to be steady on a shared two-core machine.

``stability``
    ``continue`` on showcase and gfl_feeder, ``boundary2d`` on four seeded
    variants of two_bus, and ``equilibrium`` on all five scenarios.
    Almost all of its time is finite-difference Jacobians
    (``engine.jacobian_fd``), 5-10 % is bifurcation location
    (``contin.locate_all``), the rest eigen-decompositions; it never
    integrates.  It spans n = 6 to 45 states.  It shows Jacobian colouring,
    chord correctors and direct bifurcation location.  The showcase branch
    truncates at lambda ~ 0.213 (singular augmented Jacobian), so its
    ``degraded_ratio`` is above 0 on every seed.  The equilibria are
    short cold Newton solves plus one spectrum each, one ``Scenario.build``
    per study.
``transient``
    ``simulate`` on showcase and gfl_feeder, ``cf`` on cf_step, and
    ``secondary`` on 16 seeded variants of secondary_4bus.  The step-Newton
    path (many ``linalg.solve`` calls, step-Jacobian refreshes when the step
    kind switches), complex-frequency post-processing (``outputs`` per
    sample), 40k-row CSV formatting, and the secondary loop's many cold
    Newton solves and its QP.  No eigen-decomposition and nothing in
    ``contin``.

End-to-end metrics (``--trace 0``)
----------------------------------
``study_s``
    Wall seconds of one pass over the workload's studies; median over the
    passes of the run.
``setup_s``
    Seconds to import ``adnlab.cli`` and to ``load_scenario``, ``build``
    and ``base_params`` every scenario of the workload, measured in
    ``SETUP_PROBES`` fresh interpreters (``setup_probe.py``); the median.
    Work moved into assembly shows here.
``peak_rss_mb``
    Peak resident memory of the runner process.

The summary also prints, per command, the median wall seconds of each of
its studies summed over the workload's scenarios (``continue_s``,
``boundary2d_s``, ``equilibrium_s``, ``simulate_s``, ``cf_s``,
``secondary_s``); a traced run reports them as ``cli.<command>_s``.
``fail_ratio`` and ``degraded_ratio`` are printed in the summary too; they
are 0 on most seeds, so the JSON line carries them as ``failed`` /
``attempted`` and as the traced layer counts ``contin.truncated`` and
``secondary.aborted``.  A study fails if it exits non-zero or fails a
check in ``checks.py``: manifest hashes, byte-identical CSVs across
passes (traced and untraced alike), the two-bus analytic nose, cf block
additivity, and a monotone secondary objective with gains inside their
boxes.  A study is degraded if its branch truncated, a ``boundary.csv``
row is ``error``, or the secondary loop aborted or ran out of
iterations.

Per-layer metrics (``--trace 1``)
---------------------------------
A traced run alternates untraced and traced passes.  ``tracing.py`` wraps
each layer's public functions from outside, in every namespace that binds
them, and derives from the spans (medians over the traced passes):

========================================  =======================  ==========
layer metrics                              should move              workload
========================================  =======================  ==========
scenario.load_s, scenario.build_s          setup_s, equilibrium_s   both
network.residual_calls, residual_us,       study_s                  both
network.self_s
network.outputs_calls, outputs_s           cf_s                     transient
converters.gfl_rates_s, gfm_rates_s,       continue_s, simulate_s   both
val.s, limits.s                            on showcase
engine.jacobian_calls, jacobian_s,         continue_s, boundary2d_s stability
engine.residuals_per_jacobian              simulate_s               transient
engine.solve_calls, solve_s                cf_s, simulate_s         transient
engine.eig_calls, eig_s,                   continue_s; zero on      stability
engine.reduced_matrix_calls                transient
engine.integrate_s, steps,                 simulate_s, cf_s         transient
engine.step_jacobians
engine.newton_calls, newton_iters,         equilibrium_s            stability
engine.newton_failed, newton_s             secondary_s              transient
contin.continue_s, points,                 continue_s               stability
contin.jacobians_per_point
contin.locate_s, records,                  continue_s, boundary2d_s stability
contin.jacobians_per_record
contin.boundary_s, boundary_rows,          boundary2d_s             stability
contin.boundary_error_rows
contin.truncated                           degraded_ratio           stability
secondary.run_s, iterations,               secondary_s              transient
secondary.sensitivity_s, update_s,
secondary.newton_per_iteration
secondary.aborted                          degraded_ratio           transient
cfreq.s, cfreq.outputs_calls               cf_s                     transient
cli.self_s, cli.bytes_written              study_s                  transient
cli.<command>_s                            study_s                  both
========================================  =======================  ==========

Each layer's ``self_s`` is its spans' duration minus the part covered by
child spans.  ``trace.overhead_s`` is the traced pass time minus the
untraced one; ``trace.spans`` is the number of spans in a traced pass.
``cli.<command>_s`` comes from the untraced passes and is 0 for a command
the workload does not run.  Counts repeat exactly for a given seed.  On
seed 0 the traced run also compares each study's residual and Jacobian
counts with the baseline table of ROADMAP item 1 (``BASELINE``) and
prints the comparison.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread; must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (benchmark modules; tracing imports numpy)
import tracing  # noqa: E402
from generate import variant_text  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIO_DIR = ROOT / "scenarios"
WORK = ROOT / ".perfbench"

ALL_SCENARIOS = ("two_bus", "gfl_feeder", "secondary_4bus", "cf_step",
                 "showcase")
SECONDARY_VARIANTS = 16
# Four two_bus variants give boundary2d about a tenth of a stability pass, so
# a change to the 2-D boundary trace moves study_s visibly.
BOUNDARY_VARIANTS = 4

# (command, bundled scenario, variant index) per study, in pass order.
WORKLOADS = {
    "stability": (("continue", "showcase", 0), ("continue", "gfl_feeder", 0))
    + tuple(("boundary2d", "two_bus", k) for k in range(BOUNDARY_VARIANTS))
    + tuple(("equilibrium", name, 0) for name in ALL_SCENARIOS),
    "transient": (("simulate", "showcase", 0), ("simulate", "gfl_feeder", 0),
                  ("cf", "cf_step", 0))
    + tuple(("secondary", "secondary_4bus", k)
            for k in range(SECONDARY_VARIANTS)),
}
COMMANDS = ("continue", "boundary2d", "equilibrium", "simulate", "cf",
            "secondary")

SETUP_PROBES = 9
MIN_PASSES = 2

# Residual calls and Jacobian builds per study on the bundled scenarios,
# from ROADMAP item 1.
BASELINE = {
    ("equilibrium", "two_bus"): (52, 4),
    ("continue", "two_bus"): (5680, 417),
    ("boundary2d", "two_bus"): (19320, 1417),
    ("continue", "gfl_feeder"): (23394, 790),
    ("simulate", "gfl_feeder"): (26667, 405),
    ("secondary", "secondary_4bus"): (1602, 26),
    ("cf", "cf_step"): (60027, 644),
    ("equilibrium", "showcase"): (455, 5),
    ("continue", "showcase"): (85844, 930),
    ("simulate", "showcase"): (42058, 325),
}


class Study:
    """One command on one generated scenario file."""

    def __init__(self, command, base, variant):
        self.command = command
        self.base = base
        self.variant = variant
        self.path = None
        self.canonical = None
        self.error = ""

    @property
    def label(self):
        return f"{self.command} {self.base}.v{self.variant}"


def prepare(studies, seed, work):
    """Generate and validate every scenario file the studies use."""
    from adnlab.scenario import loads_scenario

    made = {}
    (work / "scenarios").mkdir(parents=True)
    for study in studies:
        key = (study.base, study.variant)
        if key not in made:
            path = work / "scenarios" / f"{study.base}.v{study.variant}.json"
            try:
                base_text = (SCENARIO_DIR / f"{study.base}.json").read_text(
                    encoding="utf-8")
                text = variant_text(base_text, study.base, seed,
                                    study.variant)
                path.write_text(text, encoding="utf-8")
                made[key] = (path, loads_scenario(text).canonical, "")
            except Exception as exc:  # any failure here is a failed study
                made[key] = (None, None, f"scenario generation: "
                             f"{type(exc).__name__}: {exc}")
        study.path, study.canonical, study.error = made[key]


def measure_setup(studies):
    """Median set-up seconds over fresh interpreters, and every sample."""
    paths = sorted({str(s.path) for s in studies if s.path is not None})
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *paths],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def run_study(study, out_dir, tracer=None):
    """Run one study, check its artifacts and delete them."""
    from adnlab.cli import run_command

    result = {"time": 0.0, "problems": [], "degraded": [], "hashes": {},
              "bytes": 0}
    if study.error:
        result["problems"] = [study.error]
        return result
    argv = [study.command, "--scenario", str(study.path), "--out",
            str(out_dir)]
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = run_command(argv)
            else:
                with tracer.span("cli.run_command"):
                    code = run_command(argv)
    except Exception as exc:  # a crash is a failed study, not a dead runner
        code = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    result["time"] = time.perf_counter() - t0
    if code != 0:
        last = (err.getvalue().strip().splitlines() or [""])[-1]
        result["problems"] = [f"exit code {code}: {last}"]
    else:
        result["problems"] = checks.study_problems(
            study.command, out_dir, study.canonical,
            check_nose=study.base == "two_bus")
        result["degraded"] = checks.degradations(study.command,
                                                 out.getvalue(), out_dir)
        result["hashes"] = checks.csv_hashes(out_dir)
        result["bytes"] = checks.written_bytes(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def run_pass(studies, work, tracer=None):
    results = []
    for i, study in enumerate(studies):
        out_dir = work / "out" / f"{i:02d}-{study.command}-{study.base}"
        results.append(run_study(study, out_dir, tracer))
    return results


def traced_pass(studies, work):
    """One pass with every layer wrapped; its results and layer metrics."""
    tracer = tracing.Tracer()
    with tracer.installed():
        results = run_pass(studies, work, tracer)
    layers = tracing.layer_metrics(tracer)
    layers["cli.bytes_written"] = sum(r["bytes"] for r in results)
    return results, layers, tracer


def mark_nondeterminism(studies, passes):
    """Fail a study whose CSVs differ from its first pass's."""
    for i, study in enumerate(studies):
        first = next((p[i]["hashes"] for p in passes if p[i]["hashes"]), None)
        for p in passes:
            r = p[i]
            if r["hashes"] and r["hashes"] != first:
                r["problems"].append("CSV bytes differ between passes")


def pass_time(results):
    return sum(r["time"] for r in results)


def command_times(studies, passes):
    """Per command: median seconds of each study, summed over studies."""
    out = {}
    for i, study in enumerate(studies):
        median = statistics.median(p[i]["time"] for p in passes)
        out[study.command] = out.get(study.command, 0.0) + median
    return out


def print_baseline(studies, counts):
    mismatches = 0
    for study, (res, jac) in zip(studies, counts):
        base = BASELINE.get((study.command, study.base))
        note = "no baseline"
        if base is not None:
            ok = base == (res, jac)
            mismatches += not ok
            note = (f"baseline {base[0]}/{base[1]}: "
                    f"{'match' if ok else 'DIFFERS'}")
        print(f"counts {study.label}: {res} residuals, {jac} Jacobians "
              f"({note})")
    print(f"baseline comparison: {mismatches} mismatch(es)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    missing = [p for p in (SRC / "adnlab", SCENARIO_DIR) if not p.is_dir()]
    if missing:
        sys.exit(f"perfbench: {', '.join(map(str, missing))} not found; run "
                 "from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    import adnlab.cli  # noqa: F401  (imported before any timing)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    studies = [Study(*spec) for spec in WORKLOADS[args.workload]]
    prepare(studies, args.seed, work)
    setup_s, setup_samples = measure_setup(studies)

    untraced, traced, layer_runs = [], [], []
    t_start = time.perf_counter()
    while True:
        untraced.append(run_pass(studies, work))
        if args.trace:
            results, layers, tracer = traced_pass(studies, work)
            traced.append(results)
            layer_runs.append(layers)
            if len(traced) == 1:
                (WORK / "traces").mkdir(parents=True, exist_ok=True)
                tracer.save(WORK / "traces" /
                            f"{args.workload}-seed{args.seed}.npz")
                counts = tracing.study_counts(tracer)
            del tracer
        # Stop where the run ends nearest the budget: another round would
        # overshoot it by more than stopping now falls short of it.
        rounds = len(untraced)
        elapsed = time.perf_counter() - t_start
        if (args.trace or rounds >= MIN_PASSES) \
                and elapsed + elapsed / rounds / 2 > args.seconds:
            break
    shutil.rmtree(work / "out", ignore_errors=True)

    passes = untraced + traced
    mark_nondeterminism(studies, passes)
    executions = [r for p in passes for r in p]
    attempted = len(executions)
    failed = sum(1 for r in executions if r["problems"])
    degraded = sum(1 for r in executions if r["degraded"])
    for i, study in enumerate(studies):
        problems = sorted({m for p in passes for m in p[i]["problems"]})
        for message in problems:
            print(f"FAILED {study.label}: {message}")
    for message in sorted({m for r in executions for m in r["degraded"]}):
        print(f"degraded: {message}")

    study_times = [pass_time(p) for p in untraced]
    study_s = statistics.median(study_times)
    cmd_times = command_times(studies, untraced)
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} "
          f"untraced and {len(traced)} traced pass(es) of {len(studies)} "
          f"studies")
    print(f"study_s {study_s:.4f} s (median of {len(study_times)}: "
          f"{', '.join(f'{t:.3f}' for t in study_times)})")
    print(f"setup_s {setup_s:.4f} s (median of {len(setup_samples)})")
    for name, value in cmd_times.items():
        print(f"{name}_s {value:.4f} s (median of {len(untraced)} per "
              f"scenario, summed)")
    print(f"fail_ratio {failed / attempted:.4g} ({failed}/{attempted})")
    print(f"degraded_ratio {degraded / attempted:.4g} "
          f"({degraded}/{attempted})")

    if args.trace:
        if args.seed == 0:
            print_baseline(studies, counts)
        metrics = {key: statistics.median_low(run[key] for run in layer_runs)
                   for key in layer_runs[0]}
        for name in COMMANDS:
            metrics[f"cli.{name}_s"] = cmd_times.get(name, 0.0)
        traced_s = statistics.median(pass_time(p) for p in traced)
        metrics["trace.study_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - study_s
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"study_s": study_s, "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))


if __name__ == "__main__":
    main(sys.argv[1:])
