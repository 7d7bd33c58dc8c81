"""Scenario-driven command line front end.

Commands operate on a scenario file and write plot-ready CSV artifacts
plus a run manifest into an output directory::

    adnlab equilibrium --scenario case.json --out results/
    adnlab continue    --scenario case.json --out results/ [--param NAME]
    adnlab boundary2d  --scenario case.json --out results/ [--grid a:b:n]
    adnlab simulate    --scenario case.json --out results/
    adnlab secondary   --scenario case.json --out results/
    adnlab cf          --scenario case.json --out results/

Numbers are written with 17 significant digits and newline line ends, so
repeated runs of the same scenario produce byte-identical files.
"""

import argparse
import hashlib
import itertools
import json
import math
import sys as _sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cfreq import cf_of_bus, decompose_converter_cf, pll_internal_frequency
from .contin import ContinuationSettings, continue_branch, locate_all, trace_boundary_2d
from .engine import integrate, newton_equilibrium, spectrum_at
from .errors import AdnlabError, ScenarioError
from .scenario import Scenario, load_scenario
from .secondary import WeightVector, run_recursive

__all__ = ["main", "run_command"]

COMMANDS = ("equilibrium", "continue", "boundary2d", "simulate",
            "secondary", "cf")
EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_USAGE = 64
# Most --grid rows one boundary2d run may ask for; each row traces a branch.
MAX_GRID_POINTS = 1000


# Lines formatted before one write; a chunk stays a few hundred kB on the
# widest bundled trajectory, so memory does not grow with the file.
CSV_CHUNK_LINES = 256


def _write_csv(path: Path, header, rows):
    """Write ``header`` and ``rows``; return the file's sha256 and size.

    The first row sets the template of every row: ``%.17g`` where it
    holds a number (17 significant digits round-trip a float64) and
    ``%s`` where it holds a string.  A later row with a string where the
    first had a number, or the reverse, raises ``TypeError``.  Lines are
    written and hashed in chunks of :data:`CSV_CHUNK_LINES`.
    """
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        def flush(lines):
            data = "".join(lines).encode("utf-8")
            handle.write(data)
            digest.update(data)
            lines.clear()

        lines = [",".join(header) + "\n"]
        rows = iter(rows)
        first = next(rows, None)
        if first is not None:
            template = ",".join("%s" if isinstance(cell, str) else "%.17g"
                                for cell in first) + "\n"
            text = [i for i, cell in enumerate(first) if isinstance(cell, str)]
            for row in itertools.chain((first,), rows):
                for i in text:
                    if not isinstance(row[i], str):
                        raise TypeError(
                            f"{path.name}: column {i} holds {row[i]!r}; "
                            "the first row has a string there")
                lines.append(template % tuple(row))
                if len(lines) >= CSV_CHUNK_LINES:
                    flush(lines)
        flush(lines)
        return digest.hexdigest(), handle.tell()


class _Run:
    def __init__(self, scenario: Scenario, out_dir: Path, command: str,
                 quiet: bool):
        self.scenario = scenario
        self.out = out_dir
        self.command = command
        self.quiet = quiet
        self.outputs = []      # (path, sha256, bytes) per written file
        self.t0 = time.perf_counter()

    def say(self, message: str):
        if not self.quiet:
            print(message)

    def csv(self, name: str, header, rows):
        path = self.out / name
        self.outputs.append((path, *_write_csv(path, header, rows)))
        self.say(f"wrote {path}")

    def manifest(self):
        entries = [{"path": path.name, "sha256": sha, "bytes": size}
                   for path, sha, size in self.outputs]
        payload = {
            "scenario": self.scenario.name,
            "scenario_hash": hashlib.sha256(
                self.scenario.canonical_json().encode()).hexdigest(),
            "tool_version": __version__,
            "command": self.command,
            "outputs": entries,
            "wall_time_s": time.perf_counter() - self.t0,
        }
        path = self.out / "manifest.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        self.say(f"wrote {path}")


def _solve_base(scenario: Scenario):
    sys = scenario.build()
    p = scenario.base_params(sys)
    sol = newton_equilibrium(sys, sys.initial_guess(), p)
    return sys, p, sol


def _cmd_equilibrium(run: _Run, args):
    sys, p, sol = _solve_base(run.scenario)
    run.csv("bus_voltages.csv", ("bus", "vmag", "vd", "vq"),
            [(b, sys.bus_voltage_mag(sol.x, b), *sys.bus_voltage(sol.x, b))
             for b in sys.bus_ids])
    run.csv("states.csv", ("state", "value"),
            list(zip(sys.state_names, sol.x)))
    spec = spectrum_at(sys, sol.x, p)
    run.csv("spectrum.csv", ("re", "im"),
            [(z.real, z.imag) for z in spec.eigenvalues])
    run.say(f"equilibrium in {sol.iterations} iterations, rightmost "
            f"eigenvalue {spec.rightmost_real:.6g}")


def _known_param(p, name: str) -> str:
    try:
        p.index(name)
    except KeyError as exc:
        raise ScenarioError(exc.args[0]) from None
    return name


def _continuation_settings(run: _Run, args, p):
    cfg = dict(run.scenario.analysis["continuation"])
    param = cfg.pop("param")
    if args.steps:
        cfg["max_steps"] = args.steps
    return _known_param(p, args.param or param), ContinuationSettings(**cfg)


def _cmd_continue(run: _Run, args):
    sys, p, sol = _solve_base(run.scenario)
    param, settings = _continuation_settings(run, args, p)
    branch = continue_branch(sys, sol, param, settings)
    if branch.truncated:
        run.say(f"branch truncated: {branch.message}")
    run.csv("branch.csv",
            ("s", param, "rightmost_re") + sys.state_names,
            [(pt.s, pt.lam, pt.spectrum.rightmost_real, *pt.x)
             for pt in branch.points])
    records = locate_all(sys, branch, p)
    run.csv("bifurcations.csv",
            ("kind", param, "eig_re", "eig_im", "tolerance"),
            [(r.kind, r.lam,
              r.eig.real if r.eig is not None else float("nan"),
              r.eig.imag if r.eig is not None else float("nan"),
              r.tol_achieved) for r in records])
    run.say(f"{len(branch.points)} branch points, "
            f"{len(records)} bifurcation record(s)")


def _cmd_boundary2d(run: _Run, args):
    cfg = run.scenario.analysis.get("boundary2d")
    if cfg is None:
        raise ScenarioError("scenario has no analysis.boundary2d block")
    sys = run.scenario.build()
    p = run.scenario.base_params(sys)
    param1, settings = _continuation_settings(run, args, p)
    param2 = _known_param(p, cfg["param2"])
    grid = list(np.linspace(*args.grid)) if args.grid else cfg["grid"]
    boundary = trace_boundary_2d(sys, param1, param2, grid, settings, p)
    run.csv("boundary.csv", (param2, param1 + "_star", "kind"),
            [(row.param2, row.lam, row.kind) for row in boundary.rows])


def _transient(run: _Run):
    """Integrate the scenario's ``simulation`` block from its base
    equilibrium; return the system run, its parameters and the trajectory.

    A source marked ``rotating`` makes the run rotating: it starts from the
    fixed build's equilibrium with every source angle state at 0.
    """
    scenario = run.scenario
    sys, p, sol = _solve_base(scenario)
    x0 = sol.x
    if any(src.rotating for src in scenario.model.sources):
        fixed, sys = sys, scenario.build(rotating_sources=True)
        p = scenario.base_params(sys)
        x0 = np.array([0.0 if name.endswith(".theta_g")
                       else sol.x[fixed.state_index(name)]
                       for name in sys.state_names])
    cfg = scenario.analysis["simulation"]
    try:
        p = p.with_values(cfg["param_steps"]) if cfg["param_steps"] else p
    except KeyError as exc:
        raise ScenarioError(f"simulation.param_steps: {exc.args[0]}") from None
    traj = integrate(sys, x0, p, t_end=cfg["t_end"], h=cfg["h"])
    return sys, p, traj


def _cmd_simulate(run: _Run, args):
    sys, _, traj = _transient(run)
    run.csv("trajectory.csv", ("t",) + sys.state_names,
            ((t, *row.tolist()) for t, row in zip(traj.times, traj.states)))


def _cmd_secondary(run: _Run, args):
    sys = run.scenario.build()
    p = run.scenario.base_params(sys)
    cfg = run.scenario.analysis["secondary"]
    weights = {b: cfg["weights"].get(b, cfg["default_weight"])
               for b in sys.bus_ids}
    history = run_recursive(
        sys, p, WeightVector(weights, rho=cfg["rho"]),
        max_iter=cfg["max_iter"], tol_v=cfg["tol_v"], alpha=cfg["alpha"])
    v_rows = []
    g_rows = []
    for entry in history.iterations:
        snap = entry["snapshot"]
        for bus in sys.bus_ids:
            v_rows.append((entry["iteration"], bus, snap.voltages[bus]))
        for conv_id, (g_v, b_v) in sorted(entry["gains"].items()):
            g_rows.append((entry["iteration"], conv_id, g_v, b_v,
                           entry["objective"]))
    run.csv("secondary_voltages.csv", ("iter", "bus", "vmag"), v_rows)
    run.csv("secondary_gains.csv",
            ("iter", "converter", "g_v", "b_v", "objective"), g_rows)
    status = "converged" if history.converged else \
        (history.aborted or "iteration budget exhausted")
    run.say(f"secondary loop: {status} after "
            f"{len(history.iterations)} iteration(s)")


def _cmd_cf(run: _Run, args):
    scenario = run.scenario
    cfg = scenario.analysis.get("cf")
    if cfg is None:
        raise ScenarioError("scenario has no analysis.cf block")
    sys, p_run, traj = _transient(run)
    window = cfg["window"]
    omega0 = scenario.omega0
    blocks = [(cf_of_bus(sys, traj, cfg["bus"], omega0, window=window),
               "bus")]
    conv_id = cfg["converter"]
    if conv_id:
        if conv_id in sys.gfl_ids():
            blocks.append((pll_internal_frequency(sys, traj, conv_id, p_run,
                                                  window=window),
                           "pll_internal"))
        dec = decompose_converter_cf(sys, traj, conv_id, omega0, p_run)
        blocks += [(dec.synchronization, "synchronization"),
                   (dec.regulation, "regulation"), (dec.total, "total")]
    run.csv("cf.csv", ("t", "rho", "omega", "block"),
            ((t, rho, omega, block) for series, block in blocks
             for t, rho, omega in zip(series.times.tolist(),
                                      series.rho.tolist(),
                                      series.omega.tolist())))


_HANDLERS = {
    "equilibrium": _cmd_equilibrium,
    "continue": _cmd_continue,
    "boundary2d": _cmd_boundary2d,
    "simulate": _cmd_simulate,
    "secondary": _cmd_secondary,
    "cf": _cmd_cf,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(_sys.stderr)
        print(f"error: {message}", file=_sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _grid_spec(text: str):
    """``a:b:n`` with finite ``a < b`` and ``1 <= n <= MAX_GRID_POINTS``
    whose ``n`` evenly spaced points are finite and strictly increasing:
    a span that overflows, or one too narrow to hold ``n`` distinct
    floats, is rejected here."""
    try:
        lo, hi, num = text.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
        valid = math.isfinite(lo) and math.isfinite(hi) and lo < hi \
            and 1 <= num <= MAX_GRID_POINTS
    except ValueError:
        valid = False
    if valid:
        with np.errstate(all="ignore"):
            points = np.linspace(lo, hi, num)
            valid = bool(np.isfinite(points).all()
                         and (np.diff(points) > 0.0).all())
    if not valid:
        raise argparse.ArgumentTypeError(
            f"grid spec must be a:b:n with finite a < b, 1 <= n <= "
            f"{MAX_GRID_POINTS} and n distinct finite points from a to b, "
            f"got {text!r}")
    return lo, hi, num


def _step_budget(text: str) -> int:
    """A continuation step budget: an integer ``>= 1``."""
    try:
        steps = int(text)
    except ValueError:
        steps = 0
    if steps < 1:
        raise argparse.ArgumentTypeError(
            f"step budget must be an integer >= 1, got {text!r}")
    return steps


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adnlab",
                     description="voltage-stability laboratory for "
                                 "converter-dominated distribution networks")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--param", default=None,
                        help="override the continuation parameter name")
    parser.add_argument("--grid", type=_grid_spec, default=None,
                        metavar="a:b:n",
                        help="override the grid of the scenario's "
                             "boundary2d block (linspace)")
    parser.add_argument("--steps", type=_step_budget, default=None,
                        help="override the continuation step budget")
    parser.add_argument("--quiet", action="store_true")
    return parser


def run_command(argv) -> int:
    if argv and argv[0] in ("-h", "--help"):
        build_parser().print_help()
        return EXIT_OK
    if not argv or argv[0] not in COMMANDS:
        print(f"usage: adnlab {{{','.join(COMMANDS)}}} --scenario FILE "
              f"--out DIR", file=_sys.stderr)
        return EXIT_USAGE
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        scenario = load_scenario(args.scenario)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:     # a file by that name, or no permission
            print(f"error: --out {args.out}: cannot create the output "
                  f"directory: {exc.strerror}", file=_sys.stderr)
            return EXIT_USAGE
        run = _Run(scenario, out_dir, args.command, args.quiet)
        _HANDLERS[args.command](run, args)
        run.manifest()
    except AdnlabError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main():
    raise SystemExit(run_command(_sys.argv[1:]))


if __name__ == "__main__":
    main()
