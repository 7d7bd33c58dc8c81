"""Correctness checks and degradation accounting on one study's artifacts.

Every check returns a list of problems; an empty list means the check
passed.  A study with any problem counts as failed.  Degradation is
counted separately: it marks a study that succeeded but survived a
numerical setback the program reports only on stdout or in-row.
"""

import csv
import hashlib
import json
import math
import re
from pathlib import Path

# Tolerances.  The cf additivity bound is the one acceptance criterion 9
# pins; the objective slack is the secondary loop's own acceptance rule
# (``objective <= previous + 1e-14``).
NOSE_REL_TOL = 1e-6
CF_ADDITIVITY_TOL = 1e-6
OBJECTIVE_SLACK = 1e-14
GAIN_BOX_REL_TOL = 1e-9

_SECONDARY_STATUS = re.compile(r"^secondary loop: (.*) after \d+ iteration")


def read_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def manifest_problems(out_dir: Path) -> list:
    """Every manifest entry names a file whose sha256 and size match."""
    path = out_dir / "manifest.json"
    if not path.is_file():
        return ["manifest.json missing"]
    problems = []
    for entry in json.loads(path.read_text(encoding="utf-8"))["outputs"]:
        target = out_dir / entry["path"]
        if not target.is_file():
            problems.append(f"{entry['path']}: listed but missing")
            continue
        data = target.read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(f"{entry['path']}: sha256 differs from manifest")
        elif len(data) != entry["bytes"]:
            problems.append(f"{entry['path']}: size differs from manifest")
    return problems


def csv_hashes(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def written_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def analytic_nose(scenario: dict, line_l: float) -> float:
    """Loading factor at the nose of the two-bus case.

    ``scenario`` is the canonical form (every default filled in).
    A source of EMF ``V`` feeds a constant-power load ``p0`` through a
    lossless line of reactance ``X = omega0 * l``.  The load bus carries a
    shunt susceptance ``B``, which turns the feed into a Thevenin source of
    ``V / (1 - X B)`` behind ``X / (1 - X B)``, so the nose sits at
    ``V^2 / (2 X p0 (1 - X B))``.  With ``B = 0`` this is the textbook
    ``V^2 / (2 omega0 l p0)``; the bundled 1e-6 pu shunt alone moves the
    nose by ``X B``, which is 1e-6 relative on the ``X = 1`` row.
    """
    x_line = 2.0 * math.pi * scenario["base"]["f_hz"] * line_l
    (load,) = scenario["zip_loads"]
    (source,) = scenario["sources"]
    (bus,) = [b for b in scenario["buses"] if b["id"] == load["bus"]]
    v = source["e_mag"]
    return v * v / (2.0 * x_line * load["p0"] * (1.0 - x_line * bus["b_sh"]))


def nose_problems(out_dir: Path, scenario: dict) -> list:
    """Each boundary row's ``lambda_star`` matches the analytic nose."""
    header, rows = read_rows(out_dir / "boundary.csv")
    problems = []
    for row in rows:
        line_l, lam = float(row[0]), float(row[1])
        expected = analytic_nose(scenario, line_l)
        if not abs(lam - expected) <= NOSE_REL_TOL * abs(expected):
            problems.append(f"boundary row {row[0]}: lambda_star {lam!r} vs "
                            f"analytic {expected!r}")
    return problems


def cf_additivity_problems(out_dir: Path) -> list:
    """synchronization + regulation - total stays within the pinned bound."""
    header, rows = read_rows(out_dir / "cf.csv")
    blocks = {}
    for t, rho, omega, block in rows:
        blocks.setdefault(block, []).append((t, float(rho), float(omega)))
    if not all(b in blocks for b in ("synchronization", "regulation",
                                      "total")):
        return ["cf.csv lacks a synchronization, regulation or total block"]
    sync, reg, total = (blocks[b] for b in
                        ("synchronization", "regulation", "total"))
    if not len(sync) == len(reg) == len(total):
        return ["cf.csv blocks differ in length"]
    worst = 0.0
    for s, r, t in zip(sync, reg, total):
        if not s[0] == r[0] == t[0]:
            return [f"cf.csv blocks sample different times at t={t[0]}"]
        worst = max(worst, abs(s[1] + r[1] - t[1]), abs(s[2] + r[2] - t[2]))
    if not worst <= CF_ADDITIVITY_TOL:
        return [f"cf block additivity residual {worst:.3e} exceeds "
                f"{CF_ADDITIVITY_TOL:g}"]
    return []


def secondary_problems(out_dir: Path, scenario: dict) -> list:
    """Objectives never increase; every gain stays inside its box.

    ``scenario`` is the canonical form (every default filled in)."""
    header, rows = read_rows(out_dir / "secondary_gains.csv")
    boxes = {c["id"]: (c["val"]["g_min"], c["val"]["g_max"],
                       c["val"]["b_min"], c["val"]["b_max"])
             for c in scenario["converters"] if c["kind"] == "gfl"}
    problems = []
    previous = float("inf")
    for it, conv_id, g_v, b_v, obj in rows:
        # Rows come in iteration order, each carrying its iteration's
        # objective, so the column never rises from one row to the next.
        if not float(obj) <= previous + OBJECTIVE_SLACK:
            problems.append(f"objective rose at iteration {it}: "
                            f"{previous!r} -> {float(obj)!r}")
        previous = float(obj)
        g_lo, g_hi, b_lo, b_hi = boxes[conv_id]
        for name, value, lo, hi in (("g_v", float(g_v), g_lo, g_hi),
                                    ("b_v", float(b_v), b_lo, b_hi)):
            slack = GAIN_BOX_REL_TOL * max(1.0, abs(lo), abs(hi))
            if not lo - slack <= value <= hi + slack:
                problems.append(f"iteration {it}: {conv_id}.{name}={value!r} "
                                f"outside [{lo}, {hi}]")
    return problems


def degradations(command: str, stdout: str, out_dir: Path) -> list:
    """Setbacks a successful study survived, read from stdout and CSVs.

    ``--quiet`` artifacts record neither a truncated branch nor the
    secondary loop's status, so both come from the captured stdout.
    """
    found = []
    for line in stdout.splitlines():
        if line.startswith("branch truncated:"):
            found.append(line)
        match = _SECONDARY_STATUS.match(line)
        if match and match.group(1) != "converged":
            found.append(line)
    if command == "boundary2d":
        header, rows = read_rows(out_dir / "boundary.csv")
        found += [f"boundary row {row[0]}: error" for row in rows
                  if row[2] == "error"]
    return found


def study_problems(command: str, out_dir: Path, scenario: dict,
                   check_nose: bool) -> list:
    """All checks that apply to one finished study."""
    problems = manifest_problems(out_dir)
    if problems:
        return problems
    if command == "boundary2d" and check_nose:
        problems += nose_problems(out_dir, scenario)
    elif command == "cf":
        problems += cf_additivity_problems(out_dir)
    elif command == "secondary":
        problems += secondary_problems(out_dir, scenario)
    return problems
