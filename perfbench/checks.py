"""Output checks on one CLI run directory.

Operations are the steps and the snapshots a run was asked for.  A step fails
when the run halted before it or its series.csv row breaks a check below; a
snapshot fails when it is missing or does not parse as legacy VTK with n^3
points.  The thresholds hold for every seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOL = 1e-10  # the solver tolerance every workload runs with
# curl(grad P) of a stored gradient is rounding; the largest seen is 8e-15.
CURL_RESIDUAL_MAX = 1e-13
# The identity state is an exact fixed point: energy and lambda_min repeat.
CONSTANT_RTOL = 1e-12
# Reference tolerances, derived from TOL.  The state moves by dt * q, so a
# change in rounding of the solve shows in its columns far below 100 * TOL;
# the velocity is grad q itself, whose error can reach cond * TOL (~1e4 here).
STATE_RTOL = 100 * TOL
VELOCITY_RTOL = 1e4 * TOL
STATE_COLUMNS = ("energy", "l2_gradP", "lp_gradP", "linf_gradP", "w3p_gradP",
                 "lambda_min", "bbox_min_x", "bbox_min_y", "bbox_min_z",
                 "bbox_max_x", "bbox_max_y", "bbox_max_z")
VELOCITY_COLUMNS = ("u_max", "est_ratio_u", "est_ratio_Au")
# The other columns are not compared with the reference: the argmin cell ties
# between mirror cells of the bump, the curl residual is rounding, and the
# iteration count and residual belong to the solver, which may be replaced.
EST_COLUMNS = ("est_ratio_u", "est_ratio_Au")


@dataclass
class Outcome:
    steps_requested: int
    snaps_requested: int
    failed_steps: set = field(default_factory=set)
    failed_snaps: int = 0
    problems: list = field(default_factory=list)
    run_ok: bool = True  # no halt, and a sound initial row

    @property
    def correct(self) -> bool:
        return self.run_ok and not self.failed_steps

    @property
    def attempted(self) -> int:
        return self.steps_requested + self.snaps_requested

    @property
    def failed(self) -> int:
        return len(self.failed_steps) + self.failed_snaps


def read_series(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _row_problem(row: dict, constant_row: dict | None) -> str | None:
    for key, value in row.items():
        if math.isnan(value) and key in EST_COLUMNS and row["u_max"] == 0.0:
            continue  # ratios are not applicable when the curl source vanishes
        if not math.isfinite(value):
            return f"{key} is {value}"
    if row["solver_residual"] > TOL:
        return f"solver_residual {row['solver_residual']:.3e} > tol {TOL:.0e}"
    if row["curl_residual"] > CURL_RESIDUAL_MAX:
        return f"curl_residual {row['curl_residual']:.3e} > {CURL_RESIDUAL_MAX:.0e}"
    if constant_row is not None:
        for key in ("energy", "lambda_min"):
            if abs(row[key] - constant_row[key]) > CONSTANT_RTOL * abs(constant_row[key]):
                return f"{key} moved off the fixed point: {row[key]!r} vs {constant_row[key]!r}"
    return None


def _reference_problem(row: dict, reference: dict) -> str | None:
    for key in ("step", "time"):
        if row[key] != reference[key]:
            return f"{key} {row[key]!r} differs from reference {reference[key]!r}"
    for keys, rtol in ((STATE_COLUMNS, STATE_RTOL), (VELOCITY_COLUMNS, VELOCITY_RTOL)):
        for key in keys:
            got, want = row[key], reference[key]
            if math.isnan(want) and math.isnan(got):
                continue
            if not abs(got - want) <= rtol * abs(want):
                return f"{key} {got!r} differs from reference {want!r} (rtol {rtol:.0e})"
    return None


def vtk_problem(path: Path, n: int) -> str | None:
    """Why a structured-points snapshot is unreadable, or None if it parses."""
    if not path.exists():
        return "missing"
    lines = path.read_text().split("\n")
    count = n ** 3
    if f"DIMENSIONS {n} {n} {n}" not in lines or f"POINT_DATA {count}" not in lines:
        return "header does not declare an n^3 point set"
    sections = (("LOOKUP_TABLE default", 1), ("VECTORS gradP double", 3), ("VECTORS u double", 3))
    for header, width in sections:
        if header not in lines:
            return f"no {header!r} section"
        start = lines.index(header) + 1
        block = lines[start:start + count]
        if len(block) < count:
            return f"{header!r}: {len(block)} lines, expected {count}"
        tokens = " ".join(block).split()
        try:
            values = np.array(tokens, dtype=float)
        except ValueError:
            bad = next(line for line in block if not _parses(line))
            return f"{header!r}: value line {bad[:40]!r} is not numeric"
        if values.size != width * count or not np.all(np.isfinite(values)):
            return f"{header!r}: expected {width * count} finite values, got {values.size}"
        if any(len(line.split()) != width for line in block):
            return f"{header!r}: a line does not hold {width} values"
    return None


def _parses(line: str) -> bool:
    try:
        [float(t) for t in line.split()]
    except ValueError:
        return False
    return True


def check_run(out_dir: Path, steps: int, n: int, snap_every: int | None,
              constant: bool, reference: dict | None) -> Outcome:
    """Check one run's artifacts; snap_every is None when fields are off."""
    snaps = steps // snap_every if snap_every else 0
    outcome = Outcome(steps_requested=steps, snaps_requested=snaps)
    meta = json.loads((out_dir / "run.json").read_text())
    rows = {int(r["step"]): r for r in read_series(out_dir / "series.csv")}
    run_problem = None
    if meta["halt_reason"] != "completed":
        run_problem = f"run halted: {meta['halt_reason']}"
    elif 0 not in rows:
        run_problem = "series.csv has no step 0 row"
    elif (problem := _row_problem(rows[0], None)) is not None:
        run_problem = f"step 0: {problem}"
    if run_problem:
        outcome.run_ok = False
        outcome.problems.append(run_problem)
    constant_row = rows.get(0) if constant else None
    for j in range(1, steps + 1):
        problem = "missing" if j not in rows else _row_problem(rows[j], constant_row)
        if problem is None and j == steps and reference is not None:
            problem = _reference_problem(rows[j], reference)
        if problem:
            outcome.failed_steps.add(j)
            outcome.problems.append(f"step {j}: {problem}")
    for j in range(1, snaps + 1):
        problem = vtk_problem(out_dir / f"fields_{j * snap_every:04d}.vtk", n)
        if problem:
            outcome.failed_snaps += 1
            outcome.problems.append(f"snapshot {j * snap_every}: {problem}")
    return outcome
