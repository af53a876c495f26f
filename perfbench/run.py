"""semigeo benchmark: three CLI workloads, timed end to end, and a traced run.

    python3 perfbench/run.py --workload cg-bump48 --seed 0 --seconds 40 --trace 0

Run from the repository root.  Each workload calls the public entry point
``semigeo.cli.main(argv)`` in this process, one run at a time (a closed loop
with a single caller), for as many whole runs as fit in ``--seconds``, and
checks every run's artifacts (see checks.py).  Each CLI run, with the set-up
timed before it, sits between two timings of a fixed reference kernel, and
its times are scaled to the machine speed at which that kernel takes its
reference time (see speed.py).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics from spans recorded around the public functions of each
module (see tracer.py), and writes the spans to
``.bench_out/spans-<workload>-seed<seed>.csv``.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
NOTES.md says why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    n: int
    steps: int  # steps per CLI run
    argv: str  # CLI inputs; {delta} and {slope} are filled from the seed
    snap_every: int | None = None
    constant: bool = False  # exact fixed point: energy and lambda_min repeat


WORKLOADS = {
    "cg-bump48": Workload(
        n=48, steps=1,
        argv="--grid 48 --preset bump --bump-delta {delta} --dt 0.001 --emit csv"),
    "bicgstab-coriolis32": Workload(
        n=32, steps=4,
        argv="--grid 32 --preset bump --bump-delta {delta} --coriolis profile:{slope} "
             "--dt 0.001 --emit csv"),
    "fields-identity32": Workload(
        n=32, steps=10, snap_every=5, constant=True,
        argv="--grid 32 --preset identity --dt 0.01 --emit csv,fields --snap-every 5"),
}
DELTA, SLOPE = 0.01, 0.05
# Seeds other than 0 scale the bump amplitude and the Coriolis slope by a
# factor in [1 - PERTURB, 1 + PERTURB]: the smallest Hessian eigenvalue stays
# near 1 - 3 pi^2 delta > 0.6, and the rotation term stays far below half of it.
PERTURB = 0.05
# A traced CLI run's root spans must cover this share of the wall time of
# main(argv): what they leave out is argument parsing and the wrappers' own cost.
MIN_SPANNED = 0.99
# Set-up is timed this many times before each CLI run.
SETUP_REPEATS = 2


def cli_argv(workload: Workload, seed: int, out: Path) -> list[str]:
    rng = random.Random(seed)
    delta, slope = DELTA, SLOPE
    if seed != 0:
        delta *= 1.0 + PERTURB * rng.uniform(-1.0, 1.0)
        slope *= 1.0 + PERTURB * rng.uniform(-1.0, 1.0)
    text = workload.argv.format(delta=repr(delta), slope=repr(slope))
    return text.split() + ["--steps", str(workload.steps), "--out", str(out)]


def machine_facts(workload: Workload) -> dict:
    import numpy as np
    from tracer import operator_bytes

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}_bytes"] = int(size.rstrip("K")) * 1024
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cells = workload.n ** 3
    tensor = cells * 9 * 8
    l2 = caches.get("L2_bytes")
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        **caches,
        "cells": cells,
        "coef_tensor_bytes": tensor,
        "coef_tensor_over_l2": tensor / l2 if l2 else None,
        "apply_operator_bytes_computed": operator_bytes((workload.n,) * 3, mixed=True),
    }


def measure_setup(argv: list[str]) -> list[float]:
    """Wall times of the work before step 1 of a CLI run: the initial state
    and the scheme constants, built as run_experiment builds them."""
    from semigeo.cli import parse_config
    from semigeo.grid import GridSpec
    from semigeo.stepper import compute_constants, init_state

    cfg = parse_config(argv)
    spec = GridSpec(dims=cfg.dims, origin=cfg.origin, extents=cfg.extents)
    params = {"delta": cfg.bump_delta, "k": cfg.bump_k} if cfg.preset == "bump" else {}
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = init_state(cfg.preset, spec, **params)
        compute_constants(state, p=cfg.p, c_star=cfg.c_star, c_m=cfg.c_m)
        times.append(time.perf_counter() - start)
    return times


@dataclass
class Rep:
    wall: float
    steps_done: int
    series: bytes
    outcome: object
    spans: range = range(0)  # indices of the run's spans in the tracer
    scale: float = 1.0  # machine-speed factor around the run (speed.py)

    @property
    def ms_per_step(self) -> float:
        """Wall time per completed step, at the reference machine speed."""
        return 1e3 * self.wall * self.scale / max(self.steps_done, 1)


def run_once(workload: Workload, argv: list[str], out: Path, reference: dict | None,
             tracer=None) -> Rep:
    from checks import Outcome, check_run
    from semigeo.cli import main

    out.mkdir(parents=True)
    first_span = len(tracer.names) if tracer else 0
    try:
        start = time.perf_counter()
        if tracer is None:
            status = main(argv)
        else:
            with tracer.installed():
                status = main(argv)
        wall = time.perf_counter() - start
        spans = range(first_span, len(tracer.names) if tracer else 0)
        outcome = check_run(out, workload.steps, workload.n, workload.snap_every,
                            workload.constant, reference)
        if status != 0:
            outcome.run_ok = False
            outcome.problems.append(f"CLI exit status {status}")
        meta = json.loads((out / "run.json").read_text())
        return Rep(wall, meta["steps_completed"], (out / "series.csv").read_bytes(), outcome,
                   spans)
    except Exception as err:  # a crash of the program under test is a failed run
        snaps = workload.steps // workload.snap_every if workload.snap_every else 0
        outcome = Outcome(steps_requested=workload.steps, snaps_requested=snaps,
                          failed_steps=set(range(1, workload.steps + 1)), failed_snaps=snaps,
                          problems=[f"run failed: {type(err).__name__}: {err}"], run_ok=False)
        return Rep(float("nan"), 0, b"", outcome)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_reps(workload, seed, reference, deadline, scratch, tracer=None):
    """Whole CLI runs until the next one would overrun the deadline.  Without
    a tracer, set-up is timed before each; with one, untraced and traced runs
    alternate, at least one of each.  The reference kernel is timed before
    the first run and after every run; the set-up and run between two such
    timings are scaled by the geometric mean of their two factors."""
    from speed import Kernel

    reps, traced, setup = [], [], []
    setup_argv = cli_argv(workload, seed, scratch / "setup")
    kernel = Kernel(workload.n)
    kernel.seconds()  # warm-up: the first timings in a process read slow
    before = kernel.scale()
    while True:
        started = time.perf_counter()
        setup_times = measure_setup(setup_argv) if tracer is None else []
        use_tracer = tracer is not None and len(reps) > len(traced)
        out = scratch / f"rep{len(reps) + len(traced)}"
        rep = run_once(workload, cli_argv(workload, seed, out), out, reference,
                       tracer if use_tracer else None)
        after = kernel.scale()
        rep.scale = (before * after) ** 0.5
        before = after
        setup += [t * rep.scale for t in setup_times]
        (traced if use_tracer else reps).append(rep)
        enough = reps and (tracer is None or traced)
        if enough and time.perf_counter() + (time.perf_counter() - started) > deadline:
            return reps, traced, setup


def per_layer_metrics(tracer, traced: list[Rep], untraced: list[Rep]) -> tuple[dict, list]:
    from tracer import MODULES, STEP_SPANS

    names, starts, ends = tracer.names, tracer.starts, tracer.ends
    dur = [e - s for s, e in zip(starts, ends)]
    self_t = tracer.self_times()
    steps = sum(name in STEP_SPANS for name in names)
    per_step = max(steps, 1)
    problems = []

    # Per-step counts use the stepping window of each run: from the start of
    # its first step to its end, which leaves out set-up and the step-0 record.
    in_window = [False] * len(names)
    for r, name in enumerate(names):
        if name != "stepper.run":
            continue
        opens = min((starts[i] for i, nm in enumerate(names)
                     if nm in STEP_SPANS and starts[r] <= starts[i] <= ends[r]), default=ends[r])
        for i in range(len(names)):
            if opens <= starts[i] and ends[i] <= ends[r]:
                in_window[i] = True

    def spans(name):
        return [i for i, nm in enumerate(names) if nm == name]

    def calls_per_step(name):
        return sum(in_window[i] for i in spans(name)) / per_step

    def mean_ms(name):
        idx = spans(name)
        return 1e3 * sum(dur[i] for i in idx) / len(idx) if idx else 0.0

    def mean_note(name):
        idx = spans(name)
        return sum(tracer.notes[i] for i in idx) / len(idx) if idx else 0.0

    step_idx = [i for i, nm in enumerate(names) if nm in STEP_SPANS]
    step_total = sum(dur[i] for i in step_idx)
    step_self = sum(self_t[i] for i in step_idx)
    solve_in_steps = sum(dur[i] for i in spans("divcurl.solve_darcy") if in_window[i])

    # The spans must account for the run as a clock outside the tracer sees it:
    # the root spans of each traced run cover nearly all of the wall time of
    # main(argv), and so do the self times of all its spans, which sum to them.
    spanned = [sum(dur[i] for i in rep.spans if tracer.parents[i] < 0) / rep.wall
               for rep in traced if rep.steps_done > 0]
    if any(share < MIN_SPANNED for share in spanned):
        problems.append(f"spans cover {min(spanned):.4f} of a traced run's wall time, "
                        f"below {MIN_SPANNED}")

    # The series must not depend on tracing.  Each traced run's Krylov
    # iterations, step by step from its solve_darcy spans, must repeat the
    # solver_iters column that an untraced run wrote.
    first = untraced[0].series
    if any(rep.series != first for rep in untraced + traced):
        problems.append("series.csv differs between runs (traced or untraced)")
    rows = csv.DictReader(io.StringIO(first.decode()))
    series_iters = [int(r["solver_iters"]) for r in rows if int(r["step"]) > 0] * len(traced)
    step_iters = []
    for i, name in enumerate(names):
        if name in STEP_SPANS:
            step_iters.append(0)
        elif name == "divcurl.solve_darcy" and in_window[i]:
            step_iters[-1] += tracer.notes[i]
    krylov = sum(step_iters)
    if step_iters != series_iters:
        problems.append(f"traced Krylov iterations per step {step_iters} != "
                        f"series.csv solver_iters {series_iters}")

    def median_ms_per_step(reps):
        return statistics.median(r.ms_per_step for r in reps)

    module_self = {m: 0.0 for m in MODULES}
    for i, name in enumerate(names):
        module_self[name.split(".")[0]] += self_t[i]

    metrics = {
        "divcurl.krylov_iters_per_step": (krylov / per_step, "count"),
        "divcurl.apply_operator_calls_per_step": (calls_per_step("divcurl.apply_operator"), "count"),
        "divcurl.apply_operator_ms": (mean_ms("divcurl.apply_operator"), "ms"),
        "divcurl.apply_operator_bytes": (mean_note("divcurl.apply_operator"), "B"),
        "divcurl.solve_darcy_ms": (mean_ms("divcurl.solve_darcy"), "ms"),
        "divcurl.solve_share": (solve_in_steps / step_total if step_total else 0.0, "frac"),
        "divcurl.reduce_to_darcy_ms": (mean_ms("divcurl.reduce_to_darcy"), "ms"),
        "divcurl.verify_estimate_ms": (mean_ms("divcurl.verify_estimate"), "ms"),
        "stepper.step_ms": (1e3 * step_total / per_step, "ms"),
        "stepper.step_self_ms": (1e3 * step_self / per_step, "ms"),
        "stepper.step_self_frac": (step_self / step_total if step_total else 0.0, "frac"),
        "stepper.transport_data_ms": (mean_ms("stepper.transport_data"), "ms"),
        "stepper.transport_data_calls_per_step": (calls_per_step("stepper.transport_data"), "count"),
        "stepper.init_state_ms": (mean_ms("stepper.init_state"), "ms"),
        "stepper.compute_constants_ms": (mean_ms("stepper.compute_constants"), "ms"),
        "grid.hessian_calls_per_step": (calls_per_step("grid.hessian"), "count"),
        "grid.hessian_ms": (mean_ms("grid.hessian"), "ms"),
        "grid.gradient_calls_per_step": (calls_per_step("grid.gradient"), "count"),
        "grid.eigmin_symmetric_calls_per_step": (calls_per_step("grid.eigmin_symmetric"), "count"),
        "grid.sobolev_norm_ms": (mean_ms("grid.sobolev_norm"), "ms"),
        "coriolis.coriolis_transport_data_ms": (mean_ms("coriolis.coriolis_transport_data"), "ms"),
        "coriolis.coriolis_transport_data_calls_per_step":
            (calls_per_step("coriolis.coriolis_transport_data"), "count"),
        "diagnostics.emit_record_ms": (mean_ms("diagnostics.emit_record"), "ms"),
        "diagnostics.curl_residual_ms": (mean_ms("diagnostics.curl_residual"), "ms"),
        "cli.write_structured_points_ms": (mean_ms("cli.write_structured_points"), "ms"),
        "cli.snapshot_mb": (mean_note("cli.write_structured_points") / 2**20, "MiB"),
        "cli.write_series_csv_ms": (mean_ms("cli.write_series_csv"), "ms"),
        **{f"{m}.self_ms_per_step": (1e3 * t / per_step, "ms") for m, t in module_self.items()},
        "trace.unspanned_frac": (1.0 - min(spanned, default=0.0), "frac"),
        "trace.overhead_frac":
            (median_ms_per_step(traced) / median_ms_per_step(untraced) - 1.0, "frac"),
    }
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs the stated configuration; others perturb it")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "semigeo" / "__init__.py").is_file():
        print(f"error: no semigeo package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread, recorded in the facts: a second OpenBLAS thread splits
    # the dot products, which reorders their sums and so changes the Krylov
    # iteration counts, and it spins a second core without lowering wall time.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    reference = None  # the stored final row belongs to seed 0
    if args.seed == 0:
        references = json.loads((BENCH / "reference.json").read_text())
        reference = {k: float(v) for k, v in references[args.workload].items()}
    print("facts", json.dumps(machine_facts(workload), sort_keys=True), flush=True)

    scratch = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    deadline = time.perf_counter() + args.seconds
    tracer = Tracer() if args.trace else None
    try:
        reps, traced, setup = run_reps(workload, args.seed, reference, deadline, scratch, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    outcomes = [rep.outcome for rep in reps + traced]
    problems = [p for o in outcomes for p in o.problems]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    done = [rep for rep in reps if rep.steps_done > 0]
    if not done:
        print("error: no run completed a step:", *sorted(set(problems)), sep="\n", file=sys.stderr)
        return 1
    trace_problems = []
    if tracer is None:
        metrics = {
            "ms_per_step": (statistics.median(r.ms_per_step for r in done), "ms"),
            "cell_steps_per_s":
                (statistics.median(1e3 * workload.n ** 3 / r.ms_per_step for r in done), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
        }
    else:
        metrics, trace_problems = per_layer_metrics(tracer, traced, reps)
        problems += trace_problems
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.dump(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    correct = all(o.correct for o in outcomes) and not trace_problems

    print(f"{args.workload} seed {args.seed}: {len(reps)} untraced and {len(traced)} traced "
          f"runs of {workload.steps} steps")
    for label, group in (("untraced", reps), ("traced", traced)):
        if group:
            raw = ", ".join(f"{1e3 * r.wall / max(r.steps_done, 1):.1f}" for r in group)
            scales = ", ".join(f"{r.scale:.3f}" for r in group)
            scaled = ", ".join(f"{r.ms_per_step:.1f}" for r in group)
            print(f"{label} ms/step per run, as timed: {raw}")
            print(f"{label} machine-speed factor per run: {scales}")
            print(f"{label} ms/step per run, at reference speed: {scaled}")
    for problem in sorted(set(problems)):
        print(f"check failed ({problems.count(problem)}x): {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
