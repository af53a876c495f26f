"""The benchmark in perfbench/ reaches into the library by name: its tracer
wraps functions listed in TRACED, its set-up timing reads RunConfig fields,
and its checks read the CLI's series.csv and VTK snapshots.  These tests fail
when a library change breaks any of these hooks."""

import csv
import functools
import importlib
import importlib.util
import io
import sys
import threading
from pathlib import Path

import pytest

import semigeo.grid
from semigeo.cli import main, parse_config

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the RunConfig fields that perfbench/run.py measure_setup reads
SETUP_FIELDS = ("dims", "origin", "extents", "preset", "bump_delta", "bump_k",
                "p", "c_star", "c_m")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load("tracer")
    missing = [f"{mod}.{name}" for mod, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"semigeo.{mod}"), name, None))]
    assert missing == []


def test_setup_reads_config_fields(tmp_path):
    bench = load("run")
    for workload in bench.WORKLOADS.values():
        cfg = parse_config(bench.cli_argv(workload, 0, tmp_path))
        assert [name for name in SETUP_FIELDS if not hasattr(cfg, name)] == []


def test_setup_times_init_state_and_constants(tmp_path):
    # measure_setup calls init_state and compute_constants directly, outside the CLI
    bench = load("run")
    argv = ["--grid", "6", "--preset", "bump", "--dt", "0.001", "--steps", "1",
            "--out", str(tmp_path / "run")]
    times = bench.measure_setup(argv)
    assert len(times) == bench.SETUP_REPEATS and min(times) > 0


def test_checks_read_the_artifacts(tmp_path):
    checks = load("checks")
    out = tmp_path / "run"
    assert main(["--grid", "6", "--preset", "bump", "--dt", "0.001", "--steps", "2",
                 "--emit", "csv,fields", "--snap-every", "1", "--out", str(out)]) == 0
    for j in (1, 2):
        assert checks.vtk_problem(out / f"fields_{j:04d}.vtk", 6) is None
    outcome = checks.check_run(out, steps=2, n=6, snap_every=1, constant=False,
                               reference=None)
    assert outcome.correct and outcome.failed == 0, outcome.problems


@pytest.mark.parametrize("inputs", [
    "--grid 6 --preset bump",
    "--grid 6 --preset bump --coriolis profile:0.05",  # BiCGStab, has_mixed read
    "--grid 8 --preset identity --emit csv,fields --snap-every 1",  # rhs 0, snapshots
], ids=["cg-bump", "bicgstab-coriolis", "fields-identity"])
def test_tracer_sees_every_step(tmp_path, inputs):
    # a traced run is refused when its root spans miss part of main(argv), or
    # when the Krylov iterations its spans show per step differ from series.csv
    tracer = load("tracer")
    out = tmp_path / "run"
    spans = tracer.Tracer()
    with spans.installed():
        assert main(inputs.split() + ["--dt", "0.001", "--steps", "2",
                                      "--out", str(out)]) == 0
    roots = {name for name, parent in zip(spans.names, spans.parents) if parent < 0}
    assert roots == {"cli.run_experiment"}
    # read as perfbench/run.py per_layer_metrics reads them: a step span opens
    # a step, and each solve_darcy span adds its iterations to it
    step_iters = []
    for i, name in enumerate(spans.names):
        if name in tracer.STEP_SPANS:
            step_iters.append(0)
        elif name == "divcurl.solve_darcy":
            step_iters[-1] += spans.notes[i]
    rows = csv.DictReader(io.StringIO((out / "series.csv").read_text()))
    assert step_iters == [int(r["solver_iters"]) for r in rows if int(r["step"]) > 0]


def test_traced_calls_stay_on_the_main_thread(tmp_path, workers, monkeypatch):
    # the tracer keeps one stack of nested spans, so every traced function
    # must run on the thread that called main(), not on the row-slab worker
    tracer = load("tracer")
    off_main, slab_threads = [], set()

    class MainThreadOnly(tracer.Tracer):
        def wrap(self, name, fn):
            traced = super().wrap(name, fn)

            @functools.wraps(fn)
            def checked(*args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(name)
                return traced(*args, **kwargs)

            return checked

    eigmin_rows = semigeo.grid._eigmin_rows
    monkeypatch.setattr(semigeo.grid, "_eigmin_rows", lambda c: (
        slab_threads.add(threading.current_thread()), eigmin_rows(c))[1])
    workers(2)
    with MainThreadOnly().installed():
        assert main(["--grid", "17,6,7", "--preset", "bump", "--coriolis", "profile:0.05",
                     "--emit", "csv,fields", "--snap-every", "1", "--dt", "0.001",
                     "--steps", "2", "--out", str(tmp_path / "run")]) == 0
    assert off_main == []
    assert len(slab_threads) == 2  # the worker did run slabs
