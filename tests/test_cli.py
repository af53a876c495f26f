import ctypes
import json
import random
import re
import resource
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import semigeo.cli
import semigeo.stepper
from semigeo.cli import (
    CSV_COLUMNS,
    RunConfig,
    UsageError,
    main,
    parse_config,
    write_structured_points,
)
from semigeo.diagnostics import emit_record
from semigeo.divcurl import verify_estimate
from semigeo.grid import GridSpec
from semigeo.stepper import SchemeConfig, compute_constants, init_state, run, step

from conftest import joined_series_csv, joined_vtk_text


def vtk_block(text, header, count):
    """The count value lines after a section header, parsed as floats."""
    start = text.index(header) + 1
    return np.array([[float(v) for v in ln.split()] for ln in text[start:start + count]])


BUMP = ["--grid", "8,8,12", "--extent", "1,1,2", "--preset", "bump", "--bump-delta", "0.005",
        "--bump-k", "2", "--dt", "0.01", "--steps", "7", "--coriolis", "profile:0.05",
        "--tol", "1e-9", "--snap-every", "2", "--log-every", "3", "--strict", "--out", "results"]

# together these set every configuration key, and each Coriolis mode
ROUND_TRIP = {
    "bump-csv-fields": BUMP + ["--emit", "csv,fields"],
    "bump-fields": BUMP + ["--emit", "fields"],
    "tilt-auto-tau": ["--grid", "8", "--preset", "tilt", "--tilt", "0.1,0,0.05", "--auto-tau",
                      "--steps", "5", "--p", "inf", "--cstar", "2", "--cm", "0.5",
                      "--maxiter", "50", "--coriolis", "off"],
    "quadratic-tmax-origin": ["--grid", "8", "--preset", "quadratic", "--quad", "2,1,0.5",
                              "--dt", "0.01", "--tmax", "0.05", "--origin", "0.5,0,-1e-3",
                              "--coriolis", "const:0.8"],
    "file-no-emit": ["--dt", "0.01", "--steps", "2", "--coriolis", "file:fields/f.txt",
                     "--emit", "", "--auto-tau", "false", "--strict", "no"],
}


def test_readme_flag_table_names_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    flags = [line.split("|")[1] for line in readme.splitlines() if line.startswith("| `--")]
    named = set(re.findall(r"--([a-z-]+)", " ".join(flags)))
    assert named == set(semigeo.cli._KEYS) | {"config", "sweep"}


class TestParseConfig:
    def test_steps_and_tmax_derive_dt(self):
        cfg = parse_config(["--grid", "16", "--preset", "identity",
                            "--steps", "100", "--tmax", "1.0"])
        assert cfg.dims == (16, 16, 16)
        assert cfg.steps == 100 and cfg.tmax == 1.0 and cfg.dt is None

    def test_auto_tau_horizon(self):
        cfg = parse_config(["--preset", "tilt", "--tilt", "0.1,0,0.05",
                            "--auto-tau", "--steps", "50"])
        assert cfg.auto_tau and cfg.tmax is None
        assert cfg.tilt == (0.1, 0.0, 0.05)

    def test_overdetermined_schedule_rejected(self):
        with pytest.raises(UsageError) as err:
            parse_config(["--steps", "100", "--dt", "0.02", "--tmax", "1.0"])
        assert any("over-determined" in v for v in err.value.violations)

    def test_two_horizons_one_violation(self):
        # the rule for a schedule without a horizon does not apply to two
        with pytest.raises(UsageError) as err:
            parse_config(["--grid", "6", "--tmax", "1", "--auto-tau", "--dt", "0.1"])
        assert err.value.violations == ["give only one of tmax / auto-tau"]

    def test_all_violations_reported(self):
        with pytest.raises(UsageError) as err:
            parse_config(["--grid", "2", "--preset", "wiggle", "--p", "2",
                          "--dt", "0.01", "--steps", "5"])
        text = " ".join(err.value.violations)
        assert "grid" in text and "preset" in text and "p" in text

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["--frobnicate", "7", "--dt", "0.1", "--steps", "2"])

    def test_coriolis_specs(self):
        base = ["--dt", "0.01", "--steps", "5"]
        cfg = parse_config(base + ["--coriolis", "const:0.8"])
        assert cfg.coriolis == ("const", 0.8)
        cfg = parse_config(base + ["--coriolis", "profile:0.05"])
        assert cfg.coriolis == ("profile", 0.05)
        with pytest.raises(UsageError):
            parse_config(base + ["--coriolis", "sideways"])

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("grid=8\npreset=tilt\ntilt=0.1,0,0\ndt=0.02\nsteps=10\n# note\n")
        cfg = parse_config(["--config", str(cfile), "--steps", "20"])
        assert cfg.dims == (8, 8, 8)
        assert cfg.steps == 20  # flag wins
        assert cfg.dt == 0.02

    def test_config_file_unknown_key(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("wibble=1\ndt=0.1\nsteps=2\n")
        with pytest.raises(UsageError) as err:
            parse_config(["--config", str(cfile)])
        assert any("wibble" in v for v in err.value.violations)

    def test_config_file_key_given_twice(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("grid=6\ndt=0.01\nsteps=1\ngrid=7\nwibble=1\n")
        with pytest.raises(UsageError) as err:
            parse_config(["--config", str(cfile)])
        assert err.value.violations == [f"{cfile}:4: key 'grid' given twice",
                                        f"{cfile}:5: unknown key 'wibble'"]

    def test_each_field_has_one_key(self):
        # _KEYS is derived from the fields: a shared key would drop a field from it
        keys = [f.metadata["key"] for f in fields(RunConfig)]
        assert len(set(keys)) == len(keys)
        assert [(key, f.name) for key, f in semigeo.cli._KEYS.items()] == [
            (f.metadata["key"], f.name) for f in fields(RunConfig)]

    def test_p_inf_selects_linf(self):
        assert parse_config(["--p", "inf", "--dt", "0.01", "--steps", "1"]).p == np.inf

    @pytest.mark.parametrize("argv", ROUND_TRIP.values(), ids=ROUND_TRIP.keys())
    def test_echo_round_trip(self, argv):
        cfg = parse_config(argv)
        echo = cfg.key_values()
        argv = []
        for key, value in echo.items():
            argv.extend([f"--{key}", value])
        assert parse_config(argv) == cfg
        assert parse_config(argv).key_values() == echo

    def test_round_trip_sets_every_key(self):
        given = {arg[2:] for argv in ROUND_TRIP.values() for arg in argv if arg.startswith("--")}
        assert given == set(semigeo.cli._KEYS)
        modes = {parse_config(argv).coriolis[0] for argv in ROUND_TRIP.values()}
        assert modes == {"off", "const", "profile", "file"}

    @pytest.mark.parametrize("word, value", [
        ("true", True), ("1", True), ("YES", True), ("false", False), ("0", False), ("No", False),
    ])
    def test_boolean_words(self, word, value):
        base = ["--dt", "0.01", "--steps", "1"]
        assert parse_config(base + [f"--strict={word}"]).strict is value
        assert parse_config(["--strict", word] + base).strict is value


# extreme values for the inputs that feed the scheme constants, the schedule,
# the solve and the grid; each sweep case sets one of them and one more at random
EXTREMES = {
    "cstar": ["1e308", "1e300", "1e-300"],
    "cm": ["1e-320", "5e-324", "1e300"],
    "p": ["inf", "3.0000001", "2000", "1e308"],
    "dt": ["1e100", "1e-300", "5e-324", "1"],
    "tol": ["1e-300", "0.5", "1e300"],
    "maxiter": ["1", "2", "10000"],
    "extent": ["1e-200,1,1", "1e300,1e300,1e300", "1e-300,1e-300,1e-300", "1e-5,1e5,1"],
    "origin": ["1e300,0,0", "-1e308,0,1e308", "-1e300,-1e300,-1e300", "1e-320,0,0"],
    "tilt": ["1e300,0,0", "-1e-300,1,1", "0,0,0"],
    "coriolis": ["const:1e-300", "const:1e300", "profile:1e300", "profile:-1e-300",
                 "profile:0.3"],
}
SWEEP = [(key, value) for key, values in EXTREMES.items() for value in values]


def sweep_case(seed):
    """CLI inputs of the seeded sweep case: a 5^3 or 6^3 grid, at most 10 steps."""
    rng = random.Random(seed)
    key, value = SWEEP[seed]
    other = rng.choice([k for k in EXTREMES if k != key])
    args = {key: value, other: rng.choice(EXTREMES[other]),
            "grid": rng.choice(["5", "6"]), "steps": str(rng.randint(1, 10)),
            "preset": "tilt" if "tilt" in (key, other) else rng.choice(["identity", "bump"])}
    args.setdefault("dt", "0.01")
    return [word for k, v in args.items() for word in (f"--{k}", v)]


@pytest.mark.parametrize("seed", range(len(SWEEP)),
                         ids=[" ".join(sweep_case(seed)[:4]) for seed in range(len(SWEEP))])
def test_cli_input_sweep(tmp_path, capsys, seed):
    """No input ends in a traceback: a run exits 0 or 1 with finite scheme
    constants (p may be inf), or exits 2 with only error: lines and no run.json."""
    out = tmp_path / "out"
    status = main(sweep_case(seed) + ["--out", str(out)])
    assert status in (0, 1, 2)
    assert all(line.startswith("error: ") for line in capsys.readouterr().err.splitlines())
    if status == 2:
        assert not (out / "run.json").exists()
        return
    constants = json.loads((out / "run.json").read_text())["constants"]
    del constants["p"]
    assert all(np.isfinite(v) for v in constants.values()), constants


def run_dir(tmp_path, name, extra):
    out = tmp_path / name
    argv = extra + ["--out", str(out)]
    assert main(argv) == 0
    return out


class TestRunExperiment:
    def test_identity_series_values(self, tmp_path):
        out = run_dir(tmp_path, "ident",
                      ["--grid", "8", "--preset", "identity",
                       "--dt", "0.01", "--steps", "5"])
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 7  # header + initial record + 5 steps
        for row in lines[1:]:
            cells = row.split(",")
            named = dict(zip(CSV_COLUMNS.split(","), cells))
            assert float(named["lambda_min"]) == pytest.approx(1.0, abs=1e-9)
            assert float(named["energy"]) == pytest.approx(-1.0 / 3.0, abs=0.02)
            assert float(named["u_max"]) <= 1e-9

    def test_determinism_byte_identical(self, tmp_path):
        argv = ["--grid", "8", "--preset", "quadratic", "--quad", "2,1,0.5",
                "--dt", "0.01", "--steps", "5"]
        out1 = run_dir(tmp_path, "a", argv)
        out2 = run_dir(tmp_path, "b", argv)
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()

    def test_field_snapshot_count(self, tmp_path):
        out = run_dir(tmp_path, "snaps",
                      ["--grid", "6", "--preset", "tilt", "--tilt", "0.1,0,0",
                       "--dt", "0.01", "--steps", "10",
                       "--emit", "csv,fields", "--snap-every", "5"])
        snaps = sorted(f.name for f in out.glob("fields_*.vtk"))
        assert snaps == ["fields_0005.vtk", "fields_0010.vtk"]

    def test_vtk_layout(self, tmp_path):
        out = run_dir(tmp_path, "vtk",
                      ["--grid", "6", "--preset", "identity",
                       "--dt", "0.01", "--steps", "2",
                       "--emit", "csv,fields", "--snap-every", "2"])
        text = (out / "fields_0002.vtk").read_text().splitlines()
        assert text[0].startswith("# vtk DataFile")
        assert "DATASET STRUCTURED_POINTS" in text
        assert "DIMENSIONS 6 6 6" in text
        assert f"POINT_DATA {6 ** 3}" in text
        assert "SCALARS P double" in text
        assert sum(1 for ln in text if ln.startswith("VECTORS")) == 2
        # spacing/origin reflect the cell-centered layout
        h = 1.0 / 6.0
        origin_line = next(ln for ln in text if ln.startswith("ORIGIN"))
        assert np.allclose([float(v) for v in origin_line.split()[1:]], [h / 2] * 3)
        # every value line parses as plain floats
        for header, width in (("LOOKUP_TABLE default", 1), ("VECTORS gradP double", 3),
                              ("VECTORS u double", 3)):
            block = vtk_block(text, header, 6 ** 3)
            assert block.shape == (6 ** 3, width)
            assert np.all(np.isfinite(block))

    def test_snapshot_u_is_solve_from_that_state(self, tmp_path, run_states):
        out = run_dir(tmp_path, "upair",
                      ["--grid", "6", "--preset", "tilt", "--tilt", "0.1,0,0",
                       "--dt", "0.01", "--steps", "4",
                       "--emit", "csv,fields", "--snap-every", "2"])
        s0 = init_state("tilt", GridSpec(dims=(6, 6, 6)), tilt=(0.1, 0.0, 0.0))
        _, states, _ = run_states(s0, SchemeConfig(epsilon=0.01, n_steps=4))
        _, sol, _ = step(states[2], 0.01)
        want = sol.u.comp.transpose(3, 2, 1, 0).reshape(-1, 3)
        text = (out / "fields_0002.vtk").read_text().splitlines()
        assert np.max(np.abs(vtk_block(text, "VECTORS u double", 6 ** 3) - want)) <= 1e-14
        assert np.max(np.abs(want)) > 0.0
        text = (out / "fields_0004.vtk").read_text().splitlines()
        assert np.all(vtk_block(text, "VECTORS u double", 6 ** 3) == 0.0)

    def test_snapshot_bytes_equal_joined_text(self, tmp_path):
        # a non-cubic grid, so that no swapped axis passes, and a solved, nonzero u
        spec = GridSpec(dims=(7, 5, 6), extents=(1.0, 0.8, 1.2))
        s, _, _ = step(init_state("bump", spec, delta=0.01, k=1), 0.01)
        _, sol, _ = step(s, 0.01)
        assert np.max(np.abs(sol.u.comp)) > 0.0
        write_structured_points(tmp_path / "bump.vtk", s, sol.u.comp, 1)
        want = joined_vtk_text(s, sol.u.comp, 1).encode()
        assert (tmp_path / "bump.vtk").read_bytes() == want

    def test_zero_velocity_snapshot_bytes_equal_joined_text(self, tmp_path):
        # a run's final state has no solve: its velocity is a broadcast zero view
        spec = GridSpec(dims=(7, 5, 6))
        s = init_state("identity", spec)
        u = np.broadcast_to(0.0, (3,) + spec.dims)
        write_structured_points(tmp_path / "identity.vtk", s, u, 4)
        want = joined_vtk_text(s, np.zeros((3,) + spec.dims), 4).encode()
        assert (tmp_path / "identity.vtk").read_bytes() == want

    def test_metadata_round_trip(self, tmp_path):
        out = run_dir(tmp_path, "meta",
                      ["--grid", "8", "--preset", "bump", "--bump-delta", "0.005",
                       "--dt", "0.002", "--steps", "4"])
        meta = json.loads((out / "run.json").read_text())
        assert meta["halt_reason"] == "completed"
        assert meta["steps_completed"] == 4
        argv = []
        for key, value in meta["config"].items():
            argv.extend([f"--{key}", value])
        cfg = parse_config(argv)
        assert cfg.out_dir == str(out)
        assert cfg.dims == (8, 8, 8)

    def test_coriolis_run(self, tmp_path):
        out = run_dir(tmp_path, "cor",
                      ["--grid", "6", "--preset", "tilt", "--tilt", "0.1,0,0",
                       "--dt", "0.01", "--steps", "5",
                       "--coriolis", "const:0.8"])
        lines = (out / "series.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_coriolis_file_input(self, tmp_path):
        spec_vals = np.full((6, 6, 6), 0.9)
        fpath = tmp_path / "f.txt"
        np.savetxt(fpath, spec_vals.reshape(-1))
        out = run_dir(tmp_path, "corfile",
                      ["--grid", "6", "--preset", "identity",
                       "--dt", "0.01", "--steps", "2",
                       "--coriolis", f"file:{fpath}"])
        assert (out / "series.csv").exists()

    def test_usage_error_exit_code(self, tmp_path, capsys):
        assert main(["--grid", "2", "--dt", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "grid" in err
        # the W^{3,p} norm of the scheme constants needs 5 cells per axis
        assert main(["--grid", "4", "--dt", "0.1", "--steps", "1",
                     "--out", str(tmp_path / "g4")]) == 2
        assert "grid" in capsys.readouterr().err

    # numpy warns on an empty file before the reshape fails: only the error may show
    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("inputs", [
        ["--sweep", "{tmp}/missing.txt"],
        ["--coriolis", "file:{tmp}/missing.txt"],
        ["--coriolis", "file:{tmp}/short.txt"],  # 7 values for 512 cells
        ["--coriolis", "file:{tmp}/empty.txt"],
        ["--coriolis", "profile:-5"],  # f = 1 - 5 x3 turns negative
        ["--preset", "bump", "--bump-delta", "0.2"],  # not convex
    ], ids=["sweep-missing", "coriolis-file-missing", "coriolis-file-length",
            "coriolis-file-empty", "coriolis-profile-negative", "preset-not-convex"])
    def test_config_time_failure_is_usage_error(self, tmp_path, capsys, inputs):
        np.savetxt(tmp_path / "short.txt", np.full(7, 0.9))
        (tmp_path / "empty.txt").write_text("")
        out = tmp_path / "out"
        argv = [a.format(tmp=tmp_path) for a in inputs]
        assert main(argv + ["--grid", "8", "--dt", "0.01", "--steps", "2",
                            "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("inputs, key", [
        ("--p nan", "p"),
        ("--dt nan", "dt"),
        ("--dt inf", "dt"),
        ("--extent nan,1,1", "extent"),
        ("--origin nan,0,0", "origin"),
        ("--tilt nan,0,0 --preset tilt", "tilt"),
        ("--quad inf,1,1 --preset quadratic", "quad"),
        ("--cstar nan", "cstar"),
        ("--tol nan", "tol"),
        ("--cm -inf", "cm"),
    ])
    def test_non_finite_number_is_usage_error(self, tmp_path, capsys, inputs, key):
        out = tmp_path / "out"
        argv = inputs.split() + ["--grid", "6", "--steps", "1", "--out", str(out)]
        if key != "dt":
            argv += ["--dt", "0.01"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key}: ") and "finite" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("inputs, violation", [
        ("--strict=maybe", "strict: expected true or false, got 'maybe'"),
        ("--auto-tau=maybe", "auto-tau: expected true or false, got 'maybe'"),
        ("--strict=TRUE --auto-tau=on", "auto-tau: expected true or false, got 'on'"),
        ("--config {tmp}/run.cfg", "strict: expected true or false, got 'maybe'"),
    ], ids=["strict-flag", "auto-tau-flag", "any-case-and-second-flag", "config-file"])
    def test_boolean_takes_only_true_or_false(self, tmp_path, capsys, inputs, violation):
        (tmp_path / "run.cfg").write_text("strict=maybe\n")
        out = tmp_path / "out"
        argv = inputs.format(tmp=tmp_path).split() + ["--grid", "6", "--dt", "0.01",
                                                       "--steps", "1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {violation}"]
        assert not out.exists()

    def test_lost_coriolis_dominance_is_a_halt(self, tmp_path):
        argv = ["--grid", "8", "--coriolis", "profile:5", "--dt", "0.01", "--steps", "3",
                "--out", str(tmp_path / "h")]
        assert main(argv) == 0
        meta = json.loads((tmp_path / "h" / "run.json").read_text())
        assert meta["halt_reason"].startswith("convexity lost at step 1")
        assert meta["steps_completed"] == 0
        assert (tmp_path / "h" / "series.csv").exists()
        assert main(argv + ["--strict"]) == 1

    def test_singular_coefficient_is_a_halt(self, tmp_path):
        # det D2P = 1e-13 falls under the inversion's relative threshold
        out = tmp_path / "h"
        argv = ["--grid", "8", "--preset", "quadratic", "--quad", "1e-13,1,1",
                "--dt", "0.01", "--steps", "2", "--out", str(out)]
        assert main(argv) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["halt_reason"].startswith(
            "convexity lost at step 1: tensor not invertible at cell (0, 0, 0): det ")
        assert meta["steps_completed"] == 0
        assert len((out / "series.csv").read_text().splitlines()) == 2  # header, step 0
        assert main(argv + ["--strict"]) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    # halt_step: the step that halts, or the label of the usage error
    @pytest.mark.parametrize("inputs, halt_step", [
        ("--preset bump --dt 1e100", 1),  # the step-1 record's magnitudes overflow
        ("--dt 0.01 --p 2000", 0),  # the step-0 record overflows in mag**p
        ("--dt 0.01 --extent 1e-200,1,1", "preset"),  # the preset's Hessian overflows
        # and the magnitude of the Hessian, in the scheme constants
        ("--dt 0.01 --preset quadratic --quad 1e155,1e155,1e155", "constants"),
    ], ids=["dt-1e100", "p-2000", "extent-1e-200", "quad-1e155"])
    def test_non_finite_values_halt_or_usage_error(self, tmp_path, capsys, inputs,
                                                   halt_step):
        out = tmp_path / "out"
        argv = inputs.split() + ["--grid", "6", "--steps", "2", "--out", str(out)]
        if isinstance(halt_step, str):
            assert main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: {halt_step}: field values must be finite"]
            assert not out.exists()
            return
        assert main(argv) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["halt_reason"].startswith(f"non-finite values at step {halt_step}: ")
        rows = (out / "series.csv").read_text().splitlines()
        assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(halt_step))
        assert main(argv + ["--strict"]) == 1

    def test_degenerate_auto_tau_is_usage_error(self, tmp_path, capsys):
        # |grad P0|_{W^3,2000} overflows to inf, so tau* comes out as 0
        out = tmp_path / "out"
        assert main(["--grid", "6", "--steps", "2", "--auto-tau", "true", "--p", "2000",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: auto-tau: tau_star must be positive and finite, got 0.0"]
        assert not out.exists()

    @pytest.mark.parametrize("inputs, named", [
        ("--cstar 1e308",
         "kappa nan, tau_star nan are not finite (p 4.0, c_star 1e+308, c_m 1.0)"),
        ("--cm 1e-320", "tau_star inf are not finite (p 4.0, c_star 1.0, c_m 1e-320)"),
    ], ids=["cstar", "cm"])
    def test_non_finite_constants_are_usage_error(self, tmp_path, capsys, inputs, named):
        out = tmp_path / "out"
        assert main(inputs.split() + ["--grid", "6", "--preset", "bump", "--dt", "0.01",
                                      "--steps", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: constants: scheme constants {named}"]
        assert not out.exists()

    # an allocation that fails during set-up; the grid would have to be huge
    @pytest.mark.parametrize("module, name, inputs", [
        (semigeo.stepper, "preset_potential", []),  # init_state
        (semigeo.stepper, "cell_magnitude", []),  # compute_constants
        (semigeo.cli, "linear_coriolis", ["--coriolis", "profile:0.05"]),
    ], ids=["init-state", "constants", "coriolis"])
    def test_out_of_memory_in_set_up_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                    module, name, inputs):
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(module, name, allocate)
        out = tmp_path / "out"
        assert main(inputs + ["--grid", "6", "--dt", "0.01", "--steps", "2",
                              "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: grid: out of memory: Unable to allocate 74.5 GiB"]
        assert not out.exists()

    # the second call of a step's solve (step 2) or of a record (step 1) fails to allocate
    @pytest.mark.parametrize("name, halt_step", [("solve_darcy", 2), ("emit_record", 1)])
    def test_out_of_memory_in_a_run_is_a_halt(self, tmp_path, monkeypatch, name, halt_step):
        calls = []
        original = getattr(semigeo.stepper, name)

        def allocate(*args, **kwargs):
            calls.append(name)
            if len(calls) == 2:
                raise MemoryError("Unable to allocate 74.5 GiB")
            return original(*args, **kwargs)

        monkeypatch.setattr(semigeo.stepper, name, allocate)
        out = tmp_path / "out"
        assert main(["--grid", "6", "--preset", "bump", "--dt", "0.01", "--steps", "3",
                     "--out", str(out)]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["halt_reason"] == (
            f"out of memory at step {halt_step}: Unable to allocate 74.5 GiB")
        rows = (out / "series.csv").read_text().splitlines()
        assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(halt_step))

    @pytest.mark.parametrize("inputs, key", [
        ("--preset identity --tmax 1e300 --dt 1e-300", "tmax"),
        ("--preset bump --auto-tau --dt 1e-320", "auto-tau"),  # tau* / a subnormal step
    ], ids=["tmax", "auto-tau"])
    def test_infinite_step_count_is_usage_error(self, tmp_path, capsys, inputs, key):
        out = tmp_path / "out"
        assert main(inputs.split() + ["--grid", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key}: step count ")
        assert err[0].endswith(" is not finite")
        assert not out.exists()

    def test_strict_flags_early_halt(self, tmp_path):
        # this quadratic run hits the convexity floor before tmax
        argv = ["--grid", "8", "--preset", "quadratic", "--quad", "2,1,0.5",
                "--dt", "0.01", "--tmax", "1.0", "--out", str(tmp_path / "s")]
        assert main(argv) == 0
        meta = json.loads((tmp_path / "s" / "run.json").read_text())
        assert meta["halt_reason"] != "completed"
        assert main(argv + ["--strict"]) == 1

    def test_sweep_runs_each_line(self, tmp_path):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(
            f"--grid 6 --preset identity --dt 0.01 --steps 2 --out {tmp_path/'s1'}\n"
            f"# comment\n"
            f"--grid 6 --preset tilt --tilt 0.1,0,0 --dt 0.01 --steps 2 --out {tmp_path/'s2'}\n"
        )
        assert main(["--sweep", str(sweep)]) == 0
        assert (tmp_path / "s1" / "series.csv").exists()
        assert (tmp_path / "s2" / "series.csv").exists()

    def test_sweep_takes_no_other_flags(self, tmp_path, capsys):
        sweep = tmp_path / "empty.txt"
        sweep.write_text("")
        assert main(["--sweep", str(sweep), "--grid", "3", "--preset", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --sweep takes no other flags")
        assert "--grid --preset" in err
        assert main(["--sweep", str(sweep)]) == 0

    def test_flag_given_twice(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--grid", "6", "--grid", "7", "--dt", "0.01", "--steps", "1",
                     "--preset", "bogus", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert "error: --grid given twice" in err
        assert any("unknown preset" in line for line in err)  # listed together
        assert not out.exists()

    def test_sweep_missing_file(self, tmp_path, capsys):
        assert main(["--sweep", str(tmp_path / "missing.txt")]) == 2
        assert "cannot read sweep file" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, argv", [
        ("config", ["--config", "{bad}", "--dt", "0.01", "--steps", "1", "--out", "{out}"]),
        ("sweep", ["--sweep", "{bad}"]),
    ], ids=["config", "sweep"])
    def test_undecodable_file_is_usage_error(self, tmp_path, capsys, kind, argv):
        bad, out = tmp_path / "bad.cfg", tmp_path / "out"
        bad.write_bytes(b"\xff")
        assert main([a.format(bad=bad, out=out) for a in argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read {kind} file {bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--config", ""], ["--config="]], ids=["flag", "equals"])
    def test_empty_config_path_is_usage_error(self, tmp_path, capsys, argv):
        # an empty path names no readable file, like any other such path
        out = tmp_path / "out"
        assert main(argv + ["--dt", "0.01", "--steps", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read config file ")
        assert not out.exists()

    def test_sweep_line_that_does_not_split(self, tmp_path, capsys):
        # checked before any line runs, as a nested --sweep is
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(
            f"--grid 6 --preset identity --dt 0.01 --steps 2 --out {tmp_path/'s1'}\n"
            f'--grid 6 --dt 0.01 --steps 1 --out "o\n'
        )
        assert main(["--sweep", str(sweep)]) == 2
        assert capsys.readouterr().err == f"error: {sweep}:2: No closing quotation\n"
        assert not (tmp_path / "s1").exists()

    @pytest.mark.parametrize("out", ["F", "F/sub"])
    def test_out_that_cannot_be_made_is_usage_error(self, tmp_path, capsys, out):
        (tmp_path / "F").write_text("kept\n")
        assert main(["--grid", "6", "--dt", "0.01", "--steps", "1",
                     "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out: ")
        assert (tmp_path / "F").read_text() == "kept\n"

    def test_rows_survive_a_snapshot_that_cannot_be_written(self, tmp_path, capsys):
        # a state's row goes out before its snapshot
        out = tmp_path / "out"
        (out / "fields_0002.vtk").mkdir(parents=True)
        assert main(["--grid", "6", "--preset", "bump", "--dt", "0.001", "--steps", "3",
                     "--emit", "csv,fields", "--snap-every", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out: ")
        rows = (out / "series.csv").read_text().splitlines()
        assert rows[0] == CSV_COLUMNS
        assert [int(r.split(",")[0]) for r in rows[1:]] == [0, 1, 2]

    @pytest.mark.parametrize("inputs, halt", [
        ("--grid 8 --dt 0.01 --steps 7 --log-every 3", "completed"),
        ("--grid 12 --bump-delta 0.025 --dt 0.3 --steps 40 --log-every 5",
         "convexity floor reached at step 27: "),
        ("--grid 12 --dt 0.01 --steps 5 --maxiter 1", "solver failed at step 1: "),
    ], ids=["record-every-3", "convexity-floor", "solver-failure"])
    def test_series_equals_joined_rows(self, tmp_path, monkeypatch, run_states, inputs, halt):
        # the rows written as the run goes make the file the whole-list writer
        # made of the run's records, each record written once, in step order
        argv = inputs.split() + ["--preset", "bump"]
        written = []
        write = semigeo.cli.write_series_csv

        def counted(f, record):
            written.append(record.step)
            write(f, record)

        monkeypatch.setattr(semigeo.cli, "write_series_csv", counted)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        cfg = parse_config(argv)
        res, _, records = run_states(
            init_state("bump", GridSpec(dims=cfg.dims), delta=cfg.bump_delta),
            SchemeConfig(epsilon=cfg.dt, n_steps=cfg.steps, maxiter=cfg.maxiter,
                         record_every=cfg.log_every))
        assert res.halt_reason.startswith(halt)
        assert json.loads((out / "run.json").read_text())["halt_reason"] == res.halt_reason
        assert written == [r.step for r in records] and written == sorted(set(written))
        assert (out / "series.csv").read_bytes() == joined_series_csv(records).encode()

    # series.csv is opened before the run, and a state's row goes out before its snapshot
    @pytest.mark.parametrize("blocked, kept", [
        ("fields_0001.vtk", ["series.csv"]),
        ("series.csv", []),
        ("run.json", ["fields_0001.vtk", "fields_0002.vtk", "series.csv"]),
    ])
    def test_artifact_that_cannot_be_written_is_usage_error(self, tmp_path, capsys,
                                                              blocked, kept):
        # a directory where an artifact goes: one error line, and the
        # artifacts written before it stay
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main(["--grid", "6", "--preset", "bump", "--dt", "0.001", "--steps", "2",
                     "--emit", "csv,fields", "--snap-every", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out: ")
        assert blocked in err[0] and (out / blocked).is_dir()
        assert sorted(f.name for f in out.iterdir() if f.is_file()) == kept

    def test_sweep_line_cannot_name_sweep(self, tmp_path, capsys):
        # a self-referencing sweep: nothing runs, the line is named
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(
            f"--sweep {sweep}\n"
            f"--grid 6 --preset identity --dt 0.01 --steps 2 --out {tmp_path/'s1'}\n"
        )
        assert main(["--sweep", str(sweep)]) == 2
        err = capsys.readouterr().err
        assert f"{sweep}:1: a sweep line cannot name --sweep" in err
        assert not (tmp_path / "s1").exists()


malloc = semigeo.cli._glibc_malloc()
needs_mallopt = pytest.mark.skipif(malloc is None, reason="the C library has no mallopt")


class TestPinnedHeap:
    @needs_mallopt
    def test_settings_accepted(self):
        # mallopt takes a C int; a value that wraps would be set as another
        mallopt, _ = malloc
        for param, value in semigeo.cli._HEAP_SETTINGS:
            assert ctypes.c_int(value).value == value
            assert mallopt(param, value) == 1

    @needs_mallopt
    def test_steps_fault_in_no_new_pages(self):
        # after two steps the heap holds every array a step needs
        s = init_state("bump", GridSpec(dims=(32, 32, 32)), delta=0.01, k=1)
        faults = []
        with semigeo.cli._pinned_heap():
            run(s, SchemeConfig(epsilon=0.001, n_steps=6),
                observe=lambda j, st, sol, record: faults.append(
                    resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
        assert len(faults) == 7
        assert faults[-1] - faults[2] < 100

    def test_trim_also_when_the_run_raises(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(semigeo.cli, "_glibc_malloc", lambda: (
            lambda param, value: calls.append(("mallopt", param, value)) or 1,
            lambda pad: calls.append(("malloc_trim", pad)) or 1))

        def fail(*args, **kwargs):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(semigeo.cli, "run", fail)
        cfg = parse_config(["--grid", "6", "--dt", "0.01", "--steps", "1",
                            "--out", str(tmp_path / "out")])
        with pytest.raises(RuntimeError):
            semigeo.cli.run_experiment(cfg)
        assert calls == [("mallopt", -3, 4 * 2**20 * ctypes.sizeof(ctypes.c_long)),
                         ("mallopt", -1, 2**31 - 1), ("malloc_trim", 0)]

    def test_runs_without_mallopt(self, tmp_path, monkeypatch):
        monkeypatch.setattr(semigeo.cli, "_glibc_malloc", lambda: None)
        out = tmp_path / "out"
        assert main(["--grid", "6", "--dt", "0.01", "--steps", "1", "--out", str(out)]) == 0
        assert (out / "series.csv").exists()


class TestMemoryBound:
    """The transient memory of a step, a record, the scheme constants and a
    snapshot, counted by tracemalloc in whole-grid float64 arrays on the 32^3 bump.
    numpy reports its buffers to tracemalloc, so the count does not depend on
    the C library or on where the heap places arrays.  Each bound is the
    current peak rounded up to the next whole grid."""

    SPEC = GridSpec(dims=(32, 32, 32))

    def peak_grids(self, fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return result, peak / (8 * self.SPEC.n_cells)

    def test_step_and_record_peaks(self):
        s = init_state("bump", self.SPEC, delta=0.01, k=1)
        constants = compute_constants(s)
        (new, sol, data), step_grids = self.peak_grids(lambda: step(s, 0.001))
        _, record_grids = self.peak_grids(lambda: emit_record(
            new, sol, constants, step=1, ratios=verify_estimate(sol.u, data, constants.p)))
        assert step_grids <= 34
        assert record_grids <= 10

    def test_constants_peak(self):
        # the Hoelder quotient and the magnitudes are taken in 8-row slabs
        s = init_state("bump", self.SPEC, delta=0.01, k=1)
        _, grids = self.peak_grids(lambda: compute_constants(s))
        assert grids <= 10

    def test_snapshot_peak(self, tmp_path):
        # written one z-plane at a time: the text of one plane, not of the file
        s = init_state("bump", self.SPEC, delta=0.01, k=1)
        _, sol, _ = step(s, 0.001)
        _, grids = self.peak_grids(
            lambda: write_structured_points(tmp_path / "fields.vtk", s, sol.u.comp, 1))
        assert grids <= 2
