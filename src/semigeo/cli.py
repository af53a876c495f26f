"""Command-line orchestration: configuration, runs, and on-disk artifacts.

A run writes series.csv (fixed column schema, full round-trip decimals),
optional fields_NNNN.vtk snapshots in legacy structured-points text format,
and run.json metadata whose config echo re-parses to an equivalent RunConfig.
Configuration comes from a flat key=value file plus flag overrides; outputs
are deterministic functions of the configuration.
"""

from __future__ import annotations

import ctypes
import json
import math
import shlex
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .coriolis import (
    constant_coriolis,
    coriolis_transport_data,
    linear_coriolis,
    make_coriolis_field,
)
from .grid import GridSpec, ScalarField
from .stepper import (
    ConvexityError,
    SchemeConfig,
    compute_constants,
    init_state,
    run,
    transport_data,
)

__all__ = ["UsageError", "RunConfig", "parse_config", "run_experiment", "main"]

CSV_COLUMNS = (
    "step,time,energy,l2_gradP,lp_gradP,linf_gradP,w3p_gradP,lambda_min,"
    "lambda_argmin_i,lambda_argmin_j,lambda_argmin_k,curl_residual,"
    "bbox_min_x,bbox_min_y,bbox_min_z,bbox_max_x,bbox_max_y,bbox_max_z,"
    "u_max,solver_iters,solver_residual,est_ratio_u,est_ratio_Au"
)

_FLAG_KEYS = (
    "grid", "extent", "preset", "tilt", "quad", "bump-delta", "bump-k",
    "dt", "steps", "tmax", "auto-tau", "p", "cstar", "cm", "coriolis",
    "tol", "maxiter", "out", "emit", "snap-every", "log-every", "strict",
)


class UsageError(ValueError):
    """Invalid configuration; carries every violated constraint."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class RunConfig:
    dims: tuple
    extents: tuple
    origin: tuple
    preset: str
    tilt: tuple | None
    quad: tuple | None
    bump_delta: float
    bump_k: int
    dt: float | None
    steps: int | None
    tmax: float | None
    auto_tau: bool
    p: float
    c_star: float
    c_m: float
    coriolis_mode: str  # off | const | profile | file
    coriolis_value: float | None
    coriolis_path: str | None
    tol: float
    maxiter: int | None
    out_dir: str
    emit_csv: bool
    emit_fields: bool
    snap_every: int
    log_every: int
    strict: bool

    def key_values(self) -> dict:
        """Flat key=value echo that parse_config accepts back."""
        kv = {
            "grid": ",".join(str(n) for n in self.dims),
            "extent": ",".join(repr(v) for v in self.extents),
            "origin": ",".join(repr(v) for v in self.origin),
            "preset": self.preset,
            "bump-delta": repr(self.bump_delta),
            "bump-k": str(self.bump_k),
            "p": repr(self.p),
            "cstar": repr(self.c_star),
            "cm": repr(self.c_m),
            "tol": repr(self.tol),
            "out": self.out_dir,
            "emit": ",".join(item for item, on in (("csv", self.emit_csv),
                                                   ("fields", self.emit_fields)) if on),
            "snap-every": str(self.snap_every),
            "log-every": str(self.log_every),
            "strict": "true" if self.strict else "false",
            "auto-tau": "true" if self.auto_tau else "false",
        }
        if self.tilt is not None:
            kv["tilt"] = ",".join(repr(v) for v in self.tilt)
        if self.quad is not None:
            kv["quad"] = ",".join(repr(v) for v in self.quad)
        if self.dt is not None:
            kv["dt"] = repr(self.dt)
        if self.steps is not None:
            kv["steps"] = str(self.steps)
        if self.tmax is not None:
            kv["tmax"] = repr(self.tmax)
        if self.maxiter is not None:
            kv["maxiter"] = str(self.maxiter)
        if self.coriolis_mode == "off":
            kv["coriolis"] = "off"
        elif self.coriolis_mode == "const":
            kv["coriolis"] = f"const:{self.coriolis_value!r}"
        elif self.coriolis_mode == "profile":
            kv["coriolis"] = f"profile:{self.coriolis_value!r}"
        else:
            kv["coriolis"] = f"file:{self.coriolis_path}"
        return kv


def _parse_floats(text, count, label, violations):
    parts = [p for p in str(text).split(",") if p != ""]
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError:
        violations.append(f"{label}: cannot parse {text!r} as numbers")
        return None
    if len(vals) != count:
        violations.append(f"{label}: expected {count} comma-separated values, got {len(vals)}")
        return None
    if not all(math.isfinite(v) for v in vals):
        violations.append(f"{label}: values must be finite, got {text!r}")
        return None
    return vals


def _flags_to_dict(argv, violations) -> dict:
    kv = {}
    i = 0
    booleans = {"auto-tau", "strict"}
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            violations.append(f"unexpected positional argument {arg!r}")
            i += 1
            continue
        body = arg[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if key in booleans:
                # bare flag means true; an explicit true/false may follow
                nxt = argv[i + 1].lower() if i + 1 < len(argv) else ""
                if nxt in ("true", "false", "1", "0", "yes", "no"):
                    value = nxt
                    i += 2
                else:
                    value = "true"
                    i += 1
            elif i + 1 < len(argv):
                value = argv[i + 1]
                i += 2
            else:
                violations.append(f"flag --{key} is missing a value")
                i += 1
                continue
        if key not in _FLAG_KEYS and key not in ("config", "origin", "sweep"):
            violations.append(f"unknown flag --{key}")
        elif key not in kv:
            kv[key] = value
        elif f"--{key} given twice" not in violations:
            violations.append(f"--{key} given twice")
    return kv


def _read_config_file(path, violations) -> dict:
    kv = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        violations.append(f"cannot read config file {path}: {err}")
        return kv
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            violations.append(f"{path}:{lineno}: expected key=value, got {line!r}")
            continue
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _FLAG_KEYS and key != "origin":
            violations.append(f"{path}:{lineno}: unknown key {key!r}")
            continue
        if key in kv:
            violations.append(f"{path}:{lineno}: key {key!r} given twice")
            continue
        kv[key] = value.strip()
    return kv


def parse_config(argv, config_file=None) -> RunConfig:
    """Resolve flags (which win) over config-file values into a RunConfig.

    Raises UsageError listing every violated constraint.
    """
    violations = []
    flags = _flags_to_dict(list(argv), violations)
    if "sweep" in flags:
        violations.append("--sweep names a sweep for main(), not a run configuration")
    file_path = flags.pop("config", None) or config_file
    kv = _read_config_file(file_path, violations) if file_path else {}
    kv.update(flags)

    def get(key, default=None):
        return kv.get(key, default)

    dims = (16, 16, 16)
    if "grid" in kv:
        text = kv["grid"]
        parts = text.split(",")
        try:
            nums = [int(p) for p in parts]
            dims = tuple(nums * 3) if len(nums) == 1 else tuple(nums)
            if len(dims) != 3:
                violations.append("grid: expected N or NX,NY,NZ")
                dims = (16, 16, 16)
        except ValueError:
            violations.append(f"grid: cannot parse {text!r}")
    if any(n < 5 for n in dims):
        # the W^{3,p} norm behind the scheme constants needs 5 cells per axis
        violations.append(f"grid: dims must be >= 5 per axis, got {dims}")

    extents = (1.0, 1.0, 1.0)
    if "extent" in kv:
        parsed = _parse_floats(kv["extent"], 3, "extent", violations)
        if parsed:
            extents = parsed
    if any(e <= 0 for e in extents):
        violations.append(f"extent: components must be positive, got {extents}")

    origin = (0.0, 0.0, 0.0)
    if "origin" in kv:
        parsed = _parse_floats(kv["origin"], 3, "origin", violations)
        if parsed:
            origin = parsed

    preset = get("preset", "identity")
    if preset not in ("identity", "tilt", "quadratic", "bump"):
        violations.append(f"preset: unknown preset {preset!r}")

    tilt = _parse_floats(kv["tilt"], 3, "tilt", violations) if "tilt" in kv else None
    quad = _parse_floats(kv["quad"], 3, "quad", violations) if "quad" in kv else None
    if quad is not None and any(v <= 0 for v in quad):
        violations.append(f"quad: diagonal entries must be positive, got {quad}")

    def get_float(key, default, positive=False, infinite=False):
        if key not in kv:
            return default
        try:
            v = float(kv[key])
        except ValueError:
            violations.append(f"{key}: cannot parse {kv[key]!r} as a number")
            return default
        if math.isnan(v) or (math.isinf(v) and not infinite):
            violations.append(f"{key}: must be finite, got {kv[key]!r}")
        elif positive and v <= 0:
            violations.append(f"{key}: must be positive, got {v}")
        return v

    def get_int(key, default, minimum=1):
        if key not in kv:
            return default
        try:
            v = int(kv[key])
        except ValueError:
            violations.append(f"{key}: cannot parse {kv[key]!r} as an integer")
            return default
        if v < minimum:
            violations.append(f"{key}: must be >= {minimum}, got {v}")
        return v

    bump_delta = get_float("bump-delta", 0.01)
    bump_k = get_int("bump-k", 1)
    dt = get_float("dt", None, positive=True)
    steps = get_int("steps", None)
    tmax = get_float("tmax", None, positive=True)
    auto_tau = str(get("auto-tau", "false")).lower() in ("true", "1", "yes")
    strict = str(get("strict", "false")).lower() in ("true", "1", "yes")
    p = get_float("p", 4.0, infinite=True)  # inf selects the L^inf norm
    if p <= 3.0:
        violations.append(f"p: Lebesgue exponent must exceed 3, got {p}")
    c_star = get_float("cstar", 1.0, positive=True)
    c_m = get_float("cm", 1.0, positive=True)
    tol = get_float("tol", 1e-10, positive=True)
    maxiter = get_int("maxiter", None)
    out_dir = get("out", "out")
    snap_every = get_int("snap-every", 10)
    log_every = get_int("log-every", 1)

    emit_csv, emit_fields = True, False
    if "emit" in kv:
        items = [e for e in kv["emit"].split(",") if e]
        bad = [e for e in items if e not in ("csv", "fields")]
        if bad:
            violations.append(f"emit: unknown values {bad} (allowed: csv, fields)")
        emit_csv = "csv" in items
        emit_fields = "fields" in items

    # the time schedule must be exactly determined
    horizon_modes = sum([tmax is not None, auto_tau])
    if horizon_modes > 1:
        violations.append("give only one of tmax / auto-tau")
    if horizon_modes == 1:
        if dt is not None and steps is not None:
            violations.append("over-determined schedule: dt, steps and a horizon all given")
        if dt is None and steps is None:
            violations.append("a horizon needs one of dt / steps")
    else:
        if dt is None or steps is None:
            violations.append("without tmax or auto-tau, both dt and steps are required")

    coriolis_mode, coriolis_value, coriolis_path = "off", None, None
    spec_text = str(get("coriolis", "off"))
    if spec_text == "off":
        pass
    elif spec_text.startswith("const:"):
        coriolis_mode = "const"
        try:
            coriolis_value = float(spec_text[6:])
            if coriolis_value <= 0:
                violations.append("coriolis: const value must be positive")
        except ValueError:
            violations.append(f"coriolis: cannot parse {spec_text!r}")
    elif spec_text.startswith("profile:"):
        coriolis_mode = "profile"
        try:
            coriolis_value = float(spec_text[8:])
        except ValueError:
            violations.append(f"coriolis: cannot parse {spec_text!r}")
    elif spec_text.startswith("file:"):
        coriolis_mode = "file"
        coriolis_path = spec_text[5:]
    else:
        violations.append(
            f"coriolis: expected off|const:F0|profile:DELTA|file:PATH, got {spec_text!r}")

    if violations:
        raise UsageError(violations)

    return RunConfig(
        dims=dims, extents=extents, origin=origin, preset=preset, tilt=tilt,
        quad=quad, bump_delta=bump_delta, bump_k=bump_k, dt=dt, steps=steps,
        tmax=tmax, auto_tau=auto_tau, p=p, c_star=c_star, c_m=c_m,
        coriolis_mode=coriolis_mode, coriolis_value=coriolis_value,
        coriolis_path=coriolis_path, tol=tol, maxiter=maxiter, out_dir=out_dir,
        emit_csv=emit_csv, emit_fields=emit_fields, snap_every=snap_every,
        log_every=log_every, strict=strict,
    )


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_series_csv(path, records) -> None:
    lines = [CSV_COLUMNS]
    for r in records:
        row = [
            _fmt(r.step), _fmt(r.time), _fmt(r.energy), _fmt(r.norm_l2),
            _fmt(r.norm_lp), _fmt(r.norm_linf), _fmt(r.norm_w3p),
            _fmt(r.lambda_min), _fmt(r.lambda_argmin[0]), _fmt(r.lambda_argmin[1]),
            _fmt(r.lambda_argmin[2]), _fmt(r.curl_residual),
            _fmt(r.bbox_min[0]), _fmt(r.bbox_min[1]), _fmt(r.bbox_min[2]),
            _fmt(r.bbox_max[0]), _fmt(r.bbox_max[1]), _fmt(r.bbox_max[2]),
            _fmt(r.u_max), _fmt(r.solver_iterations), _fmt(r.solver_residual),
            _fmt(r.est_ratio_u), _fmt(r.est_ratio_au),
        ]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_structured_points(path, state, u_values, step, spec) -> None:
    """Legacy VTK structured-points snapshot: P scalar, gradP and u vectors,
    point data at cell centers, x varying fastest."""
    h = spec.spacing
    nx, ny, nz = spec.dims
    n = spec.n_cells

    def flat(values):
        return values.transpose(2, 1, 0).reshape(-1)

    lines = [
        "# vtk DataFile Version 3.0",
        f"semigeo fields step {step} time {state.time!r}",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {nx} {ny} {nz}",
        "ORIGIN {!r} {!r} {!r}".format(*(spec.origin[a] + 0.5 * h[a] for a in range(3))),
        "SPACING {!r} {!r} {!r}".format(*h),
        f"POINT_DATA {n}",
        "SCALARS P double",
        "LOOKUP_TABLE default",
    ]
    # .tolist() yields Python floats, whose repr is the bare shortest round-trip
    lines.extend(repr(v) for v in flat(state.p.values).tolist())
    lines.append("VECTORS gradP double")
    g = state.grad_p.values
    comps = [flat(g[..., a]).tolist() for a in range(3)]
    lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in zip(*comps))
    lines.append("VECTORS u double")
    comps = [flat(u_values[..., a]).tolist() for a in range(3)]
    lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in zip(*comps))
    Path(path).write_text("\n".join(lines) + "\n")


def _build_coriolis(cfg, spec):
    if cfg.coriolis_mode == "off":
        return None
    if cfg.coriolis_mode == "const":
        return constant_coriolis(spec, cfg.coriolis_value)
    if cfg.coriolis_mode == "profile":
        return linear_coriolis(spec, cfg.coriolis_value)
    values = np.loadtxt(cfg.coriolis_path).reshape(spec.dims)
    return make_coriolis_field(ScalarField(spec, values))


# glibc's mallopt parameters, and the largest mmap threshold it accepts:
# 4 MiB * sizeof(long), 32 MiB on 64-bit.  mallopt takes a C int, so every
# value must fit one; a larger one wraps.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_SETTINGS = (
    (_M_MMAP_THRESHOLD, 4 * 2**20 * ctypes.sizeof(ctypes.c_long)),
    (_M_TRIM_THRESHOLD, 2**31 - 1),
)


def _glibc_malloc():
    """glibc's (mallopt, malloc_trim), or None where the C library has no such
    functions."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    return mallopt, malloc_trim


@contextmanager
def _pinned_heap():
    """Keep a run's freed memory in the heap while it runs; hand it back after.

    A step allocates and frees whole-grid arrays by the dozen.  By default
    glibc serves the larger ones with fresh mmaps and returns freed heap tops
    to the kernel, so every step faults the same pages in again.  Here arrays
    under the mmap threshold come from the heap and stay there until the block
    exits, also by an exception, when malloc_trim returns what is free; what
    the caller still holds then is freed into the heap after it, for the next
    run to reuse.  glibc cannot restore its dynamic thresholds, so the setting
    holds for the rest of the process.  Elsewhere this does nothing.
    """
    malloc = _glibc_malloc()
    if malloc is None:
        yield
        return
    mallopt, malloc_trim = malloc
    for param, value in _HEAP_SETTINGS:
        mallopt(param, value)
    try:
        yield
    finally:
        malloc_trim(0)


def run_experiment(cfg: RunConfig) -> int:
    """Execute one configured run and write its artifacts.

    Returns the process exit status: nonzero only for solver failure or a
    convexity halt before the horizon when strict mode is on.  Raises
    UsageError, before any artifact is written, for a preset or Coriolis field the grid rejects.
    """
    with _pinned_heap():
        spec = GridSpec(dims=cfg.dims, origin=cfg.origin, extents=cfg.extents)
        preset_params = {}
        if cfg.preset == "tilt" and cfg.tilt is not None:
            preset_params["tilt"] = cfg.tilt
        if cfg.preset == "quadratic" and cfg.quad is not None:
            preset_params["quad"] = cfg.quad
        if cfg.preset == "bump":
            preset_params["delta"] = cfg.bump_delta
            preset_params["k"] = cfg.bump_k
        violations = []
        try:
            state = init_state(cfg.preset, spec, **preset_params)
        except ConvexityError as err:
            violations.append(f"preset: {err}")
        try:
            field = _build_coriolis(cfg, spec)
        except (OSError, ValueError) as err:
            violations.append(f"coriolis: {err}")
        if violations:
            raise UsageError(violations)
        constants = compute_constants(state, p=cfg.p, c_star=cfg.c_star, c_m=cfg.c_m)

        scheme = SchemeConfig(
            epsilon=cfg.dt, n_steps=cfg.steps, horizon=cfg.tmax,
            auto_horizon=cfg.auto_tau, tol=cfg.tol, maxiter=cfg.maxiter,
            record_every=cfg.log_every,
        )
        # passed even when it is run()'s default: a default argument is bound once,
        # when run is defined, so a profiler that rebinds transport_data would miss it
        model = transport_data if field is None else partial(coriolis_transport_data, c=field)

        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)

        def write_snapshot(j, st, sol):
            if j > 0 and j % cfg.snap_every == 0:
                u = sol.u.values if sol is not None else np.zeros(spec.dims + (3,))
                write_structured_points(out / f"fields_{j:04d}.vtk", st, u, j, spec)

        result = run(state, scheme, constants=constants, model=model,
                     observe=write_snapshot if cfg.emit_fields else None)
        if cfg.emit_csv:
            write_series_csv(out / "series.csv", result.records)

        scheme_constants = asdict(result.constants)
        del scheme_constants["norm_w3p0"]  # a norm of the state, in series.csv's step-0 row
        meta = {
            "config": cfg.key_values(),
            "constants": scheme_constants,
            "epsilon": result.epsilon,
            "n_steps_requested": result.n_steps,
            "steps_completed": result.steps_completed,
            "halt_reason": result.halt_reason,
        }
        (out / "run.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")

        completed = result.halt_reason == "completed"
        if cfg.strict and not completed:
            return 1
        return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        sweep_path = _sweep_path(argv)
        if sweep_path is None:
            return run_experiment(parse_config(argv))
        # a sweep runs each line as its own main(); the worst status wins
        return max([main(line) for line in _sweep_lines(sweep_path)], default=0)
    except UsageError as err:
        for v in err.violations:
            print(f"error: {v}", file=sys.stderr)
        return 2


def _sweep_path(argv):
    """The sweep file argv names, or None; --sweep takes no other flag."""
    violations = []
    flags = _flags_to_dict(argv, violations)
    if "sweep" not in flags:
        return None
    others = [f"--{key}" for key in flags if key != "sweep"]
    if others:
        violations.append(f"--sweep takes no other flags (each sweep line carries "
                          f"its own), got {' '.join(others)}")
    if violations:
        raise UsageError(violations)
    return flags["sweep"]


def _sweep_lines(path) -> list:
    """The flag lines of a sweep file, split; no line may name --sweep."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise UsageError([f"cannot read sweep file {path}: {err}"]) from err
    lines, nested = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(shlex.split(line))
        if "sweep" in _flags_to_dict(lines[-1], []):
            nested.append(f"{path}:{lineno}: a sweep line cannot name --sweep")
    if nested:
        raise UsageError(nested)
    return lines


if __name__ == "__main__":
    raise SystemExit(main())
