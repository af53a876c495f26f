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
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
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
    SchemeConfig,
    compute_constants,
    init_state,
    run,
    transport_data,
)

__all__ = ["UsageError", "RunConfig", "parse_config", "run_experiment", "main"]

# the DiagnosticsRecord fields in order, a tuple spread over its columns
CSV_COLUMNS = (
    "step,time,energy,l2_gradP,lp_gradP,linf_gradP,w3p_gradP,lambda_min,"
    "lambda_argmin_i,lambda_argmin_j,lambda_argmin_k,curl_residual,"
    "bbox_min_x,bbox_min_y,bbox_min_z,bbox_max_x,bbox_max_y,bbox_max_z,"
    "u_max,solver_iters,solver_residual,est_ratio_u,est_ratio_Au"
)

_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_ARTIFACTS = ("csv", "fields")


class UsageError(ValueError):
    """Invalid configuration; carries every violated constraint."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# Parsers take (key, text, violations).  Each returns the key's value, or None
# when the text does not parse, and appends what it finds wrong to violations.

def _number(key, text, violations, infinite=False):
    try:
        value = float(text)
    except ValueError:
        violations.append(f"{key}: cannot parse {text!r} as a number")
        return None
    if math.isnan(value) or (math.isinf(value) and not infinite):
        violations.append(f"{key}: must be finite, got {text!r}")
    return value


def _integer(key, text, violations):
    try:
        return int(text)
    except ValueError:
        violations.append(f"{key}: cannot parse {text!r} as an integer")
        return None


def _triple(key, text, violations):
    parts = [p for p in text.split(",") if p != ""]
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        violations.append(f"{key}: cannot parse {text!r} as numbers")
        return None
    if len(values) != 3:
        violations.append(f"{key}: expected 3 comma-separated values, got {len(values)}")
        return None
    if not all(math.isfinite(v) for v in values):
        violations.append(f"{key}: values must be finite, got {text!r}")
        return None
    return values


def _grid(key, text, violations):
    try:
        nums = tuple(int(p) for p in text.split(","))
    except ValueError:
        violations.append(f"{key}: cannot parse {text!r}")
        return None
    dims = nums * 3 if len(nums) == 1 else nums
    if len(dims) != 3:
        violations.append(f"{key}: expected N or NX,NY,NZ")
        return None
    return dims


def _preset(key, text, violations):
    if text not in ("identity", "tilt", "quadratic", "bump"):
        violations.append(f"{key}: unknown preset {text!r}")
    return text


def _boolean(key, text, violations):
    value = _BOOLEANS.get(text.lower())
    if value is None:
        violations.append(f"{key}: expected true or false, got {text!r}")
    return value


def _emit(key, text, violations):
    items = [e for e in text.split(",") if e]
    bad = [e for e in items if e not in _ARTIFACTS]
    if bad:
        violations.append(f"{key}: unknown values {bad} (allowed: csv, fields)")
    return tuple(a for a in _ARTIFACTS if a in items)


def _coriolis(key, text, violations):
    if text == "off":
        return ("off", None)
    mode, colon, arg = text.partition(":")
    if colon and mode == "file":
        return (mode, arg)
    if colon and mode in ("const", "profile"):
        try:
            value = float(arg)
        except ValueError:
            violations.append(f"{key}: cannot parse {text!r}")
            return None
        if mode == "const" and value <= 0:
            violations.append(f"{key}: const value must be positive")
        return (mode, value)
    violations.append(f"{key}: expected off|const:F0|profile:DELTA|file:PATH, got {text!r}")
    return None


def _checked(parse, ok, message):
    """parse, then report message for a value that parsed cleanly but is not ok."""
    def parse_checked(key, text, violations):
        clean = len(violations)
        value = parse(key, text, violations)
        if len(violations) == clean and not ok(value):
            violations.append(f"{key}: {message}, got {value}")
        return value
    return parse_checked


_positive = _checked(_number, lambda v: v > 0, "must be positive")
_count = _checked(_integer, lambda n: n >= 1, "must be >= 1")


def _echo(value) -> str:
    # str of a Python float is its shortest round-trip repr
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _key(key, default, parse, echo=_echo):
    """A RunConfig field that carries its configuration key, parser and echo."""
    return field(default=default, metadata={"key": key, "parse": parse, "echo": echo})


# The fields' order is the order parse_config reports violations in.
@dataclass(frozen=True)
class RunConfig:
    # the W^{3,p} norm behind the scheme constants needs 5 cells per axis
    dims: tuple = _key("grid", (16, 16, 16),
                       _checked(_grid, lambda d: min(d) >= 5, "dims must be >= 5 per axis"))
    extents: tuple = _key("extent", (1.0, 1.0, 1.0),
                          _checked(_triple, lambda e: min(e) > 0, "components must be positive"))
    origin: tuple = _key("origin", (0.0, 0.0, 0.0), _triple)
    preset: str = _key("preset", "identity", _preset)
    tilt: tuple | None = _key("tilt", None, _triple)
    quad: tuple | None = _key("quad", None, _checked(_triple, lambda q: min(q) > 0,
                                                     "diagonal entries must be positive"))
    bump_delta: float = _key("bump-delta", 0.01, _number)
    bump_k: int = _key("bump-k", 1, _count)
    dt: float | None = _key("dt", None, _positive)
    steps: int | None = _key("steps", None, _count)
    tmax: float | None = _key("tmax", None, _positive)
    auto_tau: bool = _key("auto-tau", False, _boolean)
    strict: bool = _key("strict", False, _boolean)
    # inf selects the L^inf norm
    p: float = _key("p", 4.0, _checked(partial(_number, infinite=True), lambda p: p > 3.0,
                                       "Lebesgue exponent must exceed 3"))
    c_star: float = _key("cstar", 1.0, _positive)
    c_m: float = _key("cm", 1.0, _positive)
    tol: float = _key("tol", 1e-10, _positive)
    maxiter: int | None = _key("maxiter", None, _count)
    out_dir: str = _key("out", "out", lambda key, text, violations: text)
    snap_every: int = _key("snap-every", 10, _count)
    log_every: int = _key("log-every", 1, _count)
    emit: tuple = _key("emit", ("csv",), _emit)  # the artifacts to write, in _ARTIFACTS order
    # off, const F0, profile DELTA or file PATH
    coriolis: tuple = _key("coriolis", ("off", None), _coriolis,
                           lambda c: c[0] if c[1] is None else f"{c[0]}:{c[1]}")

    def key_values(self) -> dict:
        """Flat key=value echo that parse_config accepts back."""
        return {f.metadata["key"]: f.metadata["echo"](getattr(self, f.name))
                for f in fields(self) if getattr(self, f.name) is not None}


# each configuration key with its RunConfig field, in the fields' order
_KEYS = {f.metadata["key"]: f for f in fields(RunConfig)}


def _flags_to_dict(argv, violations) -> dict:
    kv = {}
    i = 0
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
            if key in _KEYS and _KEYS[key].metadata["parse"] is _boolean:
                # bare flag means true; an explicit true/false may follow
                nxt = argv[i + 1].lower() if i + 1 < len(argv) else ""
                if nxt in _BOOLEANS:
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
        if key not in _KEYS and key not in ("config", "sweep"):
            violations.append(f"unknown flag --{key}")
        elif key not in kv:
            kv[key] = value
        elif f"--{key} given twice" not in violations:
            violations.append(f"--{key} given twice")
    return kv


def _file_lines(path, kind, violations) -> list:
    """(line number, text) of each stripped line that is not blank or a # comment."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as err:  # a UnicodeDecodeError is a ValueError
        violations.append(f"cannot read {kind} file {path}: {err}")
        return []
    return [(lineno, line) for lineno, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and not line.startswith("#")]


def _read_config_file(path, violations) -> dict:
    kv = {}
    for lineno, line in _file_lines(path, "config", violations):
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            violations.append(f"{path}:{lineno}: expected key=value, got {line!r}")
        elif key not in _KEYS:
            violations.append(f"{path}:{lineno}: unknown key {key!r}")
        elif key in kv:
            violations.append(f"{path}:{lineno}: key {key!r} given twice")
        else:
            kv[key] = value
    return kv


def parse_config(argv) -> RunConfig:
    """Resolve flags (which win) over config-file values into a RunConfig.

    Raises UsageError listing every violated constraint.
    """
    violations = []
    flags = _flags_to_dict(list(argv), violations)
    if "sweep" in flags:
        violations.append("--sweep names a sweep for main(), not a run configuration")
    file_path = flags.pop("config", None)
    kv = _read_config_file(file_path, violations) if file_path is not None else {}
    kv.update(flags)

    parsed = {}
    for key, f in _KEYS.items():
        if key in kv:
            value = f.metadata["parse"](key, kv[key], violations)
            if value is not None:
                parsed[f.name] = value
    cfg = RunConfig(**parsed)

    # the time schedule must be exactly determined
    horizon_modes = sum([cfg.tmax is not None, cfg.auto_tau])
    if horizon_modes > 1:
        violations.append("give only one of tmax / auto-tau")
    elif horizon_modes == 1:
        if cfg.dt is not None and cfg.steps is not None:
            violations.append("over-determined schedule: dt, steps and a horizon all given")
        if cfg.dt is None and cfg.steps is None:
            violations.append("a horizon needs one of dt / steps")
    elif cfg.dt is None or cfg.steps is None:
        violations.append("without tmax or auto-tau, both dt and steps are required")

    if violations:
        raise UsageError(violations)
    return cfg


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_series_csv(path, records) -> None:
    lines = [CSV_COLUMNS]
    for r in records:
        cells = (getattr(r, f.name) for f in fields(r))
        row = [v for cell in cells for v in (cell if isinstance(cell, tuple) else (cell,))]
        lines.append(",".join(map(_fmt, row)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_structured_points(path, state, u_comp, step) -> None:
    """Legacy VTK structured-points snapshot: P scalar, gradP and u vectors,
    point data at cell centers, x varying fastest.  u_comp is the velocity,
    component-major (3, nx, ny, nz).

    Each block is formatted and written one z-plane at a time, so the text in
    memory is one plane's, never the file's.
    """
    spec = state.spec
    h = spec.spacing
    nx, ny, nz = spec.dims

    def plane(values, k):
        # x fastest, then y; .tolist() yields Python floats, whose repr is
        # the bare shortest round-trip
        return values[:, :, k].T.reshape(-1).tolist()

    header = [
        "# vtk DataFile Version 3.0",
        f"semigeo fields step {step} time {state.time!r}",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {nx} {ny} {nz}",
        "ORIGIN {!r} {!r} {!r}".format(*(spec.origin[a] + 0.5 * h[a] for a in range(3))),
        "SPACING {!r} {!r} {!r}".format(*h),
        f"POINT_DATA {spec.n_cells}",
        "SCALARS P double",
        "LOOKUP_TABLE default",
    ]
    with open(path, "w") as f:
        f.write("\n".join(header) + "\n")
        for k in range(nz):
            f.write("\n".join(map(repr, plane(state.p.values, k))) + "\n")
        for name, comp in (("gradP", state.grad_p.comp), ("u", u_comp)):
            f.write(f"VECTORS {name} double\n")
            for k in range(nz):
                xs, ys, zs = (plane(c, k) for c in comp)
                f.write("\n".join(f"{x!r} {y!r} {z!r}" for x, y, z in zip(xs, ys, zs)) + "\n")


def _build_coriolis(cfg, spec):
    mode, arg = cfg.coriolis
    if mode == "off":
        return None
    if mode == "const":
        return constant_coriolis(spec, arg)
    if mode == "profile":
        return linear_coriolis(spec, arg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty file warns before it fails to reshape
        values = np.loadtxt(arg)
    return make_coriolis_field(ScalarField(spec, values.reshape(spec.dims)))


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

    Returns the process exit status: nonzero only for a halt before the
    horizon when strict mode is on.  Raises UsageError, before any artifact
    is written, for a preset, scheme constants or Coriolis field the grid
    rejects, a grid too large for memory, an auto-tau horizon that is not
    positive and finite, or a horizon whose step count is not finite.
    numpy's floating-point warnings are off: a non-finite value ends as a
    usage error or a halt.
    """
    with _pinned_heap(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        spec = GridSpec(dims=cfg.dims, origin=cfg.origin, extents=cfg.extents)
        violations = []
        try:
            # each preset reads its own parameters; None selects its default
            state = init_state(cfg.preset, spec, tilt=cfg.tilt, quad=cfg.quad,
                               delta=cfg.bump_delta, k=cfg.bump_k)
            constants = compute_constants(state, p=cfg.p, c_star=cfg.c_star, c_m=cfg.c_m)
        except ValueError as err:
            violations.append(f"preset: {err}")
        except MemoryError as err:
            raise UsageError([f"grid: out of memory: {err}"]) from err
        try:
            c = _build_coriolis(cfg, spec)
        except (OSError, ValueError) as err:
            violations.append(f"coriolis: {err}")
        except MemoryError as err:
            raise UsageError([f"grid: out of memory: {err}"]) from err
        if violations:
            raise UsageError(violations)

        scheme = SchemeConfig(
            epsilon=cfg.dt, n_steps=cfg.steps, horizon=cfg.tmax,
            auto_horizon=cfg.auto_tau, tol=cfg.tol, maxiter=cfg.maxiter,
            record_every=cfg.log_every,
        )
        try:
            scheme.schedule(constants)
        except ValueError as err:
            raise UsageError([f"{'auto-tau' if cfg.auto_tau else 'tmax'}: {err}"]) from err
        # passed even when it is run()'s default: a default argument is bound once,
        # when run is defined, so a profiler that rebinds transport_data would miss it
        model = transport_data if c is None else partial(coriolis_transport_data, c=c)

        out = Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise UsageError([f"out: {err}"]) from err

        def write_snapshot(j, st, sol):
            if j > 0 and j % cfg.snap_every == 0:
                # the final state has no solve: a zero view, read one plane at a time
                u = sol.u.comp if sol is not None else np.broadcast_to(0.0, (3,) + spec.dims)
                write_structured_points(out / f"fields_{j:04d}.vtk", st, u, j)

        result = run(state, scheme, constants=constants, model=model,
                     observe=write_snapshot if "fields" in cfg.emit else None)
        if "csv" in cfg.emit:
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

        return 1 if cfg.strict and result.halt_reason != "completed" else 0


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
    """The flag lines of a sweep file, split; each must split, none name --sweep."""
    violations, lines = [], []
    for lineno, line in _file_lines(path, "sweep", violations):
        try:
            lines.append(shlex.split(line))
        except ValueError as err:
            violations.append(f"{path}:{lineno}: {err}")
            continue
        if "sweep" in _flags_to_dict(lines[-1], []):
            violations.append(f"{path}:{lineno}: a sweep line cannot name --sweep")
    if violations:
        raise UsageError(violations)
    return lines


if __name__ == "__main__":
    raise SystemExit(main())
