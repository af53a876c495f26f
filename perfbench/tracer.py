"""Outside-in span tracer for the semigeo modules.

The library has no timers of its own, so the traced run replaces the public
functions listed in TRACED with timing wrappers, in every semigeo module
namespace that binds them (``hessian`` is bound in both ``semigeo.grid`` and
``semigeo.stepper``; ``coriolis_transport_data`` in ``semigeo.coriolis`` and
``semigeo.cli``).  Calls that a module makes through its own globals are then
traced too.  The originals are put back when the ``installed`` block exits.

A span is (name, start, end, parent index); spans stay in memory while the
run goes on, and ``dump`` writes them out as CSV when it ends.  Self time is
a span's duration minus the time its child spans cover; calls are
single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

MODULES = ("grid", "divcurl", "stepper", "coriolis", "diagnostics", "cli")

# More functions are wrapped than the metrics name, so that each module's
# self time holds the work done in that module, not in the modules it calls.
TRACED = {
    "grid": ("gradient", "gradient_values", "hessian", "jacobian", "curl",
             "lp_norm", "sobolev_norm", "eigmin_symmetric", "min_hessian_eigenvalue"),
    "divcurl": ("invert_3x3", "reduce_to_darcy", "apply_operator", "solve_darcy",
                "verify_estimate"),
    "stepper": ("init_state", "compute_constants", "transport_data", "step", "run"),
    "coriolis": ("assemble_coriolis_coefficient", "coriolis_transport_data",
                 "step_coriolis"),
    "diagnostics": ("energy", "curl_residual", "emit_record"),
    "cli": ("run_experiment", "write_series_csv", "write_structured_points"),
}

# One forward-Euler step: the base scheme's step, or the variable-rotation one.
STEP_SPANS = ("stepper.step", "coriolis.step_coriolis")


def operator_bytes(dims, mixed: bool) -> int:
    """Computed compulsory traffic of one apply_operator call on a grid of
    ``dims`` cells: the operand q, the face coefficients (one array of
    (n_a - 1) faces per axis) and, with mixed terms, six of the nine tensor
    components read once, and the result written once, all float64.
    Temporaries and cache misses are not counted."""
    cells = dims[0] * dims[1] * dims[2]
    faces = sum(cells // n * (n - 1) for n in dims)
    tensor = 9 * cells if mixed else 0
    return 8 * (2 * cells + faces + tensor * 6 // 9)


# Per-span numbers read from a call: Krylov iterations from the solution,
# computed bytes from the operator's grid.
NOTES = {
    "divcurl.solve_darcy": lambda args, result: result.iterations,
    "divcurl.apply_operator": lambda args, result: operator_bytes(args[0].spec.dims,
                                                                  args[0].has_mixed),
    "cli.write_structured_points": lambda args, result: Path(args[0]).stat().st_size,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: dict[int, float] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if note is not None:
                self.notes[idx] = note(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper, in each semigeo
        module that binds it, and restore the originals on exit."""
        for mod_name in MODULES:
            importlib.import_module(f"semigeo.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "semigeo" or name.startswith("semigeo."))]
        swapped = []
        try:
            for mod_name, fn_names in TRACED.items():
                home = importlib.import_module(f"semigeo.{mod_name}")
                for fn_name in fn_names:
                    original = getattr(home, fn_name)
                    wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                swapped.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(swapped):
                setattr(mod, attr, original)

    def dump(self, path: Path) -> None:
        """Write every span as one CSV row: its index, name, start and end
        in seconds from the first span, and its parent's index (-1 at a root)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start_s", "end_s", "parent"))
            for i, name in enumerate(self.names):
                out.writerow((i, name, repr(self.starts[i] - t0), repr(self.ends[i] - t0),
                              self.parents[i]))

    def self_times(self) -> list[float]:
        self_t = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                self_t[parent] -= self.ends[i] - self.starts[i]
        return self_t
