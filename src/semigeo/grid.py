"""Structured box-domain grid with cell-centered fields and stencil operators.

All fields live at cell centers of a uniform axis-aligned box grid.  First
derivatives use second-order centered differences in the interior and
second-order one-sided differences at boundary cells, so every operator is
exact on quadratic polynomials.  Fields are immutable once constructed; all
operators are pure functions.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = [
    "GridSpec",
    "NonFiniteError",
    "ScalarField",
    "VectorField",
    "TensorField",
    "gradient",
    "hessian",
    "jacobian",
    "curl",
    "cell_magnitude",
    "lp_norm",
    "sobolev_norm",
    "min_hessian_eigenvalue",
    "eigmin_symmetric",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid over an axis-aligned box.

    dims are cells per axis; spacing is extents/dims.  dims >= 4 per axis,
    since the one-sided ends of diff2 read four cells; sobolev_norm's third
    derivatives need 5, and so do compute_constants and a CLI run.
    """

    dims: tuple[int, int, int]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    extents: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "extents", tuple(float(v) for v in self.extents))
        if len(self.dims) != 3 or len(self.origin) != 3 or len(self.extents) != 3:
            raise ValueError("dims, origin and extents must each have 3 components")
        if any(n < 4 for n in self.dims):
            raise ValueError(f"dims must be >= 4 per axis, got {self.dims}")
        if any(e <= 0.0 for e in self.extents):
            raise ValueError(f"extents must be positive, got {self.extents}")

    @property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(e / n for e, n in zip(self.extents, self.dims))

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def cell_volume(self) -> float:
        h = self.spacing
        return h[0] * h[1] * h[2]

    @property
    def volume(self) -> float:
        return self.extents[0] * self.extents[1] * self.extents[2]

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        n = self.dims[axis]
        h = self.spacing[axis]
        return self.origin[axis] + (np.arange(n) + 0.5) * h

    def cell_centers(self) -> np.ndarray:
        """(3, nx, ny, nz) array of cell-center coordinates, component-major:
        x[a] is coordinate a of every cell."""
        x = np.empty((3,) + self.dims)
        for a in range(3):
            x[a] = self.axis_coords(a).reshape([-1 if b == a else 1 for b in range(3)])
        return x

    def corner_radius(self) -> float:
        """max |y| over the closed box, at the corner farthest from 0 along each axis."""
        m0, m1, m2 = (max(abs(o), abs(o + e)) for o, e in zip(self.origin, self.extents))
        return float(np.sqrt(m0 * m0 + m1 * m1 + m2 * m2))


class NonFiniteError(ValueError):
    """A field or a record would hold an infinity or a NaN."""


def _freeze(arr: np.ndarray, shape) -> np.ndarray:
    """Check a field's own array and make it read-only, without copying."""
    if arr.shape != shape:
        raise ValueError(f"field values have shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("field values must be finite")
    arr.setflags(write=False)
    return arr


def _own(comp, shape) -> np.ndarray:
    """Take a C-contiguous float64 array over as it is; copy any other."""
    return _freeze(np.ascontiguousarray(comp, dtype=float), shape)


@dataclass(frozen=True)
class ScalarField:
    """One value per cell: values is one C-contiguous (nx, ny, nz) array.
    The field takes it over without a copy and makes it read-only."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _own(self.values, self.spec.dims))


@dataclass(frozen=True)
class VectorField:
    """A 3-vector per cell, stored component-major: comp is one C-contiguous
    (3, nx, ny, nz) array, comp[a] component a of every cell.  The field
    takes comp over without a copy and makes it read-only."""

    spec: GridSpec
    comp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "comp", _own(self.comp, (3,) + self.spec.dims))


@dataclass(frozen=True)
class TensorField:
    """A 3x3 tensor per cell, stored component-major: comp is one C-contiguous
    (3, 3, nx, ny, nz) array, comp[a, b] component (a, b) of every cell.  The
    field takes comp over without a copy and makes it read-only; symmetric
    is read from the data: True when every comp[a, b] equals comp[b, a]."""

    spec: GridSpec
    comp: np.ndarray
    symmetric: bool = field(init=False)

    def __post_init__(self):
        comp = _own(self.comp, (3, 3) + self.spec.dims)
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "symmetric", all(
            np.array_equal(comp[a, b], comp[b, a]) for a in range(3) for b in range(a + 1, 3)))


# ---------------------------------------------------------------------------
# row slabs along axis 0, on one or two threads
# ---------------------------------------------------------------------------

# Threads that run row slabs: the cores this process may run on, at most 2.
# The second one pays only on grids with _TWO_WORKER_ROWS rows or more along
# axis 0; on fewer, handing it half the rows costs more than it saves.
_WORKERS = min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1
_TWO_WORKER_ROWS = 40
# Rows per slab of the per-cell kernels: the 18 distinct third differences of
# one slab then hold 2.6 MB at 48^2 cells per row.
_SLAB_ROWS = 8
_jobs = None  # the job queue of the persistent second thread, made on first use
_start = threading.Lock()  # held while the first caller starts that thread
# a forked child inherits the queue but not its thread, and maybe the lock held
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        after_in_child=lambda: globals().update(_jobs=None, _start=threading.Lock()))


def _cpu() -> int | None:
    """The CPU this thread runs on (field 39 of its stat), or None."""
    try:
        with open("/proc/thread-self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _work(jobs, cpu: int | None) -> None:
    """The second thread: leave cpu, its creator's, when another is allowed
    (a cpuset without load balancing never moves it), then run each job and
    put None or its exception in the job's own queue.  It drops the job
    first: a job holds the caller's arrays, and the thread must not keep
    them alive until the next one."""
    try:
        if cpu is not None and (others := os.sched_getaffinity(0) - {cpu}):
            os.sched_setaffinity(0, others)  # pid 0: this thread alone
    except (AttributeError, OSError):  # no such call here, or refused: unpinned
        pass
    while True:
        job, done = jobs.get()
        error = None
        try:
            job()
        except BaseException as err:  # the caller raises it
            error = err
        del job
        done.put(error)
        del error


def _row_slabs(fn, n0: int, rows: int | None = None) -> None:
    """Run fn(i0, i1) over consecutive row ranges [i0, i1) that cover the n0
    rows of axis 0: ranges of `rows` rows, the last one shorter when it must
    be, or with rows None one range per worker.  Each fn call must write only
    its own rows of a preallocated output, so a cell's arithmetic is the same
    for any split and any number of workers.

    With two workers this thread runs the first half of the ranges and one
    persistent worker thread the second, in a copy of this thread's context
    (numpy's error state is a context variable); the worker pins itself off
    the CPU of the thread that started it, so the halves use two cores.
    Where no thread can start, this thread runs every range.  An exception
    from either half is raised once both have finished.  fn should call only
    private helpers (diff, diff2, sum_of_squares, symmetric_components, ...),
    never a function that the benchmark's tracer wraps (its TRACED set, which
    holds gradient_values as well as exported functions): the tracer keeps
    one stack of spans and assumes one thread.  A range may keep its own
    rows' maxima or minima, which are exact in any order; sums and dot
    products stay whole on the caller.
    """
    global _jobs
    workers = _WORKERS if n0 >= _TWO_WORKER_ROWS else 1
    size = rows or -(-n0 // workers)
    ranges = [(i0, min(i0 + size, n0)) for i0 in range(0, n0, size)]
    split = -(-len(ranges) // workers)

    def each(part):
        for i0, i1 in part:
            fn(i0, i1)

    done = None
    if split < len(ranges):
        # imported here: a run whose grids all have fewer rows never needs it,
        # and importing it moved such a run's peak RSS (heap placement)
        import queue

        with _start:
            if _jobs is None:
                jobs = queue.SimpleQueue()
                try:
                    threading.Thread(target=_work, args=(jobs, _cpu()), name="semigeo-rows",
                                     daemon=True).start()
                    _jobs = jobs
                except RuntimeError:  # no thread can be started: every range runs here
                    split = len(ranges)
    if split < len(ranges):
        done = queue.SimpleQueue()
        _jobs.put((partial(contextvars.copy_context().run, each, ranges[split:]), done))
    try:
        each(ranges[:split])
    finally:
        error = None if done is None else done.get()  # waits for the second half
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# one-dimensional stencil kernels, applied along a grid axis
# ---------------------------------------------------------------------------


def _sl(a: np.ndarray, axis: int, idx) -> tuple:
    s = [slice(None)] * a.ndim
    s[axis] = idx
    return tuple(s)


def diff(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    """First derivative: centered interior, second-order one-sided at the ends.

    Stencils are written as combinations of value differences so constant
    fields map to exactly zero.
    """
    out = np.empty_like(a)
    out[_sl(a, axis, slice(1, -1))] = (
        a[_sl(a, axis, slice(2, None))] - a[_sl(a, axis, slice(None, -2))]
    ) / (2.0 * h)
    a0, a1, a2 = a[_sl(a, axis, 0)], a[_sl(a, axis, 1)], a[_sl(a, axis, 2)]
    out[_sl(a, axis, 0)] = (4.0 * (a1 - a0) - (a2 - a0)) / (2.0 * h)
    b0, b1, b2 = a[_sl(a, axis, -1)], a[_sl(a, axis, -2)], a[_sl(a, axis, -3)]
    out[_sl(a, axis, -1)] = (4.0 * (b0 - b1) - (b0 - b2)) / (2.0 * h)
    return out


def diff2(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second derivative: 3-point interior, 4-point one-sided at the ends.

    Both stencils are exact on quadratics, which the analytic tests rely on.
    """
    out = np.empty_like(a)
    h2 = h * h
    out[_sl(a, axis, slice(1, -1))] = (
        (a[_sl(a, axis, slice(2, None))] - a[_sl(a, axis, slice(1, -1))])
        - (a[_sl(a, axis, slice(1, -1))] - a[_sl(a, axis, slice(None, -2))])
    ) / h2
    a0, a1, a2, a3 = (a[_sl(a, axis, i)] for i in range(4))
    out[_sl(a, axis, 0)] = (-2.0 * (a1 - a0) + 3.0 * (a2 - a1) - (a3 - a2)) / h2
    b0, b1, b2, b3 = (a[_sl(a, axis, -1 - i)] for i in range(4))
    out[_sl(a, axis, -1)] = (-2.0 * (b1 - b0) + 3.0 * (b2 - b1) - (b3 - b2)) / h2
    return out


def diff_shifted(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered first derivative, shifted one cell inward at the faces.

    Used for third-order derivatives to avoid first-order boundary pollution.
    """
    out = np.empty_like(a)
    out[_sl(a, axis, slice(1, -1))] = (
        a[_sl(a, axis, slice(2, None))] - a[_sl(a, axis, slice(None, -2))]
    ) / (2.0 * h)
    out[_sl(a, axis, 0)] = out[_sl(a, axis, 1)]
    out[_sl(a, axis, -1)] = out[_sl(a, axis, -2)]
    return out


def _diff_rows(a: np.ndarray, axis: int, h: float, i0: int, i1: int) -> np.ndarray:
    """diff(a, axis, h) on rows i0..i1-1 of axis 0, bit for bit, from those
    rows and, along axis 0, two halo rows on each side (a one-sided end reads
    three rows)."""
    if axis == 0:
        lo = max(i0 - 2, 0)
        return diff(a[lo:i1 + 2], 0, h)[i0 - lo:i1 - lo]
    return diff(a[i0:i1], axis, h)


# ---------------------------------------------------------------------------
# differential operators on fields
# ---------------------------------------------------------------------------


def gradient_values(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Stencil gradient of raw (nx, ny, nz) values, component-major:
    (3, nx, ny, nz), out[a] the derivative along axis a.  Runs in one row
    range per worker (_row_slabs)."""
    h = spec.spacing
    out = np.empty((3,) + spec.dims)

    def rows(i0, i1):
        for a in range(3):
            out[a, i0:i1] = _diff_rows(values, a, h[a], i0, i1)

    _row_slabs(rows, spec.dims[0])
    return out


def gradient(s: ScalarField) -> VectorField:
    """Componentwise stencil gradient of a scalar field."""
    return VectorField(s.spec, gradient_values(s.values, s.spec))


def _gradient_and_hessian(values: np.ndarray, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Stencil gradient (3, nx, ny, nz) and symmetric Hessian (3, 3, nx, ny,
    nz) of raw values, component-major, each first difference taken once:
    compact second-derivative stencils on the diagonal; each mixed partial a
    difference of the gradient rows, once per unordered pair and mirrored.
    One row range per worker (_row_slabs), with three halo rows on each side
    along axis 0 for diff2, whose one-sided ends read four rows."""
    h = spec.spacing
    grad, hess = np.empty((3,) + spec.dims), np.empty((3, 3) + spec.dims)

    def rows(i0, i1):
        for a in range(3):
            grad[a, i0:i1] = _diff_rows(values, a, h[a], i0, i1)
        lo = max(i0 - 3, 0)
        hess[0, 0, i0:i1] = diff2(values[lo:i1 + 3], 0, h[0])[i0 - lo:i1 - lo]
        for a in (1, 2):
            hess[a, a, i0:i1] = diff2(values[i0:i1], a, h[a])
        for a in range(2):  # the pairs (0, 1), (0, 2), (1, 2)
            for b in range(a + 1, 3):
                hess[a, b, i0:i1] = hess[b, a, i0:i1] = diff(grad[a, i0:i1], b, h[b])

    _row_slabs(rows, spec.dims[0])
    return grad, hess


def hessian(s: ScalarField) -> TensorField:
    """Symmetric second-derivative tensor (_gradient_and_hessian)."""
    return TensorField(s.spec, _gradient_and_hessian(s.values, s.spec)[1])


def jacobian(v: VectorField) -> TensorField:
    """Per-cell matrix of first derivatives, J[a, b] = d v_b / d x_a."""
    h = v.spec.spacing
    out = np.empty((3, 3) + v.spec.dims)
    for a in range(3):
        for b in range(3):
            out[a, b] = diff(v.comp[b], a, h[a])
    return TensorField(v.spec, out)


def curl(v: VectorField) -> VectorField:
    """Stencil curl; only the six off-diagonal derivatives are taken.  Runs
    in one row range per worker (_row_slabs)."""
    h = v.spec.spacing
    out = np.empty((3,) + v.spec.dims)

    def rows(i0, i1):
        def d(a, b):  # d v_b / d x_a on rows i0..i1-1
            return _diff_rows(v.comp[b], a, h[a], i0, i1)

        np.subtract(d(1, 2), d(2, 1), out=out[0, i0:i1])
        np.subtract(d(2, 0), d(0, 2), out=out[1, i0:i1])
        np.subtract(d(0, 1), d(1, 0), out=out[2, i0:i1])

    _row_slabs(rows, v.spec.dims[0])
    return VectorField(v.spec, out)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def sum_of_squares(terms) -> np.ndarray:
    """Per-cell sum of the squares of a list of equally shaped arrays.

    The terms are added in the order np.sum adds the elements of a contiguous
    axis (pairwise summation): fewer than 8 left to right; otherwise 8 running
    sums r_j += x_{j+8i}, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the remaining terms left to right.  So the result is bit for bit
    np.sum(np.stack(terms, axis=-1)**2, axis=-1), without the stack.  The
    terms are only read, so one array may stand for several of them.
    """
    k = len(terms)
    if k < 8:
        out, rest = terms[0] ** 2, terms[1:]
    else:
        r = [t**2 for t in terms[:8]]
        for i in range(8, k - k % 8):
            r[i % 8] += terms[i] ** 2
        out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = terms[k - k % 8:]
    for t in rest:
        out += t**2
    return out


def symmetric_components(comp: np.ndarray, op) -> list:
    """op(comp[a, b]) for the nine components (a, b) of a symmetric tensor, in
    row order (0,0), (0,1), ..., (2,2).  op runs on the six entries with
    a <= b only; each result also stands for its mirror, to which an
    elementwise op maps the same bits."""
    d = {(a, b): op(comp[a, b]) for a in range(3) for b in range(a, 3)}
    return [d[min(a, b), max(a, b)] for a in range(3) for b in range(3)]


def _cell_magnitude(field) -> np.ndarray:
    """Per-cell magnitude of a field; a vector's or a tensor's is taken in
    slabs of rows along axis 0 (_row_slabs)."""
    if isinstance(field, ScalarField):
        return np.abs(field.values)
    if isinstance(field, VectorField):
        comps = list(field.comp)
    elif isinstance(field, TensorField):
        comps = [field.comp[a, b] for a in range(3) for b in range(3)]
    else:
        raise TypeError(f"unsupported field type {type(field).__name__}")
    mag = np.empty(field.spec.dims)

    def slab(i0, i1):
        mag[i0:i1] = np.sqrt(sum_of_squares([c[i0:i1] for c in comps]))

    _row_slabs(slab, len(mag), _SLAB_ROWS)
    return mag


def cell_magnitude(field) -> ScalarField:
    """Per-cell magnitude of a field (Frobenius for tensors).  Its lp_norm
    equals the field's for every p, so several norms can share one."""
    return ScalarField(field.spec, _cell_magnitude(field))


def lp_norm(field, p) -> float:
    """Cell-volume-weighted discrete L^p norm; p=inf gives the max magnitude."""
    return _magnitude_lp(_cell_magnitude(field), p, field.spec.cell_volume)


def _magnitude_lp(mag: np.ndarray, p, vol: float) -> float:
    """lp_norm of a field whose per-cell magnitudes are mag."""
    if p == np.inf or p == float("inf"):
        return float(np.max(mag))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    # the powers in slabs of rows (_row_slabs), their sum whole
    weighted = np.empty(mag.shape)

    def slab(i0, i1):
        weighted[i0:i1] = mag[i0:i1] ** p * vol

    _row_slabs(slab, len(mag), _SLAB_ROWS)
    return float(np.sum(weighted) ** (1.0 / p))


def _third_derivative_magnitude(hess: TensorField) -> np.ndarray:
    """Per-cell magnitude over all 27 third derivatives: inward-shifted
    centred differences of the Hessian entries, summed in the order
    (direction, a, b).  Only the six distinct entries of the symmetric
    Hessian are differenced per direction.

    Built in slabs of rows along axis 0 (_row_slabs), so the differences of
    the whole grid never exist at once.
    """
    spec = hess.spec
    h = spec.spacing
    c = hess.comp
    n0 = spec.dims[0]
    mag = np.empty(spec.dims)

    def slab(i0, i1):
        # diff_shifted along axis 0, restricted to rows i0..i1-1
        centre = np.clip(np.arange(i0, i1), 1, n0 - 2)
        per_direction = (
            lambda e: (e[centre + 1] - e[centre - 1]) / (2.0 * h[0]),
            lambda e: diff_shifted(e[i0:i1], 1, h[1]),
            lambda e: diff_shifted(e[i0:i1], 2, h[2]),
        )
        mag[i0:i1] = np.sqrt(sum_of_squares(
            [d for op in per_direction for d in symmetric_components(c, op)]))

    _row_slabs(slab, n0, _SLAB_ROWS)
    return mag


def _jacobian_magnitude(v: VectorField) -> np.ndarray:
    """Per-cell magnitude of jacobian(v), bit for bit, built in slabs of rows
    along axis 0 (_diff_rows), so the nine derivatives of the whole grid never
    exist at once.  Raises NonFiniteError, as jacobian(v) does, when a
    derivative is not finite."""
    h = v.spec.spacing
    n0 = v.spec.dims[0]
    mag = np.empty(v.spec.dims)

    def slab(i0, i1):
        terms = [_diff_rows(v.comp[b], a, h[a], i0, i1) for a in range(3) for b in range(3)]
        mag[i0:i1] = np.sqrt(sum_of_squares(terms))
        # a magnitude overflows also from finite derivatives; only these raise
        if not np.all(np.isfinite(mag[i0:i1])) and not all(np.all(np.isfinite(t)) for t in terms):
            raise NonFiniteError("field values must be finite")

    _row_slabs(slab, n0, _SLAB_ROWS)
    return mag


def sobolev_norm(grad_lp: float, hess_lp: float, hess: TensorField, p) -> float:
    """Discrete W^{3,p} norm of the gradient of a potential:
    grad_lp + hess_lp + the L^p norm of the third derivatives built from hess,
    with the per-cell magnitude taken over all tensor components.  hess must
    be exactly symmetric, as a stencil Hessian is.

    grad_lp and hess_lp are the lp_norm of the potential's stencil gradient
    and Hessian (a state's grad_p and hess); callers pass them in because
    they take other norms from the same magnitudes.
    """
    if not hess.symmetric:
        raise ValueError("sobolev_norm requires a symmetric Hessian field")
    spec = hess.spec
    if min(spec.dims) < 5:
        raise ValueError(f"grid dims {spec.dims} too small for third derivatives (need >= 5)")
    third = ScalarField(spec, _third_derivative_magnitude(hess))
    return grad_lp + hess_lp + lp_norm(third, p)


# ---------------------------------------------------------------------------
# symmetric 3x3 eigenvalue scan
# ---------------------------------------------------------------------------


def eigmin_symmetric(comp: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric 3x3 matrix in a component-major
    (3, 3, n0, ...) array, such as a TensorField's comp.

    Closed-form solve of the characteristic polynomial (trigonometric method);
    exactly the diagonal minimum for diagonal matrices.  The kernel is
    elementwise, so it runs in slabs of rows along the first grid axis into
    one output array (_row_slabs), and its dozen temporaries never span the
    whole grid.
    """
    out = np.empty(comp.shape[2:])

    def slab(i0, i1):
        out[i0:i1] = _eigmin_rows(comp[:, :, i0:i1])

    _row_slabs(slab, out.shape[0], _SLAB_ROWS)
    return out


def _eigmin_rows(c: np.ndarray) -> np.ndarray:
    a00, a11, a22 = c[0, 0], c[1, 1], c[2, 2]
    a01, a02, a12 = c[0, 1], c[0, 2], c[1, 2]

    p1 = a01**2 + a02**2 + a12**2
    q = (a00 + a11 + a22) / 3.0
    p2 = (a00 - q) ** 2 + (a11 - q) ** 2 + (a22 - q) ** 2 + 2.0 * p1
    diag_min = np.minimum(np.minimum(a00, a11), a22)

    p = np.sqrt(np.maximum(p2, 0.0) / 6.0)
    safe = p > 0.0
    ps = np.where(safe, p, 1.0)
    b00 = (a00 - q) / ps
    b11 = (a11 - q) / ps
    b22 = (a22 - q) / ps
    b01 = a01 / ps
    b02 = a02 / ps
    b12 = a12 / ps
    detb = (
        b00 * (b11 * b22 - b12 * b12)
        - b01 * (b01 * b22 - b12 * b02)
        + b02 * (b01 * b12 - b11 * b02)
    )
    r = np.clip(detb / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lam_min = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)

    return np.where(p1 == 0.0, diag_min, np.where(safe, lam_min, q))


def min_hessian_eigenvalue(t: TensorField) -> tuple[float, tuple[int, int, int]]:
    """Global minimum over cells of the smallest eigenvalue, with its cell."""
    if not t.symmetric:
        raise ValueError("min_hessian_eigenvalue requires a symmetric tensor field")
    lam = eigmin_symmetric(t.comp)
    flat = int(np.argmin(lam))
    idx = np.unravel_index(flat, lam.shape)
    return float(lam[idx]), tuple(int(i) for i in idx)
