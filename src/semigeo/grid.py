"""Structured box-domain grid with cell-centered fields and stencil operators.

All fields live at cell centers of a uniform axis-aligned box grid.  First
derivatives use second-order centered differences in the interior and
second-order one-sided differences at boundary cells, so every operator is
exact on quadratic polynomials.  Fields are immutable once constructed; all
operators are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    dims are cells per axis; spacing is extents/dims.  Operators up to third
    derivatives need a 4-point interior, hence dims >= 4 per axis.
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
        """max |y| over the closed box (attained at a corner)."""
        best = 0.0
        for cx in (self.origin[0], self.origin[0] + self.extents[0]):
            for cy in (self.origin[1], self.origin[1] + self.extents[1]):
                for cz in (self.origin[2], self.origin[2] + self.extents[2]):
                    best = max(best, float(np.sqrt(cx * cx + cy * cy + cz * cz)))
        return best


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


# ---------------------------------------------------------------------------
# differential operators on fields
# ---------------------------------------------------------------------------


def gradient_values(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Stencil gradient of raw (nx, ny, nz) values, component-major:
    (3, nx, ny, nz), out[a] the derivative along axis a."""
    h = spec.spacing
    out = np.empty((3,) + spec.dims)
    for a in range(3):
        out[a] = diff(values, a, h[a])
    return out


def gradient(s: ScalarField) -> VectorField:
    """Componentwise stencil gradient of a scalar field."""
    return VectorField(s.spec, gradient_values(s.values, s.spec))


def hessian(s: ScalarField) -> TensorField:
    """Symmetric second-derivative tensor.

    Diagonal entries use compact second-derivative stencils; mixed partials
    are computed once per unordered pair and mirrored, so the output is
    exactly symmetric.
    """
    h = s.spec.spacing
    out = np.empty((3, 3) + s.spec.dims)
    for a in range(3):
        out[a, a] = diff2(s.values, a, h[a])
    for a in range(2):  # the pairs (0, 1), (0, 2), (1, 2)
        da = diff(s.values, a, h[a])
        for b in range(a + 1, 3):
            mixed = diff(da, b, h[b])
            out[a, b] = mixed
            out[b, a] = mixed
    return TensorField(s.spec, out)


def jacobian(v: VectorField) -> TensorField:
    """Per-cell matrix of first derivatives, J[a, b] = d v_b / d x_a."""
    h = v.spec.spacing
    out = np.empty((3, 3) + v.spec.dims)
    for a in range(3):
        for b in range(3):
            out[a, b] = diff(v.comp[b], a, h[a])
    return TensorField(v.spec, out)


def curl(v: VectorField) -> VectorField:
    """Stencil curl; only the six off-diagonal derivatives are taken."""
    h = v.spec.spacing

    def d(a, b):  # d v_b / d x_a
        return diff(v.comp[b], a, h[a])

    out = np.empty((3,) + v.spec.dims)
    np.subtract(d(1, 2), d(2, 1), out=out[0])
    np.subtract(d(2, 0), d(0, 2), out=out[1])
    np.subtract(d(0, 1), d(1, 0), out=out[2])
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
    if isinstance(field, ScalarField):
        return np.abs(field.values)
    if isinstance(field, VectorField):
        return np.sqrt(sum_of_squares(list(field.comp)))
    if isinstance(field, TensorField):
        return np.sqrt(sum_of_squares([field.comp[a, b] for a in range(3) for b in range(3)]))
    raise TypeError(f"unsupported field type {type(field).__name__}")


def cell_magnitude(field) -> ScalarField:
    """Per-cell magnitude of a field (Frobenius for tensors).  Its lp_norm
    equals the field's for every p, so several norms can share one."""
    return ScalarField(field.spec, _cell_magnitude(field))


def lp_norm(field, p) -> float:
    """Cell-volume-weighted discrete L^p norm; p=inf gives the max magnitude."""
    mag = _cell_magnitude(field)
    if p == np.inf or p == float("inf"):
        return float(np.max(mag))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    vol = field.spec.cell_volume
    return float(np.sum(mag**p * vol) ** (1.0 / p))


def _third_derivative_magnitude(hess: TensorField) -> np.ndarray:
    """Per-cell magnitude over all 27 third derivatives: inward-shifted
    centred differences of the Hessian entries, summed in the order
    (direction, a, b).  Only the six distinct entries of the symmetric
    Hessian are differenced per direction.

    Built in slabs of rows along axis 0, so the differences of the whole
    grid never exist at once.
    """
    spec = hess.spec
    h = spec.spacing
    c = hess.comp
    n0 = spec.dims[0]
    rows = 8  # a slab's 18 distinct differences then hold 2.6 MB at 48^2 cells per row
    mag = np.empty(spec.dims)
    for i0 in range(0, n0, rows):
        i1 = min(i0 + rows, n0)
        # diff_shifted along axis 0, restricted to rows i0..i1-1
        centre = np.clip(np.arange(i0, i1), 1, n0 - 2)
        per_direction = (
            lambda e: (e[centre + 1] - e[centre - 1]) / (2.0 * h[0]),
            lambda e: diff_shifted(e[i0:i1], 1, h[1]),
            lambda e: diff_shifted(e[i0:i1], 2, h[2]),
        )
        mag[i0:i1] = np.sqrt(sum_of_squares(
            [d for op in per_direction for d in symmetric_components(c, op)]))
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
    one output array, and its dozen temporaries never span the whole grid.
    """
    rows = 8
    out = np.empty(comp.shape[2:])
    for i0 in range(0, out.shape[0], rows):
        out[i0:i0 + rows] = _eigmin_rows(comp[:, :, i0:i0 + rows])
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
