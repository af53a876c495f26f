import numpy as np
import pytest

import semigeo.grid
from semigeo.coriolis import PerturbationError
from semigeo.divcurl import _matvec, apply_operator, invert_3x3
from semigeo.grid import (
    ScalarField,
    TensorField,
    VectorField,
    diff,
    diff2,
    diff_shifted,
    eigmin_symmetric,
    gradient_values,
    sum_of_squares,
)
from semigeo.stepper import run


@pytest.fixture
def workers(monkeypatch):
    """force(n): run the row slabs of every grid, however few its rows, on n
    workers (grid._row_slabs) for the rest of the test."""

    def force(n):
        monkeypatch.setattr(semigeo.grid, "_WORKERS", n)
        monkeypatch.setattr(semigeo.grid, "_TWO_WORKER_ROWS", 0)

    return force


@pytest.fixture(scope="session")
def run_states():
    """run() plus every state it reached, collected through its observer."""

    def run_and_collect(s0, config, **kwargs):
        states = []
        res = run(s0, config, observe=lambda j, st, sol: states.append(st), **kwargs)
        return res, states

    return run_and_collect


def mean_tilt(s):
    """Volume mean of grad P - x; recovers a exactly on tilt-type states."""
    return np.array([
        float(np.mean(s.grad_p.comp[a] - s.spec.cell_centers()[a]))
        for a in range(3)
    ])


def kf_inverse(c):
    """Per-cell diag(f, f, 1) of a Coriolis field."""
    comp = np.zeros((3, 3) + c.spec.dims)
    comp[0, 0] = c.f.values
    comp[1, 1] = c.f.values
    comp[2, 2] = 1.0
    return TensorField(c.spec, comp)


def divergence(v):
    """Stencil divergence of a vector field."""
    h = v.spec.spacing
    out = diff(v.comp[0], 0, h[0])
    out += diff(v.comp[1], 1, h[1])
    out += diff(v.comp[2], 2, h[2])
    return ScalarField(v.spec, out)


def dense_operator(p):
    """The assembled Darcy operator as a dense matrix, column by column; for
    oracle comparisons on small grids."""
    n = p.spec.n_cells
    cols = np.empty((n, n))
    basis = np.zeros(p.spec.dims)
    flat = basis.reshape(-1)
    for j in range(n):
        flat[j] = 1.0
        cols[:, j] = apply_operator(p, basis).reshape(-1)
        flat[j] = 0.0
    return cols


def recover_velocity(d, q):
    """u = M (f + grad q) for div-curl data d and a potential q; by
    construction A u - f - grad q = 0 per cell."""
    m = invert_3x3(d.a)
    g = gradient_values(q.values, d.a.spec)
    return VectorField(d.a.spec, _matvec(m, d.f.comp + g))


def per_cell(m, spec):
    """A 3-vector or 3x3 matrix m in every cell, component-major."""
    m = np.asarray(m, dtype=float)
    return np.tile(m.reshape(m.shape + (1, 1, 1)), (1,) * m.ndim + spec.dims)


def row_major(field):
    """A contiguous row-major copy of a vector or tensor field's components:
    (nx, ny, nz, 3) or (nx, ny, nz, 3, 3), for the references below."""
    lead = field.comp.ndim - 3
    return np.ascontiguousarray(np.moveaxis(field.comp, range(lead), range(-lead, 0)))


# Row-major references: the per-cell tensor kernels as they were written for
# tensors stored (nx, ny, nz, 3, 3), kept to check that the component-major
# kernels compute the same values bit for bit.


def row_major_eigmin_symmetric(values):
    a00 = values[..., 0, 0]
    a11 = values[..., 1, 1]
    a22 = values[..., 2, 2]
    a01 = values[..., 0, 1]
    a02 = values[..., 0, 2]
    a12 = values[..., 1, 2]

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


def row_major_invert_3x3(v, symmetric):
    a00, a01, a02 = v[..., 0, 0], v[..., 0, 1], v[..., 0, 2]
    a10, a11, a12 = v[..., 1, 0], v[..., 1, 1], v[..., 1, 2]
    a20, a21, a22 = v[..., 2, 0], v[..., 2, 1], v[..., 2, 2]
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    inv = np.empty_like(v)
    inv[..., 0, 0] = c00
    inv[..., 0, 1] = a02 * a21 - a01 * a22
    inv[..., 0, 2] = a01 * a12 - a02 * a11
    inv[..., 1, 1] = a00 * a22 - a02 * a20
    inv[..., 1, 2] = a02 * a10 - a00 * a12
    inv[..., 2, 2] = a00 * a11 - a01 * a10
    if symmetric:
        inv[..., 1, 0] = inv[..., 0, 1]
        inv[..., 2, 0] = inv[..., 0, 2]
        inv[..., 2, 1] = inv[..., 1, 2]
    else:
        inv[..., 1, 0] = c01
        inv[..., 2, 0] = c02
        inv[..., 2, 1] = a01 * a20 - a00 * a21
    inv /= det[..., None, None]
    return inv


def row_major_apply_operator(mv, m_face, has_mixed, h, q):
    """apply_operator on a row-major coefficient mv, with the face kernels as
    they were (f / h and 0.5 * f each taken twice)."""

    def sl(a, axis, idx):
        s = [slice(None)] * a.ndim
        s[axis] = idx
        return tuple(s)

    def face_diff(a, axis, h):
        return (a[sl(a, axis, slice(1, None))] - a[sl(a, axis, slice(None, -1))]) / h

    def face_diff_t(f, axis, h, out):
        out[sl(out, axis, slice(1, None))] += f / h
        out[sl(out, axis, slice(None, -1))] -= f / h

    def face_avg(a, axis):
        return 0.5 * (a[sl(a, axis, slice(1, None))] + a[sl(a, axis, slice(None, -1))])

    def face_avg_t(f, axis, out):
        out[sl(out, axis, slice(1, None))] += 0.5 * f
        out[sl(out, axis, slice(None, -1))] += 0.5 * f

    def transverse_diff(a, axis, h):
        out = np.zeros_like(a)
        face_avg_t(face_diff(a, axis, h), axis, out)
        return out

    out = np.zeros_like(q)
    if has_mixed:
        trans = [transverse_diff(q, b, h[b]) for b in range(3)]
    for a in range(3):
        flux = m_face[a] * face_diff(q, a, h[a])
        if has_mixed:
            cross = np.zeros_like(q)
            for b in range(3):
                if b != a:
                    cross += mv[..., a, b] * trans[b]
            flux += face_avg(cross, a)
        face_diff_t(flux, a, h[a], out)
    return out


# Whole-grid references: kernels as they were written before they ran in row
# ranges (grid._row_slabs), kept to check that the ranged kernels compute the
# same values bit for bit.


def whole_grid_hessian(s):
    """(3, 3, nx, ny, nz) stencil Hessian of a scalar field over the whole
    grid: compact diagonal stencils, each mixed partial once and mirrored."""
    h = s.spec.spacing
    out = np.empty((3, 3) + s.spec.dims)
    for a in range(3):
        out[a, a] = diff2(s.values, a, h[a])
    for a in range(2):
        da = diff(s.values, a, h[a])
        for b in range(a + 1, 3):
            mixed = diff(da, b, h[b])
            out[a, b] = mixed
            out[b, a] = mixed
    return out


def whole_grid_darcy_rhs(m, mf):
    """The right-hand side and the face coefficients of reduce_to_darcy over
    the whole grid: the negated flux balance of M f with closed boundary
    faces, and the face averages of M's diagonal, one array per axis."""
    h = m.spec.spacing

    def ends(x, axis):  # x without its first, and without its last, layer along axis
        keep = (slice(None),) * axis
        return x[keep + (slice(1, None),)], x[keep + (slice(None, -1),)]

    rhs = np.zeros(m.spec.dims)
    for a in range(3):
        hi, lo = ends(mf.comp[a], a)
        g = 0.5 * (hi + lo) / h[a]
        r_hi, r_lo = ends(rhs, a)
        r_hi += g
        r_lo -= g
    m_face = tuple(0.5 * (hi + lo) for hi, lo in (ends(m.comp[a, a], a) for a in range(3)))
    return -rhs, m_face


def cell_centers_preset(name, spec, *, tilt=(0.1, 0.0, 0.05), delta=0.01, k=1):
    """The identity, tilt and bump presets from the whole-grid cell_centers()
    array, as preset_potential built them."""
    x = spec.cell_centers()
    base = 0.5 * sum_of_squares(list(x))
    if name == "identity":
        return base
    if name == "tilt":
        a = np.asarray(tilt, dtype=float)
        return base + ((x[0] * a[0] + x[2] * a[2]) + x[1] * a[1])
    xi = [(x[a] - spec.origin[a]) / spec.extents[a] for a in range(3)]
    wave = np.prod([np.sin(k * np.pi * c) for c in xi], axis=0)
    return base + float(delta) * wave


def whole_grid_hoelder_quotient(hess, alpha):
    """The C^{1,alpha} difference quotient of compute_constants over the
    whole grid: per axis, the largest magnitude of the forward differences of
    the six distinct Hessian entries, over h^alpha."""
    quotient = 0.0
    for a in range(3):
        d = {(i, j): np.diff(hess.comp[i, j], axis=a) for i in range(3) for j in range(i, 3)}
        dn = np.sqrt(sum_of_squares([d[min(i, j), max(i, j)] for i in range(3) for j in range(3)]))
        quotient = max(quotient, float(np.max(dn)) / hess.spec.spacing[a] ** alpha)
    return quotient


def all_27_third_derivative_magnitude(hess):
    """Per-cell magnitude over the 27 third derivatives of a Hessian field,
    every entry differenced on its own (mirrors too) over the whole grid, the
    squares summed in (direction, a, b) order."""
    h = hess.spec.spacing
    d = np.stack([diff_shifted(hess.comp, 2 + k, h[k]) for k in range(3)])
    terms = np.ascontiguousarray(np.moveaxis(d.reshape((27,) + hess.spec.dims), 0, -1))
    return np.sqrt(np.sum(terms**2, axis=-1))


# Row-major vector references: the vector kernels as they were written for
# vectors stored (nx, ny, nz, 3), kept to check that the component-major
# kernels compute the same values bit for bit.  Inputs are C-contiguous
# (nx, ny, nz, 3) arrays; so are the vector outputs.


def row_major_gradient_values(values, spec):
    h = spec.spacing
    return np.stack([diff(values, a, h[a]) for a in range(3)], axis=-1)


def row_major_jacobian(v, spec):
    """(nx, ny, nz, 3, 3) with J[..., a, b] = d v_b / d x_a."""
    h = spec.spacing
    out = np.empty(spec.dims + (3, 3))
    for a in range(3):
        d = diff(v, a, h[a])
        for b in range(3):
            out[..., a, b] = d[..., b]
    return out


def row_major_curl(v, spec):
    """All nine derivatives d v_b / d x_a taken, six of them used."""
    h = spec.spacing
    d = [[diff(v[..., b], a, h[a]) for b in range(3)] for a in range(3)]
    return np.stack([d[1][2] - d[2][1], d[2][0] - d[0][2], d[0][1] - d[1][0]], axis=-1)


def row_major_matvec(mv, v):
    """Per-cell mv v for a row-major (..., 3, 3) mv."""
    out = np.zeros(v.shape)
    for a in range(3):
        out[..., a] += (mv[..., a, 0] * v[..., 0] + mv[..., a, 2] * v[..., 2]) \
            + mv[..., a, 1] * v[..., 1]
    return out


def row_major_energy(x, t, cell_volume):
    density = 0.5 * (
        (x[..., 0] - t[..., 0]) ** 2
        + (x[..., 1] - t[..., 1]) ** 2
        - 2.0 * x[..., 2] * t[..., 2]
    )
    return float(np.sum(density) * cell_volume)


def row_major_bbox(t):
    flat = t.reshape(-1, 3)
    return (tuple(float(v) for v in flat.min(axis=0)),
            tuple(float(v) for v in flat.max(axis=0)))


# Whole-file and whole-grid references: the snapshot writer as it built the
# whole file's text before writing it, and the Coriolis dominance test as it
# scanned every cell's eigenvalue, kept to check that the plane-by-plane
# writer writes the same bytes and the guarded scan raises the same error.


def joined_vtk_text(state, u_comp, step):
    """The text of a structured-points snapshot, every line joined at once."""
    spec = state.spec
    h = spec.spacing
    nx, ny, nz = spec.dims

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
        f"POINT_DATA {spec.n_cells}",
        "SCALARS P double",
        "LOOKUP_TABLE default",
    ]
    lines.extend(repr(v) for v in flat(state.p.values).tolist())
    lines.append("VECTORS gradP double")
    comps = [flat(c).tolist() for c in state.grad_p.comp]
    lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in zip(*comps))
    lines.append("VECTORS u double")
    comps = [flat(c).tolist() for c in u_comp]
    lines.extend(f"{x!r} {y!r} {z!r}" for x, y, z in zip(*comps))
    return "\n".join(lines) + "\n"


def coriolis_perturbation_norm(s, c):
    """Per-cell spectral norm of the rank-one Coriolis term, as
    assemble_coriolis_coefficient computes it."""
    f = c.f.values
    kf = np.stack([f, f, np.ones_like(f)])
    return (np.sqrt(sum_of_squares(list(kf * s.grad_p.comp)))
            * np.sqrt(sum_of_squares(list(c.grad_f.comp))) / f**2)


def full_scan_coriolis_coefficient(s, c):
    """assemble_coriolis_coefficient with every cell's smallest Hessian
    eigenvalue scanned: the perturbed coefficient, or the PerturbationError
    of the worst cell, the first in C order among ties."""
    f = c.f.values
    gp = s.grad_p.comp
    gf = c.grad_f.comp
    kf = np.stack([f, f, np.ones_like(f)])
    term = kf[:, None] * (gp[:, None] * gf[None, :]) / (f * f)
    norm = coriolis_perturbation_norm(s, c)
    local_lambda = eigmin_symmetric(s.hess.comp)
    bad = norm >= 0.5 * local_lambda
    if np.any(bad):
        idx = np.unravel_index(int(np.argmax(norm - 0.5 * local_lambda)), bad.shape)
        raise PerturbationError(
            f"Coriolis perturbation {float(norm[idx]):.3e} exceeds half the convexity "
            f"modulus {float(local_lambda[idx]):.3e} at cell {tuple(int(i) for i in idx)}",
            cell=tuple(int(i) for i in idx),
        )
    return TensorField(s.spec, s.hess.comp - term)
