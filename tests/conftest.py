import numpy as np
import pytest

from semigeo.divcurl import _matvec, apply_operator, invert_3x3
from semigeo.grid import (
    ScalarField,
    TensorField,
    VectorField,
    diff,
    diff_shifted,
    gradient_values,
)
from semigeo.stepper import run


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
