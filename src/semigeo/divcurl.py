"""Variable-coefficient div-curl solves via a scalar Neumann reduction.

The system  curl(A u) = curl(f),  div u = 0,  u.n = 0  on a simply connected
box is solved with the gradient ansatz  A u = f + grad q,  which turns the
vector problem into one scalar elliptic equation for q.  The scalar problem
is discretized in conservative finite-volume form: for every interior face,
the normal flux of u = M (grad q + f) combines a compact two-point normal
difference (face-averaged coefficient) with face-averaged transverse terms
for the tensor cross couplings; boundary faces carry zero flux, which is the
u.n = 0 condition.  Cell balances of these fluxes give a 19-point operator
that is exactly symmetric for symmetric M, annihilates constants from both
sides (so the Neumann problem is compatible to rounding), and is free of
checkerboard modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import (
    _SLAB_ROWS,
    GridSpec,
    ScalarField,
    TensorField,
    VectorField,
    _jacobian_magnitude,
    _magnitude_lp,
    _row_slabs,
    _sl,
    curl,
    gradient_values,
    lp_norm,
    min_hessian_eigenvalue,
    sum_of_squares,
)

__all__ = [
    "EllipticityError",
    "SingularTensorError",
    "SolverConvergenceError",
    "DivCurlData",
    "DarcyProblem",
    "DarcySolution",
    "EstimateRatios",
    "invert_3x3",
    "reduce_to_darcy",
    "apply_operator",
    "solve_darcy",
    "solve_divcurl",
    "verify_estimate",
]


# --- face/cell transfer kernels along one axis -----------------------------
#
# _face_diff maps cell values to the n-1 interior faces of an axis (two-point
# difference); its exact transpose scattered back to cells is the negative
# finite-volume divergence with zero boundary-face flux.  _face_avg is the
# two-point face interpolant; _face_avg_t its transpose.  The transverse
# derivative used in the mixed fluxes is _face_avg_t(_face_diff(.)), which is
# the centered difference at interior cells and keeps the assembled operator
# exactly symmetric (at the price of a halved one-sided difference in the
# single boundary layer).


def _face_diff(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (a[_sl(a, axis, slice(1, None))] - a[_sl(a, axis, slice(None, -1))]) / h


def _face_diff_t(f: np.ndarray, axis: int, h: float, out: np.ndarray) -> None:
    g = f / h
    out[_sl(out, axis, slice(1, None))] += g
    out[_sl(out, axis, slice(None, -1))] -= g


def _face_avg(a: np.ndarray, axis: int) -> np.ndarray:
    return 0.5 * (a[_sl(a, axis, slice(1, None))] + a[_sl(a, axis, slice(None, -1))])


def _face_avg_t(f: np.ndarray, axis: int, out: np.ndarray) -> None:
    g = 0.5 * f
    out[_sl(out, axis, slice(1, None))] += g
    out[_sl(out, axis, slice(None, -1))] += g


def _transverse_diff(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    out = np.zeros_like(a)
    _face_avg_t(_face_diff(a, axis, h), axis, out)
    return out


class EllipticityError(ValueError):
    """Coefficient tensor lost uniform positive-definiteness; cell and value
    name where, and the eigenvalue or determinant found there."""

    def __init__(self, message, cell=None, value=None):
        super().__init__(message)
        self.cell = cell
        self.value = value


class SingularTensorError(EllipticityError):
    """Per-cell tensor inversion hit a (near-)singular matrix."""


class SolverConvergenceError(RuntimeError):
    """Krylov iteration failed; carries the relative-residual history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class DivCurlData:
    """Coefficient tensor A and curl-source potential f (the curl right-hand
    side of the system is F = curl f).  A plain record: whoever builds A
    certifies that its symmetric part is positive definite (a model, see
    stepper.step), or solve_divcurl checks it."""

    a: TensorField
    f: VectorField


@dataclass(frozen=True)
class DarcyProblem:
    """Scalar Neumann reduction in finite-volume form.

    The zero-normal-flux condition on u = M(grad q + f) is built into the
    flux balance (boundary faces carry no flux); it never appears as an
    explicit boundary equation.
    """

    m: TensorField
    mf: VectorField  # M f per cell
    rhs: ScalarField  # flux balance of the M f part, boundary faces closed
    m_face: tuple  # face-averaged diagonal coefficients, one array per axis

    def __post_init__(self):
        # discrete compatibility: the data must annihilate constants
        total = float(np.sum(self.rhs.values)) * self.spec.cell_volume
        scale = float(np.sum(np.abs(self.rhs.values))) * self.spec.cell_volume
        if abs(total) > 1e-10 * max(scale, 1e-300):
            raise ValueError(
                f"incompatible Neumann data: rhs sums to {total:.3e} against scale {scale:.3e}"
            )

    @property
    def spec(self) -> GridSpec:
        return self.m.spec

    @property
    def has_mixed(self) -> bool:
        """Whether any off-diagonal coefficient is nonzero.  No kernel reads
        it; the benchmark's byte model of apply_operator does."""
        return any(np.any(self.m.comp[a, b]) for a in range(3) for b in range(3) if a != b)


@dataclass(frozen=True)
class DarcySolution:
    q: ScalarField  # mean-zero potential
    u: VectorField  # recovered velocity M (f + grad q)
    iterations: int
    residual: float  # relative to |rhs|


@dataclass(frozen=True)
class EstimateRatios:
    u_ratio: float | None
    au_ratio: float | None


def _matvec(t: TensorField, v: np.ndarray) -> np.ndarray:
    """Per-cell product t v for a component-major v of shape (3, nx, ny, nz).

    Row a is (t[a,0] v0 + t[a,2] v2) + t[a,1] v1, added into zeros: the order
    np.einsum("...ab,...b->...a") took on row-major (..., 3, 3) tensors and
    (..., 3) vectors, so products are bit-identical to it.  Runs in one row
    range per worker (_row_slabs).
    """
    c = t.comp
    out = np.zeros(v.shape)

    def slab(i0, i1):
        w = v[:, i0:i1]
        for a in range(3):
            out[a, i0:i1] += (c[a, 0, i0:i1] * w[0] + c[a, 2, i0:i1] * w[2]) + c[a, 1, i0:i1] * w[1]

    _row_slabs(slab, v.shape[1])
    return out


def invert_3x3(t: TensorField) -> TensorField:
    """Closed-form adjugate/determinant inverse per cell.

    One formula for every tensor.  On symmetric input each lower cofactor is
    the matching upper one with the factors of each product swapped, and
    IEEE multiplication commutes exactly, so the output is exactly symmetric.
    Runs in slabs of rows along axis 0 (_row_slabs); a slab that holds a
    singular cell divides nothing, and the first such cell in C order is
    reported.
    """
    c = t.comp
    inv = np.empty_like(c)
    det = np.empty(t.spec.dims)
    bad = np.empty(t.spec.dims, dtype=bool)
    _row_slabs(partial(_invert_rows, c, inv, det, bad), t.spec.dims[0], _SLAB_ROWS)
    if np.any(bad):
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise SingularTensorError(
            f"tensor not invertible at cell {tuple(int(i) for i in idx)}: "
            f"det {float(det[idx]):.3e}",
            cell=tuple(int(i) for i in idx),
            value=float(det[idx]),
        )
    return TensorField(t.spec, inv)


def _invert_rows(c, inv, det, bad, i0: int, i1: int) -> None:
    """Rows i0..i1-1 of invert_3x3: the determinant and the singular mask,
    then, when no cell of the slab is singular, the inverse."""
    c = c[:, :, i0:i1]
    a00, a01, a02 = c[0]
    a10, a11, a12 = c[1]
    a20, a21, a22 = c[2]

    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    d = det[i0:i1]
    d[...] = a00 * c00 + a01 * c01 + a02 * c02

    norm = np.sqrt(sum_of_squares([c[a, b] for a in range(3) for b in range(3)]))
    singular = bad[i0:i1]
    singular[...] = np.abs(d) <= 1e-12 * norm**3
    if np.any(singular):
        return

    out = inv[:, :, i0:i1]
    out[0, 0] = c00
    out[0, 1] = a02 * a21 - a01 * a22
    out[0, 2] = a01 * a12 - a02 * a11
    out[1, 1] = a00 * a22 - a02 * a20
    out[1, 2] = a02 * a10 - a00 * a12
    out[2, 2] = a00 * a11 - a01 * a10
    out[1, 0] = c01
    out[2, 0] = c02
    out[2, 1] = a01 * a20 - a00 * a21
    out /= d


def reduce_to_darcy(d: DivCurlData) -> DarcyProblem:
    spec = d.a.spec
    m = invert_3x3(d.a)
    mf = _matvec(m, d.f.comp)
    rhs_vals = np.empty(spec.dims)
    m_face = tuple(np.empty(spec.dims[:a] + (n - 1,) + spec.dims[a + 1:])
                   for a, n in enumerate(spec.dims))
    _row_slabs(partial(_reduce_rows, m.comp, mf, rhs_vals, m_face, spec.spacing), spec.dims[0])
    return DarcyProblem(
        m=m,
        mf=VectorField(spec, mf),
        rhs=ScalarField(spec, rhs_vals),
        m_face=m_face,
    )


def _reduce_rows(mc, mf, rhs, m_face, h, i0: int, i1: int) -> None:
    """Rows i0..i1-1 of the reduced right-hand side, the negated flux balance
    of M f with closed boundary faces, and the axis-0 faces i0..i1-1 (those
    that exist) and rows i0..i1-1 of the face coefficients.  Along axis 0 the
    range reads one halo row of mf on each side; each cell adds its terms in
    the order _face_diff_t takes over the whole grid."""
    n0 = mf.shape[1]
    lo, hi = max(i0 - 1, 0), min(i1 + 1, n0)
    rows = rhs[i0:i1]
    rows[...] = 0.0
    # axis 0: faces lo..hi-2, face f between rows f and f+1; row r adds the
    # flux of face r-1, then takes that of face r
    g = _face_avg(mf[0, lo:hi], 0) / h[0]
    first, last = max(i0, 1), min(i1, n0 - 1)
    rhs[first:i1] += g[first - 1 - lo:i1 - 1 - lo]
    rhs[i0:last] -= g[i0 - lo:last - lo]
    for a in (1, 2):
        _face_diff_t(_face_avg(mf[a, i0:i1], a), a, h[a], rows)
    np.negative(rows, out=rows)
    m_face[0][i0:last] = _face_avg(mc[0, 0, i0:min(i1 + 1, n0)], 0)
    for a in (1, 2):
        m_face[a][i0:i1] = _face_avg(mc[a, a, i0:i1], a)


def apply_operator(p: DarcyProblem, q: np.ndarray) -> np.ndarray:
    """One application of the assembled elliptic operator to raw values.  The
    cross terms of a diagonal coefficient are +0 and change no flux bit.

    Out row i reads q rows i-1..i+1 only: the axis-0 fluxes of its two faces
    take the transverse differences of those rows, and its axis-1 and axis-2
    fluxes the axis-0 difference around row i.  So it runs in row ranges, one
    per worker (see grid._row_slabs), and every cell adds its terms in the
    same order for any split."""
    out = np.zeros_like(q)
    _row_slabs(lambda i0, i1: _operator_rows(p, q, out, i0, i1), q.shape[0])
    return out


def _operator_rows(p: DarcyProblem, q: np.ndarray, out: np.ndarray, i0: int, i1: int) -> None:
    """Rows i0..i1-1 of apply_operator, added into out's zeros, from q's rows
    plus one halo row on each side."""
    h = p.spec.spacing
    mc = p.m.comp
    n0 = q.shape[0]
    lo, hi = max(i0 - 1, 0), min(i1 + 1, n0)
    qs = q[lo:hi]
    trans = [_transverse_diff(qs, b, h[b]) for b in range(3)]  # exact on rows i0..i1-1

    # axis 0: faces lo..hi-2, face f between rows f and f+1; row r adds the
    # flux of face r-1, then takes that of face r, as _face_diff_t does
    flux = p.m_face[0][lo:hi - 1] * _face_diff(qs, 0, h[0])
    cross = np.zeros_like(qs)
    for b in (1, 2):
        cross += mc[0, b, lo:hi] * trans[b]
    flux += _face_avg(cross, 0)
    flux /= h[0]
    first, last = max(i0, 1), min(i1, n0 - 1)
    out[first:i1] += flux[first - 1 - lo:i1 - 1 - lo]
    out[i0:last] -= flux[i0 - lo:last - lo]

    rows = out[i0:i1]
    own = slice(i0 - lo, i1 - lo)
    for a in (1, 2):
        flux = p.m_face[a][i0:i1] * _face_diff(q[i0:i1], a, h[a])
        cross = np.zeros_like(rows)
        for b in range(3):
            if b != a:
                cross += mc[a, b, i0:i1] * trans[b][own]
        flux += _face_avg(cross, a)
        _face_diff_t(flux, a, h[a], rows)


def _project(x: np.ndarray) -> None:
    x -= x.mean()


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a.reshape(-1), b.reshape(-1)))


def _cosine_preconditioner(p: DarcyProblem):
    """Exact inverse of the constant-coefficient counterpart of the operator
    (Concus & Golub 1973): each axis's face coefficient replaced by its mean.

    Per-axis orthonormal cosine bases cos(pi k (i + 1/2) / n) diagonalise that
    operator, with eigenvalues sum_a mean(m_face[a]) (2 - 2 cos(pi k_a / n_a))
    / h_a^2.  The constant mode k = 0 is mapped to 0, so outputs are
    mean-zero.  One application is three forward and three inverse matmuls.
    """
    h = p.spec.spacing
    bases = []
    eig = np.zeros(p.spec.dims)
    for a, n in enumerate(p.spec.dims):
        k = np.arange(n)
        c = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, k + 0.5) / n)
        c[0] = np.sqrt(1.0 / n)
        bases.append(c)
        lam = float(np.mean(p.m_face[a])) * (2.0 - 2.0 * np.cos(np.pi * k / n)) / h[a] ** 2
        eig += lam.reshape([n if b == a else 1 for b in range(3)])
    eig[0, 0, 0] = np.inf
    inv_eig = 1.0 / eig

    def along(mat, x, axis):
        # mat acting on the index along axis; keeps x C-contiguous, which
        # apply_operator's shifted slices run fastest on
        if axis == 0:
            return (mat @ x.reshape(x.shape[0], -1)).reshape(x.shape)
        if axis == 1:
            return mat @ x
        return x @ mat.T

    def apply(r: np.ndarray) -> np.ndarray:
        for a in range(3):
            r = along(bases[a], r, a)
        r = r * inv_eig
        for a in range(3):
            r = along(bases[a].T, r, a)
        return r

    return apply


def _pcg(p, precond, x, r, stop, budget, history, bnorm) -> bool:
    """Preconditioned conjugate gradients from (x, r), updating both in place;
    True once the recurrence residual is at most stop."""
    z = precond(r)
    d = z
    rz = _dot(r, z)
    for _ in range(budget):
        ad = apply_operator(p, d)
        dad = _dot(d, ad)
        if dad <= 0.0:
            raise SolverConvergenceError(
                f"conjugate gradients lost positive definiteness (d.Ad = {dad:.3e})", history
            )
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        _project(x)
        _project(r)
        rnorm = float(np.linalg.norm(r))
        history.append(rnorm / bnorm)
        if rnorm <= stop:
            return True
        z = precond(r)
        rz_new = _dot(r, z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    return False


def _bicgstab(p, precond, x, r, stop, budget, history, bnorm) -> bool:
    """Right-preconditioned BiCGStab (van der Vorst 1992) from (x, r): r stays
    the residual of the unpreconditioned system.  Updates x in place; True once
    a recurrence residual (half or full step) is at most stop."""
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = d = np.zeros_like(r)
    for _ in range(budget):
        rho_new = _dot(r_hat, r)
        if abs(rho_new) < 1e-300:
            raise SolverConvergenceError("BiCGStab breakdown (rho ~ 0)", history)
        d = r + (rho_new / rho) * (alpha / omega) * (d - omega * v)
        rho = rho_new
        d_hat = precond(d)
        v = apply_operator(p, d_hat)
        rhv = _dot(r_hat, v)
        if abs(rhv) < 1e-300:
            raise SolverConvergenceError("BiCGStab breakdown (r_hat.v ~ 0)", history)
        alpha = rho / rhv
        s = r - alpha * v
        snorm = float(np.linalg.norm(s))
        if snorm <= stop:
            x += alpha * d_hat
            _project(x)
            history.append(snorm / bnorm)
            return True
        s_hat = precond(s)
        t = apply_operator(p, s_hat)
        tt = _dot(t, t)
        if tt == 0.0:
            raise SolverConvergenceError("BiCGStab breakdown (t = 0)", history)
        omega = _dot(t, s) / tt
        if abs(omega) < 1e-300:
            raise SolverConvergenceError("BiCGStab breakdown (omega ~ 0)", history)
        x += alpha * d_hat + omega * s_hat
        r = s - omega * t
        _project(x)
        _project(r)
        rnorm = float(np.linalg.norm(r))
        history.append(rnorm / bnorm)
        if rnorm <= stop:
            return True
    return False


def _krylov(p: DarcyProblem, b: np.ndarray, precond, method, name: str,
            tol: float, maxiter: int):
    """Run a Krylov method from x = 0 and accept only a true residual
    |b - A x| <= tol |b|; when the recurrence residual passed but the true one
    does not, restart the method from the true residual, for as long as each
    restart's true residual is below the one before.  history holds the
    initial 1.0 and one relative residual per iteration."""
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    _project(r)
    history = [1.0]
    previous = np.inf  # the true residual at the last restart
    while len(history) <= maxiter:
        if not method(p, precond, x, r, tol * bnorm, maxiter + 1 - len(history), history, bnorm):
            break
        r = b - apply_operator(p, x)
        _project(r)
        rnorm = float(np.linalg.norm(r))
        history[-1] = rnorm / bnorm
        if rnorm <= tol * bnorm:
            return x, len(history) - 1, history[-1]
        if rnorm >= previous:
            raise SolverConvergenceError(
                f"{name} stalled after {len(history) - 1} iterations (relative residual "
                f"{history[-1]:.3e}, {previous / bnorm:.3e} at the restart before)", history
            )
        previous = rnorm
    raise SolverConvergenceError(
        f"{name} did not converge in {maxiter} iterations "
        f"(relative residual {history[-1]:.3e})",
        history,
    )


def solve_darcy(p: DarcyProblem, tol: float = 1e-10, maxiter: int | None = None) -> DarcySolution:
    """Krylov solve of the reduced problem, preconditioned with the exact
    inverse of its constant-coefficient counterpart: CG when the coefficient
    is symmetric, right-preconditioned BiCGStab otherwise.  The constant null
    space is projected out of iterates and right-hand side every iteration;
    tol bounds the true relative residual |b - A q| / |b|."""
    if maxiter is None:
        maxiter = 10 * p.spec.n_cells
    b = p.rhs.values.copy()
    _project(b)
    if float(np.linalg.norm(b)) == 0.0:
        q = np.zeros(p.spec.dims)
        iters, res = 0, 0.0
    else:
        method, name = (_pcg, "conjugate gradients") if p.m.symmetric else (_bicgstab, "BiCGStab")
        q, iters, res = _krylov(p, b, _cosine_preconditioner(p), method, name, tol, maxiter)
        _project(q)
    u = p.mf.comp + _matvec(p.m, gradient_values(q, p.spec))
    return DarcySolution(
        q=ScalarField(p.spec, q),
        u=VectorField(p.spec, u),
        iterations=iters,
        residual=res,
    )


def solve_divcurl(d: DivCurlData, tol: float = 1e-10, maxiter: int | None = None) -> DarcySolution:
    """Certify, reduce and solve in one call.

    Raises EllipticityError, with the cell and eigenvalue, when the symmetric
    part of the coefficient is not positive definite.
    """
    c = d.a.comp
    sym = TensorField(d.a.spec, 0.5 * (c + c.swapaxes(0, 1)))
    lam_min, cell = min_hessian_eigenvalue(sym)
    if lam_min <= 0.0:
        raise EllipticityError(
            f"symmetric part of coefficient not positive definite: "
            f"eigenvalue {lam_min:.3e} at cell {cell}",
            cell=cell,
            value=lam_min,
        )
    return solve_darcy(reduce_to_darcy(d), tol=tol, maxiter=maxiter)


def _w1p_norm(v: VectorField, p) -> float:
    return lp_norm(v, p) + _magnitude_lp(_jacobian_magnitude(v), p, v.spec.cell_volume)


def verify_estimate(u: VectorField, d: DivCurlData, p) -> EstimateRatios:
    """Ratios |u|_{W^1,p} / |F|_{L^p} and |A u|_{W^1,p} / |F|_{L^p} with
    F = curl f.  Diagnostics only; not-applicable when F vanishes."""
    f_norm = lp_norm(curl(d.f), p)
    if f_norm == 0.0:
        return EstimateRatios(None, None)
    au = VectorField(u.spec, _matvec(d.a, u.comp))
    return EstimateRatios(
        u_ratio=_w1p_norm(u, p) / f_norm,
        au_ratio=_w1p_norm(au, p) / f_norm,
    )
