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

import numpy as np

from .grid import (
    GridSpec,
    ScalarField,
    TensorField,
    VectorField,
    _sl,
    curl,
    gradient_values,
    jacobian,
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
    has_mixed: bool  # any off-diagonal coefficient present

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
    (..., 3) vectors, so products are bit-identical to it.
    """
    c = t.comp
    out = np.zeros(v.shape)
    for a in range(3):
        out[a] += (c[a, 0] * v[0] + c[a, 2] * v[2]) + c[a, 1] * v[1]
    return out


def invert_3x3(t: TensorField) -> TensorField:
    """Closed-form adjugate/determinant inverse per cell.

    Symmetric input gives exactly symmetric output (upper triangle mirrored).
    """
    c = t.comp
    a00, a01, a02 = c[0]
    a10, a11, a12 = c[1]
    a20, a21, a22 = c[2]

    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02

    norm = np.sqrt(sum_of_squares([c[a, b] for a in range(3) for b in range(3)]))
    bad = np.abs(det) <= 1e-12 * norm**3
    if np.any(bad):
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise SingularTensorError(
            f"tensor not invertible at cell {tuple(int(i) for i in idx)}: "
            f"det {float(det[idx]):.3e}",
            cell=tuple(int(i) for i in idx),
            value=float(det[idx]),
        )

    inv = np.empty_like(c)
    inv[0, 0] = c00
    inv[0, 1] = a02 * a21 - a01 * a22
    inv[0, 2] = a01 * a12 - a02 * a11
    inv[1, 1] = a00 * a22 - a02 * a20
    inv[1, 2] = a02 * a10 - a00 * a12
    inv[2, 2] = a00 * a11 - a01 * a10
    if t.symmetric:
        inv[1, 0] = inv[0, 1]
        inv[2, 0] = inv[0, 2]
        inv[2, 1] = inv[1, 2]
    else:
        inv[1, 0] = c01
        inv[2, 0] = c02
        inv[2, 1] = a01 * a20 - a00 * a21
    inv /= det
    return TensorField(t.spec, inv)


def reduce_to_darcy(d: DivCurlData) -> DarcyProblem:
    spec = d.a.spec
    h = spec.spacing
    m = invert_3x3(d.a)
    mf = _matvec(m, d.f.comp)
    rhs_vals = np.zeros(spec.dims)
    for a in range(3):
        _face_diff_t(_face_avg(mf[a], a), a, h[a], rhs_vals)
    rhs_vals = -rhs_vals
    m_face = tuple(_face_avg(m.comp[a, a], a) for a in range(3))
    off = sum(
        float(np.max(np.abs(m.comp[a, b])))
        for a in range(3)
        for b in range(3)
        if a != b
    )
    return DarcyProblem(
        m=m,
        mf=VectorField(spec, mf),
        rhs=ScalarField(spec, rhs_vals),
        m_face=m_face,
        has_mixed=off > 0.0,
    )


def apply_operator(p: DarcyProblem, q: np.ndarray) -> np.ndarray:
    """One application of the assembled elliptic operator to raw values."""
    h = p.spec.spacing
    mc = p.m.comp
    out = np.zeros_like(q)
    if p.has_mixed:
        trans = [_transverse_diff(q, b, h[b]) for b in range(3)]
    for a in range(3):
        flux = p.m_face[a] * _face_diff(q, a, h[a])
        if p.has_mixed:
            cross = np.zeros_like(q)
            for b in range(3):
                if b != a:
                    cross += mc[a, b] * trans[b]
            flux += _face_avg(cross, a)
        _face_diff_t(flux, a, h[a], out)
    return out


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
    return lp_norm(v, p) + lp_norm(jacobian(v), p)


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
