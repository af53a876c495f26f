"""Variable-rotation extension: spatially varying Coriolis parameter.

The per-step velocity system keeps the div-curl shape but with the perturbed
(generally non-symmetric) coefficient

    A = D2P - Kf_inv (grad P  (x)  grad f) / f^2,      Kf_inv = diag(f, f, 1),

and right-hand side potential Kf_inv J (grad P - x).  The perturbation must
stay dominated by the convex Hessian for the system to remain uniformly
elliptic; that dominance is enforced per cell.  Smallness of f alone cannot
be the operative requirement, since the perturbation scales with 1/f^2 and
Kf_inv grows with f; what matters is f bounded away from zero with the
rank-one term under half the local convexity modulus.  With constant f the
perturbation vanishes identically and the step reduces exactly to the base
scheme with the rotation rate scaled by f.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .divcurl import DarcySolution, DivCurlData, EllipticityError
from .grid import (
    GridSpec,
    ScalarField,
    TensorField,
    VectorField,
    eigmin_symmetric,
    gradient,
    sum_of_squares,
)
from .stepper import GeopotentialState, apply_rotation, step

__all__ = [
    "PerturbationError",
    "CoriolisField",
    "constant_coriolis",
    "linear_coriolis",
    "assemble_coriolis_coefficient",
    "coriolis_transport_data",
    "step_coriolis",
]


class PerturbationError(EllipticityError):
    """Rotation-gradient term not dominated by the convex Hessian: the
    perturbed coefficient is no longer uniformly elliptic."""


@dataclass(frozen=True)
class CoriolisField:
    """Positive Coriolis parameter with its cached gradient."""

    f: ScalarField
    grad_f: VectorField

    @property
    def spec(self) -> GridSpec:
        return self.f.spec


def make_coriolis_field(f: ScalarField) -> CoriolisField:
    lowest = float(np.min(f.values))
    if lowest <= 0.0:
        raise ValueError(f"Coriolis parameter must be positive everywhere, min {lowest:.3e}")
    return CoriolisField(f=f, grad_f=gradient(f))


def constant_coriolis(spec: GridSpec, f0: float) -> CoriolisField:
    return make_coriolis_field(ScalarField(spec, np.full(spec.dims, float(f0))))


def linear_coriolis(spec: GridSpec, delta: float) -> CoriolisField:
    """Profile f = 1 + delta * x3."""
    x3 = spec.cell_centers()[2]
    return make_coriolis_field(ScalarField(spec, 1.0 + float(delta) * x3))


def assemble_coriolis_coefficient(s: GeopotentialState, c: CoriolisField) -> TensorField:
    """Perturbed coefficient; rejects cells where the rank-one term is not
    dominated by half the local convexity modulus.

    Dominance is the only definiteness test needed: with |T| < lambda_min(D2P)/2
    per cell, the symmetric part of D2P - T has smallest eigenvalue above
    lambda_min(D2P)/2 > 0 (Weyl).

    s.lambda_min is the minimum of the same per-cell eigenvalues, so the scan
    runs only when some cell has |T| >= s.lambda_min / 2.
    """
    if s.spec.dims != c.spec.dims:
        raise ValueError("state and Coriolis field live on different grids")
    f = c.f.values
    gp = s.grad_p.comp
    gf = c.grad_f.comp
    kf = np.stack([f, f, np.ones_like(f)])  # the diagonal of Kf_inv
    # rank-one term (Kf_inv gp) (gf)^T / f^2, component-major, and its
    # spectral norm per cell
    term = kf[:, None] * (gp[:, None] * gf[None, :]) / (f * f)
    norm = np.sqrt(sum_of_squares(list(kf * gp))) * np.sqrt(sum_of_squares(list(gf))) / f**2
    # cells below s.lambda_min / 2 cannot fail: 0.5 * local >= 0.5 * s.lambda_min
    if np.any(norm >= 0.5 * s.lambda_min):
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


def coriolis_transport_data(s: GeopotentialState, c: CoriolisField) -> DivCurlData:
    """Coefficient and curl-source of the variable-rotation velocity system.

    The source is Kf_inv J (grad P - x); for constant f this is f * J(grad P - x)
    and the coefficient collapses to the plain Hessian.  The coefficient is
    certified by the dominance test of assemble_coriolis_coefficient, which
    raises PerturbationError (an EllipticityError) where it fails.
    """
    a = assemble_coriolis_coefficient(s, c)
    jw = apply_rotation(s.grad_p.comp - s.spec.cell_centers())
    jw[0] *= c.f.values
    jw[1] *= c.f.values
    return DivCurlData(a=a, f=VectorField(s.spec, jw))


def step_coriolis(s: GeopotentialState, c: CoriolisField, epsilon: float,
                  tol: float = 1e-10, maxiter: int | None = None
                  ) -> tuple[GeopotentialState, DarcySolution, DivCurlData]:
    """One forward Euler step of the variable-rotation scheme (see stepper.step)."""
    return step(s, epsilon, partial(coriolis_transport_data, c=c), tol, maxiter)
