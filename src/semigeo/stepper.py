"""Forward Euler scheme for the active transport of a convex geopotential.

Each step assembles the transport source f = J(grad P - x) and the
coefficient A = D2P, solves the div-curl system for the velocity through the
scalar reduction, and updates the potential by P <- P - eps * q.  Because the
state stores the potential itself, the transported field grad P stays a
discrete gradient exactly; conservativity never has to be monitored, only
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .diagnostics import emit_record
from .divcurl import (
    DarcySolution,
    DivCurlData,
    EllipticityError,
    SolverConvergenceError,
    reduce_to_darcy,
    solve_darcy,
    verify_estimate,
)
from .grid import (
    _SLAB_ROWS,
    GridSpec,
    NonFiniteError,
    ScalarField,
    TensorField,
    VectorField,
    _gradient_and_hessian,
    _row_slabs,
    cell_magnitude,
    lp_norm,
    min_hessian_eigenvalue,
    sobolev_norm,
    sum_of_squares,
    symmetric_components,
)

__all__ = [
    "ConvexityError",
    "GeopotentialState",
    "SchemeConstants",
    "SchemeConfig",
    "RunResult",
    "apply_rotation",
    "preset_potential",
    "init_state",
    "compute_constants",
    "transport_data",
    "step",
    "run",
]


class ConvexityError(EllipticityError):
    """Geopotential lost (or never had) uniform convexity."""


def apply_rotation(v: np.ndarray) -> np.ndarray:
    """The rotation matrix J applied per cell: (v1, v2, v3) -> (-v2, v1, 0).

    v is component-major, (3, nx, ny, nz) with v[a] component a, and so is
    the result.
    """
    out = np.empty_like(v)
    out[0] = -v[1]
    out[1] = v[0]
    out[2] = 0.0
    return out


@dataclass(frozen=True)
class GeopotentialState:
    """Mean-zero geopotential with its cached derivatives and smallest Hessian eigenvalue."""

    p: ScalarField
    time: float
    grad_p: VectorField
    hess: TensorField
    lambda_min: float
    lambda_argmin: tuple[int, int, int]

    @property
    def spec(self) -> GridSpec:
        return self.p.spec


def _build_state(values: np.ndarray, spec: GridSpec, time: float) -> GeopotentialState:
    vals = np.asarray(values, dtype=float) - float(np.mean(values))
    p = ScalarField(spec, vals)
    grad, hess = _gradient_and_hessian(p.values, spec)
    grad_p, hess = VectorField(spec, grad), TensorField(spec, hess)
    lam, cell = min_hessian_eigenvalue(hess)
    return GeopotentialState(
        p=p, time=time, grad_p=grad_p, hess=hess,
        lambda_min=lam, lambda_argmin=cell,
    )


def preset_potential(name: str, spec: GridSpec, *, tilt=None, quad=None,
                     delta: float = 0.01, k: int = 1) -> np.ndarray:
    """Sample one of the built-in initial potentials on the grid.

    identity:   |x|^2 / 2
    tilt:       |x|^2 / 2 + a.x
    quadratic:  x^T Q x / 2 for SPD Q (diagonal given as a 3-vector)
    bump:       |x|^2 / 2 + delta * prod_i sin(k pi xi_i), xi in unit coords
    """
    if name == "quadratic":
        q = np.asarray(quad if quad is not None else (2.0, 1.0, 0.5), dtype=float)
        if q.shape == (3,):
            q = np.diag(q)
        if q.shape != (3, 3):
            raise ValueError("quadratic preset needs a 3-vector diagonal or a 3x3 matrix")
        x = spec.cell_centers()
        return 0.5 * np.einsum("a...,ab,b...->...", x, q, x)
    # the other presets are separable: each axis's coordinates broadcast over
    # the grid, in the operations and order of the same formulas on
    # cell_centers(), so every cell gets the same bits
    x0, x1, x2 = (spec.axis_coords(a).reshape([-1 if b == a else 1 for b in range(3)])
                  for a in range(3))
    base = 0.5 * ((x0**2 + x1**2) + x2**2)  # sum_of_squares' order
    if name == "identity":
        return base
    if name == "tilt":
        a = np.asarray(tilt if tilt is not None else (0.1, 0.0, 0.0), dtype=float)
        # a.x summed in the order np.einsum("...a,a->...") takes on a row-major x
        return base + ((x0 * a[0] + x2 * a[2]) + x1 * a[1])
    if name == "bump":
        s0, s1, s2 = (np.sin(k * np.pi * ((c - spec.origin[a]) / spec.extents[a]))
                      for a, c in enumerate((x0, x1, x2)))
        return base + float(delta) * ((s0 * s1) * s2)  # np.prod's order over axis 0
    raise ValueError(f"unknown preset {name!r}")


def init_state(source: str | ScalarField, spec: GridSpec | None = None,
               **preset_params) -> GeopotentialState:
    """Build the initial state from a preset name or a ScalarField.

    Rejects potentials that are not uniformly convex on the grid, reporting
    the offending cell and eigenvalue.
    """
    if isinstance(source, str):
        if spec is None:
            raise ValueError("a GridSpec is required with a preset name")
        values = preset_potential(source, spec, **preset_params)
    else:
        spec = source.spec
        values = source.values
    s = _build_state(values, spec, 0.0)
    if s.lambda_min <= 0.0:
        raise ConvexityError(
            f"initial potential is not uniformly convex: smallest Hessian "
            f"eigenvalue {s.lambda_min:.6e} at cell {s.lambda_argmin}",
            cell=s.lambda_argmin,
            value=s.lambda_min,
        )
    return s


@dataclass(frozen=True)
class SchemeConstants:
    """Scheme parameters; tau_star is indicative, computable only up to the
    configured constants c_star and c_m.  lambda0 and norm_w3p0 are lambda_min
    and |grad P0|_{W^3,p} of the state the constants were computed from."""

    lambda0: float
    omega: float
    m_star: float
    c_star: float
    c_m: float
    kappa: float
    tau_star: float
    p: float
    norm_w3p0: float


def compute_constants(s: GeopotentialState, p: float = 4.0, c_star: float = 1.0,
                      c_m: float = 1.0) -> SchemeConstants:
    """Evaluate the discrete scheme constants and the guaranteed horizon.

    tau_star = log(1 + lambda0 / (6 c_m (kappa + |grad P0|_{W^3,p}))) / (1 + 2 c_star)
    with kappa = (omega + 2 c_star |domain|^{1/p}) / (1 + 2 c_star) and omega
    the W^{3,p} size of the rotation field J x, in closed form: the stencils are
    exact on (x1^2 + x2^2)/2, whose Hessian is diag(1, 1, 0) and whose third
    derivatives vanish, so omega = |J x|_p + sqrt(2) |domain|^{1/p}.
    Raises ValueError when omega, m_star, kappa or tau_star is not finite; an
    infinite norm_w3p0 is left to the step-0 record, which halts on it.
    """
    if p <= 3.0:
        raise ValueError(f"Lebesgue exponent must exceed 3, got {p}")
    if c_star <= 0.0 or c_m <= 0.0:
        raise ValueError("c_star and c_m must be positive")
    spec = s.spec
    volume_term = spec.volume ** (1.0 / p)
    jx_lp = lp_norm(VectorField(spec, apply_rotation(spec.cell_centers())), p)  # |J x|_p
    omega = jx_lp + math.sqrt(2.0) * volume_term
    frob = cell_magnitude(s.hess)  # for |D2P|_p and |D2P|_inf
    grad_norm = sobolev_norm(lp_norm(s.grad_p, p), lp_norm(frob, p), s.hess, p)

    alpha = 1.0 - 3.0 / p
    quotient = 0.0
    for a, row_max in enumerate(_difference_row_maxima(s.hess.comp)):
        quotient = max(quotient, float(np.max(row_max)) / spec.spacing[a] ** alpha)
    m_star = lp_norm(frob, np.inf) + quotient + s.lambda_min / 6.0

    kappa = (omega + 2.0 * c_star * volume_term) / (1.0 + 2.0 * c_star)
    tau_star = math.log1p(s.lambda_min / (6.0 * c_m * (kappa + grad_norm))) / (1.0 + 2.0 * c_star)
    named = {"omega": omega, "m_star": m_star, "kappa": kappa, "tau_star": tau_star}
    bad = [f"{name} {value!r}" for name, value in named.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"scheme constants {', '.join(bad)} are not finite "
                         f"(p {p!r}, c_star {c_star!r}, c_m {c_m!r})")
    return SchemeConstants(
        lambda0=s.lambda_min, omega=omega, m_star=m_star, c_star=c_star,
        c_m=c_m, kappa=kappa, tau_star=tau_star, p=p, norm_w3p0=grad_norm,
    )


def _difference_row_maxima(comp: np.ndarray) -> np.ndarray:
    """(3, n0) array: entry (a, i) is the largest per-cell magnitude of the
    forward differences along axis a (np.diff) of a symmetric tensor's
    components, over the differences that start in row i; -inf where none
    does (the last row, along axis 0).  Built in slabs of rows (_row_slabs),
    each slab reading one halo row for axis 0 and keeping its rows' maxima,
    which are exact in any order."""
    n0 = comp.shape[2]
    row_max = np.full((3, n0), -np.inf)

    def slab(i0, i1):
        for a in range(3):
            rows = comp[:, :, i0:(min(i1 + 1, n0) if a == 0 else i1)]
            dn = np.sqrt(sum_of_squares(symmetric_components(rows, partial(np.diff, axis=a))))
            if dn.size:  # no difference along axis 0 starts in the last row
                row_max[a, i0:i0 + len(dn)] = dn.max(axis=(1, 2))

    _row_slabs(slab, n0, _SLAB_ROWS)
    return row_max


def transport_data(s: GeopotentialState) -> DivCurlData:
    """Coefficient and curl-source of the velocity system at this state:
    A = D2P and f = J(grad P - x).

    The base model: A is certified by step's convexity guard, since D2P is
    exactly symmetric and its smallest eigenvalue is s.lambda_min.
    """
    f = apply_rotation(s.grad_p.comp - s.spec.cell_centers())
    return DivCurlData(a=s.hess, f=VectorField(s.spec, f))


def step(s: GeopotentialState, epsilon: float, model=transport_data, tol: float = 1e-10,
         maxiter: int | None = None
         ) -> tuple[GeopotentialState, DarcySolution, DivCurlData]:
    """One forward Euler step: solve for q, update P <- P - eps q.

    The model maps the state to its div-curl data (transport_data, or a
    variable-rotation closure such as partial(coriolis_transport_data, c=c));
    it is called once, after the convexity check, and its data is returned
    with the solution so the caller can reuse it.  A model's contract: it
    returns a coefficient whose symmetric part is positive definite, or raises
    EllipticityError; the solve does not check again.  The new transported field
    is grad(P - eps q), a discrete gradient by construction.  Raises
    EllipticityError (a ConvexityError, a SingularTensorError or the model's)
    or SolverConvergenceError with the state unchanged when the step cannot
    be taken.
    """
    if s.lambda_min <= 0.0:
        raise ConvexityError(
            f"cannot step: Hessian eigenvalue {s.lambda_min:.6e} at cell "
            f"{s.lambda_argmin} is not positive",
            cell=s.lambda_argmin,
            value=s.lambda_min,
        )
    data = model(s)
    sol = solve_darcy(reduce_to_darcy(data), tol=tol, maxiter=maxiter)
    new_vals = s.p.values - epsilon * sol.q.values
    new_state = _build_state(new_vals, s.spec, s.time + epsilon)
    return new_state, sol, data


FLOOR_FRACTION = 0.5


@dataclass(frozen=True)
class SchemeConfig:
    """Time discretisation and run policy.

    Give epsilon and n_steps, or exactly one of them with a horizon, from
    which the other is derived.  auto_horizon uses the computed tau_star.
    """

    epsilon: float | None = None
    n_steps: int | None = None
    horizon: float | None = None
    auto_horizon: bool = False
    tol: float = 1e-10
    maxiter: int | None = None
    convexity_floor: bool = True
    record_every: int = 1

    def __post_init__(self):
        if self.epsilon is None and self.n_steps is None:
            raise ValueError("one of epsilon or n_steps is required")
        if self.epsilon is not None and self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.n_steps is not None and self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.horizon is not None and self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        has_horizon = self.horizon is not None or self.auto_horizon
        has_both = self.epsilon is not None and self.n_steps is not None
        if not has_horizon and not has_both:
            raise ValueError("without a horizon both epsilon and n_steps are required")
        if self.horizon is not None and self.auto_horizon:
            raise ValueError("give either an explicit horizon or auto_horizon, not both")
        if has_horizon and has_both:
            raise ValueError("over-determined schedule: epsilon, n_steps and a horizon all given")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")

    def schedule(self, constants: SchemeConstants) -> tuple[float, int]:
        """The step size and step count; auto_horizon derives the horizon
        tau_star from constants, which must be positive and finite, and so
        must a step count derived from a horizon."""
        horizon = self.horizon
        if self.auto_horizon:
            horizon = constants.tau_star
            if not 0.0 < horizon < math.inf:
                raise ValueError(f"tau_star must be positive and finite, got {horizon!r}")
        if self.epsilon is not None and self.n_steps is not None:
            return self.epsilon, self.n_steps
        if self.epsilon is not None:
            steps = horizon / self.epsilon - 1e-12
            if not math.isfinite(steps):
                raise ValueError(f"step count {horizon!r} / {self.epsilon!r} is not finite")
            return self.epsilon, max(1, math.ceil(steps))
        return horizon / self.n_steps, self.n_steps


@dataclass
class RunResult:
    final_state: GeopotentialState
    steps_completed: int
    halt_reason: str
    constants: SchemeConstants
    epsilon: float
    n_steps: int


def run(s0: GeopotentialState, config: SchemeConfig,
        constants: SchemeConstants | None = None, model=transport_data,
        observe=None) -> RunResult:
    """Execute the scheme, emitting one DiagnosticsRecord per cadence tick.

    constants, when given, must be those of s0 (compute_constants(s0, ...)):
    the step-0 record takes its W^{3,p} norm from them.  Early halts
    (convexity floor, an EllipticityError, solver failure, non-finite values,
    a MemoryError) are structured outcomes recorded in halt_reason, not
    exceptions.  The model (see step) is assembled once per step; on recorded
    steps its data is reused for the estimate ratios.  Only the current state
    and its record are kept: observe(j, state, sol, record) is called once for
    every state reached, in step order, with the solve taken from that state,
    or None when no solve followed it, and the state's record, or None when
    the state is off the record_every cadence or its record failed.  A call
    that raises is not made again; a halt it raises ends the run.
    """
    if constants is None:
        constants = compute_constants(s0)
    epsilon, n_steps = config.schedule(constants)

    halt_reason = "completed"
    state, j, record = s0, 0, None
    at = 0  # the step whose state is being built or recorded
    called = -1  # the last state observe was called for
    try:
        record = emit_record(s0, None, constants, step=0, norm_w3p=constants.norm_w3p0)
        while j < n_steps:
            at = j + 1
            new_state, sol, data = step(state, epsilon, model, config.tol, config.maxiter)
            if observe is not None:
                called = j
                observe(j, state, sol, record)
            state, j, record = new_state, at, None
            if j % config.record_every == 0 or j == n_steps:
                ratios = verify_estimate(sol.u, data, constants.p)
                record = emit_record(state, sol, constants, step=j, ratios=ratios)
            if config.convexity_floor and state.lambda_min < FLOOR_FRACTION * constants.lambda0:
                halt_reason = (
                    f"convexity floor reached at step {j}: lambda_min "
                    f"{state.lambda_min:.6e} < {FLOOR_FRACTION} * lambda0"
                )
                break
    except EllipticityError as err:
        halt_reason = f"convexity lost at step {at}: {err}"
    except SolverConvergenceError as err:
        halt_reason = f"solver failed at step {at}: {err}"
    except NonFiniteError as err:
        halt_reason = f"non-finite values at step {at}: {err}"
    except MemoryError as err:
        halt_reason = f"out of memory at step {at}: {err}"
    if observe is not None and called != j:
        observe(j, state, None, record)
    return RunResult(
        final_state=state, steps_completed=j, halt_reason=halt_reason,
        constants=constants, epsilon=epsilon, n_steps=n_steps,
    )
