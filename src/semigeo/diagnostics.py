"""Physical diagnostics of a geopotential state: energy, geostrophic measure,
norm growth, convexity, and conservativity monitors.

All integrals use the midpoint rule on cell centers, consistent with the
second-order stencils elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import NonFiniteError, cell_magnitude, lp_norm, sobolev_norm, sum_of_squares

__all__ = [
    "DiagnosticsRecord",
    "PushforwardHistogram",
    "BoundCheck",
    "energy",
    "pushforward_histogram",
    "support_bound_check",
    "growth_bound_check",
    "curl_residual",
    "emit_record",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of the per-step time series.

    All entries are finite; the estimate ratios are None when the curl source
    vanishes (nothing to compare against).
    """

    step: int
    time: float
    energy: float
    norm_l2: float
    norm_lp: float
    norm_linf: float
    norm_w3p: float
    lambda_min: float
    lambda_argmin: tuple[int, int, int]
    curl_residual: float
    bbox_min: tuple[float, float, float]
    bbox_max: tuple[float, float, float]
    u_max: float
    solver_iterations: int
    solver_residual: float
    est_ratio_u: float | None = None
    est_ratio_au: float | None = None

    def __post_init__(self):
        numbers = [self.time, self.energy, self.norm_l2, self.norm_lp,
                   self.norm_linf, self.norm_w3p, self.lambda_min,
                   self.curl_residual, self.u_max, self.solver_residual,
                   *self.bbox_min, *self.bbox_max]
        if not all(np.isfinite(v) for v in numbers):
            raise NonFiniteError("diagnostics record contains non-finite entries")


@dataclass(frozen=True)
class PushforwardHistogram:
    """Histogram of the geostrophic measure: pushforward of the normalised
    cell measure under grad P, binned over its exact bounding box."""

    edges: tuple  # three 1-d arrays of bin edges
    masses: np.ndarray  # (bx, by, bz), sums to 1

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    @property
    def support_box(self) -> tuple:
        lo = tuple(float(e[0]) for e in self.edges)
        hi = tuple(float(e[-1]) for e in self.edges)
        return lo, hi


def energy(s) -> float:
    """Geostrophic energy  1/2 int (x1-T1)^2 + (x2-T2)^2 - 2 x3 T3 dx  with
    T = grad P, midpoint rule, not volume-normalised."""
    x = s.spec.cell_centers()
    t = s.grad_p.comp
    density = 0.5 * (
        (x[0] - t[0]) ** 2
        + (x[1] - t[1]) ** 2
        - 2.0 * x[2] * t[2]
    )
    return float(np.sum(density) * s.spec.cell_volume)


def pushforward_histogram(s, bins=16) -> PushforwardHistogram:
    """Each cell deposits its normalised volume weight 1/N into the bin
    containing its grad P value; bins tile the exact componentwise bounding
    box (degenerate axes widened symmetrically)."""
    t = s.grad_p.comp.reshape(3, -1)
    n = t.shape[1]
    ranges = []
    for a in range(3):
        lo, hi = float(np.min(t[a])), float(np.max(t[a]))
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        ranges.append((lo, hi))
    masses, edges = np.histogramdd(list(t), bins=bins, range=ranges)
    return PushforwardHistogram(edges=tuple(edges), masses=masses / n)


@dataclass(frozen=True)
class BoundCheck:
    """One recorded step of an a-priori bound: the value a run reached
    against the bound the estimate allows there."""

    step: int
    value: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound - self.value

    @property
    def passed(self) -> bool:
        return self.value <= self.bound * (1.0 + 1e-12) + 1e-12


def support_bound_check(records, spec) -> list[BoundCheck]:
    """Exponential support envelope |grad P(t)|_inf <= (|grad P0|_inf + m) e^t - m
    with m = spec.corner_radius(), the farthest corner radius of the domain;
    the discrete form of the growth argument behind the bounded-support
    property.  Checked at every recorded step of a run's records, the first
    of which is step 0."""
    if not records:
        return []
    m = spec.corner_radius()
    t0 = records[0].time
    base = records[0].norm_linf + m
    return [
        BoundCheck(step=r.step, value=r.norm_linf, bound=base * np.exp(r.time - t0) - m)
        for r in records
    ]


def growth_bound_check(records, constants, epsilon: float) -> list[BoundCheck]:
    """Comparison of |grad P_j|_{W^3,p} against the geometric bound
    (kappa + |grad P_0|) (1 + (1+2c*) eps)^j - kappa at every recorded step j,
    read from the run's records (the first must be step 0) and the run's
    SchemeConstants.  Advisory: with c_star configured rather than derived, a
    violation is a finding, not an error."""
    if not records:
        return []
    base = constants.kappa + records[0].norm_w3p
    growth = 1.0 + (1.0 + 2.0 * constants.c_star) * epsilon
    return [
        BoundCheck(step=r.step, value=r.norm_w3p,
                   bound=base * growth**r.step - constants.kappa)
        for r in records
    ]


def curl_residual(s) -> float:
    """Max magnitude of curl(grad P) over cells two layers in from each face;
    zero to rounding because the transported field is a stored gradient.

    Only that block is differentiated, with the centred differences grid.curl
    takes there, so the value is bit for bit that of curl(s.grad_p)."""
    if min(s.spec.dims) <= 4:
        return 0.0
    g = s.grad_p.comp
    h = s.spec.spacing

    def d(a, b):  # d g_b / d x_a on cells [2:-2]^3
        hi, lo = [slice(2, -2)] * 3, [slice(2, -2)] * 3
        hi[a], lo[a] = slice(3, -1), slice(1, -3)
        return (g[(b, *hi)] - g[(b, *lo)]) / (2.0 * h[a])

    comps = [d(1, 2) - d(2, 1), d(2, 0) - d(0, 2), d(0, 1) - d(1, 0)]
    return float(np.max(np.sqrt(sum_of_squares(comps))))


def emit_record(s, solution, constants, step: int = 0, ratios=None,
                norm_w3p=None) -> DiagnosticsRecord:
    """Assemble the full record for one state; pure function of its inputs.

    solution is the solve that led to s and ratios its EstimateRatios (see
    divcurl.verify_estimate); the ratio columns are None without them.
    norm_w3p is the state's W^{3,p} norm when the caller has it already
    (SchemeConstants.norm_w3p0 for the initial state); it is computed
    otherwise.  All norms of grad P share one per-cell magnitude."""
    p = constants.p
    grad_mag = cell_magnitude(s.grad_p)
    norm_lp = lp_norm(grad_mag, p)
    if norm_w3p is None:
        norm_w3p = sobolev_norm(norm_lp, lp_norm(s.hess, p), s.hess, p)
    t = s.grad_p.comp.reshape(3, -1)
    bbox_min = tuple(float(v) for v in t.min(axis=1))
    bbox_max = tuple(float(v) for v in t.max(axis=1))
    if solution is None:
        u_max, iters, resid = 0.0, 0, 0.0
    else:
        u_max = lp_norm(solution.u, np.inf)
        iters = solution.iterations
        resid = solution.residual
    return DiagnosticsRecord(
        step=step,
        time=s.time,
        energy=energy(s),
        norm_l2=lp_norm(grad_mag, 2),
        norm_lp=norm_lp,
        norm_linf=lp_norm(grad_mag, np.inf),
        norm_w3p=norm_w3p,
        lambda_min=s.lambda_min,
        lambda_argmin=s.lambda_argmin,
        curl_residual=curl_residual(s),
        bbox_min=bbox_min,
        bbox_max=bbox_max,
        u_max=u_max,
        solver_iterations=iters,
        solver_residual=resid,
        est_ratio_u=None if ratios is None else ratios.u_ratio,
        est_ratio_au=None if ratios is None else ratios.au_ratio,
    )
