"""Desk-scale Eulerian simulator for the incompressible semi-geostrophic
equations: one variable-coefficient div-curl solve per forward Euler step,
with convexity, energy, and support diagnostics."""

from .coriolis import (
    CoriolisField,
    PerturbationError,
    assemble_coriolis_coefficient,
    constant_coriolis,
    coriolis_transport_data,
    linear_coriolis,
    make_coriolis_field,
    step_coriolis,
)
from .diagnostics import (
    DiagnosticsRecord,
    PushforwardHistogram,
    curl_residual,
    emit_record,
    energy,
    pushforward_histogram,
    support_bound_check,
)
from .divcurl import (
    DarcyProblem,
    DarcySolution,
    DivCurlData,
    EllipticityError,
    SingularTensorError,
    SolverConvergenceError,
    invert_3x3,
    reduce_to_darcy,
    solve_darcy,
    solve_divcurl,
    verify_estimate,
)
from .grid import (
    GridSpec,
    NonFiniteError,
    ScalarField,
    TensorField,
    VectorField,
    curl,
    gradient,
    hessian,
    lp_norm,
    min_hessian_eigenvalue,
    sobolev_norm,
)
from .stepper import (
    ConvexityError,
    GeopotentialState,
    RunResult,
    SchemeConfig,
    SchemeConstants,
    compute_constants,
    growth_bound_check,
    init_state,
    run,
    step,
    transport_data,
)

__version__ = "0.1.0"
