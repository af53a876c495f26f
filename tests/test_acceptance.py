"""Acceptance suite: every numerically checkable guarantee, one test per
criterion, each printing a PASS/FAIL line (run with -s to see them live).

Criterion 5 pins drift targets the measured dynamics cannot meet (see the
"Known failing check" section of the README); it is asserted anyway rather
than weakened, as a falsifiable record of those measurements.
"""

from functools import partial

import numpy as np
import pytest

from semigeo.coriolis import (
    constant_coriolis,
    coriolis_transport_data,
    linear_coriolis,
)
from semigeo.diagnostics import (
    curl_residual,
    energy,
    pushforward_histogram,
    support_bound_check,
)
from semigeo.divcurl import DivCurlData, reduce_to_darcy, solve_darcy
from semigeo.grid import GridSpec, ScalarField, TensorField, VectorField
from semigeo.stepper import (
    SchemeConfig,
    compute_constants,
    init_state,
    run,
    transport_data,
)

from conftest import dense_operator, mean_tilt, recover_velocity

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
GRID16 = GridSpec(dims=(16, 16, 16))


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def preset_runs(run_states):
    cfg = SchemeConfig(epsilon=0.01, n_steps=30)
    runs = {}
    for name, kwargs in [
        ("identity", {}),
        ("tilt", {"tilt": (0.1, 0.0, 0.05)}),
        ("quadratic", {"quad": (2.0, 1.0, 0.5)}),
        ("bump", {"delta": 0.005, "k": 1}),
    ]:
        runs[name] = run_states(init_state(name, GRID16, **kwargs), cfg)
    return runs


@pytest.fixture(scope="module")
def coriolis_run(run_states):
    c = linear_coriolis(GRID16, 0.05)
    s = init_state("bump", GRID16, delta=0.005, k=1)
    return run_states(s, SchemeConfig(epsilon=0.01, n_steps=15),
                      model=partial(coriolis_transport_data, c=c))[1]


def test_criterion_1_fixed_point(run_states):
    s = init_state("identity", GRID16)
    res, states, _ = run_states(s, SchemeConfig(epsilon=0.01, n_steps=100, record_every=100))
    x = GRID16.cell_centers()
    dev = max(float(np.max(np.abs(st.grad_p.comp - x))) for st in states)
    report(1, "fixed point", res.halt_reason == "completed" and dev <= 1e-8,
           f"max |grad P - x| = {dev:.3e}")


def test_criterion_2_inertial_oscillation():
    a = np.array([0.1, 0.0, 0.05])
    t_final = 1.0

    def final_tilt(eps):
        s = init_state("tilt", GRID16, tilt=a)
        res = run(s, SchemeConfig(epsilon=eps, n_steps=int(round(t_final / eps)),
                                  record_every=1000))
        assert res.halt_reason == "completed"
        return mean_tilt(res.final_state)

    got = final_tilt(0.01)
    want_h = np.linalg.matrix_power(np.eye(2) + 0.01 * J2, 100) @ a[:2]
    err_h = float(np.max(np.abs(got[:2] - want_h)))
    err_3 = abs(got[2] - a[2])

    ang = t_final
    continuum = np.array([np.cos(ang), np.sin(ang)]) * a[0]
    dev1 = np.linalg.norm(got[:2] - continuum)
    dev2 = np.linalg.norm(final_tilt(0.005)[:2] - continuum)
    ratio = dev1 / dev2
    ok = err_h <= 1e-6 and err_3 <= 1e-8 and 1.7 <= ratio <= 2.3
    report(2, "inertial oscillation", ok,
           f"tilt err {err_h:.2e}, a3 drift {err_3:.2e}, eps-ratio {ratio:.2f}")


def _manufactured(n):
    spec = GridSpec(dims=(n, n, n))
    x = spec.cell_centers()
    X, Y, Z = x
    pi = np.pi
    g = np.exp(Z)
    u_star = np.stack(
        [pi * np.sin(pi * X) * np.cos(pi * Y) * g,
         -pi * np.cos(pi * X) * np.sin(pi * Y) * g,
         np.zeros_like(X)])
    grad_q = np.stack(
        [-pi * np.sin(pi * X) * np.cos(pi * Y) * np.cos(pi * Z),
         -pi * np.cos(pi * X) * np.sin(pi * Y) * np.cos(pi * Z),
         -pi * np.cos(pi * X) * np.cos(pi * Y) * np.sin(pi * Z)])
    a = np.zeros((3, 3) + spec.dims)
    a[0, 0] = 1.5 + 0.4 * np.sin(pi * Y)
    a[1, 1] = 1.2 + 0.3 * Z * Z
    a[2, 2] = 1.0 + 0.5 * X
    a[0, 1] = a[1, 0] = 0.25 * np.cos(pi * X) * np.cos(pi * Z)
    a[0, 2] = a[2, 0] = 0.2 * np.cos(pi * Y)
    a[1, 2] = a[2, 1] = 0.15 * np.cos(pi * Z)
    f = np.einsum("ab...,b...->a...", a, u_star) - grad_q
    d = DivCurlData(a=TensorField(spec, a), f=VectorField(spec, f))
    return spec, d, u_star


def test_criterion_3_manufactured_convergence():
    errs = []
    for n in (8, 16, 32):
        spec, d, u_star = _manufactured(n)
        sol = solve_darcy(reduce_to_darcy(d), tol=1e-10)
        errs.append(float(np.sqrt(np.sum((sol.u.comp - u_star) ** 2) * spec.cell_volume)))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 3.4 <= r1 <= 4.6 and 3.4 <= r2 <= 4.6
    report(3, "manufactured div-curl convergence", ok,
           f"L2 errors {errs[0]:.3e} / {errs[1]:.3e} / {errs[2]:.3e}, "
           f"ratios {r1:.2f}, {r2:.2f}")


def _dense_reference(problem):
    n = problem.spec.n_cells
    mat = dense_operator(problem)
    b = problem.rhs.values.reshape(-1)
    q = np.linalg.solve(mat + np.ones((n, n)) / n, b - b.mean())
    return q.reshape(problem.spec.dims)


def test_criterion_4_dense_oracle():
    worst = 0.0
    for dims in [(4, 4, 4), (5, 5, 5), (6, 6, 6), (4, 5, 6)]:
        spec = GridSpec(dims=dims)
        s = init_state("quadratic", spec, quad=(2.0, 1.0, 0.5))
        variants = [("base", transport_data(s))]
        c = linear_coriolis(spec, 0.05)
        variants.append(("coriolis", coriolis_transport_data(s, c)))
        for label, d in variants:
            p = reduce_to_darcy(d)
            sol = solve_darcy(p, tol=1e-13)
            q_ref = _dense_reference(p)
            u_ref = recover_velocity(d, ScalarField(spec, q_ref))
            rel_q = np.linalg.norm(sol.q.values - q_ref) / np.linalg.norm(q_ref)
            rel_u = np.linalg.norm(sol.u.comp - u_ref.comp) / np.linalg.norm(u_ref.comp)
            worst = max(worst, rel_q, rel_u)
    report(4, "dense-oracle equivalence", worst <= 1e-9, f"worst rel err {worst:.3e}")


def test_criterion_5_energy_drift():
    t_final = 0.5
    drifts = {}
    halts = {}
    e0 = None
    for eps in (0.005, 0.0025):
        s = init_state("quadratic", GRID16, quad=(2.0, 1.0, 0.5))
        n = int(round(t_final / eps))
        res = run(s, SchemeConfig(epsilon=eps, n_steps=n, record_every=n,
                                  convexity_floor=False))
        e0 = energy(s)
        drifts[eps] = abs(energy(res.final_state) - e0)
        halts[eps] = res.halt_reason
    completed = all(h == "completed" for h in halts.values())
    ratio = drifts[0.005] / drifts[0.0025]
    ok = completed and 1.6 <= ratio <= 2.4 and drifts[0.005] <= 0.05 * abs(e0)
    report(5, "energy drift scaling", ok,
           f"|E(0)| = {abs(e0):.3e}, drift(eps) = {drifts[0.005]:.3e}, "
           f"drift(eps/2) = {drifts[0.0025]:.3e}, ratio = {ratio:.2f}, "
           f"halts = {sorted(set(halts.values()))}")


def test_criterion_6_convexity_propagation(run_states):
    s = init_state("bump", GRID16, delta=0.005, k=1)
    constants = compute_constants(s, p=4.0, c_star=1.0, c_m=1.0)
    res, states, _ = run_states(s, SchemeConfig(n_steps=20, auto_horizon=True),
                                constants=constants)
    margins = [st.lambda_min - 0.5 * constants.lambda0 for st in states]
    ok = res.halt_reason == "completed" and min(margins) >= 0.0
    report(6, "convexity propagation", ok,
           f"tau* = {constants.tau_star:.4f}, min margin = {min(margins):.4f}")


def test_criterion_7_support_envelope(preset_runs):
    worst = np.inf
    ok = True
    for _, _, records in preset_runs.values():
        checks = support_bound_check(records, GRID16)
        ok = ok and all(c.passed for c in checks)
        worst = min(worst, min(c.margin for c in checks))
    report(7, "support envelope", ok, f"smallest margin {worst:.3e}")


def test_criterion_8_measure_normalisation(preset_runs):
    mass_err = 0.0
    for _, states, _ in preset_runs.values():
        for st in states:
            h = pushforward_histogram(st, bins=12)
            mass_err = max(mass_err, abs(h.total_mass - 1.0))
    ident = preset_runs["identity"][1][0]
    h = pushforward_histogram(ident, bins=12)
    lo, hi = h.support_box
    half = GRID16.spacing[0] / 2.0
    box_exact = (lo == (half,) * 3) and (hi == (1.0 - half,) * 3)
    ok = mass_err <= 1e-12 and box_exact
    report(8, "measure normalisation", ok,
           f"max |mass - 1| = {mass_err:.2e}, identity box exact = {box_exact}")


def test_criterion_9_coriolis_consistency(run_states):
    cfg = SchemeConfig(epsilon=0.01, n_steps=20, record_every=20)
    s = init_state("bump", GRID16, delta=0.005, k=1)
    _, base_states, _ = run_states(s, cfg)
    unit = constant_coriolis(GRID16, 1.0)
    _, cor_states, _ = run_states(s, cfg, model=partial(coriolis_transport_data, c=unit))
    gap = max(
        float(np.max(np.abs(b.p.values - o.p.values)))
        for b, o in zip(base_states, cor_states)
    )

    f0, eps, n = 0.8, 0.01, 100
    a = np.array([0.1, 0.0, 0.05])
    c8 = constant_coriolis(GRID16, f0)
    res = run(init_state("tilt", GRID16, tilt=a),
              SchemeConfig(epsilon=eps, n_steps=n, record_every=100),
              model=partial(coriolis_transport_data, c=c8))
    want = np.linalg.matrix_power(np.eye(2) + eps * f0 * J2, n) @ a[:2]
    got = mean_tilt(res.final_state)
    tilt_err = float(np.max(np.abs(got[:2] - want)))
    ok = gap <= 1e-10 and tilt_err <= 1e-6
    report(9, "coriolis consistency", ok,
           f"unit-f gap {gap:.2e}, scaled-rotation err {tilt_err:.2e}")


def test_criterion_10_conservativity(preset_runs, coriolis_run):
    worst = 0.0
    for states in [run[1] for run in preset_runs.values()] + [coriolis_run]:
        for st in states:
            worst = max(worst, curl_residual(st))
    report(10, "conservativity", worst <= 1e-12, f"max interior curl {worst:.3e}")
