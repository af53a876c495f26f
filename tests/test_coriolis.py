from functools import partial

import numpy as np
import pytest

from semigeo.coriolis import (
    PerturbationError,
    assemble_coriolis_coefficient,
    constant_coriolis,
    coriolis_transport_data,
    linear_coriolis,
    make_coriolis_field,
    step_coriolis,
)
from semigeo.divcurl import apply_operator, reduce_to_darcy
from semigeo.grid import GridSpec, ScalarField, eigmin_symmetric
from semigeo.stepper import SchemeConfig, init_state, run, step

from conftest import (
    coriolis_perturbation_norm,
    full_scan_coriolis_coefficient,
    kf_inverse,
    mean_tilt,
    per_cell,
)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def make_spec(n):
    if isinstance(n, int):
        n = (n, n, n)
    return GridSpec(dims=n)


def same_as_full_scan(s, c):
    """Assert that assemble_coriolis_coefficient returns the full scan's
    coefficient, or raises its error (same message and cell); return that
    error, or None."""
    try:
        want = full_scan_coriolis_coefficient(s, c)
    except PerturbationError as err:
        with pytest.raises(PerturbationError) as got:
            assemble_coriolis_coefficient(s, c)
        assert str(got.value) == str(err)
        assert got.value.cell == err.cell
        return err
    assert np.array_equal(assemble_coriolis_coefficient(s, c).comp, want.comp)
    return None


class TestCoriolisField:
    def test_rejects_nonpositive(self):
        spec = make_spec(6)
        with pytest.raises(ValueError):
            make_coriolis_field(ScalarField(spec, np.zeros(spec.dims)))

    def test_linear_profile(self):
        spec = make_spec(8)
        c = linear_coriolis(spec, 0.1)
        x3 = spec.cell_centers()[2]
        assert np.allclose(c.f.values, 1.0 + 0.1 * x3)
        assert np.allclose(c.grad_f.comp[2], 0.1, atol=1e-13)
        assert np.max(np.abs(c.grad_f.comp[:2])) < 1e-13


class TestKfInverse:
    def test_unit_field(self):
        spec = make_spec(6)
        t = kf_inverse(constant_coriolis(spec, 1.0))
        assert np.max(np.abs(t.comp - per_cell(np.eye(3), spec))) == 0.0

    def test_constant_two(self):
        spec = make_spec(6)
        t = kf_inverse(constant_coriolis(spec, 2.0))
        assert np.max(np.abs(t.comp - per_cell(np.diag([2.0, 2.0, 1.0]), spec))) == 0.0

    def test_pointwise_profile(self):
        spec = make_spec(8)
        c = linear_coriolis(spec, 0.1)
        t = kf_inverse(c)
        f = c.f.values
        assert np.max(np.abs(t.comp[0, 0] - f)) < 1e-15
        assert np.max(np.abs(t.comp[1, 1] - f)) < 1e-15
        assert np.max(np.abs(t.comp[2, 2] - 1.0)) < 1e-15


class TestAssembleCoefficient:
    def test_constant_f_gives_plain_hessian(self):
        spec = make_spec(8)
        s = init_state("identity", spec)
        a = assemble_coriolis_coefficient(s, constant_coriolis(spec, 0.8))
        assert a.symmetric
        assert np.array_equal(a.comp, s.hess.comp)

    def test_identity_preset_closed_form(self):
        # oracle: with P = |x|^2/2 and f = 1 + d x3 the correction is
        # -diag(f,f,1) (x (x) (0,0,d)) / f^2, written out per cell
        spec = make_spec(8)
        delta = 0.05
        s = init_state("identity", spec)
        c = linear_coriolis(spec, delta)
        a = assemble_coriolis_coefficient(s, c)
        x = spec.cell_centers()
        f = c.f.values
        want = per_cell(np.eye(3), spec)
        for i in range(3):
            scale = np.where(np.array([True, True, False])[i], f, 1.0)
            want[i, 2] -= scale * x[i] * delta / f**2
        assert np.max(np.abs(a.comp - want)) < 1e-13
        assert not a.symmetric

    def test_linear_in_delta(self):
        # two-point extrapolation: the correction shrinks linearly with delta
        spec = make_spec(8)
        s = init_state("identity", spec)
        d1 = np.max(np.abs(
            assemble_coriolis_coefficient(s, linear_coriolis(spec, 0.08)).comp
            - s.hess.comp))
        d2 = np.max(np.abs(
            assemble_coriolis_coefficient(s, linear_coriolis(spec, 0.04)).comp
            - s.hess.comp))
        assert d1 / d2 == pytest.approx(2.0, rel=0.1)

    def test_dominance_enforced(self):
        # a steep rotation gradient must be rejected with the worst cell
        spec = make_spec(8)
        s = init_state("identity", spec)
        x3 = spec.cell_centers()[2]
        c = make_coriolis_field(ScalarField(spec, 0.2 + 2.0 * x3))
        with pytest.raises(PerturbationError) as err:
            assemble_coriolis_coefficient(s, c)
        assert err.value.cell is not None
        assert same_as_full_scan(s, c) is not None


class TestDominanceCandidates:
    """assemble_coriolis_coefficient scans the eigenvalues only when some
    cell's perturbation reaches half the state's lambda_min; the unguarded
    scan of every cell is the reference."""

    @pytest.mark.parametrize("slope, fails", [(0.18, False), (0.19, True)])
    def test_candidates_near_the_threshold(self, slope, fails):
        # the bump's modulus varies, so a cell can reach half the smallest
        # one and stay under half its own (0.18), or just pass it (0.19)
        spec = make_spec(8)
        s = init_state("bump", spec, delta=0.05, k=1)
        c = linear_coriolis(spec, slope)
        norm = coriolis_perturbation_norm(s, c)
        assert np.any(norm >= 0.5 * s.lambda_min)
        assert np.max(norm) < 0.6 * s.lambda_min
        assert (same_as_full_scan(s, c) is not None) == fails

    def test_tied_worst_cells_report_the_first(self):
        # centred on the origin, |x1| and |x2| repeat exactly across the grid:
        # four cells share the worst excess, and C order picks (0, 0, 0)
        spec = GridSpec(dims=(8, 8, 8), origin=(-0.5, -0.5, -0.5))
        s = init_state("identity", spec)
        c = make_coriolis_field(ScalarField(spec, 1.2 + 2.0 * spec.cell_centers()[2]))
        excess = coriolis_perturbation_norm(s, c) - 0.5 * eigmin_symmetric(s.hess.comp)
        assert np.count_nonzero(excess == np.max(excess)) >= 2
        assert same_as_full_scan(s, c).cell == (0, 0, 0)


class TestStepCoriolis:
    def test_unit_f_matches_base_step_exactly(self):
        spec = make_spec(8)
        s = init_state("bump", spec, delta=0.005, k=1)
        base_new, base_sol, _ = step(s, 0.01, tol=1e-11)
        cor_new, cor_sol, _ = step_coriolis(s, constant_coriolis(spec, 1.0), 0.01, tol=1e-11)
        assert np.max(np.abs(cor_new.p.values - base_new.p.values)) < 1e-12
        assert np.max(np.abs(cor_sol.u.comp - base_sol.u.comp)) < 1e-12

    def test_constant_f_scales_tilt_rotation(self):
        # oracle: constant-coefficient ODE a' = f0 J a, forward Euler
        spec = make_spec(8)
        f0, eps, n = 0.8, 0.01, 30
        a = np.array([0.1, 0.0, 0.05])
        s = init_state("tilt", spec, tilt=a)
        c = constant_coriolis(spec, f0)
        state = s
        for _ in range(n):
            state, sol, _ = step_coriolis(state, c, eps, tol=1e-12)
        want = np.linalg.matrix_power(np.eye(2) + eps * f0 * J2, n) @ a[:2]
        got = mean_tilt(state)
        assert np.max(np.abs(got[:2] - want)) < 1e-6
        assert abs(got[2] - a[2]) < 1e-8

    def test_matches_dense_oracle_on_small_grid(self):
        # oracle: dense factorisation of the same non-symmetric system
        spec = make_spec(5)
        s = init_state("quadratic", spec, quad=(2.0, 1.0, 0.5))
        c = linear_coriolis(spec, 0.05)
        new, sol, _ = step_coriolis(s, c, 0.01, tol=1e-13)
        p = reduce_to_darcy(coriolis_transport_data(s, c))
        assert not p.m.symmetric
        n = spec.n_cells
        mat = np.empty((n, n))
        basis = np.zeros(spec.dims)
        flat = basis.reshape(-1)
        for j in range(n):
            flat[j] = 1.0
            mat[:, j] = apply_operator(p, basis).reshape(-1)
            flat[j] = 0.0
        b = p.rhs.values.reshape(-1)
        q_ref = np.linalg.solve(mat + np.ones((n, n)) / n, b - b.mean())
        rel = np.linalg.norm(sol.q.values.reshape(-1) - q_ref) / np.linalg.norm(q_ref)
        assert rel < 1e-8

    def test_potential_update_identity(self):
        spec = make_spec(8)
        s = init_state("bump", spec, delta=0.005, k=1)
        c = linear_coriolis(spec, 0.05)
        eps = 0.01
        new, sol, _ = step_coriolis(s, c, eps)
        diff = new.p.values - s.p.values + eps * sol.q.values
        assert np.max(diff) - np.min(diff) < 1e-12


class TestCoriolisRun:
    def test_unit_f_trajectory_matches_base(self, run_states):
        spec = make_spec(8)
        cfg = SchemeConfig(epsilon=0.01, n_steps=15)
        s = init_state("bump", spec, delta=0.005, k=1)
        _, base_states, _ = run_states(s, cfg)
        c = constant_coriolis(spec, 1.0)
        _, cor_states, _ = run_states(s, cfg, model=partial(coriolis_transport_data, c=c))
        assert len(base_states) == len(cor_states)
        for b, o in zip(base_states, cor_states):
            assert np.max(np.abs(b.p.values - o.p.values)) < 1e-10

    def test_delta_continuity(self):
        # trajectories converge to the base one linearly as delta -> 0
        spec = make_spec(8)
        cfg = SchemeConfig(epsilon=0.01, n_steps=10)
        s = init_state("bump", spec, delta=0.005, k=1)
        base = run(s, cfg)
        gaps = []
        for delta in (0.08, 0.04):
            c = linear_coriolis(spec, delta)
            r = run(s, cfg, model=partial(coriolis_transport_data, c=c))
            gaps.append(np.max(np.abs(r.final_state.p.values - base.final_state.p.values)))
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.15)

    def test_symmetric_part_stays_definite(self):
        spec = make_spec(8)
        s = init_state("bump", spec, delta=0.005, k=1)
        c = linear_coriolis(spec, 0.05)
        state = s
        for _ in range(10):
            a = assemble_coriolis_coefficient(state, c)  # raises if indefinite
            state, _, _ = step_coriolis(state, c, 0.01)
