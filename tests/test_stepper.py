import gc
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import semigeo.coriolis
import semigeo.diagnostics
import semigeo.divcurl
import semigeo.grid
import semigeo.stepper
from semigeo.coriolis import coriolis_transport_data, linear_coriolis
from semigeo.diagnostics import emit_record, growth_bound_check
from semigeo.divcurl import apply_operator, reduce_to_darcy
from semigeo.grid import (
    GridSpec,
    ScalarField,
    curl,
    gradient,
    hessian,
    lp_norm,
    sobolev_norm,
)
from semigeo.stepper import (
    ConvexityError,
    SchemeConfig,
    apply_rotation,
    compute_constants,
    init_state,
    preset_potential,
    run,
    step,
    transport_data,
)

from conftest import cell_centers_preset, mean_tilt, row_major

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def make_spec(n):
    if isinstance(n, int):
        n = (n, n, n)
    return GridSpec(dims=n)


class TestInitState:
    def test_identity_modulus(self):
        s = init_state("identity", make_spec(8))
        assert s.lambda_min == pytest.approx(1.0, abs=1e-11)
        assert abs(np.mean(s.p.values)) < 1e-14

    def test_quadratic_modulus(self):
        s = init_state("quadratic", make_spec(8), quad=(2.0, 1.0, 0.5))
        assert s.lambda_min == pytest.approx(0.5, abs=1e-10)

    def test_bump_modulus_window(self):
        # oracle: independent per-cell eigenvalue scan of the Hessian
        delta, k = 0.01, 1
        s = init_state("bump", make_spec(16), delta=delta, k=k)
        assert 1.0 - delta * 3.0 * (k * np.pi) ** 2 <= s.lambda_min <= 1.0
        lam_ref = float(np.min(np.linalg.eigvalsh(row_major(s.hess))[..., 0]))
        assert s.lambda_min == pytest.approx(lam_ref, abs=1e-11)

    def test_rejects_nonconvex(self):
        spec = make_spec(6)
        x = spec.cell_centers()
        with pytest.raises(ConvexityError) as err:
            init_state(ScalarField(spec, -0.5 * np.sum(x**2, axis=0)))
        assert err.value.value == pytest.approx(-1.0, abs=1e-10)

    def test_presets_match_row_major_coordinates(self):
        # |x|^2/2, a.x and x^T Q x/2 as np.sum and np.einsum take them on a
        # row-major (nx, ny, nz, 3) coordinate array
        spec = GridSpec(dims=(6, 7, 5), origin=(0.3, -1.1, 0.7), extents=(1.3, 2.0, 0.9))
        x = np.ascontiguousarray(np.moveaxis(spec.cell_centers(), 0, -1))
        base = 0.5 * np.sum(x**2, axis=-1)
        a = np.array([0.13, -0.071, 0.29])
        q = np.array([[2.0, 0.3, -0.1], [0.3, 1.0, 0.2], [-0.1, 0.2, 0.5]])
        assert np.array_equal(preset_potential("identity", spec), base)
        assert np.array_equal(preset_potential("tilt", spec, tilt=a),
                              base + np.einsum("...a,a->...", x, a))
        assert np.array_equal(preset_potential("quadratic", spec, quad=q),
                              0.5 * np.einsum("...a,ab,...b->...", x, q, x))

    @pytest.mark.parametrize("name, params", [
        ("identity", {}),
        ("tilt", {"tilt": (0.13, -0.071, 0.29)}),
        ("bump", {"delta": 0.013, "k": 1}),
        ("bump", {"delta": 0.002, "k": 3}),
        ("bump", {"delta": 7.0, "k": 2}),  # the wave's last bits show in the sum
    ])
    def test_separable_presets_match_cell_centers(self, name, params):
        # built from each axis's coordinates, bit for bit the formulas on the
        # whole-grid cell_centers()
        spec = GridSpec(dims=(6, 7, 5), origin=(0.3, -1.1, 0.7), extents=(1.3, 2.0, 0.9))
        assert np.array_equal(preset_potential(name, spec, **params),
                              cell_centers_preset(name, spec, **params))

    def test_apply_rotation_is_component_major(self):
        v = np.random.default_rng(5).standard_normal((3, 4, 5, 6))
        out = apply_rotation(v)
        assert out.shape == v.shape
        assert np.array_equal(out[0], -v[1]) and np.array_equal(out[1], v[0])
        assert not np.any(out[2])

    def test_tilt_preserves_modulus(self):
        s = init_state("tilt", make_spec(8), tilt=(0.1, 0.0, 0.05))
        assert s.lambda_min == pytest.approx(1.0, abs=1e-11)
        assert np.allclose(mean_tilt(s), [0.1, 0.0, 0.05], atol=1e-12)


class TestComputeConstants:
    def test_identity_arithmetic(self):
        # oracle: substitute the measured omega and norms back into the formulas
        s = init_state("identity", make_spec(8))
        c = compute_constants(s, p=4.0, c_star=1.0, c_m=1.0)
        assert c.kappa == pytest.approx((c.omega + 2.0) / 3.0, rel=1e-13)
        grad_norm = sobolev_norm(lp_norm(s.grad_p, 4.0), lp_norm(s.hess, 4.0), s.hess, 4.0)
        assert c.norm_w3p0 == grad_norm
        want = np.log1p(c.lambda0 / (6.0 * (c.kappa + grad_norm))) / 3.0
        assert c.tau_star == pytest.approx(want, rel=1e-13)

    def test_m_star_holder_quotient_over_all_nine_components(self):
        # oracle: the quotient from all nine differenced Hessian entries
        spec = make_spec((7, 8, 6))
        x = spec.cell_centers()
        noise = 1e-4 * np.random.default_rng(23).standard_normal(spec.dims)
        s = init_state(ScalarField(spec, 0.5 * np.sum(x**2, axis=0) + noise))
        c = compute_constants(s, p=4.0)
        alpha = 1.0 - 3.0 / 4.0
        quotient = 0.0
        for a in range(3):
            d = np.ascontiguousarray(np.moveaxis(np.diff(s.hess.comp, axis=2 + a), (0, 1), (-2, -1)))
            dn = np.sqrt(np.sum(d.reshape(d.shape[:3] + (9,)) ** 2, axis=-1))
            quotient = max(quotient, float(np.max(dn)) / spec.spacing[a] ** alpha)
        assert c.m_star == lp_norm(s.hess, np.inf) + quotient + s.lambda_min / 6.0

    def test_tau_monotone_in_lambda0(self):
        spec = make_spec(8)
        taus = []
        for lam in (0.25, 0.5, 1.0):
            s = init_state("quadratic", spec, quad=(1.0, 1.0, lam))
            taus.append(compute_constants(s).tau_star)
        assert taus[0] < taus[1] < taus[2]

    def test_tau_decreases_with_cstar(self):
        s = init_state("identity", make_spec(8))
        t1 = compute_constants(s, c_star=1.0).tau_star
        t2 = compute_constants(s, c_star=2.0).tau_star
        assert t2 < t1

    def test_rejects_small_p(self):
        s = init_state("identity", make_spec(8))
        with pytest.raises(ValueError):
            compute_constants(s, p=3.0)

    @pytest.mark.parametrize("c_star, c_m, named", [
        (1e308, 1.0, "kappa nan, tau_star nan"),  # c_star |domain|^{1/p} overflows
        (1.0, 1e-320, "tau_star inf"),  # lambda0 / (6 c_m ...) overflows
    ])
    def test_rejects_non_finite_constants(self, c_star, c_m, named):
        s = init_state("identity", make_spec(6))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(ValueError, match=f"scheme constants {named} are not finite"):
                compute_constants(s, c_star=c_star, c_m=c_m)

    @pytest.mark.parametrize("p", [4.0, np.inf])
    def test_omega_matches_stencil_norm_of_horizontal_quadratic(self, p):
        # oracle: the stencil W^{3,p} pass over (x1^2 + x2^2)/2, whose gradient
        # is the rotation field up to a quarter turn
        spec = GridSpec(dims=(6, 7, 9), origin=(-0.3, 0.2, 1.0), extents=(1.0, 2.0, 0.5))
        x = spec.cell_centers()
        horizontal = ScalarField(spec, 0.5 * (x[0] ** 2 + x[1] ** 2))
        grad, hess = gradient(horizontal), hessian(horizontal)
        want = sobolev_norm(lp_norm(grad, p), lp_norm(hess, p), hess, p)
        omega = compute_constants(init_state("identity", spec), p=p).omega
        assert omega == pytest.approx(want, rel=1e-10)


class TestStep:
    def test_identity_fixed_point(self):
        spec = make_spec(8)
        s = init_state("identity", spec)
        new, sol, _ = step(s, 0.01, tol=1e-10)
        x = spec.cell_centers()
        assert np.max(np.abs(new.grad_p.comp - x)) < 1e-9
        assert sol.iterations <= 1

    def test_tilt_single_step_rotation(self):
        # oracle: with grad P = x + a the step maps a -> (I + eps J) a exactly
        eps = 0.01
        a = np.array([0.1, 0.0, 0.05])
        s = init_state("tilt", make_spec(8), tilt=a)
        new, sol, _ = step(s, eps, tol=1e-12)
        want_h = (np.eye(2) + eps * J2) @ a[:2]
        got = mean_tilt(new)
        assert np.max(np.abs(got[:2] - want_h)) < 1e-11
        assert abs(got[2] - a[2]) < 1e-12
        assert np.max(np.abs(sol.u.comp)) < 1e-10

    def test_quadratic_step_matches_dense_oracle(self):
        # oracle: dense factorisation of the same assembled system
        spec = make_spec(5)
        s = init_state("quadratic", spec, quad=(2.0, 1.0, 0.5))
        new, sol, _ = step(s, 0.01, tol=1e-13)
        p = reduce_to_darcy(transport_data(s))
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
        assert rel < 1e-9

    def test_refuses_nonconvex_state(self):
        spec = make_spec(6)
        s = init_state("identity", spec)
        bad = ScalarField(spec, -s.p.values)
        with pytest.raises(ConvexityError):
            init_state(bad)

    def test_potential_update_identity(self):
        # P_{j+1} - P_j + eps q_j must be a constant field (the mean shift)
        eps = 0.02
        s = init_state("quadratic", make_spec(8), quad=(2.0, 1.0, 0.5))
        new, sol, _ = step(s, eps)
        diff = new.p.values - s.p.values + eps * sol.q.values
        assert np.max(diff) - np.min(diff) < 1e-12


class TestCertifiedOnce:
    """Each model's coefficient is certified where it is born: the base model
    by the state's own eigenvalue scan, the Coriolis model by its dominance
    test, which scans only when some cell's perturbation reaches half the
    state's smallest eigenvalue (none does on this field); the solve adds none."""

    @pytest.mark.parametrize("coriolis, scans", [(False, 1), (True, 1)])
    def test_eigenvalue_scans_per_step(self, monkeypatch, coriolis, scans):
        spec = make_spec(8)
        s = init_state("bump", spec, delta=0.01)
        model = (partial(coriolis_transport_data, c=linear_coriolis(spec, 0.05))
                 if coriolis else transport_data)
        calls = []
        scan = semigeo.grid.eigmin_symmetric

        def counted(values):
            calls.append(values.shape)
            return scan(values)

        for module in (semigeo.grid, semigeo.divcurl, semigeo.coriolis):
            if hasattr(module, "eigmin_symmetric"):
                monkeypatch.setattr(module, "eigmin_symmetric", counted)
        step(s, 0.001, model)
        assert len(calls) == scans


class TestSolveIterations:
    """The preconditioned solve takes a number of Krylov iterations that does
    not grow with the grid (unpreconditioned, it grows like the cells per axis)."""

    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_bump_cg_iterations_flat_in_grid(self, n):
        s = init_state("bump", make_spec(n), delta=0.01)
        _, sol, _ = step(s, 0.001)
        assert 1 <= sol.iterations <= 12

    def test_coriolis_bicgstab_iterations(self):
        spec = make_spec(16)
        s = init_state("bump", spec, delta=0.01)
        model = partial(coriolis_transport_data, c=linear_coriolis(spec, 0.05))
        _, sol, data = step(s, 0.001, model)
        assert not data.a.symmetric
        assert 1 <= sol.iterations <= 12

    @pytest.mark.parametrize("preset, params, spec", [
        ("quadratic", {"quad": (4.0, 1.0, 0.25)}, GridSpec((20, 20, 20))),
        ("quadratic", {"quad": (4.0, 1.0, 0.25)}, GridSpec((12, 16, 20), extents=(1.0, 2.0, 0.5))),
        # h = 1/20 is not a power of two: rounding-level rhs
        ("identity", {}, GridSpec((20, 20, 20))),
    ])
    def test_constant_coefficient_in_two_iterations(self, preset, params, spec):
        # the preconditioner inverts a constant-coefficient operator exactly
        s = init_state(preset, spec, **params)
        _, sol, _ = step(s, 0.001)
        assert 1 <= sol.iterations <= 2


class TestRun:
    def test_identity_trajectory_constant(self, run_states):
        s = init_state("identity", make_spec(8))
        res, states = run_states(s, SchemeConfig(epsilon=0.01, n_steps=20))
        assert res.halt_reason == "completed"
        assert len(states) == 21
        for st in states:
            assert st.lambda_min == pytest.approx(1.0, abs=1e-9)

    def test_tilt_matrix_power(self):
        # oracle: N-fold application of (I + eps J) to the horizontal tilt
        eps, n = 0.01, 40
        a = np.array([0.1, 0.0, 0.05])
        s = init_state("tilt", make_spec(8), tilt=a)
        res = run(s, SchemeConfig(epsilon=eps, n_steps=n))
        want = np.linalg.matrix_power(np.eye(2) + eps * J2, n) @ a[:2]
        got = mean_tilt(res.final_state)
        assert np.max(np.abs(got[:2] - want)) < 1e-6
        assert abs(got[2] - a[2]) < 1e-8

    def test_conservativity_every_step(self, run_states):
        s = init_state("bump", make_spec(8), delta=0.005, k=1)
        _, states = run_states(s, SchemeConfig(epsilon=0.005, n_steps=10))
        for st in states:
            c = curl(gradient(st.p)).comp[:, 2:-2, 2:-2, 2:-2]
            assert np.max(np.abs(c)) < 1e-12

    def test_epsilon_refinement_halves_tilt_deviation(self):
        # deviation from the continuum rotation exp(t J) scales like eps
        a = np.array([0.1, 0.0, 0.0])
        t_final = 0.4
        devs = []
        for eps in (0.02, 0.01):
            s = init_state("tilt", make_spec(6), tilt=a)
            res = run(s, SchemeConfig(epsilon=eps, n_steps=int(round(t_final / eps))))
            got = mean_tilt(res.final_state)[:2]
            ang = t_final
            exact = np.array([np.cos(ang), np.sin(ang)]) * a[0]
            devs.append(np.linalg.norm(got - exact))
        assert 1.7 <= devs[0] / devs[1] <= 2.3

    def test_auto_horizon_runs_to_tau_star(self, run_states):
        s = init_state("bump", make_spec(8), delta=0.005, k=1)
        c = compute_constants(s)
        res, states = run_states(s, SchemeConfig(n_steps=10, auto_horizon=True), constants=c)
        assert res.final_state.time == pytest.approx(c.tau_star, rel=1e-9)
        assert all(st.lambda_min >= 0.5 * c.lambda0 for st in states)

    def test_model_assembled_once_per_step(self):
        s = init_state("bump", make_spec(6), delta=0.005, k=1)
        calls = []

        def model(st):
            calls.append(st.time)
            return transport_data(st)

        seen = []
        res = run(s, SchemeConfig(epsilon=0.01, n_steps=5), model=model,
                  observe=lambda j, st, sol: seen.append((j, st.time, sol is None)))
        assert res.steps_completed == 5 and len(calls) == 5
        assert [j for j, _, _ in seen] == [0, 1, 2, 3, 4, 5]
        assert [t for _, t, _ in seen[:-1]] == calls
        assert [none for _, _, none in seen] == [False] * 5 + [True]
        assert all(r.est_ratio_u is not None for r in res.records[1:])

    def test_w3p_norm_once_per_recorded_state(self, monkeypatch):
        # compute_constants takes s0's norm and the step-0 record reuses it:
        # one call for s0, one for the recorded state after step 1
        s = init_state("bump", make_spec(6), delta=0.005, k=1)
        calls = []
        norm = semigeo.grid.sobolev_norm

        def counted(*args):
            calls.append(args[-1])
            return norm(*args)

        for module in (semigeo.grid, semigeo.stepper, semigeo.diagnostics):
            monkeypatch.setattr(module, "sobolev_norm", counted)
        res = run(s, SchemeConfig(epsilon=0.01, n_steps=1))
        assert len(calls) == 2
        assert res.records[0].norm_w3p == res.constants.norm_w3p0
        monkeypatch.undo()
        assert res.records[0].norm_w3p == emit_record(s, None, res.constants).norm_w3p

    def test_ratios_only_on_recorded_steps(self, monkeypatch):
        s = init_state("bump", make_spec(6), delta=0.005, k=1)
        every = run(s, SchemeConfig(epsilon=0.01, n_steps=7))
        calls = []
        verify = semigeo.stepper.verify_estimate

        def counted(u, data, p):
            calls.append(p)
            return verify(u, data, p)

        monkeypatch.setattr(semigeo.stepper, "verify_estimate", counted)
        sparse = run(s, SchemeConfig(epsilon=0.01, n_steps=7, record_every=3))
        assert [r.step for r in sparse.records] == [0, 3, 6, 7]
        assert len(calls) == 3
        for r in sparse.records[1:]:
            ref = every.records[r.step]
            assert r.est_ratio_u is not None
            assert (r.est_ratio_u, r.est_ratio_au) == (ref.est_ratio_u, ref.est_ratio_au)

    def test_memory_bounded_in_steps(self):
        # the observer keeps weak references only; run() must hold no more
        # than the final state once it returns
        s = init_state("bump", make_spec(8), delta=0.005, k=1)
        refs = []
        res = run(s, SchemeConfig(epsilon=0.01, n_steps=20),
                  observe=lambda j, st, sol: refs.append(weakref.ref(st)))
        del s
        gc.collect()
        assert res.steps_completed == 20 and len(refs) == 21
        assert all(r() is None for r in refs[:-1])
        assert refs[-1]() is res.final_state

    def test_solver_failure_is_a_recorded_halt(self):
        s = init_state("bump", make_spec(8), delta=0.01)
        res = run(s, SchemeConfig(epsilon=0.001, n_steps=3, maxiter=2))
        assert res.halt_reason.startswith("solver failed at step 1: ")
        assert "did not converge in 2 iterations" in res.halt_reason
        assert res.steps_completed == 0 and res.final_state is s
        assert [r.step for r in res.records] == [0]

    def test_records_cadence(self):
        s = init_state("identity", make_spec(8))
        res = run(s, SchemeConfig(epsilon=0.01, n_steps=10, record_every=3))
        assert [r.step for r in res.records] == [0, 3, 6, 9, 10]
        times = [r.time for r in res.records]
        assert times == sorted(times)


class TestGrowthBound:
    def test_identity_passes(self):
        s = init_state("identity", make_spec(8))
        res = run(s, SchemeConfig(epsilon=0.01, n_steps=10))
        checks = growth_bound_check(res.records, res.constants, res.epsilon)
        assert all(c.passed for c in checks)

    def test_tilt_passes(self):
        s = init_state("tilt", make_spec(8), tilt=(0.1, 0.0, 0.05))
        res = run(s, SchemeConfig(epsilon=0.01, n_steps=20))
        checks = growth_bound_check(res.records, res.constants, res.epsilon)
        assert all(c.passed for c in checks)

    def test_doctored_norms_fail(self, run_states):
        # negative control: doubling the potential mid-trajectory breaks the bound
        s = init_state("identity", make_spec(8))
        res, states = run_states(s, SchemeConfig(epsilon=0.01, n_steps=6))
        doctored = init_state(ScalarField(states[3].spec, 2.0 * states[3].p.values))
        records = list(res.records)
        records[3] = emit_record(doctored, None, res.constants, step=3)
        checks = growth_bound_check(records, res.constants, res.epsilon)
        assert not checks[3].passed
        assert all(c.passed for c in checks[:3])


class TestSchemeConfig:
    def test_requires_schedule(self):
        with pytest.raises(ValueError):
            SchemeConfig()

    def test_requires_horizon_with_single_parameter(self):
        with pytest.raises(ValueError):
            SchemeConfig(epsilon=0.01)

    def test_explicit_and_auto_horizon_conflict(self):
        with pytest.raises(ValueError):
            SchemeConfig(epsilon=0.01, horizon=1.0, auto_horizon=True)

    @pytest.mark.parametrize("horizon", [{"horizon": 1.0}, {"auto_horizon": True}])
    def test_overdetermined_schedule_rejected(self, horizon):
        # epsilon and n_steps fix the schedule; a horizon as well would be ignored
        with pytest.raises(ValueError, match="over-determined schedule"):
            SchemeConfig(epsilon=0.01, n_steps=3, **horizon)

    def test_derives_steps_from_horizon(self):
        s = init_state("identity", make_spec(8))
        res = run(s, SchemeConfig(epsilon=0.01, horizon=0.05))
        assert res.n_steps == 5

    def test_infinite_step_count_rejected(self):
        # horizon / epsilon overflows; math.ceil of it would raise OverflowError
        s = init_state("identity", make_spec(6))
        config = SchemeConfig(epsilon=1e-300, horizon=1e300)
        with pytest.raises(ValueError, match=r"step count .* is not finite"):
            config.schedule(compute_constants(s))
        with pytest.raises(ValueError, match=r"step count .* is not finite"):
            run(s, config)

    @pytest.mark.parametrize("tau_star", [0.0, -1.0, np.inf, np.nan])
    def test_degenerate_auto_horizon_rejected(self, tau_star):
        # a derived horizon is held to the rule of a given one, and finite too
        s = init_state("identity", make_spec(6))
        c = replace(compute_constants(s), tau_star=tau_star)
        config = SchemeConfig(n_steps=2, auto_horizon=True)
        with pytest.raises(ValueError, match="tau_star must be positive and finite"):
            config.schedule(c)
        with pytest.raises(ValueError, match="tau_star must be positive and finite"):
            run(s, config, constants=c)
