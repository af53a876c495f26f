from types import SimpleNamespace

import numpy as np
import pytest

from semigeo.diagnostics import (
    DiagnosticsRecord,
    curl_residual,
    emit_record,
    energy,
    pushforward_histogram,
    support_bound_check,
)
from semigeo.grid import GridSpec, ScalarField, VectorField, curl
from semigeo.stepper import SchemeConfig, compute_constants, init_state, run

from conftest import row_major, row_major_bbox, row_major_energy


def make_spec(n):
    if isinstance(n, int):
        n = (n, n, n)
    return GridSpec(dims=n)


class TestEnergy:
    def test_identity_closed_form(self):
        # oracle: E = -int x3^2 over the unit cube = -1/3
        s = init_state("identity", make_spec(16))
        e = energy(s)
        assert abs(e - (-1.0 / 3.0)) < 0.01 * (1.0 / 3.0)

    def test_tilt_drift_closed_form(self, run_states):
        # oracle: the x-integral terms cancel in differences, so
        # E_j - E_0 = (|a_h(j)|^2 - |a_h(0)|^2)/2 with |a_h|^2 growing by
        # (1 + eps^2) per forward Euler step
        eps, n = 0.02, 25
        a = np.array([0.12, -0.05, 0.03])
        s = init_state("tilt", make_spec(8), tilt=a)
        _, states = run_states(s, SchemeConfig(epsilon=eps, n_steps=n))
        ah0 = a[0] ** 2 + a[1] ** 2
        e0 = energy(states[0])
        for j, st in enumerate(states):
            drift = energy(st) - e0
            want = 0.5 * ah0 * ((1.0 + eps**2) ** j - 1.0)
            assert abs(drift - want) < 1e-8

    def test_minimum_grid_is_finite(self):
        s = init_state("identity", make_spec(4))
        assert np.isfinite(energy(s))


class TestPushforwardHistogram:
    def test_identity_support_and_mass(self):
        spec = make_spec(8)
        s = init_state("identity", spec)
        h = pushforward_histogram(s, bins=8)
        assert abs(h.total_mass - 1.0) <= 1e-12
        lo, hi = h.support_box
        half = spec.spacing[0] / 2.0
        assert np.allclose(lo, [half] * 3, atol=1e-12)
        assert np.allclose(hi, [1.0 - half] * 3, atol=1e-12)

    def test_tilt_translates_support(self):
        spec = make_spec(8)
        a = np.array([0.3, -0.2, 0.1])
        s = init_state("tilt", spec, tilt=a)
        h = pushforward_histogram(s, bins=4)
        lo, hi = h.support_box
        half = spec.spacing[0] / 2.0
        assert np.allclose(lo, a + half, atol=1e-12)
        assert np.allclose(hi, a + 1.0 - half, atol=1e-12)

    def test_quadratic_scales_support(self):
        # oracle: grad P = Q x maps the center box axis by axis for diagonal Q
        spec = make_spec(8)
        q = np.array([2.0, 1.0, 0.5])
        s = init_state("quadratic", spec, quad=q)
        h = pushforward_histogram(s, bins=4)
        lo, hi = h.support_box
        half = spec.spacing[0] / 2.0
        assert np.allclose(lo, q * half, atol=1e-11)
        assert np.allclose(hi, q * (1.0 - half), atol=1e-11)

    def test_masses_nonnegative(self):
        s = init_state("bump", make_spec(8), delta=0.01, k=1)
        h = pushforward_histogram(s, bins=5)
        assert np.all(h.masses >= 0.0)
        assert abs(h.total_mass - 1.0) <= 1e-12


class TestSupportBound:
    def test_identity_passes(self):
        s = init_state("identity", make_spec(8))
        res = run(s, SchemeConfig(epsilon=0.01, n_steps=10))
        checks = support_bound_check(res.records, s.spec)
        assert all(c.passed for c in checks)
        assert checks[-1].margin > 0.0

    def test_tilt_growth_below_envelope(self):
        s = init_state("tilt", make_spec(8), tilt=(0.1, 0.0, 0.05))
        res = run(s, SchemeConfig(epsilon=0.01, n_steps=30))
        assert all(c.passed for c in support_bound_check(res.records, s.spec))

    def test_doctored_trajectory_fails(self):
        # negative control: scaling grad P by e^{2t} outruns the e^t envelope
        from dataclasses import replace

        spec = make_spec(8)
        base = init_state("identity", spec)
        constants = compute_constants(base)
        records = [emit_record(base, None, constants, step=0)]
        for j in range(1, 6):
            t = 0.5 * j
            scaled = init_state(ScalarField(spec, float(np.exp(2.0 * t)) * base.p.values))
            records.append(emit_record(replace(scaled, time=t), None, constants, step=j))
        checks = support_bound_check(records, spec)
        assert not checks[-1].passed


class TestCurlResidual:
    def test_identity(self):
        s = init_state("identity", make_spec(8))
        assert curl_residual(s) < 1e-12

    def test_bump(self):
        s = init_state("bump", make_spec(12), delta=0.01, k=2)
        assert curl_residual(s) < 1e-12

    def test_minimum_grid(self):
        s = init_state("identity", make_spec(4))
        assert curl_residual(s) == 0.0

    @pytest.mark.parametrize("dims", [(9, 7, 8), (5, 6, 7)])
    def test_block_equals_curl_restricted(self, dims):
        # a field with a nonzero curl, on an anisotropic grid; (5, 6, 7) has
        # a one-cell-thick block
        spec = GridSpec(dims=dims, extents=(1.0, 2.0, 0.5))
        v = VectorField(spec, np.random.default_rng(31).standard_normal((3,) + dims))
        c = row_major(curl(v))[2:-2, 2:-2, 2:-2]
        want = float(np.max(np.sqrt(np.sum(c**2, axis=-1))))
        assert want > 1.0
        assert curl_residual(SimpleNamespace(spec=spec, grad_p=v)) == want


class TestEmitRecord:
    def test_identity_record_values(self):
        s = init_state("identity", make_spec(16))
        c = compute_constants(s)
        r = emit_record(s, None, c, step=0)
        assert abs(r.energy - (-1.0 / 3.0)) < 0.01
        assert r.lambda_min == pytest.approx(1.0, abs=1e-9)
        assert r.u_max == 0.0
        assert r.est_ratio_u is None

    def test_determinism(self):
        s = init_state("tilt", make_spec(8), tilt=(0.1, 0.0, 0.0))
        c = compute_constants(s)
        assert emit_record(s, None, c, step=3) == emit_record(s, None, c, step=3)

    def test_bbox_matches_histogram_support(self):
        s = init_state("quadratic", make_spec(8), quad=(2.0, 1.0, 0.5))
        c = compute_constants(s)
        r = emit_record(s, None, c)
        h = pushforward_histogram(s, bins=6)
        lo, hi = h.support_box
        assert np.allclose(r.bbox_min, lo, atol=0)
        assert np.allclose(r.bbox_max, hi, atol=0)

    def test_all_fields_finite_on_presets(self):
        spec = make_spec(8)
        for name, kwargs in [("identity", {}), ("tilt", {"tilt": (0.1, 0, 0.05)}),
                             ("quadratic", {"quad": (2.0, 1.0, 0.5)}),
                             ("bump", {"delta": 0.005, "k": 1})]:
            s = init_state(name, spec, **kwargs)
            c = compute_constants(s)
            r = emit_record(s, None, c)  # constructor validates finiteness
            assert isinstance(r, DiagnosticsRecord)

    def test_energy_and_bbox_match_row_major(self):
        spec = GridSpec(dims=(6, 7, 5), origin=(0.5, -1.0, 0.25), extents=(1.0, 2.0, 0.5))
        rng = np.random.default_rng(32)
        t = VectorField(spec, rng.standard_normal((3,) + spec.dims)
                        * np.exp(rng.uniform(-10.0, 10.0, (3,) + spec.dims)))
        x = VectorField(spec, spec.cell_centers())
        assert energy(SimpleNamespace(spec=spec, grad_p=t)) == \
            row_major_energy(row_major(x), row_major(t), spec.cell_volume)
        s = init_state("bump", spec, delta=0.01, k=1)
        r = emit_record(s, None, compute_constants(s))
        assert (r.bbox_min, r.bbox_max) == row_major_bbox(row_major(s.grad_p))

    def test_solution_fields_forwarded(self):
        from semigeo.stepper import step, transport_data
        from semigeo.divcurl import verify_estimate

        s = init_state("quadratic", make_spec(8), quad=(2.0, 1.0, 0.5))
        c = compute_constants(s)
        new, sol, _ = step(s, 0.01)
        ratios = verify_estimate(sol.u, transport_data(s), c.p)
        r = emit_record(new, sol, c, step=1, ratios=ratios)
        assert r.solver_iterations == sol.iterations
        assert r.u_max > 0.0
        assert r.est_ratio_u is not None and r.est_ratio_u > 0.0

    def test_lambda_matches_independent_scan(self):
        s = init_state("bump", make_spec(8), delta=0.01, k=1)
        c = compute_constants(s)
        r = emit_record(s, None, c)
        ref = float(np.min(np.linalg.eigvalsh(row_major(s.hess))[..., 0]))
        assert r.lambda_min == pytest.approx(ref, abs=1e-11)
