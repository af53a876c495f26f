import numpy as np
import pytest

from semigeo.divcurl import (
    DivCurlData,
    _matvec,
    EllipticityError,
    SingularTensorError,
    SolverConvergenceError,
    apply_operator,
    invert_3x3,
    reduce_to_darcy,
    solve_darcy,
    solve_divcurl,
    verify_estimate,
)
from semigeo.grid import (
    GridSpec,
    ScalarField,
    TensorField,
    VectorField,
    gradient,
)
from semigeo.stepper import init_state, transport_data

from conftest import (
    dense_operator,
    divergence,
    per_cell,
    recover_velocity,
    row_major,
    row_major_apply_operator,
    row_major_invert_3x3,
    row_major_matvec,
)


def make_spec(n):
    if isinstance(n, int):
        n = (n, n, n)
    return GridSpec(dims=n)


def const_tensor(spec, mat):
    return TensorField(spec, per_cell(mat, spec))


def const_vector(spec, vec):
    return VectorField(spec, per_cell(vec, spec))


def random_spd_tensor(spec, rng, base=2.0, amp=0.3):
    raw = rng.standard_normal((3, 3) + spec.dims) * amp
    sym = 0.5 * (raw + raw.swapaxes(0, 1))
    sym[0, 0] += base
    sym[1, 1] += base
    sym[2, 2] += base
    return TensorField(spec, sym)


def manufactured_problem(n, off_diagonal=True):
    """Divergence-free tangent velocity, smooth potential, smooth SPD tensor;
    f := A u* - grad q* makes (q*, u*) the exact continuum solution."""
    spec = make_spec(n)
    x = spec.cell_centers()
    X, Y, Z = x
    pi = np.pi
    g = np.exp(Z)
    u_star = np.stack(
        [pi * np.sin(pi * X) * np.cos(pi * Y) * g,
         -pi * np.cos(pi * X) * np.sin(pi * Y) * g,
         np.zeros_like(X)])
    q_star = np.cos(pi * X) * np.cos(pi * Y) * np.cos(pi * Z)
    grad_q = np.stack(
        [-pi * np.sin(pi * X) * np.cos(pi * Y) * np.cos(pi * Z),
         -pi * np.cos(pi * X) * np.sin(pi * Y) * np.cos(pi * Z),
         -pi * np.cos(pi * X) * np.cos(pi * Y) * np.sin(pi * Z)])
    a = np.zeros((3, 3) + spec.dims)
    a[0, 0] = 1.5 + 0.4 * np.sin(pi * Y)
    a[1, 1] = 1.2 + 0.3 * Z * Z
    a[2, 2] = 1.0 + 0.5 * X
    if off_diagonal:
        a[0, 1] = a[1, 0] = 0.25 * np.cos(pi * X) * np.cos(pi * Z)
        a[0, 2] = a[2, 0] = 0.2 * np.cos(pi * Y)
        a[1, 2] = a[2, 1] = 0.15 * np.cos(pi * Z)
    f = np.einsum("ab...,b...->a...", a, u_star) - grad_q
    d = DivCurlData(a=TensorField(spec, a), f=VectorField(spec, f))
    return spec, d, u_star, q_star


def dense_solve(problem):
    """Oracle: direct factorisation of the assembled operator, with the mean
    pinned by a rank-one shift."""
    n = problem.spec.n_cells
    mat = dense_operator(problem) + np.ones((n, n)) / n
    b = problem.rhs.values.reshape(-1)
    q = np.linalg.solve(mat, b - b.mean())
    return q.reshape(problem.spec.dims)


class TestInvert3x3:
    def test_identity(self):
        spec = make_spec(4)
        inv = invert_3x3(const_tensor(spec, np.eye(3)))
        assert np.max(np.abs(inv.comp - per_cell(np.eye(3), spec))) == 0.0

    def test_diagonal(self):
        spec = make_spec(4)
        inv = invert_3x3(const_tensor(spec, np.diag([2.0, 4.0, 1.0])))
        assert np.max(np.abs(inv.comp - per_cell(np.diag([0.5, 0.25, 1.0]), spec))) < 1e-15

    def test_multiply_back(self):
        rng = np.random.default_rng(2)
        spec = make_spec(5)
        t = random_spd_tensor(spec, rng)
        inv = invert_3x3(t)
        prod = np.einsum("ab...,bc...->ac...", t.comp, inv.comp)
        assert np.max(np.abs(prod - per_cell(np.eye(3), spec))) < 1e-12

    def test_symmetric_output_flag(self):
        rng = np.random.default_rng(3)
        spec = make_spec(4)
        inv = invert_3x3(random_spd_tensor(spec, rng))
        assert inv.symmetric  # read from the data: exactly mirrored

    def test_singular_reports_cell(self):
        spec = make_spec(4)
        vals = per_cell(np.eye(3), spec)
        vals[:, :, 1, 2, 3] = 0.0
        with pytest.raises(SingularTensorError) as err:
            invert_3x3(TensorField(spec, vals))
        assert err.value.cell == (1, 2, 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad, first, det", [
        ({(37, 1, 2): 0.0, (12, 3, 0): 1e-14}, (12, 3, 0), 1e-14),  # one in each half
        ({(39, 0, 0): 0.0, (37, 1, 2): 0.0}, (37, 1, 2), 0.0),  # the worker's half only
    ], ids=["both-halves", "worker-half"])
    def test_singular_slabs_divide_nothing(self, workers, bad, first, det):
        # rows 0..23 run here and rows 24..40 on the worker, in 8-row slabs; a
        # slab that holds a singular cell skips its division, so no zero
        # determinant warns, and the first bad cell in C order is reported
        workers(2)
        spec = GridSpec(dims=(41, 4, 5))
        vals = per_cell(np.eye(3), spec)
        for cell, a22 in bad.items():
            vals[(slice(None), slice(None)) + cell] = np.diag([1.0, 1.0, a22])
        with pytest.raises(SingularTensorError) as err:
            invert_3x3(TensorField(spec, vals))
        assert err.value.cell == first
        assert err.value.value == det


class TestSolveDivcurl:
    """DivCurlData is a plain record; solve_divcurl certifies its coefficient."""

    def test_rejects_indefinite_coefficient(self):
        spec = make_spec(4)
        vals = per_cell(np.eye(3), spec)
        vals[:, :, 0, 0, 0] = np.diag([1.0, 1.0, -0.5])
        d = DivCurlData(a=TensorField(spec, vals),
                        f=const_vector(spec, [0, 0, 0]))
        with pytest.raises(EllipticityError) as err:
            solve_divcurl(d)
        assert err.value.cell == (0, 0, 0)
        assert err.value.value == pytest.approx(-0.5)

    def test_rejects_indefinite_symmetric_part(self):
        # upper triangular, every eigenvalue 1, yet its symmetric part
        # [[1, 2], [2, 1]] has eigenvalue -1
        spec = make_spec(5)
        vals = per_cell(np.eye(3), spec)
        vals[0, 1, 1, 2, 3] = 4.0
        d = DivCurlData(a=TensorField(spec, vals),
                        f=const_vector(spec, [0, 0, 0]))
        with pytest.raises(EllipticityError) as err:
            solve_divcurl(d)
        assert err.value.cell == (1, 2, 3)
        assert err.value.value == pytest.approx(-1.0)


class TestReduceToDarcy:
    def test_identity_zero_source(self):
        # operator must be the 7-point Neumann Laplacian, rhs identically zero
        spec = make_spec(4)
        d = DivCurlData(a=const_tensor(spec, np.eye(3)), f=const_vector(spec, [0, 0, 0]))
        p = reduce_to_darcy(d)
        assert np.max(np.abs(p.rhs.values)) == 0.0

        h = spec.spacing[0]
        mat = dense_operator(p)
        nx, ny, nz = spec.dims

        def flat(i, j, k):
            return (i * ny + j) * nz + k

        row = mat[flat(1, 1, 1)]
        assert row[flat(1, 1, 1)] == pytest.approx(6.0 / h**2)
        for nb in [(0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 0), (1, 1, 2)]:
            assert row[flat(*nb)] == pytest.approx(-1.0 / h**2)
        # corner cell: one face per axis
        row = mat[flat(0, 0, 0)]
        assert row[flat(0, 0, 0)] == pytest.approx(3.0 / h**2)

    def test_constant_source_injects_boundary_flux(self):
        # oracle: hand assembly on a 4^3 grid; interior rhs vanishes and the
        # boundary cells carry the closed face flux -c.n / h
        spec = make_spec(4)
        c = np.array([1.0, -2.0, 0.5])
        d = DivCurlData(a=const_tensor(spec, np.eye(3)), f=const_vector(spec, c))
        p = reduce_to_darcy(d)
        h = spec.spacing
        expect = np.zeros(spec.dims)
        expect[0, :, :] += c[0] / h[0]
        expect[-1, :, :] -= c[0] / h[0]
        expect[:, 0, :] += c[1] / h[1]
        expect[:, -1, :] -= c[1] / h[1]
        expect[:, :, 0] += c[2] / h[2]
        expect[:, :, -1] -= c[2] / h[2]
        assert np.max(np.abs(p.rhs.values - expect)) < 1e-13
        assert np.max(np.abs(p.rhs.values[1:-1, 1:-1, 1:-1])) == 0.0

    def test_anisotropic_diagonal_weights(self):
        # oracle: hand assembly; A = diag(2,2,1) gives face weights 1/(2 h^2)
        spec = make_spec(4)
        d = DivCurlData(a=const_tensor(spec, np.diag([2.0, 2.0, 1.0])),
                        f=const_vector(spec, [0, 0, 0]))
        mat = dense_operator(reduce_to_darcy(d))
        h = spec.spacing
        nx, ny, nz = spec.dims

        def flat(i, j, k):
            return (i * ny + j) * nz + k

        row = mat[flat(1, 1, 1)]
        assert row[flat(0, 1, 1)] == pytest.approx(-1.0 / (2.0 * h[0] ** 2))
        assert row[flat(1, 0, 1)] == pytest.approx(-1.0 / (2.0 * h[1] ** 2))
        assert row[flat(1, 1, 0)] == pytest.approx(-1.0 / h[2] ** 2)

    def test_compatibility_holds(self):
        rng = np.random.default_rng(11)
        spec = make_spec(6)
        d = DivCurlData(a=random_spd_tensor(spec, rng),
                        f=VectorField(spec, rng.standard_normal((3,) + spec.dims)))
        p = reduce_to_darcy(d)
        total = np.sum(p.rhs.values) * spec.cell_volume
        assert abs(total) < 1e-12 * np.sum(np.abs(p.rhs.values)) * spec.cell_volume


class TestSolveDarcy:
    def test_zero_rhs_returns_zero(self):
        spec = make_spec(5)
        d = DivCurlData(a=const_tensor(spec, np.eye(3)), f=const_vector(spec, [0, 0, 0]))
        sol = solve_darcy(reduce_to_darcy(d))
        assert sol.iterations <= 1
        assert np.max(np.abs(sol.q.values)) == 0.0
        assert np.max(np.abs(sol.u.comp)) == 0.0

    def test_constant_rotation_source_closed_form(self):
        # oracle: q = -(J a).x is exact for A = I and constant f = J a
        spec = make_spec(8)
        ja = np.array([-0.2, 0.1, 0.0])
        d = DivCurlData(a=const_tensor(spec, np.eye(3)), f=const_vector(spec, ja))
        sol = solve_darcy(reduce_to_darcy(d), tol=1e-12)
        x = spec.cell_centers()
        q_exact = -np.einsum("a...,a->...", x, ja)
        q_exact -= q_exact.mean()
        assert np.max(np.abs(sol.q.values - q_exact)) < 1e-11
        assert np.max(np.abs(sol.u.comp)) < 1e-10

    def test_mean_zero_potential(self):
        rng = np.random.default_rng(5)
        spec = make_spec(6)
        d = DivCurlData(a=random_spd_tensor(spec, rng),
                        f=VectorField(spec, rng.standard_normal((3,) + spec.dims)))
        sol = solve_darcy(reduce_to_darcy(d))
        qn = np.sqrt(np.mean(sol.q.values**2))
        assert abs(sol.q.values.mean()) <= 1e-12 * max(qn, 1e-30)

    def test_dense_oracle_small_grids(self):
        rng = np.random.default_rng(7)
        for dims in [(4, 4, 4), (5, 5, 5), (6, 6, 6), (4, 5, 6)]:
            spec = make_spec(dims)
            d = DivCurlData(a=random_spd_tensor(spec, rng),
                            f=VectorField(spec, rng.standard_normal((3,) + spec.dims)))
            p = reduce_to_darcy(d)
            sol = solve_darcy(p, tol=1e-12)
            q_ref = dense_solve(p)
            rel = np.linalg.norm(sol.q.values - q_ref) / np.linalg.norm(q_ref)
            assert rel < 1e-9

    def test_superposition_in_source(self):
        rng = np.random.default_rng(9)
        spec = make_spec(6)
        a = random_spd_tensor(spec, rng)
        f1 = rng.standard_normal((3,) + spec.dims)
        f2 = rng.standard_normal((3,) + spec.dims)
        s1 = solve_divcurl(DivCurlData(a=a, f=VectorField(spec, f1)), tol=1e-12)
        s2 = solve_divcurl(DivCurlData(a=a, f=VectorField(spec, f2)), tol=1e-12)
        s12 = solve_divcurl(DivCurlData(a=a, f=VectorField(spec, f1 + 2.0 * f2)), tol=1e-12)
        combo = s1.q.values + 2.0 * s2.q.values
        scale = np.max(np.abs(s12.q.values)) + 1e-30
        assert np.max(np.abs(s12.q.values - combo)) / scale < 1e-9

    def test_operator_symmetry_and_nullspace(self):
        rng = np.random.default_rng(13)
        spec = make_spec(5)
        d = DivCurlData(a=random_spd_tensor(spec, rng),
                        f=const_vector(spec, [0, 0, 0]))
        mat = dense_operator(reduce_to_darcy(d))
        assert np.max(np.abs(mat - mat.T)) < 1e-12
        assert np.max(np.abs(mat.sum(axis=1))) < 1e-12
        ev = np.linalg.eigvalsh(mat)
        assert ev[0] > -1e-10  # positive semidefinite
        assert ev[1] > 1e-3  # constants are the only null vectors

    def test_iteration_limit_raises_with_history(self):
        s = init_state("bump", make_spec(8), delta=0.01)
        with pytest.raises(SolverConvergenceError) as err:
            solve_darcy(reduce_to_darcy(transport_data(s)), maxiter=2)
        history = err.value.history
        assert len(history) == 3  # the initial 1.0, then one per iteration
        assert history[0] == 1.0
        assert min(history[1:]) > 1e-10

    def test_stalled_restarts_end_the_solve(self):
        # nearly singular D2P: CG's recurrence residual passes tol, but the
        # true residual stays near 7e-7 restart after restart
        s = init_state("quadratic", make_spec(8), quad=(1e-9, 1.0, 1.0))
        with pytest.raises(SolverConvergenceError, match="conjugate gradients stalled") as err:
            solve_darcy(reduce_to_darcy(transport_data(s)))
        assert len(err.value.history) < 20  # the budget is 5120 iterations

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_anisotropic_grid_matches_dense(self, symmetric):
        # unequal cells and spacings per axis: the preconditioner's cosine
        # bases and eigenvalues are per axis
        rng = np.random.default_rng(37)
        spec = GridSpec(dims=(5, 7, 9), extents=(1.0, 2.0, 0.5))
        a = random_spd_tensor(spec, rng)
        if not symmetric:
            base = a.comp.copy()
            base[0, 1] += 0.15
            base[1, 0] -= 0.15
            a = TensorField(spec, base)
        d = DivCurlData(a=a, f=VectorField(spec, rng.standard_normal((3,) + spec.dims)))
        p = reduce_to_darcy(d)
        assert p.m.symmetric == symmetric
        sol = solve_darcy(p, tol=1e-12)
        q_ref = dense_solve(p)
        rel = np.linalg.norm(sol.q.values - q_ref) / np.linalg.norm(q_ref)
        assert rel < 1e-9


class TestRecoverVelocity:
    def test_zero_case(self):
        spec = make_spec(4)
        d = DivCurlData(a=const_tensor(spec, np.eye(3)), f=const_vector(spec, [0, 0, 0]))
        u = recover_velocity(d, ScalarField(spec, np.zeros(spec.dims)))
        assert np.max(np.abs(u.comp)) == 0.0

    def test_rotation_closed_form(self):
        spec = make_spec(6)
        ja = np.array([0.3, 0.4, 0.0])
        d = DivCurlData(a=const_tensor(spec, np.eye(3)), f=const_vector(spec, ja))
        x = spec.cell_centers()
        q = ScalarField(spec, -np.einsum("a...,a->...", x, ja))
        u = recover_velocity(d, q)
        assert np.max(np.abs(u.comp)) < 1e-13

    def test_algebraic_identity(self):
        # A u - f - grad q = 0 per cell by construction
        rng = np.random.default_rng(21)
        spec = make_spec(6)
        d = DivCurlData(a=random_spd_tensor(spec, rng),
                        f=VectorField(spec, rng.standard_normal((3,) + spec.dims)))
        q = ScalarField(spec, rng.standard_normal(spec.dims))
        u = recover_velocity(d, q)
        resid = (np.einsum("ab...,b...->a...", d.a.comp, u.comp)
                 - d.f.comp - gradient(q).comp)
        assert np.max(np.abs(resid)) < 1e-13


class TestManufacturedConvergence:
    def test_velocity_second_order(self):
        errs = []
        for n in (8, 16, 32):
            spec, d, u_star, _ = manufactured_problem(n)
            sol = solve_darcy(reduce_to_darcy(d), tol=1e-10)
            errs.append(np.sqrt(np.sum((sol.u.comp - u_star) ** 2) * spec.cell_volume))
        assert 3.4 <= errs[0] / errs[1] <= 4.6
        assert 3.4 <= errs[1] / errs[2] <= 4.6

    def test_interior_divergence_shrinks_under_refinement(self):
        # the flux-form divergence is zero to solver tolerance by construction;
        # the collocated stencil divergence of u converges to zero with h
        divs = []
        for n in (8, 32):
            spec, d, _, _ = manufactured_problem(n)
            sol = solve_darcy(reduce_to_darcy(d), tol=1e-11)
            dv = divergence(sol.u).values[2:-2, 2:-2, 2:-2]
            divs.append(np.sqrt(np.mean(dv**2)))
        assert divs[1] < divs[0] / 2.0

    def test_exact_cases_have_tiny_divergence(self):
        # where the discrete solution is exact, div u sits at solver tolerance
        spec = make_spec(8)
        ja = np.array([0.1, -0.05, 0.0])
        d = DivCurlData(a=const_tensor(spec, np.eye(3)), f=const_vector(spec, ja))
        sol = solve_darcy(reduce_to_darcy(d), tol=1e-12)
        assert np.max(np.abs(divergence(sol.u).values)) < 1e-10


class TestVerifyEstimate:
    def test_zero_source_not_applicable(self):
        spec = make_spec(4)
        d = DivCurlData(a=const_tensor(spec, np.eye(3)), f=const_vector(spec, [0, 0, 0]))
        r = verify_estimate(const_vector(spec, [0, 0, 0]), d, 4)
        assert r.u_ratio is None and r.au_ratio is None

    def test_ratios_stable_under_refinement(self):
        ratios = []
        for n in (8, 16, 32):
            spec, d, _, _ = manufactured_problem(n)
            sol = solve_darcy(reduce_to_darcy(d), tol=1e-10)
            r = verify_estimate(sol.u, d, 4)
            ratios.append((r.u_ratio, r.au_ratio))
        for k in range(2):
            vals = [r[k] for r in ratios]
            assert max(vals) <= 2.0 * min(vals)

    def test_scaling_invariance(self):
        spec, d, _, _ = manufactured_problem(8)
        sol = solve_darcy(reduce_to_darcy(d), tol=1e-12)
        r1 = verify_estimate(sol.u, d, 4)
        d10 = DivCurlData(a=d.a, f=VectorField(spec, 10.0 * d.f.comp))
        sol10 = solve_darcy(reduce_to_darcy(d10), tol=1e-12)
        r10 = verify_estimate(sol10.u, d10, 4)
        assert abs(r10.u_ratio - r1.u_ratio) < 1e-10 * r1.u_ratio
        assert abs(r10.au_ratio - r1.au_ratio) < 1e-10 * r1.au_ratio


class TestNonSymmetricSolve:
    def test_bicgstab_matches_dense(self):
        # mildly non-symmetric coefficient: perturb an SPD tensor
        rng = np.random.default_rng(31)
        spec = make_spec(5)
        base = random_spd_tensor(spec, rng).comp.copy()
        base[0, 1] += 0.15
        base[1, 0] -= 0.15
        a = TensorField(spec, base)
        d = DivCurlData(a=a, f=VectorField(spec, rng.standard_normal((3,) + spec.dims)))
        p = reduce_to_darcy(d)
        assert not p.m.symmetric
        sol = solve_darcy(p, tol=1e-12)
        q_ref = dense_solve(p)
        rel = np.linalg.norm(sol.q.values - q_ref) / np.linalg.norm(q_ref)
        assert rel < 1e-9


class TestRowMajorReference:
    """The component-major kernels against their row-major originals, == ."""

    def nonsymmetric(self, spec, rng):
        raw = rng.standard_normal((3, 3) + spec.dims) * 0.3
        raw[0, 0] += 2.0
        raw[1, 1] += 2.0
        raw[2, 2] += 2.0
        return TensorField(spec, raw)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_invert(self, symmetric):
        rng = np.random.default_rng(21)
        spec = make_spec((5, 6, 7))
        t = random_spd_tensor(spec, rng) if symmetric else self.nonsymmetric(spec, rng)
        want = row_major_invert_3x3(row_major(t), symmetric)
        assert np.array_equal(row_major(invert_3x3(t)), want)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_apply_operator_with_mixed_terms(self, symmetric):
        rng = np.random.default_rng(22)
        spec = GridSpec(dims=(5, 7, 6), extents=(1.0, 2.0, 0.5))
        a = random_spd_tensor(spec, rng) if symmetric else self.nonsymmetric(spec, rng)
        p = reduce_to_darcy(DivCurlData(a=a, f=VectorField(spec, rng.standard_normal(
            (3,) + spec.dims))))
        assert p.has_mixed
        q = rng.standard_normal(spec.dims)
        want = row_major_apply_operator(row_major(p.m), p.m_face,
                                        p.has_mixed, spec.spacing, q)
        assert np.array_equal(apply_operator(p, q), want)

    def test_apply_operator_diagonal_coefficient(self):
        # the reference still skips the cross terms of a diagonal coefficient;
        # the kernel carries them, and they must change no bit
        rng = np.random.default_rng(25)
        spec = GridSpec(dims=(8, 4, 16), extents=(1.0, 2.0, 0.5))
        comp = np.zeros((3, 3) + spec.dims)
        for a, v in enumerate((2.0, 0.5, 4.0)):
            comp[a, a] = v
        p = reduce_to_darcy(DivCurlData(a=TensorField(spec, comp), f=VectorField(
            spec, rng.standard_normal((3,) + spec.dims))))
        assert not p.has_mixed
        q = rng.standard_normal(spec.dims)
        want = row_major_apply_operator(row_major(p.m), p.m_face, False, spec.spacing, q)
        assert np.array_equal(apply_operator(p, q), want)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_matvec(self, symmetric):
        rng = np.random.default_rng(24)
        spec = make_spec((5, 6, 7))
        t = random_spd_tensor(spec, rng) if symmetric else self.nonsymmetric(spec, rng)
        shape = (3,) + spec.dims
        v = rng.standard_normal(shape) * np.exp(rng.uniform(-10.0, 10.0, shape))
        want = row_major_matvec(row_major(t), np.ascontiguousarray(np.moveaxis(v, 0, -1)))
        assert np.array_equal(np.moveaxis(_matvec(t, v), 0, -1), want)

    def test_velocity_is_einsum_over_row_major(self):
        # u = M (f + grad q), summed as np.einsum summed it on a row-major M
        rng = np.random.default_rng(23)
        spec = make_spec((6, 5, 7))
        d = DivCurlData(a=self.nonsymmetric(spec, rng),
                        f=VectorField(spec, rng.standard_normal((3,) + spec.dims)))
        q = ScalarField(spec, rng.standard_normal(spec.dims))
        m = row_major(invert_3x3(d.a))
        v = np.ascontiguousarray(np.moveaxis(d.f.comp + gradient(q).comp, 0, -1))  # row-major
        want = np.einsum("...ab,...b->...a", m, v)
        assert np.array_equal(row_major(recover_velocity(d, q)), want)
