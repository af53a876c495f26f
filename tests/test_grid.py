import numpy as np
import pytest

from semigeo.grid import (
    GridSpec,
    ScalarField,
    TensorField,
    VectorField,
    _third_derivative_magnitude,
    cell_magnitude,
    curl,
    diff_shifted,
    eigmin_symmetric,
    gradient,
    gradient_values,
    hessian,
    jacobian,
    lp_norm,
    min_hessian_eigenvalue,
    sobolev_norm,
    sum_of_squares,
)

from conftest import (
    all_27_third_derivative_magnitude,
    divergence,
    per_cell,
    row_major,
    row_major_curl,
    row_major_eigmin_symmetric,
    row_major_gradient_values,
    row_major_jacobian,
)


def make_spec(n=8, extents=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    if isinstance(n, int):
        n = (n, n, n)
    return GridSpec(dims=n, origin=origin, extents=extents)


def scalar_from(spec, fn):
    return ScalarField(spec, fn(*spec.cell_centers()))


def random_scalar(spec, rng):
    return ScalarField(spec, rng.standard_normal(spec.dims))


def random_vector(spec, rng):
    return VectorField(spec, rng.standard_normal((3,) + spec.dims))


class TestGridSpec:
    def test_spacing_and_volume(self):
        spec = make_spec((8, 10, 4), extents=(2.0, 1.0, 0.5))
        assert spec.spacing == (0.25, 0.1, 0.125)
        assert spec.n_cells == 320
        assert np.isclose(spec.cell_volume, 0.25 * 0.1 * 0.125)

    def test_rejects_small_dims(self):
        with pytest.raises(ValueError):
            make_spec((3, 8, 8))

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            make_spec(8, extents=(1.0, 0.0, 1.0))

    def test_corner_radius(self):
        spec = make_spec(4, extents=(1.0, 1.0, 1.0))
        assert np.isclose(spec.corner_radius(), np.sqrt(3.0))


class TestFieldValidation:
    def test_shape_checked(self):
        spec = make_spec(4)
        with pytest.raises(ValueError):
            ScalarField(spec, np.zeros((4, 4)))

    def test_finite_checked(self):
        spec = make_spec(4)
        vals = np.zeros(spec.dims)
        vals[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ScalarField(spec, vals)

    def test_symmetric_flag_checked(self):
        # symmetric is read from the data: one changed off-diagonal entry in
        # one cell makes a mirrored tensor non-symmetric
        spec = make_spec(4)
        comp = np.zeros((3, 3) + spec.dims)
        comp[0, 1] = comp[1, 0] = 1.0
        assert TensorField(spec, comp.copy()).symmetric
        comp[0, 1, 2, 3, 1] = 2.0
        assert TensorField(spec, comp).symmetric is False

    def test_scalar_field_takes_over(self):
        # the ownership rule of VectorField and TensorField: no copy, frozen
        spec = make_spec(4)
        vals = np.zeros(spec.dims)
        assert ScalarField(spec, vals).values is vals and not vals.flags.writeable

    def test_fields_immutable(self):
        spec = make_spec(4)
        f = ScalarField(spec, np.zeros(spec.dims))
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 1.0


class TestGradient:
    def test_constant_field(self):
        spec = make_spec(6)
        g = gradient(ScalarField(spec, np.full(spec.dims, 3.7)))
        assert np.max(np.abs(g.comp)) == 0.0

    def test_linear_exact(self):
        spec = make_spec((5, 6, 7), extents=(1.0, 2.0, 0.5))
        a = np.array([1.5, -2.0, 0.25])
        s = scalar_from(spec, lambda x, y, z: a[0] * x + a[1] * y + a[2] * z)
        g = gradient(s)
        assert np.allclose(g.comp, a[:, None, None, None], rtol=0, atol=1e-13)

    def test_quadratic_exact(self):
        # oracle: grad(|x|^2 / 2) = x, sampled at the cell centers
        spec = make_spec(8)
        s = scalar_from(spec, lambda x, y, z: 0.5 * (x**2 + y**2 + z**2))
        g = gradient(s)
        assert np.max(np.abs(g.comp - spec.cell_centers())) < 1e-12


class TestHessian:
    def test_linear_is_zero(self):
        spec = make_spec(5)
        s = scalar_from(spec, lambda x, y, z: x - 2 * y + 3 * z)
        h = hessian(s)
        assert np.max(np.abs(h.comp)) < 1e-12

    def test_quadratic_form_exact(self):
        # oracle: D2(x^T Q x / 2) = Q for symmetric Q
        q = np.array([[2.0, 0.3, -0.1], [0.3, 1.0, 0.2], [-0.1, 0.2, 0.5]])
        spec = make_spec(6, extents=(1.0, 1.5, 2.0))
        x = spec.cell_centers()
        vals = 0.5 * np.einsum("a...,ab,b...->...", x, q, x)
        h = hessian(ScalarField(spec, vals))
        assert np.max(np.abs(h.comp - q[:, :, None, None, None])) < 1e-10

    def test_identity_case(self):
        spec = make_spec(8)
        s = scalar_from(spec, lambda x, y, z: 0.5 * (x**2 + y**2 + z**2))
        h = hessian(s)
        assert np.max(np.abs(h.comp - np.eye(3)[:, :, None, None, None])) < 1e-11

    def test_matches_symmetrized_jacobian_at_second_order(self):
        # discrepancy against the symmetrized jacobian of the gradient is
        # O(h^2): refining by 2 shrinks it by ~4
        def err(n):
            spec = make_spec(n)
            s = scalar_from(
                spec, lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
            )
            h = hessian(s).comp
            j = jacobian(gradient(s)).comp
            js = 0.5 * (j + j.swapaxes(0, 1))
            k = 2  # compare two layers in from each face
            d = np.abs(h - js)[:, :, k:-k, k:-k, k:-k]
            return np.max(d)

        ratio = err(10) / err(20)
        assert 3.4 <= ratio <= 4.6


class TestDivergence:
    def test_constant(self):
        spec = make_spec(5)
        v = VectorField(spec, per_cell([1.0, 2.0, 3.0], spec))
        assert np.max(np.abs(divergence(v).values)) == 0.0

    def test_linear_solenoidal(self):
        spec = make_spec(6)
        x = spec.cell_centers()
        v = VectorField(spec, np.stack([x[0], x[1], -2 * x[2]]))
        assert np.max(np.abs(divergence(v).values)) < 1e-13

    def test_quadratic_component(self):
        # oracle: div((x^2, 0, 0)) = 2x
        spec = make_spec(8)
        x = spec.cell_centers()
        v = VectorField(spec, np.stack([x[0] ** 2, np.zeros(spec.dims), np.zeros(spec.dims)]))
        d = divergence(v).values
        assert np.max(np.abs(d - 2 * x[0])) < 1e-12


class TestCurl:
    def test_rotation_field(self):
        # oracle: curl((-y, x, 0)) = (0, 0, 2)
        spec = make_spec(7)
        x = spec.cell_centers()
        v = VectorField(spec, np.stack([-x[1], x[0], np.zeros(spec.dims)]))
        c = curl(v).comp
        assert np.max(np.abs(c - np.array([0.0, 0.0, 2.0])[:, None, None, None])) < 1e-12

    def test_constant(self):
        spec = make_spec(5)
        v = VectorField(spec, per_cell([4.0, -1.0, 2.0], spec))
        assert np.max(np.abs(curl(v).comp)) == 0.0

    def test_curl_of_gradient_vanishes_in_interior(self):
        rng = np.random.default_rng(7)
        spec = make_spec(9)
        for _ in range(4):
            s = random_scalar(spec, rng)
            c = curl(gradient(s)).comp
            interior = c[:, 2:-2, 2:-2, 2:-2]
            assert np.max(np.abs(interior)) < 1e-12

    @pytest.mark.parametrize("dims", [(9, 7, 8), (5, 6, 7)])
    def test_equals_antisymmetric_part_of_jacobian(self, dims):
        # curl(v) is the antisymmetric part of jacobian(v), bit for bit
        rng = np.random.default_rng(31)
        v = random_vector(make_spec(dims, extents=(1.0, 1.5, 0.7)), rng)
        j = jacobian(v).comp
        want = np.stack([j[1, 2] - j[2, 1], j[2, 0] - j[0, 2], j[0, 1] - j[1, 0]])
        assert np.array_equal(curl(v).comp, want)


class TestOperatorProperties:
    def test_linearity(self):
        rng = np.random.default_rng(13)
        spec = make_spec(6)
        a, b = 1.7, -0.4
        s1, s2 = random_scalar(spec, rng), random_scalar(spec, rng)
        combo = ScalarField(spec, a * s1.values + b * s2.values)
        lhs = gradient(combo).comp
        rhs = a * gradient(s1).comp + b * gradient(s2).comp
        assert np.max(np.abs(lhs - rhs)) < 1e-13

        v1, v2 = random_vector(spec, rng), random_vector(spec, rng)
        comb = VectorField(spec, a * v1.comp + b * v2.comp)
        assert np.max(np.abs(divergence(comb).values
                             - a * divergence(v1).values - b * divergence(v2).values)) < 1e-13
        assert np.max(np.abs(curl(comb).comp
                             - a * curl(v1).comp - b * curl(v2).comp)) < 1e-13

    def test_divergence_of_curl_vanishes_in_interior(self):
        rng = np.random.default_rng(23)
        spec = make_spec(9)
        for _ in range(4):
            v = random_vector(spec, rng)
            d = divergence(curl(v)).values
            assert np.max(np.abs(d[2:-2, 2:-2, 2:-2])) < 1e-12

    def test_gradient_nullspace_is_constants(self):
        spec = make_spec(5)
        g = gradient(ScalarField(spec, np.full(spec.dims, 2.5))).comp
        assert np.max(np.abs(g)) == 0.0


class TestNorms:
    def test_zero_field(self):
        spec = make_spec(4)
        assert lp_norm(ScalarField(spec, np.zeros(spec.dims)), 2) == 0.0

    def test_constant_field(self):
        spec = make_spec(4, extents=(2.0, 1.0, 1.0))
        f = ScalarField(spec, np.full(spec.dims, -3.0))
        for p in (1, 2, 4):
            assert np.isclose(lp_norm(f, p), 3.0 * 2.0 ** (1.0 / p), rtol=1e-13)
        assert lp_norm(f, np.inf) == 3.0

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        spec = make_spec(6)
        f = random_vector(spec, rng)
        g = VectorField(spec, 2.0 * f.comp)
        for p in (1, 2, 3.5, np.inf):
            assert np.isclose(lp_norm(g, p), 2.0 * lp_norm(f, p), rtol=1e-14)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        spec = make_spec(5)
        for p in (1, 2, 4, np.inf):
            for _ in range(5):
                f, g = random_vector(spec, rng), random_vector(spec, rng)
                s = VectorField(spec, f.comp + g.comp)
                assert lp_norm(s, p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-12

    def test_rejects_bad_p(self):
        spec = make_spec(4)
        with pytest.raises(ValueError):
            lp_norm(ScalarField(spec, np.ones(spec.dims)), 0.5)


def w3p(s, p):
    """sobolev_norm of a potential, from its stencil gradient and Hessian."""
    hess = hessian(s)
    return sobolev_norm(lp_norm(gradient(s), p), lp_norm(hess, p), hess, p)


class TestSobolevNorm:
    def test_linear_potential(self):
        spec = make_spec(8)
        a = np.array([0.3, -1.1, 2.0])
        s = scalar_from(spec, lambda x, y, z: a[0] * x + a[1] * y + a[2] * z)
        want = np.linalg.norm(a) * spec.volume ** 0.25
        assert np.isclose(w3p(s, 4), want, rtol=1e-12)

    def test_quadratic_l2_of_gradient(self):
        # oracle: integral of |x|^2 over the unit cube is 1
        spec = make_spec(16)
        s = scalar_from(spec, lambda x, y, z: 0.5 * (x**2 + y**2 + z**2))
        assert abs(lp_norm(gradient(s), 2) - 1.0) < 0.02

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        spec = make_spec(7)
        s = random_scalar(spec, rng)
        d = ScalarField(spec, 2.0 * s.values)
        assert np.isclose(w3p(d, 4), 2.0 * w3p(s, 4), rtol=1e-14)

    @pytest.mark.parametrize("dims", [(7, 6, 5), (17, 6, 5)])
    def test_bit_identical_to_whole_grid_stack(self, dims):
        # reference: all derivatives of orders 1..3 stacked over the whole
        # grid at once; 17 rows leave a one-row last slab of the order-3 part
        rng = np.random.default_rng(5)
        spec = make_spec(dims, extents=(1.0, 2.0, 0.5))
        s = random_scalar(spec, rng)
        h = spec.spacing
        hess = hessian(s)
        rows = row_major(hess)
        third = np.stack([diff_shifted(rows, a, h[a]) for a in range(3)], axis=-3)
        for p in (4, np.inf):
            want = 0.0
            for stack in (row_major(gradient(s)), rows, third):
                mag = np.sqrt(np.sum(stack**2, axis=tuple(range(3, stack.ndim))))
                if p == np.inf:
                    want += float(np.max(mag))
                else:
                    want += float(np.sum(mag**4.0 * spec.cell_volume) ** 0.25)
            assert w3p(s, p) == want

    def test_rejects_too_small_grid(self):
        spec = make_spec(4)
        s = ScalarField(spec, np.zeros(spec.dims))
        with pytest.raises(ValueError):
            w3p(s, 2)

    @pytest.mark.parametrize("dims", [(7, 6, 5), (17, 6, 5)])
    def test_third_derivatives_equal_all_27_differences(self, dims):
        # the six distinct entries per direction stand for all nine; random
        # symmetric entries spanning e^-10..e^10, and a stencil Hessian
        rng = np.random.default_rng(21)
        spec = make_spec(dims, extents=(1.0, 2.0, 0.5))
        comp = wide_range(rng, (3, 3) + spec.dims)
        for a in range(3):
            for b in range(a):
                comp[a, b] = comp[b, a]
        for hess in (TensorField(spec, comp),
                     hessian(random_scalar(spec, rng))):
            assert np.array_equal(_third_derivative_magnitude(hess),
                                  all_27_third_derivative_magnitude(hess))

    def test_rejects_unflagged_hessian(self):
        # the mirrors are reused, so a tensor whose data is not symmetric is
        # refused: here a Hessian with one mixed entry changed in one cell
        spec = make_spec(6)
        hess = hessian(random_scalar(spec, np.random.default_rng(22)))
        comp = hess.comp.copy()
        comp[1, 2, 3, 0, 4] += 1.0
        loose = TensorField(spec, comp)
        assert not loose.symmetric
        with pytest.raises(ValueError, match="symmetric"):
            sobolev_norm(1.0, 1.0, loose, 4.0)


class TestEigenvalues:
    def test_identity_tensor(self):
        spec = make_spec(4)
        comp = per_cell(np.eye(3), spec)
        lam, _ = min_hessian_eigenvalue(TensorField(spec, comp))
        assert lam == 1.0

    def test_diagonal_tensor(self):
        spec = make_spec(4)
        comp = per_cell(np.diag([2.0, 3.0, 0.5]), spec)
        lam, _ = min_hessian_eigenvalue(TensorField(spec, comp))
        assert lam == 0.5

    def test_against_dense_eigensolver(self):
        # oracle: numpy's symmetric eigensolver, cell by cell
        rng = np.random.default_rng(17)
        spec = make_spec(5)
        raw = rng.standard_normal((3, 3) + spec.dims)
        sym = 0.5 * (raw + raw.swapaxes(0, 1))
        mine = eigmin_symmetric(sym)
        ref = np.linalg.eigvalsh(np.moveaxis(sym, (0, 1), (-2, -1)))[..., 0]
        assert np.max(np.abs(mine - ref)) < 1e-10

    def test_argmin_location(self):
        spec = make_spec(4)
        comp = per_cell(np.eye(3), spec)
        comp[:, :, 2, 1, 3] = np.diag([0.25, 1.0, 1.0])
        lam, cell = min_hessian_eigenvalue(TensorField(spec, comp))
        assert lam == 0.25
        assert cell == (2, 1, 3)

    def test_rejects_nonsymmetric(self):
        spec = make_spec(4)
        comp = per_cell(np.eye(3), spec)
        comp[0, 2, 1, 1, 2] = 0.5
        t = TensorField(spec, comp)
        assert not t.symmetric
        with pytest.raises(ValueError):
            min_hessian_eigenvalue(t)


def wide_range(rng, shape):
    """Random values whose magnitudes span e^-10 .. e^10."""
    return rng.standard_normal(shape) * np.exp(rng.uniform(-10.0, 10.0, shape))


class TestComponentMajorLayout:
    """Tensors are stored (3, 3, nx, ny, nz), and every result equals the
    row-major one."""

    @pytest.mark.parametrize("k", [3, 9, 27])
    def test_sum_of_squares_is_np_sum(self, k):
        rng = np.random.default_rng(k)
        x = wide_range(rng, (6, 7, 5, k))
        want = np.sum(x**2, axis=-1)
        assert np.array_equal(sum_of_squares([x[..., j] for j in range(k)]), want)

    @pytest.mark.parametrize("p", [2, 4, np.inf])
    def test_tensor_lp_norm_is_row_major_sum(self, p):
        rng = np.random.default_rng(11)
        spec = make_spec((6, 7, 5), extents=(1.0, 2.0, 0.5))
        t = TensorField(spec, wide_range(rng, (3, 3) + spec.dims))
        mag = np.sqrt(np.sum(row_major(t) ** 2, axis=(-2, -1)))
        if p == np.inf:
            want = float(np.max(mag))
        else:
            want = float(np.sum(mag**p * spec.cell_volume) ** (1.0 / p))
        assert lp_norm(t, p) == want

    def test_from_components_checks_symmetry(self):
        spec = make_spec(4)
        comp = np.zeros((3, 3) + spec.dims)
        comp[1, 2] = comp[2, 1] = 1.0
        assert TensorField(spec, comp.copy()).symmetric
        comp[2, 1, 0, 3, 2] = 1.5
        assert not TensorField(spec, comp).symmetric

    def test_eigmin_matches_row_major_reference(self):
        rng = np.random.default_rng(14)
        spec = make_spec((6, 5, 7))
        raw = wide_range(rng, (3, 3) + spec.dims)
        t = TensorField(spec, 0.5 * (raw + raw.swapaxes(0, 1)))
        want = row_major_eigmin_symmetric(row_major(t))
        assert np.array_equal(eigmin_symmetric(t.comp), want)

    def test_eigmin_slabs_equal_whole_grid_kernel(self):
        # 17 rows: two full slabs of 8 and a short last one
        rng = np.random.default_rng(15)
        spec = make_spec((17, 5, 6))
        raw = wide_range(rng, (3, 3) + spec.dims)
        t = TensorField(spec, 0.5 * (raw + raw.swapaxes(0, 1)))
        want = row_major_eigmin_symmetric(row_major(t))
        assert np.array_equal(eigmin_symmetric(t.comp), want)


class TestVectorLayout:
    """Vectors are stored (3, nx, ny, nz), and every result equals the
    row-major one."""

    def test_from_components_takes_over(self):
        # a field takes a C-contiguous float64 array over and freezes it,
        # and rejects the interleaved (nx, ny, nz, 3[, 3]) layout
        spec = make_spec((4, 5, 6))
        rng = np.random.default_rng(41)
        for field, lead in ((VectorField, (3,)), (TensorField, (3, 3))):
            comp = rng.standard_normal(lead + spec.dims)
            f = field(spec, comp)
            assert f.comp is comp and not comp.flags.writeable
            with pytest.raises(ValueError):
                field(spec, np.zeros(spec.dims + lead))

    @pytest.mark.parametrize("p", [2, 4, np.inf])
    def test_vector_lp_norm_is_row_major_sum(self, p):
        rng = np.random.default_rng(42)
        spec = make_spec((6, 7, 5), extents=(1.0, 2.0, 0.5))
        v = VectorField(spec, wide_range(rng, (3,) + spec.dims))
        mag = np.sqrt(np.sum(row_major(v) ** 2, axis=-1))
        assert np.array_equal(cell_magnitude(v).values, mag)
        if p == np.inf:
            want = float(np.max(mag))
        else:
            want = float(np.sum(mag**p * spec.cell_volume) ** (1.0 / p))
        assert lp_norm(v, p) == want

    def test_gradient_values_match_row_major(self):
        spec = make_spec((6, 7, 5), extents=(1.0, 2.0, 0.5))
        q = wide_range(np.random.default_rng(43), spec.dims)
        g = gradient_values(q, spec)
        assert g.shape == (3,) + spec.dims and g.flags.c_contiguous
        assert np.array_equal(np.moveaxis(g, 0, -1), row_major_gradient_values(q, spec))

    def test_jacobian_matches_row_major(self):
        spec = make_spec((6, 7, 5), extents=(1.0, 2.0, 0.5))
        v = VectorField(spec, wide_range(np.random.default_rng(44), (3,) + spec.dims))
        want = row_major_jacobian(row_major(v), spec)
        assert np.array_equal(row_major(jacobian(v)), want)

    @pytest.mark.parametrize("dims", [(4, 4, 4), (6, 7, 5), (9, 5, 8)])
    def test_curl_matches_nine_derivative_reference(self, dims):
        spec = make_spec(dims, extents=(1.0, 2.0, 0.5))
        v = VectorField(spec, wide_range(np.random.default_rng(45), (3,) + spec.dims))
        want = row_major_curl(row_major(v), spec)
        assert np.array_equal(row_major(curl(v)), want)

    def test_cell_centers_components_contiguous(self):
        spec = make_spec((5, 6, 7), origin=(0.5, -1.0, 2.0), extents=(1.0, 2.0, 0.5))
        x = spec.cell_centers()
        assert x.shape == (3,) + spec.dims and x.flags.c_contiguous
        mesh = np.meshgrid(*(spec.axis_coords(a) for a in range(3)), indexing="ij")
        assert np.array_equal(x, np.stack(mesh))
