"""Ternary forms, the envelope identities, and hyperbolicity."""

import json
import math

import numpy as np
import pytest

from conftest import random_complex_matrix
from toeprange.curves import (
    _witness_index,
    ConicFamilyCoefficients,
    HyperbolicityVerdict,
    KIPPENHAHN_SIZE_CAP,
    PipelineStageError,
    REAL_ROOT_RTOL,
    TernaryForm,
    boundary_quartic,
    dual_quartic,
    ellipse_family,
    ellipse_family_residual,
    ellipse_point,
    evaluate_form,
    family_discriminant,
    form_gradient,
    hyperbolicity_test,
    kippenhahn_form,
    nonrepresentability_report,
    quartic_boundary_points,
    restrict_to_direction,
    univariate_real_root_count,
)
from toeprange.linalg import BYTE_CAP, EigenSolverError
from toeprange.operators import TAU
from toeprange.ranges import matrix_numerical_range


def scalar_gradient(form, t, x, y):
    """Gradient at one point in Python float arithmetic."""
    grad = np.zeros(3)
    for (i, j, k), c in form.coefficients.items():
        if i > 0:
            grad[0] += c * i * t ** (i - 1) * x**j * y**k
        if j > 0:
            grad[1] += c * j * t**i * x ** (j - 1) * y**k
        if k > 0:
            grad[2] += c * k * t**i * x**j * y ** (k - 1)
    return grad


def scalar_restriction(form, x0, y0):
    """Restriction coefficients at one direction in Python float arithmetic."""
    coeffs = np.zeros(form.degree + 1)
    for (i, j, k), c in form.coefficients.items():
        coeffs[form.degree - i] += c * x0**j * y0**k
    return coeffs


def scalar_root_count(coeffs, tol):
    """Companion-matrix roots of one polynomial with a nonzero leading
    coefficient, sorted by (real, imag), and the count of real ones."""
    c = np.asarray(coeffs, dtype=float)
    degree = c.size - 1
    companion = np.zeros((degree, degree))
    companion[0, :] = -(c[1:] / c[0])
    if degree > 1:
        companion[np.arange(1, degree), np.arange(0, degree - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    roots = roots[np.lexsort((roots.imag, roots.real))]
    return int(np.sum(np.abs(roots.imag) <= tol * (1.0 + np.abs(roots)))), roots


def random_form(rng, degree):
    """Form with standard normal coefficients on every monomial, the
    leading t^degree one kept away from zero."""
    coefficients = {
        (degree - j - k, j, k): float(rng.standard_normal())
        for j in range(degree + 1)
        for k in range(degree + 1 - j)
    }
    coefficients[(degree, 0, 0)] = float(np.sign(rng.standard_normal()) * rng.uniform(0.5, 2))
    return TernaryForm(degree=degree, coefficients=coefficients)


class TestTernaryForm:
    def test_exponents_must_sum_to_degree(self):
        with pytest.raises(ValueError):
            TernaryForm(degree=3, coefficients={(1, 1, 0): 1.0})

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            TernaryForm(degree=2, coefficients={(2, 0, 0): 0.0})

    def test_records_roundtrip(self):
        # One sorted [i, j, k, coefficient] row per nonzero term, and the
        # JSON text keeps each coefficient bit for bit.
        form = dual_quartic()
        doc = json.loads(json.dumps(form.to_dict()))
        assert doc["degree"] == form.degree
        assert [tuple(row[:3]) for row in doc["records"]] == sorted(form.coefficients)
        assert {tuple(row[:3]): row[3] for row in doc["records"]} == form.coefficients

    def test_homogeneity(self):
        rng = np.random.default_rng(40)
        form = boundary_quartic()
        for _ in range(20):
            t, x, y = rng.standard_normal(3)
            s = rng.uniform(0.1, 3.0)
            lhs = evaluate_form(form, s * t, s * x, s * y)
            rhs = s**form.degree * evaluate_form(form, t, x, y)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


class TestBroadcasting:
    def test_batch_matches_scalar_calls(self):
        rng = np.random.default_rng(44)
        for degree in range(1, 6):
            form = random_form(rng, degree)
            t, x, y = rng.standard_normal((3, 4, 6))
            coeffs = restrict_to_direction(form, x, y)
            grad = form_gradient(form, t, x, y)
            assert coeffs.shape == (4, 6, degree + 1)
            assert grad.shape == (3, 4, 6)
            for idx in np.ndindex(4, 6):
                assert np.array_equal(coeffs[idx], restrict_to_direction(form, x[idx], y[idx]))
                assert np.array_equal(grad[(slice(None),) + idx],
                                      form_gradient(form, t[idx], x[idx], y[idx]))


    def test_scalar_path_equals_the_array_path_bitwise(self):
        # Python floats, numpy scalars and ints take the float path; every
        # degree, so squares and the higher powers are both exercised.
        rng = np.random.default_rng(45)
        forms = [random_form(rng, degree) for degree in range(1, 6)]
        forms += [boundary_quartic(), dual_quartic()]
        t, x, y = rng.uniform(-3.0, 3.0, (3, 40))
        for form in forms:
            batch = evaluate_form(form, t, x, y)
            for i in range(40):
                scalar = evaluate_form(form, float(t[i]), x[i], float(y[i]))
                assert isinstance(scalar, float)
                assert scalar == batch[i]
            assert evaluate_form(form, 1, 2, -1) == evaluate_form(form, [1.0], [2.0], [-1.0])[0]


class TestBoundaryQuartic:
    def test_coefficients(self):
        form = boundary_quartic()
        assert form.degree == 4
        assert form.coefficients[(0, 4, 0)] == 16.0
        assert form.coefficients[(3, 1, 0)] == 64.0
        assert form.coefficients[(4, 0, 0)] == -15.0
        assert len(form.coefficients) == 7

    def test_isolated_point_is_exact_zero(self):
        assert evaluate_form(boundary_quartic(), 1.0, 0.5, 0.0) == 0.0

    def test_real_axis_roots(self):
        # L(1, X, 0) factors as (2X - 1)^2 (4X^2 + 4X - 15)
        form = boundary_quartic()
        poly = np.zeros(5)
        for (i, j, k), c in form.coefficients.items():
            if k == 0:
                poly[4 - j] += c
        roots = np.sort(np.roots(poly).real)
        assert np.allclose(roots, [-2.5, 0.5, 0.5, 1.5], atol=1e-9)
        assert abs(evaluate_form(form, 1.0, 1.5, 0.0)) < 1e-12
        assert abs(evaluate_form(form, 1.0, -2.5, 0.0)) < 1e-12

    def test_origin_value(self):
        assert evaluate_form(boundary_quartic(), 0.0, 0.0, 0.0) == 0.0


class TestDualQuartic:
    def test_coefficients(self):
        form = dual_quartic()
        assert form.degree == 4
        assert form.coefficients[(4, 0, 0)] == 16.0
        assert form.coefficients[(0, 0, 4)] == -27.0
        assert len(form.coefficients) == 9

    def test_vertical_restriction(self):
        got = restrict_to_direction(dual_quartic(), 0.0, -1.0)
        assert np.array_equal(got, np.array([16.0, 0.0, -72.0, 0.0, -27.0]))


# The ellipse family as bivariate dicts keyed by the (X, Y) exponents, and a
# plain bivariate evaluator: a reference that evaluating the forms at t = 1
# must reproduce bit for bit.
REFERENCE_FAMILY = (
    {(2, 0): 16.0, (0, 2): -16.0, (1, 0): -40.0, (0, 0): 16.0},
    {(1, 1): 32.0, (0, 1): -40.0},
    {(2, 0): 20.0, (0, 2): 20.0, (1, 0): -32.0, (0, 0): 11.0},
)


def reference_bivariate(poly, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = np.zeros(np.broadcast(x, y).shape)
    for (i, j), c in poly.items():
        total = total + c * x**i * y**j
    return total


class TestEllipseFamily:
    def test_alpha_at_one_zero(self):
        fam = ellipse_family()
        assert evaluate_form(fam.alpha, 1.0, 1.0, 0.0) == -8.0

    def test_beta_vanishes_on_real_axis(self):
        fam = ellipse_family()
        for x in (-2.0, -0.3, 0.0, 1.2, 4.0):
            assert evaluate_form(fam.beta, 1.0, x, 0.0) == 0.0

    def test_gamma_at_isolated_point(self):
        fam = ellipse_family()
        assert evaluate_form(fam.gamma, 1.0, 0.5, 0.0) == 0.0

    def test_family_refuses_non_quadratic_forms(self):
        fam = ellipse_family()
        linear = TernaryForm(degree=1, coefficients={(1, 0, 0): 1.0})
        with pytest.raises(ValueError, match="beta must be a quadratic form"):
            ConicFamilyCoefficients(alpha=fam.alpha, beta=linear, gamma=fam.gamma)
        with pytest.raises(ValueError, match="gamma must be a quadratic form"):
            ConicFamilyCoefficients(alpha=fam.alpha, beta=fam.beta, gamma=boundary_quartic())

    def test_residuals_match_bivariate_reference_bitwise(self):
        theta = np.linspace(0.0, TAU, 60, endpoint=False)[:, None]
        t = np.linspace(0.0, TAU, 50, endpoint=False)[None, :]
        px, py = ellipse_point(theta, t)
        a, b, g = (reference_bivariate(p, px, py) for p in REFERENCE_FAMILY)
        expected = a * np.cos(theta) + b * np.sin(theta) + g
        assert np.array_equal(ellipse_family_residual(theta, t), expected)

    def test_envelope_residual_at_boundary_points(self):
        disc = family_discriminant(ellipse_family())
        assert abs(evaluate_form(disc, 1.0, 1.5, 0.0)) <= 1e-9
        assert abs(evaluate_form(disc, 1.0, -2.5, 0.0)) <= 1e-9
        assert abs(evaluate_form(disc, 1.0, 0.5, 0.0)) <= 1e-9

    def test_envelope_proportional_to_quartic_exactly(self):
        # alpha^2 + beta^2 - gamma^2 == -9 * L(t, X, Y), integer arithmetic,
        # against the quartic's literal coefficients; boundary_quartic()
        # derives them from the envelope.
        quartic = {
            (0, 4, 0): 16.0,
            (0, 2, 2): 32.0,
            (0, 0, 4): 16.0,
            (2, 2, 0): -72.0,
            (2, 0, 2): -72.0,
            (3, 1, 0): 64.0,
            (4, 0, 0): -15.0,
        }
        disc = family_discriminant(ellipse_family())
        assert disc.degree == 4
        assert disc.coefficients == {e: -9 * c for e, c in quartic.items()}
        assert boundary_quartic().coefficients == quartic

    def test_envelope_residual_at_origin(self):
        # matches -9 * L(1, 0, 0) = -9 * (-15) = 135 = 16^2 - 11^2
        disc = family_discriminant(ellipse_family())
        assert evaluate_form(disc, 1.0, 0.0, 0.0) == 135.0


class TestEllipseParametrization:
    def test_rightmost_point(self):
        assert abs(ellipse_family_residual(0.0, 0.0)) <= 1e-12
        assert np.allclose(ellipse_point(0.0, 0.0), (1.5, 0.0), atol=1e-15)

    def test_leftmost_point(self):
        assert abs(ellipse_family_residual(math.pi, math.pi / 2)) <= 1e-12
        assert np.allclose(ellipse_point(math.pi, math.pi / 2), (-2.5, 0.0), atol=1e-14)

    def test_grid(self):
        grid = np.linspace(0.0, TAU, 100, endpoint=False)
        worst = max(abs(ellipse_family_residual(th, t)) for th in grid for t in grid)
        assert worst <= 1e-9

    def test_broadcast_matches_scalar_calls(self):
        grid = np.linspace(0.0, TAU, 12, endpoint=False)
        residual = ellipse_family_residual(grid[:, None], grid[None, :])
        x, y = ellipse_point(grid[:, None], grid[None, :])
        assert residual.shape == x.shape == y.shape == (12, 12)
        for i, th in enumerate(grid):
            for j, t in enumerate(grid):
                scalar = ellipse_family_residual(th, t)
                assert isinstance(scalar, float)
                assert residual[i, j] == scalar
                assert (x[i, j], y[i, j]) == ellipse_point(th, t)


class TestKippenhahnForm:
    def test_one_by_one(self):
        form = kippenhahn_form(np.array([[2.0 - 3.0j]]))
        assert form.degree == 1
        assert abs(form.coefficients[(1, 0, 0)] - 1.0) < 1e-12
        assert abs(form.coefficients[(0, 1, 0)] - 2.0) < 1e-10
        assert abs(form.coefficients[(0, 0, 1)] + 3.0) < 1e-10

    def test_nilpotent_disk_form(self):
        # hand expansion: det(tI + x[[0,1],[1,0]] + y[[0,-i],[i,0]])
        # = t^2 - x^2 - y^2
        form = kippenhahn_form(np.array([[0.0, 2.0], [0.0, 0.0]]))
        want = {(2, 0, 0): 1.0, (0, 2, 0): -1.0, (0, 0, 2): -1.0}
        assert set(form.coefficients) == set(want)
        for key, value in want.items():
            assert abs(form.coefficients[key] - value) <= 1e-10

    def test_normal_product_of_linear_forms(self):
        form = kippenhahn_form(np.diag([1.0 + 0j, 1j]))
        # (t + x)(t + y) = t^2 + tx + ty + xy
        want = {(2, 0, 0): 1.0, (1, 1, 0): 1.0, (1, 0, 1): 1.0, (0, 1, 1): 1.0}
        assert set(form.coefficients) == set(want)
        for key, value in want.items():
            assert abs(form.coefficients[key] - value) <= 1e-10

    def test_size_cap(self):
        with pytest.raises(ValueError):
            kippenhahn_form(np.eye(13))

    def test_non_square_refused(self):
        with pytest.raises(ValueError):
            kippenhahn_form(np.ones((2, 3)))

    def test_determinant_identity_at_every_size(self):
        # |F(t, x, y) - det(tI + x Re B + y Im B)| / (|t| + |B|_2 |(x, y)|)^n,
        # on matrices of norm 1e-3 to 1e3
        rng = np.random.default_rng(47)
        for dim in range(1, KIPPENHAHN_SIZE_CAP + 1):
            for _ in range(3):
                b = 10.0 ** rng.uniform(-3, 3) * random_complex_matrix(rng, dim)
                herm, skew = 0.5 * (b + b.conj().T), (b - b.conj().T) / 2j
                form = kippenhahn_form(b)
                t, x, y = rng.standard_normal((3, 20))
                pencil = (
                    t[:, None, None] * np.eye(dim)
                    + x[:, None, None] * herm
                    + y[:, None, None] * skew
                )
                scale = (np.abs(t) + np.linalg.norm(b, 2) * np.hypot(x, y)) ** dim
                error = np.abs(evaluate_form(form, t, x, y) - np.linalg.det(pencil).real)
                assert np.max(error / scale) <= 1e-12, dim

    @staticmethod
    def linear_form_product(diagonal):
        """Exact coefficients of the product of t + x Re(d) + y Im(d) over
        Gaussian-integer entries d, in Python int arithmetic."""
        product = {(0, 0, 0): 1}
        for d in diagonal:
            factor = {(1, 0, 0): 1, (0, 1, 0): int(d.real), (0, 0, 1): int(d.imag)}
            grown = {}
            for (i, j, k), c in product.items():
                for (a, b, e), f in factor.items():
                    key = (i + a, j + b, k + e)
                    grown[key] = grown.get(key, 0) + c * f
            product = grown
        return {key: c for key, c in product.items() if c != 0}

    def test_normal_matrices_factor_into_linear_forms(self):
        rng = np.random.default_rng(48)
        for dim in range(1, KIPPENHAHN_SIZE_CAP + 1):
            ramp = np.arange(1, dim + 1) - dim // 2
            diagonals = [
                rng.integers(-2, 3, dim) + 1j * rng.integers(-2, 3, dim),
                ramp + 0j,
                1j * ramp,
                np.resize([1 + 2j, -1 - 2j, 2 - 1j, -2 + 1j], dim),
            ]
            for diagonal in diagonals:
                form = kippenhahn_form(np.diag(diagonal))
                want = self.linear_form_product(diagonal)
                assert set(form.coefficients) == set(want), diagonal
                norm = np.max(np.abs(diagonal))
                for (i, j, k), value in want.items():
                    got = form.coefficients[(i, j, k)]
                    assert abs(got - value) <= 1e-12 * norm ** (j + k), diagonal

    def test_eigensolver_failure_is_reported(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        for routine in ("eigvalsh", "lstsq"):
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, routine, fail)
                with pytest.raises(EigenSolverError):
                    kippenhahn_form(np.array([[1.0, 2.0], [0.0, 1j]]))

    def test_kippenhahn_forms_are_hyperbolic(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            dim = int(rng.integers(2, 9))
            verdict = hyperbolicity_test(
                kippenhahn_form(random_complex_matrix(rng, dim)), 360
            )
            assert verdict.hyperbolic

    def test_pencil_root_matches_support_function(self):
        rng = np.random.default_rng(42)
        phis = TAU * np.arange(360) / 360
        for dim in (2, 3):
            b = random_complex_matrix(rng, dim)
            form = kippenhahn_form(b)
            poly = matrix_numerical_range(b, 360)
            supports = poly.support(phis)
            for idx in range(0, 360, 5):
                coeffs = restrict_to_direction(
                    form, -math.cos(phis[idx]), -math.sin(phis[idx])
                )
                _, roots = univariate_real_root_count(coeffs)
                assert abs(roots.real.max() - supports[idx]) <= 1e-7


class TestRootCounting:
    def test_witness_restriction(self):
        count, roots = univariate_real_root_count([16.0, 0.0, -72.0, 0.0, -27.0])
        assert count == 2
        real_root = math.sqrt((6.0 * math.sqrt(3.0) + 9.0) / 4.0)
        imag_root = math.sqrt((6.0 * math.sqrt(3.0) - 9.0) / 4.0)
        reals = sorted(z.real for z in roots if abs(z.imag) < 1e-9)
        assert np.allclose(reals, [-real_root, real_root], atol=1e-9)
        imags = sorted(z.imag for z in roots if abs(z.imag) >= 1e-9)
        assert np.allclose(imags, [-imag_root, imag_root], atol=1e-9)
        assert abs(real_root - 2.2018) < 1e-3

    def test_simple_quadratics(self):
        count, roots = univariate_real_root_count([1.0, 0.0, -1.0])
        assert count == 2 and np.allclose(sorted(roots.real), [-1.0, 1.0])
        count, roots = univariate_real_root_count([1.0, 0.0, 1.0])
        assert count == 0 and np.allclose(sorted(roots.imag), [-1.0, 1.0])

    def test_multiplicity_counted(self):
        count, roots = univariate_real_root_count([1.0, -1.0, 0.0, 0.0])
        assert count == 3
        assert np.allclose(np.sort(roots.real), [0.0, 0.0, 1.0], atol=1e-7)

    def test_leading_zeros_trimmed(self):
        count, roots = univariate_real_root_count([0.0, 0.0, 2.0, -2.0])
        assert count == 1 and abs(roots[0] - 1.0) < 1e-12

    def test_matches_scalar_companion_roots(self):
        rng = np.random.default_rng(46)
        for degree in range(1, 7):
            coeffs = rng.standard_normal(degree + 1)
            count, roots = univariate_real_root_count(coeffs)
            want_count, want_roots = scalar_root_count(coeffs, REAL_ROOT_RTOL)
            assert count == want_count
            assert roots.dtype == want_roots.dtype
            assert np.array_equal(roots, want_roots)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            univariate_real_root_count([0.0, 0.0])

    def test_constant_has_no_roots(self):
        count, roots = univariate_real_root_count([5.0])
        assert count == 0 and roots.size == 0

    def test_eigensolver_failure_is_reported(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(EigenSolverError):
            univariate_real_root_count([1.0, 0.0, -1.0])


class TestHyperbolicity:
    @staticmethod
    def loop_reference(form, direction_count, tol=REAL_ROOT_RTOL):
        """Direction by direction, in Python floats: the first failing
        direction whose largest |Im root| beats the running witness by a
        relative 1e-9 takes over."""
        angles = [TAU * j / direction_count for j in range(direction_count)]
        if not any(math.isclose(a, math.pi / 2.0, abs_tol=1e-15) for a in angles):
            angles.append(math.pi / 2.0)
        max_imag_seen = 0.0
        worst_failure = -1.0
        witness = None
        for angle in angles:
            x0, y0 = -math.cos(angle), -math.sin(angle)
            count, roots = scalar_root_count(scalar_restriction(form, x0, y0), tol)
            top_imag = float(np.max(np.abs(roots.imag)))
            max_imag_seen = max(max_imag_seen, top_imag)
            if count < form.degree and top_imag > worst_failure * (1.0 + 1e-9):
                worst_failure = top_imag
                witness = (angle, (x0, y0), roots)
        if witness is None:
            return HyperbolicityVerdict(True, max_imag_seen, direction_count, tol)
        angle, direction, roots = witness
        return HyperbolicityVerdict(
            False, worst_failure, direction_count, tol, angle, direction, roots
        )

    @staticmethod
    def scan_reference(values):
        """Value by value: one beating the pick by a relative 1e-9 takes over."""
        worst, pick = -1.0, None
        for idx, value in enumerate(values):
            if value > worst * (1.0 + 1e-9):
                worst, pick = value, idx
        return pick

    def test_witness_scan_matches_sequential_rule(self):
        # Steps of 0.6e-9 build near-tie chains: one step stays inside the
        # margin, two pass it.
        rng = np.random.default_rng(47)
        for _ in range(500):
            size = int(rng.integers(1, 16))
            values = rng.uniform(0.5, 1.5) * (1.0 + 0.6e-9) ** rng.integers(0, 7, size)
            values[rng.random(size) < 0.3] *= rng.uniform(0.0, 1.0)
            assert _witness_index(values) == self.scan_reference(values)
        ramp = np.linspace(1.0, 2.0, 1000)
        assert _witness_index(ramp) == self.scan_reference(ramp) == 999

    @pytest.mark.parametrize("direction_count", [1, 5, 7, 90, 720, 721])
    def test_dual_quartic_matches_loop_reference(self, direction_count):
        got = hyperbolicity_test(dual_quartic(), direction_count)
        want = self.loop_reference(dual_quartic(), direction_count)
        assert got.to_dict() == want.to_dict()

    def test_random_forms_match_loop_reference(self):
        rng = np.random.default_rng(43)
        forms = [random_form(rng, degree) for degree in range(1, 6) for _ in range(6)]
        forms += [kippenhahn_form(random_complex_matrix(rng, dim)) for dim in (2, 3, 4, 5)]
        verdicts = set()
        for form in forms:
            direction_count = int(rng.integers(3, 200))
            got = hyperbolicity_test(form, direction_count)
            want = self.loop_reference(form, direction_count)
            assert got.hyperbolic == want.hyperbolic
            assert got.witness_theta == want.witness_theta
            assert got.witness_direction == want.witness_direction
            assert got.max_imag == pytest.approx(want.max_imag, rel=1e-12, abs=1e-12)
            if not got.hyperbolic:
                gap = np.abs(got.witness_roots - want.witness_roots)
                assert np.all(gap <= 1e-12 * (1.0 + np.abs(want.witness_roots)))
            verdicts.add(got.hyperbolic)
        assert verdicts == {True, False}

    def test_oversized_direction_count_refused(self):
        count = BYTE_CAP // (16 * 25) + 1
        with pytest.raises(ValueError, match="cap"):
            hyperbolicity_test(dual_quartic(), count)
        with pytest.raises(ValueError, match="direction_count"):
            hyperbolicity_test(dual_quartic(), 0)

    def test_cone_form_hyperbolic(self):
        form = TernaryForm(
            degree=2, coefficients={(2, 0, 0): 1.0, (0, 2, 0): -1.0, (0, 0, 2): -1.0}
        )
        verdict = hyperbolicity_test(form, 90)
        assert verdict.hyperbolic
        assert verdict.direction_count == 90

    def test_dual_quartic_fails_at_vertical_witness(self):
        verdict = hyperbolicity_test(dual_quartic(), 720)
        assert not verdict.hyperbolic
        assert abs(verdict.witness_theta - math.pi / 2) <= 1e-12
        assert np.allclose(verdict.witness_direction, (0.0, -1.0), atol=1e-12)
        want_imag = math.sqrt((6.0 * math.sqrt(3.0) - 9.0) / 4.0)
        assert abs(verdict.max_imag - want_imag) <= 1e-9

    def test_witness_found_on_coarse_grids_too(self):
        # pi/2 is injected even when the grid misses it
        verdict = hyperbolicity_test(dual_quartic(), 5)
        assert not verdict.hyperbolic
        assert abs(verdict.witness_theta - math.pi / 2) <= 1e-12

    def test_degenerate_leading_coefficient_rejected(self):
        form = TernaryForm(degree=4, coefficients={(0, 4, 0): 1.0})
        with pytest.raises(ValueError):
            hyperbolicity_test(form)

    def test_verdict_dict_roundtrip(self):
        # The JSON text keeps every field bit for bit; complex roots are
        # written as [re, im] pairs.
        verdict = hyperbolicity_test(dual_quartic(), 90)
        doc = json.loads(json.dumps(verdict.to_dict()))
        assert doc["hyperbolic"] is verdict.hyperbolic is False
        assert doc["max_imag"] == verdict.max_imag
        assert (doc["direction_count"], doc["tol"]) == (90, verdict.tol)
        assert doc["witness_theta"] == verdict.witness_theta
        assert doc["witness_direction"] == list(verdict.witness_direction)
        roots = np.array(doc["witness_roots"])
        assert np.array_equal(roots[:, 0] + 1j * roots[:, 1], verdict.witness_roots)


class TestNonrepresentability:
    @staticmethod
    def boundary_loop_reference(count):
        """Ray by ray, 80 scalar bisection steps each."""
        quartic = boundary_quartic()
        center = np.array([-0.5, 0.0])
        points = [np.array([1.5, 0.0])]
        for idx in range(count - 1):
            angle = TAU * (idx + 0.37) / count
            direction = np.array([math.cos(angle), math.sin(angle)])

            def radial(r):
                p = center + r * direction
                return evaluate_form(quartic, 1.0, p[0], p[1])

            lo, hi = 0.0, 4.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if radial(mid) <= 0:
                    lo = mid
                else:
                    hi = mid
            points.append(center + 0.5 * (lo + hi) * direction)
        return np.asarray(points)

    @staticmethod
    def duality_loop_reference(points):
        """Largest |dual(unit tangent)| over the points, one point at a time."""
        worst = 0.0
        for x, y in points:
            tangent = scalar_gradient(boundary_quartic(), 1.0, float(x), float(y))
            tangent = tangent / np.linalg.norm(tangent)
            worst = max(worst, abs(evaluate_form(dual_quartic(), *tangent)))
        return worst

    @pytest.mark.parametrize("count", [0, 1, 2, 5, 24, 32, 100])
    def test_boundary_points_match_loop_reference(self, count):
        assert np.array_equal(quartic_boundary_points(count), self.boundary_loop_reference(count))

    @pytest.mark.parametrize("samples", [5, 32, 100])
    def test_duality_residual_matches_loop_reference(self, samples):
        report = nonrepresentability_report(direction_count=8, duality_samples=samples)
        want = self.duality_loop_reference(quartic_boundary_points(samples))
        assert abs(report.duality_max_residual - want) <= 1e-13

    def test_oversized_direction_count_refused_before_the_stages(self):
        with pytest.raises(ValueError, match="cap") as exc:
            nonrepresentability_report(direction_count=10**8)
        assert not isinstance(exc.value, PipelineStageError)

    def test_full_pipeline(self):
        report = nonrepresentability_report()
        assert not report.verdict.hyperbolic
        assert abs(report.verdict.witness_theta - math.pi / 2) <= 1e-12
        assert report.duality_max_residual <= 1e-6
        assert report.witness_real_count == 2
        assert np.allclose(
            report.witness_restriction, [16.0, 0.0, -72.0, 0.0, -27.0], atol=1e-12
        )
        assert "no finite matrix" in report.conclusion

    def test_duality_spot_check_at_rightmost_point(self):
        # tangent at (1.5, 0) from the gradient of the quartic is the
        # vertical line X = 1.5, i.e. direction proportional to (-3, 2, 0)
        quartic = boundary_quartic()
        grad = form_gradient(quartic, 1.0, 1.5, 0.0)
        assert np.allclose(grad / 32.0, [-3.0, 2.0, 0.0], atol=1e-12)
        unit = grad / np.linalg.norm(grad)
        assert abs(evaluate_form(dual_quartic(), *unit)) <= 1e-6

    def test_boundary_point_sampler(self):
        points = quartic_boundary_points(24)
        quartic = boundary_quartic()
        values = [evaluate_form(quartic, 1.0, x, y) for x, y in points]
        assert np.max(np.abs(values)) <= 1e-8
        assert np.allclose(points[0], (1.5, 0.0))

    def test_report_roundtrip(self):
        report = nonrepresentability_report(direction_count=90)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc == report.to_dict()
        assert doc["kind"] == "nonrepresentability-report"
        assert doc["verdict"] == report.verdict.to_dict()
        assert doc["quartic"] == boundary_quartic().to_dict()
        assert doc["dual"] == dual_quartic().to_dict()

    def test_stage_error_labelling(self):
        err = PipelineStageError("duality", "boom")
        assert err.stage == "duality"
        assert "duality" in str(err)
