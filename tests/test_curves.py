"""Ternary forms, the envelope identities, and hyperbolicity."""

import json
import math

import numpy as np
import pytest

from conftest import random_complex_matrix
from toeprange.curves import (
    NonrepresentabilityReport,
    evaluate_bivariate,
    PipelineStageError,
    TernaryForm,
    boundary_quartic,
    dual_quartic,
    ellipse_family,
    ellipse_family_residual,
    ellipse_point,
    envelope_residual,
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
from toeprange.operators import TAU
from toeprange.ranges import matrix_numerical_range


class TestTernaryForm:
    def test_exponents_must_sum_to_degree(self):
        with pytest.raises(ValueError):
            TernaryForm(degree=3, coefficients={(1, 1, 0): 1.0})

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            TernaryForm(degree=2, coefficients={(2, 0, 0): 0.0})

    def test_records_roundtrip(self):
        form = dual_quartic()
        again = TernaryForm.from_records(form.degree, form.to_records())
        assert again.coefficients == form.coefficients

    def test_homogeneity(self):
        rng = np.random.default_rng(40)
        form = boundary_quartic()
        for _ in range(20):
            t, x, y = rng.standard_normal(3)
            s = rng.uniform(0.1, 3.0)
            lhs = evaluate_form(form, s * t, s * x, s * y)
            rhs = s**form.degree * evaluate_form(form, t, x, y)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


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


class TestEllipseFamily:
    def test_alpha_at_one_zero(self):
        fam = ellipse_family()
        assert evaluate_bivariate(fam.alpha, 1.0, 0.0) == -8.0

    def test_beta_vanishes_on_real_axis(self):
        fam = ellipse_family()
        for x in (-2.0, -0.3, 0.0, 1.2, 4.0):
            assert evaluate_bivariate(fam.beta, x, 0.0) == 0.0

    def test_gamma_at_isolated_point(self):
        fam = ellipse_family()
        assert evaluate_bivariate(fam.gamma, 0.5, 0.0) == 0.0

    def test_envelope_residual_at_boundary_points(self):
        fam = ellipse_family()
        assert abs(envelope_residual(fam, 1.5, 0.0)) <= 1e-9
        assert abs(envelope_residual(fam, -2.5, 0.0)) <= 1e-9
        assert abs(envelope_residual(fam, 0.5, 0.0)) <= 1e-9

    def test_envelope_proportional_to_quartic_exactly(self):
        # alpha^2 + beta^2 - gamma^2 == -9 * L(1, X, Y), integer arithmetic
        disc = family_discriminant(ellipse_family())
        dehom = {}
        for (i, j, k), c in boundary_quartic().coefficients.items():
            dehom[(j, k)] = dehom.get((j, k), 0) - 9 * int(c)
        assert disc == dehom

    def test_envelope_residual_at_origin(self):
        # matches -9 * L(1, 0, 0) = -9 * (-15) = 135 = 16^2 - 11^2
        assert envelope_residual(ellipse_family(), 0.0, 0.0) == 135.0


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

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            univariate_real_root_count([0.0, 0.0])

    def test_constant_has_no_roots(self):
        count, roots = univariate_real_root_count([5.0])
        assert count == 0 and roots.size == 0


class TestHyperbolicity:
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
        verdict = hyperbolicity_test(dual_quartic(), 90)
        again = type(verdict).from_dict(json.loads(json.dumps(verdict.to_dict())))
        assert again.hyperbolic == verdict.hyperbolic
        assert again.witness_theta == verdict.witness_theta
        assert np.allclose(again.witness_roots, verdict.witness_roots)


class TestNonrepresentability:
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
        again = NonrepresentabilityReport.from_dict(doc)
        assert again.to_dict() == report.to_dict()

    def test_stage_error_labelling(self):
        err = PipelineStageError("duality", "boom")
        assert err.stage == "duality"
        assert "duality" in str(err)
