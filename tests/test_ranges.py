"""Support sweeps, convex hulls, and range assembly."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import random_complex_matrix, random_unit_vector
from toeprange import ranges
from toeprange.operators import (
    TAU,
    PeriodicBandedSpec,
    SpecError,
    counterexample_spec,
    free_jacobi_spec,
    load_spec,
    random_spec,
    symbol,
    symbol_batch,
    truncation,
)
from toeprange.ranges import (
    ConvexPolygon,
    RangeReport,
    _batched_support,
    _check_sweep_size,
    angular_resolution_gap,
    convex_hull,
    hausdorff_distance,
    matrix_numerical_range,
    operator_range,
    selfadjoint_interval,
    truncation_inclusion_check,
)

SELFADJOINT_PERIOD3 = os.path.join(
    os.path.dirname(__file__), "..", "specs", "selfadjoint_period3.json"
)


def reference_rows(report):
    """Flat-table rows as a (k, 5) array built the way the structured sample
    table was: the angle grids repeated and tiled, then the sample columns."""
    thetas = TAU * np.arange(report.theta_count) / report.theta_count
    phis = TAU * np.arange(report.phi_count) / report.phi_count
    n = len(report.samples)
    return np.column_stack(
        [
            np.repeat(thetas, report.phi_count)[:n],
            np.tile(phis, report.theta_count)[:n],
            report.samples,
        ]
    )


def reference_table(report) -> str:
    lines = ["theta phi support_value x y"] + [
        " ".join(f"{float(v):.17g}" for v in row) for row in reference_rows(report)
    ]
    return "\n".join(lines) + "\n"


def support_function(a, phi: float) -> tuple[float, tuple[float, float]]:
    """Reference support value of W(A) in direction ``phi`` and a boundary
    point attaining it, one matrix and one direction at a time: the top
    eigenpair of (e^{-i phi}A + e^{i phi}A*)/2 and the eigenvector's
    Rayleigh value."""
    m = np.asarray(a, dtype=complex)
    rotated = np.exp(-1j * phi) * m
    values, vectors = np.linalg.eigh(0.5 * (rotated + rotated.conj().T))
    top = vectors[:, -1]
    z = complex(np.vdot(top, m @ top))
    return float(values[-1]), (z.real, z.imag)


class TestSupportFunction:
    def test_nilpotent_disk(self):
        # W([[0, 2], [0, 0]]) is the closed disk of radius 1
        support, _ = support_function([[0.0, 2.0], [0.0, 0.0]], 0.0)
        assert abs(support - 1.0) < 1e-12
        # independent oracle: random Rayleigh values never exceed the
        # support and come arbitrarily close to it
        rng = np.random.default_rng(30)
        a = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
        best = -np.inf
        for _ in range(4000):
            v = random_unit_vector(rng, 2)
            best = max(best, np.vdot(v, a @ v).real)
        assert best <= support + 1e-12
        assert best > support - 1e-2

    def test_normal_matrix(self):
        support, point = support_function(np.diag([0.0, 3.0]), 0.0)
        assert abs(support - 3.0) < 1e-12
        assert np.allclose(point, (3.0, 0.0), atol=1e-12)

    def test_counterexample_symbol_at_zero(self):
        # the parametrized boundary ellipse of Phi(0) has max X = 1.5
        support, _ = support_function(symbol(counterexample_spec(), 0.0), 0.0)
        assert abs(support - 1.5) < 1e-12
        ts = np.linspace(0.0, TAU, 2000)
        param_max = np.max(np.cos(0.0) + 0.5 * np.cos(ts))
        assert abs(support - param_max) < 1e-6

    def test_boundary_point_attains_support(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            phi = rng.uniform(0, TAU)
            support, (x, y) = support_function(a, phi)
            attained = x * math.cos(phi) + y * math.sin(phi)
            assert attained >= support - 1e-9 * (1 + abs(support))


class TestBatchedSupport:
    @pytest.mark.parametrize("phi_count", [8, 7, 721])
    def test_matches_per_direction_reference(self, phi_count):
        # Even grids fill direction j + P/2 from the solve at j; odd grids
        # solve every direction.  Both must agree with support_function.
        rng = np.random.default_rng(38)
        mats = np.stack([random_complex_matrix(rng, 4) for _ in range(3)])
        mats = np.concatenate([mats, np.diag([1.0, 1j, -1.0, 2.0])[None]])
        tol = 1e-12 * (1.0 + np.max(np.abs(mats)))
        phis = TAU * np.arange(phi_count) / phi_count
        sweep = _batched_support(mats, phi_count, want_points=True)
        values_only = _batched_support(mats, phi_count, want_points=False)
        assert sweep.shape == (len(mats), phi_count, 3)
        assert values_only.shape == (len(mats), phi_count, 1)
        supports, points = sweep[..., 0], sweep[..., 1:]
        assert np.max(np.abs(values_only[..., 0] - supports)) <= tol
        for b, mat in enumerate(mats):
            reference = [support_function(mat, phi)[0] for phi in phis]
            assert np.max(np.abs(supports[b] - reference)) <= tol
            attained = points[b, :, 0] * np.cos(phis) + points[b, :, 1] * np.sin(phis)
            assert np.max(np.abs(attained - supports[b])) <= tol

    def test_solves_half_the_directions_on_even_grids(self, monkeypatch):
        solved = {"eigh": 0, "eigvalsh": 0}

        def counting(name, solver):
            def wrapped(h, *args, **kwargs):
                solved[name] += int(np.prod(np.shape(h)[:-2]))
                return solver(h, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        spec = counterexample_spec()
        for theta_count, phi_count, expected in ((9, 41, 9 * 41), (9, 40, 9 * 20)):
            solved["eigh"] = 0
            report = operator_range(spec, theta_count, phi_count)
            assert solved == {"eigh": expected, "eigvalsh": 0}
        truncation_inclusion_check(spec, 12, report)
        assert solved["eigvalsh"] == 20


class TestMatrixNumericalRange:
    def test_normal_triangle(self):
        poly = matrix_numerical_range(np.diag([1.0, 1j, -1.0]), 720)
        triangle = ConvexPolygon(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert hausdorff_distance(poly, triangle) <= 1e-6

    def test_counterexample_ellipse(self):
        poly = matrix_numerical_range(symbol(counterexample_spec(), 0.0), 720)
        ys = poly.vertices[:, 1]
        xs = poly.vertices[:, 0]
        assert abs(ys.max() - 1.5) <= 1e-4
        assert abs(ys.min() + 1.5) <= 1e-4
        assert abs(xs.max() - 1.5) <= 1e-4
        assert abs(xs.min() - 0.5) <= 1e-4

    def test_single_point(self):
        poly = matrix_numerical_range(np.array([[2.0 - 1j]]), 16)
        assert poly.vertices.shape == (1, 2)
        assert np.allclose(poly.vertices[0], (2.0, -1.0), atol=1e-14)

    def test_phi_count_validation(self):
        with pytest.raises(ValueError):
            matrix_numerical_range(np.eye(2), 2)


class TestConvexHull:
    def test_triangle_with_interior_point(self):
        poly = convex_hull([(0, 0), (1, 0), (0, 1), (0.2, 0.2)])
        assert poly.vertices.shape == (3, 2)
        assert {tuple(v) for v in poly.vertices} == {(0, 0), (1, 0), (0, 1)}

    def test_all_points_identical(self):
        poly = convex_hull([(1.5, -2.0)] * 7)
        assert poly.vertices.shape == (1, 2)

    def test_collinear_points(self):
        poly = convex_hull([(0, 0), (1, 1), (2, 2), (0.5, 0.5)])
        assert poly.vertices.shape == (2, 2)

    def test_collinear_points_keep_the_segment_ends(self):
        # Rounding noise in x sorts the middle of the segment x = 1 first.
        pts = [(1.0, 0.0), (1.0 + 1e-16, -2.0), (1.0 - 1e-16, 2.0), (1.0, 1.0)]
        poly = convex_hull(pts)
        assert sorted(poly.vertices[:, 1]) == [-2.0, 2.0]

    def test_random_disk_containment(self):
        rng = np.random.default_rng(32)
        pts = rng.standard_normal((1000, 2))
        pts /= np.maximum(1.0, np.hypot(pts[:, 0], pts[:, 1]))[:, None]
        poly = convex_hull(pts)
        worst = max(poly.violation(p) for p in pts)
        assert worst <= 1e-9

    def test_counterclockwise(self):
        poly = convex_hull([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
        v = poly.vertices
        area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        assert area2 > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convex_hull(np.zeros((0, 2)))


class TestHausdorff:
    def test_identical(self):
        poly = convex_hull([(0, 0), (1, 0), (0, 1)])
        assert hausdorff_distance(poly, poly) == 0.0

    def test_shifted_square(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        p = convex_hull(square)
        q = convex_hull([(x + 0.25, y) for x, y in square])
        assert abs(hausdorff_distance(p, q) - 0.25) <= 1e-12

    def test_concentric_disks(self):
        ts = TAU * np.arange(500) / 500
        p = convex_hull(np.stack([np.cos(ts), np.sin(ts)], axis=1))
        q = convex_hull(np.stack([1.1 * np.cos(ts), 1.1 * np.sin(ts)], axis=1))
        assert abs(hausdorff_distance(p, q) - 0.1) <= 1e-3

    def test_point_vs_polygon(self):
        point = ConvexPolygon(np.array([[0.0, 0.0]]))
        square = convex_hull([(1, -1), (2, -1), (2, 1), (1, 1)])
        assert abs(hausdorff_distance(point, square) - math.hypot(2, 1)) <= 1e-2


class TestDiameter:
    def test_upper_bound_on_many_vertices(self):
        # A thin ellipse whose major axis lies midway between two of the
        # 720 grid directions; its diameter 2 sits between vertices 0 and 150.
        t = TAU * np.arange(300) / 300
        x, y = np.cos(t), 1e-3 * np.sin(t)
        a = math.pi / 720
        vertices = np.stack(
            [x * math.cos(a) - y * math.sin(a), x * math.sin(a) + y * math.cos(a)], axis=1
        )
        diffs = vertices[:, None, :] - vertices[None, :, :]
        exact = float(np.max(np.hypot(diffs[..., 0], diffs[..., 1])))
        got = ConvexPolygon(vertices).diameter()
        # An upper bound up to rounding, and within the grid factor of exact.
        assert got >= exact * (1 - 4 * np.finfo(float).eps)
        assert got <= exact / math.cos(math.pi / 720) * (1 + 4 * np.finfo(float).eps)


class TestOperatorRange:
    def test_counterexample_vertices_on_quartic(self):
        from toeprange.curves import boundary_quartic, evaluate_form

        report = operator_range(counterexample_spec(), 360, 360)
        v = report.polygon.vertices
        residual = np.abs(evaluate_form(boundary_quartic(), 1.0, v[:, 0], v[:, 1]))
        residual /= 1.0 + np.hypot(v[:, 0], v[:, 1]) ** 4
        assert residual.max() <= 5e-3
        assert abs(v[:, 0].max() - 1.5) <= 1e-3
        assert abs(v[:, 0].min() + 2.5) <= 1e-3

    def test_scalar_spec_single_point(self):
        spec = PeriodicBandedSpec(period=1, band=0, diagonals={0: [0.5 + 0.25j]})
        report = operator_range(spec, 8, 8)
        assert report.polygon.vertices.shape == (1, 2)
        assert np.allclose(report.polygon.vertices[0], (0.5, 0.25), atol=1e-12)

    def test_segment_range_of_a_scalar_symbol(self):
        # The symbol 1 + 2i cos(theta) sweeps the segment from 1 - 2i to 1 + 2i.
        spec = PeriodicBandedSpec(1, 1, {-1: [1j], 0: [1.0], 1: [1j]})
        v = operator_range(spec, 24, 24).polygon.vertices
        assert v.shape == (2, 2)
        assert np.allclose(sorted(v[:, 1]), [-2.0, 2.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "diagonals",
        [
            {1: [0.0, 1e-5j]},
            {-1: [1.875 + 0.5j, 1.25 - 1.5j], 0: [1j, 1j], 1: [-1.25 - 1.5j, 1.0 - 1.578125j]},
        ],
    )
    def test_polygon_support_is_sampled_support_on_the_grid(self, diagonals):
        spec = PeriodicBandedSpec(2, 1, diagonals)
        report = operator_range(spec, 24, 24)
        phis = TAU * np.arange(24) / 24
        sampled = report.samples[:, 0].reshape(24, 24).max(axis=0)
        gap = np.max(np.abs(report.polygon.support(phis) - sampled))
        assert gap <= 1e-9 * (1.0 + spec.max_entry())

    def test_polygon_is_hull_of_samples(self):
        report = operator_range(counterexample_spec(), 40, 40)
        again = convex_hull(report.samples[:, 1:])
        assert hausdorff_distance(report.polygon, again) <= 1e-12

    def test_polygon_is_exact_hull_of_samples(self):
        # operator_range screens interior samples out before the hull; the
        # polygon must equal the hull of every sample bit for bit, including
        # the cases where the screening polygon degenerates.
        rng = np.random.default_rng(37)
        cases = [
            (random_spec(rng, int(rng.integers(2, 9)), int(rng.integers(0, 5))), 40, 60)
            for _ in range(6)
        ]
        cases += [
            (load_spec(SELFADJOINT_PERIOD3), 40, 40),
            (PeriodicBandedSpec(period=1, band=0, diagonals={0: [0.5 + 0.25j]}), 8, 8),
            (counterexample_spec(), 180, 180),
            (counterexample_spec(), 90, 91),
        ]
        for spec, theta_count, phi_count in cases:
            report = operator_range(spec, theta_count, phi_count)
            full = convex_hull(report.samples[:, 1:])
            assert np.array_equal(report.polygon.vertices, full.vertices)

    def test_rayleigh_containment(self):
        rng = np.random.default_rng(33)
        spec = counterexample_spec()
        report = operator_range(spec, 360, 360)
        thetas = TAU * rng.integers(0, 360, 60) / 360
        symbols = symbol_batch(spec, thetas)
        worst = -np.inf
        for mat in symbols:
            w = random_unit_vector(rng, mat.shape[0])
            z = np.vdot(w, mat @ w)
            worst = max(worst, report.polygon.violation((z.real, z.imag)))
        assert worst <= 1e-6

    def test_refinement_never_shrinks(self):
        spec = counterexample_spec()
        coarse = operator_range(spec, 90, 90).polygon
        fine = operator_range(spec, 180, 180).polygon
        phis = TAU * np.arange(720) / 720
        assert np.min(fine.support(phis) - coarse.support(phis)) >= -1e-9

    def test_affine_equivariance(self):
        rng = np.random.default_rng(34)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        shift = 0.75
        k = 45  # rotation by a grid angle so supports align exactly
        psi = TAU * k / 360
        poly = matrix_numerical_range(a, 360)
        rotated = matrix_numerical_range(np.exp(1j * psi) * a + shift * np.eye(3), 360)
        phis = TAU * np.arange(360) / 360
        base = poly.support((phis - psi) % TAU)
        got = rotated.support(phis)
        assert np.max(np.abs(got - (base + shift * np.cos(phis)))) <= 1e-8

    def test_normality_reduction(self):
        rng = np.random.default_rng(35)
        values = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        poly = matrix_numerical_range(np.diag(values), 720)
        spectrum = convex_hull(np.stack([values.real, values.imag], axis=1))
        assert hausdorff_distance(poly, spectrum) <= 1e-6

    def test_selfadjoint_collapse(self):
        rng = np.random.default_rng(36)
        spec = random_spec(rng, 2, 1, selfadjoint=True)
        report = operator_range(spec, 180, 180)
        v = report.polygon.vertices
        assert np.max(np.abs(v[:, 1])) <= 1e-6
        a, b = selfadjoint_interval(spec, 180)
        assert abs(v[:, 0].min() - a) <= 1e-6
        assert abs(v[:, 0].max() - b) <= 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            operator_range(counterexample_spec(), 0, 8)
        with pytest.raises(ValueError):
            operator_range(counterexample_spec(), 8, 2)

    def test_sweep_working_set(self):
        # Eigensolve stacks of 2^18 entries take 4 MiB each and the 64,800
        # samples 1.6 MB; stacks of 2,000,000 entries would exceed the bound.
        spec = random_spec(np.random.default_rng(0), 8, 4)
        tracemalloc.start()
        try:
            operator_range(spec, 90, 720)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_counterexample_sweep_working_set(self):
        # The 518,400 (support, x, y) rows take 12.4 MB and the hull's
        # working copies about as much again; a second, 40-byte-per-row
        # sample table would push the peak past the bound.
        tracemalloc.start()
        try:
            operator_range(counterexample_spec(), 720, 720)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_oversized_sweep_refused_before_allocating(self):
        # Raised from the estimate: a 2 x 10^13 sweep would need ~1.3 PB.
        with pytest.raises(ValueError, match="cap"):
            operator_range(counterexample_spec(), 2, 10**13)
        with pytest.raises(ValueError, match="cap"):
            selfadjoint_interval(free_jacobi_spec(), 10**13)
        with pytest.raises(ValueError, match="cap"):
            _check_sweep_size(4096, 720, 3)
        # The grids of the tests, demos and benchmark stay admitted.
        _check_sweep_size(16, 720, 720)
        _check_sweep_size(1, 2000, 0)


class TestSelfadjointInterval:
    def test_free_jacobi(self):
        a, b = selfadjoint_interval(free_jacobi_spec(), 720)
        assert abs(a + 2.0) <= 1e-6
        assert abs(b - 2.0) <= 1e-6
        # oracle: extreme eigenvalues of a large truncation approach +-2
        t_n = truncation(free_jacobi_spec(), 500)
        assert np.array_equal(t_n, t_n.conj().T)
        values = np.linalg.eigvalsh(t_n)
        assert abs(values[0] - a) <= 1e-3
        assert abs(values[-1] - b) <= 1e-3

    def test_scalar(self):
        spec = PeriodicBandedSpec(period=1, band=0, diagonals={0: [0.7]})
        assert selfadjoint_interval(spec, 16) == (0.7, 0.7)

    def test_diagonal_period_two(self):
        spec = PeriodicBandedSpec(period=2, band=1, diagonals={0: [-0.5, 2.0]})
        a, b = selfadjoint_interval(spec, 64)
        assert abs(a + 0.5) <= 1e-12
        assert abs(b - 2.0) <= 1e-12

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(SpecError):
            selfadjoint_interval(counterexample_spec(), 16)

    def test_chunked_solve_gives_equal_endpoints(self, monkeypatch):
        rng = np.random.default_rng(37)
        specs = [free_jacobi_spec(), random_spec(rng, 5, 3, selfadjoint=True)]
        whole = [selfadjoint_interval(spec, 97) for spec in specs]
        monkeypatch.setattr(ranges, "_CHUNK_ENTRY_BUDGET", 16)
        assert [selfadjoint_interval(spec, 97) for spec in specs] == whole


class TestTruncationInclusion:
    def test_counterexample_inclusion(self):
        spec = counterexample_spec()
        report = operator_range(spec, 360, 360)
        bound = angular_resolution_gap(report.polygon, 360) + 1e-8
        for n in (10, 25, 40):
            assert truncation_inclusion_check(spec, n, report) <= bound

    def test_single_entry_truncation(self):
        spec = counterexample_spec()
        report = operator_range(spec, 90, 90)
        # W(T_1) is the single point a_0^(0) = 0
        assert truncation_inclusion_check(spec, 1, report) <= 1e-8

    def test_nested_truncation_monotonicity(self):
        spec = counterexample_spec()
        phis = TAU * np.arange(360) / 360
        for n in (6, 12, 24):
            inner = matrix_numerical_range(truncation(spec, n), 360)
            outer = matrix_numerical_range(truncation(spec, n + spec.period), 360)
            gap = np.max(inner.support(phis) - outer.support(phis))
            assert gap <= 1e-9


class TestRangeReport:
    def test_dict_roundtrip(self):
        report = operator_range(counterexample_spec(), 12, 12)
        doc = json.loads(json.dumps(report.to_dict()))
        assert set(doc) == {"kind", "theta_count", "phi_count", "residual_summary", "polygon"}
        again = RangeReport.from_dict(doc)
        assert again.theta_count == report.theta_count
        assert again.phi_count == report.phi_count
        assert again.residual_summary == report.residual_summary
        assert np.array_equal(again.polygon.vertices, report.polygon.vertices)
        assert again.samples.shape == (0, 3) and again.samples.dtype == report.samples.dtype

    def test_empty_samples_roundtrip(self):
        report = operator_range(counterexample_spec(), 4, 4)
        doc = report.to_dict()
        report.samples = report.samples[:0]
        assert report.to_dict() == doc
        again = RangeReport.from_dict(doc)
        assert again.samples.shape == (0, 3) and again.samples.dtype == report.samples.dtype
        assert again.to_dict() == doc
        assert report.flat_table() == "theta phi support_value x y\n"

    def test_from_dict_rejects_malformed_rows(self):
        doc = operator_range(counterexample_spec(), 4, 5).to_dict()
        edits = [
            {"kind": "counterexample-report"},
            {"polygon": [[0.0, 0.0, 1.0]]},
            {"polygon": []},
            {"polygon": [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]},  # clockwise
            {"polygon": [[0.0, float("nan")]]},
        ]
        for edit in edits:
            with pytest.raises(ValueError):
                RangeReport.from_dict({**doc, **edit})

    def test_flat_table_matches_row_formatting(self):
        report = operator_range(counterexample_spec(), 9, 11)
        assert report.samples.shape == (9 * 11, 3)
        assert report.flat_table() == reference_table(report)

    @pytest.mark.parametrize("n_samples", [0, 1, 3, 4, 5, 9])
    def test_chunked_writers_match_references(self, monkeypatch, n_samples):
        monkeypatch.setattr(ranges, "_ROW_CHUNK", 4)
        report = operator_range(counterexample_spec(), 3, 4)
        report.samples = report.samples[:n_samples]
        assert report.flat_table() == reference_table(report)

    def test_flat_table_angles_are_the_repeated_grids(self, monkeypatch):
        # Chunks of 4 rows cut the theta rows of P = 7 directions mid-row.
        monkeypatch.setattr(ranges, "_ROW_CHUNK", 4)
        report = operator_range(counterexample_spec(), 5, 7)
        table = np.array(
            [[float(v) for v in line.split()] for line in report.flat_table().splitlines()[1:]]
        )
        reference = reference_rows(report)
        assert table.shape == reference.shape == (5 * 7, 5)
        assert table.tobytes() == reference.tobytes()

    def test_flat_table_shape(self):
        report = operator_range(counterexample_spec(), 5, 7)
        lines = report.flat_table().strip().split("\n")
        assert lines[0] == "theta phi support_value x y"
        assert len(lines) == 1 + 5 * 7 == 1 + len(report.samples)
        assert all(len(line.split()) == 5 for line in lines[1:])

    def test_support_attainment_residual(self):
        report = operator_range(counterexample_spec(), 30, 30)
        assert report.residual_summary["support_attainment_gap"] <= 1e-9
