"""Support sweeps, convex hulls, and range assembly."""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

from conftest import grid_supports, random_complex_matrix, random_unit_vector
from toeprange import cli, ranges
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
    symbol_harmonics,
    truncation,
)
from toeprange.ranges import (
    REFINE_BUDGET,
    SUPPORT_RTOL,
    ConvexPolygon,
    RangeReport,
    _antipodes,
    _check_sweep_size,
    _curvature,
    _extreme_eigs,
    _solved_count,
    _table_text,
    convex_hull,
    flat_table,
    hausdorff_distance,
    matrix_numerical_range,
    operator_range,
    selfadjoint_interval,
    truncation_inclusion_check,
)

SELFADJOINT_PERIOD3 = os.path.join(
    os.path.dirname(__file__), "..", "specs", "selfadjoint_period3.json"
)


def svg_overlays(name, overlay_count, phi_count):
    """``range --format svg`` of ``specs/<name>.json`` with ``overlay_count``
    symbol-range overlays, over a 16-angle sweep so that they dominate."""
    path = os.path.join(os.path.dirname(__file__), "..", "specs", f"{name}.json")
    with tempfile.TemporaryDirectory() as tmp:
        cli.cmd_range(argparse.Namespace(
            spec=path, format="svg", theta_count=16, phi_count=phi_count,
            overlay_thetas=overlay_count, out=os.path.join(tmp, "range.svg"),
        ))


def uniform_sweep(spec, theta_count, phi_count):
    """The uniform sweep's theta-major (support, x, y) rows: one
    ``_extreme_eigs`` solve per symbol, with its boundary points."""
    thetas = TAU * np.arange(theta_count) / theta_count
    pairs = np.arange(_solved_count(phi_count))
    table = []
    for mat in symbol_batch(spec, thetas):
        solved = _extreme_eigs(mat, TAU * pairs / phi_count, lambda rows: mat)
        directions, supports, points = _antipodes(pairs, phi_count, *solved)
        assert np.array_equal(directions, np.arange(phi_count))
        table.append(np.column_stack([supports, points]))
    return np.concatenate(table)


def reference_rows(samples, theta_count, phi_count):
    """Flat-table rows as a (k, 5) array built the way the structured sample
    table was: the angle grids repeated and tiled, then the sample columns."""
    thetas = TAU * np.arange(theta_count) / theta_count
    phis = TAU * np.arange(phi_count) / phi_count
    n = len(samples)
    return np.column_stack(
        [np.repeat(thetas, phi_count)[:n], np.tile(phis, theta_count)[:n], samples]
    )


def reference_table(samples, theta_count, phi_count) -> str:
    lines = ["theta phi support_value x y"] + [
        " ".join(f"{float(v):.17g}" for v in row)
        for row in reference_rows(samples, theta_count, phi_count)
    ]
    return "\n".join(lines) + "\n"


def theta_reference(spec, phi_count, theta_count=4096):
    """Largest support over a fine uniform theta grid, per direction, from
    eigenvalues alone."""
    thetas = TAU * np.arange(theta_count) / theta_count
    return np.max([grid_supports(mat, phi_count) for mat in symbol_batch(spec, thetas)], axis=0)


def band_width(spec) -> float:
    """What the certified band [support, upper] may span: the refinement
    tolerance plus the rounding allowance."""
    norms = np.sqrt(np.sum(np.abs(symbol_harmonics(spec)) ** 2, axis=(1, 2)))
    return (SUPPORT_RTOL + 1e-13 * spec.period) * (1.0 + float(np.sum(norms)))


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


def fejer_spec(peak: float, order: int = 24) -> PeriodicBandedSpec:
    """Period-1 scalar symbol sum_r (1 - |r|/(order + 1)) e^{ir(theta - peak)},
    the Fejer kernel: real, at least 0, with one sharp maximum order + 1 at
    ``peak``."""
    diagonals = {
        r: [(1.0 - abs(r) / (order + 1)) * np.exp(-1j * r * peak)]
        for r in range(-order, order + 1)
    }
    return PeriodicBandedSpec(1, order, diagonals)


def rotated(spec: PeriodicBandedSpec, angle: float) -> PeriodicBandedSpec:
    """The spec times e^{i angle}: its range turned by ``angle``."""
    diagonals = {r: np.exp(1j * angle) * seq for r, seq in spec.diagonals.items()}
    return PeriodicBandedSpec(spec.period, spec.band, diagonals)


PERIOD8 = random_spec(np.random.default_rng(0), 8, 4)
# The symbol [[0, e^{-i theta}], [e^{i theta}, 0]] has eigenvalues +-1 at
# every theta, so no interval ever meets the tolerance.
THETA_FLAT = PeriodicBandedSpec(2, 1, {1: [0.0, 1.0], -1: [1.0, 0.0]})
# Peak value 25 between two start angles in direction 3 of 360: its sharp
# peak spends the whole REFINE_BUDGET.
ROTATED_FEJER = rotated(fejer_spec(TAU * 0.5 / 16), TAU * 3 / 360)


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
        pairs = np.arange(_solved_count(phi_count))
        for mat in mats:
            solved = _extreme_eigs(mat, phis[pairs], lambda rows: mat)
            directions, supports, points = _antipodes(pairs, phi_count, *solved)
            assert np.array_equal(directions, np.arange(phi_count))
            assert supports.shape == (phi_count,) and points.shape == (phi_count, 2)
            values_only = grid_supports(mat, phi_count)
            assert np.max(np.abs(values_only - supports)) <= tol
            reference = [support_function(mat, phi)[0] for phi in phis]
            assert np.max(np.abs(supports - reference)) <= tol
            attained = points[:, 0] * np.cos(phis) + points[:, 1] * np.sin(phis)
            assert np.max(np.abs(attained - supports)) <= tol

    def test_solves_half_the_directions_on_even_grids(self, monkeypatch):
        solved = {"eigh": 0, "eigvalsh": 0}

        def counting(name, solver):
            def wrapped(h, *args, **kwargs):
                solved[name] += int(np.prod(np.shape(h)[:-2]))
                return solver(h, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        # Without refinement the branch and bound solves only its start grid,
        # once per direction pair; the boundary points take one eigh per
        # direction, at that direction's own best theta.
        monkeypatch.setattr(ranges, "REFINE_BUDGET", 0)
        spec = counterexample_spec()
        for theta_count, phi_count, pairs in ((9, 41, 41), (9, 40, 20)):
            solved.update(eigh=0, eigvalsh=0)
            report = operator_range(spec, theta_count, phi_count)
            assert solved == {"eigh": phi_count, "eigvalsh": theta_count * pairs}
        solved.update(eigh=0, eigvalsh=0)
        truncation_inclusion_check(spec, 12, report)
        assert solved["eigh"] == 0 and 0 < solved["eigvalsh"] <= 20
        # The start grid's bounds alone are sound.
        assert np.all(theta_reference(spec, 40, 512) <= report.upper)
        # The uniform sweeps solve each antipodal pair once per matrix.
        for theta_count, phi_count, pairs in ((9, 40, 20), (9, 41, 41)):
            solved.update(eigh=0, eigvalsh=0)
            flat_table(spec, theta_count, phi_count)
            assert solved == {"eigh": theta_count * pairs, "eigvalsh": 0}
        solved.update(eigh=0, eigvalsh=0)
        matrix_numerical_range(symbol(spec, 0.3), 40)
        assert solved == {"eigh": 20, "eigvalsh": 0}


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
        assert abs(hausdorff_distance(p, q) - 0.1) <= 1e-12

    def test_point_vs_polygon(self):
        point = ConvexPolygon(np.array([[0.0, 0.0]]))
        square = convex_hull([(1, -1), (2, -1), (2, 1), (1, 1)])
        assert abs(hausdorff_distance(point, square) - math.hypot(2, 1)) <= 1e-12

    def test_corner_between_grid_directions(self):
        # The corner 0.5 + 0.002i of this normal symbol's triangle has a
        # normal cone between two of the 720 directions, so the sweep's
        # polygon is the segment [0, 1] and misses it by 0.002.
        rotation = np.exp(1j * math.radians(0.25))
        corners = rotation * np.array([0.0, 1.0, 0.5 + 0.002j])
        spec = PeriodicBandedSpec(period=3, band=0, diagonals={0: list(corners)})
        polygon = operator_range(spec, 8, 720).polygon
        assert polygon.vertices.shape == (2, 2)
        triangle = ConvexPolygon(np.stack([corners.real, corners.imag], axis=1))
        assert abs(hausdorff_distance(polygon, triangle) - 0.002) <= 1e-12
        assert abs(hausdorff_distance(triangle, polygon) - 0.002) <= 1e-12


class TestViolation:
    def test_outside_a_corner_is_the_euclidean_distance(self):
        square = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        assert abs(square.violation((2.0, 2.0)) - math.sqrt(2)) <= 1e-15
        assert abs(square.violation((2.0, 0.5)) - 1.0) <= 1e-15
        assert square.violation((0.5, 0.25)) == -0.25

    def test_segment_and_point(self):
        segment = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert abs(segment.violation((2.0, 1.0)) - math.sqrt(2)) <= 1e-15
        assert segment.violation((0.5, -0.25)) == 0.25
        point = ConvexPolygon(np.array([[1.0, -1.0]]))
        assert point.violation((4.0, 3.0)) == 5.0


class TestDiameter:
    def test_exact_on_many_vertices(self):
        # A thin ellipse with 300 vertices, more than four blocks of rows,
        # tilted by pi/720; its diameter 2 sits between vertices 0 and 150.
        t = TAU * np.arange(300) / 300
        x, y = np.cos(t), 1e-3 * np.sin(t)
        a = math.pi / 720
        vertices = np.stack(
            [x * math.cos(a) - y * math.sin(a), x * math.sin(a) + y * math.cos(a)], axis=1
        )
        diffs = vertices[:, None, :] - vertices[None, :, :]
        exact = float(np.max(np.hypot(diffs[..., 0], diffs[..., 1])))
        got = ConvexPolygon(vertices).diameter()
        assert abs(got - exact) <= 4 * np.finfo(float).eps * exact


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
        # On the direction grid the polygon's support lies in the certified
        # band [support, upper], which is at most the refinement tolerance
        # wide and holds the largest support over a fine theta grid.
        spec = PeriodicBandedSpec(2, 1, diagonals)
        report = operator_range(spec, 24, 24)
        phis = TAU * np.arange(24) / 24
        support = report.polygon.support(phis)
        tol = 1e-12 * (1.0 + spec.max_entry())
        assert np.all(support >= report.samples[:, 0] - tol)
        assert np.all(support <= report.upper + tol)
        assert np.all(report.upper - report.samples[:, 0] <= band_width(spec))
        assert np.all(theta_reference(spec, 24) <= report.upper)

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

    @pytest.mark.parametrize(
        "sweep, spec, theta_count, phi_count",
        [
            # The table's text dominates the first, the eigensolve chunk and
            # the row formatting the second.
            (flat_table, counterexample_spec(), 300, 300),
            (flat_table, random_spec(np.random.default_rng(0), 8, 4), 90, 72),
            # The start grid's values dominate the first, the eigensolve
            # chunks the second, the bisection's intervals the Fejer cases
            # and the odd grid of the theta-flat symbol, one target each
            # and more intervals than 2 * REFINE_BUDGET.
            (operator_range, counterexample_spec(), 360, 360),
            (operator_range, PERIOD8, 90, 720),
            (operator_range, ROTATED_FEJER, 16, 360),
            (operator_range, ROTATED_FEJER, 90, 720),
            (operator_range, THETA_FLAT, 600, 1001),
            # The overlays' vertices and path text, over 140 x 360 samples.
            (svg_overlays, "counterexample", 140, 360),
        ],
    )
    def test_size_check_charges_the_peak(self, monkeypatch, sweep, spec, theta_count, phi_count):
        tracemalloc.start()
        try:
            sweep(spec, theta_count, phi_count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The estimate is at least the peak: a cap one byte below refuses it,
        # by the check of this sweep's own grid.
        monkeypatch.setattr(ranges, "SWEEP_BYTE_CAP", peak - 1)
        grid = f"over {theta_count} symbol angles and {phi_count} directions .* cap"
        with pytest.raises(ValueError, match=grid):
            sweep(spec, theta_count, phi_count)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: operator_range(PERIOD8, 90, 720),
            lambda: truncation_inclusion_check(
                PERIOD8, 124, operator_range(PERIOD8, 90, 720, support_rtol=1e-4)),
            lambda: operator_range(ROTATED_FEJER, 16, 360),
        ],
        ids=["period8", "truncation124", "fejer"],
    )
    def test_hermitian_parts_stay_within_the_chunk_budget(self, monkeypatch, run):
        # Each call builds at most _CHUNK_ENTRY_BUDGET // max(d^2, 2K) parts
        # of a (K, d, d) basis, or of one (d, d) matrix (K = 1).
        calls, parts = [], ranges.rotated_hermitian_parts

        def recording(basis, angles):
            shape = np.shape(basis)
            terms = shape[0] if len(shape) == 3 else 1
            width = max(shape[-1] ** 2, 2 * terms)
            calls.append((len(angles), ranges._CHUNK_ENTRY_BUDGET // width))
            return parts(basis, angles)

        monkeypatch.setattr(ranges, "rotated_hermitian_parts", recording)
        run()
        assert calls and all(rows <= limit for rows, limit in calls)


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
        # Outer bounds: the constant symbol plus the rounding allowance.
        a, b = selfadjoint_interval(spec, 16)
        assert a <= 0.7 <= b and b - a <= 1e-13

    def test_diagonal_period_two(self):
        spec = PeriodicBandedSpec(period=2, band=1, diagonals={0: [-0.5, 2.0]})
        a, b = selfadjoint_interval(spec, 64)
        assert abs(a + 0.5) <= 1e-12
        assert abs(b - 2.0) <= 1e-12

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(SpecError):
            selfadjoint_interval(counterexample_spec(), 16)

    @pytest.mark.parametrize(
        "spec",
        [
            load_spec(SELFADJOINT_PERIOD3),
            free_jacobi_spec(),
            random_spec(np.random.default_rng(71), 4, 3, selfadjoint=True),
        ],
    )
    def test_outer_bounds_contain_a_fine_reference(self, spec):
        a, b = selfadjoint_interval(spec, 16)
        thetas = TAU * np.arange(20_000) / 20_000
        values = np.linalg.eigvalsh(symbol_batch(spec, thetas))
        assert a <= values[:, 0].min() and values[:, -1].max() <= b
        assert values[:, 0].min() - a <= 1e-8 and b - values[:, -1].max() <= 1e-8

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
        for n in (10, 25, 40):
            assert truncation_inclusion_check(spec, n, report) <= 1e-8

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
        assert _table_text(report.samples, 4, 4) == "theta phi support_value x y\n"

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
        spec = counterexample_spec()
        samples = uniform_sweep(spec, 9, 11)
        assert samples.shape == (9 * 11, 3)
        assert flat_table(spec, 9, 11) == reference_table(samples, 9, 11)

    @pytest.mark.parametrize("n_samples", [0, 1, 3, 4, 5, 9])
    def test_chunked_writers_match_references(self, monkeypatch, n_samples):
        monkeypatch.setattr(ranges, "_ROW_CHUNK", 4)
        samples = uniform_sweep(counterexample_spec(), 3, 4)[:n_samples]
        assert _table_text(samples, 3, 4) == reference_table(samples, 3, 4)

    def test_flat_table_angles_are_the_repeated_grids(self, monkeypatch):
        # Chunks of 4 rows cut the theta rows of P = 7 directions mid-row.
        monkeypatch.setattr(ranges, "_ROW_CHUNK", 4)
        spec = counterexample_spec()
        text = flat_table(spec, 5, 7)
        table = np.array([[float(v) for v in line.split()] for line in text.splitlines()[1:]])
        reference = reference_rows(uniform_sweep(spec, 5, 7), 5, 7)
        assert table.shape == reference.shape == (5 * 7, 5)
        assert table.tobytes() == reference.tobytes()

    def test_flat_table_shape(self):
        lines = flat_table(counterexample_spec(), 5, 7).strip().split("\n")
        assert lines[0] == "theta phi support_value x y"
        assert len(lines) == 1 + 5 * 7
        assert all(len(line.split()) == 5 for line in lines[1:])
        with pytest.raises(ValueError):
            flat_table(counterexample_spec(), 0, 7)
        with pytest.raises(ValueError, match="cap"):
            flat_table(counterexample_spec(), 2, 10**13)

    def test_certified_gap_bounds_the_corner_distance(self):
        # Corner j is where the lines of directions j and j + 1 meet; the
        # reported gap, its distance to the segment between their boundary
        # points, is at least its exact distance to the polygon.
        cases = [(counterexample_spec(), 16, 720), (load_spec(SELFADJOINT_PERIOD3), 16, 91),
                 (random_spec(np.random.default_rng(72), 8, 4), 16, 360)]
        for spec, theta_count, phi_count in cases:
            report = operator_range(spec, theta_count, phi_count)
            angles = TAU * np.arange(phi_count) / phi_count
            n0 = np.column_stack([np.cos(angles), np.sin(angles)])
            n1 = np.roll(n0, -1, axis=0)
            rhs = np.column_stack([report.upper, np.roll(report.upper, -1)])
            corners = np.linalg.solve(np.stack([n0, n1], axis=1), rhs[..., None])[..., 0]
            exact = float(np.max(report.polygon.violation(corners)))
            gap = report.residual_summary["certified_gap"]
            assert gap >= exact - 1e-12
            assert gap <= exact + 1e-6

    def test_support_attainment_residual(self):
        report = operator_range(counterexample_spec(), 30, 30)
        assert report.residual_summary["support_attainment_gap"] <= 1e-9


class TestCurvature:
    def test_bounds_sampled_second_derivatives(self):
        # g(theta) = v* Re(e^{-i phi} A(theta)) v has g'' = -sum_u u^2
        # Re(e^{i(u theta - phi)} v* A_u v), for any unit vector v.
        rng = np.random.default_rng(70)
        for spec in (counterexample_spec(), random_spec(rng, 3, 4), random_spec(rng, 5, 2)):
            harmonics = symbol_harmonics(spec)
            orders = np.arange(len(harmonics)) - len(harmonics) // 2
            bound = _curvature(harmonics)
            worst = 0.0
            for _ in range(400):
                v = random_unit_vector(rng, spec.period)
                theta, phi = rng.uniform(0.0, TAU, 2)
                rayleigh = np.einsum("i,uij,j->u", np.conj(v), harmonics, v)
                second = np.sum(orders**2 * np.exp(1j * (orders * theta - phi)) * rayleigh).real
                worst = max(worst, abs(second))
            assert worst <= bound
            # Within a factor two of the sampled worst case.
            assert bound <= 2.0 * worst + 1e-12

    def test_square_zero_harmonic_gives_its_numerical_radius(self):
        # A_1 = [[0, 0], [3, 0]] squares to zero; its numerical radius is 3/2.
        spec = PeriodicBandedSpec(2, 1, {1: [0.0, 3.0]})
        harmonics = symbol_harmonics(spec)
        assert np.count_nonzero(np.any(harmonics != 0, axis=(1, 2))) == 1
        norm = np.linalg.norm(harmonics[2], 2)
        assert norm == pytest.approx(3.0, rel=1e-15)
        assert _curvature(harmonics) == pytest.approx(norm / 2, rel=2e-12)
        assert _curvature(harmonics) >= norm / 2

    def test_constant_symbol_has_no_curvature(self):
        spec = PeriodicBandedSpec(2, 1, {0: [1.0, 2j], 1: [0.5, 0.0]})
        assert _curvature(symbol_harmonics(spec)) == 0.0


class TestCertifiedSupports:
    @pytest.mark.parametrize(
        "spec",
        [
            counterexample_spec(),
            random_spec(np.random.default_rng(60), 3, 2),
            random_spec(np.random.default_rng(61), 4, 5),
        ],
    )
    def test_upper_bounds_a_fine_theta_reference(self, spec):
        report = operator_range(spec, phi_count=90)
        assert report.samples.shape == (90, 3) and report.upper.shape == (90,)
        assert np.all(theta_reference(spec, 90) <= report.upper)
        assert np.all(report.upper - report.samples[:, 0] <= band_width(spec))
        summary = report.residual_summary
        assert summary["support_tol"] == np.max(report.upper - report.samples[:, 0])
        # Points of the closure lie within the certified gap of the polygon.
        closure = uniform_sweep(spec, 128, 360)[:, 1:]
        assert np.max(report.polygon.violation(closure)) <= summary["certified_gap"]

    def test_planted_maximizer_between_start_grid_points(self):
        # The peak value 25 sits midway between two of the 16 start angles,
        # where the symbol is below 2.
        spec = fejer_spec(TAU * 0.5 / 16)
        assert np.max(uniform_sweep(spec, 16, 8)[:, 0]) < 2.0
        report = operator_range(spec, phi_count=8)
        assert report.upper[0] >= 25.0
        assert report.samples[0, 0] >= 25.0 - band_width(spec)
        assert np.all(theta_reference(spec, 8) <= report.upper)

    def test_theta_flat_symbol_stays_within_the_budget(self, monkeypatch):
        spec = THETA_FLAT
        solved = []

        def counting(h):
            solved.append(int(np.prod(np.shape(h)[:-2])))
            return np.linalg.eigvalsh(h)

        monkeypatch.setattr(ranges.linalg, "lapack", lambda solver, h: (
            counting(h) if solver is np.linalg.eigvalsh else solver(h)))
        report = operator_range(spec, phi_count=720)
        assert sum(solved) == 16 * 360 + REFINE_BUDGET
        assert np.all(theta_reference(spec, 720, 1024) <= report.upper)
        assert np.max(report.upper - report.samples[:, 0]) <= 1e-4

    @pytest.mark.parametrize(
        "spec, phi_count, sizes",
        [
            (counterexample_spec(), 720, (3, 10, 40, 124)),
            (counterexample_spec(), 45, (7, 30)),
            (random_spec(np.random.default_rng(0), 8, 4), 720, (28, 60, 124)),
            (random_spec(np.random.default_rng(62), 3, 2), 91, (5, 40)),
        ],
    )
    def test_pruned_inclusion_check_is_the_full_grid_maximum(self, spec, phi_count, sizes):
        report = operator_range(spec, phi_count=phi_count)
        for n in sizes:
            full = grid_supports(truncation(spec, n), phi_count)
            expected = float(np.max(full - report.upper))
            assert truncation_inclusion_check(spec, n, report) == expected
            assert expected <= 1e-8

    def test_wedge_start_grid_halves_the_solves(self, monkeypatch):
        # At P = 720 every 8th direction pair is solved on the 90-angle start
        # grid; the grid and the tighter curvature constant took the seed-0
        # spec from 70,952 eigvalsh solves to about 32,000.
        solved, eigvalsh = [], np.linalg.eigvalsh

        def counting(h):
            solved.append(int(np.prod(np.shape(h)[:-2])))
            return eigvalsh(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        report = operator_range(random_spec(np.random.default_rng(0), 8, 4), 90, 720)
        assert sum(solved) <= 35_000
        assert report.upper.shape == (720,)

    @pytest.mark.parametrize(
        "spec, phi_count, theta_count, within_budget",
        [
            (counterexample_spec(), 720, 4096, True),
            (random_spec(np.random.default_rng(0), 8, 4), 180, 1024, True),
            # The peak value 25 sits between two start angles, in direction
            # 3 of 360, a pair the start grid bounds by wedges only.  The
            # sharp peak uses up REFINE_BUDGET, so bounds stay looser.
            (rotated(fejer_spec(TAU * 0.5 / 16), TAU * 3 / 360), 360, 4096, False),
        ],
    )
    def test_wedge_bounds_stay_above_a_fine_theta_reference(
        self, spec, phi_count, theta_count, within_budget
    ):
        report = operator_range(spec, phi_count=phi_count)
        assert np.all(theta_reference(spec, phi_count, theta_count) <= report.upper)
        if within_budget:
            assert np.all(report.upper - report.samples[:, 0] <= band_width(spec))

    def test_peak_in_a_wedge_direction_is_found(self):
        spec = rotated(fejer_spec(TAU * 0.5 / 16), TAU * 3 / 360)
        report = operator_range(spec, phi_count=360)
        assert report.upper[3] >= 25.0
        assert report.samples[3, 0] >= 25.0 - band_width(spec)

    def test_inclusion_check_needs_certified_bounds(self):
        doc = operator_range(counterexample_spec(), 4, 8).to_dict()
        with pytest.raises(ValueError, match="upper bounds"):
            truncation_inclusion_check(counterexample_spec(), 6, RangeReport.from_dict(doc))


class TestCertifiedSubsets:
    @pytest.mark.parametrize("spec", [counterexample_spec(), PERIOD8])
    def test_subset_rows_equal_single_pair_runs(self, spec):
        pairs = np.array([3, 17, 100, 359])
        best_theta, upper = ranges._certified_maxima(spec, 16, 720, pairs)
        assert upper.shape == (4, 2)
        for row, k in enumerate(pairs):
            alone = ranges._certified_maxima(spec, 16, 720, [k])
            assert np.array_equal(alone[0][0], best_theta[row])
            assert np.array_equal(alone[1][0], upper[row])

    @pytest.mark.parametrize("spec", [counterexample_spec(), PERIOD8])
    def test_subset_bounds_stay_above_a_fine_theta_reference(self, spec):
        # Largest top and negated bottom eigenvalue over 4,096 theta of each
        # requested pair's direction phi_k = 2 pi k / 720.
        pairs = np.arange(0, 360, 7)
        symbols = symbol_batch(spec, TAU * np.arange(4096) / 4096)
        reference = []
        for k in pairs:
            rotated = np.exp(-1j * TAU * k / 720) * symbols
            values = np.linalg.eigvalsh(0.5 * (rotated + np.conj(np.swapaxes(rotated, 1, 2))))
            reference.append([values[:, -1].max(), (-values[:, 0]).max()])
        _, upper = ranges._certified_maxima(spec, 16, 720, pairs)
        assert np.all(np.array(reference) <= upper)

    def test_odd_grid_certifies_each_direction_as_its_own_pair(self):
        spec = random_spec(np.random.default_rng(62), 3, 2)
        pairs = np.array([0, 45, 46, 90])
        best_theta, upper = ranges._certified_maxima(spec, 16, 91, pairs)
        full_theta, full_upper = ranges._certified_maxima(spec, 16, 91)
        assert upper.shape == (4, 1) and full_upper.shape == (91, 1)
        assert np.array_equal(upper, full_upper[pairs])
        assert np.array_equal(best_theta, full_theta[pairs])

    def test_support_rtol_is_reported_and_reached(self):
        spec = counterexample_spec()
        fine = operator_range(spec, phi_count=360)
        screen = operator_range(spec, phi_count=360, support_rtol=1e-4)
        assert fine.support_rtol == SUPPORT_RTOL and screen.support_rtol == 1e-4
        tolerance, rounding = ranges._allowances(symbol_harmonics(spec), 1e-4)
        loose = screen.upper - screen.samples[:, 0]
        assert screen.residual_summary["support_tol"] == np.max(loose)
        assert np.max(loose) <= tolerance + 2 * rounding
        assert np.max(loose) > fine.residual_summary["support_tol"]
        assert np.all(theta_reference(spec, 360) <= screen.upper)


class TestScreenedInclusionCheck:
    @pytest.mark.parametrize(
        "spec, phi_count, sizes",
        [
            (counterexample_spec(), 720, (3, 10, 40, 124)),
            (PERIOD8, 720, (28, 60, 124)),
            (random_spec(np.random.default_rng(62), 3, 2), 91, (5, 40)),
        ],
    )
    def test_equals_the_maximum_over_pairs_certified_alone(self, spec, phi_count, sizes):
        report = operator_range(spec, phi_count=phi_count, support_rtol=1e-4)
        half = phi_count // 2 if phi_count % 2 == 0 else phi_count
        _, alone = ranges._certified_maxima(spec, report.theta_count, phi_count, np.arange(half))
        tolerance, rounding = ranges._allowances(symbol_harmonics(spec), SUPPORT_RTOL)
        fine = report.upper - report.samples[:, 0] <= tolerance + 2 * rounding
        bounds = np.where(fine, report.upper, alone.T.ravel())
        for n in sizes:
            full = grid_supports(truncation(spec, n), phi_count)
            expected = float(np.max(full - bounds))
            assert truncation_inclusion_check(spec, n, report) == expected
            assert expected <= 1e-8

    def test_certifies_few_pairs(self, monkeypatch):
        report = operator_range(PERIOD8, 90, 720, support_rtol=1e-4)
        certify, requested = ranges._certified_maxima, []

        def counting(spec, theta_count, phi_count, pairs):
            requested.extend(pairs)
            return certify(spec, theta_count, phi_count, pairs)

        monkeypatch.setattr(ranges, "_certified_maxima", counting)
        for n in (28, 60, 124):
            truncation_inclusion_check(PERIOD8, n, report)
        # Each pair at most once across the three checks of one report, and
        # only a few of 360.
        assert 0 < len(requested) == len(set(requested)) <= 8

    def test_ledger_is_kept_per_spec(self, monkeypatch):
        # A report checked against a second spec certifies that spec's own
        # bounds: doubling the symbol doubles every bound, so the check
        # requests the same pairs, and returns the same excess, as on a
        # report no other spec was checked against.
        doubled = PeriodicBandedSpec(
            PERIOD8.period, PERIOD8.band, {r: 2 * seq for r, seq in PERIOD8.diagonals.items()})
        fresh, report = (operator_range(PERIOD8, 90, 720, support_rtol=1e-4) for _ in range(2))
        truncation_inclusion_check(PERIOD8, 60, report)
        certify, requested = ranges._certified_maxima, []

        def counting(spec, theta_count, phi_count, pairs):
            requested.extend(pairs)
            return certify(spec, theta_count, phi_count, pairs)

        monkeypatch.setattr(ranges, "_certified_maxima", counting)

        def check(report):
            requested.clear()
            return truncation_inclusion_check(doubled, 60, report), list(requested)

        expected = check(fresh)
        assert expected[1] and check(report) == expected

    def test_numpy_ma_is_not_imported(self):
        # np.unique and np.setdiff1d import numpy.ma, which costs more start-up
        # time than the package itself.
        code = (
            "import sys\n"
            "from toeprange.operators import counterexample_spec\n"
            "from toeprange.ranges import operator_range, truncation_inclusion_check\n"
            "spec = counterexample_spec()\n"
            "report = operator_range(spec, phi_count=720, support_rtol=1e-4)\n"
            "truncation_inclusion_check(spec, 40, report)\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


def violation_reference(vertices, point) -> float:
    """Signed distance of one point, one vertex row at a time in (k, 2)
    arrays: the one-point formula the stacked form must reproduce."""
    p = np.asarray(point, dtype=float)
    edges = np.roll(vertices, -1, axis=0) - vertices
    rel = p[None, :] - vertices
    squares = np.sum(edges * edges, axis=1)
    t = np.clip(np.sum(rel * edges, axis=1) / np.maximum(squares, 1e-300), 0, 1)
    outside = float(np.min(np.hypot(*(rel - t[:, None] * edges).T)))
    if vertices.shape[0] < 3:
        return outside
    cross = edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0]
    depth = float(np.max(-cross / np.sqrt(squares)))
    return outside if depth > 0 else depth


class TestGeometryStacks:
    def test_violation_of_a_stack_equals_pointwise(self):
        rng = np.random.default_rng(63)
        points = rng.uniform(-2.0, 2.0, (150, 2))
        for vertices in ([[0.5, 0.25]], [[0.0, 0.0], [1.0, 1.0]], None):
            polygon = (
                convex_hull(rng.standard_normal((40, 2)))
                if vertices is None
                else ConvexPolygon(np.array(vertices))
            )
            stacked = polygon.violation(points)
            assert stacked.shape == (150,)
            pointwise = [polygon.violation(p) for p in points]
            assert stacked.tolist() == pointwise
            assert pointwise == [violation_reference(polygon.vertices, p) for p in points]
            assert polygon.violation(points[:0]).shape == (0,)

    def test_hull_drops_repeated_points_like_unique(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            pts = np.round(rng.standard_normal((60, 2)), 1)
            pts = np.concatenate([pts, pts[rng.integers(0, 60, 30)]])
            pts[rng.integers(0, 90, 5)] = [0.0, -0.0]
            want = convex_hull(np.unique(pts, axis=0))
            assert np.array_equal(convex_hull(pts).vertices, want.vertices)
