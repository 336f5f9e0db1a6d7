"""Seeded property tests: symmetries of the operator range closure."""

import cmath

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import grid_supports  # noqa: E402
from toeprange.operators import TAU, PeriodicBandedSpec, symbol_harmonics, truncation  # noqa: E402
from toeprange.ranges import (  # noqa: E402
    SUPPORT_RTOL,
    ConvexPolygon,
    convex_hull,
    operator_range,
)

GRID = 24
PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)

coordinate = st.floats(-2.0, 2.0)
entry = st.builds(complex, coordinate, coordinate)


@st.composite
def specs(draw):
    period = draw(st.integers(1, 3))
    band = draw(st.integers(0, 2))
    diagonals = {
        r: draw(st.lists(entry, min_size=period, max_size=period))
        for r in range(-band, band + 1)
    }
    return PeriodicBandedSpec(period, band, diagonals)


def polygon(spec: PeriodicBandedSpec) -> ConvexPolygon:
    return operator_range(spec, GRID, GRID).polygon


def transformed(spec: PeriodicBandedSpec, fn) -> PeriodicBandedSpec:
    """Spec whose entry ``a_j^{(r)}`` is ``fn(r, j, a_j^{(r)})``."""
    diagonals = {
        r: [fn(r, j, z) for j, z in enumerate(seq)] for r, seq in spec.diagonals.items()
    }
    return PeriodicBandedSpec(spec.period, spec.band, diagonals)


def tolerance(spec: PeriodicBandedSpec) -> float:
    return 1e-9 * (1.0 + spec.max_entry())


def band_width(spec: PeriodicBandedSpec) -> float:
    """Largest width of a certified band [support, upper]: the refinement
    tolerance plus the rounding allowance."""
    norms = np.sqrt(np.sum(np.abs(symbol_harmonics(spec)) ** 2, axis=(1, 2)))
    return (SUPPORT_RTOL + 1e-13 * spec.period) * (1.0 + float(np.sum(norms)))


def grid_gap(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Largest support difference over the sweep's direction grid.

    There the polygon's support is the largest sampled support value.
    Between grid directions it also depends on which vector the eigensolver
    returns for a repeated top eigenvalue, so a Hausdorff distance over a
    finer grid is not invariant."""
    phis = TAU * np.arange(GRID) / GRID
    return float(np.max(np.abs(p.support(phis) - q.support(phis))))


@PROPERTY
@given(specs(), st.floats(0.25, 4.0), st.integers(0, GRID - 1), entry)
def test_affine_equivariance(spec, rho, k, beta):
    # A rotation by a multiple of the direction step maps the phi grid to
    # itself, so the image's support in direction j is rho times the
    # support in direction j - k plus <beta, n_j>.  Each certified band
    # [support, upper] holds the true value, so the image's bands and the
    # mapped bands of the spec overlap.
    alpha = rho * cmath.exp(1j * TAU * k / GRID)
    image = transformed(spec, lambda r, j, z: alpha * z + (beta if r == 0 else 0.0))
    phis = TAU * np.arange(GRID) / GRID
    shift = beta.real * np.cos(phis) + beta.imag * np.sin(phis)
    base, mapped = operator_range(spec, GRID, GRID), operator_range(image, GRID, GRID)
    lower = rho * np.roll(base.samples[:, 0], k) + shift
    upper = rho * np.roll(base.upper, k) + shift
    tol = 1e-12 * (1.0 + image.max_entry())
    assert np.all(mapped.samples[:, 0] <= upper + tol)
    assert np.all(lower <= mapped.upper + tol)
    assert np.all(mapped.upper - mapped.samples[:, 0] <= band_width(image))


@PROPERTY
@given(specs())
def test_conjugation_reflects_across_real_axis(spec):
    image = transformed(spec, lambda r, j, z: z.conjugate())
    expected = convex_hull(polygon(spec).vertices * [1.0, -1.0])
    assert grid_gap(polygon(image), expected) <= tolerance(spec)


@PROPERTY
@given(specs(), st.lists(st.floats(0.0, TAU), min_size=3, max_size=3))
def test_periodic_diagonal_unitary_similarity(spec, psi):
    d = spec.period
    image = transformed(spec, lambda r, j, z: z * cmath.exp(1j * (psi[(j + r) % d] - psi[j])))
    assert grid_gap(polygon(image), polygon(spec)) <= tolerance(spec)


@PROPERTY
@given(specs(), st.sampled_from([1.0, 1e-3, 1e-5]))
def test_polygon_support_is_the_largest_sampled_support(spec, scale):
    # On the sweep's own direction grid the hull loses no boundary point,
    # at any scale: its support there lies in the certified band
    # [support, upper], which is at most the refinement tolerance wide.
    spec = transformed(spec, lambda r, j, z: scale * z)
    report = operator_range(spec, GRID, GRID)
    phis = TAU * np.arange(GRID) / GRID
    support = report.polygon.support(phis)
    tol = 1e-12 * (1.0 + spec.max_entry())
    assert np.all(support >= report.samples[:, 0] - tol)
    assert np.all(support <= report.upper + tol)
    assert np.all(report.upper - report.samples[:, 0] <= band_width(spec))


@PROPERTY
@given(specs(), st.integers(1, 12))
def test_truncation_supports_stay_under_the_certified_bounds(spec, n_rows):
    report = operator_range(spec, phi_count=GRID)
    supports = grid_supports(truncation(spec, n_rows), GRID)
    assert np.all(supports <= report.upper + 1e-8)
