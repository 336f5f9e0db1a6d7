"""Seeded property tests: symmetries of the operator range closure."""

import cmath

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from toeprange.operators import TAU, PeriodicBandedSpec  # noqa: E402
from toeprange.ranges import ConvexPolygon, convex_hull, operator_range  # noqa: E402

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
    # A rotation by a multiple of the direction step maps the phi grid to itself.
    alpha = rho * cmath.exp(1j * TAU * k / GRID)
    image = transformed(spec, lambda r, j, z: alpha * z + (beta if r == 0 else 0.0))
    z = alpha * (polygon(spec).vertices @ [1.0, 1j]) + beta
    expected = ConvexPolygon(np.stack([z.real, z.imag], axis=1))
    assert grid_gap(polygon(image), expected) <= tolerance(image)


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
