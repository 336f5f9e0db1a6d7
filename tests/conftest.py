"""Shared generators for seeded property tests, and the supports of one
matrix over a uniform direction grid."""

import numpy as np

from toeprange.operators import TAU, PeriodicBandedSpec, random_spec
from toeprange.ranges import _antipodes, _extreme_eigs, _solved_count


def random_spec_with_s(rng: np.random.Generator) -> tuple[PeriodicBandedSpec, int]:
    """Spec with period 1..4, band 0..3, plus a replication count s in 2..6
    satisfying s * period >= 2 * band + 1."""
    while True:
        period = int(rng.integers(1, 5))
        band = int(rng.integers(0, 4))
        valid = [s for s in range(2, 7) if s * period >= 2 * band + 1]
        if valid:
            s = int(valid[rng.integers(0, len(valid))])
            return random_spec(rng, period, band), s


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_complex_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = random_complex_matrix(rng, dim)
    return 0.5 * (m + m.conj().T)


def grid_supports(matrix, phi_count: int) -> np.ndarray:
    """Supports of W(matrix) in the directions 2 pi j / phi_count, j = 0, ...,
    phi_count - 1: one ``_extreme_eigs`` solve per antipodal pair."""
    pairs = np.arange(_solved_count(phi_count))
    values, _ = _extreme_eigs(np.asarray(matrix, dtype=complex), TAU * pairs / phi_count)
    directions, supports, _ = _antipodes(pairs, phi_count, values)
    assert np.array_equal(directions, np.arange(phi_count))
    return supports
