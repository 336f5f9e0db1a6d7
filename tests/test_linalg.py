"""Matrix plumbing, the rotated Hermitian parts and the Hermitian
eigensolve path."""

import math

import numpy as np
import pytest

from conftest import random_complex_matrix, random_hermitian
from toeprange.linalg import (
    EigenSolverError,
    as_matrix,
    lapack,
    max_norm,
    rotated_hermitian_parts,
)
from toeprange.ranges import _batched_support


class TestAsMatrix:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])


class TestRotatedHermitianPart:
    """``rotated_hermitian_parts``: one part per matrix and angle."""

    def test_identity_any_angle(self):
        phis = [0.0, 0.3, math.pi, -2.0]
        got = rotated_hermitian_parts(np.eye(3), phis)
        assert got.shape == (4, 3, 3)
        for part, phi in zip(got, phis):
            assert max_norm(part - math.cos(phi) * np.eye(3)) < 1e-15

    def test_nilpotent_real_part(self):
        got = rotated_hermitian_parts([[0.0, 2.0], [0.0, 0.0]], [0.0])
        assert np.array_equal(got, np.array([[[0.0, 1.0], [1.0, 0.0]]]))

    def test_nilpotent_quarter_turn(self):
        # hand evaluation of (e^{-i pi/2} A + e^{i pi/2} A*) / 2
        got = rotated_hermitian_parts([[0.0, 2.0], [0.0, 0.0]], [math.pi / 2])
        want = np.array([[0.0, -1j], [1j, 0.0]])
        assert max_norm(got[0] - want) < 1e-15

    def test_exactly_hermitian(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((20, 4, 4)) + 1j * rng.standard_normal((20, 4, 4))
        phis = rng.uniform(-10, 10, 7)
        h = rotated_hermitian_parts(a, phis)
        assert h.shape == (20, 7, 4, 4)
        assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))

    def test_stacks_over_matrices_and_angles(self):
        # Part (i, j) is the part of matrix i alone at angle j, bit for bit.
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3, 5, 5)) + 1j * rng.standard_normal((2, 3, 5, 5))
        phis = rng.uniform(0.0, 2 * math.pi, 4)
        stacked = rotated_hermitian_parts(a, phis)
        assert stacked.shape == (2, 3, 4, 5, 5)
        for i in np.ndindex(2, 3):
            for j, phi in enumerate(phis):
                assert np.array_equal(stacked[i][j], rotated_hermitian_parts(a[i], [phi])[0])

    def test_rejects_nonsquare(self):
        for shape in ((2, 3), (4, 2, 3), (3,)):
            with pytest.raises(ValueError):
                rotated_hermitian_parts(np.ones(shape), [0.0])


def _det_sign(h, lam):
    """Sign of det(H - lam I) by hand-rolled elimination with partial
    pivoting; independent of the eigensolver under test."""
    n = len(h)
    a = [[complex(h[i][j]) - (lam if i == j else 0.0) for j in range(n)] for i in range(n)]
    parity = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) == 0.0:
            return 0.0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            parity = -parity
        for row in range(col + 1, n):
            factor = a[row][col] / a[col][col]
            for j in range(col, n):
                a[row][j] -= factor * a[col][j]
    det = parity
    for i in range(n):
        det *= a[i][i]
    return math.copysign(1.0, det.real)


def _bisection_eigenvalues(h, grid=4096):
    """All eigenvalues of a Hermitian matrix located as sign changes of
    det(H - lam I) on a Gershgorin interval, refined by bisection."""
    n = len(h)
    radius = max(sum(abs(h[i][j]) for j in range(n)) for i in range(n)) + 1.0
    xs = [-radius + 2.0 * radius * k / grid for k in range(grid + 1)]
    signs = [_det_sign(h, x) for x in xs]
    roots = []
    for k in range(grid):
        if signs[k] == 0.0:
            roots.append(xs[k])
        elif signs[k] * signs[k + 1] < 0.0:
            lo, hi = xs[k], xs[k + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if _det_sign(h, mid) == signs[k]:
                    lo = mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    return roots


def _random_givens_unitary(rng, n):
    u = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            theta = rng.uniform(0, 2 * math.pi)
            psi = rng.uniform(0, 2 * math.pi)
            g = np.eye(n, dtype=complex)
            g[i, i] = math.cos(theta)
            g[j, j] = math.cos(theta)
            g[i, j] = -np.exp(1j * psi) * math.sin(theta)
            g[j, i] = np.exp(-1j * psi) * math.sin(theta)
            u = u @ g
    return u


def eigh(h):
    """The sweep's eigensolve applied to one matrix: ``np.linalg.eigh``
    through ``lapack`` on its Hermitian part at angle 0."""
    values, vectors = lapack(np.linalg.eigh, rotated_hermitian_parts(h, [0.0]))
    return values[0], vectors[0]


def extreme_supports(a) -> np.ndarray:
    """Supports of W(A) at phi = 0 and pi from the sweep's batched solve:
    the top eigenvalue of the Hermitian part and minus the bottom one."""
    return _batched_support(np.asarray(a, dtype=complex)[None], 2, want_points=False)[0, :, 0]


class TestEigh:
    """The one Hermitian eigensolve path: ``lapack(np.linalg.eigh)`` on the
    stacked rotated Hermitian parts, as ``_batched_support`` runs it."""

    def test_diagonal(self):
        values, _ = eigh(np.diag([3.0, -1.0]))
        assert np.allclose(values, [-1.0, 3.0], atol=1e-14)
        assert np.allclose(extreme_supports(np.diag([3.0, -1.0])), [3.0, 1.0], atol=1e-14)

    def test_pauli_x(self):
        values, _ = eigh([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(values, [-1.0, 1.0], atol=1e-14)
        assert np.allclose(extreme_supports([[0.0, 1.0], [1.0, 0.0]]), [1.0, 1.0], atol=1e-14)

    def test_against_determinant_bisection(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 8)
        oracle = np.sort(_bisection_eigenvalues(h.tolist()))
        assert len(oracle) == 8
        assert np.max(np.abs(oracle - eigh(h)[0])) < 1e-8
        top, minus_bottom = extreme_supports(h)
        assert abs(top - oracle[-1]) < 1e-8
        assert abs(minus_bottom + oracle[0]) < 1e-8

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 12)
        values, _ = eigh(h)
        assert np.all(np.diff(values) >= 0.0)

    def test_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 9)
        values, v = eigh(h)
        assert max_norm(v.conj().T @ v - np.eye(9)) <= 1e-10
        assert max_norm(h @ v - v * values) <= 1e-9 * (1 + max_norm(h))

    def test_trace_identity(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 11):
            h = random_hermitian(rng, n)
            values, _ = eigh(h)
            tol = 1e-9 * n * (1.0 + max_norm(h))
            assert abs(values.sum() - np.trace(h).real) <= tol

    def test_unitary_invariance(self):
        # W(U* A U) = W(A), so the supports agree in every direction.
        rng = np.random.default_rng(6)
        a = random_complex_matrix(rng, 7)
        u = _random_givens_unitary(rng, 7)
        base = _batched_support(a[None], 16, want_points=False)
        conj = _batched_support((u.conj().T @ a @ u)[None], 16, want_points=False)
        assert np.max(np.abs(base - conj)) < 1e-8
        h = random_hermitian(rng, 7)
        assert np.max(np.abs(eigh(h)[0] - eigh(u.conj().T @ h @ u)[0])) < 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        a = random_complex_matrix(rng, 6)
        first = _batched_support(a[None], 12, want_points=True)
        second = _batched_support(a[None], 12, want_points=True)
        assert np.array_equal(first, second)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            _batched_support(np.ones((1, 2, 3)), 4, want_points=True)

    def test_error_type_exists(self):
        assert issubclass(EigenSolverError, RuntimeError)


class TestLapack:
    @staticmethod
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def test_passes_arguments_through(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        got = lapack(np.linalg.lstsq, a, b, rcond=None)[0]
        assert np.array_equal(got, np.linalg.lstsq(a, b, rcond=None)[0])

    def test_failure_is_an_eigensolver_error(self):
        with pytest.raises(EigenSolverError, match="eigensolver did not converge in fail"):
            lapack(self.fail, np.eye(2))

    def test_eigh_failure(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", self.fail)
        for h in (np.eye(2), [[1.0, 1j], [-1j, 1.0]]):
            with pytest.raises(EigenSolverError):
                _batched_support(np.asarray(h, dtype=complex)[None], 4, want_points=True)
