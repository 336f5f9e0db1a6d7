"""Matrix plumbing and the Hermitian eigensolver contract."""

import math

import numpy as np
import pytest

from conftest import random_hermitian
from toeprange.linalg import (
    EigenSolverError,
    adjoint,
    as_matrix,
    eigh,
    lapack,
    max_norm,
    rotated_hermitian_part,
)


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(adjoint(np.eye(2)), np.eye(2))

    def test_real_transpose(self):
        assert np.array_equal(
            adjoint([[0.0, -1.0], [2.0, 0.0]]), np.array([[0.0, 2.0], [-1.0, 0.0]])
        )

    def test_conjugation(self):
        assert np.array_equal(adjoint([[1j]]), np.array([[-1j]]))

    def test_involution_exact(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert np.array_equal(adjoint(adjoint(a)), a)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])


class TestRotatedHermitianPart:
    def test_identity_any_angle(self):
        for phi in (0.0, 0.3, math.pi, -2.0):
            got = rotated_hermitian_part(np.eye(3), phi)
            assert max_norm(got - math.cos(phi) * np.eye(3)) < 1e-15

    def test_nilpotent_real_part(self):
        got = rotated_hermitian_part([[0.0, 2.0], [0.0, 0.0]], 0.0)
        assert np.array_equal(got, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_nilpotent_quarter_turn(self):
        # hand evaluation of (e^{-i pi/2} A + e^{i pi/2} A*) / 2
        got = rotated_hermitian_part([[0.0, 2.0], [0.0, 0.0]], math.pi / 2)
        want = np.array([[0.0, -1j], [1j, 0.0]])
        assert max_norm(got - want) < 1e-15

    def test_exactly_hermitian(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            phi = rng.uniform(-10, 10)
            h = rotated_hermitian_part(a, phi)
            assert np.array_equal(h, h.conj().T)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            rotated_hermitian_part(np.ones((2, 3)), 0.0)


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


class TestEigh:
    def test_diagonal(self):
        got = eigh(np.diag([3.0, -1.0]))
        assert np.allclose(got.eigenvalues, [-1.0, 3.0], atol=1e-14)

    def test_pauli_x(self):
        got = eigh([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(got.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_against_determinant_bisection(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 8)
        got = eigh(h).eigenvalues
        oracle = _bisection_eigenvalues(h.tolist())
        assert len(oracle) == 8
        assert np.max(np.abs(np.sort(oracle) - got)) < 1e-8

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 12)
        values = eigh(h).eigenvalues
        assert np.all(np.diff(values) >= 0.0)

    def test_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 9)
        decomp = eigh(h)
        v = decomp.eigenvectors
        assert max_norm(v.conj().T @ v - np.eye(9)) <= 1e-10
        assert max_norm(h @ v - v * decomp.eigenvalues) <= 1e-9 * (1 + max_norm(h))

    def test_trace_identity(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 11):
            h = random_hermitian(rng, n)
            values = eigh(h).eigenvalues
            tol = 1e-9 * n * (1.0 + max_norm(h))
            assert abs(values.sum() - np.trace(h).real) <= tol

    def test_unitary_invariance(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 7)
        u = _random_givens_unitary(rng, 7)
        base = eigh(h).eigenvalues
        conj = eigh(u.conj().T @ h @ u).eigenvalues
        assert np.max(np.abs(base - conj)) < 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 6)
        first = eigh(h)
        second = eigh(h)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigh([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigh(np.ones((2, 3)))

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
                eigh(h)
