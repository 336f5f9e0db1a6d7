"""Matrix plumbing, the rotated Hermitian parts and the Hermitian
eigensolve path."""

import math

import numpy as np
import pytest

from conftest import grid_supports, random_complex_matrix, random_hermitian
from toeprange.linalg import (
    EigenSolverError,
    as_matrix,
    compression_extremes,
    lapack,
    max_norm,
    rotated_hermitian_parts,
)
from toeprange.operators import TAU, random_spec, symbol_batch, symbol_harmonics
from toeprange.ranges import _antipodes, _extreme_eigs, matrix_numerical_range


class TestAsMatrix:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])


class TestRotatedHermitianPart:
    """``rotated_hermitian_parts``: one part per row of angles, summed over
    the basis matrices."""

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
        for matrix in a:
            h = rotated_hermitian_parts(matrix, phis)
            assert h.shape == (7, 4, 4)
            assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))
        # A basis of 20 matrices, one angle per matrix in each of 7 rows.
        h = rotated_hermitian_parts(a, rng.uniform(-10, 10, (7, 20)))
        assert h.shape == (7, 4, 4)
        assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))

    def test_stacks_over_matrices_and_angles(self):
        # Part j of one matrix is the part at angle j alone, and the part
        # from any sub-batch of the angles, bit for bit.
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3, 5, 5)) + 1j * rng.standard_normal((2, 3, 5, 5))
        phis = rng.uniform(0.0, 2 * math.pi, 7)
        for i in np.ndindex(2, 3):
            stacked = rotated_hermitian_parts(a[i], phis)
            assert stacked.shape == (7, 5, 5)
            for j, phi in enumerate(phis):
                assert np.array_equal(stacked[j], rotated_hermitian_parts(a[i], [phi])[0])
            for start in range(0, 7, 3):
                part = rotated_hermitian_parts(a[i], phis[start : start + 3])
                assert np.array_equal(part, stacked[start : start + 3])

    def test_one_angle_per_matrix(self):
        # Row r is sum_k Re(e^{-i angles[r, k]} B_k): the sum of each
        # matrix's own part at its angle, up to the rounding of the sum.
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        angles = rng.uniform(0.0, 2 * math.pi, (4, 6))
        summed = rotated_hermitian_parts(a, angles)
        assert summed.shape == (4, 3, 3)
        for r in range(4):
            parts = [rotated_hermitian_parts(a[k], angles[r, k : k + 1])[0] for k in range(6)]
            assert max_norm(summed[r] - sum(parts)) <= 1e-14 * (1.0 + max_norm(a)) * 6

    def test_harmonics_at_shifted_angles_give_the_symbol_part(self):
        # Re(e^{-i phi} A(theta)) from the harmonics A_u at phi - u theta.
        spec = random_spec(np.random.default_rng(10), 4, 6)
        harmonics = symbol_harmonics(spec)
        orders = np.arange(len(harmonics)) - len(harmonics) // 2
        rng = np.random.default_rng(11)
        thetas, phis = rng.uniform(0.0, 2 * math.pi, (2, 9))
        got = rotated_hermitian_parts(harmonics, phis[:, None] - orders * thetas[:, None])
        for part, phi, matrix in zip(got, phis, symbol_batch(spec, thetas)):
            rotated = np.exp(-1j * phi) * matrix
            want = 0.5 * (rotated + rotated.conj().T)
            assert max_norm(part - want) <= 1e-14 * (1.0 + np.sum(np.abs(harmonics)))

    def test_rejects_mismatched_angles(self):
        for angles in ([0.0, 1.0], np.zeros((2, 3)), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="angles"):
                rotated_hermitian_parts(np.ones((2, 2, 2)), angles)

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
    return grid_supports(a, 2)


class TestEigh:
    """The one Hermitian eigensolve path: ``lapack(np.linalg.eigh)`` on the
    stacked rotated Hermitian parts, as ``_extreme_eigs`` runs it."""

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
        b = u.conj().T @ a @ u
        phis = TAU * np.arange(8) / 16
        base = _antipodes(np.arange(8), 16, *_extreme_eigs(a, phis, lambda rows: a))
        conj = _antipodes(np.arange(8), 16, *_extreme_eigs(b, phis, lambda rows: b))
        # Equal supports, and the same boundary points: v* A v = (U* v)* B (U* v).
        assert np.array_equal(base[0], conj[0])
        assert np.max(np.abs(base[1] - conj[1])) < 1e-8
        assert np.max(np.abs(base[2] - conj[2])) < 1e-8
        h = random_hermitian(rng, 7)
        assert np.max(np.abs(eigh(h)[0] - eigh(u.conj().T @ h @ u)[0])) < 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        a = random_complex_matrix(rng, 6)
        phis = TAU * np.arange(6) / 12
        first, second = (
            _antipodes(np.arange(6), 12, *_extreme_eigs(a, phis, lambda rows: a)) for _ in range(2)
        )
        assert all(np.array_equal(x, y) for x, y in zip(first, second))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            _extreme_eigs(np.ones((2, 3)), np.zeros(2), lambda rows: np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            matrix_numerical_range(np.ones((2, 3)))

    def test_error_type_exists(self):
        assert issubclass(EigenSolverError, RuntimeError)


class TestCompressionExtremes:
    @staticmethod
    def unitaries(rng, mu):
        """Three mu x mu unitaries: a dense one, a permutation, and a dense
        block beside an identity block, whose rows have zero entries."""
        dense = np.linalg.qr(random_complex_matrix(rng, mu))[0]
        mixed = np.eye(mu, dtype=complex)
        half = max(1, mu // 2)
        mixed[:half, :half] = np.linalg.qr(random_complex_matrix(rng, half))[0]
        return [dense, np.eye(mu)[rng.permutation(mu)] + 0j, mixed]

    def test_matches_dense_compressions(self):
        # The extremes of H = Q diag(lambda) Q* off k coordinates against
        # eigvalsh of the compression.  Repeated lambda, and removed rows with
        # zero entries, leave F' singular, which the bisection fallback covers.
        rng = np.random.default_rng(30)
        for mu in (1, 2, 3, 6, 11, 25, 40):
            for k in range(min(5, mu - 1) + 1):
                values, removed, want = [], [], []
                for lam in (3.0 * rng.standard_normal(mu), rng.choice([-1.0, 0.5, 2.0], mu),
                            np.full(mu, 0.25)):
                    for q in self.unitaries(rng, mu):
                        cut = rng.permutation(mu)[:k]
                        kept = np.setdiff1d(np.arange(mu), cut)
                        h = (q * lam) @ q.conj().T
                        compressed = np.linalg.eigvalsh(h[np.ix_(kept, kept)])
                        values.append(lam)
                        removed.append(q[cut])
                        want.append([compressed[0], compressed[-1]])
                got = compression_extremes(np.array(values), np.array(removed))
                tol = 1e-13 * (1.0 + np.max(np.abs(values), axis=1))
                assert np.all(np.abs(got - np.array(want)) <= tol[:, None]), (mu, k)


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
            m = np.asarray(h, dtype=complex)
            with pytest.raises(EigenSolverError):
                _extreme_eigs(m, TAU * np.arange(2) / 4, lambda rows: m)
