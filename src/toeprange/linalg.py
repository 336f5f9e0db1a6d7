"""Dense complex matrix plumbing, the Hermitian eigensolver and the LAPACK
facade ``lapack`` that every ``numpy.linalg`` decomposition goes through.

Every matrix in this package is a plain ``numpy.ndarray`` with complex
entries, validated once on the way in (finite entries, sane shape) and then
treated as immutable.  All operations here are pure functions; concurrent
calls are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Dense representation only; anything larger than this is a usage error.
MATRIX_SIZE_CAP = 4096

# Relative tolerance for accepting a matrix as Hermitian on input.
HERMITICITY_RTOL = 1e-12
# Post-conditions of the eigendecomposition.
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_RTOL = 1e-9


class EigenSolverError(RuntimeError):
    """Eigensolver failed to converge or violated its own contract."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if m.shape[0] > MATRIX_SIZE_CAP or m.shape[1] > MATRIX_SIZE_CAP:
        raise ValueError(
            f"matrix shape {m.shape} exceeds the dense size cap {MATRIX_SIZE_CAP}"
        )
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def _require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def max_norm(a) -> float:
    """Entrywise max norm, the scale factor used by all tolerance contracts."""
    m = np.asarray(a)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def hermiticity_defect(a) -> float:
    """Max-norm distance from a square matrix to its adjoint."""
    m = _require_square(as_matrix(a))
    return max_norm(m - m.conj().T)


def rotated_hermitian_part(a, phi: float) -> np.ndarray:
    """Hermitian part of ``e^{-i phi} A``, i.e. (e^{-i phi}A + e^{i phi}A*)/2.

    The result is symmetrized so that entry (j, k) is exactly the conjugate
    of entry (k, j); its top eigenvalue is the support function of the
    numerical range of ``A`` in direction ``phi``.
    """
    m = _require_square(as_matrix(a))
    rotated = np.exp(-1j * phi) * m
    return 0.5 * (rotated + rotated.conj().T)


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def lapack(solver, *args, **kwargs):
    """Apply a ``numpy.linalg`` decomposition such as ``np.linalg.eigh``
    (``solver``).  A LAPACK failure raises ``EigenSolverError``, not the
    ``LinAlgError`` that is a ``ValueError`` and would read as invalid input."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"eigensolver did not converge in {solver.__name__}: {exc}"
        ) from exc


def eigh(h) -> HermitianEigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Raises ``ValueError`` if the input is further than
    ``HERMITICITY_RTOL * (1 + max|H|)`` from Hermitian, and
    ``EigenSolverError`` if LAPACK fails to converge or the decomposition
    misses its orthonormality/reconstruction contract.
    """
    m = _require_square(as_matrix(h))
    scale = 1.0 + max_norm(m)
    if hermiticity_defect(m) > HERMITICITY_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    sym = 0.5 * (m + m.conj().T)
    values, vectors = lapack(np.linalg.eigh, sym.real if np.all(sym.imag == 0.0) else sym)
    values = np.asarray(values, dtype=float)
    vectors = vectors.astype(complex, copy=False)
    ortho = max_norm(vectors.conj().T @ vectors - np.eye(m.shape[0]))
    if ortho > ORTHONORMALITY_TOL:
        raise EigenSolverError(f"eigenvector orthonormality defect {ortho:.3e}")
    recon = max_norm(sym @ vectors - vectors * values)
    if recon > RECONSTRUCTION_RTOL * scale:
        raise EigenSolverError(f"eigendecomposition residual {recon:.3e}")
    return HermitianEigenDecomposition(eigenvalues=values, eigenvectors=vectors)
