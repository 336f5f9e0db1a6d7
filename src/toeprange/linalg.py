"""Dense complex matrix plumbing: input validation, the stacked rotated
Hermitian parts whose eigenvalues are support values, and the LAPACK facade
``lapack`` that every ``numpy.linalg`` decomposition goes through.

Every matrix in this package is a plain ``numpy.ndarray`` with complex
entries, validated once on the way in (finite entries, sane shape) and then
treated as immutable.  All operations here are pure functions; concurrent
calls are safe.
"""

from __future__ import annotations

import numpy as np

# Dense representation only; anything larger than this is a usage error.
MATRIX_SIZE_CAP = 4096

# Relative tolerance for accepting a matrix as Hermitian on input.
HERMITICITY_RTOL = 1e-12


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


def max_norm(a) -> float:
    """Entrywise max norm, the scale factor used by all tolerance contracts."""
    m = np.asarray(a)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


def rotated_hermitian_parts(mats, phis) -> np.ndarray:
    """Hermitian parts (e^{-i phi}A + e^{i phi}A*)/2 of a stack of square
    matrices ``mats`` (..., d, d) at the angles ``phis`` (P,), stacked with
    shape (..., P, d, d).

    Entry (j, k) of each part is exactly the conjugate of entry (k, j); its
    top eigenvalue is the support function of the numerical range of ``A``
    in direction ``phi``.
    """
    m = np.asarray(mats, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    phases = np.exp(-1j * np.asarray(phis, dtype=float))
    rotated = phases[:, None, None] * m[..., None, :, :]
    return 0.5 * (rotated + np.conj(np.swapaxes(rotated, -1, -2)))


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
