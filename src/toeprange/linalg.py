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


def rotated_hermitian_parts(basis, angles) -> np.ndarray:
    """Hermitian parts sum_k Re(e^{-i angles[:, k]} B_k), shape (n, d, d), of
    a basis of K square matrices ``basis`` (K, d, d) at the n rows of
    ``angles`` (n, K); one matrix (d, d) with angles (n,) is the case K = 1.
    Here Re(M) = (M + M*)/2 and Im(M) = (M - M*)/(2i), so each term is
    cos(psi) Re(B_k) + sin(psi) Im(B_k), and the whole stack is one real
    matrix product of the rows [cos psi_k, sin psi_k] with the real views
    of [Re B_k; Im B_k].

    The symbol of a periodic banded operator is sum_u A_u e^{iu theta}, so
    its part in direction phi at theta is this sum over the harmonics A_u
    at psi_u = phi - u theta.  The top eigenvalue of a part is the support
    function in direction phi; entry (j, k) of a part is the conjugate of
    entry (k, j).
    """
    b = np.asarray(basis, dtype=complex)
    psi = np.asarray(angles, dtype=float)
    if b.ndim == 2:
        b, psi = b[None], psi[..., None]
    if b.ndim != 3 or b.shape[-1] != b.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {b.shape}")
    k, d, _ = b.shape
    if psi.ndim != 2 or psi.shape[1] != k:
        raise ValueError(
            f"angles of shape {np.shape(angles)} do not fit a basis of shape {np.shape(basis)}"
        )
    # Built in place: a chunked solve calls this once per chunk, so each
    # temporary stack costs fresh pages every time.
    adjoint = np.conj(np.swapaxes(b, -1, -2))
    terms = np.empty((k, 2, d, d), dtype=complex)
    np.multiply(0.5, np.add(b, adjoint, out=terms[:, 0]), out=terms[:, 0])
    np.multiply(-0.5j, np.subtract(b, adjoint, out=terms[:, 1]), out=terms[:, 1])
    rows = np.stack([np.cos(psi), np.sin(psi)], axis=2).reshape(len(psi), 2 * k)
    # numpy hands a one-row product to gemv, whose rounding differs from
    # gemm's, so a single row is computed twice to round like a batch.
    # Whether gemm rounds a row the same in every batch depends on the BLAS
    # kernel: with OpenBLAS it does at every batch size for K <= 7 terms and
    # for d = 2, 4 and 8 up to K = 97, but not for d = 1 or 3 with K >= 9
    # (for the K = 49, d = 1 Fejer basis ~1,200 of 5,000 rows differ bitwise
    # between one call and batches of 7).
    parts = np.repeat(rows, 2, axis=0) if len(rows) == 1 else rows
    parts = parts @ terms.reshape(2 * k, d * d).view(float)
    return parts[: len(rows)].view(complex).reshape(len(rows), d, d)


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
