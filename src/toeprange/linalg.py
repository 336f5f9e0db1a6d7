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
# Work estimated to need more bytes than this is refused before it allocates;
# ``check_bytes`` reads it at call time, so lowering it reaches every charge.
BYTE_CAP = 1 << 30


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


def check_bytes(estimate: float, what: str) -> None:
    """Raise ``ValueError`` if ``what`` needs more than ``BYTE_CAP`` bytes."""
    if estimate > BYTE_CAP:
        raise ValueError(f"{what} needs about {estimate:.3g} bytes, "
                         f"over the cap of {BYTE_CAP} bytes")


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
    psi = np.asarray(angles, dtype=float)
    terms = _hermitian_terms(basis)
    if np.ndim(basis) == 2:
        psi = psi[..., None]
    if psi.ndim != 2 or psi.shape[1] != len(terms):
        raise ValueError(
            f"angles of shape {np.shape(angles)} do not fit a basis of shape {np.shape(basis)}"
        )
    return _rotated_parts(terms, psi)


def _hermitian_terms(basis) -> np.ndarray:
    """The basis step of ``rotated_hermitian_parts``: the stack
    [Re B_k; Im B_k], shape (K, 2, d, d), of a basis (K, d, d) or of one
    matrix (d, d).  A chunked solve builds it once for all its chunks."""
    b = np.asarray(basis, dtype=complex)
    if b.ndim == 2:
        b = b[None]
    if b.ndim != 3 or b.shape[-1] != b.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {b.shape}")
    k, d, _ = b.shape
    adjoint = np.conj(np.swapaxes(b, -1, -2))
    terms = np.empty((k, 2, d, d), dtype=complex)
    np.multiply(0.5, np.add(b, adjoint, out=terms[:, 0]), out=terms[:, 0])
    np.multiply(-0.5j, np.subtract(b, adjoint, out=terms[:, 1]), out=terms[:, 1])
    return terms


def _rotated_parts(terms: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The product step of ``rotated_hermitian_parts``: the (n, d, d) parts
    of a ``_hermitian_terms`` stack at the n rows of angles ``psi`` (n, K),
    or (n,) when K = 1."""
    k, d, n = len(terms), terms.shape[-1], len(psi)
    rows = np.stack([np.cos(psi), np.sin(psi)], axis=-1).reshape(n, 2 * k)
    # numpy hands a one-row product to gemv, whose rounding differs from
    # gemm's, so a single row is computed twice to round like a batch.
    # Whether gemm rounds a row the same in every batch depends on the BLAS
    # kernel: with OpenBLAS it does at every batch size for K <= 7 terms and
    # for d = 2, 4 and 8 up to K = 97, but not for d = 1 or 3 with K >= 9
    # (for the K = 49, d = 1 Fejer basis ~1,200 of 5,000 rows differ bitwise
    # between one call and batches of 7).
    parts = np.repeat(rows, 2, axis=0) if n == 1 else rows
    parts = parts @ terms.reshape(2 * k, d * d).view(float)
    return parts[:n].view(complex).reshape(n, d, d)


def compression_extremes(values, removed) -> np.ndarray:
    """Bottom and top eigenvalues (c, 2) of each compression H_11 of a
    Hermitian H = Q diag(lambda) Q* (mu x mu) onto all but k of its
    coordinates, from the c rows of ``values`` (c, mu), the lambda, and of
    ``removed`` (c, k, mu), the k removed rows of Q.  The bottom is minus
    the top of -H, whose removed rows are the same.

    For sigma above every far pole (all but the k + 1 largest lambda), let
    F(sigma) = sum_far x x* / (lambda - sigma), x a column of ``removed``,
    and Z(sigma) = [[F, X_N], [X_N*, sigma - lambda_N]], X_N the columns of
    the k + 1 near poles lambda_N.  Eliminating the far poles from the
    bordered matrix [[diag(lambda) - sigma, X*], [X, 0]], whose inertia is
    In(H_11 - sigma) plus k of each sign, gives Haynsworth's inertia count
    #{eig(H_11) > sigma} = n_-(Z(sigma)) - k.  The top eigenvalue lies in
    [lambda_(k+1), lambda_(1)] by Cauchy interlacing; each step counts at
    sigma to shrink that bracket, then, with the far part linearized, solves
    Z(sigma) + Delta diag(F', I) = 0, F' = sum_far x x* / (lambda - sigma)^2,
    for its (k+1)-th largest root Delta, the model's count dropping to zero
    there.  The near poles enter Z linearly, so the steps start at
    lambda_(1), where the count is known to be zero.  A step that fails (F'
    singular), leaves the bracket or is more than half the one before is
    replaced by bisection, so the bracket halves at least every second step.
    A row stops when its bracket or its step Delta is within tol = 4 eps (1
    + max |lambda|), or once |Delta| (|Delta| / previous step)^2 is, the
    error left after a step that converges quadratically."""
    values = np.asarray(values, dtype=float)
    c, mu = values.shape
    k = removed.shape[1]
    # Rows 0..c-1 are H, rows c..2c-1 are -H; row i takes removed[i % c].
    values = np.concatenate([values, -values])
    top = np.max(values, axis=1)
    if k == 0:
        return np.column_stack([-top[c:], top[:c]])
    order = np.argsort(values, axis=1)[:, mu - k - 1:]
    lam_n = np.take_along_axis(values, order, axis=1)
    # The far poles' values, -inf at the near ones so that their weight is 0.
    lam_f = values.copy()
    np.put_along_axis(lam_f, order, -np.inf, axis=1)
    lo, hi = lam_n[:, 0].copy(), lam_n[:, -1].copy()
    tol = 4.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(values), axis=1))
    active = hi - lo > tol
    sigma, last = hi.copy(), np.full(2 * c, np.inf)
    near = np.arange(k, 2 * k + 1)
    for _ in range(4 * np.finfo(float).nmant):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        s, x = sigma[rows], removed[rows % c]
        scaled = x * (1.0 / (lam_f[rows] - s[:, None]))[:, None, :]
        far = scaled @ np.conj(np.swapaxes(x, 1, 2))
        f_values, f_vectors = lapack(np.linalg.eigh, scaled @ np.conj(np.swapaxes(scaled, 1, 2)))
        x_n = np.take_along_axis(x, order[rows, None, :], axis=2)
        del x, scaled
        ok = f_values[:, 0] > np.finfo(float).eps * (2 * k + 1) * f_values[:, -1]
        # T F' T* = I where F' is positive definite; elsewhere T = I, which
        # keeps the count and leaves no step.
        scale = np.where(ok[:, None], f_values, 1.0) ** -0.5
        t = np.where(ok[:, None, None],
                     scale[:, :, None] * np.conj(np.swapaxes(f_vectors, 1, 2)), np.eye(k))
        z = np.zeros((rows.size, 2 * k + 1, 2 * k + 1), dtype=complex)
        z[:, :k, :k] = t @ far @ np.conj(np.swapaxes(t, 1, 2))
        z[:, :k, k:] = t @ x_n
        z[:, k:, :k] = np.conj(np.swapaxes(z[:, :k, k:], 1, 2))
        z[:, near, near] = s[:, None] - lam_n[rows]
        e = lapack(np.linalg.eigvalsh, z)
        above = (np.count_nonzero(e < 0, axis=1) > k) & (s < hi[rows])
        lo[rows[above]], hi[rows[~above]] = s[above], s[~above]
        delta = -e[:, k]
        size, before = np.abs(delta), np.where(np.isfinite(last[rows]), last[rows], 0.0)
        done = ok & ((size <= tol[rows]) | (size**3 <= tol[rows] * before**2))
        top[rows[done]] = s[done] + delta[done]
        closed = ~done & (hi[rows] - lo[rows] <= tol[rows])
        top[rows[closed]] = 0.5 * (lo[rows[closed]] + hi[rows[closed]])
        active[rows[done | closed]] = False
        tau = s + delta
        step = ok & (tau > lo[rows]) & (tau < hi[rows]) & (size <= 0.5 * last[rows])
        sigma[rows] = np.where(step, tau, 0.5 * (lo[rows] + hi[rows]))
        last[rows] = np.where(step, size, np.inf)
    else:
        raise EigenSolverError("the compressed eigenvalue bracket did not close")
    return np.column_stack([-top[c:], top[:c]])


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
