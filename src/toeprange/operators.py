"""Periodic banded Toeplitz operators through their defining sequences.

An operator is described by a period ``n+1 >= 1``, a band half-width
``m >= 0`` and one ``(n+1)``-periodic sequence per diagonal offset
``r = -m..m``.  The bi-infinite operator itself is never materialized; this
module builds its finite surrogates instead:

* ``truncation``: the leading ``N x N`` compression, with entry
  ``(j, k) = a_{j mod (n+1)}^{(k-j)}`` inside the band.  Positive offsets
  sit above the main diagonal and the sequence is indexed by the row, so a
  spec whose only nonzero offsets are positive yields an upper triangular
  matrix.  Conformance tests pin this convention.
* ``symbol``: the ``(n+1) x (n+1)`` matrix trigonometric polynomial whose
  numerical ranges sweep out the operator's range closure.
* ``c_mu``: the wrapped ``mu x mu`` matrix (``mu = s(n+1)``) that the
  Fourier unitary block-diagonalizes into symbols at s-th roots of unity.

The symbol's coefficients ``A_u`` (``symbol_harmonics``) are the one map
from diagonals to matrix entries: a truncation is a leading section of the
block Toeplitz matrix whose block (p, q) is ``A_{q-p}``, ``C_mu`` its block
circulant.

All constructions are pure; returned arrays are fresh and callers may treat
them as immutable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import MATRIX_SIZE_CAP, check_bytes, lapack, max_norm

TAU = 2.0 * math.pi
# Specs storing more than this many entries, (2*band + 1) * period, are
# refused before any per-offset array is allocated.
SPEC_ENTRY_CAP = 1 << 19


class SpecError(ValueError):
    """Malformed or inconsistent operator description."""


def _as_complex_entry(value, where: str) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise SpecError(f"{where}: complex entries must be [re, im] pairs")
        try:
            z = complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{where}: complex entries must be [re, im] numbers") from exc
    elif isinstance(value, str):
        raise SpecError(f"{where}: entries must be numbers, not strings")
    else:
        try:
            z = complex(value)
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"{where}: expected a number or an [re, im] pair, got {value!r}"
            ) from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SpecError(f"{where}: entries must be finite")
    return z


@dataclass(frozen=True)
class PeriodicBandedSpec:
    """Defining data of an ``(n+1)``-periodic, ``(2m+1)``-banded operator.

    ``diagonals`` maps each offset ``r`` in ``-band..band`` to the length
    ``period`` array of values the r-th diagonal cycles through.  Missing
    offsets are filled with zeros at construction; offsets outside the band
    or arrays of the wrong length are rejected.
    """

    period: int
    band: int
    diagonals: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("period", "band"):
            value = getattr(self, name)
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise SpecError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.period < 1:
            raise SpecError(f"period must be a positive integer, got {self.period!r}")
        if self.period > MATRIX_SIZE_CAP:
            raise SpecError(
                f"period {self.period} exceeds the dense size cap {MATRIX_SIZE_CAP}"
            )
        if self.band < 0:
            raise SpecError(f"band must be a nonnegative integer, got {self.band!r}")
        entries = (2 * self.band + 1) * self.period
        if entries > SPEC_ENTRY_CAP:
            raise SpecError(
                f"band {self.band} at period {self.period} stores {entries} entries, "
                f"over the cap of {SPEC_ENTRY_CAP}"
            )
        normalized: dict[int, np.ndarray] = {}
        for key, seq in dict(self.diagonals).items():
            offset = int(key)
            if abs(offset) > self.band:
                raise SpecError(
                    f"offset {offset} lies outside the band -{self.band}..{self.band}"
                )
            if isinstance(seq, np.ndarray):
                entries = seq.tolist()
            elif isinstance(seq, (list, tuple)):
                entries = list(seq)
            else:
                entries = [seq]
            arr = np.asarray(
                [_as_complex_entry(v, f"diagonal {offset}") for v in entries],
                dtype=complex,
            )
            if arr.shape != (self.period,):
                raise SpecError(
                    f"diagonal {offset} has {arr.size} entries, expected {self.period}"
                )
            normalized[offset] = arr
        for offset in range(-self.band, self.band + 1):
            if offset not in normalized:
                normalized[offset] = np.zeros(self.period, dtype=complex)
            normalized[offset].flags.writeable = False
        object.__setattr__(self, "diagonals", normalized)

    def diagonal(self, offset: int) -> np.ndarray:
        """Sequence on offset ``r``; zeros outside the band."""
        if abs(offset) > self.band:
            return np.zeros(self.period, dtype=complex)
        return self.diagonals[offset]

    def max_entry(self) -> float:
        return max(
            (max_norm(seq) for seq in self.diagonals.values()), default=0.0
        )


def validate_spec(raw) -> PeriodicBandedSpec:
    """Normalize a raw description (mapping or spec) into a validated spec."""
    if isinstance(raw, PeriodicBandedSpec):
        return PeriodicBandedSpec(raw.period, raw.band, dict(raw.diagonals))
    if not isinstance(raw, dict):
        raise SpecError(f"expected a mapping with period/band/diagonals, got {type(raw)}")
    try:
        period, band = raw["period"], raw["band"]
    except KeyError as exc:
        raise SpecError(f"missing required field {exc}") from exc
    diagonals_raw = raw.get("diagonals", {})
    if not isinstance(diagonals_raw, dict):
        raise SpecError("diagonals must be a mapping from offset to entry array")
    diagonals = {}
    for key, seq in diagonals_raw.items():
        try:
            offset = int(key)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"diagonal offset {key!r} is not an integer") from exc
        diagonals[offset] = seq
    return PeriodicBandedSpec(period, band, diagonals)


def spec_to_doc(spec: PeriodicBandedSpec) -> dict:
    """JSON-ready document with every offset present (normalized form)."""
    return {
        "period": spec.period,
        "band": spec.band,
        "diagonals": {
            str(r): [[z.real, z.imag] for z in spec.diagonals[r]]
            for r in range(-spec.band, spec.band + 1)
        },
    }


def load_spec(path) -> PeriodicBandedSpec:
    """Read and validate a spec file.  A file that cannot be read or parsed
    (invalid UTF-8, malformed JSON, nesting deeper than the parser's stack)
    raises ``OSError``; a document that is not a valid spec ``SpecError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise OSError(f"{path}: {exc}") from exc
    return validate_spec(doc)


def counterexample_spec() -> PeriodicBandedSpec:
    """The 2-periodic, 5-banded operator whose range closure no finite
    matrix attains: first superdiagonal alternates -1, 2; second is all ones."""
    return PeriodicBandedSpec(
        period=2, band=2, diagonals={1: [-1.0, 2.0], 2: [1.0, 1.0]}
    )


def free_jacobi_spec() -> PeriodicBandedSpec:
    """Free Jacobi operator: ones on both first off-diagonals."""
    return PeriodicBandedSpec(period=1, band=1, diagonals={-1: [1.0], 1: [1.0]})


# Relative tolerance within which a spec's paired diagonals must be
# conjugate for ``is_selfadjoint`` to call the operator selfadjoint.
HERMITICITY_RTOL = 1e-12


def is_selfadjoint(spec: PeriodicBandedSpec) -> bool:
    """Whether every truncation is Hermitian: the symbol's harmonics satisfy
    A_{-u} = A_u^*, entrywise within ``HERMITICITY_RTOL * (1 + max |entry|)``."""
    # The harmonics, and each pair's conjugate and difference.
    _check_harmonics_bytes(spec, 2, f"the selfadjoint test at period {spec.period}")
    tol = HERMITICITY_RTOL * (1.0 + spec.max_entry())
    harmonics = symbol_harmonics(spec)
    return all(max_norm(a - b.conj().T) <= tol for a, b in zip(harmonics, harmonics[::-1]))


def truncation(spec: PeriodicBandedSpec, n_rows: int) -> np.ndarray:
    """Leading ``n_rows x n_rows`` compression of the one-sided operator, a
    view into ``ceil(n_rows / (n+1))`` square blocks of ``_block_matrix``."""
    if n_rows < 1:
        raise ValueError("truncation size must be >= 1")
    if n_rows > MATRIX_SIZE_CAP:
        raise ValueError(f"truncation size {n_rows} exceeds cap {MATRIX_SIZE_CAP}")
    count = -(-n_rows // spec.period)
    # The harmonics, the count^2 blocks and one block row that ``+=`` copies.
    _check_harmonics_bytes(spec, count * count + count,
                           f"a truncation of size {n_rows} at period {spec.period}")
    return _block_matrix(symbol_harmonics(spec), count)[:n_rows, :n_rows]


def symbol(spec: PeriodicBandedSpec, theta: float) -> np.ndarray:
    """Symbol matrix at angle ``theta``.

    Entry ``(j, k)`` sums ``exp(i u theta) * a_j^{(k - j + u(n+1))}`` over
    the finitely many integers ``u`` that keep the offset inside the band.
    """
    return symbol_batch(spec, [theta])[0]


def symbol_harmonics(spec: PeriodicBandedSpec) -> np.ndarray:
    """Constant matrices ``A_u`` of the symbol ``sum_u A_u exp(i u theta)``,
    stacked for ``u = -u_max..u_max`` (``A_u`` at index ``u + u_max``), with
    ``u_max = ceil(m / (n+1))``."""
    d = spec.period
    u_max = (spec.band + d - 1) // d
    # Entry (j, j + r) of the operator lands in harmonic u = (j + r) // d at
    # column (j + r) % d; distinct offsets never share an entry.
    harmonics = np.zeros((2 * u_max + 1, d, d), dtype=complex)
    rows = np.arange(d)
    for r in range(-spec.band, spec.band + 1):
        cols = rows + r
        harmonics[cols // d + u_max, rows, cols % d] = spec.diagonal(r)
    return harmonics


def _check_harmonics_bytes(spec: PeriodicBandedSpec, extra: int, what: str) -> None:
    """Refuse ``what`` when the spec's K = 2 ceil(m / (n+1)) + 1 harmonics,
    ``extra`` more complex (n+1) x (n+1) matrices and 1 MiB for numpy's
    iteration buffers (8192 entries) and index arrays exceed ``linalg.BYTE_CAP``."""
    harmonics = 2 * -(-spec.band // spec.period) + 1
    check_bytes(16 * spec.period**2 * (harmonics + extra) + (1 << 20), what)


def symbol_batch(spec: PeriodicBandedSpec, thetas) -> np.ndarray:
    """Stack of symbols, shape ``(len(thetas), n+1, n+1)``.

    The symbol is assembled as a finite Fourier sum
    ``sum_u A_u exp(i u theta)`` over ``symbol_harmonics``.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    reduced = np.vectorize(lambda t: math.remainder(t, TAU), otypes=[float])(thetas)
    harmonics = symbol_harmonics(spec)
    u_max = len(harmonics) // 2
    out = np.zeros((reduced.size,) + harmonics.shape[1:], dtype=complex)
    for u, harmonic in zip(range(-u_max, u_max + 1), harmonics):
        out += np.exp(1j * u * reduced)[:, None, None] * harmonic
    return out


def c_mu(spec: PeriodicBandedSpec, s: int) -> np.ndarray:
    """Wrapped ``mu x mu`` matrix, ``mu = s(n+1)``, entry (j,k) summing the
    operator entries at columns ``k + u*mu``.  At most one term survives
    because ``mu >= 2m+1``."""
    _check_replication(spec, s)
    return _block_matrix(symbol_harmonics(spec), s, cyclic=True)


def _block_matrix(harmonics: np.ndarray, count: int, cyclic: bool = False) -> np.ndarray:
    """The ``count x count`` block matrix of the (K, d, d) ``harmonics`` whose
    block (p, q) is ``A_{q-p}``; with ``cyclic`` it sums the A_u with
    u = q - p mod ``count``, as ``c_mu`` sums its operator entries."""
    u_max, d = len(harmonics) // 2, harmonics.shape[-1]
    out = np.zeros((count, d, count, d), dtype=complex)
    p = np.arange(count)
    for u, harmonic in zip(range(-u_max, u_max + 1), harmonics):
        keep = p if cyclic else p[(p + u >= 0) & (p + u < count)]
        out[keep, :, (keep + u) % count, :] += harmonic
    return out.reshape(count * d, count * d)


def _check_replication(spec: PeriodicBandedSpec, s: int) -> None:
    if s < 2:
        raise ValueError("replication count s must be >= 2")
    mu = s * spec.period
    if mu < 2 * spec.band + 1:
        raise ValueError(
            f"s(n+1) = {mu} must cover the band width {2 * spec.band + 1}"
        )
    if mu > MATRIX_SIZE_CAP:
        raise ValueError(f"mu = {mu} exceeds cap {MATRIX_SIZE_CAP}")
    # C_mu, U and U* C_mu U's two products, s^2 blocks each, and one block row.
    _check_harmonics_bytes(spec, 4 * s * s + s, f"C_mu at mu = {mu}")


def fourier_unitary(n_plus_1: int, s: int) -> np.ndarray:
    """Unitary whose column ``q(n+1) + p`` is the Fourier vector with
    frequency ``q`` replicated over ``s`` blocks at in-block position ``p``."""
    if n_plus_1 < 1:
        raise ValueError("period must be >= 1")
    if s < 2:
        raise ValueError("replication count s must be >= 2")
    return np.kron(_fourier_phases(s, np.arange(s)), np.eye(n_plus_1, dtype=complex))


def _fourier_phases(s: int, blocks) -> np.ndarray:
    """Entry (q, j), rho^(q u) / sqrt(s) with rho = exp(2 pi i / s) and
    u = ``blocks[j]``, of the Fourier unitary's block row u at frequency q.
    The exponent q u is reduced mod s, so the phases' rounding does not grow
    with s."""
    return np.exp(2j * np.pi * (np.outer(np.arange(s), blocks) % s) / s) / math.sqrt(s)


def block_diagonalization_residual(spec: PeriodicBandedSpec, s: int) -> float:
    """Max-norm of ``U* C_mu U`` minus the direct sum of the symbols at the
    s-th roots of unity.  Contract: <= 1e-10 * (1 + max entry)."""
    _check_replication(spec, s)
    d = spec.period
    u = fourier_unitary(d, s)
    # blocks[q, :, r, :] is block (q, r) of U* C_mu U.
    blocks = (u.conj().T @ c_mu(spec, s) @ u).reshape(s, d, s, d)
    q = np.arange(s)
    blocks[q, :, q, :] -= symbol_batch(spec, TAU * q / s)
    return max_norm(blocks)


def lift_eigenvector(v, frequency: int, replication: int) -> np.ndarray:
    """Eigenvector of a symbol replicated into an eigenvector of ``C_mu``:
    entry ``p + u(n+1)`` is ``v[p] * rho**(u * frequency)`` with
    ``rho = exp(2 pi i / replication)``."""
    base = np.asarray(v, dtype=complex)
    if base.ndim != 1:
        raise ValueError("eigenvector must be one-dimensional")
    if not 0 <= frequency < replication:
        raise ValueError(f"frequency {frequency} not in 0..{replication - 1}")
    phases = _fourier_phases(replication, [frequency])[:, 0] * math.sqrt(replication)
    lifted = (phases[:, None] * base[None, :]).ravel()
    lifted.flags.writeable = False
    return lifted


def spectrum_match_gap(spec: PeriodicBandedSpec, s: int) -> float:
    """Largest gap between ``log|det(z - C_mu)|`` and the same sum over the
    eigenvalues of the symbols at the s-th roots of unity, taken at 64
    points z on the circle ``|z| = 2(1 + max|lambda|)``.

    Two monic polynomials whose moduli agree on a circle enclosing their
    roots are equal, so the eigenvalue multisets agree exactly in exact
    arithmetic; this returns the floating-point mismatch.  On that circle
    every factor ``|1 - lambda/z|`` lies in [1/2, 3/2], so the sums are
    well conditioned at any mu.
    """
    whole = lapack(np.linalg.eigvals, c_mu(spec, s))
    blocks = lapack(np.linalg.eigvals, symbol_batch(spec, TAU * np.arange(s) / s)).ravel()
    radius = 2.0 * (1.0 + max(np.max(np.abs(whole)), np.max(np.abs(blocks))))
    z = radius * np.exp(1j * TAU * np.arange(64) / 64)[:, None]
    gaps = np.sum(np.log(np.abs(1.0 - whole / z)), axis=1) - np.sum(
        np.log(np.abs(1.0 - blocks / z)), axis=1
    )
    return float(np.max(np.abs(gaps)))


def lifting_residual_max(spec: PeriodicBandedSpec, s: int) -> float:
    """Worst residual ``|C_mu w - lambda w|`` over all lifted unit
    eigenvectors of all symbols at the s-th roots of unity, scaled by
    ``1 + |lambda|``.  The s (n+1) lifts, ``lift_eigenvector``'s entries over
    sqrt(s), are the columns of one mu x mu matrix, so C_mu takes one product."""
    c = c_mu(spec, s)
    values, vectors = lapack(np.linalg.eig, symbol_batch(spec, TAU * np.arange(s) / s))
    # Row u (n+1) + p, column q (n+1) + i: vectors[q, p, i] rho^(u q) / sqrt(s),
    # a unit lift of a unit eigenvector.
    phases = _fourier_phases(s, np.arange(s))
    lifted = (phases[:, None, :, None] * np.swapaxes(vectors, 0, 1)).reshape(c.shape)
    values = values.ravel()
    residuals = np.linalg.norm(c @ lifted - lifted * values, axis=0) / (1.0 + np.abs(values))
    return float(np.max(residuals))


def random_spec(
    rng: np.random.Generator,
    period: int,
    band: int,
    selfadjoint: bool = False,
) -> PeriodicBandedSpec:
    """Random spec with entries in the closed unit disk (seeded by caller)."""
    diagonals: dict[int, np.ndarray] = {}
    for r in range(0 if selfadjoint else -band, band + 1):
        radius = np.sqrt(rng.uniform(0.0, 1.0, period))
        angle = rng.uniform(0.0, TAU, period)
        diagonals[r] = radius * np.exp(1j * angle)
    if selfadjoint:
        idx = np.arange(period)
        diagonals[0] = diagonals[0].real.astype(complex)
        for r in range(1, band + 1):
            diagonals[-r] = np.conj(diagonals[r][(idx - r) % period])
    return PeriodicBandedSpec(period=period, band=band, diagonals=diagonals)
