"""Numerical ranges of finite matrices and of periodic banded operators.

The numerical range of a matrix is recovered from its support function: in
direction ``phi`` the support value is the top eigenvalue of the rotated
Hermitian part, and the Rayleigh value of a top eigenvector is a boundary
point attaining it.

The range closure of a periodic banded operator is the closed convex hull
of its symbol ranges, so its support in direction ``phi`` is one maximum,
sup_theta lambda_max(Re(e^{-i phi} A(theta))).  ``operator_range``
certifies that maximum for every grid direction by branch and bound in
``theta``: each direction gets a sound upper bound and a boundary point
whose support is within ``SUPPORT_RTOL * (1 + sum_u ||A_u||_F)`` of it.
The polygon spanned by the boundary points is certified, not estimated: it
lies inside the closure, and the half-planes under the upper bounds
enclose the closure, so the largest distance from their corners to the
segments between consecutive boundary points bounds the Hausdorff distance
between polygon and closure.

Direction grids are uniform, ``phi_j = 2*pi*j/P``.  For even ``P`` one
Hermitian eigensolve serves the antipodal pair ``phi_j``, ``phi_j + pi``
(top and negated bottom eigenvalue), so half the directions are solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import as_matrix, max_norm, rotated_hermitian_parts
from .operators import (
    TAU,
    PeriodicBandedSpec,
    SpecError,
    is_selfadjoint,
    symbol_batch,
    symbol_harmonics,
    truncation,
)

HULL_COLLINEARITY_RTOL = 1e-12
# Batched eigensolves are chunked to roughly this many matrix entries, so
# each Hermitian, eigenvector or symbol stack stays within 1 MiB; the
# certified sweep's start-grid temporaries are taken in blocks of as many.
_CHUNK_ENTRY_BUDGET = 1 << 16
# Sample tables are serialized this many rows at a time, so only one chunk
# of Python row objects exists besides the output text.
_ROW_CHUNK = 8192
# Sweeps whose symbol stack, sample arrays, bisection intervals and
# eigensolve chunk are estimated to need more bytes than this are refused
# before anything is allocated.
SWEEP_BYTE_CAP = 1 << 30
# Bytes a certified sweep is charged per theta x phi start-grid sample (its
# values and masks), and per bisection interval: its ends and their index
# and ranking, plus its end values and bound per target direction (1 for
# odd P, 2 for even P); see _check_sweep_size.
_SAMPLE_BYTES = 16
_INTERVAL_BYTES = 64
_TARGET_BYTES = 24
# Start grid of the certified sweep in theta when none is given.
THETA_START = 16
# A direction's theta intervals are bisected until none of their bounds
# exceeds its best support by more than SUPPORT_RTOL * (1 + sum ||A_u||_F).
SUPPORT_RTOL = 1e-9
# Bisection stops after this many eigensolves; the bounds of the intervals
# left then are still bounds, only looser.
REFINE_BUDGET = 1 << 18
# The start grid is solved for every stride-th direction pair, the largest
# stride whose directions lie at most 2 pi / _WEDGE_DIRECTIONS apart; the
# pairs between are bounded by tangent wedges until they are needed.
_WEDGE_DIRECTIONS = 90
# Eigenvalue rounding allowance added to every certified bound, in units of
# eps * d * (1 + sum ||A_u||_F).
_ROUNDING_ULPS = 16


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex region given by counterclockwise vertices.

    One vertex is a point, two a segment; three or more must describe a
    strictly convex counterclockwise cycle (checked at construction).
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 1:
            raise ValueError(f"vertices must have shape (k, 2), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        if v.shape[0] >= 3:
            # Vertex k + 1 may sit at most the hull's collinearity distance
            # on the wrong side of the chord from vertex k to vertex k + 2.
            edges = np.roll(v, -1, axis=0) - v
            nxt = np.roll(edges, -1, axis=0)
            cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
            chord = np.hypot(*(edges + nxt).T)
            if np.any(cross < -_hull_tolerance(v) * chord):
                raise ValueError("vertices are not in convex counterclockwise order")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    def support(self, phis) -> np.ndarray:
        """Support function max_v <v, (cos phi, sin phi)> on a grid."""
        phis = np.atleast_1d(np.asarray(phis, dtype=float))
        directions = np.stack([np.cos(phis), np.sin(phis)], axis=0)
        return np.max(self.vertices @ directions, axis=0)

    def diameter(self) -> float:
        """Largest distance between two vertices, taken 64 vertex rows at a
        time so no temporary grows with the square of the vertex count."""
        x, y = self.vertices.T
        return max(
            float(np.max(np.hypot(x[i : i + 64, None] - x, y[i : i + 64, None] - y)))
            for i in range(0, x.shape[0], 64)
        )

    def violation(self, points):
        """Signed Euclidean distance to the region: the distance to the
        nearest edge segment outside, minus the depth inside (<= 0 means
        inside).  A single vertex is one zero-length edge.  One point (2,)
        gives a float; a stack (n, 2) gives an (n,) array, taken 64 points
        at a time."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return float(self._violation(p[None, :])[0])
        return np.concatenate(
            [self._violation(p[i : i + 64]) for i in range(0, p.shape[0], 64)]
            or [np.zeros(0)]
        )

    def _violation(self, p: np.ndarray) -> np.ndarray:
        v = self.vertices
        ex, ey = (np.roll(v, -1, axis=0) - v).T
        # Offsets (rx, ry) of each point from each vertex, one row per point.
        rx, ry = p[:, :1] - v[:, 0], p[:, 1:] - v[:, 1]
        squares = ex * ex + ey * ey
        t = np.clip((rx * ex + ry * ey) / np.maximum(squares, 1e-300), 0, 1)
        outside = np.min(np.hypot(rx - t * ex, ry - t * ey), axis=1)
        if v.shape[0] < 3:
            return outside
        # Inside a convex region the nearest boundary point lies on the
        # nearest edge line, so the largest half-plane distance is exact.
        depth = np.max(-(ex * ry - ey * rx) / np.sqrt(squares), axis=1)
        return np.where(depth > 0, outside, depth)


@dataclass
class RangeReport:
    """Result bundle of a certified operator range sweep.

    Row ``j`` of ``samples`` (phi_count, 3) holds direction ``phi_j``'s
    columns (support value, x, y): the support of the boundary point (x, y)
    found at the direction's best ``theta``, a lower bound on the closure's
    support.  ``upper`` (phi_count,) holds the certified upper bounds, which
    the sweep refined to within ``support_rtol * (1 + sum_u ||A_u||_F)`` of
    the supports where ``REFINE_BUDGET`` allowed."""

    polygon: ConvexPolygon
    samples: np.ndarray
    theta_count: int
    phi_count: int
    residual_summary: dict[str, float] = field(default_factory=dict)
    upper: np.ndarray = field(default_factory=lambda: np.zeros(0))
    support_rtol: float = SUPPORT_RTOL
    # Bounds ``truncation_inclusion_check`` certified at SUPPORT_RTOL, by the
    # spec's harmonics (shape and bytes) and then by direction, so each
    # direction pair of a spec is certified at most once per report.
    _certified: dict[tuple, dict[int, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def to_dict(self) -> dict:
        """The range document: grid sizes, residuals and the polygon.  The
        per-direction rows and bounds are not part of it."""
        return {
            "kind": "range-report",
            "theta_count": self.theta_count,
            "phi_count": self.phi_count,
            "residual_summary": {k: float(v) for k, v in self.residual_summary.items()},
            "polygon": self.polygon.vertices.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RangeReport":
        """Report read back from ``to_dict``; its ``samples`` and ``upper``
        are empty."""
        if doc.get("kind") != "range-report":
            raise ValueError("not a range-report document")
        return cls(
            polygon=ConvexPolygon(np.asarray(doc["polygon"], dtype=float)),
            samples=np.zeros((0, 3)),
            theta_count=int(doc["theta_count"]),
            phi_count=int(doc["phi_count"]),
            residual_summary=dict(doc["residual_summary"]),
        )


def _table_text(samples: np.ndarray, theta_count: int, phi_count: int) -> str:
    """One ``theta phi support_value x y`` row per sample of a theta-major
    (theta_count * phi_count, 3) sweep under a header line; the angles come
    from the row index, ``_ROW_CHUNK`` rows at a time."""
    row_format = " ".join(["%.17g"] * 5) + "\n"
    pieces = ["theta phi support_value x y\n"]
    for start in range(0, samples.shape[0], _ROW_CHUNK):
        chunk = samples[start : start + _ROW_CHUNK]
        t, p = np.divmod(np.arange(start, start + chunk.shape[0]), phi_count)
        rows = np.column_stack([TAU * t / theta_count, TAU * p / phi_count, chunk])
        pieces.append((row_format * rows.shape[0]) % tuple(rows.ravel().tolist()))
    return "".join(pieces)


def _hull_tolerance(pts: np.ndarray) -> float:
    """Distance from a chord below which ``convex_hull`` treats a turn as
    collinear.  The largest coordinate magnitude is attained at a hull
    vertex, so the value is the same for any subset keeping the vertices."""
    return HULL_COLLINEARITY_RTOL * max(1.0, float(np.max(np.abs(pts))))


def convex_hull(points) -> ConvexPolygon:
    """Counterclockwise convex hull (monotone chain).  A point within
    ``1e-12 * max(1, max|coordinate|)`` of the chord between its neighbours
    counts as collinear and is dropped."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ValueError("expected a nonempty array of planar points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("hull input must be finite")
    # Lexicographic sort, then drop repeated rows.
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    pts = pts[np.concatenate([[True], np.any(pts[1:] != pts[:-1], axis=1)])]
    if pts.shape[0] == 1:
        return ConvexPolygon(pts)
    tol = _hull_tolerance(pts)

    def chain(ordered):
        out = []
        for p in ordered:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if cross <= tol * math.hypot(p[0] - o[0], p[1] - o[1]):
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2:
        # All points collinear within tolerance.  Rounding noise in the
        # leading coordinate can put interior points of the segment first or
        # last in the sort, so keep the pair farthest apart instead.  Ties go
        # to the last and first points, the ends when the sort runs along
        # the segment.
        far = np.sum((pts - pts[0]) ** 2, axis=1)
        i = int(np.flatnonzero(far == far.max())[-1])
        far = np.sum((pts - pts[i]) ** 2, axis=1)
        j = int(np.flatnonzero(far == far.max())[0])
        hull = pts[sorted((i, j))]
    return ConvexPolygon(np.asarray(hull))


def _solved_count(phi_count: int) -> int:
    """Directions solved on a grid of ``phi_count``: the P/2 antipodal pairs
    for even P, every direction for odd P."""
    return phi_count // 2 if phi_count % 2 == 0 else phi_count


def _antipodes(pairs, phi_count: int, values, points=None):
    """Directions served by the solves of direction ``pairs`` on the uniform
    grid of ``phi_count``, their supports and, given ``_extreme_eigs``'s
    Rayleigh ``points``, their boundary points as (x, y) rows.  Direction k
    takes its top eigenpair; for even P the antipodal direction k + P/2 takes
    the bottom one, its value negated, as Re(e^{-i(phi+pi)}A) = -Re(e^{-i phi}A)."""
    take = slice(2 if phi_count % 2 == 0 else 1)
    directions = np.concatenate([pairs, pairs + phi_count // 2][take])
    supports = np.concatenate([values[:, 1], -values[:, 0]][take])
    if points is not None:
        points = np.concatenate([points[:, 1], points[:, 0]][take]).view(float).reshape(-1, 2)
    return directions, supports, points


def _blocks(n: int, width: int) -> list[slice]:
    """Slices of ``_CHUNK_ENTRY_BUDGET // width`` rows (at least one)
    covering ``range(n)``: the row blocks in which a step whose temporaries
    take ``width`` entries per row keeps them within the budget."""
    size = max(1, _CHUNK_ENTRY_BUDGET // width)
    return [slice(start, start + size) for start in range(0, n, size)]


def _extreme_eigs(basis, angles, matrices=None, thetas=None):
    """Bottom and top eigenvalues, shape (n, 2), of the n rotated Hermitian
    parts ``rotated_hermitian_parts(basis, angles)``; with ``matrices`` also
    the Rayleigh values v* M_i v of the two eigenvectors, complex (n, 2),
    else None.  ``matrices(rows)`` returns the (c, d, d) matrices of an
    index slice, or one (d, d) matrix shared by all of them.  With
    ``thetas`` the basis holds harmonics A_u, u = -(K // 2), ..., K // 2,
    and row i's angles are psi_u = angles[i] - u thetas[i].

    This is where eigensolve memory is sized: a chunk of
    ``_CHUNK_ENTRY_BUDGET // max(d^2, 2K)`` rows is built and solved at a
    time, so its angle, cosine and sine tables and its Hermitian parts each
    stay within ``_CHUNK_ENTRY_BUDGET`` entries (one matrix at a time when
    a single one is larger)."""
    shape = np.shape(basis)
    terms = shape[0] if len(shape) == 3 else 1
    orders = np.arange(terms) - terms // 2
    n = len(angles)
    values = np.empty((n, 2))
    points = None if matrices is None else np.empty((n, 2), dtype=complex)
    for rows in _blocks(n, max(shape[-1] ** 2, 2 * terms)):
        psi = angles[rows] if thetas is None else angles[rows, None] - orders * thetas[rows, None]
        herm = rotated_hermitian_parts(basis, psi)
        if matrices is None:
            eigenvalues = linalg.lapack(np.linalg.eigvalsh, herm)
        else:
            eigenvalues, vectors = linalg.lapack(np.linalg.eigh, herm)
            ends = vectors[..., [0, -1]]
            mats = np.broadcast_to(matrices(rows), herm.shape)
            points[rows] = np.einsum("cik,cij,cjk->ck", np.conj(ends), mats, ends)
        values[rows] = eigenvalues[:, [0, -1]]
        # Free this chunk's stacks before the next chunk's are built.
        herm = vectors = mats = None
    return values, points


def _check_counts(theta_count: int, phi_count: int) -> None:
    if theta_count < 1:
        raise ValueError("theta_count must be >= 1")
    if phi_count < 3:
        raise ValueError("phi_count must be >= 3")


def _check_sweep_size(
    period: int, theta_count: int, phi_count: int, sample_bytes=_SAMPLE_BYTES, bisection=True,
) -> None:
    """Raise ``ValueError`` when a sweep is estimated to need more than
    ``SWEEP_BYTE_CAP`` bytes: its (theta_count, d, d) complex symbol stack,
    ``sample_bytes`` per theta_count * phi_count sample, with ``bisection``
    the certified sweep's bisection intervals, and four stacks of one
    ``_extreme_eigs`` chunk: the Hermitian parts, their eigenvectors, and
    the symbols with the temporary that sums them.  A certified sweep
    starts from at most theta_count intervals per solved direction, and
    each round splits at most the ``REFINE_BUDGET`` left, so no later round
    holds more than 2 * ``REFINE_BUDGET`` intervals."""
    solved = _solved_count(phi_count)
    targets = 2 if solved < phi_count else 1
    intervals = max(theta_count * solved, 2 * REFINE_BUDGET) if bisection else 0
    estimate = (theta_count * (16 * period * period + sample_bytes * phi_count)
                + (_INTERVAL_BYTES + _TARGET_BYTES * targets) * intervals
                + 4 * 16 * _CHUNK_ENTRY_BUDGET)
    if estimate > SWEEP_BYTE_CAP:
        raise ValueError(
            f"a sweep over {theta_count} symbol angles and {phi_count} directions "
            f"at period {period} needs about {estimate:.3g} bytes, over the cap "
            f"of {SWEEP_BYTE_CAP} bytes"
        )


def matrix_numerical_range(a, phi_count: int = 720) -> ConvexPolygon:
    """Inner polygonal approximation of W(A) from a uniform support sweep."""
    if phi_count < 3:
        raise ValueError("phi_count must be >= 3")
    m = as_matrix(a)
    pairs = np.arange(_solved_count(phi_count))
    solved = _extreme_eigs(m, TAU * pairs / phi_count, lambda rows: m)
    return convex_hull(_antipodes(pairs, phi_count, *solved)[2])


def flat_table(spec: PeriodicBandedSpec, theta_count: int = 720, phi_count: int = 720) -> str:
    """The uniform sweep as text: one ``theta phi support_value x y`` row
    per pair of the ``theta`` x ``phi`` grid, theta-major, under a header
    line.  Each row is a symbol's support and a boundary point attaining it;
    nothing is certified between grid angles."""
    _check_counts(theta_count, phi_count)
    # Each sample's 24-byte row, and its text twice (the pieces and their
    # join): at most five 24-character fields and their separators.
    _check_sweep_size(spec.period, theta_count, phi_count, 24 + 2 * 125, bisection=False)
    thetas = TAU * np.arange(theta_count) / theta_count
    pairs = np.arange(_solved_count(phi_count))
    sweep = np.empty((theta_count, phi_count, 3))
    for row, mat in zip(sweep, symbol_batch(spec, thetas)):
        solved = _extreme_eigs(mat, TAU * pairs / phi_count, lambda rows: mat)
        _, row[:, 0], row[:, 1:] = _antipodes(pairs, phi_count, *solved)
    return _table_text(sweep.reshape(-1, 3), theta_count, phi_count)


def _symbol_solve(spec: PeriodicBandedSpec, harmonics, phis, thetas, want_points=False):
    """``_extreme_eigs`` of Re(e^{-i phi_i} A(theta_i)) for paired rows of
    ``phis`` and ``thetas``: the spec's ``harmonics`` A_u at psi_u = phi -
    u theta, and with ``want_points`` the Rayleigh values v* A(theta) v."""
    phis, thetas = np.asarray(phis, dtype=float), np.asarray(thetas, dtype=float)
    symbols = (lambda rows: symbol_batch(spec, thetas[rows])) if want_points else None
    return _extreme_eigs(harmonics, phis, symbols, thetas)


def _allowances(harmonics: np.ndarray, rtol: float) -> tuple[float, float]:
    """The certified sweep's refinement tolerance ``rtol * scale`` and its
    eigenvalue rounding allowance ``_ROUNDING_ULPS * eps * d * scale`` for
    the (K, d, d) ``harmonics``, where scale = 1 + sum_u ||A_u||_F."""
    scale = 1.0 + float(np.sum(np.sqrt(np.sum(np.abs(harmonics) ** 2, axis=(1, 2)))))
    return rtol * scale, _ROUNDING_ULPS * np.finfo(float).eps * harmonics.shape[-1] * scale


def _curvature(harmonics: np.ndarray) -> float:
    """L2 = sum_u u^2 (||A_u||_2 + ||A_u^2||_2^{1/2}) / 2, which bounds
    sum_u u^2 w(A_u) by Kittaneh's inequality for the numerical radius w
    (Studia Math. 158, 2003), inflated by a relative 1e-12 for the rounding
    of the singular values.  For a square-zero A_u the term is exactly
    ||A_u||_2 / 2 = w(A_u)."""
    orders = np.arange(len(harmonics)) - len(harmonics) // 2
    singular = linalg.lapack(np.linalg.svd, np.concatenate([harmonics, harmonics @ harmonics]))[1]
    norms, squares = np.split(singular[:, 0], 2)
    return float(np.sum(orders**2 * 0.5 * (norms + np.sqrt(squares)))) * (1.0 + 1e-12)


def _parabola_bound(va, vb, width, curvature: float):
    """Bound on lambda over an interval of ``width`` from its end values
    (or bounds on them) ``va`` and ``vb``: the larger end value, or the
    height where the parabolas va + L2 t^2 / 2 and vb + L2 (width - t)^2 / 2
    cross.  A constant symbol has L2 = 0 and no interior excess."""
    cross = 0.0
    if curvature:
        cross = np.clip(0.5 * width + (vb - va) / (curvature * width), 0.0, width)
    return np.maximum(np.maximum(va, vb), va + 0.5 * curvature * cross**2)


def _certified_maxima(
    spec: PeriodicBandedSpec, theta_count: int, phi_count: int, pairs=None,
    rtol: float = SUPPORT_RTOL,
):
    """Branch and bound in theta for each solved direction ``phi_k`` of the
    uniform grid of ``phi_count`` directions, or for the solved directions
    ``pairs`` alone (indices k < ``_solved_count(phi_count)``), until every
    bound is within ``rtol * (1 + sum_u ||A_u||_F)`` of its best value.

    Target 0 is lambda_max(H_k(theta)) with H_k = Re(e^{-i phi_k} A(theta));
    target 1, present for even ``phi_count``, is -lambda_min(H_k(theta)),
    the support of the antipodal direction.  Returns the best theta and a
    certified upper bound of each target's maximum over theta, both of
    shape (len(pairs), targets).

    If theta' is an interior maximizer of lambda on [a, b] with top
    eigenvector v, then g(theta) = v* H(theta) v touches lambda from below at
    theta', so g'(theta') = 0, and |g''| = |sum_u u^2 Re(e^{i(u theta -
    phi)} v* A_u v)| <= L2 (``_curvature``).  So lambda(theta') is under
    both parabolas lambda(a) + L2 (theta' - a)^2 / 2 and lambda(b) +
    L2 (b - theta')^2 / 2 (``_parabola_bound``).  No simplicity assumption is
    needed, and the same holds for -H.

    On the full circle the start grid of ``theta_count`` angles is solved
    for every ``stride``-th pair only.  At each grid angle the other
    directions are bounded by the tangent wedge of their two nearest solved
    directions, the bound ``truncation_inclusion_check`` uses; the parabola
    bounds are monotone in the end values, so they stay bounds.  A pair's best value
    comes from solved points only: each pair is solved where its wedge
    bound peaks, and the ends of every interval whose bound still exceeds
    the best are solved before the bisection.  Finally each target's best
    theta takes one parabolic step through the two angles around it when it
    won (grid neighbours or the ends of the bisected interval), kept only
    where it raises the best value; these solves are charged to
    ``REFINE_BUDGET``, and skipped when it cannot cover them all.

    Requested ``pairs`` are each solved on the whole start grid, so while
    the budget binds none of them, a pair's results do not depend on which
    other pairs were requested, as far as ``rotated_hermitian_parts``
    rounds a part the same in every batch: with OpenBLAS that holds for
    K <= 7 harmonics and for d = 2, 4 and 8 (measured up to K = 97), not
    for d = 1 or 3 with K >= 9.
    """
    half = _solved_count(phi_count)
    targets = 2 if half < phi_count else 1
    stride = max(1, phi_count // _WEDGE_DIRECTIONS) if pairs is None else 1
    pairs = np.arange(half) if pairs is None else np.asarray(pairs, dtype=int)
    count = pairs.size
    phis = TAU * pairs / phi_count
    harmonics = symbol_harmonics(spec)
    curvature = _curvature(harmonics)
    tolerance, rounding = _allowances(harmonics, rtol)

    def evaluate(rows, thetas):
        values, _ = _symbol_solve(spec, harmonics, phis[rows], thetas)
        return _antipodes(pairs[rows], phi_count, values)[1].reshape(targets, -1).T

    grid = TAU * np.arange(theta_count) / theta_count
    ends = np.append(grid[1:], TAU)
    width = (ends - grid)[:, None]
    # values[k, i] holds pair k's targets at grid[i]: solved where
    # ``exact``, elsewhere a wedge bound.  Only these, the masks and the
    # per-pair results span the whole start grid; every temporary is taken
    # for ``_CHUNK_ENTRY_BUDGET`` entries of it at a time.
    values = np.empty((count, theta_count, targets))
    exact = np.zeros((count, theta_count), dtype=bool)
    blocks = _blocks(count, theta_count * targets)

    def solve(mask):
        for rows in blocks:
            k, i = np.nonzero(mask[rows])
            if k.size:
                k += rows.start
                values[k, i], exact[k, i] = evaluate(k, grid[i]), True

    need = np.zeros_like(exact)
    need[::stride] = True
    solve(need)
    need[:] = False
    if stride > 1:
        # Direction j of the full circle is pair j % half, target j // half.
        # The rounding allowance also covers the wedge formula's rounding
        # and its amplification of the solved values' rounding.
        solved = np.tile(exact[:, 0], targets)
        for cols in _blocks(theta_count, phi_count):
            supports = np.moveaxis(values[:, cols], 2, 0).reshape(phi_count, -1)
            open_, wedge, _, _ = _tangent_wedges(supports, solved)
            values[open_ % half, cols, open_ // half] = wedge + rounding
            # Free this block's temporaries before the next block's are built.
            del supports, wedge
        # Each unsolved pair is solved first where its wedge bounds peak.
        for rows in blocks:
            pending = np.flatnonzero(~exact[rows, 0]) + rows.start
            need[pending[:, None], values[pending].argmax(axis=1)] = True
    best = np.empty((count, targets))
    winner = np.empty((count, targets), dtype=int)
    pruned = np.empty((count, targets))
    live = np.empty_like(exact)
    while True:
        solve(need)
        for rows in blocks:
            masked = np.where(exact[rows, :, None], values[rows], -np.inf)
            best[rows], winner[rows] = masked.max(axis=1), masked.argmax(axis=1)
            bound = _parabola_bound(values[rows], np.roll(values[rows], -1, axis=1),
                                    width, curvature)
            live[rows] = np.any(bound - best[rows, None, :] > tolerance, axis=2)
            # Pruned start intervals go straight into the bounds; only live
            # ones become interval rows.
            pruned[rows] = np.max(np.where(live[rows, :, None], -np.inf, bound), axis=1)
            del masked, bound
        # Both ends of a live interval must be solved before it is split.
        need = ~exact & (live | np.roll(live, 1, axis=1))
        if not np.any(need):
            break
    best_theta = grid[winner]
    # Offsets from each target's best theta to the angles around it when it
    # won, grid neighbours or the ends of the bisected interval, with their
    # values (NaN where unsolved), for the final parabolic step.
    rows, cols = np.arange(count)[:, None], np.arange(targets)
    below, above = (winner - 1) % theta_count, (winner + 1) % theta_count
    around = np.stack([
        -width[below, 0], np.where(exact[rows, below], values[rows, below, cols], np.nan),
        width[winner, 0], np.where(exact[rows, above], values[rows, above, cols], np.nan),
    ], axis=-1)
    upper = np.maximum(best, pruned)
    k, i = np.nonzero(live)
    a, b = grid[i], ends[i]
    va, vb = values[k, i], values[k, (i + 1) % theta_count]
    del values, i
    budget = REFINE_BUDGET
    while k.size:
        bound, gain = np.empty_like(va), np.empty(k.size)
        for rows in _blocks(k.size, targets):
            bound[rows] = _parabola_bound(va[rows], vb[rows], (b[rows] - a[rows])[:, None],
                                          curvature)
            gain[rows] = np.max(bound[rows] - best[k[rows]], axis=1)
        split = gain > tolerance
        if np.count_nonzero(split) > budget:
            # Best first: only the intervals whose bound exceeds the best
            # value the most are bisected; the others keep their bounds.
            split = np.zeros_like(split)
            split[np.argsort(-gain, kind="stable")[:budget]] = True
        for rows in _blocks(k.size, targets):
            done = ~split[rows]
            np.maximum.at(upper, k[rows][done], bound[rows][done])
        del bound, gain
        k, a, b, va, vb = (column[split] for column in (k, a, b, va, vb))
        budget -= k.size
        if not k.size:
            break
        mid = 0.5 * (a + b)
        vm = evaluate(k, mid)
        for t in range(targets):
            top = np.full(count, -np.inf)
            np.maximum.at(top, k, vm[:, t])
            won = np.flatnonzero((vm[:, t] == top[k]) & (top[k] > best[k, t]))
            best_theta[k[won], t] = mid[won]
            around[k[won], t] = np.column_stack(
                [a[won] - mid[won], va[won, t], b[won] - mid[won], vb[won, t]])
            best[:, t] = np.maximum(best[:, t], top)
        k = np.concatenate([k, k])
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        va, vb = np.concatenate([va, vm]), np.concatenate([vm, vb])
        del mid, vm
    # The vertex of the parabola through the best value and its two solved
    # neighbours, best + beta h + gamma h^2; it is concave (gamma < 0)
    # unless all three values are equal.
    k, t = np.nonzero(~np.isnan(around[..., 1] + around[..., 3]))
    h0, f0, h1, f1 = around[k, t].T
    slope0, slope1 = (f0 - best[k, t]) / h0, (f1 - best[k, t]) / h1
    gamma = (slope1 - slope0) / (h1 - h0)
    concave = gamma < 0
    k, t, h0, h1, slope1, gamma = (v[concave] for v in (k, t, h0, h1, slope1, gamma))
    if 0 < k.size <= budget:
        theta = best_theta[k, t] + np.clip((gamma * h1 - slope1) / (2.0 * gamma), h0, h1)
        better = evaluate(k, theta)[np.arange(k.size), t] > best[k, t]
        best_theta[k[better], t[better]] = theta[better]
    return best_theta, upper + rounding


def _tangent_wedges(supports: np.ndarray, solved: np.ndarray):
    """Bounds on the supports of the directions of the uniform grid of
    ``len(solved)`` directions where the mask ``solved`` is False, from the
    solved supports along the first axis of ``supports``.  Direction j's
    support is at most the tangent wedge of its nearest solved directions
    a < j < b (cyclically), (h_a sin(b - j) + h_b sin(j - a)) / sin(b - a).
    Wedges are used only for gaps of at most pi/2, where the rounding of the
    two solved supports is amplified at most sqrt(2) times; wider gaps get
    inf.  Returns the open directions, their bounds, and each one's a and
    gap b - a."""
    phi_count = solved.size
    done, open_ = np.flatnonzero(solved), np.flatnonzero(~solved)
    after = np.searchsorted(done, open_)
    a, b = done[after - 1], done[after % done.size]
    da, db = (open_ - a) % phi_count, (b - open_) % phi_count
    gap = da + db
    column = (-1,) + (1,) * (supports.ndim - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        wedge = (supports[a] * np.sin(TAU * db / phi_count).reshape(column)
                 + supports[b] * np.sin(TAU * da / phi_count).reshape(column)
                 ) / np.sin(TAU * gap / phi_count).reshape(column)
    wedge[4 * gap > phi_count] = np.inf
    return open_, wedge, a, gap


def operator_range(
    spec: PeriodicBandedSpec, theta_count: int = THETA_START, phi_count: int = 720,
    *, support_rtol: float = SUPPORT_RTOL,
) -> RangeReport:
    """Certified range closure over the uniform direction grid.

    Each direction's support over ``theta`` is bounded by branch and bound
    from a start grid of ``theta_count`` angles (``_certified_maxima``),
    until the bound is within ``support_rtol * (1 + sum_u ||A_u||_F)`` of
    the best support found; a looser ``support_rtol`` takes fewer solves and
    leaves a wider band [support, upper] (``support_tol`` reports the widest
    reached), but every ``upper`` stays a bound.  One ``eigh`` at the
    direction's best ``theta`` then gives its boundary point.  The polygon
    is their convex hull.  ``residual_summary`` holds
    ``support_attainment_gap`` (largest support minus the boundary point's
    projection), ``support_tol`` (largest upper bound minus support) and
    ``certified_gap``, an upper bound on the Hausdorff distance between the
    polygon and the closure: the closure lies in the intersection of the
    half-planes <z, n_j> <= upper_j, which lies in the hull of the corners
    where consecutive lines meet (a normal between n_j and n_{j+1} is a
    nonnegative combination of the two).  The boundary points p_j and
    p_{j+1} lie in the polygon, so the largest distance from corner j to
    the segment [p_j, p_{j+1}] bounds every point's distance."""
    _check_counts(theta_count, phi_count)
    _check_sweep_size(spec.period, theta_count, phi_count)
    half = _solved_count(phi_count)
    best_theta, upper = _certified_maxima(spec, theta_count, phi_count, rtol=support_rtol)

    # One eigh per direction at its best theta: direction j < half takes
    # the top eigenpair of pair j, direction j + half the bottom one.
    pairs = np.tile(np.arange(half), upper.shape[1])
    values, points = _symbol_solve(
        spec, symbol_harmonics(spec), TAU * pairs / phi_count, best_theta.T.ravel(),
        want_points=True,
    )
    top = np.arange(phi_count) < half
    point = np.where(top, points[:, 1], points[:, 0])
    support = np.where(top, values[:, 1], -values[:, 0])
    samples = np.column_stack([support, point.real, point.imag])
    upper = upper.T.ravel()
    polygon = convex_hull(samples[:, 1:])

    angles = TAU * np.arange(phi_count) / phi_count
    c, s = np.cos(angles), np.sin(angles)
    c1, s1, u1 = np.roll(c, -1), np.roll(s, -1), np.roll(upper, -1)
    det = c * s1 - s * c1
    corners = np.column_stack([(upper * s1 - s * u1) / det, (c * u1 - upper * c1) / det])
    edges = np.roll(samples[:, 1:], -1, axis=0) - samples[:, 1:]
    offsets = corners - samples[:, 1:]
    t = np.sum(offsets * edges, axis=1) / np.maximum(np.sum(edges * edges, axis=1), 1e-300)
    offsets -= np.clip(t, 0.0, 1.0)[:, None] * edges
    return RangeReport(
        polygon=polygon,
        samples=samples,
        theta_count=theta_count,
        phi_count=phi_count,
        residual_summary={
            "support_attainment_gap": float(np.max(support - (point.real * c + point.imag * s))),
            "support_tol": float(np.max(upper - support)),
            "certified_gap": float(np.max(np.hypot(offsets[:, 0], offsets[:, 1]))),
        },
        upper=upper,
        support_rtol=support_rtol,
    )


def selfadjoint_interval(
    spec: PeriodicBandedSpec, theta_count: int = 720
) -> tuple[float, float]:
    """Outer bounds [a, b] on the range closure of a selfadjoint operator:
    its certified supports in the directions pi and 0 (``_certified_maxima``
    from a start grid of ``theta_count`` angles), which bound the symbol's
    extreme eigenvalues over every theta."""
    if theta_count < 1:
        raise ValueError("theta_count must be >= 1")
    if not is_selfadjoint(spec):
        raise SpecError("operator is not selfadjoint")
    _check_sweep_size(spec.period, theta_count, 2)
    _, upper = _certified_maxima(spec, theta_count, 2)
    return -float(upper[0, 1]), float(upper[0, 0])


def truncation_inclusion_check(
    spec: PeriodicBandedSpec, n_rows: int, report: RangeReport
) -> float:
    """Largest excess, max_j (h_T(phi_j) - U_j), of the ``n_rows``
    truncation's support over certified upper bounds U_j.

    U_j is the report's ``upper_j`` where the report was swept at
    ``SUPPORT_RTOL`` or that bound is already within the sweep's
    ``SUPPORT_RTOL`` tolerance (plus twice its rounding allowance) of the
    attained support ``samples[j, 0]``.  Elsewhere it is the bound of
    certifying direction j's pair alone at ``SUPPORT_RTOL``
    (``_certified_maxima`` from the report's start grid), so the excess is
    the same, to within that tolerance, whatever ``support_rtol`` the report
    was swept at.

    Truncation ranges lie in the range closure, so the excess is <= 0 up to
    eigenvalue rounding.  Every 8th direction pair is solved first.  The
    support of a direction between two solved ones is at most that of the
    wedge their tangent lines form, and no sound bound falls below
    ``samples[j, 0]`` less the rounding allowance.  So a direction is a
    candidate only while its solved or wedge support minus U_j, or minus
    that floor while U_j is not yet known, reaches the best excess among
    directions whose U_j is known, less a rounding margin.  Candidate gaps
    are bisected and candidate pairs certified (the largest candidate's
    pair first, each pair at most once per report and spec, which keeps
    their bounds for later checks) until none is left; the result equals
    the maximum over every direction.
    """
    phi_count = report.phi_count
    upper = np.asarray(report.upper, dtype=float)
    if upper.shape != (phi_count,):
        raise ValueError("the report carries no certified upper bounds")
    t_n = truncation(spec, n_rows)
    margin = 1e-12 * (1.0 + (2 * spec.band + 1) * max_norm(t_n))
    half = _solved_count(phi_count)
    harmonics = symbol_harmonics(spec)
    tolerance, rounding = _allowances(harmonics, SUPPORT_RTOL)
    certified = report._certified.setdefault((harmonics.shape, harmonics.tobytes()), {})
    attained = report.samples[:, 0]
    # bound[j] is U_j where ``known``, elsewhere the floor attained_j - rounding.
    fine = upper - attained <= tolerance + 2.0 * rounding
    known = fine | (report.support_rtol <= SUPPORT_RTOL)
    bound = np.where(known, upper, attained - rounding)
    for j, alone in certified.items():
        bound[j], known[j] = alone, True
    supports = np.zeros(phi_count)
    solved = np.zeros(phi_count, dtype=bool)
    new = np.arange(0, half, 8)
    while True:
        values, _ = _extreme_eigs(t_n, TAU * new / phi_count)
        directions, values, _ = _antipodes(new, phi_count, values)
        supports[directions], solved[directions] = values, True
        exact = solved & known
        excess = supports - bound
        best = float(np.max(excess[exact], initial=-np.inf))
        open_, wedge, a, gap = _tangent_wedges(supports, solved)
        excess[open_] = wedge - bound[open_]
        reach = ~exact & (excess >= best - margin)
        loose = reach & solved
        if loose.any():
            # One pair at a time, the largest candidate's first: its bound
            # may raise the best excess past the other candidates.
            loose &= excess == np.max(excess[loose])
        pick = np.zeros(half, dtype=bool)
        pick[np.flatnonzero(loose) % half] = True
        pairs = np.flatnonzero(pick)
        if pairs.size:
            # Certified pairs change the best excess and the candidates, so
            # the truncation is solved further only once none is left.
            _, alone = _certified_maxima(spec, report.theta_count, phi_count, pairs)
            directions = pairs[:, None] + half * np.arange(alone.shape[1])
            bound[directions], known[directions] = alone, True
            certified.update(zip(directions.ravel().tolist(), alone.ravel().tolist()))
            new = pairs[:0]
            continue
        ends = reach[open_]
        pick[(a[ends] + gap[ends] // 2) % phi_count % half] = True
        new = np.flatnonzero(pick)
        if not new.size:
            return best


def hausdorff_distance(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Hausdorff distance between convex regions.  The distance to a convex
    set is a convex function, so its largest value over a polygon is
    attained at a vertex (Atallah, IPL 17, 1983)."""
    return max(0.0, float(np.max(q.violation(p.vertices))),
               float(np.max(p.violation(q.vertices))))
