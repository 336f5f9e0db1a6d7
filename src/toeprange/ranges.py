"""Numerical ranges of finite matrices and of periodic banded operators.

The numerical range of a matrix is recovered from its support function: in
direction ``phi`` the support value is the top eigenvalue of the rotated
Hermitian part, and the Rayleigh value of a top eigenvector is a boundary
point attaining it.  The closure of the operator range is approximated by
the convex hull of boundary points collected over a ``theta`` grid of
symbols and a ``phi`` grid of directions; the hull is an inner
approximation.  ``angular_resolution_gap`` estimates its support gap for
smooth boundaries only; it is not a bound, since a corner between two grid
directions is missed to first order.
Samples inside the polygon spanned by each direction's maximizer are
screened out before the hull is taken, which leaves the hull unchanged.

Direction grids are uniform, ``phi_j = 2*pi*j/P``.  For even ``P`` one
Hermitian eigensolve serves the antipodal pair ``phi_j``, ``phi_j + pi``
(top and negated bottom eigenpair), so half the directions are solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import as_matrix, rotated_hermitian_parts
from .operators import (
    TAU,
    PeriodicBandedSpec,
    SpecError,
    is_selfadjoint,
    symbol_batch,
    truncation,
)

HULL_COLLINEARITY_RTOL = 1e-12
# Batched eigensolves are chunked to roughly this many matrix entries, so
# each rotated, Hermitian or eigenvector stack stays within 4 MiB.
_CHUNK_ENTRY_BUDGET = 1 << 18
# Sample tables are serialized this many rows at a time, so only one chunk
# of Python row objects exists besides the output text.
_ROW_CHUNK = 8192
# Sweeps whose symbol stack and sample arrays are estimated to need more
# bytes than this are refused before anything is allocated.
SWEEP_BYTE_CAP = 1 << 30


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

    def violation(self, point) -> float:
        """Signed Euclidean distance to the region: the distance to the
        nearest edge segment outside, minus the depth inside (<= 0 means
        inside).  A single vertex is one zero-length edge."""
        p = np.asarray(point, dtype=float)
        v = self.vertices
        edges = np.roll(v, -1, axis=0) - v
        rel = p[None, :] - v
        squares = np.sum(edges * edges, axis=1)
        t = np.clip(np.sum(rel * edges, axis=1) / np.maximum(squares, 1e-300), 0, 1)
        outside = float(np.min(np.hypot(*(rel - t[:, None] * edges).T)))
        if v.shape[0] < 3:
            return outside
        # Inside a convex region the nearest boundary point lies on the
        # nearest edge line, so the largest half-plane distance is exact.
        cross = edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0]
        depth = float(np.max(-cross / np.sqrt(squares)))
        return outside if depth > 0 else depth


@dataclass
class RangeReport:
    """Result bundle of an operator range sweep.

    ``samples`` is a (theta_count * phi_count, 3) float array of columns
    (support value, x, y): the support in direction ``phi`` and a boundary
    point attaining it.  Rows are theta-major, so row ``i`` belongs to the
    grid indices ``divmod(i, phi_count)``; the angles are not stored."""

    polygon: ConvexPolygon
    samples: np.ndarray
    theta_count: int
    phi_count: int
    residual_summary: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The range document: grid sizes, residuals and the polygon.  The
        sample table is not part of it; ``flat_table`` writes the rows."""
        return {
            "kind": "range-report",
            "theta_count": self.theta_count,
            "phi_count": self.phi_count,
            "residual_summary": {k: float(v) for k, v in self.residual_summary.items()},
            "polygon": self.polygon.vertices.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RangeReport":
        """Report read back from ``to_dict``; its ``samples`` are empty."""
        if doc.get("kind") != "range-report":
            raise ValueError("not a range-report document")
        return cls(
            polygon=ConvexPolygon(np.asarray(doc["polygon"], dtype=float)),
            samples=np.zeros((0, 3)),
            theta_count=int(doc["theta_count"]),
            phi_count=int(doc["phi_count"]),
            residual_summary=dict(doc["residual_summary"]),
        )

    def flat_table(self) -> str:
        """One ``theta phi support_value x y`` row per sample under a header
        line; the angles come from the row index, ``_ROW_CHUNK`` rows at a
        time."""
        row_format = " ".join(["%.17g"] * 5) + "\n"
        pieces = ["theta phi support_value x y\n"]
        for start in range(0, self.samples.shape[0], _ROW_CHUNK):
            chunk = self.samples[start : start + _ROW_CHUNK]
            t, p = np.divmod(np.arange(start, start + chunk.shape[0]), self.phi_count)
            rows = np.column_stack(
                [TAU * t / self.theta_count, TAU * p / self.phi_count, chunk]
            )
            pieces.append((row_format * rows.shape[0]) % tuple(rows.ravel().tolist()))
        return "".join(pieces)


def _hull_tolerance(pts: np.ndarray) -> float:
    """Distance from a chord below which ``convex_hull`` treats a turn as
    collinear.  The largest coordinate magnitude is attained at a hull
    vertex, so the value is the same for any subset keeping the vertices."""
    return HULL_COLLINEARITY_RTOL * max(1.0, float(np.max(np.abs(pts))))


def _hull_candidates(inner: ConvexPolygon, pts: np.ndarray) -> np.ndarray:
    """Mask of the points that may be vertices of the hull of ``pts``.

    ``inner`` must be a polygon spanned by some of the points.  Each point
    is bucketed by its angle around the vertex centroid of ``inner`` and
    dropped only when it lies farther inside its wedge's edge than
    ``convex_hull``'s collinearity distance (Akl & Toussaint, "A fast
    convex hull algorithm", IPL 1978).
    """
    center = inner.vertices.mean(axis=0)
    rel = inner.vertices - center
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    start = int(np.argmin(angles))
    v, angles = np.roll(inner.vertices, -start, axis=0), np.roll(angles, -start)
    # Edge k runs from vertex k to k + 1; cross_k(p) = ex*y - ey*x - offset.
    ex, ey = (np.roll(v, -1, axis=0) - v).T
    offset = ex * v[:, 1] - ey * v[:, 0]
    x, y = pts[:, 0], pts[:, 1]
    # Wedge k lies between vertices k and k + 1; index -1 is the one that wraps.
    wedge = np.searchsorted(angles, np.arctan2(y - center[1], x - center[0]), side="right") - 1
    cross = ex[wedge] * y - ey[wedge] * x - offset[wedge]
    return ~(cross > _hull_tolerance(pts) * np.hypot(ex, ey)[wedge])


def convex_hull(points) -> ConvexPolygon:
    """Counterclockwise convex hull (monotone chain).  A point within
    ``1e-12 * max(1, max|coordinate|)`` of the chord between its neighbours
    counts as collinear and is dropped."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ValueError("expected a nonempty array of planar points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("hull input must be finite")
    pts = np.unique(pts, axis=0)  # lexicographic sort, duplicates removed
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


def _batched_support(matrices: np.ndarray, phi_count: int, want_points: bool):
    """Support values (and boundary points) of a stack of matrices over the
    uniform direction grid ``phi_j = 2*pi*j/P``.  ``matrices`` has shape
    (B, d, d); the result has shape (B, P, 3), columns (support, x, y), or
    (B, P, 1) of supports alone without ``want_points``.

    For even P, direction ``j + P/2`` is antipodal to ``j``: since
    Re(e^{-i(phi+pi)}A) = -Re(e^{-i phi}A), its support is minus the bottom
    eigenvalue at ``phi_j`` and its boundary point is the Rayleigh value of
    the bottom eigenvector, so only the directions ``j < P/2`` are solved.
    For odd P every direction is solved.  Work is chunked over both axes so
    the rotated Hermitian stack stays within a fixed entry budget."""
    mats = np.asarray(matrices, dtype=complex)
    b, d, _ = mats.shape
    half = phi_count // 2 if phi_count % 2 == 0 else phi_count
    phis = TAU * np.arange(half) / phi_count
    out = np.empty((b, phi_count, 3 if want_points else 1))
    phi_chunk = max(1, min(half, _CHUNK_ENTRY_BUDGET // (d * d)))
    mat_chunk = max(1, _CHUNK_ENTRY_BUDGET // (phi_chunk * d * d))
    for i0 in range(0, b, mat_chunk):
        rows = slice(i0, i0 + mat_chunk)
        part = mats[rows]
        for j0 in range(0, half, phi_chunk):
            cols = slice(j0, min(j0 + phi_chunk, half))
            herm = rotated_hermitian_parts(part, phis[cols])
            if want_points:
                values, vectors = linalg.lapack(np.linalg.eigh, herm)
            else:
                values = linalg.lapack(np.linalg.eigvalsh, herm)
            # (columns, eigenpair index, sign): column j takes the top pair;
            # for even P, column j + P/2 takes the bottom pair, negated.
            targets = [(cols, -1, 1.0)]
            if half < phi_count:
                targets.append((slice(cols.start + half, cols.stop + half), 0, -1.0))
            for target, end, sign in targets:
                out[rows, target, 0] = sign * values[..., end]
                if want_points:
                    v = vectors[..., :, end]
                    rayleigh = np.einsum("cpi,cij,cpj->cp", np.conj(v), part, v)
                    out[rows, target, 1] = rayleigh.real
                    out[rows, target, 2] = rayleigh.imag
    return out


def _check_sweep_size(period: int, theta_count: int, phi_count: int) -> None:
    """Raise ``ValueError`` when the (theta_count, d, d) complex symbol stack
    plus the theta_count * phi_count samples are estimated to exceed
    ``SWEEP_BYTE_CAP``.  Each sample is charged 64 bytes: its 24-byte
    (support, x, y) row plus the hull's working copies, which is what a
    720 x 720 sweep peaks at per sample."""
    estimate = theta_count * (16 * period * period + 64 * phi_count)
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
    if m.shape[0] != m.shape[1]:
        raise ValueError("numerical range needs a square matrix")
    sweep = _batched_support(m[None, :, :], phi_count, want_points=True)
    return convex_hull(sweep[0, :, 1:])


def operator_range(
    spec: PeriodicBandedSpec, theta_count: int = 720, phi_count: int = 720
) -> RangeReport:
    """Convex hull of boundary points of the symbol ranges over a uniform
    ``theta`` x ``phi`` grid, bundled with the sweep's (support, x, y)
    samples."""
    if theta_count < 1:
        raise ValueError("theta_count must be >= 1")
    if phi_count < 3:
        raise ValueError("phi_count must be >= 3")
    _check_sweep_size(spec.period, theta_count, phi_count)
    thetas = TAU * np.arange(theta_count) / theta_count
    phis = TAU * np.arange(phi_count) / phi_count
    sweep = _batched_support(symbol_batch(spec, thetas), phi_count, want_points=True)
    supports, points = sweep[..., 0], sweep[..., 1:]

    # One expression, so no full-length array outlives it into the screening.
    attainment_gap = float(
        np.max(supports - (points[..., 0] * np.cos(phis) + points[..., 1] * np.sin(phis)))
    )
    # Each direction's maximizer over theta is a hull vertex candidate; the
    # polygon they span lies inside the hull and screens out interior points.
    flat = points.reshape(-1, 2)
    inner = convex_hull(points[supports.argmax(axis=0), np.arange(phi_count)])
    if inner.vertices.shape[0] >= 3:
        flat = flat[_hull_candidates(inner, flat)]
    polygon = convex_hull(flat)
    return RangeReport(
        polygon=polygon,
        samples=sweep.reshape(-1, 3),
        theta_count=theta_count,
        phi_count=phi_count,
        residual_summary={"support_attainment_gap": attainment_gap},
    )


def selfadjoint_interval(
    spec: PeriodicBandedSpec, theta_count: int = 720
) -> tuple[float, float]:
    """Endpoints [a, b] of the range closure of a selfadjoint operator:
    extreme eigenvalues of the symbol over a uniform ``theta`` grid, read
    off the supports in the directions 0 and pi."""
    if theta_count < 1:
        raise ValueError("theta_count must be >= 1")
    if not is_selfadjoint(spec):
        raise SpecError("operator is not selfadjoint")
    _check_sweep_size(spec.period, theta_count, 0)
    thetas = TAU * np.arange(theta_count) / theta_count
    supports = _batched_support(symbol_batch(spec, thetas), 2, want_points=False)
    return -float(np.max(supports[:, 1, 0])), float(np.max(supports[:, 0, 0]))


def truncation_inclusion_check(
    spec: PeriodicBandedSpec, n_rows: int, report: RangeReport
) -> float:
    """Worst support excess of the ``n_rows`` truncation over the report's
    polygon across the report's direction grid.

    Truncation ranges lie in the range closure, so the excess is at most
    the distance from the report's polygon to the closure.  That distance
    has a ``phi`` term, the angular resolution gap, and a ``theta`` term from
    the symbols missed between grid angles; ``angular_resolution_gap`` covers
    only the first.  On coarse ``theta`` grids the excess can exceed it
    (``verify specs/counterexample.json --theta-count 3`` fails); a bound
    with both terms is item 2 of ROADMAP.md.
    """
    t_n = truncation(spec, n_rows)
    phis = TAU * np.arange(report.phi_count) / report.phi_count
    supports = _batched_support(t_n[None, :, :], report.phi_count, want_points=False)
    return float(np.max(supports[0, :, 0] - report.polygon.support(phis)))


def angular_resolution_gap(polygon: ConvexPolygon, phi_count: int) -> float:
    """Estimate of the support sweep's inner-approximation gap,
    diameter * (1 - cos(pi/P)), valid for smooth boundaries.

    The diameter is exact; the gap is still an estimate, not a bound: a
    corner whose normal cone falls between two grid directions is missed by
    a first-order amount, far above it.  A certified term is item 2 of
    ROADMAP.md.
    """
    return polygon.diameter() * (1.0 - math.cos(math.pi / phi_count))


def hausdorff_distance(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Hausdorff distance between convex regions.  The distance to a convex
    set is a convex function, so its largest value over a polygon is
    attained at a vertex (Atallah, IPL 17, 1983)."""
    return max(0.0, *(q.violation(v) for v in p.vertices), *(p.violation(w) for w in q.vertices))
