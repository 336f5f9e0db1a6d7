"""Real ternary forms, Kippenhahn polynomials and the envelope pipeline.

The counterexample operator's range closure is bounded by a quartic curve
obtained as the envelope of a one-parameter family of ellipses.  This
module carries that curve, its dual under the tangent-line pairing, and a
sampled hyperbolicity test: a form that divides some Kippenhahn polynomial
``det(t I + x Re(B) + y Im(B))`` must have all-real roots along every
direction, and the dual quartic fails this, so no finite matrix has the
operator's numerical range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, lapack, rotated_hermitian_parts
from .operators import TAU
from .ranges import SWEEP_BYTE_CAP

KIPPENHAHN_SIZE_CAP = 12
REAL_ROOT_RTOL = 1e-7


class PipelineStageError(RuntimeError):
    """Failure inside the nonrepresentability pipeline, labelled by stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage


@dataclass(frozen=True)
class TernaryForm:
    """Homogeneous real polynomial in (t, x, y).

    ``coefficients`` maps exponent triples ``(i, j, k)`` with
    ``i + j + k == degree`` to real coefficients; at least one must be
    nonzero.
    """

    degree: int
    coefficients: dict[tuple[int, int, int], float]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("form degree must be >= 1")
        cleaned = {}
        for exponents, coeff in self.coefficients.items():
            i, j, k = (int(e) for e in exponents)
            if i < 0 or j < 0 or k < 0 or i + j + k != self.degree:
                raise ValueError(
                    f"exponents {exponents} do not sum to degree {self.degree}"
                )
            value = float(coeff)
            if not math.isfinite(value):
                raise ValueError("form coefficients must be finite")
            if value != 0.0:
                cleaned[(i, j, k)] = value
        if not cleaned:
            raise ValueError("form must have at least one nonzero coefficient")
        object.__setattr__(self, "coefficients", cleaned)

    def to_records(self) -> list[list[float]]:
        return [
            [i, j, k, self.coefficients[(i, j, k)]]
            for (i, j, k) in sorted(self.coefficients)
        ]

    @classmethod
    def from_records(cls, degree: int, records) -> "TernaryForm":
        return cls(
            degree=degree,
            coefficients={(int(i), int(j), int(k)): float(c) for i, j, k, c in records},
        )


def evaluate_form(form: TernaryForm, t, x, y):
    """Evaluate a form; broadcasts over array arguments."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = np.zeros(np.broadcast(t, x, y).shape)
    for (i, j, k), coeff in form.coefficients.items():
        total = total + coeff * t**i * x**j * y**k
    if total.ndim == 0:
        return float(total)
    return total


def form_gradient(form: TernaryForm, t, x, y) -> np.ndarray:
    """Gradient (d/dt, d/dx, d/dy), stacked on the first axis; broadcasts
    over array arguments, so scalars give shape (3,)."""
    t, x, y = (np.asarray(v, dtype=float) for v in (t, x, y))
    grad = np.zeros((3,) + np.broadcast(t, x, y).shape)
    for (i, j, k), c in form.coefficients.items():
        if i > 0:
            grad[0] += c * i * t ** (i - 1) * x**j * y**k
        if j > 0:
            grad[1] += c * j * t**i * x ** (j - 1) * y**k
        if k > 0:
            grad[2] += c * k * t**i * x**j * y ** (k - 1)
    return grad


def restrict_to_direction(form: TernaryForm, x0, y0) -> np.ndarray:
    """Coefficients (descending powers of t) of ``F(t, x0, y0)`` along the
    last axis; broadcasts over array arguments."""
    x0, y0 = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    coeffs = np.zeros(np.broadcast(x0, y0).shape + (form.degree + 1,))
    for (i, j, k), c in form.coefficients.items():
        coeffs[..., form.degree - i] += c * x0**j * y0**k
    return coeffs


def boundary_quartic() -> TernaryForm:
    """Quartic whose zero set (minus one isolated interior point) is the
    boundary of the counterexample operator's range closure."""
    return TernaryForm(
        degree=4,
        coefficients={
            (0, 4, 0): 16.0,
            (0, 2, 2): 32.0,
            (0, 0, 4): 16.0,
            (2, 2, 0): -72.0,
            (2, 0, 2): -72.0,
            (3, 1, 0): 64.0,
            (4, 0, 0): -15.0,
        },
    )


def dual_quartic() -> TernaryForm:
    """Dual of ``boundary_quartic`` under the pairing tU + xX + yY = 0."""
    return TernaryForm(
        degree=4,
        coefficients={
            (4, 0, 0): 16.0,
            (3, 1, 0): 32.0,
            (2, 2, 0): -72.0,
            (2, 0, 2): -72.0,
            (1, 3, 0): -216.0,
            (1, 1, 2): -216.0,
            (0, 4, 0): -135.0,
            (0, 2, 2): -162.0,
            (0, 0, 4): -27.0,
        },
    )


@dataclass(frozen=True)
class ConicFamilyCoefficients:
    """Quadratic coefficient polynomials of an ellipse family written as
    ``H(X, Y; theta) = alpha cos(theta) + beta sin(theta) + gamma``.

    Each of alpha/beta/gamma maps ``(i, j)`` to the coefficient of
    ``X^i Y^j`` and has total degree at most two.
    """

    alpha: dict[tuple[int, int], float]
    beta: dict[tuple[int, int], float]
    gamma: dict[tuple[int, int], float]

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            poly = getattr(self, name)
            for (i, j) in poly:
                if i < 0 or j < 0 or i + j > 2:
                    raise ValueError(f"{name} must be a bivariate quadratic")


def evaluate_bivariate(poly: dict[tuple[int, int], float], x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = np.zeros(np.broadcast(x, y).shape)
    for (i, j), c in poly.items():
        total = total + c * x**i * y**j
    if total.ndim == 0:
        return float(total)
    return total


def ellipse_family() -> ConicFamilyCoefficients:
    """Coefficient polynomials of the counterexample's family of symbol
    range boundary ellipses."""
    return ConicFamilyCoefficients(
        alpha={(2, 0): 16.0, (0, 2): -16.0, (1, 0): -40.0, (0, 0): 16.0},
        beta={(1, 1): 32.0, (0, 1): -40.0},
        gamma={(2, 0): 20.0, (0, 2): 20.0, (1, 0): -32.0, (0, 0): 11.0},
    )


def envelope_residual(family: ConicFamilyCoefficients, x, y):
    """``alpha^2 + beta^2 - gamma^2``; zero exactly on the envelope of the
    family (and proportional to the boundary quartic at t = 1)."""
    a = evaluate_bivariate(family.alpha, x, y)
    b = evaluate_bivariate(family.beta, x, y)
    g = evaluate_bivariate(family.gamma, x, y)
    return a * a + b * b - g * g


def _poly2_mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, int], float] = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def family_discriminant(family: ConicFamilyCoefficients) -> dict[tuple[int, int], float]:
    """Expanded coefficients of ``alpha^2 + beta^2 - gamma^2``.

    Exact when the family coefficients are small integers: their float
    products and sums are integers well below 2^53, so nothing rounds.
    """
    a, b, g = family.alpha, family.beta, family.gamma
    out: dict[tuple[int, int], float] = {}
    for term, sign in ((_poly2_mul(a, a), 1), (_poly2_mul(b, b), 1), (_poly2_mul(g, g), -1)):
        for key, value in term.items():
            out[key] = out.get(key, 0) + sign * value
    return {k: v for k, v in out.items() if v != 0}


def ellipse_point(theta, t):
    """Parametrization of the symbol range boundary ellipse at angle
    ``theta``: center on the unit circle, axes set by the half-angle.
    Broadcasts over array arguments; scalars give a pair of floats."""
    half = 0.5 * theta
    x = np.cos(theta) + 0.5 * np.cos(half) * np.cos(t) - 1.5 * np.sin(half) * np.sin(t)
    y = np.sin(theta) + 0.5 * np.sin(half) * np.cos(t) + 1.5 * np.cos(half) * np.sin(t)
    return x, y


def ellipse_family_residual(theta, t):
    """``H(X(t), Y(t); theta)`` for the built-in family; vanishes for every
    (theta, t) because the parametrized ellipse is exactly the conic.
    Broadcasts over array arguments; scalars give a float."""
    family = ellipse_family()
    x, y = ellipse_point(theta, t)
    a = evaluate_bivariate(family.alpha, x, y)
    b = evaluate_bivariate(family.beta, x, y)
    g = evaluate_bivariate(family.gamma, x, y)
    return a * np.cos(theta) + b * np.sin(theta) + g


def kippenhahn_form(b) -> TernaryForm:
    """Kippenhahn polynomial ``det(t I + x Re(B) + y Im(B))`` of a square
    matrix, built from rotated Hermitian eigenvalues.

    At (x, y) = (cos a, sin a) it is ``det(t I + Re(e^{-ia} B))``, whose
    t^(size - k) coefficient is e_k of the eigenvalues, so one eigensolve at
    the size + 1 directions ``pi j / (size + 1)`` and one small solve per
    degree k give the monomials of degree k in (x, y).  The eigenvalues are
    scaled into [-1, 1] first, and scaled coefficients at most 1e-12 dropped.
    """
    m = as_matrix(b)
    size = m.shape[0]
    if size > KIPPENHAHN_SIZE_CAP:
        raise ValueError(f"matrix size {size} exceeds the cap {KIPPENHAHN_SIZE_CAP}")
    angles = math.pi * np.arange(size + 1) / (size + 1)
    values = lapack(np.linalg.eigvalsh, rotated_hermitian_parts(m, angles))
    radius = float(np.max(np.abs(values))) or 1.0
    elementary = np.array([np.poly(-row) for row in values / radius])
    cos, sin = np.cos(angles)[:, None], np.sin(angles)[:, None]
    coefficients = {}
    for k in range(size + 1):
        powers = np.arange(k + 1)
        block = lapack(
            np.linalg.lstsq, cos ** (k - powers) * sin**powers, elementary[:, k], rcond=None
        )[0]
        for p, value in zip(powers, block):
            if abs(value) > 1e-12:
                coefficients[(size - k, k - p, p)] = value * radius**k
    return TernaryForm(degree=size, coefficients=coefficients)


def _companion_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Companion-matrix roots of real polynomials, one per row of descending
    coefficients with a nonzero leading one, each row sorted by (real, imag),
    and each row's count of real roots as ``univariate_real_root_count``."""
    degree = coeffs.shape[-1] - 1
    companion = np.zeros((coeffs.shape[0], degree, degree))
    companion[:, 0, :] = -(coeffs[:, 1:] / coeffs[:, :1])
    companion[:, np.arange(1, degree), np.arange(0, degree - 1)] = 1.0
    roots = lapack(np.linalg.eigvals, companion)
    roots = np.take_along_axis(roots, np.lexsort((roots.imag, roots.real), axis=-1), axis=-1)
    return roots, np.sum(np.abs(roots.imag) <= REAL_ROOT_RTOL * (1.0 + np.abs(roots)), axis=-1)


def univariate_real_root_count(coeffs) -> tuple[int, np.ndarray]:
    """All roots of a real polynomial (descending coefficients) via the
    eigenvalues of its companion matrix, plus the count of real ones.

    A root counts as real when ``|Im| <= REAL_ROOT_RTOL * (1 + |root|)``.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    nonzero = np.nonzero(c)[0]
    if nonzero.size == 0:
        raise ValueError("zero polynomial has no defined root count")
    c = c[nonzero[0] :]
    if c.size == 1:
        return 0, np.zeros(0, dtype=complex)
    roots, counts = _companion_roots(c[None, :])
    return int(counts[0]), roots[0]


@dataclass(frozen=True)
class HyperbolicityVerdict:
    """Outcome of direction-sampled hyperbolicity testing.

    A failed direction comes with the offending restriction roots; a
    passing verdict is evidence over the sampled directions only, so the
    sampling parameters ride along.
    """

    hyperbolic: bool
    max_imag: float
    direction_count: int
    tol: float
    witness_theta: float | None = None
    witness_direction: tuple[float, float] | None = None
    witness_roots: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "hyperbolic": self.hyperbolic,
            "max_imag": self.max_imag,
            "direction_count": self.direction_count,
            "tol": self.tol,
            "witness_theta": self.witness_theta,
            "witness_direction": (
                list(self.witness_direction) if self.witness_direction else None
            ),
            "witness_roots": (
                [[z.real, z.imag] for z in self.witness_roots]
                if self.witness_roots is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "HyperbolicityVerdict":
        roots = doc.get("witness_roots")
        return cls(
            hyperbolic=bool(doc["hyperbolic"]),
            max_imag=float(doc["max_imag"]),
            direction_count=int(doc["direction_count"]),
            tol=float(doc["tol"]),
            witness_theta=doc.get("witness_theta"),
            witness_direction=(
                tuple(doc["witness_direction"]) if doc.get("witness_direction") else None
            ),
            witness_roots=(
                np.array([complex(re, im) for re, im in roots]) if roots else None
            ),
        )


def _check_direction_count(direction_count: int, degree: int) -> None:
    """Refuse fewer than one direction, or more than ``SWEEP_BYTE_CAP`` bytes of
    restriction, companion and root stacks at about 16 (degree + 1)^2 each."""
    if direction_count < 1:
        raise ValueError("direction_count must be >= 1")
    if direction_count * (degree + 1) ** 2 * 16 > SWEEP_BYTE_CAP:
        raise ValueError(f"{direction_count} directions exceed the {SWEEP_BYTE_CAP}-byte cap")


def _witness_index(values: np.ndarray) -> int:
    """Where a scan of nonnegative values ends if each takes over only by
    beating the current pick by a relative 1e-9 (first wins near-ties).
    Only a rise of the running maximum can take over, and one beating the
    previous rise by the margin always does, so the scan starts there."""
    rises = np.flatnonzero(np.diff(np.maximum.accumulate(values), prepend=-1.0) > 0)
    sure = np.flatnonzero(values[rises[1:]] > values[rises[:-1]] * (1.0 + 1e-9))
    pick = rises[sure[-1] + 1 if sure.size else 0]
    for idx in rises[rises > pick]:
        if values[idx] > values[pick] * (1.0 + 1e-9):
            pick = idx
    return int(pick)


def hyperbolicity_test(form: TernaryForm, direction_count: int = 720) -> HyperbolicityVerdict:
    """Check whether every directional restriction ``F(t, -cos a, -sin a)``
    has only real roots, each within ``REAL_ROOT_RTOL`` as in
    ``univariate_real_root_count``.

    Failure is certified by the worst witness direction; success is a
    sampled property, not a certificate.  The direction grid always
    includes ``a = pi/2``.
    """
    lead = form.coefficients.get((form.degree, 0, 0), 0.0)
    if lead == 0.0:
        raise ValueError("degenerate leading coefficient: form vanishes at (1, 0, 0)")
    _check_direction_count(direction_count, form.degree)
    angles = TAU * np.arange(direction_count) / direction_count
    if direction_count % 4:  # the grid misses pi/2
        angles = np.append(angles, math.pi / 2.0)
    x0, y0 = -np.cos(angles), -np.sin(angles)
    roots, counts = _companion_roots(restrict_to_direction(form, x0, y0))
    top_imag = np.max(np.abs(roots.imag), axis=1)
    failing = np.flatnonzero(counts < form.degree)
    if failing.size == 0:
        return HyperbolicityVerdict(
            True, float(np.max(top_imag)), direction_count, REAL_ROOT_RTOL
        )
    witness = failing[_witness_index(top_imag[failing])]
    return HyperbolicityVerdict(
        hyperbolic=False,
        max_imag=float(top_imag[witness]),
        direction_count=direction_count,
        tol=REAL_ROOT_RTOL,
        witness_theta=float(angles[witness]),
        witness_direction=(float(x0[witness]), float(y0[witness])),
        witness_roots=roots[witness],
    )


def quartic_boundary_points(count: int = 32) -> np.ndarray:
    """Points on the boundary quartic found by bisecting rays cast from an
    interior point; (1.5, 0) is always the first entry."""
    quartic = boundary_quartic()
    angles = TAU * (np.arange(count - 1) + 0.37) / count  # avoid the exact real axis
    cos, sin = np.cos(angles), np.sin(angles)

    def radial(r):
        return evaluate_form(quartic, 1.0, -0.5 + r * cos, r * sin)

    lo, hi = np.zeros_like(angles), np.full_like(angles, 4.0)
    if np.any(radial(lo) >= 0) or np.any(radial(hi) <= 0):
        raise PipelineStageError("duality", "ray bracketing failed")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        inside = radial(mid) <= 0
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    r = 0.5 * (lo + hi)
    return np.concatenate([[[1.5, 0.0]], np.stack([-0.5 + r * cos, r * sin], axis=1)])


@dataclass(frozen=True)
class NonrepresentabilityReport:
    """End-to-end verdict that no finite matrix attains the counterexample
    operator's range closure."""

    quartic: TernaryForm
    dual: TernaryForm
    duality_samples: int
    duality_max_residual: float
    verdict: HyperbolicityVerdict
    witness_restriction: list[float]
    witness_real_count: int
    conclusion: str

    def to_dict(self) -> dict:
        return {
            "kind": "nonrepresentability-report",
            "quartic": {"degree": self.quartic.degree, "records": self.quartic.to_records()},
            "dual": {"degree": self.dual.degree, "records": self.dual.to_records()},
            "duality_samples": self.duality_samples,
            "duality_max_residual": self.duality_max_residual,
            "verdict": self.verdict.to_dict(),
            "witness_restriction": list(self.witness_restriction),
            "witness_real_count": self.witness_real_count,
            "conclusion": self.conclusion,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NonrepresentabilityReport":
        if doc.get("kind") != "nonrepresentability-report":
            raise ValueError("not a nonrepresentability-report document")
        return cls(
            quartic=TernaryForm.from_records(
                doc["quartic"]["degree"], doc["quartic"]["records"]
            ),
            dual=TernaryForm.from_records(doc["dual"]["degree"], doc["dual"]["records"]),
            duality_samples=int(doc["duality_samples"]),
            duality_max_residual=float(doc["duality_max_residual"]),
            verdict=HyperbolicityVerdict.from_dict(doc["verdict"]),
            witness_restriction=[float(c) for c in doc["witness_restriction"]],
            witness_real_count=int(doc["witness_real_count"]),
            conclusion=str(doc["conclusion"]),
        )


def nonrepresentability_report(
    direction_count: int = 720, duality_samples: int = 32
) -> NonrepresentabilityReport:
    """Run the envelope chain: build the boundary quartic and its dual,
    confirm the duality pairing on sampled boundary tangents, then test the
    dual for hyperbolicity.  A failed test means no matrix of any size has
    the operator's range closure as its numerical range."""
    quartic = boundary_quartic()
    dual = dual_quartic()
    _check_direction_count(direction_count, dual.degree)
    try:
        points = quartic_boundary_points(duality_samples)
        tangents = form_gradient(quartic, 1.0, points[:, 0], points[:, 1])
        tangents = tangents / np.linalg.norm(tangents, axis=0)
        worst = float(np.max(np.abs(evaluate_form(dual, *tangents))))
        if worst > 1e-6:
            raise PipelineStageError(
                "duality", f"tangent-line residual {worst:.3e} exceeds 1e-6"
            )
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError("duality", str(exc)) from exc

    try:
        verdict = hyperbolicity_test(dual, direction_count)
    except Exception as exc:
        raise PipelineStageError("hyperbolicity", str(exc)) from exc

    if verdict.hyperbolic:
        conclusion = (
            "dual quartic passed sampled hyperbolicity; no obstruction found"
        )
        restriction = restrict_to_direction(dual, -1.0, 0.0)
    else:
        conclusion = (
            "dual quartic is not hyperbolic, so it divides no Kippenhahn "
            "polynomial: no finite matrix numerical range equals the "
            "operator range closure"
        )
        restriction = restrict_to_direction(dual, *verdict.witness_direction)
    real_count, _ = univariate_real_root_count(restriction)
    return NonrepresentabilityReport(
        quartic=quartic,
        dual=dual,
        duality_samples=duality_samples,
        duality_max_residual=worst,
        verdict=verdict,
        witness_restriction=[float(c) for c in restriction],
        witness_real_count=real_count,
        conclusion=conclusion,
    )
