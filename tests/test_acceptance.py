"""Acceptance criteria.

Each test pins one criterion at its stated tolerance, prints a pass/fail
line (visible with ``pytest -s``), and asserts both the tolerance and the
runtime budget.
"""

import math
import time

import numpy as np

from conftest import random_complex_matrix, random_spec_with_s
from toeprange.curves import (
    boundary_quartic,
    dual_quartic,
    ellipse_family,
    ellipse_family_residual,
    evaluate_form,
    family_discriminant,
    hyperbolicity_test,
    kippenhahn_form,
    restrict_to_direction,
    univariate_real_root_count,
)
from toeprange.linalg import max_norm
from toeprange.operators import (
    TAU,
    block_diagonalization_residual,
    counterexample_spec,
    free_jacobi_spec,
    lifting_residual_max,
    spectrum_match_gap,
    symbol,
    truncation,
)
from toeprange.ranges import (
    angular_resolution_gap,
    hausdorff_distance,
    matrix_numerical_range,
    operator_range,
    selfadjoint_interval,
    truncation_inclusion_check,
)

SPEC_SEED = 2024


def _finish(number, name, budget, started, failures):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"criterion {number:2d} ({name}): {status} "
          f"[{elapsed:.2f}s / budget {budget:.0f}s]")
    assert not failures, failures
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds budget {budget}s"


def _random_cases(count):
    rng = np.random.default_rng(SPEC_SEED)
    return [random_spec_with_s(rng) for _ in range(count)]


def test_criterion_1_symbol_conformance():
    started = time.perf_counter()
    failures = []
    spec = counterexample_spec()
    rng = np.random.default_rng(1)
    for theta in rng.uniform(-10.0, 10.0, 100):
        z = np.exp(1j * theta)
        gap = max_norm(symbol(spec, theta) - np.array([[z, -1.0], [2.0 * z, z]]))
        if gap > 1e-14:
            failures.append(f"theta={theta}: gap={gap:.3e}")
    _finish(1, "symbol conformance", 1.0, started, failures)


def test_criterion_2_block_diagonalization():
    started = time.perf_counter()
    failures = []
    for spec, s in _random_cases(50):
        residual = block_diagonalization_residual(spec, s)
        bound = 1e-10 * (1.0 + spec.max_entry())
        if residual > bound:
            failures.append(f"period={spec.period} band={spec.band} s={s}: "
                            f"{residual:.3e} > {bound:.3e}")
    _finish(2, "block diagonalization", 10.0, started, failures)


def test_criterion_3_eigenvalue_lifting():
    started = time.perf_counter()
    failures = []
    for spec, s in _random_cases(50):
        gap = spectrum_match_gap(spec, s)
        if gap > 1e-8:
            failures.append(f"spectrum gap {gap:.3e}")
        residual = lifting_residual_max(spec, s)
        if residual > 1e-8:
            failures.append(f"lift residual {residual:.3e}")
    _finish(3, "eigenvalue lifting", 20.0, started, failures)


def test_criterion_4_selfadjoint_interval():
    started = time.perf_counter()
    failures = []
    spec = free_jacobi_spec()
    a, b = selfadjoint_interval(spec, theta_count=2000)
    if abs(a + 2.0) > 2e-5 or abs(b - 2.0) > 2e-5:
        failures.append(f"interval ({a}, {b}) misses [-2, 2] at 2e-5")
    t_n = truncation(spec, 2000)
    if max_norm(t_n - t_n.conj().T) > 1e-12 * (1.0 + max_norm(t_n)):
        failures.append("T_2000 is not Hermitian")
    values = np.linalg.eigvalsh(t_n)
    if abs(values[0] - a) > 5e-3 or abs(values[-1] - b) > 5e-3:
        failures.append(f"T_2000 extremes ({values[0]}, {values[-1]}) "
                        f"vs interval ({a}, {b}) at 5e-3")
    _finish(4, "selfadjoint interval", 30.0, started, failures)


def test_criterion_5_boundary_quartic():
    started = time.perf_counter()
    failures = []
    report = operator_range(counterexample_spec(), 720, 720)
    v = report.polygon.vertices
    quartic = boundary_quartic()
    residual = np.abs(evaluate_form(quartic, 1.0, v[:, 0], v[:, 1]))
    residual /= 1.0 + np.hypot(v[:, 0], v[:, 1]) ** 4
    if residual.max() > 5e-3:
        failures.append(f"max normalized quartic residual {residual.max():.3e}")
    if abs(v[:, 0].max() - 1.5) > 1e-3:
        failures.append(f"rightmost point {v[:, 0].max()}")
    if abs(v[:, 0].min() + 2.5) > 1e-3:
        failures.append(f"leftmost point {v[:, 0].min()}")
    _finish(5, "boundary quartic", 60.0, started, failures)


def test_criterion_6_envelope_identity():
    started = time.perf_counter()
    failures = []
    disc = family_discriminant(ellipse_family())
    dehom = {}
    for (i, j, k), c in boundary_quartic().coefficients.items():
        dehom[(j, k)] = dehom.get((j, k), 0) - 9 * int(c)
    if disc != dehom:
        failures.append(f"discriminant {disc} != -9 * quartic {dehom}")
    _finish(6, "envelope identity", 1.0, started, failures)


def test_criterion_7_ellipse_membership():
    started = time.perf_counter()
    failures = []
    grid = np.linspace(0.0, TAU, 100, endpoint=False)
    worst = max(abs(ellipse_family_residual(th, t)) for th in grid for t in grid)
    if worst > 1e-9:
        failures.append(f"max |H| on 100x100 grid: {worst:.3e}")
    _finish(7, "ellipse membership", 1.0, started, failures)


def test_criterion_8_hyperbolicity_failure():
    started = time.perf_counter()
    failures = []
    verdict = hyperbolicity_test(dual_quartic(), 720)
    if verdict.hyperbolic:
        failures.append("dual quartic reported hyperbolic")
    if abs(verdict.witness_theta - math.pi / 2.0) > 1e-12:
        failures.append(f"witness angle {verdict.witness_theta}")
    restriction = restrict_to_direction(dual_quartic(), *verdict.witness_direction)
    if np.max(np.abs(restriction - np.array([16.0, 0.0, -72.0, 0.0, -27.0]))) > 1e-12:
        failures.append(f"witness restriction {restriction}")
    count, roots = univariate_real_root_count(restriction)
    want = math.sqrt((6.0 * math.sqrt(3.0) + 9.0) / 4.0)
    reals = np.sort(roots.real[np.abs(roots.imag) <= 1e-7 * (1 + np.abs(roots))])
    if count != 2:
        failures.append(f"real root count {count} != 2")
    elif abs(reals[0] + want) > 1e-3 or abs(reals[-1] - want) > 1e-3:
        failures.append(f"real roots {reals} != +-{want:.4f}")
    if abs(want - 2.2018) > 1e-3:
        failures.append("closed-form root value drifted")
    _finish(8, "hyperbolicity failure", 1.0, started, failures)


def test_criterion_9_kippenhahn_sanity():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(9)
    phis = TAU * np.arange(360) / 360
    for index in range(20):
        dim = int(rng.integers(1, 7))
        b = random_complex_matrix(rng, dim)
        form = kippenhahn_form(b)
        verdict = hyperbolicity_test(form, 360)
        if not verdict.hyperbolic:
            failures.append(f"matrix {index} (dim {dim}): form not hyperbolic")
            continue
        supports = matrix_numerical_range(b, 360).support(phis)
        worst = 0.0
        for k in range(360):
            coeffs = restrict_to_direction(form, -np.cos(phis[k]), -np.sin(phis[k]))
            _, roots = univariate_real_root_count(coeffs)
            worst = max(worst, abs(float(np.max(roots.real)) - supports[k]))
        if worst > 1e-7:
            failures.append(f"matrix {index} (dim {dim}): support gap {worst:.3e}")
    _finish(9, "kippenhahn sanity", 30.0, started, failures)


def test_criterion_10_truncation_inclusion():
    started = time.perf_counter()
    failures = []
    spec = counterexample_spec()
    report = operator_range(spec, 720, 720)
    bound = angular_resolution_gap(report.polygon, 720) + 1e-8
    distances = []
    for n in (10, 20, 40, 80):
        excess = truncation_inclusion_check(spec, n, report)
        if excess > bound:
            failures.append(f"N={n}: excess {excess:.3e} > {bound:.3e}")
        polygon = matrix_numerical_range(truncation(spec, n), 720)
        distances.append(hausdorff_distance(polygon, report.polygon))
    for first, second in zip(distances, distances[1:]):
        if second > first + 1e-9:
            failures.append(f"Hausdorff distances not non-increasing: {distances}")
            break
    _finish(10, "truncation inclusion", 60.0, started, failures)
