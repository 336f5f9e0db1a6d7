"""Closures of numerical ranges of periodic banded Toeplitz operators.

The operator is described by its periodic diagonal sequences; its range
closure is the closed convex hull of the numerical ranges of a family of
small symbol matrices, computed here by support-function sweeps.  The
package also verifies the underlying structural identities (Fourier block
diagonalization, eigenvector lifting, truncation inclusions) and carries
an algebraic-curves pipeline showing that one concrete 2-periodic,
5-banded operator has a range closure that is not the numerical range of
any finite matrix.
"""

import importlib

# Each public name once, under the module that defines it.  A name is
# imported from its module on first use (PEP 562), so ``import toeprange``
# and the commands that do not use a module do not load it.
_NAMES = {
    "curves": (
        "ConicFamilyCoefficients", "HyperbolicityVerdict", "NonrepresentabilityReport",
        "PipelineStageError", "TernaryForm", "boundary_quartic", "dual_quartic",
        "ellipse_family", "ellipse_family_residual", "ellipse_point", "evaluate_form",
        "family_discriminant", "form_gradient", "hyperbolicity_test", "kippenhahn_form",
        "nonrepresentability_report", "restrict_to_direction", "univariate_real_root_count",
    ),
    "linalg": ("EigenSolverError", "as_matrix", "max_norm", "rotated_hermitian_parts"),
    "operators": (
        "PeriodicBandedSpec", "SpecError", "block_diagonalization_residual", "c_mu",
        "counterexample_spec", "fourier_unitary", "free_jacobi_spec", "is_selfadjoint",
        "lift_eigenvector", "lifting_residual_max", "load_spec", "random_spec", "spec_to_doc",
        "spectrum_match_gap", "symbol", "symbol_batch", "symbol_harmonics", "truncation",
        "validate_spec",
    ),
    "ranges": (
        "ConvexPolygon", "RangeReport", "convex_hull", "flat_table", "hausdorff_distance",
        "matrix_numerical_range", "operator_range", "selfadjoint_interval", "symbol_ranges",
        "truncation_inclusion_check",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
