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

from .curves import (
    ConicFamilyCoefficients,
    HyperbolicityVerdict,
    NonrepresentabilityReport,
    PipelineStageError,
    TernaryForm,
    boundary_quartic,
    dual_quartic,
    ellipse_family,
    ellipse_family_residual,
    ellipse_point,
    evaluate_form,
    family_discriminant,
    form_gradient,
    hyperbolicity_test,
    kippenhahn_form,
    nonrepresentability_report,
    restrict_to_direction,
    univariate_real_root_count,
)
from .linalg import (
    EigenSolverError,
    as_matrix,
    max_norm,
    rotated_hermitian_parts,
)
from .operators import (
    PeriodicBandedSpec,
    SpecError,
    block_diagonalization_residual,
    c_mu,
    counterexample_spec,
    fourier_unitary,
    free_jacobi_spec,
    is_selfadjoint,
    lift_eigenvector,
    lifting_residual_max,
    load_spec,
    random_spec,
    spec_to_doc,
    spectrum_match_gap,
    symbol,
    symbol_batch,
    truncation,
    validate_spec,
)
from .ranges import (
    ConvexPolygon,
    RangeReport,
    angular_resolution_gap,
    convex_hull,
    hausdorff_distance,
    matrix_numerical_range,
    operator_range,
    selfadjoint_interval,
    truncation_inclusion_check,
)

__version__ = "0.1.0"

__all__ = [
    "ConicFamilyCoefficients",
    "ConvexPolygon",
    "EigenSolverError",
    "HyperbolicityVerdict",
    "NonrepresentabilityReport",
    "PeriodicBandedSpec",
    "PipelineStageError",
    "RangeReport",
    "SpecError",
    "TernaryForm",
    "angular_resolution_gap",
    "as_matrix",
    "block_diagonalization_residual",
    "boundary_quartic",
    "c_mu",
    "convex_hull",
    "counterexample_spec",
    "dual_quartic",
    "ellipse_family",
    "ellipse_family_residual",
    "ellipse_point",
    "evaluate_form",
    "family_discriminant",
    "form_gradient",
    "fourier_unitary",
    "free_jacobi_spec",
    "hausdorff_distance",
    "hyperbolicity_test",
    "is_selfadjoint",
    "kippenhahn_form",
    "lift_eigenvector",
    "lifting_residual_max",
    "load_spec",
    "matrix_numerical_range",
    "max_norm",
    "nonrepresentability_report",
    "operator_range",
    "random_spec",
    "restrict_to_direction",
    "rotated_hermitian_parts",
    "selfadjoint_interval",
    "spec_to_doc",
    "spectrum_match_gap",
    "symbol",
    "symbol_batch",
    "truncation",
    "truncation_inclusion_check",
    "univariate_real_root_count",
    "validate_spec",
]
