"""
Why no single matrix has this numerical range
=============================================

The bundled 2-periodic, 5-banded operator has symbol ranges bounded by a
family of ellipses H(X, Y; theta) = alpha cos(theta) + beta sin(theta) +
gamma = 0.  The envelope condition alpha^2 + beta^2 = gamma^2 turns out to
be a quartic curve, so the boundary of the range closure is algebraic.
If some matrix B had this set as its numerical range, the quartic would
divide the dual of B's Kippenhahn polynomial, forcing the quartic's dual
curve to be hyperbolic.  It is not: along the vertical direction its
restriction 16 t^4 - 72 t^2 - 27 keeps two roots off the real axis.
"""

import numpy as np

from toeprange import (
    boundary_quartic,
    dual_quartic,
    ellipse_family,
    ellipse_family_residual,
    evaluate_form,
    family_discriminant,
    nonrepresentability_report,
    restrict_to_direction,
    univariate_real_root_count,
)

family = ellipse_family()

# The parametrized ellipses really do satisfy their conic equation.
worst = max(
    abs(ellipse_family_residual(theta, t))
    for theta in np.linspace(0, 2 * np.pi, 50)
    for t in np.linspace(0, 2 * np.pi, 50)
)
print("family membership residual:", worst)

# alpha^2 + beta^2 - gamma^2 expands to exactly -9 times the boundary
# quartic; at t = 1 its zeros are the envelope.
discriminant = family_discriminant(family)
print("discriminant records:", discriminant.to_dict()["records"])
print("equals -9 x boundary quartic:", discriminant.coefficients
      == {e: -9 * c for e, c in boundary_quartic().coefficients.items()})
print("residual at the boundary points (1.5, 0) and (-2.5, 0):",
      evaluate_form(discriminant, 1.0, 1.5, 0.0),
      evaluate_form(discriminant, 1.0, -2.5, 0.0))
print("residual at the isolated interior point (0.5, 0):",
      evaluate_form(discriminant, 1.0, 0.5, 0.0))

# The dual quartic restricted to the vertical direction.
coeffs = restrict_to_direction(dual_quartic(), 0.0, -1.0)
count, roots = univariate_real_root_count(coeffs)
print("restriction coefficients:", coeffs)
print("real roots:", count, " roots:", np.round(roots, 6))

# The full pipeline: duality spot checks plus the hyperbolicity sweep.
report = nonrepresentability_report()
print("duality residual:", report.duality_max_residual)
print("verdict:", report.conclusion)
