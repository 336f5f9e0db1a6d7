"""
Computing the closure of the numerical range
============================================

The range closure of the operator is the closed convex hull of the
numerical ranges of its symbols over all angles, so its support in a
direction phi is the largest top eigenvalue of Re(e^{-i phi} A(theta))
over theta.  For each direction of a phi grid that maximum is certified by
branch and bound in theta: a sound upper bound, and a boundary point
within 1e-9 (relative) of it.  The hull of the boundary points is an inner
approximation, and the report states how far it can be from the closure.
"""

import numpy as np

from toeprange import (
    boundary_quartic,
    counterexample_spec,
    evaluate_form,
    matrix_numerical_range,
    operator_range,
    symbol,
    truncation,
    truncation_inclusion_check,
)
from toeprange.svg import range_figure

spec = counterexample_spec()
report = operator_range(spec, phi_count=360)
vertices = report.polygon.vertices
print("hull vertices:", vertices.shape[0])
print("support tolerance:", report.residual_summary["support_tol"])
print("certified Hausdorff gap:", report.residual_summary["certified_gap"])
print("real-axis extremes:", vertices[:, 0].min(), "..", vertices[:, 0].max())

# Every hull vertex should sit on the known boundary quartic.
quartic = boundary_quartic()
residual = np.abs(evaluate_form(quartic, 1.0, vertices[:, 0], vertices[:, 1]))
residual /= 1.0 + np.hypot(vertices[:, 0], vertices[:, 1]) ** 4
print("max normalized quartic residual:", residual.max())

# Truncation ranges are nested inside the closure, so their supports stay
# under the certified upper bounds (the excess is negative).
for n in (10, 20, 40):
    print(f"W(T_{n}) support excess over the bounds:",
          truncation_inclusion_check(spec, n, report))

# Reproduce the classic picture: the hull in red, six symbol ranges dotted.
overlays = []
for j in range(6):
    theta = 2 * np.pi * j / 6
    poly = matrix_numerical_range(symbol(spec, theta), 360)
    overlays.append((f"theta={theta:.3f}", poly.vertices))
with open("range_closure.svg", "w", encoding="utf-8") as fh:
    fh.write(range_figure(vertices, overlays))
print("wrote range_closure.svg")

# A large truncation's range, for comparison, still sits strictly inside.
big = matrix_numerical_range(truncation(spec, 60), 360)
print("W(T_60) rightmost point:", big.vertices[:, 0].max())
