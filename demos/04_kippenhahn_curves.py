"""
Kippenhahn polynomials and hyperbolicity
========================================

Every k x k matrix B has the ternary form
F_B(t, x, y) = det(t I + x Re(B) + y Im(B)), and the support function of
W(B) in direction phi is the largest t-root of F_B(t, -cos phi, -sin phi),
because that restriction is the characteristic polynomial of the rotated
Hermitian part.  Being a factor of some F_B forces a form to have all-real
roots in every direction ("hyperbolic"); this script sees both facts
numerically.
"""

import numpy as np

from toeprange import (
    hyperbolicity_test,
    kippenhahn_form,
    matrix_numerical_range,
    restrict_to_direction,
    rotated_hermitian_parts,
    univariate_real_root_count,
)

rng = np.random.default_rng(20)
b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
form = kippenhahn_form(b)
print("degree:", form.degree, " monomials:", len(form.coefficients))

# Largest pencil root vs the top eigenvalue of the rotated Hermitian part,
# a few directions.
phis = np.linspace(0.0, np.pi, 5)
tops = np.linalg.eigvalsh(rotated_hermitian_parts(b, phis))[:, -1]
for phi, direct in zip(phis, tops):
    coeffs = restrict_to_direction(form, -np.cos(phi), -np.sin(phi))
    _, roots = univariate_real_root_count(coeffs)
    pencil_top = roots.real.max()
    print(f"phi={phi:.3f}  pencil {pencil_top:+.10f}  eigvalsh {direct:+.10f}")

# Kippenhahn forms are always hyperbolic (the restrictions are Hermitian
# characteristic polynomials).
verdict = hyperbolicity_test(form, direction_count=360)
print("hyperbolic:", verdict.hyperbolic, " max |Im| seen:", verdict.max_imag)

# For a normal matrix the form splits into linear factors and the range is
# the convex hull of the spectrum.
normal = np.diag([1.0 + 0j, 1j, -1.0 + 0j])
print("normal matrix form:", kippenhahn_form(normal).to_dict())
print("normal matrix range vertices:")
print(matrix_numerical_range(normal, 360).vertices)
