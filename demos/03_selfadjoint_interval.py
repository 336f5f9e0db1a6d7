"""
Selfadjoint operators collapse to an interval
=============================================

For a selfadjoint operator the symbol is Hermitian at every angle and the
range closure is the interval between the extreme symbol eigenvalues over
the angle sweep.  The free Jacobi operator (ones on both first
off-diagonals) is the classic sanity check: its symbol is the scalar
2 cos(theta), so the interval is exactly [-2, 2], and eigenvalues of large
truncations creep up to the endpoints at rate 1/N^2.
"""

import numpy as np

from toeprange import (
    free_jacobi_spec,
    operator_range,
    selfadjoint_interval,
    symbol,
    truncation,
)

spec = free_jacobi_spec()
print("symbol at a few angles:",
      [symbol(spec, th)[0, 0].real for th in (0.0, np.pi / 3, np.pi)])

a, b = selfadjoint_interval(spec, theta_count=2000)
print("interval from the symbol sweep:", (a, b))

for n in (50, 200, 1000):
    values = np.linalg.eigvalsh(truncation(spec, n))
    print(f"T_{n} eigenvalue extremes: [{values[0]:.6f}, {values[-1]:.6f}]")

# The planar range polygon of a selfadjoint operator degenerates to a
# segment on the real axis.  Each sample row is (support, x, y).
report = operator_range(spec, theta_count=360, phi_count=360)
print("polygon vertices:", report.polygon.vertices)
print("max |Im| over samples:", np.abs(report.samples[:, 2]).max())
