"""
Building a periodic banded operator and its finite surrogates
=============================================================

An operator here is nothing but its defining data: a period, a band
half-width, and one periodic sequence per diagonal.  This script builds
the bundled 2-periodic, 5-banded operator, prints a truncation so the
banded layout is visible, and then checks the two structural identities
that make the symbol matrices useful: the Fourier unitary block
diagonalizes the wrapped matrix C_mu into symbols at roots of unity, and
symbol eigenvectors lift to C_mu eigenvectors.
"""

import numpy as np

from toeprange import (
    block_diagonalization_residual,
    c_mu,
    counterexample_spec,
    lift_eigenvector,
    symbol,
    truncation,
)

spec = counterexample_spec()
print("period n+1 =", spec.period, " band m =", spec.band)

# The leading 6x6 compression: the two nonzero diagonals alternate -1, 2
# and sit above the main diagonal.
print("\nT_6 =")
print(np.real_if_close(truncation(spec, 6)))

# The symbol is a 2x2 matrix trigonometric polynomial.
for theta in (0.0, np.pi / 2):
    print(f"\nPhi({theta:.4f}) =")
    print(symbol(spec, theta))

# Wrapping the band around a mu x mu square gives C_mu; conjugating by the
# Fourier unitary leaves one symbol block per s-th root of unity.
for s in (3, 4, 6):
    print(f"\ns = {s}: block diagonalization residual =",
          block_diagonalization_residual(spec, s))

# An eigenvector v of Phi(2 pi r / s) replicates into an eigenvector of
# C_mu with the same eigenvalue, modulated by powers of exp(2 pi i r / s).
s, r = 4, 1
phi = symbol(spec, 2 * np.pi * r / s)
values, vectors = np.linalg.eig(phi)
lam, v = values[0], vectors[:, 0]
lifted = lift_eigenvector(v, r, s)
c = c_mu(spec, s)
print(f"\nlift residual |C_mu w - lambda w| =",
      np.linalg.norm(c @ lifted - lam * lifted))
