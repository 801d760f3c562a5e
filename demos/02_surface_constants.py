"""From two generating scalars to the whole derived-constant record.

A surface of the family is pinned down by a1 = e^{u(0)} and the cubic-form
coefficient psi.  This demo derives everything else -- beta, the remaining
cubic roots a2, a3, the elliptic modulus, the half period T -- and then walks
the spectral circle: eigenvalues of the potential D(lambda), their Viete
identities, the twisting relation, and the six degenerate lambda values
where a zero eigenvalue appears.
"""

import cmath
import math

import numpy as np

from equilag import (
    SurfaceParams,
    TotallyGeodesicError,
    FlatCliffordError,
    derive_constants,
    eigensystem,
    potential_matrix,
    regime_of,
)
from equilag.linalg3 import EPS6, sigma_algebra

params = SurfaceParams(2.0, 1.0)
c = derive_constants(params)
print("== derived constants for a1 = 2, psi = 1 ==")
for name in ("beta", "a1", "a2", "a3", "k", "q2", "r", "T"):
    print(f"  {name:<4} = {getattr(c, name):.15f}")
print(f"  a = {c.a},  b = {c.b},  psi + i a^2 b = {c.psi + 1j * c.a**2 * c.b:+.1e}")

print("\n== eigenvalues of D(lambda) on the unit circle ==")
for theta in (0.0, 0.4, 1.1):
    lam = cmath.exp(1j * theta)
    es = eigensystem(c, lam)
    d1, d2, d3 = es.d
    re0 = (c.psi / lam**3).real
    print(f"  theta = {theta:4}: d = ({d1:+.6f}, {d2:+.6f}, {d3:+.6f})"
          f"  sum = {d1 + d2 + d3:+.1e}"
          f"  pair sum + beta = {d1 * d2 + d2 * d3 + d3 * d1 + c.beta:+.1e}"
          f"  product + 2Re = {d1 * d2 * d3 + 2 * re0:+.1e}")

print("\n== twisting D(eps lambda) = sigma(D(lambda)) ==")
lam = cmath.exp(0.37j)
resid = np.max(np.abs(potential_matrix(c, EPS6 * lam) - sigma_algebra(potential_matrix(c, lam))))
print(f"  residual = {resid:.2e}")

print("\n== the six hyperplane-degenerate lambda ==")
degenerate = [
    theta for theta in np.linspace(0.0, 2 * math.pi, 360, endpoint=False)
    if regime_of(c, cmath.exp(1j * theta)) == "imaginary"  # where eigensystem refuses
]
print(f"  found {len(degenerate)} angles: {[f'{t:.4f}' for t in degenerate]}")

print("\n== rejected inputs ==")
for bad in (SurfaceParams(1.0, 0.0), SurfaceParams(1.0, 1.0)):
    try:
        derive_constants(bad)
    except (TotallyGeodesicError, FlatCliffordError) as exc:
        print(f"  a1 = {bad.a1}, psi = {bad.psi}: {type(exc).__name__}: {exc}")
