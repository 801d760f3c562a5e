"""The elliptic metric profile and the explicit Iwasawa factorization.

The conformal factor e^{u(y)} = a1 (1 - q^2 sn^2(ry, k)) oscillates between
a2 and a1 with period 2T.  The extended frame F(z, lambda) comes out of the
explicit factorization exp((z - beta1) D - beta2 L0) Q^{-1}: this demo prints
the metric profile, checks the conjugation Q D Q^{-1} = Omega and the beta
lemma at the full period, and then drives that frame (iwasawa_frame): value
I at the origin, unitarity, translation equivariance, and the Maurer-Cartan
form.  It ends by comparing it with extended_frame, the same frame rebuilt
from the closed-form lift.  Both frames return the 3x3 matrix itself; they
and the beta integrals take the spectral object es = eigensystem(c, lambda),
built once; q_factor and the connection matrices take lambda itself.
"""

import cmath

import numpy as np

from equilag import (
    SurfaceParams,
    beta_integrals,
    derive_constants,
    eigensystem,
    extended_frame,
    first_integral_residual,
    iwasawa_frame,
    metric_at,
    omega_matrix,
    potential_matrix,
    q_factor,
)
from equilag.iwasawa import b_matrix
from equilag.linalg3 import matexp_skew, unitary_residual

c = derive_constants(SurfaceParams(2.0, complex(cmath.exp(1j * cmath.pi / 4))))
lam = cmath.exp(0.3j)
es = eigensystem(c, lam)

print("== metric profile over one period ==")
for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
    y = 2 * c.T * frac
    m = metric_at(c, y)
    print(f"  y = {y:7.4f}: e^u = {m.w:.12f}  u' = {m.u_prime:+.12f}"
          f"  first-integral residual = {first_integral_residual(c, y):.1e}")
print(f"  range is [a2, a1] = [{c.a2:.6f}, {c.a1:.6f}], period 2T = {2 * c.T:.6f}")

print("\n== the factor Q = Q0 Qtilde ==")
y = 0.62
q0, qt = q_factor(c, y, lam)
q = q0 @ qt
conj = np.max(np.abs(q @ potential_matrix(c, lam) @ np.linalg.inv(q) - omega_matrix(c, y, lam)))
print(f"  det Qtilde - 1          = {np.linalg.det(qt) - 1:+.1e}")
print(f"  Q D Q^-1 - Omega        = {conj:.1e}")
q00, qt0 = q_factor(c, 0.0, lam)
print(f"  Qtilde(0) - I           = {np.max(np.abs(qt0 - np.eye(3))):.1e}")

print("\n== beta integrals at the full period ==")
b1, b2 = beta_integrals(c, es, 2 * c.T)
print(f"  Im beta1(2T) - 2T = {b1.imag - 2 * c.T:+.1e}")
print(f"  Re beta2(2T)      = {b2.real:+.1e}")

print("\n== the extended frame ==")
z = 0.37 + 0.52j
fr = iwasawa_frame(c, es, z)
print(f"  F(0) - I          = {np.max(np.abs(iwasawa_frame(c, es, 0j) - np.eye(3))):.1e}")
print(f"  unitarity residual = {unitary_residual(fr):.1e}")
print(f"  det - 1            = {np.linalg.det(fr) - 1:+.1e}")

chi = matexp_skew(potential_matrix(c, lam), 0.81)
equiv = np.max(np.abs(iwasawa_frame(c, es, z + 0.81) - chi @ fr))
print(f"  equivariance F(x + z) = e^(xD) F(z): residual = {equiv:.1e}")

h = 1e-5
dfx = (iwasawa_frame(c, es, z + h) - iwasawa_frame(c, es, z - h)) / (2 * h)
dfy = (iwasawa_frame(c, es, z + 1j * h) - iwasawa_frame(c, es, z - 1j * h)) / (2 * h)
fi = np.linalg.inv(fr)
print(f"  Maurer-Cartan in x: |F^-1 dF/dx - Omega| = {np.max(np.abs(fi @ dfx - omega_matrix(c, z.imag, lam))):.1e}")
print(f"  Maurer-Cartan in y: |F^-1 dF/dy - B|     = {np.max(np.abs(fi @ dfy - b_matrix(c, z.imag, lam))):.1e}")

print("\n== the factorization and the lift give the same frame ==")
fb = extended_frame(c, es, z)
print(f"  max |iwasawa_frame - extended_frame| = {np.max(np.abs(fr - fb)):.1e}")
