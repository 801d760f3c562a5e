"""The special-function kernel: K(k) and sn/cn/dn.

Everything downstream -- the metric profile, the half period T, the
closed-form lifts -- reduces to these functions, so this demo simply
exercises their defining properties: the AGM value of K against brute-force
quadrature, the inversion identity sn(J(theta, k), k) = sin(theta) with
J(theta, k) by the same quadrature, and the period lattice of the Jacobi
functions.
"""

import math

import numpy as np

from equilag import complete_K, jacobi


def simpson_J(theta: float, k: float) -> float:
    """J(theta, k) by the composite Simpson rule on 20000 panels."""
    grid = np.linspace(0.0, theta, 20001)
    vals = 1.0 / np.sqrt(1.0 - (k * np.sin(grid)) ** 2)
    return (grid[1] - grid[0]) / 3 * (vals[0] + vals[-1] + 4 * vals[1::2].sum() + 2 * vals[2:-1:2].sum())


print("== complete integral of the first kind ==")
for k in (0.0, 0.3, 0.5, 0.9, 0.99):
    print(f"  K({k:4}) = {complete_K(k):.15f}")
print(f"  K(0) - pi/2 = {complete_K(0.0) - math.pi / 2:+.1e}")

# brute-force Simpson oracle for K(0.5)
k = 0.5
print(f"  K(0.5) vs composite Simpson: {complete_K(0.5) - simpson_J(math.pi / 2, k):+.2e}")

print("\n== incomplete integral and its inversion ==")
for theta in (0.2, 0.7, 1.2):
    j = simpson_J(theta, k)
    sn = jacobi(j, k).sn
    print(f"  theta = {theta}: J = {j:.12f},  sn(J) - sin(theta) = {sn - math.sin(theta):+.1e}")
print(f"  J(pi/2, k) - K(k) = {simpson_J(math.pi / 2, k) - complete_K(k):+.1e}")
print(f"  J(theta + pi) - J(theta) - 2K = "
      f"{simpson_J(0.4 + math.pi, k) - simpson_J(0.4, k) - 2 * complete_K(k):+.1e}")

print("\n== Jacobi functions ==")
z = 0.813
sn, cn, dn = jacobi(z, k)
print(f"  sn, cn, dn at z = {z}: {sn:.12f}, {cn:.12f}, {dn:.12f}")
print(f"  sn^2 + cn^2 - 1      = {sn**2 + cn**2 - 1:+.1e}")
print(f"  k^2 sn^2 + dn^2 - 1  = {k**2 * sn**2 + dn**2 - 1:+.1e}")

K = complete_K(k)
print(f"  quarter period: sn(K) = {jacobi(K, k).sn:.15f} (exactly 1)")
p4 = jacobi(z + 4 * K, k)
print(f"  4K-periodicity: max drift = {max(abs(a - b) for a, b in zip(p4, (sn, cn, dn))):.1e}")

print("\n== degenerate moduli ==")
print(f"  k = 0 gives circular functions:  {jacobi(1.0, 0.0)}")
print(f"  k = 1 gives hyperbolic functions: {jacobi(0.5, 1.0)}")
try:
    complete_K(1.0)
except ValueError as exc:
    print(f"  K(1) is rejected: {exc}")
