"""Closed-form horizontal lifts in both regimes and their geometry.

Depending on whether lambda^-3 psi is real, the canonical lift into S^5 is a
phase-twisted eigenbasis sum with phases G_j given by elliptic integrals of
the third kind, or a pure sn/cn/dn combination that is 4T-periodic in y.
This demo evaluates both, confirms unit norm, horizontality/conformality
by finite differences, the third-order ODE in x, and the projective
agreement with the Iwasawa-route frame column (iwasawa_frame(...)[:, 2]).
The point evaluators (lift_at, iwasawa_frame) take the spectral object
es = eigensystem(c, lambda); sample_grid and verify_geometry take lambda
and build their own.
"""

import cmath
import math

import numpy as np

from equilag import (
    SurfaceParams,
    derive_constants,
    eigensystem,
    iwasawa_frame,
    lift_at,
    project_chart,
    sample_grid,
    verify_geometry,
)
from equilag.linalg3 import herm_inner

nonreal = derive_constants(SurfaceParams(2.0, complex(cmath.exp(1j * math.pi / 4))))
real = derive_constants(SurfaceParams(1.0, 1.0 / math.sqrt(3.0)))

for tag, c in (("non-real", nonreal), ("real", real)):
    es = eigensystem(c, 1.0)
    print(f"== {tag} cubic form (regime {es.regime}) ==")
    F0 = lift_at(c, es, 0.0, 0.0).F
    print(f"  F(0,0) - e3 = {np.max(np.abs(F0 - np.array([0, 0, 1.0]))):.1e}")
    rng = np.random.default_rng(1)
    worst = max(
        abs(np.linalg.norm(lift_at(c, es, rng.uniform(-2, 2), rng.uniform(-2, 2)).F) - 1)
        for _ in range(200)
    )
    print(f"  |F| - 1 over 200 random points: {worst:.1e}")

    rep = verify_geometry(c, 1.0, np.linspace(0.2, 1.6, 3), np.linspace(0.1, 2 * c.T - 0.1, 3))
    print(f"  horizontality        {rep.horizontality:.1e}")
    print(f"  conformality         {max(rep.conformality_diag, rep.conformality_cross):.1e}")
    print(f"  F_zzbar + e^u F      {rep.laplace:.1e}")
    print(f"  cubic form residual  {rep.cubic_form:.1e}")
    print(f"  x-direction cubic ODE {rep.x_ode:.1e}")

print("== cross-route projective agreement (non-real) ==")
es = eigensystem(nonreal, 1.0)
for z in (0.3 + 0.4j, -0.7 + 1.2j):
    fa = lift_at(nonreal, es, z.real, z.imag).F
    fb = iwasawa_frame(nonreal, es, z)[:, 2]
    print(f"  z = {z}: |<F_closed, F_frame>| - 1 = {abs(herm_inner(fa, fb)) - 1:+.1e}")

print("\n== 4T periodicity of the real-regime lift ==")
esr = eigensystem(real, 1.0)
drift = max(
    np.max(np.abs(lift_at(real, esr, x, y + 4 * real.T).F - lift_at(real, esr, x, y).F))
    for x, y in ((0.2, 0.3), (1.5, 1.9))
)
print(f"  max |F(x, y + 4T) - F(x, y)| = {drift:.1e}")

print("\n== a grid sample with chart coordinates ==")
grid = sample_grid(nonreal, 1.0, (0.0, 2.0), (0.0, 2 * nonreal.T), 16, 16)
print(f"  16x16 grid: worst |F| - 1 = {np.max(np.abs(np.linalg.norm(grid.F, axis=2) - 1)):.1e},"
      f" flagged cells = {int(grid.flags.sum())}")
w1, w2 = project_chart(grid.F[3, 5])
print(f"  chart at a sample cell: ({w1:.6f}, {w2:.6f})")
