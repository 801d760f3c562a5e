"""Independent routes to the phase integrals G_j(y) of the non-real lift.

G_j(y) = int_0^y d_j Im / (d_j e^u - Re) ds, Re + i Im = lambda^-3 psi, in
the descending order of the d_j.  The package evaluates G_j in closed form
through Carlson's integrals; the tests compare it with

* ``by_quadrature``: adaptive Simpson of the defining integral over the
  package's conformal factor, raising QuadratureError instead of settling
  for a looser answer;
* ``by_ellippi``: the closed form d_j Im / (r (d_j a1 - Re)) Pi(n_j; am(r y), k)
  with every constant recomputed from (a1, psi, lambda) in mpmath and
  Pi from ``mpmath.ellippi``.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from equilag.metric import metric_at
from equilag.potential import DerivedConstants, eigensystem
from equilag.quadrature import adaptive_simpson


def by_quadrature(c: DerivedConstants, lam: complex, y: float, tol: float = 1e-12) -> np.ndarray:
    v = c.psi / complex(lam) ** 3
    out = []
    for dj in eigensystem(c, lam).d:
        def f(t: float, dj=dj) -> float:
            return dj * v.imag / (dj * metric_at(c, t).w - v.real)

        out.append(float(np.real(adaptive_simpson(f, 0.0, y, tol=tol))))
    return np.array(out)


def by_ellippi(a1: float, psi: complex, lam: complex, y: float, dps: int = 30) -> np.ndarray:
    with mp.workdps(dps):
        a1m = mp.mpf(a1)
        psim = mp.mpc(complex(psi).real, complex(psi).imag)
        lamm = mp.mpc(complex(lam).real, complex(lam).imag)
        lamm /= abs(lamm)
        v = psim / lamm**3
        re0, im0 = mp.re(v), mp.im(v)
        beta = 2 * a1m + abs(psim) ** 2 / a1m**2
        roots = sorted(
            (mp.re(z) for z in mp.polyroots([1, -beta / 2, 0, abs(psim) ** 2 / 2], extraprec=60)),
            reverse=True,
        )
        a2, a3 = roots[1], -roots[2]
        m = (a1m - a2) / (a1m + a3)
        q2 = (a1m - a2) / a1m
        r = mp.sqrt(2 * (a1m + a3))
        K = mp.ellipk(m)
        u = r * mp.mpf(y)
        n_half = mp.nint(u / (2 * K))
        amp = mp.asin(mp.ellipfun("sn", u - 2 * n_half * K, m=m)) + n_half * mp.pi
        cubic = [1, 0, -beta, 2 * re0]  # d^3 - beta d + 2 Re
        d = sorted((mp.re(z) for z in mp.polyroots(cubic, extraprec=60)), reverse=True)
        out = []
        for dj in d:
            base = dj * a1m - re0
            out.append(float(dj * im0 / (r * base) * mp.ellippi(dj * a1m * q2 / base, amp, m)))
        return np.array(out)
