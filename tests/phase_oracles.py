"""Independent routes to the phase integrals G_j(y), the lift coefficients and the beta integrals.

G_j(y) = int_0^y d_j Im / (d_j e^u - Re) ds, Re + i Im = lambda^-3 psi, in
the descending order of the d_j.  The package evaluates G_j, and the lift
coefficients p_j = h_j e^{i G_j}, as theta quotients; the tests compare
them with

* ``by_carlson``: the per-point Carlson route the package used before,
  G_j = pre_j Pi(n_j; am(r y), k) + m G_j(2T) by R_F, R_C and R_J at the
  sn and cn of r y, with m = round(y / 2T), and p_j from
  1 - n_j sn^2(r y) and ``coefficients_by_carlson`` built on it;
* ``coefficients_mp``: p_j = h_j e^{i G_j} with every constant, sn and
  Pi recomputed from (a1, psi, lambda) in mpmath;

* ``by_quadrature``: adaptive Simpson of the defining integral over the
  package's conformal factor, raising QuadratureError instead of settling
  for a looser answer;
* ``by_ellippi``: the closed form d_j Im / (r (d_j a1 - Re)) Pi(n_j; am(r y), k)
  with every constant recomputed from (a1, psi, lambda) in mpmath and
  Pi from ``mpmath.ellippi``.

The beta integrals of the Iwasawa factorization,
beta1(y) = int_0^y (2i lam^3 conj(psi) - i w') / cdet ds and
beta2(y) = int_0^y 2 w / cdet ds, cdet = lam^3 conj(psi) - lam^-3 psi - w',
w = e^u, are combinations of the same G_j in the package; the tests compare
them with

* ``beta_by_quadrature``: adaptive Simpson of the two defining integrals
  over the package's conformal factor, split at the multiples of T where
  w' vanishes and the integrands peak near the real locus;
* ``beta_by_mpmath``: mpmath quadrature of the defining integrals at 30
  digits, split the same way, with every constant and sn, cn, dn
  recomputed in mpmath.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np

from equilag import immersion
from equilag.elliptic import _third_kind, jacobi
from equilag.metric import metric_at
from equilag.potential import DerivedConstants, EigenSystem, eigensystem
from equilag.quadrature import adaptive_simpson


def by_carlson(c: DerivedConstants, es: EigenSystem, y: float) -> tuple[np.ndarray, np.ndarray]:
    """((d_j e^u - Re) / (d_j a1 - Re), G_j) at a float y by the per-point Carlson route.

    With m = round(y / 2T), u = r y - 2mK lies in [-K, K], where
    sin am(u) = (-1)^m sn(r y) and cos^2 am(u) = cn^2(r y); then
    G_j(y) = pre_j Pi(n_j; am(u)) + m G_j(2T), the complete phases from
    the package's `_g_full_period`.  The ratio is (1 - n_j) + n_j cn^2
    where n_j > 0, so it keeps its accuracy as n_j -> 1.
    """
    g = immersion._g_segment(c, es)
    sn, cn, _ = jacobi(c.r * y, c.k)
    m = round(y / (2.0 * c.T))
    s = sn * (1 - 2 * (m % 2))  # (-1)^m sn
    c2 = cn * cn
    p = [omn + nj * c2 if nj > 0.0 else 1.0 - nj * s * s for nj, omn in zip(g.n, g.one_minus_n)]
    phases = np.array(g.pre) * _third_kind(g.n, p, s, c2, c.kp2 + c.k2 * c2, c.k2)
    if m:
        phases += m * np.asarray(immersion._g_full_period(c, es))
    return np.asarray(p), phases


def coefficients_by_carlson(c: DerivedConstants, es: EigenSystem,
                            y: float) -> tuple[np.ndarray, np.ndarray]:
    """(p_j, p_j') at a float y on `by_carlson`, p_j' from the first-order ODE of p_j."""
    ratio, phases = by_carlson(c, es, y)
    den = np.array(immersion._g_segment(c, es).den0) * ratio  # d_j e^u - Re
    p = np.sqrt(den / (es.d**3 - es.cubic.real)) * np.exp(1j * phases)
    m = metric_at(c, y)
    return p, es.d * p * (m.u_prime * m.w + 2j * es.cubic.imag) / (2.0 * den)


def coefficients_mp(a1: float, psi: complex, lam: complex, y: float, dps: int = 30) -> np.ndarray:
    """p_j = h_j e^{i G_j} at y, h_j = sqrt((d_j e^u - Re) / (d_j^3 - Re)), all in mpmath."""
    g = by_ellippi(a1, psi, lam, y, dps)
    with mp.workdps(dps):
        a1m, a2, a3, psim, lamm = _mp_constants(a1, psi, lam)
        re0 = mp.re(psim / lamm**3)
        beta = 2 * a1m + abs(psim) ** 2 / a1m**2
        m = (a1m - a2) / (a1m + a3)
        w = a1m * (1 - (a1m - a2) / a1m * mp.ellipfun("sn", mp.sqrt(2 * (a1m + a3)) * y, m=m) ** 2)
        d = sorted((mp.re(z) for z in mp.polyroots([1, 0, -beta, 2 * re0], extraprec=60)),
                   reverse=True)
        return np.array([complex(mp.sqrt((dj * w - re0) / (dj**3 - re0)) * mp.expj(gj))
                         for dj, gj in zip(d, g)])


def by_quadrature(c: DerivedConstants, lam: complex, y: float, tol: float = 1e-12) -> np.ndarray:
    v = c.psi / complex(lam) ** 3
    out = []
    for dj in eigensystem(c, lam).d:
        def f(t: float, dj=dj) -> float:
            return dj * v.imag / (dj * metric_at(c, t).w - v.real)

        out.append(float(np.real(adaptive_simpson(f, 0.0, y, tol=tol))))
    return np.array(out)


def _split_points(T, y) -> list:
    """0, y and the multiples of T between them, in increasing order."""
    lo, hi = min(0, y), max(0, y)
    inner = [T * i for i in range(math.ceil(float(lo / T)), math.floor(float(hi / T)) + 1)]
    return sorted({lo, hi, *(t for t in inner if lo < t < hi)})


def beta_by_quadrature(
    c: DerivedConstants, lam: complex, y: float, tol: float = 1e-14
) -> tuple[complex, complex]:
    """Adaptive Simpson of the beta integrals on a mesh graded towards the peaks.

    At the multiples of T, w' = 0 and |cdet| falls to |c0|, giving peaks of
    width eps = |c0| / |w''| = |c0| / (2 a1 q^2 r^2).  Nodes at kT +- eps 2^i
    make every panel smooth on its own scale, so that each one converges to
    tol without the ever halving tolerance of one deep recursion.
    """
    lam = complex(lam)
    l3c = lam**3 * np.conj(c.psi)
    c0 = l3c - c.psi / lam**3

    def metric(t: float):
        # w is 2T-periodic: the argument nearest 0 rounds least inside a peak
        return metric_at(c, t - 2.0 * c.T * round(t / (2.0 * c.T)))

    def f1(t: float) -> complex:
        wp = metric(t).w_prime
        return (2j * l3c - 1j * wp) / (c0 - wp)

    def f2(t: float) -> complex:
        m = metric(t)
        return 2.0 * m.w / (c0 - m.w_prime)

    eps = abs(c0) / (2.0 * c.a1 * c.q2 * c.r**2)
    widths = [eps * 2.0**i for i in range(max(0, math.ceil(math.log2(0.5 * c.T / eps))))]
    ends = _split_points(c.T, y)
    nodes = sorted({
        t for k in ends for t in (k, *(k + s * h for h in widths for s in (-1.0, 1.0)))
        if ends[0] <= t <= ends[-1]
    })
    sign = 1.0 if y >= 0 else -1.0
    # relative to the panel: inside a peak the integrands reach 2 w / |c0|
    # and carry the rounding of w' near its zero, amplified by that factor
    return tuple(
        sign * sum(
            adaptive_simpson(f, a, b, tol=tol * max(1.0, (b - a) * abs(f(0.5 * (a + b)))))
            for a, b in zip(nodes, nodes[1:])
        )
        for f in (f1, f2)
    )


def _mp_constants(a1: float, psi: complex, lam: complex):
    """(a1, a2, a3, psi, unit lambda) in mpmath at the working precision."""
    a1m = mp.mpf(a1)
    psim = mp.mpc(complex(psi).real, complex(psi).imag)
    lamm = mp.mpc(complex(lam).real, complex(lam).imag)
    lamm /= abs(lamm)
    beta = 2 * a1m + abs(psim) ** 2 / a1m**2
    roots = sorted(
        (mp.re(z) for z in mp.polyroots([1, -beta / 2, 0, abs(psim) ** 2 / 2], extraprec=60)),
        reverse=True,
    )
    return a1m, roots[1], -roots[2], psim, lamm


def beta_by_mpmath(
    a1: float, psi: complex, lam: complex, y: float, dps: int = 30
) -> tuple[complex, complex]:
    with mp.workdps(dps):
        a1m, a2, a3, psim, lamm = _mp_constants(a1, psi, lam)
        m = (a1m - a2) / (a1m + a3)
        q2 = (a1m - a2) / a1m
        r = mp.sqrt(2 * (a1m + a3))
        l3c = lamm**3 * mp.conj(psim)
        c0 = l3c - psim / lamm**3

        @functools.lru_cache(maxsize=None)  # both integrals visit the same nodes
        def parts(t):
            sn, cn, dn = (mp.ellipfun(f, r * t, m=m) for f in ("sn", "cn", "dn"))
            w = a1m * (1 - q2 * sn**2)
            wp = -2 * a1m * q2 * r * sn * cn * dn
            return (2j * l3c - 1j * wp) / (c0 - wp), 2 * w / (c0 - wp)

        nodes = _split_points(mp.ellipk(m) / r, mp.mpf(y))
        sign = 1 if y >= 0 else -1
        return tuple(
            complex(sign * mp.quad(lambda t, i=i: parts(t)[i], nodes)) for i in (0, 1)
        )


def by_ellippi(a1: float, psi: complex, lam: complex, y: float, dps: int = 30) -> np.ndarray:
    with mp.workdps(dps):
        a1m, a2, a3, psim, lamm = _mp_constants(a1, psi, lam)
        v = psim / lamm**3
        re0, im0 = mp.re(v), mp.im(v)
        beta = 2 * a1m + abs(psim) ** 2 / a1m**2
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
