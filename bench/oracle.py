"""Reference values computed apart from the equilag package.

Everything here starts from the generating data (a1, psi, lambda) and the
point (x, y) alone and never imports equilag:

* the derived constants and the eigenvalues d_j come from the two cubics
  in mpmath (``polyroots``), the eigenvectors from ``mpmath.eighe`` of the
  Hermitian matrix -i D(lambda);
* the phase integrals G_j(y) = int_0^y d_j Im / (d_j e^u - Re) ds come from
  mpmath quadrature split at multiples of T, or from the closed form
  G_j = d_j Im / (r (d_j a1 - Re)) Pi(n_j; am(r y), k) with
  n_j = d_j a1 q^2 / (d_j a1 - Re) through ``mpmath.ellippi``
  (https://dlmf.nist.gov/19.25.E14); the two agree to the working
  precision and the tests in this directory hold them to it;
* real-regime lifts use ``scipy.special.ellipj``;
* rational certificates use ``fractions.Fraction.limit_denominator``.

Eigenvectors follow the phase convention the method fixes for F(0, 0) = e_3:
the third component real and positive, or, where it vanishes (the sn mode of
the real regime), the component along lambda e_2 - lambda^-1 e_1.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

DPS = 30


def _mpc(z) -> mp.mpc:
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def constants(a1: float, psi: complex) -> dict:
    """beta, a2, a3, the parameter m = k^2, q^2, r, K(k) and T for (a1, psi)."""
    with mp.workdps(DPS):
        a1m = mp.mpf(a1)
        apsi2 = abs(_mpc(psi)) ** 2
        beta = 2 * a1m + apsi2 / a1m**2
        # w^3 - (beta/2) w^2 + |psi|^2/2 has the roots a1 > a2 > 0 > -a3
        roots = sorted((mp.re(z) for z in mp.polyroots([1, -beta / 2, 0, apsi2 / 2], maxsteps=200, extraprec=60)), reverse=True)
        top, a2, neg = roots
        if abs(top - a1m) > mp.mpf(10) ** (-DPS + 8) * a1m:
            raise ValueError("a1 is not the largest root of the metric cubic")
        a3 = -neg
        m = (a1m - a2) / (a1m + a3)
        r = mp.sqrt(2 * (a1m + a3))
        K = mp.ellipk(m)
        return {"a1": a1m, "beta": beta, "a2": a2, "a3": a3, "m": m,
                "q2": (a1m - a2) / a1m, "r": r, "K": K, "T": K / r}


def _unit(lam) -> mp.mpc:
    """The unit number nearest to the double lam (|lam| = 1 up to rounding)."""
    z = _mpc(lam)
    return z / abs(z)


def cubic_form(psi: complex, lam: complex) -> mp.mpc:
    with mp.workdps(DPS):
        return _mpc(psi) / _unit(lam) ** 3


def eigenvalues(a1: float, psi: complex, lam: complex) -> list:
    """Descending roots d_j of d^3 - beta d + 2 Re(lambda^-3 psi)."""
    with mp.workdps(DPS):
        beta = constants(a1, psi)["beta"]
        re0 = mp.re(cubic_form(psi, lam))
        roots = mp.polyroots([1, 0, -beta, 2 * re0], maxsteps=200, extraprec=60)
        return sorted((mp.re(z) for z in roots), reverse=True)


def _potential(a1: float, psi: complex, lam: complex) -> mp.matrix:
    a = mp.mpc(0, 1) * mp.sqrt(mp.mpf(a1))
    b = -mp.mpc(0, 1) * _mpc(psi) / mp.mpf(a1)
    lm = _unit(lam)
    return mp.matrix([
        [0, -lm * mp.conj(b), a / lm],
        [b / lm, 0, -lm * mp.conj(a)],
        [-lm * mp.conj(a), a / lm, 0],
    ])


def eigensystem(a1: float, psi: complex, lam: complex) -> tuple[list, list]:
    """(d_j descending, phase-fixed unit eigenvectors l_j) of D(lambda)."""
    with mp.workdps(DPS):
        dmat = _potential(a1, psi, lam)
        herm = -mp.mpc(0, 1) * dmat
        evals, evecs = mp.eighe(herm)
        order = sorted(range(3), key=lambda j: -evals[j])
        d = [mp.re(evals[j]) for j in order]
        cubic = eigenvalues(a1, psi, lam)
        if max(abs(u - v) for u, v in zip(d, cubic)) > mp.mpf(10) ** (-DPS + 10):
            raise ArithmeticError("eighe and the characteristic cubic disagree")
        lm = _unit(lam)
        vecs = []
        for j in order:
            v = [evecs[i, j] for i in range(3)]
            anchor = v[2]
            if abs(anchor) < 1e-9:
                anchor = -v[0] * lm + v[1] / lm
            phase = mp.conj(anchor) / abs(anchor)
            vecs.append([vi * phase for vi in v])
        return d, vecs


def _am(u, m, K):
    """Jacobi amplitude, continuous in u: am(u + 2K) = am(u) + pi."""
    n = mp.nint(u / (2 * K))
    return n * mp.pi + mp.asin(mp.ellipfun("sn", u - 2 * n * K, m=m))


def phase_integrals(a1: float, psi: complex, lam: complex, y: float, method: str = "ellippi") -> list:
    """G_j(y) ordered like the descending d_j, by "quad" or "ellippi"."""
    with mp.workdps(DPS):
        c = constants(a1, psi)
        v = cubic_form(psi, lam)
        re0, im0 = mp.re(v), mp.im(v)
        d = eigenvalues(a1, psi, lam)
        ym = mp.mpf(y)
        out = []
        for dj in d:
            if method == "quad":
                def f(s, dj=dj):
                    sn = mp.ellipfun("sn", c["r"] * s, m=c["m"])
                    return dj * im0 / (dj * c["a1"] * (1 - c["q2"] * sn**2) - re0)

                n_full = int(mp.floor(ym / c["T"]))
                nodes = [c["T"] * i for i in range(n_full + 1)] + [ym]
                nodes = [t for i, t in enumerate(nodes) if i == 0 or t > nodes[i - 1]]
                out.append(mp.quad(f, nodes) if len(nodes) > 1 else mp.mpf(0))
            elif method == "ellippi":
                base = dj * c["a1"] - re0
                n = dj * c["a1"] * c["q2"] / base
                phi = _am(c["r"] * ym, c["m"], c["K"])
                out.append(dj * im0 / (c["r"] * base) * mp.ellippi(n, phi, c["m"]))
            else:
                raise ValueError(f"unknown method {method!r}")
        return out


def conformal_factor(a1: float, psi: complex, y: float) -> float:
    """e^{u(y)} = a1 (1 - q^2 sn^2(r y, k))."""
    with mp.workdps(DPS):
        c = constants(a1, psi)
        sn = mp.ellipfun("sn", c["r"] * mp.mpf(y), m=c["m"])
        return float(c["a1"] * (1 - c["q2"] * sn**2))


def period_phases(a1: float, psi: complex, lam: complex) -> tuple[list, mp.mpf]:
    """(G_j(2T) by the complete integral Pi(n_j; pi, k), 2T)."""
    with mp.workdps(DPS):
        c = constants(a1, psi)
        v = cubic_form(psi, lam)
        re0, im0 = mp.re(v), mp.im(v)
        out = []
        for dj in eigenvalues(a1, psi, lam):
            base = dj * c["a1"] - re0
            n = dj * c["a1"] * c["q2"] / base
            out.append(dj * im0 / (c["r"] * base) * 2 * mp.ellippi(n, c["m"]))
        return out, 2 * c["T"]


def lift_nonreal(a1: float, psi: complex, lam: complex, x: float, y: float) -> np.ndarray:
    """F(x, y) = sum_j h_j exp(i (d_j x + G_j(y))) l_j in the non-real regime."""
    with mp.workdps(DPS):
        c = constants(a1, psi)
        v = cubic_form(psi, lam)
        re0 = mp.re(v)
        d, vecs = eigensystem(a1, psi, lam)
        g = phase_integrals(a1, psi, lam, y)
        sn = mp.ellipfun("sn", c["r"] * mp.mpf(y), m=c["m"])
        w = c["a1"] * (1 - c["q2"] * sn**2)
        F = [mp.mpc(0)] * 3
        for dj, gj, lj in zip(d, g, vecs):
            h = mp.sqrt((dj * w - re0) / (dj**3 - re0))
            coeff = h * mp.expj(dj * mp.mpf(x) + gj)
            F = [Fi + coeff * li for Fi, li in zip(F, lj)]
        return np.array([complex(Fi) for Fi in F])


def lift_real(a1: float, psi: complex, lam: complex, xs, y: float) -> np.ndarray:
    """Real-regime lifts F(x, y) for every x in xs, with scipy's sn, cn, dn.

    psi0 = lambda^-3 psi is real; the sn, cn, dn modes sit on the eigenvalues
    psi0/a1, psi0/a2, -psi0/a3 with the constants c_j fixed by |F| = 1 and
    conformality.
    """
    from scipy.special import ellipj

    c = constants(a1, psi)
    a1f, a2, a3 = float(c["a1"]), float(c["a2"]), float(c["a3"])
    psi0 = complex(cubic_form(psi, lam)).real
    apsi2 = abs(complex(psi)) ** 2
    d, vecs = eigensystem(a1, psi, lam)
    d = [float(dj) for dj in d]
    vecs = np.array([[complex(vi) for vi in v] for v in vecs])
    targets = (psi0 / a1f, psi0 / a2, -psi0 / a3)
    idx = [int(np.argmin([abs(dj - t) for dj in d])) for t in targets]
    if sorted(idx) != [0, 1, 2]:
        raise ArithmeticError("real-regime eigenvalue pattern not found")
    cs = (
        a1f * math.sqrt((a1f - a2) / (a1f**3 - apsi2)),
        a2 * math.sqrt((a1f - a2) / (apsi2 - a2**3)),
        a3 * math.sqrt((a1f + a3) / (apsi2 + a3**3)),
    )
    sn, cn, dn, _ = ellipj(float(c["r"]) * y, float(c["m"]))
    p = np.zeros(3)
    p[idx[0]], p[idx[1]], p[idx[2]] = cs[0] * sn, cs[1] * cn, cs[2] * dn
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    phase = np.exp(1j * np.outer(xs, d))
    return (phase * p) @ vecs


def certificate(value: float, max_den: int, tol: float) -> Fraction | None:
    """The rational the certificate policy accepts for value, or None."""
    frac = Fraction(value).limit_denominator(max_den)
    return frac if abs(float(frac) - value) <= tol else None
