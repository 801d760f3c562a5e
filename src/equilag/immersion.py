"""Canonical horizontal lifts F(x, y, lambda) in S^5 and their verification.

Writing F in the orthonormal eigenbasis l_j of D(lambda) reduces the frame
PDEs to scalar ODEs in y with solutions in closed form.  Two regimes:

* lambda^-3 psi not real and not purely imaginary:
      F = sum_j h_j(y) exp(i d_j x + i G_j(y)) l_j,
      h_j = sqrt((d_j e^u - Re) / (d_j^3 - Re)),
      G_j = int_0^y d_j Im / (d_j e^u - Re) ds,
  with Re, Im the parts of lambda^-3 psi.

* lambda^-3 psi real (value psi0): the eigenvalues are psi0/a1, psi0/a2,
  -psi0/a3 and
      F = c1 sn(ry) e^{i d_sn x} l_sn + c2 cn(ry) e^{i d_cn x} l_cn
        + c3 dn(ry) e^{i d_dn x} l_dn,
  with positive constants c_j fixed by |F| = 1 and conformality; F is then
  4T-periodic in y.

* lambda^-3 psi purely imaginary: the lift degenerates into a hyperplane
  and is refused.

Both forms give |F| = 1 identically, F(0, 0) = e_3, and agree exactly with
the third frame column of the explicit Iwasawa route wherever that route is
defined.  The full frame is recovered from the lift and its analytic
derivatives as F_frame = (-i lam e^{-u/2} F_z, (i lam)^{-1} e^{-u/2} F_zbar, F).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import iwasawa
from .elliptic import jacobi
from .linalg3 import herm_inner
from .metric import metric_at
from .potential import (
    DerivedConstants,
    EigenSystem,
    HyperplaneDegenerateError,
    _check_unit,
    eigensystem,
)
from .quadrature import relaxed_simpson


class RegimeError(ValueError):
    """Closed form requested outside its regime of lambda^-3 psi."""


class ChartError(ValueError):
    """Affine chart undefined: third lift component too close to zero."""


@dataclass
class LiftSample:
    x: float
    y: float
    lam: complex
    F: np.ndarray  # unit vector in C^3


ChartPoint = tuple[complex, complex]

_REGIME_TOL = 1e-9


def regime_of(c: DerivedConstants, lam: complex, tol: float = _REGIME_TOL) -> str:
    """One of "nonreal", "real", "imaginary" for the cubic form lambda^-3 psi."""
    v = c.psi / complex(lam) ** 3
    scale = abs(c.psi)
    if abs(v.imag) < tol * scale:
        return "real"
    if abs(v.real) < tol * scale:
        return "imaginary"
    return "nonreal"


def _require(regime: str, c: DerivedConstants, lam: complex) -> None:
    actual = regime_of(c, lam)
    if actual == "imaginary":
        raise HyperplaneDegenerateError(
            "lambda^-3 psi is purely imaginary: surface degenerates to a hyperplane"
        )
    if actual != regime:
        raise RegimeError(f"lambda^-3 psi is {actual}; use the {actual} route")


# ---------------------------------------------------------------------------
# non-real regime

def _h_values(c: DerivedConstants, es: EigenSystem, w: float) -> np.ndarray:
    re0 = (c.psi / es.lam**3).real
    ratio = (es.d * w - re0) / (es.d**3 - re0)
    if np.any(ratio < -1e-10):
        raise ArithmeticError(
            "negative h_j^2: eigenvalue/branch pairing violated the root interlacing"
        )
    return np.sqrt(np.maximum(ratio, 0.0))


def _g_increment(
    c: DerivedConstants, lam: complex, d: np.ndarray, y0: float, y1: float, tol: float
) -> np.ndarray:
    v = c.psi / complex(lam) ** 3
    re0, im0 = v.real, v.imag
    # d_j e^u - Re stays one-signed off the real locus, but its minimum
    # shrinks like the square of the distance to that locus; below the
    # floor double precision cannot certify the sign any more
    floor = 1e-15 * max(1.0, abs(c.psi))
    out = np.empty(3)
    for j, dj in enumerate(d):
        def f(t: float, dj=dj) -> float:
            den = dj * metric_at(c, t).w - re0
            if abs(den) < floor:
                raise RegimeError(
                    "G_j denominator vanishes: cubic form too close to real; "
                    "evaluate at the nearby real-regime lambda instead"
                )
            return dj * im0 / den

        out[j] = float(np.real(relaxed_simpson(f, y0, y1, tol=tol)))
    return out


def _g_segment_raw(c: DerivedConstants, lam: complex, y: float, tol: float) -> tuple[float, float, float]:
    es = eigensystem(c, lam)
    return tuple(_g_increment(c, lam, es.d, 0.0, y, tol))


@lru_cache(maxsize=4096)
def _g_segment(c: DerivedConstants, lam: complex, y: float, tol: float):
    return _g_segment_raw(c, lam, y, tol)


@lru_cache(maxsize=256)
def _g_full_period(c: DerivedConstants, lam: complex, tol: float):
    return _g_segment_raw(c, lam, 2.0 * c.T, tol)


def phase_integrals(c: DerivedConstants, lam: complex, y: float, tol: float = 1e-11) -> np.ndarray:
    """G_j(y), ordered like eigensystem(c, lam).d; G_j(y+2mT) = G_j(y) + m G_j(2T)."""
    lam = complex(lam)
    period = 2.0 * c.T
    m = int(math.floor(y / period))
    rem = y - m * period
    g = np.array(_g_segment(c, lam, rem, tol))
    if m != 0:
        g = g + m * np.array(_g_full_period(c, lam, tol))
    return g


# ---------------------------------------------------------------------------
# real regime

def _real_assignment(c: DerivedConstants, es: EigenSystem):
    """Indices of (sn, cn, dn) eigenvalues inside es.d, plus the c_j constants."""
    psi0 = (c.psi / es.lam**3).real
    targets = np.array([psi0 / c.a1, psi0 / c.a2, -psi0 / c.a3])
    idx = [int(np.argmin(np.abs(es.d - t))) for t in targets]
    if sorted(idx) != [0, 1, 2] or np.max(np.abs(es.d[idx] - targets)) > 1e-8 * max(
        1.0, float(np.max(np.abs(es.d)))
    ):
        raise ArithmeticError("eigenvalues do not match the real-regime pattern psi0/a_j")
    apsi2 = abs(c.psi) ** 2
    cs = np.array(
        [
            c.a1 * math.sqrt((c.a1 - c.a2) / (c.a1**3 - apsi2)),
            c.a2 * math.sqrt((c.a1 - c.a2) / (apsi2 - c.a2**3)),
            c.a3 * math.sqrt((c.a1 + c.a3) / (apsi2 + c.a3**3)),
        ]
    )
    return idx, cs


# ---------------------------------------------------------------------------
# shared machinery

def _coefficients(
    c: DerivedConstants, es: EigenSystem, y: float, tol: float = 1e-11
) -> tuple[np.ndarray, np.ndarray]:
    """(p_j(y), p_j'(y)) of the eigenbasis expansion F(0, y) = sum_j p_j l_j."""
    regime = regime_of(c, es.lam)
    if regime == "real":
        idx, cs = _real_assignment(c, es)
        sn, cn, dn = jacobi(c.r * y, c.k)
        p = np.zeros(3)
        dp = np.zeros(3)
        p[idx[0]], p[idx[1]], p[idx[2]] = cs[0] * sn, cs[1] * cn, cs[2] * dn
        dp[idx[0]] = cs[0] * c.r * cn * dn
        dp[idx[1]] = -cs[1] * c.r * sn * dn
        dp[idx[2]] = -cs[2] * c.r * c.k**2 * sn * cn
        return p, dp
    if regime == "nonreal":
        v = c.psi / es.lam**3
        m = metric_at(c, y)
        p = _h_values(c, es, m.w) * np.exp(1j * phase_integrals(c, es.lam, y, tol))
        # first-order scalar ODE: (d_j e^u - Re) p_j' = (u' e^u + 2i Im)/2 d_j p_j
        dp = es.d * p * (m.u_prime * m.w + 2j * v.imag) / (2.0 * (es.d * m.w - v.real))
        return p, dp
    raise HyperplaneDegenerateError(
        "lambda^-3 psi is purely imaginary: surface degenerates to a hyperplane"
    )


def lift_at(c: DerivedConstants, es: EigenSystem, x: float, y: float, tol: float = 1e-11) -> LiftSample:
    """Regime-dispatching lift evaluation."""
    p, _ = _coefficients(c, es, y, tol)
    return LiftSample(x=x, y=y, lam=es.lam, F=(p * np.exp(1j * es.d * x)) @ es.vectors)


def lift_nonreal(c: DerivedConstants, es: EigenSystem, x: float, y: float, tol: float = 1e-11) -> LiftSample:
    """Closed-form lift for non-real cubic form; |F| = 1 identically."""
    _require("nonreal", c, es.lam)
    return lift_at(c, es, x, y, tol)


def lift_real(c: DerivedConstants, es: EigenSystem, x: float, y: float) -> LiftSample:
    """Closed-form lift for real cubic form; satisfies F(x, y + 4T) = F(x, y)."""
    _require("real", c, es.lam)
    return lift_at(c, es, x, y)


def frame_from_lift(c: DerivedConstants, z: complex, lam: complex) -> "iwasawa.FrameSample":
    """Extended frame rebuilt from the closed-form lift (eigenbasis route)."""
    lam = _check_unit(lam)
    z = complex(z)
    es = eigensystem(c, lam)
    p, dp = _coefficients(c, es, z.imag)
    phase = np.exp(1j * es.d * z.real)
    F = (p * phase) @ es.vectors
    Fx = (1j * es.d * p * phase) @ es.vectors
    Fy = (dp * phase) @ es.vectors
    fz = (Fx - 1j * Fy) / 2.0
    fzb = (Fx + 1j * Fy) / 2.0
    eu2 = math.sqrt(metric_at(c, z.imag).w)
    col1 = -1j * lam * fz / eu2
    col2 = fzb / (1j * lam * eu2)
    mat = np.stack([col1, col2, F], axis=1)
    return iwasawa.FrameSample(z=z, lam=lam, matrix=mat)


def lift_via_frame(c: DerivedConstants, z: complex, lam: complex, tol: float = 1e-11) -> LiftSample:
    """Third frame column through the explicit Iwasawa route.

    Requires (y, lambda) off the singular locus of the factorization;
    projectively equal to the closed-form routes where both exist.
    """
    z = complex(z)
    frame = iwasawa.extended_frame(c, z, lam, route="iwasawa", tol=tol)
    return LiftSample(x=z.real, y=z.imag, lam=complex(lam), F=frame.matrix[:, 2])


def project_chart(F: np.ndarray | LiftSample, tol: float = 1e-8) -> ChartPoint:
    """Affine chart (F1/F3, F2/F3) of the projective point."""
    v = F.F if isinstance(F, LiftSample) else np.asarray(F)
    if abs(v[2]) <= tol:
        raise ChartError(f"|F_3| = {abs(v[2]):.3e} <= {tol:g}: chart undefined")
    return complex(v[0] / v[2]), complex(v[1] / v[2])


@dataclass
class GridSample:
    lam: complex
    xs: np.ndarray
    ys: np.ndarray
    F: np.ndarray       # (ny, nx, 3)
    e_u: np.ndarray     # (ny,)
    chart: np.ndarray   # (ny, nx, 2), NaN on flagged cells
    flags: np.ndarray   # (ny, nx) bool, True where the chart is singular


def sample_grid(
    c: DerivedConstants,
    lam: complex,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    nx: int,
    ny: int,
    tol: float = 1e-11,
) -> GridSample:
    """Lift on a rectangular grid with the regime-appropriate route.

    Chart-singular cells are flagged and carry NaN chart coordinates; the
    lift itself is defined everywhere.
    """
    if nx < 2 or ny < 2:
        raise ValueError("grid needs nx >= 2 and ny >= 2")
    lam = _check_unit(lam)
    es = eigensystem(c, lam)
    regime = regime_of(c, lam)
    xs = np.linspace(x_range[0], x_range[1], nx)
    ys = np.linspace(y_range[0], y_range[1], ny)
    F = np.empty((ny, nx, 3), dtype=complex)
    e_u = np.empty(ny)
    phase = np.exp(1j * np.outer(xs, es.d))  # (nx, 3)
    g = phase_integrals(c, lam, ys[0], tol) if regime == "nonreal" else None
    for iy, y in enumerate(ys):
        w = metric_at(c, y).w
        e_u[iy] = w
        if regime == "nonreal":
            if iy:  # march the phase integrals along the row instead of from 0
                g = g + _g_increment(c, lam, es.d, ys[iy - 1], y, tol)
            p = _h_values(c, es, w) * np.exp(1j * g)
        else:
            p, _ = _coefficients(c, es, y, tol)
        F[iy] = (phase * p) @ es.vectors
    flags = np.abs(F[:, :, 2]) <= 1e-8
    chart = np.full((ny, nx, 2), np.nan, dtype=complex)
    ok = ~flags
    chart[ok, 0] = F[ok, 0] / F[ok, 2]
    chart[ok, 1] = F[ok, 1] / F[ok, 2]
    return GridSample(lam=lam, xs=xs, ys=ys, F=F, e_u=e_u, chart=chart, flags=flags)


# ---------------------------------------------------------------------------
# finite-difference geometric verification

@dataclass
class GeometryReport:
    """Max residuals of the defining geometric identities over a grid."""

    horizontality: float
    conformality_diag: float
    conformality_cross: float
    laplace: float          # F_{z zbar} + e^u F
    cubic_form: float       # F_{zz} . conj(F_zbar) + i lambda^-3 psi
    x_ode: float            # d^3_x F + beta d_x F - 2i Re(lambda^-3 psi) F
    factor_identity: float
    scalar_ode: float       # first-order ODE of the coefficients p_j
    unit_norm: float
    points: int
    flagged: int


def verify_geometry(
    c: DerivedConstants,
    lam: complex,
    xs,
    ys,
    step: float = 1e-4,
    ode_step: float = 5e-3,
    tol: float = 1e-11,
) -> GeometryReport:
    """Finite-difference residual sweep of the lift over the given points."""
    lam = _check_unit(lam)
    es = eigensystem(c, lam)
    v = c.psi / lam**3
    re0, im0 = v.real, v.imag

    def ev(x: float, y: float) -> np.ndarray:
        p, _ = _coefficients(c, es, y, tol)
        return (p * np.exp(1j * es.d * x)) @ es.vectors

    rep = {f.name: 0.0 for f in fields(GeometryReport) if f.name not in ("points", "flagged")}
    flagged = 0
    points = 0
    h = step
    for x in xs:
        for y in ys:
            points += 1
            F = ev(x, y)
            rep["unit_norm"] = max(rep["unit_norm"], abs(np.linalg.norm(F) - 1.0))
            if abs(F[2]) <= 1e-8:
                flagged += 1
            fxp, fxm = ev(x + h, y), ev(x - h, y)
            fyp, fym = ev(x, y + h), ev(x, y - h)
            Fx = (fxp - fxm) / (2 * h)
            Fy = (fyp - fym) / (2 * h)
            Fxx = (fxp - 2 * F + fxm) / h**2
            Fyy = (fyp - 2 * F + fym) / h**2
            Fxy = (ev(x + h, y + h) - ev(x + h, y - h) - ev(x - h, y + h) + ev(x - h, y - h)) / (4 * h**2)
            Fz = (Fx - 1j * Fy) / 2
            Fzb = (Fx + 1j * Fy) / 2
            Fzzb = (Fxx + Fyy) / 4
            Fzz = (Fxx - Fyy - 2j * Fxy) / 4
            m = metric_at(c, y)
            w = m.w
            rep["horizontality"] = max(
                rep["horizontality"], abs(herm_inner(Fz, F)), abs(herm_inner(Fzb, F))
            )
            rep["conformality_diag"] = max(
                rep["conformality_diag"],
                abs(herm_inner(Fz, Fz) - w),
                abs(herm_inner(Fzb, Fzb) - w),
            )
            rep["conformality_cross"] = max(rep["conformality_cross"], abs(herm_inner(Fz, Fzb)))
            rep["laplace"] = max(rep["laplace"], float(np.max(np.abs(Fzzb + w * F))))
            rep["cubic_form"] = max(rep["cubic_form"], abs(herm_inner(Fzz, Fzb) + 1j * v))

            # third x-derivative: fourth-order central stencil, larger step
            H = ode_step
            sten = [ev(x + j * H, y) for j in (-3, -2, -1, 1, 2, 3)]
            d3 = (sten[0] - 8 * sten[1] + 13 * sten[2] - 13 * sten[3] + 8 * sten[4] - sten[5]) / (8 * H**3)
            d1 = (sten[1] - 8 * sten[2] + 8 * sten[3] - sten[4]) / (12 * H)
            rep["x_ode"] = max(
                rep["x_ode"], float(np.max(np.abs(d3 + c.beta * d1 - 2j * re0 * F)))
            )

            lhs = (es.d * w - re0) * (es.d**2 * w + re0 * es.d - 2 * w**2)
            rhs = (0.25 * m.u_prime**2 * w**2 + im0**2) * es.d
            rep["factor_identity"] = max(rep["factor_identity"], float(np.max(np.abs(lhs - rhs))))

            pj, _ = _coefficients(c, es, y, tol)
            pjp, _ = _coefficients(c, es, y + h, tol)
            pjm, _ = _coefficients(c, es, y - h, tol)
            dpj = (pjp - pjm) / (2 * h)
            ode = (es.d * w - re0) * dpj - 0.5 * (m.u_prime * w + 2j * im0) * es.d * pj
            rep["scalar_ode"] = max(rep["scalar_ode"], float(np.max(np.abs(ode))))

    return GeometryReport(points=points, flagged=flagged, **rep)
