"""Canonical horizontal lifts F(x, y, lambda) in S^5 and their verification.

Writing F in the orthonormal eigenbasis l_j of D(lambda) reduces the frame
PDEs to scalar ODEs in y with solutions in closed form.  Two regimes:

* lambda^-3 psi not real and not purely imaginary:
      F = sum_j h_j(y) exp(i d_j x + i G_j(y)) l_j,
      h_j = sqrt((d_j e^u - Re) / (d_j^3 - Re)),
      G_j = int_0^y d_j Im / (d_j e^u - Re) ds,
  with Re, Im the parts of lambda^-3 psi.  Since e^u = a1 (1 - q^2 sn^2(r y)),
  the phase integrals are incomplete integrals of the third kind,
      G_j(y) = d_j Im / (r (d_j a1 - Re)) Pi(n_j; am(r y), k),
      n_j = d_j a1 q^2 / (d_j a1 - Re),  1 - n_j = (d_j a2 - Re) / (d_j a1 - Re),
  evaluated through Carlson's R_F, R_C and R_J (elliptic) on the sn, cn, dn
  of r y, with Pi(n; phi + m pi) = Pi(n; phi) + 2m Pi(n) for the whole
  periods; no quadrature is involved.  d_j e^u - Re keeps one sign, so
  n_j < 1: n_j in [-1e-8, 1) takes DLMF 19.25.14, n_j < -1e-8 (where that
  form cancels) an R_C form with terms of one sign.  Near the real locus one
  d_j a_i - Re (i = 1, 2) tends to zero like Im^2; these gaps come from the
  cubic of d_j without cancellation (es.gaps), and below 1e-15 max(1, |psi|)
  the lift is refused with a RegimeError.

* lambda^-3 psi real (value psi0): the eigenvalues are psi0/a1, psi0/a2,
  -psi0/a3 and
      F = c1 sn(ry) e^{i d_sn x} l_sn + c2 cn(ry) e^{i d_cn x} l_cn
        + c3 dn(ry) e^{i d_dn x} l_dn,
  with positive constants c_j fixed by |F| = 1 and conformality; F is then
  4T-periodic in y.  The sn, cn, dn labels es.labels come from the root
  order of es.d and the sign of psi0, never from matching eigenvalues
  numerically; the c_j depend on the surface alone (`_real_amplitudes`).

* lambda^-3 psi purely imaginary: the lift degenerates into a hyperplane.
  potential.eigensystem refuses such a lambda, so no spectral object, and
  no lift, frame, beta-integral or monodromy route, exists there.

Both forms give |F| = 1 identically, F(0, 0) = e_3, and agree exactly with
the third frame column of the explicit Iwasawa route wherever that route is
defined.  The frames live in iwasawa, which builds on this module.

Point evaluators take es = potential.eigensystem(c, lambda), which fixes the
regime; `sample_grid` and `verify_geometry` take lambda and build es once.
`lift_at` is the one lift function; its record holds the vector F alone,
and `project_chart` takes that vector.
`phase_integrals` and the coefficient kernels `_coefficients` (p_j) and
`_coefficients_and_derivatives` (p_j, p_j' and the metric sample, for
iwasawa's `extended_frame`) take a float y or a 1-D array of them;
`sample_grid` makes one array pass per grid, one `jacobi` call for all
rows; `lift_at`, `verify_geometry` and `extended_frame` keep the float
path, on which the per-object phase constants are Python floats.  Each
builds p_j(y) once per y, with the metric sample from the same `jacobi`
call where it needs one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .elliptic import JacobiTriple, _third_kind, jacobi
from .linalg3 import herm_inner
from .metric import MetricSample, _from_jacobi
from .potential import DerivedConstants, EigenSystem, eigensystem


class RegimeError(ValueError):
    """Closed form requested outside its regime of lambda^-3 psi."""


class ChartError(ValueError):
    """Affine chart undefined: third lift component too close to zero."""


@dataclass
class LiftSample:
    """The lift vector F of `lift_at`.

    A record only because the benchmark's worker reads `lift_at(...).F`;
    `lift_at` can return the bare array once the benchmark reads that.
    """

    F: np.ndarray  # unit vector in C^3


ChartPoint = tuple[complex, complex]

# |F_3| at or below this leaves the affine chart (F1/F3, F2/F3) undefined
CHART_TOL = 1e-8


# ---------------------------------------------------------------------------
# non-real regime

class _PhaseConstants(NamedTuple):
    """Constants of G_j(y) = pre_j Pi(n_j; am(r y), k), eigensystem order."""

    den0: tuple[float, float, float]         # d_j a1 - Re = d_j e^u - Re at y = 0
    n: tuple[float, float, float]            # n_j
    one_minus_n: tuple[float, float, float]  # (d_j a2 - Re) / (d_j a1 - Re)
    pre: tuple[float, float, float]          # d_j Im / (r (d_j a1 - Re))


@lru_cache(maxsize=256)
def _g_segment(c: DerivedConstants, es: EigenSystem) -> _PhaseConstants:
    """Constants of the phase integrals G_j within one period, per spectral object.

    Python floats, so that the scalar kernels run on the `math` path at its
    own speed and never on numpy scalars.
    """
    v, d, gaps = es.cubic, es.d.tolist(), es.gaps
    # d_j e^u - Re stays one-signed off the real locus, but its extremes
    # d_j a_i - Re shrink like the square of the distance to that locus;
    # below the floor double precision cannot certify the sign any more
    if min(abs(g) for row in gaps for g in row) < 1e-15 * max(1.0, abs(c.psi)):
        raise RegimeError(
            "G_j denominator vanishes: cubic form too close to real; "
            "evaluate at the nearby real-regime lambda instead"
        )
    den0 = tuple(g0 for g0, _ in gaps)
    one_minus_n = tuple(g1 / g0 for g0, g1 in gaps)
    if any(omn <= 0.0 for omn in one_minus_n):
        raise ArithmeticError("d_j e^u - Re changes sign: the lift is not in the non-real regime")
    return _PhaseConstants(
        den0=den0,
        n=tuple(dj * c.a1 * c.q2 / den for dj, den in zip(d, den0)),
        one_minus_n=one_minus_n,
        pre=tuple(dj * v.imag / (c.r * den) for dj, den in zip(d, den0)),
    )


@lru_cache(maxsize=256)
def _g_full_period(c: DerivedConstants, es: EigenSystem) -> tuple[float, float, float]:
    """G_j(2T) = 2 pre_j Pi(n_j), by the complete integral of the third kind."""
    g = _g_segment(c, es)
    return tuple(
        2.0 * pre * _third_kind(n, omn, 1.0, 0.0, c.kp2, c.k2)
        for pre, n, omn in zip(g.pre, g.n, g.one_minus_n)
    )


def _phase_terms(
    c: DerivedConstants, es: EigenSystem, g: _PhaseConstants, y: float | np.ndarray, sn, cn
) -> tuple[np.ndarray, np.ndarray]:
    """(p_j, G_j) at y, both in closed form, from g = _g_segment(c, es) and sn, cn of r y.

    p_j = (d_j e^u - Re) / (d_j a1 - Re) = 1 - n_j sn^2(r y).  With
    m = round(y / 2T), u = r y - 2mK lies in [-K, K], where
    sin am(u) = (-1)^m sn(r y) and cos^2 am(u) = cn^2(r y); then
    G_j(y) = pre_j Pi(n_j; am(u)) + m G_j(2T).  1 - n_j sn^2 is formed as
    (1 - n_j) + n_j cn^2 when n_j > 0, so it keeps its accuracy as n_j -> 1.
    An array y of shape (ny,) gives rows of shape (ny, 3), with m per row.
    The caller looks g up, once per point.
    """
    array = isinstance(y, np.ndarray)
    m = (np.round if array else round)(y / (2.0 * c.T))
    s = sn * (1 - 2 * (m % 2))  # (-1)^m sn
    c2 = cn * cn
    d2 = c.kp2 + c.k2 * c2
    p = [omn + n * c2 if n > 0.0 else 1.0 - n * s * s for n, omn in zip(g.n, g.one_minus_n)]
    phases = np.array([
        pre * _third_kind(n, pj, s, c2, d2, c.k2) for pre, n, pj in zip(g.pre, g.n, p)
    ]).T
    if m.any() if array else m:
        phases += np.multiply.outer(m, _g_full_period(c, es))
    return np.array(p).T, phases


def phase_integrals(c: DerivedConstants, es: EigenSystem, y: float | np.ndarray) -> np.ndarray:
    """G_j(y), ordered like es.d; G_j(y+2mT) = G_j(y) + m G_j(2T).

    An array y of shape (ny,) gives the phases as rows of shape (ny, 3).
    """
    sn, cn, _ = jacobi(c.r * y, c.k)
    return _phase_terms(c, es, _g_segment(c, es), y, sn, cn)[1]


# ---------------------------------------------------------------------------
# real regime

def _real_amplitudes(c: DerivedConstants) -> tuple[float, float, float]:
    """The constants c_j of the sn, cn and dn modes, fixed by |F| = 1 and conformality."""
    apsi2 = abs(c.psi) ** 2
    return (
        c.a1 * math.sqrt((c.a1 - c.a2) / (c.a1**3 - apsi2)),
        c.a2 * math.sqrt((c.a1 - c.a2) / (apsi2 - c.a2**3)),
        c.a3 * math.sqrt((c.a1 + c.a3) / (apsi2 + c.a3**3)),
    )


# ---------------------------------------------------------------------------
# shared machinery

def _real_rows(y: float | np.ndarray, idx: tuple[int, int, int], vals) -> np.ndarray:
    """Real-regime coefficients with vals[i] at eigensystem index idx[i].

    Rows j first, so that a float y writes scalar elements; a float y gives
    shape (3,), an array y of shape (ny,) rows of shape (ny, 3).
    """
    rows = np.zeros((3, *y.shape) if isinstance(y, np.ndarray) else 3)
    rows[idx[0]], rows[idx[1]], rows[idx[2]] = vals
    return rows.T


def _nonreal_terms(
    c: DerivedConstants, es: EigenSystem, y: float | np.ndarray, sn, cn
) -> tuple[np.ndarray, np.ndarray]:
    """(p_j, d_j e^u - Re) in the non-real regime, from sn and cn of r y."""
    g = _g_segment(c, es)
    ratio, phases = _phase_terms(c, es, g, y, sn, cn)
    den = np.array(g.den0) * ratio
    h2 = den / (es.d**3 - es.cubic.real)
    if (h2 < -1e-10).any():
        raise ArithmeticError(
            "negative h_j^2: eigenvalue/branch pairing violated the root interlacing"
        )
    return np.sqrt(np.maximum(h2, 0.0)) * np.exp(1j * phases), den


def _coefficients(
    c: DerivedConstants, es: EigenSystem, y: float | np.ndarray, jac: JacobiTriple | None = None
) -> np.ndarray:
    """p_j(y) of the eigenbasis expansion F(0, y) = sum_j p_j l_j.

    A float y gives an array of shape (3,) by the math path; an array y of
    shape (ny,) gives rows of shape (ny, 3) from one `jacobi` call.
    jac = jacobi(c.r * y, c.k) may be passed in by a caller that needs it
    as well.
    """
    sn, cn, dn = jacobi(c.r * y, c.k) if jac is None else jac
    if es.regime == "real":
        cs = _real_amplitudes(c)
        return _real_rows(y, es.labels, (cs[0] * sn, cs[1] * cn, cs[2] * dn))
    return _nonreal_terms(c, es, y, sn, cn)[0]


def _coefficients_and_derivatives(
    c: DerivedConstants, es: EigenSystem, y: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, MetricSample]:
    """(p_j(y), p_j'(y), the metric sample at y), p_j shaped and valued like `_coefficients`.

    The metric sample serves p_j' in the non-real regime and is returned in
    both, so that a caller needing e^u as well does not form it again.
    """
    jac = jacobi(c.r * y, c.k)
    sn, cn, dn = jac
    m = _from_jacobi(c, jac)
    if es.regime == "real":
        cs = _real_amplitudes(c)
        dp = _real_rows(y, es.labels, (cs[0] * c.r * cn * dn, -cs[1] * c.r * sn * dn,
                                       -cs[2] * c.r * c.k**2 * sn * cn))
        return _coefficients(c, es, y, jac), dp, m
    p, den = _nonreal_terms(c, es, y, sn, cn)
    # first-order scalar ODE: (d_j e^u - Re) p_j' = (u' e^u + 2i Im)/2 d_j p_j
    rate = m.u_prime * m.w + 2j * es.cubic.imag
    dp = es.d * p * (rate[..., None] if isinstance(y, np.ndarray) else rate) / (2.0 * den)
    return p, dp, m


def lift_at(c: DerivedConstants, es: EigenSystem, x: float, y: float) -> LiftSample:
    """The closed-form lift F(x, y) in the regime of es; |F| = 1 identically.

    Real regime: F(x, y + 4T) = F(x, y).  Raises RegimeError below the
    non-real gap floor; es is never hyperplane-degenerate.
    """
    p = _coefficients(c, es, y)
    return LiftSample(F=(p * np.exp(1j * es.d * x)) @ es.vectors)


def project_chart(F: np.ndarray) -> ChartPoint:
    """Affine chart (F1/F3, F2/F3) of the projective point F in C^3."""
    v = np.asarray(F)
    if abs(v[2]) <= CHART_TOL:
        raise ChartError(f"|F_3| = {abs(v[2]):.3e} <= {CHART_TOL:g}: chart undefined")
    return complex(v[0] / v[2]), complex(v[1] / v[2])


@dataclass
class GridSample:
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
) -> GridSample:
    """Lift on a rectangular grid with the regime-appropriate route.

    One array pass: the eigensystem and the full-period phases are computed
    once per grid, and the coefficients of every row, with e^u, come from
    one `jacobi` call on the array of y.  Chart-singular cells are flagged
    and carry NaN chart coordinates; the lift itself is defined everywhere.
    """
    if nx < 2 or ny < 2:
        raise ValueError("grid needs nx >= 2 and ny >= 2")
    es = eigensystem(c, lam)
    xs = np.linspace(x_range[0], x_range[1], nx)
    ys = np.linspace(y_range[0], y_range[1], ny)
    jac = jacobi(c.r * ys, c.k)
    p = _coefficients(c, es, ys, jac)                        # (ny, 3)
    phase = np.exp(1j * np.outer(xs, es.d))                  # (nx, 3)
    F = ((p[:, None, :] * phase).reshape(ny * nx, 3) @ es.vectors).reshape(ny, nx, 3)
    f3 = F[:, :, 2].copy()  # contiguous, read by the flag test and both quotients
    flags = np.abs(f3) <= CHART_TOL
    chart = np.empty((ny, nx, 2), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(F[:, :, 0], f3, out=chart[:, :, 0])
        np.divide(F[:, :, 1], f3, out=chart[:, :, 1])
    chart[flags] = complex(np.nan, np.nan)
    e_u = _from_jacobi(c, jac).w
    return GridSample(xs=xs, ys=ys, F=F, e_u=e_u, chart=chart, flags=flags)


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
    scalar_ode: float       # first-order ODE of the coefficients p_j


def verify_geometry(c: DerivedConstants, lam: complex, xs, ys) -> GeometryReport:
    """Finite-difference residual sweep of the lift over the given points.

    Central differences of step 1e-4, and step 5e-3 for the fourth-order
    stencil of the third x-derivative.
    """
    es = eigensystem(c, lam)
    v = es.cubic
    re0, im0 = v.real, v.imag

    def ev(x: float, p: np.ndarray) -> np.ndarray:
        return (p * np.exp(1j * es.d * x)) @ es.vectors

    # every stencil needs p_j only at y - h, y and y + h: once per y, and
    # the metric sample and p_j(y) from one jacobi call
    h = 1e-4

    def row(y: float) -> tuple:
        jac = jacobi(c.r * y, c.k)
        return (_from_jacobi(c, jac), _coefficients(c, es, y - h),
                _coefficients(c, es, y, jac), _coefficients(c, es, y + h))

    rows = [row(y) for y in np.asarray(ys, dtype=float).tolist()]
    rep = {f.name: 0.0 for f in fields(GeometryReport)}
    for x in np.asarray(xs, dtype=float).tolist():
        for m, pm, p0, pp in rows:
            F = ev(x, p0)
            fxp, fxm = ev(x + h, p0), ev(x - h, p0)
            fyp, fym = ev(x, pp), ev(x, pm)
            Fx = (fxp - fxm) / (2 * h)
            Fy = (fyp - fym) / (2 * h)
            Fxx = (fxp - 2 * F + fxm) / h**2
            Fyy = (fyp - 2 * F + fym) / h**2
            Fxy = (ev(x + h, pp) - ev(x + h, pm) - ev(x - h, pp) + ev(x - h, pm)) / (4 * h**2)
            Fz = (Fx - 1j * Fy) / 2
            Fzb = (Fx + 1j * Fy) / 2
            Fzzb = (Fxx + Fyy) / 4
            Fzz = (Fxx - Fyy - 2j * Fxy) / 4
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
            H = 5e-3
            sten = [ev(x + j * H, p0) for j in (-3, -2, -1, 1, 2, 3)]
            d3 = (sten[0] - 8 * sten[1] + 13 * sten[2] - 13 * sten[3] + 8 * sten[4] - sten[5]) / (8 * H**3)
            d1 = (sten[1] - 8 * sten[2] + 8 * sten[3] - sten[4]) / (12 * H)
            rep["x_ode"] = max(
                rep["x_ode"], float(np.max(np.abs(d3 + c.beta * d1 - 2j * re0 * F)))
            )

            dpj = (pp - pm) / (2 * h)
            ode = (es.d * w - re0) * dpj - 0.5 * (m.u_prime * w + 2j * im0) * es.d * p0
            rep["scalar_ode"] = max(rep["scalar_ode"], float(np.max(np.abs(ode))))

    return GeometryReport(**rep)
