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
and `project_chart` takes that vector.  `lift_at`, `phase_integrals` and
the kernels behind them and iwasawa's `extended_frame` (`_g_segment`,
`_phase_terms`, `_nonreal_terms`, `_real_rows`, `_coefficients` and
`_coefficients_and_derivatives`) follow one rule:
* a float y takes the `math` path, on Python floats;
* an array y takes the array path: one `jacobi` call and one
  `_third_kind` call for all three G_j, whatever its length;
* a stack of spectral objects (potential.stack_systems) is an array y of
  one point per row, whose per-object constants carry a leading axis.
`sample_grid` makes one array pass per grid, and `verify_geometry` one
for all its points and stencil offsets, from one `_coefficients` call at
y - h, y and y + h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .elliptic import JacobiTriple, _third_kind, jacobi
from .linalg3 import herm_inner, per_vector, worst
from .metric import MetricSample, _from_jacobi
from .potential import DerivedConstants, EigenSystem, Refusal, eigensystem


class RegimeError(Refusal):
    """Closed form requested outside its regime of lambda^-3 psi."""


class ChartError(Refusal):
    """Affine chart undefined: third lift component too close to zero."""


@dataclass
class LiftSample:
    """The lift vector F of `lift_at`.

    A record only because the benchmark's worker reads `lift_at(...).F`;
    `lift_at` can return the bare array once the benchmark reads that.
    """

    F: np.ndarray  # unit vector in C^3, or rows (n, 3) of them at arrays of points


ChartPoint = tuple[complex, complex]

# |F_3| at or below this leaves the affine chart (F1/F3, F2/F3) undefined
CHART_TOL = 1e-8


# ---------------------------------------------------------------------------
# non-real regime

class _PhaseConstants(NamedTuple):
    """Constants of G_j(y) = pre_j Pi(n_j; am(r y), k), eigensystem order.

    Each field holds three Python floats for one spectral object, or rows
    (m, 3) of them for a stack.
    """

    den0: tuple[float, float, float]         # d_j a1 - Re = d_j e^u - Re at y = 0
    n: tuple[float, float, float]            # n_j
    one_minus_n: tuple[float, float, float]  # (d_j a2 - Re) / (d_j a1 - Re)
    pre: tuple[float, float, float]          # d_j Im / (r (d_j a1 - Re))


@lru_cache(maxsize=256)
def _g_segment(c: DerivedConstants, es: EigenSystem) -> _PhaseConstants:
    """Constants of the phase integrals G_j within one period, per spectral object.

    One numpy formula for one object and for a stack, whose fields carry a
    leading axis; a stack is refused where any row is.  One object's
    constants then become Python floats, so that the scalar kernels run on
    the `math` path at its own speed and never on numpy scalars.
    """
    gaps = np.asarray(es.gaps)
    # d_j e^u - Re stays one-signed off the real locus, but its extremes
    # d_j a_i - Re shrink like the square of the distance to that locus;
    # below the floor double precision cannot certify the sign any more
    if np.abs(gaps).min() < 1e-15 * max(1.0, abs(c.psi)):
        raise RegimeError("G_j denominator vanishes: cubic form too close to real; "
                          "evaluate at the nearby real-regime lambda instead")
    den0 = gaps[..., 0]
    g = _PhaseConstants(den0=den0, n=es.d * c.a1 * c.q2 / den0, one_minus_n=gaps[..., 1] / den0,
                        pre=es.d * per_vector(es.cubic.imag) / (c.r * den0))
    if (g.one_minus_n <= 0.0).any():
        raise ArithmeticError("d_j e^u - Re changes sign: the lift is not in the non-real regime")
    return g if gaps.ndim == 3 else _PhaseConstants(*(tuple(f.tolist()) for f in g))


@lru_cache(maxsize=256)
def _g_full_period(c: DerivedConstants, es: EigenSystem) -> tuple[float, float, float]:
    """The phases G_j(2T) the lift gains over one period 2T, in both regimes; rows for a stack.

    Non-real regime: 2 pre_j Pi(n_j), by the complete integral of the third
    kind.  Real regime: pi on the sn and cn labels and 0 on the dn label,
    since sn and cn change sign over 2T and dn does not.
    """
    if es.regime == "real":
        labels = np.asarray(es.labels)  # (3,), or (m, 3) for a stack
        g = np.where(np.arange(3) == labels[..., 2:], 0.0, math.pi)
        return g if labels.ndim == 2 else tuple(g.tolist())
    g = _g_segment(c, es)
    if isinstance(g.n, np.ndarray):  # a stack: the array path, at sin phi = 1 on every row
        return 2.0 * g.pre * _third_kind(g.n, g.one_minus_n, np.ones(1), 0.0, c.kp2, c.k2)
    pis = _third_kind(g.n, g.one_minus_n, 1.0, 0.0, c.kp2, c.k2)
    return tuple(2.0 * pre * pi for pre, pi in zip(g.pre, pis))


def _phase_terms(
    c: DerivedConstants, es: EigenSystem, g: _PhaseConstants, y: float | np.ndarray, sn, cn
) -> tuple[np.ndarray, np.ndarray]:
    """(p_j, G_j) at y, both in closed form, from g = _g_segment(c, es) and sn, cn of r y.

    p_j = (d_j e^u - Re) / (d_j a1 - Re) = 1 - n_j sn^2(r y).  With
    m = round(y / 2T), u = r y - 2mK lies in [-K, K], where
    sin am(u) = (-1)^m sn(r y) and cos^2 am(u) = cn^2(r y); then
    G_j(y) = pre_j Pi(n_j; am(u)) + m G_j(2T).  1 - n_j sn^2 is formed as
    (1 - n_j) + n_j cn^2 when n_j > 0, so it keeps its accuracy as n_j -> 1.
    A float y takes the `math` path.  An array y of shape (ny,) gives rows
    of shape (ny, 3), with m per row, from one `_third_kind` call: the
    constants of g, (3,) for one object or (ny, 3) for a stack, broadcast
    against the points.  Each element has the bits of the float call, but
    for the sign of a zero phase at y = 0 when other rows add whole
    periods.  The caller looks g up, once per point or array.
    """
    array = isinstance(y, np.ndarray)
    m = (np.round if array else round)(y / (2.0 * c.T))
    s = sn * (1 - 2 * (m % 2))  # (-1)^m sn
    c2 = cn * cn
    d2 = c.kp2 + c.k2 * c2
    n = g.n
    if array:  # the n_j along the last axis, against the points of y
        n, omn = np.asarray(n), np.asarray(g.one_minus_n)
        s, c2, d2 = s[..., None], c2[..., None], d2[..., None]
        p = np.where(n > 0.0, omn + n * c2, 1.0 - n * s * s)
    else:
        p = [omn + nj * c2 if nj > 0.0 else 1.0 - nj * s * s for nj, omn in zip(n, g.one_minus_n)]
    phases = np.array(g.pre) * _third_kind(n, p, s, c2, d2, c.k2)
    p = np.asarray(p)
    if m.any() if array else m:
        phases += per_vector(m) * np.asarray(_g_full_period(c, es))
    return p, phases


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

def _real_rows(y: float | np.ndarray, idx, vals) -> np.ndarray:
    """Real-regime coefficients with vals[i] at eigensystem index idx[i].

    A float y gives shape (3,) from scalar elements.  An array y of shape
    (ny,) gives rows of shape (ny, 3), against labels idx of shape (3,) for
    one object or (ny, 3) for a stack, one row per point of y.
    """
    if isinstance(y, np.ndarray):
        vals = np.stack(vals, axis=-1)
        rows = np.zeros(vals.shape)
        np.put_along_axis(rows, np.broadcast_to(idx, vals.shape), vals, axis=-1)
        return rows
    rows = np.zeros(3)
    rows[idx[0]], rows[idx[1]], rows[idx[2]] = vals
    return rows


def _nonreal_terms(
    c: DerivedConstants, es: EigenSystem, y: float | np.ndarray, sn, cn
) -> tuple[np.ndarray, np.ndarray]:
    """(p_j, d_j e^u - Re) in the non-real regime, from sn and cn of r y."""
    g = _g_segment(c, es)
    ratio, phases = _phase_terms(c, es, g, y, sn, cn)
    den = np.array(g.den0) * ratio
    h2 = den / (es.d**3 - per_vector(es.cubic.real))
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
    dp = es.d * p * per_vector(rate) / (2.0 * den)
    return p, dp, m


def lift_at(c: DerivedConstants, es: EigenSystem, x: float | np.ndarray,
            y: float | np.ndarray) -> LiftSample:
    """The closed-form lift F(x, y) in the regime of es; |F| = 1 identically.

    Real regime: F(x, y + 4T) = F(x, y).  Raises RegimeError below the
    non-real gap floor; es is never hyperplane-degenerate.  x and y may be
    arrays of one shape (n,), and F then has rows of shape (n, 3), from
    one `_coefficients` pass; a numpy scalar is taken as the float it holds.
    """
    if not isinstance(y, np.ndarray):
        y = float(y)
    x = x[..., None] if isinstance(x, np.ndarray) else float(x)  # against es.d
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
    """Finite-difference residual sweep of the lift over the points (x, y), x in xs, y in ys.

    Central differences of step 1e-4, and step 5e-3 for the fourth-order
    stencil of the third x-derivative.  One array pass: p_j at y - h, y and
    y + h for every y from one `_coefficients` call, each stencil evaluated
    at all points at once, and each residual the max over the points,
    NaN where any point is NaN.
    """
    es = eigensystem(c, lam)
    v = es.cubic
    re0, im0 = v.real, v.imag
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    h = 1e-4

    # every stencil needs p_j only at y - h, y and y + h, and the metric
    # sample only at y: one jacobi call serves them all
    rows = np.concatenate((ys - h, ys, ys + h))
    jac = jacobi(c.r * rows, c.k)
    pm, p0, pp = np.split(_coefficients(c, es, rows, jac), 3)
    m = _from_jacobi(c, JacobiTriple(*(t[ys.size:2 * ys.size] for t in jac)))
    w, u_prime = m.w[:, None], m.u_prime[:, None]  # against (ny, 3) rows, or (nx, ny, 3) points

    def ev(dx: float, p: np.ndarray) -> np.ndarray:
        """F at (x + dx, y) for every x in xs and y in ys, shape (nx, ny, 3), from p_j at y."""
        return (np.exp(1j * np.multiply.outer(xs + dx, es.d))[:, None, :] * p) @ es.vectors

    F = ev(0.0, p0)
    fxp, fxm = ev(h, p0), ev(-h, p0)
    fyp, fym = ev(0.0, pp), ev(0.0, pm)
    Fx = (fxp - fxm) / (2 * h)
    Fy = (fyp - fym) / (2 * h)
    Fxx = (fxp - 2 * F + fxm) / h**2
    Fyy = (fyp - 2 * F + fym) / h**2
    Fxy = (ev(h, pp) - ev(h, pm) - ev(-h, pp) + ev(-h, pm)) / (4 * h**2)
    Fz = (Fx - 1j * Fy) / 2
    Fzb = (Fx + 1j * Fy) / 2
    Fzzb = (Fxx + Fyy) / 4
    Fzz = (Fxx - Fyy - 2j * Fxy) / 4

    # third x-derivative: fourth-order central stencil, larger step
    H = 5e-3
    sten = [ev(j * H, p0) for j in (-3, -2, -1, 1, 2, 3)]
    d3 = (sten[0] - 8 * sten[1] + 13 * sten[2] - 13 * sten[3] + 8 * sten[4] - sten[5]) / (8 * H**3)
    d1 = (sten[1] - 8 * sten[2] + 8 * sten[3] - sten[4]) / (12 * H)

    dpj = (pp - pm) / (2 * h)
    ode = (es.d * w - re0) * dpj - 0.5 * (u_prime * w + 2j * im0) * es.d * p0

    return GeometryReport(
        horizontality=worst(abs(herm_inner(Fz, F)), abs(herm_inner(Fzb, F))),
        conformality_diag=worst(abs(herm_inner(Fz, Fz) - m.w), abs(herm_inner(Fzb, Fzb) - m.w)),
        conformality_cross=worst(abs(herm_inner(Fz, Fzb))),
        laplace=worst(abs(Fzzb + w * F)),
        cubic_form=worst(abs(herm_inner(Fzz, Fzb) + 1j * v)),
        x_ode=worst(abs(d3 + c.beta * d1 - 2j * re0 * F)),
        scalar_ode=worst(abs(ode)),
    )
