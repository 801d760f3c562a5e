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
      n_j = d_j a1 q^2 / (d_j a1 - Re),  1 - n_j = (d_j a2 - Re) / (d_j a1 - Re).
  One n_j is negative and two lie in (k^2, 1), Legendre's circular cases,
  so n_j = k^2 sn^2(a_j, k) with a_j = i b_j or K + i b_j on an edge of
  the period rectangle.  There p_j = h_j e^{i G_j} is Hermite's solution
  of the Lame-type equation along y, a theta quotient (Whittaker & Watson
  23.7, 22.74):
      p_j = h_j(0) Q_j(u) e^{kappa_j u} Theta(0) / Theta(u),
      Q_j = Theta(u + a_j) / Theta(a_j), conjugated where pre_j < 0,
      kappa_j = i G_j(2T) / (2K),  u = r y,
  so that G_j = Im kappa_j u + Arg Q_j with |Arg Q_j| < pi/2, and
  (d_j e^u - Re) / (d_j a1 - Re) = |Q_j|^2 Theta(0)^2 / Theta(u)^2.  Per
  spectral object, `_g_segment` builds the Fourier coefficients of Q_j
  and Theta in the harmonics m v, v = pi u / (2K), from b_j or b'_j =
  K' - b_j, whichever is smaller (elliptic._pole, one R_F each) and from
  the third gap d_j a3 + Re (es.gaps), so that no form cancels at the
  corners iK' and K + iK'; G_j(2T) comes from the complete integral of
  the third kind (`_g_full_period`, Carlson's R_F, R_C and R_J).  Each
  point is then one cos and one sin of each harmonic and one sum over
  them: no jacobi, no Carlson call and no count of whole periods; no
  quadrature is involved.  Near the real locus one d_j a_i - Re
  (i = 1, 2) tends to zero like Im^2; these gaps come from the cubic of
  d_j without cancellation, and below 1e-15 max(1, |psi|) the lift is
  refused with a RegimeError.

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
the kernels behind them and iwasawa's `extended_frame` (`_phase_terms`,
`_theta_sums`, `_nonreal_terms`, `_real_rows`, `_coefficients` and
`_coefficients_and_derivatives`) follow one rule:
* an array y of shape (ny,) gives rows of shape (ny, 3); in the non-real
  regime the coefficients come from one `_theta_sums` pass, each row with
  the bits it has alone, and a float y is a one-point array on the same
  lines; in the real regime an array y takes one `jacobi` call and a float
  y the `math` path;
* a stack of spectral objects (potential.stack_systems) is an array y of
  one point per row, whose per-object constants carry a leading axis and
  are solved once per distinct object.
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

from .elliptic import (JacobiTriple, _nome, _pole, _theta_row, _theta_weights, _third_kind,
                       complete_K, jacobi)
from .linalg3 import herm_inner, per_vector, worst
from .metric import MetricSample, _from_jacobi, metric_at
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

class _ThetaConstants(NamedTuple):
    """The lift's theta quotients at one spectral object; rows of them for a stack.

    With v = pi u / (2K) = pi y / (2T), u = r y, the table's rows j = 0, 1,
    2 and 3 give, as sums over the harmonics m,
        Q_j = e^{i shift_j v} (sum_m c_j0m cos(m v) + i sum_m c_j1m sin(m v)) / norm_j,
        Theta(u) / Theta(0) = sum_m c_30m cos(m v) / norm_3,
    Q_j being Theta(u + a_j) / Theta(a_j), conjugated where pre_j < 0, and
    p_j = amp_j Q_j e^{kappa_j u} Theta(0) / Theta(u), kappa_j =
    i G_j(2T) / (2K).  Per point m v = harmonics_m y, i shift_j v =
    turn_j y, Im kappa_j u = slope_j y and kappa_j u + i shift_j v =
    spin_j y.  Every field carries a leading axis for a stack.
    """

    harmonics: np.ndarray   # (H,): m pi / (2T), the same on every row of a stack
    table: np.ndarray       # (4, 2, H)
    norm: np.ndarray        # (4, 1): sum_m c_j0m, the value of each sum at v = 0
    amp: np.ndarray         # (3,): h_j(0) = sqrt((d_j a1 - Re) / (d_j^3 - Re))
    turn: np.ndarray        # (3,): i shift_j pi / (2T), shift_j = -1, 0 or 1
    slope: np.ndarray       # (3,): G_j(2T) / (2T), from `_g_full_period`
    spin: np.ndarray        # (3,): turn_j + i slope_j


class _PhaseConstants(NamedTuple):
    """Constants of G_j(y) = pre_j Pi(n_j; am(r y), k), eigensystem order, and the lift's theta quotients.

    Each of the first four fields holds three Python floats for one
    spectral object, or rows (m, 3) of them for a stack.
    """

    den0: tuple[float, float, float]         # d_j a1 - Re = d_j e^u - Re at y = 0
    n: tuple[float, float, float]            # n_j
    one_minus_n: tuple[float, float, float]  # (d_j a2 - Re) / (d_j a1 - Re)
    pre: tuple[float, float, float]          # d_j Im / (r (d_j a1 - Re))
    theta: _ThetaConstants | None = None     # `_g_segment`'s; `_phase_scalars` leaves it out


def _phase_object(c: DerivedConstants, d, gaps, cubic: complex) -> list[float]:
    """One spectral object's den0_j, n_j, 1 - n_j and pre_j on Python floats, as one list."""
    # d_j e^u - Re stays one-signed off the real locus, but its extremes
    # d_j a_i - Re shrink like the square of the distance to that locus;
    # below the floor double precision cannot certify the sign any more
    if min(abs(gap) for gj in gaps for gap in gj[:2]) < 1e-15 * max(1.0, abs(c.psi)):
        raise RegimeError("G_j denominator vanishes: cubic form too close to real; "
                          "evaluate at the nearby real-regime lambda instead")
    omn = [gj[1] / gj[0] for gj in gaps]
    if min(omn) <= 0.0:
        raise ArithmeticError("d_j e^u - Re changes sign: the lift is not in the non-real regime")
    return ([gj[0] for gj in gaps] + [dj * c.a1 * c.q2 / gj[0] for dj, gj in zip(d, gaps)] + omn
            + [dj * cubic.imag / (c.r * gj[0]) for dj, gj in zip(d, gaps)])


def _theta_object(c: DerivedConstants, K: float, w, d, gaps, cubic: complex, full) -> list[float]:
    """`_phase_object`'s list followed by the object's theta table, amp_j, slope_j, turn_j and spin_j.

    The table's four rows are those of `_ThetaConstants`; turn_j and spin_j
    come as (real, imaginary) pairs, the harmonics last, and full holds
    G_j(2T).  n_j = k^2 sn^2(a_j, k) places a_j on an edge of the period
    rectangle (elliptic._pole, from n_j, 1 - n_j and n_j - k^2 =
    k^2 (d_j a3 + Re) / (d_j a1 - Re), each free of cancellation), and row
    j holds elliptic._theta_row's coefficients at that shift.
    """
    scalars = _phase_object(c, d, gaps, cubic)
    table, amp, slope, turn = [], [], [], []
    for dj, gj, nj, omnj, prej, fj in zip(d, gaps, scalars[3:6], scalars[6:9], scalars[9:], full):
        delta, corner, x = _pole(nj, omnj, c.k2 * gj[2] / gj[0], c.k, c.kp2, K)
        table += _theta_row(w, x, delta, corner, prej < 0.0)
        h2 = gj[0] / (dj**3 - cubic.real)
        if h2 < -1e-10:
            raise ArithmeticError(
                "negative h_j^2: eigenvalue/branch pairing violated the root interlacing")
        amp.append(math.sqrt(max(h2, 0.0)))
        slope.append(fj / (2.0 * c.T))
        turn.append(((0.5 if prej < 0.0 else -0.5) * math.pi / c.T) if corner else 0.0)
    spin = [part for t, sj in zip(turn, slope) for part in (0.0, t + sj)]
    return (scalars + table + w[2] + amp + slope + [part for t in turn for part in (0.0, t)] + spin
            + [0.5 * math.pi / c.T * m for m in range(len(w[0]))])


def _per_object(es: EigenSystem, build, *rows) -> list | np.ndarray:
    """build(d, gaps, cubic, *rows) of one spectral object, a list; for a stack, rows of them.

    rows are further per-object values, one object's or a stack's rows.  A
    stack builds each distinct object once (`_distinct`) and is refused
    where any row is.
    """
    if es.d.ndim == 1:
        return build(es.d.tolist(), es.gaps, es.cubic, *rows)
    first, inverse = _distinct(es)
    objs = zip(*(np.asarray(f)[first].tolist() for f in (es.d, es.gaps, es.cubic, *rows)))
    return np.array([build(*obj) for obj in objs])[inverse]


def _phase_fields(v: list | np.ndarray) -> tuple:
    """den0_j, n_j, 1 - n_j and pre_j from the front of `_per_object`'s list, or of its rows."""
    if isinstance(v, list):
        return tuple(tuple(v[3 * i:3 * i + 3]) for i in range(4))
    return tuple(v[:, 3 * i:3 * i + 3] for i in range(4))


def _phase_scalars(c: DerivedConstants, es: EigenSystem) -> _PhaseConstants:
    """The four scalar fields of `_g_segment`, without its theta quotients and its memo."""
    return _PhaseConstants(*_phase_fields(_per_object(es, lambda *obj: _phase_object(c, *obj))))


@lru_cache(maxsize=256)
def _g_segment(c: DerivedConstants, es: EigenSystem) -> _PhaseConstants:
    """Constants of the phase integrals G_j within one period, and the lift's theta quotients.

    One Python pass per spectral object (`_theta_object`): one object's
    scalar constants are Python floats, so that the scalar kernels run on
    the `math` path at its own speed and never on numpy scalars; a stack
    makes it once per distinct object, and its fields carry a leading axis.
    kappa_j comes from the full-period phases (`_g_full_period`), which
    read the scalar constants alone.
    """
    full = _g_full_period(c, es)
    w = _theta_weights(_nome(c.k, math.sqrt(c.kp2)))
    H, K = len(w[0]), complete_K(c.k)
    v = _per_object(es, lambda *obj: _theta_object(c, K, w, *obj), full)
    scalars = _phase_fields(v)
    v = v if isinstance(v, np.ndarray) else np.fromiter(v, float, len(v))
    a = 12 + 8 * H  # the table's end; then amp, slope, turn, spin and the harmonics
    table, z = v[..., 12:a].reshape(v.shape[:-1] + (4, 2, H)), v[..., a + 6:a + 18].view(complex)
    theta = _ThetaConstants(harmonics=v[..., a + 18:], table=table,
                            norm=table[..., 0, :].sum(-1)[..., None], amp=v[..., a:a + 3],
                            turn=z[..., :3], slope=v[..., a + 3:a + 6], spin=z[..., 3:])
    return _PhaseConstants(*scalars, theta=theta)


def _distinct(es: EigenSystem) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse): the first row of each distinct object of a stack, and each row's object.

    A spectral object depends on the surface and lambda^-3 psi alone, so
    rows are keyed by their exact es.cubic: es.<field>[first][inverse] is
    es.<field> again.
    """
    _, first, inverse = np.unique(es.cubic, return_index=True, return_inverse=True)
    return first, inverse


@lru_cache(maxsize=256)
def _g_full_period(c: DerivedConstants, es: EigenSystem) -> tuple[float, float, float]:
    """The phases G_j(2T) the lift gains over one period 2T, in both regimes; rows for a stack.

    Non-real regime: 2 pre_j Pi(n_j), by the complete integral of the third
    kind, from `_phase_scalars` (no theta quotients) and solved once per
    distinct object of a stack.  Real regime: pi on the sn and cn labels
    and 0 on the dn label, since sn and cn change sign over 2T and dn does
    not.
    """
    if es.regime == "real":
        labels = np.asarray(es.labels)  # (3,), or (m, 3) for a stack
        g = np.where(np.arange(3) == labels[..., 2:], 0.0, math.pi)
        return g if labels.ndim == 2 else tuple(g.tolist())
    g = _phase_scalars(c, es)
    if isinstance(g.n, np.ndarray):  # a stack: the array path, at sin phi = 1 on every row
        first, inverse = _distinct(es)
        pis = _third_kind(g.n[first], g.one_minus_n[first], np.ones(1), 0.0, c.kp2, c.k2)
        return 2.0 * g.pre * pis[inverse]
    pis = _third_kind(g.n, g.one_minus_n, 1.0, 0.0, c.kp2, c.k2)
    return tuple(2.0 * pre * pi for pre, pi in zip(g.pre, pis))


def _theta_sums(th: _ThetaConstants, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q_j e^{-i shift_j v}, Theta(u) / Theta(0)) at the points y, rows (ny, 3) and (ny, 1).

    Per point one cos and one sin of each harmonic m v and one sum over
    them: no jacobi and no Carlson call.  The constants, one object's or a
    stack's with one row per point, broadcast against the points, and each
    sum runs along the harmonic axis alone, so a row keeps its bits
    whatever the number of rows.  Each sum is divided by its real value at
    v = 0, so y = 0 gives (1, 1) exactly.
    """
    my = y[:, None] * th.harmonics
    trig = np.empty((y.size, 1, 2, my.shape[-1]))  # against the four rows of the table
    np.cos(my, out=trig[:, 0, 0])
    np.sin(my, out=trig[:, 0, 1])
    r = (th.table * trig).sum(-1) / th.norm
    return r[:, :3].view(complex)[..., 0], r[:, 3:, 0]


def _phase_terms(c: DerivedConstants, es: EigenSystem,
                 y: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s_j, G_j) at y: s_j^2 = (d_j e^u - Re) / (d_j a1 - Re), and the phases G_j.

    Hermite's solutions of the lift's Lame-type equation along y:
    s_j = |Q_j(u)| Theta(0) / Theta(u) and G_j = Im kappa_j u + Arg Q_j
    (`_ThetaConstants`).  Arg Q_j stays inside (-pi/2, pi/2), so no whole
    periods are counted by hand.  An array y of shape (ny,) gives rows of
    shape (ny, 3) from one `_theta_sums` pass; a float y is a one-point
    array on the same lines, and gives shape (3,).  y = 0 gives s_j = 1 and
    G_j = 0 exactly.
    """
    if not isinstance(y, np.ndarray):
        s, phases = _phase_terms(c, es, np.array([float(y)]))
        return s[0], phases[0]
    th = _g_segment(c, es).theta
    q, theta = _theta_sums(th, y)
    q = q * np.exp(y[:, None] * th.turn)
    return abs(q) / theta, y[:, None] * th.slope + np.angle(q)


def phase_integrals(c: DerivedConstants, es: EigenSystem, y: float | np.ndarray) -> np.ndarray:
    """G_j(y), ordered like es.d; G_j(y+2mT) = G_j(y) + m G_j(2T).

    An array y of shape (ny,) gives the phases as rows of shape (ny, 3).
    """
    return _phase_terms(c, es, y)[1]


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


def _nonreal_terms(c: DerivedConstants, es: EigenSystem, y: float | np.ndarray) -> np.ndarray:
    """p_j = h_j e^{i G_j} in the non-real regime: h_j(0) Q_j e^{kappa_j u} Theta(0) / Theta(u).

    A float y is a one-point array on the lines of an array y.
    """
    if not isinstance(y, np.ndarray):
        return _nonreal_terms(c, es, np.array([float(y)]))[0]
    th = _g_segment(c, es).theta
    q, theta = _theta_sums(th, y)
    return th.amp / theta * q * np.exp(y[:, None] * th.spin)


def _coefficients(
    c: DerivedConstants, es: EigenSystem, y: float | np.ndarray, jac: JacobiTriple | None = None
) -> np.ndarray:
    """p_j(y) of the eigenbasis expansion F(0, y) = sum_j p_j l_j.

    A float y gives an array of shape (3,), an array y of shape (ny,) rows
    of shape (ny, 3).  The real regime takes sn, cn and dn of r y from one
    `jacobi` call, or from jac = jacobi(c.r * y, c.k) passed in by a
    caller that needs it as well; the non-real regime calls no jacobi.
    """
    if es.regime == "real":
        sn, cn, dn = jacobi(c.r * y, c.k) if jac is None else jac
        cs = _real_amplitudes(c)
        return _real_rows(y, es.labels, (cs[0] * sn, cs[1] * cn, cs[2] * dn))
    return _nonreal_terms(c, es, y)


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
    p = _nonreal_terms(c, es, y)
    # first-order scalar ODE: (d_j e^u - Re) p_j' = (u' e^u + 2i Im)/2 d_j p_j,
    # with d_j e^u - Re = h_j^2 (d_j^3 - Re) free of cancellation
    rate = m.u_prime * m.w + 2j * es.cubic.imag
    dp = es.d * p * per_vector(rate) / (2.0 * abs(p) ** 2 * (es.d**3 - per_vector(es.cubic.real)))
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
    # B[j, x, :] = e^{i d_j x} l_j: F = p B in one product
    B = np.exp(1j * np.outer(es.d, xs))[:, :, None] * es.vectors[:, None, :]
    F = (p @ B.reshape(3, nx * 3)).reshape(ny, nx, 3)
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
    # sample only at y
    pm, p0, pp = np.split(_coefficients(c, es, np.concatenate((ys - h, ys, ys + h))), 3)
    m = metric_at(c, ys)
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
