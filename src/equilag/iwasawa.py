"""Explicit Iwasawa factorization and the extended frame.

exp(z D(lambda)) splits as F(z, lambda) U_+(y, lambda) with F unitary.  For
this family the positive factor is explicit: U_+ = Q exp(beta1 D + beta2 L0)
where Q = Q0 Qtilde conjugates D into the x-connection matrix

    Omega(y, lambda) = Q D Q^{-1} = lam^-1 U_{-1} + U_0 + V_0 + lam V_1,

the x-part of F^-1 dF = (lam^-1 U_{-1} + U_0) dz + (V_0 + lam V_1) dzbar.
Q0 = diag(i a^{-1} e^{u/2}, -i a e^{-u/2}, 1), Qtilde is an explicit matrix
rational in (e^u, u', lambda) normalized to det Qtilde = 1, Qtilde(0) = I,
and beta1, beta2 are scalar integrals

    beta1(y) = int_0^y (2i lam^3 conj(psi) - i u' e^u) / cdet ds,
    beta2(y) = int_0^y  2 e^u / cdet ds,
    cdet     = lam^3 conj(psi) - lam^-3 psi - e^u u'.

The extended frame F(z, lambda) comes two ways, each as the 3x3 complex
matrix itself: extended_frame rebuilds it from immersion's closed-form lift
(its third column) and the lift's analytic derivatives, wherever the lift
is defined; iwasawa_frame evaluates exp((z - beta1) D - beta2 L0)
Q^{-1}(y, lambda), whose third column is the lift again.  Imports run from
here to immersion only.

The beta integrals, both frames, U_+ and the monodromy data take the
EigenSystem es = potential.eigensystem(c, lambda) and never build one;
q_factor and the connection matrices, algebraic in lambda, take lambda.
These (q_factor, omega_matrix, b_matrix, y_flow_matrix) take a float y and
lambda or arrays of them: each formula builds a (..., 3, 3) stack with
linalg3.stack3, a single 3x3 matrix at floats, so that a verification
suite checks many points with one metric_at call.  On arrays
the refusals fire where any point falls below its floor and name the first
such (y, lambda).  The frames, U_+ and the beta integrals stay per point.

For |lambda| = 1 the beta integrals are closed forms in the lift's own
G_j(y) and p_j(y) = (d_j w - Re) / (d_j a1 - Re) (immersion), w = e^u and
Re + i Im = lambda^-3 psi.  cdet = -2i Im - w', and the first integral gives
|cdet|^2 = -8 prod_j (w - Re / d_j); partial fractions in w split the
integrands into G_j' = d_j Im / (d_j w - Re) and (log p_j)' = d_j w' / (d_j w - Re):

    Re beta1 = -sum_j d_j G_j / f'(d_j),  Im beta1 = y - sum_j d_j log p_j / (2 f'(d_j)),
    Re beta2 = -sum_j log p_j / (2 f'(d_j)),  Im beta2 = sum_j G_j / f'(d_j),

f'(d_j) = prod_{l != j} (d_j - d_l) = es.fprime[j].  p_j is 2T-periodic, so
whole periods enter through G_j(2T); no quadrature is involved.

The scalar normalizer of Qtilde involves a cube root whose branch is fixed
by continuity in y from Qtilde(0) = I (see _branch_ratio); principal
branches are never used blindly.  The factors degenerate where cdet
vanishes -- in particular everywhere on the real-cubic-form locus
lambda^-3 psi real, where cdet(0) = 0 -- and then a SingularLocusError
points callers at extended_frame and immersion.lift_at, which stay valid.
Hyperplane-degenerate lambda have no EigenSystem: eigensystem refuses them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import immersion
from .elliptic import jacobi
from .linalg3 import dagger, first_point, per_matrix, stack3
from .metric import MetricSample, metric_at
from .potential import DerivedConstants, EigenSystem, nonzero_lambda


class SingularLocusError(ArithmeticError):
    """(y, lambda) is on the singular locus of the explicit factorization.

    The Iwasawa-route formulas need cdet = lam^3 conj(psi) - lam^-3 psi
    - e^u u' bounded away from zero on the whole path 0 -> y; for
    |lambda| = 1 its minimum over y is |cdet(0)| = 2 |Im(lambda^-3 psi)|.
    Evaluate the frame or lift through the eigenbasis closed forms instead
    (extended_frame or immersion.lift_at).
    """

    HINT = "; evaluate through the eigenbasis closed forms (extended_frame, lift_at)"

    def __init__(self, message: str):
        super().__init__(message + self.HINT)


def _sqrt(w):
    """math.sqrt at a float, np.sqrt at an array (both correctly rounded)."""
    return math.sqrt(w) if isinstance(w, float) else np.sqrt(w)


def _connection(c: DerivedConstants, y: float | np.ndarray) -> tuple[np.ndarray, ...]:
    """Connection blocks (U_{-1}, U_0, V_1); V_0 = U_0 = diag(-iu'/4, iu'/4, 0)."""
    m = metric_at(c, y)
    eu2 = _sqrt(m.w)
    u_m1 = stack3([[0, 0, 1j * eu2], [-1j * c.psi / m.w, 0, 0], [0, 1j * eu2, 0]], m.w)
    v_p1 = stack3([[0, -1j * np.conj(c.psi) / m.w, 0], [0, 0, 1j * eu2], [1j * eu2, 0, 0]], m.w)
    u0 = stack3([[-0.25j * m.u_prime, 0, 0], [0, 0.25j * m.u_prime, 0], [0, 0, 0]], m.w)
    return u_m1, u0, v_p1


def omega_matrix(c: DerivedConstants, y: float | np.ndarray,
                 lam: complex | np.ndarray) -> np.ndarray:
    """x-connection matrix Omega = lam^-1 U_{-1} + 2 U_0 + lam V_1; equals D(lambda) at y = 0."""
    lam = per_matrix(nonzero_lambda(lam))
    u_m1, u0, v_p1 = _connection(c, y)
    return u_m1 / lam + 2.0 * u0 + lam * v_p1


def b_matrix(c: DerivedConstants, y: float | np.ndarray,
             lam: complex | np.ndarray) -> np.ndarray:
    """y-connection matrix B(y, lambda) = i(lam^-1 U_{-1} - lam V_1)."""
    lam = per_matrix(nonzero_lambda(lam))
    u_m1, _, v_p1 = _connection(c, y)
    return 1j * (u_m1 / lam - lam * v_p1)


def y_flow_matrix(c: DerivedConstants, y: float | np.ndarray,
                  lam: complex | np.ndarray) -> np.ndarray:
    """Right-hand side 2i(lam V_1 + V_0) of the positive-factor flow dU+/dy U+^{-1}."""
    lam = per_matrix(nonzero_lambda(lam))
    _, u0, v_p1 = _connection(c, y)
    return 2j * (lam * v_p1 + u0)


def _cdet_floor(c: DerivedConstants, w_prime: float = 0.0) -> float:
    """Refusal floor of |cdet(y)| = |c0 - w'(y)|, and of |c0| at w' = 0: 1e-8 (2|psi| + |w'|)."""
    return 1e-8 * (2.0 * abs(c.psi) + abs(w_prime))


def _checked_c0(c: DerivedConstants, lam: complex | np.ndarray) -> complex | np.ndarray:
    """cdet(0) = lam^3 conj(psi) - lam^-3 psi, refused below the cdet floor."""
    c0 = lam**3 * np.conj(c.psi) - c.psi / lam**3
    if (at := first_point(abs(c0) < _cdet_floor(c), lam)) is not None:
        raise SingularLocusError(f"cdet vanishes at y = 0 for lambda = {at[0]:.6g} "
                                 "(lambda^-3 psi is real up to tolerance)")
    return c0


def _cdet(c: DerivedConstants, y, lam) -> tuple[MetricSample, complex, complex]:
    """(metric sample at y, c0 = cdet(0), cdet(y) = c0 - w'(y)), refused below the cdet floor."""
    c0 = _checked_c0(c, lam)
    m = metric_at(c, y)
    cdet = c0 - m.w_prime
    if (at := first_point(abs(cdet) < _cdet_floor(c, m.w_prime), y, lam)) is not None:
        raise SingularLocusError(f"cdet vanishes at y = {at[0]:.6g}, lambda = {at[1]:.6g}")
    return m, c0, cdet


def _branch_ratio(c0: complex, cdet: complex) -> complex:
    """zeta(y)^2, zeta the continuous cube root of cdet(y)/cdet(0) from zeta(0) = 1.

    cdet(y)/cdet(0) = 1 - w'(y)/c0, so as y varies it moves along the
    straight line through 1 with direction -1/c0 (a vertical line for
    |lambda| = 1, where c0 is purely imaginary and w' real).  A line through
    1 meets the negative real axis only when its direction is real, i.e.
    only by passing through 0 -- the singular locus, which is rejected.  Off
    that locus the continuous argument from arg(1) = 0 therefore never
    reaches +-pi and the continuous branch of the cube root equals the
    principal one; no numerical path tracking is needed, and the value is
    exact for every y (in particular it returns to 1 after each full period).
    """
    ratio = cdet / c0
    negative = (ratio.real <= 0.0) & (abs(ratio.imag) <= 1e-12 * abs(ratio))
    if (at := first_point(negative, ratio)) is not None:
        raise SingularLocusError(f"cdet ratio reaches the negative real axis at {at[0]:.6g}")
    zeta = ratio ** (1.0 / 3.0)
    return zeta * zeta


def _raw_factor(c: DerivedConstants, m: MetricSample, lam, cdet):
    """Unnormalized upper factor M and diagonal gauge Q0 at metric sample m; M[2, 2] = cdet."""
    w, up = m.w, m.u_prime
    eu2 = _sqrt(w)
    a, psi = c.a, c.psi
    aa = abs(a) ** 2  # = a1
    l3 = lam**3
    # a numpy complex: its products and quotients round as numpy's do
    l3_psic = l3 * np.conj(psi)
    pch = -aa * up / 2.0 + l3_psic * aa / w - psi / l3
    qch = (a / (lam**2 * np.conj(a))) * (up / 2.0 * aa - l3_psic / w * (aa - w))
    sch = (lam**2 / a**2) * (aa * up / 2.0 * w + psi / l3 * (aa - w))
    tch = (1.0 / aa) * (-aa * up / 2.0 * w + l3_psic * w - psi / l3 * aa)
    v1 = -2j / lam * a * (aa - w)
    v2 = -2j * lam / a * w * (aa - w)
    raw = stack3([[pch, qch, v1], [sch, tch, v2], [0.0, 0.0, cdet]], cdet)
    q0 = stack3([[1j / a * eu2, 0, 0], [0, -1j * a / eu2, 0], [0, 0, 1.0]], w)
    return raw, q0


def q_factor(c: DerivedConstants, y: float | np.ndarray,
             lam: complex | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (Q0, Qtilde) with Q = Q0 Qtilde solving Q D Q^{-1} = Omega.

    det Qtilde = 1 and Qtilde(0) = Q0(0) = I; the scalar normalizer carries
    the cube-root branch that is continuous in y from the identity (see
    _branch_ratio).  Raises SingularLocusError on the singular locus of the
    factorization, naming the first point (y, lambda) that reaches it.
    Takes floats or arrays of y and lambda, like the connection matrices.
    """
    lam = nonzero_lambda(lam)
    m, c0, cdet = _cdet(c, y, lam)
    raw, q0 = _raw_factor(c, m, lam, cdet)
    return q0, raw / per_matrix(c0 * _branch_ratio(c0, cdet))


def _check_beta_domain(c: DerivedConstants, es: EigenSystem) -> tuple:
    """The lift's phase constants of es, refusing lambda off the closed forms' domain.

    For |lambda| = 1, min_y |cdet| = |c0| (c0 imaginary, w' real), so one
    check of c0 covers every y; the lift's gap floor may refuse as well.
    Refusals carry this route's errors.  es is never hyperplane-degenerate:
    eigensystem refuses such a lambda.
    """
    _checked_c0(c, es.lam)
    try:
        return immersion._g_segment(c, es)
    except immersion.RegimeError as exc:
        raise SingularLocusError(f"lift phase constants refused ({exc})") from exc


def _partial_fractions(es: EigenSystem, g, log_p, y: float) -> tuple[complex, complex]:
    """(beta1, beta2) from G_j and log p_j, with the weights 1 / f'(d_j) of es.fprime."""
    d, w = es.d, 1.0 / np.array(es.fprime)
    return complex(-(d * w) @ g, y - 0.5 * (d * w) @ log_p), complex(-0.5 * w @ log_p, w @ g)


def beta_integrals(c: DerivedConstants, es: EigenSystem, y: float) -> tuple[complex, complex]:
    """The abelian-factor integrals (beta1(y), beta2(y)) at the spectral object es.

    Closed forms in the lift's phase integrals G_j(y) and p_j(y) (module
    docstring), so beta(y + 2mT) = beta(y) + m beta(2T) and beta(0) = 0
    exactly.  Raises SingularLocusError on the singular locus of the
    factorization.
    """
    g = _check_beta_domain(c, es)
    y = float(y)
    if y == 0.0:
        return 0j, 0j  # exact; p_j(0) = (1 - n_j) + n_j may round off 1
    sn, cn, _ = jacobi(c.r * y, c.k)
    p, phases = immersion._phase_terms(c, es, g, y, sn, cn)
    return _partial_fractions(es, phases, np.log(p), y)


def extended_frame(c: DerivedConstants, es: EigenSystem, z: complex) -> np.ndarray:
    """The extended frame F(z, lambda), a 3x3 matrix in SU(3), F(0, lambda) = I, from the lift.

    F_frame = (-i lam e^{-u/2} F_z, (i lam)^{-1} e^{-u/2} F_zbar, F), with
    the derivatives of the closed-form lift F taken analytically from p_j
    and p_j'; defined wherever the lift is (every es).
    """
    lam, z = es.lam, complex(z)
    p, dp, m = immersion._coefficients_and_derivatives(c, es, z.imag)
    phase = np.exp(1j * es.d * z.real)
    F = (p * phase) @ es.vectors
    Fx = (1j * es.d * p * phase) @ es.vectors
    Fy = (dp * phase) @ es.vectors
    fz = (Fx - 1j * Fy) / 2.0
    fzb = (Fx + 1j * Fy) / 2.0
    eu2 = math.sqrt(m.w)
    cols = (-1j * lam * fz / eu2, fzb / (1j * lam * eu2), F)
    return np.stack(cols, axis=1)


def iwasawa_frame(c: DerivedConstants, es: EigenSystem, z: complex) -> np.ndarray:
    """The extended frame by the explicit factorization exp((z - beta1) D - beta2 L0) Q^{-1}.

    Equal to extended_frame where both exist; raises SingularLocusError on
    the singular locus of the factorization.
    """
    z = complex(z)
    b1, b2 = beta_integrals(c, es, z.imag)
    q0, qt = q_factor(c, z.imag, es.lam)
    return _exp_d_l0(c, es, z - b1, -b2) @ np.linalg.inv(q0 @ qt)


def u_plus(c: DerivedConstants, es: EigenSystem, y: float) -> np.ndarray:
    """Positive Iwasawa factor U_+(y, lambda) = Q exp(beta1 D + beta2 L0) at es.

    Satisfies U_+ D U_+^{-1} = Omega and dU_+/dy U_+^{-1} = 2i(lam V_1 + V_0)
    on the admissible set.
    """
    b1, b2 = beta_integrals(c, es, y)
    q0, qt = q_factor(c, y, es.lam)
    return q0 @ qt @ _exp_d_l0(c, es, b1, b2)


def _l0_spectrum(c: DerivedConstants, d: np.ndarray) -> np.ndarray:
    """Eigenvalues -d_j^2 + 2 beta / 3 of L0 on the eigenvectors l_j of D."""
    return -d**2 + 2.0 * c.beta / 3.0


def _exp_d_l0(c: DerivedConstants, es: EigenSystem, s: complex, t: complex) -> np.ndarray:
    """exp(s D + t L0), diagonal in the eigenbasis l_j of D(lambda)."""
    exps = np.exp(s * 1j * es.d + t * _l0_spectrum(c, es.d))
    basis = es.vectors.T  # columns are l_j
    return (basis * exps) @ dagger(basis)


@lru_cache(maxsize=256)
def _beta_full_period(c: DerivedConstants, es: EigenSystem) -> tuple[float, float]:
    """(Re beta1(2T), Im beta2(2T)) from the lift's G_j(2T), per spectral object."""
    _check_beta_domain(c, es)
    g = np.array(immersion._g_full_period(c, es))
    b1, b2 = _partial_fractions(es, g, np.zeros(3), 2.0 * c.T)
    return b1.real, b2.imag


def monodromy_data(c: DerivedConstants, es: EigenSystem) -> tuple[float, float]:
    """(Re beta1(2T), Im beta2(2T)), the only period data entering monodromy.

    Closed forms in the complete-integral phases G_j(2T) of the lift:
    Re beta1(2T) = -sum_j d_j G_j(2T) / f'(d_j) and
    Im beta2(2T) = sum_j G_j(2T) / f'(d_j).  Refused like beta_integrals.
    """
    return _beta_full_period(c, es)


def full_period_phases(c: DerivedConstants, es: EigenSystem) -> np.ndarray:
    """Lift phases G_j(2T) in eigensystem order, from the monodromy data.

    G_j(2T) = -(Re beta1(2T) d_j + Im beta2(2T) (-d_j^2 + 2 beta / 3)), the
    cancellation identity between the monodromy and the lift phases.  The
    monodromy data are combinations of the lift's G_j(2T), so the identity
    checks the partial-fraction algebra and sum_j G_j(2T) = 0, not an
    independent integration.
    """
    re_b1, im_b2 = monodromy_data(c, es)
    return -(re_b1 * es.d + im_b2 * _l0_spectrum(c, es.d))
