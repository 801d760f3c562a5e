"""Explicit Iwasawa factorization and the extended frame.

exp(z D(lambda)) splits as F(z, lambda) U_+(y, lambda) with F unitary.  For
this family the positive factor is explicit: U_+ = Q exp(beta1 D + beta2 L0)
where Q = Q0 Qtilde conjugates D into the x-connection matrix

    Omega(y, lambda) = Q D Q^{-1},

Q0 = diag(i a^{-1} e^{u/2}, -i a e^{-u/2}, 1), Qtilde is an explicit matrix
rational in (e^u, u', lambda) normalized to det Qtilde = 1, Qtilde(0) = I,
and beta1, beta2 are scalar integrals

    beta1(y) = int_0^y (2i lam^3 conj(psi) - i u' e^u) / cdet ds,
    beta2(y) = int_0^y  2 e^u / cdet ds,
    cdet     = lam^3 conj(psi) - lam^-3 psi - e^u u'.

The extended frame is then F(z, lambda) =
exp((z - beta1) D - beta2 L0) Q^{-1}(y, lambda).

The scalar normalizer of Qtilde involves a cube root whose branch is fixed
by continuity in y from Qtilde(0) = I, tracked along the integration path;
principal branches are never used blindly.  The factors degenerate where
cdet vanishes -- in particular everywhere on the real-cubic-form locus
lambda^-3 psi real, where cdet(0) = 0 -- and then a SingularLocusError
points callers at the eigenbasis route (see immersion), which stays valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg3 import dagger
from .metric import metric_at
from .potential import (
    DerivedConstants,
    EigenSystem,
    _check_unit,
    commutant_matrix,
    eigensystem,
)
from .quadrature import relaxed_simpson


class SingularLocusError(ArithmeticError):
    """(y, lambda) is on the singular locus of the explicit factorization.

    The Iwasawa-route formulas need cdet = lam^3 conj(psi) - lam^-3 psi
    - e^u u' bounded away from zero on the whole path 0 -> y.  Evaluate the
    frame or lift through the eigenbasis closed forms instead
    (extended_frame(..., route="eigenbasis") or the immersion module).
    """

    HINT = "; evaluate through the eigenbasis closed forms (route='eigenbasis')"

    def __init__(self, message: str):
        super().__init__(message + self.HINT)


@dataclass
class IwasawaFactors:
    y: float
    lam: complex
    Q0: np.ndarray
    Qtilde: np.ndarray
    beta1: complex
    beta2: complex
    L0: np.ndarray


@dataclass
class FrameSample:
    z: complex
    lam: complex
    matrix: np.ndarray  # the extended frame, in SU(3) for |lambda| = 1


def omega_matrix(c: DerivedConstants, y: float, lam: complex) -> np.ndarray:
    """x-connection matrix Omega(y, lambda); equals D(lambda) at y = 0."""
    lam = complex(lam)
    m = metric_at(c, y)
    eu2 = np.sqrt(m.w)
    psi = c.psi
    return np.array(
        [
            [-0.5j * m.u_prime, -1j * lam * np.conj(psi) / m.w, 1j * eu2 / lam],
            [-1j * psi / (lam * m.w), 0.5j * m.u_prime, 1j * lam * eu2],
            [1j * lam * eu2, 1j * eu2 / lam, 0.0],
        ],
        dtype=complex,
    )


def _uv_blocks(c: DerivedConstants, y: float, lam: complex):
    """Connection blocks (U_{-1}, U_0, V_0, V_1); here U_0 = V_0 = diag(-iu'/4, iu'/4, 0)."""
    m = metric_at(c, y)
    eu2 = np.sqrt(m.w)
    psi = c.psi
    u_m1 = np.array(
        [[0, 0, 1j * eu2], [-1j * psi / m.w, 0, 0], [0, 1j * eu2, 0]], dtype=complex
    )
    v_p1 = np.array(
        [[0, -1j * np.conj(psi) / m.w, 0], [0, 0, 1j * eu2], [1j * eu2, 0, 0]],
        dtype=complex,
    )
    u0 = np.diag([-0.25j * m.u_prime, 0.25j * m.u_prime, 0.0])
    return u_m1, u0, u0.copy(), v_p1


def b_matrix(c: DerivedConstants, y: float, lam: complex) -> np.ndarray:
    """y-connection matrix B(y, lambda) = i(lam^-1 U_{-1} - lam V_1)."""
    lam = complex(lam)
    u_m1, _, _, v_p1 = _uv_blocks(c, y, lam)
    return 1j * (u_m1 / lam - lam * v_p1)


def y_flow_matrix(c: DerivedConstants, y: float, lam: complex) -> np.ndarray:
    """Right-hand side 2i(lam V_1 + V_0) of the positive-factor flow dU+/dy U+^{-1}."""
    lam = complex(lam)
    _, _, v0, v_p1 = _uv_blocks(c, y, lam)
    return 2j * (lam * v_p1 + v0)


def _cdet(c: DerivedConstants, lam: complex, y: float) -> complex:
    w_prime = metric_at(c, y).w_prime  # e^u u' = w'
    return lam**3 * np.conj(c.psi) - c.psi / lam**3 - w_prime


def _cdet_floor(c: DerivedConstants, lam: complex) -> float:
    scale = 2.0 * abs(c.psi) + 2.0 * c.a1 * c.q2 * c.r
    return 1e-8 * scale


def _raw_factor(c: DerivedConstants, y: float, lam: complex):
    """Unnormalized upper factor M and diagonal gauge Q0 at (y, lambda)."""
    m = metric_at(c, y)
    w, up = m.w, m.u_prime
    eu2 = np.sqrt(w)
    a, psi = c.a, c.psi
    aa = abs(a) ** 2  # = a1
    l3 = lam**3
    pch = -aa * up / 2.0 + l3 * np.conj(psi) * aa / w - psi / l3
    qch = (a / (lam**2 * np.conj(a))) * (up / 2.0 * aa - l3 * np.conj(psi) / w * (aa - w))
    sch = (lam**2 / a**2) * (aa * up / 2.0 * w + psi / l3 * (aa - w))
    tch = (1.0 / aa) * (-aa * up / 2.0 * w + l3 * np.conj(psi) * w - psi / l3 * aa)
    v1 = -2j / lam * a * (aa - w)
    v2 = -2j * lam / a * w * (aa - w)
    cch = l3 * np.conj(psi) - psi / l3 - w * up
    raw = np.array([[pch, qch, v1], [sch, tch, v2], [0.0, 0.0, cch]], dtype=complex)
    q0 = np.diag([1j / a * eu2, -1j * a / eu2, 1.0 + 0j])
    return raw, q0, cch


def _branch_ratio(c: DerivedConstants, y: float, lam: complex) -> complex:
    """zeta(y)^2, zeta the continuous cube root of cdet(y)/cdet(0) from zeta(0) = 1.

    cdet(y)/cdet(0) = 1 - w'(y)/c0 with c0 = lam^3 conj(psi) - lam^-3 psi,
    so as y varies it moves along the straight line through 1 with direction
    -1/c0 (a vertical line for |lambda| = 1, where c0 is purely imaginary
    and w' real).  A line through 1 meets the negative real axis only when
    its direction is real, i.e. only by passing through 0 -- the singular
    locus, which is rejected.  Off that locus the continuous argument from
    arg(1) = 0 therefore never reaches +-pi and the continuous branch of
    the cube root equals the principal one; no numerical path tracking is
    needed, and the value is exact for every y (in particular it returns to
    1 after each full period).
    """
    c0 = lam**3 * np.conj(c.psi) - c.psi / lam**3
    floor = _cdet_floor(c, lam)
    if abs(c0) < floor:
        raise SingularLocusError(
            "cdet vanishes at y = 0 (lambda^-3 psi is real up to tolerance)"
        )
    cch = c0 - metric_at(c, y).w_prime
    if abs(cch) < floor:
        raise SingularLocusError(f"cdet vanishes at y = {y:.6g}")
    w = cch / c0
    if w.real <= 0.0 and abs(w.imag) <= 1e-12 * abs(w):
        raise SingularLocusError("cdet ratio reaches the negative real axis")
    zeta = w ** (1.0 / 3.0)
    return zeta * zeta


def q_factor(
    c: DerivedConstants,
    y: float,
    lam: complex,
    _wrong_normalizer: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The pair (Q0, Qtilde) with Q = Q0 Qtilde solving Q D Q^{-1} = Omega.

    det Qtilde = 1 and Qtilde(0) = Q0(0) = I; the scalar normalizer carries
    the cube-root branch that is continuous in y from the identity (see
    _branch_ratio).  Raises SingularLocusError on the singular locus of the
    factorization.  (_wrong_normalizer deliberately mis-places the
    cube-root exponents; it exists only as a negative control for
    verification.)
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    raw, q0, _ = _raw_factor(c, y, lam)
    c0 = lam**3 * np.conj(c.psi) - c.psi / lam**3
    rho = _branch_ratio(c, y, lam)
    if _wrong_normalizer:
        xi = c0 * rho * rho
    else:
        xi = c0 * rho
    return q0, raw / xi


# beta integrals at the full period are reused heavily; cache per (c, lambda)
@lru_cache(maxsize=256)
def _beta_full_period(c: DerivedConstants, lam: complex, tol: float) -> tuple[complex, complex]:
    return _beta_segment(c, 2.0 * c.T, lam, tol)


def _beta_segment(c: DerivedConstants, y: float, lam: complex, tol: float) -> tuple[complex, complex]:
    floor = _cdet_floor(c, lam)
    for t in np.linspace(0.0, y, 65):
        if abs(_cdet(c, lam, t)) < floor:
            raise SingularLocusError(f"beta integrand denominator vanishes near y = {t:.6g}")

    def f1(t: float) -> complex:
        m = metric_at(c, t)
        den = lam**3 * np.conj(c.psi) - c.psi / lam**3 - m.w_prime
        return (2j * lam**3 * np.conj(c.psi) - 1j * m.w_prime) / den

    def f2(t: float) -> complex:
        m = metric_at(c, t)
        den = lam**3 * np.conj(c.psi) - c.psi / lam**3 - m.w_prime
        return 2.0 * m.w / den

    return relaxed_simpson(f1, 0.0, y, tol=tol), relaxed_simpson(f2, 0.0, y, tol=tol)


def beta_integrals(
    c: DerivedConstants, y: float, lam: complex, tol: float = 1e-11
) -> tuple[complex, complex]:
    """The abelian-factor integrals (beta1(y), beta2(y)).

    The integrands are 2T-periodic, so beta_j(y + 2mT) = beta_j(y)
    + m beta_j(2T) reduces every argument to [0, 2T); the full-period values
    are cached per (constants, lambda).  Raises SingularLocusError when the
    common denominator vanishes on the path.
    """
    lam = complex(lam)
    period = 2.0 * c.T
    m = int(np.floor(y / period))
    rem = y - m * period
    b1, b2 = _beta_segment(c, rem, lam, tol)
    if m != 0:
        f1, f2 = _beta_full_period(c, lam, tol)
        b1 += m * f1
        b2 += m * f2
    return b1, b2


def iwasawa_factors(c: DerivedConstants, y: float, lam: complex, tol: float = 1e-11) -> IwasawaFactors:
    """All pieces of the explicit factorization at (y, lambda)."""
    q0, qt = q_factor(c, y, lam)
    b1, b2 = beta_integrals(c, y, lam, tol=tol)
    return IwasawaFactors(
        y=y, lam=lam, Q0=q0, Qtilde=qt, beta1=b1, beta2=b2, L0=commutant_matrix(c, lam)
    )


def extended_frame(
    c: DerivedConstants,
    z: complex,
    lam: complex,
    route: str = "eigenbasis",
    tol: float = 1e-11,
) -> FrameSample:
    """The extended frame F(z, lambda) in SU(3), F(0, lambda) = I.

    route="eigenbasis" (default) reconstructs the frame from the closed-form
    horizontal lift and its analytic derivatives; it is defined wherever the
    lift is (everything except the hyperplane-degenerate lambda).
    route="iwasawa" evaluates exp((z - beta1) D - beta2 L0) Q^{-1} directly
    and fails on the singular locus of the factorization.
    """
    lam = _check_unit(lam)
    z = complex(z)
    if route == "eigenbasis":
        from . import immersion  # deferred: immersion depends on this module

        return immersion.frame_from_lift(c, z, lam)
    if route != "iwasawa":
        raise ValueError(f"unknown route {route!r}")

    es = eigensystem(c, lam)
    b1, b2 = beta_integrals(c, z.imag, lam, tol=tol)
    q0, qt = q_factor(c, z.imag, lam)
    return FrameSample(z=z, lam=lam, matrix=_exp_d_l0(c, es, z - b1, -b2) @ np.linalg.inv(q0 @ qt))


def u_plus(
    c: DerivedConstants,
    y: float,
    lam: complex,
    tol: float = 1e-11,
    _wrong_normalizer: bool = False,
) -> np.ndarray:
    """Positive Iwasawa factor U_+(y, lambda) = Q exp(beta1 D + beta2 L0), |lambda| = 1.

    Satisfies U_+ D U_+^{-1} = Omega and dU_+/dy U_+^{-1} = 2i(lam V_1 + V_0)
    on the admissible set.  (_wrong_normalizer is passed on to q_factor as
    the negative control of verification.)
    """
    lam = _check_unit(lam)
    es = eigensystem(c, lam)
    b1, b2 = beta_integrals(c, y, lam, tol=tol)
    q0, qt = q_factor(c, y, lam, _wrong_normalizer)
    return q0 @ qt @ _exp_d_l0(c, es, b1, b2)


def _l0_spectrum(c: DerivedConstants, d: np.ndarray) -> np.ndarray:
    """Eigenvalues -d_j^2 + 2 beta / 3 of L0 on the eigenvectors l_j of D."""
    return -d**2 + 2.0 * c.beta / 3.0


def _exp_d_l0(c: DerivedConstants, es: EigenSystem, s: complex, t: complex) -> np.ndarray:
    """exp(s D + t L0), diagonal in the eigenbasis l_j of D(lambda)."""
    exps = np.exp(s * 1j * es.d + t * _l0_spectrum(c, es.d))
    basis = es.vectors.T  # columns are l_j
    return (basis * exps) @ dagger(basis)


def monodromy_data(c: DerivedConstants, lam: complex, tol: float = 1e-11) -> tuple[float, float]:
    """(Re beta1(2T), Im beta2(2T)), the only period data entering monodromy."""
    b1, b2 = _beta_full_period(c, complex(lam), tol)
    return float(b1.real), float(b2.imag)


def full_period_phases(c: DerivedConstants, es: EigenSystem, tol: float = 1e-11) -> np.ndarray:
    """Lift phases G_j(2T) in eigensystem order, from the monodromy data.

    G_j(2T) = -(Re beta1(2T) d_j + Im beta2(2T) (-d_j^2 + 2 beta / 3)), the
    cancellation identity between the monodromy and the lift phases.  The
    package takes G_j(2T) from the lift's closed form; this quadrature route
    is the independent side of suite `identities` and of the tests.
    """
    re_b1, im_b2 = monodromy_data(c, es.lam, tol)
    return -(re_b1 * es.d + im_b2 * _l0_spectrum(c, es.d))
