"""Monodromy phases, rationality certificates, cylinder/torus classification.

A translation z -> z + omega with omega = p + 2mTi preserves the metric and
acts on the extended frame by the monodromy matrix

    M(lambda) = exp(p D - m Re(beta1(2T)) D - i m Im(beta2(2T)) L0),

whose eigenvalues are exp(i theta_j) with

    theta_j = p d_j - m [Re(beta1) d_j + Im(beta2) (-d_j^2 + 2 beta / 3)]
            = p d_j + m G_j(2T),

the second equality being the exact cancellation identity between the
monodromy data and the lift phases (suite `identities` checks it).  One
formula serves both regimes: theta_j = p d_j + m G_j(2T), with the lift's
full-period phases G_j(2T) (immersion._g_full_period), computed once per
spectral object es = potential.eigensystem(c, lambda).  In the non-real
regime G_j(2T) = 2 d_j Im Pi(n_j) / (r (d_j a1 - Re)), by the complete
integral of the third kind.  In the real-cubic-form regime the beta
integrals diverge, but sn and cn are antiperiodic over 2T, so G_j(2T) is
pi on the sn and cn modes and 0 on the dn mode.  The surface closes up
under omega iff theta_1, theta_2 are multiples of 2 pi (theta_3 follows
since all three sum to zero).
Rationality of d-ratios and of the 2T phase data is certified under an
explicit (max_denominator, tolerance) policy: the fraction nearest the
value with denominator <= max_denominator (`Fraction.limit_denominator`),
accepted when it is within the tolerance (finite and >= 0, else ValueError).

monodromy_phases takes es and returns the theta_j as a float array in
eigensystem order; classify_cylinder and classify_torus take lambda and
build es once, which refuses a hyperplane-degenerate lambda.
classify_torus takes one route in both regimes: it certifies d_2/d_1 (the
"d_ratio" certificate) and then the 2T phase data, builds the lattice from
them and checks its generator's phases.  The real regime's lattices
p_f Z + 4Ti Z and p_f Z + (p_f/2 + 2Ti) Z come out of that route,
phase-checked like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import immersion
from .potential import DerivedConstants, EigenSystem, eigensystem

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RationalCertificate:
    """A certified rational approximation num/den of value."""

    value: float
    num: int
    den: int
    residual: float


@dataclass
class PeriodVerdict:
    tag: str  # "Torus" | "Cylinder" | "NoPeriodFound"
    lam: complex
    omega: complex | None = None
    lattice: tuple[complex, complex] | None = None
    certificates: dict[str, RationalCertificate] = field(default_factory=dict)


def _check_tols(**tols: float) -> None:
    """ValueError unless each tolerance is finite and >= 0: a NaN would pass `residual > tol`."""
    for name, tol in tols.items():
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {tol}")


def rational_approx(x: float, max_den: int, tol: float) -> RationalCertificate | None:
    """The fraction nearest x with denominator <= max_den, `Fraction.limit_denominator`.

    Returns None when it misses x by more than tol.  Increasing max_den
    never loses a certificate (the nearest fraction only comes nearer).
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    _check_tols(tol=tol)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    frac = Fraction(x).limit_denominator(max_den)
    num, den = frac.numerator, frac.denominator
    residual = abs(x - num / den)
    if residual > tol:
        return None
    return RationalCertificate(value=x, num=num, den=den, residual=residual)


def monodromy_phases(c: DerivedConstants, es: EigenSystem, p: float, m: int) -> np.ndarray:
    """Eigenvalue phases theta_j of the monodromy of z -> z + p + 2mTi at es.

    A float array of shape (3,) in eigensystem order: p d_j + m G_j(2T),
    with the lift's G_j(2T) in either regime (immersion._g_full_period).
    """
    if m == 0:
        return p * es.d
    return p * es.d + m * np.array(immersion._g_full_period(c, es))


def _phase_defect(theta: float) -> float:
    """Distance of theta from the nearest multiple of 2 pi."""
    return abs(theta - TWO_PI * round(theta / TWO_PI))


def classify_cylinder(
    c: DerivedConstants,
    lam: complex,
    omega: complex,
    phase_tol: float = 1e-8,
) -> PeriodVerdict:
    """Is omega = p + 2mTi a period of the immersion at lambda?

    The imaginary part must be an integer multiple of 2T (any period
    preserves the metric).  Cylinder iff theta_1 and theta_2 are multiples
    of 2 pi within phase_tol; the third phase is implied and checked.
    """
    _check_tols(phase_tol=phase_tol)
    es = eigensystem(c, lam)
    omega = complex(omega)
    period = 2.0 * c.T
    m_real = omega.imag / period
    m = round(m_real)
    if abs(m_real - m) > 1e-9 * max(1.0, abs(m_real)):
        raise ValueError(
            f"Im(omega) = {omega.imag!r} is not an integer multiple of 2T = {period!r}"
        )
    theta = monodromy_phases(c, es, omega.real, m)
    defects = [_phase_defect(t) for t in theta]
    if defects[0] <= phase_tol and defects[1] <= phase_tol:
        if defects[2] > 10.0 * phase_tol:
            raise ArithmeticError(
                "third monodromy phase inconsistent with the trace constraint"
            )
        return PeriodVerdict(tag="Cylinder", lam=es.lam, omega=omega)
    return PeriodVerdict(tag="NoPeriodFound", lam=es.lam, omega=omega)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def classify_torus(
    c: DerivedConstants,
    lam: complex,
    max_den: int = 64,
    tol: float = 1e-8,
    phase_tol: float = 1e-8,
) -> PeriodVerdict:
    """Torus / cylinder / no-period classification at lambda, one route in both regimes.

    Torus needs two certificates: "d_ratio", d_2/d_1 = n2/n1 rational
    (the smallest real period is p_f = 2 pi n1 / d_1), and "phase", the 2T
    phase data s = (n2 G_1(2T) - n1 G_2(2T)) / 2 pi rational (a non-real
    period exists).  The lattice returned is the normal form (p_f, omega_f)
    with omega_f the period of smallest positive height, its real part in
    [0, p_f); omega_f must pass the phase check, else ArithmeticError.  In
    the real regime this gives p_f Z + 4Ti Z or p_f Z + (p_f/2 + 2Ti) Z.
    """
    _check_tols(tol=tol, phase_tol=phase_tol)
    es = eigensystem(c, lam)
    certs: dict[str, RationalCertificate] = {}

    cert = rational_approx(float(es.d[1] / es.d[0]), max_den, tol)
    if cert is None:
        return PeriodVerdict(tag="NoPeriodFound", lam=es.lam)
    certs["d_ratio"] = cert
    n1, n2 = cert.den, cert.num  # d1/d2 = n1/n2, gcd 1, n1 > 0
    p_f = TWO_PI * n1 / float(es.d[0])

    g = immersion._g_full_period(c, es)
    s = (n2 * g[0] - n1 * g[1]) / TWO_PI
    cert_s = rational_approx(float(s), max_den, tol)
    if cert_s is None:
        return PeriodVerdict(tag="Cylinder", lam=es.lam, omega=complex(p_f), certificates=certs)
    certs["phase"] = cert_s

    m_f, u = cert_s.den, cert_s.num
    _, alpha, beta_c = _egcd(n2, n1)  # alpha n2 + beta_c n1 = 1
    l1 = alpha * u
    p0 = (TWO_PI * l1 - m_f * g[0]) / float(es.d[0])
    # p0 mod p_f, in [0, p_f): floor alone can leave a remainder one rounding
    # below p_f, so a remainder within rounding of 0 or of p_f becomes 0
    rem = p0 - p_f * math.floor(p0 / p_f)
    p0 = 0.0 if min(rem, p_f - rem) <= 8.0 * math.ulp(max(abs(p0), p_f)) else rem
    omega_f = p0 + 2.0 * m_f * c.T * 1j
    if max(_phase_defect(t) for t in monodromy_phases(c, es, p0, m_f)) > 10.0 * phase_tol:
        raise ArithmeticError("constructed lattice generator fails the phase check")
    return PeriodVerdict(tag="Torus", lam=es.lam, lattice=(complex(p_f), omega_f), certificates=certs)
