"""Degree-one potential of a translationally equivariant surface.

A surface of the family is generated by two scalars: a1 = e^{u(0)} > 0, the
conformal factor at the origin (chosen where u' vanishes and where e^u is
maximal), and the constant cubic-form coefficient psi != 0.  Everything else
is derived: the first integral constant beta = 2 a1 + |psi|^2 / a1^2, the
remaining roots a2, -a3 of w^3 - (beta/2) w^2 + |psi|^2 / 2, the elliptic
modulus, and the constant loop-algebra matrix

    D(lambda) = [[0,          -lam*conj(b), a/lam],
                 [b/lam,       0,           -lam*conj(a)],
                 [-lam*conj(a), a/lam,       0]],

with a = i e^{u(0)/2}, b = -i psi e^{-u(0)}.  For |lambda| = 1, D is
skew-Hermitian and trace free with characteristic polynomial
mu^3 + beta mu - 2i Re(lambda^{-3} psi); its eigenvalues i*d_j and
orthonormal eigenvectors l_j drive all closed-form evaluation routes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import elliptic, linalg3


class SurfaceClassError(ValueError):
    """Raised when a degenerate member of the family is rejected."""


class TotallyGeodesicError(SurfaceClassError):
    """psi = 0: the totally geodesic RP^2, outside this family's scope."""


class FlatCliffordError(SurfaceClassError):
    """a1 = |psi|^(2/3): the flat Clifford torus, has multiple eigenvalues."""


class HyperplaneDegenerateError(SurfaceClassError):
    """Re(lambda^-3 psi) = 0: a zero eigenvalue; the lift degenerates to a hyperplane."""


class SurfaceClass(enum.Enum):
    GENERIC = "Generic"
    FLAT_CLIFFORD = "FlatClifford"
    TOTALLY_GEODESIC = "TotallyGeodesic"
    HYPERPLANE_DEGENERATE_LAMBDA = "HyperplaneDegenerateLambda"


@dataclass(frozen=True)
class SurfaceParams:
    """Generating scalars of the family: a1 = e^{u(0)} > 0 and psi != 0."""

    a1: float
    psi: complex

    def __post_init__(self):
        if not (self.a1 > 0.0 and math.isfinite(self.a1)):
            raise ValueError(f"a1 must be positive and finite, got {self.a1}")


@dataclass(frozen=True)
class DerivedConstants:
    """Everything computable from SurfaceParams for a generic surface.

    a1, a2, -a3 are the roots of w^3 - (beta/2) w^2 + |psi|^2/2 with
    a1 > a2 > a3 > 0; k2 = k^2 = (a1-a2)/(a1+a3) and kp2 = k'^2 =
    (a2+a3)/(a1+a3), the latter free of the cancellation in 1 - k^2;
    q2 = q^2 = (a1-a2)/a1; r = sqrt(2(a1+a3)); T = K(k)/r is the half
    period of e^u.
    """

    a1: float
    psi: complex
    beta: float
    a2: float
    a3: float
    k: float
    q2: float
    r: float
    T: float
    a: complex
    b: complex
    k2: float
    kp2: float


# relative tolerance of the flat test and of _regime, the one hyperplane decision
CLASS_TOL = 1e-9


def _regime(psi: complex, cubic: complex) -> str:
    """One of "nonreal", "real", "imaginary" for the cubic form value lambda^-3 psi."""
    scale = abs(psi)
    if abs(cubic.imag) < CLASS_TOL * scale:
        return "real"
    if abs(cubic.real) < CLASS_TOL * scale:
        return "imaginary"
    return "nonreal"


def regime_of(c: DerivedConstants, lam: complex) -> str:
    """One of "nonreal", "real", "imaginary" for the cubic form lambda^-3 psi."""
    return _regime(c.psi, c.psi / complex(lam) ** 3)


def classify(params: SurfaceParams, lam: complex | None = None) -> SurfaceClass:
    """Classify the input, optionally at a spectral parameter lambda.

    TotallyGeodesic (psi = 0) and FlatClifford (a1 = |psi|^(2/3)) do not
    depend on lambda; HyperplaneDegenerateLambda flags the at most six unit
    lambda with Re(lambda^-3 psi) = 0 where the canonical lift degenerates.
    """
    apsi = abs(params.psi)
    if apsi == 0.0:
        return SurfaceClass.TOTALLY_GEODESIC
    if abs(params.a1 - apsi ** (2.0 / 3.0)) < CLASS_TOL * params.a1:
        return SurfaceClass.FLAT_CLIFFORD
    if lam is not None and _regime(params.psi, params.psi / lam**3) == "imaginary":
        return SurfaceClass.HYPERPLANE_DEGENERATE_LAMBDA
    return SurfaceClass.GENERIC


def derive_constants(params: SurfaceParams) -> DerivedConstants:
    """Derived constants of a generic surface; rejects degenerate input.

    Raises TotallyGeodesicError for psi = 0, FlatCliffordError at the Clifford
    point, and ValueError when a1 is below |psi|^(2/3) (the origin convention
    requires e^{u(0)} to be the maximum of the conformal factor; the surface
    with e^{u(0)} at the minimum is the same one reparametrized) or where
    k'^2 = 1 - k^2 falls below 2^-26, as k = sqrt(k^2) then rounds away
    more than half the digits of k'.
    """
    tag = classify(params)
    if tag is SurfaceClass.TOTALLY_GEODESIC:
        raise TotallyGeodesicError("psi = 0 generates the totally geodesic RP^2")
    if tag is SurfaceClass.FLAT_CLIFFORD:
        raise FlatCliffordError("a1 = |psi|^(2/3) is the flat Clifford torus")
    a1 = params.a1
    psi = complex(params.psi)
    if a1 < abs(psi) ** (2.0 / 3.0):
        raise ValueError(
            "a1 must be the maximum of the conformal factor: a1 > |psi|^(2/3)"
        )
    beta = 2.0 * a1 + abs(psi) ** 2 / a1**2
    s = abs(psi) ** 2 / (2.0 * a1**2)  # = beta / 2 - a1, which cancels as a1 grows
    root = math.sqrt(s * s + 4.0 * a1 * s)
    a2 = (s + root) / 2.0
    a3 = (-s + root) / 2.0
    if (kp2 := (a2 + a3) / (a1 + a3)) < 2.0**-26:
        raise ValueError(
            f"modulus too close to 1: k'^2 = {kp2:.3g} would keep under half its digits in k")
    k2 = (a1 - a2) / (a1 + a3)
    q2 = (a1 - a2) / a1
    r = math.sqrt(2.0 * (a1 + a3))
    k = math.sqrt(k2)
    T = elliptic.complete_K(k) / r
    a = 1j * math.sqrt(a1)
    b = -1j * psi / a1
    return DerivedConstants(a1, psi, beta, a2, a3, k, q2, r, T, a, b, k2, kp2)


def potential_matrix(c: DerivedConstants, lam: complex) -> np.ndarray:
    """The constant potential D(lambda), lambda in C^* (unit circle for su(3))."""
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    a, b = c.a, c.b
    return np.array(
        [
            [0, -lam * np.conj(b), a / lam],
            [b / lam, 0, -lam * np.conj(a)],
            [-lam * np.conj(a), a / lam, 0],
        ],
        dtype=complex,
    )


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """The spectral object of one (surface, lambda), |lambda| = 1, taken by every point evaluator.

    cubic = lambda^-3 psi, regime its regime ("nonreal", "real", "imaginary");
    i*d_j are the eigenvalues of D(lambda), d descending (sum 0, pair sums
    -beta, product -2 Re(cubic)), and vectors[j] the orthonormal l_j with
    its third component (against e_3 = Q^{-1}(0) e_3) real and nonnegative,
    else its largest one real-positive.  Hashed by identity, so the memos of
    immersion and iwasawa are per object, never keyed on the float lambda.
    """

    lam: complex
    cubic: complex
    regime: str
    d: np.ndarray
    vectors: np.ndarray  # shape (3, 3); vectors[j] is l_j


def _check_unit(lam: complex) -> complex:
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= 1e-8:  # written so that NaN fails it too
        raise ValueError(f"|lambda| = 1 required, got |lambda| = {abs(lam)!r}")
    return lam


def _fix_phase(v: np.ndarray, lam: complex) -> np.ndarray:
    """Positive-coefficient phase convention for an eigenvector.

    The third component (the expansion coefficient against e_3 at the
    origin) is made real and nonnegative.  When it vanishes -- the sn-mode
    of the real-cubic-form regime -- the coefficient seen first is the one
    in the y-derivative of the lift at the origin, which points along
    lam*e_2 - lam^{-1}*e_1; anchoring against that direction keeps the
    reconstructed frame equal to the identity at z = 0.
    """
    anchor = complex(v[2])
    if abs(anchor) < 1e-9:
        anchor = complex(-v[0] * lam + v[1] / lam)  # numpy's complex division, kept
    if abs(anchor) < 1e-9:
        anchor = complex(v[int(np.argmax(np.abs(v)))])
    # conj(anchor) / |anchor| as numpy divides by the complex (r + 0i):
    # rat = 0 / r and scl = 1 / r, the zero terms kept for their signs
    r = abs(anchor)
    re, im, scl = anchor.real, -anchor.imag, 1.0 / r
    return v * complex((re + im * 0.0) * scl, (im - re * 0.0) * scl)


def eigensystem(c: DerivedConstants, lam: complex) -> EigenSystem:
    """Eigenvalues i*d_j and orthonormal eigenvectors l_j of D(lambda), |lambda|=1.

    d_j are the descending roots of d^3 - beta d + 2 Re(lambda^-3 psi) = 0.
    Eigenvectors come from the closed form

        s_mu = (|a|^2 + mu^2, b mu / lam + lam^2 conj(a)^2,
                a b / lam^2 - lam conj(a) mu),     mu = i d_j,

    with a rank-2 cross-product fallback when s_mu degenerates.  The one place
    where lambda is checked (ValueError unless |lambda| = 1), lambda^-3 psi
    formed and the regime decided.
    """
    lam = _check_unit(lam)
    cubic = c.psi / lam**3
    q = 2.0 * cubic.real
    roots, multiple = linalg3.solve_depressed_cubic(-c.beta, q)
    if multiple:
        raise FlatCliffordError("multiple eigenvalues of D: flat configuration")
    a, b = c.a, c.b
    ac = a.conjugate()
    vectors = []
    for dj in roots.tolist():
        mu = 1j * dj
        s = np.array(
            [
                abs(a) ** 2 + mu**2,
                b * mu / lam + lam**2 * ac**2,
                a * b / lam**2 - lam * ac * mu,
            ],
            dtype=complex,
        )
        ns = linalg3._norm(s)
        if ns < 1e-10 * max(1.0, abs(a) ** 2):
            v = linalg3._kernel_vector(potential_matrix(c, lam) - mu * np.eye(3))
            if v is None:
                raise ArithmeticError("eigenvector extraction failed")
        else:
            v = s / ns
        vectors.append(_fix_phase(v, lam))
    vecs = np.array(vectors)
    # orthonormal by the spectral theorem; polish cross terms
    for j in range(1, 3):
        for i in range(j):
            vecs[j] = vecs[j] - linalg3.herm_inner(vecs[j], vecs[i]) * vecs[i]
        vecs[j] /= linalg3._norm(vecs[j])
        vecs[j] = _fix_phase(vecs[j], lam)
    return EigenSystem(lam=lam, cubic=cubic, regime=_regime(c.psi, cubic), d=roots, vectors=vecs)

