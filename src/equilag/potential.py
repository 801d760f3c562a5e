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
With Re + i Im = lambda^-3 psi, g_j = d_j a1 - Re and f'_j = prod_{i != j}
(d_j - d_i), l_j is the third adjugate column of D - i d_j, scaled by the
eigenvector-eigenvalue identity (Denton, Parke, Tao and Zhang, Bull. AMS 59
(2022)) t_j^2 = |l_j[2]|^2 = (d_j^2 - |b|^2) / f'_j:

    l_j = ((g_j + i Im) / lam, lam (g_j - i Im), sqrt(a1) f'_j t_j^2)
          / (sqrt(a1) f'_j t_j),   a1^2 f'_j t_j^2 = g_j (g_j + 2 Re) - Im^2.

eigensystem decides every per-lambda fact once: it refuses the at most six
hyperplane lambda (Re = 0) before any root is solved, and its EigenSystem
carries the regime ("nonreal" or "real"), f'_j and the real-regime labels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import elliptic, linalg3


class Refusal(ValueError):
    """Base of every refusal in the package: an input declined where it is decided."""


class SurfaceClassError(Refusal):
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


@dataclass(frozen=True)
class SurfaceParams:
    """Generating scalars of the family: a1 = e^{u(0)} > 0 and psi != 0."""

    a1: float
    psi: complex

    def __post_init__(self):
        if not (self.a1 > 0.0 and math.isfinite(self.a1)):
            raise ValueError(f"a1 must be positive and finite, got {self.a1}")


@dataclass(frozen=True, eq=False)
class DerivedConstants:
    """Everything computable from SurfaceParams for a generic surface.

    a1, a2, -a3 are the roots of w^3 - (beta/2) w^2 + |psi|^2/2 with
    a1 > a2 > a3 > 0; k2 = k^2 = (a1-a2)/(a1+a3) and kp2 = k'^2 =
    (a2+a3)/(a1+a3), the latter free of the cancellation in 1 - k^2;
    q2 = q^2 = (a1-a2)/a1; r = sqrt(2(a1+a3)); T = K(k)/r is the half
    period of e^u.  Hashed by identity, like EigenSystem: a memo keyed
    on (c, es) holds two identities and no floats.
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


# relative tolerance of the flat test and of _spectral_point, the one regime decision
CLASS_TOL = 1e-9


def _spectral_point(psi: complex, lam: complex) -> tuple[complex, complex, str]:
    """(lambda / |lambda|, lambda^-3 psi there, its regime "nonreal", "real" or "imaginary").

    ValueError unless ||lambda| - 1| <= 1e-8 (`_check_unit`); `regime_of`
    and `eigensystem` both decide here.
    """
    lam = _check_unit(lam)
    cubic, tol = psi / lam**3, CLASS_TOL * abs(psi)
    regime = "real" if abs(cubic.imag) < tol else "imaginary" if abs(cubic.real) < tol else "nonreal"
    return lam, cubic, regime


def regime_of(c: DerivedConstants, lam: complex) -> str:
    """One of "nonreal", "real", "imaginary" for the cubic form lambda^-3 psi, |lambda| = 1."""
    return _spectral_point(c.psi, lam)[2]


def classify(params: SurfaceParams) -> SurfaceClass:
    """Classify the surface: TotallyGeodesic (psi = 0), FlatClifford (a1 = |psi|^(2/3)) or Generic.

    Neither degenerate class depends on lambda.  The at most six unit lambda
    with Re(lambda^-3 psi) = 0, where the canonical lift degenerates to a
    hyperplane, are a per-lambda fact: `regime_of` calls them "imaginary"
    and `eigensystem` refuses them with HyperplaneDegenerateError.
    """
    apsi = abs(params.psi)
    if apsi == 0.0:
        return SurfaceClass.TOTALLY_GEODESIC
    if abs(params.a1 - apsi ** (2.0 / 3.0)) < CLASS_TOL * params.a1:
        return SurfaceClass.FLAT_CLIFFORD
    return SurfaceClass.GENERIC


def derive_constants(params: SurfaceParams) -> DerivedConstants:
    """Derived constants of a generic surface; rejects degenerate input.

    Raises TotallyGeodesicError for psi = 0, FlatCliffordError at the Clifford
    point, and ValueError when a1 is below |psi|^(2/3) (the origin convention
    requires e^{u(0)} to be the maximum of the conformal factor; the surface
    with e^{u(0)} at the minimum is the same one reparametrized).  Refuses
    (Refusal) a beta out of float range and k'^2 = 1 - k^2 below 2^-26, as
    k = sqrt(k^2) then rounds away more than half the digits of k'.
    """
    tag = classify(params)
    if tag is SurfaceClass.TOTALLY_GEODESIC:
        raise TotallyGeodesicError("psi = 0 generates the totally geodesic RP^2")
    if tag is SurfaceClass.FLAT_CLIFFORD:
        raise FlatCliffordError("a1 = |psi|^(2/3) is the flat Clifford torus")
    a1 = params.a1
    psi = complex(params.psi)
    if a1 < abs(psi) ** (2.0 / 3.0):
        raise ValueError("a1 must be the maximum of the conformal factor: a1 > |psi|^(2/3)")
    try:
        beta = 2.0 * a1 + abs(psi) ** 2 / a1**2
    except ArithmeticError as exc:  # a1^2 or |psi|^2 overflows, or a1^2 underflows to 0
        raise Refusal(f"beta out of float range: {type(exc).__name__}") from exc
    s = abs(psi) ** 2 / (2.0 * a1**2)  # = beta / 2 - a1, which cancels as a1 grows
    root = math.sqrt(s * s + 4.0 * a1 * s)
    a2 = (s + root) / 2.0
    a3 = (-s + root) / 2.0
    if (kp2 := (a2 + a3) / (a1 + a3)) < 2.0**-26:
        raise Refusal(
            f"modulus too close to 1: k'^2 = {kp2:.3g} would keep under half its digits in k")
    k2 = (a1 - a2) / (a1 + a3)
    q2 = (a1 - a2) / a1
    r = math.sqrt(2.0 * (a1 + a3))
    k = math.sqrt(k2)
    T = elliptic.complete_K(k) / r
    a = 1j * math.sqrt(a1)
    b = -1j * psi / a1
    return DerivedConstants(a1, psi, beta, a2, a3, k, q2, r, T, a, b, k2, kp2)


def nonzero_lambda(lam: complex | np.ndarray) -> complex | np.ndarray:
    """lambda as a Python complex, or an array of them as a complex array; ValueError at 0."""
    if isinstance(lam, np.ndarray):
        lam = lam.astype(complex, copy=False)
        zero = (lam == 0).any()
    else:
        lam = complex(lam)
        zero = lam == 0
    if zero:
        raise ValueError("lambda must be nonzero")
    return lam


def potential_matrix(c: DerivedConstants, lam: complex | np.ndarray) -> np.ndarray:
    """The constant potential D(lambda), lambda in C^* (unit circle for su(3)).

    lambda may be an array of them: the result is then the stack (..., 3, 3).
    """
    lam = nonzero_lambda(lam)
    a, b = c.a, c.b
    return linalg3.stack3(
        [
            [0, -lam * np.conj(b), a / lam],
            [b / lam, 0, -lam * np.conj(a)],
            [-lam * np.conj(a), a / lam, 0],
        ],
        lam,
    )


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """The spectral object of one (surface, lambda), |lambda| = 1, taken by every point evaluator.

    It exists only off the hyperplane: `eigensystem` refuses the lambda where
    Re(lambda^-3 psi) = 0.  lam is the unit lambda, cubic = lambda^-3 psi,
    regime its regime ("nonreal" or "real"); i*d_j are the eigenvalues, d
    descending (sum 0, pair sums -beta, product -2 Re(cubic)), vectors[j]
    the orthonormal l_j with l_j[2] (against e_3 = Q^{-1}(0) e_3) real and
    nonnegative, or, below 1e-9 (the real regime's sn mode), its component
    along lambda e_2 - lambda^-1 e_1 real-positive, gaps[j] = (d_j a1 -
    Re, d_j a2 - Re, d_j a3 + Re) and fprime[j] = f'(d_j) = prod_{i != j}
    (d_j - d_i).
    In the real regime labels holds the indices in d of psi0/a1, psi0/a2
    and -psi0/a3 (the sn, cn, dn modes), None otherwise.  Hashed by
    identity: memos are per object.

    `stack_systems` builds a stack of m such objects of one regime: the
    same fields with a leading axis (lam and cubic (m,), d and fprime
    (m, 3), vectors (m, 3, 3), gaps (m, 3, 3), labels (m, 3) or None).
    A float y takes the `math` path, an array y the array path, and a
    stack is an array y of one point per row, on the same array lines.
    """

    lam: complex
    cubic: complex
    regime: str
    d: np.ndarray
    vectors: np.ndarray  # shape (3, 3); vectors[j] is l_j
    gaps: tuple[tuple[float, float, float], ...]
    fprime: tuple[float, float, float]
    labels: tuple[int, int, int] | None


def _check_unit(lam: complex) -> complex:
    """lambda / |lambda| for ||lambda| - 1| <= 1e-8; a lambda of modulus 1.0 keeps its bits."""
    lam = complex(lam)
    r = abs(lam)
    if not abs(r - 1.0) <= 1e-8:  # written so that NaN fails it too
        raise ValueError(f"|lambda| = 1 required, got |lambda| = {r!r}")
    return lam if r == 1.0 else complex(lam.real / r, lam.imag / r)


def _near_root(c: DerivedConstants, d: list[float], re0: float, ai: float) -> tuple[int, float]:
    """The root d_j nearest e = Re / a_i, as (j, a_i^2 (d_j^2 + d_j e + e^2 - beta)).

    f(d) = d^3 - beta d + 2 Re has f(e) = -Re Im^2 / a_i^3 for each root a_i
    of the metric cubic (a1, a2 or -a3), so d_j a_i - Re = Re Im^2 / (the
    second value), free of the cancellation as d_j tends to e.
    """
    e = re0 / ai
    dist = [abs(dj - e) for dj in d]
    j = dist.index(min(dist))
    return j, ai * ai * (d[j] ** 2 + d[j] * e + e * e - c.beta)


def _gaps(c: DerivedConstants, d: list[float], re0: float, im0: float):
    """((d_j a1 - Re, d_j a2 - Re, d_j a3 + Re) per d_j, `_near_root` at a1).

    The root nearest each zero of a gap takes that gap in `_near_root`'s
    form; the third is d_j a_i - Re at a_i = -a3, negated.
    """
    gaps = [[dj * c.a1 - re0, dj * c.a2 - re0, dj * c.a3 + re0] for dj in d]
    near = [_near_root(c, d, re0, ai) for ai in (c.a1, c.a2, -c.a3)]
    for i, (j, den) in enumerate(near):
        gaps[j][i] = (-re0 if i == 2 else re0) * im0**2 / den
    return tuple(map(tuple, gaps)), near[0]


def eigensystem(c: DerivedConstants, lam: complex) -> EigenSystem:
    """Eigenvalues i*d_j and orthonormal eigenvectors l_j of D(lambda), |lambda|=1.

    d_j are the descending roots of d^3 - beta d + 2 Re(lambda^-3 psi), and
    l_j the closed form of the module docstring.  Only the root nearest
    e = Re / a1 has a small t_j, at the real locus: there g_j = rho Im^2,
    rho = Re / (a1^2 (d_j^2 + d_j e + e^2 - beta)), and t_j = tau |Im|,
    a1^2 f'_j tau^2 = rho (g_j + 2 Re) - 1; below t_j = 1e-9 the y-derivative
    anchor takes over, l_j = ((i rho Im - 1) / lam, lam (i rho Im + 1),
    i sgn(f'_j) sqrt(a1) |f'_j| tau^2 Im) / (sqrt(a1) |f'_j| tau), which is
    (-conj(lam), lam, 0) / sqrt(2) on the locus.  The one place where lambda
    is checked (ValueError unless |lambda| = 1) and normalised, lambda^-3 psi
    formed and the regime decided: HyperplaneDegenerateError where it is
    "imaginary", before any root is solved.
    """
    lam, cubic, regime = _spectral_point(c.psi, lam)
    if regime == "imaginary":
        raise HyperplaneDegenerateError(
            "lambda^-3 psi is purely imaginary: surface degenerates to a hyperplane")
    re0, im0 = cubic.real, cubic.imag
    roots, multiple = linalg3.solve_depressed_cubic(-c.beta, 2.0 * re0)
    if multiple:
        raise FlatCliffordError("multiple eigenvalues of D: flat configuration")
    d = roots.tolist()
    gaps, (near, den) = _gaps(c, d, re0, im0)
    sqrt_a1, a1sq, lamc = math.sqrt(c.a1), c.a1 * c.a1, lam.conjugate()
    vectors, fprime = [], []
    for j, (dj, (g, *_)) in enumerate(zip(d, gaps)):
        fp = (dj - d[j - 1]) * (dj - d[j - 2])
        fprime.append(fp)
        if j != near:
            t = math.sqrt((g * (g + 2.0 * re0) - im0 * im0) / (a1sq * fp))
        else:
            rho = re0 / den
            tau = math.sqrt((rho * (g + 2.0 * re0) - 1.0) / (a1sq * fp))
            t = tau * abs(im0)
            if t < 1e-9:
                n = sqrt_a1 * abs(fp) * tau
                vectors.append((complex(-1.0, rho * im0) * lamc / n, lam * complex(1.0, rho * im0) / n,
                                complex(0.0, math.copysign(tau, fp) * im0)))
                continue
        n = sqrt_a1 * fp * t
        vectors.append((complex(g, im0) * lamc / n, lam * complex(g, -im0) / n, t))
    # psi0/a1 is the middle root; the sign of psi0 orders psi0/a2 and -psi0/a3
    labels = ((1, 0, 2) if re0 > 0.0 else (1, 2, 0)) if regime == "real" else None
    return EigenSystem(lam=lam, cubic=cubic, regime=regime, d=roots,
                       vectors=np.array(vectors, dtype=complex), gaps=gaps,
                       fprime=tuple(fprime), labels=labels)


def stack_systems(systems) -> EigenSystem:
    """The stack of these spectral objects, one row each (EigenSystem); one regime only.

    Each row keeps its object's bits.  A stack of mixed regimes, or of none,
    is refused with ValueError.
    """
    regimes = {es.regime for es in systems}
    if len(regimes) != 1:
        raise ValueError(f"a stack holds one regime, got {sorted(regimes)}")

    def rows(name):
        return np.array([getattr(es, name) for es in systems])

    regime = regimes.pop()
    return EigenSystem(lam=rows("lam"), cubic=rows("cubic"), regime=regime, d=rows("d"),
                       vectors=rows("vectors"), gaps=rows("gaps"), fprime=rows("fprime"),
                       labels=rows("labels") if regime == "real" else None)
