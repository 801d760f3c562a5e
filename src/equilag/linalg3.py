"""Complex 3x3 linear algebra for the su(3) loop-group machinery.

Provides the Hermitian inner product, the order-6 outer automorphism sigma,
a trigonometric depressed-cubic solver, and closed-form eigendecomposition /
exponentials of 3x3 skew-Hermitian matrices.

Vectors are numpy arrays of shape (3,), matrices of shape (3, 3), complex
dtype, plain value semantics.  Everything here is pure and re-entrant.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# sixth root of unity grading the twisted loop algebra
EPS6: complex = cmath.exp(1j * math.pi / 3)

_ALPHA = cmath.exp(2j * math.pi / 3)
# conjugating matrix of sigma; note P is an involution (P @ P = I)
P_SIGMA = np.array([[0, _ALPHA, 0], [_ALPHA**2, 0, 0], [0, 0, 1]], dtype=complex)

_I3 = np.eye(3, dtype=complex)


def herm_inner(z: np.ndarray, w: np.ndarray) -> complex:
    """Hermitian inner product sum_k z_k * conj(w_k) (linear in z)."""
    return complex(np.dot(z, np.conj(w)))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m).T


def unitary_residual(m: np.ndarray) -> float:
    """Frobenius distance of m^dagger m from the identity."""
    return float(np.linalg.norm(dagger(m) @ m - _I3))


def sigma_group(m: np.ndarray) -> np.ndarray:
    """Order-6 automorphism g -> P (g^t)^{-1} P^{-1} of SL(3, C)."""
    d = np.linalg.det(m)
    if abs(d) < 1e-300:
        raise ValueError("sigma_group requires an invertible matrix")
    return P_SIGMA @ np.linalg.inv(m.T) @ P_SIGMA


def sigma_algebra(x: np.ndarray) -> np.ndarray:
    """Derivative of sigma_group at the identity: xi -> -P xi^t P^{-1}."""
    return -(P_SIGMA @ x.T @ P_SIGMA)


def solve_depressed_cubic(p: float, q: float) -> tuple[np.ndarray, bool]:
    """Real roots of t^3 + p t + q = 0, sorted descending.

    Returns (roots, multiple).  When the discriminant -4p^3 - 27q^2 is
    positive the three distinct real roots come from the trigonometric
    (Viete) form; otherwise `multiple` is set and the roots carry
    multiplicity (for p > 0 only the single real root exists and is
    replicated).  Roots are Newton-polished and re-centered so they sum
    to zero, and a root below 1e-3 of the largest is taken from the
    product of the roots, -q, to keep its relative accuracy.
    """
    disc = -4.0 * p**3 - 27.0 * q * q
    scale = max(1.0, abs(p), abs(q))
    multiple = disc <= 1e-12 * scale**3

    if p == 0.0 and q == 0.0:
        return np.zeros(3), True
    single = False
    if p < 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        c3 = max(-1.0, min(1.0, -4.0 * q / m**3))
        phi = math.acos(c3) / 3.0
        roots = np.array(
            [m * math.cos(phi - 2.0 * math.pi * j / 3.0) for j in range(3)]
        )
    else:
        # single real root (Cardano); replicate so the shape is stable
        s = math.sqrt(q * q / 4.0 + p**3 / 27.0)
        t = math.copysign(abs(-q / 2.0 + s) ** (1.0 / 3.0), -q / 2.0 + s)
        t += math.copysign(abs(-q / 2.0 - s) ** (1.0 / 3.0), -q / 2.0 - s)
        roots = np.array([t, t, t])
        multiple = True
        single = True

    for _ in range(2):  # Newton polish
        f = roots**3 + p * roots + q
        df = 3.0 * roots**2 + p
        safe = np.abs(df) > 1e-300
        roots = np.where(safe, roots - f / np.where(safe, df, 1.0), roots)
    roots = np.sort(roots)[::-1]
    if not single:  # the three real roots of a depressed cubic sum to zero
        roots = roots - roots.sum() / 3.0
        # re-centring leaves an ulp of the largest root as absolute error: a
        # far smaller root comes from -q / (product of the others) instead
        j = int(np.argmin(np.abs(roots)))
        if abs(roots[j]) < 1e-3 * np.max(np.abs(roots)):
            roots[j] = -q / np.prod(np.delete(roots, j))
    return roots, multiple


def _kernel_vector(a: np.ndarray) -> np.ndarray | None:
    """Unit kernel vector of a rank-2 matrix via row cross products."""
    best, best_norm = None, 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        v = np.cross(a[i], a[j])
        nv = float(np.linalg.norm(v))
        if nv > best_norm:
            best, best_norm = v, nv
    if best is None or best_norm < 1e-12 * max(1.0, float(np.linalg.norm(a))):
        return None
    return best / best_norm


def _complete_pair(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the orthogonal complement of unit vector v."""
    k = int(np.argmin(np.abs(v)))
    u = np.zeros(3, dtype=complex)
    u[k] = 1.0
    u = u - herm_inner(u, v) * v
    u /= np.linalg.norm(u)
    w = np.cross(np.conj(v), np.conj(u))  # orthogonal to both under herm_inner
    w /= np.linalg.norm(w)
    return u, w


def eig_skew_hermitian(d: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a skew-Hermitian 3x3 matrix d.

    Returns (dvals, basis) with d @ basis[:, j] = 1j * dvals[j] * basis[:, j],
    dvals real and sorted descending, basis unitary.  Goes through the
    characteristic cubic of the Hermitian matrix -1j*d plus explicit kernel
    vectors rather than an iterative solver.
    """
    d = np.asarray(d, dtype=complex)
    skew = float(np.linalg.norm(d + dagger(d)))
    if skew > tol * (1.0 + float(np.linalg.norm(d))):
        raise ValueError(f"matrix is not skew-Hermitian (residual {skew:.3e})")
    h = (-1j * d + dagger(-1j * d)) / 2.0  # exact Hermitian part

    shift = float(np.trace(h).real) / 3.0
    h0 = h - shift * _I3
    p = -float(np.real(np.trace(h0 @ h0))) / 2.0
    q = -float(np.real(np.linalg.det(h0)))
    roots, _ = solve_depressed_cubic(p, q)
    dvals = roots + shift

    scale = max(1.0, float(np.max(np.abs(dvals))))
    gap12 = dvals[0] - dvals[1]
    gap23 = dvals[1] - dvals[2]
    degenerate = 1e-10 * scale

    if gap12 < degenerate and gap23 < degenerate:
        return dvals, _I3.copy()

    cols: list[np.ndarray] = [np.zeros(3, dtype=complex)] * 3
    if gap12 < degenerate or gap23 < degenerate:
        iso = 2 if gap12 < degenerate else 0
        v = _kernel_vector(h - dvals[iso] * _I3)
        if v is None:
            return dvals, _I3.copy()
        u, w = _complete_pair(v)
        cols[iso] = v
        other = [j for j in range(3) if j != iso]
        cols[other[0]], cols[other[1]] = u, w
    else:
        for j in range(3):
            v = _kernel_vector(h - dvals[j] * _I3)
            if v is None:  # should not happen for distinct eigenvalues
                raise ArithmeticError("failed to extract eigenvector of 3x3 matrix")
            cols[j] = v
        # Gram-Schmidt polish; vectors are orthogonal in exact arithmetic
        for j in range(1, 3):
            for i in range(j):
                cols[j] = cols[j] - herm_inner(cols[j], cols[i]) * cols[i]
            cols[j] /= np.linalg.norm(cols[j])
    return dvals, np.stack(cols, axis=1)


def matexp_skew(d: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t*d) for skew-Hermitian d, via the closed-form eigensystem.

    The result is unitary with unit-modulus determinant and satisfies the
    one-parameter group law exp((s+t)d) = exp(sd) exp(td).
    """
    dvals, basis = eig_skew_hermitian(d)
    phases = np.exp(1j * t * dvals)
    return (basis * phases) @ dagger(basis)
