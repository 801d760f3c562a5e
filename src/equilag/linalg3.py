"""Complex 3x3 linear algebra for the su(3) loop-group machinery.

Provides the Hermitian inner product, the order-6 outer automorphism sigma,
the trigonometric depressed-cubic solver that potential.eigensystem builds
on (at one float q, or at an array of q in one pass, as the `potential`
suite's lambda sweep takes it), the exponential of a 3x3 skew-Hermitian
matrix from LAPACK's Hermitian eigensolver, the four helpers (`stack3`,
`per_vector`, `per_matrix`, `first_point`) that let one vector or matrix
formula take a single point or arrays of points, and the NaN-propagating
maximum (`worst`) of residuals over points.

Vectors are numpy arrays of shape (3,), matrices of shape (3, 3), complex
dtype, plain value semantics; a formula evaluated on arrays of points gives
a stack of shape (..., 3, 3).  Everything here is pure and re-entrant.
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


def stack3(rows, points=None) -> np.ndarray:
    """The complex matrix with these three rows of three entries.

    One 3x3 matrix when `points` is not an array; a stack of shape
    (*points.shape, 3, 3) when it is, each entry a scalar or an array that
    broadcasts to that shape.
    """
    if not isinstance(points, np.ndarray):
        return np.array(rows, dtype=complex)
    m = np.empty(points.shape + (3, 3), dtype=complex)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m[..., i, j] = v
    return m


def per_vector(s):
    """A per-point scalar s broadcast against (..., 3) rows: an array gains one unit axis."""
    return s[..., None] if isinstance(s, np.ndarray) else s


def per_matrix(s):
    """A per-point scalar s broadcast against a (..., 3, 3) stack: an array gains two unit axes."""
    return s[..., None, None] if isinstance(s, np.ndarray) else s


def combine(coeffs: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """sum_j coeffs[..., j] vectors[j]: rows (..., 3) of coefficients on three vectors (3, 3).

    A stack of vectors (m, 3, 3) takes the m rows of coeffs row for row.
    """
    if vectors.ndim == 2:
        return coeffs @ vectors
    return (coeffs[..., None, :] @ vectors)[..., 0, :]


def first_point(mask, *coords) -> tuple | None:
    """coords at the first point where mask holds, or None where it holds nowhere.

    mask is a bool at a single point or a boolean array over the points;
    each coordinate is a scalar or an array broadcasting to mask's shape.
    """
    if not isinstance(mask, np.ndarray):
        return coords if mask else None
    if not mask.any():
        return None
    i = int(mask.argmax())
    return tuple(np.broadcast_to(x, mask.shape).flat[i] for x in coords)


def worst(*residuals) -> float:
    """The largest of these residuals, each a float or an array, and NaN if any is NaN.

    Python's max() keeps its running value when the next one is NaN, so a
    NaN residual would pass its check.
    """
    values = [r if isinstance(r, float) else float(r.max()) for r in residuals]
    return math.nan if any(map(math.isnan, values)) else max(values)


def herm_inner(z: np.ndarray, w: np.ndarray) -> complex | np.ndarray:
    """Hermitian inner product sum_k z_k * conj(w_k) (linear in z) over the last axis.

    Vectors give a complex scalar, stacks of shape (..., 3) an array of
    shape (...).
    """
    return np.sum(z * np.conj(w), axis=-1)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of a matrix or of each matrix of a stack."""
    return np.swapaxes(np.conj(m), -1, -2)


def unitary_residual(m: np.ndarray) -> float | np.ndarray:
    """Frobenius distance of m^dagger m from the identity; one per matrix of a stack."""
    return np.linalg.norm(dagger(m) @ m - _I3, axis=(-2, -1))


def sigma_group(m: np.ndarray) -> np.ndarray:
    """Order-6 automorphism g -> P (g^t)^{-1} P^{-1} of SL(3, C), on a matrix or a stack."""
    d = np.linalg.det(m)
    if np.any(abs(d) < 1e-300):
        raise ValueError("sigma_group requires an invertible matrix")
    return P_SIGMA @ np.linalg.inv(np.swapaxes(m, -1, -2)) @ P_SIGMA


def sigma_algebra(x: np.ndarray) -> np.ndarray:
    """Derivative of sigma_group at the identity: xi -> -P xi^t P^{-1}, on a matrix or a stack."""
    return -(P_SIGMA @ np.swapaxes(x, -1, -2) @ P_SIGMA)


# (acos, cos, largest, smallest) of the cubic's float path and of its array path
_CUBIC_MATH = (math.acos, math.cos, max, min)
_CUBIC_NUMPY = (np.arccos, np.cos, np.maximum, np.minimum)


def solve_depressed_cubic(p: float, q: float | np.ndarray) -> tuple[np.ndarray, bool | np.ndarray]:
    """Real roots of t^3 + p t + q = 0 for p < 0, sorted descending.

    Returns (roots, multiple), `multiple` set unless the discriminant
    -4p^3 - 27q^2 is clearly positive.  The trigonometric (Viete) roots are
    Newton-polished and re-centered to sum to zero.  The middle root is
    the smallest in size, and where it is below 1e-3 of the others it is
    taken from the product of the roots, -q.  p >= 0, never met by
    the eigenvalue cubic d^3 - beta d + 2 Re, is refused with ValueError.
    q may be an array: the roots are then rows of shape (*q.shape, 3) and
    `multiple` a boolean array of q's shape, each row the float call's
    within an ulp of its largest root (numpy's cos and arccos in place of
    math's) and each flag the float call's.
    """
    if not p < 0.0:
        raise ValueError(f"p < 0 required, got p = {p!r}")
    array = isinstance(q, np.ndarray)
    acos, cos, largest, smallest = _CUBIC_NUMPY if array else _CUBIC_MATH
    disc = -4.0 * p**3 - 27.0 * q * q
    scale = largest(max(1.0, abs(p)), abs(q))
    multiple = disc <= 1e-12 * scale**3

    m = 2.0 * math.sqrt(-p / 3.0)
    phi = acos(largest(-1.0, smallest(1.0, -4.0 * q / m**3))) / 3.0
    roots = [m * cos(phi - 2.0 * math.pi * j / 3.0) for j in range(3)]

    # Newton polish, on floats each step the array polish's operations in
    # its order; only the cube is numpy's, which differs from pow() and
    # from t*t*t in the last bit now and then, and the roots depend on it
    for _ in range(2):
        cubes = np.power(roots, 3)
        polished = []
        for t, t3 in zip(roots, cubes if array else cubes.tolist()):
            df = 3.0 * (t * t) + p
            if array:
                ok = abs(df) > 1e-300
                polished.append(np.where(ok, t - (t3 + p * t + q) / np.where(ok, df, 1.0), t))
            else:
                polished.append(t - (t3 + p * t + q) / df if abs(df) > 1e-300 else t)
        roots = polished
    r = list(np.sort(roots, axis=0)[::-1]) if array else sorted(roots, reverse=True)
    mean = (r[0] + r[1] + r[2]) / 3.0  # the three real roots sum to zero
    r0, r1, r2 = (t - mean for t in r)
    # re-centring leaves an ulp of the largest root as absolute error: the
    # middle root, the smallest in size as the three sum to zero, comes from
    # -q / (product of the others) instead where it is far smaller
    small = abs(r1) < 1e-3 * largest(abs(r0), abs(r2))
    if array:
        return np.stack((r0, np.where(small, -q / (r0 * r2), r1), r2), axis=-1), multiple
    if small:
        r1 = -q / (r0 * r2)
    return np.array((r0, r1, r2)), multiple


def matexp_skew(d: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """exp(t*d) for skew-Hermitian d, from the LAPACK eigensystem of -i d.

    The result is unitary with unit-modulus determinant and satisfies the
    one-parameter group law exp((s+t)d) = exp(sd) exp(td).  It shares no
    code with the cubic solver behind potential.eigensystem, so it serves
    as an independent exp(x D) in the verification suites.  d may be a
    stack (m, 3, 3) and t a float or an array (m,), one per matrix; a
    stack is refused where any matrix is not skew-Hermitian.
    """
    d = np.asarray(d, dtype=complex)
    skew = np.linalg.norm(d + dagger(d), axis=(-2, -1))
    bad = skew > 1e-9 * (1.0 + np.linalg.norm(d, axis=(-2, -1)))
    if (at := first_point(bad, skew)) is not None:
        raise ValueError(f"matrix is not skew-Hermitian (residual {at[0]:.3e})")
    dvals, basis = np.linalg.eigh(-1j * d)
    return (basis * np.exp(1j * per_vector(t) * dvals)[..., None, :]) @ dagger(basis)
