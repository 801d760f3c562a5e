"""Reference scalar kernels: the bodies the table-driven `jacobi` and the float polish replaced.

Test-only.  `jacobi` used to derive 4K, 2^N a_N and every ratio c_n / a_n
from the AGM scheme on each call, and clamp with max/min,
and `solve_depressed_cubic` used to Newton-polish the trigonometric roots
as a numpy array.  These are those bodies, the same operations in the same
order (the AGM scheme uncached), and `tests/test_kernel_bits.py` requires
the package kernels to give exactly their bits.  `incomplete_J`, which no
package module uses, lives here as well, for `tests/test_elliptic.py`.

Carlson's R_C and R_J and the incomplete integral of the third kind
(`_carlson_rc`, `_carlson_rj`, `_third_kind`) are the kernels that gave the
complete phases G_j(2T) before the package read them off Jacobi's zeta
function.  They stay here as test references for G_j(y) and G_j(2T)
(`tests/phase_oracles.py`), with their float and array paths.  Like the
package's R_F they take numpy arrays in their varying arguments (the
integrals' x, y, z, p and the amplitude's sines) and then act elementwise;
k^2 stays a scalar, and `_third_kind` takes the sequence of its n_j, so
that one call serves the three phases of a lift, or rows of them, one per
spectral object of a stack.  Python floats keep the `math` path (R_C's
arctan and arcsinh aside, below) and return floats.

A duplication loop over an array (R_J) runs until every element meets
Carlson's stop rule, and each element stops where it meets it, so the
integrals agree bit for bit with the float path.  R_C has no loop: it is
an arctan or an arcsinh, so R_J adds each step's R_C term inside its loop
at floats and arrays alike, an element that has stopped adding 0.  The
float R_C calls numpy's arctan and arcsinh on the Python float, not
math's: numpy's scalar calls give the bits of its array elements, while
math's atan and asinh miss them by an ulp at some arguments (asinh at
about one in six over 1e-20 to 1e20), so each array element keeps the bits
of its float call.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from equilag import elliptic
from equilag.elliptic import (_CARLSON_MATH, _CARLSON_NUMPY, JacobiTriple, _check_modulus,
                              _carlson_rf, _keep_done, _ndarray, _Real)


def _largest(*vs: np.ndarray) -> np.ndarray:
    """Elementwise max() of arrays."""
    return reduce(np.maximum, vs)


# (sin, cos, asin, sqrt, round, largest, smallest) of the float path and of the array path
_JACOBI_MATH = (math.sin, math.cos, math.asin, math.sqrt, round, max, min)
_JACOBI_NUMPY = (np.sin, np.cos, np.arcsin, np.sqrt, np.round, _largest, np.minimum)


def agm_scheme(k: float) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """AGM sequences a_n, b_n, c_n starting from (1, k', k)."""
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    a: list[float] = [1.0]
    b: list[float] = [kp]
    c: list[float] = [k]
    while abs(c[-1]) > 2.0**-52 * a[-1] and len(a) < 40:
        an = 0.5 * (a[-1] + b[-1])
        bn = math.sqrt(a[-1] * b[-1])
        c.append(0.5 * (a[-1] - b[-1]))
        a.append(an)
        b.append(bn)
    return tuple(a), tuple(b), tuple(c)


def complete_K(k: float) -> float:
    """K(k) = pi / (2 * agm(1, sqrt(1 - k^2)))."""
    _check_modulus(k, allow_one=False)
    a, _, _ = agm_scheme(k)
    return math.pi / (2.0 * a[-1])


def jacobi(z, k: float) -> JacobiTriple:
    """sn, cn, dn by the AGM phase recursion, every table derived per call."""
    _check_modulus(k, allow_one=True)
    array = isinstance(z, np.ndarray)
    sin, cos, asin, sqrt, rnd, largest, smallest = _JACOBI_NUMPY if array else _JACOBI_MATH
    if not (np.isfinite(z).all() if array else math.isfinite(z)):
        raise ValueError(f"argument must be finite, got {z}")
    if k == 0.0:
        return JacobiTriple(sin(z), cos(z), np.ones_like(z) if array else 1.0)
    if k == 1.0:
        sech = 1.0 / (np.cosh if array else math.cosh)(z)
        return JacobiTriple((np.tanh if array else math.tanh)(z), sech, sech)

    a, _, c = agm_scheme(k)
    n_last = len(a) - 1
    K = math.pi / (2.0 * a[-1])
    z = z - 4.0 * K * rnd(z / (4.0 * K))

    phi = (2.0**n_last) * a[-1] * z
    for n in range(n_last, 0, -1):
        s = c[n] / a[n] * sin(phi)
        phi = 0.5 * (phi + asin(largest(-1.0, smallest(1.0, s))))
    sn = sin(phi)
    cn = cos(phi)
    dn = sqrt(largest(0.0, 1.0 - (k * sn) * (k * sn)))
    return JacobiTriple(sn, cn, dn)


def incomplete_J(theta: float, k: float) -> float:
    """Incomplete elliptic integral of the first kind J(theta, k).

    Computed as sin(theta) * R_F(cos^2 theta, 1 - k^2 sin^2 theta, 1) on the
    fundamental strip, extended by the quasi-periodicity
    J(theta + n*pi, k) = J(theta, k) + 2n*K(k).
    """
    _check_modulus(k, allow_one=False)
    n = round(theta / math.pi)
    t0 = theta - n * math.pi
    st = math.sin(t0)
    ct = math.cos(t0)
    val = 0.0
    if st != 0.0:
        val = st * elliptic._carlson_rf(ct * ct, 1.0 - (k * st) * (k * st), 1.0)
    if n != 0:
        val += 2.0 * n * elliptic.complete_K(k)
    return val


def solve_depressed_cubic(p: float, q: float) -> tuple[np.ndarray, bool]:
    """Real roots of t^3 + p t + q = 0 for p < 0, sorted descending, polished as an array."""
    if not p < 0.0:
        raise ValueError(f"p < 0 required, got p = {p!r}")
    disc = -4.0 * p**3 - 27.0 * q * q
    scale = max(1.0, abs(p), abs(q))
    multiple = disc <= 1e-12 * scale**3

    m = 2.0 * math.sqrt(-p / 3.0)
    c3 = max(-1.0, min(1.0, -4.0 * q / m**3))
    phi = math.acos(c3) / 3.0
    roots = np.array([m * math.cos(phi - 2.0 * math.pi * j / 3.0) for j in range(3)])

    for _ in range(2):
        f = roots**3 + p * roots + q
        df = 3.0 * roots**2 + p
        safe = np.abs(df) > 1e-300
        roots = np.where(safe, roots - f / np.where(safe, df, 1.0), roots)
    r = sorted(roots.tolist(), reverse=True)
    mean = (r[0] + r[1] + r[2]) / 3.0
    r = [t - mean for t in r]
    j = min(range(3), key=lambda i: abs(r[i]))
    if abs(r[j]) < 1e-3 * max(abs(t) for t in r):
        others = [t for i, t in enumerate(r) if i != j]
        r[j] = -q / (others[0] * others[1])
    return np.array(r), multiple


def _carlson_rc(x: _Real, y: _Real) -> _Real:
    """Carlson degenerate integral R_C(x, y), x >= 0, y > 0, in closed form.

    With t = y - x (https://dlmf.nist.gov/19.2.E18, 19.2.E19):
    atan(sqrt(t) / sqrt(x)) / sqrt(t) for x < y, which is pi / (2 sqrt(y))
    at x = 0; asinh(sqrt(-t) / sqrt(y)) / sqrt(-t) for x > y; and
    1 / sqrt(x) at x = y.  The differences and square roots are exact or
    correctly rounded, so each form stays accurate as x -> y and at extreme
    ratios, up to x / y ~ 1e616 (a subnormal y beside an x near overflow),
    where sqrt(-t) / sqrt(y) overflows; R_J and `_third_kind` pass x <= 1.
    NaN in x or y gives NaN.
    """
    t = y - x
    if isinstance(t, _ndarray):
        below = t > 0.0
        # x = 0 gives v = inf (arctan: pi / 2), x = y gives 0 / 0, replaced by 1 / sqrt(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(abs(t))
            v = r / np.sqrt(np.where(below, x, y))
            rc = np.where(below, np.arctan(v), np.arcsinh(v)) / r
            return np.where(t == 0.0, 1.0 / np.sqrt(x), rc)
    if t > 0.0:
        return float(np.arctan(math.sqrt(t) / math.sqrt(x) if x else math.inf)) / math.sqrt(t)
    if t < 0.0:
        return float(np.arcsinh(math.sqrt(-t) / math.sqrt(y))) / math.sqrt(-t)
    return 1.0 / math.sqrt(x) if t == 0.0 else math.nan  # t is NaN when x or y is


def _carlson_rj(x: _Real, y: _Real, z: _Real, p: _Real) -> _Real:
    """Carlson symmetric integral R_J(x, y, z, p), x, y, z >= 0, p > 0.

    Carlson's duplication sums terms R_C(1, 1 + delta_m / d_m^2) with
    delta_m = (p_m - x_m)(p_m - y_m)(p_m - z_m) and
    d_m = (sqrt p_m + sqrt x_m)(sqrt p_m + sqrt y_m)(sqrt p_m + sqrt z_m).
    That argument equals 2 sqrt(p_m) (p_m + lam_m) / d_m, which is used
    here because it keeps full accuracy as p -> 0+, where the sum cancels.
    """
    A0 = A = (x + y + z + 2.0 * p) / 5.0
    array = isinstance(A, _ndarray)
    sqrt, largest = _CARLSON_NUMPY if array else _CARLSON_MATH
    x0, y0, z0 = x, y, z
    Q = (0.25 * 2.3e-16) ** (-1.0 / 6.0) * largest(abs(A - x), abs(A - y), abs(A - z), abs(A - p))
    f = 1.0
    acc = 0.0
    while (go := Q * f >= abs(A)).any() if array else Q * f >= abs(A):
        sx, sy, sz, sp = sqrt(x), sqrt(y), sqrt(z), sqrt(p)
        lam = sx * sy + sx * sz + sy * sz
        d = (sp + sx) * (sp + sy) * (sp + sz)
        term = f / d * _carlson_rc(1.0, 2.0 * sp * (p + lam) / d)
        if array:
            term = np.where(go, term, 0.0)  # a stopped element adds nothing to its sum
            before = x, y, z, p, A, f
        acc = acc + term
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        p = 0.25 * (p + lam)
        A = 0.25 * (A + lam)
        f = 0.25 * f  # not in place: an array f is also held in before
        if array:
            x, y, z, p, A, f = _keep_done(go, (x, y, z, p, A, f), before)
    # fifth-order Taylor tail in the symmetric elementary functions
    X = (A0 - x0) * f / A
    Y = (A0 - y0) * f / A
    Z = (A0 - z0) * f / A
    P = -0.5 * (X + Y + Z)
    P2 = P * P
    E2 = X * Y + X * Z + Y * Z - 3.0 * P2
    E3 = X * Y * Z + 2.0 * E2 * P + 4.0 * P * P2
    E4 = (2.0 * X * Y * Z + E2 * P + 3.0 * P * P2) * P
    E5 = X * Y * Z * P2
    return f / (A * sqrt(A)) * (
        1.0
        - 3.0 * E2 / 14.0
        + E3 / 6.0
        + 9.0 * E2 * E2 / 88.0
        - 3.0 * E4 / 22.0
        - 9.0 * E2 * E3 / 52.0
        + 3.0 * E5 / 26.0
    ) + 6.0 * acc


def _third_kind(n: tuple[float, ...] | np.ndarray, p, s: _Real, c2: _Real, d2: _Real, k2: float):
    """Pi(n_j; phi, k) for each n_j < 1 of the sequence n, |phi| <= pi/2, from phi's sines.

    s = sin phi, c2 = cos^2 phi, d2 = 1 - k^2 s^2, k2 = k^2 and
    p_j = 1 - n_j s^2 are passed in rather than recomputed, so that a caller
    holding them free of cancellation keeps that accuracy.  For n >= 0 this
    is s R_F(c2, d2, 1) + (n/3) s^3 R_J(c2, d2, 1, p)
    (https://dlmf.nist.gov/19.25.E14); for n < 0 that sum cancels as
    n -> -inf, and the equivalent form
    s R_C(c2 d2, p q) - k^2 s^3 / (3n) R_J(c2, d2, 1, q), q = 1 - k^2 s^2 / n,
    whose two terms share one sign, is used instead.  That form overflows
    as n -> 0- (q ~ 1/|n|), where 19.25.14 does not cancel, so tiny
    negative n, -1e-8 <= n < 0, takes 19.25.14.  s = 0 gives 0.

    At a float s, p holds one float per n_j and the result is a list of
    Python floats.  At arrays, the n_j lie along the last axis, against
    which p, s, c2 and d2 broadcast (p of shape (m, len(n)), s, c2, d2 of
    shape (m, 1)), and the result has p's shape; n may also be an array of
    p's shape, rows (m, 3) of n_j, one row per point.  The choice of form
    is then made element by element, and q is formed on the elements of
    the R_C form alone, so it stays finite as n -> 0-.  One R_J call serves
    every element and one R_C call the elements of the R_C form, and each
    element has the bits of its float call.  Either way one R_F call
    serves every n_j of 19.25.14.
    """
    if not isinstance(s, _ndarray):
        if s == 0.0:
            return [0.0] * len(n)
        s3 = s * s * s
        rf = s * _carlson_rf(c2, d2, 1.0) if max(n) >= -1e-8 else 0.0
        out = []
        for nj, pj in zip(n, p):
            if nj >= -1e-8:
                out.append(rf + nj / 3.0 * s3 * _carlson_rj(c2, d2, 1.0, pj))
            else:
                q = 1.0 - k2 * s * s / nj
                out.append(s * _carlson_rc(c2 * d2, pj * q)
                           - k2 * s3 / (3.0 * nj) * _carlson_rj(c2, d2, 1.0, q))
        return out
    n = np.asarray(n, dtype=float)
    shape = np.broadcast_shapes(np.shape(p), np.shape(s), n.shape)
    neg = np.broadcast_to(n < -1e-8, shape)
    n, p = np.broadcast_to(n, shape), np.broadcast_to(p, shape)
    fourth, val = p.copy(), np.empty(shape)  # R_J's fourth argument: p, or q where n < 0
    s3 = np.broadcast_to(s * s * s, shape)
    if neg.any():
        sn, nn = np.broadcast_to(s, shape)[neg], n[neg]
        q = 1.0 - k2 * sn * sn / nn  # formed on these elements alone: it overflows as n -> 0-
        fourth[neg] = q
    rj = _carlson_rj(c2, d2, 1.0, fourth)
    if not neg.all():
        pos = ~neg
        rf = np.broadcast_to(s * _carlson_rf(c2, d2, 1.0), shape)
        val[pos] = rf[pos] + n[pos] / 3.0 * s3[pos] * rj[pos]
    if neg.any():
        val[neg] = (sn * _carlson_rc(np.broadcast_to(c2 * d2, shape)[neg], p[neg] * q)
                    - k2 * s3[neg] / (3.0 * nn) * rj[neg])
    return np.where(s == 0.0, 0.0, val)
