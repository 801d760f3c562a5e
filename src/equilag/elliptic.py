"""Jacobi elliptic functions and elliptic integrals of the first and third kind.

Conventions: the modulus k (not the parameter m = k^2) is used throughout,
J(theta, k) = int_0^theta dalpha / sqrt(1 - k^2 sin^2 alpha) and
Pi(n; phi, k) = int_0^phi dalpha / ((1 - n sin^2 alpha) sqrt(1 - k^2 sin^2 alpha)).

The complete integral K(k) = J(pi/2, k) is computed with the
arithmetic-geometric mean, sn/cn/dn with the AGM phase recursion
(descending Landen chain, https://dlmf.nist.gov/22.20), and the incomplete
integral Pi with Carlson's symmetric forms R_F, R_C and R_J by duplication
(https://dlmf.nist.gov/19.36; Carlson 1995, Numer. Algorithms 10:13-26).
All routes are independent of each other up to the shared AGM scale, and
accurate to ~1e-13 relative for k <= 0.999; accuracy degrades gracefully
as k -> 1.  The AGM memo per modulus (`_agm_scheme`) also holds the phase
tables of `jacobi` (4K, 2^N a_N and the ratios c_n / a_n), so a call
derives nothing from the scheme again.

`jacobi`, `_carlson_rf`, `_carlson_rc`, `_carlson_rj` and `_third_kind`
also take numpy arrays in their varying arguments (the argument z; the
integrals' x, y, z, p and the amplitude's sines) and then act elementwise
with numpy's elementary functions; the modulus, n and k^2 stay scalars.
Python floats keep the `math` path and return floats.  A numpy scalar
(np.float64) is no array: it is accepted, takes the `math` path and gives
the same bits, but its arithmetic runs at about half the speed of Python
floats, so callers hand floats in (immersion's per-object phase constants
are Python floats).  A duplication loop
over an array runs until every element meets Carlson's stop rule, and each
element stops where it meets it, so the integrals agree bit for bit with
the float path.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np


_Real = float | np.ndarray  # a float, or an array taken elementwise
# bound once: the float path pays for this type test on every call
_ndarray = np.ndarray


def _largest(*vs: np.ndarray) -> np.ndarray:
    """Elementwise max() of arrays."""
    return reduce(np.maximum, vs)


# (sqrt, largest) of the float path and of the array path
_CARLSON_MATH = (math.sqrt, max)
_CARLSON_NUMPY = (np.sqrt, _largest)


class JacobiTriple(NamedTuple):
    """Values (sn z, cn z, dn z) at a common argument and modulus."""

    sn: _Real
    cn: _Real
    dn: _Real


def _check_modulus(k: float, allow_one: bool = False) -> None:
    if math.isnan(k) or k < 0.0:
        raise ValueError(f"modulus must satisfy 0 <= k, got {k}")
    if k > 1.0 or (k == 1.0 and not allow_one):
        hi = "<= 1" if allow_one else "< 1"
        raise ValueError(f"modulus must satisfy k {hi}, got {k}")


class _AgmScheme(NamedTuple):
    """The AGM scheme of one modulus and the phase tables `jacobi` reads from it."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    c: tuple[float, ...]
    four_K: float                # 4K = 2 pi / a_N, formed as 4 (pi / (2 a_N))
    scale: float                 # 2^N a_N, the first phase per unit argument
    ratios: tuple[float, ...]    # c_n / a_n for n = N, ..., 1


@lru_cache(maxsize=512)
def _agm_scheme(k: float) -> _AgmScheme:
    """AGM sequences a_n, b_n, c_n starting from (1, k', k), and jacobi's phase tables.

    The memo per modulus holds, besides the sequences, what every `jacobi`
    call at this k would derive from them again: the period 4K, the scale
    2^N a_N of the first phase and the ratios c_n / a_n of the descent.
    """
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    a: list[float] = [1.0]
    b: list[float] = [kp]
    c: list[float] = [k]
    # stop at one ulp of a_n: a_n and b_n can stay a last bit apart for
    # good, and a tighter rule would then run the chain to its cap
    while abs(c[-1]) > 2.0**-52 * a[-1] and len(a) < 40:
        an = 0.5 * (a[-1] + b[-1])
        bn = math.sqrt(a[-1] * b[-1])
        c.append(0.5 * (a[-1] - b[-1]))
        a.append(an)
        b.append(bn)
    n_last = len(a) - 1
    return _AgmScheme(
        tuple(a), tuple(b), tuple(c),
        four_K=4.0 * (math.pi / (2.0 * a[-1])),
        scale=(2.0**n_last) * a[-1],
        ratios=tuple(c[n] / a[n] for n in range(n_last, 0, -1)),
    )


def _keep_done(go, after: tuple, before: tuple) -> tuple:
    """A duplication step's state on the elements still short of the stop rule.

    The others keep their state from before the step, so that every element
    of an array takes exactly the steps it would take alone.
    """
    return tuple(np.where(go, new, old) for new, old in zip(after, before))


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind K(k) via the AGM.

    K(k) = pi / (2 * agm(1, sqrt(1 - k^2))).  Diverges logarithmically as
    k -> 1, so k = 1 is a domain error.
    """
    _check_modulus(k, allow_one=False)
    return math.pi / (2.0 * _agm_scheme(k).a[-1])


def _carlson_rf(x: _Real, y: _Real, z: _Real) -> _Real:
    """Carlson symmetric integral R_F(x, y, z) by duplication."""
    A = (x + y + z) / 3.0
    array = isinstance(A, _ndarray)
    sqrt, largest = _CARLSON_NUMPY if array else _CARLSON_MATH
    Q = (3.0 * 2.3e-16) ** (-1.0 / 8.0) * largest(abs(A - x), abs(A - y), abs(A - z))
    f = 1.0
    while (go := Q * f >= abs(A)).any() if array else Q * f >= abs(A):
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        if array:
            before = x, y, z, A, f
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        A = 0.25 * (A + lam)
        f = 0.25 * f  # not in place: an array f is also held in before
        if array:
            x, y, z, A, f = _keep_done(go, (x, y, z, A, f), before)
    # fifth-order Taylor tail in the symmetric elementary functions
    X = 1.0 - x / A
    Y = 1.0 - y / A
    Z = -(X + Y)
    E2 = X * Y - Z * Z
    E3 = X * Y * Z
    return (
        1.0
        - E2 / 10.0
        + E3 / 14.0
        + E2 * E2 / 24.0
        - 3.0 * E2 * E3 / 44.0
        - 5.0 * E2**3 / 208.0
        + 3.0 * E3 * E3 / 104.0
        + E2 * E2 * E3 / 16.0
    ) / sqrt(A)


def _carlson_rc(x: _Real, y: _Real) -> _Real:
    """Carlson degenerate integral R_C(x, y), x >= 0, y > 0, by duplication."""
    A = (x + 2.0 * y) / 3.0
    array = isinstance(A, _ndarray)
    sqrt, largest = _CARLSON_NUMPY if array else _CARLSON_MATH
    s0 = y - A
    Q = (3.0 * 2.3e-16) ** (-1.0 / 8.0) * abs(A - x)
    f = 1.0
    while (go := Q * f >= abs(A)).any() if array else Q * f >= abs(A):
        lam = 2.0 * sqrt(x) * sqrt(y) + y
        if array:
            before = x, y, A, f
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        A = 0.25 * (A + lam)
        f = 0.25 * f  # not in place: an array f is also held in before
        if array:
            x, y, A, f = _keep_done(go, (x, y, A, f), before)
    s = s0 * f / A
    return (
        1.0 + s * s * (3.0 / 10.0 + s * (1.0 / 7.0 + s * (3.0 / 8.0 + s * (
            9.0 / 22.0 + s * (159.0 / 208.0 + s * 9.0 / 8.0)))))
    ) / sqrt(A)


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
        if array:
            before = acc, x, y, z, p, A, f
        acc = acc + f / d * _carlson_rc(1.0, 2.0 * sp * (p + lam) / d)  # not in place, as f
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        p = 0.25 * (p + lam)
        A = 0.25 * (A + lam)
        f = 0.25 * f  # not in place: an array f is also held in before
        if array:
            acc, x, y, z, p, A, f = _keep_done(go, (acc, x, y, z, p, A, f), before)
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


def _third_kind(n: float, p: _Real, s: _Real, c2: _Real, d2: _Real, k2: float) -> _Real:
    """Pi(n; phi, k) for n < 1 and |phi| <= pi/2, from the amplitude's sines.

    s = sin phi, c2 = cos^2 phi, d2 = 1 - k^2 s^2, k2 = k^2 and
    p = 1 - n s^2 are passed in rather than recomputed, so that a caller
    holding them free of cancellation keeps that accuracy.  For n >= 0 this
    is s R_F(c2, d2, 1) + (n/3) s^3 R_J(c2, d2, 1, p)
    (https://dlmf.nist.gov/19.25.E14); for n < 0 that sum cancels as
    n -> -inf, and the equivalent form
    s R_C(c2 d2, p q) - k^2 s^3 / (3n) R_J(c2, d2, 1, q), q = 1 - k^2 s^2 / n,
    whose two terms share one sign, is used instead.  That form overflows
    as n -> 0- (q ~ 1/|n|), where 19.25.14 does not cancel, so tiny
    negative n, -1e-8 <= n < 0, takes 19.25.14.  p, s, c2 and d2 may be
    arrays of one shape; s = 0 gives 0.
    """
    array = isinstance(s, _ndarray)
    if not array and s == 0.0:
        return 0.0
    s3 = s * s * s
    if n >= -1e-8:
        val = s * _carlson_rf(c2, d2, 1.0) + n / 3.0 * s3 * _carlson_rj(c2, d2, 1.0, p)
    else:
        q = 1.0 - k2 * s * s / n
        val = s * _carlson_rc(c2 * d2, p * q) - k2 * s3 / (3.0 * n) * _carlson_rj(c2, d2, 1.0, q)
    return np.where(s == 0.0, 0.0, val) if array else val


def jacobi(z: _Real, k: float) -> JacobiTriple:
    """Jacobi elliptic functions sn, cn, dn at real argument z.

    Uses the AGM phase recursion after reducing z modulo the real period
    4K(k), with the phase tables of the modulus read from its AGM memo.
    The limits k = 0 (circular) and k = 1 (hyperbolic) are exact closed
    forms.  sn(J(theta, k), k) = sin(theta) for the integral J of the first kind.
    z may be an array: the AGM scheme of k is shared and the phase
    recursion runs elementwise, giving a triple of arrays.
    """
    _check_modulus(k, allow_one=True)
    array = isinstance(z, _ndarray)
    if not (np.isfinite(z).all() if array else math.isfinite(z)):
        raise ValueError(f"argument must be finite, got {z}")
    if k == 0.0:
        if array:
            return JacobiTriple(np.sin(z), np.cos(z), np.ones_like(z))
        return JacobiTriple(math.sin(z), math.cos(z), 1.0)
    if k == 1.0:
        sech = 1.0 / (np.cosh if array else math.cosh)(z)
        return JacobiTriple((np.tanh if array else math.tanh)(z), sech, sech)

    _, _, _, four_k, scale, ratios = _agm_scheme(k)
    if array:
        phi = scale * (z - four_k * np.round(z / four_k))
        for ratio in ratios:
            phi = 0.5 * (phi + np.arcsin(np.maximum(-1.0, np.minimum(1.0, ratio * np.sin(phi)))))
        sn = np.sin(phi)
        return JacobiTriple(sn, np.cos(phi), np.sqrt(np.maximum(0.0, 1.0 - (k * sn) * (k * sn))))

    sin, asin = math.sin, math.asin
    phi = scale * (z - four_k * round(z / four_k))
    for ratio in ratios:
        s = ratio * sin(phi)
        # max(-1, min(1, s)) by comparisons; NaN goes to 1 there as here
        if not s <= 1.0:
            s = 1.0
        elif s < -1.0:
            s = -1.0
        phi = 0.5 * (phi + asin(s))
    sn = sin(phi)
    dn2 = 1.0 - (k * sn) * (k * sn)
    return JacobiTriple(sn, math.cos(phi), math.sqrt(dn2) if dn2 > 0.0 else 0.0)
