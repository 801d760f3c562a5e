"""Jacobi elliptic functions, elliptic integrals of the first and third kind, theta series.

Conventions: the modulus k (not the parameter m = k^2) is used throughout,
J(theta, k) = int_0^theta dalpha / sqrt(1 - k^2 sin^2 alpha) and
Pi(n; phi, k) = int_0^phi dalpha / ((1 - n sin^2 alpha) sqrt(1 - k^2 sin^2 alpha)).

The complete integral K(k) = J(pi/2, k) is computed with the
arithmetic-geometric mean, sn/cn/dn with the AGM phase recursion
(descending Landen chain, https://dlmf.nist.gov/22.20), and the incomplete
integral Pi with Carlson's symmetric forms: R_F and R_J by duplication
(https://dlmf.nist.gov/19.36; Carlson 1995, Numer. Algorithms 10:13-26),
R_C in closed form (https://dlmf.nist.gov/19.2.ii).
All routes are independent of each other up to the shared AGM scale, and
accurate to ~1e-13 relative for k <= 0.999; accuracy degrades gracefully
as k -> 1.  The AGM memo per float modulus (`_agm_scheme`) also holds the
phase tables of `jacobi` (4K, 2^N a_N and the ratios c_n / a_n), so a call
derives nothing from the scheme again.

`jacobi`, `_carlson_rf`, `_carlson_rc`, `_carlson_rj` and `_third_kind`
also take numpy arrays in their varying arguments (the argument z; the
integrals' x, y, z, p and the amplitude's sines) and then act elementwise
with numpy's elementary functions.  `jacobi` takes an array of moduli as
well: the AGM chain (`_agm`, written once for floats and arrays) then runs
elementwise in the `_keep_done` idiom below, each element stopping at its
own depth, and one descent serves a float z, an array z and an array k,
each element with the bits of its own one-point call.  The Carlson
kernels' k^2 stays a scalar, and `_third_kind` takes the sequence of its
n_j, so that one call serves the three complete phases G_j(2T) of a lift,
or rows of them, one per spectral object of a stack.  Python floats keep
the `math` path (R_C's arctan and arcsinh aside, below) and return floats.
A numpy scalar (np.float64) is no array: it is accepted, takes the `math`
path and gives the same bits, but its arithmetic runs at about half the
speed of Python floats, so callers hand floats in (immersion's per-object
phase constants are Python floats).

The lift evaluates no incomplete Pi per point.  Its theta quotients rest
on the nome q = exp(-pi K'/K) (`_nome`), the weights of the theta series
(`_theta_weights`, DLMF 20.2), the point a of the period rectangle with
n = k^2 sn^2(a, k) (`_pole`, one R_F at modulus k') and the Fourier
coefficients of theta_4 or theta_1 shifted by a (`_theta_row`), all on
Python floats once per spectral object; immersion sums them per point.

A duplication loop over an array (R_F, R_J) runs until every element
meets Carlson's stop rule, and each element stops where it meets it, so
the integrals agree bit for bit with the float path.  R_C has no loop: it
is an arctan or an arcsinh, so R_J adds each step's R_C term inside its
loop at floats and arrays alike, an element that has stopped adding 0.
The float R_C calls numpy's arctan and arcsinh on the Python float, not
math's: numpy's scalar calls give the bits of its array elements, while
math's atan and asinh miss them by an ulp at some arguments (asinh at
about one in six over 1e-20 to 1e20), so each array element keeps the
bits of its float call.
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
# (sin, asin, cos, sqrt, round, tanh, cosh) of jacobi at a float z and at an array
_JACOBI_MATH = (math.sin, math.asin, math.cos, math.sqrt, round, math.tanh, math.cosh)
_JACOBI_NUMPY = (np.sin, np.arcsin, np.cos, np.sqrt, np.round, np.tanh, np.cosh)


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


def _agm(k: _Real) -> tuple[list, list, list, _Real]:
    """AGM sequences a_n, b_n, c_n starting from (1, k', k), and the depth M of the chain.

    The chain stops at one ulp of a_n, |c_n| <= 2^-52 a_n: a_n and b_n can
    stay a last bit apart for good, and a tighter rule would then run the
    chain to its cap of 39 steps.  At an array k each element stops where
    it meets that rule, at its own depth; at every later level it keeps
    a_n and b_n and takes c_n = 0 (`_keep_done`), so that the descent of
    `jacobi` only halves its phase there.
    """
    array = isinstance(k, _ndarray)
    sqrt = np.sqrt if array else math.sqrt
    a: list = [1.0]
    b: list = [sqrt((1.0 - k) * (1.0 + k))]
    c: list = [k]
    depth = 0
    while len(a) < 40:
        go = abs(c[-1]) > 2.0**-52 * a[-1]
        if not (go.any() if array else go):
            break
        an, bn, cn = 0.5 * (a[-1] + b[-1]), sqrt(a[-1] * b[-1]), 0.5 * (a[-1] - b[-1])
        if array:
            an, bn, cn = _keep_done(go, (an, bn, cn), (a[-1], b[-1], 0.0))
        a.append(an)
        b.append(bn)
        c.append(cn)
        depth = depth + go
    return a, b, c, depth


def _phase_tables(a: list, c: list, depth: _Real) -> tuple:
    """(4K, 2^M a_M, (c_n / a_n for n = N, ..., 1)) of an AGM chain of depth M.

    4K = 2 pi / a_M is formed as 4 (pi / (2 a_M)).  N = len(a) - 1 is the
    deepest chain's: at arrays, an element of depth M < N has a_N = a_M and
    the ratio 0 at levels N to M + 1.
    """
    return (4.0 * (math.pi / (2.0 * a[-1])), (2.0**depth) * a[-1],
            tuple(c[n] / a[n] for n in range(len(a) - 1, 0, -1)))


@lru_cache(maxsize=512)
def _agm_scheme(k: float) -> _AgmScheme:
    """AGM sequences a_n, b_n, c_n starting from (1, k', k), and jacobi's phase tables.

    The memo per float modulus holds, besides the sequences, what every
    `jacobi` call at this k would derive from them again: the period 4K,
    the scale 2^N a_N of the first phase and the ratios c_n / a_n of the
    descent.
    """
    a, b, c, depth = _agm(k)
    return _AgmScheme(tuple(a), tuple(b), tuple(c), *_phase_tables(a, c, depth))


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


def jacobi(z: _Real, k: _Real) -> JacobiTriple:
    """Jacobi elliptic functions sn, cn, dn at real argument z.

    Uses the AGM phase recursion after reducing z modulo the real period
    4K(k), with the phase tables of a float modulus read from its AGM memo.
    The limits k = 0 (circular) and k = 1 (hyperbolic) are exact closed
    forms.  sn(J(theta, k), k) = sin(theta) for the integral J of the first kind.
    z may be an array: the AGM scheme of k is shared and the phase
    recursion runs elementwise, giving a triple of arrays.  k may be an
    array of z's shape as well: the AGM chain then runs elementwise
    (`_agm`), and each element of the result has the bits of
    jacobi(np.array([z_i]), k_i); a k outside [0, 1] or NaN is refused as
    at a float k.  One descent serves all three: only its elementary
    functions are math's at a float z and numpy's at an array.
    """
    moduli = isinstance(k, _ndarray)
    if moduli:
        z, k = np.broadcast_arrays(np.asarray(z, dtype=float), k)
        bad = ~((k >= 0.0) & (k <= 1.0))  # written so that NaN is bad too
        if bad.any():
            _check_modulus(float(k[bad][0]), allow_one=True)  # the float path's refusal
    else:
        _check_modulus(k, allow_one=True)
    array = isinstance(z, _ndarray)
    sin, asin, cos, sqrt, rnd, tanh, cosh = _JACOBI_NUMPY if array else _JACOBI_MATH
    if not (np.isfinite(z).all() if array else math.isfinite(z)):
        raise ValueError(f"argument must be finite, got {z}")
    if moduli:
        circular, hyperbolic = k == 0.0, k == 1.0
        # k = 1 takes its closed form below: its chain would never stop
        a, _, c, depth = _agm(np.where(hyperbolic, 0.0, k))
        four_k, scale, ratios = _phase_tables(a, c, depth)
    elif k == 0.0:
        return JacobiTriple(sin(z), cos(z), np.ones_like(z) if array else 1.0)
    elif k == 1.0:
        sech = 1.0 / cosh(z)
        return JacobiTriple(tanh(z), sech, sech)
    else:
        _, _, _, four_k, scale, ratios = _agm_scheme(k)

    # |ratio sin(phi)| <= c_n / a_n < 1, and 1 - (k sn)^2 >= 1 - k^2 > 0 for k < 1
    phi = scale * (z - four_k * rnd(z / four_k))
    if moduli:
        # a chain of depth M < N halves its phase at ratio 0 on levels N to
        # M + 1: rounded at its own scale 2^M a_M and then raised by 2^(N - M),
        # the phase comes back exactly, a subnormal one too (scaling by
        # 2^N a_N instead would round it twice)
        phi = phi * 2.0**(len(ratios) - depth)
    for ratio in ratios:
        phi = 0.5 * (phi + asin(ratio * sin(phi)))
    sn = sin(phi)
    cn, dn = cos(phi), sqrt(1.0 - (k * sn) * (k * sn))
    if moduli and circular.any():
        sn[circular], cn[circular], dn[circular] = sin(z[circular]), cos(z[circular]), 1.0
    if moduli and hyperbolic.any():
        zh = z[hyperbolic]
        sn[hyperbolic], cn[hyperbolic] = tanh(zh), 1.0 / cosh(zh)
        dn[hyperbolic] = cn[hyperbolic]
    return JacobiTriple(sn, cn, dn)


def _nome(k: float, kp: float) -> float:
    """The nome q = exp(-pi K'/K) of the modulus k, with k' = kp passed in (DLMF 22.2.1).

    K(k) comes from the AGM memo of k; K' = K(k') = pi / (2 agm(1, k)) from
    an AGM chain of its own, with `_agm`'s stop rule and its first step's
    k = sqrt((1 - k')(1 + k')), kept out of the memo and its phase tables.
    """
    _check_modulus(kp)
    a, b = 1.0, math.sqrt((1.0 - kp) * (1.0 + kp))
    while abs(0.5 * (a - b)) > 2.0**-52 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.exp(-math.pi * (0.5 * math.pi / a) / complete_K(k))


def _theta_weights(q: float) -> tuple[list[float], list[float], list[float]]:
    """The weights of the theta series at nome q over the harmonics m < 2M, and Theta's own row.

    The first list is 1 and then 2 q^(m^2/4), the second that times
    (-1)^(m // 2): harmonic m = 2n carries theta_4's term n and m = 2n + 1
    theta_1's (DLMF 20.2.1, 20.2.4).  The third is `_theta_row` of
    theta_4(v) itself, Jacobi's Theta(u).  M is the least count with
    q^(M^2 - M) <= 2^-60: at a shift of at most half the imaginary period,
    term n is at most q^(n^2 - n/2) of the first, so M terms leave out less
    than 2^-60.
    """
    # M^2 - M >= 60 log 2 / log(1/q), the least integer root above 1
    M = max(2, math.ceil(0.5 + math.sqrt(0.25 - 60.0 * math.log(2.0) / math.log(q))))
    w, alt, row = [1.0], [1.0], [1.0]
    for m in range(1, 2 * M):
        wm = 2.0 * q ** (m * m / 4.0)
        w.append(wm)
        alt.append(-wm if m & 2 else wm)
        row.append(0.0 if m & 1 else alt[-1])
    return w, alt, row + [0.0] * (2 * M)


def _pole(n: float, one_minus_n: float, n_minus_k2: float, k: float, kp2: float, K: float):
    """The point a of the period rectangle with n = k^2 sn^2(a, k), for n < 0 or k^2 < n < 1.

    These are Legendre's two circular cases of Pi(n; ., k): a = delta K + i b
    with delta = 0 where n < 0 and delta = 1 where k^2 < n < 1, and
    0 < b < K' (Whittaker & Watson 22.74).  1 - n and n - k^2 are passed in
    free of cancellation.  Returns (delta, corner, x): where b > K'/2,
    which is where |n| > k, corner is true and x = pi b' / (2K) with
    b' = K' - b, else x = pi b / (2K).  Only the smaller of b and b' is
    computed, so no digits go to K' - b near the corners.  Each is
    F(arcsin sqrt(s), k'), with sn^2(b, k') = n / (n - k^2) and
    sn^2(b', k') = 1 / (1 - n) where n < 0, and (n - k^2) / (n k'^2) and
    (1 - n) / k'^2 where k^2 < n < 1 (DLMF 22.6.1, 22.8.1); by the
    homogeneity of R_F each F is sqrt(f) R_F(x, y, z), all four formed
    from n, 1 - n and n - k^2 by products alone.
    """
    e, omn = n_minus_k2, one_minus_n
    corner = abs(n) > k
    if n < 0.0:
        f, x, y, z = (1.0, -n, -e, omn) if corner else (-n, k * k, k * k * omn, -e)
    else:
        f, x, y, z = (omn, e, n * kp2, kp2) if corner else (e, k * k * omn, k * k * kp2, n * kp2)
    return int(n >= 0.0), corner, math.pi / (2.0 * K) * math.sqrt(f) * _carlson_rf(x, y, z)


def _theta_row(w: tuple[list, list, list], x: float, delta: int, corner: bool,
              conj: bool) -> list[float]:
    """Fourier coefficients, up to one constant factor, of a shifted theta function.

    At v = pi u / (2K), theta_4(v + delta pi/2 + i x) where corner is false
    (Jacobi's Theta(u + a), a = delta K + i b, x = pi b / (2K)), and
    theta_1(v + delta pi/2 - i x) where it is true (e^{iv} Theta(u + a), up
    to a constant, a = delta K + i(K' - b'), x = pi b' / (2K)), or their
    complex conjugates where conj is true, as sum_m c0_m cos(m v) +
    i sum_m c1_m sin(m v) over the harmonics of w = _theta_weights(q)
    (DLMF 20.2.1, 20.2.4): even m for theta_4, odd m for theta_1.  Returns
    the list c0 + c1.  Term m carries w_m, the sign (-1)^(n (1 + delta)),
    n = m // 2, and the hyperbolic cosine and sine of m x, so neither form
    cancels at its own corner.
    """
    ws = w[0] if delta else w[1]
    H = len(ws)
    c = [0.0] * (2 * H)
    cosh, sinh = math.cosh, math.sinh
    s = -1.0 if corner == conj else 1.0  # on sin: -1 for theta_4 and +1 for theta_1, conj flips
    if corner and not delta:  # theta_1 times i: sinh on cos, cosh on sin
        for m in range(1, H, 2):
            c[m], c[H + m] = ws[m] * sinh(m * x), s * ws[m] * cosh(m * x)
    else:  # cosh on cos, sinh on sin
        for m in range(int(corner), H, 2):
            c[m], c[H + m] = ws[m] * cosh(m * x), s * ws[m] * sinh(m * x)
    return c
