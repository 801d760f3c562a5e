"""Jacobi elliptic functions, the elliptic integral of the first kind, theta series.

Conventions: the modulus k (not the parameter m = k^2) is used throughout,
and J(theta, k) = int_0^theta dalpha / sqrt(1 - k^2 sin^2 alpha).

The complete integral K(k) = J(pi/2, k) is computed with the
arithmetic-geometric mean, sn/cn/dn with the AGM phase recursion
(descending Landen chain, https://dlmf.nist.gov/22.20), and Carlson's
symmetric integral R_F by duplication (https://dlmf.nist.gov/19.36;
Carlson 1995, Numer. Algorithms 10:13-26).
All routes are independent of each other up to the shared AGM scale, and
accurate to ~1e-13 relative for k <= 0.999; accuracy degrades gracefully
as k -> 1.  The AGM memo per float modulus (`_agm_scheme`) also holds the
phase tables of `jacobi` (4K, 2^N a_N and the ratios c_n / a_n), so a call
derives nothing from the scheme again.

`jacobi` and `_carlson_rf` also take numpy arrays in their varying
arguments (the argument z; the integral's x, y and z) and then act
elementwise with numpy's elementary functions.  `jacobi` takes an array of
moduli as well: the AGM chain (`_agm`, written once for floats and arrays)
then runs elementwise in the `_keep_done` idiom below, each element
stopping at its own depth, and one descent serves a float z, an array z
and an array k, each element with the bits of its own one-point call.
Python floats keep the `math` path and return floats.  A numpy scalar
(np.float64) is no array: it is accepted, takes the `math` path and gives
the same bits, but its arithmetic runs at about half the speed of Python
floats, so callers hand floats in (immersion's per-object phase constants
are Python floats).

The lift evaluates no integral of the third kind, per point or over a
period.  Its theta quotients rest on the nome q = exp(-pi K'/K) (`_nome`),
the weights of the theta series (`_theta_weights`, DLMF 20.2), the point a
of the period rectangle with n = k^2 sn^2(a, k) (`_pole`, one R_F at
modulus k') and the Fourier coefficients of theta_4 or theta_1 shifted by
a (`_theta_row`), all on Python floats once per spectral object; immersion
sums them per point, and reads Jacobi's zeta function at a, and with it
the complete phases G_j(2T), off the same weights.

A duplication loop over an array runs until every element meets Carlson's
stop rule, and each element stops where it meets it, so the integral
agrees bit for bit with the float path.
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
