"""Reference scalar kernels: the bodies the table-driven `jacobi` and the float polish replaced.

Test-only.  `jacobi` used to derive 4K, 2^N a_N and every ratio c_n / a_n
from the AGM scheme on each call, and clamp with max/min,
and `solve_depressed_cubic` used to Newton-polish the trigonometric roots
as a numpy array.  These are those bodies, the same operations in the same
order (the AGM scheme uncached), and `tests/test_kernel_bits.py` requires
the package kernels to give exactly their bits.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from equilag.elliptic import JacobiTriple, _check_modulus


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

