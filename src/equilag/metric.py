"""Conformal factor e^{u(y)} of the induced metric, via Jacobi sn.

The first integral (w')^2 + 8 w^3 - 4 beta w^2 + 4 |psi|^2 = 0 of the Gauss
equation, w = e^u, is solved in closed form by

    w(y) = a1 (1 - q^2 sn^2(r y, k)),

an even function of y with period 2T, ranging over [a2, a1].  The derivative
follows from d/dz sn = cn dn.  `metric_at` takes a float y or an array of
them; an array gives a MetricSample of arrays from one `jacobi` call.  A
sample holds w, w', u and u' only; `_from_jacobi` builds it from the
(sn, cn, dn) of r y for a caller that holds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import JacobiTriple, jacobi
from .potential import DerivedConstants


@dataclass(frozen=True)
class MetricSample:
    """Floats at a float y, arrays of y's shape at an array."""

    w: float | np.ndarray        # e^{u(y)}
    w_prime: float | np.ndarray
    u: float | np.ndarray
    u_prime: float | np.ndarray


def metric_at(c: DerivedConstants, y: float | np.ndarray) -> MetricSample:
    """Conformal factor and derivatives at coordinate y."""
    return _from_jacobi(c, jacobi(c.r * y, c.k))


def _from_jacobi(c: DerivedConstants, jac: JacobiTriple) -> MetricSample:
    """metric_at(c, y) from jac = jacobi(c.r * y, c.k), for callers that hold it."""
    sn, cn, dn = jac
    w = c.a1 * (1.0 - c.q2 * sn * sn)
    wp = -2.0 * c.a1 * c.q2 * c.r * sn * cn * dn
    log = math.log if isinstance(w, float) else np.log
    return MetricSample(w=w, w_prime=wp, u=log(w), u_prime=wp / w)


def first_integral_residual(c: DerivedConstants, y: float) -> float:
    """|(w')^2 + 8 w^3 - 4 beta w^2 + 4 |psi|^2| at y; zero analytically."""
    m = metric_at(c, y)
    return abs(m.w_prime**2 + 8.0 * m.w**3 - 4.0 * c.beta * m.w**2 + 4.0 * abs(c.psi) ** 2)


def gauss_residual(c: DerivedConstants, y: float) -> float:
    """|u''/4 + e^u - |psi|^2 e^{-2u}| with u'' by central differences of step 1e-5."""
    step = 1e-5
    um = metric_at(c, y - step).u
    u0 = metric_at(c, y).u
    up = metric_at(c, y + step).u
    upp = (up - 2.0 * u0 + um) / (step * step)
    return abs(0.25 * upp + math.exp(u0) - abs(c.psi) ** 2 * math.exp(-2.0 * u0))
