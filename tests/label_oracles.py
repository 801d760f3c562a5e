"""The real-regime labels found by nearest-target matching, and the real tori by parity.

For a real cubic form lambda^-3 psi = psi0 the eigenvalues of D(lambda) are
psi0/a1, psi0/a2 and -psi0/a3, the sn, cn and dn modes of the lift.  The
package reads their places in the descending es.d off the root order and
the sign of psi0.  ``nearest_target_assignment`` finds them the independent
way instead: each target's index is the root nearest to it, and the
constants c_j are formed as numpy floats.  ``parity_lattice`` is the rule
by which `classify_torus` once named the real regime's lattice from those
labels, with no phase check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def nearest_target_assignment(c, es) -> tuple[list[int], np.ndarray, float]:
    """(indices of the sn, cn, dn eigenvalues in es.d, c_j, worst |d - target|).

    The indices are a permutation of 0, 1, 2, else AssertionError.
    """
    psi0 = es.cubic.real
    targets = np.array([psi0 / c.a1, psi0 / c.a2, -psi0 / c.a3])
    idx = [int(np.argmin(np.abs(es.d - t))) for t in targets]
    assert sorted(idx) == [0, 1, 2], (idx, es.d, targets)
    apsi2 = abs(c.psi) ** 2
    cs = np.array(
        [
            c.a1 * math.sqrt((c.a1 - c.a2) / (c.a1**3 - apsi2)),
            c.a2 * math.sqrt((c.a1 - c.a2) / (apsi2 - c.a2**3)),
            c.a3 * math.sqrt((c.a1 + c.a3) / (apsi2 + c.a3**3)),
        ]
    )
    return idx, cs, float(np.max(np.abs(es.d[idx] - targets)))


def rows_at(idx, vals, y) -> np.ndarray:
    """vals[i] at eigensystem index idx[i]: shape (3,) for a float y, (ny, 3) for an array y."""
    rows = np.zeros((3, *np.shape(y)))
    for i, v in zip(idx, vals):
        rows[i] = v
    return rows.T


def parity_lattice(c, es, max_den: int = 64, tol: float = 1e-8):
    """The real-regime torus lattice (p_f, omega_f) by the parity rule, or None.

    d_sn/d_cn = a2/a1 is certified as n_sn/n_cn; then p_f = 2 pi n_sn/|d_sn|,
    and omega_f is p_f/2 + 2Ti when n_sn and n_cn are both odd, else 4Ti.
    """
    d_sn, d_cn = (float(es.d[j]) for j in es.labels[:2])
    frac = Fraction(d_sn / d_cn).limit_denominator(max_den)
    if abs(d_sn / d_cn - frac.numerator / frac.denominator) > tol:
        return None
    n_sn, n_cn = frac.numerator, frac.denominator
    p_f = 2.0 * math.pi / abs(d_sn / n_sn)
    if n_sn % 2 == 1 and n_cn % 2 == 1:
        return complex(p_f), 0.5 * p_f + 2.0 * c.T * 1j
    return complex(p_f), 4.0 * c.T * 1j
