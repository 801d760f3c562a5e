"""The real-regime labels found by nearest-target matching.

For a real cubic form lambda^-3 psi = psi0 the eigenvalues of D(lambda) are
psi0/a1, psi0/a2 and -psi0/a3, the sn, cn and dn modes of the lift.  The
package reads their places in the descending es.d off the root order and
the sign of psi0.  ``nearest_target_assignment`` finds them the independent
way instead: each target's index is the root nearest to it, and the
constants c_j are formed as numpy floats.
"""

from __future__ import annotations

import math

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
