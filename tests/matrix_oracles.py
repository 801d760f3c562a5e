"""Matrix-level oracles for the potential D(lambda), built from its entries.

The package works in the eigenbasis of D: the d-cubic gives the eigenvalues
i d_j, and L0 enters only through its eigenvalues -d_j^2 + 2 beta / 3
(``iwasawa._l0_spectrum``).  The tests check those against

* ``char_poly_eval``: the characteristic polynomial in closed form,
  det(mu I - D(lambda)) = mu^3 + beta mu - i (lam^3 conj(psi) + lam^-3 psi);
* ``commutant_matrix``: L0 = D^2 - (1/3) tr(D^2) I as a matrix product;
* ``omega_entries``: the x-connection matrix Omega(y, lambda) entry by entry,
  against ``iwasawa.omega_matrix``, which sums the connection blocks.
"""

from __future__ import annotations

import numpy as np

from equilag.metric import metric_at
from equilag.potential import DerivedConstants, potential_matrix


def char_poly_eval(c: DerivedConstants, lam: complex, mu: complex) -> complex:
    """det(mu I - D(lambda)); on |lambda| = 1 the constant term is -2i Re(lambda^-3 psi)."""
    lam = complex(lam)
    return mu**3 + c.beta * mu - 1j * (lam**3 * np.conj(c.psi) + c.psi / lam**3)


def commutant_matrix(c: DerivedConstants, lam: complex) -> np.ndarray:
    """L0 = D^2 - (1/3) tr(D^2) I, spanning the commutant of D with D itself."""
    d = potential_matrix(c, lam)
    d2 = d @ d
    return d2 - (np.trace(d2) / 3.0) * np.eye(3)


def omega_entries(c: DerivedConstants, y: float, lam: complex) -> np.ndarray:
    """Omega(y, lambda) written out entry by entry; equals D(lambda) at y = 0."""
    lam = complex(lam)
    m = metric_at(c, y)
    eu2 = np.sqrt(m.w)
    psi = c.psi
    return np.array(
        [
            [-0.5j * m.u_prime, -1j * lam * np.conj(psi) / m.w, 1j * eu2 / lam],
            [-1j * psi / (lam * m.w), 0.5j * m.u_prime, 1j * lam * eu2],
            [1j * lam * eu2, 1j * eu2 / lam, 0.0],
        ],
        dtype=complex,
    )
