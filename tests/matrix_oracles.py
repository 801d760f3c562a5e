"""Matrix-level oracles for the potential D(lambda), built from its entries.

The package works in the eigenbasis of D: the d-cubic gives the eigenvalues
i d_j, and L0 enters only through its eigenvalues -d_j^2 + 2 beta / 3
(``iwasawa._l0_spectrum``).  The tests check those against

* ``char_poly_eval``: the characteristic polynomial in closed form,
  det(mu I - D(lambda)) = mu^3 + beta mu - i (lam^3 conj(psi) + lam^-3 psi);
* ``commutant_matrix``: L0 = D^2 - (1/3) tr(D^2) I as a matrix product.
"""

from __future__ import annotations

import numpy as np

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
