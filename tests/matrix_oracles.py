"""Matrix-level oracles for the potential D(lambda), built from its entries.

The package works in the eigenbasis of D: the d-cubic gives the eigenvalues
i d_j, and L0 enters only through its eigenvalues -d_j^2 + 2 beta / 3
(``iwasawa._l0_spectrum``).  The tests check those against

* ``char_poly_eval``: the characteristic polynomial in closed form,
  det(mu I - D(lambda)) = mu^3 + beta mu - i (lam^3 conj(psi) + lam^-3 psi);
* ``commutant_matrix``: L0 = D^2 - (1/3) tr(D^2) I as a matrix product;
* ``omega_entries``: the x-connection matrix Omega(y, lambda) entry by entry,
  against ``iwasawa.omega_matrix``, which sums the connection blocks;
* ``eigenvectors_mp``: the eigenvectors l_j of D(lambda) from ``mpmath.eighe``
  of -i D at 40 digits, in the phase convention of ``bench/oracle.py``,
  against the closed form of ``potential.eigensystem``.
"""

from __future__ import annotations

import mpmath as mp
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


def eigenvectors_mp(a1: float, psi: complex, lam: complex, dps: int = 40) -> np.ndarray:
    """Rows l_j, d_j descending, of the unit lambda / |lambda| nearest the double lam.

    Third component real and positive, or, where it is below 1e-9 (the sn
    mode of the real regime), the component along lambda e_2 - lambda^-1 e_1.
    """
    with mp.workdps(dps):
        i = mp.mpc(0, 1)
        lm = mp.mpc(lam.real, lam.imag)
        lm /= abs(lm)
        a = i * mp.sqrt(mp.mpf(a1))
        b = -i * mp.mpc(psi.real, psi.imag) / mp.mpf(a1)
        dmat = mp.matrix([
            [0, -lm * mp.conj(b), a / lm],
            [b / lm, 0, -lm * mp.conj(a)],
            [-lm * mp.conj(a), a / lm, 0],
        ])
        evals, evecs = mp.eighe(-i * dmat)
        rows = []
        for j in sorted(range(3), key=lambda j: -evals[j]):
            v = [evecs[k, j] for k in range(3)]
            anchor = v[2] if abs(v[2]) >= 1e-9 else -v[0] * lm + v[1] / lm
            phase = mp.conj(anchor) / abs(anchor)
            rows.append([complex(vk * phase) for vk in v])
        return np.array(rows)
