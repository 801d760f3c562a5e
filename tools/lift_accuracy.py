"""Print the worst error of a checkout's non-real lift and G_j(2T) against the 30-digit oracle.

Usage: python tools/lift_accuracy.py CHECKOUT

CHECKOUT is a directory holding this package's `src/` and `bench/` (a git
clone or a `git archive` of some commit).  Each cell evaluates `lift_at`
at x = 0.3 and y = 0.6 T, 1.3 T and 3.7 T and prints the worst |F - F_ref|
over the three components and points, F_ref from `bench/oracle.py`
(`lift_nonreal`, mpmath at 30 digits), and after "G" the worst
|G_j(2T) - G_ref| / max(|G_ref|, pi) of the full-period phases
(`immersion._g_full_period` against `period_phases`), or the type of the
refusal the checkout raised.

* Locus axis: psi = 1 and lambda = e^{i delta}, delta = +-1e-1 ... 1e-7 rad
  (lambda^-3 psi is 3 delta from the real locus), at a1 = 2 and a1 = 1e3.
* Modulus axis: psi = 1 and lambda = e^{0.3 i} at a1 = 10, 20, 50 and 1e3
  (k^2 = 0.95 ... 0.9996).
* Near flat: three (a1, psi, lambda) with a1 / |psi|^(2/3) - 1 about 1e-4,
  where G_j(2T) by Carlson's R_J missed the oracle by up to 7.1e-9.
"""

from __future__ import annotations

import cmath
import math
import pathlib
import sys

import numpy as np

OFFSETS = [s * 10.0**-e for e in range(1, 8) for s in (1.0, -1.0)]
LOCUS_A1 = (2.0, 1e3)
MODULUS_A1 = (10.0, 20.0, 50.0, 1e3)
NEAR_FLAT = [
    (0.06909583495301853, complex(0.01764316105068958, -0.004298281291369469),
     complex(-0.5673261943552728, -0.8234931628121531)),
    (2.4601086081954744, complex(-3.85730611466232, 0.07411082978361595),
     complex(0.5055348534561143, 0.862806184459236)),
    (0.8183582909590688, complex(0.5922112060671603, -0.4440231033490946),
     complex(0.6728469134613694, 0.7397817455476369)),
]
POINTS_T = (0.6, 1.3, 3.7)
X = 0.3


def _cell(eq, oracle, a1: float, lam: complex, psi: complex = 1.0) -> str:
    """The worst |F - F_ref| at the cell's points and G_j(2T)'s error, or the name of the refusal."""
    from equilag import immersion

    try:
        c = eq.derive_constants(eq.SurfaceParams(a1, psi))
        es = eq.eigensystem(c, lam)
        worst = 0.0
        for t in POINTS_T:
            got = eq.lift_at(c, es, X, t * c.T).F
            want = oracle.lift_nonreal(a1, psi, lam, X, t * c.T)
            worst = max(worst, float(np.max(np.abs(got - want))))
        g_ref = np.array([float(g) for g in oracle.period_phases(a1, psi, lam)[0]])
        g = np.array(immersion._g_full_period(c, es))
        g_err = float(np.max(np.abs(g - g_ref) / np.maximum(np.abs(g_ref), math.pi)))
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__
    return f"{worst:.1e} G {g_err:.1e}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    root = pathlib.Path(argv[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import equilag as eq
    import oracle
    if not pathlib.Path(eq.__file__).is_relative_to(root / "src"):
        print(f"imported {eq.__file__}, not the package under {root / 'src'}", file=sys.stderr)
        return 2
    for a1 in LOCUS_A1:
        cells = [_cell(eq, oracle, a1, cmath.exp(1j * delta)) for delta in OFFSETS]
        print(f"locus   a1 = {a1:g}: " + "  ".join(f"{d:+.0e} {v}" for d, v in zip(OFFSETS, cells)))
    cells = [_cell(eq, oracle, a1, cmath.exp(0.3j)) for a1 in MODULUS_A1]
    print("modulus psi = 1: " + "  ".join(f"a1 {a1:g} {v}" for a1, v in zip(MODULUS_A1, cells)))
    cells = [_cell(eq, oracle, a1, lam, psi) for a1, psi, lam in NEAR_FLAT]
    print("near flat:       " + "  ".join(f"a1 {a1:.3g} {v}" for (a1, _, _), v in zip(NEAR_FLAT, cells)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
