"""Print the worst error of a checkout's non-real lift against the 30-digit oracle on two axes.

Usage: python tools/lift_accuracy.py CHECKOUT

CHECKOUT is a directory holding this package's `src/` and `bench/` (a git
clone or a `git archive` of some commit).  Each cell evaluates `lift_at`
at x = 0.3 and y = 0.6 T, 1.3 T and 3.7 T and prints the worst |F - F_ref|
over the three components and points, F_ref from `bench/oracle.py`
(`lift_nonreal`, mpmath at 30 digits), or the type of the refusal the
checkout raised.

* Locus axis: psi = 1 and lambda = e^{i delta}, delta = +-1e-1 ... 1e-7 rad
  (lambda^-3 psi is 3 delta from the real locus), at a1 = 2 and a1 = 1e3.
* Modulus axis: psi = 1 and lambda = e^{0.3 i} at a1 = 10, 20, 50 and 1e3
  (k^2 = 0.95 ... 0.9996).
"""

from __future__ import annotations

import cmath
import pathlib
import sys

import numpy as np

OFFSETS = [s * 10.0**-e for e in range(1, 8) for s in (1.0, -1.0)]
LOCUS_A1 = (2.0, 1e3)
MODULUS_A1 = (10.0, 20.0, 50.0, 1e3)
POINTS_T = (0.6, 1.3, 3.7)
X = 0.3


def _cell(eq, oracle, a1: float, lam: complex) -> str:
    """The worst |F - F_ref| at the cell's points, or the name of the refusal."""
    try:
        c = eq.derive_constants(eq.SurfaceParams(a1, 1.0))
        es = eq.eigensystem(c, lam)
        worst = 0.0
        for t in POINTS_T:
            got = eq.lift_at(c, es, X, t * c.T).F
            want = oracle.lift_nonreal(a1, 1.0, lam, X, t * c.T)
            worst = max(worst, float(np.max(np.abs(got - want))))
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__
    return f"{worst:.1e}"


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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
