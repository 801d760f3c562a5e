"""Adaptive Simpson quadrature for smooth complex-valued integrands.

No package module imports it: lifts, grids, frames, beta integrals and
period phases are closed forms (immersion, iwasawa), and suite `elliptic`
checks K against Carlson's R_F.  The tests use this rule as the independent
route to the closed forms.  It stays in the package because the benchmark's
layer tracer (`bench/layertrace.py`, `LAYERS`) imports every traced module,
this one included.
"""

from __future__ import annotations

from typing import Callable


class QuadratureError(ArithmeticError):
    """The adaptive rule could not certify the requested accuracy."""


# recursion depth, evaluation budget and cap on the error of unconverged leaves
MAX_DEPTH = 30
MAX_EVALS = 200_000
ERR_CAP = 1e-6


def adaptive_simpson(
    f: Callable[[float], complex], a: float, b: float, tol: float = 1e-11
) -> complex:
    """Integral of f over [a, b] to absolute tolerance tol.

    Recursive Simpson with Richardson extrapolation of the final panel;
    intended for analytic integrands (all uses here are elliptic-function
    expressions whose denominators stay bounded away from zero).  Leaves
    that exhaust the recursion depth contribute their residual estimate to
    an error budget; if that budget passes ERR_CAP, or the evaluation
    budget runs out, a QuadratureError is raised instead of returning a
    silently inaccurate value (this happens only towards the singular loci,
    where the integrands develop near-poles).
    """
    if a == b:
        return 0.0
    state = [MAX_EVALS, 0.0]  # remaining evaluations, unconverged error

    def ev(t: float) -> complex:
        if state[0] <= 0:
            raise QuadratureError(f"quadrature on [{a:g}, {b:g}] ran out of budget")
        state[0] -= 1
        return f(t)

    fa, fm, fb = ev(a), ev(0.5 * (a + b)), ev(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    total = _simpson_step(ev, a, b, fa, fm, fb, whole, tol, MAX_DEPTH, state)
    if state[1] > ERR_CAP:
        raise QuadratureError(
            f"quadrature on [{a:g}, {b:g}] converged only to ~{state[1]:.1e}"
        )
    return total


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth, state):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        state[1] += abs(delta) / 15.0
        return left + right + delta / 15.0
    return _simpson_step(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1, state) + _simpson_step(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1, state
    )
