"""The scalar hot kernels keep the bits of the bodies they replaced.

`jacobi` reads its phase tables from the AGM memo and clamps by
comparisons, and `solve_depressed_cubic` polishes on Python floats with
numpy's cube.  Each must give exactly the old result: every lift, frame and
CLI file is built on them.  The old bodies are in `kernel_oracles`.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
import test_elliptic
from equilag import elliptic, linalg3

# moduli whose AGM chain once ran to its cap, and both closed-form limits
CAPPED = test_elliptic.TestAgmScheme.FORMERLY_CAPPED
MODULI = st.one_of(
    st.floats(0.0, 0.9999),
    st.sampled_from((0.0, 1.0, *CAPPED)),
)
ARGUMENTS = st.floats(-1e3, 1e3)


def _bits(values) -> list:
    """The exact bits of a float or of every entry of an array, with the type."""
    return [(type(v).__name__, np.asarray(v).tobytes()) for v in values]


def _outcome(f, *args):
    try:
        return _bits(f(*args))
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


@settings(max_examples=400, deadline=None)
@given(k=MODULI, z=ARGUMENTS)
def test_float_jacobi_keeps_its_bits(k, z):
    got = _outcome(elliptic.jacobi, z, k)
    assert got == _outcome(oracle.jacobi, z, k)
    assert got == "OverflowError" or [t for t, _ in got] == ["float"] * 3


@settings(max_examples=60, deadline=None)
@given(k=MODULI, zs=st.lists(ARGUMENTS, min_size=1, max_size=64))
def test_array_jacobi_keeps_its_bits(k, zs):
    z = np.array(zs)
    if k == 1.0:
        z = z / 10.0  # keeps cosh below its overflow near 710
    assert _bits(elliptic.jacobi(z, k)) == _bits(oracle.jacobi(z, k))


@settings(max_examples=200, deadline=None)
@given(k=st.one_of(st.floats(0.0, 0.9999), st.sampled_from(CAPPED)))
def test_complete_K_keeps_its_bits(k):
    assert elliptic.complete_K(k).hex() == oracle.complete_K(k).hex()


@settings(max_examples=400, deadline=None)
@given(beta=st.floats(2.0, 40.0), t=st.floats(-1.0, 1.0))
def test_cubic_polish_keeps_its_bits(beta, t):
    # the eigenvalue cubic d^3 - beta d + 2 Re over its whole range of Re
    q = t * 2.0 * (beta / 3.0) ** 1.5
    roots, multiple = linalg3.solve_depressed_cubic(-beta, q)
    want, want_multiple = oracle.solve_depressed_cubic(-beta, q)
    assert roots.tobytes() == want.tobytes()
    assert multiple == want_multiple


@settings(max_examples=200, deadline=None)
@given(k=MODULI)
def test_agm_memo_holds_the_phase_tables(k):
    scheme = elliptic._agm_scheme(k)
    a, _, c = oracle.agm_scheme(k)
    assert scheme[:3] == oracle.agm_scheme(k)
    n_last = len(a) - 1
    assert scheme.four_K == 2.0 * math.pi / a[-1]  # 4 (pi / (2 a_N)) scales exactly
    assert scheme.scale == 2.0**n_last * a[-1]
    assert scheme.ratios == tuple(c[n] / a[n] for n in range(n_last, 0, -1))
