"""The scalar hot kernels keep the bits of the bodies they replaced.

`jacobi` reads its phase tables from the AGM memo and no longer clamps
(|c_n / a_n sin phi| < 1 and k sn < 1 already for k < 1), and
`solve_depressed_cubic` polishes on Python floats with numpy's cube and
takes its small root from the middle one.  Each must give exactly the old
result, at moduli up to 1 - 2^-53 and at signed-zero, subnormal and large
arguments: every lift, frame and CLI file is built on them.  The old
bodies are in `kernel_oracles`.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
import test_elliptic
from equilag import elliptic, linalg3

# moduli whose AGM chain once ran to its cap, both closed-form limits and
# moduli up to the last float below 1, where the phase ratios come nearest 1
CAPPED = test_elliptic.TestAgmScheme.FORMERLY_CAPPED
TOP = 1.0 - 2.0**-53
MODULI = st.one_of(
    st.floats(0.0, TOP),
    st.sampled_from((0.0, 1.0, 0.9999999, TOP, *CAPPED)),
)
# arguments up to +-1e6, signed zeros and subnormals (a subnormal phase)
ARGUMENTS = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.5e-323, -2.5e-310, 2.225073858507201e-308)),
)


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
        z = z / 2e3  # keeps cosh below its overflow near 710
    assert _bits(elliptic.jacobi(z, k)) == _bits(oracle.jacobi(z, k))


@settings(max_examples=200, deadline=None)
@given(k=st.one_of(st.floats(0.0, TOP), st.sampled_from((0.9999999, TOP, *CAPPED))))
def test_complete_K_keeps_its_bits(k):
    assert elliptic.complete_K(k).hex() == oracle.complete_K(k).hex()


@settings(max_examples=400, deadline=None)
@given(beta=st.floats(2.0, 40.0),
       t=st.one_of(st.floats(-1.0, 1.0), st.sampled_from((1.0, -1.0))),
       tiny=st.sampled_from((None, 0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-17, -1e-17)))
def test_cubic_polish_keeps_its_bits(beta, t, tiny):
    # the eigenvalue cubic d^3 - beta d + 2 Re over its whole range of Re,
    # +-q_max included; or q = +-0, a subnormal q, or q = +-1e-17 beta^2,
    # whose middle root d ~ q / beta lies near +-1e-17 beta
    q = t * 2.0 * (beta / 3.0) ** 1.5
    if tiny is not None:
        q = tiny * beta * beta if abs(tiny) == 1e-17 else tiny
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
