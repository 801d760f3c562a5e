"""The scalar path stays on Python floats.

A float y runs the Carlson kernels on their `math` branch.  That branch
also accepts numpy scalars, at about half the speed, so a numpy scalar
that leaks out of the per-object constants slows every point evaluation
without changing a bit.  These tests pin the boundary: the constants are
Python floats, the kernels see only Python floats, and a numpy scalar
would give the same value.  They also count the work of one point: a lift
point looks its phase constants up once, and a frame point samples the
metric once.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilag import elliptic, immersion, iwasawa, metric
from equilag.iwasawa import beta_integrals, extended_frame, monodromy_data
from equilag.potential import SurfaceParams, derive_constants, eigensystem

# n_j of both signs here, so both forms of _third_kind run
SURFACE = SurfaceParams(2.7, complex(0.4, 0.9))
LAM = cmath.exp(0.45j)


@pytest.fixture
def spectral():
    c = derive_constants(SURFACE)
    return c, eigensystem(c, LAM)


def test_per_object_constants_are_python_floats(spectral):
    c, es = spectral
    g = immersion._g_segment(c, es)
    assert min(g.n) < 0.0 < max(g.n)
    values = [v for field in g for v in field]
    values += [*immersion._g_full_period(c, es), *monodromy_data(c, es)]
    assert len(values) == 4 * 3 + 3 + 2
    assert [type(v).__name__ for v in values if type(v) is not float] == []


@pytest.fixture
def carlson_calls(monkeypatch):
    """(kernel name, args) of every R_F, R_C and R_J call, by spies over the module."""
    calls = []
    for name in ("_carlson_rf", "_carlson_rc", "_carlson_rj"):
        def spy(*args, _name=name, _kernel=getattr(elliptic, name)):
            calls.append((_name, args))
            return _kernel(*args)

        monkeypatch.setattr(elliptic, name, spy)
    return calls


def test_carlson_kernels_see_python_floats(spectral, carlson_calls):
    c, es = spectral
    immersion.lift_at(c, es, 0.3, 0.6 * c.T)
    immersion.lift_at(c, es, -0.2, 3.3 * c.T)  # y > 2T: adds the complete G_j(2T)
    extended_frame(c, es, complex(0.1, 1.7 * c.T))
    beta_integrals(c, es, 2.6 * c.T)
    assert {name for name, _ in carlson_calls} == {"_carlson_rf", "_carlson_rc", "_carlson_rj"}
    leaks = {(name, type(a).__name__) for name, args in carlson_calls for a in args
             if type(a) is not float}
    assert leaks == set()


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.floats(-50.0, -1e-8), st.floats(-1e-8, 0.999)),
    phi=st.floats(-1.5, 1.5),
    k2=st.floats(0.0, 0.99),
)
def test_numpy_scalar_n_and_p_give_the_same_bits(n, phi, k2):
    s = math.sin(phi)
    c2 = math.cos(phi) ** 2
    d2 = 1.0 - k2 * s * s
    p = 1.0 - n * s * s
    want = elliptic._third_kind(n, p, s, c2, d2, k2)
    got = elliptic._third_kind(np.float64(n), np.float64(p), s, c2, d2, k2)
    assert type(want) is float
    assert float(got).hex() == want.hex()


# One memo lookup and one metric sample per point: each repeat is a hash of
# the 13-field DerivedConstants, or a jacobi-free but allocating sample.

@pytest.fixture
def metric_samples(monkeypatch):
    """The (sn, cn, dn) of every `_from_jacobi` call, through every module that binds it."""
    calls = []
    sample = metric._from_jacobi

    def counted(c, jac):
        calls.append(tuple(jac))
        return sample(c, jac)

    for mod in (metric, immersion, iwasawa):
        if hasattr(mod, "_from_jacobi"):
            monkeypatch.setattr(mod, "_from_jacobi", counted)
    return calls


def test_extended_frame_samples_the_metric_once(spectral, metric_samples):
    c, es = spectral
    assert es.regime == "nonreal"
    zs = [complex(0.1, 0.3 * c.T), complex(-0.4, 1.7 * c.T), complex(0.2, 3.3 * c.T)]
    for z in zs:
        extended_frame(c, es, z)
    # sn alone repeats (sn(r y) is even about y = T); the triple tells each y apart
    assert metric_samples == [tuple(elliptic.jacobi(c.r * z.imag, c.k)) for z in zs]


def test_lift_point_looks_its_phase_constants_up_once(spectral):
    c, es = spectral
    immersion.lift_at(c, es, 0.3, 0.6 * c.T)  # warm every memo of es
    immersion.lift_at(c, es, 0.3, 1.6 * c.T)
    ys = [0.0, 0.3 * c.T, 0.9 * c.T, 1.5 * c.T, 1.9 * c.T, -0.7 * c.T]
    info = immersion._g_segment.cache_info()
    for y in ys:
        immersion.lift_at(c, es, 0.3, y)
    after = immersion._g_segment.cache_info()
    assert (after.hits + after.misses) - (info.hits + info.misses) == len(ys)
    assert after.misses == info.misses
    # beta_integrals, whose domain check hands its constants on, likewise
    for y in ys[1:]:
        beta_integrals(c, es, y)
    final = immersion._g_segment.cache_info()
    assert (final.hits + final.misses) - (after.hits + after.misses) == len(ys) - 1
