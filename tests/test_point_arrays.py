"""Arrays of points cost one pass and give the float path's values.

The non-real phase kernel `_phase_terms` is one harmonic sum per point; a
float y is a one-point array on its lines, so a float, a one-point array
and a row of a longer array give the same bits.  `_third_kind`, which
serves the complete integrals G_j(2T), takes one call for all three n_j
and gives, element for element, the bits of the float calls.  The point
evaluators (`lift_at`, `beta_integrals`, `extended_frame`,
`iwasawa_frame`) take arrays of points at one spectral object and agree
with their float calls to rounding.  `extended_frame` also takes a stack
of spectral objects of one regime (`stack_systems`), row for row against
its points, and so does `_third_kind` with rows of n_j; each stack row of
the phase kernels has the bits of the one-object array call at its point.
`suite_lift` checks its cross-route points with one array call per route,
and every point still counts.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equilag import elliptic, immersion, iwasawa, verification
from equilag.elliptic import _third_kind, jacobi
from equilag.linalg3 import EPS6
from equilag.potential import SurfaceParams, derive_constants, eigensystem, stack_systems

# n_j of both signs at this lambda (tests/test_float_path.py)
SURFACE = SurfaceParams(2.7, complex(0.4, 0.9))
LAM = cmath.exp(0.45j)

_n = st.one_of(
    st.floats(-1e12, -1e-8), st.floats(-1e-8, 0.999999),
    st.sampled_from([0.0, -1e-210, 0.999999, 1.0 - 2.0**-40, -1e12]),
)


@settings(max_examples=120, deadline=None)
@given(
    ns=st.lists(_n, min_size=1, max_size=4),
    k=st.floats(0.0, 0.998),
    phi=st.lists(st.one_of(st.just(0.0), st.floats(-math.pi / 2, math.pi / 2)),
                 min_size=1, max_size=12),
)
# p -> 0+: n -> 1 with cos phi -> 0, next to a tiny negative and a large one
@example(ns=[1.0 - 2.0**-40, -1e-210, -1e12], k=0.998, phi=[math.pi / 2, 1.5707963, 0.0, -1.2])
def test_third_kind_columns_match_float_calls_bit_for_bit(ns, k, phi):
    # the caller's forms of p: (1 - n) + n cos^2 for n > 0 keeps p -> 0+ accurate
    def p_of(n, s, c2):
        return (1.0 - n) + n * c2 if n > 0.0 else 1.0 - n * s * s

    s = np.sin(phi)
    c2 = np.cos(phi) ** 2
    d2 = 1.0 - (k * s) ** 2
    p = np.array([[p_of(n, si, ci) for n in ns] for si, ci in zip(s.tolist(), c2.tolist())])
    got = _third_kind(ns, p, s[:, None], c2[:, None], d2[:, None], k * k)
    want = [_third_kind(ns, row, si, ci, di, k * k)
            for si, ci, di, row in zip(s.tolist(), c2.tolist(), d2.tolist(), p.tolist())]
    assert got.shape == (len(phi), len(ns))
    assert got.tobytes() == np.array(want).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(st.lists(_n, min_size=3, max_size=3),
                            st.one_of(st.just(0.0), st.floats(-math.pi / 2, math.pi / 2))),
                  min_size=1, max_size=12),
    k=st.floats(0.0, 0.998),
)
# both signs in one row and in one column, the tiny negative beside the huge one
@example(rows=[([0.3, -1e-210, -1e12], 1.2), ([-1e12, 0.999999, -1e-210], -0.7),
               ([-1e-210, -0.5, 1.0 - 2.0**-40], math.pi / 2), ([0.1, -3.0, 0.0], 0.0)], k=0.9)
def test_third_kind_rows_of_n_match_float_calls_bit_for_bit(rows, k):
    # one n_j triple per row, as a stack of spectral objects gives them
    ns = np.array([n for n, _ in rows])
    phi = np.array([ph for _, ph in rows])
    s, c2 = np.sin(phi)[:, None], (np.cos(phi) ** 2)[:, None]
    d2 = 1.0 - (k * s) ** 2
    p = np.where(ns > 0.0, (1.0 - ns) + ns * c2, 1.0 - ns * s * s)
    got = _third_kind(ns, p, s, c2, d2, k * k)
    want = [_third_kind(tuple(n), tuple(pj), float(si), float(ci), float(di), k * k)
            for n, pj, si, ci, di in zip(ns.tolist(), p.tolist(), s[:, 0], c2[:, 0], d2[:, 0])]
    assert got.shape == ns.shape
    assert np.isfinite(got).all()
    assert got.tobytes() == np.array(want).tobytes()


@pytest.fixture(scope="module")
def spectral():
    c = derive_constants(SURFACE)
    return c, eigensystem(c, LAM)


@settings(max_examples=60, deadline=None)
@given(y_over_t=st.lists(st.floats(-7.0, 9.0), min_size=1, max_size=20))
@example(y_over_t=[0.0, -2.0, 2.0, 4.0, 1.0])     # y = 0 and whole periods
@example(y_over_t=[-5.3, 6.1, 8.99, 0.5])         # three periods either way beside the first
def test_phase_terms_rows_match_float_calls_bit_for_bit(spectral, y_over_t):
    c, es = spectral
    assert min(immersion._g_segment(c, es).n) < 0.0 < max(immersion._g_segment(c, es).n)
    ys = np.array([t * c.T for t in y_over_t])
    s, phases = immersion._phase_terms(c, es, ys)
    for i, y in enumerate(ys.tolist()):
        for point in (y, ys[i:i + 1]):  # a float, and a one-point array
            ws, wphases = immersion._phase_terms(c, es, point)
            assert s[i].tobytes() == np.reshape(ws, 3).tobytes()
            assert phases[i].tobytes() == np.reshape(wphases, 3).tobytes()


def _surfaces():
    nonreal = derive_constants(SurfaceParams(2.0, complex(np.exp(1j * np.pi / 4))))
    real = derive_constants(SurfaceParams(1.0, 1.0 / math.sqrt(3.0)))
    c = derive_constants(SURFACE)
    return {"bench_nonreal": (nonreal, 1.0), "both_signs": (c, LAM), "torus": (real, 1.0)}


@pytest.mark.parametrize("case", ["bench_nonreal", "both_signs", "torus"])
def test_point_evaluators_on_arrays_match_their_float_calls(case):
    c, lam = _surfaces()[case]
    es = eigensystem(c, lam)
    ys = np.concatenate([[0.0], np.linspace(-3.0 * c.T, 5.0 * c.T, 23)])
    xs = np.linspace(-1.0, 1.0, ys.size)
    zs = xs + 1j * ys
    points = list(zip(xs.tolist(), ys.tolist()))

    def close(got, want):
        want = np.array(want)
        assert got.shape == want.shape
        scale = np.maximum(1.0, np.max(np.abs(want).reshape(len(want), -1), axis=1))
        err = np.max(np.abs(got - want).reshape(len(want), -1), axis=1)
        assert np.all(err <= 1e-13 * scale), float(np.max(err / scale))

    close(immersion.lift_at(c, es, xs, ys).F, [immersion.lift_at(c, es, x, y).F for x, y in points])
    close(iwasawa.extended_frame(c, es, zs), [iwasawa.extended_frame(c, es, z) for z in zs.tolist()])
    if es.regime != "nonreal":
        return
    b1, b2 = iwasawa.beta_integrals(c, es, ys)
    want = [iwasawa.beta_integrals(c, es, y) for y in ys.tolist()]
    close(b1, [w[0] for w in want])
    close(b2, [w[1] for w in want])
    assert b1[0] == b2[0] == 0.0  # beta(0) = 0 exactly, as at a float y
    close(iwasawa.iwasawa_frame(c, es, zs), [iwasawa.iwasawa_frame(c, es, z) for z in zs.tolist()])


@pytest.mark.parametrize("point", [0, 25, 49])
def test_suite_lift_sees_every_cross_route_point(monkeypatch, point):
    # the Iwasawa route's lift column at one point off by 10x the threshold
    frame = iwasawa.iwasawa_frame
    threshold = 1e-8

    def planted(c, es, z):
        fr = frame(c, es, z).copy()
        fr[point, :, 2] *= 1.0 + 10.0 * threshold
        return fr

    monkeypatch.setattr(iwasawa, "iwasawa_frame", planted)
    result = verification.suite_lift()
    assert result.thresholds["cross_route"] == threshold
    assert result.residuals["cross_route"] > 5.0 * threshold
    assert not result.passed


def test_suite_lift_bounds_its_carlson_rj_calls(monkeypatch):
    # one R_J call per array pass (the 64 x 64 grid, the finite-difference
    # sweep, the 50 lift points, their 50 beta pairs), three per full-period
    # memo miss (one spectral object per route): 13, where a per-point
    # finite-difference sweep took 39 and a per-point cross route 339
    calls = []
    kernel = elliptic._carlson_rj

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(elliptic, "_carlson_rj", counted)
    immersion._g_full_period.cache_clear()
    assert verification.suite_lift().passed
    assert len(calls) <= 4 + 9


# ---------------------------------------------------------------------------
# stacks of spectral objects

def _stack_cases():
    """Per case the surface and lambda whose rows may share a stack: one regime each."""
    surfaces = _surfaces()
    nonreal, both_signs, torus = (surfaces[k][0] for k in ("bench_nonreal", "both_signs", "torus"))
    real = [cmath.exp(1j * (cmath.phase(torus.psi) + k * math.pi) / 3.0) for k in range(6)]
    return {
        # the twist eps lambda of each lambda beside it, as suite_frame stacks them
        "bench_nonreal": (nonreal, [1.0, EPS6, cmath.exp(2.1j), EPS6 * cmath.exp(2.1j)]),
        "both_signs": (both_signs, [LAM, EPS6 * LAM, cmath.exp(1.3j)]),
        "torus_nonreal": (torus, [1j * cmath.exp(0.3j), cmath.exp(0.7j)]),
        "torus_real": (torus, real),
    }


@pytest.fixture(scope="module")
def stack_cases():
    return {name: (c, [eigensystem(c, lam) for lam in lams])
            for name, (c, lams) in _stack_cases().items()}


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(_stack_cases())),
       rows=st.lists(st.tuples(st.integers(0, 5), st.floats(-1.0, 1.0), st.floats(-7.0, 9.0)),
                     min_size=1, max_size=24))
@example(case="both_signs", rows=[(0, 0.0, 0.0), (1, 0.3, 2.0), (2, -0.5, -5.3), (0, 1.0, 8.99)])
@example(case="torus_real", rows=[(k, 0.1 * k, 2.0 * k - 5.0) for k in range(6)])
def test_stacked_frame_rows_match_their_own_calls(stack_cases, case, rows):
    c, systems = stack_cases[case]
    picked = [systems[i % len(systems)] for i, _, _ in rows]
    zs = np.array([complex(x, t * c.T) for _, x, t in rows])  # rows with m != 0 among them
    got = iwasawa.extended_frame(c, stack_systems(picked), zs)
    assert got.shape == (len(rows), 3, 3)
    for row, es, z in zip(got, picked, zs.tolist()):
        want = iwasawa.extended_frame(c, es, z)
        assert np.max(np.abs(row - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("case", sorted(_stack_cases()))
def test_stack_of_one_is_the_single_array_call(stack_cases, case):
    c, systems = stack_cases[case]
    for es in systems:
        z = np.array([complex(0.4, 3.7 * c.T)])
        one = iwasawa.extended_frame(c, stack_systems([es]), z)
        assert one.tobytes() == iwasawa.extended_frame(c, es, z).tobytes()


def test_stack_fields_are_rows_of_their_objects(stack_cases):
    for c, systems in stack_cases.values():
        stack = stack_systems(systems)
        m = len(systems)
        shapes = {"lam": (m,), "cubic": (m,), "d": (m, 3), "fprime": (m, 3),
                  "vectors": (m, 3, 3), "gaps": (m, 3, 3)}
        for name, shape in shapes.items():
            field = getattr(stack, name)
            assert field.shape == shape
            assert field.tobytes() == np.array([getattr(es, name) for es in systems]).tobytes()
        assert stack.regime == systems[0].regime
        if stack.regime == "real":
            assert stack.labels.tolist() == [list(es.labels) for es in systems]
        else:
            assert stack.labels is None
        assert stack != stack_systems(systems) and hash(stack) == object.__hash__(stack)


@pytest.mark.parametrize("case", ["bench_nonreal", "both_signs", "torus_nonreal"])
def test_stacked_phase_constants_are_rows_of_their_objects(stack_cases, case):
    c, systems = stack_cases[case]
    g = immersion._g_segment(c, stack_systems(systems))
    one = [immersion._g_segment(c, es) for es in systems]
    for name in g._fields[:4]:
        want = np.array([getattr(gi, name) for gi in one])
        assert getattr(g, name).shape == want.shape
        assert getattr(g, name).tobytes() == want.tobytes(), name
    # the theta tables, from the same Python floats per object
    for name in g.theta._fields:
        want = np.array([getattr(gi.theta, name) for gi in one])
        got = getattr(g.theta, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def _real_vals(c, sn, cn, dn):
    """The sn, cn and dn mode coefficients, as `_coefficients` passes them to `_real_rows`."""
    cs = immersion._real_amplitudes(c)
    return cs[0] * sn, cs[1] * cn, cs[2] * dn


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(_stack_cases())),
       rows=st.lists(st.tuples(st.integers(0, 5), st.floats(-7.0, 9.0)), min_size=1, max_size=24))
@example(case="both_signs", rows=[(0, 0.0), (1, 2.0), (2, -5.3), (0, 8.99), (1, 0.5)])
@example(case="torus_real", rows=[(k, 2.0 * k - 5.0) for k in range(6)])
def test_stack_rows_are_one_object_array_calls_bit_for_bit(stack_cases, case, rows):
    # each row of a stack against the one-object array call at its point,
    # on the same sn, cn, dn: the stack runs the same array lines
    c, systems = stack_cases[case]
    picked = [systems[i % len(systems)] for i, _ in rows]
    stack = stack_systems(picked)
    ys = np.array([t * c.T for _, t in rows])
    jac = jacobi(c.r * ys, c.k)
    one = [slice(i, i + 1) for i in range(len(rows))]
    if stack.regime == "real":
        got = immersion._real_rows(ys, stack.labels, _real_vals(c, *jac))
        want = [immersion._real_rows(ys[i], es.labels, _real_vals(c, *(t[i] for t in jac)))
                for i, es in zip(one, picked)]
        assert got.tobytes() == np.concatenate(want).tobytes()
        return
    s, phases = immersion._phase_terms(c, stack, ys)
    for i, es in zip(one, picked):
        ws, wphases = immersion._phase_terms(c, es, ys[i])
        assert s[i].tobytes() == ws.tobytes()
        assert phases[i].tobytes() == wphases.tobytes()


def test_a_stack_holds_one_regime(stack_cases):
    _, real = stack_cases["torus_real"]
    _, nonreal = stack_cases["torus_nonreal"]
    with pytest.raises(ValueError, match="one regime"):
        stack_systems([*nonreal, real[0]])
    with pytest.raises(ValueError, match="one regime"):
        stack_systems([])
