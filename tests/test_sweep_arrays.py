"""The verification sweeps run as one array pass each, and every point still counts.

`jacobi` takes an array of moduli and `solve_depressed_cubic` an array of
q, so `suite_elliptic` checks its 1,000 (k, z) pairs with one `jacobi`
call and `suite_potential` its 360 lambda with one cubic solve;
`suite_identities` takes one array `metric_at` per lambda and
`verify_geometry` evaluates its stencils at all points at once;
`suite_frame` takes all its frames of one surface and regime from one
`extended_frame` call on a stack of spectral objects.  The array forms
must give the float calls' values, an error planted at one point of a pass
must fail its suite, and a NaN residual must fail its suite too.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_elliptic
from equilag import immersion, iwasawa, linalg3, potential, verification
from equilag.elliptic import JacobiTriple, jacobi

# moduli whose AGM chain once ran to its cap, and both closed-form limits
CAPPED = test_elliptic.TestAgmScheme.FORMERLY_CAPPED
MODULI = st.one_of(st.floats(0.0, 0.9999),
                   st.sampled_from((0.0, 1.0, 0.999, 0.9999999, 1.0 - 2.0**-53, *CAPPED)))


def _bits(triple) -> list:
    return [np.asarray(v).tobytes() for v in triple]


@settings(max_examples=80, deadline=None)
@given(pairs=st.lists(st.tuples(MODULI, st.floats(-1e3, 1e3)), min_size=1, max_size=40))
# chains of 0 to 5 levels and both closed forms side by side
@example(pairs=[(0.0, 0.3), (1.0, -2.0), (0.999, 17.5), (1e-9, 4.0), (CAPPED[0], -0.7),
                (CAPPED[2], 900.0), (0.5, 0.0), (0.9999, -1e3)])
# subnormal phases of chains of 5 and 6 levels next to one of 9: halving
# 2^9 a z back to 2^5 a z would round them twice (sn(5e-324) would be 0)
@example(pairs=[(0.917, 5e-324), (0.62, 1.5e-323), (0.813, -1.5e-323), (1.0 - 2.0**-53, 0.0)])
def test_jacobi_over_moduli_matches_each_element_bit_for_bit(pairs):
    k, z = (np.array(v) for v in zip(*pairs))
    z = np.where(k == 1.0, z / 10.0, z)  # keeps cosh below its overflow near 710
    got = jacobi(z, k)
    assert all(v.shape == z.shape for v in got)
    for i, ki in enumerate(k.tolist()):
        assert _bits(v[i:i + 1] for v in got) == _bits(jacobi(z[i:i + 1], ki)), (z[i], ki)


def test_jacobi_over_moduli_takes_a_float_argument_and_any_shape():
    k = np.array([[0.0, 0.3], [0.9, 1.0]])
    got = jacobi(0.7, k)
    assert all(v.shape == (2, 2) for v in got)
    for idx in np.ndindex(k.shape):
        assert _bits(v[idx] for v in got) == _bits(jacobi(np.array([0.7]), float(k[idx])))


@pytest.mark.parametrize("bad", [-0.1, -1e-300, 1.0 + 2.0**-52, 7.0, math.inf, -math.inf,
                                 math.nan])
def test_jacobi_over_moduli_refuses_as_the_float_path(bad):
    with pytest.raises(ValueError) as want:
        jacobi(0.2, bad)
    with pytest.raises(ValueError) as got:
        jacobi(np.array([0.3, 0.2, 0.1]), np.array([0.5, bad, 0.4]))
    assert str(got.value) == str(want.value)


def test_jacobi_over_moduli_refuses_a_non_finite_argument():
    with pytest.raises(ValueError, match="finite"):
        jacobi(np.array([0.3, math.inf]), np.array([0.5, 0.6]))


@settings(max_examples=150, deadline=None)
@given(beta=st.floats(2.0, 40.0),
       ts=st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, 1.0, -1.0, 1e-300, -1e-9])),
                   min_size=1, max_size=30))
def test_cubic_rows_match_the_float_calls(beta, ts):
    # the eigenvalue cubic d^3 - beta d + 2 Re over its whole range of Re
    q = np.array(ts) * 2.0 * (beta / 3.0) ** 1.5
    rows, multiple = linalg3.solve_depressed_cubic(-beta, q)
    assert rows.shape == (len(ts), 3) and multiple.shape == (len(ts),)
    for row, flag, qi in zip(rows, multiple.tolist(), q.tolist()):
        want, want_flag = linalg3.solve_depressed_cubic(-beta, qi)
        assert flag == want_flag
        assert np.all(np.abs(row - want) <= np.spacing(np.max(np.abs(want)))), (qi, row, want)


def test_cubic_rows_take_any_shape():
    q = np.random.default_rng(3).uniform(-2.0, 2.0, (4, 5))
    rows, multiple = linalg3.solve_depressed_cubic(-4.25, q)
    assert rows.shape == (4, 5, 3) and multiple.shape == (4, 5)
    for idx in np.ndindex(q.shape):
        want, _ = linalg3.solve_depressed_cubic(-4.25, float(q[idx]))
        assert np.all(np.abs(rows[idx] - want) <= np.spacing(np.max(np.abs(want))))


# ---------------------------------------------------------------------------
# call counts: one pass per sweep

def _counting(monkeypatch, module, name, calls, *more_modules):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (module, *more_modules):
        monkeypatch.setattr(mod, name, counted)


def test_suite_elliptic_makes_one_jacobi_call(monkeypatch):
    calls = []
    _counting(monkeypatch, verification, "jacobi", calls)
    assert verification.suite_elliptic().passed
    assert len(calls) == 1
    assert calls[0][0].shape == calls[0][1].shape == (1000,)


def test_suite_potential_builds_no_eigensystem(monkeypatch):
    calls, solves = [], []
    _counting(monkeypatch, potential, "eigensystem", calls, verification)
    _counting(monkeypatch, linalg3, "solve_depressed_cubic", solves)
    assert verification.suite_potential().passed
    assert calls == []
    # one solve over the 354 lambda off the six hyperplane points
    assert len(solves) == 1 and solves[0][1].shape == (354,)


def test_suite_identities_makes_one_metric_call_per_lambda(monkeypatch):
    samples, spectral = [], []
    _counting(monkeypatch, verification, "metric_at", samples)
    _counting(monkeypatch, verification, "eigensystem", spectral)
    assert verification.suite_identities().passed
    assert len(samples) == len(spectral) > 0
    assert all(y.shape == (30,) for _, y in samples)


def test_suite_frame_makes_one_frame_call_per_surface_and_regime(monkeypatch):
    calls = []
    _counting(monkeypatch, iwasawa, "extended_frame", calls)
    assert verification.suite_frame().passed
    # BENCH_NONREAL's random lambda, then BENCH_REAL's random and real ones
    assert [(c.a1, es.regime) for c, es, _ in calls] == [
        (2.0, "nonreal"), (1.0, "nonreal"), (1.0, "real")]
    for _, es, z in calls:  # no float call: a stack and its points, row for row
        assert isinstance(es.lam, np.ndarray) and isinstance(z, np.ndarray)
        assert z.shape == es.lam.shape
    # seven rows per lambda, and the twist row of each non-real lambda
    assert [z.size for _, _, z in calls] == [48, 48, 42]


def test_verify_geometry_makes_no_float_coefficient_call(monkeypatch, bench_nonreal):
    calls = []
    _counting(monkeypatch, immersion, "_coefficients", calls)
    xs, ys = np.linspace(0.1, 1.9, 3), np.linspace(0.1, 2.0 * bench_nonreal.T - 0.1, 4)
    immersion.verify_geometry(bench_nonreal, 1.0, xs, ys)
    assert len(calls) == 1
    assert calls[0][2].shape == (12,)  # y - h, y and y + h of the four y


# ---------------------------------------------------------------------------
# an error planted at one point of a pass fails the suite

@pytest.mark.parametrize("point", [0, 517, 999])
def test_suite_elliptic_sees_every_pair(monkeypatch, point):
    threshold = 1e-12

    def planted(z, k):
        sn, cn, dn = (v.copy() for v in jacobi(z, k))
        for v in (sn, cn, dn):
            v[point] *= 1.0 + 10.0 * threshold  # both identities move by 20x the threshold
        return JacobiTriple(sn, cn, dn)

    monkeypatch.setattr(verification, "jacobi", planted)
    result = verification.suite_elliptic()
    assert result.thresholds["sn2_cn2"] == result.thresholds["k2sn2_dn2"] == threshold
    assert result.residuals["sn2_cn2"] > 5.0 * threshold
    assert result.residuals["k2sn2_dn2"] > 5.0 * threshold
    assert not result.passed


@pytest.mark.parametrize("row", [0, 200, 353])
def test_suite_potential_sees_every_lambda(monkeypatch, row):
    threshold = 1e-10
    solve = linalg3.solve_depressed_cubic

    def planted(p, q):
        roots, multiple = solve(p, q)
        roots = roots.copy()
        roots[row] *= 1.0 + 10.0 * threshold  # the pair sum moves by 20 beta x the threshold
        return roots, multiple

    monkeypatch.setattr(linalg3, "solve_depressed_cubic", planted)
    result = verification.suite_potential()
    assert result.thresholds["viete"] == threshold
    assert result.residuals["viete"] > 5.0 * threshold
    assert not result.passed


@pytest.mark.parametrize("sample", [0, 14, 29])
def test_suite_identities_sees_every_metric_sample(monkeypatch, sample):
    threshold = 1e-9
    metric_at = verification.metric_at

    def planted(c, y):
        m = metric_at(c, y)
        w = m.w.copy()
        w[sample] *= 1.0 + 10.0 * threshold
        return replace(m, w=w)

    monkeypatch.setattr(verification, "metric_at", planted)
    result = verification.suite_identities()
    assert result.thresholds["factor_identity"] == threshold
    assert result.residuals["factor_identity"] > 5.0 * threshold
    assert not result.passed


@pytest.mark.parametrize("row", [0, 4, 8])  # y - h at the first y, y at the second, y + h at the last
def test_suite_lift_sees_every_stencil_point(monkeypatch, row):
    threshold = 1e-6
    coefficients = immersion._coefficients

    def planted(c, es, y, jac=None):
        p = coefficients(c, es, y, jac)
        if np.shape(y) == (9,):  # the finite-difference rows of the 3 x 3 sweep
            p = p.copy()
            p[row] *= 1.0 + 10.0 * threshold
        return p

    monkeypatch.setattr(immersion, "_coefficients", planted)
    result = verification.suite_lift()
    assert result.thresholds["fd_geometry"] == threshold
    assert result.residuals["fd_geometry"] > 5.0 * threshold
    assert not result.passed


def _plant_frames(monkeypatch, rows, factor):
    """suite_frame's stacked frames scaled by factor on the rows picked by rows(c, es, z)."""
    frame = iwasawa.extended_frame

    def planted(c, es, z):
        fr = frame(c, es, z).copy()
        fr[rows(c, es, z)] *= factor
        return fr

    monkeypatch.setattr(iwasawa, "extended_frame", planted)


def _first_lambda(es) -> np.ndarray:
    """The seven rows of a stack's first lambda."""
    return es.lam == es.lam[0]


@pytest.mark.parametrize("surface, regime", [(2.0, "nonreal"), (1.0, "nonreal"), (1.0, "real")])
def test_suite_frame_sees_one_lambda_of_each_surface(monkeypatch, surface, regime):
    threshold = 1e-9

    def rows(c, es, z):
        return _first_lambda(es) & (c.a1 == surface) & (es.regime == regime)

    _plant_frames(monkeypatch, rows, 1.0 + 10.0 * threshold)
    result = verification.suite_frame()
    assert result.thresholds["su3"] == threshold
    assert result.residuals["su3"] > 5.0 * threshold
    assert not result.passed


@pytest.mark.parametrize("surface", [2.0, 1.0])
@pytest.mark.parametrize("which", [0, -1])
def test_suite_frame_sees_a_twist_row(monkeypatch, surface, which):
    threshold = 1e-9

    def rows(c, es, z):
        # a twisted frame is the one row at its lambda; the others have seven
        single = np.flatnonzero([np.count_nonzero(es.lam == lam) == 1 for lam in es.lam])
        pick = np.zeros(z.shape, dtype=bool)
        if single.size and c.a1 == surface:
            pick[single[which]] = True
        return pick

    _plant_frames(monkeypatch, rows, 1.0 + 10.0 * threshold)
    result = verification.suite_frame()
    assert result.thresholds["twisting"] == threshold
    assert result.residuals["twisting"] > 2.0 * threshold
    assert result.residuals["su3"] < threshold  # no other frame moved
    assert not result.passed


def test_suite_frame_sees_a_finite_difference_row(monkeypatch):
    threshold = 1e-6

    def rows(c, es, z):
        # at the first lambda, the stencil rows z and z +- h, z +- ih lie within 2h of
        # one another; z + h has the largest real part among them
        at = np.flatnonzero(_first_lambda(es))
        near = [i for i in at if np.sum(np.abs(z[at] - z[i]) < 1e-4) > 1]
        pick = np.zeros(z.shape, dtype=bool)
        pick[max(near, key=lambda i: z[i].real)] = c.a1 == 2.0
        return pick

    _plant_frames(monkeypatch, rows, 1.0 + 10.0 * threshold)
    result = verification.suite_frame()
    assert result.thresholds["maurer_cartan"] == threshold
    assert result.residuals["maurer_cartan"] > 5.0 * threshold
    assert result.residuals["su3"] < 1e-9  # the frame at z itself did not move
    assert not result.passed


# ---------------------------------------------------------------------------
# a NaN residual fails its suite

def test_nan_frame_at_zero_fails_suite_frame(monkeypatch):
    frame = iwasawa.extended_frame

    def nan_at_zero(c, es, z):
        fr = frame(c, es, z).copy()
        fr[z == 0] = complex(math.nan, math.nan)  # the stacked call's frames at z = 0
        return fr

    monkeypatch.setattr(iwasawa, "extended_frame", nan_at_zero)
    result = verification.suite_frame()
    assert math.isnan(result.residuals["frame_at_zero"])
    assert not result.passed


@pytest.mark.parametrize("field", [f.name for f in fields(immersion.GeometryReport)])
def test_nan_geometry_residual_fails_suite_lift(monkeypatch, field):
    verify = immersion.verify_geometry

    def nan_field(*args):
        return replace(verify(*args), **{field: math.nan})

    monkeypatch.setattr(immersion, "verify_geometry", nan_field)
    result = verification.suite_lift()
    assert math.isnan(result.residuals["fd_geometry"])
    assert not result.passed

