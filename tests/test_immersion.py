import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import equilag
from equilag import iwasawa, linalg3
from equilag.elliptic import jacobi
from equilag.immersion import (
    ChartError,
    GridSample,
    LiftSample,
    RegimeError,
    _coefficients,
    _coefficients_and_derivatives,
    lift_at,
    phase_integrals,
    project_chart,
    sample_grid,
    verify_geometry,
)
from equilag.iwasawa import (
    beta_integrals,
    extended_frame,
    iwasawa_frame,
    monodromy_data,
    q_factor,
    u_plus,
)
from equilag.metric import MetricSample, metric_at
from equilag.periodicity import classify_torus, monodromy_phases
from equilag.potential import (
    FlatCliffordError,
    HyperplaneDegenerateError,
    SurfaceParams,
    derive_constants,
    eigensystem,
    potential_matrix,
    regime_of,
)
from label_oracles import nearest_target_assignment, rows_at
from phase_oracles import by_ellippi, by_quadrature

E3 = np.array([0.0, 0.0, 1.0], dtype=complex)


class TestRegime:
    def test_dispatch(self, bench_nonreal, bench_sweep):
        assert regime_of(bench_nonreal, 1.0) == "nonreal"
        assert regime_of(bench_sweep, 1.0) == "real"
        assert regime_of(bench_sweep, cmath.exp(1j * math.pi / 6)) == "imaginary"
        # rotating lambda moves psi = e^{i pi/4} onto the real ray
        assert regime_of(bench_nonreal, cmath.exp(1j * math.pi / 12)) == "real"

    def test_hyperplane_refused(self, bench_sweep):
        lam = cmath.exp(1j * math.pi / 6)
        with pytest.raises(HyperplaneDegenerateError):
            lift_at(bench_sweep, eigensystem(bench_sweep, lam), 0.1, 0.1)


# every route at the hyperplane lambda, called as route(c, lam, es): point
# evaluators take the spectral object, job-level operations lambda
HYPERPLANE_ROUTES = {
    "phase_integrals": lambda c, lam, es: phase_integrals(c, es, 0.3),
    "lift_at": lambda c, lam, es: lift_at(c, es, 0.2, 0.3),
    "sample_grid": lambda c, lam, es: sample_grid(c, lam, (0.0, 1.0), (0.0, 1.0), 4, 4),
    "beta_integrals": lambda c, lam, es: beta_integrals(c, es, 0.3),
    "u_plus": lambda c, lam, es: u_plus(c, es, 0.3),
    "extended_frame_eigenbasis": lambda c, lam, es: extended_frame(c, es, 0.2 + 0.3j),
    "iwasawa_frame": lambda c, lam, es: iwasawa_frame(c, es, 0.2 + 0.3j),
    "monodromy_data": lambda c, lam, es: monodromy_data(c, es),
    "monodromy_phases": lambda c, lam, es: monodromy_phases(c, es, 1.0, 1),
    "classify_torus": lambda c, lam, es: classify_torus(c, lam),
}


@pytest.mark.parametrize("route", HYPERPLANE_ROUTES.values(), ids=list(HYPERPLANE_ROUTES))
def test_hyperplane_refused_alike_by_every_route(bench_sweep, route):
    """One gate: the same error type and message whichever route meets the hyperplane.

    At psi = 1, lambda = e^{i pi/6} makes lambda^-3 psi = -i purely imaginary.
    """
    lam = cmath.exp(1j * math.pi / 6)
    with pytest.raises(HyperplaneDegenerateError) as exc:
        route(bench_sweep, lam, eigensystem(bench_sweep, lam))
    assert type(exc.value) is HyperplaneDegenerateError
    assert str(exc.value) == (
        "lambda^-3 psi is purely imaginary: surface degenerates to a hyperplane"
    )


# every way in from a lambda, called as route(c, lam): a point evaluator is
# reached only through the spectral object, so eigensystem refuses for it
UNIT_ROUTES = {
    "eigensystem": lambda c, lam: eigensystem(c, lam),
    "lift_at": lambda c, lam: lift_at(c, eigensystem(c, lam), 0.2, 0.3),
    "sample_grid": lambda c, lam: sample_grid(c, lam, (0.0, 1.0), (0.0, 1.0), 4, 4),
    "beta_integrals": lambda c, lam: beta_integrals(c, eigensystem(c, lam), 0.3),
    "extended_frame_eigenbasis": lambda c, lam: extended_frame(c, eigensystem(c, lam), 0.2 + 0.3j),
    "iwasawa_frame": lambda c, lam: iwasawa_frame(c, eigensystem(c, lam), 0.2 + 0.3j),
}


@pytest.mark.parametrize("lam", [complex(math.nan, 0.0), complex(math.inf, 0.0)], ids=["nan", "inf"])
@pytest.mark.parametrize("route", UNIT_ROUTES.values(), ids=list(UNIT_ROUTES))
def test_non_finite_lambda_refused_by_every_route(bench_sweep, route, lam):
    # |lambda| - 1 is NaN for lambda = NaN, so only a test written as
    # "not within 1e-8" refuses it
    with pytest.raises(ValueError, match=r"\|lambda\| = 1 required"):
        route(bench_sweep, lam)


class TestLiftNonreal:
    def test_origin_is_e3(self, bench_nonreal):
        es = eigensystem(bench_nonreal, 1.0)
        F = lift_at(bench_nonreal, es, 0.0, 0.0).F
        assert np.max(np.abs(F - E3)) < 1e-12

    def test_h_squares_sum_to_one(self, bench_nonreal):
        es = eigensystem(bench_nonreal, 1.0)
        re0 = (bench_nonreal.psi).real  # lambda = 1
        h2 = (es.d * bench_nonreal.a1 - re0) / (es.d**3 - re0)
        assert np.all(h2 > -1e-14)
        assert h2.sum() == pytest.approx(1.0, abs=1e-12)

    def test_phase_integrals_vanish_at_origin(self, bench_nonreal):
        g = phase_integrals(bench_nonreal, eigensystem(bench_nonreal, 1.0), 0.0)
        assert np.max(np.abs(g)) == 0.0

    @pytest.mark.parametrize("offset", [1e-3, 1e-4, 1e-5, 1e-6])
    def test_phase_integrals_near_real_locus(self, bench_nonreal, offset):
        # lambda^-3 psi = e^{-3i offset}: one d_j a_i - Re is of order offset^2
        c = bench_nonreal
        lam = cmath.exp(1j * (math.pi / 12 + offset))
        es = eigensystem(c, lam)
        assert es.regime == "nonreal"
        for y in (0.6 * c.T, c.T, 1.3 * c.T, 4.5 * c.T):  # n_j -> 1 bites at y = T
            want = by_ellippi(c.a1, c.psi, lam, y)
            g = phase_integrals(c, es, y)
            assert np.all(np.abs(g - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    def test_refused_closer_to_real_locus(self, bench_nonreal):
        c = bench_nonreal
        lam = cmath.exp(1j * (math.pi / 12 + 1e-8))
        assert regime_of(c, lam) == "nonreal"
        with pytest.raises(RegimeError):
            lift_at(c, eigensystem(c, lam), 0.3, 0.6 * c.T)

    def test_unit_norm_random(self, bench_nonreal):
        rng = np.random.default_rng(0)
        es = eigensystem(bench_nonreal, 1.0)
        for _ in range(40):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            F = lift_at(bench_nonreal, es, x, y).F
            assert abs(np.linalg.norm(F) - 1.0) < 1e-10

    def test_g_sum_rule(self, bench_nonreal):
        c = bench_nonreal
        for theta in (0.0, 0.35, 1.2):
            g = phase_integrals(c, eigensystem(c, cmath.exp(1j * theta)), 2.0 * c.T)
            assert abs(g.sum()) < 1e-8

    def test_phase_integrals_match_quadrature(self, bench_nonreal):
        # the closed form against adaptive quadrature of the defining integral
        c = bench_nonreal
        for theta in (0.0, 0.35, 1.2):
            lam = cmath.exp(1j * theta)
            es = eigensystem(c, lam)
            for y in (0.3 * c.T, 1.4 * c.T, 2.0 * c.T, 3.7 * c.T, -0.9 * c.T):
                g = phase_integrals(c, es, y)
                assert np.max(np.abs(g - by_quadrature(c, lam, y))) < 1e-10


class TestLiftReal:
    def test_c_constants(self, bench_real):
        c = bench_real
        c1 = c.a1 * math.sqrt((c.a1 - c.a2) / (c.a1**3 - abs(c.psi) ** 2))
        assert c1 == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)  # 0.8660254...
        c2 = c.a2 * math.sqrt((c.a1 - c.a2) / (abs(c.psi) ** 2 - c.a2**3))
        c3 = c.a3 * math.sqrt((c.a1 + c.a3) / (abs(c.psi) ** 2 + c.a3**3))
        assert c2**2 + c3**2 == pytest.approx(1.0, abs=1e-12)

    def test_origin_is_e3(self, bench_real):
        es = eigensystem(bench_real, 1.0)
        F = lift_at(bench_real, es, 0.0, 0.0).F
        assert np.max(np.abs(F - E3)) < 1e-12

    def test_unit_norm(self, bench_real):
        rng = np.random.default_rng(1)
        es = eigensystem(bench_real, 1.0)
        for _ in range(40):
            F = lift_at(bench_real, es, rng.uniform(-3, 3), rng.uniform(-3, 3)).F
            assert abs(np.linalg.norm(F) - 1.0) < 1e-12

    def test_4T_periodicity(self, bench_real):
        es = eigensystem(bench_real, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            a = lift_at(bench_real, es, x, y).F
            b = lift_at(bench_real, es, x, y + 4.0 * bench_real.T).F
            assert np.max(np.abs(a - b)) < 1e-9

    def test_other_surface_real_at_rotated_lambda(self, bench_nonreal):
        lam = cmath.exp(1j * math.pi / 12)  # lambda^-3 psi = 1, real
        assert regime_of(bench_nonreal, lam) == "real"
        es = eigensystem(bench_nonreal, lam)
        F = lift_at(bench_nonreal, es, 0.3, 0.7).F
        assert abs(np.linalg.norm(F) - 1.0) < 1e-12


class TestCrossRoute:
    def test_via_frame_at_origin(self, bench_nonreal):
        F = iwasawa_frame(bench_nonreal, eigensystem(bench_nonreal, 1.0), 0j)[:, 2]
        assert np.max(np.abs(F - E3)) < 1e-12

    def test_projective_agreement(self, bench_nonreal):
        es = eigensystem(bench_nonreal, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1.5, 1.5))
            fa = lift_at(bench_nonreal, es, z.real, z.imag).F
            fb = iwasawa_frame(bench_nonreal, es, z)[:, 2]
            assert abs(abs(linalg3.herm_inner(fa, fb)) - 1.0) < 1e-8
            assert abs(np.linalg.norm(fb) - 1.0) < 1e-10

    def test_equivariance_of_projective_point(self, bench_nonreal):
        c = bench_nonreal
        es = eigensystem(c, 1.0)
        chi = linalg3.matexp_skew(potential_matrix(c, 1.0), 0.7)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
            a = project_chart(lift_at(c, es, x + 0.7, y).F)
            b = project_chart(chi @ lift_at(c, es, x, y).F)
            assert abs(a[0] - b[0]) < 1e-8 and abs(a[1] - b[1]) < 1e-8

    def test_real_regime_frame_identity(self, bench_real):
        es = eigensystem(bench_real, 1.0)
        fr = extended_frame(bench_real, es, 0j)
        assert np.max(np.abs(fr - np.eye(3))) < 1e-12
        fr2 = extended_frame(bench_real, es, 0.3 + 0.9j)
        assert linalg3.unitary_residual(fr2) < 1e-10


def test_results_hold_only_what_they_compute(bench_nonreal, bench_real):
    """Frames are bare 3x3 matrices, monodromy phases a bare array, records echo no input."""
    for c in (bench_nonreal, bench_real):
        es = eigensystem(c, 1.0)
        z = complex(0.37, 1.3 * c.T)
        frame = extended_frame(c, es, z)
        assert type(frame) is np.ndarray and frame.shape == (3, 3) and frame.dtype == complex
        assert frame[:, 2].tobytes() == lift_at(c, es, z.real, z.imag).F.tobytes()
        for m in (0, 1, -2):
            theta = monodromy_phases(c, es, 0.8, m)
            assert type(theta) is np.ndarray and theta.shape == (3,) and theta.dtype == float
    c, es = bench_nonreal, eigensystem(bench_nonreal, 1.0)
    z = complex(0.37, 1.3 * c.T)
    frame = iwasawa_frame(c, es, z)
    assert type(frame) is np.ndarray and frame.shape == (3, 3) and frame.dtype == complex
    b1, b2 = beta_integrals(c, es, z.imag)
    q0, qt = q_factor(c, z.imag, es.lam)
    assert frame.tobytes() == (iwasawa._exp_d_l0(c, es, z - b1, -b2) @ np.linalg.inv(q0 @ qt)).tobytes()
    assert [f.name for f in dataclasses.fields(LiftSample)] == ["F"]
    assert [f.name for f in dataclasses.fields(MetricSample)] == ["w", "w_prime", "u", "u_prime"]
    assert [f.name for f in dataclasses.fields(GridSample)] == ["xs", "ys", "F", "e_u", "chart", "flags"]
    for gone in ("FrameSample", "MonodromyPhases", "incomplete_J"):
        assert not hasattr(equilag, gone) and gone not in equilag.__all__


class TestChart:
    def test_e3_maps_to_origin(self):
        assert project_chart(E3) == (0.0, 0.0)

    def test_singular_chart(self):
        with pytest.raises(ChartError):
            project_chart(np.array([1.0, 0.0, 0.0], dtype=complex))


class TestGrid:
    def test_shapes_and_flags(self, bench_nonreal):
        g = sample_grid(bench_nonreal, 1.0, (0.0, 1.0), (0.0, 1.0), 9, 7)
        assert g.F.shape == (7, 9, 3)
        assert g.flags.shape == (7, 9)
        assert g.chart.shape == (7, 9, 2)
        norms = np.linalg.norm(g.F, axis=2)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        # flagged cells carry NaN chart coordinates
        if g.flags.any():
            assert np.all(np.isnan(g.chart[g.flags].real))

    def test_full_period_box(self, bench_nonreal):
        c = bench_nonreal
        g = sample_grid(c, 1.0, (0.0, 2.0), (0.0, 2.0 * c.T), 64, 64)
        assert np.max(np.abs(np.linalg.norm(g.F, axis=2) - 1.0)) < 1e-10
        assert int(g.flags.sum()) + int((~g.flags).sum()) == 64 * 64

    def test_matches_pointwise_lift(self, bench_nonreal):
        c = bench_nonreal
        es = eigensystem(c, 1.0)
        g = sample_grid(c, 1.0, (0.0, 1.0), (0.2, 1.4), 5, 6)
        for iy in (0, 3, 5):
            for ix in (0, 2, 4):
                F = lift_at(c, es, g.xs[ix], g.ys[iy]).F
                assert np.max(np.abs(F - g.F[iy, ix])) < 1e-10

    def test_real_regime_grid(self, bench_real):
        g = sample_grid(bench_real, 1.0, (0.0, 1.0), (0.0, 4.0 * bench_real.T), 16, 33)
        assert np.max(np.abs(np.linalg.norm(g.F, axis=2) - 1.0)) < 1e-12

    def test_torus_period_box_closes(self, bench_real):
        # boundary vertices of a one-period box are projectively identified
        c = bench_real
        p_f = 2.0 * math.pi * math.sqrt(3.0)
        g = sample_grid(c, 1.0, (0.0, p_f), (0.0, 4.0 * c.T), 9, 9)
        assert not g.flags[:, 0].any() and not g.flags[0, :].any()
        assert np.max(np.abs(g.chart[:, 0] - g.chart[:, -1])) < 1e-7
        assert np.max(np.abs(g.chart[0, :] - g.chart[-1, :])) < 1e-7

    def test_degenerate_grid_rejected(self, bench_nonreal):
        with pytest.raises(ValueError):
            sample_grid(bench_nonreal, 1.0, (0, 1), (0, 1), 1, 8)

    @pytest.mark.parametrize("case", ["nonreal", "real", "near_locus"])
    def test_every_cell_matches_lift_at(self, bench_nonreal, bench_real, case):
        # the one array pass against the float path, cell by cell; the rows
        # span m = round(y / 2T) from -1 to 2, so both parities and m < 0
        c, lam = {
            "nonreal": (bench_nonreal, cmath.exp(0.3j)),
            "real": (bench_real, 1.0),
            "near_locus": (bench_nonreal, cmath.exp(1j * (math.pi / 12 + 1e-6))),
        }[case]
        assert regime_of(c, lam) == ("real" if case == "real" else "nonreal")
        es = eigensystem(c, lam)
        g = sample_grid(c, lam, (-1.0, 2.0), (-2.5 * c.T, 4.5 * c.T), 7, 41)
        for iy, y in enumerate(g.ys):
            assert abs(g.e_u[iy] - metric_at(c, y).w) < 1e-13 * c.a1
            for ix, x in enumerate(g.xs):
                assert np.max(np.abs(lift_at(c, es, x, y).F - g.F[iy, ix])) < 1e-13
        ok = ~g.flags
        assert np.array_equal(g.chart[ok], np.stack([g.F[ok, 0], g.F[ok, 1]], -1) / g.F[ok, 2:])

    def test_refusals_through_the_array_path(self, bench_nonreal, bench_sweep):
        c = bench_nonreal
        lam = cmath.exp(1j * (math.pi / 12 + 1e-8))
        assert regime_of(c, lam) == "nonreal"
        with pytest.raises(RegimeError):
            sample_grid(c, lam, (0.0, 1.0), (0.0, 2.0 * c.T), 4, 6)
        with pytest.raises(RegimeError):
            _coefficients(c, eigensystem(c, lam), np.linspace(0.0, 2.0 * c.T, 6))
        hyperplane = cmath.exp(1j * math.pi / 6)
        with pytest.raises(HyperplaneDegenerateError):
            sample_grid(bench_sweep, hyperplane, (0.0, 1.0), (0.0, 1.0), 4, 6)


def _points(c):
    """The (xs, ys) of the geometry reports: three of each over one period."""
    return np.linspace(0.15, 1.8, 3), np.linspace(0.12, 2.0 * c.T - 0.1, 3)


@pytest.fixture(scope="module")
def surfaces(bench_nonreal, bench_real):
    return {"nonreal": bench_nonreal, "real": bench_real}


@pytest.fixture(scope="module")
def reports(surfaces):
    return {name: verify_geometry(c, 1.0, *_points(c)) for name, c in surfaces.items()}


class TestGeometry:
    @pytest.mark.parametrize("regime", ["nonreal", "real"])
    def test_first_order_identities(self, reports, regime):
        rep = reports[regime]
        assert rep.horizontality < 1e-6
        assert rep.conformality_diag < 1e-6
        assert rep.conformality_cross < 1e-6

    @pytest.mark.parametrize("regime", ["nonreal", "real"])
    def test_second_order_identities(self, reports, regime):
        rep = reports[regime]
        assert rep.laplace < 1e-6
        assert rep.cubic_form < 1e-6

    @pytest.mark.parametrize("regime", ["nonreal", "real"])
    def test_x_ode_and_scalar_ode(self, reports, regime):
        rep = reports[regime]
        assert rep.x_ode < 1e-6
        assert rep.scalar_ode < 1e-6

    @pytest.mark.parametrize("regime", ["nonreal", "real"])
    def test_factor_identity_pointwise(self, surfaces, regime):
        # (d_j w - Re)(d_j^2 w + Re d_j - 2 w^2) = (u'^2 w^2 / 4 + Im^2) d_j;
        # suite identities checks it in the non-real regime only
        c = surfaces[regime]
        assert regime_of(c, 1.0) == regime
        es = eigensystem(c, 1.0)
        v = c.psi  # lambda = 1
        for y in _points(c)[1]:
            m = metric_at(c, y)
            lhs = (es.d * m.w - v.real) * (es.d**2 * m.w + v.real * es.d - 2 * m.w**2)
            rhs = (0.25 * m.u_prime**2 * m.w**2 + v.imag**2) * es.d
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("regime", ["nonreal", "real"])
    def test_unit_norm(self, surfaces, regime):
        c = surfaces[regime]
        es = eigensystem(c, 1.0)
        for x in _points(c)[0]:
            for y in _points(c)[1]:
                assert abs(np.linalg.norm(lift_at(c, es, x, y).F) - 1.0) < 1e-10

    def test_cubic_form_value(self, bench_nonreal):
        # the associated family carries cubic differential -i lambda^-3 psi:
        # recompute F_zz . conj(F_zbar) directly and compare
        c = bench_nonreal
        es = eigensystem(c, 1.0)
        h = 1e-4
        x, y = 0.4, 0.6

        def ev(xx, yy):
            return lift_at(c, es, xx, yy).F

        fxp, fxm = ev(x + h, y), ev(x - h, y)
        fyp, fym = ev(x, y + h), ev(x, y - h)
        f0 = ev(x, y)
        fxx = (fxp - 2 * f0 + fxm) / h**2
        fyy = (fyp - 2 * f0 + fym) / h**2
        fxy = (ev(x + h, y + h) - ev(x + h, y - h) - ev(x - h, y + h) + ev(x - h, y - h)) / (
            4 * h**2
        )
        fzz = (fxx - fyy - 2j * fxy) / 4
        fzb = ((fxp - fxm) / (2 * h) + 1j * (fyp - fym) / (2 * h)) / 2
        assert linalg3.herm_inner(fzz, fzb) == pytest.approx(-1j * c.psi, abs=1e-6)


def test_scalar_ode_identity_closed_form(bench_nonreal):
    # (d_j e^u - Re) p_j' = (u' e^u + 2i Im)/2 * d_j p_j, p_j = h_j e^{iG_j}
    c = bench_nonreal
    es = eigensystem(c, 1.0)
    v = c.psi
    h = 1e-5
    for y in (0.3, 0.9, 1.5):
        m = metric_at(c, y)
        hp = np.sqrt((es.d * metric_at(c, y + h).w - v.real) / (es.d**3 - v.real))
        hm = np.sqrt((es.d * metric_at(c, y - h).w - v.real) / (es.d**3 - v.real))
        gp = phase_integrals(c, es, y + h)
        gm = phase_integrals(c, es, y - h)
        pj_p = hp * np.exp(1j * gp)
        pj_m = hm * np.exp(1j * gm)
        pj = np.sqrt((es.d * m.w - v.real) / (es.d**3 - v.real)) * np.exp(
            1j * phase_integrals(c, es, y)
        )
        dpj = (pj_p - pj_m) / (2 * h)
        lhs = (es.d * m.w - v.real) * dpj
        rhs = 0.5 * (m.u_prime * m.w + 2j * v.imag) * es.d * pj
        assert np.max(np.abs(lhs - rhs)) < 1e-6


@pytest.mark.parametrize("regime", ["nonreal", "real"])
def test_coefficient_derivative_matches_central_difference(bench_nonreal, bench_real, regime):
    # the closed-form p_j' of the coefficient kernel against its own p_j
    c = bench_nonreal if regime == "nonreal" else bench_real
    es = eigensystem(c, 1.0)
    assert regime_of(c, 1.0) == regime
    h = 1e-5
    for y in (-0.7, 0.3, 0.9, 1.5, 2.0 * c.T + 0.4):
        _, dp, _ = _coefficients_and_derivatives(c, es, y)
        fd = (_coefficients(c, es, y + h) - _coefficients(c, es, y - h)) / (2 * h)
        assert np.max(np.abs(dp - fd)) < 1e-8


@pytest.mark.parametrize("regime", ["nonreal", "real"])
def test_coefficient_rows_match_float_calls(bench_nonreal, bench_real, regime):
    # an array of y gives the rows the float path gives one y at a time
    c = bench_nonreal if regime == "nonreal" else bench_real
    es = eigensystem(c, 1.0)
    ys = np.linspace(-2.5 * c.T, 4.5 * c.T, 29)
    p, dp, _ = _coefficients_and_derivatives(c, es, ys)
    assert p.shape == dp.shape == (29, 3)
    for i, y in enumerate(ys):
        p1, dp1, _ = _coefficients_and_derivatives(c, es, float(y))
        assert np.max(np.abs(p[i] - p1)) < 1e-14
        assert np.max(np.abs(dp[i] - dp1)) < 1e-14 * max(1.0, float(np.max(np.abs(dp1))))
    if regime == "nonreal":
        g = phase_integrals(c, es, ys)
        assert g.shape == (29, 3)
        for i, y in enumerate(ys):
            assert np.max(np.abs(g[i] - phase_integrals(c, es, float(y)))) < 1e-13


def _a1_for_modulus(k: float) -> float:
    """a1 of the surface with psi = 1 and modulus k, by bisection in log a1."""
    lo, hi = 0.0, math.log(1e4)  # k -> 0 at a1 = 1, k -> 1 as a1 grows
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if derive_constants(SurfaceParams(math.exp(mid), 1.0)).k < k:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


@settings(max_examples=60, deadline=None)
@given(
    k=st.floats(0.3, 0.998),
    delta=st.floats(1e-3, math.pi / 2 - 0.15),
    quadrant=st.integers(0, 3),
    y_over_t=st.floats(0.0, 6.0),
)
def test_phase_integrals_match_ellippi(k, delta, quadrant, y_over_t):
    # arg(lambda^-3 psi) = delta from the real locus, in each quadrant
    arg = (delta, math.pi - delta, math.pi + delta, -delta)[quadrant]
    lam = cmath.exp(-1j * arg / 3.0)
    c = derive_constants(SurfaceParams(_a1_for_modulus(k), 1.0))
    y = y_over_t * c.T
    g = phase_integrals(c, eigensystem(c, lam), y)
    want = by_ellippi(c.a1, c.psi, lam, y)
    assert np.all(np.abs(g - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=300, deadline=None)
@given(
    flatness=st.floats(-7.0, 3.0),   # log10(a1 / |psi|^(2/3) - 1)
    log_psi=st.floats(-2.0, 2.0),
    arg_psi=st.floats(0.0, 2.0 * math.pi),
    branch=st.integers(0, 5),        # the six real lambda; psi0 = (-1)^branch |psi|
)
@example(flatness=-7.0, log_psi=0.0, arg_psi=0.0, branch=0)
@example(flatness=-5.0, log_psi=-2.0, arg_psi=math.pi, branch=1)
@example(flatness=3.0, log_psi=2.0, arg_psi=0.0, branch=5)
def test_real_labels_match_nearest_targets(flatness, log_psi, arg_psi, branch):
    # the sn, cn, dn labels read off the root order against nearest-target
    # matching, and the coefficient rows of both to the last bit, at unit lambda
    apsi = 10.0**log_psi
    psi = cmath.rect(apsi, arg_psi)
    c = derive_constants(SurfaceParams((1.0 + 10.0**flatness) * apsi ** (2.0 / 3.0), psi))
    lam = cmath.exp(1j * (arg_psi + branch * math.pi) / 3.0)
    try:
        es = eigensystem(c, lam)
    except FlatCliffordError:
        assume(False)  # roots too close to tell apart: refused before any label
    assert es.regime == "real"
    want_idx, want_cs, deviation = nearest_target_assignment(c, es)
    assert list(es.labels) == want_idx
    # at unit lambda every root sits within 1e-8 of its target psi0/a_j
    assert deviation <= 1e-8 * max(1.0, float(np.max(np.abs(es.d))))
    for y in [*np.linspace(-3.0 * c.T, 5.0 * c.T, 9).tolist(), np.linspace(-c.T, 3.0 * c.T, 7)]:
        sn, cn, dn = jacobi(c.r * y, c.k)
        p, dp, _ = _coefficients_and_derivatives(c, es, y)
        want_p = rows_at(want_idx, (want_cs[0] * sn, want_cs[1] * cn, want_cs[2] * dn), y)
        want_dp = rows_at(want_idx, (want_cs[0] * c.r * cn * dn, -want_cs[1] * c.r * sn * dn,
                                     -want_cs[2] * c.r * c.k**2 * sn * cn), y)
        assert _coefficients(c, es, y).tobytes() == want_p.tobytes()
        assert p.tobytes() == want_p.tobytes()
        assert dp.tobytes() == want_dp.tobytes()
