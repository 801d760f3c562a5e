import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from equilag import iwasawa, linalg3, metric, verification
from equilag.iwasawa import (
    SingularLocusError,
    b_matrix,
    beta_integrals,
    extended_frame,
    iwasawa_frame,
    omega_matrix,
    q_factor,
    u_plus,
    y_flow_matrix,
)
from equilag.metric import metric_at
from equilag.potential import (
    HyperplaneDegenerateError,
    SurfaceParams,
    derive_constants,
    eigensystem,
    potential_matrix,
)
from matrix_oracles import commutant_matrix, omega_entries
from phase_oracles import beta_by_mpmath, beta_by_quadrature

EPS6 = linalg3.EPS6
I3 = np.eye(3)


class TestOmega:
    def test_equals_potential_at_origin(self, bench_nonreal):
        for theta in (0.0, 0.7, 2.1):
            lam = cmath.exp(1j * theta)
            diff = omega_matrix(bench_nonreal, 0.0, lam) - potential_matrix(bench_nonreal, lam)
            assert np.max(np.abs(diff)) < 1e-13

    def test_blocks_match_entrywise_oracle(self, bench_nonreal, bench_sweep):
        # Omega = lam^-1 U_{-1} + 2 U_0 + lam V_1, also off the unit circle
        for c in (bench_nonreal, bench_sweep):
            for lam in (1.0, cmath.exp(0.7j), cmath.exp(2.9j), 0.3, 1.7 - 0.4j, 0.5j):
                for y in (-1.3, 0.0, 0.45, 2.2):
                    diff = omega_matrix(c, y, lam) - omega_entries(c, y, lam)
                    assert np.max(np.abs(diff)) < 1e-14

    def test_skew_hermitian_traceless(self, bench_nonreal):
        rng = np.random.default_rng(0)
        for _ in range(25):
            lam = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
            om = omega_matrix(bench_nonreal, rng.uniform(-2, 2), lam)
            assert np.max(np.abs(om + np.conj(om).T)) < 1e-13
            assert abs(np.trace(om)) < 1e-14


class TestQFactor:
    def test_identity_at_origin(self, bench_nonreal):
        q0, qt = q_factor(bench_nonreal, 0.0, cmath.exp(0.3j))
        assert np.max(np.abs(q0 - I3)) < 1e-14
        assert np.max(np.abs(qt - I3)) < 1e-12

    def test_conjugation_inside_disc(self, bench_sweep):
        # lambda = 0.3 (not unitary): the factorization identity is algebraic
        lam = 0.3
        q0, qt = q_factor(bench_sweep, 0.4, lam)
        q = q0 @ qt
        lhs = q @ potential_matrix(bench_sweep, lam) @ np.linalg.inv(q)
        assert np.max(np.abs(lhs - omega_matrix(bench_sweep, 0.4, lam))) < 1e-10

    def test_conjugation_random(self, bench_nonreal):
        rng = np.random.default_rng(1)
        dm = {}
        for _ in range(200):
            lam = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
            if abs((bench_nonreal.psi / lam**3).imag) < 1e-3:
                continue
            y = rng.uniform(-2 * bench_nonreal.T, 2 * bench_nonreal.T)
            q0, qt = q_factor(bench_nonreal, y, lam)
            q = q0 @ qt
            d = dm.setdefault(lam, potential_matrix(bench_nonreal, lam))
            resid = np.max(np.abs(q @ d @ np.linalg.inv(q) - omega_matrix(bench_nonreal, y, lam)))
            assert resid < 1e-10
            assert abs(np.linalg.det(qt) - 1.0) < 1e-10

    def test_singular_on_real_form_locus(self, bench_sweep):
        # lambda^-3 psi real makes the normalizing determinant vanish at y = 0
        with pytest.raises(SingularLocusError):
            q_factor(bench_sweep, 0.3, 1.0)

    def test_floor_scales_with_its_terms(self):
        # a1 = 1e4, psi = 1: w' reaches ~1e6, so a floor scaled by a1 q^2 r
        # (2.8e-2) would refuse Im(lambda^-3 psi) = 2.5e-3, outside verify's
        # 1e-3 margin; c0 = -2i Im is floored by 2|psi| alone
        c = derive_constants(SurfaceParams(1e4, 1.0))
        lam = cmath.exp(-1j * math.asin(2.5e-3) / 3.0)
        assert (c.psi / lam**3).imag == pytest.approx(2.5e-3)
        for y in (0.0, 0.3 * c.T, 0.7 * c.T, 1.6 * c.T):
            q0, qt = q_factor(c, y, lam)
            assert np.all(np.isfinite(q0)) and abs(np.linalg.det(qt) - 1.0) < 1e-6
            # beta_integrals passes the cdet floor too; the lift's own gap
            # d_1 a1 - Re (~3e-18 here) is what refuses it
            with pytest.raises(SingularLocusError, match="phase constants"):
                beta_integrals(c, eigensystem(c, lam), y)

    def test_wrong_normalizer_breaks_det(self, bench_nonreal):
        # the negative control of suite iwasawa: the branch ratio applied twice
        lam = cmath.exp(0.3j)
        _, qt = q_factor(bench_nonreal, 0.6, lam)
        rho = iwasawa._branch_ratio(*iwasawa._cdet(bench_nonreal, 0.6, lam)[1:])
        assert abs(np.linalg.det(qt / rho) - 1.0) > 1e-3


class TestBetaIntegrals:
    def test_zero_at_origin(self, bench_nonreal):
        b1, b2 = beta_integrals(bench_nonreal, eigensystem(bench_nonreal, cmath.exp(0.3j)), 0.0)
        assert b1 == 0.0 and b2 == 0.0
        # exactly, although log p_j(0) = log((1 - n_j) + n_j) may round off 0
        c = derive_constants(SurfaceParams(3.1, cmath.rect(0.7, 2.0)))
        for theta in np.linspace(0.1, 6.0, 12):
            assert beta_integrals(c, eigensystem(c, cmath.exp(1j * theta)), 0.0) == (0j, 0j)

    def test_full_period_lemma(self, bench_nonreal):
        c = bench_nonreal
        for theta in (0.3, 1.0, 2.4):
            b1, b2 = beta_integrals(c, eigensystem(c, cmath.exp(1j * theta)), 2.0 * c.T)
            assert b1.imag - 2.0 * c.T == pytest.approx(0.0, abs=1e-9)
            assert b2.real == pytest.approx(0.0, abs=1e-9)

    def test_epsilon_symmetries(self, bench_nonreal):
        c = bench_nonreal
        lam = cmath.exp(0.5j)
        b1, b2 = beta_integrals(c, eigensystem(c, lam), 2.0 * c.T)
        b1e, b2e = beta_integrals(c, eigensystem(c, EPS6 * lam), 2.0 * c.T)
        assert b1e.real == pytest.approx(b1.real, abs=1e-9)
        assert b2e.imag == pytest.approx(-b2.imag, abs=1e-9)

    def test_translation_additivity(self, bench_nonreal):
        c = bench_nonreal
        es = eigensystem(c, cmath.exp(0.3j))
        full = beta_integrals(c, es, 2.0 * c.T)
        part = beta_integrals(c, es, 0.4)
        both = beta_integrals(c, es, 0.4 + 2.0 * c.T)
        assert abs(both[0] - part[0] - full[0]) < 1e-10
        assert abs(both[1] - part[1] - full[1]) < 1e-10

    def test_against_scipy_quadrature(self, bench_nonreal):
        from scipy.integrate import quad

        c = bench_nonreal
        lam = cmath.exp(0.3j)

        def den(t):
            return lam**3 * np.conj(c.psi) - c.psi / lam**3 - metric_at(c, t).w_prime

        def f1(t):
            return (2j * lam**3 * np.conj(c.psi) - 1j * metric_at(c, t).w_prime) / den(t)

        def f2(t):
            return 2.0 * metric_at(c, t).w / den(t)

        def integral(f, y):
            return complex(*(quad(lambda t: part(f(t)), 0, y, epsabs=1e-13)[0]
                             for part in (np.real, np.imag)))

        y = 1.1
        b1, b2 = beta_integrals(c, eigensystem(c, lam), y)
        assert abs(b1 - integral(f1, y)) < 1e-10
        assert abs(b2 - integral(f2, y)) < 1e-10

    def test_singular_locus(self, bench_sweep):
        with pytest.raises(SingularLocusError):
            beta_integrals(bench_sweep, eigensystem(bench_sweep, 1.0), 1.0)

    def test_unit_lambda_required(self, bench_nonreal):
        # beta_integrals takes the spectral object; eigensystem refuses lambda = 0.3
        with pytest.raises(ValueError, match=r"\|lambda\| = 1 required"):
            eigensystem(bench_nonreal, 0.3)

    @settings(max_examples=25, deadline=None)
    @given(
        ratio=st.floats(1.05, 50.0),           # a1 / |psi|^(2/3)
        apsi=st.floats(0.2, 3.0),
        arg_psi=st.floats(0.0, 2.0 * math.pi),
        locus=st.integers(0, 3),               # next locus below: real (even) or hyperplane (odd)
        gap=st.floats(3e-3, math.pi / 2 - 3e-3),  # 3 arg(lambda) from it: >= 1e-3 rad from both
        y_periods=st.floats(-3.0, 5.0),
    )
    def test_matches_quadrature(self, ratio, apsi, arg_psi, locus, gap, y_periods):
        # lambda^-3 psi is real where 3 arg(lambda) - arg(psi) is a multiple of
        # pi and purely imaginary half way between
        psi = cmath.rect(apsi, arg_psi)
        c = derive_constants(SurfaceParams(ratio * apsi ** (2.0 / 3.0), psi))
        lam = cmath.exp(1j * (arg_psi + locus * math.pi / 2 + gap) / 3.0)
        y = y_periods * c.T
        got = beta_integrals(c, eigensystem(c, lam), y)
        want = beta_by_quadrature(c, lam, y)
        scale = max(1.0, *map(abs, want))
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12 * scale

    def test_factors_record(self, bench_nonreal):
        # the factors rebuild U_+ = Q0 Qtilde exp(beta1 D + beta2 L0) with the
        # matrix L0 = D^2 - tr(D^2)/3 I, where the package uses its spectrum
        c = bench_nonreal
        lam = cmath.exp(0.3j)
        es = eigensystem(c, lam)
        q0, qt = q_factor(c, 0.7, lam)
        b1, b2 = beta_integrals(c, es, 0.7)
        assert abs(np.linalg.det(qt) - 1.0) < 1e-11
        gen = b1 * potential_matrix(c, lam) + b2 * commutant_matrix(c, lam)
        assert np.max(np.abs(q0 @ qt @ expm(gen) - u_plus(c, es, 0.7))) < 1e-11


# arg psi = pi/4 on bench_nonreal: lambda^-3 psi is real at arg lambda = pi/12
# and purely imaginary at -pi/12
LOCI = {"real": math.pi / 12, "hyperplane": -math.pi / 12}


class TestBetaDomainEdges:
    """Near both loci beta is either right or refused with a typed error."""

    REFUSALS = (SingularLocusError, HyperplaneDegenerateError)

    @pytest.mark.parametrize("locus", sorted(LOCI))
    @pytest.mark.parametrize("offset", [10.0**-e for e in range(1, 13)])
    def test_ladder(self, bench_nonreal, locus, offset):
        c = bench_nonreal
        lam = cmath.exp(1j * (LOCI[locus] + offset))
        y = 1.3 * c.T
        try:
            got = beta_integrals(c, eigensystem(c, lam), y)
        except self.REFUSALS as exc:
            refusal = type(exc)
        else:
            refusal = None
            assert all(np.isfinite(b.real) and np.isfinite(b.imag) for b in got)
            want = beta_by_mpmath(2.0, c.psi, lam, y, dps=20)
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-10
        # the iwasawa frame and U_+ refuse exactly where beta does, alike
        for route in (
            lambda: u_plus(c, eigensystem(c, lam), y),
            lambda: iwasawa_frame(c, eigensystem(c, lam), 0.3 + 1j * y),
        ):
            if refusal is None:
                assert np.all(np.isfinite(route()))
            else:
                with pytest.raises(refusal):
                    route()

    def test_gap_floor_refuses_as_singular_locus(self, bench_nonreal):
        # 3e-8 rad from the real locus |cdet(0)| clears its floor but the
        # lift's gaps d_j a_i - Re do not clear theirs
        c = bench_nonreal
        lam = cmath.exp(1j * (LOCI["real"] + 3e-8))
        assert abs(2.0 * (c.psi / lam**3).imag) > iwasawa._cdet_floor(c)
        es = eigensystem(c, lam)
        for call in (
            lambda: beta_integrals(c, es, 0.7),
            lambda: u_plus(c, es, 0.7),
            lambda: iwasawa_frame(c, es, 0.7j),
            lambda: iwasawa.monodromy_data(c, es),
        ):
            with pytest.raises(SingularLocusError, match="phase constants"):
                call()

    def test_hyperplane_refused(self, bench_nonreal):
        lam = cmath.exp(1j * LOCI["hyperplane"])
        with pytest.raises(HyperplaneDegenerateError):
            beta_integrals(bench_nonreal, eigensystem(bench_nonreal, lam), 0.7)
        with pytest.raises(HyperplaneDegenerateError):
            iwasawa.monodromy_data(bench_nonreal, eigensystem(bench_nonreal, lam))


class TestUPlusFlow:
    def test_y_flow_equation(self, bench_nonreal):
        c = bench_nonreal
        h = 1e-4
        for theta, y in ((0.4, 0.3), (1.9, 0.9)):
            lam = cmath.exp(1j * theta)
            es = eigensystem(c, lam)
            up = u_plus(c, es, y + h)
            um = u_plus(c, es, y - h)
            u0 = u_plus(c, es, y)
            flow = (up - um) / (2 * h) @ np.linalg.inv(u0)
            assert np.max(np.abs(flow - y_flow_matrix(c, y, lam))) < 1e-6

    def test_u_plus_conjugates_potential(self, bench_nonreal):
        c = bench_nonreal
        lam = cmath.exp(0.8j)
        u = u_plus(c, eigensystem(c, lam), 0.55)
        lhs = u @ potential_matrix(c, lam) @ np.linalg.inv(u)
        assert np.max(np.abs(lhs - omega_matrix(c, 0.55, lam))) < 1e-9


class TestExtendedFrame:
    def test_identity_at_zero(self, bench_nonreal, bench_real):
        for c in (bench_nonreal, bench_real):
            for frame in (extended_frame, iwasawa_frame):
                if frame is iwasawa_frame and c is bench_real:
                    continue  # singular locus
                fr = frame(c, eigensystem(c, 1.0), 0j)
                assert np.max(np.abs(fr - I3)) < 1e-12

    def test_su3_membership(self, bench_nonreal):
        rng = np.random.default_rng(2)
        for _ in range(10):
            lam = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
            if abs((bench_nonreal.psi / lam**3).real) < 1e-3:
                continue
            z = complex(rng.uniform(-1, 1), rng.uniform(-1.5, 1.5))
            fr = extended_frame(bench_nonreal, eigensystem(bench_nonreal, lam), z)
            assert linalg3.unitary_residual(fr) < 1e-9
            assert abs(np.linalg.det(fr) - 1.0) < 1e-9

    def test_routes_agree(self, bench_nonreal):
        es = eigensystem(bench_nonreal, cmath.exp(0.3j))
        for z in (0.37 + 0.52j, -0.8 + 1.9j):
            fa = iwasawa_frame(bench_nonreal, es, z)
            fb = extended_frame(bench_nonreal, es, z)
            assert np.max(np.abs(fa - fb)) < 1e-9

    def test_routes_agree_many_periods(self, bench_nonreal):
        # the normalizer branch must return to 1 after each full period
        es = eigensystem(bench_nonreal, cmath.exp(0.3j))
        for y in (1.84, 7.3, -11.9, 23.456):
            z = 0.4 + 1j * y
            fa = iwasawa_frame(bench_nonreal, es, z)
            fb = extended_frame(bench_nonreal, es, z)
            assert np.max(np.abs(fa - fb)) < 1e-9

    def test_qtilde_returns_to_identity_after_period(self, bench_nonreal):
        c = bench_nonreal
        _, qt = q_factor(c, 2.0 * c.T, cmath.exp(0.3j))
        assert np.max(np.abs(qt - I3)) < 1e-12

    def test_equivariance(self, bench_nonreal):
        lam = cmath.exp(0.3j)
        es = eigensystem(bench_nonreal, lam)
        z = 0.2 + 0.9j
        fr = extended_frame(bench_nonreal, es, z)
        chi = linalg3.matexp_skew(potential_matrix(bench_nonreal, lam), 0.83)
        fr2 = extended_frame(bench_nonreal, es, z + 0.83)
        assert np.max(np.abs(fr2 - chi @ fr)) < 1e-9

    def test_maurer_cartan(self, bench_nonreal):
        c = bench_nonreal
        lam = cmath.exp(0.3j)
        es = eigensystem(c, lam)
        z = 0.3 + 0.6j
        h = 1e-4
        f0 = extended_frame(c, es, z)
        dfx = (extended_frame(c, es, z + h) - extended_frame(c, es, z - h)) / (2 * h)
        dfy = (
            extended_frame(c, es, z + 1j * h)
            - extended_frame(c, es, z - 1j * h)
        ) / (2 * h)
        fi = np.linalg.inv(f0)
        assert np.max(np.abs(fi @ dfx - omega_matrix(c, z.imag, lam))) < 1e-6
        assert np.max(np.abs(fi @ dfy - b_matrix(c, z.imag, lam))) < 1e-6

    def test_frame_twisting(self, bench_nonreal):
        lam = cmath.exp(0.41j)
        z = 0.3 + 0.7j
        fr = extended_frame(bench_nonreal, eigensystem(bench_nonreal, lam), z)
        fre = extended_frame(bench_nonreal, eigensystem(bench_nonreal, EPS6 * lam), z)
        assert np.max(np.abs(fre - linalg3.sigma_group(fr))) < 1e-9

    def test_singular_route_raises_with_hint(self, bench_sweep):
        es = eigensystem(bench_sweep, 1.0)
        with pytest.raises(SingularLocusError, match=r"closed forms \(extended_frame, lift_at\)"):
            iwasawa_frame(bench_sweep, es, 0.5 + 0.5j)
        # the frame the hint names is defined there
        fr = extended_frame(bench_sweep, es, 0.5 + 0.5j)
        assert linalg3.unitary_residual(fr) < 1e-10


# the functions that take a float or arrays of y and lambda, each giving a
# tuple of its matrices (q_factor: Q0 and Qtilde)
ARRAY_FUNCTIONS = {
    "q_factor": q_factor,
    "omega_matrix": lambda c, y, lam: (omega_matrix(c, y, lam),),
    "b_matrix": lambda c, y, lam: (b_matrix(c, y, lam),),
    "y_flow_matrix": lambda c, y, lam: (y_flow_matrix(c, y, lam),),
    "potential_matrix": lambda c, y, lam: (potential_matrix(c, lam),),
}


class TestArrayPath:
    """On arrays of (y, lambda) each function is its scalar call, point by point."""

    @settings(max_examples=40, deadline=None)
    @given(
        ratio=st.floats(1.05, 50.0),           # a1 / |psi|^(2/3)
        apsi=st.floats(0.2, 3.0),
        arg_psi=st.floats(0.0, 2.0 * math.pi),
        points=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),  # y in half periods
                st.integers(0, 3),                              # the locus below lambda
                st.floats(3e-3, math.pi / 2 - 3e-3),            # 3 arg(lambda) above it
            ),
            min_size=1, max_size=6,
        ),
    )
    def test_matches_scalar_calls(self, ratio, apsi, arg_psi, points):
        psi = cmath.rect(apsi, arg_psi)
        c = derive_constants(SurfaceParams(ratio * apsi ** (2.0 / 3.0), psi))
        ys = np.array([t * c.T for t, _, _ in points])
        lams = np.array([cmath.exp(1j * (arg_psi + locus * math.pi / 2 + gap) / 3.0)
                         for _, locus, gap in points])
        for name, f in ARRAY_FUNCTIONS.items():
            stacks = f(c, ys, lams)
            for i, (y, lam) in enumerate(zip(ys.tolist(), lams.tolist())):
                for got, want in zip(stacks, f(c, y, lam)):
                    assert got.shape == (len(points), 3, 3) and want.shape == (3, 3)
                    # to rounding, y = 0 included: the float path divides
                    # complex scalars in Python's arithmetic, which rounds
                    # unlike numpy's (a quotient, not a reciprocal's product)
                    err = np.max(np.abs(got[i] - want))
                    assert err <= 1e-13 * np.max(np.abs(want)), (name, i, err)

    def test_one_singular_lambda_is_named(self, bench_nonreal):
        # lambda^-3 psi is real at lam_real and at -lam_real: the refusal
        # names the first of them, whichever path the array takes
        c = bench_nonreal
        lam_real = cmath.exp(1j * LOCI["real"])
        lams = np.exp(1j * np.array([0.3, 1.0, 2.0, 2.5, 4.0, 5.0]))
        lams[2], lams[4] = lam_real, -lam_real
        ys = np.linspace(-1.0, 1.0, lams.size)
        with pytest.raises(SingularLocusError, match=re.escape(f"lambda = {lam_real:.6g}")):
            q_factor(c, ys, lams)
        with pytest.raises(SingularLocusError, match=re.escape(f"lambda = {lam_real:.6g}")):
            q_factor(c, 0.0, lams)
        # its omission leaves the others factorable
        keep = np.abs((c.psi / lams**3).imag) > 1e-3
        assert np.all(np.isfinite(q_factor(c, ys[keep], lams[keep])[1]))

    def test_zero_lambda_refused_in_an_array(self, bench_nonreal):
        for f in ARRAY_FUNCTIONS.values():
            with pytest.raises(ValueError, match="lambda must be nonzero"):
                f(bench_nonreal, np.zeros(3), np.array([1.0, 0.0, 1j]))


class TestSuiteArrayPass:
    """suite_iwasawa checks its 200 points in one array pass."""

    @pytest.mark.parametrize("call", ["points", "origin"])
    @pytest.mark.parametrize("k", [0, 117, 199])
    def test_one_planted_error_fails_the_suite(self, monkeypatch, call, k):
        # one entry of one of the 200 Qtilde is off by 1e-6: a reduction over
        # the wrong axis, or over a slice of the points, would miss it
        real = iwasawa.q_factor

        def planted(c, y, lam):
            q0, qt = real(c, y, lam)
            if isinstance(lam, np.ndarray) and (call == "points") == isinstance(y, np.ndarray):
                assert qt.shape == (200, 3, 3)
                qt = qt.copy()
                qt[k, 0, 1] += 1e-6
            return q0, qt

        monkeypatch.setattr(iwasawa, "q_factor", planted)
        result = verification.suite_iwasawa()
        assert not result.passed
        failing = {name for name, v in result.residuals.items() if v >= result.thresholds[name]}
        assert failing == ({"conjugation", "det_qtilde"} if call == "points" else {"initial_value"})

    def test_metric_samples(self, monkeypatch):
        # every metric_at call is one jacobi call from the metric module: 608
        # per-point samples become 3 array samples plus the flow's 8 floats
        calls = []
        real = metric.jacobi

        def spy(z, k):
            calls.append(np.shape(z))
            return real(z, k)

        monkeypatch.setattr(metric, "jacobi", spy)
        assert verification.suite_iwasawa().passed
        assert len(calls) <= 16
        assert calls.count((200,)) == 2
