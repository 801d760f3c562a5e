import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilag import immersion, iwasawa
from equilag.immersion import lift_at, project_chart
from equilag.linalg3 import matexp_skew
from equilag.periodicity import (
    classify_cylinder,
    classify_torus,
    monodromy_phases,
    rational_approx,
)
from equilag.potential import (
    HyperplaneDegenerateError,
    SurfaceParams,
    derive_constants,
    eigensystem,
    potential_matrix,
)
from matrix_oracles import commutant_matrix
from phase_oracles import by_quadrature

TWO_PI = 2.0 * math.pi

# a non-real torus: a1 bisected along d2/d1 = 1/3 until the phase s = 33/16
NONREAL_TORUS = SurfaceParams(1.4111732121241283, 1.0)
NONREAL_TORUS_LAM = complex(0.9742259663451993, -0.2255743037199995)  # abs(lambda) == 1.0


def convergents(x: Fraction) -> set[tuple[int, int]]:
    """The continued-fraction convergents (p, q) of the rational x."""
    out, (h0, h1), (k0, k1) = set(), (0, 1), (1, 0)
    while True:
        a = math.floor(x)
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        out.add((h1, k1))
        if x == a:
            return out
        x = 1 / (x - a)


def monodromy_matrix(c, p, m, lam):
    """The monodromy matrix itself, by exponentiating the loop-algebra element."""
    es = eigensystem(c, lam)
    re_b1, im_b2 = iwasawa.monodromy_data(c, es)
    lam = es.lam
    gen = (p - m * re_b1) * potential_matrix(c, lam) - 1j * m * im_b2 * commutant_matrix(c, lam)
    return matexp_skew(gen, 1.0)


class TestRationalApprox:
    def test_exact_half(self):
        cert = rational_approx(0.5, 64, 1e-9)
        assert (cert.num, cert.den) == (1, 2)
        assert cert.residual == 0.0

    def test_integer(self):
        cert = rational_approx(2.0, 64, 1e-9)
        assert (cert.num, cert.den) == (2, 1)

    def test_pi_has_no_small_certificate(self):
        assert rational_approx(math.pi, 10, 1e-9) is None

    def test_pi_with_loose_tolerance(self):
        cert = rational_approx(math.pi, 10, 1e-2)
        assert (cert.num, cert.den) == (22, 7)

    def test_negative_values(self):
        cert = rational_approx(-0.75, 64, 1e-9)
        assert (cert.num, cert.den) == (-3, 4)

    def test_monotone_in_max_den(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-3, 3)
            tol = 10.0 ** rng.uniform(-10, -2)
            found = rational_approx(x, 8, tol)
            if found is not None:
                for md in (16, 32, 64, 128):
                    larger = rational_approx(x, md, tol)
                    assert larger is not None
                    assert larger.residual <= found.residual + 1e-15

    def test_coprime(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.integers(-40, 40) / rng.integers(1, 40)
            cert = rational_approx(float(x), 64, 1e-9)
            assert cert is not None
            assert math.gcd(abs(cert.num), cert.den) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        max_den=st.sampled_from([64, 1000, 7000]),
        den=st.integers(1, 8000),
        num=st.integers(-40000, 40000),
        eps=st.floats(-2e-8, 2e-8),
    )
    def test_nearest_fraction_is_a_convergent(self, max_den, den, num, eps):
        # the policy is Fraction.limit_denominator within tol; as tol = 1e-8 <
        # 1 / (2 max_den^2), an accepted fraction is a convergent (Legendre)
        x = num / den + eps
        cert = rational_approx(x, max_den, 1e-8)
        want = Fraction(x).limit_denominator(max_den)
        if abs(x - want.numerator / want.denominator) > 1e-8:
            assert cert is None
            return
        assert (cert.num, cert.den) == (want.numerator, want.denominator)
        assert cert.residual == abs(x - cert.num / cert.den) and cert.value == x
        assert (cert.num, cert.den) in convergents(Fraction(x))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            rational_approx(0.5, 0, 1e-9)
        with pytest.raises(ValueError):
            rational_approx(float("nan"), 8, 1e-9)


class TestMonodromyPhases:
    def test_zero_translation(self, bench_nonreal):
        ph = monodromy_phases(bench_nonreal, eigensystem(bench_nonreal, 1.0), 0.0, 0)
        assert np.max(np.abs(ph)) == 0.0

    def test_pure_x_translation(self, bench_nonreal):
        es = eigensystem(bench_nonreal, 1.0)
        ph = monodromy_phases(bench_nonreal, es, 0.37, 0)
        assert np.allclose(ph, 0.37 * es.d)

    def test_g_identity(self, bench_nonreal):
        # theta_j(p=0, m=1) == + G_j(2T): the closed form against quadrature
        c = bench_nonreal
        for theta0 in (0.0, 0.35, 1.2):
            lam = cmath.exp(1j * theta0)
            ph = monodromy_phases(c, eigensystem(c, lam), 0.0, 1)
            g = by_quadrature(c, lam, 2.0 * c.T)
            assert np.max(np.abs(ph - g)) < 1e-8

    def test_sum_is_zero_mod_2pi(self, bench_nonreal, bench_real):
        es = eigensystem(bench_nonreal, 1.0)
        g = iwasawa.full_period_phases(bench_nonreal, es)
        for theta in (
            monodromy_phases(bench_nonreal, es, 1.3, 2),
            1.3 * es.d + 2 * g,  # the same phases from the beta integrals
            monodromy_phases(bench_real, eigensystem(bench_real, 1.0), 1.3, 2),
        ):
            s = theta.sum() / TWO_PI
            assert abs(s - round(s)) < 1e-9

    def test_matrix_eigenvalues_cross_check(self, bench_nonreal):
        c = bench_nonreal
        lam = cmath.exp(0.3j)
        ph = monodromy_phases(c, eigensystem(c, lam), 0.7, 1)
        mm = monodromy_matrix(c, 0.7, 1, lam)
        got = np.sort(np.angle(np.linalg.eigvals(mm)))
        want = np.sort(np.angle(np.exp(1j * ph)))
        assert np.max(np.abs(got - want)) < 1e-8

    def test_hyperplane_refused(self, bench_sweep):
        with pytest.raises(HyperplaneDegenerateError):
            monodromy_phases(bench_sweep, eigensystem(bench_sweep, cmath.exp(1j * math.pi / 6)), 1.0, 1)


class TestClassifyCylinder:
    def test_real_translation_torus_benchmark(self, bench_real):
        v = classify_cylinder(bench_real, 1.0, TWO_PI * math.sqrt(3.0))
        assert v.tag == "Cylinder"

    def test_non_period(self, bench_real):
        v = classify_cylinder(bench_real, 1.0, 1.0)
        assert v.tag == "NoPeriodFound"

    def test_imaginary_4T_period(self, bench_real):
        v = classify_cylinder(bench_real, 1.0, 4.0 * bench_real.T * 1j)
        assert v.tag == "Cylinder"

    def test_imaginary_2T_not_a_period(self, bench_real):
        # sn and cn flip sign over 2T, so 2Ti alone never closes the lift
        v = classify_cylinder(bench_real, 1.0, 2.0 * bench_real.T * 1j)
        assert v.tag == "NoPeriodFound"

    def test_bad_height(self, bench_real):
        with pytest.raises(ValueError):
            classify_cylinder(bench_real, 1.0, 1.0 + 0.37j)

    def test_nonreal_equivariant_direction(self, bench_nonreal):
        # the theta formula certifies p = 2 pi n / d_j only when all phases match
        es = eigensystem(bench_nonreal, 1.0)
        p = TWO_PI / es.d[0]
        v = classify_cylinder(bench_nonreal, 1.0, p)
        assert v.tag == "NoPeriodFound"  # d_2/d_1 is irrational here


class TestClassifyTorus:
    def test_torus_benchmark(self, bench_real):
        v = classify_torus(bench_real, 1.0)
        assert v.tag == "Torus"
        p_f, omega_f = v.lattice
        assert p_f.real == pytest.approx(TWO_PI * math.sqrt(3.0), abs=1e-9)
        assert omega_f == pytest.approx(4.0 * bench_real.T * 1j, abs=1e-12)
        assert v.certificates["d_ratio"].num == 1
        assert v.certificates["d_ratio"].den == 2

    def test_torus_lift_closes(self, bench_real):
        c = bench_real
        v = classify_torus(c, 1.0)
        es = eigensystem(c, 1.0)
        rng = np.random.default_rng(2)
        for omega in v.lattice:
            for _ in range(20):
                x, y = rng.uniform(-1, 1), rng.uniform(0, 2 * c.T)
                w0 = project_chart(lift_at(c, es, x, y).F)
                w1 = project_chart(lift_at(c, es, x + omega.real, y + omega.imag).F)
                assert abs(w1[0] - w0[0]) < 1e-7 and abs(w1[1] - w0[1]) < 1e-7

    def test_sweep_benchmark_has_no_period(self, bench_sweep):
        assert classify_torus(bench_sweep, 1.0).tag == "NoPeriodFound"

    def test_hyperplane_refused(self, bench_sweep):
        with pytest.raises(HyperplaneDegenerateError):
            classify_torus(bench_sweep, cmath.exp(1j * math.pi / 6))

    def test_route_consistency_random(self):
        # the closed-form G_j(2T) that classify_torus takes must match the
        # phases from the beta integrals
        rng = np.random.default_rng(3)
        done = 0
        while done < 20:
            a1 = rng.uniform(0.8, 3.0)
            psi = cmath.rect(rng.uniform(0.1, 0.8) * a1**1.5, rng.uniform(0.2, 1.3))
            lam = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            c = derive_constants(SurfaceParams(a1, psi))
            es = eigensystem(c, lam)
            if es.regime != "nonreal":
                continue
            done += 1
            g_beta = iwasawa.full_period_phases(c, es)
            g = np.array(immersion._g_full_period(c, es))
            assert np.max(np.abs(g_beta - g)) < 1e-8

    def test_half_shift_lattice_form(self):
        # engineered real-regime surface with odd/odd eigenvalue ratio 1/3:
        # a2/a1 = 1/3 comes from the one-parameter family w^3 - (b/2)w^2 + q
        # with roots (3t, t, -a3); solve for t, a3 via Viete.
        # roots 3t, t, -s: pairs: 3t^2 - 3ts - ts = 0 -> s = 3t/4
        t = 0.8
        a1, a2, a3 = 3 * t, t, 3 * t / 4.0
        psi_sq = 2.0 * a1 * a2 * a3  # |psi|^2
        c = derive_constants(SurfaceParams(a1, math.sqrt(psi_sq)))
        assert c.a2 == pytest.approx(a2, abs=1e-12)
        v = classify_torus(c, 1.0)
        assert v.tag == "Torus"
        p_f, omega_f = v.lattice
        assert omega_f == pytest.approx(0.5 * p_f + 2.0 * c.T * 1j, abs=1e-9)
        # and the lift indeed closes under the half shift
        es = eigensystem(c, 1.0)
        w0 = project_chart(lift_at(c, es, 0.23, 0.31).F)
        w1 = project_chart(
            lift_at(c, es, 0.23 + omega_f.real, 0.31 + omega_f.imag).F
        )
        assert abs(w1[0] - w0[0]) < 1e-7 and abs(w1[1] - w0[1]) < 1e-7

    def test_nonreal_torus_pinned(self):
        c = derive_constants(NONREAL_TORUS)
        v = classify_torus(c, NONREAL_TORUS_LAM)
        assert v.tag == "Torus"
        assert {name: (cert.num, cert.den) for name, cert in v.certificates.items()} == {
            "d_ratio": (1, 3), "phase": (33, 16)}
        es = eigensystem(c, NONREAL_TORUS_LAM)
        assert es.regime == "nonreal"
        rng = np.random.default_rng(5)
        for omega in v.lattice:
            for _ in range(10):
                x, y = rng.uniform(-1, 1), rng.uniform(0, 2 * c.T)
                w0 = project_chart(lift_at(c, es, x, y).F)
                w1 = project_chart(lift_at(c, es, x + omega.real, y + omega.imag).F)
                assert abs(w1[0] - w0[0]) < 1e-7 and abs(w1[1] - w0[1]) < 1e-7

    def test_nonreal_torus_constructed(self):
        # find a non-real case certified as a torus by scanning lambda for a
        # rational d-ratio, then verify the constructed lattice closes the lift
        c = derive_constants(SurfaceParams(2.0, complex(cmath.exp(1j * math.pi / 4))))

        def ratio(theta):
            es = eigensystem(c, cmath.exp(1j * theta))
            return es.d[1] / es.d[0]

        # bisect for d2/d1 = 1/4 in a monotone window
        lo, hi = 0.2, 0.5
        target = 0.25
        flo = ratio(lo) - target
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = ratio(mid) - target
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        lam = cmath.exp(1j * 0.5 * (lo + hi))
        es = eigensystem(c, lam)
        assert abs(es.d[1] / es.d[0] - target) < 1e-12
        v = classify_torus(c, lam, max_den=8, tol=1e-8)
        # generically the second certificate fails; accept either verdict but
        # demand the certified real period closes the lift projectively
        assert v.tag in ("Torus", "Cylinder")
        p_f = v.lattice[0].real if v.tag == "Torus" else v.omega.real
        assert p_f == pytest.approx(TWO_PI * 4 / es.d[0], abs=1e-9)
        w0 = project_chart(lift_at(c, es, 0.12, 0.57).F)
        w1 = project_chart(lift_at(c, es, 0.12 + p_f, 0.57).F)
        assert abs(w1[0] - w0[0]) < 1e-7 and abs(w1[1] - w0[1]) < 1e-7


def test_verdict_flat_rejected():
    from equilag.potential import FlatCliffordError

    with pytest.raises(FlatCliffordError):
        derive_constants(SurfaceParams(1.0, 1.0))
