import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    stack_systems,
)
from label_oracles import parity_lattice
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


def g_from_beta(c, es):
    """G_j(2T) from the monodromy data: -(Re beta1 d_j + Im beta2 (-d_j^2 + 2 beta / 3))."""
    re_b1, im_b2 = iwasawa.monodromy_data(c, es)
    return -(re_b1 * es.d + im_b2 * (-es.d**2 + 2.0 * c.beta / 3.0))


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

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False),
           max_den=st.integers(1, 10**12) | st.sampled_from([1, 2, 3, 64, 2**40, 10**12]))
    @example(x=0.0, max_den=1)
    @example(x=-0.0, max_den=7)
    @example(x=5e-324, max_den=10**12)
    @example(x=-2.5e-310, max_den=3)
    @example(x=2.0**53, max_den=1)
    @example(x=-(2.0**53 + 2.0), max_den=10**12)
    @example(x=2.0**80 + 2.0**28, max_den=5)
    @example(x=1e300, max_den=10**12)
    @example(x=-1e300, max_den=2)
    # exact ties between the two final candidates: the smaller denominator wins
    @example(x=0.5, max_den=1)
    @example(x=-2.5, max_den=1)
    @example(x=-0.75, max_den=2)
    @example(x=-7.125, max_den=4)
    @example(x=2.0**-41, max_den=2**40)
    @example(x=-(3.0 + 2.0**-37), max_den=2**36)
    def test_nearest_fraction_matches_limit_denominator(self, x, max_den):
        # with tol = 1 every x is certified: the nearest integer is within 1/2
        cert = rational_approx(x, max_den, 1.0)
        want = Fraction(x).limit_denominator(max_den)
        assert (cert.num, cert.den) == (want.numerator, want.denominator)
        assert cert.residual == abs(x - cert.num / cert.den) and cert.value == x

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            rational_approx(0.5, 0, 1e-9)
        with pytest.raises(ValueError):
            rational_approx(float("nan"), 8, 1e-9)
        # a NaN tol once certified any fraction: residual > nan is False
        for tol in (math.nan, math.inf, -1e-9):
            with pytest.raises(ValueError, match="tol must be finite and >= 0"):
                rational_approx(0.3, 64, tol)


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
        g = g_from_beta(bench_nonreal, es)
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


# BENCH_REAL at lambda = 1 (labels (1, 0, 2)) and at e^{i pi/3} (labels (1, 2, 0))
REAL_LAMBDAS = pytest.mark.parametrize("lam, labels", [(1.0, (1, 0, 2)),
                                                       (cmath.exp(1j * math.pi / 3), (1, 2, 0))])


class TestRealFullPeriod:
    """G_j(2T) in the real regime: sn and cn change sign over 2T, dn does not."""

    @REAL_LAMBDAS
    def test_pi_on_sn_and_cn_zero_on_dn(self, bench_real, lam, labels):
        es = eigensystem(bench_real, lam)
        assert (es.regime, es.labels) == ("real", labels)
        g = immersion._g_full_period(bench_real, es)
        assert type(g) is tuple and all(type(v) is float for v in g)
        want = [0.0] * 3
        want[labels[0]] = want[labels[1]] = math.pi
        assert list(g) == want

    def test_stack_rows_are_their_objects(self, bench_real):
        systems = [eigensystem(bench_real, cmath.exp(1j * j * math.pi / 3)) for j in range(6)]
        g = immersion._g_full_period(bench_real, stack_systems(systems))
        assert g.shape == (6, 3)
        for row, es in zip(g, systems):
            assert row.tolist() == list(immersion._g_full_period(bench_real, es))

    @REAL_LAMBDAS
    @pytest.mark.parametrize("m", [-3, 1, 2])
    def test_monodromy_phases_keep_the_flip_bits(self, bench_real, lam, labels, m):
        # the real regime's former form, p d_j + m pi flip_j, to the bit and the sign of zero
        es = eigensystem(bench_real, lam)
        flip = np.zeros(3)
        flip[labels[0]] = flip[labels[1]] = 1.0
        want = 1.3 * es.d + m * math.pi * flip
        assert monodromy_phases(bench_real, es, 1.3, m).tobytes() == want.tobytes()

    @REAL_LAMBDAS
    def test_beta_routes_still_refused(self, bench_real, lam, labels):
        es = eigensystem(bench_real, lam)
        msg = (f"cdet vanishes at y = 0 for lambda = {es.lam:.6g} (lambda^-3 psi is real up to "
               "tolerance); evaluate through the eigenbasis closed forms (extended_frame, lift_at)")
        for call in (lambda: iwasawa.beta_integrals(bench_real, es, 0.7),
                     lambda: iwasawa.beta_integrals(bench_real, es, 0.0),
                     lambda: iwasawa.monodromy_data(bench_real, es)):
            with pytest.raises(iwasawa.SingularLocusError) as info:
                call()
            assert str(info.value) == msg


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-8])
def test_classifiers_refuse_bad_tolerances(bench_real, bad):
    with pytest.raises(ValueError, match="phase_tol must be finite"):
        classify_cylinder(bench_real, 1.0, 1.0, phase_tol=bad)
    with pytest.raises(ValueError, match="phase_tol must be finite"):
        classify_torus(bench_real, 1.0, phase_tol=bad)
    with pytest.raises(ValueError, match="^tol must be finite"):
        classify_torus(bench_real, 1.0, tol=bad)


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
            g_beta = g_from_beta(c, es)
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


# a2/a1 = p/q, q <= 12: 45 ratios
REAL_RATIOS = [(p, q) for q in range(2, 13) for p in range(1, q) if math.gcd(p, q) == 1]


def real_torus(p, q, arg):
    """a1 = 1, a2 = p/q and arg psi = arg: a3 = a1 a2 / (a1 + a2) and |psi|^2 = 2 a1 a2 a3."""
    a2 = p / q
    a3 = a2 / (1.0 + a2)
    return derive_constants(SurfaceParams(1.0, cmath.rect(math.sqrt(2.0 * a2 * a3), arg)))


class TestRealTori:
    """Real lambda take the one route: d_2/d_1, G_j(2T), the lattice and its phase check."""

    @pytest.mark.parametrize("arg", [0.0, 1.0, math.pi])
    def test_route_gives_the_parity_lattices(self, arg):
        # at lambda = e^{i (arg + k pi) / 3}, lambda^-3 psi = (-1)^k |psi|: then d_2/d_1 is
        # a2/a1 = p/q for even k and -a3/a1 = -p/(p + q) for odd k
        for p, q in REAL_RATIOS:
            c = real_torus(p, q, arg)
            assert c.a2 == pytest.approx(p / q, rel=1e-13)
            for k in range(6):
                lam = cmath.exp(1j * (arg + k * math.pi) / 3.0)
                es = eigensystem(c, lam)
                want = parity_lattice(c, es)
                v = classify_torus(c, lam)
                assert es.regime == "real" and v.tag == "Torus" and want is not None
                cert = v.certificates["d_ratio"]
                assert cert.value == float(es.d[1] / es.d[0])
                assert (cert.num, cert.den) == ((p, q) if k % 2 == 0 else (-p, p + q))
                for got, rule in zip(v.lattice, want):
                    assert abs(got - rule) <= 1e-13 * abs(rule), (p, q, k, v.lattice, want)
                if want[1].real == 0.0:  # 4Ti
                    assert v.lattice[1].real == 0.0, (p, q, k, v.lattice)

    def test_two_sevenths_generator_is_4ti(self):
        # p0 mod p_f once came out one rounding below p_f: omega_f = 35.26429007561698 + 4.9456i
        c = derive_constants(SurfaceParams(1.0, 0.3563483225498992))
        assert c.a2 == pytest.approx(2.0 / 7.0, rel=1e-14)
        v = classify_torus(c, 1.0)
        assert {name: (cert.num, cert.den) for name, cert in v.certificates.items()} == {
            "d_ratio": (2, 7), "phase": (-5, 2)}
        p_f, omega_f = v.lattice
        rule = parity_lattice(c, eigensystem(c, 1.0))
        assert abs(p_f - rule[0]) <= 1e-13 * abs(rule[0])
        assert omega_f == rule[1] == 4.0 * c.T * 1j

    def test_negative_psi0_ratio_has_its_own_denominator(self):
        # psi0 < 0: d_2/d_1 = -a3/a1 = -45/107, beyond max_den 64, where a2/a1 = 45/62 is not
        c = real_torus(45, 62, math.pi)
        assert parity_lattice(c, eigensystem(c, 1.0)) is not None
        assert classify_torus(c, 1.0).tag == "NoPeriodFound"
        cert = classify_torus(c, 1.0, max_den=107).certificates["d_ratio"]
        assert (cert.num, cert.den) == (-45, 107)

    @REAL_LAMBDAS
    def test_planted_phase_error_fails_the_check(self, bench_real, lam, labels, monkeypatch):
        # 1e-6 on the third G_j(2T), which no certificate reads: only the phase check sees it
        g_full_period = immersion._g_full_period

        def planted(c, es):
            g = g_full_period(c, es)
            return (g[0], g[1], g[2] + 1e-6)

        assert classify_torus(bench_real, lam).tag == "Torus"
        monkeypatch.setattr(immersion, "_g_full_period", planted)
        with pytest.raises(ArithmeticError, match="fails the phase check"):
            classify_torus(bench_real, lam)


def test_verdict_flat_rejected():
    from equilag.potential import FlatCliffordError

    with pytest.raises(FlatCliffordError):
        derive_constants(SurfaceParams(1.0, 1.0))
