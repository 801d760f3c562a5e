import cmath
import math

import inspect

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equilag import iwasawa, linalg3, potential
from equilag.potential import (
    FlatCliffordError,
    HyperplaneDegenerateError,
    SurfaceClass,
    SurfaceParams,
    TotallyGeodesicError,
    classify,
    derive_constants,
    eigensystem,
    potential_matrix,
    regime_of,
)
from matrix_oracles import char_poly_eval, commutant_matrix, eigenvectors_mp

EPS6 = linalg3.EPS6


class TestDeriveConstants:
    def test_benchmark_a1_2_psi_1(self, bench_sweep):
        c = bench_sweep
        assert c.beta == pytest.approx(4.25, abs=1e-15)
        # oracle: a1, a2, -a3 are the roots of w^3 - (beta/2) w^2 + |psi|^2/2
        roots = np.sort(np.roots([1.0, -c.beta / 2.0, 0.0, abs(c.psi) ** 2 / 2.0]).real)
        assert roots[2] == pytest.approx(2.0, abs=1e-12)       # a1 itself
        assert c.a2 == pytest.approx(roots[1], abs=1e-12)
        assert c.a3 == pytest.approx(-roots[0], abs=1e-12)
        assert c.k**2 == pytest.approx((c.a1 - c.a2) / (c.a1 + c.a3), abs=1e-15)
        assert c.q2 == pytest.approx((c.a1 - c.a2) / c.a1, abs=1e-15)
        assert c.r == pytest.approx(math.sqrt(2.0 * (c.a1 + c.a3)), abs=1e-15)

    def test_benchmark_values_frozen(self, bench_sweep):
        # frozen from the root-finder oracle above
        c = bench_sweep
        assert c.a2 == pytest.approx(0.56639110926865932, abs=1e-14)
        assert c.a3 == pytest.approx(0.44139110926865932, abs=1e-14)
        assert c.k**2 == pytest.approx(0.58720984330969860, abs=1e-13)
        assert c.q2 == pytest.approx(0.71680444536567034, abs=1e-14)
        assert c.r == pytest.approx(2.2097018392845036, abs=1e-13)

    def test_exact_rational_case(self, bench_real):
        # w^3 - (7/6) w^2 + 1/6 = (w - 1)(w - 1/2)(w + 1/3)
        c = bench_real
        assert c.beta == pytest.approx(7.0 / 3.0, abs=1e-14)
        assert c.a2 == pytest.approx(0.5, abs=1e-14)
        assert c.a3 == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_cubic_viete_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a1 = rng.uniform(0.5, 4.0)
            psi = cmath.rect(rng.uniform(0.05, 0.9) * a1**1.5, rng.uniform(0, 2 * np.pi))
            c = derive_constants(SurfaceParams(a1, psi))
            assert c.a1 > c.a2 > c.a3 > 0
            assert c.a1 + c.a2 - c.a3 == pytest.approx(c.beta / 2.0, rel=1e-12)
            assert c.a1 * c.a2 * c.a3 == pytest.approx(abs(psi) ** 2 / 2.0, rel=1e-11)
            assert 0.0 < c.k**2 < 1.0
            assert c.psi == pytest.approx(-1j * c.a**2 * c.b)
            assert c.T == pytest.approx(
                __import__("equilag").complete_K(c.k) / c.r, abs=1e-14
            )

    @pytest.mark.parametrize("a1", [50.0, 1e3, 1e5])
    def test_high_modulus_roots_against_mpmath(self, a1):
        # beta / 2 - a1 = |psi|^2 / (2 a1^2) cancels as a1 grows; at
        # a1 = 1e5 that difference put a2 7% off its root
        import mpmath

        c = derive_constants(SurfaceParams(a1, 1.0))
        with mpmath.workdps(40):
            beta = 2 * mpmath.mpf(a1) + 1 / mpmath.mpf(a1) ** 2
            roots = sorted(mpmath.re(z) for z in mpmath.polyroots(
                [1, -beta / 2, 0, mpmath.mpf(1) / 2], maxsteps=200, extraprec=100))
        assert abs(c.a2 - roots[1]) < 1e-15 * roots[1]
        assert abs(c.a3 + roots[0]) < 1e-15 * abs(roots[0])

    def test_modulus_too_close_to_one_rejected(self):
        # k'^2 = 1.4e-9 < 2^-26: k would keep under half the digits of k'
        with pytest.raises(ValueError, match="modulus too close to 1"):
            derive_constants(SurfaceParams(1e6, 1.0))

    def test_totally_geodesic_rejected(self):
        with pytest.raises(TotallyGeodesicError):
            derive_constants(SurfaceParams(1.0, 0.0))

    def test_flat_clifford_rejected(self):
        with pytest.raises(FlatCliffordError):
            derive_constants(SurfaceParams(1.0, 1.0))
        with pytest.raises(FlatCliffordError):
            derive_constants(SurfaceParams(4.0, 8.0))  # a1 = |psi|^(2/3)

    def test_a1_below_maximum_rejected(self):
        # e^{u(0)} must be the larger of the two turning values
        with pytest.raises(ValueError):
            derive_constants(SurfaceParams(0.5, 1.0))

    def test_bad_a1(self):
        with pytest.raises(ValueError):
            SurfaceParams(-1.0, 1.0)


class TestClassify:
    def test_examples(self):
        assert classify(SurfaceParams(1.0, 0.0)) is SurfaceClass.TOTALLY_GEODESIC
        assert classify(SurfaceParams(1.0, 1.0)) is SurfaceClass.FLAT_CLIFFORD
        assert classify(SurfaceParams(2.0, 1.0)) is SurfaceClass.GENERIC
        # the hyperplane is a per-lambda fact, decided by eigensystem alone
        c = derive_constants(SurfaceParams(2.0, 1.0))
        assert eigensystem(c, 1.0).regime == "real"
        lam = cmath.exp(1j * math.pi / 6)  # lambda^-3 = -i, purely imaginary form
        assert regime_of(c, lam) == "imaginary"
        with pytest.raises(HyperplaneDegenerateError):
            eigensystem(c, lam)
        assert [member.value for member in SurfaceClass] == ["Generic", "FlatClifford", "TotallyGeodesic"]

    def test_six_degenerate_lambdas(self, bench_sweep):
        # sign changes of Re(lambda^-3 psi) over a fine sweep count the zeros
        thetas = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
        vals = np.array([(bench_sweep.psi / cmath.exp(1j * t) ** 3).real for t in thetas])
        changes = int(np.sum(np.sign(vals) != np.sign(np.roll(vals, -1))))
        assert changes == 6


class TestPotentialMatrix:
    def test_zero_diagonal(self, bench_sweep):
        d = potential_matrix(bench_sweep, cmath.exp(0.7j))
        assert np.max(np.abs(np.diag(d))) == 0.0

    def test_entry_13(self, bench_sweep):
        # lambda = 1: entry (1,3) is a = i e^{u(0)/2} = i sqrt(2)
        d = potential_matrix(bench_sweep, 1.0)
        assert d[0, 2] == pytest.approx(1j * math.sqrt(2.0), abs=1e-15)

    def test_skew_hermitian_on_circle(self, bench_nonreal):
        rng = np.random.default_rng(1)
        for _ in range(100):
            lam = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
            d = potential_matrix(bench_nonreal, lam)
            assert np.max(np.abs(d + np.conj(d).T)) < 1e-15
            assert abs(np.trace(d)) == 0.0

    def test_twisting(self, bench_nonreal):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
            d = potential_matrix(bench_nonreal, lam)
            twisted = potential_matrix(bench_nonreal, EPS6 * lam)
            assert np.max(np.abs(twisted - linalg3.sigma_algebra(d))) < 1e-12

    def test_zero_lambda_rejected(self, bench_nonreal):
        with pytest.raises(ValueError):
            potential_matrix(bench_nonreal, 0.0)


class TestCharPoly:
    def test_at_zero(self, bench_sweep):
        lam = cmath.exp(0.4j)
        re0 = (bench_sweep.psi / lam**3).real
        assert char_poly_eval(bench_sweep, lam, 0.0) == pytest.approx(-2j * re0, abs=1e-14)

    def test_known_root(self, bench_sweep):
        # d = 1/2 solves d^3 - beta d + 2 Re(psi) = 0 at lambda = 1
        assert abs(char_poly_eval(bench_sweep, 1.0, 0.5j)) < 1e-14

    def test_against_determinant(self, bench_nonreal):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
            mu = complex(rng.normal(), rng.normal())
            d = potential_matrix(bench_nonreal, lam)
            oracle = np.linalg.det(mu * np.eye(3) - d)
            assert char_poly_eval(bench_nonreal, lam, mu) == pytest.approx(oracle, abs=1e-12)

    def test_off_circle_against_determinant(self, bench_nonreal):
        # analytic continuation: the identity holds for all lambda in C^*
        for lam in (0.3, 1.7 - 0.4j, 0.2 + 0.9j):
            d = potential_matrix(bench_nonreal, lam)
            mu = 0.4 - 0.2j
            oracle = np.linalg.det(mu * np.eye(3) - d)
            assert char_poly_eval(bench_nonreal, lam, mu) == pytest.approx(oracle, abs=1e-12)


class TestEigensystem:
    def test_real_case_closed_form(self, bench_real):
        es = eigensystem(bench_real, 1.0)
        s3 = math.sqrt(3.0)
        assert np.allclose(es.d, [2.0 / s3, 1.0 / s3, -s3], atol=1e-12)

    def test_benchmark_against_root_oracle(self, bench_sweep):
        es = eigensystem(bench_sweep, 1.0)
        oracle = np.sort(np.roots([1.0, 0.0, -4.25, 2.0]).real)[::-1]
        assert np.allclose(es.d, oracle, atol=1e-12)
        assert np.allclose(es.d, [1.7655644370746373, 0.5, -2.2655644370746373], atol=1e-12)

    def test_residual_and_orthonormality(self, bench_nonreal):
        rng = np.random.default_rng(4)
        for _ in range(30):
            lam = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
            es = eigensystem(bench_nonreal, lam)
            d = potential_matrix(bench_nonreal, lam)
            basis = es.vectors.T
            assert np.max(np.abs(d @ basis - basis @ np.diag(1j * es.d))) < 1e-11
            gram = np.conj(es.vectors) @ es.vectors.T
            assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_viete_sweep(self, bench_sweep):
        worst = 0.0
        for theta in np.linspace(0, 2 * np.pi, 360, endpoint=False):
            lam = cmath.exp(1j * theta)
            re0 = (bench_sweep.psi / lam**3).real
            if abs(re0) < 1e-6:
                continue
            es = eigensystem(bench_sweep, lam)
            d1, d2, d3 = es.d
            assert d1 > d2 > d3
            worst = max(
                worst,
                abs(d1 + d2 + d3),
                abs(d1 * d2 + d2 * d3 + d3 * d1 + bench_sweep.beta),
                abs(d1 * d2 * d3 + 2 * re0),
            )
        assert worst < 1e-10

    def test_third_component_phase_convention(self, bench_nonreal):
        es = eigensystem(bench_nonreal, cmath.exp(0.3j))
        for j in range(3):
            assert es.vectors[j][2].imag == pytest.approx(0.0, abs=1e-13)
            assert es.vectors[j][2].real > 0.0

    @pytest.mark.parametrize("offset", [1e-7, 1e-8, 1e-9])
    def test_small_eigenvalue_near_hyperplane(self, bench_nonreal, offset):
        # arg psi = pi/4: Re(lambda^-3 psi) vanishes at arg lambda = -pi/12
        # and the middle root d_2 ~ 2 Re / beta with it; re-centring the
        # roots left it with an absolute, not a relative, error of an ulp.
        # The reference roots are those of the cubic the package solves.
        import mpmath

        c = bench_nonreal
        lam = cmath.exp(1j * (-math.pi / 12 + offset))
        d = eigensystem(c, lam).d
        with mpmath.workdps(40):
            q = mpmath.mpf(2.0 * (c.psi / lam**3).real)
            want = sorted((mpmath.re(z) for z in mpmath.polyroots(
                [1, 0, -mpmath.mpf(c.beta), q], maxsteps=200, extraprec=100)), reverse=True)
        assert abs(d[1] - want[1]) < 4e-16 * abs(want[1])

    def test_flat_input_raises(self):
        flat = SurfaceParams(1.0, 1.0)
        with pytest.raises(FlatCliffordError):
            derive_constants(flat)

    def test_off_circle_rejected(self, bench_nonreal):
        with pytest.raises(ValueError):
            eigensystem(bench_nonreal, 0.5)

    def test_commutant_matrix(self, bench_nonreal):
        # the package keeps L0 only as its spectrum on the eigenvectors of D
        lam = cmath.exp(0.9j)
        d = potential_matrix(bench_nonreal, lam)
        l0 = commutant_matrix(bench_nonreal, lam)
        assert np.max(np.abs(d @ l0 - l0 @ d)) < 1e-13
        assert abs(np.trace(l0)) < 1e-13
        es = eigensystem(bench_nonreal, lam)
        spectrum = iwasawa._l0_spectrum(bench_nonreal, es.d)
        basis = es.vectors.T
        assert np.max(np.abs(l0 @ basis - basis * spectrum)) < 1e-12


def _misses(c, lam) -> tuple[float, float]:
    """(max |l_j - l_j(mpmath)|, max |Gram - I|) of eigensystem(c, lam)."""
    es = eigensystem(c, lam)
    miss = float(np.max(np.abs(es.vectors - eigenvectors_mp(c.a1, c.psi, lam))))
    gram = float(np.max(np.abs(np.conj(es.vectors) @ es.vectors.T - np.eye(3))))
    return miss, gram


class TestEigenvectorAccuracy:
    """The closed-form l_j against mpmath at 40 digits, raw: no common phase is fitted."""

    @pytest.mark.parametrize("psi", [1.0 + 0j, cmath.exp(1j * math.pi / 4)], ids=["psi=1", "psi=e^ipi/4"])
    @pytest.mark.parametrize("a1", [2.0, 1e3])
    def test_ladder_to_the_real_locus(self, a1, psi):
        # arg lambda = arg(psi) / 3 + offset, offset = +-1e-1 ... +-1e-12 rad:
        # the sn mode's third component falls like the offset and hands its
        # phase to the y-derivative anchor below 1e-9
        c = derive_constants(SurfaceParams(a1, psi))
        for k in range(1, 13):
            for sign in (1.0, -1.0):
                lam = cmath.exp(1j * (cmath.phase(psi) / 3.0 + sign * 10.0**-k))
                miss, gram = _misses(c, lam)
                assert miss <= 1e-14 and gram <= 1e-14, (k, sign, miss, gram)

    @settings(max_examples=150, deadline=None)
    @given(
        flat=st.floats(-2.0, 3.0),      # log10(a1 / |psi|^(2/3) - 1)
        size=st.floats(-2.0, 2.0),      # log10 |psi|
        arg=st.floats(0.0, 2.0 * math.pi),
        theta=st.floats(0.0, 2.0 * math.pi),
    )
    def test_generic_surfaces(self, flat, size, arg, theta):
        apsi = 10.0**size
        c = derive_constants(SurfaceParams(apsi ** (2.0 / 3.0) * (1.0 + 10.0**flat), cmath.rect(apsi, arg)))
        miss, gram = _misses(c, cmath.exp(1j * theta))
        bound = 1e-14 if flat >= -1.0 else 2e-12  # near flat the roots crowd together
        assert miss <= bound and gram <= bound, (miss, gram)


def test_eigensystem_uses_only_the_cubic_solver(bench_nonreal, bench_real, monkeypatch):
    # closed form: no kernel vectors, polish or D(lambda) on this path
    calls = []

    def spy(name, f):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapped

    for name, f in inspect.getmembers(linalg3, inspect.isfunction):
        monkeypatch.setattr(linalg3, name, spy(name, f))
    monkeypatch.setattr(potential, "potential_matrix", spy("potential_matrix", potential_matrix))
    for c, lam in ((bench_nonreal, cmath.exp(0.4j)), (bench_real, 1.0),
                   (bench_nonreal, cmath.exp(1j * (math.pi / 12 + 1e-12)))):
        eigensystem(c, lam)
    assert calls == ["solve_depressed_cubic"] * 3


class TestUnitLambda:
    def test_lambda_is_normalised(self, bench_real):
        # |lambda| = 1 + 5e-9 is inside the gate and means lambda / |lambda|
        es = eigensystem(bench_real, 1.000000005)
        assert es.lam == 1.0 and es.cubic == bench_real.psi
        lam = 0.6 + 0.8000000001j
        assert abs(abs(eigensystem(bench_real, lam).lam) - 1.0) <= 2.3e-16

    def test_unit_lambda_keeps_its_bits(self):
        rng = np.random.default_rng(8)
        for theta in rng.uniform(0.0, 2.0 * math.pi, 200):
            lam = cmath.exp(1j * theta)
            if abs(lam) == 1.0:
                got = potential._check_unit(lam)
                assert (got.real.hex(), got.imag.hex()) == (lam.real.hex(), lam.imag.hex())


class TestSpectralFacts:
    """eigensystem decides the hyperplane, the real-regime labels and f'(d_j) once."""

    def test_hyperplane_refused_before_the_cubic(self, bench_sweep, monkeypatch):
        # psi = 1, lambda = e^{i pi/6}: lambda^-3 psi = -i
        solves = []
        monkeypatch.setattr(linalg3, "solve_depressed_cubic", lambda *args: solves.append(args))
        with pytest.raises(HyperplaneDegenerateError) as exc:
            eigensystem(bench_sweep, cmath.exp(1j * math.pi / 6))
        assert str(exc.value) == "lambda^-3 psi is purely imaginary: surface degenerates to a hyperplane"
        assert solves == []

    @settings(max_examples=200, deadline=None)
    @given(
        flat=st.floats(-2.0, 3.0),      # log10(a1 / |psi|^(2/3) - 1)
        size=st.floats(-2.0, 2.0),      # log10 |psi|
        arg=st.floats(0.0, 2.0 * math.pi),
        branch=st.none() | st.integers(0, 5),  # one of the six real lambda, or theta
        theta=st.floats(0.0, 2.0 * math.pi),
    )
    @example(flat=0.0, size=0.0, arg=0.0, branch=0, theta=0.0)
    @example(flat=0.0, size=0.0, arg=0.0, branch=1, theta=0.0)
    def test_fprime_and_labels(self, flat, size, arg, branch, theta):
        apsi = 10.0**size
        c = derive_constants(SurfaceParams(apsi ** (2.0 / 3.0) * (1.0 + 10.0**flat), cmath.rect(apsi, arg)))
        lam = cmath.exp(1j * (theta if branch is None else (arg + branch * math.pi) / 3.0))
        try:
            es = eigensystem(c, lam)
        except HyperplaneDegenerateError:
            assume(False)
        # the weights iwasawa's partial fractions took before es carried them
        d = es.d
        want = np.prod(np.subtract.outer(d, d) + np.eye(3), axis=1)
        assert np.array(es.fprime).tobytes() == want.tobytes()
        assert all(type(fp) is float for fp in es.fprime)
        if es.regime == "real":
            assert es.labels == ((1, 0, 2) if es.cubic.real > 0.0 else (1, 2, 0))
        else:
            assert es.regime == "nonreal" and es.labels is None
        if branch is not None:
            assert es.regime == "real"


class TestOneRegimeDecision:
    """regime_of and eigensystem decide on lambda / |lambda| alike."""

    def test_reproducer(self):
        # |lambda| = 1 - 9e-9 and Im(lambda^-3 psi) just above 1e-9 |psi| on
        # the raw lambda, just below it on lambda / |lambda|
        c = derive_constants(SurfaceParams(2.0, 1.0))
        lam = cmath.rect(1 - 9e-9, 9.9999999e-10 / 3)
        assert regime_of(c, lam) == eigensystem(c, lam).regime == "real"

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.floats(-2.0, 2.0),       # log10 |psi|
        arg=st.floats(0.0, 2.0 * math.pi),
        locus=st.integers(0, 11),        # even: a real lambda; odd: a hyperplane lambda
        side=st.sampled_from([-1.0, 1.0]),
        near=st.floats(-1e-7, 1e-7),     # relative distance from the 1e-9 threshold
        stretch=st.floats(-9e-9, 9e-9),  # |lambda| - 1
    )
    def test_agree_inside_the_unit_gate(self, size, arg, locus, side, near, stretch):
        # 3 arg(lambda) = arg(psi) + locus pi/2 + 3 delta puts the part of
        # lambda^-3 psi that vanishes on the locus at |psi| |lambda|^-3 sin(3 delta),
        # within 1e-7 relative of the regime threshold
        apsi = 10.0**size
        c = derive_constants(SurfaceParams(2.0 * apsi ** (2.0 / 3.0), cmath.rect(apsi, arg)))
        delta = side * math.asin(1e-9 * (1.0 + near)) / 3.0
        lam = cmath.rect(1.0 + stretch, (arg + locus * math.pi / 2.0) / 3.0 + delta)
        regime = regime_of(c, lam)
        if regime == "imaginary":
            with pytest.raises(HyperplaneDegenerateError):
                eigensystem(c, lam)
        else:
            assert eigensystem(c, lam).regime == regime
