import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from equilag.elliptic import (
    _agm_scheme,
    _carlson_rc,
    _carlson_rf,
    _carlson_rj,
    _third_kind,
    complete_K,
    jacobi,
)
from kernel_oracles import incomplete_J


def oracle_J(theta: float, k: float) -> float:
    """Direct adaptive quadrature of the defining integral."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # epsabs is at the roundoff floor
        val, err = quad(
            lambda a: 1.0 / math.sqrt(1.0 - (k * math.sin(a)) ** 2),
            0.0,
            theta,
            epsabs=1e-14,
            epsrel=1e-14,
            limit=400,
        )
    assert err < 1e-13
    return val


class TestCompleteK:
    def test_circular_limit(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_against_quadrature(self):
        assert abs(complete_K(0.5) - oracle_J(math.pi / 2, 0.5)) < 1e-12

    def test_strictly_increasing(self):
        ks = np.linspace(0.0, 0.99, 50)
        vals = [complete_K(k) for k in ks]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] >= math.pi / 2 - 1e-15

    @pytest.mark.parametrize("k", [1.0, 1.5, -0.1, float("nan")])
    def test_domain_errors(self, k):
        with pytest.raises(ValueError):
            complete_K(k)


class TestIncompleteJ:
    def test_trivial_values(self):
        assert incomplete_J(math.pi / 2, 0.0) == pytest.approx(math.pi / 2, abs=1e-14)
        assert incomplete_J(0.0, 0.7) == 0.0

    def test_against_quadrature(self):
        assert abs(incomplete_J(math.pi / 4, 0.5) - oracle_J(math.pi / 4, 0.5)) < 1e-12

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_random_against_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta = rng.uniform(-4.0, 4.0)
            k = rng.uniform(0.0, 0.99)
            assert abs(incomplete_J(theta, k) - oracle_J(theta, k)) < 1e-11

    def test_complete_consistency(self):
        for k in (0.1, 0.5, 0.9, 0.99):
            assert abs(incomplete_J(math.pi / 2, k) - complete_K(k)) < 1e-13

    def test_odd(self):
        for theta in (0.2, 1.1, 2.9):
            assert incomplete_J(-theta, 0.6) == pytest.approx(
                -incomplete_J(theta, 0.6), abs=1e-13
            )

    def test_quasi_periodicity(self):
        k = 0.6
        twoK = 2.0 * complete_K(k)
        for theta in (-1.0, 0.3, 1.2):
            assert incomplete_J(theta + math.pi, k) == pytest.approx(
                incomplete_J(theta, k) + twoK, abs=1e-12
            )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            incomplete_J(0.3, 1.0)


class TestJacobi:
    def test_origin(self):
        assert jacobi(0.0, 0.5) == (0.0, 1.0, 1.0)

    def test_circular_limit(self):
        sn, cn, dn = jacobi(1.0, 0.0)
        assert sn == pytest.approx(math.sin(1.0), abs=1e-15)
        assert cn == pytest.approx(math.cos(1.0), abs=1e-15)
        assert dn == 1.0

    def test_hyperbolic_limit(self):
        sn, cn, dn = jacobi(0.5, 1.0)
        assert sn == pytest.approx(math.tanh(0.5), abs=1e-15)
        assert cn == pytest.approx(1.0 / math.cosh(0.5), abs=1e-15)
        assert dn == pytest.approx(1.0 / math.cosh(0.5), abs=1e-15)

    def test_quarter_period(self):
        k = 0.5
        sn, cn, dn = jacobi(complete_K(k), k)
        assert sn == pytest.approx(1.0, abs=1e-12)
        assert cn == pytest.approx(0.0, abs=1e-12)
        assert dn == pytest.approx(math.sqrt(1.0 - k * k), abs=1e-12)

    def test_pythagorean_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            k = rng.uniform(0.0, 0.999)
            z = rng.uniform(-30.0, 30.0)
            sn, cn, dn = jacobi(z, k)
            assert abs(sn * sn + cn * cn - 1.0) < 1e-12
            assert abs(k * k * sn * sn + dn * dn - 1.0) < 1e-12
            assert abs(sn) <= 1.0 + 1e-15
            assert dn >= math.sqrt(1.0 - k * k) - 1e-12

    def test_derivatives_by_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(50):
            k = rng.uniform(0.05, 0.95)
            z = rng.uniform(-5.0, 5.0)
            sp = jacobi(z + h, k)
            sm = jacobi(z - h, k)
            sn, cn, dn = jacobi(z, k)
            assert (sp.sn - sm.sn) / (2 * h) == pytest.approx(cn * dn, abs=1e-6)
            assert (sp.cn - sm.cn) / (2 * h) == pytest.approx(-sn * dn, abs=1e-6)
            assert (sp.dn - sm.dn) / (2 * h) == pytest.approx(-k * k * sn * cn, abs=1e-6)

    def test_inverts_incomplete_J(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            theta = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
            k = rng.uniform(0.0, 0.95)
            assert jacobi(incomplete_J(theta, k), k).sn == pytest.approx(
                math.sin(theta), abs=1e-10
            )

    def test_periodicity_4K(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            k = rng.uniform(0.05, 0.95)
            z = rng.uniform(-10.0, 10.0)
            K4 = 4.0 * complete_K(k)
            a = jacobi(z, k)
            b = jacobi(z + K4, k)
            assert np.allclose(a, b, atol=1e-10)

    def test_dn_periodicity_2K(self):
        k = 0.7
        twoK = 2.0 * complete_K(k)
        for z in (-1.3, 0.2, 2.7):
            assert jacobi(z + twoK, k).dn == pytest.approx(jacobi(z, k).dn, abs=1e-11)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            jacobi(0.3, 1.2)
        with pytest.raises(ValueError):
            jacobi(float("inf"), 0.5)

    def test_accuracy_against_scipy(self):
        # independent reference implementation as oracle; target ~1e-13
        # for k <= 0.999 per the module contract
        from scipy import special

        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(500):
            k = rng.uniform(0.0, 0.999)
            z = rng.uniform(-20.0, 20.0)
            sn, cn, dn = jacobi(z, k)
            so, co, do, _ = special.ellipj(z, k * k)
            worst = max(worst, abs(sn - so), abs(cn - co), abs(dn - do))
        assert worst < 1e-12


class TestAgmScheme:
    # moduli at which a stop rule below one ulp never held: a_n and b_n
    # stayed a last bit apart and the chain ran to its 40-level cap
    FORMERLY_CAPPED = (0.052378446115288226, 0.09519047619047619, 0.1522731829573935)

    def test_stops_within_a_few_levels(self):
        levels = [len(_agm_scheme(float(k))[0]) for k in np.linspace(0.0, 0.999, 1000)]
        assert max(levels) < 40

    def test_accuracy_against_mpmath_at_formerly_capped_moduli(self):
        import mpmath

        for k in self.FORMERLY_CAPPED:
            assert len(_agm_scheme(k)[0]) < 40
            with mpmath.workdps(30):
                K = float(mpmath.ellipk(mpmath.mpf(k) ** 2))
                oracles = [
                    [float(mpmath.ellipfun(f, z, k=k)) for f in ("sn", "cn", "dn")]
                    for z in (0.3, -1.7, 5.9)
                ]
            assert abs(complete_K(k) - K) < 1e-15 * K
            for z, oracle in zip((0.3, -1.7, 5.9), oracles):
                assert max(abs(a - b) for a, b in zip(jacobi(z, k), oracle)) < 1e-14


class TestCarlson:
    """R_C, R_J and the third-kind forms against mpmath at 30 digits."""

    def test_rc_against_mpmath(self):
        # both closed forms over 600 decades in either order, x = 0, x = y
        # exactly, y 1 to 2^20 ulp off x on either side, and a subnormal x
        import mpmath

        rng = np.random.default_rng(41)
        cases = [tuple(10.0 ** rng.uniform(-300, 300, size=2)) for _ in range(300)]
        cases += [tuple(10.0 ** rng.uniform(-8, 3, size=2)) for _ in range(200)]
        cases += [(0.0, y) for y in 10.0 ** rng.uniform(-300, 300, 50)]
        cases += [(x, x) for x in 10.0 ** rng.uniform(-300, 300, 50)]
        for x in 10.0 ** rng.uniform(-300, 300, 40):
            cases += [(x, x * (1.0 + sign * k * 2.0**-52))
                      for k in (1, 2, 7, 2**20) for sign in (1, -1)]
        cases += [(5e-324, 1.0), (2.2e-310, 3e-300), (1e-315, 1e300), (5e-324, 5e-324)]
        worst = 0.0
        with mpmath.workdps(30):
            for x, y in cases:
                want = mpmath.elliprc(x, y)
                worst = max(worst, float(abs(_carlson_rc(x, y) - want) / want))
        assert worst < 2e-15

    def test_rc_array_has_the_float_bits(self):
        # each element of an array call equals its float call, on both forms:
        # the float path takes numpy's arctan and arcsinh, not math's
        rng = np.random.default_rng(30)
        x, y = 10.0 ** rng.uniform(-12, 12, (2, 2400))
        x[::50], y[1::50] = 0.0, x[1::50]
        assert (x < y).sum() > 1000 and (x > y).sum() > 1000
        got = _carlson_rc(x, y)
        want = np.array([_carlson_rc(float(a), float(b)) for a, b in zip(x, y)])
        assert np.array_equal(got, want)
        assert np.array_equal(_carlson_rc(1.0, y), [_carlson_rc(1.0, float(b)) for b in y])

    def test_rc_nan_in_nan_out(self):
        import warnings

        nan = math.nan
        pairs = [(nan, 1.0), (1.0, nan), (nan, nan), (0.0, nan), (nan, 0.0)]
        assert all(math.isnan(_carlson_rc(x, y)) for x, y in pairs)
        x, y = (np.array(col) for col in zip(*pairs, (0.0, 2.0), (3.0, 3.0), (4.0, 1.0)))
        with np.errstate(all="warn"), warnings.catch_warnings():
            warnings.simplefilter("error")  # x = 0 and x = y divide by zero inside
            got = _carlson_rc(x, y)
        assert np.isnan(got[:5]).all()
        assert got[5:].tolist() == [_carlson_rc(*a) for a in ((0.0, 2.0), (3.0, 3.0), (4.0, 1.0))]

    def test_rj_against_mpmath(self):
        import mpmath

        rng = np.random.default_rng(43)
        worst = 0.0
        for _ in range(400):
            x, y, z, p = 10.0 ** rng.uniform(-8, 3, size=4)
            if rng.uniform() < 0.2:
                x = 0.0
            with mpmath.workdps(30):
                want = mpmath.elliprj(x, y, z, p)
                worst = max(worst, float(abs(_carlson_rj(x, y, z, p) - want) / want))
        assert worst < 2e-15

    @pytest.mark.parametrize("p", [1e-4, 1e-8, 1e-12, 1e-16])
    def test_rj_as_p_tends_to_zero(self, p):
        # R_J grows like p^(-1/2); the textbook duplication terms
        # R_C(1, 1 + delta_m / d_m^2) cancel in 1 + delta_m / d_m^2 here
        import mpmath

        for x, y, z in ((0.0, 0.3, 1.0), (0.04, 0.6, 1.0), (3.6, 0.22, 411.0)):
            with mpmath.workdps(30):
                want = mpmath.elliprj(x, y, z, p)
            assert abs(_carlson_rj(x, y, z, p) - want) < 2e-15 * want

    @pytest.mark.parametrize(
        "n", [0.999999, 0.7, 0.2, 0.0, -1e-210, -1e-9, -1e-8, -0.3, -40.0, -1e6, -1e12]
    )
    @pytest.mark.parametrize("phi", [0.2, 1.1, math.pi / 2, -0.8])
    def test_third_kind_both_branches(self, n, phi):
        import mpmath

        k = 0.9
        s, c = math.sin(phi), math.cos(phi)
        (got,) = _third_kind((n,), (1.0 - n * s * s,), s, c * c, 1.0 - (k * s) ** 2, k * k)
        with mpmath.workdps(30):
            want = float(mpmath.ellippi(n, phi, k * k))
        assert abs(got - want) < 4e-15 * abs(want)  # relative: G_j scales Pi up


def _log_uniform(lo: int, hi: int):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _within_ulps(got: np.ndarray, want, ulps: int = 4, scale=None) -> bool:
    """Elementwise |got - want| <= ulps units in the last place of want (or of scale)."""
    want = np.asarray(want, dtype=float)
    ref = np.abs(want) if scale is None else scale
    return bool(np.all(np.abs(got - want) <= ulps * np.spacing(ref)))


class TestArrayPath:
    """Arrays take numpy's elementwise path; each element must match the float path."""

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.floats(0.0, 0.998),
        z=arrays(np.float64, st.integers(1, 40), elements=st.floats(-30.0, 30.0)),
    )
    def test_jacobi(self, k, z):
        got = jacobi(z, k)
        want = np.array([jacobi(float(zi), k) for zi in z]).T
        for g, w in zip(got, want):
            assert g.shape == z.shape
            # sn, cn and dn lie in [-1, 1]: their accuracy is absolute
            assert _within_ulps(g, w, scale=1.0)

    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_jacobi_closed_form_limits(self, k):
        z = np.linspace(-3.0, 3.0, 13)
        got = jacobi(z, k)
        want = np.array([jacobi(float(zi), k) for zi in z]).T
        for g, w in zip(got, want):
            assert g.shape == z.shape
            assert _within_ulps(g, w, scale=1.0)
        with pytest.raises(ValueError):
            jacobi(np.array([0.3, math.nan]), 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), _log_uniform(-8, 3)),
                _log_uniform(-8, 3), _log_uniform(-8, 3), _log_uniform(-16, 3),
            ),
            min_size=1, max_size=30,
        )
    )
    # elements that stop at different steps of the duplication: an element
    # that took the slowest one's extra steps would miss by 6 ulp in R_J
    @example([
        (1.0815033123087217e-08, 2.0702454031022626e-08, 2.2033830068875957e-05, 2.2682628688600983e-07),
        (0.0008318300905206765, 15.568629100968383, 6.972842880569993e-06, 4.655634050106779e-06),
        (0.28535887641271596, 0.00037897870472929616, 1.088102962527201, 0.04475283445566671),
        (0.08157833949519347, 5.0917280266074045e-06, 0.0328709553036143, 1.0989043252706183),
        (7.414101209699589, 2.799543608359394e-06, 87.82128473592884, 1.7983425606317195e-05),
        (4.871447624080009e-07, 0.1445815939058655, 0.5137491412486238, 6.116892542643433e-05),
        (0.000258943759061069, 3.3590899089419135e-08, 1.7338550510542756e-05, 6.789285680093467),
        (0.05631121809298778, 4.8864797228316555e-06, 3.6862341081724646e-05, 349.35949859030666),
    ])
    def test_carlson(self, args):
        x, y, z, p = (np.array(col) for col in zip(*args))
        assert _within_ulps(_carlson_rf(x, y, z), [_carlson_rf(*a[:3]) for a in args])
        assert _within_ulps(_carlson_rc(x, y), [_carlson_rc(*a[:2]) for a in args])
        # p -> 0+ as low as 1e-16, where R_J grows like p^(-1/2)
        assert _within_ulps(_carlson_rj(x, y, z, p), [_carlson_rj(*a) for a in args])

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.one_of(
            st.floats(-1e12, 0.999999),
            st.sampled_from([0.0, 0.999999, -1e12]),
        ),
        k=st.floats(0.0, 0.998),
        phi=st.lists(
            st.one_of(st.just(0.0), st.floats(-math.pi / 2, math.pi / 2)), min_size=1, max_size=20
        ),
    )
    # tiny negative n: the R_C form's q = 1 - k^2 s^2 / n would overflow
    @example(n=-1e-210, k=0.998, phi=[1.5, 0.0, -0.3])
    def test_third_kind(self, n, k, phi):
        # the caller's forms: p = (1 - n) + n cos^2 for n > 0 keeps p -> 0+ accurate
        def args(s, c):
            p = (1.0 - n) + n * c * c if n > 0.0 else 1.0 - n * s * s
            return p, s, c * c, 1.0 - (k * s) ** 2

        s, c = np.sin(phi), np.cos(phi)
        # arrays take their n along the last axis: here one column
        got = _third_kind((n,), *(a[:, None] for a in args(s, c)), k * k)[:, 0]
        want = [_third_kind((n,), (p,), *rest, k * k)[0]
                for p, *rest in (args(float(si), float(ci)) for si, ci in zip(s, c))]
        assert np.all(np.isfinite(got))
        assert _within_ulps(got, want)
        assert np.all(got[s == 0.0] == 0.0)

    def test_floats_stay_python_floats(self):
        # the scalar path must not pay for numpy scalars
        assert all(type(v) is float for v in jacobi(0.7, 0.6))
        assert all(type(v) is float for v in jacobi(0.7, 0.0))
        assert type(_carlson_rf(0.2, 0.5, 1.0)) is float
        assert type(_carlson_rc(0.2, 0.5)) is float
        assert type(_carlson_rj(0.2, 0.5, 1.0, 1e-9)) is float
        pis = _third_kind((0.5, -4.0), (0.9, 1.36), 0.3, 0.91, 0.9, 0.25)
        assert type(pis) is list and [type(v) for v in pis] == [float, float]
