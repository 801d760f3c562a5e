import numpy as np
import pytest

from equilag.metric import first_integral_residual, gauss_residual, metric_at


def test_origin_is_maximum(bench_nonreal):
    m = metric_at(bench_nonreal, 0.0)
    assert m.w == pytest.approx(bench_nonreal.a1, abs=1e-15)
    assert m.u_prime == 0.0


def test_half_period_is_minimum(bench_nonreal):
    m = metric_at(bench_nonreal, bench_nonreal.T)
    assert m.w == pytest.approx(bench_nonreal.a2, abs=1e-12)
    assert abs(m.w_prime) < 1e-11


def test_first_integral_at_turning_points(bench_nonreal):
    # a1 and a2 are roots of the cubic, so the residual vanishes analytically
    assert first_integral_residual(bench_nonreal, 0.0) < 1e-13
    assert first_integral_residual(bench_nonreal, bench_nonreal.T) < 1e-12


def test_first_integral_random(bench_nonreal):
    rng = np.random.default_rng(0)
    for y in rng.uniform(-5.0, 5.0, 200):
        assert first_integral_residual(bench_nonreal, y) < 1e-9


def test_periodicity(bench_nonreal):
    rng = np.random.default_rng(1)
    t2 = 2.0 * bench_nonreal.T
    for y in rng.uniform(-3.0, 3.0, 100):
        assert abs(metric_at(bench_nonreal, y + t2).w - metric_at(bench_nonreal, y).w) < 1e-10


def test_evenness(bench_nonreal):
    rng = np.random.default_rng(2)
    for y in rng.uniform(0.0, 3.0, 100):
        assert abs(metric_at(bench_nonreal, -y).w - metric_at(bench_nonreal, y).w) < 1e-12


def test_range(bench_nonreal):
    c = bench_nonreal
    rng = np.random.default_rng(3)
    for y in rng.uniform(-4.0, 4.0, 300):
        w = metric_at(c, y).w
        assert c.a2 - 1e-12 <= w <= c.a1 + 1e-12


def test_derivative_consistency(bench_nonreal):
    h = 1e-6
    for y in (0.13, 0.71, 1.4):
        fd = (metric_at(bench_nonreal, y + h).w - metric_at(bench_nonreal, y - h).w) / (2 * h)
        assert fd == pytest.approx(metric_at(bench_nonreal, y).w_prime, abs=1e-7)


@pytest.mark.parametrize("frac", [0.0, 0.5, 0.23, 0.77])
def test_gauss_equation(bench_nonreal, frac):
    assert gauss_residual(bench_nonreal, frac * bench_nonreal.T) < 1e-5


def test_gauss_equation_other_surface(bench_real):
    for y in (0.0, bench_real.T / 2.0, 1.1):
        assert gauss_residual(bench_real, y) < 1e-5


def test_array_matches_float_path(bench_nonreal):
    c = bench_nonreal
    ys = np.linspace(-3.0 * c.T, 3.0 * c.T, 25)
    m = metric_at(c, ys)
    for field in ("w", "w_prime", "u", "u_prime"):
        got = getattr(m, field)
        assert got.shape == ys.shape
        want = np.array([getattr(metric_at(c, float(y)), field) for y in ys])
        assert np.max(np.abs(got - want)) < 1e-14 * max(1.0, float(np.max(np.abs(want))))
    # a float keeps the math path: Python floats, not numpy scalars
    assert all(type(getattr(metric_at(c, 0.4), f)) is float for f in ("w", "w_prime", "u", "u_prime"))
