import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

from equilag.linalg3 import (
    EPS6,
    dagger,
    herm_inner,
    matexp_skew,
    sigma_algebra,
    sigma_group,
    solve_depressed_cubic,
    unitary_residual,
)

ALPHA = cmath.exp(2j * math.pi / 3)


def random_complex_matrix(rng, n=3):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_skew_hermitian(rng):
    m = random_complex_matrix(rng)
    return (m - dagger(m)) / 2


class TestHermInner:
    def test_basis_vectors(self):
        e1 = np.array([1, 0, 0], dtype=complex)
        e2 = np.array([0, 1, 0], dtype=complex)
        assert herm_inner(e1, e1) == 1
        assert herm_inner(e1, e2) == 0

    def test_norm_squared(self):
        v = np.array([1, 1j, 0])
        assert herm_inner(v, v) == pytest.approx(2)

    def test_sesquilinearity(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert herm_inner(2j * z, w) == pytest.approx(2j * herm_inner(z, w))
        assert herm_inner(z, 2j * w) == pytest.approx(-2j * herm_inner(z, w))
        assert herm_inner(z, z).imag == pytest.approx(0.0, abs=1e-14)


class TestSigma:
    def test_identity_fixed(self):
        assert np.allclose(sigma_group(np.eye(3, dtype=complex)), np.eye(3))

    def test_group_order_six(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = random_complex_matrix(rng)
            x = m.copy()
            for _ in range(6):
                x = sigma_group(x)
            assert np.max(np.abs(x - m)) < 1e-13 * max(1.0, np.max(np.abs(m)))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            sigma_group(np.zeros((3, 3), dtype=complex))

    def test_g3_eigenspace(self):
        # diag(1, 1, -2) spans the eps^3 = -1 eigenspace
        x = np.diag([1.0, 1.0, -2.0]).astype(complex)
        assert np.allclose(sigma_algebra(x), EPS6**3 * x)
        assert np.allclose(sigma_algebra(x), -x)

    def test_g2_eigenspace_direct_arithmetic(self):
        # oracle: independent evaluation of -P X^t P^{-1} via numpy inverse
        x = np.array([[0, 0, 1], [0, 0, 0], [0, -1, 0]], dtype=complex)
        p = np.array([[0, ALPHA, 0], [ALPHA**2, 0, 0], [0, 0, 1]])
        oracle = -p @ x.T @ np.linalg.inv(p)
        assert np.allclose(sigma_algebra(x), oracle, atol=1e-14)
        assert np.allclose(sigma_algebra(x), EPS6**2 * x, atol=1e-14)

    def test_all_eigenspace_representatives(self):
        reps = {
            0: np.diag([1.0, -1.0, 0.0]),
            1: np.array([[0, 2, 0], [0, 0, 1], [1, 0, 0]]),
            2: np.array([[0, 0, 1], [0, 0, 0], [0, -1, 0]]),
            3: np.diag([1.0, 1.0, -2.0]),
            4: np.array([[0, 0, 0], [0, 0, 1], [-1, 0, 0]]),
            5: np.array([[0, 0, 1], [3, 0, 0], [0, 1, 0]]),
        }
        for l, x in reps.items():
            assert np.allclose(sigma_algebra(x.astype(complex)), EPS6**l * x, atol=1e-14)


class TestDepressedCubic:
    def test_simple(self):
        roots, multiple = solve_depressed_cubic(-1.0, 0.0)
        assert not multiple
        assert np.allclose(roots, [1.0, 0.0, -1.0], atol=1e-14)

    def test_benchmark_against_numpy_roots(self):
        # the a1 = 2, psi = 1 eigenvalue cubic: t^3 - 4.25 t + 2
        p, q = -4.25, 2.0
        roots, multiple = solve_depressed_cubic(p, q)
        assert not multiple
        oracle = np.sort(np.roots([1.0, 0.0, p, q]).real)[::-1]
        assert np.allclose(roots, oracle, atol=1e-12)
        assert 0.5 in roots or abs(roots[1] - 0.5) < 1e-13  # exact rational root
        assert abs(0.5**3 + p * 0.5 + q) == 0.0

    def test_triple_root(self):
        # p = q = 0: the triple root 0 is refused like every p >= 0
        with pytest.raises(ValueError, match="p < 0 required"):
            solve_depressed_cubic(0.0, 0.0)

    def test_residuals_and_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            # three real roots centered at zero
            a, b = sorted(rng.uniform(-3, 3, size=2))
            c = -(a + b)
            p = a * b + b * c + c * a
            q = -a * b * c
            roots, multiple = solve_depressed_cubic(p, q)
            scale = max(1.0, abs(p), abs(q))
            if multiple:
                continue
            assert roots.sum() == pytest.approx(0.0, abs=1e-15)
            assert np.max(np.abs(roots**3 + p * roots + q)) < 1e-12 * scale
            assert roots[0] >= roots[1] >= roots[2]

    def test_single_real_root(self):
        # p > 0 leaves one real root; the eigenvalue cubic has p = -beta < 0
        with pytest.raises(ValueError, match="p < 0 required"):
            solve_depressed_cubic(1.0, -2.0)

    @pytest.mark.parametrize("p", [-0.0, 5e-324, math.inf, math.nan])
    def test_refuses_p_not_negative(self, p):
        # the edges next to the two cases above: signed zero, the smallest
        # positive float, and non-finite p
        with pytest.raises(ValueError, match="p < 0 required"):
            solve_depressed_cubic(p, 1.0)

    def test_double_root_flagged(self):
        # t^3 - 3t + 2 = (t - 1)^2 (t + 2): p < 0, zero discriminant
        roots, multiple = solve_depressed_cubic(-3.0, 2.0)
        assert multiple
        assert np.allclose(roots, [1.0, 1.0, -2.0], atol=1e-7)


class TestMatexp:
    def test_zero_matrix(self):
        assert np.allclose(matexp_skew(np.zeros((3, 3), dtype=complex), 2.3), np.eye(3))

    def test_diagonal_example(self):
        d = np.diag([1j, -1j, 0.0])
        assert np.allclose(matexp_skew(d, math.pi), np.diag([-1.0, -1.0, 1.0]), atol=1e-14)

    def test_unitary_on_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = random_skew_hermitian(rng)
            u = matexp_skew(d, 1.0)
            assert unitary_residual(u) < 1e-12
            assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12

    def test_group_law(self):
        rng = np.random.default_rng(9)
        d = random_skew_hermitian(rng)
        s, t = 0.7, -1.3
        assert np.allclose(
            matexp_skew(d, s + t), matexp_skew(d, s) @ matexp_skew(d, t), atol=1e-12
        )

    def test_against_scipy_expm(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            d = random_skew_hermitian(rng)
            assert np.allclose(matexp_skew(d, 0.9), expm(0.9 * d), atol=1e-11)

    def test_degenerate_spectrum(self):
        # double eigenvalue: diag(i, i, -2i)
        d = np.diag([1j, 1j, -2j])
        assert np.allclose(matexp_skew(d, 1.0), expm(d), atol=1e-12)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            matexp_skew(np.eye(3, dtype=complex), 1.0)


def test_matmul_and_dagger():
    rng = np.random.default_rng(15)
    a = random_complex_matrix(rng)
    assert np.allclose(dagger(a), np.conj(a).T)


class TestStacks:
    """The frame suite's matrix checks take (m, 3, 3) stacks, each matrix as alone."""

    def test_each_matrix_of_a_stack_as_alone(self):
        rng = np.random.default_rng(41)
        skew = np.array([random_skew_hermitian(rng) for _ in range(5)])
        t = rng.uniform(-2.0, 2.0, 5)
        expd = matexp_skew(skew, t)
        assert expd.shape == (5, 3, 3)
        residuals = unitary_residual(expd)
        sigma = sigma_group(expd)
        for i in range(5):
            assert expd[i].tobytes() == matexp_skew(skew[i], float(t[i])).tobytes()
            assert np.array_equal(dagger(expd)[i], dagger(expd[i]))
            assert residuals[i] == pytest.approx(unitary_residual(expd[i]), abs=1e-15)
            assert np.array_equal(sigma[i], sigma_group(expd[i]))

    def test_a_stack_is_refused_where_one_matrix_is(self):
        rng = np.random.default_rng(43)
        stack = np.array([random_skew_hermitian(rng) for _ in range(3)])
        stack[1, 0, 1] += 0.5
        with pytest.raises(ValueError, match="not skew-Hermitian"):
            matexp_skew(stack)
        singular = np.array([np.eye(3), np.zeros((3, 3))], dtype=complex)
        with pytest.raises(ValueError, match="invertible"):
            sigma_group(singular)
