"""Tests of the benchmark's oracles and input generators (no equilag import).

    python3 -m pytest -q bench/test_oracle.py
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import oracle
import workloads

NONREAL = (2.0, cmath.exp(1j * math.pi / 4), cmath.exp(0.4j))
TORUS = (1.0, 1.0 / math.sqrt(3.0), 1.0 + 0j)


def test_constants_roots_and_half_period():
    a1, psi, _ = NONREAL
    c = oracle.constants(a1, psi)
    with mp.workdps(oracle.DPS):
        apsi2 = abs(mp.mpc(psi.real, psi.imag)) ** 2
        for w in (c["a1"], c["a2"], -c["a3"]):
            assert abs(w**3 - c["beta"] / 2 * w**2 + apsi2 / 2) < mp.mpf(10) ** -25
    # the float closed forms the input generator uses
    assert math.isclose(workloads.half_period(a1, abs(psi)), float(c["T"]), rel_tol=1e-13)
    assert math.isclose(workloads.modulus(a1, abs(psi)), float(mp.sqrt(c["m"])), rel_tol=1e-13)
    k = 0.9
    assert math.isclose(workloads.modulus(workloads.a1_for_modulus(k, 1.5), 1.5), k, rel_tol=1e-12)


def test_eigensystem_matches_the_cubic_and_is_orthonormal():
    a1, psi, lam = NONREAL
    d, vecs = oracle.eigensystem(a1, psi, lam)
    with mp.workdps(oracle.DPS):
        assert abs(mp.fsum(d)) < mp.mpf(10) ** -25
        gram = mp.matrix([[mp.fdot([mp.conj(a) for a in u], v) for v in vecs] for u in vecs])
        assert mp.mnorm(gram - mp.eye(3), 1) < mp.mpf(10) ** -25


@pytest.mark.parametrize("offset", [0.3, 1e-3, 1e-6])
def test_phase_integrals_closed_form_matches_quadrature(offset):
    # the closed form through ellippi against mpmath quadrature split at
    # multiples of T, also close to the real locus (arg lambda = pi/12)
    a1, psi, _ = NONREAL
    lam = cmath.exp(1j * (math.pi / 12 + offset))
    T = workloads.half_period(a1, abs(psi))
    for y in (0.6 * T, 3.3 * T):
        g_pi = oracle.phase_integrals(a1, psi, lam, y, "ellippi")
        g_q = oracle.phase_integrals(a1, psi, lam, y, "quad")
        assert max(abs(a - b) for a, b in zip(g_pi, g_q)) < mp.mpf(10) ** -18


def test_full_period_phases_by_the_complete_integral():
    a1, psi, lam = NONREAL
    g, two_t = oracle.period_phases(a1, psi, lam)
    g_q = oracle.phase_integrals(a1, psi, lam, float(two_t), "quad")
    assert max(abs(a - b) for a, b in zip(g, g_q)) < mp.mpf(10) ** -12  # 2T rounded to a float


def _central(f, h=1e-5):
    return (f(h) - f(-h)) / (2 * h)


def test_nonreal_lift_is_a_horizontal_unit_vector_through_e3():
    a1, psi, lam = NONREAL
    assert np.allclose(oracle.lift_nonreal(a1, psi, lam, 0.0, 0.0), [0, 0, 1], atol=1e-15)
    x, y = 0.3, 0.7
    F = oracle.lift_nonreal(a1, psi, lam, x, y)
    assert abs(np.linalg.norm(F) - 1.0) < 1e-15
    dx = _central(lambda h: oracle.lift_nonreal(a1, psi, lam, x + h, y))
    dy = _central(lambda h: oracle.lift_nonreal(a1, psi, lam, x, y + h))
    assert abs(np.vdot(F, dx)) < 1e-8 and abs(np.vdot(F, dy)) < 1e-8
    # conformal: both partials have the same length
    assert abs(np.linalg.norm(dx) - np.linalg.norm(dy)) < 1e-8


def test_real_lift_by_scipy_is_a_horizontal_unit_vector_through_e3():
    a1, psi, lam = TORUS
    assert np.allclose(oracle.lift_real(a1, psi, lam, [0.0], 0.0)[0], [0, 0, 1], atol=1e-14)
    x, y = 0.4, 0.9
    F = oracle.lift_real(a1, psi, lam, [x], y)[0]
    assert abs(np.linalg.norm(F) - 1.0) < 1e-14
    dy = _central(lambda h: oracle.lift_real(a1, psi, lam, [x], y + h)[0])
    assert abs(np.vdot(F, dy)) < 1e-8


def test_real_lift_is_the_limit_of_the_nonreal_lift():
    # psi slightly off the real axis at lambda = 1: the two routes meet
    a1, x, y = 1.0, 0.4, 0.9
    psi = cmath.rect(1.0 / math.sqrt(3.0), 1e-7)
    near = oracle.lift_nonreal(a1, psi, 1.0, x, y)
    real = oracle.lift_real(a1, psi.real, 1.0, [x], y)[0]
    assert np.max(np.abs(near - real)) < 1e-5


def test_certificate_is_limit_denominator_within_tolerance():
    assert oracle.certificate(2 / 7 + 1e-10, 64, 1e-8) == Fraction(2, 7)
    assert oracle.certificate(-5 / 11, 64, 1e-8) == Fraction(-5, 11)
    assert oracle.certificate(math.pi - 3.0, 64, 1e-8) is None


def test_rational_inputs_have_the_ratio_they_were_built_for():
    for op in workloads.classify_ops(3):
        if op["kind"] != "rational":
            continue
        d = oracle.eigenvalues(op["a1"], op["psi"], op["lam"])
        assert oracle.certificate(float(d[1] / d[0]), op["max_den"], 1e-10) == Fraction(*op["ratio"])
        phi = abs(cmath.phase(op["psi"] / op["lam"] ** 3)) % math.pi
        assert min(phi, math.pi - phi) >= workloads.DELTA_MIN - 1e-12


def test_design_draws_one_point_per_cell_on_every_seed():
    for seed in (1, 2):
        pts = workloads._design(np.random.default_rng(seed), 24, 5)
        for col in pts.T:
            assert sorted(np.floor(col * 24).astype(int)) == list(range(24))


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    for name in workloads.WORKLOADS:
        a, b = workloads.make_ops(name, 5), workloads.make_ops(name, 5)
        assert repr(a) == repr(b)
    assert repr(workloads.make_ops("lift", 5)) != repr(workloads.make_ops("lift", 6))
    # what reaches a quadrature stays to the last bit: the surfaces, lambda
    # and the lift's y; x and the order move
    for name in ("lift", "grid", "sample"):
        quad = [{repr((op["a1"], op["psi"], op["lam"], op.get("ys")))
                 for op in workloads.make_ops(name, s) if op.get("regime") != "real"} for s in (5, 6)]
        assert quad[0] == quad[1]
    rational = [{repr((op["a1"], op["psi"], op["lam"])) for op in workloads.make_ops("classify", s)
                 if op["kind"] == "rational"} for s in (5, 6)]
    assert rational[0] == rational[1]
