"""The non-real lift as theta quotients against the per-point Carlson route and mpmath.

The package evaluates p_j = h_j e^{i G_j} as h_j(0) Q_j(u) e^{kappa_j u}
Theta(0) / Theta(u), a fixed-length harmonic sum per point
(`immersion._phase_terms`, `_nonreal_terms`).  These tests hold it to the
route it replaced (`phase_oracles.by_carlson`) over random spectral
objects and to 30-digit mpmath next to the real locus and at high
modulus, and they hold the complete phases G_j(2T), read off Jacobi's zeta
function, to 30-digit mpmath near flat and near the locus.  No route calls
a Carlson kernel but R_F, which places the poles a_j once per spectral
object.
"""

import cmath
import math
import sys

import numpy as np
import pytest

from equilag import elliptic, immersion, iwasawa
from equilag.immersion import RegimeError
from equilag.potential import SurfaceParams, derive_constants, eigensystem

import phase_oracles


def _random_objects(count: int, seed: int = 33):
    """count non-real spectral objects (c, es) of random surfaces and lambda, and points y per object."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a1 = float(np.exp(rng.uniform(0.01, 3.0)))
        psi = a1**1.5 * rng.uniform(0.05, 0.99) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        c = derive_constants(SurfaceParams(a1, psi))
        es = eigensystem(c, cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        if es.regime != "nonreal":
            continue
        try:
            immersion._g_segment(c, es)
        except RegimeError:
            continue
        out.append((c, es, (rng.uniform(-6.0, 6.0, 4) * c.T).tolist()))
    return out


@pytest.fixture(scope="module")
def objects():
    return _random_objects(300)


def _scaled(got, want):
    """Worst |got - want| / max(1, |want|)."""
    want = np.asarray(want)
    return float(np.max(np.abs(np.asarray(got) - want) / np.maximum(1.0, np.abs(want))))


def test_route_matches_the_carlson_route(objects):
    worst = dict.fromkeys(("p", "dp", "G", "log"), 0.0)
    for c, es, ys in objects:
        for y in ys:
            ratio, phases = phase_oracles.by_carlson(c, es, y)
            p, dp = phase_oracles.coefficients_by_carlson(c, es, y)
            got_p, got_dp, _ = immersion._coefficients_and_derivatives(c, es, y)
            s, got_phases = immersion._phase_terms(c, es, y)
            worst["p"] = max(worst["p"], _scaled(got_p, p))
            worst["dp"] = max(worst["dp"], _scaled(got_dp, dp))
            worst["G"] = max(worst["G"], _scaled(got_phases, phases))
            worst["log"] = max(worst["log"], _scaled(2.0 * np.log(s), np.log(ratio)))
    # measured: p 6.7e-15, p' 2.3e-14, G 5.8e-15, log p 3.4e-14
    assert worst["p"] < 1e-13 and worst["G"] < 1e-13, worst
    assert worst["log"] < 3e-13 and worst["dp"] < 3e-13, worst


def test_phase_minus_its_linear_part_stays_inside_a_quarter_turn(objects):
    # G_j - Im kappa_j u = Arg Q_j: the principal branch serves, no period counting
    for c, es, ys in objects:
        ys = np.array(ys + [0.5 * c.T, 1.5 * c.T, 3.0 * c.T])
        linear = np.multiply.outer(ys, immersion._g_full_period(c, es)) / (2.0 * c.T)
        assert np.max(np.abs(immersion.phase_integrals(c, es, ys) - linear)) < 0.5 * math.pi


NONREAL = (2.0, cmath.exp(1j * math.pi / 4))  # real locus at arg(lambda) = pi/12
LADDER = [(*NONREAL, cmath.exp(1j * (math.pi / 12 + s * off)))
          for off in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7) for s in (1, -1)]
LADDER += [(a1, 1.0 + 0j, cmath.exp(0.3j)) for a1 in (1.01, 10.0, 20.0, 50.0)]


@pytest.mark.parametrize("a1, psi, lam", LADDER)
def test_coefficients_match_mpmath_near_the_locus_and_at_high_modulus(a1, psi, lam):
    c = derive_constants(SurfaceParams(a1, psi))
    es = eigensystem(c, lam)
    ys = [0.6 * c.T, 1.3 * c.T, 3.7 * c.T]
    got = immersion._coefficients(c, es, np.array(ys))
    want = [phase_oracles.coefficients_mp(a1, psi, lam, y) for y in ys]
    # measured at most 2.0e-14 (a1 = 10 at 3.7 T); the Carlson route's 1.9e-14
    assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("case", range(12))
def test_float_one_point_and_row_give_the_same_bits(objects, case):
    c, es, ys = objects[25 * case]
    ys = np.array(ys + [0.0, 2.0 * c.T])
    rows = immersion._coefficients(c, es, ys), immersion.phase_integrals(c, es, ys)
    for i, y in enumerate(ys.tolist()):
        for point in (y, ys[i:i + 1]):
            got = immersion._coefficients(c, es, point), immersion.phase_integrals(c, es, point)
            for row, value in zip(rows, got):
                assert row[i].tobytes() == np.reshape(value, 3).tobytes()


@pytest.fixture
def kernel_stacks(monkeypatch):
    """(kernel, call stack of function names) of every call of a Carlson kernel of the package."""
    calls = []
    for name in [name for name in vars(elliptic) if name.startswith("_carlson")]:
        def spy(*args, _name=name, _kernel=getattr(elliptic, name)):
            frame, names = sys._getframe(1), []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            calls.append((_name, names))
            return _kernel(*args)

        monkeypatch.setattr(elliptic, name, spy)
    return calls


def test_points_reach_no_carlson_kernel_but_r_f(kernel_stacks):
    c = derive_constants(SurfaceParams(*NONREAL))
    lam = cmath.exp(0.3j)
    routes = {
        "lift_at": lambda es: immersion.lift_at(c, es, 0.3, 1.7 * c.T),
        "lift_at rows": lambda es: immersion.lift_at(c, es, np.zeros(5), np.linspace(0, 9, 5)),
        "sample_grid": lambda es: immersion.sample_grid(c, lam, (0.0, 1.0), (0.0, 4.0 * c.T), 4, 9),
        "verify_geometry": lambda es: immersion.verify_geometry(c, lam, [0.1, 0.4], [0.3, 2.9]),
        "extended_frame": lambda es: iwasawa.extended_frame(c, es, complex(0.2, 3.1 * c.T)),
        "beta_integrals": lambda es: iwasawa.beta_integrals(c, es, np.linspace(0.1, 7.0, 6)),
    }
    for name, route in routes.items():
        for memo in (immersion._g_segment, immersion._g_full_period):
            memo.cache_clear()
        kernel_stacks.clear()
        route(eigensystem(c, lam))
        # R_F alone, placing the pole a_j of each row of the spectral object
        # once (elliptic._pole), and never per point
        assert {kernel for kernel, _ in kernel_stacks} == {"_carlson_rf"}, name
        assert all(names[0] == "_pole" for _, names in kernel_stacks), name
        assert len(kernel_stacks) == 3, name


# (a1, psi, lambda) where the Carlson route to G_j(2T) missed 30-digit
# mpmath by 7.1e-9, 3.85e-9 and 6.2e-9
PERIOD_REPRODUCERS = [
    (0.06909583495301853, complex(0.01764316105068958, -0.004298281291369469),
     complex(-0.5673261943552728, -0.8234931628121531)),
    (2.4601086081954744, complex(-3.85730611466232, 0.07411082978361595),
     complex(0.5055348534561143, 0.862806184459236)),
    (0.8183582909590688, complex(0.5922112060671603, -0.4440231033490946),
     complex(0.6728469134613694, 0.7397817455476369)),
]


@pytest.mark.parametrize("a1, psi, lam", PERIOD_REPRODUCERS)
def test_full_period_phases_match_mpmath_at_the_reproducers(a1, psi, lam):
    c = derive_constants(SurfaceParams(a1, psi))
    got = immersion._g_full_period(c, eigensystem(c, lam))
    assert np.max(np.abs(np.array(got) - phase_oracles.period_phases_mp(a1, psi, lam))) < 1e-12


def _period_draws(count: int, seed: int = 36):
    """count non-real (a1, psi, lambda): |psi| from 1e-2 to 1e2, a1 / |psi|^(2/3) - 1
    from 1e-4 to 1e4, and 40% of lambda 1e-12 to 1e-1 rad from the real locus."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        apsi = 10.0 ** rng.uniform(-2.0, 2.0)
        psi = apsi * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        a1 = apsi ** (2.0 / 3.0) * (1.0 + 10.0 ** rng.uniform(-4.0, 4.0))
        if rng.uniform() < 0.4:
            off = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -1.0)
            theta = (cmath.phase(psi) + rng.integers(6) * math.pi) / 3.0 + off
        else:
            theta = rng.uniform(-math.pi, math.pi)
        c = derive_constants(SurfaceParams(a1, psi))
        es = eigensystem(c, cmath.exp(1j * theta))
        try:
            g = immersion._g_full_period(c, es)
        except RegimeError:
            continue
        if es.regime == "nonreal":
            out.append((a1, psi, cmath.exp(1j * theta), np.array(g)))
    return out


def test_full_period_phases_match_mpmath_near_flat_and_near_the_locus():
    worst = 0.0
    for a1, psi, lam, got in _period_draws(60):
        want = phase_oracles.period_phases_mp(a1, psi, lam)
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(np.abs(want), math.pi))))
    assert worst < 2e-13
