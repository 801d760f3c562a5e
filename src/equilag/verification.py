"""Residual suites backing `verify` and the acceptance tests.

Each suite evaluates one family of defining identities at fixed benchmarks
(and, where the identity is surface-parametric, at a caller-supplied
surface), returning named residuals against pinned thresholds.  Thresholds
are part of the library contract and are not calibrated at run time.

`suite_iwasawa` checks the factorization identities at its 200 random
(y, lambda) in one array pass of iwasawa.q_factor and the connection
matrices.  Its points keep 1e-3 |psi| from the real-cubic-form locus, where
|cdet| >= 2e-3 |psi| lies far above the 2e-8 |psi| refusal floor, so no point
is refused; a refusal would propagate, not be skipped.  The other suites
evaluate point by point.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import astuple, dataclass, field
from functools import partial

import numpy as np

from . import immersion, iwasawa, linalg3, periodicity
from .elliptic import _carlson_rf, complete_K, jacobi
from .metric import first_integral_residual, gauss_residual, metric_at
from .potential import (
    DerivedConstants,
    FlatCliffordError,
    HyperplaneDegenerateError,
    SurfaceParams,
    derive_constants,
    eigensystem,
    potential_matrix,
    regime_of,
)

EPS6 = linalg3.EPS6

# pinned benchmark surfaces
BENCH_NONREAL = SurfaceParams(2.0, complex(np.exp(1j * np.pi / 4)))
BENCH_REAL = SurfaceParams(1.0, 1.0 / math.sqrt(3.0))
BENCH_SWEEP = SurfaceParams(2.0, 1.0)
TORUS_BENCH = BENCH_REAL


@dataclass
class SuiteResult:
    name: str
    residuals: dict[str, float]
    thresholds: dict[str, float]
    passed: bool
    note: str = ""
    seconds: float = 0.0


@dataclass
class VerificationReport:
    suites: list[SuiteResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)


class UnknownSuiteError(ValueError):
    """A requested suite name is not one of run_suites' suites."""


def _nonreal_surface(params: SurfaceParams | None) -> tuple[DerivedConstants, str]:
    """The surface and "", or BENCH_NONREAL and a note if it is not non-real at lambda = 1."""
    c = derive_constants(params or BENCH_NONREAL)
    regime = regime_of(c, 1.0)
    if regime == "nonreal":
        return c, ""
    where = "on singular locus" if regime == "real" else "hyperplane-degenerate at lambda = 1"
    return derive_constants(BENCH_NONREAL), f"surface {where}; ran the non-real benchmark instead"


def _off_locus(c: DerivedConstants, lam: complex) -> bool:
    """Non-real lambda 1e-3 |psi| off the real-cubic-form locus, near which accuracy degrades."""
    return (regime_of(c, lam) == "nonreal"
            and abs((c.psi / lam**3).imag) >= 1e-3 * abs(c.psi))


def _finish(name, residuals, thresholds, t0, note=""):
    passed = all(residuals[k] < thresholds[k] for k in thresholds)
    return SuiteResult(
        name=name,
        residuals=residuals,
        thresholds=thresholds,
        passed=passed,
        note=note,
        seconds=time.perf_counter() - t0,
    )


def suite_elliptic() -> SuiteResult:
    """Pythagorean identities over random (z, k), and K(0.5) by AGM against Carlson R_F."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_sc = worst_sd = 0.0
    for _ in range(1000):
        k = rng.uniform(0.0, 0.999)
        z = rng.uniform(-25.0, 25.0)
        sn, cn, dn = jacobi(z, k)
        worst_sc = max(worst_sc, abs(sn * sn + cn * cn - 1.0))
        worst_sd = max(worst_sd, abs(k * k * sn * sn + dn * dn - 1.0))
    # K(k) = R_F(0, k'^2, 1) (DLMF 19.25.1): the duplication route against the AGM
    k = 0.5
    res = {
        "sn2_cn2": worst_sc,
        "k2sn2_dn2": worst_sd,
        "K_vs_carlson": abs(complete_K(k) - _carlson_rf(0.0, 1.0 - k * k, 1.0)),
    }
    thr = {"sn2_cn2": 1e-12, "k2sn2_dn2": 1e-12, "K_vs_carlson": 1e-12}
    return _finish("elliptic", res, thr, t0)


def suite_potential() -> SuiteResult:
    """Viete identities on a lambda sweep and the twisting relation D(eps lam) = sigma(D)."""
    t0 = time.perf_counter()
    c = derive_constants(BENCH_SWEEP)
    worst_viete = 0.0
    for theta in np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False):
        try:
            es = eigensystem(c, complex(np.exp(1j * theta)))
        except HyperplaneDegenerateError:
            continue
        d1, d2, d3 = es.d
        worst_viete = max(
            worst_viete,
            abs(d1 + d2 + d3),
            abs(d1 * d2 + d2 * d3 + d3 * d1 + c.beta),
            abs(d1 * d2 * d3 + 2.0 * es.cubic.real),
        )
    rng = np.random.default_rng(5)
    worst_twist = 0.0
    for _ in range(25):
        lam = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        dm = potential_matrix(c, lam)
        worst_twist = max(
            worst_twist,
            float(np.max(np.abs(potential_matrix(c, EPS6 * lam) - linalg3.sigma_algebra(dm)))),
        )
    res = {"viete": worst_viete, "twisting": worst_twist}
    thr = {"viete": 1e-10, "twisting": 1e-12}
    return _finish("potential", res, thr, t0)


def suite_metric(params: SurfaceParams | None = None) -> SuiteResult:
    """First integral, 2T-periodicity and the Gauss equation by finite differences."""
    t0 = time.perf_counter()
    c = derive_constants(params or BENCH_NONREAL)
    rng = np.random.default_rng(13)
    ys = rng.uniform(-3.0 * c.T, 3.0 * c.T, 200).tolist()
    first = max(first_integral_residual(c, y) for y in ys)
    per = max(abs(metric_at(c, y + 2.0 * c.T).w - metric_at(c, y).w) for y in ys[:100])
    gauss = max(gauss_residual(c, y) for y in rng.uniform(0.0, 2.0 * c.T, 25).tolist())
    res = {"first_integral": first, "periodicity": per, "gauss_fd": gauss}
    thr = {"first_integral": 1e-9, "periodicity": 1e-10, "gauss_fd": 1e-5}
    return _finish("metric", res, thr, t0)


def suite_iwasawa(params: SurfaceParams | None = None, corrupt_kappa: bool = False) -> SuiteResult:
    """Conjugation, det/initial-value normalization, beta lemma, and the y-flow.

    The first three identities hold at 200 random off-locus (y, lambda),
    checked in one array pass: one q_factor at the points, one at y = 0,
    one omega_matrix and potential_matrix, one batched inv and det.
    """
    t0 = time.perf_counter()
    # the factorization is singular on the real-cubic-form locus
    c, note = _nonreal_surface(params)

    def kappa(y, lam):
        """The negative control's error in the normalizer: the branch ratio rho,
        which a misplaced cube-root exponent applies twice; 1 otherwise."""
        if not corrupt_kappa:
            return 1.0
        return linalg3.per_matrix(iwasawa._branch_ratio(*iwasawa._cdet(c, y, lam)[1:]))

    rng = np.random.default_rng(17)
    points = []
    while len(points) < 200:
        lam = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        y = rng.uniform(-2.0 * c.T, 2.0 * c.T)
        if _off_locus(c, lam):
            points.append((y, lam))
    ys, lams = (np.array(v) for v in zip(*points))
    # No point is refused: for |lambda| = 1, c0 = cdet(0) is imaginary and w'
    # real, so |cdet(y)| >= |c0| = 2 |Im(lambda^-3 psi)| >= 2e-3 |psi| off the
    # locus, far above the floor 1e-8 (2 |psi| + |w'|) <= 2e-8 |psi| + 1e-8 |cdet|,
    # and cdet(y) / c0 = 1 - w'/c0 has real part 1.  A refusal would propagate.
    q0, qt = iwasawa.q_factor(c, ys, lams)
    qt = qt / kappa(ys, lams)
    q = q0 @ qt
    conj = q @ potential_matrix(c, lams) @ np.linalg.inv(q) - iwasawa.omega_matrix(c, ys, lams)
    worst_conj = float(np.max(np.abs(conj)))
    worst_det = float(np.max(np.abs(np.linalg.det(qt) - 1.0)))
    q00, qt0 = iwasawa.q_factor(c, 0.0, lams)
    qt0 = qt0 / kappa(0.0, lams)
    worst_init = max(float(np.max(np.abs(qt0 - np.eye(3)))), float(np.max(np.abs(q00 - np.eye(3)))))
    worst_lemma = 0.0
    # fixed lambda: the lemma and the flow keep at least two and one of them at any psi
    for lam in (complex(np.exp(1j * theta)) for theta in (0.3, 1.1, 2.6)):
        if not _off_locus(c, lam):
            continue
        b1, b2 = iwasawa.beta_integrals(c, eigensystem(c, lam), 2.0 * c.T)
        b1e, b2e = iwasawa.beta_integrals(c, eigensystem(c, EPS6 * lam), 2.0 * c.T)
        worst_lemma = max(
            worst_lemma,
            abs(b1.imag - 2.0 * c.T),
            abs(b2.real),
            abs(b1e.real - b1.real),
            abs(b2e.imag + b2.imag),
        )
    worst_flow = 0.0
    h = 1e-4
    for theta, y in ((0.4, 0.3), (1.7, 1.0)):
        lam = complex(np.exp(1j * theta))
        if not _off_locus(c, lam):
            continue
        es = eigensystem(c, lam)
        up, um, u0 = (iwasawa.u_plus(c, es, t) / kappa(t, lam) for t in (y + h, y - h, y))
        flow = (up - um) / (2.0 * h) @ np.linalg.inv(u0)
        worst_flow = max(
            worst_flow, float(np.max(np.abs(flow - iwasawa.y_flow_matrix(c, y, lam))))
        )
    res = {
        "conjugation": worst_conj,
        "det_qtilde": worst_det,
        "initial_value": worst_init,
        "beta_lemma": worst_lemma,
        "y_flow": worst_flow,
    }
    thr = {
        "conjugation": 1e-10,
        "det_qtilde": 1e-10,
        "initial_value": 1e-12,
        "beta_lemma": 1e-9,
        "y_flow": 1e-6,
    }
    return _finish("iwasawa", res, thr, t0, note)


def suite_frame(params: SurfaceParams | None = None) -> SuiteResult:
    """Frame normalization, unitarity, equivariance, Maurer-Cartan and twisting.

    Six random lambda per surface, then the six real lambda^3 = +-psi/|psi| of the last.
    """
    t0 = time.perf_counter()
    surfaces = [derive_constants(params or BENCH_NONREAL)]
    if regime_of(surfaces[0], 1.0) != "real":
        surfaces.append(derive_constants(BENCH_REAL))
    rng = np.random.default_rng(19)
    worst_id = worst_su3 = worst_equiv = worst_mc = worst_twist = 0.0
    h = 1e-5
    for c in surfaces:
        real = [cmath.exp(1j * (cmath.phase(c.psi) + k * math.pi) / 3.0) for k in range(6)]
        for lam in [None] * 6 + (real if c is surfaces[-1] else []):
            if lam is None:
                lam = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            es = eigensystem(c, lam)
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5))
            frame = partial(iwasawa.extended_frame, c, es)
            fr = frame(z)
            worst_id = max(worst_id, float(np.max(np.abs(frame(0j) - np.eye(3)))))
            worst_su3 = max(
                worst_su3, linalg3.unitary_residual(fr), abs(np.linalg.det(fr) - 1.0)
            )
            x = rng.uniform(-1.0, 1.0)
            chi = linalg3.matexp_skew(potential_matrix(c, lam), x)
            worst_equiv = max(worst_equiv, float(np.max(np.abs(frame(z + x) - chi @ fr))))
            dfx = (frame(z + h) - frame(z - h)) / (2.0 * h)
            dfy = (frame(z + 1j * h) - frame(z - 1j * h)) / (2.0 * h)
            fi = np.linalg.inv(fr)
            worst_mc = max(
                worst_mc,
                float(np.max(np.abs(fi @ dfx - iwasawa.omega_matrix(c, z.imag, lam)))),
                float(np.max(np.abs(fi @ dfy - iwasawa.b_matrix(c, z.imag, lam)))),
            )
            twist = eigensystem(c, EPS6 * lam)
            if twist.regime == "nonreal" == es.regime:
                twisted = iwasawa.extended_frame(c, twist, z)
                worst_twist = max(
                    worst_twist, float(np.max(np.abs(twisted - linalg3.sigma_group(fr))))
                )
    res = {
        "frame_at_zero": worst_id,
        "su3": worst_su3,
        "equivariance": worst_equiv,
        "maurer_cartan": worst_mc,
        "twisting": worst_twist,
    }
    thr = {
        "frame_at_zero": 1e-9,
        "su3": 1e-9,
        "equivariance": 1e-9,
        "maurer_cartan": 1e-6,
        "twisting": 1e-9,
    }
    return _finish("frame", res, thr, t0)


def suite_lift(params: SurfaceParams | None = None) -> SuiteResult:
    """Unit norm on full-period grids in both regimes, FD geometry, cross-route."""
    t0 = time.perf_counter()
    cases, note = [derive_constants(params)] if params is not None else [], ""
    if cases and regime_of(cases[0], 1.0) == "imaginary":
        cases, note = [], "surface hyperplane-degenerate at lambda = 1; checked the benchmarks only"
    for bench in (BENCH_NONREAL, BENCH_REAL):
        c = derive_constants(bench)
        if not any(abs(o.psi - c.psi) < 1e-12 and o.a1 == c.a1 for o in cases):
            cases.append(c)
    worst_norm = worst_geom = worst_cross = 0.0
    for c in cases:
        grid = immersion.sample_grid(c, 1.0, (0.0, 2.0), (0.0, 2.0 * c.T), 64, 64)
        worst_norm = max(
            worst_norm, float(np.max(np.abs(np.linalg.norm(grid.F, axis=2) - 1.0)))
        )
        rep = immersion.verify_geometry(
            c, 1.0, np.linspace(0.1, 1.9, 3), np.linspace(0.1, 2.0 * c.T - 0.1, 3)
        )
        worst_geom = max(worst_geom, *astuple(rep))
        if regime_of(c, 1.0) == "nonreal":
            es = eigensystem(c, 1.0)
            rng = np.random.default_rng(23)
            for _ in range(50):
                z = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * c.T))
                fa = immersion.lift_at(c, es, z.real, z.imag).F
                fb = iwasawa.iwasawa_frame(c, es, z)[:, 2]
                worst_cross = max(worst_cross, abs(abs(linalg3.herm_inner(fa, fb)) - 1.0))
    res = {"unit_norm": worst_norm, "fd_geometry": worst_geom, "cross_route": worst_cross}
    thr = {"unit_norm": 1e-10, "fd_geometry": 1e-6, "cross_route": 1e-8}
    return _finish("lift", res, thr, t0, note)


def suite_identities(params: SurfaceParams | None = None) -> SuiteResult:
    """G_j sum rule, monodromy/G cancellation, and the factor identity."""
    t0 = time.perf_counter()
    c, note = _nonreal_surface(params)
    rng = np.random.default_rng(29)
    worst_sum = worst_cancel = worst_factor = 0.0
    for theta in (0.0, 0.35, 1.2, 2.2):
        lam = complex(np.exp(1j * theta))
        if not _off_locus(c, lam):
            continue
        es = eigensystem(c, lam)
        g = np.array(immersion._g_full_period(c, es))
        worst_sum = max(worst_sum, abs(float(g.sum())))
        cancel = g - iwasawa.full_period_phases(c, es)
        worst_cancel = max(worst_cancel, float(np.max(np.abs(cancel))))
        v = es.cubic
        for y in rng.uniform(0.0, 2.0 * c.T, 30).tolist():
            m = metric_at(c, y)
            lhs = (es.d * m.w - v.real) * (es.d**2 * m.w + v.real * es.d - 2.0 * m.w**2)
            rhs = (0.25 * m.u_prime**2 * m.w**2 + v.imag**2) * es.d
            worst_factor = max(worst_factor, float(np.max(np.abs(lhs - rhs))))
    res = {"g_sum": worst_sum, "monodromy_g_cancel": worst_cancel, "factor_identity": worst_factor}
    thr = {"g_sum": 1e-8, "monodromy_g_cancel": 1e-8, "factor_identity": 1e-9}
    return _finish("identities", res, thr, t0, note)


def suite_periodicity() -> SuiteResult:
    """Torus benchmark lattice, lift periodicity, no-period benchmark, flat rejection."""
    t0 = time.perf_counter()
    c = derive_constants(TORUS_BENCH)
    verdict = periodicity.classify_torus(c, 1.0)
    es = eigensystem(c, 1.0)
    p_f_err = math.inf
    lift_per = math.inf
    if verdict.tag == "Torus" and verdict.lattice is not None:
        p_f, omega_f = verdict.lattice
        p_f_err = abs(p_f.real - 2.0 * math.pi * math.sqrt(3.0))
        rng = np.random.default_rng(31)
        lift_per = 0.0
        for omega in (p_f, omega_f):
            for _ in range(10):
                x, y = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * c.T)
                f0 = immersion.lift_at(c, es, x, y).F
                f1 = immersion.lift_at(c, es, x + omega.real, y + omega.imag).F
                w0 = immersion.project_chart(f0)
                w1 = immersion.project_chart(f1)
                lift_per = max(
                    lift_per, abs(w1[0] - w0[0]), abs(w1[1] - w0[1])
                )
    # 4Ti periodicity of the real-regime lift, componentwise
    four_t = 0.0
    for x, y in ((0.2, 0.1), (-0.7, 1.3), (1.1, 2.9)):
        f0 = immersion.lift_at(c, es, x, y).F
        f1 = immersion.lift_at(c, es, x, y + 4.0 * c.T).F
        four_t = max(four_t, float(np.max(np.abs(f1 - f0))))
    cb = derive_constants(BENCH_SWEEP)
    none_ok = periodicity.classify_torus(cb, 1.0).tag == "NoPeriodFound"
    try:
        derive_constants(SurfaceParams(1.0, 1.0))
        flat_ok = False
    except FlatCliffordError:
        flat_ok = True
    res = {
        "torus_p_f": p_f_err,
        "lift_periodic": lift_per,
        "real_4T": four_t,
        "no_period": 0.0 if none_ok else 1.0,
        "flat_rejected": 0.0 if flat_ok else 1.0,
    }
    thr = {
        "torus_p_f": 1e-9,
        "lift_periodic": 1e-7,
        "real_4T": 1e-9,
        "no_period": 0.5,
        "flat_rejected": 0.5,
    }
    return _finish("periodicity", res, thr, t0)


def run_suites(
    params: SurfaceParams | None = None,
    corrupt_kappa: bool = False,
    names: list[str] | None = None,
) -> VerificationReport:
    """Run the residual suites; `params` parametrizes the surface-generic ones.

    `names` restricts the run to a subset of suite names.
    """
    runners = {
        "elliptic": suite_elliptic,
        "potential": suite_potential,
        "metric": lambda: suite_metric(params),
        "iwasawa": lambda: suite_iwasawa(params, corrupt_kappa=corrupt_kappa),
        "frame": lambda: suite_frame(params),
        "lift": lambda: suite_lift(params),
        "identities": lambda: suite_identities(params),
        "periodicity": lambda: suite_periodicity(),
    }
    if names is None:
        selected = list(runners)
    else:
        unknown = sorted(set(names) - set(runners))
        if unknown:
            raise UnknownSuiteError(f"unknown suites: {', '.join(unknown)}")
        selected = [n for n in runners if n in names]
    report = VerificationReport()
    for name in selected:
        report.suites.append(runners[name]())
    return report
