"""Seeded inputs of the five workloads.

Each workload is a fixed list of operations (plain dicts) made from the seed
alone with numpy's PCG64 generator and a few closed-form constants that are
computed here in floating point, independently of the package.  The program
under test receives only these inputs.  Costs within a workload depend on
the modulus k, on the distance of phi = arg(lambda^-3 psi) from the real
locus, on |psi| and on where the lift points sit in the period, so these are
drawn from a lattice (``_design``) whose cells are the same on every seed.
Every input that reaches an adaptive quadrature (the surface, lambda and the
lift's y) sits at a cell centre, so a round makes the same quadrature calls
on every seed (see ``ALL_STILL``); the seed moves the lift's x, the checked
grid cells, the order of the operations and the inputs that reach no
quadrature (real-regime grids, generic and hyperplane classify lambda).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

WORKLOADS = ("lift", "grid", "sample", "classify", "verify")

# generic non-real surfaces: the modulus range, and the distance of
# phi = arg(lambda^-3 psi) from the real locus (phi in pi Z) and from the
# hyperplane locus (phi in pi/2 + pi Z); the ladder below goes nearer
K_RANGE = (0.6, 0.98)
DELTA_MIN = 0.3
HYPERPLANE_MARGIN = 0.15
JITTER = 0.25             # of a design cell's width, either way

LIFT_GENERIC = 48
GRID_NONREAL, GRID_REAL = 16, 8
GRID_N = 256
# `equilag sample` writes 128 x 128 grids: at 256 x 256 an operation costs
# 0.7 to 3 s, a 15 s run holds two or three of the csv operations whose time
# is the median, and that median spread 0.13 over ten seeds
SAMPLE_N = 128
GRID_CHECK_CELLS = 2
SAMPLE_FORMATS = ("csv", "obj", "json")
CLASSIFY_RATIONAL, CLASSIFY_GENERIC, CLASSIFY_HYPERPLANE = 30, 6, 3
CLASSIFY_MAX_DEN = 64
CLASSIFY_K_RANGE = (0.3, 0.9)
# small-denominator eigenvalue ratios d2/d1 in (-1/2, 1) \ {0}
RATIOS = sorted(
    {(p, q) for q in range(2, 13) for p in range(-q // 2, q) if p != 0 and math.gcd(p, q) == 1
     and -0.5 < p / q < 1.0},
    key=lambda pq: pq[0] / pq[1],
)

# The ladder of lift inputs near the domain edges; seed-independent.  One
# lift point each at y = 0.6 T, x = 0.3.
NONREAL_BENCH = (2.0, cmath.exp(1j * math.pi / 4))  # real locus at arg(lambda) = pi/12
LADDER_OFFSETS = (1e-1, 1e-2, 3e-3, 1e-6, 1e-8)     # rad from the real locus
LADDER_MODULUS = (10.0, 20.0, 50.0)                 # a1 / |psi|^(2/3) with psi = 1
# Ladder entries that hit the known faults: the 200,000-evaluation budget of
# adaptive_simpson runs out and relaxed_simpson's 1e-7 answer is accepted
# silently (3e-3, 1e-6, a1 = 50), or lift_at raises RegimeError although
# regime_of calls lambda non-real (1e-8).
LADDER_KNOWN_FAULTS = ("offset 3e-03", "offset 1e-06", "offset 1e-08", "a1 50", "full period")
# A generic input (k = 0.956, phi 0.79 rad from the real locus) at which
# adaptive_simpson accepts two panels of the full-period G_3 integral at
# depth 4 on an error estimate that is small by chance (5.8e-12 against a
# true error near 1.7e-9 each), so G_3(2T) is off by 3.4e-9 and the lift at
# y = 3.2 T misses the oracle by 5.5e-10.  Which lambda hit this depends on
# the last bits of the integrand, so it is kept as this one fixed input.
FULL_PERIOD_FAULT = {
    "a1": 4.374176051465894, "psi": complex(-0.45830146063905236, -0.35166707937852226),
    "lam": complex(-0.8858973696932081, -0.46388128909307746),
    "xs": [0.4954745882868188], "ys": [2.8302258817423205],
}

TORUS_BENCH = (1.0, 1.0 / math.sqrt(3.0))
# `equilag verify` runs one of these suite sets per operation: the dear
# suites one each or in pairs, the cheap ones (three of them take no
# surface) added to dear ones.  A whole verify is three operations of 1 to
# 8 s, too few for a steady median; split, the median of the eight
# operations of a round lies among four that cost 1.2 to 1.4 s each.
VERIFY_SUITES = {
    "nonreal": ("elliptic,potential,metric,periodicity,iwasawa", "frame", "lift", "identities"),
    "torus": ("metric,frame,iwasawa", "lift", "identities"),
}


# ---------------------------------------------------------------------------
# closed-form constants in floating point (input generation only)

def metric_roots(a1: float, apsi: float) -> tuple[float, float]:
    """(a2, a3): the other roots a2 and -a3 of w^3 - (beta/2) w^2 + |psi|^2/2."""
    s = apsi**2 / (2.0 * a1**2)
    root = math.sqrt(s * s + 4.0 * a1 * s)
    return 0.5 * (s + root), 0.5 * (-s + root)


def modulus(a1: float, apsi: float) -> float:
    a2, a3 = metric_roots(a1, apsi)
    return math.sqrt((a1 - a2) / (a1 + a3))


def half_period(a1: float, apsi: float) -> float:
    """T = K(k) / r with K by the arithmetic-geometric mean."""
    a2, a3 = metric_roots(a1, apsi)
    k2 = (a1 - a2) / (a1 + a3)
    a, b = 1.0, math.sqrt(1.0 - k2)
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a) / math.sqrt(2.0 * (a1 + a3))


def a1_for_modulus(k: float, apsi: float) -> float:
    """a1 > |psi|^(2/3) with modulus k; k grows monotonically with a1."""
    base = apsi ** (2.0 / 3.0)
    lo, hi = 1.0 + 1e-9, 2.0
    while modulus(hi * base, apsi) < k:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if modulus(mid * base, apsi) < k:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * base


def lam_for_phase(psi: complex, phi: float, branch: int) -> complex:
    """Unit lambda with arg(lambda^-3 psi) = phi, on one of the three branches."""
    theta = (cmath.phase(psi) - phi + 2.0 * math.pi * branch) / 3.0
    return cmath.exp(1j * theta)


# ---------------------------------------------------------------------------
# design

def _design(rng: np.random.Generator, n: int, dims: int, still=()) -> np.ndarray:
    """(n, dims) points in [0, 1): a fixed lattice, jittered inside its cells.

    Coordinate 0 of point i lies in cell i of n; coordinate d > 0 lies in
    cell (i * g_d) mod n, with g_d the integer nearest to n times the
    fractional part of (d + 1) times the golden ratio that is prime to n.
    Every seed so draws one point from each of the same n cells, and the
    spread of the operations' costs, hence the median latency, barely moves
    with the seed.  Coordinates listed in ``still`` stay at their cell
    centres.  Rows come back in a seeded order.
    """
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    cols = [np.arange(n)]
    for d in range(1, dims):
        g = max(1, round(n * ((d + 1) * golden % 1.0)))
        while math.gcd(g, n) != 1:
            g += 1
        cols.append((np.arange(n) * g) % n)
    cells = np.stack(cols, axis=1).astype(float)
    jitter = rng.uniform(-JITTER, JITTER, size=cells.shape)
    jitter[:, [d for d in still if d < dims]] = 0.0
    return ((cells + 0.5 + jitter) / n)[rng.permutation(n)]


def _span(u: float, lo_hi: tuple[float, float]) -> float:
    return lo_hi[0] + u * (lo_hi[1] - lo_hi[0])


def _phi_at(rng: np.random.Generator, delta: float) -> float:
    """An angle at distance delta from the real locus pi Z, on a seeded side."""
    return math.pi * int(rng.integers(2)) + (1.0 if rng.uniform() < 0.5 else -1.0) * delta


# Design coordinates of a surface: k, delta, |psi| and arg psi.  The surface
# (a1, psi) stays the same on every seed, because the cost of every jacobi
# call depends on the last bits of k: at about a quarter of all moduli the
# AGM scheme of elliptic._agm_scheme runs to its 40-level cap instead of
# stopping after 6 or 7, which makes each call about 6 times dearer.
SURFACE_DIMS, SURFACE_STILL = 4, (0, 2, 3)
# Inputs that reach an adaptive quadrature keep every coordinate at its cell
# centre, lambda too: adaptive_simpson now and then accepts a panel on an
# error estimate that is small by chance (see FULL_PERIOD_FAULT), and
# whether it does depends on the last bits of the integrand, so a seeded
# lambda or y would make such a miss come and go with the seed.
ALL_STILL = tuple(range(SURFACE_DIMS + 2))


def _cell(u, n: int) -> int:
    """The index of the design cell of a point drawn by _design(rng, n, ...)."""
    return min(n - 1, int(u[0] * n))


def _surface(rng: np.random.Generator, u, k_range=K_RANGE, cell=None) -> dict:
    """A generic non-real (a1, psi, lambda) from one design point.

    delta is the distance of phi = arg(lambda^-3 psi) from the real locus.
    The side of the locus and the cube-root branch of lambda leave the cost
    unchanged; they are drawn from the seed, or, when the design cell is
    given, fixed by it.
    """
    k = _span(u[0], k_range)
    delta = _span(u[1], (DELTA_MIN, math.pi / 2.0 - HYPERPLANE_MARGIN))
    apsi = math.exp(_span(u[2], (math.log(0.5), math.log(2.0))))
    psi = cmath.rect(apsi, _span(u[3], (-math.pi, math.pi)))
    if cell is None:
        lam = lam_for_phase(psi, _phi_at(rng, delta), int(rng.integers(3)))
    else:
        phi = math.pi * (cell % 2) + (1.0 if (cell // 2) % 2 == 0 else -1.0) * delta
        lam = lam_for_phase(psi, phi, cell % 3)
    return {"a1": a1_for_modulus(k, apsi), "psi": psi, "lam": lam, "k": k}


# ---------------------------------------------------------------------------
# workloads

def lift_ops(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for u in _design(rng, LIFT_GENERIC, SURFACE_DIMS + 2, ALL_STILL):
        s = _surface(rng, u, cell=_cell(u, LIFT_GENERIC))
        T = half_period(s["a1"], abs(s["psi"]))
        # one point in each of the two periods of e^u, so every operation
        # integrates over one full period and two remainders
        ys = [_span(u[4], (0.0, 2.0)) * T, _span(u[5], (2.0, 4.0)) * T]
        ops.append({**s, "xs": list(rng.uniform(-1.0, 1.0, 2)), "ys": ys,
                    "label": "generic", "known_fault": False})
    a1, psi = NONREAL_BENCH
    for off in LADDER_OFFSETS:
        lam = cmath.exp(1j * (math.pi / 12.0 + off))
        ops.append(_ladder_op(a1, psi, lam, f"offset {off:.0e}"))
    for a1 in LADDER_MODULUS:
        ops.append(_ladder_op(a1, 1.0 + 0j, cmath.exp(0.3j), f"a1 {a1:g}"))
    ops.append({**FULL_PERIOD_FAULT, "label": "full period", "known_fault": True})
    return ops


def _ladder_op(a1: float, psi: complex, lam: complex, label: str) -> dict:
    T = half_period(a1, abs(psi))
    return {"a1": a1, "psi": psi, "lam": lam, "xs": [0.3], "ys": [0.6 * T],
            "label": label, "known_fault": label in LADDER_KNOWN_FAULTS}


def _grid_op(s: dict, rng: np.random.Generator, regime: str, n: int = GRID_N) -> dict:
    T = half_period(s["a1"], abs(s["psi"]))
    cells = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(GRID_CHECK_CELLS)]
    return {"a1": s["a1"], "psi": s["psi"], "lam": s["lam"], "regime": regime,
            "x_range": (0.0, 2.0), "y_range": (0.0, 4.0 * T), "n": n,
            "check_cells": cells, "known_fault": False}


def _real_surface(rng: np.random.Generator, u, sign: float) -> dict:
    """A surface whose cubic form lambda^-3 psi = sign |psi| is real."""
    k = _span(u[0], K_RANGE)
    apsi = math.exp(_span(u[1], (math.log(0.5), math.log(2.0))))
    lam = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    return {"a1": a1_for_modulus(k, apsi), "psi": sign * apsi * lam**3, "lam": lam, "k": k}


def grid_ops(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    ops = [_grid_op(_surface(rng, u, cell=_cell(u, GRID_NONREAL)), rng, "nonreal")
           for u in _design(rng, GRID_NONREAL, SURFACE_DIMS, ALL_STILL)]
    ops += [_grid_op(_real_surface(rng, u, (-1.0) ** i), rng, "real")
            for i, u in enumerate(_design(rng, GRID_REAL, 2, (0, 1)))]
    return [ops[i] for i in rng.permutation(len(ops))]


def sample_ops(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    # each format keeps its third of the design, so its cost is the same on every seed
    n = len(SAMPLE_FORMATS)
    design = sorted(_design(rng, n, SURFACE_DIMS, ALL_STILL), key=lambda u: u[0])
    ops = [{**_grid_op(_surface(rng, u, cell=_cell(u, n)), rng, "nonreal", SAMPLE_N), "format": fmt}
           for u, fmt in zip(design, SAMPLE_FORMATS)]
    return [ops[i] for i in rng.permutation(len(ops))]


def sample_config(op: dict, out_path: str) -> str:
    """The `equilag sample` configuration file of one sample operation."""
    f = repr
    (x0, x1), (y0, y1) = op["x_range"], op["y_range"]
    return "\n".join([
        "[surface]", f"a1 = {f(op['a1'])}", f"psi_re = {f(op['psi'].real)}",
        f"psi_im = {f(op['psi'].imag)}", "",
        "[lambda]", f"re = {f(op['lam'].real)}", f"im = {f(op['lam'].imag)}", "",
        "[grid]", f"x_min = {f(x0)}", f"x_max = {f(x1)}", f"y_min = {f(y0)}",
        f"y_max = {f(y1)}", f"nx = {op['n']}", f"ny = {op['n']}", "",
        "[output]", f"format = {op['format']}", f"path = {out_path}", "",
    ])


def _rational_phase(a1: float, apsi: float, delta: float) -> tuple[int, int, float]:
    """(p, q, cos phi): the ratio d2/d1 = p/q whose phi lies nearest to delta from the real locus.

    With d2 = rho d1 and d3 = -(1 + rho) d1 the pair sum of
    d^3 - beta d + 2 Re(lambda^-3 psi) gives d1^2 (1 + rho + rho^2) = beta and
    the product gives Re(lambda^-3 psi) = rho (1 + rho) d1^3 / 2.
    """
    beta = 2.0 * a1 + apsi**2 / a1**2
    best = None
    for p, q in RATIOS:
        rho = p / q
        d1 = math.sqrt(beta / (1.0 + rho + rho * rho))
        cos_phi = rho * (1.0 + rho) * d1**3 / 2.0 / apsi
        if not math.sin(HYPERPLANE_MARGIN) <= abs(cos_phi) <= math.cos(DELTA_MIN):
            continue
        gap = abs(math.acos(abs(cos_phi)) - delta)
        if best is None or gap < best[0]:
            best = (gap, p, q, cos_phi)
    if best is None:
        raise ValueError(f"no small-denominator ratio is feasible at a1 = {a1!r}")
    return best[1:]


def classify_ops(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 4])
    ops = []
    # delta stays too, so each cell keeps its ratio p/q
    for u in _design(rng, CLASSIFY_RATIONAL, SURFACE_DIMS, ALL_STILL):
        cell = _cell(u, CLASSIFY_RATIONAL)
        s = _surface(rng, u, k_range=CLASSIFY_K_RANGE, cell=cell)
        delta = _span(u[1], (DELTA_MIN, math.pi / 2.0 - HYPERPLANE_MARGIN))
        p, q, cos_phi = _rational_phase(s["a1"], abs(s["psi"]), delta)
        phi = math.acos(cos_phi) * (1.0 if (cell // 2) % 2 == 0 else -1.0)
        lam = lam_for_phase(s["psi"], phi, cell % 3)
        ops.append({**s, "lam": lam, "kind": "rational", "ratio": (p, q)})
    for u in _design(rng, CLASSIFY_GENERIC, SURFACE_DIMS, SURFACE_STILL):
        ops.append({**_surface(rng, u, k_range=CLASSIFY_K_RANGE), "kind": "generic"})
    for u in _design(rng, CLASSIFY_HYPERPLANE, SURFACE_DIMS, SURFACE_STILL):
        s = _surface(rng, u, k_range=CLASSIFY_K_RANGE)
        phi = math.pi / 2.0 * (1.0 if rng.uniform() < 0.5 else -1.0)
        lam = lam_for_phase(s["psi"], phi, int(rng.integers(3)))
        ops.append({**s, "lam": lam, "kind": "hyperplane"})
    a1, psi = TORUS_BENCH
    ops.append({"a1": a1, "psi": complex(psi), "lam": 1.0 + 0j, "kind": "torus"})
    return [{**ops[i], "max_den": CLASSIFY_MAX_DEN, "known_fault": False}
            for i in rng.permutation(len(ops))]


def verify_ops(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 5])
    ops = []
    for label, (a1, psi) in (("nonreal", NONREAL_BENCH), ("torus", TORUS_BENCH)):
        for suites in VERIFY_SUITES[label]:
            ops.append({"a1": a1, "psi": complex(psi), "suites": suites, "corrupt": False,
                        "label": f"{label} {suites}"})
    a1, psi = NONREAL_BENCH
    ops.append({"a1": a1, "psi": psi, "suites": "iwasawa", "corrupt": True,
                "label": "negative control"})
    return [{**ops[i], "known_fault": False} for i in rng.permutation(len(ops))]


def make_ops(workload: str, seed: int) -> list[dict]:
    """The operation list of one round of a workload."""
    return {
        "lift": lift_ops, "grid": grid_ops, "sample": sample_ops,
        "classify": classify_ops, "verify": verify_ops,
    }[workload](seed)
