"""Correctness checks of one round's outputs.

Every output is checked against bench/oracle.py, which is computed apart
from the package, or against properties the method must have; nothing is
compared with a stored copy of an earlier output.  An operation fails when
it raises, or when it is one of the known-fault ladder inputs of the lift
workload and misses its oracle.  Any other miss is a problem: the run is
then reported as not correct.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

import oracle

QUAD_TOL = 1e-11             # the package's default quadrature tolerance
LIFT_TOL = 10 * QUAD_TOL     # lift against the oracle
# A grid row is marched from the previous row by one quadrature increment,
# each certified to QUAD_TOL, so cells of row iy may carry iy such errors.
GRID_TOL = 256 * QUAD_TOL
NORM_TOL = 1e-12             # |F| = 1 holds to rounding in both regimes
CHART_TOL = 1e-12            # chart = (F1/F3, F2/F3), relative
EU_TOL = 1e-12               # e^u against the oracle, relative
PERIOD_TOL = 1e-9            # |exp(i theta) - 1| for a period
CERT_TOL = 1e-8              # the certificate tolerance the CLI uses by default
FLAG_TOL = 1e-8              # chart-singular cells: |F3| <= FLAG_TOL


@dataclass
class Verdict:
    failures: list[str] = field(default_factory=list)   # failed operations
    problems: list[str] = field(default_factory=list)   # wrong outputs


def _vec(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _oracle_F(op: dict, x: float, y: float) -> np.ndarray:
    if op.get("regime") == "real":
        return oracle.lift_real(op["a1"], op["psi"], op["lam"], [x], y)[0]
    return oracle.lift_nonreal(op["a1"], op["psi"], op["lam"], x, y)


# ---------------------------------------------------------------------------

def check_lift(ops, results, v: Verdict) -> None:
    crossed = False
    for i, (op, res) in enumerate(zip(ops, results)):
        name = f"lift op {i} ({op['label']})"
        if "error" in res:
            v.failures.append(f"{name}: {res['error']}: {res['message']}")
            continue
        misses = []
        for x, y, F in zip(op["xs"], op["ys"], res["F"]):
            F = _vec(F)
            norm = abs(np.linalg.norm(F) - 1.0)
            if norm > NORM_TOL:
                misses.append(f"|F| - 1 = {norm:.1e} at y = {y:.6g}")
            err = float(np.max(np.abs(F - _oracle_F(op, x, y))))
            if err > LIFT_TOL:
                misses.append(f"misses the oracle by {err:.1e} > {LIFT_TOL:.0e} at y = {y:.6g}")
        if not crossed and op["label"] == "generic":
            # the closed-form oracle against mpmath quadrature at one point
            crossed = True
            y = min(op["ys"])
            g_pi = oracle.phase_integrals(op["a1"], op["psi"], op["lam"], y, "ellippi")
            g_q = oracle.phase_integrals(op["a1"], op["psi"], op["lam"], y, "quad")
            gap = max(abs(a - b) for a, b in zip(g_pi, g_q))
            if gap > mp.mpf(10) ** -20:
                v.problems.append(f"oracle: ellippi and quadrature differ by {float(gap):.1e}")
        if misses:
            (v.failures if op["known_fault"] else v.problems).append(f"{name}: " + "; ".join(misses))


def _check_cells(name: str, op: dict, cells, v: Verdict) -> None:
    for cell in cells:
        F = _vec(cell["F"])
        err = float(np.max(np.abs(F - _oracle_F(op, cell["x"], cell["y"]))))
        if err > GRID_TOL:
            v.problems.append(f"{name}: cell ({cell['iy']}, {cell['ix']}) misses the oracle by {err:.1e}")
        if "e_u" in cell:
            want = oracle.conformal_factor(op["a1"], op["psi"], cell["y"])
            if abs(cell["e_u"] - want) > EU_TOL * want:
                v.problems.append(f"{name}: e_u at row {cell['iy']} is {cell['e_u']!r}, oracle {want!r}")


def check_grid(ops, results, v: Verdict) -> None:
    for i, (op, res) in enumerate(zip(ops, results)):
        name = f"grid op {i} ({op['regime']})"
        if "error" in res:
            v.failures.append(f"{name}: {res['error']}: {res['message']}")
            continue
        if res["norm_dev"] > NORM_TOL:
            v.problems.append(f"{name}: max ||F| - 1| = {res['norm_dev']:.1e}")
        if res["flag_mismatch"] or res["chart_nan_mismatch"]:
            v.problems.append(f"{name}: flags disagree with |F3| <= 1e-8 or with the NaN chart cells")
        if res["chart_err"] > CHART_TOL:
            v.problems.append(f"{name}: chart differs from (F1/F3, F2/F3) by {res['chart_err']:.1e}")
        _check_cells(name, op, res["cells"], v)


# ---------------------------------------------------------------------------
# sample: the written files, parsed back

def _grid_axes(op: dict) -> tuple[np.ndarray, np.ndarray]:
    n = op["n"]
    return np.linspace(*op["x_range"], n), np.linspace(*op["y_range"], n)


def _check_grid_arrays(name, op, F, chart, flags, e_u, v: Verdict) -> None:
    """Shared checks of a parsed (ny, nx) grid; chart is NaN on flagged cells."""
    xs, ys = _grid_axes(op)
    norm = float(np.max(np.abs(np.linalg.norm(F, axis=2) - 1.0)))
    if norm > NORM_TOL:
        v.problems.append(f"{name}: max ||F| - 1| = {norm:.1e}")
    if np.any(flags != (np.abs(F[:, :, 2]) <= FLAG_TOL)):
        v.problems.append(f"{name}: flags disagree with |F3| <= 1e-8")
    ok = ~flags
    if np.any(~np.isnan(chart[flags])):
        v.problems.append(f"{name}: flagged cells carry chart values")
    want = np.stack([F[:, :, 0] / F[:, :, 2], F[:, :, 1] / F[:, :, 2]], axis=-1)
    if ok.any():
        err = float(np.max(np.abs(chart[ok] - want[ok]) / np.maximum(1.0, np.abs(want[ok]))))
        if err > CHART_TOL:
            v.problems.append(f"{name}: chart differs from (F1/F3, F2/F3) by {err:.1e}")
    cells = [{"iy": iy, "ix": ix, "x": xs[ix], "y": ys[iy], "F": [(z.real, z.imag) for z in F[iy, ix]],
              "e_u": float(e_u[iy])} for iy, ix in op["check_cells"]]
    _check_cells(name, op, cells, v)


def _parse_csv(path: str, n: int):
    rows = np.loadtxt(path, delimiter=",", skiprows=1).reshape(n, n, 14)
    F = rows[:, :, 2:8:2] + 1j * rows[:, :, 3:8:2]
    chart = np.stack([rows[:, :, 8] + 1j * rows[:, :, 9], rows[:, :, 10] + 1j * rows[:, :, 11]], axis=-1)
    return rows[:, :, 0], rows[:, :, 1], F, chart, rows[:, :, 13] == 1, rows[:, 0, 12]


def _parse_json(path: str, n: int):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    F = np.array(payload["F"])
    F = F[..., 0] + 1j * F[..., 1]
    chart = np.full((n, n, 2), np.nan + 0j)
    for iy, row in enumerate(payload["chart"]):
        for ix, cell in enumerate(row):
            if cell is not None:
                chart[iy, ix] = (complex(*cell[0]), complex(*cell[1]))
    flags = np.array(payload["flags"]) == 1
    return payload, F, chart, flags, np.array(payload["e_u"])


def _check_obj(name: str, op: dict, path: str, v: Verdict) -> None:
    n = op["n"]
    verts, faces = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(line.split()[1:])
            elif line.startswith("f "):
                faces.append(tuple(int(t) for t in line.split()[1:]))
    if len(verts) != n * n:
        v.problems.append(f"{name}: {len(verts)} vertices, expected {n * n}")
        return
    placeholder = np.array([vt == ["0", "0", "0"] for vt in verts]).reshape(n, n)
    xyz = np.array(verts, dtype=float).reshape(n, n, 3)
    quads = ~(placeholder[:-1, :-1] | placeholder[:-1, 1:] | placeholder[1:, :-1] | placeholder[1:, 1:])
    want = {(r * n + s + 1, r * n + s + 2, (r + 1) * n + s + 2, (r + 1) * n + s + 1)
            for r, s in zip(*np.nonzero(quads))}
    if set(faces) != want or len(faces) != len(want):
        v.problems.append(f"{name}: faces do not match the unflagged grid quads")
    xs, ys = _grid_axes(op)
    for iy, ix in op["check_cells"]:
        F = _oracle_F(op, xs[ix], ys[iy])
        if abs(F[2]) <= FLAG_TOL:
            continue
        w1, w2 = F[0] / F[2], F[1] / F[2]
        err = float(np.max(np.abs(xyz[iy, ix] - [w1.real, w1.imag, w2.real])))
        if err > GRID_TOL * max(1.0, abs(w1), abs(w2)) / abs(F[2]):
            v.problems.append(f"{name}: vertex ({iy}, {ix}) misses the oracle chart by {err:.1e}")


def check_sample(ops, results, v: Verdict) -> None:
    for i, (op, res) in enumerate(zip(ops, results)):
        name = f"sample op {i} ({op['format']})"
        if "error" in res or res["rc"] != 0:
            v.failures.append(f"{name}: {res.get('error') or 'exit ' + str(res['rc'])}")
            continue
        path, n = res["path"], op["n"]
        try:
            if op["format"] == "csv":
                x, y, F, chart, flags, e_u = _parse_csv(path, n)
                xs, ys = _grid_axes(op)
                if np.any(x != xs[None, :]) or np.any(y != ys[:, None]):
                    v.problems.append(f"{name}: x, y columns are not the configured grid")
                _check_grid_arrays(name, op, F, chart, flags, e_u, v)
            elif op["format"] == "json":
                payload, F, chart, flags, e_u = _parse_json(path, n)
                cfg = payload["config"]
                if cfg["a1"] != op["a1"] or cfg["grid"]["nx"] != n:
                    v.problems.append(f"{name}: config echo does not match the input")
                _check_grid_arrays(name, op, F, chart, flags, e_u, v)
            else:
                _check_obj(name, op, path, v)
        finally:
            os.remove(path)


# ---------------------------------------------------------------------------
# classify

def _cert_matches(cert: dict, value: float, max_den: int) -> bool:
    frac = oracle.certificate(value, max_den, CERT_TOL)
    return frac is not None and (frac.numerator, frac.denominator) == (cert["num"], cert["den"])


def _period_miss(theta) -> float:
    """max |exp(i theta_j) - 1|: zero when every phase is a multiple of 2 pi."""
    return max(abs(mp.expj(t) - 1) for t in theta)


def check_classify(ops, results, v: Verdict) -> None:
    for i, (op, res) in enumerate(zip(ops, results)):
        name = f"classify op {i} ({op['kind']})"
        if "error" in res:
            v.failures.append(f"{name}: {res['error']}: {res['message']}")
            continue
        if op["kind"] == "hyperplane":
            if res["rc"] != 3:
                v.problems.append(f"{name}: exit {res['rc']}, a hyperplane lambda must exit 3")
            continue
        if res["rc"] != 0:
            v.problems.append(f"{name}: exit {res['rc']}: {res['stderr'][-200:]}")
            continue
        verdict = json.loads(res["stdout"])["verdict"]
        tag, certs = verdict["tag"], verdict["certificates"]
        if op["kind"] == "torus":
            if tag != "Torus" or abs(verdict["p_f"] - 2 * math.pi * math.sqrt(3)) > 1e-9:
                v.problems.append(f"{name}: {tag}, p_f = {verdict.get('p_f')}; want Torus with 2 pi sqrt 3")
            continue
        d = oracle.eigenvalues(op["a1"], op["psi"], op["lam"])
        ratio = float(d[1] / d[0])
        want_cert = oracle.certificate(ratio, op["max_den"], CERT_TOL)
        if want_cert is None:
            if tag != "NoPeriodFound" or certs:
                v.problems.append(f"{name}: {tag}, but d2/d1 = {ratio!r} has no certificate")
            continue
        if op["kind"] == "rational" and (want_cert.numerator, want_cert.denominator) != tuple(op["ratio"]):
            v.problems.append(f"{name}: input ratio {op['ratio']} not recovered by the oracle")
        if "d_ratio" not in certs or not _cert_matches(certs["d_ratio"], ratio, op["max_den"]):
            v.problems.append(f"{name}: d_ratio certificate {certs.get('d_ratio')} != {want_cert}")
            continue
        n1, n2 = want_cert.denominator, want_cert.numerator
        g, two_t = oracle.period_phases(op["a1"], op["psi"], op["lam"])
        s = float((n2 * g[0] - n1 * g[1]) / (2 * mp.pi))
        want_phase = oracle.certificate(s, op["max_den"], CERT_TOL)
        want_tag = "Cylinder" if want_phase is None else "Torus"
        if tag != want_tag:
            v.problems.append(f"{name}: {tag}, oracle says {want_tag}")
            continue
        if tag == "Cylinder":
            p_f = verdict["omega"][0]
            if abs(p_f - float(2 * mp.pi * n1 / d[0])) > 1e-12 * p_f:
                v.problems.append(f"{name}: omega = {p_f!r} is not 2 pi n1 / d1")
            miss = _period_miss([dj * p_f for dj in d])
        else:
            p_f, (re_w, im_w) = verdict["p_f"], verdict["omega_f"]
            m = round(im_w / float(two_t))
            if not _cert_matches(certs["phase"], s, op["max_den"]):
                v.problems.append(f"{name}: phase certificate {certs['phase']} disagrees with the oracle")
            miss = max(_period_miss([dj * p_f for dj in d]),
                       _period_miss([dj * re_w + m * gj for dj, gj in zip(d, g)]))
        if miss > PERIOD_TOL:
            v.problems.append(f"{name}: F(x + omega) != F(x), |exp(i theta) - 1| = {float(miss):.1e}")


def check_verify(ops, results, v: Verdict) -> None:
    for i, (op, res) in enumerate(zip(ops, results)):
        name = f"verify op {i} ({op['label']})"
        if "error" in res:
            v.failures.append(f"{name}: {res['error']}: {res['message']}")
            continue
        payload = json.loads(res["stdout"])
        failing = sorted(s["name"] for s in payload["suites"] if not s["passed"])
        ran = sorted(s["name"] for s in payload["suites"])
        if ran != sorted(op["suites"].split(",")):
            v.problems.append(f"{name}: ran suites {ran}, asked for {op['suites']}")
        if op["corrupt"]:
            if res["rc"] != 4 or failing != ["iwasawa"]:
                v.problems.append(f"{name}: exit {res['rc']}, failing {failing}; want exit 4, iwasawa failing")
        elif res["rc"] != 0 or failing:
            v.problems.append(f"{name}: exit {res['rc']}, failing suites {failing}")


def check(workload: str, ops, results) -> Verdict:
    v = Verdict()
    {"lift": check_lift, "grid": check_grid, "sample": check_sample,
     "classify": check_classify, "verify": check_verify}[workload](ops, results, v)
    return v
