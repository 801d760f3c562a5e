"""Print two digests of a checkout's numbers: its library evaluations and its CLI output.

Usage: python tools/same_bits.py CHECKOUT

CHECKOUT is a directory holding this package's `src/` (a git clone or a
`git archive` of some commit).  The first digest covers fixed float and
array evaluations of the kernels (`jacobi`, `complete_K`, the Carlson
integrals with R_C on each of its closed forms, the array third-kind
integral, the depressed cubic) and of the evaluators (`eigensystem`,
`lift_at`, `phase_integrals`, `sample_grid`, `beta_integrals`, both
frames, `monodromy_phases`, `monodromy_data`, `metric_at`,
`verify_geometry`) on four surfaces in both regimes, and of stacks of
spectral objects (`potential.stack_systems`): per surface and regime one
stacked `extended_frame` call, the non-real stack's `_g_segment` and
`_g_full_period`, and the third-kind integral with rows of n_j.  The
second covers the CLI: `derive`, `classify` (on the torus surface at
lambda = 1 and -1, where lambda^-3 psi is real of either sign), `sample`
(csv, obj, json), `sweep` (csv, json) and `verify --json` with each suite's
`seconds` line removed, with every stdout, stderr, exit code and file.  Two checkouts that print the
same two digests give the same bits on all of these; a refusal counts by
its type and message.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import math
import pathlib
import re
import sys
import tempfile

import numpy as np


def _feed(h, value) -> None:
    """Hash a value's type and exact bits, recursing through tuples, lists and records."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, complex, int, bool, str, np.generic)) or value is None:
        h.update(f"{type(value).__name__}:{value!r};".encode())
        if isinstance(value, float):
            h.update(value.hex().encode())
    elif isinstance(value, (tuple, list)):
        h.update(f"{type(value).__name__}[{len(value)}".encode())
        for v in value:
            _feed(h, v)
        h.update(b"]")
    else:  # a dataclass record
        _feed(h, tuple(vars(value).values()))


def _call(h, f, *args) -> None:
    """Hash f(*args), or the type and message of its refusal."""
    try:
        value = f(*args)
    except (ValueError, ArithmeticError) as exc:
        value = f"{type(exc).__name__}: {exc}"
    _feed(h, value)


def _kernels(h, eq) -> None:
    from equilag import elliptic, linalg3

    rng = np.random.default_rng(2024)
    edge_k = [0.0, 1.0, 1e-9, 0.5, 0.999, 0.9999999, 1.0 - 2.0**-53]
    edge_z = [0.0, -0.0, 5e-324, -2.2e-310, 1e-300, 0.3, -7.5, 1e3, -1e6, 1e6]
    ks = edge_k + rng.uniform(0.0, 0.9999, 60).tolist()
    zs = edge_z + rng.uniform(-40.0, 40.0, 40).tolist()
    with np.errstate(over="ignore"):
        for k in ks:
            for z in zs:
                _call(h, eq.jacobi, z, k)
            _call(h, eq.jacobi, np.array(zs), k)
            if k < 1.0:
                _call(h, eq.complete_K, k)
        k = np.concatenate([rng.uniform(0.0, 0.9999, 2900), np.repeat(edge_k, 15)[:100]])
        z = rng.uniform(-30.0, 30.0, k.size)
        z[::97] = 1e-310
        _call(h, eq.jacobi, z, k)
        _call(h, eq.jacobi, 0.7, k.reshape(30, 100))

    x, y, z, p = (10.0 ** rng.uniform(-8, 3, 400) for _ in range(4))
    x[::7] = 0.0
    _call(h, elliptic._carlson_rf, x, y, z)
    _call(h, elliptic._carlson_rc, x, y)
    _call(h, elliptic._carlson_rj, x, y, z, p)
    for i in range(0, 400, 9):
        args = (float(x[i]), float(y[i]), float(z[i]), float(p[i]))
        _call(h, elliptic._carlson_rf, *args[:3])
        _call(h, elliptic._carlson_rc, *args[:2])
        _call(h, elliptic._carlson_rj, *args)
    # R_C on each of its forms: x = y, y one bit off x either way, x = 0, and
    # both orders across 600 decades (a subnormal x too)
    wide = 10.0 ** np.random.default_rng(30).uniform(-300.0, 300.0, (3, 60))
    x = np.concatenate([wide[0], wide[0], wide[0], np.zeros(60), wide[1], wide[2], [5e-324]])
    y = np.concatenate([wide[0], wide[0] * (1.0 + 2.0**-52), wide[0] * (1.0 - 2.0**-52),
                        wide[1], wide[2], wide[1], [1.0]])
    _call(h, elliptic._carlson_rc, x, y)
    for a, b in zip(x.tolist(), y.tolist()):
        _call(h, elliptic._carlson_rc, a, b)
    ns = (0.999999, 0.3, -1e-210, -0.7, -1e9)
    phi = rng.uniform(-math.pi / 2, math.pi / 2, 200)
    phi[::11] = 0.0
    # rows of n_j, one per point, as a stack of spectral objects gives them
    nrows = np.array(ns)[np.random.default_rng(26).integers(0, len(ns), (phi.size, 3))]
    for k in (0.0, 0.6, 0.998):
        s, c2 = np.sin(phi)[:, None], (np.cos(phi) ** 2)[:, None]
        pn = np.array([(1.0 - n) + n * c2[:, 0] if n > 0.0 else 1.0 - n * s[:, 0] ** 2
                       for n in ns]).T
        _call(h, elliptic._third_kind, ns, pn, s, c2, 1.0 - (k * s) ** 2, k * k)
        prows = np.where(nrows > 0.0, (1.0 - nrows) + nrows * c2, 1.0 - nrows * s * s)
        _call(h, elliptic._third_kind, nrows, prows, s, c2, 1.0 - (k * s) ** 2, k * k)

    for beta in rng.uniform(2.0, 40.0, 20).tolist() + [3.0]:
        q_max = 2.0 * (beta / 3.0) ** 1.5
        t = np.concatenate([rng.uniform(-1.0, 1.0, 180),
                            [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-17, -3e-17, 1e-9]])
        q = t * q_max
        for qi in q.tolist():
            _call(h, linalg3.solve_depressed_cubic, -beta, qi)
        _call(h, linalg3.solve_depressed_cubic, -beta, q[:75])
        _call(h, linalg3.solve_depressed_cubic, -beta, q.reshape(-1, 3))


def _evaluators(h, eq) -> None:
    from equilag import immersion, iwasawa

    surfaces = [(2.0, complex(math.cos(math.pi / 4), math.sin(math.pi / 4))),
                (1.0, complex(1.0 / math.sqrt(3.0))), (2.0, 1.0 + 0.0j), (20.0, 0.6 + 0.8j)]
    rng = np.random.default_rng(7)
    for a1, psi in surfaces:
        c = eq.derive_constants(eq.SurfaceParams(a1, psi))
        _feed(h, c)
        ys = np.concatenate([[0.0], rng.uniform(-3.0 * c.T, 5.0 * c.T, 24)])
        xs = rng.uniform(-1.0, 1.0, ys.size)
        _call(h, eq.metric_at, c, 0.37 * c.T)
        _call(h, eq.metric_at, c, ys)
        # lambda^-3 psi real, then 0.4 rad off it: both regimes of every surface
        for theta in (cmath.phase(psi) / 3.0, cmath.phase(psi) / 3.0 + 0.4):
            lam = complex(math.cos(theta), math.sin(theta))
            try:
                es = eq.eigensystem(c, lam)
            except ValueError as exc:
                _feed(h, f"{type(exc).__name__}: {exc}")
                continue
            _feed(h, (es.regime, es.d, es.vectors))
            for xi, yi in zip(xs[:8].tolist(), ys[:8].tolist()):
                _call(h, lambda: eq.lift_at(c, es, xi, yi).F)
                if es.regime == "nonreal":
                    _call(h, eq.phase_integrals, c, es, yi)
                _call(h, eq.beta_integrals, c, es, yi)
                _call(h, eq.extended_frame, c, es, complex(xi, yi))
                _call(h, eq.iwasawa_frame, c, es, complex(xi, yi))
            _call(h, lambda: eq.lift_at(c, es, xs, ys).F)
            if es.regime == "nonreal":
                _call(h, eq.phase_integrals, c, es, ys)
                _call(h, immersion._g_full_period, c, es)
            _call(h, eq.beta_integrals, c, es, ys)
            _call(h, eq.extended_frame, c, es, xs + 1j * ys)
            _call(h, eq.iwasawa_frame, c, es, xs + 1j * ys)
            for p, m in ((0.7, 0), (1.3, 1), (-0.4, 3)):
                _call(h, eq.monodromy_phases, c, es, p, m)
            _call(h, iwasawa.monodromy_data, c, es)  # refused in the real regime
            _call(h, eq.sample_grid, c, lam, (0.0, 2.0), (-c.T, 3.0 * c.T), 16, 12)
            _call(h, eq.verify_geometry, c, lam, np.linspace(0.1, 1.9, 3),
                  np.linspace(0.1, 2.0 * c.T - 0.1, 3))
        _stacks(h, eq, c, cmath.phase(psi) / 3.0, xs + 1j * ys)


def _stacks(h, eq, c, theta, zs) -> None:
    """Per regime one stacked `extended_frame` call at zs, and the non-real stack's G_j constants.

    The rows cycle through unit lambda of one regime: lambda^-3 psi is real
    at the angles theta + j pi / 3, and non-real at the other offsets.
    """
    from equilag import immersion, potential

    for offsets in ([j * math.pi / 3.0 for j in range(6)], [0.4, -0.7, 1.3, 2.5]):
        systems = []
        for t in offsets:
            try:
                systems.append(eq.eigensystem(c, cmath.exp(1j * (theta + t))))
            except ValueError as exc:
                _feed(h, f"{type(exc).__name__}: {exc}")
        stack = potential.stack_systems([systems[i % len(systems)] for i in range(zs.size)])
        _call(h, eq.extended_frame, c, stack, zs)
        if stack.regime == "nonreal":
            _call(h, immersion._g_segment, c, stack)
            _call(h, immersion._g_full_period, c, stack)


_SURFACES = {"nonreal": ["--a1", "2", "--psi", "0.70710678118654746,0.70710678118654757"],
             "torus": ["--a1", "1", "--psi", f"{1.0 / math.sqrt(3.0)!r},0"]}

_CONFIG = """[surface]
a1 = 2
psi_re = 0.70710678118654746
psi_im = 0.70710678118654757
[lambda]
{lam}
[grid]
x_min = -0.5
x_max = 1.5
y_min = -1.0
y_max = 4.0
nx = 24
ny = 20
[output]
format = {fmt}
"""


def _cli(h, main, tmp: pathlib.Path) -> None:
    runs = [["derive", *_SURFACES["nonreal"]], ["derive", "--json", *_SURFACES["nonreal"]],
            ["derive", "--json", "--lambda", "0.6,0.8", *_SURFACES["torus"]],
            ["classify", "--json", *_SURFACES["torus"]],
            # lambda^-3 psi real and negative: d_2/d_1 = -a3/a1
            ["classify", "--json", "--lambda=-1,0", *_SURFACES["torus"]],
            ["classify", "--json", "--lambda", "0.8,0.6", *_SURFACES["nonreal"]],
            ["classify", "--lambda", "0,1", *_SURFACES["torus"]],
            ["verify", "--json", *_SURFACES["nonreal"]], ["verify", "--json", *_SURFACES["torus"]],
            ["verify", "--json", "--debug-corrupt-kappa", "--suites", "iwasawa",
             *_SURFACES["nonreal"]]]
    for command, fmt, lam in (("sample", "csv", "re = 0.8\nim = 0.6"), ("sample", "obj", "re = 1"),
                              ("sample", "json", "re = 0.6\nim = 0.8"),
                              ("sweep", "csv", "count = 360"), ("sweep", "json", "count = 60")):
        cfg = tmp / f"{command}_{fmt}.ini"
        cfg.write_text(_CONFIG.format(lam=lam, fmt=fmt))
        runs.append([command, "--config", str(cfg), "--out", str(tmp / "out" / f"{command}.{fmt}")])
    (tmp / "out").mkdir()
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        files = [(path.name, path.read_text()) for path in sorted((tmp / "out").iterdir())]
        for path in (tmp / "out").iterdir():
            path.unlink()
        run = (argv[0], code, re.sub(r'\n *"seconds": [^\n]*', "", out.getvalue()),
               err.getvalue(), files)
        # the config echo names the output file: the temporary directory is left out
        _feed(h, repr(run).replace(str(tmp), "TMP"))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    src = pathlib.Path(argv[1]).resolve() / "src"
    sys.path.insert(0, str(src))
    import equilag as eq
    if not pathlib.Path(eq.__file__).is_relative_to(src):
        print(f"imported {eq.__file__}, not the package under {src}", file=sys.stderr)
        return 2
    from equilag.cli import main as cli_main

    library = hashlib.sha256()
    _kernels(library, eq)
    _evaluators(library, eq)
    cli = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        _cli(cli, cli_main, pathlib.Path(tmp))
    print(f"library {library.hexdigest()}")
    print(f"cli     {cli.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
