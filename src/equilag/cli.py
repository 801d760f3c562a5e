"""Command-line front end: derive | verify | sample | classify | sweep.

One argparse parser, built once per process when this module is imported,
reads the command and the flags of every `main` call, in any order;
`--suites` and `--debug-corrupt-kappa` are refused on any command but verify.
Configuration lives in an INI-style file (grammar in the README); each key is
read once, a key or section nothing reads is refused, and flags override it.
Input is refused by the library alone, where each `equilag.Refusal` is
raised; the refusal's type is reported.  Exit codes: 0 ok, 1 output file
not writable (checked before the grid or catalog is computed), 2 config
error, 3 refused input (a degenerate surface or lambda, a surface out of
float range, lambda too near the real locus or on the Iwasawa singular
locus), 4 verification failure, 5 internal error (a failed consistency
check).

Numbers are printed to 17 significant digits, except in JSON, which prints
each float's shortest round-trip repr; identical configurations reproduce
byte-identical files.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import immersion, periodicity, verification
from .potential import (DerivedConstants, Refusal, SurfaceClass, SurfaceParams, _check_unit,
                        derive_constants, eigensystem, regime_of)

EXIT_OK = 0
EXIT_OUTPUT = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_VERIFY = 4
EXIT_INTERNAL = 5


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _text(v) -> str:
    """A config or table value as written: floats to 17 digits, the rest as str."""
    return _fmt(v) if isinstance(v, float) else str(v)


@dataclass(frozen=True)
class JobConfig:
    a1: float
    psi: complex
    lam: complex = 1.0 + 0.0j
    sweep_count: int = 0          # > 0 selects a sweep instead of a single lambda
    sweep_start: float = 0.0
    sweep_end: float = 2.0 * math.pi
    x_min: float = 0.0
    x_max: float = 1.0
    y_min: float = 0.0
    y_max: float = 1.0
    nx: int = 16
    ny: int = 16
    phase_tol: float = 1e-8
    rational_tol: float = 1e-8
    max_den: int = 64
    out_format: str = "csv"
    out_path: str = ""

    def validate(self) -> None:
        if not (math.isfinite(self.a1) and self.a1 > 0.0):
            raise ConfigError(f"a1 must be positive and finite, got {self.a1}")
        if not cmath.isfinite(self.psi):
            raise ConfigError(f"psi must be finite, got {self.psi}")
        # a span is finite only when both of its bounds are and their difference does not overflow
        spans = (self.sweep_end - self.sweep_start, self.x_max - self.x_min, self.y_max - self.y_min)
        if not all(map(math.isfinite, spans)):
            raise ConfigError("lambda arc and grid bounds and their spans must be finite")
        for name, v in (("phase", self.phase_tol), ("rational_tol", self.rational_tol)):
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"tolerance {name} must be finite and > 0, got {v}")
        if self.max_den < 1:
            raise ConfigError(f"max_den must be >= 1, got {self.max_den}")
        if self.sweep_count == 0:
            try:
                _check_unit(self.lam)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if self.nx < 2 or self.ny < 2:
            raise ConfigError("grid needs nx >= 2 and ny >= 2")
        if self.out_format not in _WRITERS:
            raise ConfigError(f"unknown output format {self.out_format!r}")


# (section, key, JobConfig field, type) of the [grid], [tolerances] and [output] keys
_TABLE = (
    *(("grid", key, key, float) for key in ("x_min", "x_max", "y_min", "y_max")),
    ("grid", "nx", "nx", int),
    ("grid", "ny", "ny", int),
    ("tolerances", "phase", "phase_tol", float),
    ("tolerances", "rational_tol", "rational_tol", float),
    ("tolerances", "max_den", "max_den", int),
    ("output", "format", "out_format", str),
    ("output", "path", "out_path", str),
)


def parse_config(text: str) -> JobConfig:
    """Parse the INI-style configuration grammar into a JobConfig."""
    # '%' is literal, and no header can name the empty default section
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.SECTCRE = re.compile(r"\[(?P<header>.+)\]$")  # `[grid] nx = 7` is a key, not a header
    try:
        cp.read_string(text)
    except configparser.Error as exc:  # its text spans lines; the refusal is one line
        raise ConfigError(f"cannot parse config: {' '.join(str(exc).split())}") from exc
    left = {name: dict(cp[name]) for name in cp.sections()}
    known = {"surface", "lambda", *(row[0] for row in _TABLE)}

    def take(section: str, key: str, default=None, conv=float):
        """conv of the key's text, popped so that no key is read twice; default if it is absent."""
        raw = left.get(section, {}).pop(key, None)
        if raw is not None and "\n" in raw:  # an indented line below a key continues its value
            raise ValueError(f"[{section}] {key} spans lines")
        return default if raw is None else conv(raw)

    try:
        kw: dict = {"a1": take("surface", "a1"), "psi": None}
        if {"psi_re", "psi_im"} & left.get("surface", {}).keys():  # psi_mod/psi_arg go unread
            kw["psi"] = complex(take("surface", "psi_re", 0.0), take("surface", "psi_im", 0.0))
        elif (psi_mod := take("surface", "psi_mod")) is not None:
            kw["psi"] = cmath.rect(psi_mod, take("surface", "psi_arg", 0.0))
        count = take("lambda", "count", conv=int)
        if count is None:  # one lambda: arc_start/arc_end go unread
            kw["lam"] = complex(take("lambda", "re", 1.0), take("lambda", "im", 0.0))
        else:  # a sweep: re/im go unread
            kw.update(sweep_count=count, sweep_start=take("lambda", "arc_start", 0.0),
                      sweep_end=take("lambda", "arc_end", 2.0 * math.pi))
        for section, key, name, conv in _TABLE:  # an absent key keeps the field's default
            kw[name] = take(section, key, getattr(JobConfig, name), conv)
        take("tolerances", "quadrature", conv=str)  # retired, it governed nothing: old configs parse
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    if count is not None and count < 1:  # 0 would select the single lambda = 1 silently
        raise ConfigError(f"sweep count must be >= 1, got {count}")
    unread = [f"[{name}]" for name in left if name not in known]
    unread += [f"[{name}] {key}" for name, keys in left.items() if name in known for key in keys]
    if unread:
        raise ConfigError(f"unknown or unused config input: {', '.join(unread)}")
    if None in (kw["a1"], kw["psi"]):
        raise ConfigError("config must contain [surface] with a1 and psi")
    cfg = JobConfig(**kw)
    cfg.validate()
    return cfg


def _sections(cfg: JobConfig) -> dict[str, dict]:
    """{section: {key: value}} of the whole config, in the grammar's order."""
    if cfg.sweep_count > 0:
        lam = {"count": cfg.sweep_count, "arc_start": cfg.sweep_start, "arc_end": cfg.sweep_end}
    else:
        lam = {"re": cfg.lam.real, "im": cfg.lam.imag}
    out = {"surface": {"a1": cfg.a1, "psi_re": cfg.psi.real, "psi_im": cfg.psi.imag},
           "lambda": lam}
    for section, key, name, _ in _TABLE:
        out.setdefault(section, {})[key] = getattr(cfg, name)
    return out


def _config_dict(cfg: JobConfig) -> dict:
    """The JSON config echo: the [surface] keys at the top level, other sections nested."""
    sections = _sections(cfg)
    return {**sections.pop("surface"), **sections}


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load(args) -> JobConfig:
    """Config file plus flag overrides; raises ConfigError on any defect."""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path, or not UTF-8
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        cfg = parse_config(text)
    else:
        if args.a1 is None or args.psi is None:
            raise ConfigError("either --config or both --a1 and --psi are required")
        cfg = JobConfig(a1=args.a1, psi=args.psi)
    flags = {"a1": args.a1, "psi": args.psi, "max_den": args.max_den,
             "rational_tol": args.tol, "out_path": args.out}
    cfg = replace(cfg, **{name: v for name, v in flags.items() if v is not None})
    if args.lam is not None:
        cfg = replace(cfg, lam=args.lam, sweep_count=0)
    elif cfg.sweep_count and args.command in ("derive", "sample", "classify"):
        # these run at one lambda: a sweep config would silently run at lambda = 1
        raise ConfigError(f"{args.command} runs at one lambda: a [lambda] count needs --lambda")
    cfg.validate()
    return cfg


def _generic_constants(cfg: JobConfig) -> DerivedConstants:
    """derive_constants of the configured surface: a Refusal propagates,
    any other ValueError (a1 < |psi|^(2/3)) is a ConfigError."""
    try:
        return derive_constants(SurfaceParams(cfg.a1, cfg.psi))
    except Refusal:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_REAL_CONSTANTS = ("beta", "a1", "a2", "a3", "k", "q2", "r", "T")


def cmd_derive(cfg: JobConfig, args) -> int:
    c = _generic_constants(cfg)
    es = eigensystem(c, cfg.lam)
    if args.json:
        constants = {name: getattr(c, name) for name in _REAL_CONSTANTS}
        constants.update(a_re=c.a.real, a_im=c.a.imag, b_re=c.b.real, b_im=c.b.imag)
        sys.stdout.write(_json_dumps({
            "config": _config_dict(cfg), "classification": SurfaceClass.GENERIC.value,
            "regime": es.regime, "constants": constants, "eigenvalues": list(es.d),
        }))
        return EXIT_OK
    print(f"classification : {SurfaceClass.GENERIC.value} (cubic form regime: {es.regime})")
    for name in _REAL_CONSTANTS:
        print(f"{name:<5} = {_fmt(getattr(c, name))}")
    print(f"a     = {_fmt(c.a.real)} + {_fmt(c.a.imag)}i")
    print(f"b     = {_fmt(c.b.real)} + {_fmt(c.b.imag)}i")
    for j, dj in enumerate(es.d, start=1):
        print(f"d_{j}   = {_fmt(dj)}")
    return EXIT_OK


def cmd_verify(cfg: JobConfig, args) -> int:
    c = _generic_constants(cfg)
    try:
        suites = verification.run_suites(
            SurfaceParams(c.a1, c.psi), corrupt_kappa=args.debug_corrupt_kappa,
            names=None if args.suites is None else [n.strip() for n in args.suites.split(",")],
        )
    except verification.UnknownSuiteError as exc:
        raise ConfigError(str(exc)) from exc
    passed = all(s.passed for s in suites)
    if args.json:
        sys.stdout.write(_json_dumps({"config": _config_dict(cfg), "passed": passed,
                                      "suites": [asdict(s) for s in suites]}))
    else:
        for s in suites:
            worst = max(s.thresholds, key=lambda k: s.residuals[k] / s.thresholds[k])
            print(f"[suite:{s.name}] {'PASS' if s.passed else 'FAIL'}  worst {worst} = "
                  f"{s.residuals[worst]:.3e} (threshold {s.thresholds[worst]:.0e}, {s.seconds:.2f}s)"
                  + (f"  note: {s.note}" if s.note else ""))
        print("verification:", "PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_sample(cfg: JobConfig, args) -> int:
    c = _generic_constants(cfg)
    if not math.isfinite(c.r * max(abs(cfg.y_min), abs(cfg.y_max))):
        raise ConfigError(f"grid y bounds overflow the Jacobi argument r*y (r = {_fmt(c.r)})")
    if not cfg.out_path:
        raise ConfigError("sample requires an output path ([output] path or --out)")
    d_max = float(np.abs(eigensystem(c, cfg.lam).d).max())
    if not math.isfinite(max(abs(cfg.x_min), abs(cfg.x_max)) * d_max):
        raise ConfigError(f"grid x bounds overflow the phase x*d_j (max |d_j| = {_fmt(d_max)})")
    _check_writable(cfg.out_path)
    grid = immersion.sample_grid(c, cfg.lam, (cfg.x_min, cfg.x_max), (cfg.y_min, cfg.y_max),
                                 cfg.nx, cfg.ny)
    _WRITERS[cfg.out_format](cfg.out_path, cfg, grid)
    return EXIT_OK


def _check_writable(path: str) -> None:
    """Raise the OSError that opening path for writing would raise, before any work is done.

    Opening for append truncates nothing, and a file the check creates is
    removed again, so a later refusal leaves no empty file behind.
    """
    if "\0" in path:  # open raises ValueError on it, not the OSError that main reports
        raise OSError(f"embedded null byte in {path!r}")
    existed = os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


_BLOCK = 512  # obj rows per % pass: enough to amortize the call, few enough to keep memory flat


def _rows(fh, fmt: str, table: np.ndarray) -> None:
    """Write `fmt % row` and a newline per table row, as np.savetxt does, one % per block of rows."""
    for start in range(0, len(table), _BLOCK):
        block = table[start:start + _BLOCK]
        fh.write(((fmt + "\n") * len(block)) % tuple(block.ravel().tolist()))


def _write_csv(path: str, cfg: JobConfig, grid: immersion.GridSample) -> None:
    """One row per cell, x fastest; complex columns as (re, im) pairs.

    x, y and e_u are formatted once each: a grid line's template holds the x
    texts, takes its y and e_u texts, and one % fills in the line's ten F and
    chart numbers and the flag of every cell.
    """
    # a contiguous complex128 array viewed as float64 interleaves re and im
    F, w = (np.ascontiguousarray(a).view(float) for a in (grid.F, grid.chart))  # (ny, nx, 6), (ny, nx, 4)
    line = "".join(f"{_fmt(x)},<y>,{'%.17g,' * 10}<e_u>,%d\n" for x in grid.xs.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,re_F1,im_F1,re_F2,im_F2,re_F3,im_F3,re_w1,im_w1,re_w2,im_w2,e_u,flag\n")
        for y, e_u, *cells in zip(grid.ys.tolist(), grid.e_u.tolist(), F, w, grid.flags[..., None]):
            values = np.concatenate(cells, axis=1).ravel().tolist()
            fh.write(line.replace("<y>", _fmt(y)).replace("<e_u>", _fmt(e_u)) % tuple(values))


def _quads(a: np.ndarray) -> np.ndarray:
    """(ny, nx) -> (ny - 1, nx - 1, 4): the grid quads' corners, counter-clockwise."""
    return np.stack([a[:-1, :-1], a[:-1, 1:], a[1:, 1:], a[1:, :-1]], axis=-1)


def _write_obj(path: str, cfg: JobConfig, grid: immersion.GridSample) -> None:
    """Chart embedding (Re w1, Im w1, Re w2); faces skip flagged corners."""
    re_im = np.ascontiguousarray(grid.chart).view(float)  # Re w1, Im w1, Re w2, Im w2
    verts = np.where(grid.flags[..., None], 0.0, re_im[..., :3])  # placeholders keep grid indexing
    index = np.arange(1, grid.flags.size + 1).reshape(grid.flags.shape)
    faces = _quads(index)[~_quads(grid.flags).any(axis=-1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# equilag surface sample\n")
        _rows(fh, "v %.17g %.17g %.17g", verts.reshape(-1, 3))
        _rows(fh, "f %d %d %d %d", faces)


def _list(items, depth: int) -> str:
    """json.dumps(indent=2) text of a list of already laid-out items, at this nesting depth."""
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _layout(shape: tuple[int, ...], depth: int) -> str:
    """The `_list` text of a nested list of this shape, with a %r in place of each number."""
    return _list([_layout(shape[1:], depth + 1)] * shape[0], depth) if shape else "%r"


def _numbers(layout: str, values: np.ndarray) -> str:
    """layout filled with the values' reprs, NaN and +-inf as json's NaN and Infinity."""
    text = layout % tuple(values.ravel().tolist())
    if np.isfinite(values).all():
        return text
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _json_rows(fh, key: str, rows) -> None:
    """A top-level array member of the payload, written one row text at a time."""
    sep = "\n    "
    fh.write(f'  "{key}": [')
    for text in rows:
        fh.write(sep)
        fh.write(text)
        sep = ",\n    "
    fh.write("\n  ],\n")


def _write_json(path: str, cfg: JobConfig, grid: immersion.GridSample) -> None:
    """The bytes of json.dumps(payload, indent=2, sort_keys=True), laid out by hand row by row.

    Members in key order: F, chart (null on a flagged cell), config, e_u,
    flags, xs, ys; numbers are float reprs, as json writes them.
    """
    ny, nx = grid.flags.shape
    F = np.ascontiguousarray(grid.F).view(float)          # (ny, nx, 6)
    chart = np.ascontiguousarray(grid.chart).view(float)  # (ny, nx, 4)
    f_row, flag_row = _layout((nx, 3, 2), 2), _layout((nx,), 2)
    cells = (_layout((2, 2), 3), "null")                  # indexed by the flag

    def chart_row(iy: int) -> str:
        flags = grid.flags[iy]
        return _numbers(_list(map(cells.__getitem__, flags.tolist()), 2), chart[iy][~flags])

    # json escapes newlines inside strings, so every newline here is layout
    config = json.dumps(_config_dict(cfg), indent=2, sort_keys=True).replace("\n", "\n  ")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n")
        _json_rows(fh, "F", (_numbers(f_row, row) for row in F))
        _json_rows(fh, "chart", map(chart_row, range(ny)))
        fh.write(f'  "config": {config},\n  "e_u": {_numbers(_layout((ny,), 1), grid.e_u)},\n')
        _json_rows(fh, "flags", (_numbers(flag_row, row) for row in grid.flags.astype(int)))
        fh.write(f'  "xs": {_numbers(_layout((nx,), 1), grid.xs)},\n'
                 f'  "ys": {_numbers(_layout((ny,), 1), grid.ys)}\n}}\n')


_WRITERS = {"csv": _write_csv, "obj": _write_obj, "json": _write_json}


def _verdict(cfg: JobConfig, c: DerivedConstants, lam: complex) -> periodicity.PeriodVerdict:
    return periodicity.classify_torus(c, lam, max_den=cfg.max_den, tol=cfg.rational_tol,
                                      phase_tol=cfg.phase_tol)


def _verdict_dict(v: periodicity.PeriodVerdict) -> dict:
    d: dict = {"tag": v.tag, "lambda": [v.lam.real, v.lam.imag],
               "certificates": {name: asdict(cert) for name, cert in v.certificates.items()}}
    if v.omega is not None:
        d["omega"] = [v.omega.real, v.omega.imag]
    if v.lattice is not None:
        d["p_f"] = v.lattice[0].real
        d["omega_f"] = [v.lattice[1].real, v.lattice[1].imag]
    return d


def cmd_classify(cfg: JobConfig, args) -> int:
    verdict = _verdict(cfg, _generic_constants(cfg), cfg.lam)
    if args.json:
        sys.stdout.write(_json_dumps({"config": _config_dict(cfg), "verdict": _verdict_dict(verdict)}))
        return EXIT_OK
    print(f"verdict: {verdict.tag}")
    if verdict.lattice is not None:
        p_f, omega_f = verdict.lattice
        print(f"p_f     = {_fmt(p_f.real)}")
        print(f"omega_f = {_fmt(omega_f.real)} + {_fmt(omega_f.imag)}i")
    elif verdict.omega is not None:
        print(f"omega   = {_fmt(verdict.omega.real)} + {_fmt(verdict.omega.imag)}i")
    for name, cert in verdict.certificates.items():
        print(f"certificate {name}: {cert.num}/{cert.den} (residual {cert.residual:.3e})")
    return EXIT_OK


_SWEEP_COLUMNS = ("index", "theta", "lam_re", "lam_im", "regime", "verdict", "p_f", "error")


def cmd_sweep(cfg: JobConfig, args) -> int:
    c = _generic_constants(cfg)
    if cfg.sweep_count < 1:
        raise ConfigError("sweep requires [lambda] count >= 1")
    if not cfg.out_path:
        raise ConfigError("sweep requires an output path ([output] path or --out)")
    if cfg.out_format not in ("csv", "json"):
        raise ConfigError(f"sweep writes csv or json, not {cfg.out_format!r}")
    _check_writable(cfg.out_path)
    thetas = np.linspace(cfg.sweep_start, cfg.sweep_end, cfg.sweep_count, endpoint=False)
    rows = []
    for i, theta in enumerate(thetas):
        lam = complex(np.exp(1j * theta))
        row: dict = {"index": i, "theta": float(theta), "lam_re": lam.real, "lam_im": lam.imag,
                     "verdict": "", "error": ""}
        try:
            row["regime"] = regime_of(c, lam)
            verdict = _verdict(cfg, c, lam)
            row["verdict"] = verdict.tag
            if verdict.lattice is not None:
                row["p_f"] = verdict.lattice[0].real
        except Refusal as exc:
            row["error"] = type(exc).__name__
        rows.append(row)
    with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
        if cfg.out_format == "json":
            fh.write(_json_dumps({"config": _config_dict(cfg), "samples": rows}))
            return EXIT_OK
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_text(row.get(key, "")) for key in _SWEEP_COLUMNS) + "\n")
    return EXIT_OK


# name: (command, help); drives the parser's choices, its epilog and the dispatch
_COMMANDS = {
    "derive": (cmd_derive, "print derived constants and the eigenvalue table"),
    "verify": (cmd_verify, "run the residual verification suites"),
    "sample": (cmd_sample, "evaluate the lift on a grid and export csv/obj/json"),
    "classify": (cmd_classify, "cylinder/torus classification at one lambda"),
    "sweep": (cmd_sweep, "classification catalog over a lambda arc"),
}


def _complex_flag(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="equilag",
        description="Equivariant minimal Lagrangian surfaces in CP^2:\n"
        "derive constants, verify identities, sample lifts, classify periods.",
        epilog="commands:\n" + "\n".join(f"  {name:<9} {help_}"
                                          for name, (_, help_) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("command", choices=_COMMANDS, help="the command to run (see below)")
    ap.add_argument("--config", help="path to an INI config file")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--out", help="output file path (overrides [output] path)")
    ap.add_argument("--lambda", dest="lam", type=_complex_flag, metavar="RE,IM",
                    help="spectral parameter on the unit circle")
    ap.add_argument("--a1", type=float, help="metric scale e^{u(0)}")
    ap.add_argument("--psi", type=_complex_flag, metavar="RE,IM", help="cubic form coefficient")
    ap.add_argument("--max-den", type=int, help="rational certificate denominator cap")
    ap.add_argument("--tol", type=float, help="rational certificate tolerance")
    verify = ap.add_argument_group("verify only")
    verify.add_argument("--debug-corrupt-kappa", action="store_true",
                        help="negative control: mis-normalize the Iwasawa factor")
    verify.add_argument("--suites", help="comma-separated subset of suites to run")
    return ap


# built once per process: parse_args leaves the parser as it was and returns a fresh Namespace
_PARSER = build_parser()


def _joined(argv: list[str]) -> list[str]:
    """argv with each RE,IM token after --lambda or --psi joined to its flag by '='.

    argparse takes a token that starts with '-' for a flag unless it reads
    as one negative number, so `--lambda -1,0` would lack its value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--lambda", "--psi") and token.startswith("-"):
            try:
                _complex_flag(token)
            except argparse.ArgumentTypeError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(_joined(sys.argv[1:] if argv is None else argv))
    if args.command != "verify" and (args.suites is not None or args.debug_corrupt_kappa):
        _PARSER.error(f"--suites and --debug-corrupt-kappa apply to verify only, not {args.command}")
    try:
        return _COMMANDS[args.command][0](_load(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Refusal as exc:
        print(f"refused: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ArithmeticError as exc:  # a failed consistency check: a fault, not a refusal
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
