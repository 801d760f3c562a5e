import argparse
import cmath
import configparser
import contextlib
import csv
import dataclasses
import importlib
import io
import itertools
import json
import math
import pathlib
import pkgutil
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import equilag
from equilag import immersion, periodicity, verification
from equilag.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_VERIFY,
    JobConfig,
    _COMMANDS,
    _sections,
    _text,
    main,
    parse_config,
)
from equilag.iwasawa import SingularLocusError, extended_frame
from equilag.periodicity import classify_torus, monodromy_phases
from equilag.potential import (
    HyperplaneDegenerateError,
    Refusal,
    SurfaceClassError,
    SurfaceParams,
    derive_constants,
    eigensystem,
)

TORUS_PSI = 1.0 / math.sqrt(3.0)


def render_config(cfg: JobConfig) -> str:
    """Serialize a JobConfig back to the config grammar (round-trip stable)."""
    lines = []
    for section, values in _sections(cfg).items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_text(v)}" for key, v in values.items()]
        lines.append("")
    return "\n".join(lines)


BASE_CONFIG = """
[surface]
a1 = 2.0
psi_re = 0.70710678118654746
psi_im = 0.70710678118654757

[lambda]
re = 1.0
im = 0.0

[grid]
x_min = 0.0
x_max = 2.0
y_min = 0.0
y_max = 1.75
nx = 6
ny = 5

[tolerances]
quadrature = 1e-11
phase = 1e-8
rational_tol = 1e-8
max_den = 64

[output]
format = csv
path = out.csv
"""

SURFACE = "[surface]\na1 = 2.0\npsi_re = 1.0\n"
UNREAD = "unknown or unused config input: "


class TestConfig:
    def test_round_trip_idempotent(self):
        cfg = parse_config(BASE_CONFIG)
        echoed = render_config(cfg)
        cfg2 = parse_config(echoed)
        assert cfg == cfg2
        assert render_config(cfg2) == echoed

    def test_retired_quadrature_key_is_ignored(self):
        # [tolerances] quadrature governed nothing and is gone; old configs still parse
        cfg = parse_config(BASE_CONFIG.replace("quadrature = 1e-11", "quadrature = -1"))
        assert cfg == parse_config(BASE_CONFIG)
        assert "quadrature" not in render_config(cfg)

    def test_polar_psi(self):
        cfg = parse_config(
            "[surface]\na1 = 1.0\npsi_mod = 2.0\npsi_arg = 1.5707963267948966\n"
        )
        assert cfg.psi == pytest.approx(2j)

    def test_sweep_round_trip(self):
        text = "[surface]\na1 = 2.0\npsi_re = 1.0\n[lambda]\ncount = 12\narc_end = 3.0\n"
        cfg = parse_config(text)
        assert cfg.sweep_count == 12
        assert parse_config(render_config(cfg)) == cfg

    # every JobConfig field away from its default: a point config and a sweep config
    FULL_POINT = """
[surface]
a1 = 3.5
psi_re = 0.25
psi_im = -1.5

[lambda]
re = 0.59999999999999998
im = -0.80000000000000004

[grid]
x_min = -1.25
x_max = 2.5
y_min = 0.5
y_max = 3
nx = 7
ny = 9

[tolerances]
phase = 9.9999999999999995e-07
rational_tol = 1.0000000000000001e-05
max_den = 12

[output]
format = obj
path = mesh.obj
"""
    FULL_SWEEP = FULL_POINT.replace(
        "re = 0.59999999999999998\nim = -0.80000000000000004",
        "count = 30\narc_start = 0.25\narc_end = 1.5",
    )

    @pytest.mark.parametrize("text", [FULL_POINT, FULL_SWEEP], ids=["point", "sweep"])
    def test_every_field_round_trips(self, text, tmp_path, capsys):
        cfg = parse_config(text)
        default = JobConfig(a1=1.0, psi=0j)
        changed = {f.name for f in dataclasses.fields(JobConfig)
                   if getattr(cfg, f.name) != getattr(default, f.name)}
        mode = {"lam"} if cfg.sweep_count == 0 else {"sweep_count", "sweep_start", "sweep_end"}
        assert changed == {f.name for f in dataclasses.fields(JobConfig)} - (
            {"lam", "sweep_count", "sweep_start", "sweep_end"} - mode)
        assert render_config(cfg) == text.lstrip()
        assert parse_config(render_config(cfg)) == cfg
        # the JSON echo carries every key of the file, [surface] at the top level;
        # derive runs at one lambda and refuses a sweep config, verify takes either
        path = tmp_path / "job.ini"
        path.write_text(text)
        command = ["derive"] if cfg.sweep_count == 0 else ["verify", "--suites", "elliptic"]
        assert main([*command, "--json", "--config", str(path)]) == EXIT_OK
        echo = json.loads(capsys.readouterr().out)["config"]
        cp = configparser.ConfigParser()
        cp.read_string(text)
        for section in cp.sections():
            values = echo if section == "surface" else echo[section]
            for key, raw in cp[section].items():
                want = raw if key in ("format", "path") else float(raw)
                assert values[key] == want, (section, key)
        assert len(echo) == 3 + len(cp.sections()) - 1

    def test_invalid_configs(self):
        from equilag.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_config("[surface]\na1 = 2.0\n")  # psi missing
        with pytest.raises(ConfigError):
            parse_config("not an ini at all [[[")
        with pytest.raises(ConfigError):
            parse_config(BASE_CONFIG.replace("nx = 6", "nx = 1"))
        with pytest.raises(ConfigError):
            parse_config(BASE_CONFIG.replace("format = csv", "format = stl"))
        with pytest.raises(ConfigError):
            parse_config(BASE_CONFIG.replace("x_max = 2.0", "x_max = inf"))
        with pytest.raises(ConfigError):
            parse_config("[surface]\na1 = 2.0\npsi_re = 1.0\n[lambda]\ncount = 4\narc_end = nan\n")
        with pytest.raises(ConfigError, match="sweep count must be >= 1, got -2"):
            parse_config("[surface]\na1 = 2.0\npsi_re = 1.0\n[lambda]\ncount = -2\n")
        # a non-finite tolerance passes every `residual > tol` test, or none
        for key, bad in (("phase", "inf"), ("phase", "nan"), ("rational_tol", "inf"),
                         ("rational_tol", "nan"), ("rational_tol", "-1e-8")):
            text = BASE_CONFIG.replace(f"\n{key} = 1e-8", f"\n{key} = {bad}")
            assert text != BASE_CONFIG
            with pytest.raises(ConfigError, match=f"tolerance {key} must be finite and > 0"):
                parse_config(text)

    @pytest.mark.parametrize("command", ["derive", "classify", "sweep"])
    def test_zero_count_is_a_config_error(self, command, tmp_path, capsys):
        # count = 0 once dropped the [lambda] point silently and ran at lambda = 1
        path = tmp_path / "job.ini"
        path.write_text("[surface]\na1 = 2\npsi_re = 1\n[lambda]\ncount = 0\nre = 0.6\nim = 0.8\n")
        rc = main([command, "--config", str(path), "--json", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "config error: sweep count must be >= 1, got 0\n"
        assert captured.out == "" and not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("config, flags, err", [
        (f"{SURFACE}[lambda]\ncount = 4\nre = 0.6\nim = 0.8", [],
         f"{UNREAD}[lambda] re, [lambda] im"),
        (f"{SURFACE}[lambda]\ncount = 4\nim = 0.8", [], f"{UNREAD}[lambda] im"),
        (f"{SURFACE}[lambda]\nre = 0.6\nim = 0.8\narc_end = 1.5", [], f"{UNREAD}[lambda] arc_end"),
        (f"{SURFACE}[lambda]\narc_start = 0.5", [], f"{UNREAD}[lambda] arc_start"),
        (f"{SURFACE}psi_mod = 3", [], f"{UNREAD}[surface] psi_mod"),
        (f"{SURFACE}psi_arg = 0.5", [], f"{UNREAD}[surface] psi_arg"),
        (f"{SURFACE}ps_im = 0.5", [], f"{UNREAD}[surface] ps_im"),
        (f"{SURFACE}[grdi]", [], f"{UNREAD}[grdi]"),
        ("[DEFAULT]\na1 = 5\n[surface]\npsi_re = 1.0", [], f"{UNREAD}[DEFAULT]"),
        (f"{SURFACE}nx = 7", [], f"{UNREAD}[surface] nx"),
        ("[surface]\na1 = 2.0\npsi_mod = 1\npsi_im = 0.5", [], f"{UNREAD}[surface] psi_mod"),
        (SURFACE, ["--out", ""], "sample requires an output path ([output] path or --out)"),
        # configparser once took `[grid]` as the header and dropped the rest of the line
        (f"{SURFACE}[grid] nx = 3", [], f"{UNREAD}[surface] [grid] nx"),
        # the indented lines once joined the value: re = '1\n[grid]\nnx = 3', nx stayed 16
        (f"{SURFACE}[lambda]\nre = 1\n  [grid]\n  nx = 3", [],
         "bad config value: [lambda] re spans lines"),
    ], ids=["count-re-im", "count-im", "point-arc", "arc-alone", "psi-mod-beside-re",
            "psi-arg-beside-re", "misspelled", "unknown-section", "default-section", "misplaced",
            "psi-mod-beside-im", "empty-out", "key-on-header-line", "continued-value"])
    def test_point_and_sweep_keys_do_not_mix(self, config, flags, err, tmp_path, capsys):
        # each once ran with a key, a section or --out dropped silently (the
        # psi_mod beside psi_im at psi = 0.5i, a hyperplane at lambda = 1)
        path, out = tmp_path / "job.ini", tmp_path / "x.csv"
        path.write_text(f"{config}\n[output]\npath = {out}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sample", "--config", str(path), *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: {err}\n"
        assert captured.out == "" and sorted(p.name for p in tmp_path.iterdir()) == ["job.ini"]

    def test_percent_is_literal(self, tmp_path):
        # '%' once began an interpolation: out%1.csv was refused, out%%1.csv wrote out%1.csv
        for path in ("out%1.csv", "out%%1.csv", "out%(a1)s.csv"):
            assert parse_config(BASE_CONFIG.replace("out.csv", path)).out_path == path
        # a --out path with '%' reaches the JSON echo, and its config renders and parses back
        job, out = tmp_path / "job.ini", tmp_path / "o%1.json"
        job.write_text(BASE_CONFIG.replace("format = csv", "format = json"))
        assert main(["sample", "--config", str(job), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["config"]["output"]["path"] == str(out)
        cfg = dataclasses.replace(parse_config(job.read_text()), out_path=str(out))
        assert parse_config(render_config(cfg)) == cfg

    def test_readme_grammar_block(self):
        # the block parses as written and with each commented form swapped in for
        # its sibling, and it names every key of the config echo, and no other
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config grammar", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]

        def swap(text, taken, given):
            for key in taken:
                text = re.sub(f"^{key} = ", f"; {key} = ", text, flags=re.M)
            for key in given:
                text = re.sub(f"^; {key} = ", f"{key} = ", text, flags=re.M)
            return text

        psi = (("psi_re", "psi_im"), ("psi_mod", "psi_arg"))
        lam = (("re", "im"), ("count", "arc_start", "arc_end"))
        point, polar = parse_config(block), parse_config(swap(block, *psi))
        sweep, both = parse_config(swap(block, *lam)), parse_config(swap(swap(block, *psi), *lam))
        assert point.sweep_count == polar.sweep_count == 0 < sweep.sweep_count == both.sweep_count
        assert point.psi == sweep.psi != polar.psi == both.psi
        named, section = set(), None
        for line in block.splitlines():
            if line.startswith("["):
                section = line.strip("[]")
            elif match := re.match(r"(?:; )?(\w+) = ", line):
                named.add((section, match[1]))
        echoed = {(section, key) for cfg in (point, sweep) for section, keys in _sections(cfg).items()
                  for key in keys}
        assert named == echoed | {("surface", "psi_mod"), ("surface", "psi_arg")}

    @pytest.mark.parametrize("command", ["derive", "sample", "classify"])
    def test_single_lambda_commands_refuse_a_sweep(self, command, tmp_path, capsys):
        # a sweep config once ran these at lambda = 1 while the JSON echo showed the arc
        path, out = tmp_path / "job.ini", tmp_path / "x.csv"
        path.write_text("[surface]\na1 = 2\npsi_re = 1\npsi_im = 0.5\n[lambda]\ncount = 4\n")
        argv = [command, "--config", str(path), "--json", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (f"config error: {command} runs at one lambda: "
                                "a [lambda] count needs --lambda\n")
        assert captured.out == "" and not out.exists()
        # --lambda picks the one lambda, as it does over a point config
        assert main([*argv, "--lambda", "0.6,0.8"]) == EXIT_OK
        if command != "sample":
            echo = json.loads(capsys.readouterr().out)["config"]["lambda"]
            assert echo == {"re": 0.6, "im": 0.8}


class TestDerive:
    def test_table(self, capsys):
        rc = main(["derive", "--a1", "2", "--psi", "1,0", "--lambda", "1,0"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "beta  = 4.25" in out
        assert "T     = 0.8761289105102732" in out
        assert "d_2   = 0.5" in out

    def test_json(self, capsys):
        rc = main(["derive", "--a1", "2", "--psi", "1,0", "--json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["constants"]["beta"] == 4.25
        assert payload["classification"] == "Generic"
        assert payload["config"]["a1"] == 2.0

    def test_exit_codes(self, capsys):
        assert main(["derive", "--a1", "2", "--psi", "0,0"]) == EXIT_DEGENERATE
        assert main(["derive", "--a1", "1", "--psi", "1,0"]) == EXIT_DEGENERATE
        # hyperplane-degenerate lambda: psi = 1, lambda = e^{i pi/6}
        lam = complex(np.exp(1j * np.pi / 6))
        rc = main(["derive", "--a1", "2", "--psi", "1,0", "--lambda", f"{lam.real},{lam.imag}"])
        assert rc == EXIT_DEGENERATE
        assert main(["derive"]) == EXIT_CONFIG


class TestSample:
    def test_csv_grid(self, tmp_path, capsys):
        cfg = BASE_CONFIG.replace("nx = 6", "nx = 2").replace("ny = 5", "ny = 2")
        path = tmp_path / "job.ini"
        out = tmp_path / "grid.csv"
        path.write_text(cfg)
        rc = main(["sample", "--config", str(path), "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("x,y,re_F1")
        assert len(lines) == 1 + 4  # header + 2x2 grid
        assert all(len(line.split(",")) == 14 for line in lines[1:])

    @pytest.mark.parametrize("fmt", ["csv", "obj", "json"])
    def test_deterministic_reruns(self, tmp_path, fmt):
        path = tmp_path / "job.ini"
        path.write_text(BASE_CONFIG.replace("format = csv", f"format = {fmt}"))
        out = tmp_path / f"grid.{fmt}"  # one path: the json config echo includes it
        assert main(["sample", "--config", str(path), "--out", str(out)]) == EXIT_OK
        first = out.read_bytes()
        assert main(["sample", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == first

    @staticmethod
    def _flag(monkeypatch, cells):
        """Make sample_grid flag the given cells and set their chart to NaN, as it does itself."""
        sample_grid = immersion.sample_grid

        def flagged(*args):
            grid = sample_grid(*args)
            flags = np.zeros_like(grid.flags)
            flags[tuple(np.transpose(cells))] = True
            chart = grid.chart.copy()
            chart[flags] = complex(np.nan, np.nan)
            return dataclasses.replace(grid, flags=flags, chart=chart)

        monkeypatch.setattr(immersion, "sample_grid", flagged)

    def _sample(self, tmp_path, fmt, nx=6, ny=5):
        cfg = BASE_CONFIG.replace("format = csv", f"format = {fmt}")
        path = tmp_path / "job.ini"
        path.write_text(cfg.replace("nx = 6", f"nx = {nx}").replace("ny = 5", f"ny = {ny}"))
        out = tmp_path / f"grid.{fmt}"
        assert main(["sample", "--config", str(path), "--out", str(out)]) == EXIT_OK
        return out.read_text().splitlines()

    FLAGGED = [(1, 2), (3, 0), (0, 5)]   # (iy, ix) on the 6 x 5 grid

    def test_csv_flagged_cells(self, tmp_path, monkeypatch):
        self._flag(monkeypatch, self.FLAGGED)
        rows = [line.split(",") for line in self._sample(tmp_path, "csv")[1:]]
        assert len(rows) == 30
        for i, row in enumerate(rows):
            flagged = divmod(i, 6) in self.FLAGGED
            assert row[13] == ("1" if flagged else "0")
            assert (row[8:12] == ["nan"] * 4) is flagged
            assert "nan" not in row[:8] + row[12:13]

    def test_obj_flagged_cells(self, tmp_path, monkeypatch):
        self._flag(monkeypatch, self.FLAGGED)
        lines = self._sample(tmp_path, "obj")
        verts = [line for line in lines if line.startswith("v ")]
        faces = [[int(i) for i in line.split()[1:]] for line in lines if line.startswith("f ")]
        flagged = {iy * 6 + ix + 1 for iy, ix in self.FLAGGED}
        assert [i + 1 for i, v in enumerate(verts) if v == "v 0 0 0"] == sorted(flagged)
        want = [[iy * 6 + ix + 1, iy * 6 + ix + 2, iy * 6 + ix + 8, iy * 6 + ix + 7]
                for iy in range(4) for ix in range(5)]
        assert faces == [f for f in want if not flagged & set(f)]
        assert len(faces) == 20 - 7

    def test_all_flagged_grid_has_no_faces(self, tmp_path, monkeypatch):
        self._flag(monkeypatch, [(0, 0), (0, 1), (1, 0), (1, 1)])
        lines = self._sample(tmp_path, "obj", nx=2, ny=2)
        assert lines == ["# equilag surface sample"] + ["v 0 0 0"] * 4
        rows = [line.split(",") for line in self._sample(tmp_path, "csv", nx=2, ny=2)[1:]]
        assert all(row[8:12] == ["nan"] * 4 and row[13] == "1" for row in rows)

    def test_obj_export(self, tmp_path):
        cfg = BASE_CONFIG.replace("format = csv", "format = obj")
        path = tmp_path / "job.ini"
        out = tmp_path / "mesh.obj"
        path.write_text(cfg)
        assert main(["sample", "--config", str(path), "--out", str(out)]) == EXIT_OK
        text = out.read_text().splitlines()
        nv = sum(1 for line in text if line.startswith("v "))
        nf = sum(1 for line in text if line.startswith("f "))
        assert nv == 6 * 5
        assert nf <= 5 * 4
        assert nf > 0

    def test_json_export_echoes_config(self, tmp_path):
        cfg = BASE_CONFIG.replace("format = csv", "format = json")
        path = tmp_path / "job.ini"
        out = tmp_path / "grid.json"
        path.write_text(cfg)
        assert main(["sample", "--config", str(path), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["config"]["a1"] == 2.0
        assert len(payload["F"]) == 5 and len(payload["F"][0]) == 6

    def test_missing_path(self, capsys):
        rc = main(["sample", "--a1", "2", "--psi", "1,0"])
        assert rc == EXIT_CONFIG

    def test_degenerate_surface(self, tmp_path):
        path = tmp_path / "job.ini"
        path.write_text(BASE_CONFIG.replace("psi_re = 0.70710678118654746", "psi_re = 0.0")
                        .replace("psi_im = 0.70710678118654757", "psi_im = 0.0"))
        assert main(["sample", "--config", str(path)]) == EXIT_DEGENERATE


class TestClassify:
    def test_torus_benchmark(self, capsys):
        rc = main(["classify", "--a1", "1", "--psi", f"{TORUS_PSI},0", "--json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["tag"] == "Torus"
        assert payload["verdict"]["p_f"] == pytest.approx(2 * math.pi * math.sqrt(3), abs=1e-9)

    @pytest.mark.parametrize("argv, eq_form", [
        (["classify", "--a1", "1", "--psi", "0.57735026918962584,0", "--lambda", "-1,0", "--json"],
         ["classify", "--a1", "1", "--psi", "0.57735026918962584,0", "--lambda=-1,0", "--json"]),
        (["derive", "--a1", "2", "--psi", "-0.5,1"], ["derive", "--a1", "2", "--psi=-0.5,1"]),
    ], ids=["lambda", "psi"])
    def test_negative_real_part_as_its_own_token(self, argv, eq_form, capsys):
        # argparse alone reads -1,0 as a flag and exits 2 without a value
        assert main(eq_form) == EXIT_OK
        want = capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == want

    def test_no_period(self, capsys):
        rc = main(["classify", "--a1", "2", "--psi", "1,0"])
        assert rc == EXIT_OK
        assert "NoPeriodFound" in capsys.readouterr().out

    def test_nonreal_torus_text(self, capsys):
        # a1 bisected along d2/d1 = 1/3 until the phase s = 33/16; at 30
        # digits s - 33/16 = 3.99e-16 there, one ulp of 33/16 is 4.44e-16
        a1, lam = 1.4111732121241283, complex(0.9742259663451993, -0.2255743037199995)
        rc = main(["classify", "--a1", repr(a1), "--psi", "1,0", "--lambda", f"{lam.real!r},{lam.imag!r}"])
        assert rc == EXIT_OK
        p_f, omega_f = classify_torus(derive_constants(SurfaceParams(a1, 1.0)), lam).lattice
        assert capsys.readouterr().out.splitlines() == [
            "verdict: Torus",
            f"p_f     = {p_f.real:.17g}",
            f"omega_f = {omega_f.real:.17g} + {omega_f.imag:.17g}i",
            "certificate d_ratio: 1/3 (residual 0.000e+00)",
            "certificate phase: 33/16 (residual 4.441e-16)",
        ]

    def test_cylinder_json(self, capsys):
        # d2/d1 = 1/3 at a phase with no certificate: the real period alone
        lam = complex(0.9853769606339636, -0.17038851326240284)
        rc = main(["classify", "--a1", "1.6", "--psi", "1,0", "--lambda", f"{lam.real!r},{lam.imag!r}",
                   "--json"])
        assert rc == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["tag"] == "Cylinder" and "p_f" not in verdict
        assert {k: (v["num"], v["den"]) for k, v in verdict["certificates"].items()} == {"d_ratio": (1, 3)}
        es = eigensystem(derive_constants(SurfaceParams(1.6, 1.0)), lam)
        assert verdict["omega"] == [2.0 * math.pi * 3 / es.d[0], 0.0]


class TestSweep:
    def test_catalog(self, tmp_path):
        cfg = """
[surface]
a1 = 2.0
psi_re = 1.0

[lambda]
count = 36

[output]
format = csv
path = catalog.csv
"""
        path = tmp_path / "job.ini"
        out = tmp_path / "catalog.csv"
        path.write_text(cfg)
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 37
        flagged = [line for line in lines[1:] if "HyperplaneDegenerateError" in line]
        assert len(flagged) == 6  # 36 samples hit all six degenerate angles

    def test_near_flat_rows_keep_their_regime(self, tmp_path):
        # a1 1e-8 above the flat point: the six real lambda have near-multiple
        # roots (FlatCliffordError) and stay "real"; the other six are hyperplanes
        path = tmp_path / "job.ini"
        out = tmp_path / "catalog.csv"
        path.write_text("[surface]\na1 = 1.00000001\npsi_re = 1.0\n[lambda]\ncount = 12\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 12
        for i, row in enumerate(rows):  # theta = i pi / 6
            want = ("real", "FlatCliffordError") if i % 2 == 0 else (
                "imaginary", "HyperplaneDegenerateError")
            assert (row["regime"], row["error"]) == want, row

    def test_json_catalog(self, tmp_path):
        out = tmp_path / "catalog.json"
        path = tmp_path / "job.ini"
        path.write_text("[surface]\na1 = 2.0\npsi_re = 1.0\n[lambda]\ncount = 12\n[output]\nformat = json\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["config"]["output"]["format"] == "json"
        rows = payload["samples"]
        assert [row["index"] for row in rows] == list(range(12))
        for i, row in enumerate(rows):  # theta = i pi / 6
            want = ("real", "NoPeriodFound", "") if i % 2 == 0 else (
                "imaginary", "", "HyperplaneDegenerateError")
            assert (row["regime"], row["verdict"], row["error"]) == want, row
            assert row["theta"] == pytest.approx(i * math.pi / 6)

    def test_near_real_rows_refused_with_regime_error(self, tmp_path):
        # theta 1e-9 .. 3.25e-9 off the real locus of the torus surface: non-real
        # by regime_of, but below the lift's gap floor; each row names the refusal
        path = tmp_path / "job.ini"
        out = tmp_path / "catalog.csv"
        path.write_text(f"[surface]\na1 = 1\npsi_re = {TORUS_PSI!r}\n"
                        "[lambda]\ncount = 4\narc_start = 1e-9\narc_end = 4e-9\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(row["regime"], row["verdict"], row["error"]) for row in rows] == [
            ("nonreal", "", "RegimeError")] * 4

    def test_sweep_without_count(self, tmp_path, capsys):
        rc = main(["sweep", "--a1", "2", "--psi", "1,0", "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_CONFIG

    def test_obj_format_refused_before_any_file(self, tmp_path, capsys):
        # the catalog is a table: an obj output once received the csv rows
        path = tmp_path / "job.ini"
        out = tmp_path / "catalog.obj"
        path.write_text("[surface]\na1 = 2.0\npsi_re = 1.0\n[lambda]\ncount = 4\n"
                        "[output]\nformat = obj\n")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: sweep writes csv or json, not 'obj'\n"
        assert not out.exists()


class TestVerify:
    def test_subset_passes(self, capsys):
        rc = main([
            "verify", "--a1", "2", "--psi", "0.70710678118654746,0.70710678118654757",
            "--suites", "metric,potential",
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "[suite:metric] PASS" in out
        assert "[suite:potential] PASS" in out

    def test_corrupt_kappa_fails(self, capsys):
        rc = main([
            "verify", "--a1", "2", "--psi", "0.70710678118654746,0.70710678118654757",
            "--suites", "iwasawa", "--debug-corrupt-kappa",
        ])
        assert rc == EXIT_VERIFY
        assert "[suite:iwasawa] FAIL" in capsys.readouterr().out

    def test_every_suite_by_default(self, capsys):
        rc = main(["verify", "--a1", "2", "--psi", "0.70710678118654746,0.70710678118654757", "--json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in payload["suites"]] == [
            "elliptic", "potential", "metric", "iwasawa", "frame", "lift", "identities", "periodicity"]
        assert payload["passed"] is True

    def test_unknown_suite(self, capsys):
        rc = main(["verify", "--a1", "2", "--psi", "1,1", "--suites", "nope"])
        assert rc == EXIT_CONFIG

    def test_spaces_around_suite_names_are_stripped(self, capsys):
        rc = main(["verify", "--a1", "2", "--psi", "1,1", "--suites", " metric, potential "])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "[suite:metric] PASS" in out
        assert "[suite:potential] PASS" in out

    def test_unknown_suite_names_are_quoted(self, capsys):
        # a stray character would be invisible in a bare list
        rc = main(["verify", "--a1", "2", "--psi", "1,1", "--suites", "metric,potential\t,nope, x"])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: unknown suites: 'nope', 'x'\n"

    @pytest.mark.parametrize("suites", [" ", "metric, ,potential", "metric,\t"])
    def test_blank_suite_name_is_empty(self, capsys, suites):
        rc = main(["verify", "--a1", "2", "--psi", "1,1", "--suites", suites])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: empty suite name in ")

    @pytest.mark.parametrize("suites", ["", "metric,", ",metric", "metric,,potential"])
    def test_empty_suite_name(self, capsys, suites):
        # an empty list used to run all eight suites, and "metric," to name nothing
        rc = main(["verify", "--a1", "2", "--psi", "1,1", "--suites", suites])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: empty suite name in {suites!r}\n"

    def test_verify_json(self, capsys):
        rc = main([
            "verify", "--a1", "2", "--psi", "0.70710678118654746,0.70710678118654757",
            "--suites", "elliptic", "--json",
        ])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["suites"][0]["name"] == "elliptic"

    def test_substitutions_are_noted(self, capsys):
        # the torus is real at lambda = 1: iwasawa and identities run BENCH_NONREAL
        rc = main(["verify", "--a1", "1", "--psi", f"{TORUS_PSI!r},0",
                   "--suites", "iwasawa,identities", "--json"])
        assert rc == EXIT_OK
        notes = {s["name"]: s["note"] for s in json.loads(capsys.readouterr().out)["suites"]}
        for name in ("iwasawa", "identities"):
            assert notes[name] == "surface on singular locus; ran the non-real benchmark instead"

    def test_hyperplane_surface_dropped_with_note(self, capsys):
        # psi = i is purely imaginary at lambda = 1: lift checks only its benchmarks
        rc = main(["verify", "--a1", "2", "--psi", "0,1", "--suites", "lift,identities", "--json"])
        assert rc == EXIT_OK
        notes = {s["name"]: s["note"] for s in json.loads(capsys.readouterr().out)["suites"]}
        assert notes["lift"] == (
            "surface hyperplane-degenerate at lambda = 1; checked the benchmarks only")
        assert notes["identities"].startswith("surface hyperplane-degenerate at lambda = 1;")

    @pytest.mark.parametrize("error", [HyperplaneDegenerateError, immersion.RegimeError,
                                       SingularLocusError, ArithmeticError])
    def test_library_value_error_in_suite_is_a_refusal(self, monkeypatch, capsys, error):
        # only an unknown suite name is a config error (exit 2); a Refusal is
        # exit 3, a bare ArithmeticError (a failed consistency check) exit 5
        def refuse(*args, **kwargs):
            raise error("refused inside a suite")

        monkeypatch.setattr(verification, "suite_metric", refuse)
        rc = main(["verify", "--a1", "2", "--psi", "1,1", "--suites", "metric"])
        err = capsys.readouterr().err
        if error is ArithmeticError:
            assert rc == EXIT_INTERNAL
            assert err == "internal error: ArithmeticError: refused inside a suite\n"
        else:
            assert rc == EXIT_DEGENERATE
            assert err.startswith(f"refused: {error.__name__}: refused inside a suite")
            assert err.count("\n") == 1


def _verify_iwasawa_identities(phi: float) -> int:
    psi = cmath.exp(1j * phi)
    return main(["verify", "--a1", "2", f"--psi={psi.real!r},{psi.imag!r}",
                 "--suites", "iwasawa,identities", "--json"])


# psi = e^{i phi}, a1 = 2: a fixed lambda of suite iwasawa lies on the singular
# locus (0.9, 1.2, 3.3) or on a hyperplane point (the other two); it is skipped
FIXED_LAMBDA_PHIS = (0.9, 1.2, 3.3, 0.9 + math.pi / 2, 1.2 + math.pi / 2)


@pytest.mark.parametrize("phi", [p + d for p in FIXED_LAMBDA_PHIS for d in (-1e-7, 0.0, 1e-7)])
def test_verify_skips_fixed_lambda_on_locus(phi):
    assert _verify_iwasawa_identities(phi) == EXIT_OK


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
@example(FIXED_LAMBDA_PHIS[0])
@example(FIXED_LAMBDA_PHIS[1])
@example(FIXED_LAMBDA_PHIS[2])
@example(FIXED_LAMBDA_PHIS[3])
@example(FIXED_LAMBDA_PHIS[4])
def test_verify_never_refuses_generic_psi(phi):
    assert _verify_iwasawa_identities(phi) in (EXIT_OK, EXIT_VERIFY)


SPANS_ERROR = "lambda arc and grid bounds and their spans must be finite"
K_NEAR_ONE = ["--a1", "1e6", "--psi", "1,0"]  # k'^2 = 1.4e-9: derive_constants refuses it


class TestRefusals:
    def test_sample_near_real_locus(self, tmp_path, capsys):
        # lambda 1e-8 rad off the real locus: regime_of calls it non-real, but
        # the G_j denominators fall below what double precision certifies
        psi = cmath.exp(1j * math.pi / 4)
        lam = cmath.exp(1j * (math.pi / 12 + 1e-8))
        rc = main([
            "sample", "--a1", "2", "--psi", f"{psi.real!r},{psi.imag!r}",
            "--lambda", f"{lam.real!r},{lam.imag!r}", "--out", str(tmp_path / "grid.csv"),
        ])
        assert rc == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert err.startswith("refused: RegimeError:") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    @pytest.mark.parametrize("lam", ["1,0", "0.8,0.6"])
    def test_classify_non_finite_tolerance(self, tol, lam, capsys):
        # --tol inf once certified 17/60 at lambda = 1 (exit 0) and failed
        # the lattice check at 0.8+0.6i (exit 5)
        rc = main(["classify", "--a1", "2", "--psi", "1,0", "--lambda", lam, "--tol", tol])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: tolerance rational_tol must be finite and > 0, got {tol}\n"
        assert captured.out == ""

    def test_unreadable_config(self, tmp_path, capsys):
        # open raises ValueError on a NUL byte in the path, and read on a file that is
        # not UTF-8, not OSError: both once ended in a traceback
        job = tmp_path / "job.ini"
        job.write_bytes(b"\xff[surface]\n")
        for path, why in (("a\x00", "embedded null byte"),
                          (str(job), "'utf-8' codec can't decode byte 0xff in position 0")):
            assert main(["derive", "--config", path]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.err.startswith(f"config error: cannot read config {path}: {why}")
            assert captured.err.count("\n") == 1 and captured.out == ""

    def test_classify_failed_lattice_check(self, capsys):
        rc = main(["classify", "--a1", "2", "--psi", "1,0", "--lambda", "0.8,0.6",
                   "--max-den", "100000"])
        # the constructed lattice generator fails its phase check: a fault, not a refusal
        assert rc == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("internal error: ArithmeticError:") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--a1", "-1", "--psi", "1,0"],
        ["--a1", "0.5", "--psi", "1,0"],      # a1 below |psi|^(2/3)
        ["--a1", "2", "--psi", "nan,0"],
        ["--a1", "2", "--psi", "1,0", "--lambda", "nan,0"],
        K_NEAR_ONE,
        ["--a1", "2", "--psi", "1,0", "--lambda", "1.0000001,0"],  # |lambda| 1e-7 off 1
    ])
    def test_out_of_domain_surface(self, flags, capsys):
        # malformed input is a config error; k too close to 1 is derive_constants' refusal
        refused = flags == K_NEAR_ONE
        assert main(["derive", *flags]) == (EXIT_DEGENERATE if refused else EXIT_CONFIG)
        err = capsys.readouterr().err
        assert err.startswith("refused: Refusal: modulus too close to 1" if refused
                              else "config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("a1, psi, cause", [
        ("1e300", "1,0", "OverflowError"),             # a1^2 overflows
        ("1e150", "1e200,0", "OverflowError"),         # |psi|^2 overflows
        ("1e-170", "0,1e-300", "ZeroDivisionError"),   # a1^2 underflows to 0
    ])
    def test_surface_out_of_float_range_refused(self, a1, psi, cause, capsys):
        assert main(["derive", "--a1", a1, "--psi", psi]) == EXIT_DEGENERATE
        assert capsys.readouterr().err == f"refused: Refusal: beta out of float range: {cause}\n"

    @pytest.mark.parametrize("command, section, err", [
        ("sample", "[grid]\ny_min = 0\ny_max = 1e308\n", "grid y bounds overflow the Jacobi argument r*y"),
        ("sample", "[grid]\ny_min = 1e308\ny_max = -1e308\n", SPANS_ERROR),
        ("sample", "[grid]\nx_min = 1e308\nx_max = -1e308\n", SPANS_ERROR),
        ("sweep", "[lambda]\ncount = 4\narc_start = 1e308\narc_end = -1e308\n", SPANS_ERROR),
        # a finite x span whose x*d_j overflows: numpy warnings and rows of nan (exit 0)
        ("sample", "psi_im = 0.5\n[grid]\nx_min = 0\nx_max = 1e308\n",
         "grid x bounds overflow the phase x*d_j"),
    ])
    def test_overflowing_bounds(self, command, section, err, tmp_path, capsys):
        # finite bounds whose span, r*y or x*d_j overflows: the y cases once ended in
        # a jacobi traceback, x in rows of nan (exit 0), the arc in a |lambda| traceback
        path, out = tmp_path / "job.ini", tmp_path / "out.csv"
        path.write_text("[surface]\na1 = 2.0\npsi_re = 1.0\n" + section)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy sees the bounds
            assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {err}") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    def test_lambda_within_the_library_gate_runs(self):
        # |lambda| - 1 = 5e-9: inside the 1e-8 that every library route accepts
        assert main(["derive", "--a1", "2", "--psi", "1,0", "--lambda", "1.000000005,0"]) == EXIT_OK

    @pytest.mark.parametrize("lam", ["1,0", "1.000000005,0", "0.999999991,0"])
    def test_lambda_band_is_one_surface(self, lam, capsys):
        # lambda means lambda / |lambda| across the gate's band: one torus, one certificate
        rc = main(["classify", "--a1", "1", "--psi", "0.57735026918962584,0", "--lambda", lam, "--json"])
        assert rc == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["tag"] == "Torus"
        cert = verdict["certificates"]["d_ratio"]
        assert (cert["num"], cert["den"]) == (1, 2)

    @pytest.mark.parametrize("command", ["classify", "sample"])
    def test_real_lambda_within_the_gate_runs_every_command(self, command, tmp_path):
        # the real lambda = 1 + 5e-9 of a1 = 2, psi = 1: accepted like derive accepts it
        out = ["--out", str(tmp_path / "grid.csv")] if command == "sample" else []
        flags = ["--a1", "2", "--psi", "1,0", "--lambda", "1.000000005,0", *out]
        assert main([command, *flags]) == EXIT_OK

    @pytest.mark.parametrize("offset", [5e-9, -5e-9, 9.9e-9, -9.9e-9])
    @pytest.mark.parametrize("a1, psi", [(2.0, 1.0), (2.0, -1.0), (1.0, TORUS_PSI)],
                             ids=["psi+1", "psi-1", "torus"])
    def test_real_lambda_within_the_gate_runs_every_route(self, a1, psi, offset):
        # the six real lambda scaled to |lambda| = 1 + offset, inside the 1e-8 gate
        c = derive_constants(SurfaceParams(a1, complex(psi)))
        for branch in range(6):
            lam = (1.0 + offset) * cmath.exp(1j * (cmath.phase(psi) + branch * math.pi) / 3.0)
            es = eigensystem(c, lam)
            assert es.regime == "real"
            immersion.lift_at(c, es, 0.3, 0.2)
            extended_frame(c, es, 0.3 + 0.2j)
            immersion.sample_grid(c, lam, (0.0, 1.0), (0.0, 1.0), 3, 3)
            classify_torus(c, lam)
            monodromy_phases(c, es, 1.0, 1)


class TestParser:
    def test_no_parser_built_by_main(self, monkeypatch, capsys):
        # the module's one parser reads every call, and no flag value carries
        # over: each Namespace starts from the defaults
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        flags = ["--a1", "2", "--psi", "1,0"]
        assert main(["derive", "--json", *flags]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["classification"] == "Generic"
        assert main(["derive", *flags]) == EXIT_OK
        assert capsys.readouterr().out.startswith("classification : Generic")
        assert main(["verify", "--suites", "metric", *flags]) == EXIT_OK
        assert capsys.readouterr().out.startswith("[suite:metric] PASS")
        assert main(["classify", *flags]) == EXIT_OK
        assert capsys.readouterr().out.startswith("verdict: ")
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--suites", "metric", *flags])
        assert exc.value.code == EXIT_CONFIG
        assert "apply to verify only, not classify" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: equilag")
        assert built == []

    def test_flags_before_or_after_the_command(self, capsys):
        flags = ["--a1", "2", "--psi", "1,0", "--json"]
        assert main(["derive", *flags]) == EXIT_OK
        after = capsys.readouterr().out
        assert main([*flags, "derive"]) == EXIT_OK
        assert capsys.readouterr().out == after

    @pytest.mark.parametrize("flag", [["--suites", "metric"], ["--debug-corrupt-kappa"]],
                             ids=["suites", "corrupt-kappa"])
    @pytest.mark.parametrize("command", ["derive", "sample", "classify", "sweep"])
    def test_verify_only_flags_refused_elsewhere(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--a1", "2", "--psi", "1,0", *flag])
        assert exc.value.code == EXIT_CONFIG
        assert "apply to verify only" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["--a1", "2", "--psi", "1,0"], ["plot", "--a1", "2"]],
                             ids=["empty", "flags-only", "unknown"])
    def test_missing_or_unknown_command(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "command" in capsys.readouterr().err

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert list(_COMMANDS) == ["derive", "verify", "sample", "classify", "sweep"]
        for name, (_, help_) in _COMMANDS.items():
            assert f"  {name:<9} {help_}\n" in out


HYPERPLANE_LAMBDA = cmath.exp(1j * math.pi / 6)  # lambda^-3 psi = -i for psi = 1


@pytest.mark.parametrize("command", ["derive", "sample", "classify"])
@pytest.mark.parametrize("a1, psi, lam, error", [
    (2.0, 0j, 1 + 0j, "TotallyGeodesicError"),
    (1.0, 1 + 0j, 1 + 0j, "FlatCliffordError"),
    (2.0, 1 + 0j, HYPERPLANE_LAMBDA, "HyperplaneDegenerateError"),
], ids=["psi0", "flat", "hyperplane"])
def test_degenerate_input_reports_the_library_refusal(command, a1, psi, lam, error, tmp_path, capsys):
    assert main([command, f"--a1={a1!r}", f"--psi={psi.real!r},{psi.imag!r}",
                 f"--lambda={lam.real!r},{lam.imag!r}", "--out", str(tmp_path / "grid.csv")]
                ) == EXIT_DEGENERATE
    with pytest.raises(SurfaceClassError) as exc:  # the library's own refusal
        eigensystem(derive_constants(SurfaceParams(a1, psi)), lam)
    assert type(exc.value).__name__ == error
    assert capsys.readouterr().err == f"refused: {error}: {exc.value}\n"
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("command", ["sample", "sweep"])
def test_unwritable_output_exits_1(command, tmp_path, capsys):
    path = tmp_path / "job.ini"
    path.write_text("[surface]\na1 = 2\npsi_re = 1\n[lambda]\ncount = 4\n")
    flags = ["--a1", "2", "--psi", "1,0"] if command == "sample" else ["--config", str(path)]
    out = tmp_path / "missing" / "out.csv"
    assert main([command, *flags, "--out", str(out)]) == EXIT_OUTPUT == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and err.count("\n") == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["sample", "sweep"])
def test_unwritable_output_fails_before_any_work(command, tmp_path, monkeypatch, capsys):
    # the path is checked before the grid or the catalog is computed
    def never(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    monkeypatch.setattr(immersion, "sample_grid", never)
    monkeypatch.setattr(periodicity, "classify_torus", never)
    path = tmp_path / "job.ini"
    path.write_text("[surface]\na1 = 2\npsi_re = 1\n[lambda]\ncount = 4\n")
    flags = ["--a1", "2", "--psi", "1,0"] if command == "sample" else ["--config", str(path)]
    for out in (tmp_path / "missing" / "out.csv", tmp_path):  # no such directory; a directory
        assert main([command, *flags, "--out", str(out)]) == EXIT_OUTPUT
        err = capsys.readouterr().err
        assert err.startswith("cannot write output:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.ini"]


def test_refused_sample_keeps_an_existing_output(tmp_path, capsys):
    # the early check neither truncates a file that is there nor leaves one behind
    out = tmp_path / "grid.csv"
    out.write_text("kept\n")
    lam = HYPERPLANE_LAMBDA
    assert main(["sample", "--a1", "2", "--psi", "1,0", f"--lambda={lam.real!r},{lam.imag!r}",
                 "--out", str(out)]) == EXIT_DEGENERATE
    assert capsys.readouterr().err.startswith("refused: HyperplaneDegenerateError:")
    assert out.read_text() == "kept\n"


def test_sample_without_path_at_a_hyperplane_lambda(capsys):
    # the missing path is found before sample_grid builds the eigensystem that refuses lambda
    lam = HYPERPLANE_LAMBDA
    assert main(["sample", "--a1", "2", "--psi", "1,0",
                 f"--lambda={lam.real!r},{lam.imag!r}"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: sample requires an output path")


def test_every_refusal_class_is_a_refusal():
    # the package's exception classes: each is a Refusal (exit 3) unless it is
    # a config error (exit 2) or the unused quadrature module's budget error
    assert equilag.Refusal is Refusal
    not_refusals = {"ConfigError", "UnknownSuiteError", "QuadratureError"}
    found = {}
    for info in pkgutil.iter_modules(equilag.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"equilag.{info.name}")
            found.update((name, cls) for name, cls in vars(module).items()
                         if isinstance(cls, type) and issubclass(cls, Exception)
                         and cls.__module__ == module.__name__)
    refusals = {name for name, cls in found.items() if issubclass(cls, Refusal)}
    assert refusals == {"Refusal", "SurfaceClassError", "TotallyGeodesicError",
                        "FlatCliffordError", "HyperplaneDegenerateError", "RegimeError",
                        "ChartError", "SingularLocusError"}
    assert set(found) - refusals == not_refusals
    assert issubclass(SingularLocusError, ArithmeticError)


# a fixed product of extreme and ordinary inputs: every call exits 0, 2 or 3
# with at most one stderr line, and none raises or reports an internal error
EXTREME_A1 = ("1e-300", "1e-170", "0.5", "1", "2", "1e6", "1e150", "1e300")
EXTREME_PSI = ("0,0", "1e-300,0", "1e-9,0", "1,0", f"{TORUS_PSI!r},0", "1e300,0", "0,1e300")
EXTREME_LAMBDA = ("1,0", "0.6,0.8")


@pytest.mark.parametrize("command", ["derive", "classify", "sample"])
def test_extreme_inputs_exit_cleanly(command, tmp_path, capsys):
    out = ["--out", str(tmp_path / "grid.csv")] if command == "sample" else []
    seen = set()
    for a1, psi, lam in itertools.product(EXTREME_A1, EXTREME_PSI, EXTREME_LAMBDA):
        argv = [command, f"--a1={a1}", f"--psi={psi}", f"--lambda={lam}", *out]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_DEGENERATE), (argv, rc, err)
        assert err.count("\n") == (rc != EXIT_OK) and "Traceback" not in err, (argv, err)
        seen.add(rc)
    assert seen == {EXIT_OK, EXIT_CONFIG, EXIT_DEGENERATE}


# the config grammar's keys, the retired quadrature key included, with ordinary
# values; extreme and junk values, and small counts that keep every run cheap
GRAMMAR = {
    "surface": {"a1": ("0.5", "1.5", "2", "3.5"), "psi_re": ("0", "0.5", "1", repr(TORUS_PSI)),
                "psi_im": ("0", "0.5", "-0.7"), "psi_mod": ("0.5", "1"), "psi_arg": ("0", "2")},
    "lambda": {"re": (), "im": (), "count": ("1", "4", "8"), "arc_start": ("0", "0.5"),
               "arc_end": ("1.5", "6.283185307179586")},
    "grid": {"x_min": ("-1", "0"), "x_max": ("1", "2"), "y_min": ("-0.5", "0"),
             "y_max": ("1", "1.75"), "nx": ("2", "3", "4"), "ny": ("2", "3", "4")},
    "tolerances": {"phase": ("1e-8", "1e-6"), "rational_tol": ("1e-8", "1e-5"),
                   "max_den": ("1", "12", "64"), "quadrature": ("1e-11", "-1")},
    "output": {"format": ("csv", "obj", "json"),
               "path": ("o.csv", "o%1.csv", "o%%1.json", "missing/o.csv")},
}
KEYS = {key: section for section, keys in GRAMMAR.items() for key in keys}
JUNK = ("", "x", "1,0", "%", "%%", "%(a1)s", "[grid]", ";", "2 ; note", "\x00", "\uff11", "0x10",
        "+inf", "-0", "1e999", "\u00e9", "1\n  2")
NUMBERS = (*EXTREME_A1, *{v for pair in EXTREME_PSI + EXTREME_LAMBDA for v in pair.split(",")},
           "-1", "inf", "nan", *JUNK)
SMALL = ("-1", "0", "1", "2", "3", "4", "8", *JUNK)  # nx, ny <= 4 and count <= 8 once parsed


@st.composite
def cli_cases(draw):
    """(config text, extra flags): a config in the grammar, then wrong values, misplaced,
    misspelled and duplicate keys, and unknown or repeated sections; <tmp> is the run's
    temporary directory."""
    psi_form = draw(st.sampled_from([("psi_re", "psi_im"), ("psi_mod", "psi_arg")]))
    lam_form = draw(st.sampled_from([(), ("re", "im"), ("count", "arc_start", "arc_end")]))
    # re and im take their values from one unit lambda
    lam = dict(zip(("re", "im"), draw(st.sampled_from([*EXTREME_LAMBDA, "0,1"])).split(",")))
    forms = {"psi_re", "psi_im", "psi_mod", "psi_arg", "re", "im", "count", "arc_start", "arc_end"}
    # the first key of each form, a1, nx and ny are always given: the default grid is 16x16
    always = {"a1", "nx", "ny", psi_form[0], "re", "im", "count"}
    sections = {section: [[key, lam.get(key) or draw(st.sampled_from(values))]
                          for key, values in keys.items()
                          if (key not in forms or key in psi_form + lam_form)
                          and (key in always or draw(st.booleans()))]
                for section, keys in GRAMMAR.items()}
    faults = st.tuples(st.sampled_from(["value", "key", "section"]),
                       st.sampled_from([*GRAMMAR, "grdi", "DEFAULT", "Surface", "x]", "%", " ", ""]),
                       st.sampled_from([*KEYS, "ps_im", "nz", "A1", "a 1"]))
    for kind, name, key in draw(st.lists(faults, max_size=draw(st.sampled_from([0, 0, 1, 2, 3])))):
        value = draw(st.sampled_from(SMALL if key in ("nx", "ny", "count") else NUMBERS))
        if kind == "value" and key in KEYS:  # a wrong value, in place or added
            pairs = sections[KEYS[key]]
            pairs[:] = [pair for pair in pairs if pair[0] != key] + [[key, value]]
        elif kind == "key":  # misplaced or misspelled, or a duplicate in its own section
            sections.setdefault(name, []).append([key, value])
        elif kind == "section":
            sections.setdefault(name, [])
    order = draw(st.permutations(list(sections)))
    repeat = draw(st.sampled_from([[], [], [], order[:1]]))  # a section given twice
    lines = []
    for name in order + repeat:
        lines += [f"[{name}]", *(f"{key} = {value}" for key, value in sections[name])]
    text = "\n".join(lines).replace("path = ", "path = <tmp>/") + "\n"
    flags = draw(st.lists(st.sampled_from([["--json"], ["--lambda", "0.6,0.8"], ["--out", ""],
                                           ["--out", "<tmp>/o%1.csv"]]), max_size=2))
    return text, [flag for pair in flags for flag in pair]


SMALL_JOB = "[grid]\nnx = 2\nny = 2\n[output]\npath = <tmp>/o.csv\n"
# (config, flags) that once exited 0 with input dropped, ran at a dropped psi, printed
# several stderr lines or raised; then inputs that once took other wrong exits
REPRODUCERS = (
    (f"{SURFACE}psi_mod = 3\n{SMALL_JOB}", []),
    (f"{SURFACE}psi_arg = 0.5\n{SMALL_JOB}", []),
    (f"{SURFACE}ps_im = 0.5\n{SMALL_JOB}", []),
    (f"{SURFACE}[grdi]\n{SMALL_JOB}", []),
    (f"[DEFAULT]\na1 = 5\n[surface]\npsi_re = 1\n{SMALL_JOB}", []),
    (f"{SURFACE}nx = 7\n{SMALL_JOB}", []),
    (f"[surface]\na1 = 2\npsi_mod = 1\npsi_im = 0.5\n{SMALL_JOB}", []),
    (f"{SURFACE}{SMALL_JOB}", ["--out", ""]),
    (f"{SURFACE}{SMALL_JOB}", ["--out", "<tmp>/o%1.csv", "--json"]),
    (f"{SURFACE}{SMALL_JOB}".replace("o.csv", "out%1.csv"), []),
    (f"{SURFACE}{SMALL_JOB}".replace("o.csv", "out%%1.csv"), []),
    (f"{SURFACE}{SMALL_JOB}".replace("o.csv", "\x00"), []),
    ("not an ini at all [[[\n", []),
    (f"{SURFACE}[surface]\na1 = 3\n", []),
    (f"{SURFACE}[lambda]\ncount = 4\nre = 0.6\nim = 0.8\n{SMALL_JOB}", []),
    (f"{SURFACE}[lambda]\nre = 0.6\nim = 0.8\narc_end = 1.5\n{SMALL_JOB}", []),
    (f"{SURFACE}[lambda]\ncount = 0\n{SMALL_JOB}", []),
    (f"{SURFACE}[lambda]\ncount = 4\n[output]\nformat = obj\npath = <tmp>/o.obj\n", []),
    (f"{SURFACE}[tolerances]\nrational_tol = inf\n{SMALL_JOB}", []),
    (f"{SURFACE}{SMALL_JOB}".replace("ny = 2", "ny = 2\nx_min = -1e308\nx_max = 1e308"), []),
    (f"{SURFACE}{SMALL_JOB}".replace("ny = 2", "ny = 2\ny_max = 1e308"), []),
)


def _seeded(test):
    for case in REPRODUCERS:
        test = example(case=case)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(case=cli_cases())
@_seeded
def test_cli_fuzz(case):
    # every command on every drawn config: exit 0 to 5, no warning, no traceback, and
    # one stderr line on a refusal; a failed verification is a result, printed on stdout
    text, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp, "job.ini")
        config.write_text(text.replace("<tmp>", tmp), encoding="utf-8")
        flags = [flag.replace("<tmp>", tmp) for flag in flags]
        for command, extra in (("derive", []), ("classify", []), ("sample", []), ("sweep", []),
                               ("verify", ["--suites", "elliptic,potential"])):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                rc = main([command, "--config", str(config), *extra, *flags])
            argv = (command, text, flags)
            assert rc in range(6), (argv, rc)
            lines = err.getvalue().splitlines(keepends=True)
            assert len(lines) == (rc not in (EXIT_OK, EXIT_VERIFY)), (argv, rc, lines)
            assert all(line.endswith("\n") for line in lines) and "Traceback" not in err.getvalue()
