"""The `sample` writers write exactly the bytes of np.savetxt and json.dumps(indent=2).

`writer_oracles` keeps those reference bodies; every format of
`equilag.cli._WRITERS` must match them byte for byte, on drawn grids with
flagged cells and extreme and non-finite values planted in the cells and in
x, y and e_u, and must not hold more memory than they do.  The CLI's one
JSON emitter, `cli._json_dumps`, must write json.dumps(indent=2,
sort_keys=True) on any payload of the types json takes, and refuse the
others as json does.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilag import immersion
from equilag.cli import _WRITERS, JobConfig, _json_dumps
from writer_oracles import ORACLES

FORMATS = ("csv", "obj", "json")
PLANTED = (-0.0, 5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan)


def _config(c) -> JobConfig:
    # a path with a newline and a non-ASCII character exercises the json config escapes
    return JobConfig(a1=c.a1, psi=c.psi, out_path="out\né.json")


def _assert_same_bytes(tmp, cfg, grid) -> None:
    for fmt in FORMATS:
        new, old = tmp / f"new.{fmt}", tmp / f"old.{fmt}"
        _WRITERS[fmt](str(new), cfg, grid)
        ORACLES[fmt](str(old), cfg, grid)
        assert new.read_bytes() == old.read_bytes(), fmt


@st.composite
def grids(draw, c):
    nx, ny = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    grid = immersion.sample_grid(c, 1.0, (0.0, 1.0), (-0.5, 0.5), nx, ny)
    mask = draw(st.sampled_from(["none", "all", "some"]))
    if mask == "some":
        flags = np.array(draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny)))
        flags = flags.reshape(ny, nx)
    else:
        flags = np.full((ny, nx), mask == "all")
    F, chart = grid.F.copy(), grid.chart.copy()
    chart[flags] = complex(np.nan, np.nan)
    re_im = {"F": F.view(float), "chart": chart.view(float)}  # (ny, nx, 6) and (ny, nx, 4)
    plants = st.tuples(st.sampled_from(["F", "chart"]), st.integers(0, ny - 1), st.integers(0, nx - 1),
                       st.integers(0, 5), st.sampled_from(PLANTED))
    for name, iy, ix, k, value in draw(st.lists(plants, max_size=12)):
        a = re_im[name]
        if not flags[iy, ix]:
            a[iy, ix, k % a.shape[-1]] = value
    # the csv writer formats x, y and e_u once per grid line, apart from the cells
    lines = {"xs": grid.xs.copy(), "ys": grid.ys.copy(), "e_u": grid.e_u.copy()}
    line_plants = st.tuples(st.sampled_from(sorted(lines)), st.integers(0, 23), st.sampled_from(PLANTED))
    for name, i, value in draw(st.lists(line_plants, max_size=6)):
        lines[name][i % len(lines[name])] = value
    return dataclasses.replace(grid, F=F, chart=chart, flags=flags, **lines)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_writers_match_the_oracles(bench_nonreal, tmp_path_factory, data):
    grid = data.draw(grids(bench_nonreal))
    _assert_same_bytes(tmp_path_factory.mktemp("writers"), _config(bench_nonreal), grid)


def test_writers_match_the_oracles_at_128(bench_nonreal, tmp_path):
    grid = immersion.sample_grid(bench_nonreal, 1.0, (0.0, 1.0), (0.0, 1.0), 128, 128)
    _assert_same_bytes(tmp_path, _config(bench_nonreal), grid)


def _peak(write, path, cfg, grid) -> int:
    tracemalloc.start()
    try:
        write(str(path), cfg, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", FORMATS)
def test_writer_memory_at_256(bench_nonreal, tmp_path, fmt):
    grid = immersion.sample_grid(bench_nonreal, 1.0, (0.0, 1.0), (0.0, 1.0), 256, 256)
    cfg, out = _config(bench_nonreal), tmp_path / f"grid.{fmt}"
    peak = _peak(_WRITERS[fmt], out, cfg, grid)
    if fmt == "json":
        # the json.dumps oracle holds the whole payload as Python objects (about 7x the file)
        assert peak < out.stat().st_size
    else:
        assert peak <= 1.1 * _peak(ORACLES[fmt], tmp_path / f"oracle.{fmt}", cfg, grid)


# quotes, backslashes, control characters, non-ASCII and lone surrogates
texts = st.text(st.characters(codec=None) | st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7fé\u2028\ud800\udfff\U0001f600'))
floats = (st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308, np.inf, -np.inf, np.nan])
          | st.floats(allow_nan=True).map(np.float64))
scalars = (texts | floats | st.integers(-2**70, 2**70) | st.sampled_from([2**64, -2**64 - 1, 10**40])
           | st.booleans() | st.none())
payloads = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                        | st.lists(inner, max_size=4).map(tuple)
                        | st.dictionaries(texts, inner, max_size=4), max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_json_emitter_matches_json_dumps(obj):
    assert _json_dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), 1j, {1.0}])
def test_json_emitter_refuses_what_json_refuses(value):
    for obj in (value, [value], {"k": value}):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _json_dumps(obj)
