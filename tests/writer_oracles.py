"""Reference `sample` writers: the np.savetxt and json.dumps bodies the block writers replaced.

Test-only. `tests/test_writers.py` requires `equilag.cli._WRITERS` to write
exactly the bytes these write, for every format.
"""

from __future__ import annotations

import numpy as np

from equilag import immersion
from equilag.cli import JobConfig, _config_dict, _json_dumps, _quads


def write_csv(path: str, cfg: JobConfig, grid: immersion.GridSample) -> None:
    """One row per cell, x fastest; complex columns as (re, im) pairs."""
    x, y = np.meshgrid(grid.xs, grid.ys)
    e_u = np.broadcast_to(grid.e_u[:, None], x.shape)
    # a contiguous complex128 array viewed as float64 interleaves re and im
    F, w = (np.ascontiguousarray(a).reshape(x.size, -1).view(float) for a in (grid.F, grid.chart))
    table = np.column_stack([x.ravel(), y.ravel(), F, w, e_u.ravel(), grid.flags.ravel()])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", comments="",
                   header="x,y,re_F1,im_F1,re_F2,im_F2,re_F3,im_F3,re_w1,im_w1,re_w2,im_w2,e_u,flag")


def write_obj(path: str, cfg: JobConfig, grid: immersion.GridSample) -> None:
    """Chart embedding (Re w1, Im w1, Re w2); faces skip flagged corners."""
    re_im = np.ascontiguousarray(grid.chart).view(float)  # Re w1, Im w1, Re w2, Im w2
    verts = np.where(grid.flags[..., None], 0.0, re_im[..., :3])  # placeholders keep grid indexing
    index = np.arange(1, grid.flags.size + 1).reshape(grid.flags.shape)
    faces = _quads(index)[~_quads(grid.flags).any(axis=-1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# equilag surface sample\n")
        np.savetxt(fh, verts.reshape(-1, 3), fmt="v %.17g %.17g %.17g")
        np.savetxt(fh, faces, fmt="f %d %d %d %d")


def write_json(path: str, cfg: JobConfig, grid: immersion.GridSample) -> None:
    def c2l(z: complex) -> list[float]:
        return [z.real, z.imag]

    payload = {
        "config": _config_dict(cfg),
        "xs": list(grid.xs),
        "ys": list(grid.ys),
        "e_u": list(grid.e_u),
        "F": [[[c2l(z) for z in cell] for cell in row] for row in grid.F],
        "chart": [
            [None if grid.flags[iy, ix] else [c2l(grid.chart[iy, ix, 0]), c2l(grid.chart[iy, ix, 1])]
             for ix in range(len(grid.xs))]
            for iy in range(len(grid.ys))
        ],
        "flags": [[int(v) for v in row] for row in grid.flags],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_dumps(payload))


ORACLES = {"csv": write_csv, "obj": write_obj, "json": write_json}
