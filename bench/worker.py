"""The measured process: runs one workload against the package and reports.

Started by run.py as a fresh interpreter, so that its set-up time and its
peak resident set belong to this workload alone.  It imports the package,
generates the seeded inputs, then repeats whole rounds of the operation
list until the run time is used (at least one round).  Before every
operation the package's memo caches are cleared, so each operation starts
from the state of a fresh process and every round costs what the first
did.  Outputs of the first round are written out for run.py to check;
later rounds must reproduce them exactly.

    python3 bench/worker.py --workload lift --seed 1 --seconds 15 --trace 0 \
        --result bench/.out/lift.json --tmp bench/.out/tmp-lift [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import equilag  # noqa: E402
from equilag import cli  # noqa: E402

import layertrace as tracing  # noqa: E402
import workloads  # noqa: E402


def _c(z: complex) -> list[float]:
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# operations: each returns a JSON-able result; exceptions are the caller's

def op_lift(op: dict) -> dict:
    c = equilag.derive_constants(equilag.SurfaceParams(op["a1"], op["psi"]))
    es = equilag.eigensystem(c, op["lam"])
    F = [equilag.lift_at(c, es, x, y).F for x, y in zip(op["xs"], op["ys"])]
    return {"F": [[_c(v) for v in f] for f in F]}


def op_grid(op: dict) -> dict:
    c = equilag.derive_constants(equilag.SurfaceParams(op["a1"], op["psi"]))
    n = op["n"]
    g = equilag.sample_grid(c, op["lam"], op["x_range"], op["y_range"], n, n)
    return grid_summary(g, op)


def grid_summary(g, op: dict) -> dict:
    """Property checks over every cell, and the cells the oracle will check."""
    absF3 = np.abs(g.F[:, :, 2])
    ok = ~g.flags
    chart_err = 0.0
    if ok.any():
        want = np.stack([g.F[:, :, 0] / g.F[:, :, 2], g.F[:, :, 1] / g.F[:, :, 2]], axis=-1)
        chart_err = float(np.max(np.abs(g.chart[ok] - want[ok]) / np.maximum(1.0, np.abs(want[ok]))))
    cells = [{"iy": iy, "ix": ix, "x": float(g.xs[ix]), "y": float(g.ys[iy]),
              "F": [_c(v) for v in g.F[iy, ix]], "e_u": float(g.e_u[iy])}
             for iy, ix in op["check_cells"]]
    return {
        "norm_dev": float(np.max(np.abs(np.linalg.norm(g.F, axis=2) - 1.0))),
        "flag_mismatch": int(np.count_nonzero(g.flags != (absF3 <= 1e-8))),
        "chart_nan_mismatch": int(np.count_nonzero(np.isnan(g.chart[:, :, 0]) != g.flags)),
        "chart_err": chart_err,
        "cells": cells,
        "digest": hashlib.sha256(g.F.tobytes()).hexdigest(),
    }


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def op_sample(op: dict) -> dict:
    rc, out, err = _run_cli(["sample", "--config", op["config_path"]])
    return {"rc": rc, "stderr": err, "path": op["out_path"], "stdout_bytes": len(out)}


def op_classify(op: dict) -> dict:
    # RE,IM in one token with "=": a leading minus would read as a flag
    argv = ["classify", "--json", f"--a1={op['a1']!r}",
            f"--psi={op['psi'].real!r},{op['psi'].imag!r}",
            f"--lambda={op['lam'].real!r},{op['lam'].imag!r}",
            f"--max-den={op['max_den']}"]
    rc, out, err = _run_cli(argv)
    return {"rc": rc, "stdout": out, "stderr": err}


def op_verify(op: dict) -> dict:
    argv = ["verify", "--json", f"--a1={op['a1']!r}",
            f"--psi={op['psi'].real!r},{op['psi'].imag!r}"]
    if op["suites"]:
        argv += ["--suites", op["suites"]]
    if op["corrupt"]:
        argv.append("--debug-corrupt-kappa")
    rc, out, err = _run_cli(argv)
    return {"rc": rc, "stdout": out, "stderr": err}


# ---------------------------------------------------------------------------
# the host's speed: on a host that shares its cores, speed can move by a
# third from second to second and from minute to minute, much the same for
# this loop and for the package.  In untraced rounds the loop runs between
# any two operations, and after the last, for about REF_SHARE of the time
# of the operation before (at least once); run.py scales each operation's
# time by the reference times on both sides of it.

REF_LOOP = 20_000
REF_SHARE = 0.1
SETUP_REF_S = 0.02        # reference passes right after set-up, in seconds


def reference_time() -> float:
    """Seconds of one pass of a fixed pure-Python loop that calls no package code."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_LOOP):
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - t0


def sample_reference(refs: list, budget: float) -> None:
    spent = 0.0
    while True:
        refs.append(reference_time())
        spent += refs[-1]
        if spent >= budget:
            return


OPS = {"lift": op_lift, "grid": op_grid, "sample": op_sample,
       "classify": op_classify, "verify": op_verify}


def _fingerprint(workload: str, result: dict) -> str:
    """What a repeated round must reproduce exactly."""
    if workload == "sample":
        if result.get("rc") != 0 or not os.path.exists(result["path"]):
            return json.dumps(result, sort_keys=True)
        with open(result["path"], "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    if workload == "grid":
        return result.get("digest", json.dumps(result, sort_keys=True))
    if workload == "verify" and result.get("stdout", "").startswith("{"):
        payload = json.loads(result["stdout"])
        for s in payload["suites"]:
            s.pop("seconds", None)  # wall time, not an output
        return json.dumps([result["rc"], payload], sort_keys=True)
    return json.dumps(result, sort_keys=True)


def prepare(workload: str, seed: int, tmp: Path) -> list[dict]:
    """Inputs of one round; the sample configs are written to tmp."""
    ops = workloads.make_ops(workload, seed)
    if workload == "sample":
        tmp.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(ops):
            op["out_path"] = str(tmp / f"op{i}.{op['format']}")
            op["config_path"] = str(tmp / f"op{i}.ini")
            Path(op["config_path"]).write_text(workloads.sample_config(op, op["out_path"]))
    return ops


def run_round(workload: str, ops: list[dict], caches: list, tracer=None, stats=None,
              keep_outputs=False, refs=None):
    """One pass over the operation list: (latencies s, results, fingerprints, cli bytes).

    With a list in refs, one list of reference times is appended to it
    before each operation and one after the last.
    """
    fn = OPS[workload]
    lat, results, prints = [], [], []
    cli_bytes = 0

    def sample_between():
        if refs is not None:
            refs.append([])
            sample_reference(refs[-1], REF_SHARE * (lat[-1] if lat else 0.0))

    for i, op in enumerate(ops):
        sample_between()
        for cache in caches:
            cache.cache_clear()
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            res = fn(op)
        except Exception as exc:  # an operation that raised is a failed operation
            res = {"error": type(exc).__name__, "message": str(exc)[:300]}
        lat.append(time.perf_counter() - t0)
        if stats is not None:
            stats.collect()
        if workload == "sample" and "path" in res and os.path.exists(res["path"]):
            cli_bytes += os.path.getsize(res["path"]) + res["stdout_bytes"]
        elif "stdout" in res:
            cli_bytes += len(res["stdout"].encode())
        prints.append(_fingerprint(workload, res))
        if workload == "sample" and os.path.exists(res.get("path", "")):
            if keep_outputs:  # later rounds write the same path again
                kept = res["path"] + ".first"
                os.replace(res["path"], kept)
                res["path"] = kept
            else:
                os.remove(res["path"])
        results.append(res)
    sample_between()
    return lat, results, prints, cli_bytes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--result", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tmp = Path(args.tmp)
    ops = prepare(args.workload, args.seed, tmp)
    caches = tracing.package_caches()
    t_ready = time.perf_counter()
    # the host's speed at set-up, for scaling this process's set-up time
    setup_refs: list[float] = []
    sample_reference(setup_refs, SETUP_REF_S)
    out = {"t_ready": t_ready, "setup_reference_s": statistics.median(setup_refs)}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(out))
        return 0

    # round 1 keeps its outputs for checking
    refs: list[list[float]] = []          # per round: len(ops) + 1 lists
    lat, first, prints, _ = run_round(args.workload, ops, caches, keep_outputs=True, refs=refs)
    rounds, references = [lat], [refs]
    mismatched = 0
    if not args.trace:
        while True:
            spent = time.perf_counter() - t_ready
            if spent + spent / len(rounds) > args.seconds:
                break
            refs = []
            lat, _, p, _ = run_round(args.workload, ops, caches, refs=refs)
            rounds.append(lat)
            references.append(refs)
            mismatched += sum(a != b for a, b in zip(p, prints))
    else:
        tracer = tracing.Tracer()
        stats = tracing.CacheStats()
        tracer.install()
        try:
            lat, _, p, cli_bytes = run_round(args.workload, ops, caches, tracer, stats)
        finally:
            tracer.uninstall()
        rounds.append(lat)
        mismatched += sum(a != b for a, b in zip(p, prints))
        overhead = math.fsum(rounds[1]) / math.fsum(rounds[0])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
        for k, v in stats.ratios().items():
            metrics[k] = {"value": v, "unit": "ratio"}
        metrics["cli.bytes_written"] = {"value": cli_bytes, "unit": "B"}
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        out["per_layer"] = metrics
        out["spans"] = tracer.spans
        out["calls"] = dict(tracer.calls)
        out["self_s"] = dict(tracer.self_s)

    out.update({
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "latencies": rounds,
        "reference_s": references,
        "first_round": first,
        "round_mismatches": mismatched,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
