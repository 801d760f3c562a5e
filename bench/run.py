"""equilag benchmark: one seeded workload per run, outputs checked, metrics printed.

    python3 bench/run.py --workload lift --seed 1 --seconds 15 --trace 0

Workloads: lift, grid, sample, classify, verify (see bench/README.md).
The measured work runs in a fresh single-threaded interpreter
(bench/worker.py); this process times its set-up, then checks every output
of the first round against bench/oracle.py and against properties the
method must have, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
latency_p50_ms, peak_rss_mb); with --trace 1 the worker runs one untraced
and one traced round and the metrics are the per-layer ones, and the spans
are written to bench/.out/.  Exit code 0 on a completed run, 1 when the
worker failed, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
WORKER = HERE / "worker.py"
# set-up-only processes before and after the measured one; with its own, 7
# samples, taken at both ends of the run so that their median spans it
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150.0
# Timings are reported at the host speed at which one pass of the worker's
# reference loop takes this long: each operation's time is scaled by this
# over the median of the reference times taken on both sides of it, each
# set-up time by this over the reference time its process measured right
# after set-up (see bench/README.md, "Host speed").
REF_NOMINAL_S = 2.0e-3

# single-threaded BLAS in this process and in the worker
ENV_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0"}
os.environ.update(ENV_PINS)
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def _spawn(args: list[str], result: Path) -> tuple[float, dict]:
    """Run the worker; (perf_counter at spawn, its result)."""
    t_spawn = time.perf_counter()
    proc = subprocess.run([sys.executable, str(WORKER), *args, "--result", str(result)],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    data = json.loads(result.read_text())
    result.unlink()
    return t_spawn, data


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "equilag" / "__init__.py").is_file():
        print(f"package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp = OUT / f"tmp-{tag}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp)]
    result = OUT / f"worker-{tag}.json"
    try:
        setup, setup_scaled = [], []

        def add_setup(t_spawn: float, run: dict) -> None:
            setup.append(run["t_ready"] - t_spawn)
            setup_scaled.append(setup[-1] * REF_NOMINAL_S / run["setup_reference_s"])

        for _ in range(SETUP_PROBES):
            add_setup(*_spawn(common + ["--setup-only"], result))
        t_spawn, data = _spawn(common, result)
        add_setup(t_spawn, data)
        for _ in range(SETUP_PROBES):
            add_setup(*_spawn(common + ["--setup-only"], result))

        ops = workloads.make_ops(args.workload, args.seed)
        verdict = checks.check(args.workload, ops, data["first_round"])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        result.unlink(missing_ok=True)

    if data["round_mismatches"]:
        verdict.problems.append(f"{data['round_mismatches']} outputs differ between rounds")
    for line in verdict.problems:
        print(f"check failed: {line}", file=sys.stderr)
    for line in verdict.failures:
        print(f"failed operation: {line}", file=sys.stderr)

    rounds = data["rounds"]
    wall = None
    if args.trace:
        metrics = data["per_layer"]
        spans = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps({"fields": ["id", "parent", "op", "name", "start", "end"],
                                     "spans": data["spans"], "calls": data["calls"],
                                     "self_s": data["self_s"]}))
    else:
        latencies, scaled = [], []
        for lat, refs in zip(data["latencies"], data["reference_s"]):
            for i, t in enumerate(lat):
                latencies.append(t)
                scaled.append(t * REF_NOMINAL_S / statistics.median(refs[i] + refs[i + 1]))
        # as measured, for reading beside the scaled figures
        wall = {"setup_s": statistics.median(setup),
                "ops_per_s": len(latencies) / math.fsum(latencies),
                "latency_p50_ms": 1e3 * statistics.median(latencies),
                "reference_ms": 1e3 * statistics.median(r for refs in data["reference_s"]
                                                        for group in refs for r in group)}
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "ops_per_s": {"value": len(scaled) / math.fsum(scaled), "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
            "peak_rss_mb": {"value": data["peak_rss_mb"], "unit": "MB"},
        }
    line = {
        "correct": not verdict.problems,
        "attempted": rounds * data["ops_per_round"],
        "failed": rounds * len(verdict.failures),
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**line, "rounds": rounds, "setup_samples": setup, "wall": wall,
                    "reference_samples": sum(len(g) for refs in data["reference_s"] for g in refs)},
                   indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
