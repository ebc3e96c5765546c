"""Benchmark entry point.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.py`` in worker processes (``worker.py``)
and prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; the run is split over
``PARTS`` worker processes started one after another, so that set-up is
timed several times and reported as a median.  With ``--trace 1`` one
worker gives the per-layer metrics.  Raw results and spans are written
under ``perfbench/out/``.  BLAS runs single-threaded: the load is one
request at a time from one process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PARTS = 4
#: Every run must end within 180 s, worker start-up and merging included.
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(argv, env, timeout):
    """Run one worker to its end; kill its whole process group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{err}")
    if err:
        sys.stderr.write(err)
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(parts) -> dict:
    lat = {k: [s for p in parts for s in p["latency"][k]] for k in parts[0]["latency"]}
    missing = [k for k, v in lat.items() if not v]
    if missing:
        raise ValueError(f"no request of kind {missing} completed, nothing to measure")
    work = {k: sum(p["work"][k] for p in parts) for k in parts[0]["work"]}
    return {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "approx_per_s": len(lat["approx"]) / sum(lat["approx"]),
        "approx_p50_ms": 1e3 * statistics.median(lat["approx"]),
        "verify_trials_per_s": work["verify"] / sum(lat["verify"]),
        "verify_p50_ms": 1e3 * statistics.median(lat["verify"]),
        "projection_samples_per_s": work["project"] / sum(lat["project"]),
        "cli_cold_start_ms": 1e3 * statistics.median(lat["cold"]),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in parts) / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ballapprox" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'ballapprox'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, **BLAS_ENV)
    n_parts = 1 if args.trace else PARTS
    parts = []
    for _ in range(n_parts):
        argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", repr(args.seconds / n_parts),
                "--trace", str(args.trace)]
        if args.trace:
            argv += ["--trace-out", str(OUT_DIR / f"spans-{stem}.jsonl")]
        try:
            parts.append(run_worker(argv, env, DEADLINE_S - (time.monotonic() - t0)))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"worker failed: {exc}", file=sys.stderr)
            return 1

    failures = [f for p in parts for f in p["failures"]]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    try:
        values = parts[0]["layers"] if args.trace else end_to_end(parts)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": not any(p["wrong"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": metrics,
    }
    (OUT_DIR / f"run-{stem}.json").write_text(
        json.dumps({"result": result, "parts": parts}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
