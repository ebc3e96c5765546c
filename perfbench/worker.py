"""One benchmark process: set up, then send one workload's requests.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (imports, instance generation and a warm-up pass) is timed from
the top of this file.  The timed part is a closed loop: one request at a
time, each a call of ``ballapprox.cli.main`` with the operator document
on a substituted stdin and the JSON answer captured from stdout, or, for
``cold`` requests, a fresh ``python -m ballapprox.cli`` process.  Whole
rounds are sent until the next round would end past ``--seconds``.
Every answer is checked apart from the program; a wrong answer counts
the operation as failed and the loop goes on.  With ``--trace 1`` the
loop alternates untraced and traced rounds; the traced ones give the
per-layer split and the two together the tracing overhead.  The result
is one JSON line on stdout.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

from ballapprox import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COLD_TIMEOUT_S = 60


class Stats:
    """Outcomes of the timed requests of one process."""

    def __init__(self):
        self.latency = {"approx": [], "verify": [], "project": [], "cold": []}
        self.work = {"verify": 0, "project": 0}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []

    def record(self, req, seconds: float, problem, answered: bool):
        self.attempted += 1
        if problem is None:
            self.latency[req.kind].append(seconds)
            if req.kind in self.work:
                self.work[req.kind] += req.trials
            return
        self.failed += 1
        self.wrong += answered  # exit code 0, yet the answer is wrong
        if len(self.failures) < 5:
            self.failures.append(f"{req.kind} {' '.join(req.argv)[:80]}: {problem}")


def call_cli(req):
    """One in-process request; returns (seconds, exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(req.stdin)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(req.argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, not a failed run
        code = -1
        out.write(f"{type(exc).__name__}: {exc}")
    finally:
        sys.stdin = saved
    return time.perf_counter() - t0, code, out.getvalue()


def cold_start(req, env):
    """One fresh ``python -m ballapprox.cli`` process; wall time included."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ballapprox.cli", *req.argv], input=req.stdin,
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=COLD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, -1, f"timed out after {COLD_TIMEOUT_S} s"
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def send(req, stats, cold_env):
    if req.kind == "cold":
        seconds, code, text = cold_start(req, cold_env)
    else:
        seconds, code, text = call_cli(req)
    problem = checks.check_answer(req, code, text)
    stats.record(req, seconds, problem, answered=code == 0)
    return seconds, len(req.stdin) + len(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, help="file for the raw spans")
    args = parser.parse_args(argv)

    round_reqs, warm = workloads.build_round(args.workload, args.seed)
    cold_env = dict(os.environ)
    cold_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    if args.trace:
        # Cold starts run outside this process and leave no spans.
        round_reqs = [r for r in round_reqs if r.kind != "cold"]
    warm_stats = Stats()
    for req in warm:
        send(req, warm_stats, cold_env)
    setup_s = time.perf_counter() - T_START
    if warm_stats.failed:
        print("\n".join(warm_stats.failures), file=sys.stderr)

    stats = Stats()
    tracer = tracing.Tracer()
    kinds = {}
    busy = {"untraced": 0.0, "traced": 0.0}
    doc_bytes = 0
    trial_bytes = 0
    t_loop = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        busy["untraced"] += sum(send(r, stats, cold_env)[0] for r in round_reqs)
        if args.trace:
            with tracer.installed():
                for req in round_reqs:
                    rid = len(kinds) + 1
                    kinds[rid] = req.kind
                    with tracer.request(rid):
                        seconds, n_bytes = send(req, stats, cold_env)
                    busy["traced"] += seconds
                    doc_bytes += n_bytes
                    trial_bytes += req.trial_bytes
        took = time.perf_counter() - t_round
        if time.perf_counter() - t_loop + took > args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "wrong": stats.wrong,
        "failures": stats.failures,
        "latency": stats.latency,
        "work": stats.work,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, kinds)
        n_traced = len(kinds)
        n_verify = sum(1 for k in kinds.values() if k == "verify")
        layers["serialize.doc_bytes"] = doc_bytes / n_traced
        layers["oracles.trial_bytes"] = trial_bytes / max(n_verify, 1)
        layers["trace.overhead_ratio"] = busy["traced"] / busy["untraced"] - 1.0
        result["layers"] = layers
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
