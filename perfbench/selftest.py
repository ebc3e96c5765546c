"""Self-test of the benchmark at tiny size.

Usage, from the root of the repository::

    python3 perfbench/selftest.py

Runs every workload's warm-up requests and a few of its round requests
through the real program and requires every check to pass, then feeds
the checks answers that are wrong on purpose (a perturbed distance, an
approximant outside the ball, non-strict JSON, a failing exit code) and
requires each to be counted as failed, as must the program's own answer
on a matrix whose norm overflows.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _small(reqs):
    """Requests of a round that finish in milliseconds."""
    return [r for r in reqs if r.kind != "cold" and len(r.stdin) < 20_000
            and not (r.kind == "verify" and r.doc.get("model") == "matrix"
                     and len(r.doc["entries"]) > 16)]


def _perturbed_answers(req, text):
    """Wrong variants of a right answer, each of which must fail its check."""
    out = json.loads(text)
    bad_value = dict(out, value=out["value"] + 1e-6)
    yield "perturbed distance", 0, json.dumps(bad_value)
    yield "non-strict JSON", 0, text.replace(json.dumps(out["value"]), "Infinity", 1)
    yield "failing exit code", 2, text
    if req.kind == "approx":
        approx = out["approximant"]
        if approx["model"] == "matrix":
            approx = dict(approx, entries=[[1.01 * v for v in row] for row in approx["entries"]])
            approx["entries"][0][0] += 1.5
        elif approx["model"] == "columns":
            approx = dict(approx, columns=[[v + 2.0 for v in c] for c in approx["columns"]]
                          or [[2.0]], tail_weights=approx["tail_weights"])
        else:
            approx = dict(approx, explicit=[1.5] + approx["explicit"][1:])
        yield "approximant outside the ball", 0, json.dumps(dict(out, approximant=approx))
    if req.kind == "project":
        yield "projection not passed", 0, json.dumps(dict(out, **{"pass": False}))
    if req.kind == "verify":
        yield "verify beaten", 0, json.dumps(dict(out, best_found=out["value"] - 1e-3))


def _known_fault():
    """A matrix whose norm overflows: the program prints Infinity and exits 0."""
    doc = {"space": "l2", "model": "matrix", "entries": [[1e200, 0.0], [0.0, 1.0]]}
    return workloads.Request("approx", ("approx",), json.dumps(doc), doc,
                             workloads.expected_distance(doc))


def main() -> int:
    problems = []
    for name in workloads.WORKLOADS:
        round_reqs, warm = workloads.build_round(name, seed=7)
        sample = warm + _small(round_reqs)[:12]
        right = worker.Stats()
        for req in sample:
            worker.send(req, right, cold_env=None)
        problems += [f"{name}: right answer counted as failed: {f}" for f in right.failures]
        wrong = worker.Stats()
        for req in sample:
            _, _, text = worker.call_cli(req)
            for label, code, bad_text in _perturbed_answers(req, text):
                wrong.record(req, 0.0, checks.check_answer(req, code, bad_text), code == 0)
                if wrong.failed != wrong.attempted:
                    problems.append(f"{name}: {label} on {req.kind} was not counted as failed")
                    wrong.failed = wrong.attempted
        print(f"{name}: {right.attempted - right.failed} of {right.attempted} right answers "
              f"passed, {wrong.failed} of {wrong.attempted} wrong answers counted as failed")
    fault = worker.Stats()
    worker.send(_known_fault(), fault, cold_env=None)
    if fault.failed != 1:
        problems.append("the overflowing 1e200 matrix was not counted as failed")
    for line in problems:
        print(f"SELFTEST FAILED {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
