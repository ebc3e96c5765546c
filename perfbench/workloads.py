"""Seeded request generators for the benchmark workloads.

Every operator document is built here with numpy from the workload seed,
apart from the program under test, which only ever sees the JSON text.
Sizes, model classes and construction branches follow a fixed schedule;
the seed changes the values, not the amount of work in a round.  Each
request carries the distance computed here (``numpy.linalg.svd`` for
matrices, plain maxima and ``math.fsum`` for sequence and column models),
which the checks in :mod:`checks` hold the program's answers to.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("matrix_dense", "sequence_wide", "small_requests")

#: Competitor trials per ``verify`` request, by document family.  The
#: 10^5-entry models keep few trials: ``competitor_search`` allocates a
#: dense trials x width array, and the benchmark stays clear of that
#: known memory fault beyond what ordinary sizes exercise.
MATRIX_TRIALS = 200
WIDE_TRIALS = 200
HUGE_TRIALS = 20
L1_WIDE_TRIALS = 50
SMALL_TRIALS = 500
PROJECTION_SAMPLES = 2000

#: Tolerance passed to ``verify`` (the CLI default, spelt out).
VERIFY_TOL = 1e-10

#: Fresh ``python -m ballapprox.cli approx`` launches per round.
COLD_STARTS_PER_ROUND = {"matrix_dense": 4, "sequence_wide": 4, "small_requests": 1}

ENTRY_BRANCHES = ("compact", "infinite_series", "finite_head", "non_attaining", "small_norm")


@dataclass(frozen=True)
class Request:
    """One CLI call and the data its answer is checked against."""

    kind: str  # "approx", "verify", "project" or "cold"
    argv: tuple  # arguments after the program name
    stdin: str  # operator document, "" for project-extreme
    doc: dict = field(repr=False)  # generated operator (or projection) data
    distance: float  # expected value, computed apart from the program
    trials: int = 0  # competitor trials (verify) or samples (project)
    trial_bytes: int = 0  # trials x width x 8 of the dense trial arrays (verify)


# ---------------------------------------------------------------- documents


def matrix_doc(rng, dim: int, norm: float, angle=None) -> dict:
    """Square matrix of spectral norm ``norm``, Gaussian unless ``angle`` is set.

    With ``angle`` it is ``U diag(s) V^T`` with ``V`` a Cayley rotation
    that far from the identity: the smaller the angle, the closer to
    orthogonal its columns and the fewer Jacobi sweeps it takes (for
    16x16, 3 sweeps at 0.02 up to 7, as many as a Gaussian matrix, at 10).
    """
    a = rng.standard_normal((dim, dim))
    if angle is not None:
        u, _ = np.linalg.qr(a)
        k = rng.standard_normal((dim, dim))
        k = (k - k.T) * (angle / 2.0 / np.linalg.norm(k - k.T, 2))
        eye = np.eye(dim)
        v = np.linalg.solve(eye - k, eye + k)
        s = np.linalg.svd(rng.standard_normal((dim, dim)), compute_uv=False)
        a = u @ np.diag(s) @ v.T
    a *= norm / np.linalg.svd(a, compute_uv=False)[0]
    return {"space": "l2", "model": "matrix", "entries": a.tolist()}


def entry_doc(rng, model: str, n: int, branch: str) -> dict:
    """Diagonal or shift model whose data selects one construction branch."""
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if branch == "small_norm":
        explicit = rng.uniform(-0.95, 0.95, n)
        tail = {"kind": "const", "value": sign * float(rng.uniform(0.1, 0.9))}
    else:
        explicit = rng.uniform(-3.0, 3.0, n)
        if branch == "compact":
            tail = {"kind": "const", "value": 0.0}
        elif branch == "infinite_series":
            tail = {"kind": "const", "value": sign * float(rng.uniform(0.3, 0.9))}
        elif branch == "finite_head":
            tail = {"kind": "geometric", "limit": sign * float(rng.uniform(1.2, 2.0)),
                    "ratio": float(rng.uniform(0.1, 0.9))}
        elif branch == "non_attaining":
            tail = {"kind": "geometric", "limit": sign * float(rng.uniform(3.2, 4.0)),
                    "ratio": float(rng.uniform(0.1, 0.9))}
        else:
            raise ValueError(f"unknown branch {branch!r}")
    return {"space": "l2", "model": model, "explicit": explicit.tolist(), "tail": tail}


def l1_doc(rng, supports, n_weights: int, scale: float) -> dict:
    columns = [(rng.uniform(-1.0, 1.0, s) * scale).tolist() for s in supports]
    return {
        "space": "l1",
        "model": "columns",
        "columns": columns,
        "tail_weights": rng.uniform(-2.0, 2.0, n_weights).tolist(),
        "tail": {"kind": "const", "value": float(rng.uniform(-0.9, 0.9))},
    }


def tail_limit(doc: dict) -> float:
    tail = doc["tail"]
    return tail["value"] if tail["kind"] == "const" else tail["limit"]


def expected_distance(doc: dict) -> float:
    """max(||T|| - 1, ||T||_e, 0), computed without the program."""
    if doc["model"] == "matrix":
        sigma = np.linalg.svd(np.array(doc["entries"]), compute_uv=False)[0]
        return max(float(sigma) - 1.0, 0.0)
    if doc["model"] == "columns":
        ess = abs(doc["tail"]["value"])
        masses = [math.fsum(abs(v) for v in col) for col in doc["columns"]]
        masses += [abs(w) for w in doc["tail_weights"]]
        return max(max(masses, default=0.0) - 1.0, ess, 0.0)
    ess = abs(tail_limit(doc))
    top = float(np.max(np.abs(doc["explicit"]))) if doc["explicit"] else 0.0
    return max(top - 1.0, ess, 0.0)


def trial_width(doc: dict) -> int:
    """Row width of the dense competitor arrays ``competitor_search`` builds."""
    if doc["model"] == "matrix":
        return len(doc["entries"]) ** 2
    if doc["model"] == "columns":
        return sum(max(len(c), 1) for c in doc["columns"]) + len(doc["tail_weights"]) + 2
    return len(doc["explicit"]) + 4


def extreme_point(rng, space: str, dim: int) -> list:
    if space == "l1":
        point = [0.0] * dim
        point[int(rng.integers(0, dim))] = 1.0 if rng.random() < 0.5 else -1.0
        return point
    if space == "linf":
        return [1.0 if rng.random() < 0.5 else -1.0 for _ in range(dim)]
    g = rng.standard_normal(dim)
    return (g / np.linalg.norm(g)).tolist()


# ----------------------------------------------------------------- requests


def _operator_requests(doc: dict, trials: int, approx: bool = True, verify: bool = True):
    text = json.dumps(doc)
    d = expected_distance(doc)
    out = []
    if approx:
        out.append(Request("approx", ("approx",), text, doc, d))
    # No matrix of norm <= 1 is verified: the soft-threshold and sv-clip
    # candidates rebuild T, and Jacobi on the rounding-error residual can
    # fail to converge (exit 2) for some matrices (see CHANGES.md).
    if verify and not (doc["model"] == "matrix" and d == 0.0):
        argv = ("verify", "--samples", str(trials), "--seed", "0", "--tol", repr(VERIFY_TOL))
        out.append(Request("verify", argv, text, doc, d, trials, trials * trial_width(doc) * 8))
    return out


def _projection_requests(rng, dims=range(2, 7)):
    out = []
    for space in ("l1", "l2", "linf"):
        for dim in dims:
            point = extreme_point(rng, space, dim)
            alpha = float(rng.uniform(1.2, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            argv = ("project-extreme", "--space", space, "--alpha", repr(alpha),
                    "--point", json.dumps(point), "--samples", str(PROJECTION_SAMPLES),
                    "--seed", str(len(out)))
            doc = {"space": space, "alpha": alpha, "point": point}
            out.append(Request("project", argv, "", doc, abs(alpha) - 1.0, PROJECTION_SAMPLES))
    return out


def _cold_request(rng) -> Request:
    doc = entry_doc(rng, "diagonal", 3, "infinite_series")
    return Request("cold", ("approx",), json.dumps(doc), doc, expected_distance(doc))


def _small_l1(rng, n_cols: int, n_weights: int) -> dict:
    supports = [1 + (j * 3) % 5 for j in range(n_cols)]
    return l1_doc(rng, supports, n_weights, 1.5)


def _interleave(reqs):
    """Spread each class of requests over the round (golden-ratio order).

    The machine's speed drifts within seconds; requests of one class sent
    back to back would all meet the same moment, and their median would
    follow it.
    """
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    return [reqs[i] for i in sorted(range(len(reqs)), key=lambda i: (i * golden) % 1.0)]


def build_round(workload: str, seed: int):
    """The requests of one round, in the order they are sent.

    Returns ``(round_requests, warmup_requests)``.  A run repeats the
    same round until its time is up, so every run attempts whole rounds
    of the same operations.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    reqs = []
    if workload == "matrix_dense":
        # The 16x16 matrices span 3 to 7 Jacobi sweeps, so their latencies
        # form a continuum: a median over them moves smoothly with the
        # machine's speed instead of jumping between its fast and slow
        # states.  Twelve of them, six above norm 1, put the median approx
        # and the median verify in the middle of that class.
        angles = np.geomspace(0.02, 10.0, 12)
        shapes = [(4, 0.6, None), (4, 1.8, None), (64, 0.6, None), (64, 1.8, None)]
        shapes += [(16, 1.8 if i % 2 else 0.6, float(a)) for i, a in enumerate(angles)]
        for dim, norm, angle in shapes:
            doc = matrix_doc(rng, dim, norm * float(rng.uniform(0.9, 1.1)), angle)
            reqs += _operator_requests(doc, MATRIX_TRIALS)
        # One small column model keeps the l1 layer measured here too.
        reqs += _operator_requests(_small_l1(rng, 3, 2), MATRIX_TRIALS, approx=False)
        warm = _operator_requests(matrix_doc(rng, 4, 1.5), MATRIX_TRIALS)
    elif workload == "sequence_wide":
        for model in ("diagonal", "shift"):
            for branch in ENTRY_BRANCHES:
                reqs += _operator_requests(entry_doc(rng, model, 1000, branch), WIDE_TRIALS)
        reqs += _operator_requests(
            entry_doc(rng, "diagonal", 100_000, "infinite_series"), HUGE_TRIALS)
        reqs += _operator_requests(entry_doc(rng, "shift", 100_000, "finite_head"), HUGE_TRIALS)
        for n_cols, max_support in ((200, 200), (100, 300)):
            supports = [1 + (j * 37) % max_support for j in range(n_cols)]
            reqs += _operator_requests(l1_doc(rng, supports, 50, 0.02), L1_WIDE_TRIALS)
        # One 2x2 matrix keeps the jacobi layer measured here too.
        reqs += _operator_requests(matrix_doc(rng, 2, 1.5), MATRIX_TRIALS, verify=False)
        warm = _operator_requests(entry_doc(rng, "diagonal", 10, "infinite_series"), 20)
        warm += _operator_requests(_small_l1(rng, 2, 1), 20)
    else:
        lengths = (0, 2, 4, 6, 8, 10, 12, 12)
        for i, n in enumerate(lengths):
            model = "diagonal" if i % 2 == 0 else "shift"
            doc = entry_doc(rng, model, n, ENTRY_BRANCHES[i % len(ENTRY_BRANCHES)])
            reqs += _operator_requests(doc, SMALL_TRIALS)
        for dim, norm in ((3, 1.8), (6, 0.6), (9, 1.8), (12, 1.8)):
            reqs += _operator_requests(matrix_doc(rng, dim, norm), SMALL_TRIALS)
        for n_cols in (1, 2, 3, 4):
            reqs += _operator_requests(_small_l1(rng, n_cols, n_cols - 1), SMALL_TRIALS)
        warm = _operator_requests(matrix_doc(rng, 2, 1.5), 20)
        warm += _operator_requests(entry_doc(rng, "shift", 3, "compact"), 20)
        warm += _operator_requests(_small_l1(rng, 1, 1), 20)
    projections = _projection_requests(rng)
    reqs += projections
    warm += projections[:1]
    cold = _cold_request(rng)
    reqs += [cold] * COLD_STARTS_PER_ROUND[workload]
    return _interleave(reqs), warm
