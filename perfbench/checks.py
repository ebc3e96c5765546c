"""Independent checks of the program's answers.

Every check recomputes what it needs from the generated request data
with numpy and ``math.fsum``; nothing here imports ``ballapprox``.  A
check returns ``None`` when the answer is right and a one-line reason
when it is not, so the caller counts the operation as failed and goes on.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import VERIFY_TOL, tail_limit

#: Slack on the unit ball for emitted approximants.
BALL_TOL = 1e-12
#: Relative slack between the program's distance and the one recomputed
#: here; they come from different summation orders and SVD routines.
DIST_RTOL = 1e-10


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_strict(text: str):
    """Parse one JSON document, rejecting NaN and +-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= DIST_RTOL * max(1.0, abs(b))


def _tail_entries(tail: dict, first: int, count: int) -> np.ndarray:
    """Tail values at tail slots ``first .. first + count - 1`` (1-based)."""
    if tail["kind"] == "const":
        return np.full(count, float(tail["value"]))
    k = np.arange(first, first + count, dtype=float)
    return tail["limit"] * (1.0 - tail["ratio"] ** k)


def check_matrix_approx(doc: dict, d: float, out: dict):
    t = np.array(doc["entries"], dtype=float)
    approx = out["approximant"]
    if approx.get("model") != "matrix":
        return f"approximant model {approx.get('model')!r} != 'matrix'"
    k = np.array(approx["entries"], dtype=float)
    if k.shape != t.shape:
        return f"approximant shape {k.shape} != {t.shape}"
    k_norm = float(np.linalg.svd(k, compute_uv=False)[0])
    if not k_norm <= 1.0 + BALL_TOL:
        return f"approximant spectral norm {k_norm!r} outside the unit ball"
    res = float(np.linalg.svd(t - k, compute_uv=False)[0])
    if not _close(res, d):
        return f"||T - K||_2 = {res!r} != distance {d!r}"
    return None


def check_entry_approx(doc: dict, d: float, out: dict):
    approx = out["approximant"]
    if approx.get("model") != doc["model"]:
        return f"approximant model {approx.get('model')!r} != {doc['model']!r}"
    if approx.get("tail") != {"kind": "const", "value": 0.0}:
        return f"approximant tail {approx.get('tail')!r} is not const 0"
    k = np.array(approx["explicit"], dtype=float)
    if k.size and not float(np.max(np.abs(k))) <= 1.0 + BALL_TOL:
        return f"approximant entry of modulus {float(np.max(np.abs(k)))!r} outside the ball"
    t = np.array(doc["explicit"], dtype=float)
    n = max(t.size, k.size)
    t_ext = np.concatenate([t, _tail_entries(doc["tail"], 1, n - t.size)])
    k_ext = np.concatenate([k, np.zeros(n - k.size)])
    res = max(float(np.max(np.abs(t_ext - k_ext))) if n else 0.0, abs(tail_limit(doc)))
    if not _close(res, d):
        return f"residual sup {res!r} != distance {d!r}"
    return None


def check_l1_approx(doc: dict, d: float, out: dict):
    approx = out["approximant"]
    if approx.get("model") != "columns":
        return f"approximant model {approx.get('model')!r} != 'columns'"
    if approx.get("tail") != {"kind": "const", "value": 0.0}:
        return f"approximant tail {approx.get('tail')!r} is not const 0"
    cols, k_cols = doc["columns"], approx["columns"]
    weights, k_weights = doc["tail_weights"], approx["tail_weights"]
    if len(k_cols) != len(cols) or len(k_weights) != len(weights):
        return "approximant has a different number of columns"
    worst = abs(doc["tail"]["value"])
    for j, (col, k_col) in enumerate(zip(cols, k_cols)):
        if len(k_col) != len(col):
            return f"approximant column {j} has length {len(k_col)} != {len(col)}"
        mass = math.fsum(abs(v) for v in k_col)
        if not mass <= 1.0 + BALL_TOL:
            return f"approximant column {j} has mass {mass!r} outside the ball"
        res = math.fsum(abs(a - b) for a, b in zip(col, k_col))
        if not res <= d + DIST_RTOL * max(1.0, d):
            return f"residual mass {res!r} of column {j} exceeds the distance {d!r}"
        worst = max(worst, res)
    for j, (w, k_w) in enumerate(zip(weights, k_weights)):
        if not abs(k_w) <= 1.0 + BALL_TOL:
            return f"approximant tail weight {j} has modulus {abs(k_w)!r} outside the ball"
        res = abs(w - k_w)
        if not res <= d + DIST_RTOL * max(1.0, d):
            return f"residual of tail weight {j} is {res!r}, above the distance {d!r}"
        worst = max(worst, res)
    if not _close(worst, d):
        return f"largest residual mass {worst!r} != distance {d!r}"
    return None


def check_verify(req, out: dict):
    if out.get("pass") is not True:
        return f"verify did not pass: {out!r}"
    if out.get("trials") != req.trials:
        return f"verify ran {out.get('trials')!r} trials, asked for {req.trials}"
    if not out["best_found"] >= out["value"] - VERIFY_TOL:
        return f"best_found {out['best_found']!r} beats the claim {out['value']!r}"
    return None


def check_projection(req, out: dict):
    if out.get("pass") is not True:
        return "projection verification did not pass on an extreme input"
    doc = req.doc
    if not abs(out["value"] - (abs(doc["alpha"]) - 1.0)) <= BALL_TOL:
        return f"projection value {out['value']!r} != |alpha| - 1"
    s = 1.0 if doc["alpha"] > 0 else -1.0
    if out["approximant"]["coords"] != [s * c for c in doc["point"]]:
        return "projection approximant is not sign(alpha) * point"
    if out["report"]["extreme_input"] is not True:
        return "extreme input reported as not extreme"
    return None


def check_answer(req, code: int, text: str):
    """Check one CLI answer; ``None`` when it is right, else the reason."""
    if code != 0:
        return f"exit code {code}: {text.strip()[:200]}"
    try:
        out = parse_strict(text)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if not isinstance(out, dict):
        return "stdout is not a JSON object"
    try:
        value = out["value"]
        if not isinstance(value, (int, float)) or not _close(float(value), req.distance):
            return f"value {value!r} != expected {req.distance!r}"
        if req.kind == "project":
            return check_projection(req, out)
        if req.kind == "verify":
            return check_verify(req, out)
        if out.get("pass") is not True:
            return "approx reported pass != true"
        model = req.doc["model"]
        if model == "matrix":
            return check_matrix_approx(req.doc, req.distance, out)
        if model == "columns":
            return check_l1_approx(req.doc, req.distance, out)
        return check_entry_approx(req.doc, req.distance, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
