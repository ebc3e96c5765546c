"""Seeded instance generators shared by unit and acceptance tests, a
scalar reference for the model layer's whole-array arithmetic, a
second optimal l2 approximant that cross-checks the construction, and
the whole-array pairwise spread that the projection check's is compared
with."""

from __future__ import annotations

import math

import numpy as np

from ballapprox import HilbertOperator, L1Operator, Shape, TailKind, TailRule, ball_distance


def random_tail(rng, allow_const_zero=True) -> TailRule:
    if rng.random() < 0.5:
        if allow_const_zero and rng.random() < 0.25:
            return TailRule.const(0.0)
        return TailRule.const(float(rng.uniform(-2.5, 2.5)))
    limit = float(rng.uniform(0.2, 2.5)) * (1.0 if rng.random() < 0.5 else -1.0)
    return TailRule.geometric(limit, float(rng.uniform(0.05, 0.95)))


def random_entry_operator(rng, max_len=12) -> HilbertOperator:
    """Random diagonal or shift model covering all construction branches."""
    n = int(rng.integers(0, max_len + 1))
    entries = rng.uniform(-3.0, 3.0, n)
    tail = random_tail(rng)
    ctor = (
        HilbertOperator.diagonal if rng.random() < 0.5 else HilbertOperator.weighted_shift
    )
    t = ctor(tuple(float(e) for e in entries), tail)
    if rng.random() < 0.25:
        # scale into the unit ball to exercise the small-norm branch
        from ballapprox import op_norm, scale

        nrm = op_norm(t)
        if nrm > 0:
            t = scale(t, float(rng.uniform(0.3, 1.0)) / nrm)
    return t


def random_matrix_operator(rng, max_dim=12) -> HilbertOperator:
    m = int(rng.integers(1, max_dim + 1))
    spread = float(rng.choice([0.3, 0.8, 1.5, 2.5]))
    mat = rng.standard_normal((m, m)) * spread / np.sqrt(m)
    return HilbertOperator.finite_matrix(mat)


def random_hilbert(rng, max_len=12, max_dim=12) -> HilbertOperator:
    if rng.random() < 1.0 / 3.0:
        return random_matrix_operator(rng, max_dim)
    return random_entry_operator(rng, max_len)


def random_l1(rng, max_cols=4, max_support=5) -> L1Operator:
    n_cols = int(rng.integers(0, max_cols + 1))
    cols = []
    for _ in range(n_cols):
        support = int(rng.integers(0, max_support + 1))
        cols.append(tuple(float(v) for v in rng.uniform(-1.5, 1.5, support)))
    n_weights = int(rng.integers(0, 4))
    weights = tuple(float(v) for v in rng.uniform(-2.0, 2.0, n_weights))
    if rng.random() < 0.25:
        tail = TailRule.const(0.0)
    else:
        tail = TailRule.const(float(rng.uniform(-1.5, 1.5)))
    return L1Operator(tuple(cols), weights, tail)


def random_positive_diagonal(rng, max_len=10) -> HilbertOperator:
    n = int(rng.integers(0, max_len + 1))
    entries = tuple(float(v) for v in rng.uniform(0.0, 3.0, n))
    if rng.random() < 0.4:
        tail = TailRule.const(float(rng.uniform(0.0, 2.0)))
    else:
        tail = TailRule.geometric(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 0.9)))
    return HilbertOperator.diagonal(entries, tail)


def random_nonattaining(rng, max_len=8) -> HilbertOperator:
    """Norm above 1 carried only by a strictly approaching tail."""
    limit = float(rng.uniform(1.2, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    n = int(rng.integers(0, max_len + 1))
    entries = tuple(float(v) for v in rng.uniform(-1.0, 1.0, n) * (abs(limit) - 0.2))
    tail = TailRule.geometric(limit, float(rng.uniform(0.1, 0.9)))
    ctor = (
        HilbertOperator.diagonal if rng.random() < 0.5 else HilbertOperator.weighted_shift
    )
    return ctor(entries, tail)


# Scalar reference for the model layer's arithmetic, one Python float at a
# time: the constructions and residual profiles, which the library computes
# on whole arrays, must agree with it bit for bit.


def lr_sum(values) -> float:
    """Left-to-right sum, the order of the library's column masses."""
    total = 0.0
    for v in values:
        total += v
    return total


def ref_entry(t, n: int) -> float:
    """Slot ``n >= 1`` of a diagonal or shift model."""
    m = len(t.explicit)
    return float(t.explicit[n - 1]) if n <= m else t.tail.entry(n - m)


def _soft(e: float, d: float) -> float:
    return math.copysign(max(abs(e) - d, 0.0), e)


def ref_construction_h(t) -> list:
    """Explicit entries of ``best_ball_approx_h(t).approximant``."""
    entries = [float(e) for e in t.explicit]
    ess = abs(t.tail.limit)
    nrm = ess
    for e in entries:
        nrm = max(nrm, abs(e))
    if ess == 0.0:
        c = 1.0 / max(nrm, 1.0)
        return [c * e for e in entries]
    attained = any(abs(e) >= ess for e in entries) or t.tail.kind is TailKind.CONST
    if nrm > 1.0 and not attained:
        return [0.0 * e for e in entries]
    if nrm > 1.0 and t.tail.kind is TailKind.GEOMETRIC:
        return [e / nrm if abs(e) >= ess else 0.0 for e in entries]
    if nrm > 1.0:
        return [e / nrm if abs(e) > 1.0 + ess else _soft(e, ess) for e in entries]
    return [_soft(e, ess) for e in entries]


def ref_residual_profile_h(t, k):
    """``(residuals, tail_residual, residual_norm)`` of ``t - k``, const-tail ``k``."""
    m = max(len(t.explicit), len(k.explicit))
    residuals = [abs(ref_entry(t, i) - ref_entry(k, i)) for i in range(1, m + 1)]
    c = k.tail.limit
    tail_res = abs(t.tail.limit - c)
    if t.tail.kind is TailKind.GEOMETRIC:
        tail_res = max(abs(t.tail.entry(m - len(t.explicit) + 1) - c), tail_res)
    return residuals, tail_res, max(max(residuals, default=0.0), tail_res)


def ref_truncate(col, d: float, cap: float = math.inf) -> list:
    """Keep ``min((mass - d)+, cap)`` of a column from the top, cutting on
    its left-to-right prefix sums; a removed entry is ``+0.0``."""
    col = [float(v) for v in col]
    keep = min(max(lr_sum(abs(v) for v in col) - d, 0.0), cap)
    out, above = [], 0.0
    for v in col:
        prefix = above + abs(v)
        if prefix <= keep:
            out.append(v)
        elif above <= keep:  # the split entry
            out.append(math.copysign(keep - above, v) + 0.0)
        else:
            out.append(0.0)
        above = prefix
    return out


def ref_norm_l1(t) -> float:
    best = abs(t.tail.limit)
    for col in t.columns:
        best = max(best, lr_sum(abs(float(v)) for v in col))
    for w in t.tail_weights:
        best = max(best, abs(float(w)))
    return best


def ref_construction_l1(t):
    """``(columns, tail_weights)`` of ``best_ball_approx_l1(t).approximant``."""
    d = max(ref_norm_l1(t) - 1.0, abs(t.tail.limit), 0.0)
    cols = [ref_truncate(c, d, 1.0) for c in t.columns]
    return cols, [ref_truncate([w], d, 1.0)[0] for w in t.tail_weights]


def _ref_column(op, j: int) -> list:
    if j <= len(op.columns):
        return [float(v) for v in op.columns[j - 1]]
    idx = j - len(op.columns)
    w = float(op.tail_weights[idx - 1]) if idx <= len(op.tail_weights) else op.tail.limit
    return [0.0] * j + [w]  # a tail column's one entry sits in row j + 1


def ref_residual_profile_l1(t, k):
    """``(residuals, tail_residual, residual_norm)`` of ``t - k``; each
    column mass is summed from the top row down."""
    n_cols = max(len(op.columns) + len(op.tail_weights) for op in (t, k))
    residuals = []
    for j in range(1, n_cols + 1):
        a, b = _ref_column(t, j), _ref_column(k, j)
        n = max(len(a), len(b))
        a, b = a + [0.0] * (n - len(a)), b + [0.0] * (n - len(b))
        residuals.append(lr_sum(abs(x - y) for x, y in zip(a, b)))
    tail_res = abs(t.tail.limit - k.tail.limit)
    return residuals, tail_res, max(max(residuals, default=0.0), tail_res)


def _ref_l1_draws(t, trials: int, seed: int):
    """``(column samples, tail samples)`` of the random l1 competitors of
    ``competitor_search``, drawn column by column, each single-entry tail
    column as its own ``(trials, 1)`` draw; row ``i`` of the tail samples
    holds the draws of the ``i``-th tail column."""
    rng = np.random.default_rng(seed)
    cols, tail = [], []
    for col in t.columns:
        cand = rng.uniform(-0.9, 0.9, (trials, max(len(col), 1)))
        cols.append(cand / np.maximum(np.sum(np.abs(cand), axis=1), 1.0)[:, None])
    for _ in range(len(t.tail_weights) + 2):
        tail.append(rng.uniform(-1.0, 1.0, (trials, 1))[:, 0])
    return cols, np.array(tail)


def _ref_l1_residuals(t, cols, tail) -> np.ndarray:
    """Residual norms of l1 candidates, column by column: ``cols[j]`` holds
    the samples ``(batch, width)`` of explicit column ``j + 1``, row ``i``
    of ``tail`` those of the ``i``-th tail column."""
    residuals = np.full(tail.shape[1], abs(t.tail.limit))
    for col, cand in zip(t.columns, cols):
        target = np.zeros(cand.shape[1])
        target[: len(col)] = col
        residuals = np.maximum(residuals, np.sum(np.abs(target[None, :] - cand), axis=1))
    for i, row in enumerate(tail):
        residuals = np.maximum(residuals, np.abs(t.tail_weight(len(t.columns) + 1 + i) - row))
    return residuals


def ref_l1_trials(t, trials: int, seed: int):
    """``(residuals, tail samples)`` of the random l1 competitors of
    ``competitor_search`` (:func:`_ref_l1_draws`)."""
    cols, tail = _ref_l1_draws(t, trials, seed)
    return _ref_l1_residuals(t, cols, tail), tail


def ref_l1_search(t, trials: int, seed: int):
    """``(best_found, best_kind, columns, tail weights)`` of an exhaustive
    l1 ``competitor_search``: the search's fixed candidates, then every
    trial, scored column by column; the first minimum wins."""
    from ballapprox import best_ball_approx_l1, oracles

    construction = best_ball_approx_l1(t).approximant
    kinds, (fixed_cols, fixed_tail) = oracles._fixed_candidates(t, construction)[:2]
    cols, tail = _ref_l1_draws(t, trials, seed)
    scores = np.concatenate([_ref_l1_residuals(t, fixed_cols, fixed_tail),
                             _ref_l1_residuals(t, cols, tail)])
    i = int(np.argmin(scores))
    if i < len(kinds):
        return float(scores[i]), kinds[i], [c[i] for c in fixed_cols], fixed_tail[:, i]
    j = i - len(kinds)
    return float(scores[i]), "random", [c[j] for c in cols], tail[:, j]


def same_bits(a, b) -> bool:
    """Equal as float64 bit patterns (so 0.0 and -0.0 differ)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _ref_matrix_trial(t, best, trials: int, seed: int, head, i: int) -> np.ndarray:
    """``C_i`` of trial ``i`` of a matrix ``competitor_search``
    (:func:`ref_matrix_draws`), whose first column of ``G_i`` is ``head``."""
    n, vt = len(t.entries), t._svd[2]
    sd, mean = (0.6 / np.sqrt(n), np.zeros((n, n))) if i < trials // 2 else (
        0.3 / np.sqrt(n), best.entries @ vt.T)
    keyed = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
    return np.column_stack([head, keyed.standard_normal((n, n - 1))]) * sd + mean


def ref_matrix_draws(t, best, trials: int, seed: int):
    """``(first columns, raw draws)`` of every trial of a matrix
    ``competitor_search``, built one trial at a time: trial ``i`` is ``M_i =
    C_i V^T``, with ``V^T`` from the SVD memoised on ``t``, and ``C_i = sd G_i
    + mean``: ``sd = 0.6 / sqrt(n)`` and ``mean = 0`` in the free half,
    ``sd = 0.3 / sqrt(n)`` and ``mean = B V`` (``B`` the entries of ``best``)
    after it.  Column 1 of every ``G_i`` comes from one ``default_rng(seed)``
    stream, in trial order; columns 2..n of ``G_i`` from
    ``default_rng(SeedSequence(seed, spawn_key=(i,)))``.  The first columns
    are those of the ``C_i``."""
    n = len(t.entries)
    heads = np.random.default_rng(seed).standard_normal((trials, n))
    cols, mats = np.empty((trials, n)), np.empty((trials, n, n))
    for i in range(trials):
        c = _ref_matrix_trial(t, best, trials, seed, heads[i], i)
        cols[i], mats[i] = c[:, 0], c @ t._svd[2]
    return cols, mats


def ref_entry_rows(t, best, trials: int, rng) -> np.ndarray:
    """The in-ball trial rows of a diagonal or shift ``competitor_search``
    in one batch: the free half, then the half perturbing ``best``."""
    from ballapprox.models import _slots

    width, n_free = len(t.explicit) + 4, trials // 2
    opt = _slots(best.explicit, best.tail, 0, width)
    free = rng.uniform(-1.1, 1.1, (n_free, width))
    rows = np.concatenate([free, opt + rng.uniform(-0.6, 0.6, (trials - n_free, width))])
    return rows / np.maximum(np.max(np.abs(rows), axis=1), 1.0)[:, None]


def _first_minimum(kinds, candidates, scores):
    """``(score, kind, candidate)`` of the first minimum; the candidates
    after the named fixed ones are the random trials."""
    i = int(np.argmin(scores))
    return float(scores[i]), kinds[i] if i < len(kinds) else "random", candidates[i]


_MATRIX_SCORES = {}


def ref_matrix_search(t, trials: int, seed: int):
    """``(best_found, best_kind, best candidate array)`` of an exhaustive
    matrix ``competitor_search``: the same draws, every one scaled into
    the ball by LAPACK's ``sigma_1`` and scored by LAPACK's ``sigma_1(T - K)``,
    after the search's fixed candidates; the first minimum wins.

    Each matrix is decomposed alone, so no fixed candidate changes the
    trials' scores: they are drawn and scored once per ``(T, V, B,
    trials, seed)`` and kept for the session, with the factors that scale
    them into the ball, and a winning trial alone is drawn again."""
    from ballapprox import best_ball_approx_h, oracles

    construction = best_ball_approx_h(t).approximant
    key = (t.entries.tobytes(), t._svd[2].tobytes(), construction.entries.tobytes(),
           trials, seed)
    if key not in _MATRIX_SCORES:
        raw = ref_matrix_draws(t, construction, trials, seed)[1]
        tops = np.maximum(np.linalg.svd(raw, compute_uv=False)[:, 0], 1.0)
        raw /= tops[:, None, None]
        _MATRIX_SCORES[key] = tops, np.linalg.svd(t.entries - raw, compute_uv=False)[:, 0]
    tops, trial_scores = _MATRIX_SCORES[key]
    kinds, fixed = oracles._fixed_candidates(t, construction)[:2]
    scores = np.concatenate([np.linalg.svd(t.entries - fixed, compute_uv=False)[:, 0],
                             trial_scores])
    i = int(np.argmin(scores))
    if i < len(kinds):
        return float(scores[i]), kinds[i], fixed[i]
    j = i - len(kinds)
    head = np.random.default_rng(seed).standard_normal((trials, len(t.entries)))[j]
    c = _ref_matrix_trial(t, construction, trials, seed, head, j)
    return float(scores[i]), "random", (c @ t._svd[2]) / tops[j]


def ref_entry_search(t, trials: int, seed: int):
    """``(best_found, best_kind, best candidate row)`` of a diagonal or
    shift ``competitor_search`` drawn and scored in one batch: ``max |t -
    k|`` over the window, then ``ess_norm(t)``, after the search's fixed
    candidates; the first minimum wins."""
    from ballapprox import best_ball_approx_h, oracles
    from ballapprox.models import _slots

    construction = best_ball_approx_h(t).approximant
    rows = ref_entry_rows(t, construction, trials, np.random.default_rng(seed))
    kinds, fixed = oracles._fixed_candidates(t, construction)[:2]
    candidates = np.concatenate([fixed, rows])
    diff = _slots(t.explicit, t.tail, 0, rows.shape[1]) - candidates
    scores = np.maximum(np.max(np.abs(diff), axis=1), abs(t.tail.limit))
    return _first_minimum(kinds, candidates, scores)


def ref_orthogonalize_columns(w):
    """``jacobi._orthogonalize_columns`` walked round by round: a sweep
    ends the iteration only after every round found nothing to rotate.
    Returns the rotated columns."""
    from ballapprox import jacobi
    from ballapprox.jacobi import (
        ORTHOGONALITY_TOL,
        NumericError,
        _round_indices,
        _round_rotation,
    )

    n = w.shape[1]
    zero_norm = n * np.finfo(float).eps * float(np.hypot.reduce(w.ravel()))
    zero_sq = zero_norm * zero_norm
    g, eye = w.T @ w, np.eye(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(jacobi.MAX_SWEEPS + 1):
            rotated = False
            for read, write in _round_indices(n):
                rot = _round_rotation(g, read, write, eye, ORTHOGONALITY_TOL, zero_sq)
                if rot is not None:
                    rotated = True
                    w = w @ rot
                    g = w.T @ w
            if not rotated:
                return w
    raise NumericError(f"no rotation-free sweep in {jacobi.MAX_SWEEPS + 1}")


def soft_threshold_approx(t: HilbertOperator):
    """Every entry shrunk toward zero by ``d = ball_distance(t)``, with a
    const 0 tail (for a finite matrix: the soft map of ``oracles._sv_map``),
    certified: an optimal approximant other than ``best_ball_approx_h``'s."""
    from ballapprox.hilbert import _soft
    from ballapprox.models import Branch, make_result
    from ballapprox.oracles import _sv_map

    d = ball_distance(t)
    if t.shape is Shape.FINITE_MATRIX:
        k = HilbertOperator.finite_matrix(_sv_map(t)[1])
    else:  # every tail entry sits within d of 0 by the distance formula
        k = HilbertOperator(t.shape, _soft(t.explicit, d), TailRule.const(0.0))
    return make_result(t, k, Branch.COMPACT_INPUT if d == 0.0 else Branch.SMALL_NORM)


def ref_spread(space: str, pts) -> float:
    """Largest distance between two rows of ``pts`` (n x d) under the l1, l2
    or sup norm: every pairwise difference in one n x n x d array, each of
    its n * n rows reduced by numpy's ``sum`` or ``max``."""
    diffs = np.asarray(pts)[:, None, :] - np.asarray(pts)[None, :, :]
    diffs = diffs.reshape(-1, diffs.shape[-1])
    if space == "l1":
        return float(np.sum(np.abs(diffs), axis=1).max())
    if space == "l2":
        return float(np.sqrt(np.sum(diffs * diffs, axis=1)).max())
    return float(np.max(np.abs(diffs), axis=1).max())
