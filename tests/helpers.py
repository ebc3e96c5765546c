"""Seeded instance generators shared by unit and acceptance tests, a
scalar reference for the model layer's whole-array arithmetic, a
second optimal l2 approximant that cross-checks the construction, and
the seeded sampler of near-minimizers around a radial projection (with
its pairwise spread and that spread's whole-array reference), which the
closed-form projection check must dominate."""

from __future__ import annotations

import math

import numpy as np

from ballapprox import HilbertOperator, L1Operator, Shape, Space, TailKind, TailRule, ball_distance


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


def ref_l1_mass(values) -> float:
    """Mass of a column, one Python float at a time, left to right: the
    order of the library's column masses and of the search's scores."""
    return lr_sum(abs(float(v)) for v in values)


# Seeded random in-ball competitors of each model class, and exhaustive
# searches that score them after competitor_search's fixed candidates: a
# sampled falsification that the search's lower bound must survive.


def _ref_l1_draws(t, trials: int, seed: int) -> list:
    """Random l1 competitors, ``(columns, window)`` each, drawn one trial at
    a time from one ``default_rng(seed)`` stream: every explicit column in
    turn, ``len(col)`` entries uniform on ``[-0.9, 0.9]`` divided by
    ``max(mass, 1)`` (an empty column draws nothing), then the
    ``len(t.tail_weights) + 2`` window slots, uniform on ``[-1, 1]``."""
    rng, draws = np.random.default_rng(seed), []
    for _ in range(trials):
        cols = []
        for col in t.columns:
            cand = rng.uniform(-0.9, 0.9, len(col))
            cols.append(cand / max(ref_l1_mass(cand), 1.0))
        draws.append((cols, rng.uniform(-1.0, 1.0, len(t.tail_weights) + 2)))
    return draws


def _ref_l1_residual(t, cols, window) -> float:
    """Residual norm of one l1 candidate, column by column: the largest of
    the residual masses of the explicit columns (:func:`ref_l1_mass`), of
    ``|w - k|`` over the window and of ``|limit|``."""
    residual = abs(t.tail.limit)
    for col, cand in zip(t.columns, cols):
        residual = max(residual, ref_l1_mass([float(a) - float(b) for a, b in zip(col, cand)]))
    for i, k in enumerate(window):
        residual = max(residual, abs(t.tail_weight(len(t.columns) + 1 + i) - float(k)))
    return residual


def _ref_l1_split(t, row):
    """``(columns, window)`` of a flat candidate row: the support of each
    explicit column of ``t`` in turn, then the window."""
    cols, start = [], 0
    for col in t.columns:
        cols.append(row[start : start + len(col)])
        start += len(col)
    return cols, row[start:]


def ref_l1_trials(t, trials: int, seed: int):
    """``(residuals, rows)`` of the random l1 competitors
    (:func:`_ref_l1_draws`), each trial as one flat row in the form of
    ``t._row_layout``: its columns end to end, then its window."""
    draws = _ref_l1_draws(t, trials, seed)
    rows = np.array([np.concatenate([*cols, window]) for cols, window in draws])
    return np.array([_ref_l1_residual(t, *draw) for draw in draws]), rows


def ref_l1_search(t, trials: int, seed: int):
    """``(best_found, best_kind, columns, tail weights)`` of an exhaustive
    l1 search: ``competitor_search``'s fixed candidates, then every trial of
    :func:`_ref_l1_draws`, scored one at a time, column by column; the first
    minimum wins."""
    from ballapprox import best_ball_approx_l1, oracles

    construction = best_ball_approx_l1(t).approximant
    kinds, fixed = oracles._search_of(t).fixed(t, construction)
    candidates = [_ref_l1_split(t, row) for row in fixed] + _ref_l1_draws(t, trials, seed)
    scores = [_ref_l1_residual(t, *c) for c in candidates]
    found, kind, (cols, window) = _first_minimum(kinds, candidates, scores)
    return found, kind, cols, window


def same_bits(a, b) -> bool:
    """Equal as float64 bit patterns (so 0.0 and -0.0 differ)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _ref_matrix_trial(t, best, trials: int, seed: int, head, i: int) -> np.ndarray:
    """``C_i`` of matrix trial ``i`` (:func:`ref_matrix_draws`), whose first
    column of ``G_i`` is ``head``."""
    n, vt = len(t.entries), t._svd[2]
    sd, mean = (0.6 / np.sqrt(n), np.zeros((n, n))) if i < trials // 2 else (
        0.3 / np.sqrt(n), best.entries @ vt.T)
    keyed = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
    return np.column_stack([head, keyed.standard_normal((n, n - 1))]) * sd + mean


def ref_matrix_draws(t, best, trials: int, seed: int):
    """``(first columns, raw draws)`` of random matrix trials, built one
    trial at a time: trial ``i`` is ``M_i = C_i V^T``, with ``V^T`` from the
    SVD memoised on ``t``, and ``C_i = sd G_i + mean``: ``sd = 0.6 /
    sqrt(n)`` and ``mean = 0`` in the free half, ``sd = 0.3 / sqrt(n)`` and
    ``mean = B V`` (``B`` the entries of ``best``) after it.  Column 1 of
    every ``G_i`` comes from one ``default_rng(seed)`` stream, in trial
    order; columns 2..n of ``G_i`` from ``default_rng(SeedSequence(seed,
    spawn_key=(i,)))``.  The first columns are those of the ``C_i``.  The
    competitor of a draw ``M`` is ``M / max(sigma_1(M), 1)``."""
    n = len(t.entries)
    heads = np.random.default_rng(seed).standard_normal((trials, n))
    cols, mats = np.empty((trials, n)), np.empty((trials, n, n))
    for i in range(trials):
        c = _ref_matrix_trial(t, best, trials, seed, heads[i], i)
        cols[i], mats[i] = c[:, 0], c @ t._svd[2]
    return cols, mats


def ref_entry_rows(t, best, trials: int, rng) -> np.ndarray:
    """Random in-ball diagonal or shift competitors, one row each over the
    first ``len(t.explicit) + 4`` slots: the free half, then the half
    perturbing ``best``."""
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
    matrix search: the draws of :func:`ref_matrix_draws`, every one scaled
    into the ball by LAPACK's ``sigma_1`` and scored by LAPACK's
    ``sigma_1(T - K)``, after ``competitor_search``'s fixed candidates; the
    first minimum wins.

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
    kinds, fixed = oracles._search_of(t).fixed(t, construction)
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
    """``(best_found, best_kind, best candidate row)`` of an exhaustive
    diagonal or shift search, the trials of :func:`ref_entry_rows` scored
    in one batch: ``max |t - k|`` over the window, then ``ess_norm(t)``,
    after ``competitor_search``'s fixed candidates; the first minimum wins."""
    from ballapprox import best_ball_approx_h, oracles
    from ballapprox.models import _slots

    construction = best_ball_approx_h(t).approximant
    rows = ref_entry_rows(t, construction, trials, np.random.default_rng(seed))
    kinds, fixed = oracles._search_of(t).fixed(t, construction)
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
        k = HilbertOperator.finite_matrix(_sv_map(t)[0])
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


def extreme_coords(space, dim: int, rng) -> tuple:
    """A random extreme point of the unit ball of ``space`` in R^dim."""
    if space is Space.L1:
        coords = [0.0] * dim
        coords[int(rng.integers(dim))] = float(rng.choice([-1.0, 1.0]))
        return tuple(coords)
    if space is Space.L2:
        g = rng.standard_normal(dim)
        return tuple(float(c) for c in g / np.linalg.norm(g))
    return tuple(float(c) for c in rng.choice([-1.0, 1.0], dim))


# The seeded sampler that verify_unique_projection used before its closed
# forms: the reference that the exact radius must dominate.


def _ball_samples(space, dim: int, n: int, rng) -> np.ndarray:
    """Roughly uniform samples from the unit ball, n x dim."""
    if space is Space.LINF:
        return rng.uniform(-1.0, 1.0, (n, dim))
    if space is Space.L2:
        return _boundary_samples(space, dim, n, rng) * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / dim)
    mass = rng.exponential(1.0, (n, dim))
    mass /= space.norm_rows(mass)[:, None]
    radius = rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / dim)
    signs = 2.0 * rng.integers(0, 2, (n, dim)) - 1.0
    return signs * mass * radius


def _boundary_samples(space, dim: int, n: int, rng) -> np.ndarray:
    if space is Space.LINF:
        pts = rng.uniform(-1.0, 1.0, (n, dim))
        idx = rng.integers(0, dim, n)
        pts[np.arange(n), idx] = 2.0 * rng.integers(0, 2, n) - 1.0
        return pts
    if space is Space.L2:
        g = rng.standard_normal((n, dim))
        g /= np.maximum(space.norm_rows(g), 1e-300)[:, None]
        return g
    mass = rng.exponential(1.0, (n, dim))
    mass /= space.norm_rows(mass)[:, None]
    return (2.0 * rng.integers(0, 2, (n, dim)) - 1.0) * mass


def _pull_into_ball(space, pts: np.ndarray) -> np.ndarray:
    if space is Space.LINF:
        return np.clip(pts, -1.0, 1.0)
    norms = space.norm_rows(pts)
    factor = np.where(norms > 1.0, 1.0 / np.maximum(norms, 1e-300), 1.0)
    return pts * factor[:, None]


def _spread(space, pts: np.ndarray) -> float:
    """Largest distance between two rows of ``pts`` (n x d, n <= 202).

    l1 and l2 add ``|c_i - c_j|`` or ``(c_i - c_j)**2`` into one n x n array,
    one coordinate at a time and left to right as :meth:`Space.norm_rows`
    sums, never holding an n x n x d one; l2 takes the root of the largest
    sum only, which is the largest root bit for bit, since the square root
    is monotone and correctly rounded.
    """
    if space is Space.LINF:
        # fl(a - b) rises with a and falls with b, so each coordinate's
        # largest pairwise difference is its max minus its min: same bits
        return float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    acc = np.zeros((len(pts), len(pts)))
    for c in pts.T:
        diff = np.subtract.outer(c, c)
        acc += np.multiply(diff, diff, out=diff) if space is Space.L2 else np.abs(diff, out=diff)
    top = float(acc.max())
    return math.sqrt(top) if space is Space.L2 else top


def ref_sampled_projection(alpha: float, point, samples: int, seed: int, tol: float) -> dict:
    """The sampled check of a radial projection: ``samples`` ball points
    (generic, boundary, and a cluster of half-side ``radius_bound`` around
    the projection, plus the projection itself), their smallest distance
    from ``alpha * e``, and among the near-minimizers (computed distance
    within ``|alpha| - 1 + tol - 2 r``) their count, the largest distance
    from the projection, the point at it, and the spread of a strided
    subset.  Every radius it finds is a lower bound on the true one."""
    space, dim = point.space, point.dim
    e = np.array(point.coords)
    target = alpha * e
    proj = (1.0 if alpha > 0 else -1.0) * e
    lower = abs(alpha) - 1.0
    tol_l2 = math.sqrt(2.0 * tol + tol * tol) + 1e-9
    bound = tol_l2 if space is Space.L2 else tol + 1e-9
    r = (dim + 4) * np.finfo(float).eps * (abs(alpha) + 1.0)

    rng = np.random.default_rng(seed)
    n_generic = (6 * samples) // 10
    n_face = (2 * samples) // 10
    n_local = samples - n_generic - n_face
    local = proj[None, :] + rng.uniform(-1.0, 1.0, (n_local, dim)) * bound
    pts = np.vstack(
        [
            _ball_samples(space, dim, n_generic, rng),
            _boundary_samples(space, dim, n_face, rng),
            _pull_into_ball(space, local),
            proj[None, :],
        ]
    )
    dists = space.norm_rows(target[None, :] - pts)
    near = pts[dists <= lower + tol - 2.0 * r]
    offsets = space.norm_rows(near - proj[None, :])
    far = int(np.argmax(offsets)) if len(near) else None
    spread = 0.0
    if len(near) >= 2:
        stride = max(len(near) // 200, 1)
        spread = _spread(space, np.vstack([near[::stride][:201], near[far]]))
    return {
        "min_distance": float(dists.min()),
        "near_count": len(near),
        "radius": float(offsets[far]) if len(near) else 0.0,
        "worst_offender": near[far] if len(near) else proj,
        "spread": spread,
    }
