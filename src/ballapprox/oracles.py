"""Independent checks for the closed-form distance claims.

Three oracles, deliberately built on different machinery than the
constructions they certify:

* :func:`competitor_search` tries to beat a claimed distance with
  randomly sampled in-ball compact competitors from the same model
  class, after scoring the deterministic candidates;
* :func:`svd_clip_oracle` solves the finite matrix case directly by
  clipping singular values at 1 and cross-checks the construction;
* :func:`finite_section_bounds` turns leading compressions into
  certified lower bounds, which can approach ``op_norm - 1`` but never
  certify the essential-norm part of the distance.

Apart from the construction, every candidate is built here from the
input's data with numpy, the matrix ones from the LAPACK SVD ``(u, s,
vt)`` memoised on ``T`` (one decomposition of ``T`` for the library and
the oracles); Jacobi serves only the library's norm of ``T``,
preconditioned by that SVD's ``V``.  Sharing it cannot make a wrong
answer pass: a ``V`` that is not orthogonal is caught by the norm's
guard, a wrong but orthogonal ``V`` only costs Jacobi rotations, and a
wrong ``s`` or ``u`` only gives a worse candidate, because every
candidate is scored by a fresh LAPACK ``sigma_1(T - K)``.  The search
scores its candidates, the construction included, by one numpy function
per model class, apart from the library's own residual code: LAPACK's
largest singular value for matrices, the window of entry or column
residuals for the other models.  Next to each score function sits a floor
that no random trial's computed score falls below: 0 for a matrix, a
singular value; ``max(fl(max |w| - 1), ess)`` for the other models, over
the window ``w`` of the entries of a diagonal or shift model or of the
weights of the single-entry tail columns of an l1 model, because every
trial entry there lies in ``[-1, 1]`` and rounding is monotone (the l1
column masses are left out: rounding can put a sum either side of its
bound).  A search whose best fixed score is at or below its floor draws
no trial: only a strictly lower score replaces the best, so no trial
could.  A random matrix trial is ``C V^T``, with ``V`` from the SVD of
``T``; its first column ``C e_1``, which stands in for its product with
``T``'s top right singular vector ``v_1``, bounds its score below without
an SVD of its own, and only the trials that could beat the best fixed
candidate are drawn in full and decomposed.  The margin of ``IDENTITY_TOL
* (1 + sigma_1(T))`` covers the rounding and the defect of ``V`` allowed
by the guard of ``T``'s norm, so a dropped trial could never be the first
minimum and the report is that of scoring every trial.  The diagonal, shift and matrix trials are drawn, bounded, scaled
and scored one chunk of at most ``SVD_CHUNK_ENTRIES`` entries at a time,
so the search holds one chunk of trials whatever their number or width;
l1 trials are drawn in one batch.  Section norms use ``numpy.linalg``
too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hilbert import _soft, best_ball_approx_h
from .l1 import best_ball_approx_l1
from .models import (
    IDENTITY_TOL,
    CertificationError,
    HilbertOperator,
    L1Operator,
    Operator,
    Shape,
    TailRule,
    ValidationError,
    _nearly_orthogonal,
    _require_finite,
    _require_int,
    _slots,
    ball_distance,
    ess_norm,
    finite_section,
)

__all__ = [
    "CertificationError",
    "SearchReport",
    "competitor_search",
    "svd_clip_oracle",
    "finite_section_bounds",
]

DEFAULT_TOL = 1e-10

#: Entries per chunk of random diagonal, shift or matrix trials (1 MiB of
#: float64, at least one trial): the search draws, bounds, scales and
#: scores one chunk at a time.
SVD_CHUNK_ENTRIES = 1 << 17


def _require_tol(tol) -> float:
    """The one check for a comparison tolerance from outside: a finite real >= 0."""
    tol = _require_finite(tol, "tol")
    if tol < 0.0:
        raise ValidationError(f"tol must be nonnegative, got {tol}")
    return tol


@dataclass(frozen=True)
class SearchReport:
    claimed: float
    best_found: float
    attained: bool
    beaten: bool
    passed: bool
    trials: int
    seed: int
    tol: float
    best_kind: str
    best_candidate: Optional[Operator]


def _sv_map(t: HilbertOperator):
    """``(sigma_1, soft, clip, v_1)`` from LAPACK's SVD of the matrix of
    ``t``, memoised on ``t``: the singular values of ``u @ diag(.) @ vt``
    are those of ``t`` shrunk toward zero by ``max(sigma_1 - 1, 0)`` and
    clipped at 1, both at most 1; ``v_1`` is the top right singular
    vector."""
    u, sv, vt = t._svd
    soft = _soft(sv, max(sv[0] - 1.0, 0.0))
    return float(sv[0]), (u * soft) @ vt, (u * np.minimum(sv, 1.0)) @ vt, vt[0]


def _fixed_candidates(t: Operator, construction: Operator):
    """The named fixed candidates ``(kinds, batch, top)`` of a search, in
    the array form of its random trials: the construction, in-ball maps
    of the data of ``t`` built here with numpy, and, but for a matrix, the
    zero operator; for a matrix, ``top`` is ``(sigma_1, v_1)`` of ``t``
    from the same SVD (``None`` for the other models).

    A matrix has no zero candidate: it would score LAPACK's ``sigma_1(T)``
    by a second decomposition of ``T``, while the construction listed
    before it scores ``sigma_1(T - T / max(sigma_1, 1))``, exactly 0 when
    the construction is ``T`` and about ``sigma_1 - 1`` otherwise, so zero
    could come first only by a rounding-level tie (``sigma_1`` near
    ``1 / (n * eps)``, about 1e14)."""
    if isinstance(t, L1Operator):
        cols = [np.array([k, col * min(1.0, 1.0 / max(mass, 1e-300)), np.zeros(len(col))])
                for k, col, mass in zip(construction.columns, t.columns, t.column_masses.tolist())]
        n_listed, tail = len(t.tail_weights), np.zeros((len(t.tail_weights) + 2, 3))
        tail[:, 0] = _slots(construction.tail_weights, construction.tail, 0, n_listed + 2)
        tail[:n_listed, 1] = np.clip(t.tail_weights, -1.0, 1.0)
        return ["construction", "column_scaling", "zero"], (cols, tail), None
    if t.shape is Shape.FINITE_MATRIX:
        sigma_1, soft, clip, v_1 = _sv_map(t)
        batch = np.array([construction.entries, soft, clip])
        return ["construction", "soft_threshold", "sv_clip"], batch, (sigma_1, v_1)
    x = t.explicit
    rows = np.zeros((4, len(x) + 4))
    rows[0] = _slots(construction.explicit, construction.tail, 0, len(x) + 4)
    rows[1, : len(x)], rows[2, : len(x)] = _soft(x, ball_distance(t)), np.clip(x, -1.0, 1.0)
    return ["construction", "soft_threshold", "entry_clip", "zero"], rows, None


def _build(t: Operator, batch, i: int) -> Operator:
    """Candidate ``i`` of a batch in the array form of the trials of
    ``t``, as an operator with a const 0 tail."""
    if isinstance(t, L1Operator):
        return L1Operator(tuple(c[i] for c in batch[0]), batch[1][:, i], TailRule.const(0.0))
    if t.shape is Shape.FINITE_MATRIX:
        return HilbertOperator.finite_matrix(batch[i])
    return HilbertOperator(t.shape, batch[i], TailRule.const(0.0))


def _scorer(t: Operator):
    """``(score, floor)`` for the model class of ``t``: ``score`` maps a
    batch of candidates ``k`` in the array form of its random trials to the
    residual norms ``||t - k||``; ``floor`` is a value that no random
    trial's computed score falls below.  What no batch changes is computed
    here, once.

    The floor of a diagonal or shift model is ``max(fl(max |w| - 1), ess)``
    over the window ``w`` of its entries, and that of an l1 model the same
    over the weights of its single-entry tail columns.  Every trial entry
    there lies in ``[-1, 1]``, and round-to-nearest is monotone and odd, so
    at the largest ``|w_j|`` the computed ``|w_j - r_j|`` is at least
    ``fl(|w_j| - 1)``; a score is the largest of its residuals and ``ess``.
    The l1 column masses are left out: their bound ``mass - 1`` compares two
    rounded sums of different terms, which rounding can put either way.  A
    matrix score is a singular value, so its floor is 0.  The floors read
    only the input's data, not the library's norm."""
    if isinstance(t, L1Operator):
        window = _slots(t.tail_weights, t.tail, 0, len(t.tail_weights) + 2)
        return (lambda batch: _score_l1(t, window, *batch)), _floor(window, ess_norm(t))
    if t.shape is Shape.FINITE_MATRIX:
        return (lambda mats: _score_matrices(t, mats)), 0.0
    # diagonal and shift models: max |t - k| over the window of the rows,
    # then ess_norm(t), which bounds |t| beyond it
    window, ess = _slots(t.explicit, t.tail, 0, len(t.explicit) + 4), ess_norm(t)

    def score(rows: np.ndarray) -> np.ndarray:
        diff = window - rows
        return np.maximum(np.max(np.abs(diff, out=diff), axis=1), ess)

    return score, _floor(window, ess)


def _floor(window: np.ndarray, ess: float) -> float:
    """``max(fl(max |window| - 1), ess)``, the floor of :func:`_scorer` for
    trial entries in ``[-1, 1]``."""
    return max(float(np.max(np.abs(window))) - 1.0, ess)


def _score_matrices(t: HilbertOperator, mats: np.ndarray) -> np.ndarray:
    """Finite matrices: LAPACK's ``sigma_1(T - K)`` (each matrix decomposed
    alone: the same values in any batch)."""
    return np.linalg.svd(t.entries - mats, compute_uv=False)[:, 0]


def _score_l1(t: L1Operator, window: np.ndarray, col_samples: list,
              tail: np.ndarray) -> np.ndarray:
    """L1 models: the largest of the residual column masses (numpy sums),
    ``|window - k|`` over the ``(n_tail, batch)`` tail samples ``k``, where
    ``window`` holds the weights of the first ``n_tail`` tail columns of
    ``t``, and ``ess_norm(t)`` beyond them."""
    scores = np.full(tail.shape[1], ess_norm(t))
    for col, cand in zip(t.columns, col_samples):
        diff = np.concatenate([col, np.zeros(cand.shape[1] - len(col))]) - cand
        scores = np.maximum(scores, np.sum(np.abs(diff, out=diff), axis=1))
    diff = window[:, None] - tail
    return np.maximum(scores, np.max(np.abs(diff, out=diff), axis=0))


def _trial_chunks(trials: int, shape: tuple):
    """Consecutive views of one buffer of trials of ``shape`` with at most
    ``SVD_CHUNK_ENTRIES`` entries (at least one trial) each, covering
    ``trials`` trials, with the number of trials of each chunk that fall
    in the first, free half (``trials // 2``); a chunk may span both
    halves.  The buffer is overwritten by the next chunk."""
    step = max(1, SVD_CHUNK_ENTRIES // int(np.prod(shape)))
    buf = np.empty((min(step, trials),) + shape)
    n_free = trials // 2
    for s in range(0, trials, step):
        e = min(s + step, trials)
        yield buf[: e - s], min(max(n_free - s, 0), e - s)


def _random_entry_competitors(t: HilbertOperator, best: HilbertOperator, trials: int, rng):
    """Random diagonal/shift competitors in chunks (:func:`_trial_chunks`):
    each row is an in-ball competitor on the first ``len(t.explicit) + 4``
    slots with const 0 tail; the second half perturb the construction
    ``best``.  The rows of all chunks are those of one whole draw."""
    width = len(t.explicit) + 4
    opt = _slots(best.explicit, best.tail, 0, width)  # best has a const 0 tail
    for rows, n_free in _trial_chunks(trials, (width,)):
        rows[:n_free] = rng.uniform(-1.1, 1.1, (n_free, width))
        np.add(opt, rng.uniform(-0.6, 0.6, (len(rows) - n_free, width)), out=rows[n_free:])
        rows /= np.maximum(np.max(np.abs(rows), axis=1), 1.0)[:, None]
        yield rows


def _random_matrix_draws(t: HilbertOperator, best: HilbertOperator, trials: int,
                         seed: int, keep):
    """Raw ``n x n`` draws ``M_i = C_i V^T`` of the trials that ``keep``
    selects, in chunks (:func:`_trial_chunks`), in trial order; the
    competitor of ``M`` is ``M / max(sigma_1(M), 1)`` (:func:`_into_ball`).

    ``V`` is the right factor of the SVD memoised on ``t``, ``G_i`` is
    standard normal, and ``C_i`` is ``0.6 / sqrt(n) G_i`` in the first,
    free half and ``B V + 0.3 / sqrt(n) G_i`` in the half perturbing
    ``best``, whose entries are ``B``: for an orthogonal ``V``, ``G_i V^T``
    is standard normal too, so ``M_i`` has the law of ``0.6 / sqrt(n) G``
    or ``B + 0.3 / sqrt(n) G``.  Each chunk draws the first columns ``C_i
    e_1`` of its trials from ``default_rng(seed)``, in trial order, and
    ``keep`` maps them, ``(trials of the chunk, n)``, to a boolean mask.
    The other columns of a kept trial ``i`` come from its own generator,
    keyed by ``SeedSequence(seed, spawn_key=(i,))``, so a trial is the same
    whichever others are kept and whatever the chunk size.  The buffer is
    overwritten by the next chunk."""
    n = len(t.entries)
    vt = t._svd[2]
    sd = np.array([0.6, 0.3]) / np.sqrt(n)  # free, near
    mean = np.stack([np.zeros((n, n)), best.entries @ vt.T])  # of C: 0, B V
    rng, first = np.random.default_rng(seed), 0
    for mats, n_free in _trial_chunks(trials, (n, n)):
        near = (np.arange(len(mats)) >= n_free).astype(int)
        cols = rng.standard_normal((len(mats), n)) * sd[near, None] + mean[near, :, 0]
        kept = np.flatnonzero(keep(cols))
        for m, j in zip(mats, kept):
            keyed = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(first + j,)))
            m[:, 0] = cols[j]
            m[:, 1:] = keyed.standard_normal((n, n - 1)) * sd[near[j]] + mean[near[j], :, 1:]
            m[...] = m @ vt
        first += len(mats)
        yield mats[: len(kept)]


def _into_ball(mats: np.ndarray) -> np.ndarray:
    """Each draw ``M`` divided in place by ``max(sigma_1(M), 1)``, with
    LAPACK's ``sigma_1`` (each matrix decomposed alone)."""
    top = np.linalg.svd(mats, compute_uv=False)[:, 0]
    mats /= np.maximum(top, 1.0)[:, None, None]
    return mats


def _trial_lower_bounds(tv: np.ndarray, mv: np.ndarray) -> np.ndarray:
    """Lower bounds on ``sigma_1(T - K)`` for the competitors ``K = M / s``,
    ``s = max(sigma_1(M), 1)``, of raw draws ``M``, from ``Tv`` and the rows
    ``Mv`` for one unit vector ``v``: as ``s >= max(|Mv|, 1)`` and ``|T - K|
    >= |Tv - Mv / s|``, the score is at least ``min |Tv - c Mv|`` over ``0
    <= c <= 1 / max(|Mv|, 1)``.  The minimising ``c`` is ``<Tv, Mv> /
    |Mv|^2``, clipped to that interval; the bound is the norm of the
    residual vector itself (``hypot``: no overflow, and no cancellation of
    a difference of squares)."""
    mv2 = np.einsum("ij,ij->i", mv, mv)
    c = np.divide(mv @ tv, mv2, out=np.zeros(len(mv)), where=mv2 > 0.0)
    np.clip(c, 0.0, 1.0 / np.maximum(np.sqrt(mv2), 1.0), out=c)
    return np.hypot.reduce(tv - c[:, None] * mv, axis=1)


def _possible_winners(t: HilbertOperator, top, best: float):
    """The ``keep`` of :func:`_random_matrix_draws` in a search whose best
    fixed score is ``best``: the mask of the trials, in a chunk of first
    columns ``C_i e_1``, whose competitors could score at most ``best``.
    ``top`` is LAPACK's ``(sigma_1, v_1)`` of ``T``.

    A trial is dropped when the bound of :func:`_trial_lower_bounds` on
    its first column exceeds ``best`` by more than ``IDENTITY_TOL * (1 +
    sigma_1)``.  The first column stands in for ``M v_1``: with ``E = V^T
    V - I``, ``M v_1 = C V^T v_1 = C e_1 + C E e_1``, and ``|C| <= sigma_1(M)
    (1 + |E| / 2)``.  So, divided by ``s``, the proxy is off ``K v_1`` by
    at most about ``|E|``, however large the columns that were not drawn,
    and ``1 / max(|C e_1|, 1)`` caps ``1 / s`` up to a factor ``1 + |E| /
    2``, which moves the bound by ``|E| / 2`` at most.  The guard of T's
    norm, ``|E|_F <= IDENTITY_TOL / 10`` as computed
    (:func:`~ballapprox.models._nearly_orthogonal`), keeps ``1.5 |E|_2``
    below 8.3e-13 at ``n = 64`` even if the rounding of ``V^T V`` (``n^2
    u``) hid that much of it.  The rounding of ``C V^T``, of the bound, of
    LAPACK's ``sigma_1`` of the draw (so of ``s``) and of ``T - K``, and
    the norm of ``v_1`` are each off by a few ``n * eps * (1 + ||T||)`` at
    most, below 1e-14 of it for ``n <= 64``: inside the margin, a dropped
    trial scores above ``best`` and could not have been the first minimum
    below it.  A ``V`` that fails the guard drops nothing.  (A search whose
    ``best`` is 0, the floor of a matrix score, draws no trial at all.)"""
    sigma_1, v_1 = top
    if not _nearly_orthogonal(t._svd[2]):
        return lambda cols: np.ones(len(cols), dtype=bool)
    tv, cutoff = t.entries @ v_1, best + IDENTITY_TOL * (1.0 + sigma_1)
    # a NaN bound drops nothing
    return lambda cols: ~(_trial_lower_bounds(tv, cols) > cutoff)


def _random_l1_competitors(t: L1Operator, trials: int, rng):
    """Random column-model competitors ``(column samples, tail samples)``:
    explicit columns on the input's support, then single-entry tail
    columns over the listed window plus two slots, one ``(n_tail, trials)``
    draw.  One batch, not chunks: the stream runs column by column across
    all trials, so a chunk of trials would have to skip through it
    (``PCG64.advance``)."""
    col_samples = []
    for col in t.columns:
        cand = rng.uniform(-0.9, 0.9, (trials, max(len(col), 1)))
        cand /= np.maximum(np.sum(np.abs(cand), axis=1), 1.0)[:, None]
        col_samples.append(cand)
    return col_samples, rng.uniform(-1.0, 1.0, (len(t.tail_weights) + 2, trials))


def competitor_search(
    t: Operator,
    claimed: Optional[float] = None,
    trials: int = 1000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> SearchReport:
    """Try to beat a claimed ball distance with sampled competitors.

    Samples ``trials`` random compact in-ball operators from the model
    class of ``t`` (half unconstrained, half perturbations of the
    optimal approximant).  These and the deterministic candidates, the
    construction included, are scored by the same numpy function, apart
    from the library's residual code; ``best_found`` is the first minimum
    of those scores.  A random matrix trial ``M = C V^T`` (``V`` from the
    SVD of ``t``) is drawn in full and scored only when the lower bound
    that its first column gives (:func:`_possible_winners`) comes within
    ``IDENTITY_TOL * (1 + sigma_1(t))`` of the best deterministic score:
    that margin covers the rounding of the bound and of LAPACK and the
    defect of ``V``, so a trial left out scores above that candidate,
    could not be the first minimum, and the report is the one of scoring
    every trial.  A trial's other columns come from a generator keyed by
    ``seed`` and its index, so it is the same whichever others are drawn.

    No trial is drawn at all when the best deterministic score is at or
    below the floor of the model class (:func:`_scorer`), a value that no
    trial's computed score falls below: 0 for matrices, and ``max(fl(max
    |w| - 1), ess)`` for the other models, over the window ``w`` of the
    entries or of the l1 tail-column weights, where every trial entry lies
    in ``[-1, 1]``.  Only a strictly lower score replaces the best, so the
    report is again the one of scoring every trial.  The floors read the
    input's data, not the library's norm, so a fixed candidate that beats
    an inflated claim is found all the same.

    Diagonal, shift and matrix trials are drawn, bounded, scaled and
    scored in chunks of at most ``SVD_CHUNK_ENTRIES`` entries (1 MiB),
    keeping only the running first minimum and its candidate, so memory
    does not grow with ``trials``; the draws do not depend on the chunk
    size and a strict ``<`` across chunks keeps the first minimum, so the
    report is the one of a single batch.  L1 trials are one batch.

    The report passes when nothing beats ``claimed`` by more than
    ``band`` and some candidate attains it within ``band``, where
    ``band = max(tol, IDENTITY_TOL * |claimed|)`` is no finer than the
    resolution at which :func:`~ballapprox.models.make_result` certifies
    a distance; the report keeps ``tol`` as given.
    """
    trials = _require_int(trials, "trials", 1)
    seed = _require_int(seed, "seed", 0)
    tol = _require_tol(tol)
    claimed = ball_distance(t) if claimed is None else _require_finite(claimed, "claimed")
    construct = best_ball_approx_l1 if isinstance(t, L1Operator) else best_ball_approx_h
    construction = construct(t).approximant
    # the fixed candidates, then the trials chunk by chunk: only a strictly
    # lower score replaces the best, so the first minimum wins
    score, floor = _scorer(t)
    kinds, fixed, top = _fixed_candidates(t, construction)
    scores = score(fixed)
    idx = int(np.argmin(scores))
    best_found, best_kind, best = float(scores[idx]), kinds[idx], _build(t, fixed, idx)
    if best_found <= floor:  # no trial can score strictly below the best
        chunks = ()
    elif isinstance(t, L1Operator):
        chunks = [_random_l1_competitors(t, trials, np.random.default_rng(seed))]
    elif top is not None:  # a matrix: draw in full only the trials that could win
        keep = _possible_winners(t, top, best_found)
        chunks = (_into_ball(mats) for mats in
                  _random_matrix_draws(t, construction, trials, seed, keep) if len(mats))
    else:
        chunks = _random_entry_competitors(t, construction, trials, np.random.default_rng(seed))
    for chunk in chunks:
        scores = score(chunk)
        if scores.min() < best_found:
            # built now, which copies the row: the next chunk reuses the buffer
            idx = int(np.argmin(scores))
            best_found, best_kind, best = float(scores[idx]), "random", _build(t, chunk, idx)

    band = max(tol, IDENTITY_TOL * abs(claimed))
    beaten = best_found < claimed - band
    attained = best_found <= claimed + band
    return SearchReport(
        claimed=claimed,
        best_found=float(best_found),
        attained=attained,
        beaten=beaten,
        passed=(not beaten) and attained,
        trials=trials,
        seed=seed,
        tol=tol,
        best_kind=best_kind,
        best_candidate=best,
    )


def svd_clip_oracle(matrix, tol: float = DEFAULT_TOL):
    """Solve the finite matrix case by singular value clipping.

    Returns ``(k, distance)`` where ``k`` clips the singular values of
    ``matrix`` at 1 and ``distance = max(sigma_1 - 1, 0)``, both from
    LAPACK's SVD.  ``matrix`` is read as a finite matrix model
    (:class:`ValidationError` if it is not one).  Raises
    :class:`CertificationError` if LAPACK's ``sigma_1(T - k)`` or the
    construction's distance is off ``distance`` by more than
    ``max(tol, IDENTITY_TOL * distance)``, the band of
    :func:`competitor_search`, or if the construction's certificate fails;
    raises :class:`~ballapprox.jacobi.NumericError` if the Jacobi iteration
    behind ``T``'s norm fails to converge.
    """
    tol = _require_tol(tol)
    t = HilbertOperator.finite_matrix(matrix)
    sigma_1, _, k, _ = _sv_map(t)
    distance = max(sigma_1 - 1.0, 0.0)
    band = max(tol, IDENTITY_TOL * distance)

    achieved = float(_score_matrices(t, k[None])[0])
    if not abs(achieved - distance) <= band:
        raise CertificationError(
            f"clip reconstruction achieves {achieved}, expected {distance}"
        )
    built = best_ball_approx_h(t).distance
    if not abs(built - distance) <= band:
        raise CertificationError(
            f"construction distance {built} disagrees with clipped SVD {distance}"
        )
    return k, distance


def finite_section_bounds(t: Operator, n: int):
    """Certified lower bound for the ball distance from a leading section.

    Returns ``(lower, formula)`` where ``lower = max(||T_n|| - 1, 0)``
    uses the ``n x n`` compression's norm (spectral for l2 models,
    maximum column mass for l1 models) and ``formula`` is the full
    closed-form distance.  ``lower`` is nondecreasing in ``n`` and can
    converge to ``op_norm - 1`` but never exceeds the formula; sections
    are finite rank, so they are blind to the essential-norm term.
    """
    sec = finite_section(t, n)
    if isinstance(t, L1Operator):
        sec_norm = float(np.max(np.sum(np.abs(sec), axis=0))) if sec.size else 0.0
    else:
        sec_norm = float(np.linalg.norm(sec, 2)) if sec.size else 0.0
    lower = max(sec_norm - 1.0, 0.0)
    formula = ball_distance(t)
    if lower > formula + IDENTITY_TOL:
        raise CertificationError(
            f"section lower bound {lower} exceeds the distance formula {formula}"
        )
    return lower, formula
