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
candidate is scored by a fresh LAPACK ``sigma_1(T - K)``.

Each model class has one search entry (``_Search``): diagonal and
shift models, matrices, and l1 column models.  It holds the class's
construction, fixed candidates, candidate builder, scorer with its floor,
trial stream and section norm, and :func:`_search_of` is the one place
where the oracles tell the classes apart.  The search scores its
candidates, the construction included, by one numpy function per model
class, apart from the library's own residual code, next to a floor that
no random trial's computed score falls below (:func:`_floor`).  A search
whose best fixed score sits on the floor draws no trial, and a matrix
search draws in full only the trials whose first column could beat the
best fixed candidate (:func:`_possible_winners`), so the report is that
of scoring every trial.  The trials of every model class are drawn,
bounded, scaled and scored one chunk of at most ``TRIAL_CHUNK_ENTRIES``
entries at a time, so the search holds one chunk of trials whatever their
number or width.  Section norms use ``numpy.linalg`` too.
"""

from __future__ import annotations

from collections import namedtuple
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

#: Entries per chunk of random trials (1 MiB of float64, at least one
#: trial): the search draws, bounds, scales and scores one chunk at a time.
TRIAL_CHUNK_ENTRIES = 1 << 17


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
    """``(soft, clip)`` from LAPACK's SVD of the matrix of ``t``, memoised on
    ``t``: the singular values of ``u @ diag(.) @ vt`` are those of ``t``
    shrunk toward zero by ``max(sigma_1 - 1, 0)`` and clipped at 1, both at
    most 1."""
    u, sv, vt = t._svd
    soft = _soft(sv, max(sv[0] - 1.0, 0.0))
    return (u * soft) @ vt, (u * np.minimum(sv, 1.0)) @ vt


def _entry_candidates(t: HilbertOperator, construction: HilbertOperator):
    """A diagonal or shift model's fixed candidates: the construction, the
    entries shrunk toward zero by the distance and clipped at 1, and zero."""
    x = t.explicit
    rows = np.zeros((4, len(x) + 4))
    rows[0] = _slots(construction.explicit, construction.tail, 0, len(x) + 4)
    rows[1, : len(x)], rows[2, : len(x)] = _soft(x, ball_distance(t)), np.clip(x, -1.0, 1.0)
    return ["construction", "soft_threshold", "entry_clip", "zero"], rows


def _matrix_candidates(t: HilbertOperator, construction: HilbertOperator):
    """A matrix's fixed candidates: the construction and the maps of
    :func:`_sv_map`.

    A matrix has no zero candidate: it would score LAPACK's ``sigma_1(T)``
    by a second decomposition of ``T``, while the construction listed
    before it scores ``sigma_1(T - T / max(sigma_1, 1))``, exactly 0 when
    the construction is ``T`` and about ``sigma_1 - 1`` otherwise, so zero
    could come first only by a rounding-level tie (``sigma_1`` near
    ``1 / (n * eps)``, about 1e14)."""
    batch = np.array([construction.entries, *_sv_map(t)])
    return ["construction", "soft_threshold", "sv_clip"], batch


def _l1_candidates(t: L1Operator, construction: L1Operator):
    """A column model's fixed candidates: the construction, which keeps
    every support and weight slot, each column divided by ``max(mass, 1)``
    with the weights clipped at 1, and zero."""
    ends, row = t._row_layout[0], t._row_layout[-1]
    n, listed = ends[-1], ends[-1] + len(t.tail_weights)
    rows = np.zeros((3, len(row)))
    rows[0, :listed] = np.concatenate([*construction.columns, construction.tail_weights])
    scaling = np.minimum(1.0, 1.0 / np.maximum(t.column_masses, 1e-300))
    rows[1, :n] = row[:n] * np.repeat(scaling, np.diff(ends))
    rows[1, n:listed] = np.clip(t.tail_weights, -1.0, 1.0)
    return ["construction", "column_scaling", "zero"], rows


def _l1_build(t: L1Operator, row: np.ndarray) -> L1Operator:
    """The column-model candidate of a row in the form of ``t._row_layout``."""
    *cols, window = np.split(row, t._row_layout[0][1:])
    return L1Operator(tuple(cols), window, TailRule.const(0.0))


def _entry_scorer(t: HilbertOperator):
    """Diagonal and shift models: ``max |t - k|`` over the window of the
    rows, then ``ess_norm(t)``, which bounds ``|t|`` beyond it."""
    window, ess = _slots(t.explicit, t.tail, 0, len(t.explicit) + 4), ess_norm(t)

    def score(rows: np.ndarray) -> np.ndarray:
        diff = window - rows
        return np.maximum(np.max(np.abs(diff, out=diff), axis=1), ess)

    return score, _floor(window, ess)


def _l1_scorer(t: L1Operator):
    """Column models: the largest residual column mass, masses added left to
    right (:func:`_segment_sums`), then ``ess_norm(t)``."""
    ends, starts, _, row = t._row_layout
    n, ess = ends[-1], ess_norm(t)

    def score(rows: np.ndarray) -> np.ndarray:
        diff = np.abs(row - rows)
        residuals = np.concatenate([_segment_sums(diff[:, :n], starts), diff[:, n:]], axis=1)
        # on a copy, one row per residual: a short last axis reduces row by row, slowly
        return np.max(residuals.T.copy(), axis=0, initial=ess)

    return score, _floor(row[n:], ess)


def _floor(window: np.ndarray, ess: float) -> float:
    """``max(fl(max |window| - 1), ess)``: for trial entries in ``[-1, 1]``,
    no computed score of a diagonal or shift model whose window of entries
    is ``window``, or of a column model whose window of tail-column weights
    it is, falls below it.

    Round-to-nearest is monotone and odd, so at the largest ``|w_j|`` the
    computed ``|w_j - r_j|`` is at least ``fl(|w_j| - 1)``; a score is the
    largest of its residuals and ``ess``.  The l1 column masses are left
    out: their bound ``mass - 1`` compares two rounded sums of different
    terms, which rounding can put either way.  (A matrix score is a singular
    value, so its floor is 0.)  The floors read only the input's data, not
    the library's norm."""
    return max(float(np.max(np.abs(window))) - 1.0, ess)


def _segment_sums(mags: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The mass of each column of each trial, ``(trials, columns)``, from
    ``mags``, the magnitudes of a chunk's column supports (overwritten),
    whose nonempty columns open at ``starts``.  ``np.subtract.reduceat`` of
    each first magnitude and the others negated adds left to right, the
    order of the library's column masses, at any width (``x - (-y)`` rounds
    as ``x + y``); ``np.add.reduceat`` adds the first entry to a pairwise
    sum of the others, rounding otherwise from 3 entries on.  Both give
    ``a[i]`` for an empty segment."""
    np.negative(mags, out=mags)
    mags[:, starts] *= -1.0
    return np.subtract.reduceat(mags, starts, axis=1)


def _matrix_scorer(t: HilbertOperator):
    """Finite matrices: LAPACK's ``sigma_1(T - K)`` (each matrix decomposed
    alone: the same values in any batch); a singular value's floor is 0."""
    return (lambda mats: np.linalg.svd(t.entries - mats, compute_uv=False)[:, 0]), 0.0


def _trial_chunks(trials: int, shape: tuple):
    """Consecutive views of one buffer of trials of ``shape``, of any model
    class, with at most ``TRIAL_CHUNK_ENTRIES`` entries (at least one trial)
    each, covering ``trials`` trials, with the number of trials of each
    chunk in the first, free half (``trials // 2``; l1 trials have no other
    half).  A chunk may span both halves; the next one overwrites it."""
    step = max(1, TRIAL_CHUNK_ENTRIES // int(np.prod(shape)))
    buf = np.empty((min(step, trials),) + shape)
    n_free = trials // 2
    for s in range(0, trials, step):
        e = min(s + step, trials)
        yield buf[: e - s], min(max(n_free - s, 0), e - s)


def _random_entry_competitors(t: HilbertOperator, construction: HilbertOperator,
                              best_found: float, trials: int, seed: int):
    """Random diagonal/shift competitors in chunks (:func:`_trial_chunks`):
    each row is an in-ball competitor on the first ``len(t.explicit) + 4``
    slots with const 0 tail; the second half perturb ``construction``.  The
    rows of all chunks are those of one whole draw from ``default_rng(seed)``;
    none is left out, whatever ``best_found``."""
    width, rng = len(t.explicit) + 4, np.random.default_rng(seed)
    opt = _slots(construction.explicit, construction.tail, 0, width)  # a const 0 tail
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
    a difference of squares), folded left to right over a copy with one row
    per coordinate: a short last axis reduces row by row, slowly."""
    mv2 = np.einsum("ij,ij->i", mv, mv)
    c = np.divide(mv @ tv, mv2, out=np.zeros(len(mv)), where=mv2 > 0.0)
    np.clip(c, 0.0, 1.0 / np.maximum(np.sqrt(mv2), 1.0), out=c)
    return np.hypot.reduce((tv - c[:, None] * mv).T.copy(), axis=0)


def _possible_winners(t: HilbertOperator, best: float):
    """The ``keep`` of :func:`_random_matrix_draws` in a search whose best
    fixed score is ``best``: the mask of the trials, in a chunk of first
    columns ``C_i e_1``, whose competitors could score at most ``best``,
    from LAPACK's ``sigma_1`` and ``v_1`` of ``T`` (memoised on ``t``).

    A trial is dropped when the bound of :func:`_trial_lower_bounds` on
    its first column exceeds ``best`` by more than ``IDENTITY_TOL * (1 +
    sigma_1)``.  The first column stands in for ``M v_1``: with ``E = V^T
    V - I``, ``M v_1 = C V^T v_1 = C e_1 + C E e_1``, and ``|C| <= sigma_1(M)
    (1 + |E| / 2)``.  So, divided by ``s``, the proxy is off ``K v_1`` by
    at most about ``|E|``, however large the columns that were not drawn,
    and ``1 / max(|C e_1|, 1)`` caps ``1 / s`` up to a factor ``1 + |E| /
    2``, which moves the bound by ``|E| / 2`` at most.  The guard of T's
    norm, ``|E|_F <= IDENTITY_TOL / 10`` as computed
    (:func:`~ballapprox.models._nearly_orthogonal`, memoised on ``t``),
    keeps ``1.5 |E|_2`` below 8.3e-13 at ``n = 64`` even if the rounding of
    ``V^T V`` (``n^2 u``) hid that much of it.  The rounding of ``C V^T``, of the bound, of
    LAPACK's ``sigma_1`` of the draw (so of ``s``) and of ``T - K``, and
    the norm of ``v_1`` are each off by a few ``n * eps * (1 + ||T||)`` at
    most, below 1e-14 of it for ``n <= 64``: inside the margin, a dropped
    trial scores above ``best`` and could not have been the first minimum
    below it.  A ``V`` that fails the guard drops nothing.  (A search whose
    ``best`` is 0, the floor of a matrix score, draws no trial at all.)"""
    if not t._orthogonal_v:
        return lambda cols: np.ones(len(cols), dtype=bool)
    tv, cutoff = t.entries @ t._svd[2][0], best + IDENTITY_TOL * (1.0 + t._svd[1][0])
    # a NaN bound drops nothing
    return lambda cols: ~(_trial_lower_bounds(tv, cols) > cutoff)


def _matrix_trials(t: HilbertOperator, construction: HilbertOperator, best_found: float,
                   trials: int, seed: int):
    """The random matrix competitors that could score at most ``best_found``
    (:func:`_possible_winners`), drawn (:func:`_random_matrix_draws`) and
    divided into the ball (:func:`_into_ball`) chunk by chunk."""
    keep = _possible_winners(t, best_found)
    return (_into_ball(mats) for mats in
            _random_matrix_draws(t, construction, trials, seed, keep) if len(mats))


def _random_l1_competitors(t: L1Operator, construction: L1Operator, best_found: float,
                           trials: int, seed: int):
    """Random column-model competitors in chunks (:func:`_trial_chunks`),
    one flat row per trial in the form of ``t._row_layout``: the support
    of each explicit column, entries uniform on ``[-0.9, 0.9]`` and each
    column divided by ``max(mass, 1)``, then the window, uniform on ``[-1,
    1]``.  An empty column gets no slot: an entry there could only add to
    its residual mass, so no trial that could win is left out.  The rows
    of all chunks are those of one whole draw from ``default_rng(seed)``;
    none depends on ``construction`` or is left out, whatever
    ``best_found``."""
    ends, starts, widths, row = t._row_layout
    n, rng = ends[-1], np.random.default_rng(seed)
    high = np.where(np.arange(len(row)) < n, 0.9, 1.0)
    span = 2.0 * high
    for rows, _ in _trial_chunks(trials, (len(row),)):
        # rng.uniform(-high, high) in place: -high + 2 high u, the same bits
        rng.random(out=rows)
        rows *= span
        rows -= high
        masses = _segment_sums(np.abs(rows[:, :n]), starts)
        rows[:, :n] /= np.repeat(np.maximum(masses, 1.0), widths, axis=1)
        yield rows


#: What the search of one model class does its own way:
#:
#: * ``construct``, ``t -> BallApproxResult``: the construction;
#: * ``fixed``, ``(t, construction) -> (kinds, rows)``: the named fixed
#:   candidates, in the array form of the class's random trials, built here
#:   from the data of ``t`` with numpy;
#: * ``build``, ``(t, row) -> Operator``: the candidate of a row, with a
#:   const 0 tail;
#: * ``scorer``, ``t -> (score, floor)``: ``score`` maps rows of candidates
#:   to their residual norms ``||t - k||``, and no random trial's computed
#:   score falls below ``floor`` (:func:`_floor`); what no row changes is
#:   computed once;
#: * ``chunks``, ``(t, construction, best_found, trials, seed) -> rows``: the
#:   random trials, chunk by chunk (:func:`_trial_chunks`), in trial order,
#:   leaving out only trials that cannot score at most ``best_found``;
#: * ``section_ord``: the ``ord`` of ``numpy.linalg.norm`` that is the norm of
#:   a leading section, spectral on l2 and the largest column mass on l1.
_Search = namedtuple("_Search", "construct fixed build scorer chunks section_ord")

# the constructions are looked up by name at each call, so that a wrapper
# bound in this module (perfbench's tracer, a test's counter) sees them
_ENTRY_SEARCH = _Search(lambda t: best_ball_approx_h(t), _entry_candidates,
                        lambda t, row: HilbertOperator(t.shape, row, TailRule.const(0.0)),
                        _entry_scorer, _random_entry_competitors, 2)
_MATRIX_SEARCH = _Search(lambda t: best_ball_approx_h(t), _matrix_candidates,
                         lambda t, row: HilbertOperator.finite_matrix(row),
                         _matrix_scorer, _matrix_trials, 2)
_L1_SEARCH = _Search(lambda t: best_ball_approx_l1(t), _l1_candidates, _l1_build, _l1_scorer,
                     _random_l1_competitors, 1)


def _search_of(t: Operator) -> _Search:
    """The search entry of the model class of ``t``: the oracles' one test
    of the class."""
    return _L1_SEARCH if isinstance(t, L1Operator) else (
        _MATRIX_SEARCH if t.shape is Shape.FINITE_MATRIX else _ENTRY_SEARCH)


def competitor_search(
    t: Operator,
    claimed: Optional[float] = None,
    trials: int = 1000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> SearchReport:
    """Try to beat a claimed ball distance with sampled competitors.

    Samples ``trials`` random compact in-ball operators from the model
    class of ``t`` (but for l1, half unconstrained and half perturbations
    of the optimal approximant).  These and the deterministic candidates,
    the construction included, are scored by the same numpy function,
    apart from the library's residual code; ``best_found`` is the first
    minimum of those scores.  Only a strictly lower score replaces the
    best, so two shortcuts leave the report that of scoring every trial.
    No trial is drawn when the best deterministic score is at or below the
    floor of the model class, which no trial's computed score falls below
    (:func:`_floor`); the floors read the input's data, not the library's
    norm, so a fixed candidate that beats an inflated claim is found all
    the same.  A random matrix trial ``M = C V^T`` (``V`` from the SVD of
    ``t``) is drawn in full and scored only when the lower bound that its
    first column gives comes within ``IDENTITY_TOL * (1 + sigma_1(t))`` of
    the best deterministic score (:func:`_possible_winners`); its other
    columns come from a generator keyed by ``seed`` and its index, so it
    is the same whichever others are drawn.

    The trials are drawn, bounded, scaled and scored in chunks of at most
    ``TRIAL_CHUNK_ENTRIES`` entries (1 MiB), keeping only the running
    first minimum and its candidate, so memory does not grow with
    ``trials``; the draws do not depend on the chunk size and a strict
    ``<`` across chunks keeps the first minimum, so the report is the one
    of a single batch.

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
    search = _search_of(t)
    construction = search.construct(t).approximant
    # the fixed candidates, then the trials chunk by chunk: only a strictly
    # lower score replaces the best, so the first minimum wins
    score, floor = search.scorer(t)
    kinds, fixed = search.fixed(t, construction)
    scores = score(fixed)
    idx = int(np.argmin(scores))
    best_found, best_kind, best = float(scores[idx]), kinds[idx], search.build(t, fixed[idx])
    # no trial can score strictly below a best on the floor
    chunks = search.chunks(t, construction, best_found, trials, seed) if best_found > floor else ()
    for chunk in chunks:
        scores = score(chunk)
        if scores.min() < best_found:
            # built now, which copies the row: the next chunk reuses the buffer
            idx = int(np.argmin(scores))
            best_found, best_kind, best = float(scores[idx]), "random", search.build(t, chunk[idx])

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
    k = _sv_map(t)[1]
    distance = max(float(t._svd[1][0]) - 1.0, 0.0)
    band = max(tol, IDENTITY_TOL * distance)

    achieved = float(_matrix_scorer(t)[0](k[None])[0])
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
    Raises :class:`CertificationError` if ``lower`` exceeds ``formula`` by
    more than ``IDENTITY_TOL * max(1, formula)``, the band of
    :func:`~ballapprox.models.make_result`.
    """
    sec_norm = float(np.linalg.norm(finite_section(t, n), _search_of(t).section_ord))
    lower = max(sec_norm - 1.0, 0.0)
    formula = ball_distance(t)
    # make_result's band: LAPACK's and Jacobi's sigma_1 differ by rounding
    if lower > formula + IDENTITY_TOL * max(1.0, formula):
        raise CertificationError(
            f"section lower bound {lower} exceeds the distance formula {formula}"
        )
    return lower, formula
