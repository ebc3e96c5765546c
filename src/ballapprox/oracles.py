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
input's data with numpy, the matrix ones from one LAPACK SVD; Jacobi
serves only the library's norm of a matrix ``T``.  Every candidate
of the search, the construction included, is scored by one numpy
function per model class, apart from the library's own residual code:
LAPACK's largest singular value for matrices, the window of entry or
column residuals for the other models.  Section norms use
``numpy.linalg`` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hilbert import _soft, best_ball_approx_h
from .l1 import best_ball_approx_l1
from .models import (
    IDENTITY_TOL,
    BallApproxResult,
    Branch,
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
    make_result,
)

__all__ = [
    "CertificationError",
    "SearchReport",
    "competitor_search",
    "svd_clip_oracle",
    "finite_section_bounds",
]

DEFAULT_TOL = 1e-10

#: Matrix entries per chunk of random-trial residuals (1 MiB of float64).
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


def _sv_map(m: np.ndarray):
    """``(sigma_1, soft, clip)`` from one LAPACK SVD of ``m``: the singular
    values of ``u @ diag(.) @ vt`` are those of ``m`` shrunk toward zero
    by ``max(sigma_1 - 1, 0)`` and clipped at 1, both at most 1."""
    u, sv, vt = np.linalg.svd(m)
    soft = _soft(sv, max(sv[0] - 1.0, 0.0))
    return float(sv[0]), (u * soft) @ vt, (u * np.minimum(sv, 1.0)) @ vt


def _soft_threshold_approx(t: HilbertOperator) -> BallApproxResult:
    """Every entry shrunk toward zero by ``d = ball_distance(t)``, with a
    const 0 tail (for a finite matrix: the soft map of :func:`_sv_map`),
    certified: an optimal approximant other than :func:`best_ball_approx_h`'s."""
    d = ball_distance(t)
    if t.shape is Shape.FINITE_MATRIX:
        k = HilbertOperator.finite_matrix(_sv_map(t.matrix_array())[1])
    else:  # every tail entry sits within d of 0 by the distance formula
        k = HilbertOperator(t.shape, _soft(t.explicit, d), TailRule.const(0.0))
    return make_result(t, k, Branch.COMPACT_INPUT if d == 0.0 else Branch.SMALL_NORM)


def _fixed_candidates(t: Operator, construction: Operator):
    """The named fixed candidates ``(kinds, batch)`` of a search, in the
    array form of its random trials: the construction, in-ball maps of
    the data of ``t`` built here with numpy, and the zero operator."""
    if isinstance(t, L1Operator):
        cols = [np.array([k, col * min(1.0, 1.0 / max(mass, 1e-300)), np.zeros(len(col))])
                for k, col, mass in zip(construction.columns, t.columns, t.column_masses.tolist())]
        n_listed, tail = len(t.tail_weights), np.zeros((len(t.tail_weights) + 2, 3))
        tail[:, 0] = _slots(construction.tail_weights, construction.tail, 0, n_listed + 2)
        tail[:n_listed, 1] = np.clip(t.tail_weights, -1.0, 1.0)
        return ["construction", "column_scaling", "zero"], (cols, tail)
    if t.shape is Shape.FINITE_MATRIX:
        m = t.matrix_array()
        batch = np.array([construction.matrix_array(), *_sv_map(m)[1:], np.zeros_like(m)])
        return ["construction", "soft_threshold", "sv_clip", "zero"], batch
    x = t.explicit
    rows = np.zeros((4, len(x) + 4))
    rows[0] = _slots(construction.explicit, construction.tail, 0, len(x) + 4)
    rows[1, : len(x)], rows[2, : len(x)] = _soft(x, ball_distance(t)), np.clip(x, -1.0, 1.0)
    return ["construction", "soft_threshold", "entry_clip", "zero"], rows


def _build(t: Operator, batch, i: int) -> Operator:
    """Candidate ``i`` of a batch in the array form of the trials of
    ``t``, as an operator with a const 0 tail."""
    if isinstance(t, L1Operator):
        return L1Operator(tuple(c[i] for c in batch[0]), batch[1][:, i], TailRule.const(0.0))
    if t.shape is Shape.FINITE_MATRIX:
        return HilbertOperator.finite_matrix(batch[i])
    return HilbertOperator(t.shape, batch[i], TailRule.const(0.0))


def _score(t: Operator, trials) -> np.ndarray:
    """Residual norms ``||t - k||`` of a batch of candidates ``k`` in the
    array form of the random trials of the model class of ``t``."""
    if isinstance(t, L1Operator):
        return _score_l1(t, *trials)
    if t.shape is Shape.FINITE_MATRIX:
        return _score_matrices(t, trials)
    return _score_entries(t, trials)


def _score_entries(t: HilbertOperator, rows: np.ndarray) -> np.ndarray:
    """Diagonal and shift models: ``max |t - k|`` over the window of
    ``rows``, then ``ess_norm(t)``, which bounds ``|t|`` beyond it."""
    diff = _slots(t.explicit, t.tail, 0, rows.shape[1]) - rows
    return np.maximum(np.max(np.abs(diff, out=diff), axis=1), ess_norm(t))


def _score_matrices(t: HilbertOperator, mats: np.ndarray) -> np.ndarray:
    """Finite matrices: LAPACK's ``sigma_1(T - K)``, in chunks of fixed
    size, so no second array as large as ``mats`` is alive (LAPACK
    decomposes each matrix alone: same values as one call)."""
    m = t.matrix_array()
    chunk = max(1, SVD_CHUNK_ENTRIES // m.size)
    buf = np.empty((min(chunk, len(mats)),) + m.shape)
    scores = np.empty(len(mats))
    for s in range(0, len(mats), chunk):
        e = min(s + chunk, len(mats))
        diff = np.subtract(m, mats[s:e], out=buf[: e - s])
        scores[s:e] = np.linalg.svd(diff, compute_uv=False)[:, 0]
    return scores


def _score_l1(t: L1Operator, col_samples: list, tail: np.ndarray) -> np.ndarray:
    """L1 models: the largest of the residual column masses (numpy sums),
    ``|t - k|`` over the tail columns of the ``(n_tail, batch)`` window,
    and ``ess_norm(t)`` beyond it."""
    scores = np.full(tail.shape[1], ess_norm(t))
    for col, cand in zip(t.columns, col_samples):
        diff = np.concatenate([col, np.zeros(cand.shape[1] - len(col))]) - cand
        scores = np.maximum(scores, np.sum(np.abs(diff, out=diff), axis=1))
    diff = _slots(t.tail_weights, t.tail, 0, len(tail))[:, None] - tail
    return np.maximum(scores, np.max(np.abs(diff, out=diff), axis=0))


def _random_entry_competitors(t: HilbertOperator, best: HilbertOperator, trials: int, rng):
    """Random diagonal/shift competitors: each row is an in-ball
    competitor on the first ``len(t.explicit) + 4`` slots with const 0
    tail; half of them perturb the construction ``best``."""
    width = len(t.explicit) + 4
    n_free = trials // 2
    opt = _slots(best.explicit, best.tail, 0, width)  # best has a const 0 tail
    rows = np.empty((trials, width))
    rows[:n_free] = rng.uniform(-1.1, 1.1, (n_free, width))
    np.add(opt, rng.uniform(-0.6, 0.6, (trials - n_free, width)), out=rows[n_free:])
    rows /= np.maximum(np.max(np.abs(rows), axis=1), 1.0)[:, None]
    return rows


def _random_matrix_competitors(t: HilbertOperator, best: HilbertOperator, trials: int, rng):
    """Random in-ball ``n x n`` competitors; half of them perturb ``best``."""
    n = t.matrix_array().shape[0]
    n_free = trials // 2
    # both halves drawn into one trials x n x n array and scaled in place, so no
    # second copy of the trials is alive during the batched SVDs
    mats = np.empty((trials, n, n))
    free, near = mats[:n_free], mats[n_free:]
    rng.standard_normal(out=free)
    free *= 0.6 / np.sqrt(n)
    rng.standard_normal(out=near)
    near *= 0.3 / np.sqrt(n)
    near += best.matrix_array()
    top = np.linalg.svd(mats, compute_uv=False)[:, 0]
    mats /= np.maximum(top, 1.0)[:, None, None]
    return mats


def _random_l1_competitors(t: L1Operator, trials: int, rng):
    """Random column-model competitors ``(column samples, tail samples)``:
    explicit columns on the input's support, then single-entry tail
    columns over the listed window plus two slots, one ``(n_tail, trials)``
    draw."""
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
    of those scores.  The report passes when nothing beats ``claimed`` by
    more than ``band`` and some candidate attains it within ``band``,
    where ``band = max(tol, IDENTITY_TOL * |claimed|)`` is no finer than
    the resolution at which :func:`~ballapprox.models.make_result`
    certifies a distance; the report keeps ``tol`` as given.
    """
    trials = _require_int(trials, "trials", 1)
    seed = _require_int(seed, "seed", 0)
    tol = _require_tol(tol)
    claimed = ball_distance(t) if claimed is None else _require_finite(claimed, "claimed")
    rng = np.random.default_rng(seed)

    if isinstance(t, L1Operator):
        construction = best_ball_approx_l1(t).approximant
        drawn = _random_l1_competitors(t, trials, rng)
    else:
        construction = best_ball_approx_h(t).approximant
        matrix = t.shape is Shape.FINITE_MATRIX
        draw = _random_matrix_competitors if matrix else _random_entry_competitors
        drawn = draw(t, construction, trials, rng)
    # the few fixed candidates as a batch of their own: stacked onto the
    # trials, they would grow every trial-sized temporary
    kinds, fixed = _fixed_candidates(t, construction)
    scores = _score(t, fixed)
    idx = int(np.argmin(scores))
    best_found, best_kind, best = float(scores[idx]), kinds[idx], (fixed, idx)
    scores = _score(t, drawn)
    idx = int(np.argmin(scores))
    if scores[idx] < best_found:
        best_found, best_kind, best = float(scores[idx]), "random", (drawn, idx)

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
        best_candidate=_build(t, *best),
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
    sigma_1, _, k = _sv_map(t.matrix_array())
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
