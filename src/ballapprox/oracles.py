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

The deterministic candidates, each scored once: the construction and,
on l2, the soft-threshold approximant (shrink every entry, or singular
value, by the distance) come with the residual norm that their
:func:`~ballapprox.models.make_result` certified; the zero operator's
residual is ``op_norm(t)``; only the clipped candidate (singular values
or entries clipped at 1 on l2, columns scaled to mass 1 on l1) goes
through :func:`~ballapprox.models.residual_norm`.

Random-trial residual norms for matrices and section norms use
``numpy.linalg`` so they stay independent of the package's own Jacobi
routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hilbert import _soft, best_ball_approx_h
from .jacobi import jacobi_singular_values
from .l1 import best_ball_approx_l1
from .models import (
    IDENTITY_TOL,
    BallApproxResult,
    Branch,
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
    op_norm,
    residual_norm,
    scale,
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


class CertificationError(RuntimeError):
    """An oracle contradicted a closed-form claim."""


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


def _sv_map(t: HilbertOperator, f) -> np.ndarray:
    """``u @ diag(f(s)) @ vt`` from the memoised SVD of the matrix of ``t``."""
    u, sv, vt = t.matrix_svd
    return u @ np.diag(f(sv)) @ vt


def _soft_threshold_approx(t: HilbertOperator) -> BallApproxResult:
    """Alternative optimal approximant by uniform shrinkage.

    Shrinks every entry toward zero by ``d = ball_distance(t)`` (singular
    values, for a finite matrix).  The residual norm equals ``d``
    exactly, matching :func:`best_ball_approx_h` in distance though the
    approximants may differ entrywise.
    """
    d = ball_distance(t)
    branch = Branch.COMPACT_INPUT if d == 0.0 else Branch.SMALL_NORM
    if t.shape is Shape.FINITE_MATRIX:
        approx = HilbertOperator.finite_matrix(_sv_map(t, lambda s: np.maximum(s - d, 0.0)))
    else:
        # every tail entry sits within d of 0 by the distance formula
        approx = HilbertOperator(t.shape, _soft(t.explicit, d), TailRule.const(0.0))
    return make_result(t, approx, branch)


def _deterministic_candidates(t: Operator) -> list:
    """Named in-ball candidates ``(kind, operator, residual norm)``; the
    first is the construction itself."""
    zero = ("zero", scale(t, 0.0), op_norm(t))
    if isinstance(t, L1Operator):
        built = best_ball_approx_l1(t)
        scaled_cols = tuple(
            col * min(1.0, 1.0 / max(mass, 1e-300))
            for col, mass in zip(t.columns, t.column_masses.tolist())
        )
        clipped = L1Operator(
            scaled_cols, np.clip(t.tail_weights, -1.0, 1.0), TailRule.const(0.0)
        )
        return [
            ("construction", built.approximant, built.distance),
            ("column_scaling", clipped, residual_norm(t, clipped)),
            zero,
        ]
    built = best_ball_approx_h(t)
    soft = _soft_threshold_approx(t)
    if t.shape is Shape.FINITE_MATRIX:
        clip_kind = "sv_clip"
        clipped = HilbertOperator.finite_matrix(_sv_map(t, lambda s: np.minimum(s, 1.0)))
    else:
        clip_kind = "entry_clip"
        clipped = HilbertOperator(t.shape, np.clip(t.explicit, -1.0, 1.0), TailRule.const(0.0))
    return [
        ("construction", built.approximant, built.distance),
        ("soft_threshold", soft.approximant, soft.distance),
        (clip_kind, clipped, residual_norm(t, clipped)),
        zero,
    ]


def _random_entry_competitors(t: HilbertOperator, best: HilbertOperator, trials: int, rng):
    """Batched residual norms of random diagonal/shift competitors.

    Returns (residuals, entry_rows): each row of entry_rows is an in-ball
    competitor on the first ``len(t.explicit) + 4`` slots with const 0
    tail; half of them perturb the construction ``best``.
    """
    width = len(t.explicit) + 4
    target = _slots(t.explicit, t.tail, 0, width)
    tail_rem = ess_norm(t)  # residual supremum beyond the sampled window

    n_free = trials // 2
    opt = np.zeros(width)
    opt[: len(best.explicit)] = best.explicit
    rows = np.empty((trials, width))
    rows[:n_free] = rng.uniform(-1.1, 1.1, (n_free, width))
    np.add(opt, rng.uniform(-0.6, 0.6, (trials - n_free, width)), out=rows[n_free:])
    rowmax = np.max(np.abs(rows), axis=1)
    rows /= np.maximum(rowmax, 1.0)[:, None]

    residuals = np.maximum(np.max(np.abs(target[None, :] - rows), axis=1), tail_rem)
    return residuals, rows


def _random_matrix_competitors(t: HilbertOperator, best: HilbertOperator, trials: int, rng):
    m = t.matrix_array()
    n = m.shape[0]
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
    # residuals in chunks of fixed size, so no second trials x n x n array is
    # alive (LAPACK decomposes each matrix alone: same values as one call)
    chunk = max(1, SVD_CHUNK_ENTRIES // (n * n))
    buf = np.empty((min(chunk, trials), n, n))
    residuals = np.empty(trials)
    for s in range(0, trials, chunk):
        e = min(s + chunk, trials)
        diff = np.subtract(m, mats[s:e], out=buf[: e - s])
        residuals[s:e] = np.linalg.svd(diff, compute_uv=False)[:, 0]
    return residuals, mats


def _random_l1_competitors(t: L1Operator, trials: int, rng):
    """Batched residuals of random column-model competitors.

    Explicit columns are sampled on the input's support; single-entry
    tail columns over the listed window plus two extra slots, drawn last
    as one ``(n_tail, trials)`` array.  Returns (residuals, column
    samples, tail weight samples).
    """
    residuals = np.full(trials, ess_norm(t))  # tail beyond the window
    col_samples = []
    for col in t.columns:
        width = max(len(col), 1)
        target = np.zeros(width)
        target[: len(col)] = col
        cand = rng.uniform(-0.9, 0.9, (trials, width))
        mass = np.sum(np.abs(cand), axis=1)
        cand /= np.maximum(mass, 1.0)[:, None]
        col_res = np.sum(np.abs(target[None, :] - cand), axis=1)
        residuals = np.maximum(residuals, col_res)
        col_samples.append(cand)
    n_tail = len(t.tail_weights) + 2
    tail = rng.uniform(-1.0, 1.0, (n_tail, trials))
    diff = _slots(t.tail_weights, t.tail, 0, n_tail)[:, None] - tail
    residuals = np.maximum(residuals, np.max(np.abs(diff, out=diff), axis=0))
    return residuals, col_samples, tail


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
    optimal approximant) and evaluates the deterministic candidates as
    well.  The report passes when nothing beats ``claimed`` by more
    than ``band`` and some candidate attains it within ``band``, where
    ``band = max(tol, IDENTITY_TOL * |claimed|)`` is no finer than the
    resolution at which :func:`~ballapprox.models.make_result`
    certifies a distance; the report keeps ``tol`` as given.
    """
    trials = _require_int(trials, "trials", 1)
    seed = _require_int(seed, "seed", 0)
    tol = _require_finite(tol, "tol")
    if tol < 0.0:
        raise ValidationError(f"tol must be nonnegative, got {tol}")
    claimed = ball_distance(t) if claimed is None else _require_finite(claimed, "claimed")
    rng = np.random.default_rng(seed)

    best_found = np.inf
    best_kind = ""
    best_candidate: Optional[Operator] = None
    candidates = _deterministic_candidates(t)
    construction = candidates[0][1]
    for kind, cand, r in candidates:
        if r < best_found:
            best_found, best_kind, best_candidate = r, kind, cand

    if isinstance(t, L1Operator):
        residuals, col_samples, tail = _random_l1_competitors(t, trials, rng)
        build = lambda i: L1Operator(
            tuple(c[i] for c in col_samples), tail[:, i], TailRule.const(0.0)
        )
    elif t.shape is Shape.FINITE_MATRIX:
        residuals, mats = _random_matrix_competitors(t, construction, trials, rng)
        build = lambda i: HilbertOperator.finite_matrix(mats[i])
    else:
        residuals, rows = _random_entry_competitors(t, construction, trials, rng)
        build = lambda i: HilbertOperator(t.shape, rows[i], TailRule.const(0.0))
    idx = int(np.argmin(residuals))
    if residuals[idx] < best_found:
        best_found, best_kind, best_candidate = float(residuals[idx]), "random", build(idx)

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
        best_candidate=best_candidate,
    )


def svd_clip_oracle(matrix, tol: float = DEFAULT_TOL):
    """Solve the finite matrix case by singular value clipping.

    Returns ``(k, distance)`` where ``k`` clips the singular values of
    ``matrix`` at 1 and ``distance = max(sigma_1 - 1, 0)``.  ``matrix``
    is read as a finite matrix model (:class:`ValidationError` if it is
    not one), whose memoised SVD both this clip and the construction use.
    Raises :class:`CertificationError` if the reconstruction or the main
    construction disagrees beyond ``tol``; raises
    :class:`~ballapprox.jacobi.NumericError` if the singular value
    iteration fails to converge.
    """
    tol = _require_finite(tol, "tol")
    t = HilbertOperator.finite_matrix(matrix)
    k = _sv_map(t, lambda s: np.minimum(s, 1.0))
    distance = float(max(t.matrix_svd[1][0] - 1.0, 0.0))

    achieved = float(jacobi_singular_values(t.matrix_array() - k)[0])
    if abs(achieved - distance) > tol:
        raise CertificationError(
            f"clip reconstruction achieves {achieved}, expected {distance}"
        )
    built = best_ball_approx_h(t).distance
    if abs(built - distance) > tol:
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
