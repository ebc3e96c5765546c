"""Independent checks for the closed-form distance claims.

Three oracles, deliberately built on different machinery than the
constructions they certify:

* :func:`competitor_search` scores deterministic in-ball compact
  competitors from the same model class against a claimed distance, and
  bounds every competitor below from the input's data;
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
construction, fixed candidates, candidate builder, scorer, lower bound
and section norm, and :func:`_search_of` is the one place where the
oracles tell the classes apart.  The search scores its candidates, the
construction included, by one numpy function per model class, apart from
the library's own residual code.

Every in-ball compact ``K`` has ``||T - K|| >= ||T|| - 1`` (the triangle
inequality) and ``||T - K|| >= ||T||_e`` (a compact perturbation keeps the
essential norm), so no competitor beats ``max(||T|| - 1, ||T||_e, 0)``
but by rounding.  Each entry's ``lower`` computes that bound apart from
the library's arithmetic, less a margin for the rounding of a
competitor's scaling into the ball and of its score, so that no in-ball
competitor's *computed* score falls below it:

* diagonal and shift models: ``max(fl(max |w| - 1), ess)`` over the window
  ``w`` of scored entries, margin 0 (:func:`_window_lower`);
* l1 column models: the larger of that bound over the tail-column window
  and, per explicit column of ``k`` entries, its ``math.fsum`` mass ``m``
  less ``1 + gamma_{4k+4} (m + 1)`` (:func:`_l1_lower`);
* matrices: ``max(sigma_1 - 1 - IDENTITY_TOL (1 + sigma_1), 0)`` with
  LAPACK's ``sigma_1`` memoised on ``T`` (:func:`_matrix_lower`).

When the bound is at least ``claimed - band``, it proves that no
competitor beats the claim by more than ``band``.  Section norms use
``numpy.linalg`` too.
"""

from __future__ import annotations

import math
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
    tol: float
    best_kind: str
    best_candidate: Optional[Operator]
    lower_bound: float
    binding: str


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

    return score


def _l1_scorer(t: L1Operator):
    """Column models: the largest residual column mass, masses added left to
    right (:func:`_segment_sums`), then ``ess_norm(t)``."""
    ends, starts, row = t._row_layout
    n, ess = ends[-1], ess_norm(t)

    def score(rows: np.ndarray) -> np.ndarray:
        diff = np.abs(row - rows)
        residuals = np.concatenate([_segment_sums(diff[:, :n], starts), diff[:, n:]], axis=1)
        # on a copy, one row per residual: a short last axis reduces row by row, slowly
        return np.max(residuals.T.copy(), axis=0, initial=ess)

    return score


def _segment_sums(mags: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The mass of each column of each row, ``(rows, columns)``, from
    ``mags``, the magnitudes of the rows' column supports (overwritten),
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
    alone: the same values in any batch)."""
    return lambda mats: np.linalg.svd(t.entries - mats, compute_uv=False)[:, 0]


def _bound(norm_term: float, ess: float):
    """``(lower, binding)`` of a class's norm term and essential norm:
    ``max(norm_term, ess, 0)`` and the term that sets it, ``"norm"``,
    ``"essential"`` or ``"zero"`` (the essential norm on a tie)."""
    if norm_term > ess and norm_term > 0.0:
        return norm_term, "norm"
    return (ess, "essential") if ess > 0.0 else (0.0, "zero")


def _window_lower(window: np.ndarray, ess: float):
    """:func:`_bound` of ``fl(max |window| - 1)`` and ``ess``: for competitor
    entries in ``[-1, 1]``, no computed score of a diagonal or shift model
    whose window of entries is ``window``, or of a column model whose window
    of tail-column weights it is, falls below it.

    Round-to-nearest is monotone and odd, so at the largest ``|w_j|`` the
    computed ``|w_j - r_j|`` is at least ``fl(|w_j| - 1)``; a score is the
    largest of its residuals and ``ess``.  The margin is 0: the largest
    ``|w_j|`` is exact."""
    return _bound(float(np.max(np.abs(window))) - 1.0, ess)


def _entry_lower(t: HilbertOperator):
    """A diagonal or shift model's bound: :func:`_window_lower` over the
    window that :func:`_entry_scorer` reads."""
    return _window_lower(_slots(t.explicit, t.tail, 0, len(t.explicit) + 4), ess_norm(t))


def _fsum_mass(col: np.ndarray) -> float:
    """The correctly rounded mass of a column (``math.fsum``), or 0.0, a
    mass no larger, if the exact sum overflows."""
    try:
        return math.fsum(np.abs(col).tolist())
    except OverflowError:
        return 0.0


def _l1_lower(t: L1Operator):
    """A column model's bound: the larger of :func:`_window_lower` over the
    tail-column window and, for each explicit column of ``k`` entries and
    ``math.fsum`` mass ``m``, ``m - 1 - gamma_{4k+4} (m + 1)``, with
    ``gamma_j = j u / (1 - j u)`` and ``u = 2^-53`` (Higham 2002, *Accuracy
    and Stability of Numerical Algorithms*, section 3.1).

    The column's exact mass is ``M >= m (1 - u)``.  A competitor's column
    scaled into the ball from entries ``x`` is ``r_i = fl(x_i / s)``, with
    ``s`` at least 1 and at least the left-to-right sum of ``|x_i|``, so ``sum |x_i|
    <= s / (1 - gamma_{k-1})`` and ``sum |r_i| <= (1 + u) / (1 - gamma_{k-1})
    <= 1 + gamma_{2k}``.  By the triangle inequality the exact residual
    mass is at least ``M - 1 - gamma_{2k}``; each ``|c_i - r_i|`` is
    computed to a relative ``u`` and the left-to-right sum of ``k``
    nonnegative terms loses at most a factor ``1 - gamma_{k-1}``, so the
    computed residual mass is at least ``(1 - gamma_k) (M - 1 - gamma_{2k})``
    when that is positive, hence at least ``m - 1 - gamma_{2k+1} (m + 1)``.
    The remaining ``(gamma_{4k+4} - gamma_{2k+1}) (m + 1) >= 5 u (m + 1)``
    covers the three roundings of the bound's own evaluation.  The masses
    are summed here, not read from the library's ``column_masses``."""
    ends, row = t._row_layout[0], t._row_layout[-1]
    n, ess = ends[-1], ess_norm(t)
    norm_term = float(np.max(np.abs(row[n:]))) - 1.0
    if t.columns:
        masses = np.array([_fsum_mass(col) for col in t.columns])
        ju = (4.0 * np.diff(ends) + 4.0) * (np.finfo(float).eps / 2.0)
        gamma = ju / (1.0 - ju)
        norm_term = max(norm_term, float(np.max((masses - 1.0) - gamma * (masses + 1.0))))
    return _bound(norm_term, ess)


def _matrix_lower(t: HilbertOperator):
    """A matrix's bound: ``max(sigma_1 - 1 - IDENTITY_TOL (1 + sigma_1), 0)``,
    with LAPACK's ``sigma_1`` memoised on ``t``.  A competitor ``K = M /
    max(sigma_1(M), 1)`` has ``sigma_1(K) <= 1``, so ``sigma_1(T - K) >=
    sigma_1(T) - 1``, and a singular value is at least 0.  The divide,
    LAPACK's ``sigma_1`` of ``M`` (so of the divisor) and of ``T - K``, the
    subtraction ``T - K`` and LAPACK's ``sigma_1(T)`` itself are each off by
    a few ``n * eps * (1 + sigma_1)`` at most, below 1e-14 of ``1 + sigma_1``
    for ``n <= 64``: inside the margin."""
    sigma_1 = float(t._svd[1][0])
    return _bound(sigma_1 - 1.0 - IDENTITY_TOL * (1.0 + sigma_1), 0.0)


#: What the search of one model class does its own way:
#:
#: * ``construct``, ``t -> BallApproxResult``: the construction;
#: * ``fixed``, ``(t, construction) -> (kinds, rows)``: the named fixed
#:   candidates, one row of an array each, built here from the data of ``t``
#:   with numpy;
#: * ``build``, ``(t, row) -> Operator``: the candidate of a row, with a
#:   const 0 tail;
#: * ``scorer``, ``t -> score``: ``score`` maps rows of candidates to their
#:   residual norms ``||t - k||``; what no row changes is computed once;
#: * ``lower``, ``t -> (lower, binding)``: a value that no in-ball
#:   competitor's computed score falls below, ``max(||t|| - 1, ||t||_e, 0)``
#:   computed apart from the library's arithmetic less the class's rounding
#:   margin, and the term that sets it, ``"norm"``, ``"essential"`` or
#:   ``"zero"``;
#: * ``section_ord``: the ``ord`` of ``numpy.linalg.norm`` that is the norm of
#:   a leading section, spectral on l2 and the largest column mass on l1.
_Search = namedtuple("_Search", "construct fixed build scorer lower section_ord")

# the constructions are looked up by name at each call, so that a wrapper
# bound in this module (perfbench's tracer, a test's counter) sees them
_ENTRY_SEARCH = _Search(lambda t: best_ball_approx_h(t), _entry_candidates,
                        lambda t, row: HilbertOperator(t.shape, row, TailRule.const(0.0)),
                        _entry_scorer, _entry_lower, 2)
_MATRIX_SEARCH = _Search(lambda t: best_ball_approx_h(t), _matrix_candidates,
                         lambda t, row: HilbertOperator.finite_matrix(row),
                         _matrix_scorer, _matrix_lower, 2)
_L1_SEARCH = _Search(lambda t: best_ball_approx_l1(t), _l1_candidates, _l1_build, _l1_scorer,
                     _l1_lower, 1)


def _search_of(t: Operator) -> _Search:
    """The search entry of the model class of ``t``: the oracles' one test
    of the class."""
    return _L1_SEARCH if isinstance(t, L1Operator) else (
        _MATRIX_SEARCH if t.shape is Shape.FINITE_MATRIX else _ENTRY_SEARCH)


def competitor_search(
    t: Operator,
    claimed: Optional[float] = None,
    tol: float = DEFAULT_TOL,
) -> SearchReport:
    """Try to beat a claimed ball distance, and bound every competitor.

    Scores the deterministic in-ball compact candidates of the model class
    of ``t``, the construction included, by one numpy function, apart from
    the library's residual code; ``best_found`` is the first minimum of
    those scores and ``best_candidate`` the operator behind it.

    The class's lower bound ``lower_bound`` (``binding`` names its term) is
    a value that no in-ball compact competitor's computed score falls
    below: ``max(||t|| - 1, ||t||_e, 0)``, which every such competitor's
    residual norm is at least, computed from the input's data apart from
    the library's arithmetic, less a margin for rounding (see the module
    docstring).  When ``claimed - band <= lower_bound``, the bound proves
    that no competitor beats the claim by more than ``band``.  A matrix of
    norm above about 100 leaves that gap open, as its margin ``IDENTITY_TOL
    * (1 + sigma_1)`` is then wider than ``band``; its verdict rests on the
    fixed candidates.  The bound reads the input's data, not the library's
    norm, so an inflated claim leaves it below ``claimed - band``, and a
    fixed candidate beats that claim.

    The report passes when no candidate beats ``claimed`` by more than
    ``band`` and some candidate attains it within ``band``, where ``band =
    max(tol, IDENTITY_TOL * |claimed|)`` is no finer than the resolution at
    which :func:`~ballapprox.models.make_result` certifies a distance; the
    report keeps ``tol`` as given.
    """
    tol = _require_tol(tol)
    claimed = ball_distance(t) if claimed is None else _require_finite(claimed, "claimed")
    band = max(tol, IDENTITY_TOL * abs(claimed))
    search = _search_of(t)
    kinds, fixed = search.fixed(t, search.construct(t).approximant)
    scores = search.scorer(t)(fixed)
    idx = int(np.argmin(scores))  # the first minimum
    best_found = float(scores[idx])
    lower, binding = search.lower(t)
    beaten = best_found < claimed - band
    attained = best_found <= claimed + band
    return SearchReport(
        claimed=claimed,
        best_found=best_found,
        attained=attained,
        beaten=beaten,
        passed=(not beaten) and attained,
        tol=tol,
        best_kind=kinds[idx],
        best_candidate=search.build(t, fixed[idx]),
        lower_bound=lower,
        binding=binding,
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

    achieved = float(_matrix_scorer(t)(k[None])[0])
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
