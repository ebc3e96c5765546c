"""Best approximation from the compact unit ball on l2 models.

The distance from a model operator ``T`` to the closed unit ball of
compact operators equals ``max(op_norm(T) - 1, ess_norm(T), 0)``, and an
approximant realizing it can be written down in closed form.  Which
closed form depends on how the norm is carried:

* compact input (finite matrix, or const 0 tail): radial scaling
  ``T / max(op_norm, 1)``;
* norm above 1 but not attained (geometric tail dominating all explicit
  entries): the zero operator is already optimal;
* norm above 1, attained, geometric tail: only finitely many entries
  reach the tail supremum, scale those by ``1 / op_norm`` and drop the
  rest;
* norm above 1, attained, const tail: scale the entries above
  ``1 + ess_norm`` by ``1 / op_norm``, soft-threshold the remaining
  entries at ``ess_norm``;
* norm at most 1: soft-threshold every entry at ``ess_norm``.

All branches also keep signs, so nonnegative inputs get nonnegative
approximants.
"""

from __future__ import annotations

import math

import numpy as np

from .models import (
    BallApproxResult,
    Branch,
    HilbertOperator,
    Shape,
    TailKind,
    TailRule,
    ValidationError,
    attains_norm,
    ball_distance,
    ess_norm,
    make_result,
    op_norm,
    scale,
)

__all__ = [
    "dist_ball_h",
    "best_ball_approx_h",
    "soft_threshold_approx",
    "positive_ball_approx",
]


def _require_hilbert(t) -> HilbertOperator:
    if not isinstance(t, HilbertOperator):
        raise ValidationError("expected an l2 model operator")
    return t


def dist_ball_h(t: HilbertOperator) -> float:
    """Distance from ``t`` to the unit ball of compact operators on l2."""
    return ball_distance(_require_hilbert(t))


def _soft(e: float, d: float) -> float:
    return math.copysign(max(abs(e) - d, 0.0), e)


def best_ball_approx_h(t: HilbertOperator) -> BallApproxResult:
    """Optimal compact approximant of ``t`` within the unit ball.

    Returns a :class:`BallApproxResult` whose ``distance`` equals
    ``dist_ball_h(t)``, whose approximant has operator norm at most 1
    and a const 0 tail (or finite support), and whose certificate
    records the per-entry residuals behind the claim.
    """
    t = _require_hilbert(t)
    nrm = op_norm(t)
    ess = ess_norm(t)

    if ess == 0.0:
        approx = scale(t, 1.0 / max(nrm, 1.0))
        return make_result(t, approx, Branch.COMPACT_INPUT)

    if nrm > 1.0 and not attains_norm(t):
        return make_result(t, scale(t, 0.0), Branch.NON_ATTAINING)

    zero_tail = TailRule.const(0.0)
    if nrm > 1.0:
        if t.tail.kind is TailKind.GEOMETRIC:
            # Only entries at or above the tail supremum carry the norm;
            # there are finitely many, all explicit.
            new = tuple(e / nrm if abs(e) >= ess else 0.0 for e in t.explicit)
            branch = Branch.FINITE_HEAD
        else:
            # Entries above 1 + ess must shrink radially to fit the ball;
            # soft-thresholding them at ess would leave magnitude > 1.
            head_cut = 1.0 + ess
            new = tuple(
                e / nrm if abs(e) > head_cut else _soft(e, ess) for e in t.explicit
            )
            branch = Branch.INFINITE_SERIES
        approx = HilbertOperator(t.shape, new, zero_tail)
        return make_result(t, approx, branch)

    # norm at most 1: shaving is free, only compactness costs anything
    new = tuple(_soft(e, ess) for e in t.explicit)
    approx = HilbertOperator(t.shape, new, zero_tail)
    return make_result(t, approx, Branch.SMALL_NORM)


def soft_threshold_approx(t: HilbertOperator) -> BallApproxResult:
    """Alternative optimal approximant by uniform shrinkage.

    Shrinks every entry toward zero by ``d = dist_ball_h(t)`` (singular
    values, for a finite matrix).  The residual norm equals ``d``
    exactly, matching :func:`best_ball_approx_h` in distance though the
    approximants may differ entrywise.
    """
    t = _require_hilbert(t)
    d = ball_distance(t)
    branch = Branch.COMPACT_INPUT if d == 0.0 else Branch.SMALL_NORM
    if t.shape is Shape.FINITE_MATRIX:
        u, sv, vt = t.matrix_svd
        shrunk = np.maximum(sv - d, 0.0)
        approx = HilbertOperator.finite_matrix(u @ np.diag(shrunk) @ vt)
        return make_result(t, approx, branch)
    new = tuple(_soft(e, d) for e in t.explicit)
    # every tail entry sits within d of 0 by the distance formula
    approx = HilbertOperator(t.shape, new, TailRule.const(0.0))
    return make_result(t, approx, branch)


def positive_ball_approx(t: HilbertOperator) -> BallApproxResult:
    """Best in-ball approximant of a nonnegative diagonal operator.

    For entrywise nonnegative diagonal input the main construction
    already yields a nonnegative (hence positive semidefinite) diagonal
    approximant dominated by the input; this wrapper validates the
    input and certifies that property on the output.
    """
    t = _require_hilbert(t)
    if t.shape is not Shape.DIAGONAL:
        raise ValidationError("positive approximation is defined for diagonal models")
    if any(e < 0.0 for e in t.explicit) or t.tail.limit < 0.0:
        raise ValidationError("positive approximation requires nonnegative entries")
    result = best_ball_approx_h(t)
    bad = [e for e in result.approximant.explicit if e < 0.0]
    if bad or result.approximant.tail.limit < 0.0:
        raise ValidationError("construction produced a negative entry")
    return result
