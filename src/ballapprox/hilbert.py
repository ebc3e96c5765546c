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
approximants.  :func:`best_ball_approx_h` is the one construction for
every l2 model; the distance alone is
:func:`~ballapprox.models.ball_distance`, and the alternative optimal
approximants that cross-check it are candidates in
:mod:`ballapprox.oracles`.
"""

from __future__ import annotations

import numpy as np

from .models import (
    BallApproxResult,
    Branch,
    HilbertOperator,
    TailKind,
    TailRule,
    ValidationError,
    attains_norm,
    ess_norm,
    make_result,
    op_norm,
    scale,
)

__all__ = ["best_ball_approx_h"]


def _soft(x: np.ndarray, d: float) -> np.ndarray:
    """Every entry shrunk toward 0 by ``d``, sign kept."""
    return np.copysign(np.maximum(np.abs(x) - d, 0.0), x)


def best_ball_approx_h(t: HilbertOperator) -> BallApproxResult:
    """Optimal compact approximant of ``t`` within the unit ball.

    Returns a :class:`BallApproxResult` whose ``distance`` equals
    ``ball_distance(t)``, whose approximant has operator norm at most 1
    and a const 0 tail (or finite support), and whose certificate
    records the per-entry residuals behind the claim.
    """
    if not isinstance(t, HilbertOperator):
        raise ValidationError("expected an l2 model operator")
    nrm = op_norm(t)
    ess = ess_norm(t)

    if ess == 0.0:
        approx = scale(t, 1.0 / max(nrm, 1.0))
        return make_result(t, approx, Branch.COMPACT_INPUT)

    if nrm > 1.0 and not attains_norm(t):
        return make_result(t, scale(t, 0.0), Branch.NON_ATTAINING)

    zero_tail = TailRule.const(0.0)
    x = t.explicit
    if nrm > 1.0:
        if t.tail.kind is TailKind.GEOMETRIC:
            # Only entries at or above the tail supremum carry the norm;
            # there are finitely many, all explicit.
            new = np.where(np.abs(x) >= ess, x / nrm, 0.0)
            branch = Branch.FINITE_HEAD
        else:
            # Entries above 1 + ess must shrink radially to fit the ball;
            # soft-thresholding them at ess would leave magnitude > 1.
            new = np.where(np.abs(x) > 1.0 + ess, x / nrm, _soft(x, ess))
            branch = Branch.INFINITE_SERIES
        approx = HilbertOperator(t.shape, new, zero_tail)
        return make_result(t, approx, branch)

    # norm at most 1: shaving is free, only compactness costs anything
    approx = HilbertOperator(t.shape, _soft(x, ess), zero_tail)
    return make_result(t, approx, Branch.SMALL_NORM)
