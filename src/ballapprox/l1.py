"""Best approximation from the compact unit ball on l1 column models.

On l1 the operator norm is the supremum of column masses, so the
approximation problem decouples column by column: the cheapest way to
bring a column's mass down to a target is to delete entries from the
bottom of its support, splitting at most one entry fractionally.  The
distance to the compact unit ball is again
``max(op_norm - 1, ess_norm, 0)``, where the essential norm is the
limiting mass carried by the single-entry tail columns.
"""

from __future__ import annotations

from .models import (
    BallApproxResult,
    Branch,
    L1Operator,
    TailRule,
    ValidationError,
    _finite_tuple,
    _require_finite,
    ball_distance,
    make_result,
)

__all__ = [
    "truncate_column",
    "best_ball_approx_l1",
]


def truncate_column(column, d: float) -> tuple:
    """Remove exactly ``d`` of mass from the bottom of a column.

    Returns the column whose mass is ``(mass - d)+``, obtained by
    zeroing entries from the last support index upward and scaling the
    first partially removed entry, so the residual ``column - result``
    has mass ``min(mass, d)`` exactly.  Signs are preserved.
    """
    col = _finite_tuple(column, "column")
    d = _require_finite(d, "mass to remove")
    if d < 0.0:
        raise ValidationError(f"mass to remove must be nonnegative, got {d}")
    if d == 0.0:
        return col
    total = sum(abs(v) for v in col)
    if total <= d:
        return tuple(0.0 for _ in col)
    # suffix[i] = mass of entries i.. ; find the last index whose suffix
    # still exceeds d (its entry is necessarily nonzero)
    n = len(col)
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + abs(col[i])
    cut = max(i for i in range(n) if suffix[i] > d)
    a = (d - suffix[cut + 1]) / abs(col[cut])  # fraction of entry `cut` removed
    out = list(col[:cut]) + [(1.0 - a) * col[cut]] + [0.0] * (n - cut - 1)
    return tuple(out)


def best_ball_approx_l1(t: L1Operator) -> BallApproxResult:
    """Optimal compact in-ball approximant of an l1 column model.

    Truncates every explicit column (and every listed tail weight) at
    ``d = ball_distance(t)`` and zeroes the constant tail; the residual
    mass of each column is ``min(mass, d)``, so the residual norm is
    exactly ``d`` while every surviving column keeps mass at most 1.
    """
    if not isinstance(t, L1Operator):
        raise ValidationError("expected an l1 model operator")
    d = ball_distance(t)
    cols = tuple(truncate_column(c, d) for c in t.columns)
    weights = tuple(truncate_column((w,), d)[0] for w in t.tail_weights)
    # the constant tail weight sits within d of 0 by the distance formula
    approx = L1Operator(cols, weights, TailRule.const(0.0))
    return make_result(t, approx, Branch.L1_TRUNCATION)
