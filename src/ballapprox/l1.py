"""Best approximation from the compact unit ball on l1 column models.

On l1 the operator norm is the supremum of column masses, so the
approximation problem decouples column by column: the cheapest way to
bring a column's mass down to a target is to delete entries from the
bottom of its support, splitting at most one entry fractionally.  The
distance to the compact unit ball is again
``max(op_norm - 1, ess_norm, 0)``, where the essential norm is the
limiting mass carried by the single-entry tail columns.

Columns are the read-only float64 arrays of ``L1Operator``;
:func:`truncate_column` takes any real sequence and returns a tuple.
"""

from __future__ import annotations

import numpy as np

from .models import (
    BallApproxResult,
    Branch,
    L1Operator,
    TailRule,
    ValidationError,
    _finite_array,
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
    col = _finite_array(column, "column")
    d = _require_finite(d, "mass to remove")
    if d < 0.0:
        raise ValidationError(f"mass to remove must be nonnegative, got {d}")
    return tuple(_truncate(col, d).tolist())


def _truncate(col: np.ndarray, d: float) -> np.ndarray:
    """:func:`truncate_column` on a checked column and ``d >= 0``."""
    if d == 0.0:
        return col
    n = len(col)
    mag = np.abs(col)
    # below[i] = mass of the last i + 1 entries, summed from the bottom up;
    # below[-1] is the total, summed in the same order as the cut it decides
    below = np.add.accumulate(mag[::-1])
    if n == 0 or below[-1] <= d:
        return np.zeros(n)
    # below is nondecreasing; entries 0..cut each have more than d of mass
    # at or beneath them, and entry `cut` (nonzero) is split
    cut = n - 1 - int(below.searchsorted(d, side="right"))
    rest = below[n - 2 - cut] if cut < n - 1 else 0.0  # mass beneath entry `cut`
    out = col.copy()
    out[cut] = (1.0 - (d - rest) / mag[cut]) * col[cut]
    out[cut + 1 :] = 0.0
    return out


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
    cols = tuple(_truncate(c, d) for c in t.columns)
    weights = [_truncate(w, d)[0] for w in t.tail_weights[:, None]]  # one-entry columns
    # the constant tail weight sits within d of 0 by the distance formula
    approx = L1Operator(cols, weights, TailRule.const(0.0))
    return make_result(t, approx, Branch.L1_TRUNCATION)
