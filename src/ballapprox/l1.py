"""Best approximation from the compact unit ball on l1 column models.

On l1 the operator norm is the supremum of column masses, so the
approximation problem decouples column by column: the cheapest way to
bring a column's mass down to a target is to keep that much of it from
the top of its support, splitting at most one entry, cut on the same
left-to-right prefix sums that give its mass.  The distance to the
compact unit ball is ``max(op_norm - 1, ess_norm, 0)``, the essential
norm being the limiting mass of the single-entry tail columns.

Columns are the read-only float64 arrays of ``L1Operator``;
:func:`truncate_column` takes any real sequence and returns a tuple.
"""

from __future__ import annotations

import math

import numpy as np

from .models import (
    BallApproxResult,
    Branch,
    L1Operator,
    TailRule,
    ValidationError,
    _finite_array,
    _require_finite,
    _sum_lr,
    ball_distance,
    make_result,
)

__all__ = ["truncate_column", "best_ball_approx_l1"]


def truncate_column(column, d: float) -> tuple:
    """Remove ``d`` of mass from a column: keep ``(mass - d)+`` from the top.

    Entries whose left-to-right prefix sum stays within the kept mass
    are returned unchanged, the next one keeps what is left of it with
    its own sign, and the rest become ``0.0``.  The residual ``column -
    result`` has mass ``min(mass, d)`` up to the rounding of those sums.
    """
    col = _finite_array(column, "column")
    d = _require_finite(d, "mass to remove")
    if d < 0.0:
        raise ValidationError(f"mass to remove must be nonnegative, got {d}")
    with np.errstate(over="ignore"):  # an overflowing mass is reported below
        mass = _sum_lr(np.abs(col))
    if not math.isfinite(mass):  # as for L1Operator columns
        raise ValidationError(f"column must have a finite mass, got {mass!r}")
    return tuple(_truncate(col, d, math.inf).tolist())


def _truncate(col: np.ndarray, d: float, cap: float) -> np.ndarray:
    """Keep ``min((mass - d)+, cap)`` of a checked column from the top, ``d >= 0``."""
    # above[i] is the mass above entry i, left to right; above[-1] the whole mass
    above = np.zeros(len(col) + 1)
    np.add.accumulate(np.abs(col), out=above[1:])
    keep = min(max(above[-1] - d, 0.0), cap)
    cut = int(above[1:].searchsorted(keep, side="right"))  # entries before it lie within keep
    out = col.copy()
    out[cut:] = 0.0
    if cut < len(col):  # what is left of keep, with the entry's sign; +0.0 for nothing
        out[cut] = math.copysign(keep - above[cut], col[cut]) + 0.0
    return out


def best_ball_approx_l1(t: L1Operator) -> BallApproxResult:
    """Optimal compact in-ball approximant of an l1 column model.

    At ``d = ball_distance(t)``, keeps ``(mass - d)+``, capped at 1, of
    every explicit column and listed tail weight from the top, and zeroes
    the constant tail.  Each residual column has mass ``min(mass, d)`` up
    to the rounding of its prefix sums, so the residual norm is ``d``.
    The cap holds ``mass - d <= 1`` where ``fl(op_norm - 1)`` rounds low.
    """
    if not isinstance(t, L1Operator):
        raise ValidationError("expected an l1 model operator")
    d = ball_distance(t)
    cols = tuple(_truncate(c, d, 1.0) for c in t.columns)
    w = t.tail_weights  # one-entry columns, cut by the same rule at once
    keep = np.minimum(np.maximum(np.abs(w) - d, 0.0), 1.0)
    weights = np.where(np.abs(w) <= keep, w, np.copysign(keep, w) + 0.0)
    # the constant tail weight sits within d of 0 by the distance formula
    approx = L1Operator(cols, weights, TailRule.const(0.0))
    return make_result(t, approx, Branch.L1_TRUNCATION)
