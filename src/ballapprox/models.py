"""Operator model classes with exact, closed-form norms.

Every operator handled by this package lives in one of a few structured
families whose operator norm, essential norm (distance to the compacts),
and norm attainment can be read off from finitely many numbers:

* ``HilbertOperator`` on l2: a diagonal operator, a weighted shift, or a
  finite matrix acting on the leading coordinates.  Diagonal and shift
  models carry finitely many explicit entries followed by a ``TailRule``
  describing all remaining entries.
* ``L1Operator`` on l1: finitely many explicit dense columns, then
  shift-structured single-entry tail columns (column j has its only
  entry in row j+1) whose weights follow a finite list and a constant
  tail rule.

Because the families are closed under differences against compact
members of the same family, residual norms are exact maxima over a
finite list of candidates; no iterative norm estimation is involved for
diagonal, shift, or l1 models.  Finite matrices use the one-sided
Jacobi singular value routine from :mod:`ballapprox.jacobi`, run at most
once per operator: the SVD is kept on the operator
(:attr:`HilbertOperator.matrix_svd`).
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .jacobi import jacobi_singular_values, jacobi_svd

__all__ = [
    "ValidationError",
    "TailKind",
    "TailRule",
    "Shape",
    "HilbertOperator",
    "L1Operator",
    "Branch",
    "Certificate",
    "BallApproxResult",
    "op_norm",
    "ess_norm",
    "attains_norm",
    "finite_section",
    "scale",
    "ball_distance",
    "residual_norm",
    "residual_profile",
    "hilbert_entry",
    "make_result",
]

#: Comparison tolerance for algebraic identities promised by the model
#: classes (norm of a scaled operator, residual-vs-formula agreement).
IDENTITY_TOL = 1e-12


class ValidationError(ValueError):
    """An operator description violates a model-class invariant."""


def _require_finite(value, what: str, index: Optional[int] = None) -> float:
    """The one check for a number from outside: a finite real, not a bool.

    The error names the number ``what[index]``; that name is built only on
    failure, since wide models run this once per entry.
    """
    # float and int first: the numbers.Real ABC check is several times slower
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        problem = "a real number"
    else:
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int too large for a float
            pass
        problem = "finite"
    name = what if index is None else f"{what}[{index}]"
    raise ValidationError(f"{name} must be {problem}, got {value!r}")


def _finite_tuple(values, what: str) -> tuple:
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{what} must be an array, got {values!r}")
    return tuple(_require_finite(v, what, i) for i, v in enumerate(values))


class TailKind(enum.Enum):
    CONST = "const"
    GEOMETRIC = "geometric"


@dataclass(frozen=True)
class TailRule:
    """Rule generating the entries beyond an operator's explicit part.

    ``CONST`` tails repeat ``limit`` forever.  ``GEOMETRIC`` tails produce
    ``limit * (1 - ratio**k)`` at tail slot ``k = 1, 2, ...``: strictly
    increasing in magnitude toward ``limit`` without ever reaching it,
    so the supremum ``|limit|`` is not attained.
    """

    kind: TailKind
    limit: float
    ratio: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "limit", _require_finite(self.limit, "tail.limit"))
        if self.kind is TailKind.CONST:
            if self.ratio is not None:
                raise ValidationError("const tails take no ratio")
        elif self.kind is TailKind.GEOMETRIC:
            if self.ratio is None:
                raise ValidationError("geometric tails require a ratio")
            r = _require_finite(self.ratio, "tail.ratio")
            if not 0.0 < r < 1.0:
                raise ValidationError(f"tail.ratio must lie strictly in (0, 1), got {r}")
            object.__setattr__(self, "ratio", r)
            if self.limit == 0.0:
                raise ValidationError(
                    "geometric tails require a nonzero limit; use a const 0 tail"
                )
        else:  # pragma: no cover - enum is closed
            raise ValidationError(f"unknown tail kind {self.kind!r}")

    @staticmethod
    def const(value: float) -> "TailRule":
        return TailRule(TailKind.CONST, value)

    @staticmethod
    def geometric(limit: float, ratio: float) -> "TailRule":
        return TailRule(TailKind.GEOMETRIC, limit, ratio)

    def entry(self, k: int) -> float:
        """Value at tail slot ``k`` (1-based within the tail)."""
        if k < 1:
            raise ValidationError(f"tail slot must be >= 1, got {k}")
        if self.kind is TailKind.CONST:
            return self.limit
        return self.limit * (1.0 - self.ratio**k)

    @property
    def sup_abs(self) -> float:
        return abs(self.limit)

    @property
    def sup_attained(self) -> bool:
        return self.kind is TailKind.CONST

    def scaled(self, c: float) -> "TailRule":
        # c == 0, or a c so small that c * limit underflows, would make a
        # geometric tail's limit 0; collapse to const 0 so scaling stays
        # total on the model class (every entry of such a tail rounds to 0).
        if c == 0.0:
            return TailRule.const(0.0)
        if self.kind is TailKind.CONST:
            return TailRule.const(c * self.limit)
        if c * self.limit == 0.0:
            return TailRule.const(0.0)
        return TailRule.geometric(c * self.limit, self.ratio)


class Shape(enum.Enum):
    DIAGONAL = "diagonal"
    WEIGHTED_SHIFT = "shift"
    FINITE_MATRIX = "matrix"


#: Jacobi routine cap; finite matrices above this size are rejected so
#: every model-side norm stays inside the certified routine.
MAX_MATRIX_DIM = 64


@dataclass(frozen=True)
class HilbertOperator:
    """Structured operator on l2 with a closed-form norm.

    * ``DIAGONAL``: ``T e_n = t_n e_n`` with ``t_n`` from ``explicit``
      then ``tail``.
    * ``WEIGHTED_SHIFT``: ``T e_n = w_n e_{n+1}`` likewise.
    * ``FINITE_MATRIX``: the block ``entries`` acts on the leading
      coordinates, zero beyond.
    """

    shape: Shape
    explicit: tuple = ()
    tail: Optional[TailRule] = None
    entries: Optional[tuple] = None  # row tuples, FINITE_MATRIX only

    def __post_init__(self):
        if self.shape is Shape.FINITE_MATRIX:
            if self.tail is not None or self.explicit:
                raise ValidationError("finite matrices take entries only")
            if self.entries is None or not self.entries:
                raise ValidationError("finite matrices require entries")
            m = len(self.entries)
            if m > MAX_MATRIX_DIM:
                raise ValidationError(
                    f"matrix dimension {m} exceeds the certified cap {MAX_MATRIX_DIM}"
                )
            rows = []
            for i, row in enumerate(self.entries):
                row = _finite_tuple(row, f"entries[{i}]")
                if len(row) != m:
                    raise ValidationError(
                        f"entries must be square, row {i} has length {len(row)} != {m}"
                    )
                rows.append(row)
            object.__setattr__(self, "entries", tuple(rows))
        else:
            if self.entries is not None:
                raise ValidationError(f"{self.shape.value} operators take no matrix entries")
            if self.tail is None:
                raise ValidationError(f"{self.shape.value} operators require a tail rule")
            object.__setattr__(self, "explicit", _finite_tuple(self.explicit, "explicit"))

    @staticmethod
    def diagonal(entries, tail: TailRule) -> "HilbertOperator":
        return HilbertOperator(Shape.DIAGONAL, tuple(entries), tail)

    @staticmethod
    def weighted_shift(weights, tail: TailRule) -> "HilbertOperator":
        return HilbertOperator(Shape.WEIGHTED_SHIFT, tuple(weights), tail)

    @staticmethod
    def finite_matrix(entries) -> "HilbertOperator":
        rows = tuple(tuple(row) for row in np.atleast_2d(np.asarray(entries, dtype=float)))
        return HilbertOperator(Shape.FINITE_MATRIX, entries=rows)

    def matrix_array(self) -> np.ndarray:
        if self.shape is not Shape.FINITE_MATRIX:
            raise ValidationError("matrix_array is defined for finite matrices only")
        return np.array(self.entries, dtype=float)

    @functools.cached_property
    def matrix_svd(self) -> tuple:
        """``(u, s, vt)`` of the matrix block from :func:`jacobi_svd`.

        Computed on first use and kept on the instance (the operator is
        frozen, so it cannot go stale); the arrays are read-only.
        """
        usv = jacobi_svd(self.matrix_array())
        for part in usv:
            part.flags.writeable = False
        return usv


def hilbert_entry(t: HilbertOperator, n: int) -> float:
    """Entry value at slot ``n >= 1`` of a diagonal or shift model."""
    if t.shape is Shape.FINITE_MATRIX:
        raise ValidationError("entry slots are defined for diagonal and shift models")
    if n < 1:
        raise ValidationError(f"entry slot must be >= 1, got {n}")
    m = len(t.explicit)
    if n <= m:
        return t.explicit[n - 1]
    return t.tail.entry(n - m)


@dataclass(frozen=True)
class L1Operator:
    """Column-structured operator on l1 with a closed-form norm.

    ``columns[j-1]`` holds column ``j`` as dense values from row 1.  For
    ``j`` beyond the explicit columns, column ``j`` has a single entry in
    row ``j + 1`` whose weight is the next element of ``tail_weights``,
    then the constant ``tail`` limit forever.  The norm is the supremum
    of column masses (l1 norms of columns).
    """

    columns: tuple = ()
    tail_weights: tuple = ()
    tail: TailRule = TailRule.const(0.0)

    def __post_init__(self):
        cols = []
        for j, col in enumerate(self.columns):
            col = _finite_tuple(col, f"columns[{j}]")
            # summed as column_mass sums it, so a column accepted here has a finite norm
            mass = sum(abs(v) for v in col)
            if not math.isfinite(mass):
                raise ValidationError(f"columns[{j}] must have a finite mass, got {mass!r}")
            cols.append(col)
        object.__setattr__(self, "columns", tuple(cols))
        object.__setattr__(
            self, "tail_weights", _finite_tuple(self.tail_weights, "tail_weights")
        )
        if self.tail.kind is not TailKind.CONST:
            raise ValidationError("l1 tail columns follow a const rule")

    @property
    def n_explicit(self) -> int:
        return len(self.columns)

    def column_count_listed(self) -> int:
        """Columns described by explicit data (dense or listed weights)."""
        return len(self.columns) + len(self.tail_weights)

    def tail_weight(self, j: int) -> float:
        """Weight of single-entry tail column ``j`` (j > explicit count)."""
        idx = j - len(self.columns)
        if idx < 1:
            raise ValidationError(f"column {j} is explicit, not a tail column")
        if idx <= len(self.tail_weights):
            return self.tail_weights[idx - 1]
        return self.tail.limit

    def column_mass(self, j: int) -> float:
        if j < 1:
            raise ValidationError(f"column index must be >= 1, got {j}")
        if j <= len(self.columns):
            return float(sum(abs(v) for v in self.columns[j - 1]))
        return abs(self.tail_weight(j))


Operator = Union[HilbertOperator, L1Operator]


def op_norm(t: Operator) -> float:
    """Operator norm, exact for every model class.

    Diagonal and shift models: sup of entry magnitudes (the tail
    contributes ``|limit|`` whether or not it is attained).  Finite
    matrices: largest singular value, read from the memoised SVD.  L1
    models: sup of column masses.
    """
    if isinstance(t, L1Operator):
        best = t.tail.sup_abs
        for j in range(1, t.column_count_listed() + 1):
            best = max(best, t.column_mass(j))
        return best
    if t.shape is Shape.FINITE_MATRIX:
        return float(t.matrix_svd[1][0])
    best = t.tail.sup_abs
    for e in t.explicit:
        best = max(best, abs(e))
    return best


def ess_norm(t: Operator) -> float:
    """Distance to the compact operators.

    Finitely supported perturbations remove any explicit data, so only
    the limiting tail behaviour survives: ``|limit|`` for diagonal and
    shift models, the limiting row-tail column mass ``|limit|`` for l1
    models, and 0 for finite matrices.
    """
    if isinstance(t, HilbertOperator) and t.shape is Shape.FINITE_MATRIX:
        return 0.0
    return t.tail.sup_abs


def attains_norm(t: HilbertOperator) -> bool:
    """Whether some basis vector (or unit vector) realizes ``op_norm``.

    Finite matrices always attain.  Otherwise the norm is attained iff
    it is achieved by an explicit entry or by a const tail; a geometric
    tail approaches its limit strictly from below.
    """
    if not isinstance(t, HilbertOperator):
        raise ValidationError("attains_norm is defined for Hilbert-space models")
    if t.shape is Shape.FINITE_MATRIX:
        return True
    max_explicit = max((abs(e) for e in t.explicit), default=None)
    if max_explicit is not None and max_explicit >= t.tail.sup_abs:
        return True
    return t.tail.sup_attained


def finite_section(t: Operator, n: int) -> np.ndarray:
    """Leading ``n x n`` compression as a dense array.

    ``n`` must cover the explicit part of the model so no explicit data
    is silently cut.
    """
    if n < 1:
        raise ValidationError(f"section size must be >= 1, got {n}")
    if isinstance(t, L1Operator):
        longest = max((len(c) for c in t.columns), default=0)
        need = max(t.n_explicit, longest)
        if n < need:
            raise ValidationError(f"section size {n} is below the explicit part ({need})")
        out = np.zeros((n, n))
        for j in range(1, n + 1):
            if j <= t.n_explicit:
                col = t.columns[j - 1]
                out[: len(col), j - 1] = col
            elif j + 1 <= n:
                out[j, j - 1] = t.tail_weight(j)
        return out
    if t.shape is Shape.FINITE_MATRIX:
        m = len(t.entries)
        if n < m:
            raise ValidationError(f"section size {n} is below the matrix dimension {m}")
        out = np.zeros((n, n))
        out[:m, :m] = t.matrix_array()
        return out
    if n < len(t.explicit):
        raise ValidationError(
            f"section size {n} is below the explicit part ({len(t.explicit)})"
        )
    if t.shape is Shape.DIAGONAL:
        return np.diag([hilbert_entry(t, i) for i in range(1, n + 1)])
    out = np.zeros((n, n))
    for i in range(1, n):  # slot i feeds coordinate i+1; the last one leaves the section
        out[i, i - 1] = hilbert_entry(t, i)
    return out


def scale(t: Operator, c: float) -> Operator:
    """The operator ``c * t``, staying inside the same model class."""
    c = _require_finite(c, "scale factor")
    if isinstance(t, L1Operator):
        return L1Operator(
            tuple(tuple(c * v for v in col) for col in t.columns),
            tuple(c * w for w in t.tail_weights),
            t.tail.scaled(c),
        )
    if t.shape is Shape.FINITE_MATRIX:
        return HilbertOperator.finite_matrix(c * t.matrix_array())
    return HilbertOperator(t.shape, tuple(c * e for e in t.explicit), t.tail.scaled(c))


def ball_distance(t: Operator) -> float:
    """Distance from ``t`` to the unit ball of compact operators.

    Exact on every model class: ``max(op_norm - 1, ess_norm, 0)``.  The
    two lower bounds come from shaving the norm down to 1 and from the
    distance to the compacts; the constructions in
    :mod:`ballapprox.hilbert` and :mod:`ballapprox.l1` attain the max.
    """
    return max(op_norm(t) - 1.0, ess_norm(t), 0.0)


class Branch(enum.Enum):
    """Which construction produced a best approximant."""

    COMPACT_INPUT = "compact_input"
    NON_ATTAINING = "non_attaining"
    FINITE_HEAD = "finite_head"
    INFINITE_SERIES = "infinite_series"
    SMALL_NORM = "small_norm"
    L1_TRUNCATION = "l1_truncation"


@dataclass(frozen=True)
class Certificate:
    """Record of the quantities certifying a best approximation.

    ``residuals`` holds per-entry residual magnitudes for diagonal and
    shift models, per-singular-value residuals for finite matrices, and
    per-column residual masses for l1 models; ``tail_residual`` is the
    supremum contributed by the region beyond all explicit data.
    """

    op_norm: float
    ess_norm: float
    formula_distance: float
    residuals: tuple
    tail_residual: float
    residual_norm: float


@dataclass(frozen=True)
class BallApproxResult:
    distance: float
    approximant: Operator
    branch: Branch
    certificate: Certificate


def _tail_residual_sup(t_tail: TailRule, k_tail: TailRule, first_slot: int) -> float:
    """Sup of ``|t_tail - k_tail|`` over tail slots ``>= first_slot``.

    ``k_tail`` must be const.  Geometric entries move monotonically
    toward their limit, so the sup is attained at the first slot or in
    the limit.
    """
    if k_tail.kind is not TailKind.CONST:
        raise ValidationError("residual norms require a const tail on the approximant")
    c = k_tail.limit
    if t_tail.kind is TailKind.CONST:
        return abs(t_tail.limit - c)
    return max(abs(t_tail.entry(first_slot) - c), abs(t_tail.limit - c))


def residual_profile(t: Operator, k: Operator):
    """Entrywise residual data for ``t - k``; returns a Certificate-shaped
    triple ``(residuals, tail_residual, residual_norm)``.

    ``k`` must belong to the same model class as ``t`` and carry a const
    tail (compact approximants always do).
    """
    if isinstance(t, L1Operator) != isinstance(k, L1Operator):
        raise ValidationError("residuals require operators from the same model class")
    if isinstance(t, L1Operator):
        n_cols = max(t.column_count_listed(), k.column_count_listed())
        residuals = []
        for j in range(1, n_cols + 1):
            residuals.append(_l1_column_residual(t, k, j))
        tail_res = abs(t.tail.limit - k.tail.limit)
        norm = max(max(residuals, default=0.0), tail_res)
        return tuple(residuals), tail_res, norm
    if t.shape is Shape.FINITE_MATRIX or k.shape is Shape.FINITE_MATRIX:
        if t.shape is not Shape.FINITE_MATRIX or k.shape is not Shape.FINITE_MATRIX:
            raise ValidationError("residuals require operators of the same shape")
        a, b = t.matrix_array(), k.matrix_array()
        m = max(a.shape[0], b.shape[0])
        pa, pb = np.zeros((m, m)), np.zeros((m, m))
        pa[: a.shape[0], : a.shape[1]] = a
        pb[: b.shape[0], : b.shape[1]] = b
        sv = jacobi_singular_values(pa - pb)
        norm = float(sv[0]) if len(sv) else 0.0
        return tuple(float(s) for s in sv), 0.0, norm
    if t.shape is not k.shape:
        raise ValidationError("residuals require operators of the same shape")
    m = max(len(t.explicit), len(k.explicit))
    residuals = tuple(
        abs(hilbert_entry(t, i) - hilbert_entry(k, i)) for i in range(1, m + 1)
    )
    tail_res = _tail_residual_sup(t.tail, k.tail, m - len(t.explicit) + 1)
    norm = max(max(residuals, default=0.0), tail_res)
    return residuals, tail_res, norm


def _l1_column_residual(t: L1Operator, k: L1Operator, j: int) -> float:
    """Exact l1 mass of column ``j`` of ``t - k``."""

    def column_repr(op: L1Operator, j: int):
        if j <= op.n_explicit:
            return op.columns[j - 1], None
        return None, (j + 1, op.tail_weight(j))  # single entry at row j+1

    dense_t, single_t = column_repr(t, j)
    dense_k, single_k = column_repr(k, j)
    if single_t is not None and single_k is not None:
        # same row by the model definition
        return abs(single_t[1] - single_k[1])
    if dense_t is not None and dense_k is not None:
        n = max(len(dense_t), len(dense_k))
        get = lambda col, i: col[i] if i < len(col) else 0.0
        return float(sum(abs(get(dense_t, i) - get(dense_k, i)) for i in range(n)))
    dense, (row, w) = (dense_t, single_k) if dense_t is not None else (dense_k, single_t)
    mass = sum(abs(v) for i, v in enumerate(dense) if i != row - 1)
    at_row = dense[row - 1] if row - 1 < len(dense) else 0.0
    return float(mass + abs(at_row - w))


def residual_norm(t: Operator, k: Operator) -> float:
    """Exact norm of ``t - k`` for same-class operators (const-tail ``k``)."""
    return residual_profile(t, k)[2]


def _is_compact(k: Operator) -> bool:
    if isinstance(k, HilbertOperator) and k.shape is Shape.FINITE_MATRIX:
        return True
    return k.tail.kind is TailKind.CONST and k.tail.limit == 0.0


def make_result(t: Operator, approximant: Operator, branch: Branch) -> BallApproxResult:
    """Assemble and cross-check a result for a claimed best approximant.

    Enforces the contract every construction promises: the approximant
    sits in the unit ball (within 1e-12), is compact by construction,
    and its residual norm reproduces the distance formula.  The checks
    are written so that a NaN or an overflowed norm fails them.
    """
    nrm, ess = op_norm(t), ess_norm(t)
    formula = max(nrm - 1.0, ess, 0.0)
    if not _is_compact(approximant):
        raise ValidationError("approximant must be compact (const 0 tail or finite)")
    a_norm = op_norm(approximant)
    if not a_norm <= 1.0 + IDENTITY_TOL:
        raise ValidationError(f"approximant norm {a_norm} exceeds the unit ball")
    residuals, tail_res, res_norm = residual_profile(t, approximant)
    if not abs(res_norm - formula) <= IDENTITY_TOL * max(1.0, formula):
        raise ValidationError(
            f"residual norm {res_norm} disagrees with the distance formula {formula}"
        )
    cert = Certificate(nrm, ess, formula, residuals, tail_res, res_norm)
    return BallApproxResult(res_norm, approximant, branch, cert)
