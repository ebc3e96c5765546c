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

Every number of a model sits in a read-only float64 array, checked by
one ``isfinite`` when the model is built; norms and residuals are
whole-array numpy, and :mod:`ballapprox.serialize` emits ``.tolist()``.

Because the families are closed under differences against compact
members of the same family, residual norms are exact maxima over a
finite list of candidates; no iterative norm estimation is involved for
diagonal, shift, or l1 models.  A finite matrix ``T`` keeps one
read-only LAPACK SVD, computed on first use and shared with
:mod:`ballapprox.oracles`; its norm comes from the one-sided Jacobi
routine of :mod:`ballapprox.jacobi` on ``T V`` (:func:`op_norm`), run at
most once per operator.  The checks of :func:`make_result` read LAPACK's
singular values of the approximant and the residual, so they
cross-check that norm in different arithmetic.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .jacobi import jacobi_singular_values

__all__ = [
    "ValidationError",
    "CertificationError",
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
    "make_result",
]

#: Comparison tolerance for algebraic identities promised by the model
#: classes (norm of a scaled operator, residual-vs-formula agreement).
IDENTITY_TOL = 1e-12


class ValidationError(ValueError):
    """An operator description violates a model-class invariant."""


class CertificationError(RuntimeError):
    """A certification check or an oracle contradicted a closed-form claim."""


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


def _require_int(value, what: str, low: int) -> int:
    """The one check for a count, size or seed from outside: an integer,
    not a bool, of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{what} must be >= {low}, got {value}")
    return int(value)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _nearly_orthogonal(vt: np.ndarray) -> bool:
    """Whether ``V^T V`` is within ``IDENTITY_TOL / 10`` of the identity in
    the Frobenius norm, which bounds the spectral norm: the one guard on the
    ``V`` of a memoised LAPACK SVD before it stands in for an orthogonal
    matrix, in a matrix's norm and in the competitor search's pruning."""
    return bool(np.linalg.norm(vt @ vt.T - np.eye(len(vt))) <= IDENTITY_TOL / 10)


#: Element types that ``np.array(..., dtype=float)`` converts as ``float()`` does.
_PLAIN_TYPES = frozenset({float, int, np.float64})


def _plain(values, ndim: int) -> Optional[np.ndarray]:
    """``values`` as a C-ordered float64 array by one conversion and one
    ``isfinite``, if it is a numeric (not bool) ``ndim``-D array, or for
    ``ndim`` 1 a list or tuple of (numpy) floats and ints, for ``ndim`` 2
    a list or tuple of such rows of one length, and all entries are
    finite; else ``None``, and the caller checks entry by entry, naming
    the first fault."""
    if isinstance(values, np.ndarray):
        plain = values.ndim == ndim and values.dtype.kind in "iuf"
    elif not isinstance(values, (list, tuple)):
        plain = False
    elif ndim == 1:
        plain = set(map(type, values)) <= _PLAIN_TYPES
    else:
        plain = (
            all(isinstance(row, (list, tuple)) for row in values)
            and len(set(map(len, values))) <= 1
            and {type(v) for row in values for v in row} <= _PLAIN_TYPES
        )
    if not plain:
        return None
    try:
        arr = np.array(values, dtype=float, order="C")  # a copy, and a base ndarray
    except OverflowError:  # an int too large for a float
        return None
    return arr if np.isfinite(arr).all() else None


def _finite_array(values, what: str) -> np.ndarray:
    """``values`` as a read-only float64 array of finite reals.

    A plain 1-D input (see :func:`_plain`) is converted whole; otherwise,
    or if some entry is not finite, each entry goes through
    :func:`_require_finite`, so an error names the first bad one ``what[i]``.
    """
    arr = _plain(values, 1)
    if arr is None:
        if isinstance(values, np.ndarray):
            values = values.tolist()
        if not isinstance(values, (list, tuple)):
            raise ValidationError(f"{what} must be an array, got {values!r}")
        arr = np.array([_require_finite(v, what, i) for i, v in enumerate(values)], dtype=float)
    return _readonly(arr)


def _sum_lr(values: np.ndarray) -> float:
    """The sum in a plain loop's left-to-right order, on every Python
    (``np.sum`` adds pairwise, Python 3.12's ``sum`` compensates)."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def _max_abs(values: np.ndarray) -> float:
    return float(np.maximum.reduce(np.abs(values))) if len(values) else 0.0


def _value_key(v):
    """A hashable stand-in for a field: arrays by value, with ``-0.0 == 0.0``
    as for the floats they hold."""
    if isinstance(v, np.ndarray):
        return v.shape, (v + 0.0).tobytes()
    return tuple(map(_value_key, v)) if isinstance(v, tuple) else v


class _ByValue:
    """Equality and hashing over the dataclass fields, arrays by value."""

    def _key(self) -> tuple:
        return tuple(_value_key(getattr(self, f.name)) for f in fields(self))

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


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


@dataclass(frozen=True, eq=False)
class HilbertOperator(_ByValue):
    """Structured operator on l2 with a closed-form norm.

    * ``DIAGONAL``: ``T e_n = t_n e_n`` with ``t_n`` from ``explicit``
      then ``tail``.
    * ``WEIGHTED_SHIFT``: ``T e_n = w_n e_{n+1}`` likewise.
    * ``FINITE_MATRIX``: the block ``entries`` acts on the leading
      coordinates, zero beyond.

    ``explicit`` and ``entries`` are read-only float64 arrays.
    """

    shape: Shape
    explicit: np.ndarray = ()
    tail: Optional[TailRule] = None
    entries: Optional[np.ndarray] = None  # FINITE_MATRIX only

    def __post_init__(self):
        if self.shape is Shape.FINITE_MATRIX:
            if self.tail is not None or len(self.explicit):
                raise ValidationError("finite matrices take entries only")
            entries = self.entries
            sized = isinstance(entries, (list, tuple)) or getattr(entries, "ndim", 0) > 0
            if not sized or not len(entries):  # a scalar, a 0-d array or no rows
                raise ValidationError(f"finite matrices require rows of entries, got {entries!r}")
            m = len(entries)
            if m > MAX_MATRIX_DIM:
                raise ValidationError(
                    f"matrix dimension {m} exceeds the certified cap {MAX_MATRIX_DIM}"
                )
            arr = _plain(entries, 2)
            if arr is None or arr.shape != (m, m):
                rows = []
                for i, row in enumerate(entries):
                    row = _finite_array(row, f"entries[{i}]")
                    if len(row) != m:
                        raise ValidationError(
                            f"entries must be square, row {i} has length {len(row)} != {m}"
                        )
                    rows.append(row)
                arr = np.array(rows)
            object.__setattr__(self, "entries", _readonly(arr))
        else:
            if self.entries is not None:
                raise ValidationError(f"{self.shape.value} operators take no matrix entries")
            if self.tail is None:
                raise ValidationError(f"{self.shape.value} operators require a tail rule")
            object.__setattr__(self, "explicit", _finite_array(self.explicit, "explicit"))

    @staticmethod
    def diagonal(entries, tail: TailRule) -> "HilbertOperator":
        return HilbertOperator(Shape.DIAGONAL, tuple(entries), tail)

    @staticmethod
    def weighted_shift(weights, tail: TailRule) -> "HilbertOperator":
        return HilbertOperator(Shape.WEIGHTED_SHIFT, tuple(weights), tail)

    @staticmethod
    def finite_matrix(entries) -> "HilbertOperator":
        return HilbertOperator(Shape.FINITE_MATRIX, entries=entries)

    @functools.cached_property
    def _svd(self) -> tuple:
        """LAPACK's ``(u, s, vt)`` of a finite matrix, read-only, computed
        once: it preconditions the Jacobi norm and feeds the oracles."""
        return tuple(map(_readonly, np.linalg.svd(self.entries)))

    @functools.cached_property
    def _orthogonal_v(self) -> bool:
        """:func:`_nearly_orthogonal` of the ``V`` of :attr:`_svd`, computed once."""
        return _nearly_orthogonal(self._svd[2])

    @functools.cached_property
    def _norm(self) -> float:  # op_norm, computed on first use
        if self.shape is not Shape.FINITE_MATRIX:
            return max(self.tail.sup_abs, _max_abs(self.explicit))
        # sigma(T V) = sigma(T) for orthogonal V, and LAPACK's V nearly
        # orthogonalises T's columns, so Jacobi's first sweep rotates none.
        # Error budget: a defect E = V^T V - I moves each sigma by at most
        # ||E||_2 / 2 relative; ||E||_2 exceeds the computed defect by at
        # most n^2 u (rounding V^T V), and forming T V adds at most
        # n^2 u sigma_1, 4.5e-13 each at n = 64.  With the guard at
        # IDENTITY_TOL / 10 the worst case is about 7e-13 relative, inside
        # IDENTITY_TOL.  A V that fails the guard preconditions nothing.
        a = self.entries @ self._svd[2].T if self._orthogonal_v else self.entries
        return float(jacobi_singular_values(a)[0])


def _slots(listed: np.ndarray, tail: TailRule, start: int, stop: int) -> np.ndarray:
    """Slots ``start..stop-1`` (from 0) of ``listed`` followed by ``tail``:
    the entries of a diagonal or shift model, the weights of an l1 model's
    single-entry tail columns.

    Tail slots come from the scalar :meth:`TailRule.entry`: ``np.power``
    may round ``ratio**k`` unlike the C library in the last bit.
    """
    m = len(listed)
    if stop <= m:
        return listed[start:stop]
    extra = [tail.entry(k - m + 1) for k in range(max(start, m), stop)]
    return np.concatenate([listed[start:], extra])


@dataclass(frozen=True, eq=False)
class L1Operator(_ByValue):
    """Column-structured operator on l1 with a closed-form norm.

    ``columns[j-1]`` holds column ``j`` as dense values from row 1.  For
    ``j`` beyond the explicit columns, column ``j`` has a single entry in
    row ``j + 1`` whose weight is the next element of ``tail_weights``,
    then the constant ``tail`` limit forever.  The norm is the supremum
    of column masses (l1 norms of columns).

    ``columns`` is a tuple of read-only float64 arrays, each with its own
    support, ``tail_weights`` one more; ``column_masses`` holds the
    explicit columns' masses (:func:`_sum_lr`), summed once here.
    """

    columns: tuple = ()
    tail_weights: np.ndarray = ()
    tail: TailRule = TailRule.const(0.0)
    column_masses: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cols, masses = [], []
        with np.errstate(over="ignore"):  # an overflowing mass is reported below
            for j, col in enumerate(self.columns):
                col = _finite_array(col, f"columns[{j}]")
                mass = _sum_lr(np.abs(col))
                if not math.isfinite(mass):
                    raise ValidationError(f"columns[{j}] must have a finite mass, got {mass!r}")
                cols.append(col)
                masses.append(mass)
        object.__setattr__(self, "columns", tuple(cols))
        object.__setattr__(self, "column_masses", _readonly(np.array(masses, dtype=float)))
        object.__setattr__(
            self, "tail_weights", _finite_array(self.tail_weights, "tail_weights")
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
            return float(self.tail_weights[idx - 1])
        return self.tail.limit

    @functools.cached_property
    def _norm(self) -> float:  # op_norm, computed on first use
        return max(self.tail.sup_abs, _max_abs(self.column_masses), _max_abs(self.tail_weights))

    @functools.cached_property
    def _row_layout(self) -> tuple:
        """``(ends, starts, widths, row)``, computed once: this model as one
        flat row, the form of the oracles' l1 trials: the support of every
        explicit column end to end, then the window of the first
        ``len(tail_weights) + 2`` tail-column weights.  Column ``j + 1`` is
        ``row[ends[j]:ends[j + 1]]`` and the window ``row[ends[-1]:]``; each
        nonempty column opens at ``starts`` and spans ``widths``."""
        lengths = np.array([len(c) for c in self.columns], dtype=np.intp)
        ends = np.concatenate([[0], np.cumsum(lengths)])
        window = _slots(self.tail_weights, self.tail, 0, len(self.tail_weights) + 2)
        nonempty = lengths > 0
        return (ends.tolist(), ends[:-1][nonempty], lengths[nonempty],
                np.concatenate([*self.columns, window]))

    def column_mass(self, j: int) -> float:
        if j < 1:
            raise ValidationError(f"column index must be >= 1, got {j}")
        if j <= len(self.columns):
            return float(self.column_masses[j - 1])
        return abs(self.tail_weight(j))


Operator = Union[HilbertOperator, L1Operator]


def op_norm(t: Operator) -> float:
    """Operator norm, exact for every model class.

    Diagonal and shift models: sup of entry magnitudes (the tail
    contributes ``|limit|`` whether or not it is attained).  Finite
    matrices: largest Jacobi singular value of ``T V``, with ``V`` from
    the operator's memoised LAPACK SVD when ``V^T V`` is within
    ``IDENTITY_TOL / 10`` of the identity (else of ``T``).  L1 models:
    sup of column masses.  Computed once per operator.
    """
    return t._norm


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
    if len(t.explicit) and _max_abs(t.explicit) >= t.tail.sup_abs:
        return True
    return t.tail.sup_attained


def finite_section(t: Operator, n: int) -> np.ndarray:
    """Leading ``n x n`` compression as a dense array.

    ``n`` must cover the explicit part of the model so no explicit data
    is silently cut.
    """
    n = _require_int(n, "section size", 1)
    if isinstance(t, L1Operator):
        longest = max((len(c) for c in t.columns), default=0)
        need = max(t.n_explicit, longest)
        if n < need:
            raise ValidationError(f"section size {n} is below the explicit part ({need})")
        out = np.zeros((n, n))
        for j, col in enumerate(t.columns):
            out[: len(col), j] = col
        cols = np.arange(t.n_explicit, n - 1)  # column j+1's one entry sits in row j+2
        out[cols + 1, cols] = _slots(t.tail_weights, t.tail, 0, len(cols))
        return out
    if t.shape is Shape.FINITE_MATRIX:
        m = len(t.entries)
        if n < m:
            raise ValidationError(f"section size {n} is below the matrix dimension {m}")
        out = np.zeros((n, n))
        out[:m, :m] = t.entries
        return out
    if n < len(t.explicit):
        raise ValidationError(
            f"section size {n} is below the explicit part ({len(t.explicit)})"
        )
    if t.shape is Shape.DIAGONAL:
        return np.diag(_slots(t.explicit, t.tail, 0, n))
    out = np.zeros((n, n))
    rows = np.arange(1, n)  # slot i feeds coordinate i+1; the last one leaves the section
    out[rows, rows - 1] = _slots(t.explicit, t.tail, 0, n - 1)
    return out


def scale(t: Operator, c: float) -> Operator:
    """The operator ``c * t``, staying inside the same model class."""
    c = _require_finite(c, "scale factor")
    if c == 1.0:  # t is frozen: its memoised norm carries over
        return t
    if isinstance(t, L1Operator):
        return L1Operator(
            tuple(c * col for col in t.columns), c * t.tail_weights, t.tail.scaled(c)
        )
    if t.shape is Shape.FINITE_MATRIX:
        return HilbertOperator.finite_matrix(c * t.entries)
    return HilbertOperator(t.shape, c * t.explicit, t.tail.scaled(c))


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


@dataclass(frozen=True, eq=False)
class Certificate(_ByValue):
    """Record of the quantities certifying a best approximation.

    ``residuals`` (a read-only float64 array) holds per-entry residual
    magnitudes for diagonal and shift models, the LAPACK singular values
    of ``T - K`` for finite matrices (whose ``op_norm`` is the Jacobi
    norm of ``T V``, preconditioned by LAPACK's ``V`` of ``T``), and
    per-column residual masses for l1 models;
    ``tail_residual`` is the supremum contributed by the region beyond
    all explicit data.
    """

    op_norm: float
    ess_norm: float
    formula_distance: float
    residuals: np.ndarray
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
        n_dense = max(t.n_explicit, k.n_explicit)
        dense = [_l1_column_residual(t, k, j) for j in range(1, n_dense + 1)]
        single = [_slots(op.tail_weights, op.tail, n_dense - op.n_explicit, n_cols - op.n_explicit)
                  for op in (t, k)]
        residuals = _readonly(np.concatenate([dense, np.abs(single[0] - single[1])]))
        tail_res = abs(t.tail.limit - k.tail.limit)
        return residuals, tail_res, max(_max_abs(residuals), tail_res)
    if t.shape is Shape.FINITE_MATRIX or k.shape is Shape.FINITE_MATRIX:
        if t.shape is not Shape.FINITE_MATRIX or k.shape is not Shape.FINITE_MATRIX:
            raise ValidationError("residuals require operators of the same shape")
        a, b = t.entries, k.entries
        m = max(a.shape[0], b.shape[0])
        pa, pb = np.zeros((m, m)), np.zeros((m, m))
        pa[: a.shape[0], : a.shape[1]] = a
        pb[: b.shape[0], : b.shape[1]] = b
        sv = _readonly(_singular_values(pa - pb))
        return sv, 0.0, float(sv[0])
    if t.shape is not k.shape:
        raise ValidationError("residuals require operators of the same shape")
    m = max(len(t.explicit), len(k.explicit))
    tail_res = _tail_residual_sup(t.tail, k.tail, m - len(t.explicit) + 1)
    entries = [_slots(op.explicit, op.tail, 0, m) for op in (t, k)]
    residuals = _readonly(np.abs(entries[0] - entries[1]))
    return residuals, tail_res, max(_max_abs(residuals), tail_res)


def _l1_column_residual(t: L1Operator, k: L1Operator, j: int) -> float:
    """Exact l1 mass of column ``j`` of ``t - k``, explicit in ``t`` or
    ``k``, summed from the top row; a tail column counts as a dense one."""
    a, b = (op.columns[j - 1] if j <= op.n_explicit else None for op in (t, k))
    if a is None or b is None:  # a tail column: its one entry sits in row j + 1
        a, w = (b, t.tail_weight(j)) if a is None else (a, k.tail_weight(j))
        if j >= len(a):  # below the support: the 0.0 rows between add nothing
            return _sum_lr(np.append(np.abs(a), abs(w)))
        b = np.zeros(len(a))
        b[j] = w
    if len(a) != len(b):  # the shorter column is 0 below its support
        a, b = (np.pad(c, (0, max(len(a), len(b)) - len(c))) for c in (a, b))
    return _sum_lr(np.abs(a - b))


def residual_norm(t: Operator, k: Operator) -> float:
    """Exact norm of ``t - k`` for same-class operators (const-tail ``k``)."""
    return residual_profile(t, k)[2]


def _singular_values(a: np.ndarray) -> np.ndarray:
    """LAPACK's singular values of a square block, descending: what the
    certificate checks, apart from the Jacobi norm of ``T``."""
    return np.linalg.svd(a, compute_uv=False)


def _is_compact(k: Operator) -> bool:
    if isinstance(k, HilbertOperator) and k.shape is Shape.FINITE_MATRIX:
        return True
    return k.tail.kind is TailKind.CONST and k.tail.limit == 0.0


def make_result(t: Operator, approximant: Operator, branch: Branch) -> BallApproxResult:
    """Assemble and cross-check a result for a claimed best approximant.

    Enforces the contract every construction promises: the approximant
    sits in the unit ball (within 1e-12), is compact by construction,
    and its residual norm reproduces the distance formula.  The checks
    are written so that a NaN or an overflowed norm fails them.  A
    failed ball or residual check raises :class:`CertificationError`, a
    non-compact approximant :class:`ValidationError`.  For a matrix both
    checks read LAPACK singular values, against ``T``'s Jacobi norm.
    """
    nrm, ess = op_norm(t), ess_norm(t)
    formula = max(nrm - 1.0, ess, 0.0)
    if not _is_compact(approximant):
        raise ValidationError("approximant must be compact (const 0 tail or finite)")
    if isinstance(approximant, HilbertOperator) and approximant.shape is Shape.FINITE_MATRIX:
        a_norm = float(_singular_values(approximant.entries)[0])
    else:
        a_norm = op_norm(approximant)
    if not a_norm <= 1.0 + IDENTITY_TOL:
        raise CertificationError(f"approximant norm {a_norm} exceeds the unit ball")
    residuals, tail_res, res_norm = residual_profile(t, approximant)
    if not abs(res_norm - formula) <= IDENTITY_TOL * max(1.0, formula):
        raise CertificationError(
            f"residual norm {res_norm} disagrees with the distance formula {formula}"
        )
    cert = Certificate(nrm, ess, formula, residuals, tail_res, res_norm)
    return BallApproxResult(res_norm, approximant, branch, cert)
