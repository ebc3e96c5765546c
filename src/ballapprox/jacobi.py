"""One-sided Jacobi singular values.

Self-contained singular values for the dense square blocks used by the
finite matrix model (dimension at most 64).  The routine rotates column
pairs until a sweep rotates none: each pair is then orthogonal to the
fixed relative target ``ORTHOGONALITY_TOL`` or holds a column that
counts as zero, by the one test of :func:`_skips`.  The column norms
are the singular values; no singular vectors are formed.  The budget of
rotating sweeps is fixed at :data:`MAX_SWEEPS`.  The routine is
independent of ``numpy.linalg.svd``, so the two can cross-check each
other.

Pairs are visited in the round-robin ("parallel") ordering of Brent and
Luk (1985): a sweep of n columns is n - 1 rounds, and each round pairs
every column with exactly one other (for odd n one column sits out each
round, paired with a phantom slot).  The pairs of a round are disjoint,
so their rotations commute: one round reads the norms and inner products
of all its pairs from the current columns, then rotates them all at once
with a few array operations, instead of one pair at a time in Python.

The library runs this routine once per model matrix ``T``, for the
singular values behind its norm (kept on the operator), on ``T V`` with
``V`` from the operator's memoised LAPACK SVD (Drmac and Veselic's
preconditioning, with LAPACK's ``V`` in place of a QR factorization):
the run is one rotation-free sweep, and it never reads LAPACK's singular
values.  The certificates of :func:`ballapprox.models.make_result` check
that norm against LAPACK's singular values of the approximant and of
the residual, and the oracles of :mod:`ballapprox.oracles` build and
score their candidates with ``numpy.linalg``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["NumericError", "jacobi_singular_values"]

#: Relative orthogonality target for column pairs: iteration stops after
#: a sweep in which every pair's cosine is at most this (or a column is zero).
ORTHOGONALITY_TOL = 1e-12
#: Budget of rotating sweeps; one more raises :class:`NumericError`.
MAX_SWEEPS = 60


class NumericError(ArithmeticError):
    """The iteration overflowed or failed to converge within the sweep bound."""


def _round_robin(n: int) -> tuple:
    """The rounds of one sweep of ``n`` columns, as lists of pairs ``(p, q)``.

    Circle method: slot 0 stays put while the other slots turn one place
    per round, and slot ``k`` meets slot ``m - 1 - k``.  Odd ``n`` gets a
    phantom slot ``n``, whose pairs are dropped.
    """
    m = n + n % 2
    others = list(range(1, m))
    rounds = []
    for r in range(m - 1):
        ring = [0] + others[r:] + others[:r]
        pairs = ((ring[k], ring[m - 1 - k]) for k in range(m // 2))
        pairs = sorted((min(a, b), max(a, b)) for a, b in pairs if max(a, b) < n)
        if pairs:  # only n = 1 has a round without a pair
            rounds.append(pairs)
    return tuple(rounds)


@lru_cache(maxsize=32)
def _round_indices(n: int) -> tuple:
    """Per round, flat indices into an ``n x n`` array: ``(pp, qq, pq)`` to
    read a round's Gram entries, and ``(pp, qq, pq, qp)`` to write its
    rotation.  Cached per ``n``, hence read-only."""
    out = []
    for pairs in _round_robin(n):
        p, q = np.array(pairs, dtype=np.intp).T
        pp, qq, pq, qp = p * n + p, q * n + q, p * n + q, q * n + p
        read, write = np.concatenate((pp, qq, pq)), np.concatenate((pp, qq, pq, qp))
        read.flags.writeable = write.flags.writeable = False
        out.append((read, write))
    return tuple(out)


@lru_cache(maxsize=32)
def _pair_indices(n: int) -> np.ndarray:
    """Every pair ``p < q`` of ``n`` columns, as flat indices into an
    ``n x n`` array: ``(pp, qq, pq)``, the reads of all rounds at once.
    Cached per ``n``, hence read-only."""
    p, q = np.triu_indices(n, 1)
    read = np.concatenate((p * n + p, q * n + q, p * n + q))
    read.flags.writeable = False
    return read


def _skips(alpha, beta, gamma, tol: float, zero_sq: float) -> np.ndarray:
    """Per pair, whether it is rotated by the identity: one of its columns
    counts as zero or the two are orthogonal to ``tol``."""
    # sqrt of each factor: alpha * beta itself can overflow
    scale = np.sqrt(alpha) * np.sqrt(beta)
    return (np.minimum(alpha, beta) <= zero_sq) | (np.abs(gamma) <= tol * scale)


def _round_rotation(g, read, write, eye, tol: float, zero_sq: float):
    """The rotation of one round as an ``n x n`` matrix, or None if no pair
    of the round needs rotating.

    ``read`` picks each pair's ``alpha = |w_p|^2``, ``beta = |w_q|^2`` and
    ``gamma = <w_p, w_q>`` out of the Gram matrix ``g``.  A pair is
    skipped, that is rotated by the identity, when one of its columns
    counts as zero or the two are already orthogonal to ``tol``.
    """
    alpha, beta, gamma = g.take(read).reshape(3, -1)
    skip = _skips(alpha, beta, gamma, tol, zero_sq)
    if skip.all():
        return None
    zeta = (beta - alpha) / (2.0 * gamma)
    t = 1.0 / (zeta + np.copysign(np.hypot(1.0, zeta), zeta))
    t[skip] = 0.0
    c = 1.0 / np.hypot(1.0, t)
    s = c * t
    rot = eye.copy()
    rot.put(write, np.concatenate((c, c, s, -s)))
    return rot


def _orthogonalize_columns(w: np.ndarray) -> np.ndarray:
    """Round-robin Jacobi sweeps on the columns of ``w`` until a sweep in
    which no round rotates: before each sweep, one :func:`_skips` over
    every pair ``p < q`` of the Gram matrix, with the round loop's
    upper-triangle reads, stops the iteration if no pair would rotate
    (the rounds would leave ``g`` and so every decision as it is: the
    same bits as walking them).

    Returns the rotated columns.  A sweep meets every pair once, so a
    sweep without a rotation leaves each pair orthogonal to
    :data:`ORTHOGONALITY_TOL` or with a zero column (the stopping and
    zero-column rules of Drmac and Veselic's one-sided Jacobi).  A column
    of norm at most ``n * eps * ||w||_F`` is rounding error of a
    rank-deficient input.  Rotations keep ``||w||_F``, so the threshold
    is fixed; ``hypot`` sums it without overflow.  More than
    :data:`MAX_SWEEPS` rotating sweeps raise :class:`NumericError`, as
    does an input whose Gram matrix overflows, before any sweep.
    """
    n = w.shape[1]
    fro = float(np.hypot.reduce(w.ravel()))
    with np.errstate(over="ignore"):
        g = w.T @ w
    if not (math.isfinite(fro * fro) and np.all(np.isfinite(g))):
        raise NumericError(
            f"column orthogonalization overflows: the Gram matrix of a matrix "
            f"with Frobenius norm {fro:.6g} is not finite"
        )
    zero_norm = n * np.finfo(float).eps * fro
    zero_sq = zero_norm * zero_norm
    eye = np.eye(n)
    rounds, pairs = _round_indices(n), _pair_indices(n)
    # a skipped pair may have gamma = 0, and its zeta then divides by zero;
    # its t is overwritten with 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(MAX_SWEEPS + 1):
            if _skips(*g.take(pairs).reshape(3, -1), ORTHOGONALITY_TOL, zero_sq).all():
                break
            for read, write in rounds:
                rot = _round_rotation(g, read, write, eye, ORTHOGONALITY_TOL, zero_sq)
                if rot is None:
                    continue
                if sweep == MAX_SWEEPS:
                    raise NumericError(
                        f"column orthogonalization did not converge in {MAX_SWEEPS} sweeps"
                    )
                w = w @ rot
                g = w.T @ w
    return w


def _checked_square(a) -> np.ndarray:
    w = np.asarray(a)  # bools, strings and objects are not read as numbers
    if w.dtype.kind not in "iuf" or w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square real matrix, got {w.dtype} of shape {w.shape}")
    w = w.astype(float)
    if not np.all(np.isfinite(w)):
        raise ValueError("expected finite entries")
    return w


def jacobi_singular_values(a) -> np.ndarray:
    """Descending singular values of a square real matrix, from at most
    :data:`MAX_SWEEPS` rotating sweeps (:class:`NumericError` beyond
    them, or if the Gram matrix overflows; ``ValueError`` for an input
    that is not a finite square real matrix)."""
    w = _orthogonalize_columns(_checked_square(a))
    sv = np.sqrt(np.sum(w * w, axis=0))
    sv.sort()
    return sv[::-1]
