"""One-sided Jacobi singular value decomposition.

Self-contained SVD for the dense square blocks used by the finite
matrix model (dimension at most 64).  The routine rotates column pairs
until a sweep rotates none: each pair is then orthogonal to the fixed
relative target ``ORTHOGONALITY_TOL`` or holds a column that counts as
zero, by the one test of :func:`_round_rotation`.  Column norms are the
singular values; the columns of ``u`` that belong to zero columns come
from one QR factorization.  Callers choose only the sweep budget.  The
routine is independent of ``numpy.linalg.svd`` (QR is not an SVD), so the
two can cross-check each other.

Pairs are visited in the round-robin ("parallel") ordering of Brent and
Luk (1985): a sweep of n columns is n - 1 rounds, and each round pairs
every column with exactly one other (for odd n one column sits out each
round, paired with a phantom slot).  The pairs of a round are disjoint,
so their rotations commute: one round reads the norms and inner products
of all its pairs from the current columns, then rotates them all at once
with a few array operations, instead of one pair at a time in Python.

The library runs this routine once per model matrix, for the singular
values behind its norm (kept on the operator).  The certificates of
:func:`ballapprox.models.make_result` check that norm against LAPACK's
singular values of the approximant and of the residual, and the oracles
of :mod:`ballapprox.oracles` build and score their candidates with
``numpy.linalg``.  :func:`jacobi_svd` is public, for singular vectors.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["NumericError", "jacobi_svd", "jacobi_singular_values"]

#: Relative orthogonality target for column pairs: iteration stops after
#: a sweep in which every pair's cosine is at most this (or a column is zero).
ORTHOGONALITY_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 60


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


def _round_rotation(g, read, write, eye, tol: float, zero_sq: float):
    """The rotation of one round as an ``n x n`` matrix, or None if no pair
    of the round needs rotating.

    ``read`` picks each pair's ``alpha = |w_p|^2``, ``beta = |w_q|^2`` and
    ``gamma = <w_p, w_q>`` out of the Gram matrix ``g``.  A pair is
    skipped, that is rotated by the identity, when one of its columns
    counts as zero or the two are already orthogonal to ``tol``.
    """
    alpha, beta, gamma = g.take(read).reshape(3, -1)
    # sqrt of each factor: alpha * beta itself can overflow
    scale = np.sqrt(alpha) * np.sqrt(beta)
    skip = (np.minimum(alpha, beta) <= zero_sq) | (np.abs(gamma) <= tol * scale)
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


def _orthogonalize_columns(w: np.ndarray, v, max_sweeps: int):
    """Round-robin Jacobi sweeps on the columns of ``w``, mirrored on ``v``,
    until a sweep in which no round rotates.

    Returns the rotated ``(w, v)`` and the zero-column threshold
    ``zero_norm``; ``v`` may be None.  A sweep meets every pair once, so
    a sweep without a rotation leaves each pair orthogonal to
    :data:`ORTHOGONALITY_TOL` or with a zero column (the stopping and
    zero-column rules of Drmac and Veselic's one-sided Jacobi).  A column
    of norm at most ``zero_norm = n * eps * ||w||_F`` is rounding error
    of a rank-deficient input.  Rotations keep ``||w||_F``, so the
    threshold is fixed; ``hypot`` sums it without overflow.  More than
    ``max_sweeps`` rotating sweeps raise :class:`NumericError`, as does
    an input whose Gram matrix overflows, before any sweep.
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
    # v rides below w, so one product applies a round's rotations to both
    a = w if v is None else np.vstack((w, v))
    eye = np.eye(n)
    rounds = _round_indices(n)
    # a skipped pair may have gamma = 0, and its zeta then divides by zero;
    # its t is overwritten with 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(max_sweeps + 1):
            rotated = False
            for read, write in rounds:
                rot = _round_rotation(g, read, write, eye, ORTHOGONALITY_TOL, zero_sq)
                if rot is None:
                    continue
                if sweep == max_sweeps:
                    raise NumericError(
                        f"column orthogonalization did not converge in {max_sweeps} sweeps"
                    )
                rotated = True
                a = a @ rot
                g = a[:n].T @ a[:n]
            if not rotated:
                return a[:n], (None if v is None else a[n:]), zero_norm


def _checked_square(a) -> np.ndarray:
    w = np.asarray(a)  # bools, strings and objects are not read as numbers
    if w.dtype.kind not in "iuf" or w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square real matrix, got {w.dtype} of shape {w.shape}")
    w = w.astype(float)
    if not np.all(np.isfinite(w)):
        raise ValueError("expected finite entries")
    return w


def jacobi_svd(a, max_sweeps: int = DEFAULT_MAX_SWEEPS):
    """Full SVD ``a = u @ diag(s) @ vt`` of a square matrix.

    Parameters
    ----------
    a : array_like, shape (n, n)
        Square real matrix, n >= 1.
    max_sweeps : int
        Budget of rotating sweeps; exceeding it raises
        :class:`NumericError`, as does an input whose Gram matrix
        overflows.

    Returns
    -------
    u, s, vt : ndarray
        Orthogonal ``u``, singular values ``s`` in descending order,
        orthogonal ``vt``.  A column of ``u`` is ``w / s`` unless the
        rotations counted ``w`` as zero; those columns complete the
        others to an orthonormal basis, from one QR factorization.
    """
    w = _checked_square(a)
    n = w.shape[0]
    w, v, zero_norm = _orthogonalize_columns(w, np.eye(n), max_sweeps)

    sv = np.sqrt(np.sum(w * w, axis=0))
    order = np.argsort(-sv, kind="stable")
    sv = sv[order]
    u = w[:, order]
    k = int(np.count_nonzero(sv > zero_norm))  # zero columns sort last
    u[:, :k] /= sv[:k]
    if k < n:
        u[:, k:] = np.linalg.qr(u[:, :k], mode="complete")[0][:, k:]
    return u, sv, v[:, order].T


def jacobi_singular_values(a, max_sweeps: int = DEFAULT_MAX_SWEEPS) -> np.ndarray:
    """Descending singular values of a square matrix (no u/v assembly)."""
    w, _, _ = _orthogonalize_columns(_checked_square(a), None, max_sweeps)
    sv = np.sqrt(np.sum(w * w, axis=0))
    sv.sort()
    return sv[::-1]
