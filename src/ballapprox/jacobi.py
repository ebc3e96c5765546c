"""One-sided Jacobi singular value decomposition.

Self-contained SVD for the dense square blocks used by the finite
matrix model (dimension at most 64).  The routine rotates column pairs
until all columns are mutually orthogonal to the fixed relative target
``ORTHOGONALITY_TOL``; callers choose only the sweep budget.  Column
norms are then the singular values.  The routine is intentionally
independent of ``numpy.linalg.svd`` so the two can cross-check each other.

Pairs are visited in the round-robin ("parallel") ordering of Brent and
Luk (1985): a sweep of n columns is n - 1 rounds, and each round pairs
every column with exactly one other (for odd n one column sits out each
round, paired with a phantom slot).  The pairs of a round are disjoint,
so their rotations commute: one round reads the norms and inner products
of all its pairs from the current columns, then rotates them all at once
with a few array operations, instead of one pair at a time in Python.

Callers that need the decomposition of a model matrix more than once
read the SVD memoised on the operator
(:attr:`ballapprox.models.HilbertOperator.matrix_svd`) rather than call
this module again.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["NumericError", "jacobi_svd", "jacobi_singular_values"]

#: Relative orthogonality target for column pairs: iteration stops once
#: every pair's cosine is at most this.
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


def _max_pair_correlation(g: np.ndarray, zero_norm: float) -> float:
    # max_{p<q} |<w_p, w_q>| / (|w_p| |w_q|) from the Gram matrix g,
    # treating columns of norm at most zero_norm as zero and zero columns
    # as orthogonal
    d = np.sqrt(np.diag(g))
    d[d <= zero_norm] = 0.0
    denom = np.outer(d, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.abs(g) / denom
    c[denom == 0.0] = 0.0
    np.fill_diagonal(c, 0.0)
    return float(c.max()) if c.size else 0.0


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
    until every pair is orthogonal to :data:`ORTHOGONALITY_TOL`.

    Returns the rotated ``(w, v)``; ``v`` may be None.  A column whose
    norm is at most ``n * eps * ||w||_F`` is rounding error of a
    rank-deficient input: it counts as zero and is never rotated (the
    zero-column test of Drmac and Veselic's one-sided Jacobi).  Rotations
    keep ``||w||_F``, so the threshold is fixed; it is summed with
    ``hypot`` so that it cannot overflow.  An input whose Gram matrix
    overflows raises :class:`NumericError` before any sweep.
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
            if _max_pair_correlation(g, zero_norm) <= ORTHOGONALITY_TOL:
                return a[:n], (None if v is None else a[n:])
            if sweep == max_sweeps:
                raise NumericError(
                    f"column orthogonalization did not converge in {max_sweeps} sweeps"
                )
            for read, write in rounds:
                rot = _round_rotation(g, read, write, eye, ORTHOGONALITY_TOL, zero_sq)
                if rot is not None:
                    a = a @ rot
                    g = a[:n].T @ a[:n]


def _checked_square(a) -> np.ndarray:
    w = np.array(a, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
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
        Sweep budget; exceeding it raises :class:`NumericError`, as does
        an input whose Gram matrix overflows.

    Returns
    -------
    u, s, vt : ndarray
        Orthogonal ``u``, singular values ``s`` in descending order,
        orthogonal ``vt``.
    """
    w = _checked_square(a)
    n = w.shape[0]
    w, v = _orthogonalize_columns(w, np.eye(n), max_sweeps)

    sv = np.sqrt(np.sum(w * w, axis=0))
    order = np.argsort(-sv, kind="stable")
    sv = sv[order]
    w = w[:, order]
    v = v[:, order]

    u = np.zeros((n, n))
    live = sv > 0.0
    u[:, live] = w[:, live] / sv[live]
    for i in np.flatnonzero(~live):  # zero values sort last
        u[:, i] = _orthonormal_completion(u[:, :i])
    return u, sv, v.T


def _orthonormal_completion(basis: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to the given orthonormal columns."""
    n = basis.shape[0]
    for k in range(n):
        cand = np.zeros(n)
        cand[k] = 1.0
        cand -= basis @ (basis.T @ cand)
        nrm = np.sqrt(cand @ cand)
        if nrm > 1e-6:
            cand /= nrm
            cand -= basis @ (basis.T @ cand)  # one reorthogonalization pass
            return cand / np.sqrt(cand @ cand)
    raise NumericError("failed to complete an orthonormal basis")


def jacobi_singular_values(a, max_sweeps: int = DEFAULT_MAX_SWEEPS) -> np.ndarray:
    """Descending singular values of a square matrix (no u/v assembly)."""
    w, _ = _orthogonalize_columns(_checked_square(a), None, max_sweeps)
    sv = np.sqrt(np.sum(w * w, axis=0))
    sv.sort()
    return sv[::-1]
