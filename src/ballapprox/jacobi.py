"""One-sided Jacobi singular value decomposition.

Self-contained SVD for the dense square blocks used by the finite
matrix model (dimension at most 64, far below where cyclic Jacobi
becomes uncompetitive).  The routine rotates column pairs until all
columns are mutually orthogonal relative to tolerance; column norms are
then the singular values.  It is intentionally independent of
``numpy.linalg.svd`` so the two can cross-check each other.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NumericError", "jacobi_svd", "jacobi_singular_values"]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 60


class NumericError(ArithmeticError):
    """The iteration failed to converge within the sweep bound."""


def _max_pair_correlation(w: np.ndarray, zero_norm: float) -> float:
    # max_{p<q} |<w_p, w_q>| / (|w_p| |w_q|), treating columns of norm at
    # most zero_norm as zero and zero columns as orthogonal
    g = w.T @ w
    d = np.sqrt(np.diag(g))
    d[d <= zero_norm] = 0.0
    denom = np.outer(d, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.abs(g) / denom
    c[denom == 0.0] = 0.0
    np.fill_diagonal(c, 0.0)
    return float(c.max()) if c.size else 0.0


def _orthogonalize_columns(w: np.ndarray, v, tol: float, max_sweeps: int):
    """Cyclic Jacobi sweeps on ``w`` (in place), mirroring rotations on ``v``.

    A column whose norm is at most ``n * eps * ||w||_F`` is rounding
    error of a rank-deficient input: it counts as zero and is never
    rotated (the zero-column test of Drmac and Veselic's one-sided
    Jacobi).  Rotations keep ``||w||_F``, so the threshold is fixed; it is
    summed with ``hypot`` so that it cannot overflow.
    """
    n = w.shape[1]
    zero_norm = n * np.finfo(float).eps * float(np.hypot.reduce(w.ravel()))
    zero_sq = zero_norm * zero_norm
    for sweep in range(max_sweeps + 1):
        if _max_pair_correlation(w, zero_norm) <= tol:
            return
        if sweep == max_sweeps:
            raise NumericError(
                f"column orthogonalization did not converge in {max_sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                wp, wq = w[:, p], w[:, q]
                alpha = wp @ wp
                beta = wq @ wq
                gamma = wp @ wq
                scale = np.sqrt(alpha * beta)
                if min(alpha, beta) <= zero_sq or abs(gamma) <= tol * scale:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                w[:, p], w[:, q] = c * wp - s * wq, s * wp + c * wq
                if v is not None:
                    vp, vq = v[:, p].copy(), v[:, q].copy()
                    v[:, p], v[:, q] = c * vp - s * vq, s * vp + c * vq


def _checked_square(a) -> np.ndarray:
    w = np.array(a, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("expected finite entries")
    return w


def jacobi_svd(a, tol: float = DEFAULT_TOL, max_sweeps: int = DEFAULT_MAX_SWEEPS):
    """Full SVD ``a = u @ diag(s) @ vt`` of a square matrix.

    Parameters
    ----------
    a : array_like, shape (n, n)
        Square real matrix, n >= 1.
    tol : float
        Relative orthogonality target for column pairs.
    max_sweeps : int
        Sweep budget; exceeding it raises :class:`NumericError`.

    Returns
    -------
    u, s, vt : ndarray
        Orthogonal ``u``, singular values ``s`` in descending order,
        orthogonal ``vt``.
    """
    w = _checked_square(a)
    n = w.shape[0]
    v = np.eye(n)
    _orthogonalize_columns(w, v, tol, max_sweeps)

    sv = np.sqrt(np.sum(w * w, axis=0))
    order = np.argsort(-sv, kind="stable")
    sv = sv[order]
    w = w[:, order]
    v = v[:, order]

    u = np.zeros((n, n))
    for i in range(n):
        if sv[i] > 0.0:
            u[:, i] = w[:, i] / sv[i]
        else:
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


def jacobi_singular_values(a, tol: float = DEFAULT_TOL,
                           max_sweeps: int = DEFAULT_MAX_SWEEPS) -> np.ndarray:
    """Descending singular values of a square matrix (no u/v assembly)."""
    w = _checked_square(a)
    _orthogonalize_columns(w, None, tol, max_sweeps)
    sv = np.sqrt(np.sum(w * w, axis=0))
    sv.sort()
    return sv[::-1]
