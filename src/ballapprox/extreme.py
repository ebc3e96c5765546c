"""Extreme points of finite-dimensional unit balls and radial projection.

For an extreme point ``e`` of the unit ball of R^d under the l1, l2, or
sup norm and a scalar ``|alpha| > 1``, the nearest point of the ball to
``alpha * e`` is unique and equals the radial projection
``sign(alpha) * e``, at distance ``|alpha| - 1``.  Uniqueness genuinely
needs extremality: for a non-extreme point a whole face of the ball is
equidistant.  :func:`verify_unique_projection` probes both statements
empirically with seeded sampling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .models import ValidationError, _finite_array, _require_finite, _require_int

__all__ = [
    "Space",
    "NormedSpacePoint",
    "ProjectionReport",
    "is_extreme",
    "project_scalar_multiple",
    "verify_unique_projection",
]

EXTREME_TOL = 1e-12

#: Default near-minimizer band of :func:`verify_unique_projection`.
PROJECTION_TOL = 1e-3


class Space(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @classmethod
    def from_str(cls, name: str) -> "Space":
        for member in cls:
            if member.value == name:
                return member
        raise ValidationError(f"unknown space {name!r}, expected one of l1, l2, linf")

    def norm(self, coords) -> float:
        return float(self.norm_rows(np.asarray(coords, dtype=float)[None, :])[0])

    def norm_rows(self, arr: np.ndarray) -> np.ndarray:
        """Norm of each row of an n x d array, one coordinate at a time.

        The terms ``|c|`` (l1, sup) or ``c * c`` (l2) are laid out d x n in
        memory, and numpy reduces that array's d rows into the n results one
        row at a time: each point's coordinates are summed left to right
        (l2 then takes one square root) or run through a maximum (sup), in a
        few vector operations instead of numpy's fixed cost per short row.
        For d <= 7 that is also the order of ``np.sum(..., axis=1)``, the base
        case of numpy's pairwise summation, so the bits are the same.  For
        d >= 8 the last bits may differ, within the recursive-summation bound
        that the rounding allowance of :func:`verify_unique_projection`
        assumes.  A single point (n = 1) is summed pairwise, as ``np.sum``
        sums a row.
        """
        cols = arr.T
        if self is Space.L2:
            return np.sqrt(np.sum(np.multiply(cols, cols, order="C"), axis=0))
        terms = np.abs(cols, order="C")
        return np.sum(terms, axis=0) if self is Space.L1 else np.max(terms, axis=0)


@dataclass(frozen=True)
class NormedSpacePoint:
    space: Space
    coords: tuple

    def __post_init__(self):
        coords = tuple(_finite_array(self.coords, "coords").tolist())
        if not coords:
            raise ValidationError("points need at least one coordinate")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def norm(self) -> float:
        return self.space.norm(self.coords)


def is_extreme(p: NormedSpacePoint) -> bool:
    """Whether ``p`` is an extreme point of its unit ball.

    sup norm: every coordinate has modulus 1.  l1: exactly one nonzero
    coordinate, of modulus 1.  l2: unit norm (the sphere is the extreme
    set).  Points outside the ball (beyond 1e-12) are rejected.
    """
    if not isinstance(p, NormedSpacePoint):
        raise ValidationError("expected a NormedSpacePoint")
    if p.norm() > 1.0 + EXTREME_TOL:
        raise ValidationError(f"point has norm {p.norm()} outside the unit ball")
    if p.space is Space.LINF:
        return all(abs(abs(c) - 1.0) <= EXTREME_TOL for c in p.coords)
    if p.space is Space.L1:
        big = [c for c in p.coords if abs(c) > EXTREME_TOL]
        return len(big) == 1 and abs(abs(big[0]) - 1.0) <= EXTREME_TOL
    return abs(p.norm() - 1.0) <= EXTREME_TOL


def project_scalar_multiple(alpha: float, point: NormedSpacePoint):
    """Nearest ball point to ``alpha * point`` and its distance.

    ``point`` must be extreme and ``|alpha| > 1`` strictly; the nearest
    point is then unique: ``sign(alpha) * point`` at distance
    ``|alpha| - 1``.
    """
    alpha = _require_finite(alpha, "alpha")
    if abs(alpha) <= 1.0:
        raise ValidationError(f"projection requires |alpha| > 1, got {alpha}")
    if not is_extreme(point):
        raise ValidationError("uniqueness of the projection requires an extreme point")
    s = 1.0 if alpha > 0 else -1.0
    proj = NormedSpacePoint(point.space, tuple(s * c for c in point.coords))
    return proj, abs(alpha) - 1.0


@dataclass(frozen=True)
class ProjectionReport:
    """Outcome of sampled verification around a radial projection."""

    space: Space
    alpha: float
    samples: int
    seed: int
    tol: float
    extreme_input: bool
    lower_bound: float
    min_distance: float
    lower_ok: bool
    near_count: int
    radius: float
    radius_bound: float
    radius_ok: bool
    spread: float
    worst_offender: tuple
    passed: bool


def _radius_bound(space: Space, tol: float) -> float:
    # convexity algebra: any ball point within (|alpha|-1)+tol of alpha*e
    # sits within this distance of the radial projection when e is extreme
    if space is Space.L2:
        return math.sqrt(2.0 * tol + tol * tol) + 1e-9
    return tol + 1e-9


def _ball_samples(space: Space, dim: int, n: int, rng) -> np.ndarray:
    """Roughly uniform samples from the unit ball, n x dim."""
    if space is Space.LINF:
        return rng.uniform(-1.0, 1.0, (n, dim))
    if space is Space.L2:
        return _boundary_samples(space, dim, n, rng) * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / dim)
    mass = rng.exponential(1.0, (n, dim))
    mass /= space.norm_rows(mass)[:, None]
    radius = rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / dim)
    signs = 2.0 * rng.integers(0, 2, (n, dim)) - 1.0
    return signs * mass * radius


def _boundary_samples(space: Space, dim: int, n: int, rng) -> np.ndarray:
    if space is Space.LINF:
        pts = rng.uniform(-1.0, 1.0, (n, dim))
        idx = rng.integers(0, dim, n)
        pts[np.arange(n), idx] = 2.0 * rng.integers(0, 2, n) - 1.0
        return pts
    if space is Space.L2:
        g = rng.standard_normal((n, dim))
        g /= np.maximum(space.norm_rows(g), 1e-300)[:, None]
        return g
    mass = rng.exponential(1.0, (n, dim))
    mass /= space.norm_rows(mass)[:, None]
    return (2.0 * rng.integers(0, 2, (n, dim)) - 1.0) * mass


def _pull_into_ball(space: Space, pts: np.ndarray) -> np.ndarray:
    if space is Space.LINF:
        return np.clip(pts, -1.0, 1.0)
    norms = space.norm_rows(pts)
    factor = np.where(norms > 1.0, 1.0 / np.maximum(norms, 1e-300), 1.0)
    return pts * factor[:, None]


def _spread(space: Space, pts: np.ndarray) -> float:
    """Largest distance between two rows of ``pts`` (n x d, n <= 202).

    l1 and l2 add ``|c_i - c_j|`` or ``(c_i - c_j)**2`` into one n x n array,
    one coordinate at a time and left to right as :meth:`Space.norm_rows`
    sums, never holding an n x n x d one; l2 takes the root of the largest
    sum only, which is the largest root bit for bit, since the square root
    is monotone and correctly rounded.
    """
    if space is Space.LINF:
        # fl(a - b) rises with a and falls with b, so each coordinate's
        # largest pairwise difference is its max minus its min: same bits
        return float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    acc = np.zeros((len(pts), len(pts)))
    for c in pts.T:
        diff = np.subtract.outer(c, c)
        acc += np.multiply(diff, diff, out=diff) if space is Space.L2 else np.abs(diff, out=diff)
    top = float(acc.max())
    return math.sqrt(top) if space is Space.L2 else top


def verify_unique_projection(
    alpha: float,
    point: NormedSpacePoint,
    samples: int = 10_000,
    seed: int = 0,
    tol: float = PROJECTION_TOL,
) -> ProjectionReport:
    """Probe optimality and uniqueness of the radial projection by sampling.

    Draws ``samples`` ball points (generic, boundary, and local clusters
    near the radial projection, plus the projection itself), confirms no
    sample beats the projection's own distance (``|alpha| - 1`` for a
    unit ``e``) beyond 1e-12 plus the proven rounding of the distances,
    and measures how far near-minimizers (within ``tol`` of optimal,
    measured from ``|alpha| - 1``) stray from the
    projection.  An ``|alpha|`` whose rounding leaves no such band is
    rejected.  For an extreme input that radius is provably small
    (order ``tol``, order ``sqrt(tol)`` for l2); for a non-extreme input
    the report fails and ``spread`` exhibits far-apart minimizers.

    Unlike :func:`project_scalar_multiple` this accepts non-extreme
    inputs, so failure demonstrations are expressible.
    """
    alpha = _require_finite(alpha, "alpha")
    if abs(alpha) <= 1.0:
        raise ValidationError(f"verification requires |alpha| > 1, got {alpha}")
    extreme_input = is_extreme(point)  # also rejects a point outside the ball
    samples = _require_int(samples, "samples", 1)
    seed = _require_int(seed, "seed", 0)
    tol = _require_finite(tol, "tol")
    if not 0.0 < tol < 1.0:
        raise ValidationError("tol must lie in (0, 1)")

    space, dim = point.space, point.dim
    e = np.array(point.coords)
    target = alpha * e
    s = 1.0 if alpha > 0 else -1.0
    proj = s * e
    lower = abs(alpha) - 1.0
    bound = _radius_bound(space, tol)
    # r bounds the rounding of each computed distance and of lower.  With
    # u = eps / 2, coordinate i of fl(fl(alpha * e) - p) is off by at most
    # u * ((2 + u) |alpha e_i| + |p_i|); the norms are absolute and e, p lie
    # in the ball, so that error vector has norm <= eps * (|alpha| + 1).
    # The norm of a vector of norm <= |alpha| + 1 then rounds by a relative
    # (dim - 1) u (l1), (dim / 2 + 1) u (l2) or 0 (sup), the bounds of the
    # left-to-right sum of Space.norm_rows (they hold for its pairwise sum
    # of a single row too), and fl(|alpha| - 1)
    # by u |alpha|: (dim + 4) eps (|alpha| + 1) covers all, second order too.
    # The lower check compares with the projection's own computed distance
    # (the last sample).  Its true distance (|alpha| - 1) ||e|| exceeds the
    # true minimum, at least |alpha| ||e|| - 1 by the triangle inequality,
    # by at most 1 - ||e||, and an accepted extreme point has
    # |1 - ||e||| <= EXTREME_TOL in all three norms; with r on each side,
    # no sample may come out below it by more than EXTREME_TOL + 2 r.
    r = (dim + 4) * np.finfo(float).eps * (abs(alpha) + 1.0)
    if 4.0 * r >= tol:  # the projection's own distance may miss the band
        raise ValidationError(
            f"|alpha| = {abs(alpha):g} is too large for tol {tol:g}: distance "
            f"rounding {r:.3g} leaves no near-minimizer band"
        )

    rng = np.random.default_rng(seed)
    n_generic = (6 * samples) // 10
    n_face = (2 * samples) // 10
    n_local = samples - n_generic - n_face
    local = proj[None, :] + rng.uniform(-1.0, 1.0, (n_local, dim)) * bound
    pts = np.vstack(
        [
            _ball_samples(space, dim, n_generic, rng),
            _boundary_samples(space, dim, n_face, rng),
            _pull_into_ball(space, local),
            proj[None, :],
        ]
    )

    dists = space.norm_rows(target[None, :] - pts)
    min_distance = float(dists.min())
    lower_ok = min_distance >= dists[-1] - EXTREME_TOL - 2.0 * r

    near = pts[dists <= lower + tol - 2.0 * r]
    offsets = space.norm_rows(near - proj[None, :])
    radius = float(offsets.max()) if len(offsets) else 0.0
    if len(offsets):
        worst = tuple(float(x) for x in near[int(np.argmax(offsets))])
    else:
        worst = tuple(float(x) for x in proj)
    radius_ok = radius <= bound

    # max pairwise distance among a strided subset of near-minimizers
    # (bounded quadratic cost; a lower bound on the true diameter)
    spread = 0.0
    if len(near) >= 2:
        stride = max(len(near) // 200, 1)
        subset = near[::stride][:201]
        subset = np.vstack([subset, near[int(np.argmax(offsets))]])
        spread = _spread(space, subset)

    return ProjectionReport(
        space=space,
        alpha=alpha,
        samples=samples,
        seed=seed,
        tol=tol,
        extreme_input=extreme_input,
        lower_bound=lower,
        min_distance=min_distance,
        lower_ok=lower_ok,
        near_count=int(len(near)),
        radius=radius,
        radius_bound=bound,
        radius_ok=radius_ok,
        spread=spread,
        worst_offender=worst,
        passed=bool(lower_ok and radius_ok),
    )
