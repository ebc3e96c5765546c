"""Extreme points of finite-dimensional unit balls and radial projection.

For an extreme point ``e`` of the unit ball of R^d under the l1, l2, or
sup norm and a scalar ``|alpha| > 1``, the nearest point of the ball to
``alpha * e`` is unique and equals the radial projection
``sign(alpha) * e``, at distance ``|alpha| - 1``.  Uniqueness genuinely
needs extremality: for a non-extreme point a whole face of the ball is
equidistant.  :func:`verify_unique_projection` decides both statements in
closed form, drawing no sample.

Write ``a = |alpha|``, ``p = sign(alpha) e``, ``n = ||e||`` and
``x = alpha e = a p``.  The distance from ``x`` to the ball is
``max(a n - 1, 0)`` in every norm (``x / ||x||`` attains it), and ``p``
lies at ``(a - 1) n`` from ``x``, the same when ``n = 1``.  The near set
of a band ``b`` is ``N = {y : ||y|| <= 1, ||x - y|| <= R}`` with
``R = (a - 1) n + b``, and S(b) is the supremum of ``||y - p||`` over it.

* sup norm: N is the box of ``[max(-1, x_i - R), min(1, x_i + R)]``.
  S(b) is the largest distance of an end from ``p_i``, attained at a
  corner; the opposite corner is the point of N farthest from it.  For
  extreme ``e`` every interval is ``[1 - b, 1]`` or ``[-1, -1 + b]`` about
  ``p_i = +-1``, and S(b) = b.
* l2 (``d >= 2``): N is symmetric about the axis ``u = p / n``.  If
  ``||x|| + R = (2a - 1) n + b <= 1`` it is the ball ``B(x, R)``, and
  S(b) = ``2 (a - 1) n + b`` at the axis point ``((2a - 1) n + b) u``.
  Otherwise N is a lens (its near end ``(n - b) u`` lies inside the ball,
  as ``n - b > -1``): the spheres meet in a rim at height ``h`` along
  ``u``, ``1 - h = ((1 - n)((2a - 1) n - 1) + (2 (a - 1) n + b) b) / (2 a n)``,
  of radius ``sqrt((1 - h)(1 + h))``, written to avoid the cancellation of
  ``(1 + ||x||^2 - R^2) / (2 ||x||)``.  The squared distance from ``p`` is
  convex, so it peaks at an extreme point of the lens, and along either
  sphere it grows towards the rim: S(b)^2 = ``(1 - n)^2 + 2 n (1 - h)``,
  which is ``(2 (a - 1) b + b^2) / a`` for a unit ``e``.
* l1: flip signs so that ``p >= 0`` and write ``y = p + z``.  On the
  support of ``p`` a move ``z_i`` within ``[-p_i, (a - 1) p_i]`` (``y_i``
  between 0 and ``x_i``) changes ``||y||`` by ``z_i`` and ``||x - y||`` by
  ``-z_i``; any move beyond those ends, or off the support, adds its length
  to both.  With the coordinates of total mass ``B`` moving down and the
  others up, the largest ``||z||`` is the linear program's
  ``T(B) = min(2 B + 1 - n, 2 (a - 1)(n - B) + b)``, a tent peaking at
  ``B* = (2 (a - 1) n + b - 1 + n) / (2 a)``.  Sums ``B`` of sets without
  the largest coordinate ``c`` lie in ``[0, n - c]``, those with it in
  ``[c, n]``, so S(b) <= ``max(T(clip(B*, 0, n - c)), T(clip(B*, c, n)))``,
  with equality when ``n - c <= B* <= c``, where both clips are sums of
  sets: so for every point within ``EXTREME_TOL`` of extreme.  Moving
  ``c`` down attains ``T(c)`` at the point that equals ``x`` off ``c`` and
  ``c - (a - 1)(n - c) - b`` on it, ``(1 - b) p`` for extreme ``e``.  A
  face vertex ``sign(p_j) e_j`` lies in N when ``2 max(1 - a p_j, 0) <=
  1 - n + b``, at ``1 + n - 2 p_j`` from ``p``: for a non-extreme ``e`` it
  witnesses the failure.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .models import ValidationError, _finite_array, _require_finite

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
    norm = p.norm()
    if norm > 1.0 + EXTREME_TOL:
        raise ValidationError(f"point has norm {norm} outside the unit ball")
    if p.space is Space.LINF:
        return all(abs(abs(c) - 1.0) <= EXTREME_TOL for c in p.coords)
    if p.space is Space.L1:
        big = [c for c in p.coords if abs(c) > EXTREME_TOL]
        return len(big) == 1 and abs(abs(big[0]) - 1.0) <= EXTREME_TOL
    return abs(norm - 1.0) <= EXTREME_TOL


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
    """Outcome of the closed-form check around a radial projection.

    ``min_distance`` is the distance from ``alpha * e`` to the ball,
    ``max(|alpha| ||e|| - 1, 0)``, and ``lower_ok`` says that the
    projection's own distance ``(|alpha| - 1) ||e||`` exceeds it by at most
    ``EXTREME_TOL`` plus rounding.  ``radius`` bounds from above the distance
    from the projection of every near-minimizer, the supremum of the module
    docstring rounded up; ``radius_ok`` compares it with ``radius_bound``.
    ``worst_offender`` is a near-minimizer at that distance to within
    rounding (for an l1 point off the extreme set, the farthest witness of
    its face), and ``spread`` is its distance from a second near-minimizer.
    """

    space: Space
    alpha: float
    tol: float
    extreme_input: bool
    lower_bound: float
    min_distance: float
    lower_ok: bool
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


def _near_set(space: Space, a: float, p: tuple, n: float, outer: float, inner: float):
    """``(S(outer), points)`` around ``p = sign(alpha) e``, with ``n = ||e||``.

    S is the module docstring's supremum (an upper bound for an l1 point
    off the extreme set), and ``points`` are near points of the band
    ``inner``, the first at the largest distance from ``p``: it attains
    S(inner) or witnesses it.  The coordinates are Python floats, taken one
    at a time: a point has few of them, and numpy's fixed cost per call
    would outweigh the arithmetic.
    """
    d = len(p)
    if space is Space.LINF or d == 1:  # in one dimension all three norms are |.|

        def ends(c, band):  # y_i - p_i at the ends of coordinate i's interval
            # (a - 1) p_i -+ R clipped to -1 - p_i and 1 - p_i, free of the
            # cancellation of x_i -+ R
            lo = max(-1.0 - c, (a - 1.0) * (c - n) - band)
            return lo, min(1.0 - c, (a - 1.0) * (c + n) + band)

        sup = max(max(-lo, hi) for lo, hi in (ends(c, outer) for c in p))
        corner, opposite = [], []
        for c in p:
            lo, hi = ends(c, inner)
            near, far = (lo, hi) if -lo >= hi else (hi, lo)
            corner.append(min(max(c + near, -1.0), 1.0))
            opposite.append(min(max(c + far, -1.0), 1.0))
        return sup, [corner, opposite]
    if space is Space.L2:
        top = (2.0 * a - 1.0) * n  # ||x|| + R less the band: the far end of the axis

        def dip(band):  # 1 - h for the lens whose rim lies at height h along the axis
            return ((1.0 - n) * (top - 1.0) + (2.0 * (a - 1.0) * n + band) * band) / (2.0 * a * n)

        if top + outer <= 1.0:  # the ball B(x, R) lies in the unit ball
            sup = top + outer - n
        else:
            sup = math.sqrt(max((1.0 - n) ** 2 + 2.0 * n * dip(outer), 0.0))
        axis = [c / n for c in p] if n > 0.0 else [1.0] + [0.0] * (d - 1)
        if top + inner <= 1.0:
            points = [[(top + inner) * u for u in axis], [(n - inner) * u for u in axis]]
        else:
            drop = dip(inner)  # 1 - h itself: when it is far below eps, h loses it
            h = 1.0 - drop
            rim = math.sqrt(max(drop * (1.0 + h), 0.0))
            j = min(range(d), key=lambda i: abs(axis[i]))
            ortho = [-axis[j] * u for u in axis]
            ortho[j] += 1.0
            rim /= math.sqrt(sum(o * o for o in ortho))
            points = [[h * u + rim * o for u, o in zip(axis, ortho)],
                      [h * u - rim * o for u, o in zip(axis, ortho)]]
        # the rim and the far end may lie on the unit sphere: pull the
        # rounded points into the ball
        pull = 1.0 - (d + 4) * sys.float_info.epsilon
        return sup, [[pull * c for c in y] for y in points]
    mass = [abs(c) for c in p]
    k = max(range(d), key=mass.__getitem__)
    c, slack = mass[k], 1.0 - n
    rest = n - c

    def tent(down):  # the largest ||y - p|| when coordinates of mass ``down`` move down
        return min(2.0 * down + slack, 2.0 * (a - 1.0) * (n - down) + outer)

    peak = (2.0 * (a - 1.0) * n + outer - slack) / (2.0 * a)
    sup = max(tent(min(max(peak, 0.0), rest)), tent(min(max(peak, c), n)))
    points = []  # (distance from p, near point)
    lowered = c - (a - 1.0) * rest - inner  # coordinate k moved down, the rest filled to x
    if lowered >= 0.0:
        y = [a * v for v in p]  # alpha * e, bit for bit
        y[k] = math.copysign(lowered, p[k])
        points.append((2.0 * (a - 1.0) * rest + inner, y))
    # the face vertices sign(p_j) e_j that are near points: k's, and the one
    # farthest from p of the others
    fits = [m > 0.0 and 2.0 * max(1.0 - a * m, 0.0) <= slack + inner for m in mass]
    others = sorted((j for j in range(d) if fits[j] and j != k), key=mass.__getitem__)
    for j in ([k] if fits[k] else []) + others[:1]:
        y = [0.0] * d
        y[j] = math.copysign(1.0, p[j])
        points.append((1.0 + n - 2.0 * mass[j], y))
    points.sort(key=lambda point: -point[0])
    return sup, [y for _, y in points]


def verify_unique_projection(
    alpha: float,
    point: NormedSpacePoint,
    tol: float = PROJECTION_TOL,
) -> ProjectionReport:
    """Decide optimality and uniqueness of the radial projection in closed form.

    Confirms that no ball point beats the projection's own distance beyond
    ``EXTREME_TOL`` plus the proven rounding of the distances, and bounds how
    far near-minimizers (within ``tol``, less that rounding, of the
    projection's distance) stray from the projection; the module docstring
    derives both.  An ``|alpha|`` whose rounding leaves no such band is
    rejected.  For an extreme input that radius is provably small (order
    ``tol``, order ``sqrt(tol)`` for l2); for a non-extreme input the report
    fails and ``spread`` exhibits far-apart near-minimizers.

    Unlike :func:`project_scalar_multiple` this accepts non-extreme
    inputs, so failure demonstrations are expressible.
    """
    alpha = _require_finite(alpha, "alpha")
    if abs(alpha) <= 1.0:
        raise ValidationError(f"verification requires |alpha| > 1, got {alpha}")
    extreme_input = is_extreme(point)  # also rejects a point outside the ball
    tol = _require_finite(tol, "tol")
    if not 0.0 < tol < 1.0:
        raise ValidationError("tol must lie in (0, 1)")

    space, dim = point.space, point.dim
    a = abs(alpha)
    p = tuple((1.0 if alpha > 0 else -1.0) * c for c in point.coords)
    n = point.norm()
    lower = a - 1.0
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
    # The closed forms below round by a few u (|alpha| + 1) at most.
    r = (dim + 4) * sys.float_info.epsilon * (abs(alpha) + 1.0)
    if 4.0 * r + max(n - 1.0, 0.0) >= tol:  # rounding, or ||e|| > 1, may empty the band
        raise ValidationError(
            f"|alpha| = {abs(alpha):g} is too large for tol {tol:g}: distance "
            f"rounding {r:.3g} leaves no near-minimizer band"
        )

    # The projection's distance (|alpha| - 1) ||e|| exceeds the distance to
    # the ball, max(|alpha| ||e|| - 1, 0), by 1 - ||e|| when |alpha| ||e||
    # >= 1, and an accepted extreme point has |1 - ||e||| <= EXTREME_TOL in
    # all three norms; with r on each side, the lower check allows
    # EXTREME_TOL + 2 r.
    min_distance = max(a * n - 1.0, 0.0)
    lower_ok = min_distance >= (a - 1.0) * n - EXTREME_TOL - 2.0 * r

    # The near set is measured with the band tau = tol - 2 r.  The radius
    # is S(tau + r) + r: the wider band holds every ball point whose computed
    # distance falls within tau, and r covers the rounding of S and of a
    # computed offset.  The points take tau - r, which keeps their rounded
    # coordinates inside the near set of tau.
    tau = tol - 2.0 * r
    sup, points = _near_set(space, a, p, n, tau + r, tau - r)
    radius = sup + r
    worst = points[0] if points else p  # p: an l1 point with no witness of either kind
    spread = space.norm([u - v for u, v in zip(points[1], worst)]) if len(points) > 1 else 0.0
    radius_ok = radius <= bound

    return ProjectionReport(
        space=space,
        alpha=alpha,
        tol=tol,
        extreme_input=extreme_input,
        lower_bound=lower,
        min_distance=min_distance,
        lower_ok=lower_ok,
        radius=radius,
        radius_bound=bound,
        radius_ok=radius_ok,
        spread=spread,
        worst_offender=tuple(worst),
        passed=bool(lower_ok and radius_ok),
    )
