"""Best approximation by members of the compact-operator unit ball.

Exact distances, optimal approximants, and independent verification
oracles for structured operator families on l2 and l1, plus radial
projections of scaled extreme points in finite-dimensional balls.
"""

from .extreme import (
    NormedSpacePoint,
    ProjectionReport,
    Space,
    is_extreme,
    project_scalar_multiple,
    verify_unique_projection,
)
from .hilbert import best_ball_approx_h
from .jacobi import NumericError, jacobi_singular_values
from .l1 import best_ball_approx_l1, truncate_column
from .models import (
    BallApproxResult,
    Branch,
    Certificate,
    CertificationError,
    HilbertOperator,
    L1Operator,
    Shape,
    TailKind,
    TailRule,
    ValidationError,
    attains_norm,
    ball_distance,
    ess_norm,
    finite_section,
    op_norm,
    residual_norm,
    scale,
)
from .oracles import (
    SearchReport,
    competitor_search,
    finite_section_bounds,
    svd_clip_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BallApproxResult",
    "Branch",
    "Certificate",
    "CertificationError",
    "HilbertOperator",
    "L1Operator",
    "NormedSpacePoint",
    "NumericError",
    "ProjectionReport",
    "SearchReport",
    "Shape",
    "Space",
    "TailKind",
    "TailRule",
    "ValidationError",
    "attains_norm",
    "ball_distance",
    "best_ball_approx_h",
    "best_ball_approx_l1",
    "competitor_search",
    "ess_norm",
    "finite_section",
    "finite_section_bounds",
    "is_extreme",
    "jacobi_singular_values",
    "op_norm",
    "project_scalar_multiple",
    "residual_norm",
    "scale",
    "svd_clip_oracle",
    "truncate_column",
    "verify_unique_projection",
]
