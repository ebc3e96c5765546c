import math

import numpy as np
import pytest

from ballapprox import (
    NormedSpacePoint,
    Space,
    ValidationError,
    is_extreme,
    project_scalar_multiple,
    verify_unique_projection,
)
from ballapprox.extreme import _ball_samples, _boundary_samples


def pt(space, *coords):
    return NormedSpacePoint(space, tuple(coords))


class TestIsExtreme:
    def test_sup_norm_sign_vectors(self):
        assert is_extreme(pt(Space.LINF, 1, -1, 1))
        assert not is_extreme(pt(Space.LINF, 1, 0))
        assert not is_extreme(pt(Space.LINF, 1, 0.999))

    def test_l1_basis_vectors(self):
        assert is_extreme(pt(Space.L1, 0, -1, 0))
        assert not is_extreme(pt(Space.L1, 0.5, 0.5))
        assert not is_extreme(pt(Space.L1, 0, 0))

    def test_l2_sphere(self):
        assert is_extreme(pt(Space.L2, 0.6, 0.8))
        assert not is_extreme(pt(Space.L2, 0.6, 0.79))

    def test_outside_ball_rejected(self):
        with pytest.raises(ValidationError):
            is_extreme(pt(Space.L2, 1.0, 1.0))

    def test_tolerance_at_machine_scale(self):
        assert is_extreme(pt(Space.LINF, 1.0 - 1e-13, -1.0))


class TestProjection:
    def test_positive_alpha(self):
        proj, dist = project_scalar_multiple(3.0, pt(Space.LINF, 1, -1))
        assert proj.coords == (1.0, -1.0)
        assert dist == 2.0

    def test_negative_alpha_flips(self):
        proj, dist = project_scalar_multiple(-2.0, pt(Space.L1, 0, 1))
        assert proj.coords == (0.0, -1.0)
        assert dist == 1.0

    def test_alpha_inside_ball_rejected(self):
        with pytest.raises(ValidationError):
            project_scalar_multiple(0.5, pt(Space.L2, 1, 0))
        with pytest.raises(ValidationError):
            project_scalar_multiple(1.0, pt(Space.L2, 1, 0))

    def test_non_extreme_rejected(self):
        with pytest.raises(ValidationError):
            project_scalar_multiple(2.0, pt(Space.LINF, 1, 0))


class TestVerification:
    @pytest.mark.parametrize(
        "space,coords",
        [
            (Space.LINF, (1.0, -1.0, 1.0)),
            (Space.L1, (0.0, 1.0, 0.0)),
            (Space.L2, (0.6, 0.0, 0.8)),
        ],
    )
    @pytest.mark.parametrize("alpha", [1.1, 2.0, -2.0, 10.0])
    def test_extreme_points_pass(self, space, coords, alpha):
        report = verify_unique_projection(
            alpha, NormedSpacePoint(space, coords), samples=4000, seed=7, tol=1e-3
        )
        assert report.passed
        assert report.lower_ok
        assert report.min_distance >= abs(alpha) - 1.0 - 1e-12
        assert report.near_count >= 1  # the projection itself is sampled
        assert report.radius <= report.radius_bound

    def test_radius_bound_scales_with_space(self):
        tol = 1e-3
        linf = verify_unique_projection(2.0, pt(Space.LINF, 1, 1), samples=100, tol=tol)
        l2 = verify_unique_projection(2.0, pt(Space.L2, 1, 0), samples=100, tol=tol)
        assert linf.radius_bound == pytest.approx(tol, abs=1e-8)
        assert l2.radius_bound == pytest.approx(math.sqrt(2 * tol + tol * tol), abs=1e-8)

    def test_non_extreme_face_demo_fails_with_spread(self):
        report = verify_unique_projection(
            2.0, pt(Space.LINF, 1, 0), samples=10_000, seed=0, tol=1e-3
        )
        assert not report.passed
        assert report.lower_ok  # the distance itself is still optimal
        assert not report.radius_ok
        assert report.spread > 0.1  # two genuinely different minimizers
        assert report.near_count > 10

    def test_determinism(self):
        a = verify_unique_projection(2.0, pt(Space.L2, 1, 0), samples=500, seed=3)
        b = verify_unique_projection(2.0, pt(Space.L2, 1, 0), samples=500, seed=3)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValidationError):
            verify_unique_projection(1.0, pt(Space.L2, 1, 0))
        with pytest.raises(ValidationError):
            verify_unique_projection(2.0, pt(Space.L2, 1, 0), samples=0)
        with pytest.raises(ValidationError):
            verify_unique_projection(2.0, pt(Space.L2, 1, 0), tol=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": "0.5"}, {"tol": float("nan")}, {"samples": True}, {"samples": 2.5},
         {"seed": 1.5}, {"seed": -1}],
        ids=["tol_str", "tol_nan", "samples_bool", "samples_float", "seed_float", "seed_negative"],
    )
    def test_arguments_validated(self, kwargs):
        with pytest.raises(ValidationError):
            verify_unique_projection(2.0, pt(Space.L2, 1, 0), **{"samples": 10, **kwargs})

    def test_negative_alpha_projection_checked(self):
        report = verify_unique_projection(
            -3.0, pt(Space.LINF, 1.0, 1.0), samples=3000, seed=1, tol=1e-3
        )
        assert report.passed
        assert report.lower_bound == 2.0


@pytest.mark.parametrize("space", list(Space))
@pytest.mark.parametrize("sampler", [_ball_samples, _boundary_samples])
def test_no_samples_draw_nothing(space, sampler):
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    assert sampler(space, 3, 0, rng).shape == (0, 3)
    assert rng.bit_generator.state == state
