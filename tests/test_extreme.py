import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballapprox import (
    NormedSpacePoint,
    Space,
    ValidationError,
    is_extreme,
    project_scalar_multiple,
    verify_unique_projection,
)
from ballapprox.extreme import _ball_samples, _boundary_samples, _spread
from helpers import ref_spread, same_bits


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

    def test_large_alpha_within_rounding_passes(self):
        # distances round at about |alpha| * eps, here 7e-12 below lower - 1e-12
        report = verify_unique_projection(
            56234.13251903491, pt(Space.L2, 0.6, 0.8), samples=1000, seed=0
        )
        assert report.passed and report.lower_ok and report.radius_ok
        assert report.radius_bound == verify_unique_projection(
            2.0, pt(Space.L2, 0.6, 0.8), samples=10
        ).radius_bound

    @pytest.mark.parametrize(
        "space,coords,alpha",
        [
            (Space.L1, (0.0, 1.0), 2e11),
            (Space.L2, (1.0, 0.0), -2e11),
            (Space.LINF, (1.0, -1.0), 2e11),
        ],
    )
    def test_alpha_too_large_for_the_band_rejected(self, space, coords, alpha):
        # (dim + 4) eps (|alpha| + 1) >= tol / 4 leaves no provable near band
        with pytest.raises(ValidationError, match="too large"):
            verify_unique_projection(alpha, NormedSpacePoint(space, coords), samples=10)
        report = verify_unique_projection(
            alpha / 10, NormedSpacePoint(space, coords), samples=1000, seed=1
        )
        assert report.passed


@pytest.mark.parametrize("space", list(Space))
@pytest.mark.parametrize("sampler", [_ball_samples, _boundary_samples])
def test_no_samples_draw_nothing(space, sampler):
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    assert sampler(space, 3, 0, rng).shape == (0, 3)
    assert rng.bit_generator.state == state


def coordinates(exponent):
    """0.0, -0.0, or a magnitude from 10**exponent to 10**(exponent + 3)."""
    return st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.builds(lambda sign, mantissa, k: sign * mantissa * 10.0 ** (exponent + k),
                  st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.999), st.integers(0, 2)),
    )


class TestNormOrder:
    """Norms and the spread add one coordinate at a time, left to right."""

    @given(data=st.data(), dim=st.integers(1, 7))
    @settings(max_examples=100, deadline=None)
    def test_short_rows_sum_in_numpy_order(self, data, dim):
        # norm_rows adds a d x n array's rows one at a time, and numpy's sum
        # along a row of at most 7 entries adds left to right as well; if a
        # numpy release changes either order, this test names the cause.
        # Each row lies within three decades, so that the order of its sum
        # shows; the rows span 1e-300 to 1e300, and one row alone is summed
        # by numpy's pairwise sum on both sides
        exponents = data.draw(st.lists(st.integers(-300, 297), min_size=1, max_size=8))
        a = np.array([data.draw(st.lists(coordinates(e), min_size=dim, max_size=dim))
                      for e in exponents])
        with np.errstate(over="ignore"):  # l2 squares of 1e160 and above
            assert same_bits(Space.L1.norm_rows(a), np.sum(np.abs(a), axis=1))
            assert same_bits(Space.L2.norm_rows(a), np.sqrt(np.sum(a * a, axis=1)))
        assert same_bits(Space.LINF.norm_rows(a), np.max(np.abs(a), axis=1))

    @pytest.mark.parametrize("dim", range(1, 8))
    @pytest.mark.parametrize("space", [Space.L1, Space.L2, Space.LINF])
    def test_spread_equals_the_whole_array_reference(self, space, dim):
        rng = np.random.default_rng(dim)
        for n in [2, 3, 202, *rng.integers(4, 202, 5)]:
            pts = rng.uniform(-1.0, 1.0, (n, dim)) * 10.0 ** rng.uniform(-3.0, 0.0, (n, 1))
            assert same_bits(_spread(space, pts), ref_spread(space.value, pts))

    @pytest.mark.parametrize("dim", range(8, 13))
    def test_long_rows_stay_within_the_rounding_allowance(self, dim):
        # verify_unique_projection's r assumes recursive summation: a norm
        # rounds by a relative (dim - 1) u (l1) or (dim / 2 + 1) u (l2).  Rows
        # of a batch are summed left to right, a single point pairwise; both
        # are checked against exact rational sums of |x| and x * x
        u = Fraction(np.finfo(float).eps) / 2
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((300, dim)) * 10.0 ** rng.uniform(-100.0, 100.0, (300, 1))
        for row, row_l1, row_l2 in zip(a, Space.L1.norm_rows(a), Space.L2.norm_rows(a)):
            exact = [Fraction(x) for x in row]
            mass, b1 = sum(abs(x) for x in exact), (dim - 1) * u
            # |l2 - sqrt(s)| <= b2 sqrt(s), squared: (1 - b2)^2 s <= l2^2 <= (1 + b2)^2 s
            s, b2 = sum(x * x for x in exact), (Fraction(dim, 2) + 1) * u
            for l1, l2 in ((row_l1, row_l2), (Space.L1.norm(row), Space.L2.norm(row))):
                assert abs(Fraction(l1) - mass) <= b1 * mass
                assert (1 - b2) ** 2 * s <= Fraction(l2) ** 2 <= (1 + b2) ** 2 * s
        assert same_bits(Space.LINF.norm_rows(a), np.max(np.abs(a), axis=1))
