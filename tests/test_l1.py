import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballapprox import (
    Branch,
    L1Operator,
    TailRule,
    ValidationError,
    ball_distance,
    best_ball_approx_l1,
    competitor_search,
    ess_norm,
    finite_section_bounds,
    op_norm,
    residual_norm,
    truncate_column,
)

from helpers import random_l1, ref_truncate, same_bits


class TestDistance:
    def test_worked_column(self):
        t = L1Operator(((0.6, 0.9, 0.9),), (), TailRule.const(1))
        assert ball_distance(t) == pytest.approx(1.4, abs=1e-15)  # max(2.4 - 1, 1)

    def test_small_column_tail_dominates(self):
        t = L1Operator(((0.3,),), (), TailRule.const(0.5))
        assert ball_distance(t) == 0.5

    def test_unweighted_shift_tail(self):
        t = L1Operator((), (), TailRule.const(1))
        assert ball_distance(t) == 1.0

    def test_compact_in_ball(self):
        t = L1Operator(((0.3, 0.3),), (0.2,), TailRule.const(0))
        assert ball_distance(t) == 0.0


class TestTruncateColumn:
    def test_worked_column_split(self):
        out = truncate_column((0.6, 0.9, 0.9), 1.4)
        # drop the last entry (0.9), remove 0.5 more from the middle one
        np.testing.assert_allclose(out, [0.6, 0.4, 0.0], atol=1e-15)
        # split fraction is 5/9 of the middle entry
        assert out[1] == pytest.approx((1.0 - 5.0 / 9.0) * 0.9, abs=1e-15)

    def test_zero_removal_is_identity(self):
        assert truncate_column((0.5, -0.2), 0.0) == (0.5, -0.2)

    def test_removal_of_everything(self):
        assert truncate_column((0.5, -0.2), 0.7) == (0.0, 0.0)
        assert truncate_column((0.5, -0.2), 5.0) == (0.0, 0.0)

    def test_signs_preserved(self):
        out = truncate_column((-0.6, 0.9, -0.9), 1.4)
        np.testing.assert_allclose(out, [-0.6, 0.4, 0.0], atol=1e-15)

    def test_interior_zeros_skipped(self):
        out = truncate_column((0.5, 0.0, 0.5), 0.5)
        np.testing.assert_allclose(out, [0.5, 0.0, 0.0], atol=1e-15)

    def test_negative_removal_rejected(self):
        with pytest.raises(ValidationError):
            truncate_column((0.5,), -0.1)

    @pytest.mark.parametrize("d", [0.0, 1.0])
    def test_overflowing_mass_rejected(self, d):
        # as for L1Operator columns: (mass - d)+ has no finite meaning
        with pytest.raises(ValidationError, match="finite mass"):
            truncate_column((1e308, 1e308, 1.0), d)

    @given(
        st.lists(st.floats(-2, 2, allow_nan=False, allow_infinity=False), max_size=8),
        st.floats(0, 5, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_mass_identities(self, col, d):
        out = truncate_column(col, d)
        mass = sum(abs(v) for v in col)
        kept = sum(abs(v) for v in out)
        removed = sum(abs(a - b) for a, b in zip(col, out))
        assert kept == pytest.approx(max(mass - d, 0.0), abs=1e-12)
        assert removed == pytest.approx(min(mass, d), abs=1e-12)
        # truncation keeps a prefix and zeroes a suffix
        changed = [i for i, (a, b) in enumerate(zip(col, out)) if a != b]
        if changed:
            first = changed[0]
            assert all(v == 0.0 for v in out[first + 1 :])


    @given(st.lists(st.floats(-2, 2, allow_nan=False, allow_infinity=False), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_removing_the_left_to_right_mass_clears_the_column(self, col):
        # the mass summed from the top, the order the cut and the column's
        # mass sum in: nothing is left to keep
        d = 0.0
        for v in col:
            d += abs(v)
        assert truncate_column(col, d) == tuple(0.0 for _ in col)
        t = L1Operator((col,), (), TailRule.const(d))
        r = best_ball_approx_l1(t)
        assert r.distance == pytest.approx(d, abs=1e-12)
        assert all(v == 0.0 for v in r.approximant.columns[0])


# entries over many magnitudes, signed zeros included
_wide = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1e-300, -5e-324]
)


class TestLeftToRightCut:
    """The cut sums each column left to right, the order of its mass."""

    @given(st.lists(_wide, max_size=12), st.floats(0.0, 1.25), st.floats(0.0, 1e13))
    @settings(max_examples=400, deadline=None)
    def test_properties_of_the_cut(self, col, frac, d_abs):
        mass = 0.0
        for v in col:
            mass += abs(v)
        for d in (frac * mass, d_abs):
            out = truncate_column(col, d)
            assert same_bits(out, ref_truncate(col, d))
            assert all(abs(o) <= abs(c) for o, c in zip(out, col))
            # a -0.0 in the output is an input -0.0 kept whole, never a removed entry
            negative_zeros = [i for i, o in enumerate(out) if o == 0.0 and math.copysign(1.0, o) < 0]
            assert all(same_bits(out[i], col[i]) for i in negative_zeros)
        assert same_bits(truncate_column(col, 0.0), [float(v) for v in col])

    def test_removed_entries_and_weights_are_positive_zero(self):
        t = L1Operator(((-0.0, -0.5, -0.0, -0.9),), (-0.3, -1.7), TailRule.const(1.2))
        k = best_ball_approx_l1(t).approximant
        # d = 1.2: the -0.0 above the cut is kept whole, -0.5 keeps what is left
        assert same_bits(k.columns[0], [-0.0, -(1.4 - 1.2), 0.0, 0.0])
        assert same_bits(k.tail_weights, [0.0, -(1.7 - 1.2)])

    def test_mass_between_2_53_and_2_54_is_capped_at_one(self):
        # fl(m - 1) rounds to even, 2 below m, so m - d would keep 2 of the column
        m = 2.0**53 + 2.0
        assert m - 1.0 == m - 2.0
        r = best_ball_approx_l1(L1Operator(((m,),), (m,), TailRule.const(0.0)))
        assert r.approximant.columns[0].tolist() == [1.0]
        assert r.approximant.tail_weights.tolist() == [1.0]
        assert r.distance == m - 2.0

    @pytest.mark.parametrize("scale", [1e-3, 1e1, 1e3, 1e5, 1e7, 1e10, 1e12, 1e16, 1e100])
    def test_seeded_models_certify_at_every_scale(self, scale):
        rng = np.random.default_rng(7)
        for i in range(200):
            cols = tuple(rng.uniform(-1, 1, int(rng.integers(1, 9))) * scale
                         for _ in range(int(rng.integers(1, 4))))
            weights = rng.uniform(-1, 1, int(rng.integers(0, 3))) * scale
            tail = 0.0 if rng.random() < 0.5 else float(rng.uniform(-1, 1) * scale)
            t = L1Operator(cols, weights, TailRule.const(tail))
            r = best_ball_approx_l1(t)  # raises unless make_result certifies
            assert r.distance == pytest.approx(ball_distance(t), rel=1e-12, abs=1e-12)
            if i < 40 and scale <= 1e12:
                assert competitor_search(t).passed, i


class TestBestApprox:
    def test_worked_instance(self):
        t = L1Operator(((0.6, 0.9, 0.9),), (), TailRule.const(1))
        r = best_ball_approx_l1(t)
        assert r.branch is Branch.L1_TRUNCATION
        assert r.distance == pytest.approx(1.4, abs=1e-12)
        np.testing.assert_allclose(r.approximant.columns[0], [0.6, 0.4, 0.0], atol=1e-15)
        assert r.approximant.tail == TailRule.const(0.0)
        assert op_norm(r.approximant) <= 1.0 + 1e-12

    def test_tail_only_operator(self):
        t = L1Operator((), (), TailRule.const(1))
        r = best_ball_approx_l1(t)
        assert r.distance == 1.0
        assert op_norm(r.approximant) == 0.0

    def test_listed_weights_truncate(self):
        t = L1Operator((), (1.7, 0.3), TailRule.const(0.5))
        r = best_ball_approx_l1(t)
        # d = max(1.7 - 1, 0.5) = 0.7
        assert r.distance == pytest.approx(0.7, abs=1e-12)
        np.testing.assert_allclose(r.approximant.tail_weights, [1.0, 0.0], atol=1e-12)

    def test_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            t = random_l1(rng)
            r = best_ball_approx_l1(t)
            formula = max(op_norm(t) - 1.0, ess_norm(t), 0.0)
            assert r.distance == pytest.approx(formula, abs=1e-10)
            assert op_norm(r.approximant) <= 1.0 + 1e-12
            for j in range(1, r.approximant.column_count_listed() + 1):
                assert r.approximant.column_mass(j) <= 1.0 + 1e-12
            assert residual_norm(t, r.approximant) == r.distance


class TestFiniteColumnOracle:
    """The l1 lower-bound oracle: ``finite_section_bounds`` on column models."""

    def test_worked_column(self):
        t = L1Operator(((0.6, 0.9, 0.9),), (), TailRule.const(1))
        lower, formula = finite_section_bounds(t, 10)
        assert lower == pytest.approx(1.4, abs=1e-15)
        assert formula == pytest.approx(1.4, abs=1e-15)

    def test_blind_to_essential_part(self):
        t = L1Operator((), (), TailRule.const(1))
        assert finite_section_bounds(t, 50) == (0.0, 1.0)
        assert ball_distance(t) == 1.0

    def test_equality_when_norm_term_dominates(self):
        rng = np.random.default_rng(43)
        hits = 0
        for _ in range(100):
            t = random_l1(rng)
            # cover every dense row and the row of every listed tail weight
            longest = max((len(c) for c in t.columns), default=0)
            n = max(longest, t.column_count_listed() + 1)
            lower, d = finite_section_bounds(t, n)
            assert d == ball_distance(t)
            assert lower <= d + 1e-12
            if op_norm(t) - 1.0 >= ess_norm(t):
                assert lower == pytest.approx(max(op_norm(t) - 1.0, 0.0), abs=1e-12)
                hits += 1
        assert hits > 10  # the regime actually occurred

    def test_needs_explicit_columns(self):
        t = L1Operator(((0.5,), (0.5,)), (), TailRule.const(0))
        with pytest.raises(ValidationError):
            finite_section_bounds(t, 1)
