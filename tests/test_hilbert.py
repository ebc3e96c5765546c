import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballapprox import (
    Branch,
    HilbertOperator,
    TailKind,
    TailRule,
    ball_distance,
    best_ball_approx_h,
    ess_norm,
    op_norm,
    residual_norm,
    scale,
)

from helpers import (
    random_hilbert,
    random_nonattaining,
    random_positive_diagonal,
    soft_threshold_approx,
)


class TestDistance:
    def test_norm_and_essential_terms_combine(self):
        t = HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1))
        assert ball_distance(t) == 2.0  # norm term 3 - 1 dominates

    def test_essential_term_dominates_for_nonattaining(self):
        t = HilbertOperator.diagonal([0.5], TailRule.geometric(2, 0.5))
        assert ball_distance(t) == 2.0  # distance to compacts alone

    def test_inside_ball_pays_only_compactness(self):
        t = HilbertOperator.diagonal([0.5], TailRule.const(0.2))
        assert ball_distance(t) == pytest.approx(0.2, abs=1e-15)

    def test_compact_in_ball_costs_nothing(self):
        t = HilbertOperator.diagonal([0.9, 0.1], TailRule.const(0))
        assert ball_distance(t) == 0.0


class TestBestApprox:
    def test_const_tail_head_and_shrink(self):
        t = HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1))
        r = best_ball_approx_h(t)
        assert r.branch is Branch.INFINITE_SERIES
        assert r.distance == pytest.approx(2.0, abs=1e-12)
        # entry 3 exceeds 1 + ess: scaled radially; entry 2 shrinks by ess;
        # entry 0.5 below ess: dropped
        np.testing.assert_allclose(r.approximant.explicit, [1.0, 1.0, 0.0], atol=1e-15)
        assert r.approximant.tail == TailRule.const(0.0)

    def test_geometric_tail_keeps_finite_head(self):
        t = HilbertOperator.diagonal([3, 2], TailRule.geometric(1.5, 0.5))
        r = best_ball_approx_h(t)
        assert r.branch is Branch.FINITE_HEAD
        assert r.distance == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(r.approximant.explicit, [1.0, 2.0 / 3.0], atol=1e-15)

    def test_compact_input_scales_radially(self):
        t = HilbertOperator.diagonal([2, 1], TailRule.const(0))
        r = best_ball_approx_h(t)
        assert r.branch is Branch.COMPACT_INPUT
        assert r.distance == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(r.approximant.explicit, [1.0, 0.5], atol=1e-15)

    def test_compact_in_ball_input_returned_unchanged(self):
        t = HilbertOperator.diagonal([0.9, -0.4], TailRule.const(0))
        r = best_ball_approx_h(t)
        assert r.branch is Branch.COMPACT_INPUT
        assert r.distance == 0.0
        assert r.approximant == t

    def test_nonattaining_zero_is_best(self):
        t = HilbertOperator.diagonal([0.5], TailRule.geometric(2, 0.5))
        r = best_ball_approx_h(t)
        assert r.branch is Branch.NON_ATTAINING
        assert all(e == 0.0 for e in r.approximant.explicit)
        assert r.approximant.tail == TailRule.const(0.0)
        assert r.distance == pytest.approx(op_norm(t), abs=1e-12)

    def test_small_norm_soft_thresholds(self):
        t = HilbertOperator.diagonal([0.5], TailRule.const(0.2))
        r = best_ball_approx_h(t)
        assert r.branch is Branch.SMALL_NORM
        np.testing.assert_allclose(r.approximant.explicit, [0.3], atol=1e-15)

    def test_matrix_input(self):
        m = np.array([[2.0, 0.0], [0.0, 0.5]])
        r = best_ball_approx_h(HilbertOperator.finite_matrix(m))
        assert r.branch is Branch.COMPACT_INPUT
        assert r.distance == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(r.approximant.entries, m / 2.0, atol=1e-12)

    def test_signs_preserved(self):
        t = HilbertOperator.diagonal([-3, 2, -0.5], TailRule.const(-1))
        r = best_ball_approx_h(t)
        np.testing.assert_allclose(r.approximant.explicit, [-1.0, 1.0, 0.0], atol=1e-15)

    def test_const_tail_dominating_everything(self):
        # norm lives in the tail itself: zero is optimal, residual = tail sup
        t = HilbertOperator.diagonal([0.5], TailRule.const(2.0))
        r = best_ball_approx_h(t)
        assert r.branch is Branch.INFINITE_SERIES
        assert all(e == 0.0 for e in r.approximant.explicit)
        assert r.distance == pytest.approx(2.0, abs=1e-12)

    def test_random_instances_meet_formula_and_ball(self):
        rng = np.random.default_rng(23)
        for _ in range(120):
            t = random_hilbert(rng, max_len=10, max_dim=8)
            r = best_ball_approx_h(t)
            formula = max(op_norm(t) - 1.0, ess_norm(t), 0.0)
            assert r.distance == pytest.approx(formula, abs=1e-10)
            assert op_norm(r.approximant) <= 1.0 + 1e-12
            if r.approximant.tail is not None:
                assert r.approximant.tail == TailRule.const(0.0)


class TestSoftThreshold:
    def test_uniform_shrinkage_example(self):
        t = HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1))
        r = soft_threshold_approx(t)
        # every entry moves toward zero by the distance 2
        np.testing.assert_allclose(r.approximant.explicit, [1.0, 0.0, 0.0], atol=1e-15)
        assert r.distance == pytest.approx(2.0, abs=1e-12)

    def test_in_ball_compact_input_unchanged(self):
        t = HilbertOperator.diagonal([0.7], TailRule.const(0))
        r = soft_threshold_approx(t)
        assert r.branch is Branch.COMPACT_INPUT
        assert r.approximant == t

    def test_matrix_singular_value_shrinkage(self):
        m = np.diag([3.0, 1.5, 0.2])
        r = soft_threshold_approx(HilbertOperator.finite_matrix(m))
        sv = np.linalg.svd(r.approximant.entries, compute_uv=False)
        np.testing.assert_allclose(sv, [1.0, 0.0, 0.0], atol=1e-10)
        assert r.distance == pytest.approx(2.0, abs=1e-10)

    def test_matches_main_construction_distance(self):
        rng = np.random.default_rng(29)
        for _ in range(80):
            t = random_hilbert(rng, max_len=8, max_dim=6)
            a = best_ball_approx_h(t)
            b = soft_threshold_approx(t)
            assert a.distance == pytest.approx(b.distance, abs=1e-10)
            assert op_norm(b.approximant) <= 1.0 + 1e-12

    def test_approximants_may_differ_entrywise(self):
        t = HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1))
        a = best_ball_approx_h(t).approximant.explicit
        b = soft_threshold_approx(t).approximant.explicit
        assert not np.array_equal(a, b)


class TestIsometryCheck:
    """dist(a S, ball) = ess_norm(a S) = |a| for a forward isometry S."""

    @staticmethod
    def assert_identity(a, t):
        scaled = scale(t, a)
        assert ball_distance(scaled) == pytest.approx(abs(a), abs=1e-12)
        assert ess_norm(scaled) == pytest.approx(abs(a), abs=1e-12)

    @pytest.mark.parametrize("a", [3.0, 1.5, 1.0, 0.5, -2.0])
    def test_scaled_shift_distance_equals_scale(self, a):
        self.assert_identity(a, HilbertOperator.weighted_shift([], TailRule.const(1)))

    def test_signed_weights_allowed(self):
        self.assert_identity(2.0, HilbertOperator.weighted_shift([-1.0, 1.0], TailRule.const(-1)))


class TestPositive:
    """The construction keeps signs; ``approx --positive`` (tests/test_cli.py)
    checks the input and certifies the sign of the output."""

    def test_worked_example(self):
        t = HilbertOperator.diagonal([2, 1.2], TailRule.const(0.8))
        r = best_ball_approx_h(t)
        assert r.distance == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(r.approximant.explicit, [1.0, 0.4], atol=1e-12)

    def test_output_nonnegative_and_dominated(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            t = random_positive_diagonal(rng)
            r = best_ball_approx_h(t)
            for e, a in zip(t.explicit, r.approximant.explicit):
                assert 0.0 <= a <= e + 1e-15
            assert r.approximant.tail.limit >= 0.0


class TestNonAttaining:
    def test_generator_lands_in_branch(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            t = random_nonattaining(rng)
            r = best_ball_approx_h(t)
            assert r.branch is Branch.NON_ATTAINING
            assert r.distance == pytest.approx(op_norm(t), abs=1e-12)


finite_floats = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
tails = st.one_of(
    st.builds(TailRule.const, st.floats(-3, 3, allow_nan=False, allow_infinity=False)),
    st.builds(
        TailRule.geometric,
        st.tuples(st.floats(0.1, 3, allow_nan=False), st.sampled_from([-1.0, 1.0])).map(
            lambda p: p[0] * p[1]
        ),
        st.floats(0.05, 0.95, allow_nan=False),
    ),
)
entry_ops = st.builds(
    lambda entries, tail, diag: (
        HilbertOperator.diagonal(entries, tail)
        if diag
        else HilbertOperator.weighted_shift(entries, tail)
    ),
    st.lists(finite_floats, max_size=8),
    tails,
    st.booleans(),
)


@given(entry_ops)
@settings(max_examples=150, deadline=None)
def test_construction_contract_holds_everywhere(t):
    r = best_ball_approx_h(t)
    assert op_norm(r.approximant) <= 1.0 + 1e-12
    assert r.approximant.tail == TailRule.const(0.0)
    assert r.distance == pytest.approx(
        max(op_norm(t) - 1.0, ess_norm(t), 0.0), abs=1e-10
    )
    assert residual_norm(t, r.approximant) == r.distance
