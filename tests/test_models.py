import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballapprox import (
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

from ballapprox import Space, best_ball_approx_l1, is_extreme, models, serialize
from ballapprox.hilbert import best_ball_approx_h
from ballapprox.models import Branch, make_result
from helpers import random_hilbert, random_l1


def spectral(sec):
    return float(np.linalg.norm(sec, 2))


class TestTailRule:
    def test_const_entries(self):
        tail = TailRule.const(1.0)
        assert [tail.entry(k) for k in (1, 5, 100)] == [1.0, 1.0, 1.0]
        assert tail.sup_abs == 1.0 and tail.sup_attained

    def test_geometric_entries_increase_strictly_below_limit(self):
        tail = TailRule.geometric(2.0, 0.5)
        values = [tail.entry(k) for k in range(1, 30)]
        assert values[0] == 1.0  # 2 * (1 - 0.5)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 2.0 for v in values)
        assert not tail.sup_attained and tail.sup_abs == 2.0

    def test_negative_limit(self):
        tail = TailRule.geometric(-2.0, 0.5)
        assert tail.entry(1) == -1.0
        assert tail.sup_abs == 2.0

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 1.5, -0.2])
    def test_ratio_outside_open_interval_rejected(self, ratio):
        with pytest.raises(ValidationError):
            TailRule.geometric(2.0, ratio)

    def test_geometric_zero_limit_rejected(self):
        with pytest.raises(ValidationError):
            TailRule.geometric(0.0, 0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            TailRule.const(float("nan"))


class TestValidation:
    def test_matrix_must_be_square(self):
        with pytest.raises(ValidationError):
            HilbertOperator.finite_matrix([[1.0, 2.0]])

    def test_matrix_dimension_cap(self):
        with pytest.raises(ValidationError):
            HilbertOperator.finite_matrix(np.eye(65))

    def test_diagonal_requires_tail(self):
        with pytest.raises(ValidationError):
            HilbertOperator(Shape.DIAGONAL, (1.0,), None)

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ValidationError):
            HilbertOperator.diagonal([float("inf")], TailRule.const(0.0))
        with pytest.raises(ValidationError):
            L1Operator(((1.0, float("nan")),), (), TailRule.const(0.0))

    def test_l1_column_mass_must_be_finite(self):
        with pytest.raises(ValidationError, match=r"^columns\[1\] must have a finite mass"):
            L1Operator(((1.0,), (1e308, 1e308)), (), TailRule.const(0.0))
        t = L1Operator(((1e308, 7e307),), (), TailRule.const(0.0))
        assert op_norm(t) == t.column_mass(1) == 1.7e308

    def test_l1_tail_must_be_const(self):
        with pytest.raises(ValidationError):
            L1Operator((), (), TailRule.geometric(1.0, 0.5))

    def test_numpy_scalars_accepted(self):
        t = HilbertOperator.diagonal(
            (np.float64(3.0), np.int64(2), np.float32(0.5)), TailRule.const(np.int32(1))
        )
        assert t.explicit.tolist() == [3.0, 2.0, 0.5] and t.tail.limit == 1.0
        assert t.explicit.dtype == np.float64 and not t.explicit.flags.writeable

    @pytest.mark.parametrize(
        "bad",
        [True, "1", None, [1.0], 10**400, float("-inf")],
        ids=["bool", "str", "none", "list", "huge_int", "-inf"],
    )
    def test_non_numbers_rejected(self, bad):
        with pytest.raises(ValidationError):
            HilbertOperator.diagonal([bad], TailRule.const(0.0))
        with pytest.raises(ValidationError):
            TailRule.const(bad)

    @pytest.mark.parametrize("bad", [5, "ab", None, {"a": 1}])
    def test_non_array_is_a_validation_error(self, bad):
        with pytest.raises(ValidationError):
            L1Operator((bad,), (), TailRule.const(0.0))
        with pytest.raises(ValidationError):
            L1Operator((), bad, TailRule.const(0.0))
        with pytest.raises(ValidationError):
            HilbertOperator(Shape.DIAGONAL, bad, TailRule.const(0.0))


class TestOpNorm:
    def test_diagonal_with_const_tail(self):
        t = HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1))
        assert op_norm(t) == 3.0
        # independent route: spectral norm of a large leading section
        assert spectral(finite_section(t, 50)) == pytest.approx(3.0, abs=1e-12)

    def test_unweighted_shift(self):
        t = HilbertOperator.weighted_shift([], TailRule.const(1))
        assert op_norm(t) == 1.0
        assert spectral(finite_section(t, 50)) == pytest.approx(1.0, abs=1e-12)

    def test_geometric_tail_supremum_not_attained_but_counted(self):
        t = HilbertOperator.diagonal([0.5], TailRule.geometric(2, 0.5))
        assert op_norm(t) == 2.0
        # section norms climb to the supremum
        norms = [spectral(finite_section(t, n)) for n in (5, 10, 20, 50)]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))
        assert norms[-1] == pytest.approx(2.0, abs=1e-9)

    def test_matrix_norm_matches_numpy(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 6))
        t = HilbertOperator.finite_matrix(m)
        assert op_norm(t) == pytest.approx(np.linalg.norm(m, 2), abs=1e-10)

    def test_l1_norm_is_max_column_mass(self):
        t = L1Operator(((0.6, 0.9, 0.9),), (), TailRule.const(1))
        assert op_norm(t) == pytest.approx(2.4, abs=1e-15)
        t2 = L1Operator((), (), TailRule.const(1))
        assert op_norm(t2) == 1.0

    def test_l1_listed_weights_count(self):
        t = L1Operator(((0.2,),), (1.7, 0.3), TailRule.const(0.5))
        assert op_norm(t) == 1.7


class TestEssNorm:
    def test_const_tail(self):
        assert ess_norm(HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1))) == 1.0

    def test_finite_matrix_is_compact(self):
        assert ess_norm(HilbertOperator.finite_matrix([[7.0]])) == 0.0

    def test_l1_shift_tail(self):
        t = L1Operator((), (), TailRule.const(1))
        assert ess_norm(t) == 1.0
        # independent route: limiting row-tail mass on sections stabilizes
        sec = np.abs(finite_section(t, 30))
        for start in range(2, 25):
            assert max(np.sum(sec[start:, j]) for j in range(25)) == 1.0

    def test_ess_never_exceeds_op(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = random_hilbert(rng)
            assert ess_norm(t) <= op_norm(t) + 1e-15
        for _ in range(50):
            t = random_l1(rng)
            assert ess_norm(t) <= op_norm(t) + 1e-15


class TestAttainsNorm:
    def test_explicit_entry_attains(self):
        assert attains_norm(HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1)))

    def test_const_tail_attains(self):
        assert attains_norm(HilbertOperator.weighted_shift([], TailRule.const(1)))

    def test_geometric_dominating_tail_does_not(self):
        t = HilbertOperator.diagonal([0.5], TailRule.geometric(2, 0.5))
        assert not attains_norm(t)
        assert op_norm(t) == ess_norm(t)

    def test_explicit_entry_matching_geometric_limit_attains(self):
        t = HilbertOperator.diagonal([2.0], TailRule.geometric(2, 0.5))
        assert attains_norm(t)

    def test_matrix_always_attains(self):
        assert attains_norm(HilbertOperator.finite_matrix([[0.1]]))


class TestFiniteSection:
    def test_diagonal_section(self):
        t = HilbertOperator.diagonal([3, 2], TailRule.const(1))
        np.testing.assert_array_equal(finite_section(t, 4), np.diag([3.0, 2.0, 1.0, 1.0]))

    def test_shift_section_subdiagonal(self):
        t = HilbertOperator.weighted_shift([2], TailRule.const(1))
        expected = np.array([[0, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(finite_section(t, 3), expected)

    def test_matrix_section_pads(self):
        t = HilbertOperator.finite_matrix([[1.0, 2.0], [3.0, 4.0]])
        sec = finite_section(t, 3)
        np.testing.assert_array_equal(sec[:2, :2], [[1.0, 2.0], [3.0, 4.0]])
        assert np.all(sec[2, :] == 0) and np.all(sec[:, 2] == 0)

    def test_l1_section_places_tail_columns(self):
        t = L1Operator(((0.6, 0.9, 0.9),), (), TailRule.const(1))
        sec = finite_section(t, 4)
        np.testing.assert_array_equal(sec[:, 0], [0.6, 0.9, 0.9, 0.0])
        assert sec[2, 1] == 1.0 and sec[3, 2] == 1.0  # column j feeds row j+1

    def test_l1_section_places_listed_weights(self):
        t = L1Operator(((0.5,), (0.25, 0.75)), (2.0, -3.0), TailRule.const(1))
        expected = np.zeros((6, 6))
        expected[0, 0], expected[:2, 1] = 0.5, [0.25, 0.75]
        expected[3, 2], expected[4, 3], expected[5, 4] = 2.0, -3.0, 1.0
        np.testing.assert_array_equal(finite_section(t, 6), expected)
        np.testing.assert_array_equal(finite_section(t, 2), expected[:2, :2])

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_size_must_be_an_integer(self, n):
        t = HilbertOperator.diagonal([1], TailRule.const(0))
        with pytest.raises(ValidationError, match="^section size must be an integer"):
            finite_section(t, n)

    def test_too_small_rejected(self):
        t = HilbertOperator.diagonal([1, 2, 3], TailRule.const(0))
        with pytest.raises(ValidationError):
            finite_section(t, 2)
        m = HilbertOperator.finite_matrix(np.eye(4))
        with pytest.raises(ValidationError):
            finite_section(m, 3)


finite_floats = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
tails = st.one_of(
    st.builds(TailRule.const, st.floats(-3, 3, allow_nan=False, allow_infinity=False)),
    st.builds(
        TailRule.geometric,
        st.tuples(
            st.floats(0.1, 3, allow_nan=False), st.sampled_from([-1.0, 1.0])
        ).map(lambda p: p[0] * p[1]),
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


class TestScaling:
    @given(entry_ops, st.floats(-4, 4, allow_nan=False, allow_infinity=False))
    @settings(max_examples=150, deadline=None)
    def test_norms_scale_homogeneously(self, t, c):
        scaled = scale(t, c)
        assert op_norm(scaled) == pytest.approx(abs(c) * op_norm(t), abs=1e-12, rel=1e-12)
        assert ess_norm(scaled) == pytest.approx(abs(c) * ess_norm(t), abs=1e-12, rel=1e-12)

    def test_zero_scale_collapses_geometric_tail(self):
        t = HilbertOperator.diagonal([1.0], TailRule.geometric(2, 0.5))
        z = scale(t, 0.0)
        assert z.tail == TailRule.const(0.0)
        assert op_norm(z) == 0.0

    def test_underflowing_scale_collapses_geometric_tail(self):
        t = HilbertOperator.weighted_shift([], TailRule.geometric(-0.5, 0.5))
        z = scale(t, 5e-324)  # c * limit underflows to -0.0
        assert z.tail == TailRule.const(0.0)
        assert op_norm(z) == 0.0

    def test_l1_scaling(self):
        t = L1Operator(((0.6, 0.9, 0.9),), (0.5,), TailRule.const(1))
        assert op_norm(scale(t, -2.0)) == pytest.approx(4.8, abs=1e-12)


class TestResidualNorm:
    def test_same_shape_required(self):
        a = HilbertOperator.diagonal([1.0], TailRule.const(0))
        b = HilbertOperator.weighted_shift([1.0], TailRule.const(0))
        with pytest.raises(ValidationError):
            residual_norm(a, b)

    def test_const_tail_required_on_approximant(self):
        a = HilbertOperator.diagonal([1.0], TailRule.const(1))
        k = HilbertOperator.diagonal([1.0], TailRule.geometric(1, 0.5))
        with pytest.raises(ValidationError):
            residual_norm(a, k)

    def test_entrywise_difference(self):
        a = HilbertOperator.diagonal([3, 2], TailRule.const(1))
        k = HilbertOperator.diagonal([1, 1, 0.5], TailRule.const(0))
        # slots: |3-1|, |2-1|, |1-0.5|, then |1-0| forever
        assert residual_norm(a, k) == 2.0

    def test_geometric_tail_region_sup(self):
        a = HilbertOperator.diagonal([], TailRule.geometric(2, 0.5))
        k = HilbertOperator.diagonal([1.0], TailRule.const(0))
        # slot 1: |1 - 1| = 0; beyond: sup |2(1-0.5^k)| -> 2
        assert residual_norm(a, k) == 2.0

    def test_matrix_residual_matches_numpy(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        ta, tb = HilbertOperator.finite_matrix(a), HilbertOperator.finite_matrix(b)
        assert residual_norm(ta, tb) == pytest.approx(np.linalg.norm(a - b, 2), abs=1e-10)

    def test_l1_mixed_column_shapes(self):
        t = L1Operator(((0.6, 0.9, 0.9),), (), TailRule.const(1))
        k = L1Operator(((0.6, 0.4, 0.0),), (), TailRule.const(0))
        # column 1 residual 1.4; later single-entry columns residual 1
        assert residual_norm(t, k) == pytest.approx(1.4, abs=1e-12)

    def test_ball_distance_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            t = random_hilbert(rng)
            assert ball_distance(t) == max(op_norm(t) - 1.0, ess_norm(t), 0.0)


def _make_result_instances(top):
    """``(t, build)`` per model class: ``t`` carries the entries ``top`` > 1
    and 0.5, and ``build(a, b)`` is the compact operator of the same class
    with ``a`` and ``b`` in their places. ``build(1.0, 0.5 / top)`` is
    ``t / top``, whose residual is the distance ``top - 1``."""
    low = 0.5
    return {
        "diagonal": (HilbertOperator.diagonal([top, low], TailRule.const(0)),
                     lambda a, b: HilbertOperator.diagonal([a, b], TailRule.const(0))),
        "matrix": (HilbertOperator.finite_matrix([[top, 0.0], [0.0, low]]),
                   lambda a, b: HilbertOperator.finite_matrix([[a, 0.0], [0.0, b]])),
        "l1": (L1Operator(((top,), (low,))),
               lambda a, b: L1Operator(((a,), (b,)))),
    }


MODEL_KINDS = ["diagonal", "matrix", "l1"]


class TestMakeResultRejects:
    """Each certification check of ``make_result`` rejects, with its message."""

    @pytest.mark.parametrize("top", [3.0, 1.5])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_unperturbed_approximant_passes(self, kind, top):
        t, build = _make_result_instances(top)[kind]
        assert make_result(t, build(1.0, 0.5 / top), Branch.COMPACT_INPUT).distance == top - 1.0

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_approximant_outside_the_ball(self, kind):
        t, build = _make_result_instances(3.0)[kind]
        k = scale(build(1.0, 0.5 / 3.0), 1.0 + 1e-11)
        with pytest.raises(CertificationError, match="exceeds the unit ball$") as info:
            make_result(t, k, Branch.COMPACT_INPUT)
        assert float(str(info.value).split()[2]) == pytest.approx(1.0 + 1e-11, rel=1e-14)

    @pytest.mark.parametrize("top", [3.0, 1.5])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_residual_off_the_formula(self, kind, top):
        t, build = _make_result_instances(top)[kind]
        d = top - 1.0
        k = build(1.0 - 1e-11 * max(1.0, d), 0.5 / top)  # in the ball
        with pytest.raises(CertificationError) as info:
            make_result(t, k, Branch.COMPACT_INPUT)
        message = str(info.value)
        assert message.startswith("residual norm ")
        assert message.endswith(f" disagrees with the distance formula {d}")
        assert float(message.split()[2]) == pytest.approx(d + 1e-11 * max(1.0, d), rel=1e-14)

    @pytest.mark.parametrize(
        "kind,k",
        [("diagonal", HilbertOperator.diagonal([1.0], TailRule.const(0.5))),
         ("diagonal", HilbertOperator.diagonal([1.0], TailRule.geometric(0.5, 0.5))),
         ("matrix", HilbertOperator.weighted_shift([], TailRule.const(-0.25))),
         ("l1", L1Operator(((1.0,), (0.0,)), (), TailRule.const(0.5)))],
        ids=["diagonal_const", "diagonal_geometric", "matrix", "l1"],
    )
    def test_non_compact_approximant(self, kind, k):
        t, _ = _make_result_instances(3.0)[kind]
        with pytest.raises(ValidationError,
                           match=r"^approximant must be compact \(const 0 tail or finite\)$"):
            make_result(t, k, Branch.COMPACT_INPUT)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_nan_norm(self, kind, monkeypatch):
        t, build = _make_result_instances(3.0)[kind]
        k = build(1.0, 0.5 / 3.0)
        if kind == "matrix":  # the ball check reads LAPACK's singular values
            monkeypatch.setattr(models, "_singular_values", lambda a: np.array([float("nan")]))
        else:
            monkeypatch.setattr(models, "op_norm", lambda op: float("nan"))
        with pytest.raises(CertificationError, match="^approximant norm nan exceeds the unit ball$"):
            make_result(t, k, Branch.COMPACT_INPUT)

    @pytest.mark.parametrize("bias", [1 + 1e-11, 1 - 1e-11])
    def test_matrix_op_norm_off_lapack(self, bias, monkeypatch):
        # below norm 1 the distance is 0 whatever the norm, so only the check
        # against LAPACK's sigma_1 sees a bias of 1e-11 in T's Jacobi norm
        singular_values = models.jacobi_singular_values
        monkeypatch.setattr(models, "jacobi_singular_values",
                            lambda a: singular_values(a) * bias)
        t = HilbertOperator.finite_matrix(_gaussian_matrix(4, 5, norm=0.5))
        with pytest.raises(CertificationError,
                           match=r"^op_norm \S+ disagrees with LAPACK's \S+ for the matrix$"):
            make_result(t, t, Branch.COMPACT_INPUT)

    def test_underflowed_matrix_op_norm(self):
        # Jacobi's norm of this matrix underflows to 0.0, LAPACK's is 3e-200
        t = HilbertOperator.finite_matrix([[1e-200, 0.0], [0.0, 3e-200]])
        with pytest.raises(CertificationError,
                           match=r"^op_norm 0\.0 disagrees with LAPACK's 3e-200 for the matrix$"):
            best_ball_approx_h(t)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_nan_residual(self, kind, monkeypatch):
        t, build = _make_result_instances(3.0)[kind]
        k = build(1.0, 0.5 / 3.0)
        profile = models.residual_profile
        monkeypatch.setattr(models, "residual_profile",
                            lambda a, b: profile(a, b)[:2] + (float("nan"),))
        with pytest.raises(CertificationError,
                           match="^residual norm nan disagrees with the distance formula 2.0$"):
            make_result(t, k, Branch.COMPACT_INPUT)


def _gaussian_matrix(n, seed, norm=1.8):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return m * (norm / np.linalg.svd(m, compute_uv=False)[0])


class TestMatrixCertificate:
    """``make_result`` checks a matrix's Jacobi norm against LAPACK's
    singular values of the approximant and of ``T - K``."""

    @pytest.mark.parametrize("n", [16, 64])
    def test_scaled_up_approximant_leaves_the_ball(self, n):
        t = HilbertOperator.finite_matrix(_gaussian_matrix(n, n))
        k = scale(best_ball_approx_h(t).approximant, 1.0 + 1e-11)
        with pytest.raises(CertificationError, match="exceeds the unit ball$"):
            make_result(t, k, Branch.COMPACT_INPUT)

    @pytest.mark.parametrize("n", [16, 64])
    def test_approximant_pushed_along_the_top_pair_leaves_the_ball(self, n):
        a = _gaussian_matrix(n, n)
        t = HilbertOperator.finite_matrix(a)
        u, _, vt = np.linalg.svd(a)
        bump = 1e-11 * op_norm(t) * np.outer(u[:, 0], vt[0])
        k = HilbertOperator.finite_matrix(best_ball_approx_h(t).approximant.entries + bump)
        with pytest.raises(CertificationError, match="exceeds the unit ball$"):
            make_result(t, k, Branch.COMPACT_INPUT)

    @pytest.mark.parametrize("n", [16, 64])
    def test_scaled_down_approximant_misses_the_formula(self, n):
        t = HilbertOperator.finite_matrix(_gaussian_matrix(n, n))
        k = scale(best_ball_approx_h(t).approximant, 1.0 - 1e-11)
        with pytest.raises(CertificationError, match="^residual norm .* disagrees with"):
            make_result(t, k, Branch.COMPACT_INPUT)

    @pytest.mark.parametrize("bias,message", [
        (1 + 1e-9, r"^residual norm \S+ disagrees with the distance formula \S+$"),
        (1 - 1e-9, r"^approximant norm \S+ exceeds the unit ball$"),
    ])
    def test_biased_jacobi_norm_fails_the_construction(self, bias, message, monkeypatch):
        # K = T / ||T||: a bias above 1 leaves T - K too large, one below
        # pushes K out of the ball
        singular_values = models.jacobi_singular_values
        monkeypatch.setattr(models, "jacobi_singular_values",
                            lambda a, *args, **kwargs: singular_values(a, *args, **kwargs) * bias)
        t = HilbertOperator.finite_matrix(_gaussian_matrix(16, 3))
        with pytest.raises(CertificationError, match=message):
            best_ball_approx_h(t)

    @pytest.mark.parametrize("n,norm", [(4, 1.8), (16, 1.8), (64, 1.8), (16, 0.6)])
    def test_residuals_are_lapack_singular_values(self, n, norm):
        a = _gaussian_matrix(n, n, norm)
        result = best_ball_approx_h(HilbertOperator.finite_matrix(a))
        expected = np.linalg.svd(a - result.approximant.entries, compute_uv=False)
        cert = result.certificate
        assert cert.residuals.tobytes() == expected.tobytes()
        assert cert.residual_norm == result.distance == float(expected[0])
        assert cert.op_norm == op_norm(HilbertOperator.finite_matrix(a))


_DIAG = HilbertOperator.diagonal([2.0], TailRule.const(0.5))
_MATRIX = HilbertOperator.finite_matrix([[1.0, 0.0], [0.0, 2.0]])
_L1 = L1Operator(((0.6, 0.9),), (0.5,), TailRule.const(0.2))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: serialize.tail_from_doc([1.0]), "^tail must be an object$"),
        (lambda: serialize.tail_from_doc({"kind": "linear"}), "^unknown tail kind 'linear'"),
        (lambda: serialize.operator_from_doc([1.0]), "^operator document must be an object$"),
        (lambda: serialize.operator_from_doc({"space": "l1", "model": "rows"}),
         "^unknown l1 model 'rows', expected columns$"),
        (lambda: serialize.operator_from_doc({"space": "l1", "model": "columns"}),
         "^columns must be an array of arrays$"),
        (lambda: TailRule(TailKind.CONST, 1.0, 0.5), "^const tails take no ratio$"),
        (lambda: TailRule(TailKind.GEOMETRIC, 1.0), "^geometric tails require a ratio$"),
        (lambda: TailRule.const(1.0).entry(0), "^tail slot must be >= 1, got 0$"),
        (lambda: HilbertOperator(Shape.FINITE_MATRIX, (1.0,), entries=[[1.0]]),
         "^finite matrices take entries only$"),
        (lambda: HilbertOperator(Shape.DIAGONAL, (1.0,), TailRule.const(0.0), [[1.0]]),
         "^diagonal operators take no matrix entries$"),
        (lambda: _L1.tail_weight(1), "^column 1 is explicit, not a tail column$"),
        (lambda: _L1.column_mass(0), "^column index must be >= 1, got 0$"),
        (lambda: attains_norm(_L1), "^attains_norm is defined for Hilbert-space models$"),
        (lambda: residual_norm(_L1, _DIAG), "^residuals require operators from the same model class$"),
        (lambda: residual_norm(_MATRIX, _DIAG), "^residuals require operators of the same shape$"),
        (lambda: best_ball_approx_h(_L1), "^expected an l2 model operator$"),
        (lambda: best_ball_approx_l1(_DIAG), "^expected an l1 model operator$"),
        (lambda: Space.from_str("l3"), "^unknown space 'l3', expected one of l1, l2, linf$"),
        (lambda: is_extreme((1.0, 0.0)), "^expected a NormedSpacePoint$"),
    ],
    ids=["tail_not_object", "unknown_tail_kind", "doc_not_object", "unknown_l1_model",
         "missing_columns", "const_with_ratio", "geometric_without_ratio", "tail_slot_0",
         "matrix_with_explicit", "diagonal_with_entries", "tail_weight_of_explicit",
         "column_mass_0", "attains_norm_l1", "residual_l1_vs_l2", "residual_matrix_vs_diagonal",
         "construct_h_of_l1", "construct_l1_of_l2", "unknown_space", "is_extreme_of_tuple"],
)
def test_validation_branch_raises(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
