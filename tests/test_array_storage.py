"""Array-backed model storage: validation, call counts and exact arithmetic.

Model numbers live in read-only float64 arrays and every layer works on
whole arrays.  These tests pin what that must not change: the validator's
messages and values on wide inputs, the absence of per-entry Python work
on a 10^5-entry request, and bit-for-bit agreement of the constructions
and residual profiles with the scalar reference in ``helpers``.
"""

import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballapprox
from ballapprox import (
    Branch,
    HilbertOperator,
    L1Operator,
    Shape,
    TailRule,
    ValidationError,
    best_ball_approx_h,
    best_ball_approx_l1,
    op_norm,
)
from ballapprox.cli import main
from ballapprox.models import residual_profile
from ballapprox.serialize import operator_from_doc
from helpers import (
    ref_construction_h,
    ref_construction_l1,
    ref_norm_l1,
    ref_residual_profile_h,
    ref_residual_profile_l1,
    same_bits,
)

WIDE = 100_000


def _wide(bad_at, bad):
    values = [0.5] * WIDE
    values[bad_at] = bad
    return values


def _l2(model, explicit):
    return {"space": "l2", "model": model, "explicit": explicit,
            "tail": {"kind": "const", "value": 0}}


class TestWideValidation:
    """Messages and values are those of the entry-by-entry validator."""

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: HilbertOperator.diagonal(_wide(99_999, float("nan")), TailRule.const(0.0)),
             "explicit[99999] must be finite, got nan"),
            (lambda: HilbertOperator.weighted_shift(_wide(50_000, True), TailRule.const(0.0)),
             "explicit[50000] must be a real number, got True"),
            (lambda: operator_from_doc(_l2("diagonal", _wide(99_999, float("inf")))),
             "explicit[99999] must be finite, got inf"),
            (lambda: HilbertOperator.diagonal(np.array([True, False]), TailRule.const(0.0)),
             "explicit[0] must be a real number, got np.True_"),
            (lambda: HilbertOperator(Shape.DIAGONAL, np.array([False, True]), TailRule.const(0.0)),
             "explicit[0] must be a real number, got False"),
            (lambda: L1Operator(((0.1,), (0.2,), tuple(_wide(99_999, float("nan")))), ()),
             "columns[2][99999] must be finite, got nan"),
            (lambda: L1Operator(((0.1,), _wide(50_000, True)), ()),
             "columns[1][50000] must be a real number, got True"),
            (lambda: L1Operator((np.array([0.5]), np.zeros(3, dtype=bool)), ()),
             "columns[1][0] must be a real number, got False"),
            (lambda: L1Operator((), _wide(99_999, float("nan"))),
             "tail_weights[99999] must be finite, got nan"),
            (lambda: HilbertOperator.finite_matrix([[1.0, 2.0], [float("nan"), 3.0]]),
             "entries[1][0] must be finite, got nan"),
            (lambda: operator_from_doc(
                {"space": "l2", "model": "matrix", "entries": [[1, 2], [3, float("nan")]]}),
             "entries[1][1] must be finite, got nan"),
            (lambda: operator_from_doc(
                {"space": "l2", "model": "matrix", "entries": [[1, 2], [True, 1]]}),
             "entries[1][0] must be a real number, got True"),
            (lambda: HilbertOperator(Shape.FINITE_MATRIX,
                                     entries=(np.array([1.0, 0.0]), np.array([False, True]))),
             "entries[1][0] must be a real number, got False"),
            (lambda: operator_from_doc(_l2("shift", [1.0, 10**400])),
             "explicit[1] must be finite, got " + str(10**400)),
            (lambda: operator_from_doc(
                {"space": "l2", "model": "matrix", "entries": [[1, 2], [3]]}),
             "entries must be square, row 1 has length 1 != 2"),
            (lambda: HilbertOperator.finite_matrix([[1, 2], [3]]),
             "entries must be square, row 1 has length 1 != 2"),
            (lambda: HilbertOperator.finite_matrix([["1", "2"], ["3", "4"]]),
             "entries[0][0] must be a real number, got '1'"),
            (lambda: HilbertOperator.finite_matrix([[True, False], [False, True]]),
             "entries[0][0] must be a real number, got True"),
            (lambda: HilbertOperator.finite_matrix(2.0),
             "finite matrices require rows of entries, got 2.0"),
            (lambda: HilbertOperator.finite_matrix(np.array(2.0)),
             "finite matrices require rows of entries, got array(2.)"),
            (lambda: HilbertOperator.finite_matrix([[1, 10**400], [0, 1]]),
             "entries[0][1] must be finite, got " + str(10**400)),
            (lambda: HilbertOperator.finite_matrix(np.ones((2, 3))),
             "entries must be square, row 0 has length 3 != 2"),
            (lambda: HilbertOperator.finite_matrix(np.array([[1.0, 2.0], [3.0, np.inf]])),
             "entries[1][1] must be finite, got inf"),
        ],
        ids=["nan", "bool", "inf_doc", "bool_array_ctor", "bool_array", "l1_nan", "l1_bool",
             "l1_bool_array", "weights_nan", "matrix_nan", "matrix_doc_nan", "matrix_doc_bool",
             "matrix_bool_row", "huge_int", "matrix_doc_ragged", "matrix_ragged", "matrix_str",
             "matrix_bool", "matrix_scalar", "matrix_0d", "matrix_huge_int", "matrix_array_wide",
             "matrix_array_inf"],
    )
    def test_message(self, build, message):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message

    def test_json_ints_round_as_float_does(self):
        ints = [1, 2**53 + 1, -3, 10**300] + list(range(WIDE))
        t = operator_from_doc(_l2("diagonal", ints))
        assert t.explicit.tolist() == [float(v) for v in ints]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32, np.float16])
    def test_numpy_arrays_convert_exactly(self, dtype):
        values = (np.arange(WIDE) % 250).astype(dtype)
        if dtype is np.int64:
            values = values * (2**62 // 250)
        expected = [float(v) for v in values.tolist()]
        t = HilbertOperator(Shape.WEIGHTED_SHIFT, values, TailRule.const(0.0))
        l1 = L1Operator((values[:7], values), values[:3])
        m = HilbertOperator(Shape.FINITE_MATRIX, entries=values[:16].reshape(4, 4))
        assert t.explicit.tolist() == expected
        assert l1.columns[1].tolist() == expected and l1.tail_weights.tolist() == expected[:3]
        assert m.entries.ravel().tolist() == expected[:16]

    def test_arrays_are_read_only_float64(self):
        t = operator_from_doc(_l2("diagonal", [1, 2.5]))
        l1 = L1Operator(((1, 2),), [0.5])
        m = HilbertOperator.finite_matrix([[1, 2], [3, 4]])
        r = best_ball_approx_h(t)
        for a in (t.explicit, l1.columns[0], l1.tail_weights, m.entries,
                  r.approximant.explicit, r.certificate.residuals):
            assert a.dtype == np.float64 and not a.flags.writeable
        with pytest.raises(ValueError):
            t.explicit[0] = 7.0

    def test_matrix_in_one_conversion_equals_row_by_row(self):
        # a 2-D array and plain rows are converted whole, a list of array
        # rows row by row: the same bits, C-ordered, in a copy of the
        # caller's buffer
        a = np.random.default_rng(4).standard_normal((16, 16))
        a[3, 5] = -0.0
        by_rows = HilbertOperator.finite_matrix(list(a)).entries
        for entries in (a, a.tolist(), tuple(map(tuple, a.tolist())), np.asfortranarray(a)):
            m = HilbertOperator.finite_matrix(entries).entries
            assert type(m) is np.ndarray and not m.flags.writeable and same_bits(m, by_rows)
            assert m.flags.c_contiguous
        ints = [[2**60 + 1, 1], [-3, np.float64(0.5)]]
        assert HilbertOperator.finite_matrix(ints).entries.tolist() == [
            [float(v) for v in row] for row in ints]
        buffer = a.copy()
        m = HilbertOperator.finite_matrix(buffer)
        buffer[:] = 7.0
        assert same_bits(m.entries, by_rows)


def _count_calls(monkeypatch):
    """Count ``_require_finite`` (wherever bound) and ``TailRule.entry`` calls."""
    calls = Counter()
    original = ballapprox.models._require_finite

    def counted(*args, **kwargs):
        calls["_require_finite"] += 1
        return original(*args, **kwargs)

    for module in vars(ballapprox).values():
        if getattr(module, "_require_finite", None) is original:
            monkeypatch.setattr(module, "_require_finite", counted)
    entry = TailRule.entry

    def counted_entry(self, k):
        calls["TailRule.entry"] += 1
        return entry(self, k)

    monkeypatch.setattr(TailRule, "entry", counted_entry)
    return calls


@pytest.mark.parametrize(
    "tail",
    [{"kind": "const", "value": 0.7}, {"kind": "geometric", "limit": -1.5, "ratio": 0.5}],
    ids=["const", "geometric"],
)
@pytest.mark.parametrize("model", ["diagonal", "shift"])
def test_wide_requests_do_no_per_entry_python(model, tail, monkeypatch, capsys):
    rng = np.random.default_rng(61)
    doc = {"space": "l2", "model": model, "explicit": rng.uniform(-3, 3, WIDE).tolist(),
           "tail": tail}
    calls = _count_calls(monkeypatch)
    for argv in (["approx"], ["verify", "--samples", "20"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
    assert calls["_require_finite"] < 100, calls
    assert calls["TailRule.entry"] < 100, calls


finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
sign = st.sampled_from([1.0, -1.0])


@st.composite
def entry_models(draw, branch):
    """A diagonal or shift model on which ``best_ball_approx_h`` takes ``branch``."""
    shape = draw(st.sampled_from([Shape.DIAGONAL, Shape.WEIGHTED_SHIFT]))
    entries = draw(st.lists(finite, max_size=12))
    if branch is Branch.COMPACT_INPUT:
        tail = TailRule.const(0.0)
    elif branch is Branch.SMALL_NORM:
        entries = [e / 3.0 for e in entries]
        tail = TailRule.const(draw(sign) * draw(st.floats(0.01, 1.0)))
    elif branch is Branch.INFINITE_SERIES:
        big = draw(sign) * draw(st.floats(1.001, 3.0))
        entries.insert(draw(st.integers(0, len(entries))), big)
        tail = TailRule.const(draw(sign) * draw(st.floats(0.01, 0.99)))
    else:
        limit = draw(st.floats(1.01, 2.5))
        if branch is Branch.FINITE_HEAD:
            entries.append(draw(sign) * draw(st.floats(limit, 3.0)))
        else:  # NON_ATTAINING: every entry strictly below the tail's limit
            entries = [e * (limit / 3.0) * 0.999 for e in entries]
        tail = TailRule.geometric(draw(sign) * limit, draw(st.floats(0.05, 0.95)))
    return HilbertOperator(shape, entries, tail)


@st.composite
def l1_models(draw, max_cols=5, max_support=9):
    cols = draw(st.lists(st.lists(finite, max_size=max_support), max_size=max_cols))
    weights = draw(st.lists(finite, max_size=4))
    return L1Operator(tuple(cols), weights, TailRule.const(draw(finite) / 2.0))


def _assert_profile(got, expected):
    assert same_bits(got[0], expected[0])
    assert same_bits(got[1], expected[1]) and same_bits(got[2], expected[2])


class TestScalarReference:
    @pytest.mark.parametrize("branch", [Branch.COMPACT_INPUT, Branch.NON_ATTAINING,
                                        Branch.FINITE_HEAD, Branch.INFINITE_SERIES,
                                        Branch.SMALL_NORM], ids=lambda b: b.value)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_l2_construction_and_profile(self, branch, data):
        t = data.draw(entry_models(branch))
        r = best_ball_approx_h(t)
        assert r.branch is branch
        assert same_bits(r.approximant.explicit, ref_construction_h(t))
        k = r.approximant
        _assert_profile(residual_profile(t, k), ref_residual_profile_h(t, k))
        # a competitor with a different support reads tail slots past t's explicit part
        other = HilbertOperator(t.shape, data.draw(st.lists(finite, max_size=16)),
                                TailRule.const(0.0))
        _assert_profile(residual_profile(t, other), ref_residual_profile_h(t, other))

    @given(t=l1_models(), k=l1_models())
    @settings(max_examples=150, deadline=None)
    def test_l1_truncation_and_profile(self, t, k):
        assert same_bits(op_norm(t), ref_norm_l1(t))
        r = best_ball_approx_l1(t)
        cols, weights = ref_construction_l1(t)
        assert len(r.approximant.columns) == len(cols)
        assert all(same_bits(a, b) for a, b in zip(r.approximant.columns, cols))
        assert same_bits(r.approximant.tail_weights, weights)
        _assert_profile(residual_profile(t, r.approximant),
                        ref_residual_profile_l1(t, r.approximant))
        # other explicit counts and supports: dense, mixed and single-entry columns
        _assert_profile(residual_profile(t, k), ref_residual_profile_l1(t, k))


class TestMixedColumnResiduals:
    """A column explicit on one side and a one-entry tail column on the
    other costs the explicit column's support, not the column index."""

    def test_work_is_linear_in_the_support(self, monkeypatch):
        rng = np.random.default_rng(7)
        supports = [1 + (j * 37) % 5 for j in range(10_000)]
        t = L1Operator(tuple(rng.uniform(-1, 1, s) for s in supports), ())
        summed = Counter()
        original = ballapprox.models._sum_lr

        def counted(values):
            summed["entries"] += len(values)
            return original(values)

        monkeypatch.setattr(ballapprox.models, "_sum_lr", counted)
        zero = L1Operator((), ())
        for a, b in ((t, zero), (zero, t)):
            summed.clear()
            residuals = residual_profile(a, b)[0]
            assert same_bits(residuals, t.column_masses)
            assert summed["entries"] <= sum(supports) + len(supports), summed


class TestValueSemantics:
    """Models, certificates and results compare and hash by value."""

    @pytest.mark.parametrize("build", [
        lambda: best_ball_approx_h(HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1))),
        lambda: best_ball_approx_h(HilbertOperator.finite_matrix([[2, 1], [0, 1]])),
        lambda: best_ball_approx_l1(L1Operator(((0.6, 0.9, 0.9),), [2.0], TailRule.const(1))),
    ], ids=["diagonal", "matrix", "l1"])
    def test_results_built_twice_are_equal(self, build):
        a, b = build(), build()
        assert a.certificate is not b.certificate
        assert a.certificate == b.certificate and a == b
        assert hash(a) == hash(b) and hash(a.approximant) == hash(b.approximant)
        assert len({a.approximant, b.approximant}) == 1

    def test_signed_zeros_compare_as_the_floats_do(self):
        pos = HilbertOperator.diagonal([0.0, 1.0], TailRule.const(0.0))
        neg = HilbertOperator.diagonal([-0.0, 1.0], TailRule.const(0.0))
        assert pos == neg and hash(pos) == hash(neg)
        assert L1Operator(((0.0,),), [-0.0]) == L1Operator(((-0.0,),), [0.0])

    def test_different_values_or_layouts_differ(self):
        d = HilbertOperator.diagonal([1.0, 2.0], TailRule.const(0.0))
        assert d != HilbertOperator.diagonal([1.0, 2.5], TailRule.const(0.0))
        assert d != HilbertOperator.weighted_shift([1.0, 2.0], TailRule.const(0.0))
        assert L1Operator(((1.0, 2.0),)) != L1Operator(((1.0,), (2.0,)))
        assert L1Operator(((1.0,),), [2.0]) != L1Operator(((1.0, 2.0),))
