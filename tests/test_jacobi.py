import ast
import inspect
import io
import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballapprox import (
    HilbertOperator,
    NumericError,
    jacobi,
    jacobi_singular_values,
    op_norm,
    oracles,
    svd_clip_oracle,
)
from ballapprox.cli import main
from ballapprox.jacobi import (
    _orthogonalize_columns,
    _round_indices,
    _round_robin,
    _round_rotation,
)
from ballapprox.models import IDENTITY_TOL

from helpers import ref_orthogonalize_columns, same_bits


@pytest.mark.parametrize(
    "n,seed", [(1, 0), (2, 1), (3, 2), (4, 6), (5, 3), (7, 7), (8, 4), (12, 8), (16, 5),
               (31, 9), (64, 10)]
)
def test_against_numpy_svd(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        m = rng.standard_normal((n, n)) * rng.choice([0.1, 1.0, 10.0])
        s = jacobi_singular_values(m)
        ref = np.linalg.svd(m, compute_uv=False)
        scale = max(ref[0], 1.0)
        np.testing.assert_allclose(s, ref, atol=1e-10 * scale, rtol=0)


def test_singular_values_descend():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((7, 7))
    s = jacobi_singular_values(m)
    assert all(a >= b for a, b in zip(s, s[1:]))


def test_zero_matrix():
    s = jacobi_singular_values(np.zeros((3, 3)))
    assert np.all(s == 0)


def test_rank_deficient():
    x = np.array([1.0, 2.0, 3.0])
    m = np.outer(x, x)  # rank one, top value |x|^2
    s = jacobi_singular_values(m)
    assert s[0] == pytest.approx(14.0, abs=1e-10)
    assert s[1] == pytest.approx(0.0, abs=1e-10)
    # the rotations' zero-column rule ends the iteration however many
    # columns count as zero
    rng = np.random.default_rng(11)
    for rank, n in [(1, 8), (3, 16), (10, 64), (63, 64)]:
        m = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
        s = jacobi_singular_values(m)
        ref = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(s, ref, rtol=0, atol=1e-10 * ref[0])


def test_diagonal_converges_without_sweeps(monkeypatch):
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    s = jacobi_singular_values(np.diag([2.0, 0.5]))
    np.testing.assert_allclose(s, [2.0, 0.5])


def test_sweep_budget_exhaustion_raises(monkeypatch):
    m = np.array([[1.0, 1.0], [0.0, 1.0]])  # columns far from orthogonal
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    with pytest.raises(NumericError, match="in 0 sweeps"):
        jacobi_singular_values(m)


def test_sweep_budget_counts_rotating_sweeps(monkeypatch):
    # this input takes 5 rotating sweeps; the rotation-free sweep that ends
    # the iteration is not charged to the budget
    m = np.random.default_rng(2).standard_normal((8, 8))
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 5)
    jacobi_singular_values(m)
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 4)
    with pytest.raises(NumericError, match="in 4 sweeps"):
        jacobi_singular_values(m)


def test_sweep_budget_is_sixty():
    assert jacobi.MAX_SWEEPS == 60
    assert list(inspect.signature(jacobi_singular_values).parameters) == ["a"]


@pytest.mark.parametrize(
    "entries",
    [
        [[1.913713202815748, 9.666447654128652e-13], [0.0, 0.9666447654128651]],
        [[1.4248850833773121, 1.3190105796632436e-12], [0.0, 1.3190105796632436]],
    ],
)
@pytest.mark.parametrize("argv", [["norm"], ["approx"], ["verify", "--samples", "50"]])
def test_nearly_orthogonal_columns_converge(entries, argv, monkeypatch, capsys):
    # the cosine of these columns sits at the orthogonality target, where a
    # stopping test apart from the rotations' skip test never passed
    assert _matrix_run(argv, np.array(entries), monkeypatch, capsys) == 0


def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        jacobi_singular_values(np.ones((2, 3)))
    with pytest.raises(ValueError):
        jacobi_singular_values(np.array([[np.nan]]))


@pytest.mark.parametrize(
    "a",
    [[["1", "2"], ["3", "4"]], [[True, False], [False, True]], np.eye(2, dtype=bool),
     np.array([[1.0, 2.0], [3.0, 4.0]], dtype=object)],
    ids=["strings", "bools", "bool_array", "objects"],
)
def test_rejects_non_numeric_entries(a):
    # converting to float would read "1" and True as 1.0
    with pytest.raises(ValueError, match="square real matrix"):
        jacobi_singular_values(a)


def test_overflow_is_named_before_any_sweep(monkeypatch):
    m = np.array([[1e200, 0.0], [0.0, 1.0]])  # finite, but its Gram matrix is not
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 0)
    with pytest.raises(NumericError, match="overflow"):
        jacobi_singular_values(m)


def test_large_entries_still_rotate():
    # |w_p|^2 |w_q|^2 overflows here although the Gram matrix does not; such
    # pairs must still be rotated, not skipped as orthogonal
    m = np.random.default_rng(2).standard_normal((5, 5)) * 1e100
    s = jacobi_singular_values(m)
    ref = np.linalg.svd(m, compute_uv=False)
    np.testing.assert_allclose(s, ref, rtol=0, atol=1e-12 * ref[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 12, 31, 64])
def test_round_robin_schedule(n):
    rounds = _round_robin(n)
    pairs = [pair for pairs in rounds for pair in pairs]
    # every sweep meets each pair p < q exactly once ...
    assert sorted(pairs) == list(itertools.combinations(range(n), 2))
    assert len(rounds) == (n - 1 + n % 2 if n > 1 else 0)
    for pairs in rounds:
        # ... in rounds of disjoint pairs, at most one column sitting out
        slots = [i for pair in pairs for i in pair]
        assert len(set(slots)) == len(slots) >= n - 1


def test_one_round_equals_its_rotations_one_pair_at_a_time():
    w = np.random.default_rng(3).standard_normal((6, 6))
    read, write = _round_indices(6)[0]
    rot = _round_rotation(w.T @ w, read, write, np.eye(6), 1e-12, 0.0)
    rotated = w @ rot
    expected = w.copy()
    for p, q in _round_robin(6)[0]:
        wp, wq = expected[:, p].copy(), expected[:, q].copy()
        zeta = (wq @ wq - wp @ wp) / (2.0 * (wp @ wq))
        t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
        c = 1.0 / np.sqrt(1.0 + t * t)
        expected[:, p], expected[:, q] = c * wp - c * t * wq, c * t * wp + c * wq
        assert abs(expected[:, p] @ expected[:, q]) < 1e-12
    np.testing.assert_allclose(rotated, expected, rtol=0, atol=1e-13)


@pytest.fixture
def jacobi_inputs(monkeypatch):
    """Record the input of every Jacobi call made by any module of the package."""
    inputs = []

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            inputs.append((fn.__name__, np.array(a, dtype=float)))
            return fn(a, *args, **kwargs)
        return wrapper

    package = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "ballapprox"]
    for module in package:
        if hasattr(module, "jacobi_singular_values"):
            monkeypatch.setattr(module, "jacobi_singular_values",
                                counting(module.jacobi_singular_values))
    return inputs


def _matrix_run(argv, m, monkeypatch, capsys):
    doc = {"space": "l2", "model": "matrix", "entries": m.tolist()}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(argv)
    capsys.readouterr()
    return code


def _preconditioned(m):
    """T V, with V from LAPACK's SVD of T: the one Jacobi input of a matrix."""
    return m @ np.linalg.svd(m)[2].T


def test_verify_takes_one_svd_of_its_input(jacobi_inputs, monkeypatch, capsys):
    m = np.random.default_rng(4).standard_normal((16, 16)) * 0.5
    assert _matrix_run(["verify", "--samples", "50"], m, monkeypatch, capsys) == 0
    # the singular values of T V once, for T's norm (memoised on the operator);
    # every candidate is built and scored by LAPACK, so no other run sees T's
    # numbers
    assert [name for name, a in jacobi_inputs if same_bits(a, _preconditioned(m))] == [
        "jacobi_singular_values"]
    # the construction's certificate reads the norm of K and the residual
    # T - K from LAPACK: T's norm is the only Jacobi run
    assert len(jacobi_inputs) == 1


def test_oracles_import_nothing_from_jacobi():
    # the oracles build and score their candidates with numpy.linalg
    tree = ast.parse(inspect.getsource(oracles))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert names and not [name for name in names if "jacobi" in name]


def test_svd_clip_oracle_decomposes_its_input_once(jacobi_inputs):
    m = np.random.default_rng(6).standard_normal((16, 16)) * 0.5
    svd_clip_oracle(m)
    assert [name for name, a in jacobi_inputs if same_bits(a, _preconditioned(m))] == [
        "jacobi_singular_values"]
    # T's norm once, from T V; the clip is built and scored by LAPACK, and so
    # is the construction's certificate
    assert len(jacobi_inputs) == 1


def test_approx_makes_one_jacobi_call(jacobi_inputs, monkeypatch, capsys):
    m = np.random.default_rng(5).standard_normal((16, 16)) * 0.5
    assert _matrix_run(["approx"], m, monkeypatch, capsys) == 0
    # T's norm (memoised), from T V; the approximant's norm and the residual
    # T - K come from LAPACK
    assert [name for name, a in jacobi_inputs if same_bits(a, _preconditioned(m))] == [
        "jacobi_singular_values"]
    assert len(jacobi_inputs) == 1


def test_approx_of_norm_at_most_one_makes_one_jacobi_call(jacobi_inputs, monkeypatch, capsys):
    m = np.random.default_rng(5).standard_normal((16, 16))
    m *= 0.6 / np.linalg.svd(m, compute_uv=False)[0]
    assert _matrix_run(["approx"], m, monkeypatch, capsys) == 0
    # T's norm (memoised), from T V; T is its own approximant, but the ball
    # check reads its norm from LAPACK, as the residual check does T - K
    assert [name for name, a in jacobi_inputs if same_bits(a, _preconditioned(m))] == [
        "jacobi_singular_values"]
    assert len(jacobi_inputs) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 64])
@pytest.mark.parametrize("preconditioned", [False, True])
def test_whole_gram_test_equals_round_by_round(n, preconditioned):
    # a sweep ends at once when no pair of the current Gram matrix would
    # rotate: the rounds would all have skipped, so the bits are the same
    rng = np.random.default_rng(n)
    for zero_columns in (0, 1, n // 3):
        m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-5, 5)
        m[:, rng.permutation(n)[:zero_columns]] = 0.0
        if preconditioned:
            m = _preconditioned(m)
        assert same_bits(_orthogonalize_columns(m.copy()), ref_orthogonalize_columns(m.copy()))


def test_nonorthogonal_v_preconditions_nothing(jacobi_inputs, monkeypatch, capsys):
    # a V whose V^T V is off I by more than the guard is not used: Jacobi
    # runs on T itself, and the answer is still certified
    m = np.random.default_rng(12).standard_normal((16, 16)) * 0.5
    svd = np.linalg.svd

    def skewed(a, full_matrices=True, compute_uv=True):
        out = svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
        return (out[0], out[1], out[2] * (1.0 + 1e-11)) if compute_uv else out

    monkeypatch.setattr(np.linalg, "svd", skewed)
    assert _matrix_run(["approx"], m, monkeypatch, capsys) == 0
    assert len(jacobi_inputs) == 1 and same_bits(jacobi_inputs[0][1], m)


@pytest.fixture
def rotating_rounds(monkeypatch):
    """Record, per call of ``_round_rotation``, whether it rotated."""
    rounds, rotation = [], jacobi._round_rotation

    def counting(*args):
        rot = rotation(*args)
        rounds.append(rot is not None)
        return rot

    monkeypatch.setattr(jacobi, "_round_rotation", counting)
    return rounds


@pytest.mark.parametrize("n", [16, 64])
def test_preconditioned_gaussian_norm_rotates_nothing(n, rotating_rounds):
    for seed in range(4):
        m = np.random.default_rng(seed).standard_normal((n, n))
        assert op_norm(HilbertOperator.finite_matrix(m)) == pytest.approx(
            np.linalg.svd(m, compute_uv=False)[0], rel=IDENTITY_TOL)
    assert sum(rotating_rounds) == 0
    jacobi_singular_values(m)  # T itself rotates
    assert sum(rotating_rounds) > 0


@pytest.mark.parametrize("n", [16, 64])
def test_preconditioned_graded_norm_takes_one_rotating_sweep(n, monkeypatch):
    # singular values graded from 1 to 1e-10: V holds the small ones' columns
    # only to eps / 1e-10, so their pairs rotate once more
    rng = np.random.default_rng(n)
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    m = (q1 * np.logspace(0, -10, n)) @ q2.T
    monkeypatch.setattr(jacobi, "MAX_SWEEPS", 1)
    assert op_norm(HilbertOperator.finite_matrix(m)) == pytest.approx(
        np.linalg.svd(m, compute_uv=False)[0], rel=IDENTITY_TOL)


@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), exponent=st.floats(-140.0, 150.0))
@settings(max_examples=60, deadline=None)
def test_preconditioned_norm_matches_lapack(n, seed, exponent):
    m = np.random.default_rng(seed).standard_normal((n, n))
    m *= 10.0**exponent / np.abs(m).max()
    sigma_1 = np.linalg.svd(m, compute_uv=False)[0]
    assert abs(op_norm(HilbertOperator.finite_matrix(m)) - sigma_1) <= IDENTITY_TOL * sigma_1
