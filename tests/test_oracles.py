import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from ballapprox import (
    CertificationError,
    HilbertOperator,
    L1Operator,
    TailRule,
    ValidationError,
    ball_distance,
    best_ball_approx_h,
    best_ball_approx_l1,
    competitor_search,
    finite_section_bounds,
    svd_clip_oracle,
)

from ballapprox import hilbert, l1, models, oracles
from ballapprox.cli import main
from ballapprox.oracles import DEFAULT_TOL
from ballapprox.models import (
    IDENTITY_TOL,
    Shape,
    _nearly_orthogonal,
    make_result,
    residual_norm,
)
from helpers import (
    random_entry_operator,
    random_hilbert,
    random_l1,
    random_nonattaining,
    random_positive_diagonal,
    ref_entry_rows,
    ref_entry_search,
    ref_l1_search,
    ref_l1_trials,
    ref_matrix_draws,
    ref_matrix_search,
    same_bits,
)


def _whole(chunks) -> np.ndarray:
    """The chunks of a trial stream, each copied before the next one
    overwrites its buffer, as one array."""
    return np.concatenate([c.copy() for c in chunks])


def _every_trial(cols):
    """The ``keep`` of ``oracles._random_matrix_draws`` that draws every trial."""
    return np.ones(len(cols), dtype=bool)


def _count_rows(monkeypatch, name="_ENTRY_SEARCH"):
    """The list to which the trial stream of the search entry ``name``,
    patched, appends the number of rows of each chunk it yields."""
    trials, drawn = getattr(oracles, name).chunks, []

    def counting(*args):
        for rows in trials(*args):
            drawn.append(len(rows))
            yield rows

    _patch_search(monkeypatch, name, chunks=counting)
    return drawn


def _patch_search(monkeypatch, name, **fields):
    """The search entry ``name`` of ``oracles`` with ``fields`` replaced."""
    monkeypatch.setattr(oracles, name, getattr(oracles, name)._replace(**fields))


def _patch_zero_only(monkeypatch, name):
    """The zero operator as the only fixed candidate of the search entry
    ``name``: random trials win."""
    fixed_candidates = getattr(oracles, name).fixed

    def zero_only(t, construction):
        return ["zero"], np.zeros_like(fixed_candidates(t, construction)[1][:1])

    _patch_search(monkeypatch, name, fixed=zero_only)


def _peak_bytes(f):
    """``f()``'s peak traced allocation in bytes, and what it returned."""
    tracemalloc.start()
    try:
        result = f()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestCompetitorSearch:
    def test_diagonal_worked_instance(self):
        t = HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1))
        report = competitor_search(t, trials=3000, seed=0)
        assert report.passed
        assert not report.beaten and report.attained
        assert report.best_found == pytest.approx(2.0, abs=1e-10)

    def test_l1_worked_instance(self):
        t = L1Operator(((0.6, 0.9, 0.9),), (), TailRule.const(1))
        report = competitor_search(t, trials=3000, seed=1)
        assert report.passed
        assert report.best_found == pytest.approx(1.4, abs=1e-10)

    def test_matrix_instance(self):
        rng = np.random.default_rng(2)
        t = HilbertOperator.finite_matrix(rng.standard_normal((5, 5)))
        report = competitor_search(t, trials=2000, seed=2)
        assert report.passed

    def test_nonattaining_instance(self):
        t = HilbertOperator.diagonal([0.5], TailRule.geometric(2, 0.5))
        report = competitor_search(t, trials=2000, seed=3)
        assert report.passed
        assert report.best_found == pytest.approx(2.0, abs=1e-10)

    def test_inflated_claim_is_beaten(self):
        t = HilbertOperator.diagonal([3], TailRule.const(0))
        report = competitor_search(t, claimed=5.0, trials=200, seed=0)
        assert not report.passed and report.beaten

    def test_deflated_claim_not_attained(self):
        t = HilbertOperator.diagonal([3], TailRule.const(0))
        report = competitor_search(t, claimed=1.0, trials=200, seed=0)
        assert not report.passed and not report.attained and not report.beaten

    def test_best_candidate_is_reported_in_ball(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            t = random_hilbert(rng, max_len=6, max_dim=4)
            report = competitor_search(t, trials=500, seed=11)
            assert report.passed
            assert report.best_candidate is not None
        for _ in range(10):
            t = random_l1(rng)
            report = competitor_search(t, trials=500, seed=13)
            assert report.passed

    @pytest.mark.parametrize("scale", [1e2, 1e5, 1e6, 1e8])
    def test_large_claims_compared_at_the_certified_resolution(self, scale):
        # an absolute 1e-10 is finer than the rounding of a claim above about
        # 1e5; the band widens to IDENTITY_TOL * |claimed|, as make_result's
        rng = np.random.default_rng(3)
        for i in range(40):
            n = int(rng.integers(2, 7))
            t = HilbertOperator.finite_matrix(rng.standard_normal((n, n)) * scale)
            report = competitor_search(t, trials=20, seed=i)
            assert report.passed, i
            assert report.tol == 1e-10

    def test_band_still_catches_a_claim_off_at_large_scale(self):
        t = HilbertOperator.diagonal([3e8], TailRule.const(0))
        d = ball_distance(t)
        assert competitor_search(t, claimed=d * (1 + 1e-11), trials=20).beaten
        assert not competitor_search(t, claimed=d * (1 - 1e-11), trials=20).attained
        assert competitor_search(t, claimed=d * (1 + 5e-13), trials=20, tol=0.0).passed

    def test_trials_validated(self):
        t = HilbertOperator.diagonal([1], TailRule.const(0))
        with pytest.raises(ValidationError):
            competitor_search(t, trials=0)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1e-10, "1e-10"])
    def test_tol_validated(self, tol):
        t = HilbertOperator.diagonal([1], TailRule.const(0))
        with pytest.raises(ValidationError):
            competitor_search(t, trials=10, tol=tol)

    @pytest.mark.parametrize(
        "kwargs",
        [{"claimed": "2"}, {"claimed": float("nan")}, {"trials": 2.5}, {"trials": True},
         {"seed": 1.5}, {"seed": -1}, {"seed": True}],
        ids=["claimed_str", "claimed_nan", "trials_float", "trials_bool", "seed_float",
             "seed_negative", "seed_bool"],
    )
    def test_arguments_validated(self, kwargs):
        t = HilbertOperator.diagonal([3], TailRule.const(0))
        with pytest.raises(ValidationError):
            competitor_search(t, **{"trials": 10, **kwargs})

    @pytest.mark.parametrize(
        "t",
        [
            HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1)),
            HilbertOperator.finite_matrix([[1.2, 0.4], [-0.3, 0.9]]),
        ],
    )
    def test_one_construction_per_search(self, t, monkeypatch):
        calls = []

        def counting(op):
            calls.append(op)
            return best_ball_approx_h(op)

        monkeypatch.setattr(oracles, "best_ball_approx_h", counting)
        assert competitor_search(t, trials=50, seed=1).passed
        assert len(calls) == 1

    def test_candidate_scores_are_their_residual_norms(self):
        # scored by the trials' numpy arithmetic: the same max of exact
        # |t - k| on diagonal and shift models and of left-to-right column
        # masses on l1 models, LAPACK against Jacobi on matrix models
        rng = np.random.default_rng(17)
        for t in [random_hilbert(rng, max_len=6, max_dim=6) for _ in range(30)] + [
            random_l1(rng) for _ in range(30)
        ]:
            search = oracles._search_of(t)
            kinds, batch = search.fixed(t, search.construct(t).approximant)
            scores = search.scorer(t)(batch)
            exact = isinstance(t, L1Operator) or t.shape is not Shape.FINITE_MATRIX
            for i, (kind, score) in enumerate(zip(kinds, scores.tolist())):
                r = residual_norm(t, search.build(t, batch[i]))
                if exact:
                    assert score == r, kind
                else:
                    assert abs(score - r) <= IDENTITY_TOL * max(1.0, r), kind

    def test_best_candidate_is_the_scored_one(self):
        # the reported operator is the candidate behind best_found, built
        # back from its row of the fixed or random batch
        rng = np.random.default_rng(19)
        for t in [random_hilbert(rng, max_len=6, max_dim=6) for _ in range(20)] + [
            random_l1(rng) for _ in range(20)
        ]:
            report = competitor_search(t, trials=100, seed=3)
            r = residual_norm(t, report.best_candidate)
            d = ball_distance(t)
            assert abs(r - report.best_found) <= IDENTITY_TOL * max(1.0, d), report.best_kind

    @pytest.mark.parametrize(
        "t",
        [
            HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1)),
            HilbertOperator.finite_matrix([[1.2, 0.4], [-0.3, 0.9]]),
            L1Operator(((0.6, 0.9, 0.9),), (), TailRule.const(1)),
        ],
    )
    def test_every_scored_approximant_is_certified(self, t, monkeypatch):
        # the construction's make_result is the only one: no candidate is
        # scored by the library's residual code, and the oracles cannot
        # certify through it
        assert not hasattr(oracles, "make_result")
        calls = []

        def counting(op, k, branch):
            calls.append(k)
            return make_result(op, k, branch)

        for module in (hilbert, l1):
            monkeypatch.setattr(module, "make_result", counting)
        assert competitor_search(t, trials=50, seed=1).passed
        (certified,) = calls
        construct = best_ball_approx_l1 if isinstance(t, L1Operator) else best_ball_approx_h
        assert certified == construct(t).approximant


class TestMatrixTrials:
    @pytest.mark.parametrize(
        "n,trials,chunk_entries",
        [(64, 200, None), (16, 200, 16 * 16 * 7), (5, 500, 25 * 3), (2, 7, 4)],
    )
    def test_chunked_residuals_equal_one_batch(self, n, trials, chunk_entries, monkeypatch):
        if chunk_entries is not None:
            monkeypatch.setattr(oracles, "TRIAL_CHUNK_ENTRIES", chunk_entries)
        rng = np.random.default_rng(n)
        t = HilbertOperator.finite_matrix(rng.standard_normal((n, n)))
        best = best_ball_approx_h(t).approximant
        score, draws, residuals = oracles._search_of(t).scorer(t), [], []
        for mats in oracles._random_matrix_draws(t, best, trials, 1, _every_trial):
            draws.append(mats.copy())
            residuals.append(score(oracles._into_ball(mats)))
        raw = ref_matrix_draws(t, best, trials, 1)[1]
        assert same_bits(np.concatenate(draws), raw)
        one_batch = np.linalg.svd(t.entries[None] - oracles._into_ball(raw),
                                  compute_uv=False)[:, 0]
        assert same_bits(np.concatenate(residuals), one_batch)

    def test_search_memory_does_not_grow_with_trials(self):
        # one chunk of trials (1 MiB) at a time: ten times the trials, the
        # same peak; the operator's norm and SVD are memoised beforehand
        rng = np.random.default_rng(3)
        t = HilbertOperator.finite_matrix(rng.standard_normal((64, 64)) * 0.3)
        assert competitor_search(t, trials=1, seed=0).passed
        peaks = []
        for trials in (200, 2000):
            peak, report = _peak_bytes(lambda: competitor_search(t, trials=trials, seed=0))
            assert report.passed, trials
            peaks.append(peak)
        assert peaks[1] <= 1.1 * peaks[0], peaks
        assert max(peaks) < 4 * 2**20, peaks


def _matrix_of_norm(rng, n, norm):
    a = rng.standard_normal((n, n))
    return HilbertOperator.finite_matrix(a * (norm / np.linalg.svd(a, compute_uv=False)[0]))


# in the ball, at its edge, just above it (where the bound's residual
# cancels) and far above it
SEARCH_NORMS = [1e-3, 0.5, 1.0, 1.0 + 1e-6, 3.0, 1e3, 1e6]


class TestMatrixPruning:
    """Only the random matrix trials that could win are decomposed; the
    report is the one of scoring every trial."""

    def _same_as_exhaustive(self, n, trials, monkeypatch):
        # the default chunks, chunks of three matrices and one matrix per chunk
        rng = np.random.default_rng(100 + n)
        kinds = []
        for i, norm in enumerate(SEARCH_NORMS):
            t = _matrix_of_norm(rng, n, norm)
            found, kind, candidate = ref_matrix_search(t, trials, i)
            for chunk_entries in (oracles.TRIAL_CHUNK_ENTRIES, 3 * n * n, 1):
                with monkeypatch.context() as m:
                    m.setattr(oracles, "TRIAL_CHUNK_ENTRIES", chunk_entries)
                    report = competitor_search(t, trials=trials, seed=i)
                case = (norm, i, chunk_entries)
                assert repr(report.best_found) == repr(found), case
                assert report.best_kind == kind, case
                assert report.best_candidate.entries.tobytes() == candidate.tobytes(), case
            kinds.append(kind)
        return kinds

    @pytest.mark.parametrize("trials", [7, 50, 200])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12, 16, 64])
    def test_report_equals_exhaustive_search(self, n, trials, monkeypatch):
        self._same_as_exhaustive(n, trials, monkeypatch)

    @pytest.mark.parametrize("trials", [7, 50, 200])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12, 16, 64])
    def test_report_equals_exhaustive_search_when_trials_win(self, n, trials, monkeypatch):
        _patch_zero_only(monkeypatch, "_MATRIX_SEARCH")
        assert "random" in self._same_as_exhaustive(n, trials, monkeypatch)

    @pytest.mark.parametrize("norm", SEARCH_NORMS)
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_lower_bounds_hold_for_any_unit_vector(self, n, norm):
        rng = np.random.default_rng(n)
        t = _matrix_of_norm(rng, n, norm)
        best = best_ball_approx_h(t).approximant
        raw = _whole(oracles._random_matrix_draws(t, best, 200, 7, _every_trial))
        assert same_bits(raw, ref_matrix_draws(t, best, 200, 7)[1])
        scores = np.linalg.svd(t.entries - oracles._into_ball(raw.copy()),
                               compute_uv=False)[:, 0]
        other = rng.standard_normal(n)
        for v in (np.linalg.svd(t.entries)[2][0], other / np.linalg.norm(other)):
            lower = oracles._trial_lower_bounds(t.entries @ v, raw @ v)
            assert np.all(lower <= scores * (1 + 1e-12) + 1e-15)

    @pytest.mark.parametrize("norm", SEARCH_NORMS)
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_first_column_bounds_hold(self, n, norm):
        # the search bounds a trial on its first column C e_1, which stands
        # in for M v_1: the bound stays below the LAPACK score of every trial
        rng = np.random.default_rng(n)
        t = _matrix_of_norm(rng, n, norm)
        best = best_ball_approx_h(t).approximant
        cols, raw = ref_matrix_draws(t, best, 200, 7)
        scores = np.linalg.svd(t.entries - oracles._into_ball(raw), compute_uv=False)[:, 0]
        v_1 = t._svd[2][0]
        lower = oracles._trial_lower_bounds(t.entries @ v_1, cols)
        assert np.all(lower <= scores * (1 + 1e-12) + 1e-15)

    @pytest.mark.parametrize("chunk_entries", [None, 16 * 16 * 7])
    def test_possible_winners_keep_trial_order(self, chunk_entries, monkeypatch):
        if chunk_entries is not None:
            monkeypatch.setattr(oracles, "TRIAL_CHUNK_ENTRIES", chunk_entries)
        rng = np.random.default_rng(8)
        t = _matrix_of_norm(rng, 16, 1.5)
        best_k = best_ball_approx_h(t).approximant
        cols, raw = ref_matrix_draws(t, best_k, 100, 8)
        sigma_1, v_1 = t._svd[1][0], t._svd[2][0]
        lower = oracles._trial_lower_bounds(t.entries @ v_1, cols)
        margin = IDENTITY_TOL * (1.0 + sigma_1)
        # the median trial's bound lies within the margin above best: it stays
        best = float(np.sort(lower)[50]) - margin / 2
        keep = oracles._possible_winners(t, best)
        kept = _whole(oracles._random_matrix_draws(t, best_k, 100, 8, keep))
        assert 0 < len(kept) < 100
        assert same_bits(kept, raw[lower <= best + margin])

    @pytest.mark.parametrize("pattern", ["every_third", "last_only", "random"])
    @pytest.mark.parametrize("chunk_entries", [None, 3 * 5 * 5, 1])
    def test_kept_trials_do_not_depend_on_the_others(self, pattern, chunk_entries,
                                                     monkeypatch):
        # a kept trial's columns 2..n come from a generator keyed by its
        # index: the same matrix whichever other trials are kept
        if chunk_entries is not None:
            monkeypatch.setattr(oracles, "TRIAL_CHUNK_ENTRIES", chunk_entries)
        rng = np.random.default_rng(12)
        t = _matrix_of_norm(rng, 5, 2.0)
        best = best_ball_approx_h(t).approximant
        masks, picker = [], np.random.default_rng(13)

        def keep(cols):
            first = sum(map(len, masks))
            index = np.arange(first, first + len(cols))
            mask = {"every_third": index % 3 == 1, "last_only": index == 39,
                    "random": picker.random(len(cols)) < 0.3}[pattern]
            masks.append(mask)
            return mask

        kept = _whole(oracles._random_matrix_draws(t, best, 40, 5, keep))
        mask = np.concatenate(masks)
        assert 0 < mask.sum() < 40
        assert same_bits(kept, ref_matrix_draws(t, best, 40, 5)[1][mask])

    @pytest.mark.parametrize("norm", [1.0 + 1e-6, 3.0, 1e3])
    def test_an_unorthogonal_v_prunes_nothing(self, norm, monkeypatch):
        # V scaled by 1 + 1e-12 fails the guard shared with T's norm: every
        # trial is decomposed, and the report is still the exhaustive one
        # (above norm 1, where the construction scores above 0)
        t = _matrix_of_norm(np.random.default_rng(14), 16, norm)
        u, sv, vt = t._svd
        vt = vt * (1 + 1e-12)
        assert not _nearly_orthogonal(vt)
        t.__dict__["_svd"] = (u, sv, vt)
        into_ball, seen = oracles._into_ball, []

        def counting(mats):
            seen.append(len(mats))
            return into_ball(mats)

        monkeypatch.setattr(oracles, "_into_ball", counting)
        # with the bound at -inf, nothing but the pruning could spare a trial
        _patch_search(monkeypatch, "_MATRIX_SEARCH", lower=lambda op: (-np.inf, "zero"))
        report = competitor_search(t, trials=50, seed=3)
        assert sum(seen) == 50
        found, kind, candidate = ref_matrix_search(t, 50, 3)
        assert repr(report.best_found) == repr(found)
        assert report.best_kind == kind
        assert report.best_candidate.entries.tobytes() == candidate.tobytes()

    def test_search_decomposes_no_random_trial(self, monkeypatch):
        m = np.random.default_rng(3).standard_normal((64, 64))
        svd, seen = np.linalg.svd, []

        def counting(a, full_matrices=True, compute_uv=True):
            seen.extend((compute_uv, x) for x in np.reshape(a, (-1, 64, 64)))
            return svd(a, full_matrices=full_matrices, compute_uv=compute_uv)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert competitor_search(HilbertOperator.finite_matrix(m), trials=200, seed=0).passed
        # one decomposition of T, for the fixed candidates and the bound's
        # vector: a matrix search has no zero candidate
        assert [uv for uv, a in seen if np.array_equal(a, m)] == [True]
        # with the three fixed residuals and the construction's norm and
        # residual, six matrices: none of the 200 trials
        assert len(seen) == 6

    def test_lower_bounds_fold_as_row_by_row(self):
        # the bounds fold hypot over a copy with one row per coordinate: the
        # bits of folding each trial's row left to right, inf and NaN included
        rng = np.random.default_rng(18)
        for trials, n in [(1, 1), (32, 64), (200, 16), (5, 3), (64, 2)]:
            tv = rng.standard_normal(n)
            mv = rng.standard_normal((trials, n)) * 10.0 ** rng.integers(-150, 150, (trials, 1))
            mv[rng.integers(0, trials, 2), rng.integers(0, n, 2)] = [np.inf, np.nan]
            with np.errstate(all="ignore"):
                mv2 = np.einsum("ij,ij->i", mv, mv)
                c = np.divide(mv @ tv, mv2, out=np.zeros(trials), where=mv2 > 0.0)
                np.clip(c, 0.0, 1.0 / np.maximum(np.sqrt(mv2), 1.0), out=c)
                per_row = np.hypot.reduce(tv - c[:, None] * mv, axis=1)
                assert same_bits(oracles._trial_lower_bounds(tv, mv), per_row), (trials, n)
            assert np.isnan(per_row).any() or np.isinf(per_row).any(), (trials, n)

    def test_verify_guards_v_once(self, monkeypatch, capsys):
        # T's norm and the search's pruning read one memoised guard of V; a
        # natural verify is settled by the bound and opens no trial stream
        # (which builds its pruning first), one whose only fixed candidate
        # is zero prunes its trials
        guard, possible_winners, guards, prunes = (
            models._nearly_orthogonal, oracles._possible_winners, [], [])

        def counting_guard(vt):
            guards.append(vt)
            return guard(vt)

        def counting_prune(t, best):
            prunes.append(best)
            return possible_winners(t, best)

        monkeypatch.setattr(models, "_nearly_orthogonal", counting_guard)
        # and wherever else the guard might be bound by name
        monkeypatch.setattr(oracles, "_nearly_orthogonal", counting_guard, raising=False)
        monkeypatch.setattr(oracles, "_possible_winners", counting_prune)
        text = json.dumps({"space": "l2", "model": "matrix",
                           "entries": np.random.default_rng(4).standard_normal((6, 6)).tolist()})
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["verify", "--samples", "200", "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        assert prunes == [] and len(guards) == 1
        _patch_zero_only(monkeypatch, "_MATRIX_SEARCH")
        guards.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        main(["verify", "--samples", "200", "--seed", "0"])
        capsys.readouterr()
        assert len(prunes) == 1 and len(guards) == 1  # the search pruned its trials

    @pytest.mark.parametrize("scale", [0.0, 1e-150, 0.5])
    def test_search_at_distance_zero_draws_no_trial(self, scale, monkeypatch):
        # the construction is T itself and scores 0, the bound of a matrix
        # in the ball: no singular value comes strictly below 0, so no trial
        # is drawn, not even its first column
        t = _matrix_of_norm(np.random.default_rng(15), 4, 1.0)
        t = HilbertOperator.finite_matrix(t.entries * scale)
        monkeypatch.setattr(oracles, "_random_matrix_draws", None)
        monkeypatch.setattr(oracles, "_into_ball", None)
        report = competitor_search(t, trials=200, seed=0)
        assert report.passed and report.best_found == 0.0
        assert report.best_kind == "construction"
        assert repr(ref_matrix_search(t, 200, 0)[:2]) == repr((0.0, "construction"))


class TestEntryTrials:
    @pytest.mark.parametrize(
        "width,trials,chunk_entries",
        # one chunk; two rows per chunk with the free half ending mid-chunk;
        # three rows per chunk across 25 free rows; one row per chunk
        [(9, 7, None), (9, 7, 18), (10, 50, 30), (14, 9, 1)],
    )
    def test_chunked_rows_equal_one_batch(self, width, trials, chunk_entries, monkeypatch):
        if chunk_entries is not None:
            monkeypatch.setattr(oracles, "TRIAL_CHUNK_ENTRIES", chunk_entries)
        rng = np.random.default_rng(width)
        t = HilbertOperator.diagonal(rng.uniform(-3.0, 3.0, width - 4), TailRule.const(0.5))
        best = best_ball_approx_h(t).approximant
        rows = _whole(oracles._random_entry_competitors(t, best, np.inf, trials, 2))
        assert same_bits(rows, ref_entry_rows(t, best, trials, np.random.default_rng(2)))

    @pytest.mark.parametrize("chunk_entries", [None, 2 * 11, 3 * 11, 1])
    def test_report_equals_one_batch_when_trials_win(self, chunk_entries, monkeypatch):
        # the zero operator as the only fixed candidate: random trials win;
        # with width 11, chunks of 2 and 3 rows split the free half mid-chunk
        if chunk_entries is not None:
            monkeypatch.setattr(oracles, "TRIAL_CHUNK_ENTRIES", chunk_entries)
        _patch_zero_only(monkeypatch, "_ENTRY_SEARCH")
        rng = np.random.default_rng(41)
        kinds = []
        for i in range(24):
            ctor = HilbertOperator.diagonal if i % 2 else HilbertOperator.weighted_shift
            tail = TailRule.const(0.0) if i % 3 else TailRule.geometric(1.5, 0.5)
            t = ctor(rng.uniform(-3.0, 3.0, 7), tail)
            trials = int(rng.integers(1, 40))
            report = competitor_search(t, trials=trials, seed=i)
            found, kind, candidate = ref_entry_search(t, trials, i)
            assert repr(report.best_found) == repr(found), i
            assert report.best_kind == kind, i
            assert report.best_candidate.explicit.tobytes() == candidate.tobytes(), i
            kinds.append(kind)
        assert "random" in kinds

    def test_wide_search_memory_does_not_grow_with_trials(self, monkeypatch):
        # one row of 10^5 + 4 entries per chunk: ten times the trials, the
        # same peak, set by the four fixed candidates' rows and residuals;
        # the construction sits on the lower bound, so the search draws no
        # trial unless the bound is -inf, which makes it draw and score every one
        rng = np.random.default_rng(5)
        t = HilbertOperator.diagonal(rng.uniform(-3.0, 3.0, 10**5), TailRule.const(1.0))
        pruned, report = _peak_bytes(lambda: competitor_search(t, trials=200, seed=0))
        assert report.passed
        drawn = _count_rows(monkeypatch)
        _patch_search(monkeypatch, "_ENTRY_SEARCH", lower=lambda op: (-np.inf, "zero"))
        peaks = []
        for trials in (20, 200):
            peak, report = _peak_bytes(lambda: competitor_search(t, trials=trials, seed=0))
            assert report.passed, trials
            peaks.append(peak)
        assert sum(drawn) == 220
        assert peaks[1] <= 1.1 * peaks[0], peaks
        assert max(peaks) < 12 * 2**20, peaks
        assert pruned <= min(peaks), (pruned, peaks)


class TestL1Trials:
    @pytest.mark.parametrize("n_weights", [0, 1, 50])
    def test_one_draw_equals_a_draw_per_column(self, n_weights):
        rng = np.random.default_rng(n_weights)
        # small explicit columns, so that the tail columns decide most residuals
        cols = (tuple(rng.uniform(-0.1, 0.1, 4)), (), tuple(rng.uniform(-0.1, 0.1, 2)))
        t = L1Operator(cols, tuple(rng.uniform(-2.0, 2.0, n_weights)), TailRule.const(0.7))
        rows = _whole(oracles._random_l1_competitors(t, None, np.inf, 40, 9))
        ref_residuals, ref_rows = ref_l1_trials(t, 40, 9)
        assert same_bits(rows, ref_rows) and same_bits(oracles._l1_scorer(t)(rows), ref_residuals)
        assert rows.shape == (40, 4 + 2 + n_weights + 2)  # the empty column has no slot

    @pytest.mark.parametrize("chunk_entries", [None, 3 * 13, 1])
    def test_chunked_rows_equal_one_draw(self, chunk_entries, monkeypatch):
        # one chunk; three rows of 13 entries per chunk; one row per chunk
        if chunk_entries is not None:
            monkeypatch.setattr(oracles, "TRIAL_CHUNK_ENTRIES", chunk_entries)
        rng = np.random.default_rng(12)
        cols = ((0.5, -2.0, 1.5), (), (3.0,), tuple(rng.uniform(-1.0, 1.0, 5)))
        t = L1Operator(cols, (1.5, -0.2), TailRule.const(0.3))
        rows = _whole(oracles._random_l1_competitors(t, None, np.inf, 10, 4))
        ref_residuals, ref_rows = ref_l1_trials(t, 10, 4)
        assert same_bits(rows, ref_rows) and same_bits(oracles._l1_scorer(t)(rows), ref_residuals)

    def test_wide_columns_add_left_to_right(self):
        # past 8 entries numpy's own sums add pairwise; the search's column
        # masses still add left to right, as the reference does
        rng = np.random.default_rng(13)
        cols = tuple(tuple(rng.uniform(-1.0, 1.0, n)) for n in (9, 40, 300))
        t = L1Operator(cols, (0.5,), TailRule.const(0.1))
        rows = _whole(oracles._random_l1_competitors(t, None, np.inf, 30, 6))
        ref_residuals, ref_rows = ref_l1_trials(t, 30, 6)
        assert same_bits(rows, ref_rows) and same_bits(oracles._l1_scorer(t)(rows), ref_residuals)

    @pytest.mark.parametrize("chunk_entries", [None, 2 * 7, 1])
    def test_report_equals_one_batch_when_trials_win(self, chunk_entries, monkeypatch):
        # the zero operator as the only fixed candidate: random trials win,
        # on models with an empty explicit column and with none at all
        if chunk_entries is not None:
            monkeypatch.setattr(oracles, "TRIAL_CHUNK_ENTRIES", chunk_entries)
        _patch_zero_only(monkeypatch, "_L1_SEARCH")
        rng = np.random.default_rng(47)
        wins = set()
        for i in range(24):
            cols = [tuple(rng.uniform(-1.5, 1.5, int(rng.integers(1, 4)))) for _ in range(i % 4)]
            if cols and i % 3 == 0:
                cols[0] = ()  # an empty explicit column
            weights = tuple(rng.uniform(-2.0, 2.0, int(rng.integers(0, 3))))
            t = L1Operator(tuple(cols), weights, TailRule.const(float(rng.uniform(-0.5, 0.5))))
            trials = int(rng.integers(1, 40))
            report = competitor_search(t, trials=trials, seed=i)
            found, kind, ref_cols, ref_weights = ref_l1_search(t, trials, i)
            assert repr(report.best_found) == repr(found), i
            assert report.best_kind == kind, i
            got = [*report.best_candidate.columns, report.best_candidate.tail_weights]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in [*ref_cols, ref_weights]], i
            r = residual_norm(t, report.best_candidate)
            assert abs(r - report.best_found) <= IDENTITY_TOL * max(1.0, r), i
            if kind == "random":
                wins.add("empty column" if () in cols else "no column" if not cols else "full")
        assert wins == {"empty column", "no column", "full"}, wins

    def test_search_memory_does_not_grow_with_trials(self, monkeypatch):
        # 10^4 columns of 3 entries, four rows of trials per chunk: ten
        # times the trials, the same peak (7.1 MiB, the construction
        # included); a column mass sets the best score and its bound settles
        # the search, so every trial is drawn only with the bound at -inf;
        # the operator's norm and row layout are memoised beforehand
        rng = np.random.default_rng(8)
        t = L1Operator(tuple(rng.uniform(-1.0, 1.0, (10**4, 3))), (), TailRule.const(0.5))
        report = competitor_search(t, trials=1, seed=0)
        assert report.passed and report.binding == "norm"
        drawn = _count_rows(monkeypatch, "_L1_SEARCH")
        _patch_search(monkeypatch, "_L1_SEARCH", lower=lambda op: (-np.inf, "zero"))
        peaks = []
        for trials in (20, 200):
            peak, report = _peak_bytes(lambda: competitor_search(t, trials=trials, seed=0))
            assert report.passed, trials
            peaks.append(peak)
        assert sum(drawn) == 220
        assert peaks[1] <= 1.1 * peaks[0], peaks
        assert max(peaks) < 10 * 2**20, peaks


def _entry_floor_cases(rng):
    """Diagonal and shift models from the helpers' generators, then at
    magnitudes 1e-300 to 1e300 with const and geometric tails, some with an
    empty explicit part."""
    gens = (random_entry_operator, random_nonattaining, random_positive_diagonal)
    cases = [gen(rng) for gen in gens for _ in range(40)]
    for exp in range(-300, 301, 50):
        s = 10.0**exp
        for ctor in (HilbertOperator.diagonal, HilbertOperator.weighted_shift):
            x = rng.uniform(-3.0, 3.0, int(rng.integers(0, 6))) * s
            for tail in (TailRule.const(float(rng.uniform(-2.0, 2.0)) * s),
                         TailRule.geometric(float(rng.uniform(-4.0, 4.0)) * s,
                                            float(rng.uniform(0.05, 0.95)))):
                cases += [ctor(x, tail), ctor((), tail)]
    return cases


def _l1_floor_cases(rng):
    """Column models from the helpers' generator, then at magnitudes 1e-300
    to 1e300, with and without tail weights."""
    cases = [random_l1(rng) for _ in range(60)]
    for exp in range(-300, 301, 50):
        s = 10.0**exp
        cols = tuple(rng.uniform(-1.5, 1.5, k) * s for k in rng.integers(0, 4, 3))
        for n_weights in (0, 3):
            cases.append(L1Operator(cols, rng.uniform(-2.0, 2.0, n_weights) * s,
                                    TailRule.const(float(rng.uniform(-1.5, 1.5)) * s)))
    return cases


def _no_trial(*args):
    raise AssertionError("a trial was drawn")


def _band(claimed: float, tol: float = DEFAULT_TOL) -> float:
    return max(tol, IDENTITY_TOL * abs(claimed))


def _verdicts(found: float, claimed: float, tol: float = DEFAULT_TOL) -> tuple:
    """``(passed, beaten, attained)`` of a search whose best score is ``found``."""
    beaten, attained = found < claimed - _band(claimed, tol), found <= claimed + _band(claimed, tol)
    return (not beaten) and attained, beaten, attained


def _exhaustive(t, trials: int, seed: int):
    """``(best_found, best_kind, arrays of the best candidate)`` of the
    exhaustive reference search of the model class of ``t``."""
    if isinstance(t, L1Operator):
        found, kind, cols, weights = ref_l1_search(t, trials, seed)
        return found, kind, [*cols, weights]
    ref = ref_matrix_search if t.shape is Shape.FINITE_MATRIX else ref_entry_search
    found, kind, candidate = ref(t, trials, seed)
    return found, kind, [candidate]


def _candidate_arrays(t, report) -> list:
    k = report.best_candidate
    if isinstance(t, L1Operator):
        return [*k.columns, k.tail_weights]
    return [k.entries if t.shape is Shape.FINITE_MATRIX else k.explicit]


def _bound_cases(rng, model):
    """The corpora of the bound's tests: the entry and l1 floor cases, and
    matrices of dimension 1 to 64 at every norm of ``SEARCH_NORMS``."""
    if model == "entry":
        return _entry_floor_cases(rng)
    if model == "l1":
        return _l1_floor_cases(rng)
    return [_matrix_of_norm(rng, n, norm) for n in (1, 2, 3, 5, 8, 16, 33, 64)
            for norm in SEARCH_NORMS]


class TestFloors:
    """No random trial's computed score falls below the lower bound of its
    model class, so a search whose best fixed score sits on the bound draws
    no trial and still reports what scoring every trial would; nor does a
    search whose bound closes the gap to the claim, which then keeps the
    verdicts of scoring every trial."""

    def test_entry_trials_score_at_least_the_floor(self):
        rng = np.random.default_rng(43)
        for i, t in enumerate(_entry_floor_cases(rng)):
            score, lower = oracles._entry_scorer(t), oracles._entry_lower(t)[0]
            best = best_ball_approx_h(t).approximant
            rows = oracles._random_entry_competitors(t, best, np.inf, 200, i)
            assert min(score(chunk).min() for chunk in rows) >= lower, i

    def test_l1_trials_score_at_least_the_floor(self):
        rng = np.random.default_rng(44)
        for i, t in enumerate(_l1_floor_cases(rng)):
            score, lower = oracles._l1_scorer(t), oracles._l1_lower(t)[0]
            trials = oracles._random_l1_competitors(t, None, np.inf, 200, i)
            assert min(score(chunk).min() for chunk in trials) >= lower, i

    @pytest.mark.parametrize("norm", SEARCH_NORMS)
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_matrix_trials_score_at_least_the_bound(self, n, norm):
        rng = np.random.default_rng(n)
        t = _matrix_of_norm(rng, n, norm)
        best = best_ball_approx_h(t).approximant
        score, lower = oracles._matrix_scorer(t), oracles._matrix_lower(t)[0]
        for mats in oracles._random_matrix_draws(t, best, 200, 7, _every_trial):
            assert score(oracles._into_ball(mats)).min() >= lower

    def test_l1_bound_sits_just_below_the_heaviest_column(self):
        # a column of k entries: its fsum mass less 1 + gamma_{4k+4} (mass + 1)
        for k in (1, 3, 300):
            col = np.full(k, 2.0 / k)
            t = L1Operator((col, (0.1,)), (0.5,), TailRule.const(0.2))
            lower, binding = oracles._l1_lower(t)
            mass = math.fsum(col)
            u = np.finfo(float).eps / 2
            assert binding == "norm"
            assert mass - 1.0 - 2 * (4 * k + 4) * u * (mass + 1) < lower < mass - 1.0, k

    def test_l1_column_whose_exact_mass_overflows_adds_no_term(self):
        # its left-to-right mass rounds down to the largest float, but
        # math.fsum's exact one overflows: the bound falls back on the rest
        t = L1Operator(((1.7976931348623157e308, 8e291, 8e291),), (), TailRule.const(0.5))
        assert oracles._l1_lower(t) == (0.5, "essential")
        assert competitor_search(t, trials=10, seed=0).passed

    @pytest.mark.parametrize("model", ["entry", "matrix", "l1"])
    def test_search_on_the_floor_draws_no_trial(self, model, monkeypatch):
        rng = np.random.default_rng(45)
        if model == "entry":
            cases, construct = _entry_floor_cases(rng), best_ball_approx_h
        elif model == "matrix":
            cases = [_matrix_of_norm(rng, int(rng.integers(1, 9)), norm)
                     for norm in (0.0, 1e-3, 0.5, 0.9, 1.0, 2.0) for _ in range(5)]
            construct = best_ball_approx_h
        else:
            cases, construct = _l1_floor_cases(rng), best_ball_approx_l1
        for name in ("_ENTRY_SEARCH", "_MATRIX_SEARCH", "_L1_SEARCH"):
            _patch_search(monkeypatch, name, chunks=_no_trial)
        for i, t in enumerate(cases):
            search = oracles._search_of(t)
            lower = search.lower(t)[0]
            best = float(search.scorer(t)(search.fixed(t, construct(t).approximant)[1]).min())
            claimed = ball_distance(t)
            band = _band(claimed)
            # every case is settled: a diagonal or shift model sits on its bound
            assert best <= lower or (claimed - band <= lower
                                     and best <= min(lower, claimed) + band), i
            assert best <= lower or model != "entry", i
            report = competitor_search(t, trials=100, seed=i)
            found, kind, want = _exhaustive(t, 100, i)
            assert _verdicts(report.best_found, claimed) == _verdicts(found, claimed), i
            assert found <= report.best_found <= found + band, i
            if best <= lower:  # on the bound: the report of scoring every trial
                assert repr(report.best_found) == repr(found), i
                assert report.best_kind == kind, i
                got = _candidate_arrays(t, report)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want], i

    @pytest.mark.parametrize("model", ["diagonal", "shift"])
    def test_benchmark_shaped_verify_draws_no_trial(self, model, monkeypatch, capsys):
        # 10^3 entries at 200 trials, one model per construction branch
        drawn = _count_rows(monkeypatch)
        rng = np.random.default_rng(46)
        tails = [{"kind": "const", "value": 0.0},
                 {"kind": "const", "value": float(rng.uniform(0.3, 0.9))},
                 {"kind": "geometric", "limit": -float(rng.uniform(1.2, 2.0)), "ratio": 0.5},
                 {"kind": "geometric", "limit": float(rng.uniform(3.2, 4.0)), "ratio": 0.3}]
        docs = [{"explicit": rng.uniform(-3.0, 3.0, 1000).tolist(), "tail": tail}
                for tail in tails]
        docs.append({"explicit": rng.uniform(-0.95, 0.95, 1000).tolist(),
                     "tail": {"kind": "const", "value": -0.5}})
        for doc in docs:
            text = json.dumps({"space": "l2", "model": model, **doc})
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(["verify", "--samples", "200", "--seed", "0", "--tol", "1e-10"]) == 0
            assert json.loads(capsys.readouterr().out)["pass"] is True
        assert drawn == []


class TestLowerBound:
    """The report's ``lower_bound`` decides the search without changing its
    verdict: on every corpus case ``passed``, ``beaten`` and ``attained``
    are those of the exhaustive reference, a passing report's bound is
    not above ``claimed + band``, and a claim off by 1e-11 relative still
    fails."""

    @pytest.mark.parametrize("model", ["entry", "matrix", "l1"])
    def test_verdicts_equal_the_exhaustive_search(self, model):
        rng = np.random.default_rng(48)
        for i, t in enumerate(_bound_cases(rng, model)):
            report = competitor_search(t, trials=60, seed=i)
            found = _exhaustive(t, 60, i)[0]
            claimed, band = report.claimed, _band(report.claimed)
            got = (report.passed, report.beaten, report.attained)
            assert got == _verdicts(found, claimed), i
            assert found <= report.best_found <= found + band, i
            assert report.binding in ("norm", "essential", "zero"), i
            if report.passed:
                assert report.lower_bound <= claimed + band, i

    @pytest.mark.parametrize("model", ["entry", "matrix", "l1"])
    def test_claims_off_by_1e_11_fail(self, model):
        # a relative 1e-11 at tol 0 is 10 times make_result's band; below a
        # distance of 1e-3 it is finer than the rounding of T - K itself
        rng = np.random.default_rng(49)
        checked = 0
        for i, t in enumerate(_bound_cases(rng, model)):
            d = ball_distance(t)
            if d < 1e-3:
                continue
            checked += 1
            inflated = competitor_search(t, claimed=d * (1 + 1e-11), trials=20, seed=i, tol=0.0)
            deflated = competitor_search(t, claimed=d * (1 - 1e-11), trials=20, seed=i, tol=0.0)
            assert inflated.beaten and not inflated.passed, i
            assert not deflated.attained and not deflated.passed, i
        assert checked >= 20, checked


class TestSvdClip:
    def test_arguments_validated(self):
        with pytest.raises(ValidationError):
            svd_clip_oracle(np.diag([2.0, 0.5]), tol=float("nan"))
        with pytest.raises(ValidationError):
            svd_clip_oracle([["2", "0"], ["0", "0.5"]])

    def test_negative_tol_rejected(self):
        with pytest.raises(ValidationError):
            svd_clip_oracle(np.diag([2.0, 0.5]), tol=-1e-10)

    @pytest.mark.parametrize("scale", [1e3, 1e4, 1e5, 1e6, 1e8, 1e10, 1e12])
    def test_large_matrices_compared_at_the_search_band(self, scale):
        # an absolute 1e-10 is finer than the rounding of a distance above
        # about 1e5; the band widens to IDENTITY_TOL * distance
        rng = np.random.default_rng(29)
        for i in range(40):
            m = rng.standard_normal((5, 5)) * scale
            k, d = svd_clip_oracle(m)
            sigma_1 = np.linalg.svd(m, compute_uv=False)[0]
            assert d == pytest.approx(sigma_1 - 1.0, rel=1e-14), i

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e12])
    def test_clip_off_by_1e_11_relative_is_rejected(self, scale, monkeypatch):
        # k + 1e-11 T leaves the residual (1 - 1e-11) T - k: sigma_1 is off
        # the distance by 1e-11 sigma_1, ten times the band at large scale
        sv_map = oracles._sv_map

        def perturbed(t):
            soft, clip = sv_map(t)
            return soft, clip + 1e-11 * t.entries

        monkeypatch.setattr(oracles, "_sv_map", perturbed)
        m = np.random.default_rng(31).standard_normal((5, 5)) * scale
        with pytest.raises(CertificationError, match="clip reconstruction"):
            svd_clip_oracle(m)

    def test_diagonal_matrix(self):
        k, d = svd_clip_oracle(np.diag([2.0, 0.5]))
        assert d == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(k, np.diag([1.0, 0.5]), atol=1e-10)

    def test_in_ball_matrix_unchanged(self):
        m = np.array([[0.3, 0.1], [0.0, 0.2]])
        k, d = svd_clip_oracle(m)
        assert d == 0.0
        np.testing.assert_allclose(k, m, atol=1e-10)

    def test_matches_numpy_route(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            m = rng.standard_normal((n, n)) * rng.choice([0.5, 1.0, 2.0])
            k, d = svd_clip_oracle(m)
            u, sv, vt = np.linalg.svd(m)
            k_ref = u @ np.diag(np.minimum(sv, 1.0)) @ vt
            np.testing.assert_allclose(k, k_ref, atol=1e-9)
            assert d == pytest.approx(max(sv[0] - 1.0, 0.0), abs=1e-10)
            assert d == pytest.approx(
                best_ball_approx_h(HilbertOperator.finite_matrix(m)).distance, abs=1e-10
            )


class TestFiniteSectionBounds:
    @pytest.mark.parametrize("scale", [1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
    def test_large_matrices_pass_at_the_certified_resolution(self, scale):
        # LAPACK's section norm and the Jacobi-based formula differ by a few
        # roundings of sigma_1: an absolute IDENTITY_TOL rejected 8 x 8
        # Gaussian matrices once sigma_1 reached a few thousand
        rng = np.random.default_rng(23)
        for i in range(100):
            t = HilbertOperator.finite_matrix(rng.standard_normal((8, 8)) * scale)
            lower, formula = finite_section_bounds(t, 8)
            assert abs(lower - formula) <= IDENTITY_TOL * formula, i

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
    def test_section_norm_raised_by_1e_11_relative_is_rejected(self, scale, monkeypatch):
        section = oracles.finite_section
        monkeypatch.setattr(oracles, "finite_section",
                            lambda t, n: section(t, n) * (1.0 + 1e-11))
        rng = np.random.default_rng(24)
        for i in range(10):
            t = HilbertOperator.finite_matrix(rng.standard_normal((8, 8)) * scale)
            with pytest.raises(CertificationError, match="section lower bound"):
                finite_section_bounds(t, 8)

    def test_growing_sections_approach_norm_term(self):
        t = HilbertOperator.diagonal([0.5], TailRule.geometric(2, 0.5))
        lowers = []
        for n in (2, 5, 10, 20, 40):
            lower, formula = finite_section_bounds(t, n)
            assert formula == 2.0
            assert lower < formula
            lowers.append(lower)
        assert all(a <= b + 1e-15 for a, b in zip(lowers, lowers[1:]))
        # section of size n sees tail slots 1..n-1
        assert lowers[3] == pytest.approx(2.0 * (1.0 - 0.5**19) - 1.0, abs=1e-12)
        assert lowers[1] == pytest.approx(2.0 * (1.0 - 0.5**4) - 1.0, abs=1e-12)

    def test_attained_norm_term_is_certified_exactly(self):
        t = HilbertOperator.diagonal([3], TailRule.const(1))
        lower, formula = finite_section_bounds(t, 5)
        assert lower == pytest.approx(2.0, abs=1e-12)
        assert formula == 2.0

    def test_sections_blind_to_essential_norm(self):
        t = HilbertOperator.weighted_shift([], TailRule.const(1))
        lower, formula = finite_section_bounds(t, 30)
        assert lower == 0.0  # a section of a shift has norm 1
        assert formula == 1.0

    def test_l1_column_sections(self):
        t = L1Operator(((0.6, 0.9, 0.9),), (), TailRule.const(1))
        lower, formula = finite_section_bounds(t, 4)
        assert lower == pytest.approx(1.4, abs=1e-12)
        assert formula == pytest.approx(1.4, abs=1e-12)

    def test_lower_never_exceeds_formula(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            t = random_hilbert(rng, max_len=6, max_dim=6)
            n = int(rng.integers(12, 30))
            lower, formula = finite_section_bounds(t, n)
            assert lower <= formula + 1e-12
