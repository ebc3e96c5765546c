import io
import json
import math

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
from ballapprox.serialize import operator_from_doc
from ballapprox.models import (
    IDENTITY_TOL,
    Shape,
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


class TestCompetitorSearch:
    def test_diagonal_worked_instance(self):
        t = HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1))
        report = competitor_search(t)
        assert report.passed
        assert not report.beaten and report.attained
        assert report.best_found == pytest.approx(2.0, abs=1e-10)

    def test_l1_worked_instance(self):
        t = L1Operator(((0.6, 0.9, 0.9),), (), TailRule.const(1))
        report = competitor_search(t)
        assert report.passed
        assert report.best_found == pytest.approx(1.4, abs=1e-10)

    def test_matrix_instance(self):
        rng = np.random.default_rng(2)
        t = HilbertOperator.finite_matrix(rng.standard_normal((5, 5)))
        report = competitor_search(t)
        assert report.passed

    def test_nonattaining_instance(self):
        t = HilbertOperator.diagonal([0.5], TailRule.geometric(2, 0.5))
        report = competitor_search(t)
        assert report.passed
        assert report.best_found == pytest.approx(2.0, abs=1e-10)

    def test_inflated_claim_is_beaten(self):
        t = HilbertOperator.diagonal([3], TailRule.const(0))
        report = competitor_search(t, claimed=5.0)
        assert not report.passed and report.beaten

    def test_deflated_claim_not_attained(self):
        t = HilbertOperator.diagonal([3], TailRule.const(0))
        report = competitor_search(t, claimed=1.0)
        assert not report.passed and not report.attained and not report.beaten

    def test_best_candidate_is_reported_in_ball(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            t = random_hilbert(rng, max_len=6, max_dim=4)
            report = competitor_search(t)
            assert report.passed
            assert report.best_candidate is not None
        for _ in range(10):
            t = random_l1(rng)
            report = competitor_search(t)
            assert report.passed

    @pytest.mark.parametrize("scale", [1e2, 1e5, 1e6, 1e8])
    def test_large_claims_compared_at_the_certified_resolution(self, scale):
        # an absolute 1e-10 is finer than the rounding of a claim above about
        # 1e5; the band widens to IDENTITY_TOL * |claimed|, as make_result's
        rng = np.random.default_rng(3)
        for i in range(40):
            n = int(rng.integers(2, 7))
            t = HilbertOperator.finite_matrix(rng.standard_normal((n, n)) * scale)
            report = competitor_search(t)
            assert report.passed, i
            assert report.tol == 1e-10

    def test_band_still_catches_a_claim_off_at_large_scale(self):
        t = HilbertOperator.diagonal([3e8], TailRule.const(0))
        d = ball_distance(t)
        assert competitor_search(t, claimed=d * (1 + 1e-11)).beaten
        assert not competitor_search(t, claimed=d * (1 - 1e-11)).attained
        assert competitor_search(t, claimed=d * (1 + 5e-13), tol=0.0).passed

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1e-10, "1e-10"])
    def test_tol_validated(self, tol):
        t = HilbertOperator.diagonal([1], TailRule.const(0))
        with pytest.raises(ValidationError):
            competitor_search(t, tol=tol)

    @pytest.mark.parametrize(
        "kwargs", [{"claimed": "2"}, {"claimed": float("nan")}],
        ids=["claimed_str", "claimed_nan"],
    )
    def test_arguments_validated(self, kwargs):
        t = HilbertOperator.diagonal([3], TailRule.const(0))
        with pytest.raises(ValidationError):
            competitor_search(t, **kwargs)

    @pytest.mark.parametrize("name", ["trials", "seed"])
    def test_search_samples_nothing(self, name):
        # the lower bound decides the search: it takes no sampling argument,
        # and its report records none
        t = HilbertOperator.diagonal([3], TailRule.const(0))
        with pytest.raises(TypeError):
            competitor_search(t, **{name: 10})
        assert not hasattr(competitor_search(t), name)

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
        assert competitor_search(t).passed
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
        # back from its row of the fixed batch
        rng = np.random.default_rng(19)
        for t in [random_hilbert(rng, max_len=6, max_dim=6) for _ in range(20)] + [
            random_l1(rng) for _ in range(20)
        ]:
            report = competitor_search(t)
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
        assert competitor_search(t).passed
        (certified,) = calls
        construct = best_ball_approx_l1 if isinstance(t, L1Operator) else best_ball_approx_h
        assert certified == construct(t).approximant

    def test_matrix_search_decomposes_t_once(self, monkeypatch):
        m = np.random.default_rng(3).standard_normal((64, 64))
        svd, seen = np.linalg.svd, []

        def counting(a, full_matrices=True, compute_uv=True):
            seen.extend((compute_uv, x) for x in np.reshape(a, (-1, 64, 64)))
            return svd(a, full_matrices=full_matrices, compute_uv=compute_uv)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert competitor_search(HilbertOperator.finite_matrix(m)).passed
        # one decomposition of T, for the fixed candidates and the bound: a
        # matrix search has no zero candidate
        assert [uv for uv, a in seen if np.array_equal(a, m)] == [True]
        # with the three fixed residuals and the construction's norm and
        # residual, six matrices
        assert len(seen) == 6

    def test_verify_guards_v_once(self, monkeypatch, capsys):
        # T's norm reads the memoised guard of V, and nothing else does
        guard, guards = models._nearly_orthogonal, []

        def counting(vt):
            guards.append(vt)
            return guard(vt)

        monkeypatch.setattr(models, "_nearly_orthogonal", counting)
        # and wherever else the guard might be bound by name
        monkeypatch.setattr(oracles, "_nearly_orthogonal", counting, raising=False)
        text = json.dumps({"space": "l2", "model": "matrix",
                           "entries": np.random.default_rng(4).standard_normal((6, 6)).tolist()})
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["verify", "--samples", "200", "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        assert len(guards) == 1


def _matrix_of_norm(rng, n, norm):
    a = rng.standard_normal((n, n))
    return HilbertOperator.finite_matrix(a * (norm / np.linalg.svd(a, compute_uv=False)[0]))


# in the ball, at its edge, just above it (where the bound's residual
# cancels) and far above it
SEARCH_NORMS = [1e-3, 0.5, 1.0, 1.0 + 1e-6, 3.0, 1e3, 1e6]


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


def _band(claimed: float, tol: float = DEFAULT_TOL) -> float:
    return max(tol, IDENTITY_TOL * abs(claimed))


def _verdicts(found: float, claimed: float, tol: float = DEFAULT_TOL) -> tuple:
    """``(passed, beaten, attained)`` of a search whose best score is ``found``."""
    beaten, attained = found < claimed - _band(claimed, tol), found <= claimed + _band(claimed, tol)
    return (not beaten) and attained, beaten, attained


def _settled(report) -> bool:
    """Whether the report's lower bound meets its best fixed score, or closes
    the gap to its claim within the band."""
    lower, best, claimed = report.lower_bound, report.best_found, report.claimed
    band = _band(claimed)
    return best <= lower or (claimed - band <= lower and best <= min(lower, claimed) + band)


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
    """No sampled competitor's computed score (the reference trials of
    ``helpers``) falls below the lower bound of its model class, so a search
    whose best fixed score sits on the bound reports what scoring every
    trial as well would; a search whose bound closes the gap to the claim
    keeps the verdicts of scoring every trial."""

    def test_entry_trials_score_at_least_the_floor(self):
        rng = np.random.default_rng(43)
        for i, t in enumerate(_entry_floor_cases(rng)):
            score, lower = oracles._entry_scorer(t), oracles._entry_lower(t)[0]
            best = best_ball_approx_h(t).approximant
            rows = ref_entry_rows(t, best, 200, np.random.default_rng(i))
            assert score(rows).min() >= lower, i

    def test_l1_trials_score_at_least_the_floor(self):
        rng = np.random.default_rng(44)
        for i, t in enumerate(_l1_floor_cases(rng)):
            score, lower = oracles._l1_scorer(t), oracles._l1_lower(t)[0]
            rows = ref_l1_trials(t, 200, i)[1]
            assert score(rows).min() >= lower, i

    @pytest.mark.parametrize("norm", SEARCH_NORMS)
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_matrix_trials_score_at_least_the_bound(self, n, norm):
        rng = np.random.default_rng(n)
        t = _matrix_of_norm(rng, n, norm)
        best = best_ball_approx_h(t).approximant
        score, lower = oracles._matrix_scorer(t), oracles._matrix_lower(t)[0]
        mats = ref_matrix_draws(t, best, 200, 7)[1]
        mats /= np.maximum(np.linalg.svd(mats, compute_uv=False)[:, 0], 1.0)[:, None, None]
        assert score(mats).min() >= lower

    @pytest.mark.parametrize("widths", [(4, 0, 2), (9, 40, 300)])
    def test_l1_scores_add_column_masses_left_to_right(self, widths):
        # past 8 entries numpy's own sums add pairwise; the search's column
        # masses add left to right, as the reference does, and an empty
        # column has no slot
        rng = np.random.default_rng(13)
        cols = tuple(tuple(rng.uniform(-1.0, 1.0, n)) for n in widths)
        t = L1Operator(cols, (0.5,), TailRule.const(0.1))
        ref_residuals, rows = ref_l1_trials(t, 30, 6)
        assert same_bits(oracles._l1_scorer(t)(rows), ref_residuals)

    @pytest.mark.parametrize("scale", [0.0, 1e-150, 0.5])
    def test_matrix_in_the_ball_scores_zero(self, scale):
        # the construction is T itself and scores 0, the bound of a matrix
        # in the ball; no sampled trial scores below it
        t = _matrix_of_norm(np.random.default_rng(15), 4, 1.0)
        t = HilbertOperator.finite_matrix(t.entries * scale)
        report = competitor_search(t)
        assert report.passed and report.best_found == 0.0 == report.lower_bound
        assert report.best_kind == "construction"
        assert repr(ref_matrix_search(t, 200, 0)[:2]) == repr((0.0, "construction"))

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
        assert competitor_search(t).passed

    @pytest.mark.parametrize("model", ["entry", "matrix", "l1"])
    def test_search_on_the_floor_draws_no_trial(self, model):
        rng = np.random.default_rng(45)
        if model == "entry":
            cases, construct = _entry_floor_cases(rng), best_ball_approx_h
        elif model == "matrix":
            cases = [_matrix_of_norm(rng, int(rng.integers(1, 9)), norm)
                     for norm in (0.0, 1e-3, 0.5, 0.9, 1.0, 2.0) for _ in range(5)]
            construct = best_ball_approx_h
        else:
            cases, construct = _l1_floor_cases(rng), best_ball_approx_l1
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
            report = competitor_search(t)
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
            assert _settled(competitor_search(operator_from_doc(json.loads(text))))


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
            report = competitor_search(t)
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
            inflated = competitor_search(t, claimed=d * (1 + 1e-11), tol=0.0)
            deflated = competitor_search(t, claimed=d * (1 - 1e-11), tol=0.0)
            assert inflated.beaten and not inflated.passed, i
            assert not deflated.attained and not deflated.passed, i
        assert checked >= 20, checked


def _patch_zero_only(monkeypatch, name):
    """The zero operator as the only fixed candidate of the search entry
    ``name`` of ``oracles``, for the search and for the reference searches,
    which read their fixed candidates from it."""
    search = getattr(oracles, name)

    def zero_only(t, construction):
        return ["zero"], np.zeros_like(search.fixed(t, construction)[1][:1])

    monkeypatch.setattr(oracles, name, search._replace(fixed=zero_only))


def _same_as_exhaustive(t, trials: int, seed: int, case) -> str:
    """Check the report of ``t`` against the exhaustive reference search:
    no sampled trial falls below its lower bound, both searches give the
    same verdicts, and, unless a trial wins the reference, the same best
    score, kind and candidate.  Returns the reference's best kind."""
    report = competitor_search(t)
    found, kind, want = _exhaustive(t, trials, seed)
    claimed, band = report.claimed, _band(report.claimed)
    assert report.lower_bound <= found, case
    assert _verdicts(report.best_found, claimed) == _verdicts(found, claimed), case
    assert found <= report.best_found <= found + band, case
    if kind != "random":
        assert repr(report.best_found) == repr(found), case
        assert report.best_kind == kind, case
        got = _candidate_arrays(t, report)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], case
    return kind


def _trials_win_above_the_bound(t, trials: int, seed: int, case) -> str:
    """With zero as the only fixed candidate: the reference's best, a trial
    wherever one beats zero, still scores at least the report's lower
    bound.  Returns the reference's best kind."""
    report = competitor_search(t)
    found, kind, _ = _exhaustive(t, trials, seed)
    assert report.best_kind == "zero", case
    assert report.lower_bound <= found <= report.best_found, case
    return kind


def _entry_cases(rng, width):
    """Diagonal and shift models of ``width`` explicit entries, at three
    scales, with a zero and a nonzero const tail and geometric tails whose
    entries rise in magnitude to a limit inside and outside the ball."""
    tails = (TailRule.const(0.0), TailRule.const(0.5), TailRule.geometric(-1.5, 0.5),
             TailRule.geometric(3.5, 0.3))
    return [ctor(rng.uniform(-3.0, 3.0, width) * s, tail)
            for ctor in (HilbertOperator.diagonal, HilbertOperator.weighted_shift)
            for tail in tails for s in (0.3, 1.0, 3.0)]


def _l1_cases(rng, widths, n_weights):
    """Column models with columns of ``widths`` entries and ``n_weights``
    tail weights, at three scales, with a zero and a nonzero const tail."""
    return [L1Operator(tuple(rng.uniform(-1.5, 1.5, k) * s for k in widths),
                       rng.uniform(-2.0, 2.0, n_weights) * s, TailRule.const(c * s))
            for s in (0.3, 1.0, 3.0) for c in (0.0, 0.7)]


ENTRY_WIDTHS = [0, 1, 2, 3, 5, 9, 14]
# an empty column, one entry, columns around an empty one, and wide
# columns whose masses numpy would add pairwise
L1_SHAPES = [((), 1), ((1,), 0), ((3, 0, 2), 2), ((9, 40, 300), 1), ((0, 7), 3)]
SAMPLED_TRIALS = [7, 50, 200]


class TestSampledSearch:
    """The exhaustive reference searches of ``helpers`` score seeded random
    in-ball competitors after the search's fixed candidates, a sampled
    falsification of the search's lower bound.  Across sizes, scales and
    trial counts no trial falls below the bound, and where no trial wins
    the report is the reference's bit for bit.  With the zero operator as
    the only fixed candidate the trials win, and stay above the bound."""

    @pytest.mark.parametrize("trials", SAMPLED_TRIALS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12, 16, 64])
    def test_report_equals_exhaustive_search(self, n, trials):
        rng = np.random.default_rng(100 + n)
        for i, norm in enumerate(SEARCH_NORMS):
            _same_as_exhaustive(_matrix_of_norm(rng, n, norm), trials, i, (norm, i))

    @pytest.mark.parametrize("trials", SAMPLED_TRIALS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12, 16, 64])
    def test_report_equals_exhaustive_search_when_trials_win(self, n, trials, monkeypatch):
        _patch_zero_only(monkeypatch, "_MATRIX_SEARCH")
        rng = np.random.default_rng(100 + n)
        kinds = [_trials_win_above_the_bound(_matrix_of_norm(rng, n, norm), trials, i, (norm, i))
                 for i, norm in enumerate(SEARCH_NORMS)]
        assert "random" in kinds

    @pytest.mark.parametrize("trials", SAMPLED_TRIALS)
    @pytest.mark.parametrize("width", ENTRY_WIDTHS)
    def test_entry_report_equals_exhaustive_search(self, width, trials):
        rng = np.random.default_rng(200 + width)
        for i, t in enumerate(_entry_cases(rng, width)):
            _same_as_exhaustive(t, trials, i, i)

    @pytest.mark.parametrize("trials", SAMPLED_TRIALS)
    @pytest.mark.parametrize("width", ENTRY_WIDTHS)
    def test_entry_trials_win_above_the_bound(self, width, trials, monkeypatch):
        _patch_zero_only(monkeypatch, "_ENTRY_SEARCH")
        rng = np.random.default_rng(200 + width)
        kinds = [_trials_win_above_the_bound(t, trials, i, i)
                 for i, t in enumerate(_entry_cases(rng, width))]
        # with no explicit entry, zero scores the essential norm, the bound
        assert ("random" in kinds) == (width > 0)

    @pytest.mark.parametrize("trials", SAMPLED_TRIALS)
    @pytest.mark.parametrize("widths,n_weights", L1_SHAPES)
    def test_l1_report_equals_exhaustive_search(self, widths, n_weights, trials):
        rng = np.random.default_rng(300 + sum(widths))
        for i, t in enumerate(_l1_cases(rng, widths, n_weights)):
            _same_as_exhaustive(t, trials, i, i)

    @pytest.mark.parametrize("trials", SAMPLED_TRIALS)
    @pytest.mark.parametrize("widths,n_weights", L1_SHAPES)
    def test_l1_trials_win_above_the_bound(self, widths, n_weights, trials, monkeypatch):
        _patch_zero_only(monkeypatch, "_L1_SEARCH")
        rng = np.random.default_rng(300 + sum(widths))
        kinds = [_trials_win_above_the_bound(t, trials, i, i)
                 for i, t in enumerate(_l1_cases(rng, widths, n_weights))]
        assert "random" in kinds


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
