"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL summary line (visible with
``pytest -s``) and enforces the stated tolerances and runtime budgets.
"""

import time

import numpy as np

from ballapprox import (
    Branch,
    HilbertOperator,
    L1Operator,
    NormedSpacePoint,
    Shape,
    Space,
    TailRule,
    ball_distance,
    best_ball_approx_h,
    best_ball_approx_l1,
    competitor_search,
    ess_norm,
    finite_section_bounds,
    op_norm,
    project_scalar_multiple,
    residual_norm,
    scale,
    svd_clip_oracle,
    verify_unique_projection,
)
from helpers import (
    random_hilbert,
    random_l1,
    random_matrix_operator,
    random_nonattaining,
    random_positive_diagonal,
    soft_threshold_approx,
)


def _finish(num: int, label: str, failures: list, elapsed: float, budget=None):
    """Emit the one-line verdict for a criterion, then assert it."""
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded the {budget:.0f}s budget")
    verdict = "PASS" if not failures else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" < {budget:.0f}s" if budget is not None else "")
    print(f"\n[acceptance {num}] {verdict}: {label} ({timing})")
    assert not failures, failures[:8]


def test_01_distance_formula_on_seeded_l2_models():
    rng = np.random.default_rng(101)
    failures = []
    t0 = time.perf_counter()
    for i in range(500):
        t = random_hilbert(rng)
        res = best_ball_approx_h(t)
        expected = max(op_norm(t) - 1.0, ess_norm(t), 0.0)
        if abs(res.distance - expected) > 1e-10:
            failures.append(f"#{i}: distance {res.distance} != formula {expected}")
        if op_norm(res.approximant) > 1.0 + 1e-12:
            failures.append(f"#{i}: approximant norm {op_norm(res.approximant)} > 1")
        if res.approximant.shape is not Shape.FINITE_MATRIX:
            if res.approximant.tail != TailRule.const(0.0):
                failures.append(f"#{i}: approximant tail {res.approximant.tail} not const 0")
    _finish(
        1,
        "distance formula and in-ball compact approximants on 500 seeded l2 models",
        failures,
        time.perf_counter() - t0,
        budget=5.0,
    )


def test_02_competitor_search_certifies_optimality():
    rng = np.random.default_rng(202)
    failures = []
    t0 = time.perf_counter()
    for i in range(100):
        t = random_l1(rng) if i % 10 < 3 else random_hilbert(rng)
        rep = competitor_search(t, trials=10_000, seed=i, tol=1e-10)
        if rep.beaten:
            failures.append(
                f"#{i}: beaten, best {rep.best_found} < claimed {rep.claimed} ({rep.best_kind})"
            )
        if not rep.attained:
            failures.append(f"#{i}: claimed {rep.claimed} not attained, best {rep.best_found}")
    _finish(
        2,
        "competitor search (10^4 trials x 100 instances) never beaten, always attained",
        failures,
        time.perf_counter() - t0,
        budget=60.0,
    )


def test_03_l1_truncation_suite():
    rng = np.random.default_rng(303)
    failures = []
    t0 = time.perf_counter()
    for i in range(200):
        t = random_l1(rng)
        res = best_ball_approx_l1(t)
        k = res.approximant
        expected = max(op_norm(t) - 1.0, ess_norm(t), 0.0)
        for j in range(1, k.column_count_listed() + 1):
            if k.column_mass(j) > 1.0 + 1e-12:
                failures.append(f"#{i}: output column {j} mass {k.column_mass(j)} > 1")
        if k.tail != TailRule.const(0.0):
            failures.append(f"#{i}: output tail {k.tail} not const 0")
        achieved = residual_norm(t, k)
        if abs(achieved - expected) > 1e-10:
            failures.append(f"#{i}: residual {achieved} != formula {expected}")
        if op_norm(t) - 1.0 >= ess_norm(t):
            longest = max((len(c) for c in t.columns), default=0)
            n = max(longest, t.column_count_listed() + 1)
            oracle, _ = finite_section_bounds(t, n)
            if abs(oracle - expected) > 1e-10:
                failures.append(f"#{i}: section bound {oracle} != formula {expected}")

    # worked instance: one dense column of mass 2.4 over a unit tail
    t = L1Operator(((0.6, 0.9, 0.9),), (), TailRule.const(1.0))
    res = best_ball_approx_l1(t)
    if abs(res.distance - 1.4) > 1e-10:
        failures.append(f"worked instance: distance {res.distance} != 1.4")
    got = res.approximant.columns[0]
    want = (0.6, 0.4, 0.0)
    if any(abs(g - w) > 1e-10 for g, w in zip(got, want)):
        failures.append(f"worked instance: truncated column {got} != {want}")
    _finish(
        3,
        "l1 truncation: column masses, residual formula, section bound on 200 instances",
        failures,
        time.perf_counter() - t0,
        budget=5.0,
    )


def test_04_scaled_isometry_distance():
    shift = HilbertOperator.weighted_shift((), TailRule.const(1.0))
    failures = []
    t0 = time.perf_counter()
    for a in (0.5, 1.0, 1.5, 3.0, -2.0):
        scaled = scale(shift, a)
        d = ball_distance(scaled)
        if abs(d - abs(a)) > 1e-12:
            failures.append(f"a={a}: distance {d} != |a|")
        if abs(ess_norm(scaled) - abs(a)) > 1e-12:
            failures.append(f"a={a}: essential norm {ess_norm(scaled)} != |a|")
    _finish(
        4,
        "scaled shift isometry: ball distance equals |a| for a in {0.5, 1, 1.5, 3, -2}",
        failures,
        time.perf_counter() - t0,
    )


def test_05_positive_diagonal_approximants():
    rng = np.random.default_rng(505)
    failures = []
    t0 = time.perf_counter()
    for i in range(100):
        t = random_positive_diagonal(rng)
        res = best_ball_approx_h(t)
        k = res.approximant
        if any(e < 0.0 for e in k.explicit) or k.tail.limit < 0.0:
            failures.append(f"#{i}: negative entry in approximant")
        if op_norm(k) > 1.0:
            failures.append(f"#{i}: approximant norm {op_norm(k)} > 1")
        expected = max(op_norm(t) - 1.0, ess_norm(t), 0.0)
        if abs(res.distance - expected) > 1e-10:
            failures.append(f"#{i}: distance {res.distance} != formula {expected}")
        if abs(residual_norm(t, k) - expected) > 1e-10:
            failures.append(f"#{i}: residual {residual_norm(t, k)} not attaining")
    _finish(
        5,
        "positive diagonal approximants stay nonnegative with norm <= 1 on 100 instances",
        failures,
        time.perf_counter() - t0,
    )


def _extreme_point(space: Space, dim: int, rng) -> NormedSpacePoint:
    if space is Space.L1:
        coords = [0.0] * dim
        coords[int(rng.integers(dim))] = -1.0 if rng.random() < 0.5 else 1.0
    elif space is Space.L2:
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        coords = [float(x) for x in v]
    else:
        coords = [-1.0 if rng.random() < 0.5 else 1.0 for _ in range(dim)]
    return NormedSpacePoint(space, tuple(coords))


def test_06_radial_projection_uniqueness_grid():
    rng = np.random.default_rng(606)
    failures = []
    t0 = time.perf_counter()
    run = 0
    for space in (Space.L1, Space.L2, Space.LINF):
        for dim in range(2, 7):
            for _ in range(50):
                pt = _extreme_point(space, dim, rng)
                for a in (1.1, -1.1, 2.0, -2.0, 10.0, -10.0):
                    proj, d = project_scalar_multiple(a, pt)
                    if d != abs(a) - 1.0:
                        failures.append(f"{space} dim={dim} a={a}: distance {d}")
                    s = 1.0 if a > 0 else -1.0
                    if proj.coords != tuple(s * c for c in pt.coords):
                        failures.append(f"{space} dim={dim} a={a}: projection off-ray")
                    rep = verify_unique_projection(a, pt, samples=10_000, seed=run, tol=1e-3)
                    run += 1
                    if not rep.passed:
                        failures.append(
                            f"{space} dim={dim} a={a} pt={pt.coords}: "
                            f"radius {rep.radius} vs bound {rep.radius_bound}, "
                            f"min {rep.min_distance} vs lower {rep.lower_bound}"
                        )
                    if len(failures) > 8:
                        _finish(6, "radial projection grid (aborted early)", failures,
                                time.perf_counter() - t0, budget=30.0)

    # face midpoint on the sup-norm ball: a whole segment of minimizers
    demo = verify_unique_projection(
        2.0, NormedSpacePoint(Space.LINF, (1.0, 0.0)), samples=10_000, seed=0, tol=1e-3
    )
    if demo.extreme_input:
        failures.append("demo point unexpectedly classified extreme")
    if demo.spread < 0.1:
        failures.append(f"demo spread {demo.spread} < 0.1, no second minimizer found")
    if demo.passed:
        failures.append("demo verification passed despite non-unique projection")
    _finish(
        6,
        "radial projection uniqueness (3 spaces x dims 2-6 x 50 points x 6 alphas, "
        "10^4 samples) plus the non-extreme counterexample",
        failures,
        time.perf_counter() - t0,
        budget=30.0,
    )


def test_07_nonattaining_branch_and_finite_sections():
    rng = np.random.default_rng(707)
    failures = []
    t0 = time.perf_counter()
    instances = [random_nonattaining(rng) for _ in range(60)]
    for i, t in enumerate(instances):
        res = best_ball_approx_h(t)
        if res.branch is not Branch.NON_ATTAINING:
            failures.append(f"#{i}: branch {res.branch}")
        if op_norm(res.approximant) != 0.0:
            failures.append(f"#{i}: approximant not zero, norm {op_norm(res.approximant)}")
        if abs(res.distance - op_norm(t)) > 1e-12:
            failures.append(f"#{i}: distance {res.distance} != norm {op_norm(t)}")
    for i, t in enumerate(instances[:12]):
        start = len(t.explicit) + 1
        lowers = []
        for n in range(start, start + 10):
            lower, formula = finite_section_bounds(t, n)
            if lower >= formula:
                failures.append(f"#{i} n={n}: section bound {lower} reached {formula}")
            lowers.append(lower)
        if any(b < a for a, b in zip(lowers, lowers[1:])):
            failures.append(f"#{i}: section bounds not nondecreasing: {lowers}")
    _finish(
        7,
        "non-attaining models: zero approximant at distance ||T||, finite sections "
        "nondecreasing yet strictly below",
        failures,
        time.perf_counter() - t0,
    )


def test_08_cross_oracle_agreement():
    rng = np.random.default_rng(808)
    failures = []
    t0 = time.perf_counter()
    for i in range(200):
        t = random_matrix_operator(rng)
        _, clipped = svd_clip_oracle(t.entries)
        built = best_ball_approx_h(t).distance
        if abs(clipped - built) > 1e-10:
            failures.append(f"#{i}: svd clip {clipped} vs construction {built}")
    for i in range(300):
        t = random_hilbert(rng)
        st = soft_threshold_approx(t).certificate.residual_norm
        main = best_ball_approx_h(t).certificate.residual_norm
        if abs(st - main) > 1e-10:
            failures.append(f"#{i}: soft-threshold residual {st} vs construction {main}")
    _finish(
        8,
        "svd clipping agrees with the construction on 200 matrices; soft-threshold "
        "residual norms match on 300 l2 models",
        failures,
        time.perf_counter() - t0,
    )
