"""Tests for the increasing-rank outer loop and its warm start."""

import dataclasses
import math
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

from lyapfactor import (
    FactorPoint,
    IncreasingRankError,
    IrrConfig,
    Metric,
    TnewtonConfig,
    gen_poisson,
    horizontal_inner,
    relative_residual,
    solve_fixed_rank,
    solve_increasing_rank,
)
from lyapfactor import increasing_rank, problems, tnewton
from lyapfactor.increasing_rank import warm_start
from lyapfactor.manifold import cost
from lyapfactor.problems import _PointProducts
from lyapfactor.tnewton import LineSearchError

from helpers import (dense_residual, identity_problem, legacy_warm_start,
                     random_problem)


@pytest.fixture(scope="module")
def poisson_run():
    """One multi-rank solve shared by the trace-inspection tests."""
    problem = gen_poisson(150, 0)
    config = IrrConfig(p_min=1, p_max=30, tau=1e-6, seed=0)
    point, trace = solve_increasing_rank(
        problem, Metric.EMBEDDED, config, None, "proposed"
    )
    return problem, config, point, trace


def visited_ranks(trace):
    ranks = []
    for p in trace.column("p"):
        if not ranks or ranks[-1] != p:
            ranks.append(p)
    return ranks


# ---------------------------------------------------------------- config


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p_min": 0},
        {"p_min": 5, "p_max": 4},
        {"p_inc": 0},
        {"tau": 0.0},
        {"tau": -1e-6},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        IrrConfig(**kwargs)


def test_rank_cap_above_problem_size_rejected():
    problem = gen_poisson(10, 0)
    with pytest.raises(ValueError):
        solve_increasing_rank(
            problem, Metric.EMBEDDED, IrrConfig(p_min=1, p_max=20)
        )


# ------------------------------------------------- termination behaviour


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_exactly_representable_solution_stops_at_p_min(seed):
    # C = 2 Ystar Ystar^T with rank(Ystar) = p_min: the target is
    # reachable at the first rank, so no further ranks may be visited.
    rng = np.random.default_rng(5)
    ystar = rng.standard_normal((40, 2)) / np.sqrt(40)
    problem = identity_problem(40, ystar)
    config = IrrConfig(p_min=2, p_max=6, tau=1e-6, seed=seed)
    point, trace = solve_increasing_rank(
        problem, Metric.EMBEDDED, config, None, "none"
    )
    assert visited_ranks(trace) == [2]
    assert trace.final().relres <= config.tau
    assert point.y.shape == (40, 2)


def test_poisson_reaches_target_within_rank_cap(poisson_run):
    problem, config, point, trace = poisson_run
    final = trace.final()
    assert final.relres <= config.tau
    assert final.p <= config.p_max
    assert point.y.shape == (problem.n, final.p)


def test_final_residual_matches_dense_recomputation(poisson_run):
    problem, _, point, trace = poisson_run
    normc = float(np.linalg.norm(problem.b @ problem.b.T, "fro"))
    dense = dense_residual(problem, point.y) / normc
    assert abs(dense - trace.final().relres) <= 1e-10


def test_reported_residuals_match_library_formula(poisson_run):
    problem, _, point, trace = poisson_run
    assert trace.final().relres == pytest.approx(
        relative_residual(problem, point), abs=0.0, rel=1e-12
    )


# ------------------------------------------------------ trace invariants


def test_cost_decreases_across_every_rank_transition(poisson_run):
    _, _, _, trace = poisson_run
    f = trace.column("f")
    p = trace.column("p")
    transitions = [i for i in range(1, len(p)) if p[i] != p[i - 1]]
    assert transitions
    for i in transitions:
        assert f[i] < f[i - 1]


def test_rank_schedule_is_arithmetic(poisson_run):
    _, config, _, trace = poisson_run
    ranks = visited_ranks(trace)
    assert ranks[0] == config.p_min
    assert ranks == sorted(set(ranks))
    for prev, cur in zip(ranks, ranks[1:]):
        assert cur == prev + config.p_inc
    assert ranks[-1] <= config.p_max


def test_stride_two_schedule_never_exceeds_cap():
    # Unreachable tolerance: the loop must walk 1, 3, 5 and stop there.
    point, trace = solve_increasing_rank(
        gen_poisson(40, 1),
        Metric.EMBEDDED,
        IrrConfig(p_min=1, p_max=6, p_inc=2, tau=1e-13, seed=0),
        None,
        "proposed",
    )
    assert visited_ranks(trace) == [1, 3, 5]
    assert point.y.shape[1] == 5


def test_iteration_counter_restarts_at_each_rank(poisson_run):
    _, _, _, trace = poisson_run
    k = trace.column("k")
    p = trace.column("p")
    for i in range(1, len(p)):
        if p[i] != p[i - 1]:
            assert k[i] == 0


def test_hessian_count_accumulates_across_ranks(poisson_run):
    _, _, _, trace = poisson_run
    nh = trace.column("nH")
    assert all(b >= a for a, b in zip(nh, nh[1:]))
    assert nh[-1] > nh[0]


def test_fixed_seed_reproduces_schedule_and_residual():
    results = []
    for _ in range(2):
        problem = gen_poisson(60, 0)
        _, trace = solve_increasing_rank(
            problem,
            Metric.GRAM,
            IrrConfig(p_min=1, p_max=10, tau=1e-4, seed=7),
            None,
            "proposed",
        )
        results.append((trace.column("p"), trace.column("f"),
                        trace.final().relres))
    assert results[0][0] == results[1][0]
    assert results[0][1] == results[1][1]
    assert abs(results[0][2] - results[1][2]) <= 1e-12


# ------------------------------------------------------------ warm start


def euclidean_cost_gradient(problem, y):
    """Dense gradient of tr(X A X M) - tr(X C) in the factor Y."""
    a = problem.a.mat.toarray()
    m = problem.m.mat.toarray()
    u = a @ y
    v = m @ y
    return 2.0 * (u @ (v.T @ y) + v @ (u.T @ y)
                  - problem.b @ (problem.b.T @ y))


def test_gradient_vanishes_identically_in_padded_columns():
    # Zero-padding the factor zeroes the corresponding gradient columns
    # exactly; this is why the new columns must be seeded, not zeroed.
    rng = np.random.default_rng(8)
    problem = random_problem(30, 2, rng)
    y = rng.standard_normal((30, 2))
    padded = np.hstack([y, np.zeros((30, 2))])
    grad = euclidean_cost_gradient(problem, padded)
    assert np.all(grad[:, 2:] == 0.0)
    assert np.linalg.norm(grad[:, :2]) > 1e-3


def test_gradient_zero_at_padded_exact_solution():
    rng = np.random.default_rng(5)
    ystar = rng.standard_normal((40, 2)) / np.sqrt(40)
    problem = identity_problem(40, ystar)
    padded = np.hstack([ystar, np.zeros((40, 1))])
    grad = euclidean_cost_gradient(problem, padded)
    assert np.linalg.norm(grad) <= 1e-14


def test_warm_start_descends_below_previous_rank():
    rng = np.random.default_rng(8)
    problem = random_problem(30, 2, rng)
    start = FactorPoint(np.random.default_rng(9).standard_normal((30, 2)))
    out, ok = warm_start(problem, start, 1, np.random.default_rng(3))
    assert ok is True
    assert out.y.shape == (30, 3)
    assert cost(problem, out) < cost(problem, start)


def test_warm_start_at_exact_solution_does_not_regress():
    # At an exact solution no seed lowers the cost: tr(V^T N V) computes
    # to -2.8e-16, within its rounding bound 1.2e-14, so the columns get
    # the small fallback scale and the flag is False, whatever sign
    # rounding gives that trace. The cost rises by about 1e-16 only.
    rng = np.random.default_rng(5)
    ystar = rng.standard_normal((40, 2)) / np.sqrt(40)
    problem = identity_problem(40, ystar)
    point = FactorPoint(ystar)
    dirs = increasing_rank._padded_column_seed(problem, point, 1)
    assert increasing_rank._seed_scale(problem, dirs,
                                       point.products(problem)) is None
    with pytest.warns(RuntimeWarning, match="raise the cost"):
        out, ok = warm_start(problem, point, 1, np.random.default_rng(2))
    assert ok is False
    assert out.has_full_rank
    gap = cost(problem, out) - cost(problem, FactorPoint(ystar))
    assert gap <= 1e-10


def test_warm_start_output_rank_audit():
    # The grown factor must keep full column rank for the next solve.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        problem = random_problem(12, 2, rng)
        start = FactorPoint(rng.standard_normal((12, 2)))
        p_inc = 1 + seed % 2
        out, ok = warm_start(problem, start, p_inc, rng)
        assert out.y.shape == (12, 2 + p_inc)
        assert out.has_full_rank
        assert isinstance(ok, bool)


def test_warm_start_rejects_rank_deficient_input():
    problem = random_problem(10, 1, np.random.default_rng(0))
    y = np.ones((10, 2))
    with pytest.raises(ValueError):
        warm_start(problem, FactorPoint(y), 1)


class _ZeroNormal:
    """A generator whose jitter is zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


@pytest.mark.filterwarnings("ignore:the seeded columns raise the cost")
def test_warm_start_jitters_a_seed_inside_the_range_of_y(monkeypatch):
    # A seed direction inside range(Y) leaves the grown factor rank
    # deficient; the jitter restores full rank, and a zero jitter cannot.
    problem = gen_poisson(20, 0)
    start = FactorPoint(np.random.default_rng(0).standard_normal((20, 2)))
    monkeypatch.setattr(
        increasing_rank, "_padded_column_seed",
        lambda problem, point, p_inc: point.y[:, :p_inc].copy())
    grown, _ = warm_start(problem, start, 1, np.random.default_rng(1))
    assert grown.p == 3
    assert grown.has_full_rank
    np.testing.assert_array_equal(grown.y[:, :2], start.y)
    with pytest.raises(RuntimeError, match="rank deficient"):
        warm_start(problem, start, 1, _ZeroNormal())


# --------------------------------------------------- cost-optimal seed

# (n, columns of B, rank of Y, p_inc): one and two new columns, and more
# new columns than the span of [A Y, M Y, B] offers eigendirections, so
# that the seed is padded with unit vectors.
SEED_CASES = [(30, 2, 2, 1), (30, 2, 2, 2), (12, 1, 1, 4)]


def seeded_case(n, s, p, p_inc, seed, size=0.1):
    rng = np.random.default_rng(seed)
    problem = random_problem(n, s, rng)
    point = FactorPoint(size * rng.standard_normal((n, p)))
    dirs = increasing_rank._padded_column_seed(problem, point, p_inc)
    assert dirs.shape == (n, p_inc)
    return problem, point, dirs


def grown_cost(problem, point, dirs, scale):
    return cost(problem, FactorPoint(np.hstack([point.y, scale * dirs])))


def seed_quartic(problem, y, dirs):
    """c2 = tr(V^T N V) and c4 = tr(V^T A V V^T M V), formed densely."""
    a = problem.a.mat.toarray()
    m = problem.m.mat.toarray()
    x = y @ y.T
    resid = a @ x @ m + m @ x @ a - problem.b @ problem.b.T
    c2 = np.trace(dirs.T @ resid @ dirs)
    c4 = np.trace(dirs.T @ a @ dirs @ dirs.T @ m @ dirs)
    return c2, c4


@pytest.mark.parametrize("case", SEED_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cost_is_quartic_along_the_seed(case, seed):
    problem, point, dirs = seeded_case(*case, seed)
    scale = increasing_rank._seed_scale(problem, dirs,
                                        point.products(problem))
    c2, c4 = seed_quartic(problem, point.y, dirs)
    assert c2 < 0.0 < c4
    assert scale == pytest.approx(np.sqrt(-c2 / (2.0 * c4)), rel=1e-12)
    f0 = cost(problem, point)
    for s in (0.5 * scale, scale, 2.0 * scale, 1.0):
        quartic = f0 + c2 * s ** 2 + c4 * s ** 4
        size = abs(f0) + abs(c2) * s ** 2 + c4 * s ** 4
        fresh = grown_cost(problem, point, dirs, s)
        assert abs(fresh - quartic) <= 1e-12 * size


@pytest.mark.parametrize("case", SEED_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seed_scale_minimizes_the_cost(case, seed):
    problem, point, dirs = seeded_case(*case, seed)
    scale = increasing_rank._seed_scale(problem, dirs,
                                        point.products(problem))
    best = grown_cost(problem, point, dirs, scale)
    assert best < cost(problem, point)
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        assert grown_cost(problem, point, dirs, factor * scale) >= best


@pytest.mark.parametrize("case", SEED_CASES)
def test_warm_start_places_the_seed_at_its_optimal_scale(case):
    problem, point, dirs = seeded_case(*case, 3)
    scale = increasing_rank._seed_scale(problem, dirs,
                                        point.products(problem))
    out, ok = warm_start(problem, point, case[3])
    assert ok is True
    assert np.array_equal(out.y, np.hstack([point.y, scale * dirs]))


def test_warm_start_flags_a_seed_that_raises_the_cost():
    # A factor far too large for B: all of span([A Y, M Y, B]) is taken,
    # where the residual's trace is positive, so no scale lowers the cost.
    # The columns get the small fallback scale, and the flag is False.
    problem, point, dirs = seeded_case(12, 1, 1, 4, 0, size=1.0)
    c2, _ = seed_quartic(problem, point.y, dirs)
    assert c2 > 0.0
    assert increasing_rank._seed_scale(problem, dirs,
                                       point.products(problem)) is None
    with pytest.warns(RuntimeWarning, match="raise the cost"):
        out, ok = warm_start(problem, point, 4)
    assert ok is False
    assert out.has_full_rank
    assert cost(problem, out) > cost(problem, point)
    assert np.array_equal(out.y[:, 1:], 1e-4 * np.linalg.norm(point.y)
                          / np.sqrt(4) * dirs)


@pytest.mark.parametrize("case", SEED_CASES)
def test_warm_start_makes_at_most_two_cost_evaluations(case, monkeypatch):
    # Counted as in test_cost_and_residual_computed_once_per_point: the
    # padded factor's cost and the grown factor's, nothing else.
    evaluations = Counter()
    func = _PointProducts.cost.func

    def counted(self):
        evaluations[self.y.tobytes()] += 1
        return func(self)

    prop = cached_property(counted)
    prop.__set_name__(_PointProducts, "cost")
    monkeypatch.setattr(_PointProducts, "cost", prop)
    problem, point, _ = seeded_case(*case, 4)
    warm_start(problem, FactorPoint(point.y), case[3])
    assert 0 < sum(evaluations.values()) <= 2


@pytest.mark.parametrize("p_min", [1, 2, 3])
def test_p_min_start_is_the_draw_at_a_positive_scale(p_min, monkeypatch):
    # The loop passes the draw as it is; the fixed-rank solve starts from
    # its cost-optimal scale t*, t*^2 = ||B^T Y||^2 / (2 tr(Y^T A Y Y^T M Y)),
    # and records it.
    starts = []

    def spy(*args, solve=increasing_rank.solve_fixed_rank):
        starts.append(args[2].y)
        return solve(*args)

    monkeypatch.setattr(increasing_rank, "solve_fixed_rank", spy)
    problem = random_problem(30, 2, np.random.default_rng(p_min))
    config = IrrConfig(p_min=p_min, p_max=p_min, seed=11)
    _, trace = solve_increasing_rank(problem, Metric.EMBEDDED, config)
    draw = np.random.default_rng(11).standard_normal((30, p_min))
    by = problem.b.T @ draw
    quartic = np.trace(draw.T @ (problem.a.mat @ draw)
                       @ draw.T @ (problem.m.mat @ draw))
    scale = np.sqrt(np.sum(by * by) / (2.0 * quartic))
    assert scale > 0.0
    assert np.array_equal(starts[0], draw)
    assert trace.scales[0] == pytest.approx(scale, rel=1e-12)
    assert trace.rows[0].f == cost(problem, FactorPoint(draw))


def test_warm_starts_recorded_once_per_rank_transition(poisson_run):
    _, _, _, trace = poisson_run
    assert len(trace.warm_starts) == len(visited_ranks(trace)) - 1
    assert all(flag is True for flag in trace.warm_starts)


# ---------------------------------------------------------------- errors


def test_inner_failure_surfaces_with_partial_trace():
    # A line search whose conditions demand nearly the whole first-order
    # decrease fails at the very first rank; the error must say which
    # rank, carry the underlying cause, and keep the iterations that did
    # complete.
    problem = gen_poisson(60, 0)
    strict = TnewtonConfig(chi1=0.999, chi2=0.999)
    with pytest.raises(IncreasingRankError) as info:
        solve_increasing_rank(
            problem,
            Metric.EMBEDDED,
            IrrConfig(p_min=1, p_max=4, tau=1e-14, seed=0),
            strict,
            "none",
        )
    err = info.value
    assert "inner solve failed at rank 1" in str(err)
    assert err.rank == 1
    assert isinstance(err.cause, LineSearchError)
    assert len(err.trace.rows) >= 1
    assert err.trace.rows[0].p == 1


def test_irr39_replay_takes_no_armijo_fallback(monkeypatch):
    # Regression: benchmark instance irr-poisson1d/39 under the schedule it
    # had before the stall rule (each rank solved to a gradient reduction
    # of min(1e-6, r/10), r the residual at the rank's start, and grown by
    # the warm start of that time, a small seed and a steepest-descent
    # step, kept in helpers as legacy_warm_start) reached the Armijo
    # fallback at rank 7 with the default TnewtonConfig: the search
    # backtracked by interpolation and never tried the line's minimizer
    # alpha*. The closed-form trials include alpha*, which meets the
    # two-branch conditions there, so the replay, run through the
    # fixed-rank solver, completes with every step accepted by them.
    searches = []

    def spy(problem, metric, point, direction, f0, slope0, config,
            search=tnewton.line_search):
        result = search(problem, metric, point, direction, f0, slope0, config)
        norm_sq = horizontal_inner(metric, point, direction, direction)
        threshold = max(-config.chi1 * slope0 * slope0 / norm_sq,
                        config.chi2 * slope0)
        searches.append((rank, result, f0, threshold))
        return result

    monkeypatch.setattr(tnewton, "line_search", spy)
    problem = gen_poisson(100, 39)
    rng = np.random.default_rng(39)
    point = FactorPoint(rng.standard_normal((problem.n, 1)))
    for rank in range(1, 8):
        r = relative_residual(problem, point)
        point, trace = solve_fixed_rank(
            problem, Metric.EMBEDDED, point,
            TnewtonConfig(grad_tol_rel=min(1e-6, r / 10.0)), "proposed")
        assert trace.fallbacks == []
        if rank < 7:
            point, _ = legacy_warm_start(problem, point, 1, rng)
    assert point.p == 7
    assert 7 in {at_rank for at_rank, *_ in searches}
    for _, result, f0, threshold in searches:
        assert not result.fallback
        assert result.f - f0 <= threshold

    # The instance itself, under the stall rule, still reaches tau below
    # the rank cap.
    config = IrrConfig(p_min=1, p_max=40, tau=1e-6, seed=39)
    point, trace = solve_increasing_rank(problem, Metric.EMBEDDED, config,
                                         None, "proposed")
    assert trace.final().relres <= config.tau
    assert relative_residual(problem, point) <= config.tau
    assert point.p < config.p_max


def test_fallbacks_index_the_joined_rows_of_every_rank(monkeypatch):
    # Each accepted search gives one row with k > 0, in order; the joined
    # trace lists the rows whose step the Armijo fallback took, here in
    # ranks 1 and 3
    results = []

    def spy(*args, search=tnewton.line_search):
        results.append(search(*args))
        return results[-1]

    monkeypatch.setattr(tnewton, "line_search", spy)
    config = TnewtonConfig(chi1=0.45, chi2=0.45)
    _, trace = solve_increasing_rank(
        gen_poisson(40, 1), Metric.EMBEDDED,
        IrrConfig(p_min=1, p_max=4, tau=1e-13, seed=1), config, "proposed")
    steps = [i for i, row in enumerate(trace.rows) if row.k > 0]
    assert len(steps) == len(results)
    marked = [i for i, result in zip(steps, results) if result.fallback]
    assert trace.fallbacks == marked
    assert len({trace.rows[i].p for i in marked}) > 1


def test_cost_and_residual_computed_once_per_point(monkeypatch):
    # warm_start, the line search and row 0 of each rank ask for the same
    # values at the same points; each cost and each residual norm is
    # evaluated once per factor
    evaluations = Counter()
    for name in ("cost", "residual_fro"):
        func = getattr(_PointProducts, name).func

        def counted(self, func=func, name=name):
            evaluations[name, self.y.tobytes()] += 1
            return func(self)

        prop = cached_property(counted)
        prop.__set_name__(_PointProducts, name)
        monkeypatch.setattr(_PointProducts, name, prop)
    config = IrrConfig(p_min=1, p_max=8, tau=1e-6, seed=0)
    solve_increasing_rank(gen_poisson(60, 0), Metric.EMBEDDED, config, None,
                          "proposed")
    kinds = Counter(name for name, _ in evaluations)
    assert kinds["cost"] > 0 and kinds["residual_fro"] > 0
    assert max(evaluations.values()) == 1


def test_tpcg_breakdown_does_not_abort_solve():
    # Regression: at rank 12 of this instance <r, P r> inside tPCG decays
    # to exactly zero and the next conjugation coefficient divided by it.
    problem = gen_poisson(200, 108)
    point, trace = solve_increasing_rank(
        problem, Metric.EMBEDDED,
        IrrConfig(p_min=1, p_max=40, tau=1e-6, seed=108), None, "proposed",
    )
    assert trace.final().relres <= 1e-6
    assert relative_residual(problem, point) <= 1e-6


def test_stagnated_line_search_ends_rank_instead_of_failing(monkeypatch):
    # Regression: at a nearly converged rank the acceptance conditions can
    # demand a cost decrease below floating point resolution; the search
    # exhausts its backtracks through no fault of the direction. The rank
    # must end at its floor and the loop must continue to the next rank,
    # not surface an error (observed on this instance at rank 19).
    problem = gen_poisson(400, 3)
    point, trace = solve_increasing_rank(
        problem, Metric.EMBEDDED, IrrConfig(tau=1e-6, seed=0),
        None, "proposed",
    )
    assert trace.final().relres <= 1e-6
    assert point.y.shape[1] <= 20

    # The same exit, forced: with the quartic's rounding bound taken as
    # infinite, no trial's decrease is certified, and a search whose
    # conditions demand almost no decrease finds no step below the floor
    # at rank 1. The rank ends there and the loop goes on to rank 2. The
    # strict search of test_inner_failure_surfaces_with_partial_trace,
    # which finds no step above the floor, raises instead.
    exhausted = []

    def spy(*args, search=tnewton.line_search):
        try:
            return search(*args)
        except LineSearchError as exc:
            exhausted.append(exc)
            raise

    monkeypatch.setattr(tnewton, "line_search", spy)
    monkeypatch.setattr(problems.CostQuartic, "bound",
                        lambda self, alpha: math.inf)
    lax = TnewtonConfig(chi1=1e-20, chi2=1e-20)
    point, trace = solve_increasing_rank(
        gen_poisson(60, 0), Metric.EMBEDDED,
        IrrConfig(p_min=1, p_max=2, tau=1e-14, seed=0), lax, "none",
    )
    assert exhausted
    for exc in exhausted:
        floor = 64.0 * np.finfo(float).eps * max(1.0, abs(exc.f0))
        assert exc.demanded <= floor
    assert visited_ranks(trace) == [1, 2]
    assert trace.stops[0] == "floor"


# ------------------------------------------------------------ stall rule


@pytest.mark.parametrize("seed", [40, 26])
def test_stall_rule_keeps_the_final_rank(seed):
    # Regression: with the stall test alone (relres moving by under 1 %
    # while above 3 tau), instance 40 stopped a rank in its scale phase,
    # with steps near 1e-3 and relres near 5e4 tau, and ended at rank 20.
    # Asking for a unit step as well, instance 26 stopped a rank on a unit
    # step that raised both relres and the gradient norm, and ended at rank
    # 15. The rule also asks that the step lowered the gradient norm.
    problem = gen_poisson(100, seed)
    config = IrrConfig(p_min=1, p_max=40, tau=1e-6, seed=seed)
    point, trace = solve_increasing_rank(problem, Metric.EMBEDDED, config,
                                         None, "proposed")
    assert point.p == 14
    assert trace.final().relres <= config.tau
    assert "stall" in trace.stops


def test_stall_ends_some_rank_of_criterion_10_problem():
    problem = gen_poisson(500, 0)
    config = IrrConfig(p_min=1, p_max=40, tau=1e-6, seed=0)
    point, trace = solve_increasing_rank(problem, Metric.EMBEDDED, config,
                                         None, "proposed")
    assert trace.final().relres <= config.tau
    assert len(trace.stops) == len(visited_ranks(trace))
    assert trace.stops.count("stall") >= 1
    assert trace.stops[-1] != "stall"


def strip_ms(rows):
    return [dataclasses.replace(row, ms=0.0) for row in rows]


def test_last_rank_of_schedule_never_stalls():
    # The same instance with the schedule cut at rank 3: ranks 1 and 2
    # run as before, rank 3 is the last and runs without a target, past
    # the point where it stalled when it was not the last.
    problem = gen_poisson(60, 0)
    _, full = solve_increasing_rank(
        problem, Metric.EMBEDDED, IrrConfig(p_min=1, p_max=8, seed=0),
        None, "proposed")
    _, cut = solve_increasing_rank(
        problem, Metric.EMBEDDED, IrrConfig(p_min=1, p_max=3, seed=0),
        None, "proposed")
    assert full.stops[:3] == ["stall"] * 3
    assert visited_ranks(cut) == [1, 2, 3]
    assert cut.stops[:2] == full.stops[:2]
    assert cut.stops[2] != "stall"
    full3 = strip_ms(row for row in full.rows if row.p <= 3)
    cut3 = strip_ms(cut.rows)
    assert len(cut3) > len(full3)
    assert cut3[:len(full3)] == full3


def test_stall_rule_only_ends_the_solve_early():
    # A fixed-rank solve with a target follows the solve without one row
    # for row and stops at the first iteration that meets every condition
    # of the rule; without a target it never stops on a stall.
    problem = gen_poisson(60, 0)
    y0 = np.random.default_rng(1).standard_normal((60, 3))
    target = 1e-6
    _, stalled = solve_fixed_rank(problem, Metric.EMBEDDED, y0, None,
                                  "proposed", target=target)
    _, free = solve_fixed_rank(problem, Metric.EMBEDDED, y0, None,
                               "proposed")
    assert stalled.stops == ["stall"]
    assert free.stops != ["stall"] and len(free.stops) == 1
    rows = strip_ms(stalled.rows)
    assert rows == strip_ms(free.rows)[:len(rows)]

    def meets_rule(prev, row):
        return (row.k >= 2 and row.alpha == 1.0
                and row.gradnorm < prev.gradnorm
                and row.relres > tnewton.STALL_RATIO * prev.relres
                and row.relres > tnewton.STALL_MARGIN * target)

    pairs = list(zip(rows, rows[1:]))
    assert meets_rule(*pairs[-1])
    assert not any(meets_rule(*pair) for pair in pairs[:-1])


def test_failed_rank_keeps_stops_of_completed_ranks(monkeypatch):
    # The third fixed-rank solve raises: the partial trace carries the
    # stop reasons of the two ranks that completed.
    calls = []

    def failing(*args, solve=increasing_rank.solve_fixed_rank):
        calls.append(args)
        if len(calls) == 3:
            exc = LineSearchError(0, 0.0, -1.0, 1.0, 1.0)
            exc.trace = tnewton.SolveTrace()
            raise exc
        return solve(*args)

    monkeypatch.setattr(increasing_rank, "solve_fixed_rank", failing)
    with pytest.raises(IncreasingRankError) as info:
        solve_increasing_rank(gen_poisson(60, 0), Metric.EMBEDDED,
                              IrrConfig(p_min=1, p_max=8, seed=0), None,
                              "proposed")
    assert info.value.rank == 3
    assert info.value.trace.stops == ["stall", "stall"]
    assert info.value.trace.warm_starts == [True, True]


def test_rank_whose_iterate_meets_tau_is_the_last():
    # Benchmark instance irr-poisson1d/47: before the "target" stop, an
    # iterate of rank 14 met tau in the middle of the solve, the solve
    # went on, its residual rose above tau again, and the loop ended at
    # rank 15. Rank 14 now ends at its first iterate that meets tau.
    problem = gen_poisson(100, 47)
    config = IrrConfig(p_min=1, p_max=40, tau=1e-6, seed=47)
    point, trace = solve_increasing_rank(problem, Metric.EMBEDDED, config,
                                         None, "proposed")
    assert point.p == 14
    assert trace.stops[-1] == "target"
    assert trace.final().relres <= config.tau
    assert relative_residual(problem, point) <= config.tau
    assert len(trace.scales) == len(trace.stops) == len(visited_ranks(trace))
    assert trace.scales[0] > 0.0
