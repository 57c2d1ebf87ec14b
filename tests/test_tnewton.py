"""Truncated Newton outer loop, inner tPCG, and the line search."""

import dataclasses
import importlib.util
import math
import pathlib

import numpy as np
import pytest

from helpers import (
    count_hessian_actions,
    identity_problem,
    legacy_tpcg,
    random_problem,
    trace_audit,
)
from lyapfactor import (
    FactorPoint,
    Metric,
    SolveTrace,
    TnewtonConfig,
    cost,
    gen_poisson,
    horizontal_inner,
    relative_residual,
    retract,
    riemannian_gradient,
    solve_fixed_rank,
    tpcg,
)
from lyapfactor import problems, tnewton
from lyapfactor.manifold import hessian_action
from lyapfactor.tnewton import (
    EPS_CURV,
    FORCING_BETA,
    InnerSolveError,
    LineSearchError,
    line_search,
)

ALL_METRICS = (Metric.EMBEDDED, Metric.GRAM, Metric.EUCLIDEAN)

WORKLOADS = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
             / "workloads.py")


# ------------------------------------------------------------------ tpcg


def test_tpcg_identity_hessian_one_step():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((12, 1))
    state = tpcg(g, lambda v: v, lambda v: v, 1e-10, 1e-6)
    assert state.hessian_actions == 1
    assert state.stop == "forcing"
    np.testing.assert_allclose(state.direction, -g, rtol=1e-12)


def test_tpcg_negative_curvature_returns_first_direction():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((9, 1))
    state = tpcg(g, lambda v: -v, lambda v: v, 1e-10, 1e-6)
    assert state.stop == "curvature"
    assert state.hessian_actions == 1
    # d0 = P^{-1}(-g) = -g is the steepest descent direction
    np.testing.assert_allclose(state.direction, -g, rtol=1e-12)


def test_tpcg_spd_system_solves_to_forcing():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((12, 12))
    hmat = w @ w.T + 12.0 * np.eye(12)
    g = rng.standard_normal((12, 1))
    phi = 1e-8
    state = tpcg(g, lambda v: hmat @ v, lambda v: v, 1e-12, phi)
    res = np.linalg.norm(hmat @ state.direction + g)
    assert res <= phi * np.linalg.norm(g) * (1.0 + 1e-9)
    assert state.stop == "forcing"
    assert state.rel_residual <= phi


def test_tpcg_record_identities():
    # conjugacy of the d_i under H and orthogonality r_i^T y_j, i > j,
    # normalized by the scale of the vectors involved
    rng = np.random.default_rng(3)
    w = rng.standard_normal((10, 10))
    hmat = w @ w.T + 10.0 * np.eye(10)
    pmat = np.diag(1.0 / (np.arange(10) + 1.0))
    g = rng.standard_normal((10, 1))
    record = []
    tpcg(g, lambda v: hmat @ v, lambda v: pmat @ v, 1e-12, 1e-10,
         record=record)
    assert len(record) >= 3
    for step in record:
        assert set(step) >= {"d", "q", "r", "y", "delta"}
    g0 = np.linalg.norm(g)
    d_max = max(np.linalg.norm(s["d"]) for s in record)
    for i in range(len(record)):
        for j in range(i):
            conj = float(np.sum(record[i]["d"] * record[j]["q"]))
            assert abs(conj) <= 1e-9 * np.linalg.norm(record[j]["q"]) * d_max
            orth = float(np.sum(record[i]["r"] * record[j]["y"]))
            assert abs(orth) <= 1e-9 * g0 * np.linalg.norm(record[j]["y"])


def test_tpcg_delta_matches_preconditioned_norm():
    # delta_i = g(y_i, y_i) + beta^2 delta_{i-1} must equal g(d_i, d_i)
    # computationally cheap form of the same quantity
    rng = np.random.default_rng(4)
    w = rng.standard_normal((8, 8))
    hmat = w @ w.T + 8.0 * np.eye(8)
    g = rng.standard_normal((8, 1))
    record = []
    tpcg(g, lambda v: hmat @ v, lambda v: v, 1e-12, 1e-10, record=record)
    for step in record:
        direct = float(np.sum(step["d"] * step["d"]))
        np.testing.assert_allclose(step["delta"], direct, rtol=1e-10)


def test_tpcg_max_inner_stop():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((20, 20))
    hmat = w @ w.T + np.eye(20)
    g = rng.standard_normal((20, 1))
    state = tpcg(g, lambda v: hmat @ v, lambda v: v, 1e-12, 1e-14,
                 max_inner=2)
    assert state.stop == "max_inner"
    assert state.hessian_actions == 2


def test_tpcg_nonfinite_hessian_raises():
    g = np.ones((4, 1))

    def bad_hess(v):
        return np.full_like(v, np.nan)

    with pytest.raises(InnerSolveError) as info:
        tpcg(g, bad_hess, lambda v: v, 1e-12, 1e-6)
    assert info.value.iteration == 0


def test_tpcg_breakdown_stop():
    # After one step <r, P r> is exactly zero: the solve must stop with the
    # step taken instead of dividing by it on the next iteration.
    g = np.array([[1.0], [2.0]])
    calls = []

    def precond(v):
        calls.append(1)
        return v if len(calls) == 1 else np.zeros_like(v)

    hmat = np.diag([2.0, 3.0])
    state = tpcg(g, lambda v: hmat @ v, precond, 1e-12, 1e-6)
    assert state.stop == "breakdown"
    assert state.hessian_actions == 1
    np.testing.assert_allclose(state.direction, -(5.0 / 14.0) * g)


def test_tpcg_rejects_zero_gradient():
    with pytest.raises(ValueError):
        tpcg(np.zeros((3, 1)), lambda v: v, lambda v: v, 1e-12, 1e-6)


def test_tpcg_curvature_truncation_mid_run():
    # indefinite H first encountered at a later iteration returns the
    # accumulated eta, not d0
    hmat = np.diag([1.0, 1.0, -1.0])
    g = np.array([[1.0], [1.0], [0.2]])
    state = tpcg(g, lambda v: hmat @ v, lambda v: v, 1e-12, 1e-14)
    assert state.stop == "curvature"
    assert state.hessian_actions >= 2
    assert np.linalg.norm(state.direction) > 0.0


def _counted(fn, counts, key):
    def wrapped(v):
        counts[key] += 1
        return fn(v)
    return wrapped


def _tpcg_case(case):
    """(gradient, H, P, phi_k, max_inner) for a fixed system whose tPCG
    stops for the named reason; P is a fixed SPD diagonal."""
    rng = np.random.default_rng(7)
    n = 12
    w = rng.standard_normal((n, n))
    hmat = w @ w.T + n * np.eye(n)
    pmat = np.diag(1.0 / (np.arange(n) + 1.0))
    g = rng.standard_normal((n, 1))
    if case == "curvature":
        hmat[-1, -1] = -1e3
        return g, hmat, pmat, 1e-14, n
    if case == "max_inner":
        return g, hmat, pmat, 1e-14, 3
    return g, hmat, pmat, 1e-8, n


@pytest.mark.parametrize("case", ["forcing", "curvature", "max_inner"])
def test_tpcg_applies_the_preconditioner_only_to_residuals_it_uses(case):
    # A "forcing" stop after k Hessian actions applies the preconditioner
    # k times (the initial residual and k - 1 updates), one fewer than the
    # loop that applied it before the forcing test; a stop on curvature at
    # step i makes i + 1 applies either way. The returned state is the old
    # loop's, bit for bit.
    g, hmat, pmat, phi, max_inner = _tpcg_case(case)
    states, counts = [], []
    for solve in (tpcg, legacy_tpcg):
        count = {"hess": 0, "precond": 0}
        states.append(solve(
            g, _counted(lambda v: hmat @ v, count, "hess"),
            _counted(lambda v: pmat @ v, count, "precond"), 1e-12, phi,
            inner=lambda x, e: float(np.sum(x * e)), max_inner=max_inner))
        counts.append(count)
    new, old = states
    assert new.stop == old.stop == case
    k = new.hessian_actions
    assert counts[0]["hess"] == counts[1]["hess"] == k == old.hessian_actions
    if case == "forcing":
        assert k >= 3
        assert (counts[0]["precond"], counts[1]["precond"]) == (k, k + 1)
    else:
        assert counts[0]["precond"] == counts[1]["precond"] == k + (
            case == "max_inner")
    if case == "curvature":
        assert k >= 2
    np.testing.assert_array_equal(new.direction, old.direction)
    assert new.rel_residual == old.rel_residual


# ------------------------------------------------------------ line search


def _newton_direction(metric, problem, at, config):
    grad = riemannian_gradient(metric, problem, at)
    gnorm = np.sqrt(horizontal_inner(metric, at, grad, grad))

    def hess(v):
        return hessian_action(metric, problem, at, v)

    def inner(x, e):
        return horizontal_inner(metric, at, x, e)

    state = tpcg(grad, hess, lambda v: v, EPS_CURV,
                 min(FORCING_BETA, gnorm ** config.forcing_t),
                 inner=inner)
    slope = horizontal_inner(metric, at, grad, state.direction)
    return grad, state.direction, slope


def test_line_search_accepts_unit_step_near_solution():
    rng = np.random.default_rng(6)
    ystar = rng.standard_normal((30, 2)) / np.sqrt(30)
    prob = identity_problem(30, ystar)
    at = FactorPoint(ystar + 1e-3 * rng.standard_normal((30, 2)))
    config = TnewtonConfig()
    grad, direction, slope = _newton_direction(Metric.EMBEDDED, prob, at,
                                               config)
    result = line_search(prob, Metric.EMBEDDED, at, direction, cost(prob, at),
                         slope, config)
    assert result.alpha == 1.0
    assert result.backtracks == 0
    assert not result.fallback


def test_line_search_requires_descent_direction():
    rng = np.random.default_rng(7)
    prob = random_problem(10, 1, rng)
    at = FactorPoint(rng.standard_normal((10, 2)))
    grad = riemannian_gradient(Metric.EMBEDDED, prob, at)
    slope = horizontal_inner(Metric.EMBEDDED, at, grad, grad)
    with pytest.raises(ValueError, match="descent"):
        line_search(prob, Metric.EMBEDDED, at, grad, cost(prob, at), slope,
                    TnewtonConfig())


def _trials(line):
    """The line search's closed-form trial steps on `line`."""
    star = line.minimizer
    if star is None or star >= 1.0:
        return [1.0]
    return [1.0, max(star, 0.1)] + ([star] if star < 0.1 else [])


def _long_newton_direction(prob, at, config, scale):
    """The Newton direction times `scale`, whose line's minimizer alpha*
    is 1/scale of the Newton direction's."""
    grad, direction, slope = _newton_direction(Metric.EMBEDDED, prob, at,
                                               config)
    return scale * direction, scale * slope


def test_line_search_exhaustion_reports_diagnostics():
    # chi1 ~ 1 demands nearly the whole first-order decrease at every alpha,
    # which a quartic-in-alpha cost cannot deliver far from the solution;
    # chi2 = 1 asks the Armijo fallback for all of it, which a cost curving
    # up along the direction never gives at any alpha. The direction is 30
    # Newton steps long, so that alpha* < 1/10 and all three trials run.
    prob = gen_poisson(40, 0)
    rng = np.random.default_rng(8)
    at = FactorPoint(rng.standard_normal((40, 2)))
    config = TnewtonConfig(chi1=0.999, chi2=1.0)
    direction, slope = _long_newton_direction(prob, at, config, 30.0)
    trials = _trials(at.products(prob).line(direction))
    assert len(trials) == 3
    with pytest.raises(LineSearchError) as info:
        line_search(prob, Metric.EMBEDDED, at, direction, cost(prob, at),
                    slope, config)
    err = info.value
    assert err.backtracks == len(trials) - 1
    assert err.slope0 == slope
    assert err.alpha == trials[-1] < 0.1
    assert "3 trials" in str(err)
    norm_sq = horizontal_inner(Metric.EMBEDDED, at, direction, direction)
    assert err.demanded == min(config.chi1 * slope * slope / norm_sq,
                               -config.chi2 * slope)


def test_exhausted_line_search_falls_back_to_first_armijo_trial(monkeypatch):
    # chi1 = 0.999 and chi2 = 0.15 demand a fixed decrease no trial
    # reaches, but Armijo's condition with the same chi2 holds at the last
    # two trials, 1/10 and alpha* (the direction is 25 Newton steps long).
    # Each trial's cost is f0 plus the line's quartic difference, and
    # counts only as a decrease beyond the quartic's rounding bound.
    prob = gen_poisson(40, 0)
    at = FactorPoint(np.random.default_rng(8).standard_normal((40, 2)))
    config = TnewtonConfig(chi1=0.999, chi2=0.15)
    direction, slope = _long_newton_direction(prob, at, config, 25.0)
    f0 = cost(prob, at)
    line = at.products(prob).line(direction)
    trials = _trials(line)
    assert len(trials) == 3
    result = line_search(prob, Metric.EMBEDDED, at, direction, f0, slope,
                         config)
    costs = [f0 + line.delta(alpha) for alpha in trials]
    for alpha, f in zip(trials, costs):
        fresh = cost(prob, FactorPoint(at.y + alpha * direction))
        assert abs(f - fresh) <= 1e-10 * abs(fresh)
    norm_sq = horizontal_inner(Metric.EMBEDDED, at, direction, direction)
    threshold = max(-config.chi1 * slope * slope / norm_sq,
                    config.chi2 * slope)
    assert all(f - f0 > threshold for f in costs)
    armijo = [k for k, (alpha, f) in enumerate(zip(trials, costs))
              if f - f0 <= config.chi2 * alpha * slope
              and f - f0 < -line.bound(alpha)]
    assert armijo == [1, 2]
    first = armijo[0]
    assert result.alpha == trials[first]
    np.testing.assert_array_equal(result.point.y,
                                  at.y + trials[first] * direction)
    assert result.f == costs[first]
    assert result.backtracks == first
    assert result.fallback
    # a demanded decrease within the rounding bound eps(alpha*) at the
    # line's minimizer is not a failure to be papered over: the search
    # raises, and the caller ends the rank (here alpha* is put where that
    # bound exceeds the demand)
    monkeypatch.setattr(problems.CostQuartic, "minimizer",
                        property(lambda self: 1e30))
    with pytest.raises(LineSearchError) as info:
        line_search(prob, Metric.EMBEDDED, at, direction, f0, slope, config)
    assert info.value.demanded == -threshold
    assert info.value.demanded <= info.value.resolution


def test_trace_marks_the_steps_of_the_armijo_fallback(monkeypatch):
    # chi = 0.3 demands a decrease that some steps of this solve do not
    # give; the trace lists exactly the iterations whose step the Armijo
    # fallback took, and their rows are those of the accepted steps. The
    # start is the first of default_rng(0 ... 19) whose solve takes the
    # fallback: 19 of the 120 starts of gen_poisson(40, 0 ... 5) do.
    results = []

    def spy(*args, search=tnewton.line_search):
        results.append(search(*args))
        return results[-1]

    monkeypatch.setattr(tnewton, "line_search", spy)
    y0 = np.random.default_rng(1).standard_normal((40, 2))
    config = TnewtonConfig(chi1=0.3, chi2=0.3)
    _, trace = solve_fixed_rank(gen_poisson(40, 0), Metric.EMBEDDED, y0,
                                config, "proposed")
    marked = [k for k, result in enumerate(results, 1) if result.fallback]
    assert 0 < len(marked) < len(results)
    assert trace.fallbacks == marked
    for k in marked:
        assert trace.rows[k].k == k
        assert trace.rows[k].alpha == results[k - 1].alpha


def test_accepted_steps_satisfy_decrease_conditions():
    # independent audit: every accepted (alpha, point) of a full solve must
    # satisfy at least one of the two decrease conditions, recomputed from
    # scratch
    prob = gen_poisson(200, 0)
    rng = np.random.default_rng(9)
    at = FactorPoint(rng.standard_normal((200, 2)))
    config = TnewtonConfig(grad_tol_rel=1e-8)
    metric = Metric.EMBEDDED
    audited = 0
    for k in range(25):
        grad, direction, slope = _newton_direction(metric, prob, at, config)
        gnorm = np.sqrt(horizontal_inner(metric, at, grad, grad))
        floor = 64.0 * np.finfo(float).eps * max(1.0, abs(cost(prob, at)))
        if not slope < -floor:
            break
        f0 = cost(prob, at)
        result = line_search(prob, metric, at, direction, f0, slope, config)
        norm_sq = horizontal_inner(metric, at, direction, direction)
        cond_a = result.f - f0 <= -config.chi1 * slope * slope / norm_sq
        cond_b = result.f - f0 <= config.chi2 * slope
        assert cond_a or cond_b
        audited += 1
        at = result.point
    assert audited >= 5


def test_short_steps_are_closed_form_trials(monkeypatch):
    # Regression: on benchmark instance fixed-grid2d/1 one search rejected
    # the unit step and the quartic's minimizer alpha* = 0.0378, yet the
    # search backtracked past alpha* by interpolation and took
    # alpha = 0.01, a smaller decrease. Every accepted step is now one of
    # the closed-form trials, and where the unit step is rejected and
    # alpha* meets the conditions, no less than alpha*'s decrease is taken
    # (on this instance no search takes the 1/10 trial above alpha*).
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    searches = []

    def spy(problem, metric, point, direction, f0, slope0, config,
            search=tnewton.line_search):
        result = search(problem, metric, point, direction, f0, slope0, config)
        norm_sq = horizontal_inner(metric, point, direction, direction)
        threshold = max(-config.chi1 * slope0 * slope0 / norm_sq,
                        config.chi2 * slope0)
        searches.append((point.products(problem).line(direction), threshold,
                         result))
        return result

    monkeypatch.setattr(tnewton, "line_search", spy)
    workload = workloads.WORKLOADS["fixed-grid2d"]
    workload.solve(workload.setup(1))
    short = 0
    for line, threshold, result in searches:
        star = line.minimizer
        assert result.alpha in (1.0, max(star, 0.1), star)

        def meets(alpha):
            delta = line.delta(alpha)
            return delta < -line.bound(alpha) and delta <= threshold

        if not meets(1.0):
            short += 1
            assert meets(star)
            assert line.delta(result.alpha) <= line.delta(star)
    assert short >= 3
    assert any(line.minimizer < 0.1 for line, _, _ in searches)


def test_line_search_skips_a_trial_whose_factor_loses_rank():
    # The direction is -y1 in column 0 and -1.5 y2 in column 1, so the unit
    # step meets the acceptance conditions but zeroes column 0; the search
    # skips it and takes its next trial, alpha* = 0.799.
    prob = gen_poisson(30, 0)
    y = 100.0 * np.random.default_rng(0).standard_normal((30, 2))
    at = FactorPoint(y)
    direction = np.column_stack([-y[:, 0], -1.5 * y[:, 1]])
    config = TnewtonConfig()
    grad = riemannian_gradient(Metric.EMBEDDED, prob, at)
    slope = horizontal_inner(Metric.EMBEDDED, at, grad, direction)
    line = at.products(prob).line(direction)
    norm_sq = horizontal_inner(Metric.EMBEDDED, at, direction, direction)
    threshold = max(-config.chi1 * slope * slope / norm_sq,
                    config.chi2 * slope)
    assert line.delta(1.0) < -line.bound(1.0)
    assert line.delta(1.0) <= threshold
    with pytest.raises(ValueError):
        retract(at, direction, 1.0)
    result = line_search(prob, Metric.EMBEDDED, at, direction, cost(prob, at),
                         slope, config)
    assert result.alpha == line.minimizer == pytest.approx(0.799, abs=5e-4)
    assert result.backtracks == 1
    assert not result.fallback
    assert result.point.has_full_rank


# -------------------------------------------------------- fixed-rank solve


def test_floor_after_a_search_without_a_step_counts_its_actions(monkeypatch):
    # The forced exit of test_stagnated_line_search_ends_rank_instead_of_
    # failing: with the quartic's rounding bound taken as infinite, no
    # trial's decrease is certified and the first search demands less than
    # the bound, so the solve ends on "floor" at k = 1 and adds no row. The
    # Hessian actions of that iteration's inner solve still count in nH.
    monkeypatch.setattr(problems.CostQuartic, "bound",
                        lambda self, alpha: math.inf)
    calls = count_hessian_actions(monkeypatch)
    y0 = np.random.default_rng(0).standard_normal((60, 1))
    _, trace = solve_fixed_rank(gen_poisson(60, 0), Metric.EMBEDDED, y0)
    assert trace.stops == ["floor"]
    assert len(trace.rows) == 1
    assert trace.final().nH == len(calls) > 0


def test_direction_that_is_not_descent_ends_on_floor(monkeypatch):
    # Only rounding gives tPCG an ascent direction; a stub that reverses
    # the inner solve's direction at k = 3 ends the solve there, and that
    # solve's Hessian actions still count in nH.
    solves = []

    def reversing(*args, solve=tnewton.tpcg, **kwargs):
        state = solve(*args, **kwargs)
        solves.append(state)
        if len(solves) < 3:
            return state
        return dataclasses.replace(state, direction=-state.direction)

    monkeypatch.setattr(tnewton, "tpcg", reversing)
    calls = count_hessian_actions(monkeypatch)
    y0 = np.random.default_rng(1).standard_normal((60, 2))
    _, trace = solve_fixed_rank(gen_poisson(60, 0), Metric.EMBEDDED, y0)
    assert trace.stops == ["floor"]
    assert len(solves) == 3
    assert trace.final().k == 2
    assert trace.final().nH == len(calls) == sum(
        state.hessian_actions for state in solves)


def test_solve_stationary_start_takes_no_steps():
    rng = np.random.default_rng(10)
    ystar = rng.standard_normal((25, 2))
    prob = identity_problem(25, ystar)
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, ystar)
    assert len(trace.rows) == 1
    assert trace.stops == ["floor"]
    assert trace.scales == [1.0]
    np.testing.assert_array_equal(point.y, ystar)


@pytest.mark.parametrize("choice", ["none", "proposed"])
@pytest.mark.parametrize("metric", ALL_METRICS)
def test_start_scale_makes_the_first_iterate_scale_free(metric, choice):
    # Row 0 is the factor as given; the iteration starts from its
    # cost-optimal scale t*, which is the same point for Y0, 1e3 Y0 and
    # 1e-3 Y0, so the first iterate is too. (grad_tol_rel = 0: under the
    # EUCLIDEAN metric the gradient norm at 1e3 Y0 is so large that t* Y0
    # already meets the default tolerance relative to it.)
    prob = gen_poisson(150, 1)
    y0 = np.random.default_rng(11).standard_normal((150, 3))
    by = prob.b.T @ y0
    quartic = np.trace(y0.T @ (prob.a.mat @ y0) @ y0.T @ (prob.m.mat @ y0))
    scale = np.sqrt(np.sum(by * by) / (2.0 * quartic))
    firsts = []
    for size in (1.0, 1e3, 1e-3):
        point, trace = solve_fixed_rank(
            prob, metric, size * y0,
            TnewtonConfig(grad_tol_rel=0.0, max_outer=1), choice)
        assert trace.rows[0].f == cost(prob, FactorPoint(size * y0))
        assert trace.scales == [pytest.approx(scale / size, rel=1e-12)]
        assert trace.rows[1].f < cost(prob, FactorPoint(scale * y0))
        # f0 + Delta from f(t* Y0), not from the far larger f(Y0)
        assert trace.rows[1].f == pytest.approx(cost(prob, point), rel=1e-12)
        firsts.append(point.y)
    for y in firsts[1:]:
        assert np.linalg.norm(y - firsts[0]) <= \
            1e-10 * np.linalg.norm(firsts[0])


def test_scaled_start_returned_without_a_step_has_its_own_row():
    # 1e3 Y0 has a gradient so large that t* Y0 already meets the default
    # grad_tol_rel under the EUCLIDEAN metric: the solve takes no step and
    # returns t* Y0, recorded as row 1, so the last row describes the
    # returned factor.
    prob = gen_poisson(150, 1)
    y0 = 1e3 * np.random.default_rng(11).standard_normal((150, 3))
    point, trace = solve_fixed_rank(prob, Metric.EUCLIDEAN, y0)
    assert trace.stops == ["gradient"]
    assert len(trace.rows) == 2
    row = trace.final()
    assert (row.k, row.alpha, row.inner_iters, row.nH) == (1, 0.0, 0, 0)
    np.testing.assert_array_equal(point.y, trace.scales[0] * y0)
    assert row.relres == relative_residual(prob, point)
    assert row.f < trace.rows[0].f
    assert row.f == pytest.approx(cost(prob, point), rel=1e-12)


def test_target_ends_the_solve_at_the_first_iterate_that_meets_it():
    # Without a target this solve passes relres 0.0272 at k = 8 and ends
    # at 0.0495; given the target 0.03 it ends at k = 8, on the same rows.
    # (It was 0.0283 at k = 7 while the line search backtracked by
    # interpolation: at k = 5 that took alpha = 0.0178, where the
    # closed-form trials take alpha* = 0.0422.)
    prob = gen_poisson(100, 0)
    y0 = np.random.default_rng(3).standard_normal((100, 4))
    _, full = solve_fixed_rank(prob, Metric.EMBEDDED, y0, TnewtonConfig(),
                               "proposed")
    assert full.final().relres > 0.03
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, y0,
                                    TnewtonConfig(), "proposed", 0.03)
    assert trace.stops == ["target"]
    relres = trace.column("relres")
    assert relres[-1] <= 0.03 < min(relres[:-1])
    assert trace.final().k == 8
    for name in ("k", "f", "gradnorm", "relres", "nH", "alpha"):
        assert trace.column(name) == full.column(name)[:9]
    assert relative_residual(prob, point) == relres[-1]


@pytest.mark.parametrize("metric,seed", [
    (Metric.EMBEDDED, 3),
    (Metric.GRAM, 1),
    (Metric.EUCLIDEAN, 9),
])
def test_solve_exact_solution_instance_converges(metric, seed):
    # A = M = I with C = 2 Y* Y*^T: the solver must recover the exact
    # rank-p solution to a tight relative residual
    rng = np.random.default_rng(seed)
    ystar = rng.standard_normal((60, 3)) / np.sqrt(60)
    prob = identity_problem(60, ystar)
    y0 = rng.standard_normal((60, 3))
    point, trace = solve_fixed_rank(prob, metric, y0,
                                    TnewtonConfig(grad_tol_rel=1e-13))
    assert relative_residual(prob, point) <= 1e-10


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_solve_exact_solution_family_converges(metric):
    # The family of test_solve_exact_solution_instance_converges on every
    # seed: no cost difference the line search can certify is lost to the
    # rounding of the cost itself.
    for seed in range(30):
        rng = np.random.default_rng(seed)
        ystar = rng.standard_normal((60, 3)) / np.sqrt(60)
        prob = identity_problem(60, ystar)
        y0 = rng.standard_normal((60, 3))
        point, trace = solve_fixed_rank(prob, metric, y0,
                                        TnewtonConfig(grad_tol_rel=1e-13))
        assert relative_residual(prob, point) <= 1e-10


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_solve_exact_solution_generic_seeds(metric):
    # the attainable floor is set by the predicted-decrease cutoff of the
    # outer loop; generically that lands well below 1e-6
    for seed in range(6):
        rng = np.random.default_rng(seed)
        ystar = rng.standard_normal((60, 3)) / np.sqrt(60)
        prob = identity_problem(60, ystar)
        y0 = rng.standard_normal((60, 3))
        point, trace = solve_fixed_rank(prob, metric, y0,
                                        TnewtonConfig(grad_tol_rel=1e-13))
        assert relative_residual(prob, point) <= 1e-6


def test_solve_monotone_decrease_and_gradient_reduction():
    prob = gen_poisson(150, 1)
    rng = np.random.default_rng(11)
    y0 = rng.standard_normal((150, 3))
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, y0,
                                    TnewtonConfig(grad_tol_rel=1e-10),
                                    "proposed")
    f = trace.column("f")
    assert all(f[i + 1] < f[i] for i in range(len(f) - 1))
    g = trace.column("gradnorm")
    assert g[-1] <= 1e-10 * g[0]
    assert trace.stops == ["gradient"]


def test_solve_respects_max_outer():
    prob = gen_poisson(100, 2)
    rng = np.random.default_rng(12)
    y0 = rng.standard_normal((100, 2))
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, y0,
                                    TnewtonConfig(max_outer=3))
    assert trace.final().k <= 3
    assert len(trace.rows) <= 4
    assert trace.stops == ["max_outer"]


def test_solve_deterministic():
    prob = gen_poisson(80, 3)
    y0 = np.random.default_rng(13).standard_normal((80, 2))
    r1 = solve_fixed_rank(prob, Metric.EMBEDDED, y0, TnewtonConfig(),
                          "proposed")[1]
    r2 = solve_fixed_rank(prob, Metric.EMBEDDED, y0, TnewtonConfig(),
                          "proposed")[1]
    for name in ("k", "f", "gradnorm", "relres", "inner_iters", "nH",
                 "alpha"):
        assert r1.column(name) == r2.column(name)


# tools/trace_audit.py's digest of the trace and final factor of the solve
# in test_solve_reproduces_trace_before_stall_rule, recorded with BLAS on
# one thread. Both were recorded again when the solve came to start at the
# cost-optimal scale of its factor and to take line-search differences
# from the exact quartic, which changes the trajectory by design: "none"
# went from 20 rows and nH 283 to 13 rows and nH 194, "proposed" from 18
# rows and nH 29 to 10 rows and nH 17, both still ending on "gradient".
# Both changed again, at rounding level, when the scaled start came to take
# t* A Y and t* M Y from the given factor's products and "proposed" to
# build its preconditioner from forward sweeps and a closed-form K_i; the
# rows, nH and stops stayed as they were. "none" was recorded again when
# the line search came to take only closed-form trials: its first search
# rejected the unit step and alpha* = 4.29e-5, and the old interpolation
# had backtracked past alpha* to 1e-5; "none" went from 13 rows and nH 194
# to 12 rows and nH 226, still ending on "gradient" (digest before:
# 8616cd7dd5a6731a0a486eb1a1fc5b51c5f35cedf0af429e078ae4e9f1d889bc).
TRACE_SHA256 = {
    "proposed": "8f18f8b1c2f518a9735cb6c1609e5d0d"
                "2c062902210f782a8ed97c62204ad2a4",
    "none": "5d545d0590a70da3965fa9b9bc8dac5b"
            "c0b57a2ee17b0990669e52171e6d5149",
}


@pytest.mark.parametrize("choice", sorted(TRACE_SHA256))
def test_solve_reproduces_trace_before_stall_rule(choice):
    # Without a residual target the stall rule is off, and a fixed-rank
    # solve takes exactly the steps it took before the rule was added.
    prob = gen_poisson(80, 3)
    y0 = np.random.default_rng(13).standard_normal((80, 2))
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, y0,
                                    TnewtonConfig(), choice)
    digest = trace_audit.trace_digest(trace, point.y)
    assert digest == TRACE_SHA256[choice]
    assert trace.stops == ["gradient"]


def test_solve_rejects_rank_deficient_start():
    prob = gen_poisson(10, 0)
    with pytest.raises(ValueError, match="full column rank"):
        solve_fixed_rank(prob, Metric.EMBEDDED, np.zeros((10, 2)))


def test_solve_line_search_failure_carries_trace():
    prob = gen_poisson(40, 0)
    y0 = np.random.default_rng(14).standard_normal((40, 2))
    config = TnewtonConfig(chi1=0.999, chi2=1.0)
    with pytest.raises(LineSearchError) as info:
        solve_fixed_rank(prob, Metric.EMBEDDED, y0, config)
    assert len(info.value.trace.rows) >= 1
    assert info.value.trace.rows[0].k == 0


def test_trace_csv_round_trip(tmp_path):
    prob = gen_poisson(60, 4)
    y0 = np.random.default_rng(15).standard_normal((60, 2))
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, y0,
                                    TnewtonConfig(max_outer=5))
    text = trace.to_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "k,p,f,gradnorm,relres,inner_iters,nH,alpha,ms"
    assert len(lines) == len(trace.rows) + 1
    # %.17g preserves doubles exactly
    row = lines[1].split(",")
    assert float(row[2]) == trace.rows[0].f
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_text() == text


def test_trace_column_accessor():
    trace = SolveTrace()
    assert trace.column("f") == []
