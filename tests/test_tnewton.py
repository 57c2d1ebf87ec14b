"""Truncated Newton outer loop, inner tPCG, and the line search."""

import dataclasses
import importlib.util
import math
import pathlib

import numpy as np
import pytest

from helpers import (
    at_start_scale,
    count_hessian_actions,
    identity_problem,
    legacy_tpcg,
    random_problem,
    stop_reasons,
    trace_audit,
)
from lyapfactor import (
    FactorPoint,
    IrrConfig,
    LyapunovProblem,
    Metric,
    SolverError,
    SolveTrace,
    TnewtonConfig,
    TraceRow,
    cost,
    gen_poisson,
    horizontal_inner,
    relative_residual,
    retract,
    riemannian_gradient,
    solve_fixed_rank,
    solve_increasing_rank,
    tpcg,
)
from lyapfactor import precond, problems, tnewton
from lyapfactor.increasing_rank import warm_start
from lyapfactor.manifold import hessian_action
from lyapfactor.tnewton import (
    EPS_CURV,
    FORCING_BETA,
    InnerSolveError,
    LineSearchError,
    SolveRecord,
    line_search,
)

ALL_METRICS = (Metric.EMBEDDED, Metric.GRAM, Metric.EUCLIDEAN)

WORKLOADS = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
             / "workloads.py")


def _workload(name):
    """The benchmark workload `name`, from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS[name]


# ---------------------------------------------------------------- config


@pytest.mark.parametrize("name, value", [
    ("grad_tol_rel", math.nan), ("grad_tol_rel", -1e-12),
    ("grad_tol_rel", math.inf),
    ("max_outer", 2.5), ("max_outer", -1),
])
def test_config_rejects_bad_values(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        TnewtonConfig(**{name: value})


def test_config_keeps_the_edge_values_in_use():
    TnewtonConfig(grad_tol_rel=0.0, max_outer=0)
    assert TnewtonConfig(max_outer=np.int64(3)).max_outer == 3


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


def test_tpcg_checks_the_first_preconditioned_residual():
    # <r, P r> = 0 before the first step: a breakdown with the zero
    # direction and no Hessian action, not a division by zero; a
    # non-finite <r, P r> is an inner-solve error at iteration 0.
    g = np.zeros((4, 2))
    g[0, 0] = 1.0
    e = np.zeros((4, 2))
    e[1, 1] = 1.0
    state = tpcg(g, lambda x: x, lambda r: e, 1e-10, 0.1)
    assert (state.stop, state.hessian_actions) == ("breakdown", 0)
    np.testing.assert_array_equal(state.direction, np.zeros((4, 2)))
    with pytest.raises(InnerSolveError) as info:
        tpcg(g, lambda x: x, lambda r: np.nan * e, 1e-10, 0.1)
    assert info.value.iteration == 0


def test_tpcg_rejects_a_step_limit_below_1():
    with pytest.raises(ValueError, match="^max_inner must be at least 1$"):
        tpcg(np.ones((3, 1)), lambda v: v, lambda v: v, 1e-12, 1e-6,
             max_inner=0)


def test_tpcg_nonfinite_residual_product_after_a_step_raises():
    # The preconditioner returns NaN from its second call, the first after
    # a step, so <r, P r> turns non-finite at iteration 0.
    calls = []

    def precond(v):
        calls.append(None)
        return v if len(calls) == 1 else np.full_like(v, np.nan)

    hmat = np.diag([2.0, 3.0])
    with pytest.raises(InnerSolveError, match="^non-finite value in the "
                       "inner solve at iteration 0$") as info:
        tpcg(np.array([[1.0], [2.0]]), lambda v: hmat @ v, precond, 1e-12,
             1e-6)
    assert info.value.iteration == 0
    assert len(calls) == 2


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


def _newton_direction(metric, problem, at):
    grad = riemannian_gradient(metric, problem, at)
    gnorm = np.sqrt(horizontal_inner(metric, at, grad, grad))

    def hess(v):
        return hessian_action(metric, problem, at, v)

    def inner(x, e):
        return horizontal_inner(metric, at, x, e)

    state = tpcg(grad, hess, lambda v: v, EPS_CURV, min(FORCING_BETA, gnorm),
                 inner=inner)
    slope = horizontal_inner(metric, at, grad, state.direction)
    return grad, state.direction, slope


def test_line_search_accepts_unit_step_near_solution():
    rng = np.random.default_rng(6)
    ystar = rng.standard_normal((30, 2)) / np.sqrt(30)
    prob = identity_problem(30, ystar)
    at = FactorPoint(ystar + 1e-3 * rng.standard_normal((30, 2)))
    grad, direction, slope = _newton_direction(Metric.EMBEDDED, prob, at)
    result = line_search(prob, Metric.EMBEDDED, at, direction, cost(prob, at),
                         slope)
    assert result.alpha == 1.0
    assert result.backtracks == 0
    assert not result.fallback


def _count_minimizer(monkeypatch):
    """A list that grows by one per evaluation of CostQuartic.minimizer
    (the quartic's alpha*, a cubic's roots) from here on."""
    found = []

    def minimizer(self, solve=problems.CostQuartic.minimizer.func):
        found.append(None)
        return solve(self)

    monkeypatch.setattr(problems.CostQuartic, "minimizer",
                        property(minimizer))
    return found


def _eager_search(problem, metric, point, direction, slope0):
    """The trials, the accepted trial's index and its fallback flag of a
    search that finds alpha* before it tries any trial, or None when it
    takes none."""
    norm_sq = horizontal_inner(metric, point, direction, direction)
    threshold = max(-tnewton.CHI1 * slope0 * slope0 / norm_sq,
                    tnewton.CHI2 * slope0)
    line = point.products(problem).line(direction)
    trials = _trials(line)
    star = line.minimizer
    resolution = line.bound(1.0 if star is None else star)

    def meets(alpha, demanded):
        delta = line.delta(alpha)
        return delta < -line.bound(alpha) and delta <= demanded

    order = [(i, False) for i, alpha in enumerate(trials)
             if meets(alpha, threshold)]
    if -threshold > resolution:
        order += [(i, True) for i, alpha in enumerate(trials)
                  if meets(alpha, tnewton.CHI2 * alpha * slope0)]
    for index, fallback in order:
        if FactorPoint(point.y + trials[index] * direction).has_full_rank:
            return trials, index, fallback
    return None


def test_accepted_unit_step_solves_for_no_minimizer(monkeypatch):
    # The unit step is tried before alpha*; where it is taken, alpha* is
    # never found, and the step is the one the eager search takes.
    rng = np.random.default_rng(6)
    ystar = rng.standard_normal((30, 2)) / np.sqrt(30)
    prob = identity_problem(30, ystar)
    at = FactorPoint(ystar + 1e-3 * rng.standard_normal((30, 2)))
    _, direction, slope = _newton_direction(Metric.EMBEDDED, prob, at)
    found = _count_minimizer(monkeypatch)
    result = line_search(prob, Metric.EMBEDDED, at, direction, cost(prob, at),
                         slope)
    assert found == []
    assert (result.alpha, result.backtracks, result.fallback) == (1.0, 0,
                                                                  False)
    np.testing.assert_array_equal(result.point.y, at.y + direction)
    assert _eager_search(prob, Metric.EMBEDDED, at, direction,
                         slope)[1:] == (0, False)


class _ShortStep(Exception):
    """Ends a solve at its first search that rejects the unit step."""


def test_rejected_unit_step_finds_the_minimizer_once(monkeypatch):
    # Benchmark instance fixed-grid2d/0 opens with three steepest-descent
    # probe steps, then stops tPCG on curvature, and the search of that
    # stop at k = 5 rejects the unit step. There the search finds alpha*
    # once, and takes the trial the eager search takes.
    searches = []

    def spy(*args, search=tnewton.line_search):
        result = search(*args)
        if result.alpha < 1.0:
            searches.append((args, result))
            raise _ShortStep
        return result

    monkeypatch.setattr(tnewton, "line_search", spy)
    workload = _workload("fixed-grid2d")
    with pytest.raises(_ShortStep):
        workload.solve(workload.setup(0))
    monkeypatch.undo()
    (problem, metric, point, direction, f0, slope0), first = searches[0]
    found = _count_minimizer(monkeypatch)
    result = line_search(problem, metric, point, direction, f0, slope0)
    assert len(found) == 1
    trials, index, fallback = _eager_search(problem, metric, point,
                                            direction, slope0)
    assert index > 0
    assert result.alpha == trials[index] == first.alpha
    assert (result.backtracks, result.fallback) == (index, fallback)
    assert result.f == f0 + point.products(problem).line(direction).delta(
        result.alpha)
    np.testing.assert_array_equal(result.point.y,
                                  point.y + result.alpha * direction)


def test_line_search_requires_descent_direction():
    rng = np.random.default_rng(7)
    prob = random_problem(10, 1, rng)
    at = FactorPoint(rng.standard_normal((10, 2)))
    grad = riemannian_gradient(Metric.EMBEDDED, prob, at)
    slope = horizontal_inner(Metric.EMBEDDED, at, grad, grad)
    with pytest.raises(ValueError, match="descent"):
        line_search(prob, Metric.EMBEDDED, at, grad, cost(prob, at), slope)


def _trials(line):
    """The line search's closed-form trial steps on `line`."""
    star = line.minimizer
    if star is None or star >= 1.0:
        return [1.0]
    return [1.0, max(star, 0.1)] + ([star] if star < 0.1 else [])


def _long_newton_direction(prob, at, scale):
    """The Newton direction times `scale`, whose line's minimizer alpha*
    is 1/scale of the Newton direction's."""
    grad, direction, slope = _newton_direction(Metric.EMBEDDED, prob, at)
    return scale * direction, scale * slope


def test_line_search_exhaustion_reports_diagnostics(monkeypatch):
    # CHI1 ~ 1 demands nearly the whole first-order decrease at every alpha,
    # which a quartic-in-alpha cost cannot deliver far from the solution;
    # CHI2 = 1 asks the Armijo fallback for all of it, which a cost curving
    # up along the direction never gives at any alpha. The direction is 30
    # Newton steps long, so that alpha* < 1/10 and all three trials run.
    prob = gen_poisson(40, 0)
    rng = np.random.default_rng(8)
    at = FactorPoint(rng.standard_normal((40, 2)))
    monkeypatch.setattr(tnewton, "CHI1", 0.999)
    monkeypatch.setattr(tnewton, "CHI2", 1.0)
    direction, slope = _long_newton_direction(prob, at, 30.0)
    trials = _trials(at.products(prob).line(direction))
    assert len(trials) == 3
    with pytest.raises(LineSearchError) as info:
        line_search(prob, Metric.EMBEDDED, at, direction, cost(prob, at),
                    slope)
    err = info.value
    assert err.backtracks == len(trials) - 1
    assert err.slope0 == slope
    assert err.alpha == trials[-1] < 0.1
    assert "3 trials" in str(err)
    norm_sq = horizontal_inner(Metric.EMBEDDED, at, direction, direction)
    assert err.demanded == min(tnewton.CHI1 * slope * slope / norm_sq,
                               -tnewton.CHI2 * slope)


def test_exhausted_line_search_falls_back_to_first_armijo_trial(monkeypatch):
    # CHI1 = 0.999 and CHI2 = 0.15 demand a fixed decrease no trial
    # reaches, but Armijo's condition with the same CHI2 holds at the last
    # two trials, 1/10 and alpha* (the direction is 25 Newton steps long).
    # Each trial's cost is f0 plus the line's quartic difference, and
    # counts only as a decrease beyond the quartic's rounding bound.
    prob = gen_poisson(40, 0)
    at = FactorPoint(np.random.default_rng(8).standard_normal((40, 2)))
    monkeypatch.setattr(tnewton, "CHI1", 0.999)
    monkeypatch.setattr(tnewton, "CHI2", 0.15)
    direction, slope = _long_newton_direction(prob, at, 25.0)
    f0 = cost(prob, at)
    line = at.products(prob).line(direction)
    trials = _trials(line)
    assert len(trials) == 3
    result = line_search(prob, Metric.EMBEDDED, at, direction, f0, slope)
    costs = [f0 + line.delta(alpha) for alpha in trials]
    for alpha, f in zip(trials, costs):
        fresh = cost(prob, FactorPoint(at.y + alpha * direction))
        assert abs(f - fresh) <= 1e-10 * abs(fresh)
    norm_sq = horizontal_inner(Metric.EMBEDDED, at, direction, direction)
    threshold = max(-tnewton.CHI1 * slope * slope / norm_sq,
                    tnewton.CHI2 * slope)
    assert all(f - f0 > threshold for f in costs)
    armijo = [k for k, (alpha, f) in enumerate(zip(trials, costs))
              if f - f0 <= tnewton.CHI2 * alpha * slope
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
        line_search(prob, Metric.EMBEDDED, at, direction, f0, slope)
    assert info.value.demanded == -threshold
    assert info.value.demanded <= info.value.resolution


def test_trace_marks_the_steps_of_the_armijo_fallback(monkeypatch):
    # CHI1 = CHI2 = 0.3 demand a decrease that some steps of this solve do not
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
    monkeypatch.setattr(tnewton, "CHI1", 0.3)
    monkeypatch.setattr(tnewton, "CHI2", 0.3)
    _, trace = solve_fixed_rank(gen_poisson(40, 0), Metric.EMBEDDED, y0,
                                None, "proposed")
    marked = [k for k, result in enumerate(results, 1) if result.fallback]
    assert 0 < len(marked) < len(results)
    assert [solve.fallbacks for solve in trace.solves] == [marked]
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
    metric = Metric.EMBEDDED
    audited = 0
    for k in range(25):
        grad, direction, slope = _newton_direction(metric, prob, at)
        gnorm = np.sqrt(horizontal_inner(metric, at, grad, grad))
        floor = 64.0 * np.finfo(float).eps * max(1.0, abs(cost(prob, at)))
        if not slope < -floor:
            break
        f0 = cost(prob, at)
        result = line_search(prob, metric, at, direction, f0, slope)
        norm_sq = horizontal_inner(metric, at, direction, direction)
        cond_a = result.f - f0 <= -tnewton.CHI1 * slope * slope / norm_sq
        cond_b = result.f - f0 <= tnewton.CHI2 * slope
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
    # (on this instance no search takes the 1/10 trial above alpha*). The
    # solve shares a shift bank among its builds, and with it instance 1
    # no longer meets alpha* < 1/10 and instance 2 takes the 1/10 trial
    # above its alpha* = 0.087, so the test runs on instance 3, the first
    # that keeps every assertion. The instance is solved from its warm
    # start, the random factor at its cost-optimal scale: from the random
    # factor itself the first steps are steepest-descent probe steps,
    # scaled so that the unit trial is alpha*, and only one search rejects
    # the unit step.
    searches = []

    def spy(problem, metric, point, direction, f0, slope0,
            search=tnewton.line_search):
        result = search(problem, metric, point, direction, f0, slope0)
        norm_sq = horizontal_inner(metric, point, direction, direction)
        threshold = max(-tnewton.CHI1 * slope0 * slope0 / norm_sq,
                        tnewton.CHI2 * slope0)
        searches.append((point.products(problem).line(direction), threshold,
                         result))
        return result

    monkeypatch.setattr(tnewton, "line_search", spy)
    workload = _workload("fixed-grid2d")
    instance = workload.setup(3)
    instance.y0 = at_start_scale(instance.problem, instance.y0)
    _, trace = workload.solve(instance)
    assert trace.solves[0].steepest == []
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
    grad = riemannian_gradient(Metric.EMBEDDED, prob, at)
    slope = horizontal_inner(Metric.EMBEDDED, at, grad, direction)
    line = at.products(prob).line(direction)
    norm_sq = horizontal_inner(Metric.EMBEDDED, at, direction, direction)
    threshold = max(-tnewton.CHI1 * slope * slope / norm_sq,
                    tnewton.CHI2 * slope)
    assert line.delta(1.0) < -line.bound(1.0)
    assert line.delta(1.0) <= threshold
    with pytest.raises(ValueError):
        retract(at, direction, 1.0)
    result = line_search(prob, Metric.EMBEDDED, at, direction, cost(prob, at),
                         slope)
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
    assert stop_reasons(trace) == ["floor"]
    assert len(trace.rows) == 1
    assert trace.final().nH == len(calls) > 0


def test_rounding_floor_ends_the_solve_before_another_build():
    # With no gradient tolerance this solve runs into the rounding floor
    # of N Y after 14 steps, the first a probe. The floor test before each
    # build ends it there, so every Hessian action and build belongs to a
    # step with a row: nH is the sum of inner_iters and each non-probe
    # step made one build. Without that test the solve goes on to build
    # and run tPCG once more before its line search finds no step.
    y0 = np.random.default_rng(1).standard_normal((200, 3))
    _, trace = solve_fixed_rank(gen_poisson(200, 0), Metric.EMBEDDED, y0,
                                TnewtonConfig(grad_tol_rel=0.0), "proposed")
    record = trace.solves[0]
    assert stop_reasons(trace) == ["floor"]
    assert trace.final().nH == sum(row.inner_iters for row in trace.rows)
    steps = sum(row.k > 0 for row in trace.rows)
    assert record.builds == steps - len(record.steepest) > 0


def _criterion_07(precond):
    y0 = np.random.default_rng(1).standard_normal((2000, 3))
    return solve_fixed_rank(gen_poisson(2000, 0), Metric.EMBEDDED,
                            FactorPoint(y0), TnewtonConfig(), precond)[1]


def _criterion_09(seed):
    y0 = np.random.default_rng(seed).standard_normal((500, 3))
    return solve_fixed_rank(gen_poisson(500, 0), Metric.EMBEDDED,
                            FactorPoint(y0), TnewtonConfig(), "proposed")[1]


def _increasing_rank(n, p_max):
    return solve_increasing_rank(
        gen_poisson(n, 0), Metric.EMBEDDED,
        IrrConfig(p_min=1, p_max=p_max, tau=1e-6, seed=0), None,
        "proposed")[1]


@pytest.mark.parametrize("scenario", [
    lambda: _criterion_07("none"),
    lambda: _criterion_07("proposed"),
    lambda: _criterion_09(0),
    lambda: _criterion_09(1),
    lambda: _criterion_09(2),
    lambda: _increasing_rank(500, 40),
    lambda: _increasing_rank(800, 30),
], ids=["criterion-07-none", "criterion-07-proposed", "criterion-09-seed-0",
        "criterion-09-seed-1", "criterion-09-seed-2", "criterion-10",
        "criterion-11"])
def test_acceptance_solves_report_every_hessian_action(monkeypatch, scenario):
    # The solves of tests/test_acceptance.py with their inputs (criterion
    # 11 without its dense oracle): the trace's nH counts every call of
    # hessian_action the solve made.
    calls = count_hessian_actions(monkeypatch)
    trace = scenario()
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
    assert stop_reasons(trace) == ["floor"]
    assert len(solves) == 3
    assert trace.final().k == 2
    assert trace.final().nH == len(calls) == sum(
        state.hessian_actions for state in solves)


def test_breakdown_before_the_first_step_ends_on_floor(monkeypatch):
    # A preconditioner orthogonal to the residual gives tPCG the zero
    # direction, which is not descent, so the rank ends on "floor" with
    # no Hessian action.
    monkeypatch.setattr(tnewton, "preconditioner",
                        lambda *args: np.zeros_like)
    calls = count_hessian_actions(monkeypatch)
    y0 = np.random.default_rng(1).standard_normal((60, 2))
    _, trace = solve_fixed_rank(gen_poisson(60, 0), Metric.EMBEDDED, y0)
    assert stop_reasons(trace) == ["floor"]
    assert trace.final().nH == len(calls) == 0


def test_solve_stationary_start_takes_no_steps():
    rng = np.random.default_rng(10)
    ystar = rng.standard_normal((25, 2))
    prob = identity_problem(25, ystar)
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, ystar)
    assert len(trace.rows) == 1
    assert stop_reasons(trace) == ["floor"]
    assert [solve.scale for solve in trace.solves] == [1.0]
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
        assert [solve.scale for solve in trace.solves] == [
            pytest.approx(scale / size, rel=1e-12)]
        assert trace.rows[1].f < cost(prob, FactorPoint(scale * y0))
        # f0 + Delta from f(t* Y0), not from the far larger f(Y0)
        assert trace.rows[1].f == pytest.approx(cost(prob, point), rel=1e-12)
        firsts.append(point.y)
    for y in firsts[1:]:
        assert np.linalg.norm(y - firsts[0]) <= \
            1e-10 * np.linalg.norm(firsts[0])


@pytest.mark.parametrize("choice", ["none", "proposed"])
def test_start_with_b_orthogonal_to_the_factor_is_not_scaled(choice):
    # B^T Y0 = 0: the cost t^4 tr(Y0^T A Y0 Y0^T M Y0) along t Y0 has no
    # minimizer t* > 0, so the solve keeps Y0 as given (scale 1.0, and no
    # cold start) and iterates from it to the gradient tolerance.
    poisson = gen_poisson(60, 0)
    prob = LyapunovProblem(poisson.a, poisson.m, np.eye(60, 1))
    y0 = np.random.default_rng(1).standard_normal((60, 2))
    y0[0] = 0.0
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, y0,
                                    TnewtonConfig(), choice)
    assert [solve.scale for solve in trace.solves] == [1.0]
    assert trace.solves[0].steepest == []
    assert trace.rows[0].f == cost(prob, FactorPoint(y0)) > 0.0
    assert stop_reasons(trace) == ["gradient"]
    assert len(trace.rows) == 23
    assert trace.rows[0].relres == pytest.approx(7.745e5, rel=1e-3)
    assert trace.final().relres == pytest.approx(0.0142, rel=1e-3)
    assert relative_residual(prob, point) == trace.final().relres


def test_scaled_start_returned_without_a_step_has_its_own_row():
    # 1e3 Y0 has a gradient so large that t* Y0 already meets the default
    # grad_tol_rel under the EUCLIDEAN metric: the solve takes no step and
    # returns t* Y0, recorded as row 1, so the last row describes the
    # returned factor.
    prob = gen_poisson(150, 1)
    y0 = 1e3 * np.random.default_rng(11).standard_normal((150, 3))
    point, trace = solve_fixed_rank(prob, Metric.EUCLIDEAN, y0)
    assert stop_reasons(trace) == ["gradient"]
    assert len(trace.rows) == 2
    row = trace.final()
    assert (row.k, row.alpha, row.inner_iters, row.nH) == (1, 0.0, 0, 0)
    np.testing.assert_array_equal(point.y, trace.solves[0].scale * y0)
    assert row.relres == relative_residual(prob, point)
    assert row.f < trace.rows[0].f
    assert row.f == pytest.approx(cost(prob, point), rel=1e-12)


def test_target_ends_the_solve_at_the_first_iterate_that_meets_it():
    # Without a target this solve passes relres 0.0272 at k = 8 and ends
    # at 0.0495; given the target 0.03 it ends at k = 8, on the same rows.
    # (It was 0.0283 at k = 7 while the line search backtracked by
    # interpolation: at k = 5 that took alpha = 0.0178, where the
    # closed-form trials take alpha* = 0.0422.) The factor is given at its
    # cost-optimal scale, a warm start: from the random factor itself the
    # first step is a steepest-descent probe step, and that solve does not
    # pass 0.03.
    prob = gen_poisson(100, 0)
    y0 = np.random.default_rng(3).standard_normal((100, 4))
    y0 = at_start_scale(prob, y0)
    _, full = solve_fixed_rank(prob, Metric.EMBEDDED, y0, TnewtonConfig(),
                               "proposed")
    assert full.solves[0].steepest == []
    assert full.final().relres > 0.03
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, y0,
                                    TnewtonConfig(), "proposed", 0.03)
    assert stop_reasons(trace) == ["target"]
    relres = trace.column("relres")
    assert relres[-1] <= 0.03 < min(relres[:-1])
    assert trace.final().k == 8
    for name in ("k", "f", "gradnorm", "relres", "nH", "alpha"):
        assert trace.column(name) == full.column(name)[:9]
    assert relative_residual(prob, point) == relres[-1]


def test_target_met_by_the_factor_as_given_ends_at_row_0(monkeypatch):
    # From the end point of a solve, a target at its relres is met at
    # row 0: the solve returns that factor, unscaled, with no iteration.
    prob = gen_poisson(100, 0)
    y0 = np.random.default_rng(3).standard_normal((100, 4))
    start, full = solve_fixed_rank(prob, Metric.EMBEDDED, y0, TnewtonConfig(),
                                   "proposed")
    calls = count_hessian_actions(monkeypatch)
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, start,
                                    TnewtonConfig(), "proposed",
                                    full.final().relres)
    assert point is start
    assert (stop_reasons(trace), [solve.scale for solve in trace.solves],
            len(trace.rows)) == (["target"], [1.0], 1)
    assert trace.final().relres == full.final().relres
    assert trace.final().nH == len(calls) == 0


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
    assert stop_reasons(trace) == ["gradient"]


def test_solve_respects_max_outer():
    prob = gen_poisson(100, 2)
    rng = np.random.default_rng(12)
    y0 = rng.standard_normal((100, 2))
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, y0,
                                    TnewtonConfig(max_outer=3))
    assert trace.final().k <= 3
    assert len(trace.rows) <= 4
    assert stop_reasons(trace) == ["max_outer"]


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
# "proposed" was recorded again when a cold start came to probe the
# steepest-descent direction before its first build: its first step is
# now the probe step along -grad, and it went from 10 rows, nH 17 and 9
# builds to 11 rows, nH 22 and 9 builds, still ending on "gradient"
# (digest before:
# 8f18f8b1c2f518a9735cb6c1609e5d0d2c062902210f782a8ed97c62204ad2a4).
# "none" makes no probe and kept its digest. Both were recorded again, at
# rounding level, when each point came to form G^{-1} and its small
# products once and to apply them as plain products (the metric lifts, the
# projections and the Hessian actions): "proposed" kept its 11 rows, nH 22
# and 9 builds, "none" its 12 rows and nH 226, both ending on "gradient"
# (digests before, "proposed" and "none":
# 8b6ec78be25c1ca8271cafd6f1ec84e2ff3d0e6c474e1c2af16c2ec75feebd91,
# 5d545d0590a70da3965fa9b9bc8dac5bc0b57a2ee17b0990669e52171e6d5149).
TRACE_SHA256 = {
    "proposed": "02f6dbf2e2593c913ab570dd51033dd9"
                "754d4ca3456fd169539fc660d6046960",
    "none": "3181a4f7a31c6a389fcae1623ecb8f22"
            "3e1177b20b1662eaa14db2ba524f8463",
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
    assert stop_reasons(trace) == ["gradient"]


def test_tridiagonal_solve_never_banks(monkeypatch):
    # A kd = 1 pencil is below precond.BANK_KD: every build factors its p
    # exact shifts, so the solve keeps its digest.
    banks = []

    def factor(pencil, lams, bank=None, record=None,
               exact=precond._factor_shifts):
        banks.append(bank)
        return exact(pencil, lams, bank, record)

    monkeypatch.setattr(precond, "_factor_shifts", factor)
    prob = gen_poisson(80, 3)
    y0 = np.random.default_rng(13).standard_normal((80, 2))
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, y0,
                                    TnewtonConfig(), "proposed")
    assert trace_audit.trace_digest(trace, point.y) == \
        TRACE_SHA256["proposed"]
    record = trace.solves[0]
    assert banks == [None] * record.builds
    assert record.factorizations == 2 * record.builds > 0


def test_cold_start_takes_its_first_step_with_no_build(monkeypatch):
    # fixed-grid2d instance 0 starts cold (t* moves its random factor by
    # far more than COLD_START_FACTOR) and the curvature along -grad is at
    # most EPS_CURV ||grad||^2 there, so the first step is along -grad,
    # made before any preconditioner build, with the probe's Hessian action
    # its only one. The record counts every build the solve made.
    builds, searches = [], []

    def built(*args, build=precond.build_shift_cache, **kwargs):
        builds.append(None)
        return build(*args, **kwargs)

    def spy(*args, search=tnewton.line_search):
        searches.append(len(builds))
        return search(*args)

    monkeypatch.setattr(precond, "build_shift_cache", built)
    monkeypatch.setattr(tnewton, "line_search", spy)
    workload = _workload("fixed-grid2d")
    _, trace = workload.solve(workload.setup(0))
    record = trace.solves[0]
    assert abs(math.log(record.scale)) > math.log(tnewton.COLD_START_FACTOR)
    assert searches[0] == 0
    assert record.steepest[0] == 1
    assert trace.rows[1].inner_iters == 1
    assert record.builds == len(builds) > 0
    assert record.fallbacks == []


def test_warm_started_rank_never_probes(monkeypatch):
    # Ranks 2-4 of an increasing-rank solve of gen_poisson(100, 0), each
    # from the warm start grown from the rank before: t* moves none of them
    # by COLD_START_FACTOR, so each builds at every iteration and calls the
    # Hessian only inside tPCG.
    problem = gen_poisson(100, 0)
    rng = np.random.default_rng(0)
    point, _ = solve_fixed_rank(problem, Metric.EMBEDDED,
                                rng.standard_normal((100, 1)), None,
                                "proposed", 1e-6)
    calls = count_hessian_actions(monkeypatch)
    inner = []

    def recorded(*args, solve=tnewton.tpcg, **kwargs):
        state = solve(*args, **kwargs)
        inner.append(state.hessian_actions)
        return state

    monkeypatch.setattr(tnewton, "tpcg", recorded)
    for _ in range(3):
        grown, _ = warm_start(problem, point, 1, rng)
        calls.clear()
        inner.clear()
        point, trace = solve_fixed_rank(problem, Metric.EMBEDDED, grown,
                                        None, "proposed", 1e-6)
        record = trace.solves[0]
        assert abs(math.log(record.scale)) < math.log(
            tnewton.COLD_START_FACTOR)
        assert record.steepest == []
        assert len(calls) == sum(inner) == trace.final().nH > 0
        assert record.builds == len(inner) == len(trace.rows) - 1


# tools/trace_audit.py's digests of unpreconditioned solves, recorded
# before the steepest-descent probe was added: an increasing-rank solve of
# gen_poisson(100, 0) (rank 15, 54 rows, nH 2202) and fixed-grid2d
# instance 0 (15 rows, nH 145). A solve under "none" makes no probe. Both
# were recorded again when each point came to form G^{-1} and its small
# products once: the irr solve kept rank 15 and its 54 rows, and its nH went
# from 2202 to 2204 at rounding level; the grid solve kept its 15 rows and
# nH 145 (digests before, irr and grid:
# 867ff945ebc080569e71d60499007603bca26c4442fc3c21033aacf4a556bffd,
# d49a886166ea9f05cfa22c548f6a2d187bd3f6ece8455a7b68f7cd19c8e10e80).
NONE_SHA256 = {
    "irr": "60ecc1b9f162b2f55edb256b4b970e38"
           "cab0cb72bd911eadaaa3e81e4ab1fe06",
    "grid": "7a101acbd101dcd54a4a20a5237580f9"
            "bf204a7648191e8fa4150ac5b02cf795",
}


def test_unpreconditioned_solves_are_unchanged_by_the_probe():
    instance = _workload("fixed-grid2d").setup(0)
    solves = {
        "irr": lambda: solve_increasing_rank(
            gen_poisson(100, 0), Metric.EMBEDDED,
            IrrConfig(p_min=1, p_max=40, tau=1e-6, seed=0), None, "none"),
        "grid": lambda: solve_fixed_rank(
            instance.problem, Metric.EMBEDDED, instance.y0, TnewtonConfig(),
            "none"),
    }
    for name, solve in solves.items():
        point, trace = solve()
        assert trace_audit.trace_digest(trace, point.y) == NONE_SHA256[name]
        for record in trace.solves:
            assert (record.builds, record.steepest) == (0, [])


def _row(k, gradnorm, relres, alpha=1.0):
    return TraceRow(k=k, p=3, f=-1.0, gradnorm=gradnorm, relres=relres,
                    inner_iters=4, nH=4 * k, alpha=alpha, ms=0.0)


def test_stall_rule_ends_a_rank_converged_above_its_target():
    # The stall rule on hand-made rows: a unit step at k >= 2 that lowered
    # the gradient norm and moved relres by under 1 % ends the solve when
    # relres is above 3 target, or when it is above target / 0.99 and the
    # gradient norm fell more than tenfold; never otherwise.
    target = 1e-6
    edge = target / tnewton.STALL_RATIO
    for relres in (0.5 * target, target, edge, 1.02 * target, 2.9 * target,
                   tnewton.STALL_MARGIN * target, 3.1 * target):
        for drop in (1e-4, 0.09, tnewton.STALL_GRADIENT_DROP, 0.5, 0.99):
            prev = _row(3, 1e-4, relres)
            stalled = tnewton._stalled(prev, _row(4, drop * 1e-4, relres),
                                       target)
            if relres > 3.0 * target:
                assert stalled
            elif relres <= edge or drop >= 0.1:
                assert not stalled, (relres, drop)
            else:
                assert stalled, (relres, drop)
            # each condition of the rule is needed by both branches
            for row in (_row(1, drop * 1e-4, relres),
                        _row(4, drop * 1e-4, relres, alpha=0.5),
                        _row(4, 1e-4, relres),
                        _row(4, drop * 1e-4, 0.98 * relres)):
                assert not tnewton._stalled(_row(row.k - 1, 1e-4, relres),
                                            row, target)


def test_solve_rejects_an_unknown_preconditioner():
    with pytest.raises(ValueError,
                       match="^unknown preconditioner choice 'ilu'$"):
        solve_fixed_rank(gen_poisson(10, 0), Metric.EMBEDDED,
                         np.ones((10, 1)), None, "ilu")


def test_solve_rejects_rank_deficient_start():
    prob = gen_poisson(10, 0)
    with pytest.raises(ValueError, match="full column rank"):
        solve_fixed_rank(prob, Metric.EMBEDDED, np.zeros((10, 2)))


def test_solve_line_search_failure_carries_trace(monkeypatch):
    # The partial trace's nH also counts the inner solve of the iteration
    # whose line search failed.
    calls = count_hessian_actions(monkeypatch)
    prob = gen_poisson(40, 0)
    y0 = np.random.default_rng(14).standard_normal((40, 2))
    monkeypatch.setattr(tnewton, "CHI1", 0.999)
    monkeypatch.setattr(tnewton, "CHI2", 1.0)
    with pytest.raises(LineSearchError) as info:
        solve_fixed_rank(prob, Metric.EMBEDDED, y0)
    assert isinstance(info.value, SolverError) and \
        isinstance(info.value, RuntimeError) and info.value.trace is not None
    assert len(info.value.trace.rows) >= 1
    assert info.value.trace.rows[0].k == 0
    assert info.value.trace.final().nH == len(calls) > 0


def test_solve_inner_failure_counts_its_hessian_actions(monkeypatch):
    # The 4th Hessian action returns NaN, so tPCG raises within an
    # iteration that adds no row: the partial trace's nH still counts
    # every action made, and the solve's record has no stop.
    calls = count_hessian_actions(monkeypatch)

    def failing(*args, action=tnewton.hessian_action):
        out = action(*args)
        return np.full_like(out, np.nan) if len(calls) == 4 else out

    monkeypatch.setattr(tnewton, "hessian_action", failing)
    y0 = np.random.default_rng(1).standard_normal((60, 2))
    with pytest.raises(InnerSolveError) as info:
        solve_fixed_rank(gen_poisson(60, 0), Metric.EMBEDDED, y0, None,
                         "proposed")
    assert isinstance(info.value, SolverError) and \
        isinstance(info.value, RuntimeError) and info.value.trace is not None
    trace = info.value.trace
    assert len(calls) == 4
    assert trace.final().nH == len(calls)
    assert stop_reasons(trace) == [None]


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


def test_trace_csv_columns_are_the_row_fields():
    # One definition of the columns: the header is TraceRow's field list,
    # ints print unchanged and floats round-trip.
    row = TraceRow(3, 2, -0.1, 1e-3, 2.5e-7, 4, 17, 0.5, 1.25)
    header, line = SolveTrace([row]).to_csv_text().splitlines()
    names = [field.name for field in dataclasses.fields(TraceRow)]
    assert header.split(",") == names
    values = line.split(",")
    for name, text in zip(names, values, strict=True):
        value = getattr(row, name)
        assert (text == str(value) if isinstance(value, int)
                else float(text) == value)


def test_trace_column_accessor():
    trace = SolveTrace()
    assert trace.column("f") == []


def test_final_of_an_empty_trace_raises():
    with pytest.raises(ValueError, match="^empty trace$"):
        SolveTrace().final()


def test_extend_continues_nh_and_keeps_each_solves_record():
    # Joining two solves continues nH from the first one's last row and
    # leaves each record as it was: its fallbacks stay iteration numbers
    # within its own solve, not indices into the joined rows.
    def solve(p, nhs, fallbacks):
        rows = [TraceRow(k, p, 0.0, 1.0, 1.0, 0, nh, 0.0, 0.0)
                for k, nh in enumerate(nhs)]
        return SolveTrace(rows, [SolveRecord(p, fallbacks=fallbacks)])

    trace = solve(1, [0, 2, 5], [2])
    trace.extend(solve(2, [0, 1, 3, 4], [1, 3]))
    assert trace.column("nH") == [0, 2, 5, 5, 6, 8, 9]
    assert trace.column("k") == [0, 1, 2, 0, 1, 2, 3]
    assert [(solve.p, solve.fallbacks) for solve in trace.solves] == [
        (1, [2]), (2, [1, 3])]
