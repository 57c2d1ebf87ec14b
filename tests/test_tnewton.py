"""Truncated Newton outer loop, inner tPCG, and the line search."""

import numpy as np
import pytest

from helpers import identity_problem, random_problem
from lyapfactor import (
    FactorPoint,
    Metric,
    SolveTrace,
    TnewtonConfig,
    cost,
    gen_poisson,
    horizontal_inner,
    relative_residual,
    riemannian_gradient,
    solve_fixed_rank,
    tpcg,
)
from lyapfactor.manifold import hessian_action
from lyapfactor.tnewton import (
    InnerSolveError,
    LineSearchError,
    line_search,
)

ALL_METRICS = (Metric.EMBEDDED, Metric.GRAM, Metric.EUCLIDEAN)


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


# ------------------------------------------------------------ line search


def _newton_direction(metric, problem, at, config):
    grad = riemannian_gradient(metric, problem, at)
    gnorm = np.sqrt(horizontal_inner(metric, at, grad, grad))

    def hess(v):
        return hessian_action(metric, problem, at, v)

    def inner(x, e):
        return horizontal_inner(metric, at, x, e)

    state = tpcg(grad, hess, lambda v: v, config.eps_curv,
                 min(config.forcing_beta, gnorm ** config.forcing_t),
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


def test_line_search_requires_descent_direction():
    rng = np.random.default_rng(7)
    prob = random_problem(10, 1, rng)
    at = FactorPoint(rng.standard_normal((10, 2)))
    grad = riemannian_gradient(Metric.EMBEDDED, prob, at)
    slope = horizontal_inner(Metric.EMBEDDED, at, grad, grad)
    with pytest.raises(ValueError, match="descent"):
        line_search(prob, Metric.EMBEDDED, at, grad, cost(prob, at), slope,
                    TnewtonConfig())


def test_line_search_exhaustion_reports_diagnostics():
    # chi2 ~ 1 demands nearly the whole first-order decrease at every alpha,
    # which a quadratic-in-alpha cost cannot deliver far from the solution
    prob = gen_poisson(40, 0)
    rng = np.random.default_rng(8)
    at = FactorPoint(rng.standard_normal((40, 2)))
    config = TnewtonConfig(chi1=0.999, chi2=0.999, ls_max_backtracks=20)
    grad, direction, slope = _newton_direction(Metric.EMBEDDED, prob, at,
                                               config)
    with pytest.raises(LineSearchError) as info:
        line_search(prob, Metric.EMBEDDED, at, direction, cost(prob, at),
                    slope, config)
    err = info.value
    assert err.backtracks == 20
    assert err.slope0 == slope
    assert err.alpha < 1e-3
    assert "backtracks" in str(err)


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


# -------------------------------------------------------- fixed-rank solve


def test_solve_stationary_start_takes_no_steps():
    rng = np.random.default_rng(10)
    ystar = rng.standard_normal((25, 2))
    prob = identity_problem(25, ystar)
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, ystar)
    assert len(trace.rows) == 1
    np.testing.assert_array_equal(point.y, ystar)


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


def test_solve_respects_max_outer():
    prob = gen_poisson(100, 2)
    rng = np.random.default_rng(12)
    y0 = rng.standard_normal((100, 2))
    point, trace = solve_fixed_rank(prob, Metric.EMBEDDED, y0,
                                    TnewtonConfig(max_outer=3))
    assert trace.final().k <= 3
    assert len(trace.rows) <= 4


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


def test_solve_rejects_rank_deficient_start():
    prob = gen_poisson(10, 0)
    with pytest.raises(ValueError, match="full column rank"):
        solve_fixed_rank(prob, Metric.EMBEDDED, np.zeros((10, 2)))


def test_solve_line_search_failure_carries_trace():
    prob = gen_poisson(40, 0)
    y0 = np.random.default_rng(14).standard_normal((40, 2))
    config = TnewtonConfig(chi1=0.999, chi2=0.999)
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
