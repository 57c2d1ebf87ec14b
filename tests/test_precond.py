"""Shifted saddle systems, coupled solve, and the full preconditioner."""

import numpy as np
import pytest
import scipy.sparse as sps

from helpers import (
    ALL_METRICS,
    hnorm,
    identity_problem,
    random_horizontal,
    random_problem,
)
from lyapfactor import (
    FactorPoint,
    LyapunovProblem,
    Metric,
    SpdSparseMatrix,
    gen_poisson,
    horizontal_inner,
    metric_inner,
    tpcg,
)
from lyapfactor.manifold import (
    hessian_action,
    horizontal_basis,
    project_horizontal,
)
from lyapfactor.precond import (
    CoupledSystem,
    PreconditionerError,
    apply_cached,
    apply_preconditioner,
    assemble_precond_operator_dense,
    build_shift_cache,
    dominant_term_action,
    saddle_solve,
)


def _poisson_point(n=50, p=3, seed=0, identity_mass=False):
    prob = gen_poisson(n, seed, identity_mass=identity_mass)
    rng = np.random.default_rng(seed + 1000)
    at = FactorPoint(rng.standard_normal((n, p)))
    return prob, at, rng


# --------------------------------------------------------------- shifts


def test_shift_cache_eigenvalues_positive():
    prob, at, rng = _poisson_point()
    cache = build_shift_cache(prob, at)
    assert cache.lam.shape == (3,)
    assert np.all(cache.lam > 0.0)


def test_shift_cache_rejects_unknown_variant():
    prob, at, rng = _poisson_point()
    with pytest.raises(ValueError):
        build_shift_cache(prob, at, variant="other")


# --------------------------------------------------------------- saddle


def test_saddle_solution_is_constraint_feasible():
    prob, at, rng = _poisson_point(n=40)
    cache = build_shift_cache(prob, at)
    for i in range(at.p):
        rhs = rng.standard_normal((40, 2))
        x, mult = saddle_solve(cache, i, rhs)
        feas = np.linalg.norm(cache.vhat.T @ x)
        assert feas <= 1e-10 * max(1.0, np.linalg.norm(x))


def test_saddle_rhs_in_vhat_range_gives_zero_solution():
    prob, at, rng = _poisson_point(n=30)
    cache = build_shift_cache(prob, at)
    x, mult = saddle_solve(cache, 0, cache.vhat)
    assert np.linalg.norm(x) <= 1e-10
    np.testing.assert_allclose(mult, np.eye(at.p), atol=1e-10)


def test_saddle_matches_dense_block_solve():
    prob, at, rng = _poisson_point(n=40)
    cache = build_shift_cache(prob, at)
    a = prob.a.mat.toarray()
    m = prob.m.mat.toarray()
    vhat = cache.vhat
    p = at.p
    for i in range(p):
        shifted = a + cache.lam[i] * m
        block = np.block([[shifted, vhat], [vhat.T, np.zeros((p, p))]])
        rhs = rng.standard_normal(40)
        sol = np.linalg.solve(block, np.concatenate([rhs, np.zeros(p)]))
        x, mult = saddle_solve(cache, i, rhs.reshape(-1, 1))
        np.testing.assert_allclose(x.ravel(), sol[:40], rtol=0,
                                   atol=1e-10 * np.linalg.norm(sol[:40]))
        np.testing.assert_allclose(mult.ravel(), sol[40:], rtol=0,
                                   atol=1e-10 * max(1.0,
                                                    np.linalg.norm(sol[40:])))


def test_saddle_residual_of_block_equation():
    prob, at, rng = _poisson_point(n=35)
    cache = build_shift_cache(prob, at)
    a = prob.a.mat.toarray()
    m = prob.m.mat.toarray()
    rhs = rng.standard_normal((35, 1))
    x, mult = saddle_solve(cache, 1, rhs)
    res = (a + cache.lam[1] * m) @ x + cache.vhat @ mult - rhs
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)


# -------------------------------------------------------- coupled system


def test_coupled_system_round_trip_direct():
    rng = np.random.default_rng(5)
    p = 4
    blocks = []
    for i in range(p):
        w = rng.standard_normal((p, p))
        blocks.append(w @ w.T + p * np.eye(p))
    system = CoupledSystem(blocks)
    s = rng.standard_normal((p, p))
    s = s + s.T
    rhs = system.apply(s)
    np.testing.assert_allclose(rhs, rhs.T, rtol=1e-12)
    back = system.solve(rhs)
    np.testing.assert_allclose(back, s, rtol=1e-9)


def test_coupled_system_round_trip_cg_path():
    # p above the direct-factorization limit exercises matrix-free CG
    rng = np.random.default_rng(6)
    p = 70
    blocks = [np.diag(rng.random(p) + 1.0) + p * np.eye(p) for i in range(p)]
    system = CoupledSystem(blocks)
    assert system._cho is None and system._lu is None
    s = rng.standard_normal((p, p))
    s = s + s.T
    back = system.solve(system.apply(s))
    np.testing.assert_allclose(back, s, rtol=1e-8)


def test_coupled_system_singular_raises_with_advice():
    import warnings

    blocks = [np.zeros((2, 2)), np.zeros((2, 2))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(PreconditionerError,
                           match="identity preconditioner"):
            CoupledSystem(blocks).solve(np.eye(2))


# -------------------------------------------------------- preconditioner


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_preconditioner_linearity(metric):
    prob, at, rng = _poisson_point()
    eta = random_horizontal(metric, at, rng)
    one = apply_preconditioner(metric, prob, at, eta).z
    two = apply_preconditioner(metric, prob, at, 2.0 * eta).z
    np.testing.assert_allclose(two, 2.0 * one,
                               rtol=0, atol=1e-12 * np.linalg.norm(two))


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_preconditioner_self_adjoint(metric):
    prob, at, rng = _poisson_point(n=40)
    cache = build_shift_cache(prob, at)
    for trial in range(10):
        eta = random_horizontal(metric, at, rng)
        xi = random_horizontal(metric, at, rng)
        peta = apply_cached(cache, metric, eta)
        pxi = apply_cached(cache, metric, xi)
        left = horizontal_inner(metric, at, peta, xi)
        right = horizontal_inner(metric, at, eta, pxi)
        assert abs(left - right) <= 1e-9 * hnorm(metric, at, eta) * hnorm(
            metric, at, xi)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_preconditioner_positive_definite(metric):
    prob, at, rng = _poisson_point(n=40)
    cache = build_shift_cache(prob, at)
    for trial in range(10):
        eta = random_horizontal(metric, at, rng)
        val = horizontal_inner(metric, at, apply_cached(cache, metric, eta),
                               eta)
        assert val > 0.0


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_preconditioner_substitution_oracle(metric):
    # the output must solve the metric's defining equation: applying the
    # dominant Hessian term to xi and projecting horizontally returns eta
    prob, at, rng = _poisson_point(n=100, p=3)
    eta = random_horizontal(metric, at, rng)
    xi = apply_preconditioner(metric, prob, at, eta).z
    back = project_horizontal(metric, at,
                              dominant_term_action(metric, prob, at, xi))
    assert np.linalg.norm(back - eta) <= 1e-8 * np.linalg.norm(eta)


def test_bart_matches_proposed_on_identity_mass():
    prob, at, rng = _poisson_point(n=60, identity_mass=True)
    for metric in ALL_METRICS:
        eta = random_horizontal(metric, at, rng)
        ours = apply_preconditioner(metric, prob, at, eta).z
        bart = apply_cached(build_shift_cache(prob, at, "bart"), metric, eta)
        assert np.linalg.norm(ours - bart) <= 1e-10 * np.linalg.norm(ours)


def test_bart_linearity_and_self_adjointness():
    prob, at, rng = _poisson_point(n=50)
    metric = Metric.EMBEDDED
    cache = build_shift_cache(prob, at, variant="bart")
    eta = random_horizontal(metric, at, rng)
    xi = random_horizontal(metric, at, rng)
    one = apply_cached(cache, metric, eta)
    two = apply_cached(cache, metric, 2.0 * eta)
    np.testing.assert_allclose(two, 2.0 * one, rtol=0,
                               atol=1e-12 * np.linalg.norm(two))
    left = horizontal_inner(metric, at, one, xi)
    right = horizontal_inner(metric, at, eta, apply_cached(cache, metric, xi))
    assert abs(left - right) <= 1e-9 * hnorm(metric, at, eta) * hnorm(
        metric, at, xi)


def test_preconditioner_accepts_horizontal_vector_input():
    prob, at, rng = _poisson_point(n=30)
    metric = Metric.EMBEDDED
    from lyapfactor import HorizontalVector
    raw = random_horizontal(metric, at, rng)
    wrapped = HorizontalVector(at=at, z=raw, metric=metric)
    np.testing.assert_array_equal(
        apply_preconditioner(metric, prob, at, wrapped).z,
        apply_preconditioner(metric, prob, at, raw).z)


# ------------------------------------------------- dense assembly oracle


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_assembled_operator_symmetric(metric):
    prob, at, rng = _poisson_point(n=12, p=2)
    mat, basis = assemble_precond_operator_dense(metric, prob, at)
    scale = max(1.0, np.abs(mat).max())
    np.testing.assert_allclose(mat, mat.T, rtol=0, atol=1e-10 * scale)


def test_assembled_eigenvalues_within_kronecker_bounds():
    # reciprocal eigenvalues of the assembled P^{-1} land inside the
    # spectrum of kron(M, A) + kron(A, M)
    rng = np.random.default_rng(7)
    for seed in range(3):
        prob = random_problem(14, 1, np.random.default_rng(seed))
        at = FactorPoint(np.random.default_rng(seed + 50)
                         .standard_normal((14, 2)))
        big = (sps.kron(prob.m.mat, prob.a.mat)
               + sps.kron(prob.a.mat, prob.m.mat)).toarray()
        lam = np.linalg.eigvalsh(big)
        tol = 1e-8 * lam[-1]
        mat, basis = assemble_precond_operator_dense(Metric.EMBEDDED, prob,
                                                     at)
        # the assembled matrix is the preconditioner apply; the operator it
        # inverts has the reciprocal spectrum
        evals = 1.0 / np.linalg.eigvalsh(mat)
        assert np.all(evals >= lam[0] - tol)
        assert np.all(evals <= lam[-1] + tol)


def test_assembled_identity_pencil_collapses_to_two():
    rng = np.random.default_rng(8)
    ystar = rng.standard_normal((10, 2))
    prob = identity_problem(10, ystar)
    at = FactorPoint(rng.standard_normal((10, 2)))
    mat, basis = assemble_precond_operator_dense(Metric.EMBEDDED, prob, at)
    evals = 1.0 / np.linalg.eigvalsh(mat)
    np.testing.assert_allclose(evals, 2.0, atol=1e-8 * 2.0)


def test_assembled_respects_dense_limit():
    prob, at, rng = _poisson_point(n=30)
    with pytest.raises(ValueError):
        assemble_precond_operator_dense(Metric.EMBEDDED, prob, at, max_dim=5)


# ------------------------------------------- Hessian consistency at optimum


def test_hessian_minus_dominant_term_is_curvature_correction():
    # metric 1: Hess(eta) - P^H(dominant(eta)) = P^H(T1) with
    # T1 = (I - P) N (I - P) eta G^{-1}
    prob, at, rng = _poisson_point(n=40)
    metric = Metric.EMBEDDED
    eta = random_horizontal(metric, at, rng)
    hess = hessian_action(metric, prob, at, eta).z
    main = project_horizontal(metric, at,
                              dominant_term_action(metric, prob, at, eta))
    y = at.y
    u = prob.a.mat @ y
    v = prob.m.mat @ y
    ny = lambda w: u @ (v.T @ w) + v @ (u.T @ w) - prob.b @ (prob.b.T @ w)
    proj = lambda w: w - y @ at.solve_gram(y.T @ w)
    t1 = at.solve_gram_right(proj(ny(proj(eta))))
    want = project_horizontal(metric, at, t1)
    got = hess - main
    assert np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(hess))


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_exact_solution_preconditioner_equals_hessian(metric):
    # at the exact solution the residual vanishes, the correction terms die
    # and tPCG preconditioned by P converges in at most 2 inner iterations
    rng = np.random.default_rng(9)
    ystar = rng.standard_normal((30, 3))
    prob = identity_problem(30, ystar)
    at = FactorPoint(ystar)
    cache = build_shift_cache(prob, at)

    def hess(v):
        return hessian_action(metric, prob, at, v).z

    def inner(x, e):
        return horizontal_inner(metric, at, x, e)

    for trial in range(5):
        g = random_horizontal(metric, at, rng)
        state = tpcg(g, hess, lambda v: apply_cached(cache, metric, v),
                     1e-12, 1e-8, inner=inner)
        assert state.hessian_actions <= 2
        res = hess(state.direction) + g
        assert np.sqrt(inner(res, res)) <= 1e-8 * np.sqrt(inner(g, g))


def test_hessian_positive_definite_when_condition_holds():
    # small instance near the solution: 2 lam_min(G) lam_min(A) lam_min(M)
    # must dominate p times the residual norm, then the dense Hessian is PD
    rng = np.random.default_rng(10)
    ystar = rng.standard_normal((10, 2))
    prob = identity_problem(10, ystar)
    at = FactorPoint(ystar + 1e-3 * rng.standard_normal((10, 2)))
    from lyapfactor import residual_fro
    gram_min = np.linalg.eigvalsh(at.gram)[0]
    condition = 2.0 * gram_min * 1.0 * 1.0 - at.p * residual_fro(prob, at)
    assert condition > 0.0
    for metric in ALL_METRICS:
        basis = horizontal_basis(metric, at)
        dim = len(basis)
        mat = np.zeros((dim, dim))
        for j, e in enumerate(basis):
            he = hessian_action(metric, prob, at, e).z
            for i, f in enumerate(basis):
                mat[i, j] = metric_inner(metric, at, he, f)
        mat = 0.5 * (mat + mat.T)
        assert np.linalg.eigvalsh(mat)[0] > 0.0
