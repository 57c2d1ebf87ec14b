"""Shifted saddle systems, coupled solve, and the full preconditioner."""

import math
import re

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sps
from scipy.sparse.linalg import splu as general_splu

from helpers import (
    at_start_scale,
    ALL_METRICS,
    apply_preconditioner,
    assemble_precond_operator_dense,
    count_hessian_actions,
    grid_problem,
    hnorm,
    horizontal_basis,
    identity_problem,
    metric_inner,
    random_horizontal,
    random_problem,
    saddle_solve,
    trace_audit,
)
from lyapfactor import (
    FactorPoint,
    LyapunovProblem,
    Metric,
    SolverError,
    SpdSparseMatrix,
    TnewtonConfig,
    gen_poisson,
    horizontal_inner,
    solve_fixed_rank,
    tpcg,
)
from lyapfactor import precond
from lyapfactor.manifold import (
    dominant_term_action,
    hessian_action,
    project_horizontal,
)
from lyapfactor.precond import (
    COUPLED_DIRECT_LIMIT,
    CoupledSystem,
    PreconditionerError,
    _coupled_matrix,
    _pencil,
    _sym_to_vec,
    _vec_to_sym,
    apply_cached,
    build_shift_cache,
)
from lyapfactor.problems import SPD_CHECK_LIMIT
from lyapfactor.tnewton import SolveRecord


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


def _unchecked_diagonal_problem(a00, m00):
    """Diagonal A and M with first entries a00 and m00 and ones elsewhere,
    of a size above SPD_CHECK_LIMIT so that both are taken on trust, and
    the point Y = e_0."""
    n = 600
    assert n > SPD_CHECK_LIMIT
    a, m = (SpdSparseMatrix(sps.diags(np.r_[first, np.ones(n - 1)]))
            for first in (a00, m00))
    return LyapunovProblem(a, m, np.ones(n)), FactorPoint(np.eye(n, 1))


PROJECTED_PENCIL_ERRORS = [
    ("proposed", 1.0, -1.0,
     "mass Gram matrix of the factor is not positive definite"),
    ("proposed", -1.0, 1.0,
     "projected pencil has a nonpositive eigenvalue (-1.000e+00)"),
    ("bart", -1.0, 1.0,
     "projected pencil has a nonpositive eigenvalue (-1.000e+00)"),
]


@pytest.mark.parametrize("variant, a00, m00, message",
                         PROJECTED_PENCIL_ERRORS)
def test_indefinite_projected_pencil_is_rejected(variant, a00, m00, message):
    prob, at = _unchecked_diagonal_problem(a00, m00)
    with pytest.raises(PreconditionerError, match=re.escape(message)) as err:
        build_shift_cache(prob, at, variant=variant)
    assert err.value.trace is None  # raised outside a solve
    if variant == "proposed":
        # The solve meets tr(Y^T A Y Y^T M Y) = a00 m00 < 0 in its start
        # scale, at row 0, before it builds.
        with pytest.raises(ValueError, match=re.escape(INDEFINITE_START)):
            solve_fixed_rank(prob, Metric.EMBEDDED, at.y, TnewtonConfig(),
                             variant)


INDEFINITE_START = ("A or M is not positive definite: the factor Y gives "
                    "tr(Y^T A Y Y^T M Y) = -1.000e+00 <= 0")


def _indefinite_poisson_mass():
    """gen_poisson(600, 0) with the last entry of M set to -0.1, and the
    factor Y = e_599 concentrated on that entry."""
    given = gen_poisson(600, 0)
    mass = given.m.mat.tolil()
    mass[599, 599] = -0.1
    problem = LyapunovProblem(given.a, SpdSparseMatrix(mass.tocsr()),
                              given.b)
    return problem, FactorPoint(np.eye(600)[:, 599:])


@pytest.mark.parametrize("make, choice, quartic", [
    (lambda: _unchecked_diagonal_problem(1.0, -1.0), "none", "-1.000e+00"),
    (lambda: _unchecked_diagonal_problem(-1.0, 1.0), "none", "-1.000e+00"),
    (_indefinite_poisson_mass, "none", "-7.224e+04"),
    (_indefinite_poisson_mass, "proposed", "-7.224e+04"),
], ids=["diagonal-M-none", "diagonal-A-none", "poisson-M-none",
        "poisson-M-proposed"])
def test_indefinite_start_is_rejected_at_row_0(make, choice, quartic,
                                                monkeypatch):
    # Regression: from these starts the solve used to take scale 1.0 and
    # return garbage with no error (the diagonal problems relres 7.2e+118
    # on "max_outer", the Poisson one relres inf on "floor"), or raise a
    # PreconditionerError that advised the identity preconditioner. Now
    # the start scale's tr(Y^T A Y Y^T M Y) <= 0 ends the solve at row 0,
    # before any Hessian action or build.
    calls = count_hessian_actions(monkeypatch)
    builds = []
    monkeypatch.setattr(precond, "build_shift_cache",
                        lambda *args, **kwargs: builds.append(args))
    prob, at = make()
    with pytest.raises(ValueError, match=re.escape(
            "A or M is not positive definite: the factor Y gives "
            f"tr(Y^T A Y Y^T M Y) = {quartic} <= 0")):
        solve_fixed_rank(prob, Metric.EMBEDDED, at.y, None, choice)
    assert calls == builds == []


def test_shift_cache_rejects_a_rank_deficient_factor():
    prob, _, _ = _poisson_point()
    with pytest.raises(ValueError,
                       match="^preconditioner needs a full rank factor$"):
        build_shift_cache(prob, FactorPoint(np.ones((50, 2))))


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


def _grid_point(variant, side=7, p=3, seed=11, perm_seed=None):
    """Grid problem with consistent mass, a random point, and the operator
    pair the variant inverts: (A, M) for "proposed", (A, I) for "bart"."""
    prob = grid_problem(side, perm_seed)
    rng = np.random.default_rng(seed)
    at = FactorPoint(rng.standard_normal((prob.n, p)))
    m = prob.m if variant == "proposed" else SpdSparseMatrix(
        sps.identity(prob.n, format="csr"))
    return prob, at, rng, LyapunovProblem(prob.a, m, prob.b)


@pytest.mark.parametrize("variant", ["proposed", "bart"])
def test_grid_saddle_matches_dense_block_solve(variant):
    # 2-D fill makes the symmetric ordering matter, unlike 1-D tridiagonals
    prob, at, rng, inverted = _grid_point(variant)
    cache = build_shift_cache(prob, at, variant=variant)
    a = inverted.a.mat.toarray()
    m = inverted.m.mat.toarray()
    vhat = cache.vhat
    n, p = at.n, at.p
    for i in range(p):
        block = np.block([[a + cache.lam[i] * m, vhat],
                          [vhat.T, np.zeros((p, p))]])
        rhs = rng.standard_normal((n, 2))
        sol = np.linalg.solve(block, np.vstack([rhs, np.zeros((p, 2))]))
        x, mult = saddle_solve(cache, i, rhs)
        np.testing.assert_allclose(x, sol[:n], rtol=0,
                                   atol=1e-10 * np.linalg.norm(sol[:n]))
        np.testing.assert_allclose(mult, sol[n:], rtol=0,
                                   atol=1e-10 * np.linalg.norm(sol[n:]))


@pytest.mark.parametrize("variant", ["proposed", "bart"])
@pytest.mark.parametrize("metric", ALL_METRICS)
def test_grid_apply_solves_defining_equation(variant, metric):
    # "bart" inverts the dominant term of the pencil (A, I) exactly
    prob, at, rng, inverted = _grid_point(variant)
    cache = build_shift_cache(prob, at, variant=variant)
    eta = random_horizontal(metric, at, rng)
    xi = apply_cached(cache, metric, eta)
    back = project_horizontal(metric, at,
                              dominant_term_action(metric, inverted, at, xi))
    assert np.linalg.norm(back - eta) <= 1e-8 * np.linalg.norm(eta)


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
    assert system._cho is None
    s = rng.standard_normal((p, p))
    s = s + s.T
    back = system.solve(system.apply(s))
    np.testing.assert_allclose(back, s, rtol=1e-8)


def test_coupled_system_singular_raises_with_advice():
    # singular (all-zero) and nonsingular indefinite blocks both fail the
    # Cholesky factorization, the only direct path
    for diag in (0.0, -1.0):
        blocks = [diag * np.eye(2), diag * np.eye(2)]
        with pytest.raises(PreconditionerError,
                           match="not positive definite.*identity"):
            CoupledSystem(blocks)


@pytest.mark.parametrize("out, info, message", [
    (0.0, 3, "conjugate gradient on the coupled symmetric system did not "
             "converge (info = 3)"),
    (math.nan, 0, "coupled symmetric system is singular at this point"),
])
def test_coupled_system_cg_failures_raise_with_advice(out, info, message,
                                                      monkeypatch):
    p = COUPLED_DIRECT_LIMIT + 1
    system = CoupledSystem([np.eye(p)] * p)
    assert system._cho is None
    monkeypatch.setattr(precond.sps_la, "cg",
                        lambda op, rhs, **kwargs: (np.full_like(rhs, out),
                                                   info))
    with pytest.raises(PreconditionerError, match=re.escape(
            message + "; advising fallback to the identity preconditioner")):
        system.solve(np.eye(p))


def _sym_pairs(p):
    """The basis order: the diagonal first, then (i, j), i < j, row-major."""
    return [(i, i) for i in range(p)] + [
        (i, j) for i in range(p) for j in range(i + 1, p)
    ]


@pytest.mark.parametrize("p", [1, 2, 5, 14, 40])
def test_coupled_matrix_equals_column_by_column_assembly(p):
    # Reference: apply the map to each basis matrix, one column at a time,
    # and take coordinates entry by entry. The closed form must repeat the
    # same floating-point operations, so the match is exact. Positive
    # definite blocks make the map positive definite, as its Cholesky
    # factorization requires.
    rng = np.random.default_rng(100 + p)
    blocks = []
    for _ in range(p):
        w = rng.standard_normal((p, p))
        blocks.append(w @ w.T + np.eye(p))
    system = CoupledSystem(blocks)
    pairs = _sym_pairs(p)
    ref = np.empty((len(pairs), len(pairs)))
    for col, (i, j) in enumerate(pairs):
        basis = np.zeros((p, p))
        if i == j:
            basis[i, i] = 1.0
        else:
            basis[i, j] = basis[j, i] = 1.0 / math.sqrt(2.0)
        w = np.column_stack([blocks[c] @ basis[:, c] for c in range(p)])
        image = w + w.T
        ref[:, col] = [image[a, b] if a == b else math.sqrt(2.0) * image[a, b]
                       for a, b in pairs]
        np.testing.assert_array_equal(system.apply(basis), image)
    ref = 0.5 * (ref + ref.T)
    got = _coupled_matrix(np.asarray(blocks), np.triu_indices(p, 1))
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("p", [1, 2, 3, 9, 70])
def test_sym_coordinates_round_trip_and_isometry(p):
    rng = np.random.default_rng(200 + p)
    upper = np.triu_indices(p, 1)
    s1, s2 = (x + x.T for x in rng.standard_normal((2, p, p)))
    v1, v2 = _sym_to_vec(s1, upper), _sym_to_vec(s2, upper)
    assert v1.shape == (p * (p + 1) // 2,)
    pairs = _sym_pairs(p)
    np.testing.assert_array_equal(v1[:p], np.diag(s1))
    np.testing.assert_array_equal(
        v1[p:], [math.sqrt(2.0) * s1[i, j] for i, j in pairs[p:]])
    np.testing.assert_allclose(_vec_to_sym(v1, upper), s1,
                               rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(_sym_to_vec(_vec_to_sym(v2, upper), upper), v2,
                               rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(v1 @ v2, np.sum(s1 * s2), rtol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(v1), np.linalg.norm(s1),
                               rtol=1e-14)


def _assert_same_csc(got, ref):
    assert got.format == ref.format == "csc"
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))


def _filled_bands(monkeypatch, pencil, lams):
    """The band of each shift as _factor_shifts hands it to pbtrf."""
    bands = []
    pbtrf = precond._PBTRF

    def factor(ab, **kwargs):
        bands.append(ab.copy(order="F"))
        return pbtrf(ab, **kwargs)

    monkeypatch.setattr(precond, "_PBTRF", factor)
    precond._factor_shifts(pencil, lams)
    stacked = np.concatenate(bands, axis=1)
    n = pencil[0].shape[0]
    return [stacked[:, i * n:(i + 1) * n] for i in range(lams.size)]


def _assert_bands_match_sums(monkeypatch, pencil, a, m, lams):
    # kd is the half-bandwidth of every shift, and the band filled from
    # the entries of A and M is the shift's lower band, bit for bit
    kd = pencil[2][0]
    for lam, band in zip(lams, _filled_bands(monkeypatch, pencil, lams)):
        dense = (a + lam * m).toarray()
        rows, cols = np.nonzero(dense)
        assert np.abs(rows - cols).max() == kd
        np.testing.assert_array_equal(band, _band_of(dense, kd))


@pytest.mark.parametrize("case", ["poisson", "grid", "bart"])
def test_pencil_shift_matches_sparse_sum(monkeypatch, case):
    prob = grid_problem() if case == "grid" else gen_poisson(40, 3)
    variant = "bart" if case == "bart" else "proposed"
    m = sps.identity(prob.n, format="csr") if case == "bart" else prob.m.mat
    pencil = _pencil(prob, variant)
    assert _pencil(prob, variant) is pencil
    assert pencil[0] is prob.a.mat
    assert (pencil[1] is prob.m.mat) == (case != "bart")
    _assert_bands_match_sums(monkeypatch, pencil, prob.a.mat, m,
                             np.array([1e-3, 0.7, 3.0, 2.5e4]))


def test_pencil_shift_drops_exact_cancellation(monkeypatch, counted_splu):
    # Off-diagonals cancel at lam = 2, and M stores an explicit zero where
    # A has no entry: scipy's sum drops both, and so must the sparse LU's
    # input; the explicit zero does not widen the band either. With
    # BAND_LIMIT = 0 the same kd = 1 pencil takes the sparse LU.
    n = 5
    off = np.ones(n - 1)
    a = sps.diags([-off, np.full(n, 4.0), -off], [-1, 0, 1], format="csr")
    m = sps.diags([0.5 * off, np.full(n, 2.0), 0.5 * off], [-1, 0, 1],
                  format="lil")
    m[0, 3] = m[3, 0] = 1.0
    m = sps.csr_matrix(m)
    m.data[m.data == 1.0] = 0.0

    def problem():
        return LyapunovProblem(SpdSparseMatrix(a), SpdSparseMatrix(m),
                               np.ones(n))

    prob = problem()
    assert 0.0 in prob.m.mat.data
    lam = np.float64(2.0)
    ref = (prob.a.mat + lam * prob.m.mat).tocsc()
    assert ref.nnz == n
    assert _pencil(prob, "proposed")[2][0] == 1
    monkeypatch.setattr(precond, "BAND_LIMIT", 0)
    pencil = _pencil(problem(), "proposed")
    assert pencil[2] is None
    precond._factor_shifts(pencil, np.array([lam]))
    [(mat, _)] = counted_splu["factors"]
    _assert_same_csc(mat, ref)


def test_splu_pencil_forms_each_shift_on_one_pattern(counted_splu):
    # Wider than BAND_LIMIT, A and M are kept in CSC on the union of their
    # patterns, so a shift is formed from their data alone, and it is
    # (A + lam M).tocsc() bit for bit.
    prob = grid_problem(12, perm_seed=0)
    a, m, band = _pencil(prob, "proposed")
    assert band is None and a.format == m.format == "csc"
    for name in ("indptr", "indices"):
        assert np.shares_memory(getattr(a, name), getattr(m, name))
    lams = np.array([0.5, 30.0])
    precond._factor_shifts((a, m, band), lams)
    assert len(counted_splu["factors"]) == lams.size
    for (mat, _), lam in zip(counted_splu["factors"], lams):
        _assert_same_csc(mat, (prob.a.mat + lam * prob.m.mat).tocsc())


def test_pencil_rebuilt_when_matrix_is_rebound(monkeypatch):
    prob = gen_poisson(30, 4)
    first = _pencil(prob, "proposed")
    prob.a.mat = 2.0 * prob.a.mat
    second = _pencil(prob, "proposed")
    assert second is not first
    assert second[0] is prob.a.mat
    _assert_bands_match_sums(monkeypatch, second, prob.a.mat, prob.m.mat,
                             np.array([0.5]))


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_non_finite_input_raises_value_error(metric):
    prob, at, rng = _poisson_point()
    bad = random_horizontal(metric, at, rng)
    bad[0, 0] = np.nan
    cache = build_shift_cache(prob, at)
    with pytest.raises(ValueError, match="infs or NaNs"):
        apply_cached(cache, metric, bad)
    with pytest.raises(ValueError, match="infs or NaNs"):
        at.solve_gram(bad[:3])


# -------------------------------------------------------- preconditioner


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_preconditioner_linearity(metric):
    prob, at, rng = _poisson_point()
    eta = random_horizontal(metric, at, rng)
    one = apply_preconditioner(metric, prob, at, eta)
    two = apply_preconditioner(metric, prob, at, 2.0 * eta)
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
    xi = apply_preconditioner(metric, prob, at, eta)
    back = project_horizontal(metric, at,
                              dominant_term_action(metric, prob, at, xi))
    assert np.linalg.norm(back - eta) <= 1e-8 * np.linalg.norm(eta)


def test_bart_matches_proposed_on_identity_mass():
    prob, at, rng = _poisson_point(n=60, identity_mass=True)
    for metric in ALL_METRICS:
        eta = random_horizontal(metric, at, rng)
        ours = apply_preconditioner(metric, prob, at, eta)
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
    hess = hessian_action(metric, prob, at, eta)
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
        return hessian_action(metric, prob, at, v)

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
            he = hessian_action(metric, prob, at, e)
            for i, f in enumerate(basis):
                mat[i, j] = metric_inner(metric, at, he, f)
        mat = 0.5 * (mat + mat.T)
        assert np.linalg.eigvalsh(mat)[0] > 0.0


# ------------------------------------------------------------ sparse work


class _CountingLU:
    """Factor stand-in that counts its solves and their right-hand-side
    columns."""

    def __init__(self, lu, counts):
        self.lu = lu
        self.counts = counts

    def solve(self, rhs):
        self.counts["calls"] += 1
        self.counts["cols"] += 1 if rhs.ndim == 1 else rhs.shape[1]
        return self.lu.solve(rhs)


@pytest.fixture
def counted_splu(monkeypatch):
    counts = {"factors": [], "calls": 0, "cols": 0}

    def splu(mat, **kwargs):
        lu = general_splu(mat, **kwargs)
        counts["factors"].append((mat, lu))
        return _CountingLU(lu, counts)

    monkeypatch.setattr(precond.sps_la, "splu", splu)
    return counts


@pytest.fixture
def counted_band(monkeypatch):
    """The band shape of every pbtrf call, and the band and right-hand-side
    shapes and the sweep ("N" forward, "T" back) of every tbtrs call."""
    counts = {"factors": [], "solves": []}
    pbtrf, tbtrs = precond._PBTRF, precond._TBTRS

    def factor(ab, **kwargs):
        counts["factors"].append(ab.shape)
        return pbtrf(ab, **kwargs)

    def solve(chol, rhs, **kwargs):
        counts["solves"].append((chol.shape, rhs.shape, kwargs["trans"]))
        return tbtrs(chol, rhs, **kwargs)

    monkeypatch.setattr(precond, "_PBTRF", factor)
    monkeypatch.setattr(precond, "_TBTRS", solve)
    return counts


def _wide_grid_point(variant, p=3):
    """A grid point whose pencil is wider than BAND_LIMIT, so its shifts
    go to splu."""
    out = _grid_point(variant, side=12, p=p, perm_seed=0)
    assert _pencil(out[0], variant)[2] is None
    return out


@pytest.mark.parametrize("variant", ["proposed", "bart"])
def test_build_and_apply_sparse_work(counted_splu, counted_band, variant):
    prob, at, rng, _ = _wide_grid_point(variant, p=4)
    p = at.p
    cache = build_shift_cache(prob, at, variant=variant)
    # p factorizations and the p columns of Z_i per shift, in one call per
    # shift; K_i is formed from the Z_i without a solve
    assert len(counted_splu["factors"]) == p
    assert counted_splu["cols"] == p * p
    assert counted_splu["calls"] == p
    counted_splu["cols"] = 0
    apply_cached(cache, Metric.EMBEDDED,
                 random_horizontal(Metric.EMBEDDED, at, rng))
    assert counted_splu["cols"] == p
    assert counted_band["factors"] == []
    assert counted_band["solves"] == []
    for mat, lu in counted_splu["factors"]:
        # a symmetric permutation: no row was pivoted away from its column
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
        # and an ordering of A + A^T that fills in less on the 2-D grid
        # than splu's general default (COLAMD, partial pivoting)
        assert lu.nnz < general_splu(mat).nnz


@pytest.mark.parametrize("variant", ["proposed", "bart"])
def test_band_build_and_apply_work(counted_splu, counted_band, variant):
    prob, at, rng, _ = _grid_point(variant, p=4)
    n, p = at.n, at.p
    kd = _pencil(prob, variant)[2][0]
    cache = build_shift_cache(prob, at, variant=variant)
    # one pbtrf of the p shifts stacked in a (kd + 1)-by-(n p) band, and
    # one forward sweep for every G_i = L_i^{-1} vhat: p columns on each
    # shift's block; K_i is formed from the G_i without a further sweep
    band = (kd + 1, n * p)
    assert counted_band["factors"] == [band]
    assert counted_band["solves"] == [(band, (n * p, p), "N")]
    counted_band["solves"].clear()
    apply_cached(cache, Metric.EMBEDDED,
                 random_horizontal(Metric.EMBEDDED, at, rng))
    # one forward and one back sweep, each solving column i with shift i:
    # p columns of length n
    assert counted_band["solves"] == [(band, (n * p,), "N"),
                                      (band, (n * p,), "T")]
    assert counted_splu["factors"] == []


@pytest.mark.parametrize("variant", ["proposed", "bart"])
@pytest.mark.parametrize("backend", ["band", "splu"])
def test_derived_j_blocks_equal_constrained_solves(backend, variant):
    # K_i = 2 (E^T S_i^{-1} E - diag(lam)) is formed in closed form; it
    # must equal 2 lam_i I - lq^T U^T J_i with J_i the explicit saddle solve
    # of R_J = 2 (I - vhat vhat^T) U lq with shift i
    point_of = _grid_point if backend == "band" else _wide_grid_point
    prob, at, rng, _ = point_of(variant)
    assert (_pencil(prob, variant)[2] is None) == (backend == "splu")
    cache = build_shift_cache(prob, at, variant=variant)
    u = prob.a.mat @ at.y
    r_j = u @ cache.lq
    r_j = 2.0 * (r_j - cache.vhat @ (cache.vhat.T @ r_j))
    for i in range(at.p):
        j_block = saddle_solve(cache, i, r_j)[0]
        want = 2.0 * cache.lam[i] * np.eye(at.p) - cache.lq.T @ (u.T @ j_block)
        want = 0.5 * (want + want.T)
        np.testing.assert_allclose(cache.coupled.k_stack[i], want, rtol=0,
                                   atol=1e-12 * np.linalg.norm(want))


class _NanLU:
    def solve(self, rhs):
        return np.full(rhs.shape, np.nan)


def _singular(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _assert_build_fails_with_partial_trace(prob, at):
    # From a warm start the first iteration builds, so the partial trace
    # holds row 0 alone; its record counts the build that raised.
    with pytest.raises(PreconditionerError, match=r"shift \S+ failed") as err:
        solve_fixed_rank(prob, Metric.EMBEDDED, at_start_scale(prob, at.y),
                         TnewtonConfig(), "proposed")
    assert isinstance(err.value, SolverError) and \
        isinstance(err.value, RuntimeError) and err.value.trace is not None
    assert len(err.value.trace.rows) == 1
    record = err.value.trace.solves[0]
    assert (record.builds, record.steepest, record.stop) == (1, [], None)


@pytest.mark.parametrize("splu", [_singular, lambda *a, **k: _NanLU()],
                         ids=["raises", "non-finite"])
def test_failed_shift_factorization_keeps_partial_trace(monkeypatch, splu):
    prob, at, rng, _ = _wide_grid_point("proposed")
    monkeypatch.setattr(precond.sps_la, "splu", splu)
    _assert_build_fails_with_partial_trace(prob, at)


@pytest.mark.parametrize("lapack", [
    ("_PBTRF", lambda ab, **k: (ab, 2)),
    ("_TBTRS", lambda chol, rhs, **k: (np.full(rhs.shape, np.nan), 0)),
], ids=["pbtrf-info", "non-finite"])
def test_failed_band_factorization_keeps_partial_trace(monkeypatch, lapack):
    prob, at, rng, _ = _grid_point("proposed")
    monkeypatch.setattr(precond, *lapack)
    _assert_build_fails_with_partial_trace(prob, at)


def _middle_shift_fails(monkeypatch, backend):
    """Make the second of the 3 shifts factored indefinite in the chosen
    backend; returns the problem, the point and that shift's lambda, as a
    solve's build names it. On the splu path the solve's builds snap the
    shifts to the shift bank's grid, where shifts 0 and 1 of this point
    share one factor, so the second factored is shift 2. "split-band"
    puts each shift in a band of its own; "splu-raises" makes the sparse
    LU of the second shift raise."""
    splu = backend.startswith("splu")
    point_of = _wide_grid_point if splu else _grid_point
    prob, at, rng, _ = point_of("proposed")
    lam = np.unique(build_shift_cache(prob, at, bank={}).lam)
    n = at.n
    calls = []
    if splu:
        def factor(mat, **kwargs):
            calls.append(mat)
            if len(calls) != 2:
                return general_splu(mat, **kwargs)
            if backend == "splu-raises":
                _singular()
            return general_splu(-mat, **kwargs)

        monkeypatch.setattr(precond.sps_la, "splu", factor)
        return prob, at, lam[1]
    if backend == "split-band":
        kd = _pencil(prob, "proposed")[2][0]
        monkeypatch.setattr(precond, "STACK_LIMIT", (kd + 1) * n)
    per = 1 if backend == "split-band" else 3
    band, block = divmod(1, per)
    pbtrf = precond._PBTRF

    def factor(ab, **kwargs):
        if len(calls) == band:
            ab[0, block * n + n - 1] = -1.0  # last diagonal entry of shift 1
        calls.append(ab.shape)
        return pbtrf(ab, **kwargs)

    monkeypatch.setattr(precond, "_PBTRF", factor)
    return prob, at, lam[1]


@pytest.mark.parametrize("backend",
                         ["band", "split-band", "splu", "splu-raises"])
def test_indefinite_middle_shift_is_named_with_partial_trace(monkeypatch,
                                                             backend):
    # the band fails in pbtrf at shift 1's last column; the negated LU
    # factors, but its Schur complement is negative definite; the raising
    # LU fails at the second shift factored. The record counts every shift
    # handed to a factorization, the one that failed included: the whole
    # stack of 3 in one band, else the 2 shifts factored one at a time.
    prob, at, lam = _middle_shift_fails(monkeypatch, backend)
    reason = {"splu": "potrf failed",
              "splu-raises": "Factor is exactly singular"}.get(
        backend, f"pbtrf failed with info {at.n}")
    message = f"shift {lam:.3e} failed to factor: {reason}"
    with pytest.raises(PreconditionerError, match=re.escape(message)) as err:
        solve_fixed_rank(prob, Metric.EMBEDDED, at_start_scale(prob, at.y),
                         TnewtonConfig(), "proposed")
    assert len(err.value.trace.rows) == 1
    assert err.value.trace.solves[0].factorizations == (
        3 if backend == "band" else 2)


def test_failed_build_after_a_probe_step_keeps_its_row(monkeypatch):
    # From the cold random start the first iteration steps along -grad
    # with no build, so the failing build is the second iteration's; the
    # partial trace keeps the probe step's row, and its nH counts the
    # actions of both probes, the one that stepped and the one that failed
    prob, at, rng, _ = _grid_point("proposed")
    monkeypatch.setattr(precond, "_PBTRF", lambda ab, **k: (ab, 2))
    with pytest.raises(PreconditionerError, match=r"shift \S+ failed") as err:
        solve_fixed_rank(prob, Metric.EMBEDDED, at.y, TnewtonConfig(),
                         "proposed")
    trace = err.value.trace
    assert [(row.k, row.inner_iters) for row in trace.rows] == [(0, 0), (1, 1)]
    assert trace.final().nH == 2
    record = trace.solves[0]
    assert (record.builds, record.steepest, record.stop) == (1, [1], None)


def _per_column_apply(problem, cache, metric, eta):
    """apply_cached with every constrained shifted solve, those of the J_i
    included, done one column at a time by helpers.saddle_solve."""
    point = cache.point
    y, lq, vhat = point.y, cache.lq, cache.vhat
    u = problem.a.mat @ y
    p = point.p
    t = precond._defining_rhs(metric, point, eta)
    tm = t @ lq
    tm = tm - vhat @ (vhat.T @ tm)
    tvec = np.column_stack([saddle_solve(cache, i, tm[:, i])[0]
                            for i in range(p)])
    r_j = u @ lq
    r_j = 2.0 * (r_j - vhat @ (vhat.T @ r_j))
    j_blocks = [np.column_stack([saddle_solve(cache, i, r_j[:, k])[0]
                                 for k in range(p)]) for i in range(p)]
    k_blocks = [2.0 * cache.lam[i] * np.eye(p) - lq.T @ (u.T @ j)
                for i, j in enumerate(j_blocks)]
    coupled = CoupledSystem([0.5 * (k + k.T) for k in k_blocks])
    vmat = lq.T @ (u.T @ tvec)
    r_small = lq.T @ (y.T @ t) @ lq - vmat - vmat.T
    s_tilde = coupled.solve(0.5 * (r_small + r_small.T))
    z_tilde = tvec - np.column_stack([j @ s_tilde[:, i]
                                      for i, j in enumerate(j_blocks)])
    xi = y @ (lq @ s_tilde @ lq.T) + z_tilde @ lq.T
    return project_horizontal(metric, point, xi)


@pytest.mark.parametrize("variant", ["proposed", "bart"])
@pytest.mark.parametrize("backend", ["band", "splu"])
def test_apply_matches_per_column_saddle_solves(backend, variant):
    point_of = _grid_point if backend == "band" else _wide_grid_point
    prob, at, rng, _ = point_of(variant, p=4)
    assert (_pencil(prob, variant)[2] is None) == (backend == "splu")
    cache = build_shift_cache(prob, at, variant=variant)
    for metric in ALL_METRICS:
        eta = random_horizontal(metric, at, rng)
        want = _per_column_apply(prob, cache, metric, eta)
        np.testing.assert_allclose(apply_cached(cache, metric, eta), want,
                                   rtol=0, atol=1e-12 * np.linalg.norm(want))


# ----------------------------------------------------------- band shifts


def _band_of(dense, kd):
    """LAPACK lower band storage of a dense symmetric matrix."""
    n = dense.shape[0]
    ab = np.zeros((kd + 1, n), order="F")
    for d in range(kd + 1):
        ab[d, :n - d] = np.diagonal(dense, -d)
    return ab


@pytest.mark.parametrize("case", ["poisson", "grid"])
def test_stacked_band_factor_equals_per_shift_pbtrf(monkeypatch, case):
    # the couplings between shifts are zero in the stacked band, so each
    # shift's block of the one factorization is its own pbtrf, bit for bit
    prob = grid_problem(7) if case == "grid" else gen_poisson(40, 3)
    pencil = _pencil(prob, "proposed")
    kd, n = pencil[2][0], prob.n
    lams = np.array([1e-3, 0.7, 3.0, 2.5e4])
    pbtrf = spla.get_lapack_funcs("pbtrf", dtype=np.float64)
    chols = []

    def factor(ab, **kwargs):
        chol, info = pbtrf(ab, **kwargs)
        chols.append(chol)
        return chol, info

    monkeypatch.setattr(precond, "_PBTRF", factor)
    precond._factor_shifts(pencil, lams)
    assert [chol.shape for chol in chols] == [(kd + 1, n * lams.size)]
    stacked = chols[0]
    for i, lam in enumerate(lams):
        dense = (prob.a.mat + lam * prob.m.mat).toarray()
        chol, info = pbtrf(_band_of(dense, kd), lower=1)
        assert info == 0
        np.testing.assert_array_equal(stacked[:, i * n:(i + 1) * n], chol)


def test_band_stacks_split_at_stack_limit(monkeypatch, counted_band):
    # a stack that would exceed STACK_LIMIT entries is split into bands of
    # as many whole shifts as fit, one pbtrf per band and one forward and
    # one back sweep per band in an apply, with the results of the single
    # stack
    prob, at, rng, _ = _grid_point("proposed", p=3)
    n = at.n
    kd = _pencil(prob, "proposed")[2][0]
    eta = random_horizontal(Metric.EMBEDDED, at, rng)
    whole = build_shift_cache(prob, at)
    want = apply_cached(whole, Metric.EMBEDDED, eta)
    monkeypatch.setattr(precond, "STACK_LIMIT", 2 * (kd + 1) * n + 1)
    counted_band["factors"].clear()
    split = build_shift_cache(prob, at)
    assert counted_band["factors"] == [(kd + 1, 2 * n), (kd + 1, n)]
    np.testing.assert_array_equal(split.g_stack, whole.g_stack)
    counted_band["solves"].clear()
    got = apply_cached(split, Metric.EMBEDDED, eta)
    assert counted_band["solves"] == [
        ((kd + 1, 2 * n), (2 * n,), sweep) if first else
        ((kd + 1, n), (n,), sweep)
        for sweep in "NT" for first in (True, False)]
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-13 * np.linalg.norm(want))


@pytest.mark.parametrize("variant", ["proposed", "bart"])
@pytest.mark.parametrize("case", ["poisson", "grid"])
def test_band_solve_matches_splu(case, variant):
    prob = grid_problem(7) if case == "grid" else gen_poisson(40, 3)
    pencil = _pencil(prob, variant)
    a, m, _ = pencil
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal((prob.n, 3))
    lams = np.array([1e-3, 0.7, 3.0, 2.5e4])
    half, rest = precond._factor_shifts(pencil, lams)

    def solve(rhs):
        return rest(half(rhs))

    n = prob.n
    got = solve(np.tile(rhs, (lams.size, 1)))
    got_col = solve(np.tile(rhs[:, 0], lams.size))
    for i, lam in enumerate(lams):
        want = general_splu((a + lam * m).tocsc()).solve(rhs)
        block = slice(i * n, (i + 1) * n)
        np.testing.assert_allclose(got[block], want, rtol=0,
                                   atol=1e-12 * np.linalg.norm(want))
        np.testing.assert_allclose(got_col[block], want[:, 0], rtol=0,
                                   atol=1e-12 * np.linalg.norm(want[:, 0]))


def _two_band_matrix(n, dist):
    """Diagonally dominant SPD matrix: a tridiagonal plus one symmetric
    pair of entries dist apart."""
    mat = sps.diags([-np.ones(n - 1), np.full(n, 4.0), -np.ones(n - 1)],
                    [-1, 0, 1], format="lil")
    mat[0, dist] = mat[dist, 0] = 0.5
    return SpdSparseMatrix(mat)


def test_shift_factorization_follows_half_bandwidth(counted_splu,
                                                    counted_band):
    # gen_poisson is tridiagonal (kd = 1), the natural-order grid has
    # kd = side + 1, and the permuted grid is wider than BAND_LIMIT
    cases = [(gen_poisson(50, 0), 1), (grid_problem(7), 8),
             (grid_problem(12, perm_seed=0), None)]
    for prob, kd in cases:
        band = _pencil(prob, "proposed")[2]
        assert (None if band is None else band[0]) == kd
        at = FactorPoint(np.random.default_rng(0).standard_normal((prob.n, 2)))
        counted_splu["factors"].clear()
        counted_band["factors"].clear()
        build_shift_cache(prob, at)
        # two splu factorizations, or one pbtrf of the two stacked shifts
        assert len(counted_splu["factors"]) == (2 if kd is None else 0)
        assert counted_band["factors"] == (
            [] if kd is None else [(kd + 1, 2 * prob.n)])
    n = precond.BAND_LIMIT + 10
    for dist in (precond.BAND_LIMIT, precond.BAND_LIMIT + 1):
        a = _two_band_matrix(n, dist)
        prob = LyapunovProblem(a, a, np.ones(n))
        band = _pencil(prob, "proposed")[2]
        if dist <= precond.BAND_LIMIT:
            assert band[0] == dist
        else:
            assert band is None


def test_band_cholesky_rejects_indefinite_shift():
    pencil = _pencil(gen_poisson(30, 0), "proposed")
    with pytest.raises(PreconditionerError, match="pbtrf failed"):
        precond._factor_shifts(pencil, np.array([-1e9]))


# ------------------------------------------------------------ shift bank


def _snapped(lam):
    """Each shift at the nearest point of the shift bank's log grid."""
    k = precond.BANK_PER_DECADE
    return 10.0 ** (np.round(k * np.log10(lam)) / k)


def _banked_grid_point(p):
    """A point on 8 lines of 20 points (n = 160, kd = 21), where a solve's
    builds share a shift bank."""
    prob = grid_problem(20, rows=8)
    assert _pencil(prob, "proposed")[2][0] >= precond.BANK_KD
    at = FactorPoint(np.random.default_rng(11).standard_normal((prob.n, p)))
    return prob, at


def test_banked_build_snaps_every_shift_to_the_grid():
    prob, at = _banked_grid_point(p=3)
    exact = build_shift_cache(prob, at)
    banked = build_shift_cache(prob, at, bank={})
    np.testing.assert_array_equal(banked.lam, _snapped(exact.lam))
    assert not np.array_equal(banked.lam, exact.lam)
    np.testing.assert_array_equal(banked.lq, exact.lq)
    assert np.abs(np.log10(banked.lam / exact.lam)).max() <= (
        0.5 / precond.BANK_PER_DECADE)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_banked_operator_is_self_adjoint_and_positive_definite(metric):
    # The banked cache is the exact inverse of the dominant term with
    # Y^T A Y replaced by lq^{-T} diag(lam~) lq^{-1}: self-adjoint and
    # positive definite. At p = 1 here lam and lam~ differ by a factor
    # 1.088, and the banked operator is within that factor of the exact
    # inverse (checked under the Euclidean metric, whose assembly is the
    # cheapest).
    prob, at = _banked_grid_point(p=1)
    banked, _ = assemble_precond_operator_dense(metric, prob, at, bank={})
    assert np.abs(banked - banked.T).max() <= 1e-9 * np.abs(banked).max()
    sym = 0.5 * (banked + banked.T)
    assert np.linalg.eigvalsh(sym)[0] > 0.0
    if metric != Metric.EUCLIDEAN:
        return
    exact, _ = assemble_precond_operator_dense(metric, prob, at)
    ratios = spla.eigh(sym, 0.5 * (exact + exact.T), eigvals_only=True)
    lam = build_shift_cache(prob, at).lam[0]
    snapped = build_shift_cache(prob, at, bank={}).lam[0]
    bound = max(lam / snapped, snapped / lam)
    assert bound > 1.05
    assert 1.0 / bound <= ratios.min() and ratios.max() <= bound


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_banked_operator_on_a_wider_grid_is_self_adjoint_and_definite(
        metric):
    # 19 lines of 20 points (n = 380, kd = 21, banked; a 19-by-19 grid has
    # kd = 20 and is not): the assembly's Gram-matrix form takes this
    # dimension in well under a second, where one metric_inner call per
    # entry took seconds.
    prob = grid_problem(20, rows=19)
    assert _pencil(prob, "proposed")[2][0] >= precond.BANK_KD
    at = FactorPoint(np.random.default_rng(11).standard_normal((prob.n, 1)))
    banked, basis = assemble_precond_operator_dense(metric, prob, at,
                                                    bank={})
    assert len(basis) == prob.n
    assert np.abs(banked - banked.T).max() <= 1e-9 * np.abs(banked).max()
    assert np.linalg.eigvalsh(0.5 * (banked + banked.T))[0] > 0.0


@pytest.mark.parametrize("backend", ["band", "splu"])
def test_bank_factors_a_grid_shift_as_the_exact_path(monkeypatch, backend):
    # Shifts already on the grid snap to themselves, and the bank factors
    # each in a band (or an LU) of its own, bit for bit as the exact path
    # factors it in its stack, so both solve bit for bit alike.
    prob = grid_problem(16) if backend == "band" else grid_problem(
        12, perm_seed=0)
    pencil = _pencil(prob, "proposed")
    assert (pencil[2] is None) == (backend == "splu")
    lams = 10.0 ** (np.array([-3.0, 5.0, 13.0, 30.0])
                    / precond.BANK_PER_DECADE)
    np.testing.assert_array_equal(_snapped(lams), lams)
    factors = []
    if backend == "band":
        pbtrf = precond._PBTRF

        def factor(ab, **kwargs):
            chol, info = pbtrf(ab, **kwargs)
            factors.append(chol)
            return chol, info

        monkeypatch.setattr(precond, "_PBTRF", factor)
    exact = precond._factor_shifts(pencil, lams)
    stacked = factors[:]
    bank = {}
    banked = precond._factor_shifts(pencil, lams, bank)
    assert sorted(bank) == list(lams)
    if backend == "band":
        assert [chol.shape[1] for chol in stacked] == [lams.size * prob.n]
        np.testing.assert_array_equal(np.hstack(factors[1:]), stacked[0])
    rhs = np.random.default_rng(5).standard_normal((lams.size * prob.n, 2))
    for got, want in zip(banked, exact):
        # a sweep of a band of one shift rounds apart from one of a stack
        want = want(rhs)
        np.testing.assert_allclose(got(rhs), want, rtol=0,
                                   atol=1e-14 * np.linalg.norm(want))


def test_bank_keeps_the_factors_of_the_current_build(counted_band):
    # A build factors the snapped shifts its bank lacks, one band each,
    # reuses the others and drops those it does not use; the record counts
    # the factorizations made. A build at the same point again factors
    # nothing and gives the same cache, bit for bit.
    prob, at = _banked_grid_point(p=3)
    band = (_pencil(prob, "proposed")[2][0] + 1, prob.n)
    bank, record = {}, SolveRecord(3)
    first = build_shift_cache(prob, at, bank=bank, record=record)
    made = len(set(first.lam))
    assert sorted(bank) == sorted(set(first.lam))
    assert record.factorizations == made
    assert counted_band["factors"] == [band] * made
    again = build_shift_cache(prob, at, bank=bank, record=record)
    assert record.factorizations == made
    assert len(counted_band["factors"]) == made
    for name in ("lam", "g_stack", "s_inv", "e"):
        np.testing.assert_array_equal(getattr(again, name),
                                      getattr(first, name))
    np.testing.assert_array_equal(again.coupled.k_stack,
                                  first.coupled.k_stack)
    # two smooth grid modes in place of columns 1 and 2 give two shifts
    # far below the others
    y = at.y.copy()
    for col in (1, 2):
        y[:, col] = np.kron(*(np.sin(np.pi * freq * np.arange(1, k + 1)
                                     / (k + 1))
                              for freq, k in ((1, 8), (col + 1, 20))))
    other = build_shift_cache(prob, FactorPoint(y), bank=bank, record=record)
    missing = set(other.lam) - set(first.lam)
    assert set(other.lam) & set(first.lam) and missing
    assert set(first.lam) - set(other.lam)
    assert sorted(bank) == sorted(set(other.lam))
    assert record.factorizations == made + len(missing)


def test_banked_solve_reproduces_itself():
    # The builds of a solve share its bank, which starts empty, so a solve
    # repeats bit for bit, and makes fewer factorizations than p a build.
    prob, at = _banked_grid_point(p=3)
    runs = [solve_fixed_rank(prob, Metric.EMBEDDED, at.y, TnewtonConfig(),
                             "proposed") for _ in range(2)]
    digests = [trace_audit.trace_digest(trace, point.y)
               for point, trace in runs]
    assert digests[0] == digests[1]
    trace = runs[0][1]
    record = trace.solves[0]
    assert runs[1][1].solves[0] == record
    assert record.stop == "gradient"
    assert 0 < record.factorizations < at.p * record.builds
