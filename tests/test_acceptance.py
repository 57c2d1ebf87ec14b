"""Acceptance suite: eleven end-to-end correctness and performance gates.

Each test pins one advertised guarantee of the package with its stated
tolerance and prints a one-line summary with the measured numbers (visible
under pytest -s; the -v test names give the per-criterion pass/fail lines).
"""

import time

import numpy as np
import pytest
import scipy.sparse as sps

from lyapfactor import (
    FactorPoint,
    IrrConfig,
    Metric,
    TnewtonConfig,
    dense_oracle_solve,
    gen_poisson,
    hessian_action,
    relative_residual,
    residual_fro,
    riemannian_gradient,
    solve_fixed_rank,
    solve_increasing_rank,
)
from lyapfactor.manifold import (
    cost,
    dominant_term_action,
    project_horizontal,
    retract,
)
from lyapfactor.tnewton import tpcg

from helpers import (
    ALL_METRICS,
    apply_preconditioner,
    assemble_precond_operator_dense,
    dense_residual,
    hnorm,
    kron_solve,
    metric_inner,
    random_horizontal,
    random_problem,
)


def test_criterion_01_dense_oracle_matches_kronecker_solve():
    # 20 seeded instances, n in 20..100, s in {1, 2}: the dense oracle
    # agrees with the n^2 x n^2 Kronecker solve to 1e-10 relative,
    # in under 10 seconds total.
    t0 = time.perf_counter()
    worst = 0.0
    for i, n in enumerate(np.linspace(20, 100, 20).astype(int)):
        rng = np.random.default_rng(100 + i)
        problem = random_problem(int(n), 1 + i % 2, rng)
        x_oracle = dense_oracle_solve(problem)
        x_kron = kron_solve(problem)
        rel = (np.linalg.norm(x_oracle - x_kron, "fro")
               / np.linalg.norm(x_kron, "fro"))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"criterion 1: PASS worst rel err {worst:.2e} <= 1e-10, "
          f"{elapsed:.1f}s < 10s")


def test_criterion_02_compressed_residual_matches_dense():
    # 50 seeded trials, n <= 300: residual_fro equals the densely formed
    # residual norm to 1e-10 relative.
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(20, 301))
        problem = random_problem(n, 1 + seed % 2, rng)
        p = int(rng.integers(1, 6))
        y = rng.standard_normal((n, p))
        fast = residual_fro(problem, FactorPoint(y))
        dense = dense_residual(problem, y)
        worst = max(worst, abs(fast - dense) / dense)
    assert worst <= 1e-10
    print(f"criterion 2: PASS worst rel err {worst:.2e} <= 1e-10 "
          "over 50 trials")


def test_criterion_03_gradient_duality_and_hessian_self_adjointness():
    # Finite-difference duality at h = 1e-5 within 1e-6 relative for all
    # three metrics, 10 instances each; Hessian self-adjointness 1e-9.
    h = 1e-5
    worst_dual = 0.0
    worst_sym = 0.0
    for metric in ALL_METRICS:
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(20, 41))
            problem = random_problem(n, 1 + seed % 2, rng)
            at = FactorPoint(rng.standard_normal((n, 2 + seed % 2)))
            xi = random_horizontal(metric, at, rng)
            xi = xi / hnorm(metric, at, xi)

            slope = (cost(problem, retract(at, xi, h))
                     - cost(problem, retract(at, xi, -h))) / (2.0 * h)
            grad = riemannian_gradient(metric, problem, at)
            paired = metric_inner(metric, at, grad, xi)
            worst_dual = max(worst_dual,
                             abs(slope - paired) / abs(paired))

            eta = random_horizontal(metric, at, rng)
            h_xi = hessian_action(metric, problem, at, xi)
            h_eta = hessian_action(metric, problem, at, eta)
            lhs = metric_inner(metric, at, h_xi, eta)
            rhs = metric_inner(metric, at, xi, h_eta)
            scale = (hnorm(metric, at, h_xi) * hnorm(metric, at, eta)
                     + hnorm(metric, at, xi) * hnorm(metric, at, h_eta))
            worst_sym = max(worst_sym, abs(lhs - rhs) / scale)
    assert worst_dual <= 1e-6
    assert worst_sym <= 1e-9
    print(f"criterion 3: PASS duality {worst_dual:.2e} <= 1e-6, "
          f"self-adjointness {worst_sym:.2e} <= 1e-9")


def test_criterion_04_tpcg_identities_hold():
    # Conjugacy, residual orthogonality and the delta recursion of the
    # inner solver on random SPD operators, dim <= 30, identity
    # preconditioner, to 1e-9 relative.
    worst_conj = 0.0
    worst_orth = 0.0
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        dim = int(rng.integers(8, 31))
        w = rng.standard_normal((dim, dim))
        hmat = w @ w.T + dim * np.eye(dim)
        g = rng.standard_normal((dim, 1))
        record = []
        tpcg(g, lambda v: hmat @ v, lambda v: v, 1e-12, 1e-10,
             record=record)
        assert len(record) >= 2
        g0 = np.linalg.norm(g)
        d_max = max(np.linalg.norm(s["d"]) for s in record)
        for i in range(len(record)):
            step = record[i]
            np.testing.assert_allclose(
                step["delta"], float(np.sum(step["d"] * step["d"])),
                rtol=1e-9)
            for j in range(i):
                conj = abs(float(np.sum(record[i]["d"] * record[j]["q"])))
                orth = abs(float(np.sum(record[i]["r"] * record[j]["y"])))
                worst_conj = max(
                    worst_conj,
                    conj / (np.linalg.norm(record[j]["q"]) * d_max))
                worst_orth = max(
                    worst_orth,
                    orth / (g0 * np.linalg.norm(record[j]["y"])))
    assert worst_conj <= 1e-9
    assert worst_orth <= 1e-9
    print(f"criterion 4: PASS conjugacy {worst_conj:.2e}, "
          f"orthogonality {worst_orth:.2e} <= 1e-9")


def test_criterion_05_preconditioner_solves_its_defining_equation():
    # Substituting the preconditioner output back into the dominant-term
    # equation reproduces the input to 1e-8 relative on poisson
    # n in {50, 100, 200}, p in {2, 3, 5}; self-adjointness 1e-9.
    worst_sub = 0.0
    worst_sym = 0.0
    for n in (50, 100, 200):
        problem = gen_poisson(n, 0)
        for p in (2, 3, 5):
            rng = np.random.default_rng(n + p)
            at = FactorPoint(rng.standard_normal((n, p)))
            eta = random_horizontal(Metric.EMBEDDED, at, rng)
            xi = apply_preconditioner(Metric.EMBEDDED, problem, at, eta)
            back = project_horizontal(
                Metric.EMBEDDED, at,
                dominant_term_action(Metric.EMBEDDED, problem, at, xi))
            worst_sub = max(worst_sub,
                            np.linalg.norm(back - eta)
                            / np.linalg.norm(eta))

            zeta = random_horizontal(Metric.EMBEDDED, at, rng)
            pz = apply_preconditioner(Metric.EMBEDDED, problem, at, zeta)
            pe = apply_preconditioner(Metric.EMBEDDED, problem, at, eta)
            lhs = metric_inner(Metric.EMBEDDED, at, pe, zeta)
            rhs = metric_inner(Metric.EMBEDDED, at, eta, pz)
            scale = (hnorm(Metric.EMBEDDED, at, pe)
                     * hnorm(Metric.EMBEDDED, at, zeta)
                     + hnorm(Metric.EMBEDDED, at, eta)
                     * hnorm(Metric.EMBEDDED, at, pz))
            worst_sym = max(worst_sym, abs(lhs - rhs) / scale)
    assert worst_sub <= 1e-8
    assert worst_sym <= 1e-9
    print(f"criterion 5: PASS substitution {worst_sub:.2e} <= 1e-8, "
          f"self-adjointness {worst_sym:.2e} <= 1e-9")


def test_criterion_06_inverse_spectrum_within_pencil_bounds():
    # Eigenvalues of the operator the preconditioner inverts lie inside
    # the spectrum of kron(M, A) + kron(A, M) within 1e-8 * lambda_max,
    # for n <= 20, p <= 3, 10 seeds.
    margin = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 21))
        p = int(rng.integers(1, 4))
        problem = random_problem(n, 1, rng)
        at = FactorPoint(rng.standard_normal((n, p)))
        big = (sps.kron(problem.m.mat, problem.a.mat)
               + sps.kron(problem.a.mat, problem.m.mat)).toarray()
        lam = np.linalg.eigvalsh(big)
        tol = 1e-8 * lam[-1]
        mat, _ = assemble_precond_operator_dense(Metric.EMBEDDED, problem,
                                                 at)
        evals = 1.0 / np.linalg.eigvalsh(mat)
        assert np.all(evals >= lam[0] - tol)
        assert np.all(evals <= lam[-1] + tol)
        margin = max(margin,
                     max(float(lam[0] - evals.min()),
                         float(evals.max() - lam[-1])) / lam[-1])
    print(f"criterion 6: PASS 10 seeds inside bounds, worst overshoot "
          f"{margin:.2e} <= 1e-8 relative")


def test_criterion_07_preconditioner_cuts_hessian_actions_tenfold():
    # poisson n = 2000, p = 3, general mass, identical seeds: the
    # preconditioned solve needs at most a tenth of the Hessian actions
    # of the unpreconditioned one; under 60 s.
    t0 = time.perf_counter()
    problem = gen_poisson(2000, 0)
    y0 = np.random.default_rng(1).standard_normal((2000, 3))
    counts = {}
    for precond in ("none", "proposed"):
        _, trace = solve_fixed_rank(problem, Metric.EMBEDDED,
                                    FactorPoint(y0.copy()),
                                    TnewtonConfig(), precond)
        counts[precond] = trace.final().nH
    elapsed = time.perf_counter() - t0
    assert counts["proposed"] <= counts["none"] / 10.0
    assert elapsed < 60.0
    print(f"criterion 7: PASS nH none={counts['none']} "
          f"proposed={counts['proposed']} "
          f"(ratio {counts['none'] / counts['proposed']:.0f}x >= 10x), "
          f"{elapsed:.1f}s < 60s")


def test_criterion_08_proposed_never_behind_bart():
    # nH(proposed) <= nH(bart) on general mass instances; within 5% on
    # identity mass, where the two constructions coincide.
    results = {}
    for n in (300, 2000):
        problem = gen_poisson(n, 0)
        y0 = np.random.default_rng(1).standard_normal((n, 3))
        for precond in ("proposed", "bart"):
            _, trace = solve_fixed_rank(problem, Metric.EMBEDDED,
                                        FactorPoint(y0.copy()),
                                        TnewtonConfig(), precond)
            results[(n, precond)] = trace.final().nH
        assert results[(n, "proposed")] <= results[(n, "bart")]

    problem = gen_poisson(1000, 0, identity_mass=True)
    y0 = np.random.default_rng(1).standard_normal((1000, 3))
    for precond in ("proposed", "bart"):
        _, trace = solve_fixed_rank(problem, Metric.EMBEDDED,
                                    FactorPoint(y0.copy()),
                                    TnewtonConfig(), precond)
        results[("id", precond)] = trace.final().nH
    assert results[("id", "proposed")] <= 1.05 * results[("id", "bart")]
    assert results[("id", "bart")] <= 1.05 * results[("id", "proposed")]
    print("criterion 8: PASS general nH proposed/bart "
          f"{results[(300, 'proposed')]}/{results[(300, 'bart')]} (n=300), "
          f"{results[(2000, 'proposed')]}/{results[(2000, 'bart')]} "
          f"(n=2000); identity {results[('id', 'proposed')]}/"
          f"{results[('id', 'bart')]} within 5%")


def test_criterion_09_superlinear_tail_of_gradient_norms():
    # phi_k = min(0.1, ||grad||) on poisson n = 500: the last three
    # gradient-norm ratios decrease strictly and the final one is below 0.1.
    problem = gen_poisson(500, 0)
    for seed in (0, 1, 2):
        y0 = FactorPoint(np.random.default_rng(seed)
                         .standard_normal((500, 3)))
        _, trace = solve_fixed_rank(problem, Metric.EMBEDDED, y0,
                                    TnewtonConfig(),
                                    "proposed")
        g = trace.column("gradnorm")
        ratios = [g[i + 1] / g[i] for i in range(len(g) - 1)]
        last3 = ratios[-3:]
        assert len(last3) == 3
        assert last3[0] > last3[1] > last3[2]
        assert last3[2] < 0.1
    print(f"criterion 9: PASS last ratios {last3[0]:.2e} > {last3[1]:.2e} "
          f"> {last3[2]:.2e} < 0.1 (3 seeds)")


def test_criterion_10_increasing_rank_end_to_end():
    # poisson n = 500, tau = 1e-6: terminates with the target met, cost
    # descends across every rank transition, the reported final residual
    # matches a dense recomputation to 1e-9 relative; under 120 s.
    t0 = time.perf_counter()
    problem = gen_poisson(500, 0)
    point, trace = solve_increasing_rank(
        problem, Metric.EMBEDDED,
        IrrConfig(p_min=1, p_max=40, tau=1e-6, seed=0), None, "proposed")
    elapsed = time.perf_counter() - t0
    final = trace.final()
    assert final.relres <= 1e-6

    f = trace.column("f")
    p = trace.column("p")
    for i in range(1, len(p)):
        if p[i] != p[i - 1]:
            assert f[i] < f[i - 1]

    a = problem.a.mat.toarray()
    m = problem.m.mat.toarray()
    x = point.y @ point.y.T
    c = problem.b @ problem.b.T
    dense_rel = (np.linalg.norm(a @ x @ m + m @ x @ a - c, "fro")
                 / np.linalg.norm(c, "fro"))
    assert abs(dense_rel - final.relres) / dense_rel <= 1e-9
    assert elapsed < 120.0
    print(f"criterion 10: PASS rank {final.p} relres {final.relres:.2e} "
          f"<= 1e-6, dense match {abs(dense_rel - final.relres) / dense_rel:.1e}"
          f" <= 1e-9, {elapsed:.0f}s < 120s")


def test_criterion_11_final_rank_close_to_best_low_rank():
    # poisson n = 800 with rank-1 right-hand side: the final-rank
    # residual is within 10x of the truncated-eigendecomposition
    # best-rank-p residual of the dense solution.
    problem = gen_poisson(800, 0)
    point, trace = solve_increasing_rank(
        problem, Metric.EMBEDDED,
        IrrConfig(p_min=1, p_max=30, tau=1e-6, seed=0), None, "proposed")
    x_star = dense_oracle_solve(problem)
    vals, vecs = np.linalg.eigh(x_star)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    factors = vecs * np.sqrt(np.clip(vals, 0.0, None))
    rank = point.y.shape[1]
    best = relative_residual(problem, factors[:, :rank])
    achieved = trace.final().relres
    assert achieved <= 10.0 * best
    print(f"criterion 11: PASS rank {rank} achieved {achieved:.2e} <= "
          f"10 x best {best:.2e} (ratio {achieved / best:.2f})")
