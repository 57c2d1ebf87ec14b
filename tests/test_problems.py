"""Problem types, generators, residuals, dense oracle, Matrix Market IO."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (identity_problem, kron_solve, poisson_reference,
                     rand_spd_banded, random_problem)
from lyapfactor import (
    FactorPoint,
    LyapunovProblem,
    MatrixMarketError,
    Metric,
    SpdSparseMatrix,
    TnewtonConfig,
    cost,
    dense_oracle_solve,
    gen_poisson,
    load_manifest,
    load_matrix_market,
    relative_residual,
    residual_fro,
    riemannian_gradient,
    save_matrix_market,
    save_problem,
    solve_fixed_rank,
)
from lyapfactor import problems


# ---------------------------------------------------------------- types


def test_spd_rejects_asymmetric():
    mat = sps.csr_matrix(np.array([[2.0, 1.0], [0.5, 2.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        SpdSparseMatrix(mat)


def test_spd_asymmetry_error_carries_the_pair():
    mat = sps.csr_matrix(np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 1.0],
                                   [0.0, 0.5, 2.0]]))
    with pytest.raises(ValueError, match=re.escape("(1, 2) and (2, 1)")) as info:
        SpdSparseMatrix(mat)
    assert info.value.pair == (1, 2)


@pytest.mark.parametrize("mat", [
    sps.identity(3, format="csr") * (1.0 + 2j),
    sps.coo_matrix(np.eye(3) + 0j),
    np.eye(3) + 2j,
], ids=["csr", "coo-zero-imaginary", "dense"])
def test_spd_rejects_complex_input(mat):
    # the imaginary part is not dropped with a ComplexWarning
    with pytest.raises(ValueError, match="matrix must be real, not complex"):
        SpdSparseMatrix(mat)


def test_spd_rejects_indefinite():
    mat = sps.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="not positive definite"):
        SpdSparseMatrix(mat)


def test_spd_rejects_nonsquare():
    with pytest.raises(ValueError):
        SpdSparseMatrix(sps.csr_matrix(np.ones((2, 3))))


@pytest.mark.parametrize("n,value", [(10, np.nan), (600, np.inf)])
def test_spd_rejects_non_finite(n, value):
    # a NaN passes both the symmetry and the eigenvalue test, and n = 600
    # is above the dense definiteness check
    mat = sps.lil_matrix(sps.identity(n, format="csr"))
    mat[n // 2, n // 2] = value
    with pytest.raises(ValueError, match="non-finite"):
        SpdSparseMatrix(mat)


def test_spd_rejects_dense_indefinite_at_check_limit():
    # kd = n - 1: the band Cholesky is a dense one. The corner pair makes
    # the principal 2-by-2 block of rows 0 and n - 1 indefinite, so only
    # the whole matrix fails.
    n = problems.SPD_CHECK_LIMIT
    mat = sps.lil_matrix(sps.identity(n))
    mat[0, n - 1] = mat[n - 1, 0] = 2.0
    with pytest.raises(ValueError, match=(
            f"not positive definite \\(its leading {n}-by-{n} block is not")):
        SpdSparseMatrix(mat)


def test_spd_rejects_tridiagonal_indefinite_at_its_first_bad_block():
    # rows 3 and 4 (0-based) couple by 2.0 on a unit diagonal: the leading
    # 5-by-5 block is the first that is not positive definite
    off = np.r_[0.0, 0.0, 0.0, 2.0, 0.0, 0.0]
    mat = sps.diags([off, np.ones(7), off], [-1, 0, 1])
    with pytest.raises(ValueError, match="leading 5-by-5 block is not"):
        SpdSparseMatrix(mat)


def test_spd_accepts_an_explicit_zero_on_one_side():
    # (0, 1) stores 0.0 and (1, 0) nothing: the CSR arrays differ from the
    # transpose's, and the exact subtraction finds no mismatch
    mat = sps.csr_matrix((np.array([2.0, 0.0, 2.0]), np.array([0, 1, 1]),
                          np.array([0, 2, 3])), shape=(2, 2))
    assert problems._asymmetric_entry(mat) is None
    np.testing.assert_array_equal(SpdSparseMatrix(mat).mat.toarray(),
                                  2.0 * np.eye(2))


@pytest.mark.parametrize("second,pair", [(0.5, None), (0.25, "(0, 1) and (1, 0)")],
                         ids=["symmetric-sums", "asymmetric-sums"])
def test_spd_sums_duplicate_entries_before_its_checks(second, pair):
    # (0, 1) is stored twice; its sum meets (1, 0) = 1.0 only for 0.5.
    # Neither a float csr_matrix nor a csr_array shares or changes the
    # caller's arrays.
    arrays = (np.array([2.0, 0.5, second, 1.0, 2.0, 2.0]),
              np.array([0, 1, 1, 0, 1, 2], dtype=np.int32),
              np.array([0, 3, 5, 6], dtype=np.int32))
    for container in (sps.csr_matrix, sps.csr_array):
        dup = container(tuple(x.copy() for x in arrays), shape=(3, 3))
        if pair is None:
            mat = SpdSparseMatrix(dup).mat
            assert type(mat) is sps.csr_matrix and mat.has_canonical_format
            np.testing.assert_array_equal(
                mat.toarray(),
                [[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
            problem = LyapunovProblem(SpdSparseMatrix(dup),
                                      SpdSparseMatrix(dup), np.ones(3))
            for name in ("data", "indices", "indptr"):
                assert not np.shares_memory(getattr(problem.a.mat, name),
                                            getattr(dup, name))
        else:
            with pytest.raises(ValueError,
                               match=f"entries {re.escape(pair)} differ"):
                SpdSparseMatrix(dup)
        # neither check sums the caller's arrays in place
        problems._asymmetric_entry(dup)
        assert dup.nnz == 6 and not dup.has_canonical_format
        for got, given in zip((dup.data, dup.indices, dup.indptr), arrays):
            np.testing.assert_array_equal(got, given)


def test_spd_check_forms_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense definiteness check")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(sps.csr_matrix, "toarray", refuse)
    n = problems.SPD_CHECK_LIMIT
    gen_poisson(n, 0)
    dense = np.random.default_rng(4).standard_normal((n, n))
    SpdSparseMatrix(sps.csr_matrix(dense @ dense.T + n * np.eye(n)))


@pytest.mark.parametrize("last,verdict", [
    (1.0, "leading 10-by-10 block is not"),
    (1.0 + 2.0 ** -52, None),
], ids=["singular", "last-pivot-2^-52"])
def test_spd_verdict_within_rounding_of_a_zero_eigenvalue(last, verdict):
    # The 1-D Neumann Laplacian (-1, 2, -1) with corner diagonal 1 is
    # singular; its Cholesky pivots are exactly 1 up to the last, which is
    # last - 1 exactly, so the factorization decides without rounding:
    # singular for last = 1, positive definite with smallest eigenvalue
    # about 2.2e-17 for last = 1 + 2^-52. A dense eigvalsh is within
    # rounding of 0 on both and may give either sign: measured with
    # numpy's LAPACK it read +1.1e-17 and -1.7e-17, the opposite verdicts.
    main = np.r_[1.0, np.full(8, 2.0), last]
    mat = sps.diags([-np.ones(9), main, -np.ones(9)], [-1, 0, 1])
    if verdict is None:
        SpdSparseMatrix(mat)
    else:
        with pytest.raises(ValueError, match=verdict):
            SpdSparseMatrix(mat)


def test_problem_rejects_non_finite_rhs():
    eye = SpdSparseMatrix(sps.identity(6, format="csr"))
    b = np.ones((6, 2))
    b[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        LyapunovProblem(eye, eye, b)


@pytest.mark.parametrize("y, message", [
    (np.ones(5), "factor must be a 2d array"),
    (np.ones((5, 0)), "factor must have at least one column"),
])
def test_factor_point_rejects_bad_shapes(y, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FactorPoint(y)


def test_solve_gram_rejects_a_rank_deficient_factor():
    with pytest.raises(ValueError, match="^factor is rank deficient$"):
        FactorPoint(np.ones((5, 2))).solve_gram(np.eye(2))


def test_factor_point_requires_full_rank():
    y = np.zeros((5, 2))
    y[:, 0] = 1.0
    assert not FactorPoint(y).has_full_rank
    assert FactorPoint(np.eye(5)[:, :2]).has_full_rank


def test_exactly_parallel_columns_lack_full_rank():
    # The rounded Gram matrix of [y, 3 y] factors without error, to a last
    # pivot of rounding size (L_22^2 / G_22 = 1.3e-16): that pivot, not the
    # sign of its rounding error, decides that the factor lacks full rank.
    y = np.random.default_rng(0).standard_normal((40, 1))
    point = FactorPoint(np.hstack([y, 3.0 * y]))
    assert not point.has_full_rank
    with pytest.raises(ValueError, match="^factor is rank deficient$"):
        point.solve_gram(np.eye(2))


@pytest.mark.parametrize("b", [np.ones((6, 1)) * (1.0 + 1j),
                               np.ones(6, dtype=complex)],
                         ids=["column", "one-dimensional"])
def test_problem_rejects_complex_rhs(b):
    # the imaginary part is not dropped with a ComplexWarning
    eye = SpdSparseMatrix(sps.identity(6, format="csr"))
    with pytest.raises(ValueError, match="B must be real, not complex"):
        LyapunovProblem(eye, eye, b)


def test_problem_rejects_rhs_without_columns():
    eye = SpdSparseMatrix(sps.identity(6, format="csr"))
    with pytest.raises(ValueError, match="B must have at least one column"):
        LyapunovProblem(eye, eye, np.ones((6, 0)))


@pytest.mark.parametrize("shape", [(4, 1), (4,)],
                         ids=["column", "one-dimensional"])
def test_problem_keeps_its_own_copy_of_rhs(shape):
    # editing the caller's array afterwards leaves the problem as built
    eye = SpdSparseMatrix(sps.identity(4, format="csr"))
    b = np.ones(shape)
    problem = LyapunovProblem(eye, eye, b)
    y = np.ones((4, 1)) / np.sqrt(2.0)
    before = relative_residual(problem, y)
    b[:] = 5.0
    assert not np.shares_memory(problem.b, b)
    assert relative_residual(problem, y) == before
    assert before < 1e-15


def test_problem_dimension_checks():
    a = rand_spd_banded(6, np.random.default_rng(0))
    m = rand_spd_banded(5, np.random.default_rng(1))
    with pytest.raises(ValueError):
        LyapunovProblem(a, m, np.ones((6, 1)))
    with pytest.raises(ValueError):
        LyapunovProblem(a, a, np.ones((5, 1)))


# ------------------------------------------------------------- residual


def test_residual_zero_factor_equals_rhs_norm():
    rng = np.random.default_rng(3)
    prob = random_problem(12, 2, rng)
    want = np.linalg.norm(prob.b.T @ prob.b, "fro")
    got = residual_fro(prob, np.zeros((12, 3)))
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_residual_identity_instance_is_zero():
    # A = M = I, C = 2I: X = I solves the equation exactly.
    eye = SpdSparseMatrix(sps.identity(2, format="csr"))
    prob = LyapunovProblem(eye, eye, np.sqrt(2.0) * np.eye(2))
    assert residual_fro(prob, np.eye(2)) <= 1e-14


def test_residual_matches_dense_formation():
    rng = np.random.default_rng(5)
    prob = random_problem(50, 2, rng)
    y = rng.standard_normal((50, 3))
    x = y @ y.T
    a = prob.a.mat.toarray()
    m = prob.m.mat.toarray()
    dense = np.linalg.norm(a @ x @ m + m @ x @ a - prob.b @ prob.b.T, "fro")
    np.testing.assert_allclose(residual_fro(prob, y), dense, rtol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_residual_matches_dense_formation_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    prob = random_problem(n, int(rng.integers(1, 4)), rng)
    y = rng.standard_normal((n, int(rng.integers(1, 4))))
    x = y @ y.T
    a = prob.a.mat.toarray()
    m = prob.m.mat.toarray()
    dense = np.linalg.norm(a @ x @ m + m @ x @ a - prob.b @ prob.b.T, "fro")
    assert abs(residual_fro(prob, y) - dense) <= 1e-10 * max(1.0, dense)


def test_relative_residual_zero_factor_is_one():
    rng = np.random.default_rng(7)
    prob = random_problem(9, 2, rng)
    np.testing.assert_allclose(relative_residual(prob, np.zeros((9, 2))), 1.0,
                               rtol=1e-14)


def test_relative_residual_exact_solution_is_zero():
    rng = np.random.default_rng(8)
    ystar = rng.standard_normal((15, 2))
    prob = identity_problem(15, ystar)
    assert relative_residual(prob, ystar) <= 1e-13


def test_relative_residual_zero_rhs_raises():
    eye = SpdSparseMatrix(sps.identity(3, format="csr"))
    prob = LyapunovProblem(eye, eye, np.zeros((3, 1)))
    with pytest.raises(ValueError, match="zero right-hand side"):
        relative_residual(prob, np.eye(3)[:, :1])


# --------------------------------------------------------- dense oracle


def test_oracle_identity_pencil_halves_rhs():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((8, 2))
    eye = SpdSparseMatrix(sps.identity(8, format="csr"))
    prob = LyapunovProblem(eye, eye, b)
    np.testing.assert_allclose(dense_oracle_solve(prob), b @ b.T / 2.0,
                               atol=1e-14)


def test_oracle_zero_rhs_gives_zero():
    rng = np.random.default_rng(12)
    prob = LyapunovProblem(rand_spd_banded(7, rng), rand_spd_banded(7, rng),
                           np.zeros((7, 1)))
    np.testing.assert_allclose(dense_oracle_solve(prob), np.zeros((7, 7)),
                               atol=1e-15)


def test_oracle_matches_kronecker_solve():
    rng = np.random.default_rng(13)
    prob = random_problem(20, 2, rng)
    x_oracle = dense_oracle_solve(prob)
    x_kron = kron_solve(prob)
    err = np.linalg.norm(x_oracle - x_kron) / np.linalg.norm(x_kron)
    assert err <= 1e-10


def test_oracle_output_symmetric_psd_and_solves():
    rng = np.random.default_rng(14)
    for trial in range(5):
        n = int(rng.integers(5, 40))
        prob = random_problem(n, int(rng.integers(1, 3)), rng)
        x = dense_oracle_solve(prob)
        assert np.linalg.norm(x - x.T) <= 1e-12 * max(1.0, np.linalg.norm(x))
        evals = np.linalg.eigvalsh(x)
        assert evals.min() >= -1e-10 * max(1.0, abs(evals).max())
        a = prob.a.mat.toarray()
        m = prob.m.mat.toarray()
        res = np.linalg.norm(a @ x @ m + m @ x @ a - prob.b @ prob.b.T)
        assert res <= 1e-8 * np.linalg.norm(prob.b.T @ prob.b)


def test_input_validation_survives_optimized_interpreter():
    # Checks of caller input must not be asserts, which `python -O` strips.
    script = """
import numpy as np, scipy.sparse as sps
from lyapfactor import (FactorPoint, IrrConfig, LyapunovProblem, SolveTrace,
                        SpdSparseMatrix, gen_poisson, increasing_rank)
def rejected(make, error=ValueError):
    try:
        make()
    except error:
        return True
    return False
class NoJitter:
    def standard_normal(self, shape):
        return np.zeros(shape)
# seed directions in range(Y) and a zero jitter: still rank deficient
increasing_rank._padded_column_seed = lambda problem, point, p_inc: (
    point.y[:, :p_inc].copy())
start = FactorPoint(np.random.default_rng(0).standard_normal((20, 2)))
a = SpdSparseMatrix(sps.identity(6, format="csr"))
m = SpdSparseMatrix(sps.identity(5, format="csr"))
deficient = FactorPoint(np.ones((6, 2)))
print(__debug__, rejected(lambda: IrrConfig(p_min=5, p_max=2)),
      rejected(lambda: LyapunovProblem(a, m, np.ones((6, 1)))),
      rejected(lambda: deficient.solve_gram(np.eye(2))),
      rejected(lambda: deficient.solve_gram_right(np.eye(2))),
      rejected(lambda: SolveTrace().final()),
      rejected(lambda: SpdSparseMatrix(sps.diags(np.r_[np.ones(599), np.inf]))),
      rejected(lambda: LyapunovProblem(a, a, np.full((6, 1), np.inf))),
      rejected(lambda: increasing_rank.warm_start(
          gen_poisson(20, 0), start, 1, NoJitter()), RuntimeError))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] + ["True"] * 8


def test_library_has_no_assert_statement():
    # `python -O` strips asserts, so no check of the library may be one.
    package = pathlib.Path(problems.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_matrix_checks_reject_under_optimized_interpreter():
    # The symmetry, definiteness, finiteness and size checks raise, also
    # where `python -O` strips asserts.
    script = """
import numpy as np, scipy.sparse as sps
from lyapfactor import LyapunovProblem, SpdSparseMatrix
def message(make):
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return "accepted"
eye = SpdSparseMatrix(sps.identity(3))
print(message(lambda: SpdSparseMatrix(sps.csr_matrix([[2.0, 1.0], [0.5, 2.0]]))))
print(message(lambda: SpdSparseMatrix(sps.csr_matrix([[1.0, 2.0], [2.0, 1.0]]))))
print(message(lambda: SpdSparseMatrix(sps.csr_matrix([[1.0, 0.0], [0.0, np.nan]]))))
print(message(lambda: LyapunovProblem(eye, SpdSparseMatrix(sps.identity(2)),
                                      np.ones(3))))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "matrix is not symmetric: entries (0, 1) and (1, 0) differ",
        "matrix is not positive definite (its leading 2-by-2 block is not)",
        "matrix has a non-finite entry",
        "A and M must have the same size",
    ]


def test_oracle_rejects_large_problems():
    limit = problems.DENSE_LIMIT
    prob = gen_poisson(limit + 1, 0)
    with pytest.raises(ValueError, match=f"^dense solve refused for "
                       f"n = {limit + 1} > {limit}$"):
        dense_oracle_solve(prob)


def test_oracle_rejects_an_indefinite_pencil():
    # A = diag(-1, 1, ..., 1) above the size up to which SpdSparseMatrix
    # checks definiteness, so that it is taken on trust.
    n = problems.SPD_CHECK_LIMIT + 1
    a = SpdSparseMatrix(sps.diags(np.r_[-1.0, np.ones(n - 1)]))
    m = SpdSparseMatrix(sps.identity(n, format="csr"))
    with pytest.raises(ValueError, match="^pencil must be positive definite$"):
        dense_oracle_solve(LyapunovProblem(a, m, np.ones(n)))


def test_kronecker_operator_is_spd():
    # the n^2 x n^2 operator kron(M, A) + kron(A, M) underlying the equation
    rng = np.random.default_rng(16)
    for trial in range(3):
        n = int(rng.integers(3, 20))
        prob = random_problem(n, 1, rng)
        big = (sps.kron(prob.m.mat, prob.a.mat)
               + sps.kron(prob.a.mat, prob.m.mat)).toarray()
        assert np.linalg.eigvalsh(big).min() > 0.0


# ---------------------------------------------------- cost along a line


def _grid_problem(side, seed):
    """5-point stiffness and consistent mass on a side-by-side grid."""
    h = 1.0 / (side + 1)
    ones = np.ones(side - 1)
    t = sps.diags([-ones, np.full(side, 2.0), -ones], [-1, 0, 1]) / (h * h)
    mh = sps.diags([ones, np.full(side, 4.0), ones], [-1, 0, 1]) / 6.0
    eye = sps.identity(side)
    b = np.random.default_rng(seed).standard_normal((side * side, 1))
    return LyapunovProblem(SpdSparseMatrix(sps.kron(t, eye) + sps.kron(eye, t)),
                           SpdSparseMatrix(sps.kron(mh, mh)), b)


def _extended_cost(problem, y):
    """The cost in extended precision, from dense copies of A, M and B."""
    a, m, b = (np.asarray(x, dtype=np.longdouble) for x in
               (problem.a.mat.toarray(), problem.m.mat.toarray(), problem.b))
    by = b.T @ y
    return np.sum((y.T @ (a @ y)) * (y.T @ (m @ y))) - np.sum(by * by)


@pytest.mark.parametrize("case", ["poisson", "grid"])
@pytest.mark.parametrize("seed", [0, 1])
def test_cost_quartic_matches_direct_cost_differences(case, seed):
    # Along a random line, and along a short steepest descent line from a
    # point near a fixed-rank solution, where the cost's terms cancel:
    # wherever |Delta| is far above the rounding bound eps(alpha), the
    # quartic's Delta(alpha) is the cost difference along the exact line,
    # formed in extended precision wherever that resolves it, and the
    # difference of two costs of the library wherever those resolve it:
    # each cost rounds relative to the magnitude of its terms,
    # sum |Y^T A Y * Y^T M Y| + ||B^T Y||^2, which near a solution is a
    # few times |f|. Near the solution the quartic certifies differences
    # below the rounding of the cost itself.
    problem = gen_poisson(200, seed) if case == "poisson" \
        else _grid_problem(14, seed)
    rng = np.random.default_rng(seed + 10)
    y = 1e-3 * rng.standard_normal((problem.n, 3))
    solved, _ = solve_fixed_rank(problem, Metric.EMBEDDED, y,
                                 TnewtonConfig(grad_tol_rel=1e-8), "proposed")
    grad = riemannian_gradient(Metric.EMBEDDED, problem, solved)
    lines = [(y, 1e-3 * rng.standard_normal(y.shape)),
             (solved.y, -1e-4 * np.linalg.norm(solved.y)
              / np.linalg.norm(grad) * grad)]
    resolution = 1e13 * np.finfo(np.longdouble).eps
    counts = np.zeros(3, dtype=int)
    for base, d in lines:
        line = FactorPoint(base).products(problem).line(d)
        exact = (np.asarray(base, dtype=np.longdouble),
                 np.asarray(d, dtype=np.longdouble))
        f0 = _extended_cost(problem, exact[0])
        prod = FactorPoint(base).products(problem)
        terms = (np.sum(np.abs((base.T @ prod.u) * (base.T @ prod.v)))
                 + np.sum(prod.by * prod.by))
        for alpha in [s * 10.0 ** k for k in range(-6, 3) for s in (1, -1)]:
            delta = line.delta(alpha)
            if not abs(delta) > 1e3 * line.bound(alpha):
                continue
            if abs(delta) > resolution * abs(f0):
                direct = _extended_cost(problem, exact[0] + alpha * exact[1])
                assert abs(delta - float(direct - f0)) <= 1e-10 * abs(delta)
                counts[0] += 1
            fresh = (cost(problem, FactorPoint(base + alpha * d))
                     - cost(problem, FactorPoint(base)))
            if abs(delta) > 1e-4 * terms:
                assert abs(delta - fresh) <= 1e-10 * abs(delta)
                counts[1] += 1
            counts[2] += abs(delta) < np.finfo(float).eps * abs(f0)
    assert counts[0] >= 12 and counts[1] >= 6 and counts[2] >= 1


@given(st.integers(0, 2**32 - 1), st.integers(-3, 3))
@settings(max_examples=50, deadline=None)
def test_cost_quartic_minimizer_on_descent_lines(seed, exponent):
    # Along a random line whose slope c1 is negative (c4 = tr(D^T A D
    # D^T M D) > 0 for any D != 0), the first positive minimizer alpha*
    # exists, the derivative vanishes there relative to its terms, the
    # curvature is positive, and the cost falls monotonically up to it, so
    # no alpha in (0, alpha*) gives a lower difference.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 30))
    prob = random_problem(n, int(rng.integers(1, 4)), rng)
    p = int(rng.integers(1, 4))
    y = rng.standard_normal((n, p))
    d = 10.0 ** exponent * rng.standard_normal((n, p))
    products = FactorPoint(y).products(prob)
    line = products.line(d)
    if line.coeffs[0] > 0.0:
        line = products.line(-d)
    c1, c2, c3, c4 = line.coeffs
    assert c1 < 0.0 < c4
    star = line.minimizer
    assert star is not None and star > 0.0
    slope = (c1, 2.0 * c2 * star, 3.0 * c3 * star**2, 4.0 * c4 * star**3)
    assert abs(sum(slope)) <= 1e-8 * sum(abs(t) for t in slope)
    assert 2.0 * c2 + 6.0 * c3 * star + 12.0 * c4 * star**2 > 0.0
    terms = sum(abs(c) * star**k for k, c in enumerate(line.coeffs, 1))
    floor = line.delta(star) - 64.0 * np.finfo(float).eps * terms
    for alpha in star * np.linspace(0.0, 1.0, 41)[1:-1]:
        assert line.delta(alpha) >= floor


# ------------------------------------------------------------ generator


def test_poisson_n4_stencil_values():
    prob = gen_poisson(4, 0)
    a = prob.a.mat.toarray()
    np.testing.assert_allclose(np.diag(a), np.full(4, 50.0))
    np.testing.assert_allclose(np.diag(a, 1), np.full(3, -25.0))
    np.testing.assert_allclose(np.diag(a, -1), np.full(3, -25.0))
    assert a[0, 2] == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2, 99])
def test_poisson_mass_last_entry_and_range(seed):
    prob = gen_poisson(6, seed)
    d = prob.m.mat.diagonal()
    assert d[-1] == 0.1
    assert np.all(d >= 0.1) and np.all(d < 1.1)


def test_poisson_deterministic():
    p1 = gen_poisson(17, 5)
    p2 = gen_poisson(17, 5)
    assert (p1.a.mat != p2.a.mat).nnz == 0
    assert (p1.m.mat != p2.m.mat).nnz == 0
    np.testing.assert_array_equal(p1.b, p2.b)


@pytest.mark.parametrize("identity_mass", [False, True],
                         ids=["random-mass", "identity-mass"])
@pytest.mark.parametrize("n", [2, 3, 100, 501])
def test_poisson_equals_diags_reference(n, identity_mass):
    # the CSR arrays written directly are those of the sps.diags build,
    # bit for bit and dtype for dtype, and so is B
    for seed in (0, 1, 7, 108):
        prob = gen_poisson(n, seed, identity_mass)
        ref = poisson_reference(n, seed, identity_mass)
        for got, want in zip((prob.a.mat, prob.m.mat), ref):
            assert type(got) is type(want) and got.shape == want.shape
            for name in ("data", "indices", "indptr"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype, name
                np.testing.assert_array_equal(g.view(np.uint8),
                                              w.view(np.uint8))
        np.testing.assert_array_equal(prob.b.view(np.uint8),
                                      ref[2].view(np.uint8))


def test_poisson_rejects_tiny_n():
    with pytest.raises(ValueError):
        gen_poisson(1, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 31, 64, 127, 256, 512])
def test_poisson_matrices_are_spd(n):
    prob = gen_poisson(n, 123)
    for mat in (prob.a.mat, prob.m.mat):
        np.linalg.cholesky(mat.toarray())
    assert prob.b.shape == (n, 1)


def test_poisson_identity_mass():
    prob = gen_poisson(5, 0, identity_mass=True)
    np.testing.assert_array_equal(prob.m.mat.toarray(), np.eye(5))


# ----------------------------------------------------------- file round trips


def test_matrix_market_identity_round_trip(tmp_path):
    eye = sps.identity(3, format="csr")
    path_a = os.path.join(tmp_path, "a.mtx")
    path_b = os.path.join(tmp_path, "b.mtx")
    save_matrix_market(path_a, eye)
    save_matrix_market(os.path.join(tmp_path, "m.mtx"), eye)
    save_matrix_market(path_b, np.ones((3, 1)))
    prob = load_matrix_market(path_a, os.path.join(tmp_path, "m.mtx"), path_b)
    np.testing.assert_array_equal(prob.a.mat.toarray(), np.eye(3))
    np.testing.assert_array_equal(prob.b, np.ones((3, 1)))


def test_matrix_market_writes_a_one_dimensional_b_as_a_column(tmp_path):
    paths = [os.path.join(tmp_path, name) for name in ("a.mtx", "b.mtx")]
    save_matrix_market(paths[0], sps.identity(4, format="csr"))
    save_matrix_market(paths[1], np.arange(1.0, 5.0))
    prob = load_matrix_market(paths[0], paths[0], paths[1])
    np.testing.assert_array_equal(prob.b, np.arange(1.0, 5.0)[:, None])


def test_problem_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    prob = random_problem(12, 2, rng)
    manifest = save_problem(os.path.join(tmp_path, "bundle"), prob)
    loaded = load_manifest(manifest)
    np.testing.assert_allclose(loaded.a.mat.toarray(), prob.a.mat.toarray(),
                               rtol=1e-15)
    np.testing.assert_allclose(loaded.m.mat.toarray(), prob.m.mat.toarray(),
                               rtol=1e-15)
    np.testing.assert_allclose(loaded.b, prob.b, rtol=1e-15)


def test_matrix_market_reads_symmetric_array_as_written_by_scipy(tmp_path):
    # the exchange format stores the lower triangle column by column,
    # n (n + 1) / 2 values
    from scipy.io import mmwrite

    rng = np.random.default_rng(22)
    w = rng.standard_normal((4, 4))
    dense = w @ w.T + 4.0 * np.eye(4)
    path_a = os.path.join(tmp_path, "a.mtx")
    mmwrite(path_a, dense, symmetry="symmetric")
    path_m = os.path.join(tmp_path, "m.mtx")
    save_matrix_market(path_m, sps.identity(4, format="csr"))
    path_b = os.path.join(tmp_path, "b.mtx")
    save_matrix_market(path_b, np.ones((4, 1)))
    prob = load_matrix_market(path_a, path_m, path_b)
    np.testing.assert_array_equal(prob.a.mat.toarray(), dense)


def _written(path):
    """The lines of a written file, and the matrix it reads back as."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    return lines, problems._parse_matrix_market(path)[2]


def test_matrix_market_writes_symmetric_sparse_as_lower_triangle(tmp_path):
    # n >= 100, where scipy's default symmetry="AUTO" would write "general"
    rng = np.random.default_rng(23)
    half = sps.random(150, 150, density=0.03, random_state=rng, format="csr")
    mat = (half + half.T + sps.identity(150)).tocsr()
    path = os.path.join(tmp_path, "a.mtx")
    save_matrix_market(path, mat)
    lines, back = _written(path)
    assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
    entries = [line.split() for line in lines[1:]
               if line and not line.startswith("%")][1:]
    assert len(entries) == sps.tril(mat).nnz
    assert all(int(i) >= int(j) for i, j, _ in entries)
    np.testing.assert_array_equal(back.toarray().view(np.int64),
                                  mat.toarray().view(np.int64))


def test_matrix_market_writes_asymmetric_sparse_as_general(tmp_path):
    rng = np.random.default_rng(24)
    mat = sps.random(12, 12, density=0.3, random_state=rng, format="csr")
    path = os.path.join(tmp_path, "g.mtx")
    save_matrix_market(path, mat)
    lines, back = _written(path)
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    np.testing.assert_array_equal(back.toarray().view(np.int64),
                                  mat.toarray().view(np.int64))


def test_matrix_market_dense_round_trip_is_exact(tmp_path):
    # A name without ".mtx" is written as given, with the comment.
    column = np.array([[-0.0], [5e-324], [2.2250738585072014e-308],
                       [1.7976931348623157e308]])
    path = os.path.join(tmp_path, "b.txt")
    save_matrix_market(path, column, comment="steel profile, input B")
    assert os.listdir(tmp_path) == ["b.txt"]
    lines, back = _written(path)
    assert lines[0] == "%%MatrixMarket matrix array real general"
    assert any(line.startswith("%") and "steel profile, input B" in line
               for line in lines[1:])
    np.testing.assert_array_equal(back.view(np.int64), column.view(np.int64))


def test_matrix_market_asymmetric_general_rejected(tmp_path):
    # general-format file whose (1,2) entry has no (2,1) partner
    path = os.path.join(tmp_path, "bad.mtx")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write("2 2 3\n1 1 2.0\n2 2 2.0\n1 2 1.0\n")
    eye_path = os.path.join(tmp_path, "m.mtx")
    save_matrix_market(eye_path, sps.identity(2, format="csr"))
    b_path = os.path.join(tmp_path, "b.mtx")
    save_matrix_market(b_path, np.ones((2, 1)))
    with pytest.raises(MatrixMarketError, match="symmetric"):
        load_matrix_market(path, eye_path, b_path)


def test_matrix_market_checks_symmetry_once_per_general_file(tmp_path,
                                                            monkeypatch):
    # a general coordinate A, a general array M and, in the last load, an
    # asymmetric general A whose error names the pair 1-based
    passes = []

    def spy(mat, check=problems._asymmetric_entry):
        passes.append(None)
        return check(mat)

    monkeypatch.setattr(problems, "_asymmetric_entry", spy)
    paths = [os.path.join(tmp_path, name) for name in ("a.mtx", "m.mtx",
                                                        "b.mtx", "bad.mtx")]
    with open(paths[0], "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n"
                 "2 2 4\n1 1 2.0\n2 1 1.0\n1 2 1.0\n2 2 2.0\n")
    save_matrix_market(paths[1], np.eye(2))
    save_matrix_market(paths[2], np.ones((2, 1)))
    with open(paths[3], "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n"
                 "2 2 3\n1 1 2.0\n2 2 2.0\n1 2 1.0\n")
    passes.clear()
    prob = load_matrix_market(*paths[:3])
    assert len(passes) == 2
    np.testing.assert_array_equal(prob.a.mat.toarray(), [[2.0, 1.0], [1.0, 2.0]])
    passes.clear()
    with pytest.raises(MatrixMarketError, match=re.escape(
            "bad.mtx: general matrix is not symmetric: entries (1, 2) and "
            "(2, 1) differ")):
        load_matrix_market(paths[3], *paths[1:3])
    assert len(passes) == 1


def test_matrix_market_writes_sparse_rectangular_b_as_general(tmp_path):
    paths = [os.path.join(tmp_path, name) for name in ("a.mtx", "b.mtx")]
    save_matrix_market(paths[0], sps.identity(3, format="csr"))
    b = sps.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]))
    save_matrix_market(paths[1], b)
    lines, _ = _written(paths[1])
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    prob = load_matrix_market(paths[0], paths[0], paths[1])
    np.testing.assert_array_equal(prob.b, b.toarray())


def _bad_file(content, fragment, bad="a"):
    """A case of test_matrix_market_parse_errors_carry_location, with
    `bad` naming the file that holds `content`; the A cases keep the ids
    pytest derives from (content, fragment)."""
    ident = f"{content}-{fragment}"
    return pytest.param(content, fragment, bad,
                        id=ident if bad == "a" else f"b:{ident}")


COORDINATE = "%%MatrixMarket matrix coordinate real general\n"
ARRAY = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize("content,fragment,bad", [
    _bad_file("", "empty"),
    _bad_file("%%MatrixMarket matrix coordinate complex general\n"
              "1 1 1\n1 1 1.0\n", "complex"),
    _bad_file("%%MatrixMarket matrix coordinate real symmetric\n", "size"),
    _bad_file("%%MatrixMarket matrix coordinate real symmetric\n"
              "2 2 1\n5 1 1.0\n", "out of range"),
    _bad_file("%%MatrixMarket matrix coordinate real symmetric\n"
              "2 2 2\n1 1 1.0\n", "expected 2 entries"),
    _bad_file("%%MatrixMarket matrix coordinate real symmetric\n"
              "2 2 1\n1 1 x\n", "entry"),
    _bad_file("%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n",
              "bad.mtx:2: symmetric array must be square"),
    _bad_file("%MatrixMarket matrix coordinate real general\n1 1 1\n",
              "bad.mtx:1: missing %%MatrixMarket header"),
    _bad_file("%%MatrixMarket vector coordinate real general\n",
              "bad.mtx:1: unsupported object 'vector'"),
    _bad_file("%%MatrixMarket matrix dense real general\n",
              "bad.mtx:1: unsupported format 'dense'"),
    _bad_file("%%MatrixMarket matrix coordinate real hermitian\n",
              "bad.mtx:1: unsupported symmetry 'hermitian'"),
    _bad_file(COORDINATE + "2 2\n", "bad.mtx:2: size line must have 3"),
    _bad_file(COORDINATE + "2 2 x\n", "bad.mtx:2: size line must be integers"),
    _bad_file(COORDINATE + "% rows\n0 2 0\n",
              "bad.mtx:3: invalid matrix dimensions"),
    _bad_file(COORDINATE + "2 2 1\n1 1\n",
              "bad.mtx:3: entry must be 'i j value'"),
    _bad_file("%%MatrixMarket matrix coordinate real symmetric\n"
              "2 2 2\n1 1 2.0\n1 2 2.0\n",
              "bad.mtx:4: symmetric file must store the lower triangle"),
    _bad_file(ARRAY + "2 2\n1\n2\n3\n",
              "bad.mtx:2: expected 4 values, found 3"),
    _bad_file(ARRAY + "2 2\n1\n2\nx\n4\n", "bad.mtx:5: malformed value"),
    _bad_file(COORDINATE + "2 3 2\n1 1 1.0\n2 2 1.0\n",
              "bad.mtx: matrix must be square, got shape (2, 3)"),
    _bad_file("%%MatrixMarket matrix array real symmetric\n2 2\n1\n0\n1\n",
              "bad.mtx: right-hand side factor must be general", bad="b"),
    _bad_file(COORDINATE + "3 1 1\n3 1 1.0\n",
              "bad.mtx: B has 3 rows but the system has 2 unknowns", bad="b"),
])
def test_matrix_market_parse_errors_carry_location(tmp_path, content, fragment,
                                                   bad):
    path = os.path.join(tmp_path, "bad.mtx")
    with open(path, "w") as fh:
        fh.write(content)
    other = os.path.join(tmp_path, "ok.mtx")
    save_matrix_market(other, sps.identity(2, format="csr"))
    b_path = os.path.join(tmp_path, "b.mtx")
    save_matrix_market(b_path, np.ones((2, 1)))
    paths = (path, other, b_path) if bad == "a" else (other, other, path)
    with pytest.raises(MatrixMarketError) as info:
        load_matrix_market(*paths)
    assert fragment in str(info.value)
    assert os.path.basename(path) in str(info.value)


def test_manifest_skips_blank_lines_and_comments(tmp_path):
    given = gen_poisson(8, 0)
    path = save_problem(tmp_path, given)
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# a comment\n\n" + text + "   \n")
    loaded = load_manifest(path)
    assert (loaded.a.mat != given.a.mat).nnz == 0
    assert (loaded.m.mat != given.m.mat).nnz == 0
    np.testing.assert_array_equal(loaded.b, given.b)


def test_manifest_missing_key(tmp_path):
    path = os.path.join(tmp_path, "problem.manifest")
    with open(path, "w") as fh:
        fh.write("a = a.mtx\nm = m.mtx\n")
    with pytest.raises(ValueError, match="missing keys: b"):
        load_manifest(path)


def test_mismatched_dimensions_rejected(tmp_path):
    save_matrix_market(os.path.join(tmp_path, "a.mtx"),
                       sps.identity(3, format="csr"))
    save_matrix_market(os.path.join(tmp_path, "m.mtx"),
                       sps.identity(2, format="csr"))
    save_matrix_market(os.path.join(tmp_path, "b.mtx"), np.ones((3, 1)))
    with pytest.raises(MatrixMarketError, match="size mismatch"):
        load_matrix_market(os.path.join(tmp_path, "a.mtx"),
                           os.path.join(tmp_path, "m.mtx"),
                           os.path.join(tmp_path, "b.mtx"))


RAIL_MANIFEST = os.environ.get(
    "LYAPFACTOR_RAIL_MANIFEST",
    os.path.join(os.path.dirname(__file__), "..", "data", "rail",
                 "problem.manifest"),
)


@pytest.mark.skipif(not os.path.exists(RAIL_MANIFEST),
                    reason="steel profile benchmark files not present")
def test_steel_profile_benchmark_loads():
    problem = load_manifest(RAIL_MANIFEST)
    assert problem.n == 1357
    assert problem.a.mat.shape == (1357, 1357)
    assert problem.m.mat.shape == (1357, 1357)


def test_blas_pinned_to_one_thread_before_numpy_import():
    # tests/conftest.py sets the thread variables; they take effect only if
    # numpy was not yet loaded when it ran.
    import conftest

    assert not conftest.NUMPY_PRELOADED
    for var in conftest.THREAD_VARS:
        assert os.environ[var] == "1"
