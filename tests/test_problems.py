"""Problem types, generators, residuals, dense oracle, Matrix Market IO."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import identity_problem, kron_solve, rand_spd_banded, random_problem
from lyapfactor import (
    FactorPoint,
    LyapunovProblem,
    MatrixMarketError,
    SpdSparseMatrix,
    dense_oracle_solve,
    gen_poisson,
    load_manifest,
    load_matrix_market,
    relative_residual,
    residual_fro,
    save_matrix_market,
    save_problem,
)


# ---------------------------------------------------------------- types


def test_spd_rejects_asymmetric():
    mat = sps.csr_matrix(np.array([[2.0, 1.0], [0.5, 2.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
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


def test_problem_rejects_non_finite_rhs():
    eye = SpdSparseMatrix(sps.identity(6, format="csr"))
    b = np.ones((6, 2))
    b[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        LyapunovProblem(eye, eye, b)


def test_factor_point_requires_full_rank():
    y = np.zeros((5, 2))
    y[:, 0] = 1.0
    assert not FactorPoint(y).has_full_rank
    assert FactorPoint(np.eye(5)[:, :2]).has_full_rank


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
                        SpdSparseMatrix)
def rejected(make):
    try:
        make()
    except ValueError:
        return True
    return False
a = SpdSparseMatrix(sps.identity(6, format="csr"))
m = SpdSparseMatrix(sps.identity(5, format="csr"))
deficient = FactorPoint(np.ones((6, 2)))
print(__debug__, rejected(lambda: IrrConfig(p_min=5, p_max=2)),
      rejected(lambda: LyapunovProblem(a, m, np.ones((6, 1)))),
      rejected(lambda: deficient.solve_gram(np.eye(2))),
      rejected(lambda: deficient.solve_gram_right(np.eye(2))),
      rejected(lambda: SolveTrace().final()),
      rejected(lambda: SpdSparseMatrix(sps.diags(np.r_[np.ones(599), np.inf]))),
      rejected(lambda: LyapunovProblem(a, a, np.full((6, 1), np.inf))))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] + ["True"] * 7


def test_oracle_rejects_large_problems():
    rng = np.random.default_rng(15)
    prob = random_problem(30, 1, rng)
    with pytest.raises(ValueError):
        dense_oracle_solve(prob, dense_limit=10)


def test_kronecker_operator_is_spd():
    # the n^2 x n^2 operator kron(M, A) + kron(A, M) underlying the equation
    rng = np.random.default_rng(16)
    for trial in range(3):
        n = int(rng.integers(3, 20))
        prob = random_problem(n, 1, rng)
        big = (sps.kron(prob.m.mat, prob.a.mat)
               + sps.kron(prob.a.mat, prob.m.mat)).toarray()
        assert np.linalg.eigvalsh(big).min() > 0.0


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


@pytest.mark.parametrize("content,fragment", [
    ("", "empty"),
    ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0\n",
     "complex"),
    ("%%MatrixMarket matrix coordinate real symmetric\n", "size"),
    ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n5 1 1.0\n",
     "out of range"),
    ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n",
     "expected 2 entries"),
    ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 x\n",
     "entry"),
    ("%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n",
     "bad.mtx:2: symmetric array must be square"),
])
def test_matrix_market_parse_errors_carry_location(tmp_path, content, fragment):
    path = os.path.join(tmp_path, "bad.mtx")
    with open(path, "w") as fh:
        fh.write(content)
    other = os.path.join(tmp_path, "ok.mtx")
    save_matrix_market(other, sps.identity(2, format="csr"))
    b_path = os.path.join(tmp_path, "b.mtx")
    save_matrix_market(b_path, np.ones((2, 1)))
    with pytest.raises(MatrixMarketError) as info:
        load_matrix_market(path, other, b_path)
    assert fragment in str(info.value)
    assert os.path.basename(path) in str(info.value)


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
