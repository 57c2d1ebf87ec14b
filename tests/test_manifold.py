"""Quotient geometry: metrics, projections, retraction, gradient, Hessian."""

import numpy as np
import pytest
import scipy.sparse as sps

from helpers import (
    ALL_METRICS,
    cost_reference,
    hessian_fd_oracle,
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
    build_shift_cache,
    cost,
    gen_poisson,
    horizontal_inner,
    metric_inner,
    project_horizontal,
    residual_fro,
    retract,
    riemannian_gradient,
)
from lyapfactor.manifold import (
    hessian_action,
    horizontal_basis,
    vertical_part,
)


def _instance(n=30, p=2, s=2, seed=0):
    rng = np.random.default_rng(seed)
    prob = random_problem(n, s, rng)
    at = FactorPoint(rng.standard_normal((n, p)))
    return prob, at, rng


def _skew(rng, p):
    w = rng.standard_normal((p, p))
    return (w - w.T) / 2.0


# ------------------------------------------------------------------ cost


def test_cost_zero_factor():
    prob, at, rng = _instance()
    assert cost(prob, np.zeros((30, 2))) == 0.0


def test_cost_identity_instance():
    # tr(I I) - 2 tr(I) = 2 - 4 = -2 at n = p = 2
    eye = SpdSparseMatrix(sps.identity(2, format="csr"))
    prob = LyapunovProblem(eye, eye, np.sqrt(2.0) * np.eye(2))
    np.testing.assert_allclose(cost(prob, np.eye(2)), -2.0, rtol=1e-14)


def test_cost_matches_dense_trace():
    rng = np.random.default_rng(4)
    prob = random_problem(40, 2, rng)
    y = rng.standard_normal((40, 3))
    np.testing.assert_allclose(cost(prob, y), cost_reference(prob, y),
                               rtol=1e-12)


def test_cost_orthogonal_equivariance():
    prob, at, rng = _instance(seed=9)
    q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    np.testing.assert_allclose(cost(prob, at.y @ q), cost(prob, at.y),
                               rtol=1e-12)


# ---------------------------------------------------------------- metric


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_metric_zero_argument(metric):
    prob, at, rng = _instance()
    eta = rng.standard_normal(at.y.shape)
    assert metric_inner(metric, at, np.zeros_like(eta), eta) == 0.0


def test_metric_euclidean_is_frobenius():
    prob, at, rng = _instance()
    xi = rng.standard_normal(at.y.shape)
    np.testing.assert_allclose(metric_inner(Metric.EUCLIDEAN, at, xi, xi),
                               np.linalg.norm(xi) ** 2, rtol=1e-14)


def test_metric_embedded_hand_case():
    # Y = e1, xi = eta = e2: Y^T xi = 0, so only 2 tr(Y^T Y xi^T xi) = 2
    # survives, and xi is horizontal so no vertical term contributes.
    at = FactorPoint(np.array([[1.0], [0.0]]))
    xi = np.array([[0.0], [1.0]])
    np.testing.assert_allclose(metric_inner(Metric.EMBEDDED, at, xi, xi), 2.0,
                               rtol=1e-14)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_metric_symmetric_bilinear(metric):
    prob, at, rng = _instance(seed=2)
    xi = rng.standard_normal(at.y.shape)
    eta = rng.standard_normal(at.y.shape)
    zeta = rng.standard_normal(at.y.shape)
    left = metric_inner(metric, at, xi, eta)
    np.testing.assert_allclose(left, metric_inner(metric, at, eta, xi),
                               rtol=1e-12)
    combo = metric_inner(metric, at, 2.0 * xi + zeta, eta)
    np.testing.assert_allclose(
        combo, 2.0 * left + metric_inner(metric, at, zeta, eta), rtol=1e-10)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_metric_positive_definite_on_ambient(metric):
    # includes pure vertical directions, which the embedded metric only
    # sees through its vertical completion term
    prob, at, rng = _instance(seed=6)
    for trial in range(10):
        xi = rng.standard_normal(at.y.shape)
        assert metric_inner(metric, at, xi, xi) > 0.0
    vert = at.y @ _skew(rng, at.p)
    assert metric_inner(metric, at, vert, vert) > 0.0


def test_metric_horizontal_inner_agrees_on_horizontals():
    prob, at, rng = _instance(seed=13)
    for metric in ALL_METRICS:
        xi = random_horizontal(metric, at, rng)
        eta = random_horizontal(metric, at, rng)
        np.testing.assert_allclose(
            horizontal_inner(metric, at, xi, eta),
            metric_inner(metric, at, xi, eta), rtol=1e-12, atol=1e-14)


# ----------------------------------------------------------- projections


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_project_pure_vertical(metric):
    prob, at, rng = _instance(seed=1)
    vert_in = at.y @ _skew(rng, at.p)
    hor = project_horizontal(metric, at, vert_in)
    assert np.linalg.norm(hor) <= 1e-12 * np.linalg.norm(vert_in)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_project_idempotent_and_complementary(metric):
    prob, at, rng = _instance(seed=2)
    w = rng.standard_normal(at.y.shape)
    vert = vertical_part(metric, at, w)
    hor = project_horizontal(metric, at, w)
    np.testing.assert_allclose(vert + hor, w, rtol=0,
                               atol=1e-12 * np.linalg.norm(w))
    assert np.linalg.norm(vertical_part(metric, at, hor)) \
        <= 1e-12 * np.linalg.norm(w)
    np.testing.assert_allclose(project_horizontal(metric, at, hor), hor,
                               rtol=0, atol=1e-12 * np.linalg.norm(w))


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_projection_metric_orthogonal(metric):
    prob, at, rng = _instance(seed=3)
    w = rng.standard_normal(at.y.shape)
    vert = vertical_part(metric, at, w)
    hor = project_horizontal(metric, at, w)
    cross = metric_inner(metric, at, vert, hor)
    scale = (np.sqrt(metric_inner(metric, at, vert, vert))
             * np.sqrt(metric_inner(metric, at, hor, hor)))
    assert abs(cross) <= 1e-10 * max(scale, 1e-30)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_horizontal_vector_invariant(metric):
    prob, at, rng = _instance(seed=4)
    z = random_horizontal(metric, at, rng)
    for trial in range(5):
        vert = at.y @ _skew(rng, at.p)
        cross = metric_inner(metric, at, z, vert)
        assert abs(cross) <= 1e-10 * np.linalg.norm(z) * np.linalg.norm(vert)


def test_project_euclidean_sylvester_residual():
    # M3 vertical part Y*Omega with Omega solving
    # Omega G + G Omega = Y^T W - W^T Y, G = Y^T Y
    prob, at, rng = _instance(seed=5, p=3)
    w = rng.standard_normal(at.y.shape)
    vert = vertical_part(Metric.EUCLIDEAN, at, w)
    omega = np.linalg.lstsq(at.y, vert, rcond=None)[0]
    np.testing.assert_allclose(omega, -omega.T, atol=1e-10)
    g = at.gram
    lhs = omega @ g + g @ omega
    rhs = at.y.T @ w - w.T @ at.y
    np.testing.assert_allclose(lhs, rhs, rtol=0,
                               atol=1e-12 * max(1.0, np.linalg.norm(rhs)))


def test_horizontal_basis_dimension_and_orthonormality():
    prob, at, rng = _instance(seed=6, n=7, p=2)
    for metric in ALL_METRICS:
        basis = horizontal_basis(metric, at)
        assert len(basis) == 7 * 2 - (2 * 1) // 2
        for i, e in enumerate(basis):
            for j, f in enumerate(basis):
                want = 1.0 if i == j else 0.0
                got = metric_inner(metric, at, e, f)
                assert abs(got - want) <= 1e-9


# ------------------------------------------------------------- retraction


def test_retract_zero_step():
    prob, at, rng = _instance()
    z = random_horizontal(Metric.EMBEDDED, at, rng)
    out = retract(at, z, 0.0)
    np.testing.assert_array_equal(out.y, at.y)


def test_retract_identity_case():
    at = FactorPoint(np.eye(2))
    out = retract(at, np.eye(2), 1.0)
    np.testing.assert_array_equal(out.y, 2.0 * np.eye(2))


def test_retract_first_order_along_cost():
    # d/dt f(R(tZ)) at t=0 must equal the ambient directional derivative
    prob, at, rng = _instance(seed=7)
    z = random_horizontal(Metric.EMBEDDED, at, rng)
    h = 1e-5
    fd = (cost(prob, retract(at, z, h)) - cost(prob, retract(at, z, -h))) / (2 * h)
    grad = riemannian_gradient(Metric.EMBEDDED, prob, at)
    want = metric_inner(Metric.EMBEDDED, at, grad, z)
    np.testing.assert_allclose(fd, want, rtol=1e-6)


def test_retract_rank_deficient_raises():
    at = FactorPoint(np.eye(2))
    with pytest.raises(ValueError, match="retraction left the manifold"):
        retract(at, -np.eye(2), 1.0)


# --------------------------------------------------------------- gradient


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_gradient_vanishes_at_exact_solution(metric):
    rng = np.random.default_rng(17)
    ystar = rng.standard_normal((25, 2))
    prob = identity_problem(25, ystar)
    grad = riemannian_gradient(metric, prob, FactorPoint(ystar))
    assert np.linalg.norm(grad) <= 1e-12 * np.linalg.norm(ystar)


def test_gradient_duality_embedded_ten_directions():
    prob, at, rng = _instance(seed=8)
    grad = riemannian_gradient(Metric.EMBEDDED, prob, at)
    h = 1e-5
    for trial in range(10):
        z = random_horizontal(Metric.EMBEDDED, at, rng)
        fd = (cost(prob, at.y + h * z) - cost(prob, at.y - h * z)) / (2 * h)
        got = metric_inner(Metric.EMBEDDED, at, grad, z)
        np.testing.assert_allclose(got, fd, rtol=1e-6)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_gradient_duality_ambient_directions(metric):
    # g(grad, P^H v) = D f(Y)[v] for arbitrary ambient v: the vertical part
    # of v contributes nothing to the derivative of an invariant cost
    prob, at, rng = _instance(seed=10)
    grad = riemannian_gradient(metric, prob, at)
    h = 1e-5
    for trial in range(4):
        v = rng.standard_normal(at.y.shape)
        fd = (cost(prob, at.y + h * v) - cost(prob, at.y - h * v)) / (2 * h)
        got = metric_inner(metric, at, grad,
                           project_horizontal(metric, at, v))
        np.testing.assert_allclose(got, fd, rtol=1e-6)


def test_gradient_euclidean_hand_case():
    # C = 0, Y = e1, A = M = I: gradient 2(AY G + MY G) = 4Y, horizontal
    eye = SpdSparseMatrix(sps.identity(2, format="csr"))
    prob = LyapunovProblem(eye, eye, np.zeros((2, 1)))
    at = FactorPoint(np.array([[1.0], [0.0]]))
    grad = riemannian_gradient(Metric.EUCLIDEAN, prob, at)
    np.testing.assert_allclose(grad, 4.0 * at.y, rtol=1e-14)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_gradient_is_horizontal(metric):
    prob, at, rng = _instance(seed=11)
    grad = riemannian_gradient(metric, prob, at)
    for trial in range(5):
        vert = at.y @ _skew(rng, at.p)
        cross = metric_inner(metric, at, grad, vert)
        assert abs(cross) <= 1e-10 * np.linalg.norm(grad) * np.linalg.norm(vert)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_gradient_norm_orthogonal_equivariance(metric):
    prob, at, rng = _instance(seed=12)
    q = np.linalg.qr(rng.standard_normal((at.p, at.p)))[0]
    rotated = FactorPoint(at.y @ q)
    n1 = hnorm(metric, at, riemannian_gradient(metric, prob, at))
    n2 = hnorm(metric, rotated, riemannian_gradient(metric, prob, rotated))
    np.testing.assert_allclose(n1, n2, rtol=1e-10)


# ---------------------------------------------------------------- hessian


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_hessian_zero_direction(metric):
    prob, at, rng = _instance(seed=14)
    out = hessian_action(metric, prob, at, np.zeros_like(at.y))
    assert np.linalg.norm(out) == 0.0


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_hessian_matches_fd_koszul_oracle(metric):
    prob, at, rng = _instance(seed=15, n=20, p=2)
    eta = random_horizontal(metric, at, rng)
    got = hessian_action(metric, prob, at, eta)
    want = hessian_fd_oracle(metric, prob, at, eta)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(got)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_hessian_self_adjoint(metric):
    prob, at, rng = _instance(seed=16)
    for trial in range(5):
        xi = random_horizontal(metric, at, rng)
        eta = random_horizontal(metric, at, rng)
        hxi = hessian_action(metric, prob, at, xi)
        heta = hessian_action(metric, prob, at, eta)
        left = horizontal_inner(metric, at, hxi, eta)
        right = horizontal_inner(metric, at, xi, heta)
        assert abs(left - right) <= 1e-9 * hnorm(metric, at, xi) * hnorm(
            metric, at, eta)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_hessian_linear(metric):
    prob, at, rng = _instance(seed=18)
    xi = random_horizontal(metric, at, rng)
    eta = random_horizontal(metric, at, rng)
    lhs = hessian_action(metric, prob, at, 2.0 * xi - 3.0 * eta)
    rhs = (2.0 * hessian_action(metric, prob, at, xi)
           - 3.0 * hessian_action(metric, prob, at, eta))
    np.testing.assert_allclose(lhs, rhs, rtol=0,
                               atol=1e-11 * np.linalg.norm(lhs))


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_hessian_dense_assembly_symmetric(metric):
    # n = 8, p = 2: the operator matrix on an orthonormal horizontal basis
    prob, at, rng = _instance(seed=19, n=8, p=2)
    basis = horizontal_basis(metric, at)
    dim = len(basis)
    mat = np.zeros((dim, dim))
    for j, e in enumerate(basis):
        he = hessian_action(metric, prob, at, e)
        for i, f in enumerate(basis):
            mat[i, j] = metric_inner(metric, at, he, f)
    scale = max(1.0, np.abs(mat).max())
    np.testing.assert_allclose(mat, mat.T, rtol=0, atol=1e-10 * scale)


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_hessian_plain_fd_of_gradient(metric):
    # forward difference of the projected gradient field; agreement is
    # limited by the connection term carried by grad, so test near the
    # solution where that term is negligible
    rng = np.random.default_rng(20)
    ystar = rng.standard_normal((30, 2))
    prob = identity_problem(30, ystar)
    at = FactorPoint(ystar + 1e-8 * rng.standard_normal((30, 2)))
    eta = random_horizontal(metric, at, rng)
    h = 1e-6
    plus = riemannian_gradient(metric, prob, FactorPoint(at.y + h * eta))
    base = riemannian_gradient(metric, prob, at)
    fd = project_horizontal(metric, at, (plus - base) / h)
    got = hessian_action(metric, prob, at, eta)
    assert np.linalg.norm(fd - got) <= 1e-4 * np.linalg.norm(got)


def test_hessian_output_horizontal():
    prob, at, rng = _instance(seed=21)
    for metric in ALL_METRICS:
        eta = random_horizontal(metric, at, rng)
        out = hessian_action(metric, prob, at, eta)
        for trial in range(3):
            vert = at.y @ _skew(rng, at.p)
            cross = metric_inner(metric, at, out, vert)
            assert abs(cross) <= 1e-9 * np.linalg.norm(out) * np.linalg.norm(vert)


# ------------------------------------------------------- product reuse


class _CountingCsr(sps.csr_matrix):
    """CSR matrix that counts its products with dense arrays."""

    def __matmul__(self, other):
        if isinstance(other, np.ndarray) and hasattr(self, "calls"):
            self.calls[0] += 1
        return super().__matmul__(other)


def _counting_problem(n, seed):
    prob = gen_poisson(n, seed)
    calls = [0]
    prob.a.mat = _CountingCsr(prob.a.mat)
    prob.m.mat = _CountingCsr(prob.m.mat)
    prob.a.mat.calls = prob.m.mat.calls = calls
    return prob, calls


def test_products_with_y_formed_once_per_point_and_problem():
    prob, calls = _counting_problem(40, 0)
    at = FactorPoint(np.random.default_rng(0).standard_normal((40, 3)))
    f = cost(prob, at)
    assert calls[0] == 2
    for metric in ALL_METRICS:
        riemannian_gradient(metric, prob, at)
    residual_fro(prob, at)
    for variant in ("proposed", "bart"):
        build_shift_cache(prob, at, variant)
    assert calls[0] == 2
    eta = random_horizontal(Metric.EMBEDDED, at, np.random.default_rng(1))
    for count, metric in enumerate(ALL_METRICS, start=1):
        hessian_action(metric, prob, at, eta)
        assert calls[0] == 2 + 2 * count

    # Another problem at the same point gets its own products.
    other, other_calls = _counting_problem(40, 1)
    assert cost(other, at) == cost(other, FactorPoint(at.y.copy()))
    assert other_calls[0] == 4
    assert cost(prob, at) == f
