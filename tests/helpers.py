"""Shared fixtures and independent oracles for the test suite.

Everything here is deliberately slow and simple: dense or Kronecker-based
reference computations that the library must reproduce, plus small random
problem generators. Nothing imports solver internals beyond the public API.
"""

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from lyapfactor import (
    FactorPoint,
    LyapunovProblem,
    Metric,
    SpdSparseMatrix,
    horizontal_inner,
    metric_inner,
    riemannian_gradient,
)
from lyapfactor.manifold import horizontal_basis, project_horizontal


def rand_spd_banded(n, rng, bw=2):
    """Random banded SPD matrix via strict diagonal dominance."""
    mat = sps.diags(rng.random(n) + 0.5).tolil()
    for k in range(1, min(bw, n - 1) + 1):
        off = 0.1 * rng.standard_normal(n - k)
        mat += sps.diags(off, k) + sps.diags(off, -k)
    mat = mat.tocsr()
    rowsum = np.abs(mat).sum(axis=1).A1 - np.abs(mat.diagonal())
    return SpdSparseMatrix(mat + sps.diags(rowsum + 0.1))


def random_problem(n, s, rng, bw=2):
    """Random SPD pencil with a rank-s right-hand side factor."""
    a = rand_spd_banded(n, rng, bw)
    m = rand_spd_banded(n, rng, bw)
    b = rng.standard_normal((n, s))
    return LyapunovProblem(a, m, b)


def kron_solve(problem):
    """Solve (M (x) A + A (x) M) vec(X) = vec(C) directly."""
    a = problem.a.mat
    m = problem.m.mat
    big = sps.kron(m, a) + sps.kron(a, m)
    c = problem.b @ problem.b.T
    x = spla.splu(big.tocsc()).solve(c.flatten(order="F"))
    x = x.reshape(problem.n, problem.n, order="F")
    return (x + x.T) / 2.0


def identity_problem(n, ystar):
    """A = M = I with C = 2 Y* Y*^T, exact solution X = Y* Y*^T."""
    eye = SpdSparseMatrix(sps.identity(n, format="csr"))
    return LyapunovProblem(eye, eye, np.sqrt(2.0) * ystar)


def dense_residual(problem, y):
    """||A X M + M X A - C||_F with X = Y Y^T, formed densely."""
    a = problem.a.mat.toarray()
    m = problem.m.mat.toarray()
    x = y @ y.T
    r = a @ x @ m + m @ x @ a - problem.b @ problem.b.T
    return float(np.linalg.norm(r, "fro"))


def cost_reference(problem, y):
    """tr(X A X M) - tr(X C) computed densely."""
    a = problem.a.mat.toarray()
    m = problem.m.mat.toarray()
    x = y @ y.T
    c = problem.b @ problem.b.T
    return float(np.trace(x @ a @ x @ m) - np.trace(x @ c))


def grad_field(metric, problem, at):
    """Riemannian gradient as a raw array at a (possibly new) point."""
    return riemannian_gradient(metric, problem, at)


def fd_grad(metric, problem, at, v, h=1e-6):
    """Central difference of the gradient field along ambient direction v."""
    plus = grad_field(metric, problem, FactorPoint(at.y + h * v))
    minus = grad_field(metric, problem, FactorPoint(at.y - h * v))
    return (plus - minus) / (2.0 * h)


def fd_metric(metric, problem, at, v, a, b, h=1e-6):
    """Central difference of g_Y(a, b) along v with a, b held constant."""
    plus = metric_inner(metric, FactorPoint(at.y + h * v), a, b)
    minus = metric_inner(metric, FactorPoint(at.y - h * v), a, b)
    return (plus - minus) / (2.0 * h)


def christoffel_horizontal(metric, problem, at, eta, grad):
    """Horizontal Christoffel correction via the Koszul formula.

    Returns the horizontal vector whose inner product with every horizontal
    e equals 0.5 (D_eta g(grad, e) + D_grad g(eta, e) - D_e g(eta, grad)).
    """
    basis = horizontal_basis(metric, at)
    coeffs = np.zeros(len(basis))
    for idx, e in enumerate(basis):
        coeffs[idx] = 0.5 * (
            fd_metric(metric, problem, at, eta, grad, e)
            + fd_metric(metric, problem, at, grad, eta, e)
            - fd_metric(metric, problem, at, e, eta, grad)
        )
    out = np.zeros_like(at.y)
    for idx, e in enumerate(basis):
        out += coeffs[idx] * e
    return out


def hessian_fd_oracle(metric, problem, at, eta, h=1e-6):
    """Finite-difference Riemannian Hessian action.

    Differentiates the gradient field and, for the non-Euclidean metrics,
    adds the Koszul connection correction assembled over an orthonormal
    horizontal basis.
    """
    grad = grad_field(metric, problem, at)
    fd = project_horizontal(metric, at, fd_grad(metric, problem, at, eta))
    if metric == Metric.EUCLIDEAN:
        return fd
    return fd + christoffel_horizontal(metric, problem, at, eta, grad)


def random_horizontal(metric, at, rng):
    """Random horizontal tangent array at the given point."""
    return project_horizontal(metric, at, rng.standard_normal(at.y.shape))


def hnorm(metric, at, z):
    return float(np.sqrt(horizontal_inner(metric, at, z, z)))


ALL_METRICS = (Metric.EMBEDDED, Metric.GRAM, Metric.EUCLIDEAN)
