"""Geometry of the quotient manifold of rank-p factors.

A point is the equivalence class [Y] = {Y O : O orthogonal} of a full-rank
factor Y, identified with X = Y Y^T. Tangent vectors are represented by
their horizontal lifts at Y, plain n-by-p arrays. Three Riemannian metrics
are supported; all solver operations (inner products, projections,
gradients, Hessian actions) take the metric and the point as arguments and
take and return such arrays.

Notation used throughout: G = Y^T Y, P = Y G^{-1} Y^T (the orthogonal
projector onto range(Y)), N = A Y Y^T M + M Y Y^T A - B B^T (the gradient
of the quadratic model h at Y Y^T, equal to the equation residual), and
F_eta = Y eta^T + eta Y^T (the tangent direction lifted to the symmetric
ambient space).
"""

import enum

import numpy as np
import scipy.linalg as spla

from .problems import FactorPoint, _as_point


class Metric(enum.IntEnum):
    """Choice of Riemannian metric on the factor quotient manifold.

    EMBEDDED pulls the Euclidean inner product of the symmetric ambient
    space back through Y -> Y Y^T, g(xi, eta) = 2 tr(Y^T xi Y^T eta
    + Y^T Y xi^T eta), completed on the vertical space (where the pullback
    degenerates) by tr(Y^T Y (xi^V)^T eta^V). GRAM weights the factor inner
    product by the Gram matrix, g(xi, eta) = tr(Y^T Y xi^T eta). EUCLIDEAN
    is the plain factor inner product tr(xi^T eta). Integer values match
    the command line flag.
    """

    EMBEDDED = 1
    GRAM = 2
    EUCLIDEAN = 3


def cost(problem, point):
    """Objective value tr(Y^T A Y Y^T M Y) - tr(Y^T B B^T Y) = h(Y Y^T)."""
    point = _as_point(point)
    prod = point.products(problem)
    y = point.y
    by = problem.b.T @ y
    return float(np.sum((y.T @ prod.u) * (prod.v.T @ y)) - np.sum(by * by))


def horizontal_inner(metric, at, xi, eta):
    """Inner product g_Y(xi, eta) restricted to horizontal arguments.

    For EMBEDDED this evaluates only the pullback form; its vertical
    completion term vanishes identically on horizontal vectors and is
    skipped, which keeps the solver's inner products at two small products
    per call.
    """
    if metric == Metric.EUCLIDEAN:
        return float(np.sum(xi * eta))
    if metric == Metric.GRAM:
        return float(np.sum((xi @ at.gram) * eta))
    y = at.y
    yx = y.T @ xi
    ye = y.T @ eta
    return float(2.0 * (np.sum(yx * ye.T) + np.sum((xi @ at.gram) * eta)))


def metric_inner(metric, at, xi, eta):
    """Riemannian inner product g_Y(xi, eta) at the point `at`.

    Positive definite on the whole tangent space for every metric: for
    EMBEDDED the pullback form, which degenerates on vertical directions,
    is completed by the term tr(Y^T Y (xi^V)^T eta^V) on the vertical
    parameters. On horizontal arguments the completion vanishes up to
    rounding, and `horizontal_inner` is the cheaper equivalent.
    """
    val = horizontal_inner(metric, at, xi, eta)
    if metric != Metric.EMBEDDED:
        return val
    vx = vertical_part(Metric.EMBEDDED, at, xi)
    ve = vertical_part(Metric.EMBEDDED, at, eta)
    return val + float(np.sum((vx @ at.gram) * ve))


def vertical_part(metric, at, z):
    """Vertical component Y Omega of an ambient perturbation z.

    The vertical space at Y is {Y Omega : Omega skew-symmetric}. Under the
    EMBEDDED and GRAM metrics Omega is the skew part of (Y^T Y)^{-1} Y^T z;
    under EUCLIDEAN it solves the Sylvester equation
    Omega (Y^T Y) + (Y^T Y) Omega = Y^T z - z^T Y.
    """
    y = at.y
    w = y.T @ z
    if metric == Metric.EUCLIDEAN:
        omega = spla.solve_sylvester(at.gram, at.gram, w - w.T)
        omega = 0.5 * (omega - omega.T)
    else:
        gw = at.solve_gram(w)
        omega = 0.5 * (gw - gw.T)
    return y @ omega


def project_horizontal(metric, at, ambient):
    """Horizontal part of an ambient perturbation, z - vertical_part(z)."""
    return ambient - vertical_part(metric, at, ambient)


def retract(point, direction, step):
    """Factor retraction: the point with factor Y + step * Z.

    Raises
    ------
    ValueError
        If the stepped factor loses column rank; the caller (the line
        search) must shrink the step.
    """
    out = FactorPoint(point.y + step * direction)
    if not out.has_full_rank:
        raise ValueError("retraction left the manifold")
    return out


def riemannian_gradient(metric, problem, point):
    """Horizontal lift of the Riemannian gradient of the cost.

    With N Y the factored Euclidean gradient direction, the lifts are
    (I - P/2) N Y G^{-1} for EMBEDDED, 2 N Y G^{-1} for GRAM and 2 N Y for
    EUCLIDEAN. Each is horizontal for its metric without projection.
    """
    y = point.y
    ny = point.products(problem).ny
    if metric == Metric.EUCLIDEAN:
        return 2.0 * ny
    if metric == Metric.GRAM:
        return 2.0 * point.solve_gram_right(ny)
    inner = ny - 0.5 * (y @ point.solve_gram(y.T @ ny))
    return point.solve_gram_right(inner)


def dominant_term_action(metric, problem, point, xi):
    """The Hessian's main term: the action without the curvature terms in N.

    With U = A Y and V = M Y, core = nabla^2 h[F_xi] Y = U (xi^T V)
    + A xi (Y^T V) + V (xi^T U) + M xi (Y^T U) is lifted as
    (I - P/2) core G^{-1} (EMBEDDED), 2 core G^{-1} (GRAM) or 2 core
    (EUCLIDEAN). The preconditioner inverts exactly this map.
    """
    y = point.y
    prod = point.products(problem)
    u, v = prod.u, prod.v
    core = (u @ (xi.T @ v) + (problem.a.mat @ xi) @ (y.T @ v)
            + v @ (xi.T @ u) + (problem.m.mat @ xi) @ (y.T @ u))
    if metric == Metric.EUCLIDEAN:
        return 2.0 * core
    if metric == Metric.GRAM:
        return 2.0 * point.solve_gram_right(core)
    half_proj = core - 0.5 * (y @ point.solve_gram(y.T @ core))
    return point.solve_gram_right(half_proj)


def hessian_action(metric, problem, point, eta):
    """Apply the Riemannian Hessian of the cost to a horizontal vector.

    The main term is `dominant_term_action`; the metric-dependent
    curvature corrections added to it are

    EMBEDDED   (I - P) N (I - P) eta G^{-1}
    GRAM       P^H { N (I - P) eta G^{-1} + (I - P) N eta G^{-1}
                     + 2 skew(eta Y^T) N Y G^{-2}
                     + 2 skew(eta G^{-1} Y^T N) Y G^{-1} }
    EUCLIDEAN  2 P^H { N eta }

    Skew products with n-by-n factors are expanded so only n-by-p arrays
    appear. Each call does two sparse products, A eta and M eta; those
    with Y come from the point.

    Parameters
    ----------
    metric : Metric
    problem : LyapunovProblem
    point : FactorPoint
    eta : ndarray
        Horizontal lift at the point.

    Returns
    -------
    ndarray
    """
    y = point.y
    prod = point.products(problem)
    main = dominant_term_action(metric, problem, point, eta)

    if metric == Metric.EUCLIDEAN:
        return main + 2.0 * project_horizontal(
            metric, point, prod.apply_residual(eta)
        )
    if metric == Metric.GRAM:
        pe = eta - y @ point.solve_gram(y.T @ eta)
        ne = prod.apply_residual(eta)
        correction = prod.apply_residual(pe)
        correction += ne - y @ point.solve_gram(y.T @ ne)
        correction = point.solve_gram_right(correction)
        # 2 skew(eta Y^T) W = eta (Y^T W) - Y (eta^T W) with W = N Y G^{-2}.
        w = point.solve_gram_right(point.solve_gram_right(prod.ny))
        correction += eta @ (y.T @ w) - y @ (eta.T @ w)
        # 2 skew(eta G^{-1} Y^T N) Y G^{-1}
        #   = eta G^{-1} (Y^T N Y) G^{-1} - N Y (G^{-1} (eta^T Y) G^{-1}).
        s = y.T @ prod.ny
        correction += eta @ point.solve_gram_right(point.solve_gram(s))
        correction -= prod.ny @ point.solve_gram_right(
            point.solve_gram(eta.T @ y))
        return main + project_horizontal(metric, point, correction)
    pe = eta - y @ point.solve_gram(y.T @ eta)
    npe = prod.apply_residual(pe)
    return main + point.solve_gram_right(npe - y @ point.solve_gram(y.T @ npe))


def horizontal_basis(metric, at, tol=1e-8):
    """Metric-orthonormal basis of the horizontal space at `at`.

    Intended for dense verification on small problems: projects the
    coordinate directions and orthonormalizes them against the metric with
    twice-repeated modified Gram-Schmidt. The horizontal space has dimension
    n p - p (p - 1) / 2.

    Returns
    -------
    list of ndarray
    """
    y = at.y
    n, p = y.shape
    dim = n * p - (p * (p - 1)) // 2
    basis = []
    for j in range(p):
        for i in range(n):
            cand = np.zeros((n, p))
            cand[i, j] = 1.0
            h = project_horizontal(metric, at, cand)
            scale = np.sqrt(max(metric_inner(metric, at, h, h), 0.0))
            if scale == 0.0:
                continue
            for _ in range(2):
                for b in basis:
                    h = h - metric_inner(metric, at, h, b) * b
            norm = np.sqrt(max(metric_inner(metric, at, h, h), 0.0))
            if norm > tol * scale:
                basis.append(h / norm)
    assert len(basis) == dim, f"found {len(basis)} directions, expected {dim}"
    return basis
