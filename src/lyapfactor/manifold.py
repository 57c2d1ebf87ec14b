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
    return _as_point(point).products(problem).cost


def horizontal_inner(metric, at, xi, eta):
    """Inner product g_Y(xi, eta) restricted to horizontal arguments.

    For EMBEDDED this evaluates only the pullback form; its vertical
    completion term vanishes identically on horizontal vectors and is
    skipped, which keeps the solver's inner products at three small
    products per call, two for a squared norm (eta is xi).
    """
    if metric == Metric.EUCLIDEAN:
        return float(np.vdot(xi, eta))
    xg = xi @ at.gram
    if metric == Metric.GRAM:
        return float(np.vdot(xg, eta))
    yx = at.y.T @ xi
    ye = yx if eta is xi else at.y.T @ eta
    return 2.0 * float(np.vdot(yx, ye.T) + np.vdot(xg, eta))


def vertical_part(metric, at, z):
    """Vertical component Y Omega of an ambient perturbation z.

    The vertical space at Y is {Y Omega : Omega skew-symmetric}. Under the
    EMBEDDED and GRAM metrics Omega is the skew part of (Y^T Y)^{-1} Y^T z;
    under EUCLIDEAN it solves the Sylvester equation
    Omega (Y^T Y) + (Y^T Y) Omega = Y^T z - z^T Y.
    """
    y = at.y
    if metric == Metric.EUCLIDEAN:
        w = y.T @ z
        omega = spla.solve_sylvester(at.gram, at.gram, w - w.T)
        omega = 0.5 * (omega - omega.T)
    else:
        gw = at.y_gram_inv.T @ z
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
        If the stepped factor loses column rank; the line search rejects
        that trial.
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
    return _lift(metric, point, point.products(problem).ny)


def _lift(metric, point, core):
    """Metric lift of an ambient term core (an n-by-p array, such as N Y):
    (I - P/2) core G^{-1} for EMBEDDED, 2 core G^{-1} for GRAM and 2 core
    for EUCLIDEAN."""
    if metric == Metric.EUCLIDEAN:
        return 2.0 * core
    if metric == Metric.GRAM:
        return 2.0 * point.solve_gram_right(core)
    return point.solve_gram_right(point.remove_range(core, 0.5))


def _dominant_core(problem, point, xi):
    """core = nabla^2 h[F_xi] Y = U (xi^T V) + A xi (Y^T V) + V (xi^T U)
    + M xi (Y^T U), with U = A Y and V = M Y: two sparse products."""
    prod = point.products(problem)
    return (prod.u @ (xi.T @ prod.v) + (problem.a.mat @ xi) @ prod.yv
            + prod.v @ (xi.T @ prod.u) + (problem.m.mat @ xi) @ prod.yu)


def dominant_term_action(metric, problem, point, xi):
    """The Hessian's main term: the action without the curvature terms in N.

    The core nabla^2 h[F_xi] Y (see _dominant_core) is lifted as
    (I - P/2) core G^{-1} (EMBEDDED), 2 core G^{-1} (GRAM) or 2 core
    (EUCLIDEAN). The preconditioner inverts exactly this map.
    """
    return _lift(metric, point, _dominant_core(problem, point, xi))


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
    appear. Under EMBEDDED the main term and the correction share one
    lift: with core the main term's core (see _dominant_core) and
    npe = N (I - P) eta, the action is
    [(core + npe) - P (core / 2 + npe)] G^{-1}. Each call does two sparse
    products, A eta and M eta; those with Y, G^{-1} and Y G^{-1} come
    from the point.

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
    if metric == Metric.EMBEDDED:
        half = 0.5 * _dominant_core(problem, point, eta)
        npe = prod.apply_residual(point.remove_range(eta))
        return point.solve_gram_right(point.remove_range(half + npe) + half)
    main = dominant_term_action(metric, problem, point, eta)
    if metric == Metric.EUCLIDEAN:
        return main + 2.0 * project_horizontal(
            metric, point, prod.apply_residual(eta)
        )
    correction = prod.apply_residual(point.remove_range(eta))
    correction += point.remove_range(prod.apply_residual(eta))
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
