"""Shared fixtures and independent oracles for the test suite.

Everything here is deliberately slow and simple: dense or Kronecker-based
reference computations that the library must reproduce, small random
problem generators, and the dense verification tools the solver never
needs (the full metric inner product and its matrix, an orthonormal
horizontal basis, the dense matrix of the preconditioner and a
standalone saddle solve).
Beyond the public API only `project_horizontal`, `vertical_part`,
`preconditioner`, `_as_point` and `_compressed_residual` are imported,
and `saddle_solve` calls a shift cache's two sweeps.
`apply_preconditioner` is a one-shot apply of the proposed
preconditioner, which the solver never makes. `legacy_warm_start` is the
library's warm start before the cost-optimal seed, kept for a regression
replay, and `legacy_tpcg` the inner solve before its forcing test moved
ahead of the preconditioner apply.
`trace_audit` is tools/trace_audit.py, loaded from its path,
`count_hessian_actions` an independent count of the solver's Hessian
actions, `stop_reasons` the stop of each solve a trace records and
`at_start_scale` a factor moved to its cost-optimal scale, a warm start,
and `rank_deficient_warm_starts` makes the warm starts of an
increasing-rank solve grow rank deficient factors.
`poisson_reference` is gen_poisson's data built as it was before the
generator wrote its CSR arrays directly.
"""

import importlib.util
import math
import pathlib
import warnings

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from lyapfactor import (
    FactorPoint,
    InnerSolveError,
    LyapunovProblem,
    Metric,
    SpdSparseMatrix,
    TpcgState,
    apply_cached,
    build_shift_cache,
    cost,
    horizontal_inner,
    riemannian_gradient,
)
from lyapfactor import increasing_rank, tnewton
from lyapfactor.manifold import project_horizontal, vertical_part
from lyapfactor.precond import preconditioner
from lyapfactor.problems import _as_point, _compressed_residual

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "trace_audit.py"
_spec = importlib.util.spec_from_file_location("trace_audit", TOOL)
trace_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_audit)


def count_hessian_actions(monkeypatch):
    """A list that grows by one per call of tnewton.hessian_action from
    here on."""
    calls = []

    def counted(*args, action=tnewton.hessian_action):
        calls.append(None)
        return action(*args)

    monkeypatch.setattr(tnewton, "hessian_action", counted)
    return calls


def stop_reasons(trace):
    """The stop of each fixed-rank solve in `trace`, in order."""
    return [solve.stop for solve in trace.solves]


class ZeroNormal:
    """A generator whose jitter is zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def rank_deficient_warm_starts(monkeypatch):
    """From here on, seed each warm start's columns inside range(Y) and
    jitter them by zero, so that increasing_rank.warm_start raises at the
    first grown factor whose Gram matrix rounding does not leave positive
    definite."""
    monkeypatch.setattr(
        increasing_rank, "_padded_column_seed",
        lambda problem, point, p_inc: point.y[:, :p_inc].copy())
    monkeypatch.setattr(
        increasing_rank, "warm_start",
        lambda problem, y_p, p_inc, rng, grow=increasing_rank.warm_start:
        grow(problem, y_p, p_inc, ZeroNormal()))


def at_start_scale(problem, y):
    """t y at the cost-optimal scale t, t^2 = ||B^T y||^2 /
    (2 tr(y^T A y y^T M y)). From it solve_fixed_rank starts warm: it
    moves the factor by less than tnewton.COLD_START_FACTOR, so it makes
    no steepest-descent probe and builds the preconditioner at its first
    iteration."""
    by = problem.b.T @ y
    ay, my = problem.a.mat @ y, problem.m.mat @ y
    quartic = np.trace((y.T @ ay) @ (y.T @ my))
    return math.sqrt(np.sum(by * by) / (2.0 * quartic)) * y


def poisson_reference(n, seed, identity_mass=False):
    """(A, M, B) of gen_poisson(n, seed, identity_mass), built by
    sps.diags and sps.eye and converted to float CSR as SpdSparseMatrix
    converted them."""
    rng = np.random.default_rng(seed)
    h = 1.0 / (n + 1)
    main = np.full(n, 2.0 / (h * h))
    off = np.full(n - 1, -1.0 / (h * h))
    a = sps.diags([off, main, off], [-1, 0, 1], format="csr")
    if identity_mass:
        m = sps.eye(n, format="csr")
    else:
        d = np.concatenate([rng.random(n - 1), [0.0]]) + 0.1
        m = sps.diags([d], [0], format="csr")
    b = rng.standard_normal((n, 1))
    return (sps.csr_matrix(a).astype(float), sps.csr_matrix(m).astype(float),
            b)


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


def grid_problem(side=6, perm_seed=None, rows=None):
    """5-point stiffness and consistent mass on a grid of `rows` lines of
    `side` points (rows = side when omitted), with spacing 1 / (side + 1).
    In natural order the pencil's half-bandwidth is at most side + 1; a
    random symmetric permutation of the unknowns (perm_seed) widens it to
    nearly n."""
    rows = side if rows is None else rows
    h = 1.0 / (side + 1)

    def factors(size):
        ones = np.ones(size - 1)
        return (sps.diags([-ones, np.full(size, 2.0), -ones], [-1, 0, 1])
                / (h * h),
                sps.diags([ones, np.full(size, 4.0), ones], [-1, 0, 1]) / 6.0,
                sps.identity(size))

    (t, mh, eye), (t_rows, mh_rows, eye_rows) = factors(side), factors(rows)
    a = (sps.kron(t_rows, eye) + sps.kron(eye_rows, t)).tocsr()
    m = sps.kron(mh_rows, mh).tocsr()
    n = side * rows
    if perm_seed is not None:
        perm = np.random.default_rng(perm_seed).permutation(n)
        a, m = a[perm][:, perm], m[perm][:, perm]
    return LyapunovProblem(SpdSparseMatrix(a), SpdSparseMatrix(m),
                           np.ones((n, 1)))


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


def metric_matrix(metric, at):
    """The matrix W of `metric_inner` at `at` in row-major coordinates:
    metric_inner(metric, at, xi, eta) = xi.ravel() @ W @ eta.ravel().

    The Gram-matrix form of the dense tools below, in place of one
    metric_inner call per pair of arrays. With G = Y^T Y, the term
    tr(G xi^T eta) is I (x) G, the EMBEDDED pullback term
    tr(Y^T xi Y^T eta) has the entry Y[i, a] Y[j, b] at rows (i, b) and
    columns (j, a), and the EMBEDDED completion is V^T (I (x) G) V with V
    the matrix of `vertical_part`, applied to the coordinate arrays.
    """
    y = at.y
    n, p = y.shape
    if metric == Metric.EUCLIDEAN:
        return np.eye(n * p)
    gram = np.kron(np.eye(n), at.gram)
    if metric == Metric.GRAM:
        return gram
    pullback = np.einsum("ia,jb->ibja", y, y).reshape(n * p, n * p)
    vert = np.column_stack([
        vertical_part(metric, at, unit.reshape(n, p)).ravel()
        for unit in np.eye(n * p)])
    return 2.0 * (pullback + gram) + vert.T @ gram @ vert


def horizontal_basis(metric, at, tol=1e-8):
    """Metric-orthonormal basis of the horizontal space at `at`.

    Intended for dense verification on small problems: projects the
    coordinate directions, forms their Gram matrix under the metric
    (metric_matrix) and takes the eigenvectors of its eigenvalues above
    tol times the largest, each scaled by the inverse square root of its
    eigenvalue. The horizontal space has dimension n p - p (p - 1) / 2.

    Returns
    -------
    list of ndarray
    """
    y = at.y
    n, p = y.shape
    dim = n * p - (p * (p - 1)) // 2
    cand = np.column_stack([
        project_horizontal(metric, at, unit.reshape(n, p)).ravel()
        for unit in np.eye(n * p)])
    vals, vecs = np.linalg.eigh(cand.T @ metric_matrix(metric, at) @ cand)
    keep = vals > tol * vals[-1]
    basis = cand @ (vecs[:, keep] / np.sqrt(vals[keep]))
    assert basis.shape[1] == dim, \
        f"found {basis.shape[1]} directions, expected {dim}"
    return [col.reshape(n, p) for col in basis.T]


def apply_preconditioner(metric, problem, point, eta):
    """One-shot preconditioner apply (builds the cache and discards it)."""
    return preconditioner("proposed", metric, problem, point)(eta)


def assemble_precond_operator_dense(metric, problem, point,
                                    variant="proposed", max_dim=400,
                                    bank=None):
    """Dense matrix of the preconditioner in an orthonormal horizontal basis.

    Intended for small problems only: builds a metric-orthonormal basis of
    the horizontal space, applies the preconditioner to each basis vector
    and pairs the images with the basis through metric_matrix, one dense
    product. The result is the matrix of the inverse of
    the dominant Hessian term, so it must come out symmetric positive
    definite, with eigenvalues that are the reciprocals of the dominant
    term's spectrum. With a `bank` the cache is built as a solve's builds
    build it (see precond.build_shift_cache).

    Returns
    -------
    (ndarray, list of ndarray)
        The dim-by-dim matrix and the basis arrays it refers to.
    """
    basis = horizontal_basis(metric, point)
    dim = len(basis)
    if dim > max_dim:
        raise ValueError("dense assembly requested on too large a problem")
    cache = build_shift_cache(problem, point, variant=variant, bank=bank)
    images = np.column_stack([apply_cached(cache, metric, vec).ravel()
                              for vec in basis])
    coords = np.column_stack([vec.ravel() for vec in basis])
    return coords.T @ metric_matrix(metric, point) @ images, basis


def saddle_solve(cache, i, rhs):
    """Solve the i-th constrained shifted system of a shift cache.

    Returns the pair (x, y) with (A + lambda_i M) x + vhat y = rhs and
    vhat^T x = 0; `rhs` may carry several columns. Schur elimination with
    the cache's shift solves and nothing else from the cache:
    x0 = F_i^{-1} rhs, Z_i = F_i^{-1} vhat,
    y = (vhat^T Z_i)^{-1} vhat^T x0 and x = x0 - Z_i y. Shift i is solved
    by both of the cache's sweeps, rest(half(.)), on a stacked right-hand
    side that is zero outside block i.
    """
    vhat = cache.vhat
    n, p = vhat.shape
    rows = slice(i * n, (i + 1) * n)

    def solve(block):
        stacked = np.zeros((n * p,) + block.shape[1:])
        stacked[rows] = block
        return cache.rest(cache.half(stacked))[rows]

    x0 = solve(rhs)
    z = solve(vhat)
    mult = np.linalg.solve(vhat.T @ z, vhat.T @ x0)
    return x0 - z @ mult, mult


def random_horizontal(metric, at, rng):
    """Random horizontal tangent array at the given point."""
    return project_horizontal(metric, at, rng.standard_normal(at.y.shape))


def hnorm(metric, at, z):
    return float(np.sqrt(horizontal_inner(metric, at, z, z)))


ALL_METRICS = (Metric.EMBEDDED, Metric.GRAM, Metric.EUCLIDEAN)


def _legacy_column_seed(problem, point, p_inc):
    """Directions and scale for activating p_inc new factor columns.

    Works in the orthonormal column span of [A Y, M Y, B], where the
    residual N compresses to a small symmetric matrix; its most negative
    eigendirections give the steepest second-order cost decrease among
    unit-norm column additions.
    """
    y = point.y
    prod = point.products(problem)
    u, v = prod.u, prod.v
    basis, _ = np.linalg.qr(np.hstack([u, v, problem.b]))
    compressed = _compressed_residual(basis.T @ u, basis.T @ v,
                                      basis.T @ problem.b)
    _, vecs = np.linalg.eigh(compressed)
    take = min(p_inc, vecs.shape[1])
    dirs = basis @ vecs[:, :take]
    if take < p_inc:
        extra = np.zeros((y.shape[0], p_inc - take))
        extra[: p_inc - take] = np.eye(p_inc - take)
        dirs = np.hstack([dirs, extra])
    scale = 1e-4 * np.linalg.norm(y) / np.sqrt(p_inc)
    return dirs, scale


def legacy_warm_start(problem, y_p, p_inc, rng=None):
    """Grow a solved factor by p_inc columns and take one descent step.

    The library's warm start before it seeded at the cost-optimal scale
    (increasing_rank.warm_start), kept verbatim for regression replays.

    Seeds the new columns along the most negative residual eigendirections
    at a small scale (shrinking the scale until the cost actually drops
    below the padded start), jitters if the seeded factor is rank
    deficient, then takes one Euclidean steepest-descent step on the
    factored cost with Armijo backtracking.

    Parameters
    ----------
    problem : LyapunovProblem
    y_p : FactorPoint
        Full rank solution of the previous rank.
    p_inc : int
    rng : numpy Generator, optional
        Source of the jitter; a fixed-seed generator when omitted.

    Returns
    -------
    (FactorPoint, bool)
        The rank p + p_inc starting point and whether the descent step
        succeeded. On failure the seeded point is returned with a warning
        and the flag False; the outer loop is never aborted here.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    point = _as_point(y_p)
    if not point.has_full_rank:
        raise ValueError("warm start needs a full rank factor")
    if p_inc < 1:
        raise ValueError("p_inc must be at least 1")
    y = point.y
    f_padded = cost(problem, point)

    dirs, scale = _legacy_column_seed(problem, point, p_inc)
    for _ in range(5):
        trial = FactorPoint(np.hstack([y, scale * dirs]))
        if cost(problem, trial) < f_padded:
            break
        scale *= 0.1
    else:
        trial = FactorPoint(np.hstack([y, scale * dirs]))

    if not trial.has_full_rank:
        jitter = 1e-8 * np.linalg.norm(y)
        seeded = trial.y.copy()
        seeded[:, y.shape[1]:] += jitter * rng.standard_normal(
            (y.shape[0], p_inc)
        )
        trial = FactorPoint(seeded)
        assert trial.has_full_rank, "seeded factor still rank deficient"

    f0 = cost(problem, trial)
    grad = riemannian_gradient(Metric.EUCLIDEAN, problem, trial)
    slope = -float(np.sum(grad * grad))
    if slope >= 0.0:
        # Stationary padded point; nothing to improve.
        return trial, True

    step = 1.0
    for _ in range(200):
        candidate = FactorPoint(trial.y - step * grad)
        if candidate.has_full_rank and \
                cost(problem, candidate) <= f0 + 1e-4 * step * slope:
            return candidate, True
        step *= 0.5
    warnings.warn(
        "steepest descent on the padded factor found no acceptable step; "
        "continuing from the seeded factor",
        RuntimeWarning,
    )
    return trial, False


def legacy_tpcg(gradient, hess, precond, eps_curv, phi_k, *, inner,
                max_inner):
    """tnewton.tpcg as it was when it applied the preconditioner to every
    updated residual before its forcing test, kept verbatim (less the
    record) to show that moving the test ahead of the apply changes only
    the number of applies."""
    grad_norm = math.sqrt(inner(gradient, gradient))
    eta = np.zeros_like(gradient)
    r = -gradient
    yv = precond(r)
    d = yv
    d0 = yv
    delta = inner(yv, yv)
    ry = inner(r, yv)
    rel = 1.0

    for i in range(max_inner):
        q = hess(d)
        dq = inner(d, q)
        if not math.isfinite(dq):
            raise InnerSolveError(i)
        if dq <= eps_curv * delta:
            direction = d0 if i == 0 else eta
            return TpcgState(direction, i + 1, "curvature", rel)
        alpha = ry / dq
        eta = eta + alpha * d
        r = r - alpha * q
        yv = precond(r)
        ry_new = inner(r, yv)
        if not (math.isfinite(alpha) and math.isfinite(ry_new)):
            raise InnerSolveError(i)
        beta = ry_new / ry
        d = yv + beta * d
        delta = inner(yv, yv) + beta * beta * delta
        ry = ry_new
        rel = math.sqrt(max(inner(r, r), 0.0)) / grad_norm
        if rel <= phi_k:
            return TpcgState(eta, i + 1, "forcing", rel)
        if ry <= 0.0:
            return TpcgState(eta, i + 1, "breakdown", rel)
    return TpcgState(eta, max_inner, "max_inner", rel)
