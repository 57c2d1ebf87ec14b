"""Truncated Newton iteration with preconditioned conjugate gradient inner solves.

The outer loop approximately solves the Newton equation
Hess f[eta] = -grad f by a truncated preconditioned conjugate gradient
method with two early exits (insufficient curvature and a forcing-sequence
residual test), then takes a step accepted by a two-branch decrease
condition. The inner solver works on raw arrays with an injected inner
product, so it is independent of the manifold it runs on.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .manifold import (
    cost,
    hessian_action,
    horizontal_inner,
    retract,
    riemannian_gradient,
)
from .precond import PreconditionerError
from .problems import FactorPoint, _as_point, relative_residual


class InnerSolveError(RuntimeError):
    """A non-finite quantity appeared inside the inner conjugate gradient."""

    def __init__(self, iteration):
        super().__init__(
            f"non-finite value in the inner solve at iteration {iteration}"
        )
        self.iteration = iteration


class LineSearchError(RuntimeError):
    """Backtracking exhausted without an acceptable step."""

    def __init__(self, backtracks, f0, slope0, alpha):
        super().__init__(
            f"no acceptable step after {backtracks} backtracks "
            f"(f0 = {f0:.6e}, slope = {slope0:.6e}, last alpha = {alpha:.3e})"
        )
        self.backtracks = backtracks
        self.f0 = f0
        self.slope0 = slope0
        self.alpha = alpha


@dataclass
class TnewtonConfig:
    """Parameters of the truncated Newton iteration.

    chi1 and chi2 are the two step acceptance constants; eps_curv the
    curvature exit threshold of the inner solve; the forcing sequence is
    phi_k = min(forcing_beta, ||grad||^forcing_t). max_inner defaults to the
    manifold dimension n p - p (p - 1) / 2 when left as None.
    """

    chi1: float = 1e-4
    chi2: float = 1e-4
    eps_curv: float = 1e-10
    forcing_beta: float = 0.1
    forcing_t: float = 1.0
    grad_tol_rel: float = 1e-12
    max_outer: int = 200
    max_inner: int | None = None
    ls_max_backtracks: int = 50


@dataclass
class TpcgState:
    """Outcome of one truncated conjugate gradient solve."""

    direction: np.ndarray
    hessian_actions: int
    stop: str  # "curvature", "forcing", "max_inner" or "breakdown" (see tpcg)
    rel_residual: float


def _frobenius_inner(x, e):
    return float(np.sum(x * e))


def tpcg(gradient, hess, precond, eps_curv, phi_k, *,
         inner=None, max_inner=None, record=None):
    """Truncated preconditioned conjugate gradient for the Newton equation.

    Approximately solves hess[eta] = -gradient. The iteration stops early
    when the curvature g(d, hess d) falls to eps_curv times the running
    preconditioned norm estimate delta of d (returning the first
    preconditioned residual if that happens immediately), or when the
    residual drops below phi_k relative to the gradient norm, or at a
    breakdown, where rounding has left <r, P r> nonpositive and the next
    step would divide by it, or after max_inner steps.

    Parameters
    ----------
    gradient : ndarray
        The current gradient (the equation right-hand side is its negative).
    hess, precond : callable
        Operator applications on arrays of the gradient's shape. `precond`
        applies the approximate inverse of the Hessian.
    eps_curv, phi_k : float
    inner : callable, optional
        Inner product; Frobenius when omitted.
    max_inner : int, optional
        Step limit; the gradient size when omitted.
    record : list, optional
        When given, per-iteration state (d, q, r, y, delta) is appended,
        for diagnostic use.

    Returns
    -------
    TpcgState
    """
    if inner is None:
        inner = _frobenius_inner
    if max_inner is None:
        max_inner = gradient.size
    if max_inner < 1:
        raise ValueError("max_inner must be at least 1")
    grad_norm = math.sqrt(inner(gradient, gradient))
    if not grad_norm > 0.0:
        raise ValueError("gradient must be nonzero")

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
        if record is not None:
            record.append(
                {"d": d.copy(), "q": q.copy(), "r": r.copy(),
                 "y": yv.copy(), "delta": delta}
            )
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


@dataclass
class LineSearchResult:
    alpha: float
    point: FactorPoint
    f: float
    backtracks: int


def line_search(problem, metric, point, direction, f0, slope0, config):
    """Find a step size accepted by one of the two decrease conditions.

    A step alpha is accepted when

        f(alpha) - f0 <= -chi1 * slope0^2 / ||direction||_g^2

    or

        f(alpha) - f0 <= chi2 * slope0,

    both of which force a strict decrease for a descent direction. The
    first trial is alpha = 1; rejections shrink alpha by quadratic
    interpolation safeguarded to [alpha/10, alpha/2]. A trial whose factor
    loses full column rank counts as a rejection with alpha halved.

    Parameters
    ----------
    problem : LyapunovProblem
    metric : Metric
    point : FactorPoint
    direction : ndarray
        Horizontal lift at the point.
    f0, slope0 : float
        Cost and directional derivative g(grad, direction) at the point.
    config : TnewtonConfig

    Returns
    -------
    LineSearchResult
    """
    if not slope0 < 0.0:
        raise ValueError("search direction must be a descent direction")
    norm_sq = horizontal_inner(metric, point, direction, direction)
    threshold = max(-config.chi1 * slope0 * slope0 / norm_sq,
                    config.chi2 * slope0)
    alpha = 1.0
    for backtracks in range(config.ls_max_backtracks + 1):
        try:
            trial = retract(point, direction, alpha)
        except ValueError:
            alpha = 0.5 * alpha
            continue
        f_trial = cost(problem, trial)
        if f_trial - f0 <= threshold:
            return LineSearchResult(alpha, trial, f_trial, backtracks)
        gap = f_trial - f0 - slope0 * alpha
        if gap <= 0.0 or not math.isfinite(gap):
            alpha = 0.5 * alpha
            continue
        interpolated = -slope0 * alpha * alpha / (2.0 * gap)
        alpha = min(max(interpolated, 0.1 * alpha), 0.5 * alpha)
    raise LineSearchError(config.ls_max_backtracks, f0, slope0, alpha)


@dataclass
class TraceRow:
    k: int
    p: int
    f: float
    gradnorm: float
    relres: float
    inner_iters: int
    nH: int
    alpha: float
    ms: float


_TRACE_HEADER = "k,p,f,gradnorm,relres,inner_iters,nH,alpha,ms"


@dataclass
class SolveTrace:
    """Per-iteration record of a solve.

    Row k = 0 holds the initial state of a rank (alpha and inner_iters are
    zero there); each later row holds the accepted iterate of outer
    iteration k. nH accumulates Hessian actions within the rank. The cost
    column decreases strictly within a rank.
    """

    rows: list = field(default_factory=list)

    def append(self, row):
        self.rows.append(row)

    def final(self):
        if not self.rows:
            raise ValueError("empty trace")
        return self.rows[-1]

    def column(self, name):
        return [getattr(row, name) for row in self.rows]

    def to_csv(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self):
        lines = [_TRACE_HEADER]
        for row in self.rows:
            lines.append(
                f"{row.k},{row.p},{row.f:.17g},{row.gradnorm:.17g},"
                f"{row.relres:.17g},{row.inner_iters},{row.nH},"
                f"{row.alpha:.17g},{row.ms:.17g}"
            )
        return "\n".join(lines) + "\n"


def _make_preconditioner(choice, metric, problem, point):
    if choice == "none":
        return lambda arr: arr
    from .precond import apply_cached, build_shift_cache

    cache = build_shift_cache(problem, point, variant=choice)
    return lambda arr: apply_cached(cache, metric, arr)


def solve_fixed_rank(problem, metric, y0, config=None, precond_choice="none"):
    """Riemannian truncated Newton iteration at fixed rank.

    Runs until the gradient norm falls to grad_tol_rel times its initial
    value or max_outer iterations. Each outer iteration builds the chosen
    preconditioner at the current point, runs the truncated conjugate
    gradient on the Newton equation and takes a line search step.

    Parameters
    ----------
    problem : LyapunovProblem
    metric : Metric
    y0 : FactorPoint or ndarray
        Initial factor of full column rank.
    config : TnewtonConfig, optional
    precond_choice : {"none", "proposed", "bart"}

    Returns
    -------
    (FactorPoint, SolveTrace)
    """
    if precond_choice not in ("none", "proposed", "bart"):
        raise ValueError(f"unknown preconditioner choice {precond_choice!r}")
    if config is None:
        config = TnewtonConfig()
    point = _as_point(y0)
    if not point.has_full_rank:
        raise ValueError("initial factor must have full column rank")
    n, p = point.n, point.p
    max_inner = config.max_inner
    if max_inner is None:
        max_inner = n * p - (p * (p - 1)) // 2

    trace = SolveTrace()
    t_start = time.perf_counter()
    f_val = cost(problem, point)
    grad = riemannian_gradient(metric, problem, point)
    gnorm = math.sqrt(horizontal_inner(metric, point, grad, grad))
    gnorm0 = gnorm
    nh_total = 0
    trace.append(TraceRow(
        k=0, p=p, f=f_val, gradnorm=gnorm,
        relres=relative_residual(problem, point),
        inner_iters=0, nH=0, alpha=0.0,
        ms=(time.perf_counter() - t_start) * 1e3,
    ))

    k = 0
    try:
        while k < config.max_outer and gnorm > config.grad_tol_rel * gnorm0:
            k += 1
            t_iter = time.perf_counter()
            at = point
            counter = [0]

            def hess_fn(arr, at=at, counter=counter):
                counter[0] += 1
                return hessian_action(metric, problem, at, arr)

            def inner_fn(x, e, at=at):
                return horizontal_inner(metric, at, x, e)

            precond_fn = _make_preconditioner(precond_choice, metric, problem, at)
            phi_k = min(config.forcing_beta, gnorm ** config.forcing_t)
            state = tpcg(
                grad, hess_fn, precond_fn, config.eps_curv, phi_k,
                inner=inner_fn, max_inner=max_inner,
            )
            slope0 = horizontal_inner(metric, at, grad, state.direction)
            # A predicted decrease below the rounding resolution of f cannot
            # be certified by any line search; the rank is converged to its
            # floor.
            floor = 64.0 * np.finfo(float).eps * max(1.0, abs(f_val))
            if not slope0 < -floor:
                break
            try:
                result = line_search(problem, metric, at, state.direction,
                                     f_val, slope0, config)
            except LineSearchError:
                # The acceptance conditions demand a decrease of
                # min(chi1 slope0^2 / |d|^2, chi2 |slope0|); when that is
                # below the rounding resolution of f no trial step can be
                # certified either, so an exhausted search means the same
                # floor, not a failure.
                normsq = horizontal_inner(metric, at, state.direction,
                                          state.direction)
                demanded = min(config.chi1 * slope0 * slope0 / normsq,
                               -config.chi2 * slope0)
                if demanded <= floor:
                    break
                raise

            point = result.point
            f_val = result.f
            grad = riemannian_gradient(metric, problem, point)
            gnorm = math.sqrt(horizontal_inner(metric, point, grad, grad))
            nh_total += counter[0]
            trace.append(TraceRow(
                k=k, p=p, f=f_val, gradnorm=gnorm,
                relres=relative_residual(problem, point),
                inner_iters=counter[0], nH=nh_total, alpha=result.alpha,
                ms=(time.perf_counter() - t_iter) * 1e3,
            ))
    except (InnerSolveError, LineSearchError, PreconditionerError) as exc:
        # Callers that keep going (the increasing-rank loop, the command
        # line) still want the iterations that did complete.
        exc.trace = trace
        raise
    return point, trace
