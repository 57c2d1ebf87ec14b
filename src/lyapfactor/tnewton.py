"""Truncated Newton iteration with preconditioned conjugate gradient inner solves.

The outer loop starts from the cost-optimal scale of the given factor,
approximately solves the Newton equation Hess f[eta] = -grad f by a
truncated preconditioned conjugate gradient method with two early exits
(insufficient curvature and a forcing-sequence residual test), then takes
a step accepted by a two-branch decrease condition, or by Armijo's
condition when no trial meets it. The cost is exactly quartic along every
line the solver searches (problems.CostQuartic), so the trial steps are
closed-form (the unit step and the quartic's first minimizer) and each
trial's decrease is read off the polynomial and trusted only beyond its
rounding bound. The inner solver works on raw arrays with an injected inner
product, so it is independent of the manifold it runs on.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .manifold import (
    cost,
    hessian_action,
    horizontal_inner,
    retract,
    riemannian_gradient,
)
from .precond import PreconditionerError, preconditioner
from .problems import ROUNDING, FactorPoint, _as_point, relative_residual


# Curvature exit threshold of the inner solve, the cap of the forcing
# sequence phi_k = min(FORCING_BETA, ||grad||^forcing_t), and the ratio and
# margin of the stall rule of a solve given a residual target.
EPS_CURV = 1e-10
FORCING_BETA = 0.1
STALL_RATIO = 0.99
STALL_MARGIN = 3.0


class InnerSolveError(RuntimeError):
    """A non-finite quantity appeared inside the inner conjugate gradient."""

    def __init__(self, iteration):
        super().__init__(
            f"non-finite value in the inner solve at iteration {iteration}"
        )
        self.iteration = iteration


class LineSearchError(RuntimeError):
    """No trial of the line search gave an acceptable step.

    `backtracks` is the number of trials less one, `alpha` the last trial
    and `demanded` the decrease the acceptance conditions asked for,
    min(chi1 slope0^2 / ||d||_g^2, -chi2 slope0), and `resolution` the
    rounding bound eps(alpha*) of the cost difference at the line's
    minimizer alpha* (at alpha = 1 when it has none).
    """

    def __init__(self, backtracks, f0, slope0, alpha, demanded,
                 resolution=0.0):
        super().__init__(
            f"no acceptable step among {backtracks + 1} trials "
            f"(f0 = {f0:.6e}, slope = {slope0:.6e}, last alpha = {alpha:.3e})"
        )
        self.backtracks = backtracks
        self.f0 = f0
        self.slope0 = slope0
        self.alpha = alpha
        self.demanded = demanded
        self.resolution = resolution


@dataclass
class TnewtonConfig:
    """Parameters of the truncated Newton iteration.

    chi1 and chi2 are the two step acceptance constants (see line_search;
    chi2 also scales Armijo's condition of its fallback); forcing_t the
    exponent of the forcing sequence (see FORCING_BETA). Each inner solve
    is capped at the manifold dimension n p - p (p - 1) / 2 steps, and each
    line search tries at most three closed-form steps.
    """

    chi1: float = 1e-4
    chi2: float = 1e-4
    forcing_t: float = 1.0
    grad_tol_rel: float = 1e-12
    max_outer: int = 200


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
    step would divide by it, or after max_inner steps. The forcing test
    comes before the preconditioner apply, so there is no apply after the
    last residual update of a "forcing" stop: k Hessian actions take k
    applies, where a stop on curvature at step i takes i + 1.

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
        if not math.isfinite(alpha):
            raise InnerSolveError(i)
        eta = eta + alpha * d
        r = r - alpha * q
        rel = math.sqrt(max(inner(r, r), 0.0)) / grad_norm
        if rel <= phi_k:
            return TpcgState(eta, i + 1, "forcing", rel)
        yv = precond(r)
        ry_new = inner(r, yv)
        if not math.isfinite(ry_new):
            raise InnerSolveError(i)
        beta = ry_new / ry
        d = yv + beta * d
        delta = inner(yv, yv) + beta * beta * delta
        ry = ry_new
        if ry <= 0.0:
            return TpcgState(eta, i + 1, "breakdown", rel)
    return TpcgState(eta, max_inner, "max_inner", rel)


@dataclass
class LineSearchResult:
    """An accepted step, with f = f0 + the exact cost difference of the
    step; `backtracks` is the index of the accepted trial and `fallback`
    marks a step taken by Armijo's condition (see line_search)."""

    alpha: float
    point: FactorPoint
    f: float
    backtracks: int
    fallback: bool = False


def line_search(problem, metric, point, direction, f0, slope0, config):
    """Take a step accepted by one of the two decrease conditions.

    A step alpha is accepted when

        f(alpha) - f0 <= -chi1 * slope0^2 / ||direction||_g^2

    or

        f(alpha) - f0 <= chi2 * slope0,

    both of which demand a fixed decrease for a descent direction. The
    cost along the line is the quartic of problems.CostQuartic, so
    f(alpha) - f0 is taken from its coefficients, with no cost evaluation,
    and a decrease counts only beyond its rounding bound eps(alpha). The
    cost falls monotonically up to the quartic's first positive minimizer
    alpha*, so no step below alpha* meets a condition that alpha* misses,
    and the trials are closed-form: alpha = 1; then max(alpha*, 1/10) when
    alpha* < 1; then alpha* itself when alpha* < 1/10. The first trial that
    meets a condition is taken; only it is retracted, and a trial whose
    factor loses full column rank is rejected.

    When no trial meets either condition but the demanded decrease is
    above eps(alpha*), the first trial that met Armijo's condition
    f(alpha) - f0 <= chi2 * alpha * slope0 is returned, with `fallback`
    set; otherwise LineSearchError is raised. With chi2 at or above about
    1/2 no trial may meet Armijo's condition either.

    Parameters
    ----------
    problem : LyapunovProblem
    metric : Metric
    point : FactorPoint
    direction : ndarray
        Horizontal lift at the point.
    f0, slope0 : float
        Cost and directional derivative g(grad, direction) at the point.
        The returned f is f0 plus the polynomial's difference.
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
    line = point.products(problem).line(direction)
    star = line.minimizer
    trials = [1.0]
    if star is not None and star < 1.0:
        trials += [max(star, 0.1)] + ([star] if star < 0.1 else [])
    resolution = line.bound(1.0 if star is None else star)

    def meets(alpha, demanded):
        delta = line.delta(alpha)
        return delta < -line.bound(alpha) and delta <= demanded

    order = [(i, False) for i, alpha in enumerate(trials)
             if meets(alpha, threshold)]
    if -threshold > resolution:
        order += [(i, True) for i, alpha in enumerate(trials)
                  if meets(alpha, config.chi2 * alpha * slope0)]
    for index, fallback in order:
        alpha = trials[index]
        try:
            trial = retract(point, direction, alpha)
        except ValueError:
            continue
        return LineSearchResult(alpha, trial, f0 + line.delta(alpha), index,
                                fallback)
    raise LineSearchError(len(trials) - 1, f0, slope0, trials[-1],
                          -threshold, resolution)


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

    Row k = 0 holds the initial state of a rank, at the factor as given
    (alpha and inner_iters are zero there); each later row holds the
    accepted iterate of outer iteration k. A solve that scales its start
    but ends before its first step records the scaled start it returns as
    row 1, with alpha and inner_iters zero. nH accumulates Hessian actions
    within the rank. The f column of a row k > 0 is the previous value plus
    the exact cost difference of the step, f0 + Delta, not a fresh
    evaluation; at k = 1 the previous value is the closed-form cost at the
    scaled start, when the start was scaled. Every accepted Delta is a
    certified decrease, so the column never rises within a rank; it stays
    level where Delta is below the resolution of f. An iteration that ends
    the solve at the rounding floor after its inner solve adds no row; its
    Hessian actions go to the last row's nH, its preconditioner build
    nowhere.

    `stops` holds why each completed fixed-rank solve ended, one entry per
    solve: "gradient" (grad_tol_rel reached), "max_outer", "floor" (the
    gradient N Y is at the rounding level of its terms, or the decrease a
    line search that found no step demanded is within the rounding bound
    of the cost difference), "target" (an iterate met the residual target) or
    "stall" (the residual target's stall rule, see solve_fixed_rank). A
    solve that raises adds no entry.
    `scales` holds the start scale t* each fixed-rank solve applied to its
    given factor, one entry per solve started (1.0 when not applied).
    `fallbacks` lists the rows whose step the line search's Armijo fallback
    took (within one solve, the iterations k); `warm_starts` holds the flag
    of each warm start of an increasing-rank solve, one per rank transition.
    """

    rows: list = field(default_factory=list)
    stops: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    fallbacks: list = field(default_factory=list)
    warm_starts: list = field(default_factory=list)

    def append(self, row):
        self.rows.append(row)

    def extend(self, other):
        """Append a later solve's record, continuing nH and the row indices
        of its fallbacks from this trace's last row."""
        nh = self.rows[-1].nH if self.rows else 0
        self.fallbacks += [len(self.rows) + i for i in other.fallbacks]
        self.rows += [replace(row, nH=row.nH + nh) for row in other.rows]
        self.stops += other.stops
        self.scales += other.scales

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


def _start_scale(prod):
    """The cost-optimal scale t* of a factor Y and the cost there,
    f(t* Y) = -||B^T Y||^4 / (4 tr(Y^T A Y Y^T M Y)), free of the
    cancellation in f(Y) minus the decrease; or (1.0, None) when t* is
    undefined or the decrease tr(Y^T A Y Y^T M Y) (1 - t*^2)^2 is within the
    rounding bound of the line Y + (t* - 1) Y."""
    line = prod.line(prod.y)
    quartic = float(line.coeffs[3])
    squared = float(np.sum(prod.by * prod.by))
    if not (quartic > 0.0 and squared > 0.0):
        return 1.0, None
    scale = math.sqrt(squared / (2.0 * quartic))
    if not quartic * (1.0 - scale * scale) ** 2 > line.bound(scale - 1.0):
        return 1.0, None
    return scale, -squared * squared / (4.0 * quartic)


def _at_rounding_floor(prod):
    """Whether N Y = U (V^T Y) + V (U^T Y) - B (B^T Y) is within the
    rounding of its three terms."""
    y, u, v = prod.y, prod.u, prod.v
    terms = (np.linalg.norm(u) * np.linalg.norm(v.T @ y)
             + np.linalg.norm(v) * np.linalg.norm(u.T @ y)
             + np.linalg.norm(prod.problem.b) * np.linalg.norm(prod.by))
    return np.linalg.norm(prod.ny) <= ROUNDING * terms


def solve_fixed_rank(problem, metric, y0, config=None, precond_choice="none",
                     target=None):
    """Riemannian truncated Newton iteration at fixed rank.

    Row 0 of the trace is the factor Y as given, and grad_tol_rel is
    relative to its gradient norm. The cost is quartic in a scale t of Y,
    f(t Y) = t^4 tr(Y^T A Y Y^T M Y) - t^2 ||B^T Y||^2, so the iteration
    then starts from t* Y, t*^2 = ||B^T Y||^2 / (2 tr(Y^T A Y Y^T M Y)),
    when the closed-form decrease tr(Y^T A Y Y^T M Y) (1 - t*^2)^2 exceeds
    its rounding bound; its products A Y, M Y and B^T Y are t* times those
    of Y (FactorPoint.scaled). It runs until the gradient norm falls to
    grad_tol_rel times its initial value or max_outer iterations. Each
    outer iteration builds the chosen preconditioner at the current point,
    runs the truncated conjugate gradient on the Newton equation and takes
    a line search step (see line_search). It ends at the rounding floor
    ("floor") when, before the build, ||N Y||_F is within rounding of its
    terms, 64 eps (||A Y|| ||Y^T M Y|| + ||M Y|| ||Y^T A Y||
    + ||B|| ||B^T Y||), or when a line search that found no step demanded
    no more than the rounding bound of the cost difference. Given a residual
    `target`, the solve also ends after the first iteration whose relres
    is at most the target ("target"), and after an iteration k >= 2 whose
    unit step lowered the gradient norm but left relres above STALL_RATIO
    times the previous relres and STALL_MARGIN times the target ("stall").

    Parameters
    ----------
    problem : LyapunovProblem
    metric : Metric
    y0 : FactorPoint or ndarray
        Initial factor of full column rank.
    config : TnewtonConfig, optional
    precond_choice : {"none", "proposed", "bart"}
    target : float, optional

    Returns
    -------
    (FactorPoint, SolveTrace)
        The trace's `stops` holds the one reason the solve ended, and its
        `scales` the start scale t* (1.0 when not applied).
    """
    if precond_choice not in ("none", "proposed", "bart"):
        raise ValueError(f"unknown preconditioner choice {precond_choice!r}")
    if config is None:
        config = TnewtonConfig()
    point = _as_point(y0)
    if not point.has_full_rank:
        raise ValueError("initial factor must have full column rank")
    p = point.p
    max_inner = point.n * p - (p * (p - 1)) // 2

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
    scale, f_scaled = _start_scale(point.products(problem))
    trace.scales.append(scale)
    if f_scaled is not None:
        point = point.scaled(scale, problem)
        f_val = f_scaled
        grad = riemannian_gradient(metric, problem, point)
        gnorm = math.sqrt(horizontal_inner(metric, point, grad, grad))

    k = 0
    stop = "floor"  # if a break below ends the solve at the rounding floor
    try:
        while k < config.max_outer and gnorm > config.grad_tol_rel * gnorm0:
            k += 1
            t_iter = time.perf_counter()
            at = point
            if _at_rounding_floor(at.products(problem)):
                break

            def hess_fn(arr, at=at):
                return hessian_action(metric, problem, at, arr)

            def inner_fn(x, e, at=at):
                return horizontal_inner(metric, at, x, e)

            precond_fn = preconditioner(precond_choice, metric, problem, at)
            phi_k = min(FORCING_BETA, gnorm ** config.forcing_t)
            state = tpcg(
                grad, hess_fn, precond_fn, EPS_CURV, phi_k,
                inner=inner_fn, max_inner=max_inner,
            )
            nh_total += state.hessian_actions
            slope0 = horizontal_inner(metric, at, grad, state.direction)
            # Only rounding gives tPCG a direction that is not descent.
            if not slope0 < 0.0:
                break
            try:
                result = line_search(problem, metric, at, state.direction,
                                     f_val, slope0, config)
            except LineSearchError as exc:
                # When the acceptance conditions demand no more than the
                # rounding bound of the cost difference, no trial step can
                # be certified, so a search without a step means the floor,
                # not a failure.
                if exc.demanded <= exc.resolution:
                    break
                raise

            if result.fallback:
                trace.fallbacks.append(k)
            point = result.point
            f_val = result.f
            grad = riemannian_gradient(metric, problem, point)
            gnorm = math.sqrt(horizontal_inner(metric, point, grad, grad))
            prev = trace.final()
            relres = relative_residual(problem, point)
            trace.append(TraceRow(
                k=k, p=p, f=f_val, gradnorm=gnorm, relres=relres,
                inner_iters=state.hessian_actions, nH=nh_total,
                alpha=result.alpha,
                ms=(time.perf_counter() - t_iter) * 1e3,
            ))
            if target is not None and relres <= target:
                stop = "target"
                break
            if (target is not None and k >= 2 and result.alpha == 1.0
                    and gnorm < prev.gradnorm and relres > max(
                        STALL_RATIO * prev.relres, STALL_MARGIN * target)):
                stop = "stall"
                break
        else:
            stop = "max_outer" if gnorm > config.grad_tol_rel * gnorm0 \
                else "gradient"
    except (InnerSolveError, LineSearchError, PreconditionerError) as exc:
        # Callers that keep going (the increasing-rank loop, the command
        # line) still want the iterations that did complete.
        exc.trace = trace
        raise
    if len(trace.rows) == 1 and f_scaled is not None:
        # The last row describes the returned factor, here the scaled start.
        trace.append(TraceRow(
            k=1, p=p, f=f_val, gradnorm=gnorm,
            relres=relative_residual(problem, point), inner_iters=0, nH=0,
            alpha=0.0, ms=(time.perf_counter() - t_start) * 1e3,
        ))
    trace.final().nH = nh_total  # also an iteration that added no row
    trace.stops.append(stop)
    return point, trace
