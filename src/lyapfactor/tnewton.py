"""Truncated Newton iteration with preconditioned conjugate gradient inner solves.

The outer loop starts from the cost-optimal scale of the given factor,
approximately solves the Newton equation Hess f[eta] = -grad f by a
truncated preconditioned conjugate gradient method with two early exits
(insufficient curvature and a forcing-sequence residual test), then takes
a step accepted by a two-branch decrease condition, or by Armijo's
condition when no trial meets it. A cold start first steps along -grad,
with no preconditioner build, for as long as the Hessian's curvature
along -grad is not positive (see solve_fixed_rank). The cost is exactly
quartic along every line the solver searches (problems.CostQuartic), so
the trial steps are closed-form (the unit step and the quartic's first
minimizer) and each trial's decrease is read off the polynomial and
trusted only beyond its rounding bound. The inner solver works on raw arrays with an injected inner
product, so it is independent of the manifold it runs on.
"""

import math
import operator
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .manifold import (
    cost,
    hessian_action,
    horizontal_inner,
    retract,
    riemannian_gradient,
)
from .precond import preconditioner
from .problems import (ROUNDING, FactorPoint, SolverError, _as_point,
                       _not_definite, relative_residual)


# Curvature exit threshold of the inner solve (and of the steepest-descent
# probe), the factor by which the start scale t* must move the given factor
# for a cold start (|log t*| > log COLD_START_FACTOR; see solve_fixed_rank),
# the cap of the forcing sequence phi_k = min(FORCING_BETA, ||grad||), the
# two step acceptance constants of line_search (CHI2 also scales Armijo's
# condition of its fallback), and the ratio, margin and gradient drop of the
# stall rule of a solve given a residual target (see _stalled).
EPS_CURV = 1e-10
COLD_START_FACTOR = 2.0
FORCING_BETA = 0.1
CHI1 = 1e-4
CHI2 = 1e-4
STALL_RATIO = 0.99
STALL_MARGIN = 3.0
STALL_GRADIENT_DROP = 0.1


class InnerSolveError(SolverError):
    """A non-finite quantity appeared inside the inner conjugate gradient,
    at its step `iteration`."""

    def __init__(self, iteration):
        super().__init__(
            f"non-finite value in the inner solve at iteration {iteration}"
        )
        self.iteration = iteration


class LineSearchError(SolverError):
    """No trial of the line search gave an acceptable step.

    `backtracks` is the number of trials less one, `alpha` the last trial
    and `demanded` the decrease the acceptance conditions asked for,
    min(CHI1 slope0^2 / ||d||_g^2, -CHI2 slope0), and `resolution` the
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
    """Stopping rule of the truncated Newton iteration: a solve ends once
    ||grad|| is at most grad_tol_rel times its value at the factor as
    given, or after max_outer iterations. grad_tol_rel must be finite and
    nonnegative and max_outer a nonnegative integer; ValueError otherwise.
    Each inner solve is capped at the manifold dimension n p - p (p - 1) / 2
    steps, and each line search tries at most three closed-form steps."""

    grad_tol_rel: float = 1e-12
    max_outer: int = 200

    def __post_init__(self):
        if not 0.0 <= self.grad_tol_rel < math.inf:
            raise ValueError("grad_tol_rel must be finite and nonnegative, "
                             f"got {self.grad_tol_rel!r}")
        _require_integers(self, "max_outer")
        if self.max_outer < 0:
            raise ValueError("max_outer must be nonnegative")


def _require_integers(config, *names):
    """ValueError unless each named field of `config` is an integer, one
    that operator.index accepts (so numpy integers pass)."""
    for name in names:
        value = getattr(config, name)
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") \
                from None


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
    step would divide by it, or after max_inner steps; a breakdown at the
    first preconditioned residual returns the zero direction after no
    Hessian action. The forcing test comes before the preconditioner
    apply, so there is no apply after the last residual update of a
    "forcing" stop: k Hessian actions take k applies, where a stop on
    curvature at step i takes i + 1.

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
    if not math.isfinite(ry):
        raise InnerSolveError(0)
    if ry <= 0.0:
        return TpcgState(eta, 0, "breakdown", rel)

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


def line_search(problem, metric, point, direction, f0, slope0):
    """Take a step accepted by one of the two decrease conditions.

    A step alpha is accepted when

        f(alpha) - f0 <= -CHI1 * slope0^2 / ||direction||_g^2

    or

        f(alpha) - f0 <= CHI2 * slope0,

    both of which demand a fixed decrease for a descent direction. The
    cost along the line is the quartic of problems.CostQuartic, so
    f(alpha) - f0 is taken from its coefficients, with no cost evaluation,
    and a decrease counts only beyond its rounding bound eps(alpha). The
    cost falls monotonically up to the quartic's first positive minimizer
    alpha*, so no step below alpha* meets a condition that alpha* misses,
    and the trials are closed-form: alpha = 1; then max(alpha*, 1/10) when
    alpha* < 1; then alpha* itself when alpha* < 1/10. The first trial that
    meets a condition is taken; only it is retracted, and a trial whose
    factor loses full column rank is rejected. alpha* (a root of the
    quartic's cubic derivative) is found only when the unit step is not
    taken, so a search that takes it solves for no root.

    When no trial meets either condition but the demanded decrease is
    above eps(alpha*), the first trial that met Armijo's condition
    f(alpha) - f0 <= CHI2 * alpha * slope0 is returned, with `fallback`
    set; otherwise LineSearchError is raised. With CHI2 at or above about
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

    Returns
    -------
    LineSearchResult
    """
    if not slope0 < 0.0:
        raise ValueError("search direction must be a descent direction")
    norm_sq = horizontal_inner(metric, point, direction, direction)
    threshold = max(-CHI1 * slope0 * slope0 / norm_sq, CHI2 * slope0)
    line = point.products(problem).line(direction)

    def meets(alpha, demanded):
        delta = line.delta(alpha)
        return delta < -line.bound(alpha) and delta <= demanded

    if meets(1.0, threshold):
        try:
            return LineSearchResult(1.0, retract(point, direction, 1.0),
                                    f0 + line.delta(1.0), 0)
        except ValueError:
            pass
    star = line.minimizer
    trials = [1.0]
    if star is not None and star < 1.0:
        trials += [max(star, 0.1)] + ([star] if star < 0.1 else [])
    resolution = line.bound(1.0 if star is None else star)
    order = [(i, False) for i, alpha in enumerate(trials)
             if meets(alpha, threshold)]
    if -threshold > resolution:
        order += [(i, True) for i, alpha in enumerate(trials)
                  if meets(alpha, CHI2 * alpha * slope0)]
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


@dataclass
class SolveRecord:
    """What one fixed-rank solve did, beyond its trace rows.

    `p` is the solve's rank and `scale` the start scale t* it applied to
    its given factor (1.0 when not applied). `stop` says why it ended:
    "gradient" (grad_tol_rel reached), "max_outer", "floor" (the gradient
    N Y is at the rounding level of its terms, or the decrease a line
    search that found no step demanded is within the rounding bound of
    the cost difference), "target" (an iterate met the residual target, or
    the factor as given did, in which case row 0 is the solve's only row)
    or "stall" (the residual target's stall rule, see _stalled: the
    residual settled above the target, or the rank converged there); None
    for a solve that raised, its start scale included (its `scale` is then
    1.0). With a target, the stall rule ends a rank that has converged
    above it before the rounding floor; "floor" remains the usual exit of
    a solve without a target. `fallbacks` lists the
    iterations k whose step the line search's Armijo fallback took,
    `steepest` the iterations k whose step was the steepest-descent probe's
    (along -grad, with no build and no inner solve; see solve_fixed_rank),
    and `builds` counts the preconditioner builds the solve made: a build
    that raised, and that of an iteration that ended at the rounding floor
    after its inner solve, included. `factorizations` counts the shift
    factorizations those builds made: p per build, or the shifts missing
    from the solve's shift bank where its builds share one (see
    precond.build_shift_cache), a shift that failed to factor included.
    `warm_start` is the flag of the warm start an increasing-rank solve
    grew from this solve's result (None when none followed).
    """

    p: int
    scale: float = 1.0
    stop: str | None = None
    fallbacks: list = field(default_factory=list)
    steepest: list = field(default_factory=list)
    builds: int = 0
    factorizations: int = 0
    warm_start: bool | None = None


@dataclass
class SolveTrace:
    """Per-iteration record of a solve, with one SolveRecord per fixed-rank
    solve started in `solves`.

    Row k = 0 holds the initial state of a rank, at the factor as given
    (alpha and inner_iters are zero there); each later row holds the
    accepted iterate of outer iteration k. A solve that scales its start
    but ends before its first step records the scaled start it returns as
    row 1, with alpha and inner_iters zero. inner_iters is the number of
    Hessian actions of the iteration: 1 for a steepest-descent probe step,
    the probe's action; for any other step the inner solve's actions, plus
    1 when a probe that found positive curvature came first. nH
    accumulates them within the rank. The f column of a row k > 0 is the
    previous value plus the exact cost difference of the step, f0 + Delta,
    not a fresh evaluation; at k = 1 the previous value is the closed-form
    cost at the scaled start, when the start was scaled. Every accepted
    Delta is a certified decrease, so the column never rises within a
    rank; it stays level where Delta is below the resolution of f. An
    iteration that ends the solve at the rounding floor after its inner
    solve adds no row; its Hessian actions go to the last row's nH, its
    preconditioner build to the SolveRecord's builds. So do those of an
    iteration whose build, inner solve or line search raises, in the
    partial trace the exception carries.
    """

    rows: list = field(default_factory=list)
    solves: list = field(default_factory=list)

    def extend(self, other):
        """Append a later solve's record, continuing nH from this trace's
        last row."""
        nh = self.rows[-1].nH if self.rows else 0
        self.rows += [replace(row, nH=row.nH + nh) for row in other.rows]
        self.solves += other.solves

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
        names = [f.name for f in fields(TraceRow)]
        lines = [",".join(names)]
        lines += [",".join(f"{getattr(row, name):.17g}" for name in names)
                  for row in self.rows]
        return "\n".join(lines) + "\n"


def _start_scale(prod):
    """The cost-optimal scale t* of a factor Y and the cost there,
    f(t* Y) = -||B^T Y||^4 / (4 tr(Y^T A Y Y^T M Y)), free of the
    cancellation in f(Y) minus the decrease; or (1.0, None) when B^T Y = 0
    or the decrease tr(Y^T A Y Y^T M Y) (1 - t*^2)^2 is within the rounding
    bound of the line Y + (t* - 1) Y. tr(Y^T A Y Y^T M Y) is positive when
    A and M are positive definite, so ValueError is raised when it is not.
    """
    line = prod.line(prod.y)
    quartic = float(line.coeffs[3])
    if not quartic > 0.0:
        raise _not_definite("the factor Y gives tr(Y^T A Y Y^T M Y)",
                            quartic)
    squared = float(np.sum(prod.by * prod.by))
    if not squared > 0.0:
        return 1.0, None
    scale = math.sqrt(squared / (2.0 * quartic))
    if not quartic * (1.0 - scale * scale) ** 2 > line.bound(scale - 1.0):
        return 1.0, None
    return scale, -squared * squared / (4.0 * quartic)


def _at_rounding_floor(prod):
    """Whether N Y = U (V^T Y) + V (U^T Y) - B (B^T Y) is within the
    rounding of its three terms, ROUNDING (||U|| ||V^T Y|| + ||V|| ||U^T Y||
    + ||B|| ||B^T Y||), with U = A Y and V = M Y."""
    terms = (np.linalg.norm(prod.u) * np.linalg.norm(prod.yv)
             + np.linalg.norm(prod.v) * np.linalg.norm(prod.yu)
             + np.linalg.norm(prod.problem.b) * np.linalg.norm(prod.by))
    return np.linalg.norm(prod.ny) <= ROUNDING * terms


def _stalled(prev, row, target):
    """Whether the stall rule ends a solve with residual `target` after
    trace row `row`, whose predecessor is `prev`.

    The rule needs k >= 2 and a unit step that lowered the gradient norm
    but left relres above STALL_RATIO times the previous relres. Then
    relres has stalled above the target when it is above STALL_MARGIN
    times the target, or when it is above target / STALL_RATIO and the
    gradient norm fell below STALL_GRADIENT_DROP times the previous one.
    In the second case the Newton tail converges superlinearly, so relres
    already sits at the rank's limit and more iterations do not take it
    below the target.
    """
    if not (row.k >= 2 and row.alpha == 1.0 and row.gradnorm < prev.gradnorm
            and row.relres > STALL_RATIO * prev.relres):
        return False
    return (row.relres > STALL_MARGIN * target
            or (row.gradnorm < STALL_GRADIENT_DROP * prev.gradnorm
                and row.relres > target / STALL_RATIO))


def solve_fixed_rank(problem, metric, y0, config=None, precond_choice="none",
                     target=None):
    """Riemannian truncated Newton iteration at fixed rank.

    Row 0 of the trace is the factor Y as given, and grad_tol_rel is
    relative to its gradient norm. The cost is quartic in a scale t of Y,
    f(t Y) = t^4 tr(Y^T A Y Y^T M Y) - t^2 ||B^T Y||^2, so the iteration
    then starts from t* Y, t*^2 = ||B^T Y||^2 / (2 tr(Y^T A Y Y^T M Y)),
    when the closed-form decrease tr(Y^T A Y Y^T M Y) (1 - t*^2)^2 exceeds
    its rounding bound; its products A Y, M Y and B^T Y are t* times those
    of Y (FactorPoint.scaled). Each outer iteration builds the chosen
    preconditioner at the current point (the builds of one solve share
    one shift bank, see precond.build_shift_cache), runs the truncated
    conjugate gradient on the Newton equation and takes a line search step
    (see line_search), with one exception. A solve with a preconditioner whose
    start is cold, the scale t* moving the given factor by more than
    COLD_START_FACTOR, probes first: it applies the Hessian to -grad, and
    while the curvature <-grad, Hess[-grad]> is at most EPS_CURV ||grad||^2
    (where the inner solve would stop on curvature after that one action)
    the step is -grad, scaled to the first minimizer of the cost on that
    line so that the unit trial is the exact line minimizer, with no
    build. The first probe that finds positive curvature builds and runs
    the inner solve as usual, and the solve does not probe again. Each
    probe's action counts in nH. The solve ends for one of the reasons of
    SolveRecord.stop. The rounding floor is tested before each probe or
    build (see _at_rounding_floor) and after a line search that found no
    step. A residual `target` is tested at row 0, where the factor as given
    is returned with scale 1.0, and after each iteration, together with the
    stall rule (see _stalled).

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
        The trace's `solves` holds the solve's one SolveRecord: why it
        ended, its start scale t*, its Armijo fallback and steepest-descent
        steps, its preconditioner builds and their shift factorizations.
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
    record = SolveRecord(p)
    trace = SolveTrace(solves=[record])
    bank = {}  # the shift factors its builds share, see build_shift_cache

    def gradient(at):
        grad = riemannian_gradient(metric, problem, at)
        return grad, math.sqrt(horizontal_inner(metric, at, grad, grad))

    def hess(direction):
        # Every Hessian action of the solve, and the only count of them.
        nonlocal nh_total
        nh_total += 1
        return hessian_action(metric, problem, point, direction)

    def inner(x, e):
        return horizontal_inner(metric, point, x, e)

    def add_row(k, inner_iters, alpha, since):
        # Appends and returns the row of point, f_val, gnorm and nh_total.
        trace.rows.append(TraceRow(
            k=k, p=p, f=f_val, gradnorm=gnorm,
            relres=relative_residual(problem, point),
            inner_iters=inner_iters, nH=nh_total, alpha=alpha,
            ms=(time.perf_counter() - since) * 1e3,
        ))
        return trace.rows[-1]

    t_start = time.perf_counter()
    f_val = cost(problem, point)
    grad, gnorm = gradient(point)
    gnorm0 = gnorm
    nh_total = 0
    row = add_row(0, 0, 0.0, t_start)
    if target is not None and row.relres <= target:
        record.stop = "target"
        return point, trace
    k = 0
    stop = "floor"  # if a break below ends the solve at the rounding floor
    try:
        record.scale, f_scaled = _start_scale(point.products(problem))
        if f_scaled is not None:
            point = point.scaled(record.scale, problem)
            f_val = f_scaled
            grad, gnorm = gradient(point)

        # a cold start was scaled: t* is 1.0 whenever f_scaled is None
        cold = abs(math.log(record.scale)) > math.log(COLD_START_FACTOR)
        probing = precond_choice != "none" and cold
        while k < config.max_outer and gnorm > config.grad_tol_rel * gnorm0:
            k += 1
            t_iter = time.perf_counter()
            if _at_rounding_floor(point.products(problem)):
                break
            nh_iter = nh_total
            if probing:
                # The steepest-descent probe: while the curvature along
                # -grad is at most EPS_CURV ||grad||^2, the step is along
                # -grad, scaled to the cost's first minimizer on that line,
                # with no build.
                probing = inner(grad, hess(grad)) <= EPS_CURV * gnorm * gnorm
            if probing:
                star = point.products(problem).line(-grad).minimizer
                direction = -(1.0 if star is None else star) * grad
            else:
                record.builds += precond_choice != "none"
                state = tpcg(
                    grad, hess,
                    preconditioner(precond_choice, metric, problem, point,
                                   bank, record),
                    EPS_CURV, min(FORCING_BETA, gnorm),
                    inner=inner, max_inner=max_inner,
                )
                direction = state.direction
            slope0 = inner(grad, direction)
            # Only rounding gives tPCG a direction that is not descent.
            if not slope0 < 0.0:
                break
            result = line_search(problem, metric, point, direction, f_val,
                                 slope0)
            if result.fallback:
                record.fallbacks.append(k)
            if probing:
                record.steepest.append(k)
            point = result.point
            f_val = result.f
            grad, gnorm = gradient(point)
            prev, row = row, add_row(k, nh_total - nh_iter, result.alpha,
                                     t_iter)
            if target is not None and row.relres <= target:
                stop = "target"
                break
            if target is not None and _stalled(prev, row, target):
                stop = "stall"
                break
        else:
            stop = "max_outer" if gnorm > config.grad_tol_rel * gnorm0 \
                else "gradient"
    except (SolverError, ValueError) as exc:
        # When the acceptance conditions of a line search that found no
        # step demand no more than the rounding bound of the cost
        # difference, no trial step can be certified, so the search means
        # the floor (stop is still "floor"), not a failure. Callers that
        # keep going after any other error (the increasing-rank loop, the
        # command line) still want the iterations that did complete, and a
        # start scale that raised keeps row 0 and the solve's record.
        if not (isinstance(exc, LineSearchError)
                and exc.demanded <= exc.resolution):
            exc.trace = trace
            raise
    finally:
        # Also the actions of an iteration that added no row: a floor exit
        # after tPCG, or a failure within it or after it.
        trace.final().nH = nh_total
    if len(trace.rows) == 1 and f_scaled is not None:
        # The last row describes the returned factor, here the scaled start.
        add_row(1, 0, 0.0, t_start)
    record.stop = stop
    return point, trace
