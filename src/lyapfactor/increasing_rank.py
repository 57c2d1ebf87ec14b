"""Increasing-rank outer loop around the fixed-rank truncated Newton solver.

Solves at rank p_min, checks the relative residual against the target, and
warm-starts rank p + p_inc from the previous solution until the target or
p_max is reached. A rank need only give the next a good start, so each
rank but the last of the schedule also ends once an iterate meets the
target or its residual stalls or converges short of it (the `target` of
tnewton.solve_fixed_rank).

Increasing the rank needs care: the Euclidean cost gradient at a zero-padded
factor [Y 0] vanishes identically in the padded block, so a plain descent
step cannot activate the new columns. They are seeded with the most
negative eigendirections of the residual N = A Y Y^T M + M Y Y^T A - B B^T
(computed in a compressed basis, never forming N) at the exact minimizer
of the cost, which is quartic in their scale. The random factor of rank
p_min is given to the fixed-rank solver as drawn; that solver starts from
its cost-optimal scale.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .manifold import cost
from .problems import (ROUNDING, CostQuartic, FactorPoint, SolverError,
                       _as_point, _not_definite)
from .problems import relative_residual  # noqa: F401 (perfbench patches it)
from .tnewton import (SolveTrace, TnewtonConfig, _require_integers,
                      solve_fixed_rank)


@dataclass
class IrrConfig:
    """Rank schedule and stopping rule of the increasing-rank loop.

    Ranks p_min, p_min + p_inc, ... are visited, never exceeding p_max.
    The loop stops at the first rank whose relative residual is at most
    tau. Every rank but the last of the schedule is solved with tau as
    tnewton.solve_fixed_rank's `target`: it ends after its first iterate
    with relative residual at most tau (stop "target"), so the loop stops
    at that rank, or when its residual stalls or converges above tau
    (stop "stall"). The ranks and the seed must be integers, the seed
    nonnegative, and tau finite; ValueError otherwise.
    """

    p_min: int = 1
    p_max: int = 20
    p_inc: int = 1
    tau: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        _require_integers(self, "p_min", "p_max", "p_inc", "seed")
        if not 1 <= self.p_min <= self.p_max:
            raise ValueError("ranks must satisfy 1 <= p_min <= p_max")
        if self.p_inc < 1:
            raise ValueError("p_inc must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be finite and positive")


def _padded_column_seed(problem, point, p_inc):
    """Unit directions V for activating p_inc new factor columns.

    Works in the orthonormal column span of [A Y, M Y, B], where the
    residual N compresses to a small symmetric matrix; its most negative
    eigendirections give the steepest second-order cost decrease among
    unit-norm column additions. Columns beyond that span's dimension are
    leading unit vectors. The QR and the compressed residual are the
    point's, those of its residual norm (FactorPoint.products).
    """
    prod = point.products(problem)
    _, vecs = np.linalg.eigh(prod.compressed)
    dirs = prod.basis @ vecs[:, :p_inc]
    return np.hstack([dirs, np.eye(point.n, p_inc - dirs.shape[1])])


def _seed_scale(problem, dirs, products):
    """Scale s > 0 minimizing the cost of [Y, s V], V = dirs, or None.

    The cost along the line [Y, 0] + s [0, V] is the problems.CostQuartic
    f(Y) + c2 s^2 + c4 s^4 (c1 = c3 = 0), with c2 = tr(V^T N V),
    N = A Y Y^T M + M Y Y^T A - B B^T, and c4 = tr(V^T A V V^T M V);
    `products` are Y's (FactorPoint.products). The minimizer
    s^2 = -c2 / (2 c4) is returned when c2 is negative beyond its rounding
    bound, so that rounding does not decide whether some scale lowers the
    cost. c4 is positive when A and M are positive definite, so ValueError
    is raised when it is not.
    """
    b = problem.b
    seed = (dirs, problem.a.mat @ dirs, problem.m.mat @ dirs, b.T @ dirs)
    given = (products.y, products.u, products.v, products.by)
    y, u, v, by = (np.hstack([x, np.zeros_like(z)])
                   for x, z in zip(given, seed))
    along = tuple(np.hstack([np.zeros_like(x), z])
                  for x, z in zip(given, seed))
    line = CostQuartic((y, u, v, by, y.T @ u, y.T @ v), along)
    c2, c4 = line.coeffs[1], line.coeffs[3]
    if not c4 > 0.0:
        raise _not_definite("the seeded columns V give "
                            "c4 = tr(V^T A V V^T M V)", c4)
    if not c2 < -ROUNDING * line.sizes[1]:
        return None
    return math.sqrt(-c2 / (2.0 * c4))


def warm_start(problem, y_p, p_inc, rng=None):
    """Grow a solved factor by p_inc columns at their cost-optimal scale.

    Seeds the new columns along the most negative residual eigendirections
    V at the exact minimizer of the cost's quartic in their scale (see
    _seed_scale), or at 1e-4 ||Y|| / sqrt(p_inc) when no scale lowers the
    cost (tr(V^T N V) >= 0), and jitters them if the grown factor is rank
    deficient.

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
        The rank p + p_inc starting point and whether its cost is at most
        that of the padded factor [Y 0]. When it is above (no scale lowers
        the cost, or the jitter raised it), the point is returned all the
        same with a warning and the flag False; the outer loop is never
        aborted here.

    Raises
    ------
    SolverError
        If the grown factor is still rank deficient after its jitter.
    ValueError
        When the seed's c4 finds that A or M is not positive definite
        (see _seed_scale).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    point = _as_point(y_p)
    if not point.has_full_rank:
        raise ValueError("warm start needs a full rank factor")
    if p_inc < 1:
        raise ValueError("p_inc must be at least 1")
    norm = np.linalg.norm(point.y)
    dirs = _padded_column_seed(problem, point, p_inc)
    scale = _seed_scale(problem, dirs, point.products(problem))
    grown = (1e-4 * norm / np.sqrt(p_inc) if scale is None else scale) * dirs
    trial = FactorPoint(np.hstack([point.y, grown]))
    if not trial.has_full_rank:
        grown += 1e-8 * norm * rng.standard_normal(grown.shape)
        trial = FactorPoint(np.hstack([point.y, grown]))
        if not trial.has_full_rank:
            raise SolverError("seeded factor still rank deficient after "
                              "its jitter")
    if cost(problem, trial) <= cost(problem, point):
        return trial, True
    warnings.warn("the seeded columns raise the cost; continuing from the "
                  "seeded factor", RuntimeWarning)
    return trial, False


def solve_increasing_rank(problem, metric, config=None, tnewton_config=None,
                          precond_choice="none"):
    """Increasing-rank solve of the factored Lyapunov problem.

    Visits ranks p_min, p_min + p_inc, ... up to p_max, solving each with
    the truncated Newton iteration and stopping at the first rank whose
    relative residual reaches config.tau. All randomness (initial factor,
    warm start jitter) flows from one generator seeded by config.seed; the
    random factor of rank p_min is passed as drawn, and the fixed-rank
    solver starts from its cost-optimal scale.

    Returns
    -------
    (FactorPoint, SolveTrace)
        Final point and the concatenated multi-rank trace, with one
        `solves` record per rank started; the nH column accumulates across
        ranks. The record of each rank but the last holds the flag of the
        warm start grown from it, and the cost column does not rise across
        a rank transition whose flag is True.

    Raises
    ------
    SolverError or ValueError
        As raised by a rank's fixed-rank solve, or by the warm start that
        grows that rank's start: a SolverError when the solve fails, a
        ValueError when a start scale or a warm start finds that A or M is
        not positive definite. Either leaves as itself, with the rank
        whose start or solve raised as its `rank` and every row completed
        so far, the failing rank's included, as its `trace`.
    """
    if config is None:
        config = IrrConfig()
    if tnewton_config is None:
        tnewton_config = TnewtonConfig()
    n = problem.n
    if config.p_max > n:
        raise ValueError(f"p_max = {config.p_max} exceeds the problem size {n}")
    rng = np.random.default_rng(config.seed)
    point = FactorPoint(rng.standard_normal((n, config.p_min)))

    full_trace = SolveTrace()
    schedule = list(range(config.p_min, config.p_max + 1, config.p_inc))
    for rank in schedule:
        target = None if rank == schedule[-1] else config.tau
        try:
            if full_trace.solves:
                point, lowered = warm_start(problem, point, config.p_inc, rng)
                full_trace.solves[-1].warm_start = lowered
            point, trace = solve_fixed_rank(
                problem, metric, point, tnewton_config, precond_choice, target
            )
        except (SolverError, ValueError) as exc:
            # Keep the rows the failing rank did complete.
            if getattr(exc, "trace", None) is not None:
                full_trace.extend(exc.trace)
            exc.rank, exc.trace = rank, full_trace
            raise
        full_trace.extend(trace)
        if full_trace.final().relres <= config.tau or target is None:
            break
    return point, full_trace
