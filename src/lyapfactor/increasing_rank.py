"""Increasing-rank outer loop around the fixed-rank truncated Newton solver.

Solves at rank p_min, checks the relative residual against the target, and
warm-starts rank p + p_inc from the previous solution until the target or
p_max is reached. A rank need only give the next a good start, so each
rank but the last of the schedule also ends once its residual stalls short
of the target (the `target` of tnewton.solve_fixed_rank).

Increasing the rank needs care: the Euclidean cost gradient at a zero-padded
factor [Y 0] vanishes identically in the padded block, so a plain descent
step cannot activate the new columns. The padded columns are therefore
seeded with the most negative eigendirections of the residual
N = A Y Y^T M + M Y Y^T A - B B^T (computed in a compressed basis, never
forming N), which decrease the cost to second order, before one safeguarded
steepest-descent step is taken.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .manifold import Metric, cost, riemannian_gradient
from .precond import PreconditionerError
from .problems import FactorPoint, _as_point, _compressed_residual
from .problems import relative_residual  # noqa: F401 (perfbench patches it)
from .tnewton import (
    InnerSolveError,
    LineSearchError,
    SolveTrace,
    TnewtonConfig,
    solve_fixed_rank,
)


@dataclass
class IrrConfig:
    """Rank schedule and stopping rule of the increasing-rank loop.

    Ranks p_min, p_min + p_inc, ... are visited, never exceeding p_max.
    The loop stops at the first rank whose relative residual is at most
    tau. Every rank but the last of the schedule also ends when its
    residual stalls above tau (tnewton.solve_fixed_rank's `target`).
    """

    p_min: int = 1
    p_max: int = 20
    p_inc: int = 1
    tau: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.p_min <= self.p_max:
            raise ValueError("ranks must satisfy 1 <= p_min <= p_max")
        if self.p_inc < 1:
            raise ValueError("p_inc must be at least 1")
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")


class IncreasingRankError(RuntimeError):
    """A rank's inner solve failed; carries the trace collected so far."""

    def __init__(self, rank, trace, cause):
        super().__init__(f"inner solve failed at rank {rank}: {cause}")
        self.rank = rank
        self.trace = trace
        self.cause = cause


def _padded_column_seed(problem, point, p_inc):
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


def warm_start(problem, y_p, p_inc, rng=None):
    """Grow a solved factor by p_inc columns and take one descent step.

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

    dirs, scale = _padded_column_seed(problem, point, p_inc)
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


def solve_increasing_rank(problem, metric, config=None, tnewton_config=None,
                          precond_choice="none"):
    """Increasing-rank solve of the factored Lyapunov problem.

    Visits ranks p_min, p_min + p_inc, ... up to p_max, solving each with
    the truncated Newton iteration and stopping at the first rank whose
    relative residual reaches config.tau. All randomness (initial factor,
    warm start jitter) flows from one generator seeded by config.seed.

    Returns
    -------
    (FactorPoint, SolveTrace)
        Final point and the concatenated multi-rank trace, with one `stops`
        entry per completed rank; the nH column accumulates across ranks.
        The cost column decreases across every rank transition unless a
        warm start warned about a failed step.

    Raises
    ------
    IncreasingRankError
        On an inner solve failure; the partial trace (rows, and the stops
        of the ranks that completed) rides along.
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
    assert point.has_full_rank

    full_trace = SolveTrace()
    nh_offset = 0
    schedule = list(range(config.p_min, config.p_max + 1, config.p_inc))
    for rank in schedule:
        target = None if rank == schedule[-1] else config.tau
        try:
            point, trace = solve_fixed_rank(
                problem, metric, point, tnewton_config, precond_choice, target
            )
        except (InnerSolveError, LineSearchError, PreconditionerError) as exc:
            # Keep the rows the failing rank did complete.
            for row in getattr(exc, "trace", SolveTrace()).rows:
                full_trace.append(replace(row, nH=row.nH + nh_offset))
            raise IncreasingRankError(rank, full_trace, exc) from exc
        for row in trace.rows:
            full_trace.append(replace(row, nH=row.nH + nh_offset))
        full_trace.stops += trace.stops
        nh_offset = full_trace.final().nH
        if full_trace.final().relres <= config.tau or target is None:
            break
        point, _ = warm_start(problem, point, config.p_inc, rng)
    return point, full_trace
