"""Workloads of the lyapfactor benchmark.

A workload is a batch of solver instances. The run's --seed s names the
batch: instance i of a batch of size k has the instance seed s * k + i, so
the default seed 0 starts at instance seed 0 and batches of different run
seeds never share an instance. An instance seed reaches every random input
(the problem generator, the initial factor and IrrConfig.seed); the library
sees only the generated inputs. Why each workload was chosen, and which
layer each one stresses, is written down in README.md beside this file.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

import lyapfactor as lf
from lyapfactor import increasing_rank, tnewton

# Instance seeds are derived as run_seed * batch + i.
IRR_N = 100
IRR_BATCH = 20
IRR_CONFIG = {"p_min": 1, "p_max": 40, "tau": 1e-6}

GRID_SIDE = 40
GRID_RANK = 5
GRID_BATCH = 20

# Every solve uses metric 1 and the proposed preconditioner.
METRIC = lf.Metric.EMBEDDED
PRECOND = "proposed"


@dataclass
class Instance:
    """Generated inputs of one solve."""

    seed: int
    problem: lf.LyapunovProblem
    y0: np.ndarray | None = None


def setup_irr(seed):
    """1-D Poisson with random diagonal mass, as the generator makes it."""
    return Instance(seed, lf.gen_poisson(IRR_N, seed))


def solve_irr(instance):
    config = lf.IrrConfig(**IRR_CONFIG, seed=instance.seed)
    return increasing_rank.solve_increasing_rank(
        instance.problem, METRIC, config, None, PRECOND)


def grid_operators(side):
    """5-point stiffness and consistent mass on a side-by-side grid.

    A = T (x) I + I (x) T with T = tridiag(-1, 2, -1) / h^2, h = 1/(side+1),
    and M = Mh (x) Mh with Mh = tridiag(1, 4, 1) / 6, so M is not diagonal.
    """
    h = 1.0 / (side + 1)
    ones = np.ones(side - 1)
    t = sps.diags([-ones, np.full(side, 2.0), -ones], [-1, 0, 1]) / (h * h)
    mh = sps.diags([ones, np.full(side, 4.0), ones], [-1, 0, 1]) / 6.0
    eye = sps.identity(side)
    return sps.kron(t, eye) + sps.kron(eye, t), sps.kron(mh, mh)


def setup_grid(seed):
    a, m = grid_operators(GRID_SIDE)
    rng = np.random.default_rng(seed)
    n = GRID_SIDE * GRID_SIDE
    b = rng.standard_normal((n, 1))
    y0 = rng.standard_normal((n, GRID_RANK))
    problem = lf.LyapunovProblem(lf.SpdSparseMatrix(a), lf.SpdSparseMatrix(m), b)
    return Instance(seed, problem, y0)


def solve_grid(instance):
    return tnewton.solve_fixed_rank(
        instance.problem, METRIC, instance.y0, lf.TnewtonConfig(), PRECOND)


@dataclass(frozen=True)
class Workload:
    name: str
    batch: int
    setup: object
    solve: object
    tau: float | None  # residual target; None for a fixed-rank solve

    def instance_seeds(self, run_seed):
        return [run_seed * self.batch + i for i in range(self.batch)]


WORKLOADS = {
    w.name: w for w in (
        Workload("irr-poisson1d", IRR_BATCH, setup_irr, solve_irr,
                 IRR_CONFIG["tau"]),
        Workload("fixed-grid2d", GRID_BATCH, setup_grid, solve_grid, None),
    )
}
