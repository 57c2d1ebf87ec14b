"""The benchmark's tracer still sees the preconditioner's work.

perfbench/tracing.py counts the preconditioner layer by replacing module
attributes that the library looks up at call time:
`precond.build_shift_cache`, `precond.apply_cached` and
`scipy.sparse.linalg.splu`. A refactor that binds one of those names
early leaves every solve correct but the benchmark's per-layer counts at
zero. Two short fixed-rank solves on a 12-by-12 grid, one per backend,
check that the counts still follow the work: in natural order the pencil
is banded (kd = 13), and randomly permuted it is wider than BAND_LIMIT
and goes to splu.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from helpers import grid_problem
from lyapfactor import Metric, TnewtonConfig, precond, tnewton

TRACING = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
           / "tracing.py")
_spec = importlib.util.spec_from_file_location("tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

P = 3


def _traced_grid_solve(perm_seed):
    prob = grid_problem(12, perm_seed)
    assert (precond._pencil(prob, "proposed")[2] is None) == (
        perm_seed is not None)
    y0 = np.random.default_rng(1).standard_normal((prob.n, P))
    tracer = tracing.Tracer()
    with tracer.installed():
        _, trace = tnewton.solve_fixed_rank(
            prob, Metric.EMBEDDED, y0, TnewtonConfig(max_outer=5), "proposed")
    return tracer.layer_metrics(), trace.solves[0]


@pytest.mark.parametrize("perm_seed", [None, 0], ids=["band", "splu"])
def test_tracer_counts_preconditioner_layers(perm_seed):
    metrics, record = _traced_grid_solve(perm_seed)
    builds = metrics["precond.build_shift_cache.calls"]
    applies = metrics["precond.apply_cached.calls"]
    assert builds > 0
    assert applies > 0
    if perm_seed is None:
        assert metrics["precond.splu.calls"] == 0
        assert metrics["precond.lu_solve.cols"] == 0
    else:
        # the factorizations the solve counts (its builds share a shift
        # bank, so fewer than p per build), p^2 columns of Z_i per build
        # and one column per shift per apply
        assert metrics["precond.splu.calls"] == record.factorizations
        assert 0 < record.factorizations < P * builds
        assert metrics["precond.lu_solve.cols"] == (P * P * builds
                                                    + P * applies)
