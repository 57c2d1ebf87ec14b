"""Spans and counters around the library's module-level functions.

The tracer replaces, for the duration of a `with tracer.installed():` block,
the module attributes the library's callers look up (for example
`lyapfactor.tnewton.hessian_action` and `scipy.sparse.linalg.splu`) with
wrappers that record a span (name, start, end, parent, solve id) per call.
Sparse products with A and M are counted by handing the library counting
views of the two matrices, and triangular-solve columns by wrapping each
SuperLU object splu returns. The library itself is not edited. Spans stay
in memory until `write` is called once at the end of a run.
"""

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as sps_la

from lyapfactor import increasing_rank, precond, tnewton
from lyapfactor.tnewton import LineSearchError

# Layer (module of lyapfactor) that owns each span name.
LAYER = {
    "relative_residual": "problems",
    "hessian_action": "manifold",
    "riemannian_gradient": "manifold",
    "cost": "manifold",
    "build_shift_cache": "precond",
    "splu": "precond",
    "apply_cached": "precond",
    "solve_fixed_rank": "tnewton",
    "tpcg": "tnewton",
    "line_search": "tnewton",
    "solve_increasing_rank": "increasing_rank",
    "warm_start": "increasing_rank",
}

# Counts recorded at the wrappers; all start at zero in every run.
COUNTS = (
    "problems.spmm.calls", "problems.spmm.cols",
    "precond.lu_solve.cols", "precond.lu_fill_nnz", "precond.errors",
    "tnewton.tpcg.stop.curvature", "tnewton.tpcg.stop.forcing",
    "tnewton.tpcg.stop.max_inner", "tnewton.hessian_useful.actions",
    "tnewton.line_search.backtracks", "tnewton.line_search.exhausted",
    "increasing_rank.warm_start.failed",
)


class _CountingCsr(sps.csr_matrix):
    """CSR matrix that counts its products with dense arrays."""

    def __matmul__(self, other):
        counts = getattr(self, "counts", None)
        if counts is not None and isinstance(other, np.ndarray):
            counts["problems.spmm.calls"] += 1
            counts["problems.spmm.cols"] += 1 if other.ndim == 1 else other.shape[1]
        return super().__matmul__(other)


class _CountingLU:
    """SuperLU stand-in that counts the right-hand-side columns it solves."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, rhs, *args):
        self._counts["precond.lu_solve.cols"] += 1 if rhs.ndim == 1 else rhs.shape[1]
        return self._lu.solve(rhs, *args)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, solve id]
        self.counts = Counter(dict.fromkeys(COUNTS, 0))
        self._stack = []
        self._solve_id = None
        self._pending_actions = 0
        self._build_nnz = 0

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        def wrapped(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self._solve_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._on_error(name, exc)
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            return after(result) if after else result
        return wrapped

    def _on_error(self, name, exc):
        if name == "line_search" and isinstance(exc, LineSearchError):
            self.counts["tnewton.line_search.exhausted"] += 1
        elif name in ("build_shift_cache", "apply_cached") and \
                isinstance(exc, precond.PreconditionerError):
            self.counts["precond.errors"] += 1

    # -- per-call hooks ----------------------------------------------------

    def _after_tpcg(self, state):
        self.counts[f"tnewton.tpcg.stop.{state.stop}"] += 1
        self._pending_actions = state.hessian_actions
        return state

    def _after_line_search(self, result):
        # The line search returned, so the outer iteration's step is taken
        # and the Hessian actions of its inner solve were useful.
        self.counts["tnewton.line_search.backtracks"] += result.backtracks
        self.counts["tnewton.hessian_useful.actions"] += self._pending_actions
        self._pending_actions = 0
        return result

    def _after_warm_start(self, result):
        if not result[1]:
            self.counts["increasing_rank.warm_start.failed"] += 1
        return result

    def _after_splu(self, lu):
        self._build_nnz += lu.nnz
        return _CountingLU(lu, self.counts)

    def _build(self, fn):
        inner = self._wrap("build_shift_cache", fn)

        def build(*args, **kwargs):
            self._build_nnz = 0
            try:
                return inner(*args, **kwargs)
            finally:
                self.counts["precond.lu_fill_nnz"] = max(
                    self.counts["precond.lu_fill_nnz"], self._build_nnz)
        return build

    @contextmanager
    def installed(self):
        """Patch the library's lookups for the duration of the block."""
        fixed = self._wrap("solve_fixed_rank", tnewton.solve_fixed_rank)
        rel = self._wrap("relative_residual", tnewton.relative_residual)
        cost = self._wrap("cost", tnewton.cost)
        patches = [
            (tnewton, "solve_fixed_rank", fixed),
            (increasing_rank, "solve_fixed_rank", fixed),
            (tnewton, "relative_residual", rel),
            (increasing_rank, "relative_residual", rel),
            (tnewton, "cost", cost),
            (increasing_rank, "cost", cost),
            (increasing_rank, "solve_increasing_rank",
             self._wrap("solve_increasing_rank",
                        increasing_rank.solve_increasing_rank)),
            (increasing_rank, "warm_start",
             self._wrap("warm_start", increasing_rank.warm_start,
                        self._after_warm_start)),
            (tnewton, "tpcg",
             self._wrap("tpcg", tnewton.tpcg, self._after_tpcg)),
            (tnewton, "line_search",
             self._wrap("line_search", tnewton.line_search,
                        self._after_line_search)),
            (tnewton, "hessian_action",
             self._wrap("hessian_action", tnewton.hessian_action)),
            (tnewton, "riemannian_gradient",
             self._wrap("riemannian_gradient", tnewton.riemannian_gradient)),
            (precond, "build_shift_cache",
             self._build(precond.build_shift_cache)),
            (precond, "apply_cached",
             self._wrap("apply_cached", precond.apply_cached)),
            (sps_la, "splu", self._wrap("splu", sps_la.splu, self._after_splu)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, fn in patches:
                setattr(mod, attr, fn)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextmanager
    def solve(self, instance):
        """Attribute spans to one solve and count products with A and M."""
        problem = instance.problem
        plain = problem.a.mat, problem.m.mat
        views = [_CountingCsr(mat) for mat in plain]
        for view in views:
            view.counts = self.counts
        problem.a.mat, problem.m.mat = views
        self._solve_id = instance.seed
        self._pending_actions = 0
        try:
            yield
        finally:
            problem.a.mat, problem.m.mat = plain
            self._solve_id = None

    # -- results -----------------------------------------------------------

    def layer_metrics(self):
        """Inclusive time, self time and calls per span name, plus counts."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict(self.counts)
        for name, layer in LAYER.items():
            for suffix in (".calls", ".s", ".self_s"):
                out[f"{layer}.{name}{suffix}"] = 0
        for index, (name, start, end, _, _) in enumerate(self.spans):
            key = f"{LAYER[name]}.{name}"
            out[key + ".calls"] += 1
            out[key + ".s"] += end - start
            out[key + ".self_s"] += end - start - child_time[index]
        return out

    def write(self, path):
        fields = ("name", "start", "end", "parent", "solve")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
