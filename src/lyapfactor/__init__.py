"""Low-rank solver for generalized Lyapunov equations A X M + M X A = B B^T.

A, M are large sparse symmetric positive definite matrices and the
right-hand side B B^T has low rank. The solution is approximated by a
factored iterate X = Y Y^T of small rank, computed by a Riemannian
truncated Newton method on the quotient manifold of fixed-rank factors,
wrapped in an increasing-rank outer loop, optionally preconditioned by an
exact inverse of the Hessian's dominant term built from shifted sparse
factorizations.
"""

from .increasing_rank import (
    IrrConfig,
    solve_increasing_rank,
    warm_start,
)
from .manifold import (
    Metric,
    cost,
    dominant_term_action,
    hessian_action,
    horizontal_inner,
    project_horizontal,
    retract,
    riemannian_gradient,
)
from .precond import (
    CoupledSystem,
    PreconditionerError,
    ShiftSystemCache,
    apply_cached,
    apply_preconditioner,
    build_shift_cache,
)
from .problems import (
    FactorPoint,
    LyapunovProblem,
    MatrixMarketError,
    SolverError,
    SpdSparseMatrix,
    dense_oracle_solve,
    gen_poisson,
    load_manifest,
    load_matrix_market,
    relative_residual,
    residual_fro,
    save_matrix_market,
    save_problem,
)
from .tnewton import (
    InnerSolveError,
    LineSearchError,
    LineSearchResult,
    SolveTrace,
    TnewtonConfig,
    TpcgState,
    TraceRow,
    line_search,
    solve_fixed_rank,
    tpcg,
)

__version__ = "0.1.0"
