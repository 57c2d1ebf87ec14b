"""Command line front end.

Four subcommands: `solve` runs the increasing-rank solver on a generated or
file-based problem and emits a trace CSV plus a summary JSON; `bench` sweeps
the preconditioner choices over general and identity mass matrices at a
fixed rank and tabulates iteration and Hessian-action counts; `oracle-check`
compares the increasing-rank residuals per rank against the truncated
eigendecomposition of a dense reference solution; `generate` writes a
problem to Matrix Market files with a manifest.

Exit codes: 0 when the requested tolerance was reached (always for bench
and generate), 1 with a one-line error JSON on solver failures or an
unreached tolerance, 2 on configuration or file errors.
"""

import argparse
import json
import sys
import time

import numpy as np

from .increasing_rank import IrrConfig, solve_increasing_rank
from .manifold import Metric
from .problems import (
    DENSE_LIMIT,
    FactorPoint,
    MatrixMarketError,
    SolverError,
    dense_oracle_solve,
    gen_poisson,
    load_manifest,
    relative_residual,
    save_problem,
)
from .tnewton import TnewtonConfig, solve_fixed_rank


def _add_source_args(parser):
    group = parser.add_argument_group("problem source")
    group.add_argument("--gen", choices=["poisson"],
                       help="built-in problem generator")
    group.add_argument("--n", type=int, help="generated problem size")
    group.add_argument("--identity-mass", action="store_true",
                       help="generate with M = I instead of a random mass")
    group.add_argument("--manifest", help="manifest file naming A, M, B")


def _add_solver_args(parser):
    parser.add_argument("--metric", type=int, choices=[1, 2, 3], default=1)
    parser.add_argument("--precond",
                        choices=["none", "proposed", "bart"], default="none")
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="target relative residual")
    parser.add_argument("--p-min", type=int, default=1)
    parser.add_argument("--p-max", type=int, default=20)
    parser.add_argument("--p-inc", type=int, default=1)


def _add_output_args(parser):
    parser.add_argument("--trace-out", help="per-iteration CSV path")
    parser.add_argument("--summary-out", help="summary JSON path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lyapfactor",
        description="Low-rank solver for A X M + M X A = B B^T "
                    "with sparse symmetric positive definite A and M.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="increasing-rank solve of one problem")
    _add_source_args(solve)
    _add_solver_args(solve)
    _add_output_args(solve)
    solve.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench",
        help="preconditioner sweep at fixed rank over general and "
             "identity mass matrices",
    )
    bench.add_argument("--n", type=int, default=500)
    bench.add_argument("--metric", type=int, choices=[1, 2, 3], default=1)
    bench.add_argument("--tol", type=float, default=1e-12,
                       help="relative gradient reduction per cell; the tight "
                            "default makes every cell converge to the same "
                            "fixed-rank solution so the counts compare")
    bench.add_argument("--p-min", type=int, default=3,
                       help="fixed rank of the sweep")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--trace-out", help="table CSV path (default stdout)")

    oracle = sub.add_parser(
        "oracle-check",
        help="per-rank residual comparison against a dense reference",
    )
    _add_source_args(oracle)
    _add_solver_args(oracle)
    _add_output_args(oracle)
    oracle.add_argument("--seed", type=int, default=0)

    generate = sub.add_parser(
        "generate", help="write a generated problem to Matrix Market files")
    generate.add_argument("--gen", choices=["poisson"], required=True)
    generate.add_argument("--n", type=int, required=True)
    generate.add_argument("--identity-mass", action="store_true")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True,
                          help="output directory for the .mtx files")
    return parser


def _config_error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _solver_error(kind, message, **extra):
    payload = {"error": kind, "message": message}
    payload.update(extra)
    print(json.dumps(payload))
    return 1


def _build_problem(args):
    """Problem from --gen or --manifest; raises SystemExit(2) on bad config."""
    if args.manifest and args.gen:
        raise SystemExit(_config_error("--gen and --manifest are exclusive"))
    if args.manifest:
        return load_manifest(args.manifest)
    if args.gen == "poisson":
        if args.n is None:
            raise SystemExit(_config_error("--gen poisson requires --n"))
        return gen_poisson(args.n, args.seed,
                           identity_mass=args.identity_mass)
    raise SystemExit(_config_error("one of --gen or --manifest is required"))


def _summary(point, trace, total_ms):
    final = trace.final()
    return {
        "final_rank": int(point.y.shape[1]),
        "rel_res": final.relres,
        "total_nH": int(final.nH),
        "total_ms": total_ms,
        "ranks_visited": [s.p for s in trace.solves],
        "total_builds": sum(s.builds for s in trace.solves),
        "total_factorizations": sum(s.factorizations for s in trace.solves),
    }


def _write_outputs(args, trace, summary):
    if args.trace_out and trace is not None:
        trace.to_csv(args.trace_out)
    if args.summary_out and summary is not None:
        with open(args.summary_out, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")


def _write_table(path, table):
    """Write a CSV table to `path`, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(table)
    else:
        print(table, end="")


def _solve(args, problem, t0):
    """(trace, summary) of the solve, or (None, None) after reporting a failure."""
    config = IrrConfig(p_min=args.p_min, p_max=args.p_max, p_inc=args.p_inc,
                       tau=args.tol, seed=args.seed)
    try:
        point, trace = solve_increasing_rank(
            problem, Metric(args.metric), config,
            TnewtonConfig(), args.precond,
        )
    except SolverError as exc:
        _write_outputs(args, exc.trace, None)
        _solver_error(type(exc).__name__, str(exc), rank=exc.rank)
        return None, None
    except ValueError as exc:
        # A or M is not positive definite: the rows before it are kept.
        _write_outputs(args, getattr(exc, "trace", None), None)
        raise
    total_ms = (time.perf_counter() - t0) * 1e3
    return trace, _summary(point, trace, total_ms)


def _tolerance_status(args, summary):
    """Exit code 0 if the summary meets --tol, else 1 with the error line."""
    if summary["rel_res"] <= args.tol:
        return 0
    return _solver_error("tolerance_not_reached",
                         f"relative residual {summary['rel_res']:.3e} "
                         f"above {args.tol:.3e}", **summary)


def cmd_solve(args):
    t0 = time.perf_counter()
    trace, summary = _solve(args, _build_problem(args), t0)
    if summary is None:
        return 1
    _write_outputs(args, trace, summary)
    status = _tolerance_status(args, summary)
    if status == 0:
        print(json.dumps(summary))
    return status


_BENCH_HEADER = "n,mass,metric,precond,iter,nH,relres,ms"


def cmd_bench(args):
    rank = args.p_min
    config = TnewtonConfig(grad_tol_rel=args.tol)
    lines = [_BENCH_HEADER]
    for mass in ("general", "identity"):
        problem = gen_poisson(args.n, args.seed,
                              identity_mass=(mass == "identity"))
        y0 = np.random.default_rng(args.seed).standard_normal(
            (args.n, rank))
        for precond in ("none", "proposed", "bart"):
            t0 = time.perf_counter()
            try:
                point, trace = solve_fixed_rank(
                    problem, Metric(args.metric), FactorPoint(y0.copy()),
                    config, precond,
                )
            except SolverError:
                lines.append(f"{args.n},{mass},{args.metric},{precond},"
                             "nan,nan,nan,nan")
                continue
            ms = (time.perf_counter() - t0) * 1e3
            final = trace.final()
            lines.append(
                f"{args.n},{mass},{args.metric},{precond},"
                f"{final.k},{final.nH},{final.relres:.17g},{ms:.17g}"
            )
    _write_table(args.trace_out, "\n".join(lines) + "\n")
    return 0


def cmd_oracle_check(args):
    t0 = time.perf_counter()
    problem = _build_problem(args)
    if problem.n > DENSE_LIMIT:
        return _config_error(
            f"oracle-check needs n <= {DENSE_LIMIT}, got {problem.n}")
    trace, summary = _solve(args, problem, t0)
    if summary is None:
        return 1

    x_star = dense_oracle_solve(problem)
    vals, vecs = np.linalg.eigh(x_star)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    factors = vecs * np.sqrt(np.clip(vals, 0.0, None))

    # Final trace row of every visited rank.
    per_rank = {}
    for row in trace.rows:
        per_rank[row.p] = row.relres
    lines = ["rank,best_relres,irr_relres"]
    for rank in sorted(per_rank):
        best = relative_residual(problem, factors[:, :rank])
        lines.append(f"{rank},{best:.17g},{per_rank[rank]:.17g}")
    _write_table(args.trace_out, "\n".join(lines) + "\n")
    _write_outputs(args, None, summary)
    return _tolerance_status(args, summary)


def cmd_generate(args):
    problem = gen_poisson(args.n, args.seed, identity_mass=args.identity_mass)
    manifest = save_problem(args.out, problem)
    print(manifest)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "oracle-check":
            return cmd_oracle_check(args)
        return cmd_generate(args)
    except (MatrixMarketError, OSError, ValueError) as exc:
        return _config_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
