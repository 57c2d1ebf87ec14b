"""Bit-level audit of solver traces on the benchmark's instances.

Usage:

    python3 tools/trace_audit.py write ROOT OUT.json
    python3 tools/trace_audit.py compare BEFORE.json AFTER.json

`write` imports lyapfactor from ROOT/src and the instance generators from
ROOT/perfbench/workloads.py, so ROOT may be any source checkout (a parent
commit unpacked beside this one, say). It solves irr-poisson1d instance
seeds 0-199 and fixed-grid2d instance seeds 0-59, and seeds 0-9 of three
families it makes itself on workloads.grid_operators (see grid_families)
to reach the wide pencils: fixed-grid100, the band path with kd = 101;
fixed-grid40-permuted, the sparse LU; and irr-grid30, a banked
increasing-rank solve. It writes one record per instance: a sha256 over
float.hex of the trace columns k, p, f, gradnorm, relres, inner_iters, nH
and alpha of every row, and over the bytes of the final factor, with the
final rank as the outcome, the relres of each
rank's last row, the outer iterations (rows with k > 0), the short steps
(rows with k > 0 and alpha < 1), the Hessian actions the trace reports
(the nH of its last row), the calls of tnewton.hessian_action the solve
made (counted by wrapping that attribute, apart from the trace), the
Hessian actions of its largest inner solve (the largest hessian_actions
of a tnewton.tpcg call, read by wrapping that attribute too), the
preconditioner builds the trace reports (the sum of its solves' builds;
null for a library whose solve records lack them), the calls of
precond.build_shift_cache the solve made (counted by wrapping that
attribute too), the shift factorizations the trace reports (the sum of
its solves' factorizations; null for a library whose solve records lack
them), the shift factorizations the solve made (counted by wrapping
precond._PBTRF, whose band holds one shift per n columns, and
precond.sps_la.splu, one shift per call), the reason each fixed-rank
solve ended (the stop of each
of the trace's solves that did not raise), the number of steps the line
search's Armijo fallback took and the workload's residual target tau
(null for a fixed-rank solve). A solve that raises a
lyapfactor.SolverError (so ROOT must be a checkout that defines it) is
hashed over the partial trace the exception carries, and its outcome is
the exception type (with the type of the cause, if any). After writing its
file, `write` exits with status 1 and names every instance whose reported
Hessian actions differ from its counted calls, or whose reported builds
or shift factorizations (when not null) differ from its counted build
calls or factorizations.

`compare` prints every instance whose hash or outcome differs between two
files, those whose outcome changed first, then counts the differing
hashes and outcomes apart, and exits with status 1 if any record differs. Two traces
are bit-identical exactly when their hashes agree; a change at rounding
level alters every hash but no outcome. For a final rank that moved,
relres / tau at the lower of the two ranks is printed for both sides, and
the change is labelled knife-edge when the first file's value lies within
KNIFE_EDGE of 1: such an instance stops within rounding of tau, so any
rounding-level change can move its rank by one. Then one line per
workload gives its reported and called preconditioner builds in both
files, one more its reported and counted shift factorizations in both
files, one more its largest inner solve in Hessian actions in both files,
one more the total of each stop reason and of the fallbacks in
both files, and one more its total outer iterations, short steps,
reported and called Hessian actions and its sum of final ranks in both
files; an instance that raised in either file counts toward neither rank
sum, so the two sums cover the same instances, and a workload with no
instance completed in both files reads n/a. The closing line counts
the outcome changes that are not knife-edge. Files written before the
relres, outer, short_steps, actions, calls, largest_inner, stops,
fallbacks, builds, build_calls, factorizations or factor_calls fields
existed still compare; their rank
changes are never knife-edge and their missing totals and maxima read
n/a, as do, on the side of a file written before the three grid
families existed, those families' totals.

BLAS is pinned to one thread before numpy is imported, as the benchmark
does, so that a run is reproducible bit for bit.
"""

import argparse
import hashlib
import json
import os
import sys
from collections import Counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Workload name and the instance seeds audited on it.
INSTANCES = (("irr-poisson1d", range(200)), ("fixed-grid2d", range(60)),
             ("fixed-grid100", range(10)),
             ("fixed-grid40-permuted", range(10)), ("irr-grid30", range(10)))

COLUMNS = ("k", "p", "f", "gradnorm", "relres", "inner_iters", "nH", "alpha")

# Largest |relres / tau - 1| at which a moved final rank is knife-edge.
KNIFE_EDGE = 0.03


def trace_digest(trace, y=None):
    """sha256 over float.hex of the audited columns and the bytes of y."""
    digest = hashlib.sha256()
    for row in trace.rows:
        text = ",".join(float(getattr(row, name)).hex() for name in COLUMNS)
        digest.update(text.encode("ascii") + b"\n")
    if y is not None:
        digest.update(y.tobytes())
    return digest.hexdigest()


def final_relres(trace):
    """relres of each rank's last trace row, keyed by the rank as text."""
    return {str(row.p): float(row.relres) for row in trace.rows}


def reported(trace, name):
    """The sum of field `name` (builds, factorizations) of the trace's
    solves; None for a library whose solve records lack it."""
    counts = [getattr(solve, name, None) for solve in trace.solves]
    return None if None in counts else sum(counts)


def miscounted(records):
    """Keys of the records whose reported Hessian actions, builds or
    shift factorizations differ from those counted apart from the trace;
    a null builds or factorizations is not compared."""
    return sorted(key for key, r in records.items()
                  if r["actions"] != r["calls"]
                  or r["builds"] not in (None, r["build_calls"])
                  or r.get("factorizations") not in (None,
                                                     r["factor_calls"]))


def grid_families(workloads):
    """The audited workloads that perfbench/workloads.py does not define,
    by name, as workloads.Workload: on the side-by-side grid of
    workloads.grid_operators, B and Y0 drawn from default_rng(seed) as
    workloads.setup_grid draws them, and solved by workloads.solve_grid
    (rank GRID_RANK) or workloads.solve_irr. The permuted grid reorders
    both matrices by default_rng(seed).permutation(n)."""
    import numpy as np
    import lyapfactor as lf

    def setup(side, permute=False):
        def make(seed):
            a, m = workloads.grid_operators(side)
            n = side * side
            if permute:
                perm = np.random.default_rng(seed).permutation(n)
                a, m = (mat.tocsr()[perm][:, perm] for mat in (a, m))
            rng = np.random.default_rng(seed)
            b = rng.standard_normal((n, 1))
            y0 = rng.standard_normal((n, workloads.GRID_RANK))
            problem = lf.LyapunovProblem(lf.SpdSparseMatrix(a),
                                         lf.SpdSparseMatrix(m), b)
            return workloads.Instance(seed, problem, y0)
        return make

    return {w.name: w for w in (
        workloads.Workload("fixed-grid100", 10, setup(100),
                           workloads.solve_grid, None),
        workloads.Workload("fixed-grid40-permuted", 10,
                           setup(40, permute=True), workloads.solve_grid,
                           None),
        workloads.Workload("irr-grid30", 10, setup(30), workloads.solve_irr,
                           workloads.IRR_CONFIG["tau"]))}


def audit(root):
    """Solve every audited instance with the code under root."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import lyapfactor as lf
    import workloads
    from lyapfactor import precond, tnewton

    action, inner_solve = tnewton.hessian_action, tnewton.tpcg
    build = precond.build_shift_cache
    pbtrf, splu = precond._PBTRF, precond.sps_la.splu
    calls, inner, builds, factored = [], [], [], []

    def counted(*args):
        calls.append(None)
        return action(*args)

    def built(*args, **kwargs):
        builds.append(None)
        return build(*args, **kwargs)

    def band_factored(ab, **kwargs):
        factored.append(ab.shape[1] // n)
        return pbtrf(ab, **kwargs)

    def lu_factored(*args, **kwargs):
        factored.append(1)
        return splu(*args, **kwargs)

    def recorded(*args, **kwargs):
        state = inner_solve(*args, **kwargs)
        inner.append(state.hessian_actions)
        return state

    audited = {**workloads.WORKLOADS, **grid_families(workloads)}
    records = {}
    for name, seeds in INSTANCES:
        workload = audited[name]
        for seed in seeds:
            instance = workload.setup(seed)
            n = instance.problem.n
            calls.clear()
            inner.clear()
            builds.clear()
            factored.clear()
            tnewton.hessian_action, tnewton.tpcg = counted, recorded
            precond.build_shift_cache = built
            precond._PBTRF, precond.sps_la.splu = band_factored, lu_factored
            try:
                point, trace = workload.solve(instance)
            except lf.SolverError as exc:
                cause = getattr(exc, "cause", None)
                outcome = type(exc).__name__
                if cause is not None:
                    outcome += f"({type(cause).__name__})"
                trace = exc.trace
                digest = trace_digest(trace)
            else:
                outcome = f"rank {point.p}"
                digest = trace_digest(trace, point.y)
            finally:
                tnewton.hessian_action, tnewton.tpcg = action, inner_solve
                precond.build_shift_cache = build
                precond._PBTRF, precond.sps_la.splu = pbtrf, splu
            records[f"{name}/{seed}"] = {
                "hash": digest, "outcome": outcome,
                "relres": final_relres(trace),
                "outer": sum(row.k > 0 for row in trace.rows),
                "short_steps": sum(row.k > 0 and row.alpha < 1.0
                                   for row in trace.rows),
                "actions": trace.rows[-1].nH if trace.rows else 0,
                "calls": len(calls),
                "largest_inner": max(inner, default=0),
                "builds": reported(trace, "builds"),
                "build_calls": len(builds),
                "factorizations": reported(trace, "factorizations"),
                "factor_calls": sum(factored),
                "stops": [s.stop for s in trace.solves
                          if s.stop is not None],
                "fallbacks": sum(len(s.fallbacks) for s in trace.solves),
                "tau": workload.tau}
            print(f"{name}/{seed}: {outcome}", file=sys.stderr, flush=True)
    return records


def compare(before, after):
    """Keys whose hash or outcome differ, with both records; None for a
    missing one."""
    diff = {}
    for key in sorted(before.keys() | after.keys()):
        old, new = before.get(key), after.get(key)
        if any(field(old, name) != field(new, name)
               for name in ("hash", "outcome")):
            diff[key] = old, new
    return diff


def field(record, name):
    return None if record is None else record.get(name)


def final_rank(record):
    """The final rank of a completed solve, None for one that raised."""
    outcome = field(record, "outcome") or ""
    return int(outcome.split()[1]) if outcome.startswith("rank ") else None


def tau_ratio(record, rank):
    """relres / tau at the end of `rank`, None where it is not recorded."""
    relres = (field(record, "relres") or {}).get(str(rank))
    tau = field(record, "tau")
    return None if relres is None or not tau else relres / tau


def rank_move(old, new):
    """relres / tau at the lower final rank on both sides, and whether the
    move is knife-edge; None when either side raised."""
    ranks = final_rank(old), final_rank(new)
    if None in ranks:
        return None
    rank = min(ranks)
    before, after = tau_ratio(old, rank), tau_ratio(new, rank)
    knife = before is not None and abs(before - 1.0) <= KNIFE_EDGE
    return rank, before, after, knife


def field_totals(records, name, combine=sum):
    """Field `name` summed (or combined by `combine`) per workload (the key
    before '/'); None for a workload with a record that lacks the field."""
    values = {}
    for key, record in records.items():
        values.setdefault(key.split("/")[0], []).append(record.get(name))
    return {workload: None if None in got else combine(got)
            for workload, got in values.items()}


def both_totals(before, after, name, combine=sum):
    """Per workload, 'x -> y': field_totals of `name` in both files, n/a
    for a side without it."""
    sides = [field_totals(records, name, combine)
             for records in (before, after)]
    return {workload: " -> ".join("n/a" if side.get(workload) is None
                                  else str(side[workload]) for side in sides)
            for workload in sides[0].keys() | sides[1].keys()}


def stop_totals(records):
    """Per workload (the key before '/'), the count of each stop reason
    and the total fallbacks; None for a workload with a record that lacks
    either field."""
    totals = {}
    for key, record in records.items():
        name = key.split("/")[0]
        stops, fallbacks = record.get("stops"), record.get("fallbacks")
        total = totals.setdefault(name, [Counter(), 0])
        if total is None or stops is None or fallbacks is None:
            totals[name] = None
            continue
        total[0].update(stops)
        total[1] += fallbacks
    return totals


def describe_stops(total):
    """'floor 3, gradient 57; fallbacks 1', or n/a."""
    if total is None:
        return "n/a"
    stops, fallbacks = total
    text = ", ".join(f"{reason} {stops[reason]}" for reason in sorted(stops))
    return f"{text or 'none'}; fallbacks {fallbacks}"


def rank_sums(before, after):
    """Per workload, 'x -> y': the final ranks summed on both sides over
    the instances that completed in both files; n/a for a workload with no
    such instance (one that a file lacks, say)."""
    completed = {}
    for key in before.keys() | after.keys():
        ranks = final_rank(before.get(key)), final_rank(after.get(key))
        both = completed.setdefault(key.split("/")[0], [])
        if None not in ranks:
            both.append(ranks)
    return {name: " -> ".join(str(sum(side)) for side in zip(*both)) or "n/a"
            for name, both in completed.items()}


def describe(old, new, moved):
    """One line on a differing record."""
    line = (f"{field(old, 'outcome')} -> {field(new, 'outcome')}, hash "
            f"{(field(old, 'hash') or '')[:8]} -> "
            f"{(field(new, 'hash') or '')[:8]}")
    move = rank_move(old, new) if moved else None
    if move is not None:
        rank, before, after, knife = move
        text = ["n/a" if r is None else f"{r:.3f}" for r in (before, after)]
        line += f"; relres/tau at rank {rank}: {text[0]} -> {text[1]}"
        if knife:
            line += " (knife-edge)"
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    write = sub.add_parser("write", help="solve and record every instance")
    write.add_argument("root", help="source checkout with src/ and perfbench/")
    write.add_argument("out", help="output JSON file")
    cmp = sub.add_parser("compare", help="compare two record files")
    cmp.add_argument("before")
    cmp.add_argument("after")
    args = parser.parse_args(argv)

    if args.mode == "write":
        records = audit(os.path.abspath(args.root))
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
        failed = sorted(k for k, r in records.items()
                        if not r["outcome"].startswith("rank"))
        print(f"{len(records)} instances, {len(failed)} raised: "
              f"{', '.join(failed) or 'none'}")
        wrong = miscounted(records)
        if wrong:
            print(f"{len(wrong)} instances report counts other than the "
                  f"counted calls: {', '.join(wrong)}")
        return 1 if wrong else 0

    with open(args.before, encoding="ascii") as fh:
        before = json.load(fh)
    with open(args.after, encoding="ascii") as fh:
        after = json.load(fh)
    diff = compare(before, after)
    moved = {key for key, (old, new) in diff.items()
             if field(old, "outcome") != field(new, "outcome")}
    for key, (old, new) in sorted(diff.items(),
                                  key=lambda item: item[0] not in moved):
        print(f"{key}: {describe(old, new, key in moved)}")
    text = {column: both_totals(before, after, column)
            for column in ("builds", "build_calls", "factorizations",
                           "factor_calls", "outer", "short_steps",
                           "actions", "calls")}
    for name in sorted(text["builds"]):
        print(f"{name}: preconditioner builds {text['builds'][name]} "
              f"(called {text['build_calls'][name]})")
    for name in sorted(text["factorizations"]):
        print(f"{name}: shift factorizations {text['factorizations'][name]} "
              f"(counted {text['factor_calls'][name]})")
    largest = both_totals(before, after, "largest_inner", max)
    for name in sorted(largest):
        print(f"{name}: largest inner solve {largest[name]} Hessian actions")
    stops = stop_totals(before), stop_totals(after)
    for name in sorted(stops[0].keys() | stops[1].keys()):
        print(f"{name}: stops {describe_stops(stops[0].get(name))} -> "
              f"{describe_stops(stops[1].get(name))}")
    ranks = rank_sums(before, after)
    for name in sorted(ranks):
        print(f"{name}: outer iterations {text['outer'][name]}, short steps "
              f"{text['short_steps'][name]}, Hessian actions "
              f"{text['actions'][name]} (called {text['calls'][name]}), "
              f"final rank sum {ranks[name]}")
    hashes = sum(field(old, "hash") != field(new, "hash")
                 for old, new in diff.values())
    knife = sum((rank_move(*diff[key]) or (False,))[-1] for key in moved)
    print(f"{len(before | after)} instances, {hashes} hashes differ, "
          f"{len(moved)} outcomes differ, {len(moved) - knife} of them "
          f"not knife-edge")
    return 1 if diff else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # The reader closed the pipe early (`compare A B | head`): send
        # what is left of stdout to devnull so its flush at exit does not
        # raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
