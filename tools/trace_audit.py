"""Bit-level audit of solver traces on the benchmark's instances.

Usage:

    python3 tools/trace_audit.py write ROOT OUT.json
    python3 tools/trace_audit.py compare BEFORE.json AFTER.json

`write` imports lyapfactor from ROOT/src and the instance generators from
ROOT/perfbench/workloads.py, so ROOT may be any source checkout (a parent
commit unpacked beside this one, say). It solves irr-poisson1d instance
seeds 0-199 and fixed-grid2d instance seeds 0-59 and writes one record per
instance: a sha256 over float.hex of the trace columns k, p, f, gradnorm,
relres, inner_iters, nH and alpha of every row, and over the bytes of the
final factor, with the final rank as the outcome, the relres of each
rank's last row, the outer iterations (rows with k > 0), the short steps
(rows with k > 0 and alpha < 1), the Hessian actions the trace reports
(the nH of its last row), the calls of tnewton.hessian_action the solve
made (counted by wrapping that attribute, apart from the trace), the
reason each fixed-rank solve ended (the trace's stops), the number of
steps the line search's Armijo fallback took and the workload's residual
target tau (null for a fixed-rank solve). A solve that raises is hashed
over the partial trace its exception carries, and its outcome is the
exception type (with the type of the cause, if any).

`compare` prints every instance whose hash or outcome differs between two
files, those whose outcome changed first, then counts the differing
hashes and outcomes apart, and exits with status 1 if any record differs. Two traces
are bit-identical exactly when their hashes agree; a change at rounding
level alters every hash but no outcome. For a final rank that moved,
relres / tau at the lower of the two ranks is printed for both sides, and
the change is labelled knife-edge when the first file's value lies within
KNIFE_EDGE of 1: such an instance stops within rounding of tau, so any
rounding-level change can move its rank by one. Then one line per
workload gives the total of each stop reason and of the fallbacks in
both files, and one more its total outer iterations, short steps,
reported and called Hessian actions and its sum of final ranks in both
files; an instance that raised in either file counts toward neither rank
sum, so the two sums cover the same instances. The closing line counts
the outcome changes that are not knife-edge. Files written before the
relres, outer, short_steps, actions, calls, stops or fallbacks fields
existed still compare; their rank changes are never knife-edge and their
missing totals read n/a.

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
INSTANCES = (("irr-poisson1d", range(200)), ("fixed-grid2d", range(60)))

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


def audit(root):
    """Solve every audited instance with the code under root."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import lyapfactor as lf
    import workloads
    from lyapfactor import tnewton

    solver_errors = (lf.IncreasingRankError, lf.InnerSolveError,
                     lf.LineSearchError, lf.PreconditionerError)
    action = tnewton.hessian_action
    calls = []

    def counted(*args):
        calls.append(None)
        return action(*args)

    records = {}
    for name, seeds in INSTANCES:
        workload = workloads.WORKLOADS[name]
        for seed in seeds:
            instance = workload.setup(seed)
            calls.clear()
            tnewton.hessian_action = counted
            try:
                point, trace = workload.solve(instance)
            except solver_errors as exc:
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
                tnewton.hessian_action = action
            records[f"{name}/{seed}"] = {
                "hash": digest, "outcome": outcome,
                "relres": final_relres(trace),
                "outer": sum(row.k > 0 for row in trace.rows),
                "short_steps": sum(row.k > 0 and row.alpha < 1.0
                                   for row in trace.rows),
                "actions": trace.rows[-1].nH if trace.rows else 0,
                "calls": len(calls),
                "stops": list(trace.stops),
                "fallbacks": len(trace.fallbacks),
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


def field_totals(records, name):
    """Field `name` summed per workload (the key before '/'); None for a
    workload with a record that lacks the field."""
    values = {}
    for key, record in records.items():
        values.setdefault(key.split("/")[0], []).append(record.get(name))
    return {workload: None if None in got else sum(got)
            for workload, got in values.items()}


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
    """Final ranks summed per workload on both sides, over the instances
    that completed in both files."""
    sums = {}
    for key in before.keys() | after.keys():
        ranks = final_rank(before.get(key)), final_rank(after.get(key))
        total = sums.setdefault(key.split("/")[0], [0, 0])
        if None not in ranks:
            total[0] += ranks[0]
            total[1] += ranks[1]
    return sums


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
        return 0

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
    stops = stop_totals(before), stop_totals(after)
    for name in sorted(stops[0].keys() | stops[1].keys()):
        print(f"{name}: stops {describe_stops(stops[0].get(name))} -> "
              f"{describe_stops(stops[1].get(name))}")
    totals = {column: [field_totals(records, column)
                       for records in (before, after)]
              for column in ("outer", "short_steps", "actions", "calls")}
    ranks = rank_sums(before, after)
    for name in sorted(ranks):
        text = {column: " -> ".join("n/a" if side.get(name) is None
                                    else str(side[name]) for side in sides)
                for column, sides in totals.items()}
        print(f"{name}: outer iterations {text['outer']}, short steps "
              f"{text['short_steps']}, Hessian actions {text['actions']} "
              f"(called {text['calls']}), final rank sum {ranks[name][0]} -> "
              f"{ranks[name][1]}")
    hashes = sum(field(old, "hash") != field(new, "hash")
                 for old, new in diff.values())
    knife = sum((rank_move(*diff[key]) or (False,))[-1] for key in moved)
    print(f"{len(before | after)} instances, {hashes} hashes differ, "
          f"{len(moved)} outcomes differ, {len(moved) - knife} of them "
          f"not knife-edge")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
