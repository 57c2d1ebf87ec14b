"""Time-to-solution benchmark of lyapfactor.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload irr-poisson1d --seed 0 --seconds 50 --trace 0

Runs one workload (see workloads.py and README.md) in this process, checks
every solve with checks.py and prints, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured without
tracing; with --trace 1 they are its per-layer ones, from a traced pass
over the same instances, and the spans are written to .bench_out/.

The library is imported from ./src only. BLAS is pinned to one thread
before numpy is imported, so that a seed reproduces a run bit for bit; for
that reason numpy, the library and the modules beside this file are
imported inside functions, after main() has set the environment.
"""

import argparse
import contextlib
import ctypes
import ctypes.util
import json
import os
import resource
import statistics
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# glibc's M_MMAP_THRESHOLD, fixed at 1 MiB (see fix_mmap_threshold).
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 1 << 20

# Each set-up sample is the fastest of this many set-ups of one instance.
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_library(root):
    """Put ./src first on the path and check lyapfactor comes from there."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import lyapfactor

    if os.path.dirname(os.path.dirname(os.path.abspath(lyapfactor.__file__))) \
            != os.path.abspath(src):
        raise ImportError(f"lyapfactor was imported from {lyapfactor.__file__}")


def fix_mmap_threshold():
    """Serve every allocation of 1 MiB or more by mmap (glibc only).

    glibc raises its mmap threshold as large blocks are freed, after which
    blocks of a few MiB come from the heap and fragment it. The resident
    peak then depends on allocation history: one grid instance peaked at
    121 or 142 MB depending on what ran before it. With the threshold
    fixed, large blocks go back to the system when freed and the peak is
    the live peak (98-101 MB). Returns the threshold, or None where mallopt
    is not available.
    """
    name = ctypes.util.find_library("c")
    mallopt = getattr(ctypes.CDLL(name), "mallopt", None) if name else None
    if mallopt is None or not mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES):
        return None
    return MMAP_THRESHOLD_BYTES


def environment(mmap_threshold):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "mmap_threshold": mmap_threshold,
    }


class Run:
    """One benchmark run: its workload, instance seeds and tallies.

    An operation is an instance, not a solve: attempted is the batch size
    and failed the number of instances whose solve raised or failed a
    check. Both depend on the seed only, never on how many repetitions fit
    in the time, and the reproducibility guard makes every repetition of an
    instance end the same way as its first solve.
    """

    def __init__(self, workload, run_seed):
        self.workload = workload
        self.seeds = workload.instance_seeds(run_seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []  # correctness and reproducibility failures
        self.setup_times = []

    def tally(self, outcomes):
        """Set attempted and failed from the first outcome of each instance."""
        self.attempted = len(outcomes)
        self.failed = sum(o["status"] != "ok" for o in outcomes)

    def setup(self, seed):
        """Set up one instance SETUP_REPEATS times; keep the fastest time.

        As for solve_s, a slowdown of the shared machine only ever adds
        time, so the fastest of a few set-ups is the steadier sample.
        """
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            instance = self.workload.setup(seed)
            times.append(time.perf_counter() - t0)
        self.setup_times.append(min(times))
        return instance

    def solve(self, seed, tracer=None):
        """Set up and solve one instance, check it and return the outcome.

        Every solve times its own set-up, so the set-up samples are spread
        over the whole run.
        """
        from checks import check_solve

        instance = self.setup(seed)
        error = None
        scope = tracer.solve(instance) if tracer else contextlib.nullcontext()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with scope:
                point, trace = self.workload.solve(instance)
        except Exception as exc:  # noqa: BLE001 - any raise is a failed solve
            # The library's solver errors (IncreasingRankError,
            # InnerSolveError, LineSearchError, PreconditionerError) carry
            # the partial trace; any other exception is a defect reported
            # the same way, so the run goes on to the next instance.
            point, trace, error = None, getattr(exc, "trace", None), exc
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        rows = trace.rows if trace is not None else []
        outcome = {
            "seed": seed, "solve_s": wall, "wait_s": wall - cpu,
            "rows": len(rows),
            "nH": rows[-1].nH if rows else 0,
            "rank": rows[-1].p if rows else 0,
            "relres": rows[-1].relres if rows else None,
            "status": "ok",
        }
        if error is not None:
            outcome["status"] = f"raised {type(error).__name__}: {error}"
            return outcome
        failures = check_solve(self.workload, instance, point, trace)
        if failures:
            self.problems += [f"seed {seed}: {msg}" for msg in failures]
            outcome["status"] = "check failed: " + "; ".join(failures)
        return outcome

    def compare(self, first, second, what):
        """Record a reproducibility failure if two solves of a seed differ."""
        keys = ("rows", "nH", "rank", "relres", "status")
        a = [first[k] for k in keys]
        b = [second[k] for k in keys]
        if a != b:
            self.problems.append(f"seed {first['seed']}: {what} differ: "
                                 f"{dict(zip(keys, a))} vs {dict(zip(keys, b))}")


def end_to_end(run, seconds):
    """Solve the instances in turn until `seconds` have passed.

    Every instance is solved at least once and the first at least twice.
    An instance's time is the fastest of its solves: on a shared machine the
    speed varies over a few seconds by up to a third, and a slowdown only
    ever adds time. solve_s is the median of those times over the instances
    whose solves succeeded. The reference kernel is timed before every
    solve, and solve_rel is solve_s over the median of those timings, which
    takes out the drift of the machine's speed from run to run.
    """
    from reference import Reference

    reference = Reference()
    ref_times = []
    start = time.perf_counter()
    solves = {seed: [] for seed in run.seeds}
    index = 0
    while True:
        seed = run.seeds[index % len(run.seeds)]
        if index > len(run.seeds) and \
                time.perf_counter() - start + solves[seed][0]["solve_s"] > seconds:
            break
        ref_times.append(reference.time())
        solves[seed].append(run.solve(seed))
        if len(solves[seed]) > 1:
            run.compare(solves[seed][0], solves[seed][-1], "repetitions")
        index += 1
    run.tally([outcomes[0] for outcomes in solves.values()])
    for outcomes in solves.values():
        report_outcome(outcomes[0], len(outcomes),
                       min(o["solve_s"] for o in outcomes))
    solved = [o for o in solves.values() if o[0]["status"] == "ok"] \
        or list(solves.values())
    times = [min(x["solve_s"] for x in o) for o in solved]
    solve_s = statistics.median(times)
    ref_s = statistics.median(ref_times)
    print(f"solve_s median {solve_s:.4f} s over "
          f"{len(times)} instances ({index} solves), "
          f"min {min(times):.4f} max {max(times):.4f}; reference kernel "
          f"median {ref_s * 1e3:.3f} ms over {len(ref_times)} timings; "
          f"setup_s median of {len(run.setup_times)} set-ups")
    return {
        "solve_s": solve_s,
        "solve_rel": solve_s / ref_s,
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_rank": statistics.median(o[0]["rank"] for o in solved),
    }


def per_layer(run, spans_path):
    """Solve every instance untraced and then traced, one after the other.

    Each pair runs back to back, so both solves of an instance see about
    the same machine speed and their difference is the tracing overhead.
    """
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    for seed in run.seeds:
        untraced.append(run.solve(seed))
        with tracer.installed():
            traced.append(run.solve(seed, tracer))
    run.tally(traced)
    for plain, outcome in zip(untraced, traced):
        run.compare(plain, outcome, "traced and untraced solves")
        report_outcome(outcome, 1, outcome["solve_s"])
    tracer.write(spans_path)
    plain_s = sum(o["solve_s"] for o in untraced)
    traced_s = sum(o["solve_s"] for o in traced)

    values = tracer.layer_metrics()
    actions = values["manifold.hessian_action.calls"]
    reported = sum(o["nH"] for o in traced)
    useful = values["tnewton.hessian_useful.actions"]
    values.update({
        "tnewton.outer_iters": values["tnewton.tpcg.calls"],
        "tnewton.nH_reported": reported,
        "tnewton.nH_unreported": actions - reported,
        "tnewton.hessian_useful_ratio": useful / actions if actions else 1.0,
        "increasing_rank.ranks_visited":
            values["tnewton.solve_fixed_rank.calls"]
            if run.workload.tau is not None else 0,
        "process.solve_s": plain_s,
        "process.wait_s": sum(o["wait_s"] for o in traced),
        "trace.overhead_s": traced_s - plain_s,
    })
    print(f"Hessian actions {actions}, reported {reported}, useful {useful}; "
          f"solves took {traced_s:.3f} s traced and {plain_s:.3f} s untraced; "
          f"{len(tracer.spans)} spans in {spans_path}")
    return values


def report_outcome(outcome, solves, fastest):
    print(f"instance seed {outcome['seed']}: solve_s {fastest:.4f} "
          f"(fastest of {solves}) rank {outcome['rank']} "
          f"relres {outcome['relres']} rows {outcome['rows']} "
          f"nH {outcome['nH']} {outcome['status']}")


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    mmap_threshold = fix_mmap_threshold()
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        import_library(root)
    except ImportError as exc:
        print(f"cannot import lyapfactor from {root}/src: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **environment(mmap_threshold)}))
    run = Run(WORKLOADS[args.workload], args.seed)
    if args.trace:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        values = per_layer(run, os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        wanted = spec["per_layer"]
    else:
        values = end_to_end(run, args.seconds)
        wanted = spec["end_to_end"]
    for problem in run.problems:
        print("FAILED CHECK:", problem)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
