"""The comparison side of tools/trace_audit.py, on hand-made records."""

import json
import pathlib
import subprocess
import sys

from helpers import count_hessian_actions, stop_reasons, trace_audit
from lyapfactor import precond, tnewton

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _record(digest, rank, relres=None, tau=1e-6, outer=None, actions=None,
            short=None, calls=None):
    out = {"hash": digest, "outcome": f"rank {rank}"}
    if relres is not None:
        out.update(relres={str(p): r * tau for p, r in relres.items()},
                   tau=tau)
    if outer is not None:
        out["outer"] = outer
    if actions is not None:
        out["actions"] = actions
    if short is not None:
        out["short_steps"] = short
    if calls is not None:
        out["calls"] = calls
    return out


def _compare(tmp_path, capsys, before, after):
    paths = []
    for name, records in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(records), encoding="ascii")
    status = trace_audit.main(["compare", *map(str, paths)])
    return status, capsys.readouterr().out.splitlines()


def test_moved_rank_is_knife_edge_only_near_tau(tmp_path, capsys):
    before = {"irr/133": _record("a", 14, {14: 0.980}),
              "irr/7": _record("b", 14, {14: 0.900}),
              "irr/8": _record("c", 12, {12: 0.5})}
    after = {"irr/133": _record("d", 15, {14: 1.005, 15: 0.3}),
             "irr/7": _record("e", 15, {14: 1.1, 15: 0.3}),
             "irr/8": _record("c", 12, {12: 0.5})}
    status, lines = _compare(tmp_path, capsys, before, after)
    assert status == 1
    assert lines[0].startswith("irr/133: rank 14 -> rank 15")
    assert lines[0].endswith("relres/tau at rank 14: 0.980 -> 1.005 "
                             "(knife-edge)")
    assert lines[1].endswith("relres/tau at rank 14: 0.900 -> 1.100")
    assert lines[-1] == ("3 instances, 2 hashes differ, 2 outcomes differ, "
                         "1 of them not knife-edge")


def test_records_without_relres_still_compare(tmp_path, capsys):
    before = {"irr/1": _record("a", 14), "irr/2": _record("b", 14)}
    after = {"irr/1": _record("a", 14, {14: 0.5}),
             "irr/2": _record("c", 15, {14: 1.01, 15: 0.3})}
    status, lines = _compare(tmp_path, capsys, before, after)
    assert status == 1
    assert lines[0].endswith("relres/tau at rank 14: n/a -> 1.010")
    assert lines[-1] == ("2 instances, 1 hashes differ, 1 outcomes differ, "
                         "1 of them not knife-edge")
    status, lines = _compare(tmp_path, capsys, before, before)
    assert status == 0


def test_compare_prints_outer_iterations_per_workload(tmp_path, capsys):
    # the total outer iterations, short steps, reported and called Hessian
    # actions of each workload
    before = {"irr/1": _record("a", 14, outer=70, actions=190, short=3,
                               calls=190),
              "irr/2": _record("b", 14, outer=80, actions=210, short=1,
                               calls=215),
              "grid/0": _record("c", 5, outer=20, actions=31, short=6,
                                calls=31)}
    after = {"irr/1": _record("d", 14, outer=30, actions=95, short=0,
                              calls=95),
             "irr/2": _record("e", 14, outer=40, actions=331, short=2,
                              calls=331),
             "grid/0": _record("c", 5, outer=20, actions=31, short=6,
                               calls=31)}

    def lines_for(outer="20", short="6", actions="31", calls="31",
                  irr_outer="150", irr_short="4", irr_actions="400",
                  irr_calls="405"):
        return [f"grid: outer iterations {outer} -> 20, short steps "
                f"{short} -> 6, Hessian actions {actions} -> 31 (called "
                f"{calls} -> 31), final rank sum 5 -> 5",
                f"irr: outer iterations {irr_outer} -> 70, short steps "
                f"{irr_short} -> 2, Hessian actions {irr_actions} -> 426 "
                f"(called {irr_calls} -> 426), final rank sum 28 -> 28"]

    status, lines = _compare(tmp_path, capsys, before, after)
    assert status == 1
    assert lines[-3:-1] == lines_for()
    # a file without a field still compares; its totals read n/a
    for dropped, want in (
            ("outer", lines_for(outer="n/a", irr_outer="n/a")),
            ("short_steps", lines_for(short="n/a", irr_short="n/a")),
            ("actions", lines_for(actions="n/a", irr_actions="n/a")),
            ("calls", lines_for(calls="n/a", irr_calls="n/a"))):
        old = {key: {k: v for k, v in record.items() if k != dropped}
               for key, record in before.items()}
        status, lines = _compare(tmp_path, capsys, old, after)
        assert status == 1
        assert lines[-3:-1] == want


def test_rank_sums_skip_instances_that_raised(tmp_path, capsys):
    # irr/2 raised after the change and irr/3 before it: neither counts
    # toward either sum, so the sums cover irr/1 and irr/4 only; a file
    # with only hash and outcome still gives its rank sums
    raised = {"hash": "x", "outcome": "LineSearchError"}
    before = {"irr/1": _record("a", 14), "irr/2": _record("b", 15),
              "irr/3": raised, "irr/4": _record("c", 12)}
    after = {"irr/1": _record("a", 14), "irr/2": raised,
             "irr/3": _record("d", 13), "irr/4": _record("e", 11)}
    status, lines = _compare(tmp_path, capsys, before, after)
    assert status == 1
    assert lines[-2] == ("irr: outer iterations n/a -> n/a, short steps "
                         "n/a -> n/a, Hessian actions n/a -> n/a (called "
                         "n/a -> n/a), final rank sum 26 -> 25")


def test_workload_missing_from_a_file_reads_n_a(tmp_path, capsys):
    # A file written before a workload was audited: that workload's
    # totals and its rank sum read n/a on that side.
    before = {"irr/1": _record("a", 14, outer=70, actions=190, short=3,
                               calls=190)}
    after = {**before, "wide/0": _record("b", 5, outer=12, actions=20,
                                         short=1, calls=20)}
    status, lines = _compare(tmp_path, capsys, before, after)
    assert status == 1
    assert lines[-3:-1] == [
        "irr: outer iterations 70 -> 70, short steps 3 -> 3, Hessian "
        "actions 190 -> 190 (called 190 -> 190), final rank sum 14 -> 14",
        "wide: outer iterations n/a -> 12, short steps n/a -> 1, Hessian "
        "actions n/a -> 20 (called n/a -> 20), final rank sum n/a"]


def test_write_records_outer_iterations(tmp_path, capsys, monkeypatch):
    # One instance of each workload, the benchmark's and the tool's own
    # grid families alike, solved again here: the record's outer
    # iterations are its trace rows less one k = 0 row per rank, its short
    # steps those of them with alpha < 1, its Hessian actions the nH of its
    # last row, its calls those of tnewton.hessian_action and its largest
    # inner solve the most Hessian actions of one tnewton.tpcg call, both
    # counted here too; write puts the unwrapped functions back. Its
    # preconditioner builds are the sum of the builds of the trace's solve
    # records, and equal the calls of precond.build_shift_cache, which
    # write counts apart from the trace and which are counted here too.
    # So do its shift factorizations and those write counts at
    # precond._PBTRF and splu: every grid solve shares a shift bank (the
    # permuted grid's on the sparse LU), so it makes fewer than p per
    # build, and the irr-poisson1d solve p per build.
    monkeypatch.setattr(trace_audit, "INSTANCES", tuple(
        (name, [0]) for name, _ in trace_audit.INSTANCES))
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in trace_audit.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    out = tmp_path / "audit.json"
    action, inner_solve = tnewton.hessian_action, tnewton.tpcg
    build = precond.build_shift_cache
    pbtrf, splu = precond._PBTRF, precond.sps_la.splu
    assert trace_audit.main(["write", str(ROOT), str(out)]) == 0
    assert tnewton.hessian_action is action
    assert tnewton.tpcg is inner_solve
    assert precond.build_shift_cache is build
    assert (precond._PBTRF, precond.sps_la.splu) == (pbtrf, splu)
    records = json.loads(out.read_text(encoding="ascii"))
    import workloads

    calls = count_hessian_actions(monkeypatch)
    inner = []

    def recorded(*args, solve=tnewton.tpcg, **kwargs):
        state = solve(*args, **kwargs)
        inner.append(state.hessian_actions)
        return state

    builds = []

    def built(*args, **kwargs):
        builds.append(None)
        return build(*args, **kwargs)

    monkeypatch.setattr(tnewton, "tpcg", recorded)
    monkeypatch.setattr(precond, "build_shift_cache", built)
    audited = {**workloads.WORKLOADS, **trace_audit.grid_families(workloads)}
    assert set(records) == {f"{name}/0" for name in audited}
    # the half-bandwidth of each workload's pencil, None for the sparse LU
    kd = {"irr-poisson1d": 1, "fixed-grid2d": 41, "fixed-grid100": 101,
          "fixed-grid40-permuted": None, "irr-grid30": 31}
    for key, record in records.items():
        name, seed = key.split("/")
        workload = audited[name]
        instance = workload.setup(int(seed))
        band = precond._pencil(instance.problem, "proposed")[2]
        assert (band and band[0]) == kd[name]
        calls.clear()
        inner.clear()
        builds.clear()
        point, trace = workload.solve(instance)
        ranks = len({row.p for row in trace.rows})
        assert record["outcome"] == f"rank {point.p}"
        assert record["outer"] == len(trace.rows) - ranks > 0
        assert record["short_steps"] == sum(
            row.k > 0 and row.alpha < 1.0 for row in trace.rows)
        assert record["actions"] == trace.final().nH > 0
        assert record["calls"] == len(calls) == record["actions"]
        assert record["largest_inner"] == max(inner) > 0
        assert record["stops"] == stop_reasons(trace)
        assert len(record["stops"]) == ranks
        assert record["fallbacks"] == sum(len(solve.fallbacks)
                                          for solve in trace.solves)
        assert record["builds"] == record["build_calls"] == len(builds)
        assert record["builds"] == sum(solve.builds
                                       for solve in trace.solves) > 0
        factorizations = sum(solve.factorizations for solve in trace.solves)
        assert record["factorizations"] == record["factor_calls"] \
            == factorizations
        per_build = sum(solve.p * solve.builds for solve in trace.solves)
        assert (factorizations < per_build) == (name != "irr-poisson1d")
        assert factorizations <= per_build


def test_write_fails_on_counts_other_than_the_calls(tmp_path, capsys,
                                                    monkeypatch):
    # Hand-built records with at most one mismatch each: write still
    # writes them all, then exits 1 naming each instance whose reported
    # actions, builds or shift factorizations differ from the counted
    # ones; a null builds or factorizations (a library without them in
    # its trace) is not compared.
    def record(actions=9, calls=9, builds=4, build_calls=4,
               factorizations=12, factor_calls=12):
        return {"hash": "a", "outcome": "rank 3", "actions": actions,
                "calls": calls, "builds": builds, "build_calls": build_calls,
                "factorizations": factorizations,
                "factor_calls": factor_calls}

    records = {"irr/0": record(), "irr/1": record(actions=8),
               "grid/0": record(builds=None, build_calls=3),
               "grid/1": record(build_calls=5),
               "grid/2": record(factor_calls=11),
               "grid/3": record(factorizations=None, factor_calls=20)}
    assert trace_audit.miscounted(records) == ["grid/1", "grid/2", "irr/1"]
    monkeypatch.setattr(trace_audit, "audit", lambda root: records)
    out = tmp_path / "audit.json"
    assert trace_audit.main(["write", str(ROOT), str(out)]) == 1
    assert json.loads(out.read_text(encoding="ascii")) == records
    assert capsys.readouterr().out.splitlines()[-1] == (
        "3 instances report counts other than the counted calls: "
        "grid/1, grid/2, irr/1")
    del records["irr/1"], records["grid/1"], records["grid/2"]
    assert trace_audit.main(["write", str(ROOT), str(out)]) == 0


def test_compare_prints_preconditioner_builds(tmp_path, capsys):
    # One line per workload, before the largest inner solve: the builds
    # the traces report and the build calls counted apart, in both files;
    # a file without the fields (or a library without trace builds) reads
    # n/a.
    before = {"irr/1": _record("a", 14), "irr/2": _record("b", 15),
              "grid/0": _record("c", 5)}
    after = {"irr/1": _record("d", 14), "irr/2": _record("e", 15),
             "grid/0": _record("f", 5)}
    for records, counts in ((before, (70, 80, 12)), (after, (69, 80, 9))):
        for record, count in zip(records.values(), counts):
            record.update(builds=count, build_calls=count)
    status, lines = _compare(tmp_path, capsys, before, after)
    assert status == 1
    assert lines[-11:-9] == [
        "grid: preconditioner builds 12 -> 9 (called 12 -> 9)",
        "irr: preconditioner builds 150 -> 149 (called 150 -> 149)"]
    for record in before.values():
        record["builds"] = None
    del before["irr/2"]["build_calls"]
    status, lines = _compare(tmp_path, capsys, before, after)
    assert lines[-11:-9] == [
        "grid: preconditioner builds n/a -> 9 (called 12 -> 9)",
        "irr: preconditioner builds n/a -> 149 (called n/a -> 149)"]


def test_compare_prints_shift_factorizations(tmp_path, capsys):
    # One line per workload, between the builds and the largest inner
    # solve: the shift factorizations the traces report and those counted
    # apart, in both files; a file without the fields (or a library
    # without them in its trace) reads n/a.
    before = {"irr/1": _record("a", 14), "irr/2": _record("b", 15),
              "grid/0": _record("c", 5)}
    after = {"irr/1": _record("d", 14), "irr/2": _record("e", 15),
             "grid/0": _record("f", 5)}
    for records, counts in ((before, (700, 800, 45)), (after, (700, 800, 25))):
        for record, count in zip(records.values(), counts):
            record.update(factorizations=count, factor_calls=count)
    status, lines = _compare(tmp_path, capsys, before, after)
    assert status == 1
    assert lines[-9:-7] == [
        "grid: shift factorizations 45 -> 25 (counted 45 -> 25)",
        "irr: shift factorizations 1500 -> 1500 (counted 1500 -> 1500)"]
    for record in before.values():
        record["factorizations"] = None
    status, lines = _compare(tmp_path, capsys, before, after)
    assert lines[-9:-7] == [
        "grid: shift factorizations n/a -> 25 (counted 45 -> 25)",
        "irr: shift factorizations n/a -> 1500 (counted 1500 -> 1500)"]


def test_compare_prints_stop_reasons_and_fallbacks(tmp_path, capsys):
    # One line per workload, before the outer iterations: the total of
    # each stop reason and of the fallbacks in both files.
    before = {"irr/1": _record("a", 14, outer=70),
              "irr/2": _record("b", 15, outer=80),
              "grid/0": _record("c", 5, outer=20)}
    after = {"irr/1": _record("d", 14, outer=60),
             "irr/2": _record("e", 14, outer=50),
             "grid/0": _record("f", 5, outer=10)}
    before["irr/1"].update(stops=["stall", "floor"], fallbacks=1)
    before["irr/2"].update(stops=["stall", "stall", "floor"], fallbacks=0)
    before["grid/0"].update(stops=["gradient"], fallbacks=2)
    after["irr/1"].update(stops=["stall", "floor"], fallbacks=0)
    after["irr/2"].update(stops=["stall", "target"], fallbacks=0)
    after["grid/0"].update(stops=["gradient"], fallbacks=0)
    status, lines = _compare(tmp_path, capsys, before, after)
    assert status == 1
    assert lines[-5:-3] == [
        "grid: stops gradient 1; fallbacks 2 -> gradient 1; fallbacks 0",
        "irr: stops floor 2, stall 3; fallbacks 1 -> floor 1, stall 2, "
        "target 1; fallbacks 0"]
    # a file written before the fields existed still compares
    old = {key: {k: v for k, v in record.items()
                 if k not in ("stops", "fallbacks")}
           for key, record in before.items()}
    status, lines = _compare(tmp_path, capsys, old, after)
    assert status == 1
    assert lines[-5:-3] == [
        "grid: stops n/a -> gradient 1; fallbacks 0",
        "irr: stops n/a -> floor 1, stall 2, target 1; fallbacks 0"]


def test_compare_prints_the_largest_inner_solve(tmp_path, capsys):
    # One line per workload, before the stop reasons: the most Hessian
    # actions of one inner solve in both files; a file without the field
    # reads n/a.
    before = {"irr/1": _record("a", 14), "irr/2": _record("b", 15),
              "grid/0": _record("c", 5)}
    after = {"irr/1": _record("d", 14), "irr/2": _record("e", 15),
             "grid/0": _record("c", 5)}
    for records, sizes in ((before, (820, 5, 4)), (after, (5, 4, 4))):
        for record, size in zip(records.values(), sizes):
            record["largest_inner"] = size
    status, lines = _compare(tmp_path, capsys, before, after)
    assert status == 1
    assert lines[-7:-5] == [
        "grid: largest inner solve 4 -> 4 Hessian actions",
        "irr: largest inner solve 820 -> 5 Hessian actions"]
    del before["irr/2"]["largest_inner"]
    status, lines = _compare(tmp_path, capsys, before, after)
    assert lines[-7:-5] == [
        "grid: largest inner solve 4 -> 4 Hessian actions",
        "irr: largest inner solve n/a -> 5 Hessian actions"]


def test_compare_into_a_closed_pipe_prints_no_traceback(tmp_path):
    # `compare A B | head`: the reader leaves after one line, long before
    # the output (far more than a pipe buffer) is written.
    before = {f"irr/{i}": _record("a", 14) for i in range(5000)}
    after = {f"irr/{i}": _record("b", 14) for i in range(5000)}
    paths = []
    for name, records in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(records), encoding="ascii")
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "trace_audit.py"), "compare",
         *map(str, paths)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("irr/0: rank 14 -> rank 14")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.wait(timeout=60)
    proc.stderr.close()
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
