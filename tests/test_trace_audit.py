"""The comparison side of tools/trace_audit.py, on hand-made records."""

import json
import pathlib
import sys

from helpers import count_hessian_actions, trace_audit
from lyapfactor import tnewton

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


def test_write_records_outer_iterations(tmp_path, capsys, monkeypatch):
    # One instance of each workload, solved again here: the record's outer
    # iterations are its trace rows less one k = 0 row per rank, its short
    # steps those of them with alpha < 1, its Hessian actions the nH of its
    # last row, and its calls those of tnewton.hessian_action, counted here
    # too; write puts the unwrapped function back.
    monkeypatch.setattr(trace_audit, "INSTANCES",
                        (("irr-poisson1d", [0]), ("fixed-grid2d", [0])))
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in trace_audit.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    out = tmp_path / "audit.json"
    action = tnewton.hessian_action
    assert trace_audit.main(["write", str(ROOT), str(out)]) == 0
    assert tnewton.hessian_action is action
    records = json.loads(out.read_text(encoding="ascii"))
    import workloads

    calls = count_hessian_actions(monkeypatch)
    for key, record in records.items():
        name, seed = key.split("/")
        workload = workloads.WORKLOADS[name]
        calls.clear()
        point, trace = workload.solve(workload.setup(int(seed)))
        ranks = len({row.p for row in trace.rows})
        assert record["outcome"] == f"rank {point.p}"
        assert record["outer"] == len(trace.rows) - ranks > 0
        assert record["short_steps"] == sum(
            row.k > 0 and row.alpha < 1.0 for row in trace.rows)
        assert record["actions"] == trace.final().nH > 0
        assert record["calls"] == len(calls) == record["actions"]
        assert record["stops"] == trace.stops
        assert len(record["stops"]) == ranks
        assert record["fallbacks"] == len(trace.fallbacks)


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
