"""The comparison side of tools/trace_audit.py, on hand-made records."""

import json

from helpers import trace_audit


def _record(digest, rank, relres=None, tau=1e-6):
    out = {"hash": digest, "outcome": f"rank {rank}"}
    if relres is not None:
        out.update(relres={str(p): r * tau for p, r in relres.items()},
                   tau=tau)
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
