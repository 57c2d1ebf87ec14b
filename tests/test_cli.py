"""Command line front end tests, driving main() in process."""

import json
import math
from collections import Counter
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sps

from lyapfactor import (IrrConfig, LyapunovProblem, Metric, SpdSparseMatrix,
                        gen_poisson, save_problem, solve_increasing_rank)
from lyapfactor import tnewton
from lyapfactor.cli import main

from helpers import rank_deficient_warm_starts

SUMMARY_KEYS = {"final_rank", "rel_res", "total_nH", "total_ms",
                "ranks_visited", "total_builds", "total_factorizations"}
TRACE_HEADER = "k,p,f,gradnorm,relres,inner_iters,nH,alpha,ms"
BENCH_HEADER = "n,mass,metric,precond,iter,nH,relres,ms"


def identity_manifest(tmp_path, n=50, s=4, seed=11):
    """Write an A = M = I problem to Matrix Market files."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, s))
    eye = SpdSparseMatrix(sps.identity(n, format="csr"))
    problem = LyapunovProblem(eye, eye, b)
    return save_problem(str(tmp_path / "idprob"), problem), b


# ----------------------------------------------------------------- solve


def test_solve_end_to_end(capsys):
    rc = main(["solve", "--gen", "poisson", "--n", "500", "--tol", "1e-6",
               "--metric", "1", "--precond", "proposed", "--seed", "7"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == SUMMARY_KEYS
    assert summary["rel_res"] <= 1e-6


def test_solve_outputs_are_consistent(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    summary_path = tmp_path / "summary.json"
    rc = main(["solve", "--gen", "poisson", "--n", "60", "--tol", "1e-6",
               "--precond", "proposed",
               "--trace-out", str(trace_path),
               "--summary-out", str(summary_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)

    with open(summary_path, encoding="ascii") as fh:
        assert json.load(fh) == summary

    lines = trace_path.read_text(encoding="ascii").strip().splitlines()
    assert lines[0] == TRACE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        assert len(row) == 9
        [float(x) for x in row]

    # Summary counters must agree with the trace.
    assert int(rows[-1][6]) == summary["total_nH"]
    ranks = []
    for row in rows:
        p = int(row[1])
        if not ranks or ranks[-1] != p:
            ranks.append(p)
    assert ranks == summary["ranks_visited"]
    assert summary["final_rank"] == ranks[-1]
    assert float(rows[-1][4]) == summary["rel_res"]


@pytest.mark.parametrize("precond", ["proposed", "none"])
def test_summary_counts_preconditioner_builds(capsys, precond):
    # total_builds is the sum of the builds of the trace's solve records:
    # one per outer iteration of a rank that starts warm, none for the
    # steepest-descent probe steps of the cold first rank, none at all
    # without a preconditioner
    rc = main(["solve", "--gen", "poisson", "--n", "60", "--tol", "1e-6",
               "--precond", precond, "--seed", "3"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    _, trace = solve_increasing_rank(
        gen_poisson(60, 3), Metric.EMBEDDED,
        IrrConfig(p_min=1, p_max=20, tau=1e-6, seed=3), None, precond)
    builds = [solve.builds for solve in trace.solves]
    assert summary["total_builds"] == sum(builds)
    # a tridiagonal pencil shares no shift bank: p factorizations a build
    assert summary["total_factorizations"] == sum(
        solve.factorizations for solve in trace.solves) == sum(
        solve.p * solve.builds for solve in trace.solves)
    assert summary["ranks_visited"] == [solve.p for solve in trace.solves]
    if precond == "none":
        assert sum(builds) == 0
        return
    outer = Counter(row.p for row in trace.rows if row.k > 0)
    steepest = [len(solve.steepest) for solve in trace.solves]
    assert steepest[0] > 0 and not any(steepest[1:])
    assert builds == [outer[solve.p] - len(solve.steepest)
                      for solve in trace.solves]


def test_solve_missing_size_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--gen", "poisson"])
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_solve_source_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--gen", "poisson", "--n", "20", "--manifest", "x"])
    assert info.value.code == 2
    assert "exclusive" in capsys.readouterr().err


def test_solve_without_source_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve"])
    assert info.value.code == 2
    assert "required" in capsys.readouterr().err


def test_solve_bad_manifest_returns_2(tmp_path, capsys):
    bad = tmp_path / "bad.manifest"
    bad.write_text("not a manifest\n", encoding="ascii")
    rc = main(["solve", "--manifest", str(bad)])
    assert rc == 2
    assert "expected 'key = value'" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["a.mtx", "b.mtx"])
def test_solve_non_finite_matrix_returns_2(tmp_path, capsys, name):
    manifest, _ = identity_manifest(tmp_path, n=5, s=1)
    path = os.path.join(os.path.dirname(manifest), name)
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:-1] + ["nan"])
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    rc = main(["solve", "--manifest", manifest])
    assert rc == 2
    err = capsys.readouterr().err
    assert name in err and "non-finite" in err


def test_solve_writes_the_trace_before_a_definiteness_error(tmp_path,
                                                            capsys):
    # A - 20 I at n = 600, above the size up to which SpdSparseMatrix
    # checks definiteness: the start scale of rank 4 finds A or M not
    # positive definite, and the trace CSV holds the 210 rows of ranks 1-3
    # and rank 4's row 0
    given = gen_poisson(600, 0)
    shifted = (given.a.mat - 20.0 * sps.identity(600)).tocsr()
    manifest = save_problem(str(tmp_path / "shifted"), LyapunovProblem(
        SpdSparseMatrix(shifted), given.m, given.b))
    trace_path = tmp_path / "trace.csv"
    rc = main(["solve", "--manifest", manifest, "--p-max", "10",
               "--trace-out", str(trace_path)])
    assert rc == 2
    assert "A or M is not positive definite" in capsys.readouterr().err
    lines = trace_path.read_text(encoding="ascii").strip().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 212
    assert {line.split(",")[1] for line in lines[1:]} == {"1", "2", "3",
                                                          "4"}


def test_solve_writes_the_trace_before_a_warm_start_definiteness_error(
        tmp_path, capsys):
    # M with its last entry -0.1 at n = 600: the warm start that grows
    # rank 7's start finds c4 <= 0, and the trace CSV holds the 96 rows of
    # ranks 1-6
    given = gen_poisson(600, 0)
    mass = given.m.mat.tolil()
    mass[599, 599] = -0.1
    manifest = save_problem(str(tmp_path / "indefinite"), LyapunovProblem(
        given.a, SpdSparseMatrix(mass.tocsr()), given.b))
    trace_path = tmp_path / "trace.csv"
    rc = main(["solve", "--manifest", manifest, "--p-max", "10",
               "--trace-out", str(trace_path)])
    assert rc == 2
    assert "c4 = tr(V^T A V V^T M V)" in capsys.readouterr().err
    lines = trace_path.read_text(encoding="ascii").strip().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 97
    assert {line.split(",")[1] for line in lines[1:]} == {
        str(p) for p in range(1, 7)}


def test_rank_deficient_warm_start_returns_1_with_the_partial_trace(
        tmp_path, capsys, monkeypatch):
    # A warm start raises a SolverError (whether rounding lets the first
    # grown factor pass as full rank varies): solve prints one error line
    # naming it and the rank it grew, writes the rows of the ranks before
    # that one and returns 1.
    rank_deficient_warm_starts(monkeypatch)
    csv = tmp_path / "trace.csv"
    rc = main(["solve", "--gen", "poisson", "--n", "40", "--trace-out",
               str(csv)])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "SolverError"
    assert "rank deficient" in payload["message"]
    rows = csv.read_text(encoding="ascii").splitlines()
    assert rows[0] == TRACE_HEADER
    assert {int(row.split(",")[1]) for row in rows[1:]} == set(
        range(1, payload["rank"]))


def test_solve_unreachable_tolerance_returns_1(capsys):
    rc = main(["solve", "--gen", "poisson", "--n", "40", "--tol", "1e-14",
               "--p-max", "2", "--precond", "proposed"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "tolerance_not_reached"
    assert SUMMARY_KEYS <= set(payload)
    assert payload["rel_res"] > 1e-14


def test_solver_failure_returns_1_with_the_partial_trace(tmp_path, capsys,
                                                        monkeypatch):
    # Every Hessian action after the second is NaN, so an inner solve
    # raises: solve prints one error line, writes the rows that did
    # complete and returns 1; bench writes each failed cell as a NaN row
    # and returns 0.
    calls = []

    def failing(*args, action=tnewton.hessian_action):
        calls.append(None)
        out = action(*args)
        return np.full_like(out, np.nan) if len(calls) > 2 else out

    monkeypatch.setattr(tnewton, "hessian_action", failing)
    csv = tmp_path / "trace.csv"
    rc = main(["solve", "--gen", "poisson", "--n", "60", "--precond",
               "proposed", "--trace-out", str(csv)])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["rank"]) == ("InnerSolveError", 1)
    rows = csv.read_text(encoding="ascii").splitlines()
    assert rows[0] == TRACE_HEADER
    assert len(rows) == 3

    rc = main(["bench", "--n", "60"])
    assert rc == 0
    rows = bench_rows(capsys.readouterr().out)
    assert len(rows) == 6
    assert all(row[4:] == ["nan"] * 4 for row in rows.values())


def test_invalid_metric_choice_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--gen", "poisson", "--n", "20", "--metric", "5"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("metric", ["2", "3"])
def test_solve_alternate_metrics(metric, capsys):
    rc = main(["solve", "--gen", "poisson", "--n", "40", "--metric", metric,
               "--tol", "1e-5", "--precond", "proposed"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["rel_res"] <= 1e-5


# -------------------------------------------------------------- generate


def test_generate_then_solve_roundtrip(tmp_path, capsys):
    rc = main(["generate", "--gen", "poisson", "--n", "50", "--seed", "2",
               "--out", str(tmp_path / "prob")])
    assert rc == 0
    manifest = capsys.readouterr().out.strip()
    assert os.path.exists(manifest)

    rc = main(["solve", "--manifest", manifest, "--tol", "1e-5",
               "--precond", "proposed"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["rel_res"] <= 1e-5


def test_generate_requires_out(capsys):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--gen", "poisson", "--n", "20"])
    assert info.value.code == 2
    capsys.readouterr()


# ----------------------------------------------------------------- bench


def bench_rows(text):
    lines = text.strip().splitlines()
    assert lines[0] == BENCH_HEADER
    return {(r[1], r[3]): r for r in (line.split(",") for line in lines[1:])}


def test_bench_table_structure_and_determinism(capsys):
    rc = main(["bench", "--n", "120"])
    assert rc == 0
    first = capsys.readouterr().out
    rows = bench_rows(first)

    # Full cartesian product in a fixed order, failures as NaN rows.
    expected = [(mass, pre) for mass in ("general", "identity")
                for pre in ("none", "proposed", "bart")]
    assert list(rows) == expected
    for row in rows.values():
        assert len(row) == 8
        [float(x) for x in row[4:]]
    for mass in ("general", "identity"):
        assert math.isfinite(float(rows[(mass, "proposed")][5]))

    rc = main(["bench", "--n", "120"])
    assert rc == 0
    again = bench_rows(capsys.readouterr().out)
    for key in rows:
        assert rows[key][:7] == again[key][:7]


def test_bench_preconditioner_orderings(capsys):
    # One sweep at the published problem size: the preconditioned runs
    # must need far fewer Hessian actions than the unpreconditioned one
    # on the general mass matrix, and the two preconditioners coincide
    # when the mass matrix is the identity.
    rc = main(["bench", "--n", "1000"])
    assert rc == 0
    rows = bench_rows(capsys.readouterr().out)

    nh = {key: float(row[5]) for key, row in rows.items()}
    assert nh[("general", "none")] > nh[("general", "proposed")]
    assert nh[("general", "bart")] >= nh[("general", "proposed")]
    assert nh[("identity", "proposed")] <= 1.05 * nh[("identity", "bart")]
    assert nh[("identity", "bart")] <= 1.05 * nh[("identity", "proposed")]

    # Every converged cell of a mass row reaches the same solution.
    for mass in ("general", "identity"):
        res = [float(rows[(mass, pre)][6])
               for pre in ("none", "proposed", "bart")
               if math.isfinite(float(rows[(mass, pre)][6]))]
        assert res
        assert max(res) <= 1.001 * min(res)


def test_bench_rejects_a_nan_tolerance(capsys):
    # A NaN gradient tolerance would end every cell before its first step.
    assert main(["bench", "--n", "120", "--tol", "nan"]) == 2
    assert "grad_tol_rel must be finite" in capsys.readouterr().err


def test_bench_writes_table_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["bench", "--n", "120", "--trace-out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert len(bench_rows(out.read_text(encoding="ascii"))) == 6


# ---------------------------------------------------------- oracle-check


def test_oracle_check_matches_tail_energies(tmp_path, capsys):
    # With A = M = I the best rank-p residual is the root of the tail
    # eigenvalue energy of C; the report column must reproduce it.
    manifest, b = identity_manifest(tmp_path)
    report = tmp_path / "report.csv"
    rc = main(["oracle-check", "--manifest", manifest, "--tol", "1e-6",
               "--p-max", "6", "--trace-out", str(report)])
    assert rc == 0
    capsys.readouterr()

    lines = report.read_text(encoding="ascii").strip().splitlines()
    assert lines[0] == "rank,best_relres,irr_relres"
    rows = [line.split(",") for line in lines[1:]]

    c = b @ b.T
    lam = np.linalg.eigvalsh(c)[::-1]
    normc = np.linalg.norm(c, "fro")
    for rank_s, best_s, irr_s in rows:
        rank = int(rank_s)
        tail = np.sqrt(np.sum(lam[rank:] ** 2)) / normc
        assert abs(float(best_s) - tail) <= 1e-10
        assert float(irr_s) >= 0.0
    # C has rank 4, so the loop stops there and reports one row per rank.
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4]


def test_oracle_check_final_rank_is_near_best(tmp_path, capsys):
    report = tmp_path / "report.csv"
    rc = main(["oracle-check", "--gen", "poisson", "--n", "60",
               "--precond", "proposed", "--tol", "1e-6", "--p-max", "25",
               "--trace-out", str(report)])
    assert rc == 0
    capsys.readouterr()
    lines = report.read_text(encoding="ascii").strip().splitlines()
    last = lines[-1].split(",")
    assert float(last[2]) <= 10.0 * float(last[1])


def test_oracle_check_returns_1_after_a_solver_failure(capsys, monkeypatch):
    def failing(*args, action=tnewton.hessian_action):
        return np.full_like(action(*args), np.nan)

    monkeypatch.setattr(tnewton, "hessian_action", failing)
    rc = main(["oracle-check", "--gen", "poisson", "--n", "40"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["rank"]) == ("InnerSolveError", 1)


def test_oracle_check_rejects_large_problem(capsys):
    # The guard fires before any solve.
    rc = main(["oracle-check", "--gen", "poisson", "--n", "2001"])
    assert rc == 2
    assert "n <= 2000, got 2001" in capsys.readouterr().err


# ------------------------------------------------------------ entrypoint


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lyapfactor.cli", "solve", "--gen", "poisson",
         "--n", "30", "--tol", "1e-4", "--precond", "proposed"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rel_res"] <= 1e-4
