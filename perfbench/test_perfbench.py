"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They live here rather than under tests/ so the package's test command is
unchanged.  The end-to-end ones run ``run.py`` for about ten seconds each.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checkout import ROOT, use_checkout  # noqa: E402

use_checkout()

import kmfg  # noqa: E402

import compare  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ---------------------------------------------------------------------------
# BENCHMARK.json and the seeded inputs


def test_benchmark_file_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.build(workload, 7)
    assert json.dumps(first) == json.dumps(workloads.build(workload, 7))
    assert json.dumps(first) != json.dumps(workloads.build(workload, 8))


def test_random_gcms_follow_the_property_distribution():
    ops_list = workloads.build("closed_forms", 3)
    rows = [workloads.parse_text(s["matrix"]) for s in ops_list
            if s["op"] == "chain" and s["name"].startswith(("tree-", "cyclic-"))]
    assert {len(a) for a in rows} == set(range(1, 11))
    entries = {a[i][j] for a in rows for i in range(len(a)) for j in range(len(a)) if i != j}
    assert entries == {0, -1, -2, -3, -4}
    assert all(reference.gate(a)["irreducible"] for a in rows)


# ---------------------------------------------------------------------------
# the checks behind error_rate


def test_reference_series():
    assert reference.finite_series((2, 3), 5) == [1, 2, 2, 1, 0, 0]
    # A1~ is the infinite dihedral group: 1 + 2q + 2q^2 + ...
    assert reference.affine_series((2,), 4) == [1, 2, 2, 2, 2]
    group = kmfg.WeylGroup(kmfg.from_named("A3~"))
    histogram = group.cell_counts((), 6)
    assert reference.affine_series((2, 3, 4), 6) == [histogram[k] for k in range(7)]


def test_numbers_game_agrees_with_is_reduced():
    rows = workloads.parse_text(kmfg.from_named("B3").to_plain_text())
    group = kmfg.WeylGroup(kmfg.GeneralizedCartanMatrix(rows))
    for word in ([0, 1, 0], [0, 0], [1, 2, 1, 2], [1, 2, 1, 2, 1]):
        assert reference.numbers_game(rows, word)[1] == group.is_reduced(word)


def _first_ops(workload, count):
    stored = reference.load_stored()
    ops_list = workloads.build(workload, 1)[:count]
    return ops_list, [ops.expect(spec, stored) for spec in ops_list]


def test_wrong_program_output_raises_error_rate(monkeypatch):
    ops_list, expected = _first_ops("closed_forms", 40)
    clock = run.ReferenceClock()
    assert not any(f for _, f in run.run_pass(ops_list, expected, clock))
    monkeypatch.setattr(kmfg.pi1.Pi1Type, "__str__", lambda self: "Z^9")
    failures = [f for _, f in run.run_pass(ops_list, expected, clock) if f]
    assert failures and any("chain" in f for f in failures)
    assert any("'pi1'" in f for f in failures)


def test_crashing_program_counts_as_failure(monkeypatch):
    ops_list, expected = _first_ops("closed_forms", 4)

    def broken(m):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(kmfg.adm, "build_adm", broken)
    failures = [f for _, f in run.run_pass(ops_list, expected, run.ReferenceClock()) if f]
    assert len(failures) == 4


def test_garbled_output_is_a_failure_not_a_crash(monkeypatch):
    ops_list, expected = _first_ops("weyl_closure", 1)
    monkeypatch.setattr(ops, "execute", lambda spec: (0, "garbage\n", ""))
    failures = [f for _, f in run.run_pass(ops_list, expected, run.ReferenceClock())]
    assert failures[0] and "unreadable output" in failures[0]


@pytest.mark.parametrize("workload", ("coset_verify", "weyl_cells", "weyl_closure"))
def test_checks_reject_a_damaged_cli_output(workload):
    stored = reference.load_stored()
    spec = next(s for s in workloads.build(workload, 2) if s["op"] == "cli")
    want = ops.expect(spec, stored)
    if workload == "coset_verify":
        good = (want["code"], want["stdout"], "")
    else:
        good = ops.execute(spec)
    assert ops.check(spec, good, want) is None
    code, out, err = good
    lines = out.splitlines()
    assert ops.check(spec, (code, "\n".join(lines[1:]) + "\n", err), want) is not None
    assert ops.check(spec, (4, out, err), want) is not None


def test_checks_reject_wrong_library_results():
    stored = reference.load_stored()
    for spec in workloads.build("weyl_closure", 1)[1:4]:
        want = ops.expect(spec, stored)
        assert ops.check(spec, ops.execute(spec), want) is None
        wrong = not want if spec["op"] == "is_reduced" else want[:-1]
        assert ops.check(spec, wrong, want) is not None
    spec = {"op": "todd_coxeter", "name": "A6", "strategy": "hlt",
            "matrix": kmfg.from_named("A6").to_plain_text()}
    assert ops.check(spec, ("finite", 64), ops.expect(spec, stored)) is not None


# ---------------------------------------------------------------------------
# the command itself


def _result(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return final, record


@pytest.mark.parametrize("trace", (0, 1))
def test_printed_metrics_match_benchmark_json(trace):
    final, record = _result(_run("--workload", "weyl_closure", "--seed", "3",
                                 "--seconds", "0", "--trace", str(trace)))
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(final["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert final["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert record["python"] == ".".join(map(str, sys.version_info[:3]))
    assert record["nproc"] == len(os.sched_getaffinity(0))
    assert (record["workload"], record["seed"], record["trace"]) == ("weyl_closure", 3, trace)
    assert "commit" in record and len(record["src_sha256"]) == 64
    assert set(record["samples"]) == set(final["metrics"])


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "closed_forms", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ---------------------------------------------------------------------------
# the compare tool


@pytest.mark.parametrize(
    "change, expected",
    [
        ([x * 0.8 for x in range(100, 110)], "improved"),
        ([x * 1.3 for x in range(100, 110)], "regressed"),
        ([x * 1.02 for x in range(100, 110)], "within bound"),
    ],
)
def test_compare_verdicts(change, expected):
    parent = [float(x) for x in range(100, 110)]
    assert compare.verdict(parent, change, "lower", 0.1)[0] == expected


def test_compare_reports_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [100.0, 140.0, 90.0, 150.0, 80.0, 160.0, 100.0, 130.0, 95.0, 145.0]
    change = [x * 1.05 for x in parent]
    assert compare.verdict(parent, change, "lower", 0.1)[0] == "unresolved"
