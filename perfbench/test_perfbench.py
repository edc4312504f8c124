"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import harness
import run

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
SMALL = 6  # trials per command in the layer matrix


@pytest.fixture(scope="module")
def cli():
    return harness.import_cli()


def spinmix_namespaces():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "spinmix" or name.startswith("spinmix."))]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


def test_known_generator_defect_is_counted_not_hidden(cli, tmp_path):
    # rand_bounded_degree_graph gives up after 20000 rejected draws when
    # asked for 10 vertices at degree bound 3; seed 17 asks for 10 at once
    argv = ["annulus", "--max-vertices", "10", "--degree-bound", "3",
            "--trials", "3", "--seed", "17"]
    with harness.TrialClock(cli) as clock:
        result = harness.run_command(cli, clock, argv, tmp_path)
    assert result.exit_code is None
    assert (result.error, result.stage) == ("RuntimeError", "generate")
    assert result.finished == 0 and result.failed == 3
    assert list(tmp_path.iterdir()) == []  # neither a report nor a failure dump
    summary = harness.summarize([result])
    assert summary["failed"] == summary["attempted"] == 3
    assert summary["errors"][0]["unfinished"] == 3


def test_gate_checks_report_digests(cli, tmp_path, monkeypatch):
    with harness.TrialClock(cli) as clock:
        gate = harness._gate(cli, clock, "zeros", tmp_path)
    assert gate["failed"] == 0 and gate["digest_mismatches"] == []

    zeros = harness.WORKLOADS["zeros"]
    wrong = dataclasses.replace(zeros, digests=("0" * 64, *zeros.digests[1:]))
    monkeypatch.setitem(harness.WORKLOADS, "zeros", wrong)
    with harness.TrialClock(cli) as clock:
        gate = harness._gate(cli, clock, "zeros", tmp_path)
    assert [m["expected"] for m in gate["digest_mismatches"]] == ["0" * 64]


def test_digest_mismatch_fails_the_run_without_metrics(monkeypatch, capsys):
    gate = {"attempted": 100, "failed": 0, "errors": [],
            "digest_mismatches": [{"argv": ["annulus"], "expected": "0" * 64, "got": "1" * 64}]}
    metrics = {"setup_s": (0.1, "s", "")}
    monkeypatch.setattr(run, "end_to_end", lambda args, deadline: (
        metrics, [gate], {"errors": [], "digest_mismatches": gate["digest_mismatches"]}))
    assert run.main(["--workload", "zeros", "--seconds", "1"]) == 1
    result = last_json(capsys.readouterr().out)
    assert result == {"correct": False, "attempted": 100, "failed": 0, "metrics": {}}


def test_tracer_rebinds_every_namespace_and_restores(cli):
    originals = [getattr(sys.modules[f"spinmix.{module}"], attr)
                 for _, module, attr, _ in harness.TRACED]
    partition, mixing, identities = (sys.modules[f"spinmix.{m}"]
                                     for m in ("partition", "mixing", "identities"))
    with harness.Tracer(cli):
        for namespace in spinmix_namespaces():
            for value in vars(namespace).values():
                assert not any(value is f for f in originals)
        assert partition.z_tree is mixing.z_tree is identities.z_tree
    assert partition.z_tree is mixing.z_tree is identities.z_tree is originals[
        [attr for _, _, attr, _ in harness.TRACED].index("z_tree")]
    assert all(getattr(sys.modules[f"spinmix.{m}"], a) is f
               for (_, m, a, _), f in zip(harness.TRACED, originals))


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_layer_matrix(cli, tmp_path, workload):
    with harness.Tracer(cli) as tracer:
        with harness.TrialClock(cli) as clock:
            results = harness.run_pass(cli, clock, harness.corpus(workload, 1, 0, SMALL),
                                       tmp_path)
    assert harness.summarize(results)["failed"] == 0
    counts = harness.child_count(workload, 1, SMALL)
    values = harness.layer_metrics(tracer.layer_totals(), counts, 0.0)
    quiet = [la.metric for la in harness.LAYERS if workload in la.busy and values[la.metric] <= 0]
    noisy = [la.metric for la in harness.LAYERS if workload in la.idle and values[la.metric] != 0]
    assert quiet == [] and noisy == []


def test_scalar_counter_counts_outermost_operators():
    harness.import_cli()
    from spinmix.numerics import ExactComplex
    x = ExactComplex(1, 2)
    with harness.ScalarCounter(ExactComplex) as counter:
        for value in (1 + x, 2 * x, x - 1, 1 - x, x / 3, 1 / x, x ** 3, -x):
            assert isinstance(value, ExactComplex)
    assert (counter.ops, counter.divs) == (8, 2)
    assert vars(ExactComplex)["__radd__"] is vars(ExactComplex)["__add__"]
    assert vars(ExactComplex)["__rmul__"] is vars(ExactComplex)["__mul__"]


def test_scalar_counts_repeat_across_processes():
    # cyclic fills a module-level cache in mixing, so only fresh processes
    # see the same count
    code = "import json, harness; print(json.dumps(harness.child_count('cyclic', 3, 3)))"
    runs = [last_json(subprocess.run([sys.executable, "-c", code], cwd=harness.ROOT / "perfbench",
                                     capture_output=True, text=True, check=True).stdout)
            for _ in range(2)]
    counts = [{k: r[k] for k in ("scalar_ops", "scalar_divs", "max_bits")} for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["run"]["failed"] == 0 and counts[0]["scalar_ops"] > 0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(10000))) == (99.9, 9989)
    assert run.tail(list(range(2000)))[0] == 99.0
    assert run.tail(list(range(1000))) == (99.0, 989)
    assert run.tail(list(range(500)))[0] == 90.0
    assert run.tail(list(range(20)))[0] == 50.0
    assert run.tail(list(range(5))) == (100.0, 4)


def test_benchmark_json_matches_harness():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in harness.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (la.metric, la.unit) for la in harness.LAYERS]


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "zeros",
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=harness.ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert "failed_frac" in proc.stdout


def test_fails_without_source_tree(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for trace in ("0", "1"):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "trees",
                               "--seed", "1", "--seconds", "1", "--trace", trace],
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
