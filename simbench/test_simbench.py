"""The benchmark's own tests: metric names against ``BENCHMARK.json``, and
the outputs check firing on planted faults, on the smallest configuration
of each workload.

Run from the repository root: ``PYTHONPATH=src python -m pytest simbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.faults import FaultEvent, FaultPlan  # noqa: E402

from simbench import bench, checks, workloads  # noqa: E402

JOBS = 2


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    doc = _benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def references():
    """Heap references for every workload's smallest configuration."""
    return {
        name: checks.in_workers(checks.reference_point,
                                workloads.build(name, 1, smoke=True).specs,
                                JOBS)
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smallest_configuration_passes_the_check(name, references, tmp_path):
    results = ROOT / "benchmarks" / "results"
    before = sorted(results.rglob("*")) if results.exists() else []
    workload = workloads.build(name, 1, smoke=True)
    rounds = [bench.run_round(workload, JOBS, tmp_path) for _ in range(2)]
    verdict = checks.Verdict()
    verdict.check_repeats(references[name], [r.outcomes for r in rounds],
                          engine=workload.dispatch != workloads.IN_PROCESS)
    for rnd in rounds:
        verdict.check_cache(rnd.cache_hits)
    assert verdict.correct, verdict.problems
    assert verdict.failed_points == 0
    assert verdict.points == 2 * len(workload.specs)
    after = sorted(results.rglob("*")) if results.exists() else []
    assert after == before, "the benchmark wrote under benchmarks/results/"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tampered_digest_is_incorrect(name, references, tmp_path):
    workload = workloads.build(name, 1, smoke=True)
    outcomes = bench.run_round(workload, JOBS, tmp_path).outcomes
    tampered = list(outcomes)
    tampered[-1] = dataclasses.replace(tampered[-1], digest="0" * 64)
    verdict = checks.Verdict()
    verdict.check_repeats(references[name], [outcomes, tampered],
                          engine=workload.dispatch != workloads.IN_PROCESS)
    assert not verdict.correct
    assert any("digest differs" in p for p in verdict.problems)


def _allreduce_spec(**changes):
    spec = workloads.build("lossy-rpc", 1, smoke=True).specs[-1]
    assert spec.label.startswith("lossy-rpc/allreduce")
    return workloads.fresh(spec, **changes)


def test_unrepaired_link_is_a_counted_stall():
    plan = FaultPlan(events=(
        FaultEvent(kind="link_fail", at=500, link="ft:ej9"),
    ))
    spec = _allreduce_spec(fault_plan=plan, max_retries=2,
                           watchdog_cycles=20_000)
    outcome, _, _ = checks.run_point(spec)
    assert outcome.error is None
    assert outcome.stall_report or not outcome.completed
    failed, problems = checks.judge(outcome, order_promised=True)
    assert failed and problems == []


def test_wrong_allreduce_expectation_is_incorrect(monkeypatch):
    import repro.traffic.allreduce as allreduce_module

    monkeypatch.setattr(allreduce_module, "expected_sum", lambda r, n: -1)
    outcome, result, _ = checks.run_point(_allreduce_spec())
    assert result is None and checks.SUM_ERROR in outcome.error
    failed, problems = checks.judge(outcome, order_promised=True)
    assert failed and problems and "allreduce sum error" in problems[0]


def test_errored_point_is_a_failed_operation_not_an_incorrect_output():
    outcome = checks.Outcome(label="x", horizon=False, completed=False,
                             error="IndexError: list index out of range")
    assert checks.judge(outcome, order_promised=True) == (True, [])


def test_failed_timed_point_is_left_out_of_the_figures():
    def figures(cycles):
        return {
            "cycles": cycles, "sent": 10, "delivered": 9, "abandoned": 1,
            "latency_count": 9, "latency_total": 90, "latency_max": 20,
            "latency_rows": [("8-15", 9)], "network_latency_count": 9,
            "network_latency_total": 45, "iteration_cycles": None,
            "rpc_rounds": 2, "rounds_given_up": 1,
        }

    own = [{"figures": figures(1000)}, {"figures": figures(4000)}]
    ok = checks.Outcome(label="a", horizon=True, cycles=1000)
    errored = checks.Outcome(label="b", horizon=True, completed=False,
                             error="IndexError")
    rounds = [
        bench.Round(1.0, [ok, checks.Outcome(label="b", horizon=True,
                                             cycles=4000)], [0.5, 0.5]),
        bench.Round(1.0, [ok, errored], [0.5, 0.5]),
    ]
    fails = [0, 1]
    attempted, failed = bench._operations(own, fails, len(rounds))
    # Point a: 2 runs + 2 x (10 sent + 2 RPC rounds); 2 x (1 + 1) failed.
    # Point b: 2 runs + 1 x 12; its failed run + 1 x (1 + 1).
    assert (attempted, failed) == (40, 7)
    values, _ = bench._end_to_end(own, fails, rounds, 0.1, 1, [0.0, 0.0],
                                  attempted, failed)
    assert values["sim_delivered_per_kcycle"] == pytest.approx(9.0)
    assert values["success_ratio"] == pytest.approx(1 - 7 / 40)


def test_cache_hit_is_incorrect():
    verdict = checks.Verdict()
    verdict.check_cache(1)
    assert not verdict.correct


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_metric(trace, tmp_path):
    report = bench.run("heavy-window", 1, 0, trace, tmp_path, smoke=True)
    result = report.result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert any(line.startswith("host: nproc=") for line in report.lines)
    if trace:
        doc = json.loads(
            (tmp_path / ".simbench" / "trace-heavy-window-seed1.json").read_text())
        names = {span["name"] for span in doc["spans"]}
        assert {"round", "point", "setup", "simulate", "verify"} <= names
        assert all(span["end"] >= span["start"] for span in doc["spans"])


def test_tail_is_a_fixed_percentile_with_ten_samples_beyond():
    values = list(range(bench.TAIL_SAMPLES))
    value = bench.tail(values)
    assert value == pytest.approx(
        (bench.TAIL_SAMPLES - 1) * bench.TAIL_PERCENTILE / 100)
    assert sum(v > value for v in values) >= 10
    # More samples from the same distribution: the same percentile.
    assert bench.tail(values * 3) == pytest.approx(value, rel=0.05)
    for points in (1, 7, 8, 14, 40):
        assert bench.min_rounds(points) * points >= bench.TAIL_SAMPLES


def test_run_leaves_no_process_behind(tmp_path):
    """A run's worker pools, and anything they start (a spawned pool's
    resource tracker, say), are gone when the run returns."""
    script = (
        "import glob, multiprocessing, pathlib, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]\n"
        "from simbench import bench\n"
        "bench.run('heavy-window', 1, 0, False, pathlib.Path(sys.argv[1]),"
        " smoke=True)\n"
        "for child in multiprocessing.active_children():\n"
        "    child.join()\n"
        "print(sorted(pid for path in glob.glob('/proc/self/task/*/children')"
        " for pid in open(path).read().split()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "simbench", tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "heavy-window",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
