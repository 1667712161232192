"""Self-test of the benchmark harness: ``pytest bench/`` (under a minute).

Runs every workload at ``--smoke`` scale through ``run.py``, checks the
tracer's self-time arithmetic on synthetic nested calls, that a wrong
output counts as a failed operation, that tracing changes no output,
and that every emitted metric is the one BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))
os.environ.setdefault("REPRO_KERNEL_CACHE", str(BENCH / ".cache" / "kernels"))

import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _units(metrics: dict) -> "dict[str, str]":
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == list(PER_LAYER)
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_workload_is_correct_and_reports_end_to_end(workload):
    line = _result_line(_run(
        "--workload", workload, "--smoke", "--seconds", "0",
        "--trace", "0",
    ))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert _units(line["metrics"]) == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_smoke_reports_every_per_layer_metric():
    line = _result_line(_run(
        "--workload", "search", "--smoke", "--seconds", "0", "--trace",
    ))
    # ``correct`` includes the traced-vs-untraced output digest check.
    assert line["correct"] is True
    assert _units(line["metrics"]) == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    values = {name: m["value"] for name, m in line["metrics"].items()}
    assert values["sim.snapshot.calls"] > 0
    assert values["search.frontier.calls"] > 0
    assert values["kernels.fused_dispatch.calls"] == 0
    assert values["sim.fast_forward.steps_skipped"] == 0


def test_tracer_self_time_subtracts_wrapped_children():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(seconds):
        now[0] += seconds

    leaf = tracer.wrap("leaf", lambda: advance(2.0))

    def middle_body():
        advance(1.0)
        leaf()
        leaf()
        advance(0.5)

    middle = tracer.wrap("middle", middle_body)
    outer = tracer.wrap("outer", lambda: (advance(3.0), middle()))
    outer()
    assert tracer.spans["outer"] == [1, 8.5, 3.0]
    assert tracer.spans["middle"] == [1, 5.5, 1.5]
    assert tracer.spans["leaf"] == [2, 4.0, 4.0]
    assert tracer.edges[("middle", "leaf")] == [2, 4.0]
    assert tracer.edges[("", "outer")] == [1, 8.5]

    # A call directly inside a span of its own name joins that span.
    def countdown(n):
        advance(1.0)
        return recurse(n - 1) if n else "done"

    recurse = tracer.wrap("recurse", countdown)
    assert recurse(3) == "done"
    assert tracer.spans["recurse"] == [1, 4.0, 4.0]


def test_tracing_changes_no_output_and_uninstalls():
    from repro.experiments import common
    from repro.sim.datacenter import DataCenterSimulation

    search = workloads.WORKLOADS["search"]
    untraced = search.run(search.build(3, True)).outputs
    original_run = common.run_survival_cohort
    original_restore = DataCenterSimulation.__dict__["restore"]
    tracer = Tracer().install()
    try:
        traced = search.run(search.build(3, True)).outputs
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.calls("sim.restore") > 0
    assert tracer.calls("experiments.run_survival_cohort") > 0
    assert common.run_survival_cohort is original_run
    assert DataCenterSimulation.__dict__["restore"] is original_restore


def test_injected_mismatch_counts_as_failed_op(monkeypatch):
    drain = workloads.WORKLOADS["drain"]
    honest = drain.reference

    def tampered(self, inputs):
        reference = workloads.normalise(honest(inputs))
        reference[sorted(reference)[0]][1] += 1.0  # delivered work
        return reference

    monkeypatch.setattr(type(drain), "reference", tampered)
    job = child._measure(Namespace(
        workload="drain", seed=3, smoke=True, trace=False,
        spot_check=False, baseline_pass_s=0.0,
    ))
    tally = run._Tally()
    tally.add("pass 1", job)
    assert (tally.attempted, tally.failed) == (8, 1)
    assert list(tally.problems) == ["pass 1 0.55/PS/0"]
    second = json.loads(json.dumps(job))
    second["outputs"]["0.63/uDEB/3"][0] += 1.0
    tally.add("pass 2", second)
    assert (tally.attempted, tally.failed) == (16, 3)


def test_search_check_rejects_unsound_pruning():
    search = workloads.WORKLOADS["search"]
    reference = {"a": 100.0, "b": 300.0, "tuner": ["x", []]}
    sound = {"a": ["exact", 100.0], "b": ["pruned", 150.0],
             "tuner": ["x", []]}
    assert search.check(sound, reference) == {}
    above_exact = dict(sound, b=["pruned", 301.0])
    below_worst = dict(sound, b=["pruned", 100.0])
    assert list(search.check(above_exact, reference)) == ["b"]
    assert list(search.check(below_worst, reference)) == ["b"]


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.2 for v in base]
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, faster, "lower", 0.1)[0] == "better"
    assert compare.verdict(base, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, base[::-1], "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, faster, "higher", 0.1)[0] == "worse"


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".cache", "results"))
    done = _run("--workload", "paper", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
