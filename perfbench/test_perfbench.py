"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("calls", "distinct_ratio", "max_bits")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for index in range(len(workloads.SCHEDULES[workload])):
        first = workloads.make_op(workload, 5, index, tmp_path / "a").inputs
        assert workloads.make_op(workload, 5, index, tmp_path / "b").inputs == first
        assert workloads.make_op(workload, 6, index, tmp_path / "b").inputs != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_schedule_slot_has_the_outcome_its_generator_claims(workload, tmp_path):
    runner = run.Runner(workload, 7, tmp_path)
    for index in range(len(workloads.SCHEDULES[workload])):
        *_, text = runner.op(index)
        assert text is not None, f"op {index} failed"
    assert runner.failed == 0


def _traced(workload: str, tmp_path: Path) -> dict:
    runner = run.Runner(workload, run.DEFAULT_SEED, tmp_path)
    result = run.traced_run(runner, window=10)
    # traced outputs that differ from the untraced ones count as failures
    assert runner.failed == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_changes_no_output_and_repeats_its_counts(workload, tmp_path):
    first = _traced(workload, tmp_path)
    second = _traced(workload, tmp_path)
    counts = [name for name in first if name.rsplit(".", 1)[1] in COUNTS]
    assert len(counts) == 12
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    if workload == "symbolic":
        assert first["rational_linalg.rref.calls"][0] == 0
    if workload == "linear_iso":
        assert first["polynomials.det.calls"][0] == 0


def test_tracer_restores_every_name():
    from poisdirac import embedding, polynomials

    det, mul = polynomials.poly_matrix_det, polynomials.Poly.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    assert embedding.poly_matrix_det is not det and polynomials.Poly.__mul__ is not mul
    tracer.uninstall()
    assert embedding.poly_matrix_det is det and polynomials.poly_matrix_det is det
    assert polynomials.Poly.__mul__ is mul


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_report_prints_every_metric_with_its_unit(trace, section):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pointwise_cli", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.WINDOW
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in out[:-1]), name


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linear_iso", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""
