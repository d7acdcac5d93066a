"""scripts/bench_pairs.py names every run that cannot back a claim, and leaves no export behind."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pair(seed, parent=(True, 0), change=(True, 0)):
    return {"seed": seed, "parent_correct": parent[0], "parent_failed": parent[1],
            "change_correct": change[0], "change_failed": change[1]}


def test_a_clean_report_has_no_wrong_runs():
    report = {"workloads": {"embed_cli": {"pairs": [pair(11), pair(12)]}, "symbolic": {"pairs": [pair(3)]}}}
    assert bench_pairs.wrong_runs(report) == []


def test_wrong_runs_name_the_workload_seed_and_side():
    report = {"workloads": {
        "embed_cli": {"pairs": [pair(11), pair(12, change=(False, 0))]},
        "linear_iso": {"pairs": [pair(5, parent=(True, 2)), pair(6, parent=(False, 1), change=(False, 3))]},
    }}
    assert bench_pairs.wrong_runs(report) == [
        "embed_cli seed 12 change (correct: False, failed: 0)",
        "linear_iso seed 5 parent (correct: True, failed: 2)",
        "linear_iso seed 6 parent (correct: False, failed: 1)",
        "linear_iso seed 6 change (correct: False, failed: 3)",
    ]


def _in_git_checkout() -> bool:
    root = SCRIPT.parents[1]
    probe = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root, capture_output=True, text=True)
    return probe.returncode == 0 and Path(probe.stdout.strip()) == root


@pytest.mark.skipif(not _in_git_checkout(), reason="exports revisions with git archive")
def test_sigterm_removes_both_exports(tmp_path):
    argv = [sys.executable, str(SCRIPT), "--parent", "HEAD", "--change", "HEAD", "--label", "sigterm-test",
            "--workload", "linear_iso", "--seeds", "1"]
    proc = subprocess.Popen(argv, env={**os.environ, "TMPDIR": str(tmp_path)},
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("*/change/BENCHMARK.json")):
            assert proc.poll() is None and time.monotonic() < deadline, "the exports never appeared"
            time.sleep(0.05)
        assert list(tmp_path.glob("*/parent/BENCHMARK.json"))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert list(tmp_path.iterdir()) == []
