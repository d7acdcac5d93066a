"""scripts/bench_pairs.py names every run that cannot back a claim, judges each metric by
the claim rule and by its bound, and leaves no export behind."""

import importlib.util
import json
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


OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
P90 = {"name": "latency_p90_ms", "better": "lower", "bound": 0.15}


def runs(name, parent, change):
    return [{"seed": i, "parent": {name: p}, "change": {name: c}} for i, (p, c) in enumerate(zip(parent, change))]


def verdicts(metric, parent, change):
    summary = bench_pairs.summarize(runs(metric["name"], parent, change), [metric])[metric["name"]]
    return summary["claim_rule_met"], summary["within_bound"]


PARENT = [100, 101, 99, 102, 98, 100, 103, 97, 100, 101]  # median 100, interquartile range 1.75


@pytest.mark.parametrize("change, expected", [
    ([p + 10 for p in PARENT], (True, True)),  # won 10/10, median +10 against the range 1.75
    ([p + 10 for p in PARENT[:9]] + [PARENT[9] - 1], (True, True)),  # won 9/10
    ([p + 10 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]], (False, True)),  # won only 8/10
    ([p + 1.5 for p in PARENT], (False, True)),  # won 10/10, but the gain is inside the range
    ([p - 9 for p in PARENT], (False, True)),  # 9% worse: inside the 10% bound
    ([p - 11 for p in PARENT], (False, False)),  # 11% worse: outside it
    (PARENT, (False, True)),  # all ties
    ([p + 10 for p in PARENT[:4]], (False, True)),  # won 4/4 by far, but fewer than 10 pairs back no claim
    ([p + 10 for p in PARENT[:9]], (False, True)),  # won 9/9, likewise
])
def test_verdicts_for_a_higher_is_better_metric(change, expected):
    assert verdicts(OPS, PARENT, change) == expected


@pytest.mark.parametrize("change, expected", [
    ([p - 10 for p in PARENT], (True, True)),  # lower is better: 10 ms less wins
    ([p + 10 for p in PARENT], (False, True)),  # 10% worse, inside the 15% bound
    ([p + 16 for p in PARENT], (False, False)),
])
def test_verdicts_for_a_lower_is_better_metric(change, expected):
    assert verdicts(P90, PARENT, change) == expected


def test_summary_keeps_every_field_for_every_contract_metric():
    contract = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    names = [m["name"] for m in contract]
    pairs = [{"seed": i, "parent": dict.fromkeys(names, 1.0 + i), "change": dict.fromkeys(names, 1.0 + i)} for i in range(4)]
    summary = bench_pairs.summarize(pairs, contract)
    assert list(summary) == names
    for entry in summary.values():
        assert entry["pairs"] == 4 and entry["change_wins"] == entry["parent_wins"] == 0
        assert entry["median_difference"] == 0 and entry["parent"]["iqr"] == entry["change"]["iqr"]
        assert entry["claim_rule_met"] is False and entry["within_bound"] is True


@pytest.mark.parametrize("text, seeds", [("11-14", [11, 12, 13, 14]), ("11-11", [11]), ("1,3,5", [1, 3, 5]), ("7", [7])])
def test_seed_texts(text, seeds):
    assert bench_pairs._seeds(text) == seeds


@pytest.mark.parametrize("text", ["20-11", "11-", "-3", "1-2-3", "1,,3", "", "eleven"])
def test_malformed_or_empty_seed_texts_raise(text):
    with pytest.raises(ValueError):
        bench_pairs._seeds(text)


@pytest.mark.parametrize("bad", ["20-11", "11-"])
def test_a_bad_seeds_value_exits_2_before_anything_runs(tmp_path, bad):
    # the bad value belongs to the second workload: nothing of the first may run either
    label = "bad-seeds-test"
    argv = [sys.executable, str(SCRIPT), "--parent", "HEAD", "--change", "HEAD", "--label", label,
            "--workload", "linear_iso", "--seeds", "1", "--workload", "symbolic", "--seeds", bad]
    proc = subprocess.run(argv, env={**os.environ, "TMPDIR": str(tmp_path)}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--seeds" in proc.stderr and "Traceback" not in proc.stderr
    assert not proc.stdout and list(tmp_path.iterdir()) == []
    assert not (SCRIPT.parents[1] / f"BENCH_{label}.json").exists()


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
