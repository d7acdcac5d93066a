"""scripts/bench_pairs.py names every run that cannot back a claim, writes the runs so far
when a run gives no result, judges each metric by the claim rule and by its bound, tells
whether the runs resolve the metric at all, and leaves no export behind."""

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


def resolved(metric, parent, change):
    return bench_pairs.summarize(runs(metric["name"], parent, change), [metric])[metric["name"]]["resolved"]


WIDE = [70, 130, 80, 120, 90, 110, 100, 60, 140, 100]  # median 100, interquartile range 35


def test_a_spread_wider_than_the_bound_leaves_an_overlapping_change_unresolved():
    change = [p + 5 for p in WIDE]
    assert verdicts(OPS, WIDE, change) == (False, True)
    assert resolved(OPS, WIDE, change) is False
    assert resolved(P90, WIDE, [p - 5 for p in WIDE]) is False


def test_a_change_better_in_every_run_resolves_a_wide_spread():
    assert resolved(OPS, WIDE, [141 + i for i in range(10)]) is True
    assert resolved(P90, WIDE, [59 - i for i in range(10)]) is True
    # one change run no better than the best parent run overlaps
    assert resolved(OPS, WIDE, [140] + [141 + i for i in range(9)]) is False


def test_a_spread_inside_the_bound_is_resolved():
    assert resolved(OPS, PARENT, PARENT) is True
    assert resolved(OPS, PARENT, [p - 11 for p in PARENT]) is True
    assert resolved(P90, PARENT, [p + 1 for p in PARENT]) is True


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
        # the runs 1..4 spread 60% of their median, wider than any bound, and the sides tie
        assert entry["resolved"] is False


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


@pytest.mark.parametrize("script, code, has_result", [
    ("print('{\"correct\": true, \"failed\": 0, \"metrics\": {}}')", 0, True),
    ("print('{\"correct\": true, \"failed\": 0, \"metrics\": {}}'); raise SystemExit(1)", 1, False),
    ("raise SystemExit(3)", 3, False),
    ("print('report'); print('[]')", 0, False),
    ("print('{\"correct\": tr')", 0, False),
    ("pass", 0, False),
], ids=["result", "result then exit 1", "exit 3", "no JSON object", "cut JSON", "no output"])
def test_a_run_gives_its_exit_code_and_a_result_only_if_it_printed_one(tmp_path, script, code, has_result):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(script + "\n", encoding="utf-8")
    got_code, result = bench_pairs._run(tmp_path, "linear_iso", 1, 0)
    assert got_code == code and (result is not None) == has_result


def test_a_run_without_a_result_is_a_wrong_run_and_the_runs_so_far_are_written(tmp_path, monkeypatch, capsys):
    contract = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    good = {"correct": True, "failed": 0, "metrics": {m["name"]: {"value": 1.0} for m in contract["end_to_end"]}}
    calls = []

    def fake_run(checkout, workload, seed, trace):
        calls.append((workload, seed, checkout.name))
        return (1, None) if (workload, seed, checkout.name) == ("symbolic", 3, "change") else (0, good)

    def fake_export(rev, dest):
        (dest / "BENCHMARK.json").write_text(json.dumps(contract), encoding="utf-8")
        return {"rev": rev}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.setattr(bench_pairs, "_export", fake_export)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "A", "--change", "B", "--label", "cut",
                                      "--workload", "linear_iso", "--seeds", "1-2",
                                      "--workload", "symbolic", "--seeds", "3-4", "--workload", "embed_cli", "--seeds", "5"])
    assert bench_pairs.main() == 1
    # seed 3 ran its parent first; nothing runs after the broken run
    assert calls[-2:] == [("symbolic", 3, "parent"), ("symbolic", 3, "change")] and len(calls) == 6
    report = json.loads((tmp_path / "BENCH_cut.json").read_text(encoding="utf-8"))
    assert report["broken_run"] == {"workload": "symbolic", "seed": 3, "side": "change", "trace": 0, "exit_code": 1}
    assert [p["seed"] for p in report["workloads"]["linear_iso"]["pairs"]] == [1, 2]
    assert report["workloads"]["linear_iso"]["summary"]["ops_per_s"]["pairs"] == 2
    assert report["workloads"]["symbolic"] == {"pairs": []} and "embed_cli" not in report["workloads"]
    err = capsys.readouterr().err
    assert "wrong run: symbolic seed 3 change (trace 0: exit code 1, no result line)" in err
    assert "Traceback" not in err


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
