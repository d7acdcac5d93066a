#!/usr/bin/env python3
"""Before/after benchmark pairs: run perfbench on two revisions and write BENCH_<label>.json.

Usage:

    python3 scripts/bench_pairs.py --parent REV --change REV --label NAME \\
        --workload pointwise_cli --seeds 11-20 [--workload embed_cli --seeds 11-14] \\
        [--trace-seed 1]

REV is any git revision of this repository: a commit, or the tree that
`git write-tree` makes of staged, uncommitted changes.  Each revision is
exported with `git archive` to a fresh temporary directory, so the runs see
exactly the files of that revision.  Each --workload takes the seeds given
by the --seeds that follows it.  For every seed, `python3 perfbench/run.py
--workload W --seed N --trace 0` runs once in each export, each using its
own benchmark code and sources and the benchmark's own run length; the side
that runs first alternates from seed to seed.  The JSON names each side's
revision by its git object, its tree and its src/ tree (compare with
`git rev-parse COMMIT:src`), and records every run's end-to-end metrics,
and per metric and side the median and quartiles, plus how many pairs the
change won (ties count for neither side), the median difference, and two
verdicts against the change's BENCHMARK.json: `claim_rule_met` (at least 10
pairs, won at least 9 in 10 of them, and the medians differ in the change's
favour by more than the parent's interquartile range) and `within_bound` (the
change's median is not worse than the parent's by more than the metric's
bound), and a third, `resolved`: false when the parent's runs spread wider
than the bound and the sides overlap, so that `within_bound` cannot tell
"unchanged" from "unresolved".  With
--trace-seed, one `--trace 1` run per side and workload adds the per-layer
metrics.  The output goes to BENCH_<label>.json at the root of this
repository.  The script exits 1 after writing it if any run reported
`correct: false` or failed operations, naming the workload, seed and side
of each such run: a wrong run cannot back a claim.  A run that exits
non-zero or prints no result line is a wrong run too: the script runs
nothing more, records it as `broken_run` (workload, seed, side, trace flag
and exit code), writes the file of the runs so far and exits 1.  Stopped by
SIGTERM, it stops its running benchmark and removes both exports before it
exits.
"""

from __future__ import annotations

import argparse
import json
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
MIN_CLAIM_PAIRS = 10  # fewer pairs are measured, not claimed


def _seeds(text: str) -> list[int]:
    """'11-20' or '1,3,5' as a list of seeds; ValueError on malformed text or an
    empty or descending range."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        if hi < lo:
            raise ValueError(f"descending seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _export(rev: str, dest: Path) -> dict:
    """Extract the files of `rev` into dest; returns the hashes that name them."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return {"rev": rev, "object": _git("rev-parse", rev), "tree": _git("rev-parse", f"{rev}^{{tree}}"),
            "src": _git("rev-parse", f"{rev}:src")}


def _run(checkout: Path, workload: str, seed: int, trace: int) -> tuple[int, dict | None]:
    """One perfbench run: its exit code, and the JSON result on its last line of standard
    output, or None if it exited non-zero or that line is no result."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result if isinstance(result, dict) and "metrics" in result else None


class BrokenRun(Exception):
    """A run that gave no result: args[0] names it."""


def _result(checkouts: dict, side: str, workload: str, seed: int, trace: int) -> dict:
    """The result of one run on one side; BrokenRun if it gave none."""
    code, result = _run(checkouts[side], workload, seed, trace)
    if result is None:
        raise BrokenRun({"workload": workload, "seed": seed, "side": side, "trace": trace, "exit_code": code})
    return result


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of the contract (its name, `better` and `bound`): each
    side's median and quartiles, the change's wins, and three verdicts.
    `claim_rule_met`: there are at least 10 pairs, the change won at least 9 in 10 of
    them, and its median is better than the parent's by more than the parent's
    interquartile range.
    `within_bound`: the change's median is not worse than the parent's by more than
    the bound, a fraction of the parent's median.
    `resolved`: the parent's interquartile range is at most the bound times its
    median, or every change run is better than every parent run; otherwise the
    runs spread too widely for `within_bound` to mean "unchanged"."""
    out = {}
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        spreads = {side: _spread(values[side]) for side in SIDES}
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        difference = statistics.median(values["change"]) - statistics.median(values["parent"])
        out[name] = {
            "better": direction,
            **spreads,
            "change_wins": wins,
            "parent_wins": sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            "median_difference": difference,
            "claim_rule_met": (len(pairs) >= MIN_CLAIM_PAIRS and 10 * wins >= 9 * len(pairs)
                               and sign * difference > spreads["parent"]["iqr"]),
            "within_bound": -sign * difference <= metric["bound"] * abs(spreads["parent"]["median"]),
            "resolved": (spreads["parent"]["iqr"] <= metric["bound"] * abs(spreads["parent"]["median"])
                         or min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"])),
        }
    return out


def wrong_runs(report: dict) -> list[str]:
    """'<workload> seed <N> <side>' for every run that was not correct, had failed
    operations or gave no result."""
    wrong = [
        f"{workload} seed {pair['seed']} {side} (correct: {pair[f'{side}_correct']}, failed: {pair[f'{side}_failed']})"
        for workload, entry in report["workloads"].items() for pair in entry["pairs"] for side in SIDES
        if not pair[f"{side}_correct"] or pair[f"{side}_failed"] > 0
    ]
    if "broken_run" in report:
        run = report["broken_run"]
        wrong.append(f"{run['workload']} seed {run['seed']} {run['side']} "
                     f"(trace {run['trace']}: exit code {run['exit_code']}, no result line)")
    return wrong


def _terminate(signum, frame):
    """SIGTERM as an exception: `subprocess.run` kills its running child and
    the temporary exports are removed on the way out."""
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", action="append", required=True, help="seeds of the preceding --workload")
    parser.add_argument("--trace-seed", type=int, help="also record one traced run per side at this seed")
    args = parser.parse_args()
    if len(args.workload) != len(args.seeds):
        parser.error("give one --seeds after each --workload")
    try:  # every --seeds is checked before anything is exported or run
        seed_lists = [_seeds(text) for text in args.seeds]
    except ValueError as exc:
        parser.error(f"--seeds takes 'LO-HI' with LO <= HI or 'N,M,...': {exc}")
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for path in checkouts.values():
            path.mkdir()
        revisions = {side: _export(getattr(args, side), checkouts[side]) for side in SIDES}
        contract = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        report = {
            "label": args.label,
            "command": "python3 perfbench/run.py --workload W --seed N --trace 0",
            "machine": {"python": platform.python_version(), "platform": platform.platform(),
                        "processor": platform.machine()},
            "revisions": revisions,
            "workloads": {},
        }
        try:
            for workload, seeds in zip(args.workload, seed_lists):
                entry = report["workloads"][workload] = {"pairs": []}
                for i, seed in enumerate(seeds):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    runs = {side: _result(checkouts, side, workload, seed, 0) for side in order}
                    pair = {"seed": seed, "first": order[0]}
                    for side in SIDES:
                        pair[side] = {name: m["value"] for name, m in runs[side]["metrics"].items()}
                        pair[f"{side}_correct"] = runs[side]["correct"]
                        pair[f"{side}_failed"] = runs[side]["failed"]
                    entry["pairs"].append(pair)
                    print(f"{workload} seed {seed}: ops_per_s {pair['parent']['ops_per_s']:.2f} -> "
                          f"{pair['change']['ops_per_s']:.2f}", file=sys.stderr)
                if args.trace_seed is not None:
                    entry["traced"] = {
                        side: {"seed": args.trace_seed, **{name: m["value"] for name, m in
                               _result(checkouts, side, workload, args.trace_seed, 1)["metrics"].items()}}
                        for side in SIDES
                    }
        except BrokenRun as exc:
            report["broken_run"] = exc.args[0]
        for entry in report["workloads"].values():
            if entry["pairs"]:
                entry["summary"] = summarize(entry["pairs"], contract["end_to_end"])
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    wrong = wrong_runs(report)
    for line in wrong:
        print(f"wrong run: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
