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
change won (ties count for neither side) and the median difference.  With
--trace-seed, one `--trace 1` run per side and workload adds the per-layer
metrics.  The output goes to BENCH_<label>.json at the root of this
repository.  The script exits 1 after writing it if any run reported
`correct: false` or failed operations, naming the workload, seed and side
of each such run: a wrong run cannot back a claim.  Stopped by SIGTERM, it
stops its running benchmark and removes both exports before it exits.
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


def _seeds(text: str) -> list[int]:
    """'11-20' or '1,3,5' as a list of seeds."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
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


def _run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run; its last line of standard output is the JSON result."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, and the change's wins."""
    out = {}
    for name, direction in better.items():
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        out[name] = {
            "better": direction,
            **{side: _spread(values[side]) for side in SIDES},
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "parent_wins": sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            "median_difference": statistics.median(values["change"]) - statistics.median(values["parent"]),
        }
    return out


def wrong_runs(report: dict) -> list[str]:
    """'<workload> seed <N> <side>' for every run that was not correct or had failed operations."""
    return [
        f"{workload} seed {pair['seed']} {side} (correct: {pair[f'{side}_correct']}, failed: {pair[f'{side}_failed']})"
        for workload, entry in report["workloads"].items() for pair in entry["pairs"] for side in SIDES
        if not pair[f"{side}_correct"] or pair[f"{side}_failed"] > 0
    ]


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
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for path in checkouts.values():
            path.mkdir()
        revisions = {side: _export(getattr(args, side), checkouts[side]) for side in SIDES}
        contract = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        better = {m["name"]: m["better"] for m in contract["end_to_end"]}
        report = {
            "label": args.label,
            "command": "python3 perfbench/run.py --workload W --seed N --trace 0",
            "machine": {"python": platform.python_version(), "platform": platform.platform(),
                        "processor": platform.machine()},
            "revisions": revisions,
            "workloads": {},
        }
        for workload, seed_text in zip(args.workload, args.seeds):
            pairs = []
            for i, seed in enumerate(_seeds(seed_text)):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                runs = {side: _run(checkouts[side], workload, seed, 0) for side in order}
                pair = {"seed": seed, "first": order[0]}
                for side in SIDES:
                    pair[side] = {name: m["value"] for name, m in runs[side]["metrics"].items()}
                    pair[f"{side}_correct"] = runs[side]["correct"]
                    pair[f"{side}_failed"] = runs[side]["failed"]
                pairs.append(pair)
                print(f"{workload} seed {seed}: ops_per_s {pair['parent']['ops_per_s']:.2f} -> "
                      f"{pair['change']['ops_per_s']:.2f}", file=sys.stderr)
            entry = {"pairs": pairs, "summary": summarize(pairs, better)}
            if args.trace_seed is not None:
                entry["traced"] = {
                    side: {"seed": args.trace_seed, **{name: m["value"] for name, m in
                           _run(checkouts[side], workload, args.trace_seed, 1)["metrics"].items()}}
                    for side in SIDES
                }
            report["workloads"][workload] = entry
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    wrong = wrong_runs(report)
    for line in wrong:
        print(f"wrong run: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
