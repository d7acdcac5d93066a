"""Measure the baseline and write perfbench/baseline.json.

    python3 perfbench/baseline.py --seeds 10

Runs every workload untraced at seeds 1..N (seed-major, so slow stretches
of the machine spread over all workloads), then once traced at the default
seed, each as its own `run.py` process with the run length from
BENCHMARK.json.  Records, per workload, the median and quartiles of each
end-to-end metric with its spread (interquartile range / median), the
per-layer metrics, and the median machine-drift reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    ).stdout.splitlines()
    drift = next(line for line in out if line.startswith("drift reference"))
    before, after = (float(x) for x in re.findall(r"([0-9.]+) s (?:before|after)", drift))
    return json.loads(out[-1]), (before + after) / 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    import run

    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    drifts: dict[str, list[float]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result, drift = run_once(workload, seed, bench["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
            results[workload].append(result)
            drifts[workload].append(drift)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for workload in workloads:
        end_to_end = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"],
            }
        traced, _ = run_once(workload, run.DEFAULT_SEED, bench["run_seconds"], 1)
        summary[workload] = {
            "ops_attempted": [r["attempted"] for r in results[workload]],
            "drift_reference_s": statistics.median(drifts[workload]),
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    doc = {
        "command": f"python3 perfbench/baseline.py --seeds {args.seeds}",
        "default_seed": run.DEFAULT_SEED,
        "seeds": seeds,
        "run_seconds": bench["run_seconds"],
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}",
        "workloads": summary,
    }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, data in summary.items():
        print(workload, {k: f"{v['median']:.4g} ({v['spread']:.3f})" for k, v in data["end_to_end"].items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
