"""Benchmark of the poisdirac exact-arithmetic toolkit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload linear_iso --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one client.  One process, no threads; each
operation starts when the previous one returns.  Inputs are generated
from the seed before each operation, outside the timed region, and every
output is checked after it, also outside the timed region.

--trace 0 runs whole schedules of operations for --seconds, and at least
MIN_OPS operations, and prints the end-to-end metrics.  --trace 1 runs the
first WINDOW operations once untraced and once traced, compares their
outputs, and prints the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Times are corrected for machine speed.  On a shared 2-core VM the same
code ran up to about twice as slow for stretches of seconds to minutes,
which spread raw wall-time metrics by 15-40% (interquartile range over
median) across seven runs of one workload.  So a short fixed pure-Python
Fraction loop (the speed probe) runs untimed between timed operations,
and each operation's wall time is scaled by NOMINAL_PROBE_S over the mean
of the probe times just before and just after it: the time it would take
on a machine where the probe takes NOMINAL_PROBE_S.  The report prints
the uncorrected figures too, and the drift reference (a longer run of the
same loop) before and after the run.

The outputs of the first WINDOW operations are hashed; at DEFAULT_SEED the
hashes must equal the ones stored in reference.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = HERE / ".work"
OUT = HERE / ".out"

DEFAULT_SEED = 1
WINDOW = 20  # one full schedule of every workload
MIN_OPS = 100  # five schedules; at least 10 latencies lie above latency_p90_ms
SETUP_REPEATS = 5
HARD_LIMIT_S = 150.0
PROBE_ITERATIONS = 2000
NOMINAL_PROBE_S = 0.010
DRIFT_ITERATIONS = 20000

IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = [sys.argv[1], sys.argv[2]]; from run import speed_probe; "
    "p = speed_probe(); t = time.perf_counter(); import poisdirac, poisdirac.cli; "
    "print(time.perf_counter() - t, p)"
)

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import poisdirac from this checkout's src/ and nowhere else."""
    if not (SRC / "poisdirac" / "__init__.py").is_file():
        raise SystemExit(f"error: no poisdirac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import poisdirac

    if Path(poisdirac.__file__).resolve().parent != (SRC / "poisdirac").resolve():
        raise SystemExit(f"error: imported poisdirac from {poisdirac.__file__}, not from {SRC}")


def speed_probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds for a fixed pure-Python Fraction loop; tracks machine speed."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, iterations + 1):
            acc += Fraction(i % 13 - 6, i % 7 + 1) * Fraction(7, 8)
        return perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reference(workload: str) -> list[str] | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)


class Runner:
    """Runs operations of one workload and keeps the tallies."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        import workloads

        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def op(self, index: int, tracer=None) -> tuple[float, float, str | None]:
        """Generate, run (timed, and traced if a tracer is given) and check
        one operation.

        Returns its wall time, the speed probe time just before it, and the
        canonical text of its outputs, or None if it raised or failed its
        check.
        """
        op = self.wl.make_op(self.workload, self.seed, index, self.workdir)
        self.attempted += 1
        error = None
        probe = speed_probe()
        if tracer:
            tracer.op, tracer.active = index, True
        start = perf_counter()
        try:
            result = op.run()
        except Exception:
            error = traceback.format_exc()
        finally:
            elapsed = perf_counter() - start
            if tracer:
                tracer.active = False
        if error is None:
            try:
                return elapsed, probe, op.check(result)
            except Exception:
                error = traceback.format_exc()
        self._fail(index, op.kind, error)
        return elapsed, probe, None

    def _fail(self, index: int, kind: str, detail: str) -> None:
        self.failed += 1
        sys.stderr.write(f"op {index} ({kind}) failed:\n{detail}\n")

    def compare(self, texts: list[str | None], expected: list[str | None], what: str) -> None:
        """Count each op whose output hash differs from `expected` as failed."""
        for index, (text, want) in enumerate(zip(texts, expected)):
            if text is not None and want is not None and _digest(text) != want:
                self._fail(index, what, f"output hash differs from the {what}\n")


def corrected(seconds: float, probe: float) -> float:
    return seconds * NOMINAL_PROBE_S / probe


def corrected_series(walls: list[float], probes: list[float]) -> list[float]:
    """Wall times of consecutive ops corrected by the mean of the probes
    just before and just after each; `probes` has one more entry."""
    return [corrected(w, (probes[i] + probes[i + 1]) / 2) for i, w in enumerate(walls)]


def measure_setup(runner: Runner) -> float:
    """Median import time of poisdirac in fresh interpreters, plus the
    median time to generate, write and run one warm-up operation, each
    corrected for machine speed."""
    imports = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)], capture_output=True,
                             text=True, timeout=120, check=True)
        imports.append(corrected(*(float(x) for x in out.stdout.split())))
    warmups = []
    period = len(runner.wl.SCHEDULES[runner.workload])
    for j in range(1, SETUP_REPEATS + 1):
        runner.attempted += 1
        probe = speed_probe()
        start = perf_counter()
        op = runner.wl.make_op(runner.workload, runner.seed, -j * period, runner.workdir)
        try:
            result = op.run()
            warmups.append(corrected(perf_counter() - start, probe))
            op.check(result)
        except Exception:
            runner._fail(-j * period, op.kind, traceback.format_exc())
    return statistics.median(imports) + statistics.median(warmups or [0.0])


def timed_run(runner: Runner, seconds: float, use_reference: bool = True) -> dict:
    """Whole schedules of operations for at least `seconds` and MIN_OPS ops.

    Stopping only at the end of a schedule keeps the mix of operation
    kinds identical in every run, so quantiles do not jump between kinds.
    """
    period = len(runner.wl.SCHEDULES[runner.workload])
    raw: list[float] = []
    probes: list[float] = []
    texts: list[str | None] = []
    start = perf_counter()
    index = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (index >= MIN_OPS and index % period == 0 and elapsed >= seconds):
            break
        wall, probe, text = runner.op(index)
        raw.append(wall)
        probes.append(probe)
        if index < WINDOW:
            texts.append(text)
        index += 1
    latencies = corrected_series(raw, probes + [speed_probe()])
    reference = _reference(runner.workload) if runner.seed == DEFAULT_SEED and use_reference else None
    if reference is not None:
        runner.compare(texts, reference, "stored reference")
    return {"raw": raw, "latencies": latencies, "texts": texts, "reference": reference is not None}


def traced_run(runner: Runner, window: int = WINDOW) -> dict:
    import tracing

    untraced = [runner.op(i) for i in range(window)]
    untraced_end = speed_probe()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [runner.op(i, tracer) for i in range(window)]
    finally:
        tracer.uninstall()
    traced_end = speed_probe()
    runner.compare([t for _, _, t in traced], [None if t is None else _digest(t) for _, _, t in untraced],
                   "untraced run")
    reference = _reference(runner.workload) if runner.seed == DEFAULT_SEED else None
    if reference is not None:
        runner.compare([t for _, _, t in untraced], reference, "stored reference")
    wall_traced = sum(w for w, _, _ in traced)
    spans = tracer.write(OUT, f"{runner.workload}-{runner.seed}")
    overhead = (sum(corrected_series([w for w, _, _ in traced], [p for _, p, _ in traced] + [traced_end]))
                - sum(corrected_series([w for w, _, _ in untraced], [p for _, p, _ in untraced] + [untraced_end])))
    return {
        "metrics": tracer.metrics(wall_traced, overhead),
        "texts": [t for _, _, t in untraced],
        "spans": spans,
        "wall": (sum(w for w, _, _ in untraced), wall_traced),
        "reference": reference is not None,
    }


def end_to_end(latencies: list[float], setup_s: float, runner: Runner) -> dict[str, float]:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000,
        "setup_s": setup_s,
        "success_ratio": 1 - runner.failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def window_digest(texts: list[str | None]) -> str:
    return _digest("\n".join(_digest(t) if t is not None else "FAILED" for t in texts))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the output hashes of the first WINDOW ops at the default seed")
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.record_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--record-reference needs the default seed and --trace 0")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(args.workload, args.seed, workdir)
        drift_before = speed_probe(DRIFT_ITERATIONS)
        setup_s = measure_setup(runner)
        if args.trace:
            result = traced_run(runner)
            metrics = result["metrics"]
        else:
            result = timed_run(runner, args.seconds, use_reference=not args.record_reference)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(result["latencies"], setup_s, runner).items()}
        drift_after = speed_probe(DRIFT_ITERATIONS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record_reference:
        if runner.failed:
            raise SystemExit("error: not recording a reference from a run with failed operations")
        data = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
        data[args.workload] = [_digest(t) for t in result["texts"]]
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {mode}: {runner.attempted} ops attempted, {runner.failed} failed"
          f" (failed_ratio {runner.failed / runner.attempted:.6f})")
    if args.trace:
        untraced_wall, traced_wall = result["wall"]
        print(f"first {WINDOW} ops: {untraced_wall:.4f} s untraced, {traced_wall:.4f} s traced (uncorrected);"
              f" spans in {result['spans']}")
    else:
        raw, lat = result["raw"], result["latencies"]
        print(f"{len(lat)} timed ops in {sum(raw):.3f} s; latency_p90_ms has {len(lat) - int(0.9 * len(lat))} samples above it")
        print(f"uncorrected wall time: ops_per_s {len(raw) / sum(raw):.6g} ops/s, latency_p50_ms "
              f"{statistics.median(raw) * 1000:.6g} ms, latency_p90_ms {statistics.quantiles(raw, n=10)[-1] * 1000:.6g} ms;"
              f" median speed factor {statistics.median(r / c for r, c in zip(raw, lat)):.4f}")
    check = "compared with reference.json" if result["reference"] else "no stored reference for this seed"
    print(f"output digest of the first {WINDOW} ops: {window_digest(result['texts'])} ({check})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    print(f"drift reference (fixed Fraction loop, not a metric): {drift_before:.4f} s before, {drift_after:.4f} s after")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
