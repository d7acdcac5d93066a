#!/usr/bin/env python3
"""Print one sha256 digest per command-line run, to diff two versions' outputs.

Usage:

    PYTHONPATH=src python3 scripts/output_digests.py > digests.txt

Runs every bundled scenario through its analysis, and the first dense case
of each command in `worst_cases.CASES` (written at seed 1), through
`poisdirac.cli.main` in this process, once in text mode and once with
--porcelain.  Each run prints one line: the sha256 of what it wrote to
stdout, its exit code, the command, the scenario and the mode.  Byte
identity of two versions is then one `diff` of two runs of this script,
each with PYTHONPATH at that version's src/.  Diagnostics on stderr are not
digested.  The dense runs take a few seconds each.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from poisdirac.cli import BUNDLED_ANALYSES, main
from worst_cases import CASES, WRITERS, scenario_text

# the first case of each writer's command: the first row of its table in README
DENSE = [next(case for case in CASES if case[0] == command) for command in WRITERS]
MODES = {"text": [], "porcelain": ["--porcelain"]}


def digest(argv: list[str]) -> tuple[str, int]:
    """The sha256 of what `main(argv)` writes to stdout, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


def runs(workdir: Path):
    """(command, scenario label, scenario argument) of every run, bundled first."""
    for name in sorted(BUNDLED_ANALYSES):
        yield BUNDLED_ANALYSES[name], name, name
    for command, a, b in DENSE:
        path = workdir / f"{command}.json"
        path.write_text(scenario_text(command, a, b), encoding="utf-8")
        yield command, f"worst_cases.py {command} {a} {b}", str(path)


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for command, label, scenario in runs(Path(tmp)):
            for mode, extra in MODES.items():
                sha, code = digest([command, "--scenario", scenario, *extra])
                print(f"{sha} {code} {command} {label} {mode}", flush=True)


if __name__ == "__main__":
    run()
