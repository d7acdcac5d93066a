#!/usr/bin/env python3
"""Print one sha256 digest per command-line run, to diff two versions' outputs.

Usage:

    PYTHONPATH=src python3 scripts/output_digests.py > digests.txt

Runs every bundled scenario through its analysis, and the first row of each
dense-scenario table in README (each written with seed 1), through
`poisdirac.cli.main` in this process, once in text mode and once with
--porcelain.  Each run prints one line: the sha256 of what it wrote to
stdout, its exit code, the command, the scenario and the mode.  Byte
identity of two versions is then one `diff` of two runs of this script,
each with PYTHONPATH at that version's src/.  Diagnostics on stderr are not
digested.  The dense runs take a few seconds each.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

from poisdirac.cli import BUNDLED_ANALYSES, main

SCRIPTS = Path(__file__).resolve().parent
# (script, command, its arguments): the first row of each README table
DENSE = (
    ("dense_embed_scenario", "embed", (6, 4)),
    ("dense_jacobi_scenario", "jacobi", (8, 2)),
    ("dense_push_scenario", "pushforward", (6, 3)),
    ("dense_linear_scenario", "extend", (12, 50)),
)
MODES = {"text": [], "porcelain": ["--porcelain"]}


def _dense_scenario(name: str, args: tuple[int, ...]) -> dict:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dense_scenario(*args, 1)


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
    for name, command, args in DENSE:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(_dense_scenario(name, args)), encoding="utf-8")
        yield command, f"{name}.py {' '.join(map(str, args))}", str(path)


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for command, label, scenario in runs(Path(tmp)):
            for mode, extra in MODES.items():
                sha, code = digest([command, "--scenario", scenario, *extra])
                print(f"{sha} {code} {command} {label} {mode}", flush=True)


if __name__ == "__main__":
    run()
