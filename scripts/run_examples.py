#!/usr/bin/env python3
"""Run every bundled scenario through its analysis and print the reports.

Usage: python3 scripts/run_examples.py [--porcelain]
"""

import sys

from poisdirac.cli import BUNDLED_ANALYSES, bundled_scenario_names, main


def run() -> int:
    extra = [a for a in sys.argv[1:] if a == "--porcelain"]
    worst = 0
    for name in bundled_scenario_names():
        analysis = BUNDLED_ANALYSES[name]
        print(f"--- {analysis} {name}")
        code = main([analysis, "--scenario", name, *extra])
        worst = max(worst, code)
        print()
    return worst


if __name__ == "__main__":
    sys.exit(run())
