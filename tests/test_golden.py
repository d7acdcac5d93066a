"""Every bundled scenario's text and --porcelain output, byte for byte.

The files under tests/golden/ are the expected outputs; regenerate them
with `PYTHONPATH=src python3 tests/test_golden.py` only when an output
change is intended.
"""

import contextlib
import io
from pathlib import Path

import pytest

from poisdirac.cli import BUNDLED_ANALYSES, main

GOLDEN = Path(__file__).parent / "golden"
MODES = {"txt": [], "json": ["--porcelain"]}


def render(name: str, mode: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([BUNDLED_ANALYSES[name], "--scenario", name, *MODES[mode]])
    assert code == 0, name
    return out.getvalue()


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(BUNDLED_ANALYSES))
def test_bundled_output_matches_golden(name, mode):
    expected = (GOLDEN / f"{Path(name).stem}.{mode}").read_text(encoding="utf-8")
    assert render(name, mode) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(BUNDLED_ANALYSES):
        for mode in MODES:
            (GOLDEN / f"{Path(name).stem}.{mode}").write_text(render(name, mode), encoding="utf-8")
