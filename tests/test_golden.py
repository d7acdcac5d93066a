"""Every bundled scenario's text and --porcelain output, byte for byte, and
the text report rendered from the JSON document alone.

The files under tests/golden/ are the expected outputs; regenerate them
with `PYTHONPATH=src python3 tests/test_golden.py` only when an output
change is intended.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from poisdirac import cli
from poisdirac.cli import BANNER, BUNDLED_ANALYSES, main

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


@pytest.mark.parametrize("name", sorted(BUNDLED_ANALYSES))
def test_text_report_is_rendered_from_the_json_document(name):
    stem = Path(name).stem
    doc = json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))
    banner, text = (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8").split("\n", 1)
    assert banner == BANNER
    assert "".join(line + "\n" for line in cli._text(doc)) == text


@pytest.mark.parametrize("name", sorted(BUNDLED_ANALYSES))
def test_porcelain_renders_no_text(name, monkeypatch):
    def text(doc):
        raise AssertionError("text rendered")

    monkeypatch.setattr(cli, "_text", text)
    render(name, "json")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(BUNDLED_ANALYSES):
        for mode in MODES:
            (GOLDEN / f"{Path(name).stem}.{mode}").write_text(render(name, mode), encoding="utf-8")
