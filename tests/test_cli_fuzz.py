"""Property test of the exit-code contract: `cli.main`, run in-process on
mutated bundled scenarios, always returns 0, 1, 2 or 3 and lets no
exception escape.

Each example takes one bundled scenario, applies one to three mutations
(dropped or renamed keys, 1,200-digit numbers, exponents at or above
MAX_EXPONENT, ragged, emptied or wrong-typed values, dimensions and grid
heights at or above their bounds, sample counts above theirs, frames of
the wrong length) and runs the scenario's analysis, or another one.  The
test is parametrized by scenario, 20 examples each, so adding a scenario
adds its own examples and leaves the others' as they were.
Sample counts are only pushed above their bound: a valid embedding
checked at MAX_SAMPLE_COUNT samples takes seconds, and the bound itself
is admitted by tests/test_cli.py.  The examples are derandomized, so a
run is reproducible.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import poisdirac
from poisdirac.cli import BUNDLED_ANALYSES, main
from poisdirac.polynomials import MAX_EXPONENT
from poisdirac.scenario import MAX_DIM, MAX_GRID_HEIGHT, MAX_SAMPLE_COUNT

SCENARIO_DIR = Path(poisdirac.__file__).parent / "scenarios"
SCENARIOS = {name: json.loads((SCENARIO_DIR / name).read_text()) for name in sorted(BUNDLED_ANALYSES)}
ANALYSES = sorted(set(BUNDLED_ANALYSES.values()))

LONG = "7" * 1200
BOUNDS = {
    "dim": [MAX_DIM, MAX_DIM + 1],
    "params": [MAX_DIM, MAX_DIM + 1],
    "height": [MAX_GRID_HEIGHT, MAX_GRID_HEIGHT + 1],
    "count": [MAX_SAMPLE_COUNT + 1],
}
_VARIABLE = re.compile(r"[a-z]+[0-9]+")


def _walk(node, path=()):
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _walk(child, path + (key,))


def _nodes(doc, test):
    return [(path, node) for path, node in _walk(doc) if path and test(path, node)]


def _set(doc, path, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value


def _pick(draw, doc, test):
    nodes = _nodes(doc, test)
    return draw(st.sampled_from(nodes)) if nodes else (None, None)


def drop_key(doc, draw):
    path, node = _pick(draw, doc, lambda p, n: isinstance(n, dict) and n)
    if path is not None:
        del node[draw(st.sampled_from(sorted(node)))]


def rename_key(doc, draw):
    path, node = _pick(draw, doc, lambda p, n: isinstance(n, dict) and n)
    if path is not None:
        old = draw(st.sampled_from(sorted(node)))
        new = draw(st.sampled_from(sorted({key for _, n in _walk(doc) if isinstance(n, dict) for key in n} | {"bogus"})))
        node[new] = node.pop(old)


def long_number(doc, draw):
    path, node = _pick(draw, doc, lambda p, n: isinstance(n, (str, int)) and not isinstance(n, bool))
    if path is not None:
        value = int(LONG) if isinstance(node, int) else draw(st.sampled_from([LONG, f"-1/{LONG}", f"{LONG}*{node}"]))
        _set(doc, path, value)


def high_exponent(doc, draw):
    path, node = _pick(draw, doc, lambda p, n: isinstance(n, str) and _VARIABLE.search(n))
    if path is not None:
        power = f"{_VARIABLE.search(node).group()}^{draw(st.sampled_from([MAX_EXPONENT, MAX_EXPONENT + 1]))}"
        _set(doc, path, draw(st.sampled_from([power, f"{node} + {power}", f"{power}*{power}"])))


def ragged(doc, draw):
    path, node = _pick(draw, doc, lambda p, n: isinstance(n, list) and n and all(isinstance(x, list) and x for x in n))
    if path is not None:
        row = node[draw(st.integers(0, len(node) - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(row[0])


def emptied(doc, draw):
    path, node = _pick(draw, doc, lambda p, n: isinstance(n, (list, dict, str)))
    if path is not None:
        _set(doc, path, type(node)())


def wrong_type(doc, draw):
    path, _ = _pick(draw, doc, lambda p, n: True)
    if path is not None:
        _set(doc, path, draw(st.sampled_from([0, -1, True, None, "x1", "1/0", [], {}, [[]], [None]])))


def at_bounds(doc, draw):
    path, node = _pick(draw, doc, lambda p, n: p[-1] in BOUNDS and isinstance(n, int))
    if path is not None:
        _set(doc, path, draw(st.sampled_from(BOUNDS[path[-1]])))
    manifold = doc.get("dirac_manifold")
    frame = manifold.get("E_frame") if isinstance(manifold, dict) else None
    if isinstance(frame, list) and frame and draw(st.booleans()):
        frame.extend([frame[0]] * MAX_DIM)


def compare_frames(doc, draw):
    frames = doc.get("compare_v_frames")
    if isinstance(frames, dict) and isinstance(frames.get("v1"), list) and frames["v1"]:
        key = draw(st.sampled_from(["v0", "v1"]))
        if isinstance(frames.get(key), list) and frames[key]:
            frames[key] = frames[key][: draw(st.integers(0, len(frames[key]) - 1))] or frames[key] * 2


MUTATIONS = [drop_key, rename_key, long_number, high_exponent, ragged, emptied, wrong_type, at_bounds, compare_frames]


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@settings(max_examples=20, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_scenarios_end_in_a_documented_exit_code(name, data):
    doc = copy.deepcopy(SCENARIOS[name])
    for mutation in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3), label="mutations"):
        mutation(doc, data.draw)
    analysis = data.draw(st.one_of(st.just(BUNDLED_ANALYSES[name]), st.sampled_from(ANALYSES)), label="analysis")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc))
        code = run_quietly([analysis, "--scenario", str(path), "--porcelain"])
    assert code in (0, 1, 2, 3)
