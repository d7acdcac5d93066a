"""Each classification, embedding-conditions record and induced bivector is
built at most once per (PoissonVS, subspaces), whoever asks for it.

Builds are counted, not calls: a profile hook counts every run of a
build function's own body, which a cached call never reaches.
"""

import random
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from gen import rand_valid_iso_triple
from poisdirac.cli import main
from poisdirac.poisson_linear import (
    PoissonVS,
    canonical_iso,
    classify_subspace,
    cosymplectic_extension,
    embedding_conditions,
    induced_bivector,
)

# the code of each build function's own body, under whatever cache wraps it
BUILD_FUNCTIONS = {
    getattr(f, "__wrapped__", f).__code__: f.__name__ for f in (classify_subspace, embedding_conditions, induced_bivector)
}


@contextmanager
def counted_builds():
    """Counter of builds keyed by (build function, id of p, subspaces); every p is
    kept alive until the block ends, so no two structures share an id."""
    builds, structures = Counter(), []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code in BUILD_FUNCTIONS:
            p, *subspaces = (frame.f_locals[name] for name in code.co_varnames[:code.co_argcount])
            structures.append(p)
            builds[(BUILD_FUNCTIONS[code], id(p), *subspaces)] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield builds
    finally:
        sys.setprofile(previous)


def assert_built_once(builds: Counter) -> None:
    assert {key[0] for key in builds} == set(BUILD_FUNCTIONS.values())
    assert max(builds.values()) == 1, sorted(key[0] for key, n in builds.items() if n > 1)


@pytest.mark.parametrize("analysis, scenario", [
    ("extend", "ex_r6_extend.json"), ("phi", "ex_r6_phi.json"), ("bracket", "bracket_sympl4.json"),
])
def test_cli_analysis_builds_each_derived_object_once(capsys, analysis, scenario):
    with counted_builds() as builds:
        code = main([analysis, "--scenario", scenario, "--porcelain"])
    capsys.readouterr()
    assert code == 0
    assert_built_once(builds)


def test_extension_then_iso_builds_each_derived_object_once():
    rng = random.Random(31)
    for _ in range(10):
        p, c, _, w = rand_valid_iso_triple(rng, max_dim=6)
        p = PoissonVS(p.dim, p.pi)  # a fresh structure: nothing derived from it yet
        with counted_builds() as builds:
            v = cosymplectic_extension(p, c)
            canonical_iso(p, c, v, w)
        assert_built_once(builds)


def test_counting_sees_a_second_build():
    p, c, v, w = rand_valid_iso_triple(random.Random(37), max_dim=4)
    with counted_builds() as builds:
        for q in (PoissonVS(p.dim, p.pi), PoissonVS(p.dim, p.pi)):
            classify_subspace(q, v)
            classify_subspace(q, v)
        getattr(classify_subspace, "__wrapped__", classify_subspace)(q, v)
    assert sorted(builds.values()) == [1, 2]
