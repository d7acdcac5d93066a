"""Each classification, embedding-conditions record and induced bivector is
built at most once per (PoissonVS, subspaces), whoever asks for it, a
command builds a classification only where its document prints one, a fresh
classification runs three eliminations, with dim S and C cap S, so rank rho,
read off one of them, which its characteristic subspace then reuses, a
characteristic subspace C cap S runs one elimination and builds no canonical
S, a pullback or a characteristic subspace of a Dirac structure runs one elimination, each
annihilator is built once per subspace and a kernel's never, each linear system with many right-hand sides is solved in one
elimination, a splitting solves each leaf-form vector once, each inverse
once, each partial derivative is derived once per polynomial, the
linear constructions split no Fraction row into integers, a polynomial
matrix with constant pivots is inverted without a cofactor expansion, and
an embedding compared with a second splitting validates each sample once.

Builds are counted, not calls: a profile hook counts every run of a
build function's own body, which a cached call never reaches.
"""

import random
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from importlib.resources import files

import pytest

from gen import rand_minimal_coisotropic_pair, rand_valid_iso_triple
from poisdirac.bivector_fields import BivectorField
from poisdirac.cli import main
from poisdirac.dirac_linear import characteristic, from_bivector, pullback
from poisdirac.poisson_linear import (
    PoissonVS,
    canonical_iso,
    characteristic_subspace,
    classify_subspace,
    coisotropic_splitting,
    cosymplectic_extension,
    embedding_conditions,
    induced_bivector,
    leaf_form_gram,
    linear_uniqueness_iso,
)
from poisdirac.polynomials import Poly, PolyMap, _minor_det, integer_rows_at, poly_matrix_inverse, sum_of_products
from poisdirac.rational_linalg import (
    MatrixQ, Subspace, _eliminate, _reduced, _scaled_row, annihilator, inverse, kernel, solve,
)
from poisdirac.scenario import load_scenario_text
from poisdirac.submanifolds import LevelSet, Parametrized, PointData

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


# the builds of a run that reads only the coisotropic and cosymplectic flags
FLAG_READERS = {"embedding_conditions", "induced_bivector"}


def assert_built_once(builds: Counter, built: set[str]) -> None:
    assert {key[0] for key in builds} == built
    assert max(builds.values()) == 1, sorted(key[0] for key, n in builds.items() if n > 1)


@pytest.mark.parametrize("analysis, scenario", [
    ("extend", "ex_r6_extend.json"), ("phi", "ex_r6_phi.json"), ("bracket", "bracket_sympl4.json"),
])
def test_cli_analysis_builds_each_derived_object_once(capsys, analysis, scenario):
    with counted_builds() as builds:
        code = main([analysis, "--scenario", scenario, "--porcelain"])
    capsys.readouterr()
    assert code == 0
    # only extend prints a classification
    assert_built_once(builds, FLAG_READERS | ({"classify_subspace"} if analysis == "extend" else set()))


@pytest.mark.parametrize("analysis, scenario", [
    ("bracket", "bracket_sympl4.json"), ("embed", "ex_r4_dirac.json"), ("extend", "ex_r6_extend.json"),
])
def test_a_command_classifies_only_what_its_document_prints(capsys, analysis, scenario):
    # bracket and embed read the coisotropic and cosymplectic flags alone; extend
    # prints the classification of w, and the extension's own check reads a flag
    with counted_builds() as builds:
        code = main([analysis, "--scenario", scenario, "--porcelain"])
    capsys.readouterr()
    assert code == 0
    classified = [subspaces for name, _, *subspaces in builds if name == "classify_subspace"]
    if analysis != "extend":
        assert classified == []
        return
    s = load_scenario_text(files("poisdirac").joinpath("scenarios", scenario).read_text())
    assert classified == [[cosymplectic_extension(s.bivector.at(s.point), s.subspace_c)]]


def test_extension_then_iso_builds_each_derived_object_once():
    rng = random.Random(31)
    for _ in range(10):
        p, c, _, w = rand_valid_iso_triple(rng, max_dim=6)
        p = PoissonVS(p.dim, p.pi)  # a fresh structure: nothing derived from it yet
        with counted_builds() as builds:
            v = cosymplectic_extension(p, c)
            canonical_iso(p, c, v, w)
        assert_built_once(builds, FLAG_READERS)


def test_counting_sees_a_second_build():
    p, c, v, w = rand_valid_iso_triple(random.Random(37), max_dim=4)
    with counted_builds() as builds:
        for q in (PoissonVS(p.dim, p.pi), PoissonVS(p.dim, p.pi)):
            classify_subspace(q, v)
            classify_subspace(q, v)
        getattr(classify_subspace, "__wrapped__", classify_subspace)(q, v)
    assert sorted(builds.values()) == [1, 2]


@contextmanager
def counted_solves(weight=lambda frame: 1):
    """Counter of runs of `solve`'s body, each counted as weight(its frame), once by
    default, keyed by the name of the function that called it (a comprehension
    counts as the function it sits in)."""
    solves = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is solve.__code__:
            caller = frame.f_back
            while caller.f_code.co_name.startswith("<"):
                caller = caller.f_back
            solves[caller.f_code.co_name] += weight(frame)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield solves
    finally:
        sys.setprofile(previous)


X4 = ("x1", "x2", "x3", "x4")
J4 = MatrixQ.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
E1, E12 = Subspace.span(4, [[1, 0, 0, 0]]), Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
TILTED = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 1, 0]])
A, B = (Fraction(1), Fraction(2), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(5))


def _graph_point() -> PointData:
    """A sample of a parametrized surface with a 2-dim tangent space."""
    pi = BivectorField.from_upper(X4, {(0, 2): "1", (1, 3): "1"})
    patch = Parametrized(PolyMap.parse(["t1", "t2", "t2^2", "t1^2"], ("t1", "t2")))
    return PointData(pi, patch, (Fraction(1, 2), Fraction(-3)))


def _hypersurface_point() -> PointData:
    pi = BivectorField.from_upper(X4, {(0, 1): "1", (2, 3): "1"})
    return PointData(pi, LevelSet((Poly.parse("x4", X4),)), (Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(0)))


# caller of solve -> work on a fresh structure or point that has it solve two
# or more right-hand sides against one coefficient matrix
ONE_SOLVE_CASES = {
    "leaf_form_gram": lambda: leaf_form_gram(PoissonVS(4, J4), MatrixQ.from_rows([A, B, A]), MatrixQ.from_rows([B, A, A])),
    "induced_bivector": lambda: induced_bivector(PoissonVS(4, J4), E12),
    "canonical_iso": lambda: canonical_iso(PoissonVS(4, J4), E1, E12, TILTED),
    "_directions": lambda: _graph_point().differential(Poly.parse("t1*t2 + t2", ("t1", "t2"))),
    "consistency": lambda: _hypersurface_point().consistency(Poly.parse("x1", X4), Poly.parse("x2", X4)),
}


@pytest.mark.parametrize("caller", ONE_SOLVE_CASES)
def test_many_right_hand_sides_are_solved_in_one_elimination(caller):
    with counted_solves() as solves:
        ONE_SOLVE_CASES[caller]()
    assert solves[caller] == 1, solves


@contextmanager
def counted_annihilations(s: Subspace):
    """Number of eliminations that build the annihilator of the object s (in a
    one-element list): runs of `_reduced` called from the body of `annihilator`,
    or of whatever it reads the annihilator from, with s as its argument."""
    runs = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is _reduced.__code__:
            caller = frame.f_back.f_code
            if caller.co_name.endswith("annihilator") and frame.f_back.f_locals[caller.co_varnames[0]] is s:
                runs[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield runs
    finally:
        sys.setprofile(previous)


def test_classification_annihilates_its_subspace_once():
    # classify_subspace reads ann c directly and through sharp(ann c)
    rng = random.Random(41)
    for _ in range(10):
        p, c, _, _ = rand_valid_iso_triple(rng, max_dim=6)
        p, c = PoissonVS(p.dim, p.pi), Subspace(c.ambient_dim, c.rows)  # nothing derived from either yet
        with counted_annihilations(c) as runs:
            classify_subspace(p, c)
        assert runs == [1]


def test_classification_of_a_fresh_subspace_runs_three_eliminations():
    # ann c; the rows (A x_i | x_i), x_i = sharp xi_i for the rows xi_i of ann c, whose rank is
    # s = dim sharp(ann c) and whose rows with A x = 0 are c cap sharp(ann c), so that rank rho =
    # s - dim(c cap sharp(ann c)); and c + sharp(ann c), the second route to that rank.  The
    # leaf is built beforehand; a canonical sharp(ann c) and its intersection with c took four
    rng = random.Random(47)
    for _ in range(10):
        p, c, _, _ = rand_valid_iso_triple(rng, max_dim=6)
        p, c = PoissonVS(p.dim, p.pi), Subspace(c.ambient_dim, c.rows)
        p.leaf()
        with counted_runs(_eliminate) as runs:
            classify_subspace(p, c)
        assert runs == [3]


def test_a_characteristic_subspace_runs_one_elimination_and_no_sharp_annihilator():
    # with ann c built, c cap sharp(ann c) is one elimination of the rows (A x_i | x_i); the route
    # through the canonical sharp(ann c) eliminated twice, for the image and the intersection
    rng = random.Random(73)
    for _ in range(10):
        p, c, _, _ = rand_valid_iso_triple(rng, max_dim=6)
        p, c = PoissonVS(p.dim, p.pi), Subspace(c.ambient_dim, c.rows)
        annihilator(c)
        with counted_runs(_eliminate, PoissonVS.sharp_annihilator.__wrapped__) as runs:
            characteristic_subspace(p, c)
        assert runs == [1, 0]


@contextmanager
def eliminated_widths():
    """The column count of each run of `_eliminate`, in order."""
    widths = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is _eliminate.__code__:
            widths.append(frame.f_locals["n_cols"])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield widths
    finally:
        sys.setprofile(previous)


def test_the_characteristic_subspace_after_a_classification_runs_no_elimination():
    # classification builds c cap sharp(ann c) for rank rho; the characteristic
    # subspace is that object, so the two together run three eliminations (four when
    # c cap sharp(ann c) was intersected from a canonical sharp(ann c))
    rng = random.Random(53)
    for _ in range(10):
        p, c, _, _ = rand_valid_iso_triple(rng, max_dim=6)
        p, c = PoissonVS(p.dim, p.pi), Subspace(c.ambient_dim, c.rows)
        p.leaf()
        with eliminated_widths() as widths:
            record = classify_subspace(p, c)
            char = characteristic_subspace(p, c)
        assert len(widths) == 3 and char.dim == record.dim_characteristic


def test_a_pullback_with_its_annihilator_built_runs_one_elimination():
    # the rows (A X | coordinates of X | xi on w's basis) are eliminated once; the
    # route through a 2n-dimensional helper subspace eliminated twice
    rng = random.Random(61)
    for _ in range(10):
        p, c, _, _ = rand_valid_iso_triple(rng, max_dim=6)
        l, w = from_bivector(p), Subspace(c.ambient_dim, c.rows)
        annihilator(w)
        with eliminated_widths() as widths:
            pullback(l, w)
        assert len(widths) == 1


def test_a_characteristic_runs_one_elimination_on_2n_columns():
    # L's rows reordered to (xi | X); the Zassenhaus route eliminated on 4n columns
    rng = random.Random(67)
    for _ in range(10):
        p, _, _, _ = rand_valid_iso_triple(rng, max_dim=6)
        l = from_bivector(p)
        with eliminated_widths() as widths:
            characteristic(l)
        assert widths == [2 * p.dim]


def test_a_kernel_keeps_its_annihilator():
    # kernel(m) stores m's row space as its cached annihilator, so classifying the kernel
    # eliminates ann C no more: two eliminations where a fresh subspace takes three; the
    # row space keeps no annihilator of its own, which would make a reference cycle
    rng = random.Random(71)
    for _ in range(10):
        p, c, _, _ = rand_valid_iso_triple(rng, max_dim=6)
        p, twin = PoissonVS(p.dim, p.pi), PoissonVS(p.dim, p.pi)
        twin.leaf()
        null, twin_null = kernel(annihilator(c).basis), kernel(annihilator(c).basis)
        assert null == c and "_annihilator" not in annihilator(null).__dict__
        with counted_annihilations(null) as annihilations:
            classify_subspace(p, null)
        with counted_runs(_eliminate) as runs:
            classify_subspace(twin, twin_null)
        assert annihilations == [0] and runs == [2]


def test_a_level_set_sample_is_classified_without_annihilating_its_tangent(capsys):
    # the tangent is the kernel of the constraint differentials, whose row space is its
    # annihilator: each of ex_fz's 4 samples runs 5 eliminations (the kernel's 2, the
    # leaf, the rows (A x_i | x_i) and T + sharp(ann T)), 6 when a canonical sharp(ann T)
    # was intersected with T, and 7 when sharp(ann T) eliminated ann T again
    with counted_runs(_eliminate) as runs:
        code = main(["classify", "--scenario", "ex_fz.json", "--porcelain"])
    capsys.readouterr()
    assert code == 0 and runs == [20]


def test_counting_sees_each_annihilation_of_its_object():
    c, twin = Subspace(3, ((1, 0, 2),)), Subspace(3, ((1, 0, 2),))
    with counted_annihilations(c) as runs:
        annihilator(twin)
        assert runs == [0]
        annihilator(c)
    assert runs == [1]


@contextmanager
def counted_runs(*functions):
    """Number of runs of each function's body, in a list in the order given."""
    codes = [f.__code__ for f in functions]
    runs = [0] * len(codes)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            runs[codes.index(frame.f_code)] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield runs
    finally:
        sys.setprofile(previous)


def test_matching_isomorphism_reuses_the_inverse_of_the_first_splitting():
    # each of the two splittings inverts its pairing and its change of basis;
    # the matching map reads the first inverse back instead of inverting it again
    rng = random.Random(43)
    for _ in range(10):
        p1, m = rand_minimal_coisotropic_pair(rng)
        v = coisotropic_splitting(p1, m).v
        p2 = PoissonVS(p1.dim, p1.pi)
        with counted_runs(inverse) as runs:
            phi = linear_uniqueness_iso(p1, p2, m, v)
        assert runs == [4]
        assert phi == MatrixQ.identity(p1.dim)


def _fresh(s: Subspace) -> Subspace:
    """An equal subspace with nothing derived from it yet."""
    return Subspace(s.ambient_dim, s.rows, s.dual)


# a minimal coisotropic pair (dim 5, m of dim 3) and the v of its first splitting, built
# before any count starts: these are the boundary objects a caller builds
P5, M3 = rand_minimal_coisotropic_pair(random.Random(60))
V5 = coisotropic_splitting(P5, M3).v

# construction -> its run on fresh structures over the fixed inputs above.  A run of
# `_scaled_row` splits Fraction entries into integers; when matrices stored Fraction
# entries, these runs took 55, 64 and 139 of them, on Fraction rows handed on and split again
SCALED_ROW_CASES = {
    "canonical_iso": lambda: canonical_iso(PoissonVS(4, J4), _fresh(E1), _fresh(E12), _fresh(TILTED)),
    "coisotropic_splitting": lambda: coisotropic_splitting(PoissonVS(P5.dim, P5.pi), _fresh(M3)),
    "linear_uniqueness_iso": lambda: linear_uniqueness_iso(
        PoissonVS(P5.dim, P5.pi), PoissonVS(P5.dim, P5.pi.transpose().transpose()), _fresh(M3), _fresh(V5)),
}


@pytest.mark.parametrize("construction", SCALED_ROW_CASES)
def test_linear_constructions_split_no_fraction_rows(construction):
    with counted_runs(_scaled_row) as runs:
        SCALED_ROW_CASES[construction]()
    assert runs == [0]


def test_a_splitting_solves_each_leaf_form_vector_once():
    # with k = dim e = 2, the right-hand sides leaf_form_gram solves are 2k to pair w0 with e
    # and k for the Lagrangian correction of w, 2k + k = 6 in all: the V + E + E* model check
    # solves no leaf form vector
    with counted_solves(lambda frame: frame.f_locals["bs"].rows) as right_hand_sides:
        splitting = coisotropic_splitting(PoissonVS(P5.dim, P5.pi), _fresh(M3))
    assert splitting.e.dim == 2 and right_hand_sides["leaf_form_gram"] == 6


def test_counting_sees_a_fraction_row_split():
    with counted_runs(_scaled_row) as runs:
        MatrixQ.from_rows([[1, "1/2"]])
        PoissonVS(4, J4).sharp(A)
    assert runs == [2]


@contextmanager
def counted_partials():
    """Counter of runs of `Poly.partial`'s body keyed by (id of the polynomial,
    variable); every polynomial is kept alive until the block ends."""
    partials, polys = Counter(), []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is Poly.partial.__code__:
            polys.append(frame.f_locals["self"])
            partials[(id(polys[-1]), frame.f_locals["var"])] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield partials
    finally:
        sys.setprofile(previous)


# CLI run -> partial derivatives it takes: those of the patch map or the level-set
# constraints and of the bracketed functions, once each, however many samples
@pytest.mark.parametrize("args, derived", [
    (["classify", "--scenario", "ex_fz.json", "--grid", "5", "--count", "8"], 6),
    (["classify", "--scenario", "ex_x2z.json", "--grid", "3", "--count", "8"], 4),
    (["bracket", "--scenario", "bracket_sympl4.json", "--grid", "3", "--count", "6"], 12),
])
def test_cli_run_derives_each_partial_once_per_polynomial(capsys, args, derived):
    with counted_partials() as partials:
        code = main(args + ["--porcelain"])
    capsys.readouterr()
    assert code == 0
    assert max(partials.values()) == 1, partials
    assert sum(partials.values()) == derived


def test_counting_sees_a_second_derivation():
    f, g = Poly.parse("x1*x2 + x3", X4[:3]), Poly.parse("x1*x2 + x3", X4[:3])
    with counted_partials() as partials:
        for p in (f, g, f):
            PolyMap(X4[:3], (p,)).jacobian_at((Fraction(1), Fraction(2), Fraction(3)))
        f.partial("x1")
    assert sorted(partials.values()) == [1, 1, 1, 1, 1, 2]


def test_a_unimodular_matrix_with_constant_pivots_runs_no_cofactor_expansion():
    # c L U with L and U unipotent, a random linear monomial in 3 variables next to
    # each diagonal entry, and c a constant: the benchmark's 7 x 7 shape
    rng, names, size = random.Random(59), ("x1", "x2", "x3"), 7
    one, zero = Poly.constant(names, 1), Poly.zero(names)

    def monomial():
        return Poly.variable(names, rng.choice(names)).scale(Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2)))

    lower = [[one if i == j else monomial() if i == j + 1 else zero for j in range(size)] for i in range(size)]
    upper = [[one if i == j else monomial() if j == i + 1 else zero for j in range(size)] for i in range(size)]
    m = [[sum_of_products(names, zip(row, column)) for column in zip(*upper)] for row in lower]
    m[0] = [p.scale(-3) for p in m[0]]
    with counted_runs(_minor_det) as runs:
        inverse = poly_matrix_inverse(m)
    assert runs == [0]
    assert [[sum_of_products(names, zip(row, column)) for column in zip(*inverse)] for row in m] == [
        [one if i == j else zero for j in range(size)] for i in range(size)]


def test_an_embedding_and_its_splitting_comparison_validate_each_sample_once(capsys):
    # build_embedding and compare_splittings both require valid input at the
    # scenario's 25 samples; the second reads the issues of the first back
    scenario = files("poisdirac").joinpath("scenarios", "ex_r4_splittings.json").read_text()
    e_frame = load_scenario_text(scenario).dirac_manifold.e_frame
    runs = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is characteristic.__code__:
            runs["characteristic"] += 1
        elif event == "call" and frame.f_code is integer_rows_at.__code__ and frame.f_locals["grid"] == e_frame:
            runs["E frame rows"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        code = main(["embed", "--scenario", "ex_r4_splittings.json", "--porcelain"])
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert code == 0
    assert runs == {"characteristic": 25, "E frame rows": 25}
