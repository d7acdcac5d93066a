"""Acceptance suite: every exit criterion, exact arithmetic, zero tolerance.

Each criterion reports one pass/fail line (see conftest); property suites
run at least 200 seeded randomized instances at dimensions up to 6.
"""

import json
import random
import time
from fractions import Fraction

from conftest import record_acceptance
from gen import (
    rand_antisym,
    rand_dirac_form_data,
    rand_fraction,
    rand_low_rank_poisson,
    rand_point,
    rand_poisson,
    rand_subspace,
    rand_valid_iso_triple,
)
from poisdirac.bivector_fields import (
    BivectorField,
    is_poisson,
    nonzero_jacobiator_components,
    pushforward,
)
from poisdirac.cli import main as cli_main
from poisdirac.dirac_linear import (
    change_basis,
    characteristic,
    from_bivector,
    from_subspace_form,
    gauge,
    pullback,
    range_and_form,
)
from poisdirac.embedding import DiracManifoldData, Section, build_embedding, compare_splittings
from poisdirac.poisson_linear import (
    ClassificationRecord,
    PoissonVS,
    canonical_iso,
    characteristic_subspace,
    classify_subspace,
    cosymplectic_extension,
    embedding_conditions,
    induced_bivector,
    leaf_form_value,
    sharp_image,
    subspace_in_basis,
)
from poisdirac.polynomials import Poly, PolyMap
from poisdirac.rational_linalg import MatrixQ, Subspace, add, annihilator, contains, intersect
from poisdirac.submanifolds import (
    LevelSet,
    Parametrized,
    PointData,
    grid_points,
    rank_profile,
    tangent_at,
)

X3 = ("x1", "x2", "x3")
X4 = ("x1", "x2", "x3", "x4")
X6 = tuple(f"x{i}" for i in range(1, 7))

PI1 = BivectorField.from_upper(X4, {(0, 1): "x1^2", (2, 3): "1"})
PI2 = BivectorField.from_upper(X4, {(0, 1): "x1^2", (2, 3): "1", (1, 2): "x1*x4"})
SYMPL4 = BivectorField.from_upper(X4, {(0, 1): "1", (2, 3): "1"})

FZ = BivectorField.from_upper(X3, {(0, 1): "x3"})
X2Z = BivectorField.from_upper(X4, {(0, 1): "x1^2", (2, 3): "x3"})
GRAPH4 = BivectorField.from_upper(X4, {(0, 2): "1", (1, 3): "1"})
R6 = BivectorField.from_upper(X6, {(1, 3): "x1", (2, 5): "1", (4, 5): "x1"})


def _report(tag: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}" + (f" ({detail})" if detail else "")
    record_acceptance(line)
    assert ok, line


def p3(text):
    return Poly.parse(text, X3)


def r4_dirac_data() -> DiracManifoldData:
    return DiracManifoldData(
        base_dim=3,
        sections=(
            Section((p3("0"), p3("-x1^2"), p3("0")), (p3("1"), p3("0"), p3("0"))),
            Section((p3("x1^2"), p3("0"), p3("0")), (p3("0"), p3("1"), p3("0"))),
            Section((p3("0"), p3("0"), p3("1")), (p3("0"), p3("0"), p3("0"))),
        ),
        e_frame=((p3("0"), p3("0"), p3("1")),),
        v_frame=((p3("1"), p3("0"), p3("0")), (p3("0"), p3("1"), p3("0"))),
    )


# ---------------------------------------------------------------------------
# criterion 1: exact reproduction of the worked classification examples


def test_criterion_1_worked_examples():
    start = time.perf_counter()

    def f(*args):
        return tuple(Fraction(a) for a in args)

    ok = True
    # vertical line in (R^3, x3 d1^d2)
    c_fz = LevelSet((p3("x1"), p3("x2")))
    for z, expected in ((0, 1), (1, 3), (-1, 3)):
        ok &= PointData(FZ, c_fz, f(0, 0, z)).classification.dim_sum == expected
    # curve (t^2, 0, t, 0) in (R^4, x1^2 d1^d2 + x3 d3^d4)
    c_x2z = Parametrized(PolyMap.parse(["t1^2", "0", "t1", "0"], ("t1",)))
    ok &= PointData(X2Z, c_x2z, (Fraction(1),)).classification.dim_sum == 3
    ok &= PointData(X2Z, c_x2z, (Fraction(0),)).classification.dim_sum == 1
    # graph surface in symplectic R^4
    c_graph = Parametrized(PolyMap.parse(["t1", "t2", "t2^2", "t1^2"], ("t1", "t2")))
    for pt in (f(1, 1), f(-2, -2), f(1, 2), f(0, 3), f(5, -5)):
        expected = 2 if pt[0] == pt[1] else 0
        ok &= PointData(GRAPH4, c_graph, pt).classification.dim_characteristic == expected
    # coordinate 3-plane in R^6: constant characteristic dimension, jumping direction
    c_r6 = LevelSet((Poly.parse("x4", X6), Poly.parse("x5", X6), Poly.parse("x6", X6)))
    samples = [f(0, 2, 3, 0, 0, 0), f(1, 2, 3, 0, 0, 0), f(-2, 1, -1, 0, 0, 0), f(0, -1, 5, 0, 0, 0)]
    profile = rank_profile(R6, c_r6, samples)
    ok &= profile.constant.dim_characteristic and not profile.errors
    d2 = MatrixQ.from_rows([[0, 1, 0, 0, 0, 0]])
    d3 = MatrixQ.from_rows([[0, 0, 1, 0, 0, 0]])
    for row in profile.rows:
        expected_basis = d3 if row.ambient[0] == 0 else d2
        ok &= row.classification.dim_characteristic == 1 and row.characteristic.basis == expected_basis
    # the bundled fixtures pin the same values through the CLI documents
    fz_doc = json.loads(load_and_run_porcelain("classify", "ex_fz.json"))
    ok &= [row["dims"]["sum"] for row in fz_doc["rows"]] == [1, 3, 3, 3]
    x2z_doc = json.loads(load_and_run_porcelain("classify", "ex_x2z.json"))
    ok &= [row["dims"]["sum"] for row in x2z_doc["rows"]] == [3, 1, 3]
    graph_doc = json.loads(load_and_run_porcelain("classify", "ex_graph4.json"))
    for row in graph_doc["rows"]:
        expected = 2 if row["point"][0] == row["point"][1] else 0
        ok &= row["dims"]["characteristic"] == expected
    r6_doc = json.loads(load_and_run_porcelain("classify", "ex_r6.json"))
    for row in r6_doc["rows"]:
        expected_basis = [["0", "0", "1", "0", "0", "0"]] if row["ambient"][0] == "0" else [["0", "1", "0", "0", "0", "0"]]
        ok &= row["dims"]["characteristic"] == 1 and row["characteristic_basis"] == expected_basis
    elapsed = time.perf_counter() - start
    ok &= elapsed < 4.0  # four examples, budget of one second each
    _report("criterion 1: worked classification examples, exact integers", ok, f"{elapsed * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# criterion 2: Jacobi suite


def test_criterion_2_jacobi_suite():
    ok = all(is_poisson(field) for field in (PI1, PI2, FZ, X2Z, GRAPH4, R6))
    broken = BivectorField.from_upper(X3, {(0, 1): "1", (0, 2): "x1"})
    bad = nonzero_jacobiator_components(broken)
    ok &= not is_poisson(broken)
    ok &= list(bad) == [(0, 1, 2)] and bad[(0, 1, 2)] == Poly.constant(X3, 1)
    # the CLI prints the nonzero component
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(["jacobi", "--scenario", "broken.json"])
    ok &= code == 0 and "Poisson: no" in buffer.getvalue() and "J^{1,2,3} = 1" in buffer.getvalue()
    _report("criterion 2: Jacobi suite (all bundled fields Poisson, broken fixture rejected)", ok)


# ---------------------------------------------------------------------------
# criterion 3: the coordinate-change equivalence of the two R^4 structures


def test_criterion_3_equivalence_variants():
    plus = PolyMap.parse(["x1", "x2 + 1/2*x4^2*x1", "x3", "x4"], X4)
    minus = PolyMap.parse(["x1", "x2 - 1/2*x4^2*x1", "x3", "x4"], X4)
    variants = {
        ("+", "pi1->pi2"): pushforward(PI1, plus, minus).entries == PI2.entries,
        ("-", "pi1->pi2"): pushforward(PI1, minus, plus).entries == PI2.entries,
        ("+", "pi2->pi1"): pushforward(PI2, plus, minus).entries == PI1.entries,
        ("-", "pi2->pi1"): pushforward(PI2, minus, plus).entries == PI1.entries,
    }
    passing = {k for k, v in variants.items() if v}
    # exactly one sign works per direction, and the two successes are the
    # same diffeomorphism presented in the two directions
    ok = passing == {("-", "pi1->pi2"), ("+", "pi2->pi1")}
    doc = json.loads(load_and_run_porcelain("pushforward", "ex_r4_push.json"))
    ok &= doc["matches_expected"] is True
    _report("criterion 3: exactly one sign variant per direction carries one structure to the other", ok)


def load_and_run_porcelain(command: str, scenario: str) -> str:
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main([command, "--scenario", scenario, "--porcelain"])
    assert code == 0
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# criterion 4: embedding end to end


def test_criterion_4_embedding_end_to_end():
    data = r4_dirac_data()
    samples = grid_points(4, 3, 7, 25)
    result = build_embedding(data, samples)
    expected = BivectorField.from_upper(("x1", "x2", "x3", "p1"), {(0, 1): "x1^2", (2, 3): "1"})
    ok = result.bivector is not None and result.bivector.entries == expected.entries
    ok &= len(result.sample_checks) == 25
    ok &= all(c.graph and c.zero_section_coisotropic and c.zero_section_pullback_matches for c in result.sample_checks)
    _report("criterion 4: embedding reproduces the split structure with all 25 sample checks", ok)


# ---------------------------------------------------------------------------
# criterion 5: property suites, >= 200 randomized instances each, dims <= 6


N_INSTANCES = 200


def _subspace_record(p: PoissonVS, c: Subspace) -> ClassificationRecord:
    """The classification of c read off whole subspaces: sums, intersections and a containment."""
    ann = annihilator(c)
    sharp_ann = sharp_image(p, ann)
    total, characteristic = add(c, sharp_ann), intersect(c, sharp_ann)
    return ClassificationRecord(
        dim_subspace=c.dim,
        dim_annihilator=ann.dim,
        dim_sharp_annihilator=sharp_ann.dim,
        dim_sum=total.dim,
        dim_characteristic=characteristic.dim,
        dim_leaf=p.leaf().dim,
        rho_rank=total.dim - c.dim,
        coisotropic=contains(c, sharp_ann),
        cosymplectic=total == Subspace.full(p.dim) and characteristic.dim == 0,
        pointwise_poisson_dirac=characteristic.dim == 0,
        lagrangian_in_leaf=sharp_ann == intersect(c, p.leaf()),
    )


def test_criterion_5a_classification_table():
    # every record field against the subspace route, on full random bivectors at
    # dims <= 6 and on bivectors of rank <= 4 at dims <= 8
    rng = random.Random(101)
    ok, lagrangian, characteristic = True, 0, 0
    for i in range(2 * N_INSTANCES):
        n = rng.randint(1, 6) if i % 2 else rng.randint(2, 8)
        p = rand_poisson(rng, n) if i % 2 else rand_low_rank_poisson(rng, n)
        c = rand_subspace(rng, n)
        rec = classify_subspace(p, c)
        ok &= rec == _subspace_record(p, c)
        lagrangian += rec.lagrangian_in_leaf and rec.dim_sharp_annihilator > 0
        characteristic += rec.dim_characteristic > 0
    ok &= lagrangian > 0 and characteristic > 0
    _report("criterion 5a: classification table equals the subspace route (400 instances)", ok,
            f"{lagrangian} Lagrangian with sharp(ann c) != 0, {characteristic} with a characteristic")


def test_criterion_5b_direct_sum_identity():
    rng = random.Random(102)
    ok = True
    for _ in range(N_INSTANCES):
        p, c, v, w = rand_valid_iso_triple(rng, max_dim=6)
        for ext in (v, w):
            conds = embedding_conditions(p, c, ext)
            ok &= conds.both() and classify_subspace(p, ext).cosymplectic
            sharp_ann_w = sharp_image(p, annihilator(ext))
            ok &= add(c, sharp_image(p, annihilator(c))) == add(c, sharp_ann_w)
            ok &= intersect(c, sharp_ann_w).dim == 0
    _report("criterion 5b: c + sharp(ann c) = c (+) sharp(ann w) for valid extensions (200 instances)", ok)


def test_criterion_5c_pullback_functoriality():
    rng = random.Random(103)
    ok = True
    done = 0
    while done < N_INSTANCES:
        n = rng.randint(2, 6)
        o, omega = rand_dirac_form_data(rng, n)
        l = from_subspace_form(o, omega)
        wp = rand_subspace(rng, n)
        if wp.dim == 0:
            continue
        inner = rand_subspace(rng, wp.dim)
        if inner.dim == 0:
            continue
        two_step = pullback(pullback(l, wp), inner)
        ambient_rows = [
            tuple(sum(c * wp.basis.entries[k][j] for k, c in enumerate(row)) for j in range(n))
            for row in inner.basis.entries
        ]
        w = Subspace.span(n, ambient_rows)
        coords = w.coordinates_of_rows(MatrixQ.from_rows(ambient_rows, cols=n))
        ok &= change_basis(two_step, coords) == pullback(l, w)
        done += 1
    _report("criterion 5c: Dirac pullback functoriality (200 instances)", ok)


def test_criterion_5d_gauge_involution():
    rng = random.Random(104)
    ok = True
    for _ in range(N_INSTANCES):
        n = rng.randint(1, 6)
        o, omega = rand_dirac_form_data(rng, n)
        l = from_subspace_form(o, omega)
        b = rand_antisym(rng, n)
        gauged = gauge(l, b)
        ok &= gauge(gauged, -b) == l
        ok &= range_and_form(gauged)[0] == o
    _report("criterion 5d: gauge involution fixing the range (200 instances)", ok)


def test_criterion_5e_characteristic_consistency():
    rng = random.Random(105)
    ok = True
    for _ in range(N_INSTANCES):
        n = rng.randint(1, 6)
        p = rand_poisson(rng, n)
        c = rand_subspace(rng, n)
        pulled = pullback(from_bivector(p), c)
        inside = characteristic(pulled)
        ambient_rows = [
            tuple(sum(v * c.basis.entries[k][j] for k, v in enumerate(row)) for j in range(n))
            for row in inside.basis.entries
        ]
        ok &= Subspace.span(n, ambient_rows) == characteristic_subspace(p, c)
    _report("criterion 5e: characteristic subspaces agree between the two routes (200 instances)", ok)


def test_criterion_5f_canonical_iso_postconditions():
    rng = random.Random(106)
    ok = True
    for _ in range(N_INSTANCES):
        p, c, v, w = rand_valid_iso_triple(rng, max_dim=6)
        phi = canonical_iso(p, c, v, w)
        pv, pw = induced_bivector(p, v), induced_bivector(p, w)
        ok &= phi @ pv.pi @ phi.transpose() == pw.pi
        for x, y in zip(v.coordinates_of_rows(c.basis).entries, w.coordinates_of_rows(c.basis).entries):
            ok &= phi.matvec(x) == y
    _report("criterion 5f: canonical isomorphism fixes c and intertwines bivectors (200 instances)", ok)


def test_criterion_5g_extension_conditions():
    rng, others = random.Random(107), random.Random(1070)
    ok, held = True, 0
    for _ in range(N_INSTANCES):
        n = rng.randint(1, 6)
        p = rand_poisson(rng, n)
        c = rand_subspace(rng, n)
        w = cosymplectic_extension(p, c)
        conds = embedding_conditions(p, c, w)
        ok &= conds.cond_leaf and conds.cond_int
        ok &= classify_subspace(p, w).cosymplectic
        ok &= cosymplectic_extension(p, c) == w  # deterministic
        # both conditions on any w containing c, against the intersection that defines cond_int
        sharp_ann_c = sharp_image(p, annihilator(c))
        any_w = add(c, rand_subspace(others, n))
        conds = embedding_conditions(p, c, any_w)
        ok &= conds.cond_leaf == contains(add(any_w, sharp_ann_c), p.leaf())
        ok &= conds.cond_int == (intersect(any_w, add(c, sharp_ann_c)) == c)
        held += conds.cond_int
    ok &= 0 < held < N_INSTANCES
    _report("criterion 5g: cosymplectic extension always satisfies both conditions (200 instances)", ok,
            f"cond_int held on {held} of {N_INSTANCES} other superspaces")


def test_criterion_5h_leaf_form_identity():
    rng = random.Random(108)
    ok = True
    for _ in range(N_INSTANCES):
        n = rng.randint(1, 6)
        p = rand_poisson(rng, n)
        xi = rand_point(rng, n)
        eta = rand_point(rng, n)
        y = p.sharp(eta)
        expected = -sum(a * b for a, b in zip(xi, y))
        ok &= leaf_form_value(p, p.sharp(xi), y) == expected
    _report("criterion 5h: leaf form identity Omega(sharp xi, .) = -xi (200 instances)", ok)


# ---------------------------------------------------------------------------
# criterion 6: bracket consistency


def test_criterion_6_bracket_consistency():
    ok = True
    c_hyper = LevelSet((Poly.parse("x4", X4),))
    q = (Fraction(1), Fraction(2), Fraction(3), Fraction(0))
    # fixture 1: pinned value for coordinate functions on the hyperplane
    check = PointData(SYMPL4, c_hyper, q).consistency(Poly.parse("x1", X4), Poly.parse("x2", X4))
    ok &= check.agree and check.intrinsic == Fraction(-1)
    # fixture 2: constants are basic with vanishing brackets
    check = PointData(SYMPL4, c_hyper, q).consistency(Poly.parse("7", X4), Poly.parse("x2", X4))
    ok &= check.agree and check.intrinsic == 0
    # fixture 3: the function pairing with the characteristic direction is not basic
    ok &= not PointData(SYMPL4, c_hyper, q).is_basic(Poly.parse("x3", X4))
    try:
        PointData(SYMPL4, c_hyper, q).bracket(Poly.parse("x3", X4), Poly.parse("x2", X4))
        ok = False
    except Exception:
        pass
    # 50 randomized affine line/plane fixtures in standard symplectic Q^4
    rng = random.Random(600)
    done = 0
    while done < 50:
        k = rng.randint(1, 2)
        tvars = ("t1",) if k == 1 else ("t1", "t2")
        base = rand_point(rng, 4)
        directions = [rand_point(rng, 4) for _ in range(k)]
        comps = []
        for j in range(4):
            poly = Poly.constant(tvars, base[j])
            for i in range(k):
                poly = poly + Poly.variable(tvars, tvars[i]).scale(directions[i][j])
            comps.append(poly)
        patch = Parametrized(PolyMap(tvars, tuple(comps)))
        origin = tuple(Fraction(0) for _ in range(k))
        try:
            tangent = tangent_at(patch, origin)
        except Exception:
            continue
        p = SYMPL4.at(patch.map.evaluate(origin))
        char = subspace_in_basis(characteristic_subspace(p, tangent), tangent)
        coann = annihilator(char)
        # random basic linear functions: differentials drawn from ann(char)
        def random_basic() -> Poly:
            covector = tuple(
                sum(rand_fraction(rng) * row[i] for row in coann.basis.entries)
                for i in range(tangent.dim)
            )
            poly = Poly.constant(tvars, rand_fraction(rng))
            # tangent basis row i corresponds to parameter direction via the jacobian,
            # whose columns span the tangent space
            directions = tangent.coordinates_of_rows(patch.map.jacobian_at(origin).transpose()).entries
            for i in range(k):
                value = sum(covector[r] * directions[i][r] for r in range(tangent.dim))
                poly = poly + Poly.variable(tvars, tvars[i]).scale(value)
            return poly

        f, g = random_basic(), random_basic()
        check = PointData(SYMPL4, patch, origin).consistency(f, g)
        ok &= check.agree
        done += 1
    _report("criterion 6: bracket consistency on fixtures and 50 randomized line/plane cases", ok)


# ---------------------------------------------------------------------------
# criterion 7: splitting comparison for the embedding example


def test_criterion_7_splitting_comparison():
    data = r4_dirac_data()
    samples = grid_points(4, 3, 7, 25)
    v1 = ((p3("1"), p3("0"), p3("1")), (p3("0"), p3("1"), p3("0")))
    result = compare_splittings(data, data.v_frame, v1, samples)
    ok = result.closed
    ok &= result.one_form_difference_vanishes_on_base
    ok &= result.intertwines_at_all_samples
    ok &= not result.gauge_difference.is_zero()
    _report("criterion 7: splitting comparison (closed gauge difference, vanishing primitive, intertwining)", ok)
