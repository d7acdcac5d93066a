"""References for the one construction of the embedded Dirac structure.

The total-space structure at a point is its symbolic gauged sections
evaluated there.  The construction that came before it lifts the input
structure at the base point, pads it, appends the fiber directions and
gauges the result by B at the point; it is kept here as a reference, with
a gauge in Fraction arithmetic, and must agree exactly on the bundled
embed scenarios and on seeded random data.  `values_at`, `as_bivector`
and `gauge` are checked against the Fraction formulas they replaced, and `values_at` against sympy
as well; the integer rows of `integer_rows_at` must be the primitive rows
of those values, and on grids whose entries and rows share monomials each
row must be its values over the lcm of its denominators times q^D, q the
point's common denominator and D the row's top degree.  `build_embedding`
evaluates the structure at each sample (x, p), and where the gauged sections
read a fiber coordinate at (x, 0) as well.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
import sympy

from gen import pullback_canonical_form, rand_antisym, rand_dirac_form_data, rand_fraction, rand_point, rand_poisson, rand_subspace
from gen import tilted_complement_data
from poisdirac import embedding
from poisdirac.bivector_fields import BivectorField
from poisdirac.cli import BUNDLED_ANALYSES, _resolve_scenario
from poisdirac.dirac_linear import DiracVS, as_bivector, characteristic, from_bivector, from_subspace_form, gauge
from poisdirac.embedding import DiracManifoldData, Section, build_embedding, total_space_variables
from poisdirac.errors import SpaceMismatchError
from poisdirac.polynomials import Poly, PolyMap, ambient_variables, integer_rows_at, values_at
from poisdirac.rational_linalg import MatrixQ, Subspace, _scaled_row, inverse, primitive
from poisdirac.scenario import load_scenario_text
from poisdirac.submanifolds import grid_points


def fraction_gauge(l: DiracVS, b: MatrixQ) -> DiracVS:
    """{(X, xi + i_X B)} on L's Fraction basis rows, with Fraction sums."""
    n = l.ambient_dim
    rows = []
    for r in l.span.basis.entries:
        x = r[:n]
        shift = [sum((x[i] * b.entries[i][j] for i in range(n)), Fraction(0)) for j in range(n)]
        rows.append(x + tuple(c + s for c, s in zip(r[n:], shift)))
    return DiracVS(n, Subspace.span(2 * n, rows))


def lifted_structure(d: DiracManifoldData, b, point) -> DiracVS:
    """(X, 0 | xi, 0) for each basis row of the input structure at the base
    point and (0, e_I | 0, 0) for each fiber direction, gauged by B there."""
    m, k = d.base_dim, d.fiber_dim
    n = m + k
    pad = (Fraction(0),) * k
    rows = [r[:m] + pad + r[m:] + pad for r in d.dirac_at(point[:m]).span.basis.entries]
    rows += [(Fraction(0),) * m + e + (Fraction(0),) * n for e in MatrixQ.identity(k).entries]
    return fraction_gauge(DiracVS(n, Subspace.span(2 * n, rows)), b.at(point))


def rand_poly(rng: random.Random, variables, support, terms: int = 2, degree: int = 2) -> Poly:
    coeffs: dict = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, degree) if i in support else 0 for i in range(len(variables)))
        coeffs[e] = coeffs.get(e, 0) + rand_fraction(rng)
    return Poly.make(variables, coeffs)


def rand_dirac_manifold(rng: random.Random, r: int, k: int, extract: bool) -> DiracManifoldData:
    """A regular Dirac manifold on Q^(r+k), r >= 2: the graph of f(y) d/dy1 ^ d/dy2
    on the y = x_1..x_r directions plus E = span d/dz over z = x_(r+1)..; the
    sections mixed by a unipotent polynomial matrix (and, unless `extract`,
    the first one scaled by 1 + x_m^2, so that no polynomial bivector is
    extracted), E framed by a unimodular integer matrix and V_i = d/dy_i +
    sum_l d_i h_l(y) d/dz_l.  The structure is a bivector graph everywhere."""
    m = r + k
    xs = ambient_variables(m)
    zero, one = Poly.zero(xs), Poly.constant(xs, 1)

    def unit(i):
        return tuple(one if a == i else zero for a in range(m))

    f = rand_poly(rng, xs, range(r))
    sharp = {0: (zero, -f) + (zero,) * (m - 2), 1: (f,) + (zero,) * (m - 1)}
    rows = [(sharp.get(i, (zero,) * m), unit(i)) for i in range(r)]
    rows += [(unit(r + l), (zero,) * m) for l in range(k)]
    for a in range(m - 1):
        c = rand_poly(rng, xs, range(m), terms=1, degree=1)
        rows[a] = tuple(tuple(p + c * q for p, q in zip(mine, theirs)) for mine, theirs in zip(rows[a], rows[a + 1]))
    if not extract:
        s = one + Poly.variable(xs, xs[-1]) ** 2
        rows[0] = tuple(tuple(s * p for p in part) for part in rows[0])
    u = [[1, rng.randint(-2, 2)], [0, 1]]
    e_frame = tuple(tuple(Poly.constant(xs, u[j][a - r]) if a >= r else zero for a in range(m)) for j in range(k))
    h = [rand_poly(rng, xs, range(r), degree=3) for _ in range(k)]
    v_frame = tuple(tuple(one if a == i else zero if a < r else h[a - r].partial(xs[i]) for a in range(m)) for i in range(r))
    return DiracManifoldData(m, tuple(Section(*row) for row in rows), e_frame, v_frame)


def bundled_case(name: str):
    scenario = load_scenario_text(_resolve_scenario(name))
    return scenario.dirac_manifold, scenario.samples


def random_case(seed: int):
    rng = random.Random(seed)
    r, k = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2)])
    d = rand_dirac_manifold(rng, r, k, extract=seed % 2 == 0)
    return d, [rand_point(rng, r + 2 * k) for _ in range(3)]


EMBED_SCENARIOS = sorted(name for name, analysis in BUNDLED_ANALYSES.items() if analysis == "embed")


class TestEvaluatedSectionsMatchTheLift:
    def check(self, monkeypatch, d: DiracManifoldData, samples) -> set:
        """Every sample and zero-section point carries the lifted structure, and so does
        every structure build_embedding evaluated; returns the points it evaluated at."""
        n = d.base_dim + d.fiber_dim
        seen = {}
        original = embedding._dirac_at

        def recording(dim, sections, point):
            structure = original(dim, sections, point)
            if dim == n:
                seen[tuple(point)] = structure
            return structure

        monkeypatch.setattr(embedding, "_dirac_at", recording)
        result = build_embedding(d, samples)
        monkeypatch.setattr(embedding, "_dirac_at", original)
        samples = [tuple(s) for s in samples]
        zero_section = [s[: d.base_dim] + (Fraction(0),) * d.fiber_dim for s in samples]
        for point in samples + zero_section:
            structure = embedding._dirac_at(result.total_dim, result.sections, point)
            assert structure == lifted_structure(d, result.gauge_form, point), point
        for point, structure in seen.items():
            assert structure == lifted_structure(d, result.gauge_form, point), point
        return set(seen)

    def check_closed_coframe(self, monkeypatch, d: DiracManifoldData, samples) -> None:
        # a closed coframe: no gauged section reads p, so (x, p) carries the structure at
        # (x, 0), and the structure is evaluated at the samples only
        fibers = total_space_variables(d)[d.base_dim:]
        sections = embedding._gauged(d)[2]
        assert all(p.partial(v).is_zero() for sec in sections for p in sec.vector + sec.covector for v in fibers)
        assert self.check(monkeypatch, d, samples) == {tuple(s) for s in samples}

    def check_fiber_reading(self, monkeypatch, d: DiracManifoldData, samples) -> None:
        # sections that read p: each sample and its zero-section point are evaluated
        zero_section = {tuple(s[: d.base_dim]) + (Fraction(0),) * d.fiber_dim for s in samples}
        assert self.check(monkeypatch, d, samples) == {tuple(s) for s in samples} | zero_section

    @pytest.mark.parametrize("name", EMBED_SCENARIOS)
    def test_bundled_scenarios(self, monkeypatch, name):
        d, samples = bundled_case(name)
        if d == tilted_complement_data():
            self.check_fiber_reading(monkeypatch, d, samples)
        else:
            self.check_closed_coframe(monkeypatch, d, samples[:6])

    def test_the_tilted_scenario_takes_the_fiber_reading_path(self):
        assert bundled_case("ex_r3_tilted.json")[0] == tilted_complement_data()

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_random_data(self, monkeypatch, seed):
        d, samples = random_case(seed)
        self.check_closed_coframe(monkeypatch, d, samples)

    def test_sections_that_read_the_fiber_are_evaluated_at_both_points(self, monkeypatch):
        d = tilted_complement_data()
        near, far = (Fraction(1), Fraction(1), Fraction(0), Fraction(2)), (Fraction(1), Fraction(1), Fraction(0), Fraction(-1))
        self.check_fiber_reading(monkeypatch, d, [near, far])

    def test_points_where_the_structure_is_no_graph(self):
        # both constructions still agree where the tilted complement's structure is no graph
        d = tilted_complement_data()
        b = pullback_canonical_form(d)
        sections = embedding._gauged_span_symbolic(d, b)
        points = list(grid_points(4, 2, 3, 12)) + [(Fraction(1), Fraction(1), Fraction(0), Fraction(-1))]
        graphs = set()
        for point in points:
            structure = embedding._dirac_at(4, sections, point)
            assert structure == lifted_structure(d, b, point), point
            graphs.add(as_bivector(structure) is not None)
        assert graphs == {True, False}


def fraction_evaluate(poly: Poly, point) -> Fraction:
    total = Fraction(0)
    for e, c in poly.terms:
        value = c
        for base, k in zip(point, e):
            if k:
                value *= base ** k
        total += value
    return total


def sympy_evaluate(poly: Poly, point) -> Fraction:
    symbols = sympy.symbols(poly.variables)
    expr = sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s ** k for s, k in zip(symbols, e)))
        for e, c in poly.terms
    ))
    value = sympy.Rational(expr.xreplace({s: sympy.Rational(x.numerator, x.denominator) for s, x in zip(symbols, point)}))
    return Fraction(int(value.p), int(value.q))


BIG = 10 ** 299
EVALUATION_POINTS = [
    (Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(-1), Fraction(-2, 3), Fraction(-5, 7)),
    (Fraction(2), Fraction(-3), Fraction(4)),
    (2, -3, 0),
    (Fraction(BIG + 7, 3), Fraction(-(BIG + 1), 11 * BIG + 3), Fraction(5, BIG + 9)),
]
# mixed denominators, with zero and negative coordinates
MIXED_POINTS = [
    (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)),
    (Fraction(3, 4), 0, Fraction(-7, 10)),
    (0, Fraction(-1, 9), Fraction(4, 9)),
]

FLOAT_REFUSAL = r"^cannot interpret 0\.[15] as a rational \(floats are not accepted\)$"


class TestEvaluate:
    X3 = ambient_variables(3)

    def polys(self):
        rng = random.Random(5)
        fixed = [Poly.zero(self.X3), Poly.constant(self.X3, "-7/4"), Poly.constant(self.X3, 3)]
        return fixed + [rand_poly(rng, self.X3, range(3), terms=4, degree=3) for _ in range(12)]

    @pytest.mark.parametrize("point", EVALUATION_POINTS, ids=["zero", "negative", "integer", "int", "300-digit"])
    def test_matches_the_fraction_term_loop_and_sympy(self, point):
        polys = self.polys()
        expected = []
        for poly in polys:
            value = fraction_evaluate(poly, point)
            assert value == sympy_evaluate(poly, point), str(poly)
            expected.append(value)
        # one polynomial at a time, the whole list as one row, and a 3 x 5 grid
        values = [values_at(((poly,),), point)[0][0] for poly in polys]
        (row,) = values_at((polys,), point)
        grid = values_at([polys[i:i + 5] for i in range(0, 15, 5)], point)
        assert [len(r) for r in grid] == [5, 5, 5]
        for got in (values, list(row), [v for r in grid for v in r]):
            assert all(type(v) is Fraction for v in got)
            assert got == expected

    @pytest.mark.parametrize("point", EVALUATION_POINTS + MIXED_POINTS)
    def test_integer_rows_are_the_primitive_rows_of_the_values(self, point):
        polys = self.polys()
        zero, constant = Poly.zero(self.X3), Poly.constant(self.X3, "-7/4")
        grid = [polys[i:i + 5] for i in range(0, 15, 5)] + [(zero, zero, zero), (constant, zero), (), polys[::-1]]
        rows, values = integer_rows_at(grid, point), values_at(grid, point)
        assert len(rows) == len(values) == len(grid)
        for (ints, den), row, grid_row in zip(rows, values, grid):
            assert den > 0 and len(ints) == len(grid_row) and all(type(n) is int for n in ints)
            assert [Fraction(n, den) for n in ints] == list(row) == [sympy_evaluate(p, point) for p in grid_row]
            assert list(primitive(ints)) == list(primitive(_scaled_row(row)[0]))

    def shared_monomial_grid(self):
        """Rows whose entries share monomials: an antisymmetric matrix, whose upper entries
        reappear negated below the diagonal, then rows of other top degrees reading the same
        terms, with zero and constant entries."""
        rng = random.Random(9)
        a, b, c = (rand_poly(rng, self.X3, range(3), terms=4, degree=3) for _ in range(3))
        zero, constant = Poly.zero(self.X3), Poly.constant(self.X3, "5/6")
        antisymmetric = [(zero, a, b), (-a, zero, c), (-b, -c, zero)]
        return antisymmetric + [(a * a, a, constant), (constant, zero), (a.partial("x1"), b.partial("x2"), constant), (zero,)]

    @pytest.mark.parametrize("point", EVALUATION_POINTS + MIXED_POINTS)
    def test_rows_that_share_monomials_match_the_references(self, point):
        # per row: the denominator is the lcm L of the entry denominators times q^D, D the
        # row's top degree and q the point's common denominator, and entry j is its value
        # times that denominator, integer for integer
        _, q = _scaled_row(point)
        grid = self.shared_monomial_grid()
        assert len({e for row in grid for p in row for e, _ in p.nums}) < sum(len(p.nums) for row in grid for p in row)
        tops = set()
        for (ints, den), grid_row in zip(integer_rows_at(grid, point), grid, strict=True):
            expected = [fraction_evaluate(p, point) for p in grid_row]
            assert expected == [sympy_evaluate(p, point) for p in grid_row]
            top = max((sum(e) for p in grid_row for e, _ in p.nums), default=0)
            tops.add(top)
            assert den == lcm(*(p.den for p in grid_row)) * q ** top
            assert all(type(n) is int for n in ints) and ints == [v * den for v in expected]
        assert len(tops) > 2
        assert values_at(grid, point) == tuple(tuple(fraction_evaluate(p, point) for p in row) for row in grid)

    def test_a_wrong_length_point_is_refused_in_any_row(self):
        grid = self.shared_monomial_grid()
        x2 = Poly.parse("x1*x2 - 1/2", ("x1", "x2"))
        for rows, point, message in (
            (grid, (Fraction(1, 2), Fraction(3)), "point length 2 != variable count 3"),
            (grid + [(x2,)], (Fraction(1, 2), Fraction(3), Fraction(-1)), "point length 3 != variable count 2"),
        ):
            with pytest.raises(SpaceMismatchError, match=f"^{message}$"):
                integer_rows_at(rows, point)

    def test_a_wrong_length_point_is_refused_even_by_zero_polynomials(self):
        zero = Poly.zero(self.X3)
        for point in ((Fraction(1), Fraction(2)), (0, 0, 0, 0), ()):
            with pytest.raises(SpaceMismatchError):
                values_at(((zero, zero), (zero,)), point)
            with pytest.raises(SpaceMismatchError):
                integer_rows_at(((zero,), (zero, zero)), point)
            with pytest.raises(SpaceMismatchError):
                values_at(((zero,),), point)

    def test_an_empty_grid_has_no_rows(self):
        assert values_at((), (Fraction(1), Fraction(2), Fraction(3))) == ()
        assert values_at(((), ()), (1, 2, 3)) == ((), ())

    def test_float_points_are_refused_as_float_matrix_entries_are(self):
        with pytest.raises(TypeError, match=FLOAT_REFUSAL):
            MatrixQ.from_rows([[0.5]])
        poly = Poly.parse("x1^2 + x2", ["x1", "x2"])
        pi = BivectorField.from_upper(["x1", "x2"], {(0, 1): "x1"})
        curve = PolyMap.parse(["t1", "t1^2"], ["t1"])
        for evaluation in (
            lambda: values_at(((poly,),), (0.1, 2)),
            lambda: values_at(((Poly.zero(["x1", "x2"]),),), (0.5, 1)),
            lambda: values_at((), (0.5,)),
            lambda: integer_rows_at((), (0.5,)),
            lambda: integer_rows_at(((Poly.zero(["x1", "x2"]),),), (1, 0.5)),
            lambda: pi.at((0.5, 1)),
            lambda: curve.evaluate((0.5,)),
            lambda: curve.jacobian_at((0.5,)),
        ):
            with pytest.raises(TypeError, match=FLOAT_REFUSAL):
                evaluation()

    def test_float_coefficients_are_refused_as_float_matrix_entries_are(self):
        # a float's binary fraction is not the number its caller wrote: 0.1 is 3602879701896397/2^55
        x1 = Poly.variable(self.X3, "x1")
        for build in (
            lambda: Poly.make(("x1",), {(1,): 0.1}),
            lambda: Poly.make(self.X3, {(1, 0, 0): 1, (0, 0, 0): 0.5}),
            lambda: Poly.constant(self.X3, 0.5),
            lambda: x1.scale(0.5),
        ):
            with pytest.raises(TypeError, match=FLOAT_REFUSAL):
                build()
        # ints, Fractions and 'p/q' strings are exact, and still accepted
        made = Poly.make(self.X3, {(1, 0, 0): 1, (0, 1, 0): "-1/3", (0, 0, 0): Fraction(1, 2)})
        assert made == Poly.parse("x1 - 1/3*x2 + 1/2", self.X3) and (made.nums, made.den) == (
            (((1, 0, 0), 6), ((0, 1, 0), -2), ((0, 0, 0), 3)), 6)


def reference_bivector(l: DiracVS) -> MatrixQ | None:
    """Pi = V C^-1, C and V the covector and vector columns of L's basis."""
    n = l.ambient_dim
    rows = l.span.basis.entries
    cov = MatrixQ(n, n, tuple(tuple(r[n + i] for r in rows) for i in range(n)))
    try:
        cov_inv = inverse(cov)
    except ValueError:
        return None
    return MatrixQ(n, n, tuple(tuple(r[i] for r in rows) for i in range(n))) @ cov_inv


def random_structures(seed: int):
    """Dirac structures on Q^2..Q^5: graphs, forms on subspaces, and their gauges."""
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(2, 5)
        graph = from_bivector(rand_poisson(rng, n))
        carried = from_subspace_form(*rand_dirac_form_data(rng, n))
        b = rand_antisym(rng, n, height=12)
        yield from (graph, carried, gauge(graph, b), gauge(carried, b))


class TestAsBivector:
    def test_matches_the_inverse_formula(self):
        outcomes = set()
        for l in random_structures(11):
            pi = as_bivector(l)
            expected = reference_bivector(l)
            assert (pi is None) == (expected is None) == (characteristic(l).dim > 0)
            if pi is not None:
                assert pi.pi == expected
            outcomes.add(pi is None)
        assert outcomes == {True, False}

    def test_round_trips_from_bivector(self):
        rng = random.Random(12)
        for _ in range(40):
            p = rand_poisson(rng, rng.randint(1, 6), height=9)
            assert as_bivector(from_bivector(p)) == p

    def test_form_on_a_proper_subspace_is_no_graph(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 6)
            o = rand_subspace(rng, n, max_dim=n - 1)
            if o.dim == 0:
                continue
            assert as_bivector(from_subspace_form(o, MatrixQ.zeros(o.dim, o.dim))) is None


class TestGauge:
    def test_matches_the_fraction_reference(self):
        rng = random.Random(21)
        for l in random_structures(22):
            b = rand_antisym(rng, l.ambient_dim, height=12)  # denominators 1..12
            assert gauge(l, b) == fraction_gauge(l, b)
            assert gauge(gauge(l, b), -b) == l
