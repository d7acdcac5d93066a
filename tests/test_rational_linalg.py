import gc
import random
import weakref
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisdirac.rational_linalg import (
    MAX_DIGITS,
    MatrixQ,
    _integer_det,
    Subspace,
    add,
    annihilator,
    contains,
    image,
    intersect,
    inverse,
    kernel,
    linear_combination,
    rat,
    solve,
    stack,
)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def subspace_st(n: int):
    return st.integers(0, n).flatmap(
        lambda k: st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=k, max_size=k).map(
            lambda rows: Subspace.span(n, rows)
        )
    )


@pytest.mark.parametrize("text, value", [("3", Fraction(3)), ("-1/2", Fraction(-1, 2)), ("+4/6", Fraction(2, 3)), ("0/7", Fraction(0))])
def test_rat_accepts_p_over_q(text, value):
    assert rat(text) == value


def test_identity_is_built_once_per_n():
    # its rows are the unit vectors e_1, ..., e_n, as integer rows and as Fractions
    assert MatrixQ.identity(0).entries == () and MatrixQ.identity(0) == MatrixQ.zeros(0, 0)
    assert MatrixQ.identity(2).entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert MatrixQ.identity(3).ints == ((1, 0, 0), (0, 1, 0), (0, 0, 1)) and MatrixQ.identity(3).den == 1
    assert MatrixQ.identity(5) is MatrixQ.identity(5) and MatrixQ.identity(0) is MatrixQ.identity(0)
    assert all(type(a) is Fraction for row in MatrixQ.identity(5).entries for a in row)


def rref(m: MatrixQ) -> tuple[MatrixQ, int]:
    """Reduced row echelon form and rank: the canonical basis of the row space, padded
    with zero rows."""
    s = Subspace.span(m.cols, m.entries)
    return stack(s.basis, MatrixQ.zeros(m.rows - s.dim, m.cols)), s.dim


def rank(m: MatrixQ) -> int:
    return Subspace.span(m.cols, m.entries).dim


def coordinates_of(s: Subspace, v) -> tuple | None:
    """The coordinates of one vector in the canonical basis of s, or None if v is outside."""
    coords = s.coordinates_of_rows(MatrixQ(1, len(v), (v,)))
    return None if coords is None else coords.entries[0]


def _reference_rref(m: MatrixQ) -> tuple[MatrixQ, int]:
    """Gauss-Jordan elimination in Fraction arithmetic: the reference for rref."""
    work = [list(r) for r in m.entries]
    n_rows, n_cols = m.rows, m.cols
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row == n_rows:
            break
        sel = next((r for r in range(pivot_row, n_rows) if work[r][col] != 0), None)
        if sel is None:
            continue
        work[pivot_row], work[sel] = work[sel], work[pivot_row]
        inv = 1 / work[pivot_row][col]
        work[pivot_row] = [a * inv for a in work[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[pivot_row])]
        pivot_row += 1
    return MatrixQ(n_rows, n_cols, tuple(tuple(r) for r in work)), pivot_row


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7 else Fraction(0)


def _huge(rng: random.Random) -> Fraction:
    """A rational whose numerator and denominator have 61 to 89 bits before reduction."""
    num, den = (rng.getrandbits(rng.randint(60, 89)) | 1 << 60 for _ in range(2))
    return Fraction(rng.choice((-1, 1)) * num, den)


def _rand_matrix(rng: random.Random, kind: str, shape: tuple[int, int] | None = None) -> MatrixQ:
    """A seeded random matrix of the given kind, up to 7x9 unless a shape is given."""
    rows, cols = shape or (rng.randint(0, 7), rng.randint(0, 9))
    if kind == "empty":  # no rows, or rows of width 0
        return MatrixQ(0, cols, ()) if rng.random() < 0.5 else MatrixQ(rows, 0, ((),) * rows)
    entry = _huge if kind == "huge" else _small
    if kind == "deficient":  # random combinations of fewer generators
        gens = [[entry(rng) for _ in range(cols)] for _ in range(rng.randint(0, max(rows - 1, 0)))]
        data = [[sum((Fraction(rng.randint(-4, 4)) * g[j] for g in gens), Fraction(0)) for j in range(cols)]
                for _ in range(rows)]
    else:
        data = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
    if kind == "repeats" and rows:  # all-zero and duplicate rows
        for i in range(rows):
            if rng.random() < 0.3:
                data[i] = [Fraction(0)] * cols
            elif rng.random() < 0.3:
                data[i] = list(data[rng.randrange(rows)])
    if kind == "negative":  # every row's leading nonzero entry is negative
        data = [[-a for a in row] if next((a for a in row if a), 0) > 0 else row for row in data]
    return MatrixQ(rows, cols, tuple(tuple(row) for row in data))


@pytest.mark.parametrize("kind", ["empty", "dense", "repeats", "deficient", "negative", "huge"])
def test_rref_equals_fraction_elimination(kind):
    rng = random.Random(f"rref-{kind}")
    for _ in range(200 if kind == "empty" else 600):
        m = _rand_matrix(rng, kind)
        reduced, rk = rref(m)
        assert (reduced, rk) == _reference_rref(m), m
        assert all(type(a) is Fraction and a.denominator > 0 and gcd(a.numerator, a.denominator) == 1
                   for row in reduced.entries for a in row)


def _to_sympy(sympy, m: MatrixQ):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(a.numerator, a.denominator) for row in m.entries for a in row])


def _from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@pytest.mark.parametrize("kind", ["dense", "repeats", "deficient", "negative", "huge"])
def test_rref_rank_and_kernel_match_sympy(kind):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"sympy-rref-{kind}")
    for _ in range(40):
        m = _rand_matrix(rng, kind)
        sm = _to_sympy(sympy, m)
        expected, expected_pivots = sm.rref()
        reduced, rk = rref(m)
        assert reduced.entries == tuple(tuple(_from_sympy(expected[i, j]) for j in range(m.cols)) for i in range(m.rows))
        assert tuple(next(j for j, a in enumerate(row) if a) for row in reduced.entries[:rk]) == tuple(expected_pivots)
        assert rank(m) == sm.rank()
        assert kernel(m) == Subspace.span(m.cols, [[_from_sympy(x) for x in v] for v in sm.nullspace()])


@pytest.mark.parametrize("kind", ["dense", "repeats", "deficient", "negative", "huge"])
def test_integer_det_matches_sympy(kind):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"sympy-det-{kind}")
    for size in [0, 1] + [rng.randint(2, 6) for _ in range(30)]:
        m = _rand_matrix(rng, kind, (size, size))
        assert _integer_det(m.ints) * sympy.Integer(1) == _to_sympy(sympy, m).det() * m.den ** size


@pytest.mark.parametrize("kind", ["dense", "repeats", "deficient"])
def test_solve_matches_sympy(kind):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"sympy-solve-{kind}")
    outcomes, sizes = set(), set()
    for _ in range(40):
        m = _rand_matrix(rng, kind, (rng.randint(1, 6), rng.randint(1, 6)))
        # 0 to 4 right-hand sides in one call, each in m's image or drawn at random
        bs = [m.matvec([_small(rng) for _ in range(m.cols)]) if rng.random() < 0.5
              else tuple(_small(rng) for _ in range(m.rows)) for _ in range(rng.randint(0, 4))]
        xs = solve(m, MatrixQ(len(bs), m.rows, tuple(bs)))
        sizes.add(len(bs))
        kinds, solutions = set(), []
        for b in bs:
            x = solve(m, MatrixQ(1, m.rows, (b,)))
            try:
                expected, params = _to_sympy(sympy, m).gauss_jordan_solve(sympy.Matrix(b))
            except ValueError:  # sympy: "Linear system has no solution"
                assert x is None
                kinds.add("inconsistent")
                continue
            # sympy's general solution with every free parameter at 0 is the
            # particular solution solve returns
            particular = expected.subs({t: 0 for t in params})
            assert x.entries == (tuple(_from_sympy(particular[j]) for j in range(m.cols)),)
            solutions.append(x.entries[0])
            kinds.add("consistent")
        # all right-hand sides at once: every solution, or None if any system is inconsistent
        assert xs is None if "inconsistent" in kinds else xs.entries == tuple(solutions)
        outcomes |= kinds | ({"mixed"} if len(kinds) == 2 else set())
    assert outcomes == {"consistent", "inconsistent", "mixed"} and sizes == set(range(5))


@pytest.mark.parametrize("kind", ["dense", "deficient", "huge"])
def test_inverse_matches_sympy(kind):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"sympy-inverse-{kind}")
    for _ in range(30):
        n = rng.randint(1, 6)
        m = _rand_matrix(rng, kind, (n, n))
        sm = _to_sympy(sympy, m)
        if sm.det() == 0:
            with pytest.raises(ValueError, match="singular"):
                inverse(m)
            continue
        expected = sm.inv()
        assert inverse(m).entries == tuple(tuple(_from_sympy(expected[i, j]) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("kind", ["empty", "dense", "repeats", "huge"])
def test_sums_and_scalings_equal_the_fraction_formulas(kind):
    rng = random.Random(f"combination-{kind}")
    for _ in range(60):
        a = _rand_matrix(rng, kind)
        b, c = (_rand_matrix(rng, "dense" if kind == "empty" else kind, (a.rows, a.cols)) for _ in range(2))
        k1, k2, k3 = _small(rng), rng.randint(-3, 3), _huge(rng) if kind == "huge" else _small(rng)
        expected = tuple(tuple(k1 * x + k2 * y + k3 * z for x, y, z in zip(*rows)) for rows in zip(a.entries, b.entries, c.entries))
        results = {
            "combination": (linear_combination((k1, a), (k2, b), (k3, c)), expected),
            "+": (a + b, tuple(tuple(x + y for x, y in zip(*rows)) for rows in zip(a.entries, b.entries))),
            "-": (a - b, tuple(tuple(x - y for x, y in zip(*rows)) for rows in zip(a.entries, b.entries))),
            "scale": (a.scale("-3/4"), tuple(tuple(Fraction(-3, 4) * x for x in row) for row in a.entries)),
        }
        for name, (got, want) in results.items():
            assert (got.rows, got.cols) == (a.rows, a.cols), name
            assert got.entries == want, name
            assert all(type(x) is Fraction and gcd(x.numerator, x.denominator) == 1 for row in got.entries for x in row)


class RefMatrix:
    """The Fraction-entry matrix that the integer form replaced: entries stored as
    Fractions and every operation an entrywise formula.  The reference for MatrixQ."""

    def __init__(self, rows: int, cols: int, entries):
        self.rows, self.cols = rows, cols
        self.entries = tuple(tuple(Fraction(a) for a in r) for r in entries)

    @staticmethod
    def of(m: MatrixQ) -> "RefMatrix":
        return RefMatrix(m.rows, m.cols, m.entries)

    def __matmul__(self, other):
        return RefMatrix(self.rows, other.cols, [[sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                                                     Fraction(0)) for j in range(other.cols)] for i in range(self.rows)])

    def transpose(self):
        return RefMatrix(self.cols, self.rows, [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def combination(self, *terms):
        """self's shape, entry (i, j) the sum of c M[i][j] over the terms (c, M)."""
        return RefMatrix(self.rows, self.cols, [[sum((Fraction(c) * m.entries[i][j] for c, m in terms), Fraction(0))
                                                 for j in range(self.cols)] for i in range(self.rows)])

    def solve(self, bs):
        """Row j solves self x = b_j with free variables 0, by Gauss-Jordan on [self | b_j]
        in Fractions; None if any b_j is inconsistent."""
        solutions = []
        for b in bs.entries:
            reduced, rk = _reference_rref(MatrixQ(self.rows, self.cols + 1, tuple(r + (c,) for r, c in zip(self.entries, b))))
            x = [Fraction(0)] * self.cols
            for row in reduced.entries[:rk]:
                c = next(j for j, a in enumerate(row) if a)
                if c == self.cols:
                    return None
                x[c] = row[self.cols]
            solutions.append(x)
        return RefMatrix(bs.rows, self.cols, solutions)


def _assert_matches(got: MatrixQ, want: RefMatrix) -> None:
    """got equals the reference, and is in the normal form: den > 0 sharing no factor with every entry."""
    assert (got.rows, got.cols) == (want.rows, want.cols) and got.entries == want.entries
    assert got.den > 0 and gcd(got.den, *(a for r in got.ints for a in r)) == 1
    assert all(type(a) is int for r in got.ints for a in r)


def _shape_pair(rng: random.Random, kind: str) -> tuple[int, int]:
    if kind == "empty":
        return (0, rng.randint(0, 4)) if rng.random() < 0.5 else (rng.randint(0, 4), 0)
    return rng.randint(1, 5), rng.randint(1, 5)


@pytest.mark.parametrize("kind", ["empty", "dense", "deficient", "huge"])
def test_matrix_operations_equal_the_fraction_reference(kind):
    rng = random.Random(f"reference-matrix-{kind}")
    seen = set()
    for _ in range(40):
        rows, cols = _shape_pair(rng, kind)
        a = _rand_matrix(rng, "dense" if kind == "empty" else kind, (rows, cols))
        b, c = (_rand_matrix(rng, "dense" if kind == "empty" else kind, (rows, cols)) for _ in range(2))
        inner = rng.randint(0, 4)
        right = _rand_matrix(rng, "huge" if kind == "huge" else "dense", (cols, inner))
        ra, rb, rc, rright = map(RefMatrix.of, (a, b, c, right))
        k1, k3 = (_huge(rng) if kind == "huge" else _small(rng) for _ in range(2))
        _assert_matches(a @ right, ra @ rright)
        _assert_matches(a.transpose(), ra.transpose())
        _assert_matches(a - b, ra.combination((1, ra), (-1, rb)))
        _assert_matches(a.scale("-7/3"), ra.combination((Fraction(-7, 3), ra)))
        _assert_matches(linear_combination((k1, a), (-2, b), (k3, c)), ra.combination((k1, ra), (-2, rb), (k3, rc)))
        # right-hand sides in a's image, then one drawn at random (often inconsistent)
        bs = MatrixQ.from_rows([a.matvec([_small(rng) for _ in range(cols)]) for _ in range(rng.randint(0, 3))], cols=rows)
        _assert_matches(solve(a, bs), ra.solve(bs))
        b_any = MatrixQ.from_rows([[_small(rng) for _ in range(rows)]], cols=rows)
        expected = ra.solve(b_any)
        seen.add("inconsistent" if expected is None else "consistent")
        if expected is None:
            assert solve(a, b_any) is None and solve(a, stack(bs, b_any)) is None
        else:
            _assert_matches(solve(a, b_any), expected)
        if rows == cols:
            seen.add("singular" if rank(a) < rows else "invertible")
            if rank(a) < rows:
                with pytest.raises(ValueError, match="singular"):
                    inverse(a)
            else:
                _assert_matches(inverse(a), ra.solve(RefMatrix.of(MatrixQ.identity(rows))).transpose())
    assert {"consistent", "inconsistent", "invertible"} <= seen
    assert kind in ("empty", "huge") or "singular" in seen


@pytest.mark.parametrize("kind", ["edge", "small", "huge"])
def test_subspace_basis_and_coordinates_equal_the_fraction_reference(kind):
    rng = random.Random(f"reference-coordinates-{kind}")
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = _rand_rows(rng, kind, n)
        s = Subspace.span(n, rows)
        ref_basis = _ref_span(n, rows)
        _assert_matches(s.basis, RefMatrix(len(ref_basis), n, ref_basis))
        # coordinates of combinations of the basis are their coefficients; a row outside gives None
        k = rng.randint(0, 3)
        coeffs = RefMatrix(k, s.dim, [[_huge(rng) if kind == "huge" else _small(rng) for _ in range(s.dim)] for _ in range(k)])
        inside = coeffs @ RefMatrix(len(ref_basis), n, ref_basis)
        _assert_matches(s.coordinates_of_rows(MatrixQ(inside.rows, n, inside.entries)), coeffs)
        v = tuple(_small(rng) for _ in range(n))
        outside = len(_ref_span(n, list(ref_basis) + [v])) > len(ref_basis)
        mixed = MatrixQ(inside.rows + 1, n, inside.entries + (v,))
        assert (s.coordinates_of_rows(mixed) is None) == outside
        seen.add(outside)
    assert seen == {True, False}


def test_products_whose_denominators_cancel_are_integer_matrices():
    rng = random.Random("cancelling-products")
    for _ in range(30):
        q = rng.getrandbits(80) | 1 << 79
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = MatrixQ(n, k, tuple(tuple(Fraction(rng.randint(-9, 9), q) for _ in range(k)) for _ in range(n)))
        b = MatrixQ(k, m, tuple(tuple(q * rng.randint(-9, 9) for _ in range(m)) for _ in range(k)))
        product = a @ b
        _assert_matches(product, RefMatrix.of(a) @ RefMatrix.of(b))
        assert product.den == 1
        square = _rand_matrix(rng, "huge", (n, n))
        if rank(square) == n:
            assert square @ inverse(square) == MatrixQ.identity(n) == inverse(square) @ square


def test_equal_matrices_built_by_different_routes_are_equal_and_hash_equal():
    rng = random.Random("routes")
    for _ in range(40):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        m = _rand_matrix(rng, rng.choice(["dense", "huge"]), (rows, cols))
        twice = m.scale(2)
        routes = [
            MatrixQ.from_rows([[str(a) for a in r] for r in m.entries], cols=cols),
            m @ MatrixQ.identity(cols),
            MatrixQ.identity(rows) @ m,
            m.transpose().transpose(),
            twice @ MatrixQ.identity(cols).scale(Fraction(1, 2)),
            twice - m,
            linear_combination((Fraction(1, 3), m), (Fraction(2, 3), m)),
            -(-m),
        ]
        for other in routes:
            assert other == m and hash(other) == hash(m)
            assert (other.ints, other.den) == (m.ints, m.den)
    assert MatrixQ.zeros(2, 3) == MatrixQ(2, 3, ((Fraction(0, 5),) * 3,) * 2) and MatrixQ.zeros(2, 3).den == 1
    assert MatrixQ.zeros(0, 3) != MatrixQ.zeros(0, 2) and MatrixQ.zeros(3, 0) != MatrixQ.zeros(2, 0)


@pytest.mark.parametrize("kind", ["dense", "huge"])
def test_is_antisymmetric_equals_the_entrywise_test(kind):
    rng = random.Random(f"antisymmetric-{kind}")
    entry = _huge if kind == "huge" else _small
    verdicts = set()
    for _ in range(200):
        n = rng.randint(0, 6)
        upper = {(i, j): entry(rng) for i in range(n) for j in range(i + 1, n)}
        data = [[upper[i, j] if i < j else -upper[j, i] if i > j else Fraction(0) for j in range(n)] for i in range(n)]
        if n and rng.random() < 0.5:  # one entry off: a diagonal one, or one of a pair
            i, j = rng.randrange(n), rng.randrange(n)
            data[i][j] += Fraction(1, rng.randint(1, 3))
        m = MatrixQ(n, n, tuple(map(tuple, data)))
        expected = all(m[i, j] == -m[j, i] for i in range(n) for j in range(n))
        assert m.is_antisymmetric() == expected
        verdicts.add(expected)
    assert verdicts == {True, False}
    assert not MatrixQ.zeros(2, 3).is_antisymmetric() and MatrixQ.zeros(0, 0).is_antisymmetric()


FLOAT_REFUSAL = r"^cannot interpret 0\.[15] as a rational \(floats are not accepted\)$"


def test_floats_are_refused_where_a_callers_vector_enters():
    m = MatrixQ.from_rows([[0, 1], [-1, 0]])
    line = Subspace.span(2, [[1, 0]])
    with pytest.raises(TypeError, match=FLOAT_REFUSAL):
        m.matvec((0.1, 0))
    # ints are exact, and still accepted
    assert m.matvec((1, 0)) == (0, -1) and solve(m, MatrixQ.from_rows([(1, 0)])).entries == ((0, 1),)
    assert line.coordinates_of_rows(MatrixQ.from_rows([(3, 0)])).entries == ((3,),)


def test_a_float_entry_is_refused_when_the_matrix_is_built():
    # the right-hand sides of solve and the vectors given for coordinates are matrices,
    # so their floats are refused here too
    line = Subspace.span(2, [[1, 0]])
    for build in (
        lambda: MatrixQ(1, 2, ((0.1, 0),)),
        lambda: MatrixQ(2, 2, ((Fraction(1), 0), (0, 0.5))),
        lambda: MatrixQ.from_rows([[1, 0], [0.5, 0]]),
        lambda: Subspace.span(2, [[0.5, 1]]),
        lambda: line.coordinates_of_rows(MatrixQ.from_rows([(0.5, 0.25)])),
        lambda: line.coordinates_of_rows(MatrixQ.from_rows([(0.5, 0)])),
        lambda: line.coordinates_of_rows(MatrixQ.from_rows([(0, 0.5)])),
    ):
        with pytest.raises(TypeError, match=FLOAT_REFUSAL):
            build()


def test_annihilator_is_built_once_per_subspace_without_a_reference_cycle():
    s = Subspace.span(3, [[1, 2, 3]])
    ann = annihilator(s)
    assert annihilator(s) is ann and annihilator(Subspace.span(3, [[1, 2, 3]])) == ann
    assert annihilator(ann) == s and annihilator(ann) is not s
    # with the collector off, dropping the last reference frees s at once: no cycle holds it
    gc.disable()
    try:
        alive = weakref.ref(s)
        del s
        assert alive() is None
    finally:
        gc.enable()


def test_rref_identity():
    m = MatrixQ.identity(3)
    reduced, rk = rref(m)
    assert reduced == m and rk == 3


def test_rref_zero():
    m = MatrixQ.zeros(2, 4)
    reduced, rk = rref(m)
    assert reduced == m and rk == 0


def test_rref_dependent_rows():
    _, rk = rref(MatrixQ.from_rows([[1, 2], [2, 4]]))
    assert rk == 1


def test_kernel_zero_map():
    assert kernel(MatrixQ.zeros(3, 3)) == Subspace.full(3)


def test_kernel_identity():
    assert kernel(MatrixQ.identity(4)) == Subspace.zero(4)


def test_kernel_single_row():
    assert kernel(MatrixQ.from_rows([[1, -1]])) == Subspace.span(2, [[1, 1]])


def test_annihilator_of_axis():
    s = Subspace.span(2, [[1, 0]])
    ann = annihilator(s)
    assert ann == Subspace.span(2, [[0, 1]], dual=True)
    assert ann.dual


def test_intersection_of_planes():
    a = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.span(3, [[0, 1, 0], [0, 0, 1]])
    assert intersect(a, b) == Subspace.span(3, [[0, 1, 0]])


def test_solve_consistent_and_inconsistent():
    m = MatrixQ.from_rows([[1, 1], [2, 2]])
    assert solve(m, MatrixQ.from_rows([(1, 2)])) == MatrixQ.from_rows([(1, 0)])
    assert solve(m, MatrixQ.from_rows([(1, 3)])) is None
    assert solve(m, MatrixQ.from_rows([(1, 2), (1, 3)])) is None
    assert solve(m, MatrixQ.zeros(0, 2)) == MatrixQ.zeros(0, 2)


@settings(max_examples=150)
@given(st.data())
def test_canonicity_of_representation(data):
    n = data.draw(st.integers(1, 5))
    s = data.draw(subspace_st(n))
    # rebuild from randomly recombined generators: identical representation
    mixers = data.draw(
        st.lists(st.lists(fractions, min_size=max(s.dim, 1), max_size=max(s.dim, 1)), min_size=3, max_size=3)
    )
    rows = [
        tuple(sum(c * r[j] for c, r in zip(mix, s.basis.entries)) for j in range(n))
        for mix in mixers
    ] + list(s.basis.entries)
    assert Subspace.span(n, rows) == s


@settings(max_examples=150)
@given(st.data())
def test_double_annihilator(data):
    n = data.draw(st.integers(1, 5))
    s = data.draw(subspace_st(n))
    assert annihilator(annihilator(s)) == s


@settings(max_examples=150)
@given(st.data())
def test_dimension_formula(data):
    n = data.draw(st.integers(1, 5))
    a = data.draw(subspace_st(n))
    b = data.draw(subspace_st(n))
    assert a.dim + b.dim == add(a, b).dim + intersect(a, b).dim


# Reference subspace calculus in Fraction arithmetic: the formulas the integer
# kernel replaced.  A reference subspace is its tuple of reduced basis rows.

def _ref_span(n: int, rows) -> tuple:
    reduced, rk = _reference_rref(MatrixQ(len(rows), n, tuple(tuple(r) for r in rows)))
    return reduced.entries[:rk]


def _ref_annihilator(n: int, basis: tuple) -> tuple:
    """Kernel of the basis matrix: v[free] = 1, v[pivot_r] = -basis_r[free]."""
    pivots = [next(j for j, a in enumerate(r) if a) for r in basis]
    vectors = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, p in zip(basis, pivots):
            v[p] = -r[free]
        vectors.append(v)
    return _ref_span(n, vectors)


def _ref_intersect(n: int, a: tuple, b: tuple) -> tuple:
    return _ref_annihilator(n, _ref_span(n, _ref_annihilator(n, a) + _ref_annihilator(n, b)))


def _ref_matvec(m: MatrixQ, v) -> tuple:
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m.entries)


def _rand_rows(rng: random.Random, kind: str, n: int) -> list:
    """Spanning rows of a seeded random subspace of Q^n."""
    entry = _huge if kind == "huge" else _small
    k = rng.randint(0, n + 1)
    if kind == "edge":  # the zero space, the full space, or repeated and zero rows
        choice = rng.randrange(3)
        if choice < 2:
            return [] if choice == 0 else [list(e) for e in MatrixQ.identity(n).entries]
        row = [entry(rng) for _ in range(n)]
        return [row, [Fraction(0)] * n, [3 * a for a in row]][: rng.randint(1, 3)]
    gens = [[entry(rng) for _ in range(n)] for _ in range(rng.randint(0, n))]
    # combinations of fewer generators than rows make rank deficiency common
    return [[sum((Fraction(rng.randint(-3, 3)) * g[j] for g in gens), Fraction(0)) for j in range(n)] for _ in range(k)]


def _is_canonical(s: Subspace) -> bool:
    for row in s.rows:
        lead = next(a for a in row if a)
        if not (all(type(a) is int for a in row) and lead > 0 and gcd(*row) == 1):
            return False
    return True


@pytest.mark.parametrize("kind, pairs", [("small", 1000), ("edge", 600), ("huge", 400)])
def test_subspace_calculus_equals_fraction_formulas(kind, pairs):
    rng = random.Random(f"subspaces-{kind}")
    for _ in range(pairs):
        n = rng.randint(1, 4 if kind == "huge" else 6)
        dual = rng.random() < 0.5
        rows_a, rows_b = _rand_rows(rng, kind, n), _rand_rows(rng, kind, n)
        a, b = Subspace.span(n, rows_a, dual), Subspace.span(n, rows_b, dual)
        ref_a, ref_b = _ref_span(n, rows_a), _ref_span(n, rows_b)
        assert _is_canonical(a) and _is_canonical(b)
        assert a.basis.entries == ref_a and b.basis.entries == ref_b and a.dual == dual
        meet = intersect(a, b)
        assert meet.basis.entries == _ref_intersect(n, ref_a, ref_b) and meet.dual == dual and _is_canonical(meet)
        assert add(a, b).basis.entries == _ref_span(n, ref_a + ref_b)
        assert annihilator(a).basis.entries == _ref_annihilator(n, ref_a) and annihilator(a).dual != dual
        assert contains(a, b) == (len(_ref_span(n, ref_a + ref_b)) == len(ref_a))
        # coordinates: inside a they are the combination's coefficients and
        # solve(basis^T, v); outside, None
        coeffs = [_small(rng) for _ in ref_a]
        inside = tuple(sum((c * r[j] for c, r in zip(coeffs, ref_a)), Fraction(0)) for j in range(n))
        expected = solve(a.basis.transpose(), MatrixQ(1, n, (inside,))).entries[0] if ref_a else ()
        assert coordinates_of(a, inside) == tuple(coeffs) == expected
        v = tuple(_small(rng) for _ in range(n))
        v_inside = len(_ref_span(n, ref_a + (v,))) == len(ref_a)
        assert (coordinates_of(a, v) is not None) == v_inside
        rows = [inside, v] if rng.random() < 0.5 else [v, inside]
        coords = a.coordinates_of_rows(MatrixQ(2, n, tuple(rows)))
        assert (None if coords is None else coords.entries) == (tuple(coordinates_of(a, r) for r in rows) if v_inside else None)
        assert a.coordinates_of_rows(MatrixQ(2, n, (inside, inside))).entries == (tuple(coeffs),) * 2
        assert a.coordinates_of_rows(MatrixQ.zeros(0, n)) == MatrixQ.zeros(0, a.dim)
        # image under a map Q^n -> Q^t
        t = rng.randint(1, 5)
        m = MatrixQ(t, n, tuple(tuple(_small(rng) for _ in range(n)) for _ in range(t)))
        assert image(m, a, dual).basis.entries == _ref_span(t, [_ref_matvec(m, r) for r in ref_a])


def test_subspace_rows_are_the_primitive_reduced_rows():
    s = Subspace.span(3, [["-1/2", "1/3", "0"], ["2", "0", "4/5"]])
    assert s.rows == ((5, 0, 2), (0, 5, 3))
    assert s.basis.entries == ((1, 0, Fraction(2, 5)), (0, 1, Fraction(3, 5)))
    assert s == Subspace(3, ((5, 0, 2), (0, 5, 3))) and hash(s) == hash(Subspace(3, ((5, 0, 2), (0, 5, 3))))


def test_intersection_dimension_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("sympy-intersect")
    for _ in range(100):
        n = rng.randint(1, 5)
        rows_a, rows_b = _rand_rows(rng, "small", n), _rand_rows(rng, "small", n)
        a, b = Subspace.span(n, rows_a), Subspace.span(n, rows_b)

        def sympy_rank(rows):
            return _to_sympy(sympy, MatrixQ(len(rows), n, tuple(tuple(r) for r in rows))).rank() if rows else 0

        assert intersect(a, b).dim == sympy_rank(rows_a) + sympy_rank(rows_b) - sympy_rank(rows_a + rows_b)


def test_rat_caps_digits():
    assert rat("-" + "9" * MAX_DIGITS) == -(10 ** MAX_DIGITS - 1)
    assert rat("1/" + "9" * MAX_DIGITS).denominator == 10 ** MAX_DIGITS - 1
