import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import compose
from poisdirac import polynomials
from poisdirac.errors import NotUnimodularError, PreconditionError, SpaceMismatchError
from poisdirac.polynomials import (
    _VAR_RE, MAX_EXPONENT, Poly, PolyMap, _tokenize, compose_map, poly_matrix_det, poly_matrix_inverse, values_at,
)
from poisdirac.rational_linalg import check_digits

X3 = ("x1", "x2", "x3")

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def poly_st(variables=X3, max_terms=4, max_power=3):
    n = len(variables)
    exponent = st.tuples(*([st.integers(0, max_power)] * n))
    return st.dictionaries(exponent, fractions, max_size=max_terms).map(lambda d: Poly.make(variables, d))


def test_partial_derivative_product():
    p = Poly.parse("x1^2*x2", X3)
    assert p.partial("x1") == Poly.parse("2*x1*x2", X3)


def test_partial_derivative_absent_variable():
    assert Poly.parse("x1^2", X3).partial("x3").is_zero()


def test_partial_unknown_variable_rejected():
    with pytest.raises(ValueError):
        Poly.parse("x1", X3).partial("z9")


def test_product_difference_of_squares():
    left = Poly.parse("x1+x2", X3) * Poly.parse("x1-x2", X3)
    assert left == Poly.parse("x1^2-x2^2", X3)


def test_evaluate_exactly():
    p = Poly.parse("x1^2+x2", ("x1", "x2"))
    assert values_at(((p,),), (Fraction(3), Fraction(1, 2))) == ((Fraction(19, 2),),)


def test_jacobian_of_identity():
    m = PolyMap.identity(X3)
    point = (Fraction(1), Fraction(2), Fraction(3))
    assert m.jacobian_at(point) == m.jacobian_at(point).identity(3)


def test_jacobian_of_curve():
    m = PolyMap.parse(["t1^2", "0", "t1", "0"], ("t1",))
    jac = m.jacobian_at((Fraction(1),))
    assert [row[0] for row in jac.entries] == [2, 0, 1, 0]


def test_compose_identity():
    p = Poly.parse("x1^2", X3)
    assert compose(p, PolyMap.identity(X3)) == p


def test_compose_diagonal():
    p = Poly.parse("x1*x2", ("x1", "x2"))
    diag = PolyMap.parse(["t1", "t1"], ("t1",))
    assert compose(p, diag) == Poly.parse("t1^2", ("t1",))


def test_compose_constant():
    p = Poly.parse("5", ("x1",))
    m = PolyMap.parse(["t1^3"], ("t1",))
    assert compose(p, m) == Poly.parse("5", ("t1",))


def test_compose_arity_mismatch_rejected():
    with pytest.raises(SpaceMismatchError, match="^map composition arity mismatch$"):
        compose_map(PolyMap.parse(["x1"], ("x1",)), PolyMap.parse(["t1", "t1"], ("t1",)))


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        Poly.parse("x9", X3)


def test_parse_rejects_missing_star():
    with pytest.raises(ValueError):
        Poly.parse("2x1", X3)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        Poly.parse("1/0*x1", X3)


@pytest.mark.parametrize("text", [f"x1^{MAX_EXPONENT + 1}", f"x2*x1^{MAX_EXPONENT}*x1", "3*x3^100000000000000000000"])
def test_parse_rejects_exponent_above_maximum(text):
    with pytest.raises(ValueError, match="exceeds the maximum"):
        Poly.parse(text, X3)


@pytest.mark.parametrize("text", ["0", " 0", "+0", "-0", "00", "0*x1", "0/7"])
def test_zero_texts_parse_to_the_zero_polynomial(text, monkeypatch):
    tokenized, tokenize = [], polynomials._tokenize
    monkeypatch.setattr(polynomials, "_tokenize", lambda t: tokenized.append(t) or tokenize(t))
    p = Poly.parse(text, X3)
    assert (p.variables, p.nums, p.den, str(p)) == (X3, (), 1, "0") and p == Poly.zero(X3)
    assert tokenized == ([] if text == "0" else [text])  # only the text "0" skips the grammar


def test_a_zero_term_of_an_unknown_variable_is_still_rejected():
    with pytest.raises(ValueError, match="unknown variable 'x9'"):
        Poly.parse("0*x9", X3)


def test_parse_accepts_the_maximum_exponent():
    assert Poly.parse(f"x1^{MAX_EXPONENT}*x2^{MAX_EXPONENT}", X3).terms == (((MAX_EXPONENT, MAX_EXPONENT, 0), Fraction(1)),)


def fraction_parse(text, variables):
    """The parser on Fraction coefficients that `Poly.parse` replaced, kept as its reference."""
    variables = tuple(variables)
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial string")
    out = {}
    pos = 0
    sign = Fraction(1)
    if tokens[pos] in ("+", "-"):
        sign = Fraction(-1) if tokens[pos] == "-" else Fraction(1)
        pos += 1
    while True:
        coeff, exps, pos = fraction_parse_term(tokens, pos, variables)
        e = tuple(exps)
        out[e] = out.get(e, Fraction(0)) + sign * coeff
        if pos == len(tokens):
            break
        if tokens[pos] not in ("+", "-"):
            raise ValueError(f"expected '+' or '-' at token {pos} of {text!r}")
        sign = Fraction(-1) if tokens[pos] == "-" else Fraction(1)
        pos += 1
    return Poly.make(variables, out)


def fraction_parse_term(tokens, pos, variables):
    coeff = Fraction(1)
    exps = [0] * len(variables)
    saw_factor = False
    while pos < len(tokens):
        tok = tokens[pos]
        if tok in ("+", "-"):
            break
        if tok == "*":
            if not saw_factor:
                raise ValueError("term cannot start with '*'")
            if pos + 1 == len(tokens) or tokens[pos + 1] in ("+", "-", "*"):
                raise ValueError("'*' must be followed by a factor")
            pos += 1
            continue
        if saw_factor and tokens[pos - 1] != "*":
            raise ValueError(f"missing '*' before {tok!r}")
        if _VAR_RE.fullmatch(tok):
            if tok not in variables:
                raise ValueError(f"unknown variable {tok!r} (context: {variables})")
            idx = variables.index(tok)
            power = 1
            if pos + 1 < len(tokens) and tokens[pos + 1] == "^":
                if pos + 2 >= len(tokens) or not tokens[pos + 2].isdigit():
                    raise ValueError("'^' must be followed by a nonnegative integer")
                power = int(tokens[pos + 2])
                pos += 2
            exps[idx] += power
            if exps[idx] > MAX_EXPONENT:
                raise ValueError(f"exponent {exps[idx]} of {tok} exceeds the maximum {MAX_EXPONENT}")
            pos += 1
        else:
            check_digits(tok)
            try:
                coeff *= Fraction(tok)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in coefficient {tok!r}") from None
            pos += 1
        saw_factor = True
    if not saw_factor:
        raise ValueError("empty term")
    return coeff, exps, pos


def parse_outcome(parse, text):
    """The parsed Poly, or the type and message of the exception raised."""
    try:
        return parse(text, X3)
    except Exception as exc:  # every exception type is compared, not only ValueError
        return type(exc), str(exc)


BIG_NUM, BIG_DEN = "9" * 999 + "7", "1" + "0" * 998 + "3"
VALID_PARSES = [
    "-x1", "+x2", "- 3/4*x1*x2^2 + 5/6", "6/4", "2*3/4*x1*5", "007*x1 + 0/05*x2 + 0012/0008", "x1^0", "x1^0*x2^00",
    "x1 + x1", "x1 - x1", "2*x1 - x1 - x1 + 3", "1/2*x1 + 1/3*x1 - 5/6*x1", "x2*x1 + x1*x2 - 1/4*x2*x1", "0", "-0",
    "0*x1 + x2", "-0*x3 - 0", f"x1^{MAX_EXPONENT // 2}*x1^{MAX_EXPONENT // 2}", f"x1^{MAX_EXPONENT - 1}*x2*x1",
    f"{BIG_NUM}/{BIG_DEN}*x1 - {BIG_NUM}*x2 + 1/{BIG_DEN}", f"{BIG_NUM}/{BIG_DEN}*x3 - {BIG_NUM}/{BIG_DEN}*x3",
]
MALFORMED_PARSES = [
    "", "  ", "+", "*x1", "x1 x2", "x1^", "x1^-1", "^2", "x1*^", "1/0", "0/0*x1", "x99", "x1 +", "x1 - - x2", "2x1",
    "x1 $ x2", "1.5*x1", "x1 ** x2", "x1*", "x1*+x2", "1" * 1001, f"1/{'3' * 1001}*x1", "2*" + "1" * 5000, f"1/{'3' * 5000}", f"x1^{MAX_EXPONENT // 2 + 4}*x1^{MAX_EXPONENT // 2 + 4}",
]


@pytest.mark.parametrize("text", VALID_PARSES)
def test_parse_matches_the_fraction_parser_on_valid_strings(text):
    got, expected = Poly.parse(text, X3), fraction_parse(text, X3)
    assert got == expected
    assert all(type(c) is Fraction and c for _, c in got.terms)


@pytest.mark.parametrize("text", MALFORMED_PARSES)
def test_parse_raises_what_the_fraction_parser_raises_on_malformed_strings(text):
    expected = parse_outcome(fraction_parse, text)
    assert isinstance(expected, tuple), expected
    assert parse_outcome(Poly.parse, text) == expected


@settings(max_examples=300)
@given(st.lists(st.sampled_from(["x1", "x3", "x9", "+", "-", "*", "^", "2", "0", "3/4", "1/0", "007", " ", "33"]), max_size=9))
def test_parse_agrees_with_the_fraction_parser_on_random_token_strings(pieces):
    text = "".join(pieces)
    assert parse_outcome(Poly.parse, text) == parse_outcome(fraction_parse, text)


@settings(max_examples=150)
@given(poly_st())
def test_print_parse_round_trip(p):
    assert Poly.parse(str(p), X3) == p


@settings(max_examples=150)
@given(poly_st(), st.tuples(fractions, fractions, fractions))
def test_eval_after_compose(p, point):
    inner = PolyMap.parse(["t1+t2", "t1*t2", "t2^2"], ("t1", "t2"))
    q = compose(p, inner)
    t = (point[0], point[1])
    assert values_at(((q,),), t) == values_at(((p,),), inner.evaluate(t))


@settings(max_examples=150)
@given(poly_st())
def test_a_sum_with_a_zero_operand_is_the_other_operand_field_for_field(p):
    zero = Poly.zero(X3)
    negated = Poly.make(X3, {e: -c for e, c in p.terms})
    for got, expected in ((p + zero, p), (p - zero, p), (zero + p, p), (zero - p, negated), (zero - zero, zero)):
        assert (got.nums, got.den) == (expected.nums, expected.den)


def test_a_sum_with_a_zero_operand_still_checks_the_contexts():
    other = Poly.zero(("x1", "x2"))
    for left, right in ((Poly.parse("x1", X3), other), (other, Poly.parse("x1", X3)), (Poly.zero(X3), other)):
        for sum_or_difference in (left.__add__, left.__sub__):
            with pytest.raises(SpaceMismatchError, match="^variable contexts differ"):
                sum_or_difference(right)


@settings(max_examples=150)
@given(poly_st())
def test_mixed_partials_commute(p):
    assert p.partial("x1").partial("x2") == p.partial("x2").partial("x1")


@settings(max_examples=60)
@given(st.data())
def test_chain_rule_at_points(data):
    comps = [data.draw(poly_st(("t1", "t2"), max_terms=3, max_power=2)) for _ in range(2)]
    inner = PolyMap(("t1", "t2"), tuple(comps))
    outer = PolyMap(("x1", "x2"), tuple(
        data.draw(poly_st(("x1", "x2"), max_terms=3, max_power=2)) for _ in range(2)
    ))
    point = (data.draw(fractions), data.draw(fractions))
    composed = compose_map(outer, inner)
    left = composed.jacobian_at(point)
    right = outer.jacobian_at(inner.evaluate(point)) @ inner.jacobian_at(point)
    assert left == right


# Determinant and adjugate.  The plain cofactor expansion below is the
# reference the memoized expansion in poly_matrix_det/poly_matrix_inverse
# must agree with exactly.

X2 = ("x1", "x2")


def cofactor_det(entries):
    size = len(entries)
    if size == 1:
        return entries[0][0]
    total = Poly.zero(entries[0][0].variables)
    for j in range(size):
        minor = [list(row[:j]) + list(row[j + 1:]) for row in entries[1:]]
        piece = entries[0][j] * cofactor_det(minor)
        total = total + (piece if j % 2 == 0 else -piece)
    return total


def cofactor_adjugate(entries):
    size = len(entries)
    if size == 1:
        return [[Poly.constant(entries[0][0].variables, 1)]]
    adj = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            minor = [list(row[:j]) + list(row[j + 1:]) for k, row in enumerate(entries) if k != i]
            cof = cofactor_det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def poly_matmul(a, b):
    zero = Poly.zero(a[0][0].variables)
    return [[reduce(Poly.__add__, (a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0]))]
            for i in range(len(a))]


def rand_entry(rng, density, terms=2):
    if rng.random() >= density:
        return Poly.zero(X2)
    coeffs = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, 1) for _ in X2)
        coeffs[e] = coeffs.get(e, 0) + Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Poly.make(X2, coeffs)


def rand_poly_matrix(rng, size, kind):
    """kind: dense/sparse (non-constant det), singular (zero det),
    unimodular/unimodular_sparse (nonzero constant det)."""
    if kind.startswith("unimodular"):
        density = 0.3 if kind.endswith("sparse") else 1.0
        one, zero = Poly.constant(X2, 1), Poly.zero(X2)
        lower = [[one if i == j else rand_entry(rng, density, 1) if i > j else zero for j in range(size)]
                 for i in range(size)]
        upper = [[one if i == j else rand_entry(rng, density, 1) if i < j else zero for j in range(size)]
                 for i in range(size)]
        m = poly_matmul(lower, upper)
        m[0] = [p.scale(Fraction(-3, 2)) for p in m[0]]
        return m
    density = 0.35 if kind == "sparse" else 1.0
    m = [[rand_entry(rng, density) for _ in range(size)] for _ in range(size)]
    if kind == "sparse":
        for i in range(size):
            m[i][i] = Poly.parse(f"x{i % 2 + 1} + {i + 1}", X2)
    if kind == "singular":
        factor = rand_entry(rng, 1.0)
        m[-1] = [p * factor for p in m[0]] if size > 1 else [Poly.zero(X2)]
    return m


MATRIX_KINDS = ("dense", "sparse", "singular", "unimodular", "unimodular_sparse")


def det_cases(sizes, seeds=range(2)):
    return [(size, kind, seed) for size in sizes for kind in MATRIX_KINDS for seed in seeds]


@pytest.mark.parametrize("size,kind,seed", det_cases(range(1, 7)))
def test_det_and_adjugate_match_cofactor_expansion(size, kind, seed):
    m = rand_poly_matrix(random.Random(f"{size}-{kind}-{seed}"), size, kind)
    det = poly_matrix_det(m)
    assert det == cofactor_det(m)
    if kind == "singular":
        assert det.is_zero()
    elif kind.startswith("unimodular"):
        assert det == Poly.constant(X2, Fraction(-3, 2))
        expected = [[p.scale(1 / det.constant_value()) for p in row] for row in cofactor_adjugate(m)]
        assert [list(row) for row in poly_matrix_inverse(m)] == expected
    else:
        assert not det.is_constant()
        with pytest.raises(ValueError, match="not a nonzero constant"):
            poly_matrix_inverse(m)


def sympy_matrix(sympy, m):
    symbols = sympy.symbols(X2)

    def to_sympy(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s ** k for s, k in zip(symbols, e)))
                    for e, c in p.terms), sympy.Integer(0))

    return sympy.Matrix([[to_sympy(p) for p in row] for row in m])


def from_sympy(sympy, expr):
    terms = sympy.Poly(sympy.expand(expr), *sympy.symbols(X2)).terms()
    return Poly.make(X2, {e: Fraction(int(c.p), int(c.q)) for e, c in terms})


def assert_inverse_matches_sympy(sympy, m, det, inverse):
    adjugate = sympy_matrix(sympy, m).adjugate(method="berkowitz")
    assert all(inverse[i][j].scale(det.constant_value()) == from_sympy(sympy, adjugate[i, j])
               for i in range(len(m)) for j in range(len(m)))


@pytest.mark.parametrize("size,kind,seed", det_cases(range(1, 5), seeds=[0]))
def test_det_and_adjugate_match_sympy(size, kind, seed):
    sympy = pytest.importorskip("sympy")
    m = rand_poly_matrix(random.Random(f"sympy-{size}-{kind}-{seed}"), size, kind)
    det = poly_matrix_det(m)
    assert det == from_sympy(sympy, sympy_matrix(sympy, m).det(method="berkowitz"))
    if det.is_constant() and not det.is_zero():
        assert_inverse_matches_sympy(sympy, m, det, poly_matrix_inverse(m))


# Every route of poly_matrix_inverse: constant pivots anywhere in the matrix,
# a Schur complement with no constant entry (alone or left part-way through
# the elimination), and the three rejections (two-point test, Schur
# complement, work cap).

def grid(rows):
    return [[Poly.parse(text, X2) for text in row] for row in rows]


def permuted(m, rng):
    """m with its rows and its columns shuffled: constant pivots off the diagonal."""
    rows, cols = list(range(len(m))), list(range(len(m)))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[m[i][j] for j in cols] for i in rows]


def with_unipotent_block(block, rng):
    """[[U, X], [0, block]] with its rows and columns shuffled: U is unipotent upper
    triangular and X has no constant entry, so elimination pivots on U's diagonal
    and leaves `block` as the Schur complement."""
    size, k = len(block) + 3, 3
    x1 = Poly.variable(X2, "x1")
    zero, one = Poly.zero(X2), Poly.constant(X2, 1)
    m = [[one if i == j else (rand_entry(rng, 1.0, 2) * x1 if i < j else zero) for j in range(size)] for i in range(k)]
    m += [[zero] * k + list(row) for row in block]
    return permuted(m, rng)


def counted_expansions(monkeypatch):
    """Sizes of the matrices whose full cofactor expansion poly_matrix_inverse starts."""
    sizes, minor_det = [], polynomials._minor_det

    def counting(entries, rows, cols, table):
        if len(rows) == len(entries):
            sizes.append(len(entries))
        return minor_det(entries, rows, cols, table)

    monkeypatch.setattr(polynomials, "_minor_det", counting)
    return sizes


def check_inverse(m):
    """poly_matrix_inverse agrees with the plain cofactor expansion and with sympy."""
    det = cofactor_det(m)
    if not det.is_constant() or det.is_zero():
        with pytest.raises(NotUnimodularError, match="not a nonzero constant"):
            poly_matrix_inverse(m)
        return
    inverse = [list(row) for row in poly_matrix_inverse(m)]
    assert inverse == [[p.scale(1 / det.constant_value()) for p in row] for row in cofactor_adjugate(m)]
    assert_inverse_matches_sympy(pytest.importorskip("sympy"), m, det, inverse)


@pytest.mark.parametrize("size", [2, 3, 4])
def test_inverse_pivots_on_constants_off_the_diagonal(size, monkeypatch):
    rng = random.Random(f"permuted-{size}")
    m = permuted(rand_poly_matrix(rng, size, "unimodular"), rng)
    assert not all(m[i][i].is_constant() for i in range(size))
    sizes = counted_expansions(monkeypatch)
    check_inverse(m)
    assert sizes == []


def test_each_updated_pivot_entry_is_one_accumulation(monkeypatch):
    # every other row loses f times the pivot row: one `_accumulate` of -f b per entry a
    # whose pivot-row entry b is nonzero, and no generic `sum_of_products`
    rng = random.Random("pivot-updates")
    m = permuted(rand_poly_matrix(rng, 4, "unimodular"), rng)
    accumulations, products, updates = [], [], []
    accumulate, pivot, sum_of_products = polynomials._accumulate, polynomials._pivot, polynomials.sum_of_products

    def counting_pivot(aug, r, c, rest):
        expected = sum(1 for row in aug if row is not aug[r] and row[c].nums for j in rest if aug[r][j].nums)
        before = len(accumulations), len(products)
        pivot(aug, r, c, rest)
        updates.append((len(accumulations) - before[0], len(products) - before[1], expected))

    monkeypatch.setattr(polynomials, "_accumulate", lambda *args: accumulations.append(1) or accumulate(*args))
    monkeypatch.setattr(polynomials, "sum_of_products", lambda *args: products.append(1) or sum_of_products(*args))
    monkeypatch.setattr(polynomials, "_pivot", counting_pivot)
    inverse = poly_matrix_inverse(m)
    monkeypatch.undo()
    assert len(updates) == 4 and sum(e for _, _, e in updates) > 4
    assert all(calls == expected and not generic for calls, generic, expected in updates)
    det = cofactor_det(m)
    assert [list(row) for row in inverse] == [[p.scale(1 / det.constant_value()) for p in row] for row in cofactor_adjugate(m)]


UNIMODULAR_NO_CONSTANT = [["1 + x1", "x1"], ["x1", "x1 - 1"]]  # det -1


def test_inverse_of_a_unimodular_matrix_with_no_constant_entry(monkeypatch):
    m = grid(UNIMODULAR_NO_CONSTANT)
    assert cofactor_det(m) == Poly.constant(X2, -1)
    sizes = counted_expansions(monkeypatch)
    check_inverse(m)
    assert sizes == [2]


@pytest.mark.parametrize("seed", range(3))
def test_inverse_finishes_with_a_schur_complement(seed, monkeypatch):
    m = with_unipotent_block(grid(UNIMODULAR_NO_CONSTANT), random.Random(f"schur-{seed}"))
    sizes = counted_expansions(monkeypatch)
    check_inverse(m)
    assert sizes == [2]


@pytest.mark.parametrize("rows", [
    [["1 - x1 + x1^2"]],
    [["1", "x1"], ["1 - x1", "1"]],
    [["1 + x1", "x1"], ["3*x1", "1 + x1"]],
])
def test_a_determinant_that_passes_the_two_point_test_is_rejected_from_the_schur_complement(rows, monkeypatch):
    m = grid(rows)
    det = cofactor_det(m)
    assert not det.is_constant() and values_at(((det,),), (0, 0)) == values_at(((det,),), (1, 1)) != ((0,),)
    sizes = counted_expansions(monkeypatch)
    check_inverse(m)
    assert len(sizes) == 1


@pytest.mark.parametrize("seed", range(2))
def test_a_schur_complement_left_part_way_is_rejected_too(seed, monkeypatch):
    m = with_unipotent_block(grid([["1 - x1 + x1^2"]]), random.Random(f"schur-reject-{seed}"))
    sizes = counted_expansions(monkeypatch)
    check_inverse(m)
    assert sizes == [1]


@pytest.mark.parametrize("rows", [
    [["x1"]],
    [["x1", "1"], ["0", "1 + x2"]],
    [["1", "x1"], ["x2", "x1*x2 + x1"]],
])
def test_a_singular_value_at_zero_is_rejected_without_expansion(rows, monkeypatch):
    m = grid(rows)
    assert not cofactor_det(m).is_zero()
    sizes = counted_expansions(monkeypatch)
    check_inverse(m)
    assert sizes == []


def test_the_work_of_a_cofactor_expansion_is_capped(monkeypatch):
    # no constant entry and det(0, 0) = det(1, 1) = 2: the inverse goes straight to the expansion
    m = grid([["1 + x1", "x1 - 1", "x2"], ["x1 + x2", "x1", "1 + x2"], ["x1 - 1", "x1 - 1", "x1"]])
    monkeypatch.setattr(polynomials, "MAX_MINOR_TERMS", 20)
    for function in (poly_matrix_det, poly_matrix_inverse):
        with pytest.raises(PreconditionError, match="cofactor expansion of a 3 x 3 polynomial matrix needs more than 20 terms"):
            function(m)
    monkeypatch.setattr(polynomials, "MAX_MINOR_TERMS", 200)
    assert poly_matrix_det(m) == cofactor_det(m)
    with pytest.raises(NotUnimodularError):
        poly_matrix_inverse(m)


@pytest.mark.parametrize("size", [1, 2, 4, 6, 7])
def test_inverse_of_unimodular_matrix(size):
    m = rand_poly_matrix(random.Random(f"inverse-{size}"), size, "unimodular_sparse")
    inverse = [list(row) for row in poly_matrix_inverse(m)]
    identity = [[Poly.constant(X2, 1 if i == j else 0) for j in range(size)] for i in range(size)]
    assert poly_matmul(m, inverse) == identity
    assert poly_matmul(inverse, m) == identity


@pytest.mark.parametrize("function", [poly_matrix_det, poly_matrix_inverse])
@pytest.mark.parametrize("rows", [
    [["x1", "1", "1"], ["1", "x1", "1"]],
    [["x1", "1"], ["1"]],
])
def test_det_and_inverse_reject_non_square(function, rows):
    m = [[Poly.parse(text, X2) for text in row] for row in rows]
    with pytest.raises(SpaceMismatchError, match="must be square"):
        function(m)


@pytest.mark.parametrize("function", [poly_matrix_det, poly_matrix_inverse])
def test_det_and_inverse_reject_empty_matrix(function):
    with pytest.raises(ValueError, match="empty matrix"):
        function([])


# id: (build, exception type, message) for each refusal that only a caller of the Python
# API reaches: the scenario parser builds only well-formed terms, maps and variables
API_REFUSALS = {
    "exponent vector of another length": (lambda: Poly.make(("x1",), {(1, 0): 1}), ValueError,
                                          "bad exponent vector (1, 0) for variables ('x1',)"),
    "negative exponent": (lambda: Poly.make(("x1",), {(-1,): 1}), ValueError,
                          "bad exponent vector (-1,) for variables ('x1',)"),
    "unknown variable": (lambda: Poly.variable(("x1",), "x2"), ValueError, "unknown variable 'x2' (context: ('x1',))"),
    "value of a non-constant": (lambda: Poly.variable(("x1",), "x1").constant_value(), ValueError,
                                "polynomial is not constant"),
    "negative power": (lambda: Poly.variable(("x1",), "x1") ** -1, ValueError, "negative powers are not polynomials"),
    "component on other variables": (lambda: PolyMap(("x1",), (Poly.variable(("x2",), "x2"),)), SpaceMismatchError,
                                     "component variables do not match the source context"),
}


@pytest.mark.parametrize("case", API_REFUSALS)
def test_api_refusals(case):
    build, error, message = API_REFUSALS[case]
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message
