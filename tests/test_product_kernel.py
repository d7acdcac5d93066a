"""Oracles for the one product kernel, `polynomials.sum_of_products`.

sympy's expansion checks `*`, composition, every Jacobiator component
(dims 3-6; a Poisson field's against 0) and `pushforward` (dims 2-4) on
seeded fields.  The loops that
added one product at a time to a growing `Poly`, which the kernel
replaced, are kept here as references and must agree exactly.
"""

import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest

from gen import compose, rand_fraction, rand_shear_diffeo
from poisdirac.bivector_fields import BivectorField, jacobiator, pushforward
from poisdirac.polynomials import Poly, PolyMap, ambient_variables, sum_of_products

X3 = ambient_variables(3)
Y2 = ("y1", "y2")


def rand_poly(rng: random.Random, variables, terms: int = 3, degree: int = 2) -> Poly:
    coeffs: dict = {}
    for _ in range(rng.randint(0, terms)):
        e = tuple(rng.randint(0, degree) for _ in variables)
        coeffs[e] = coeffs.get(e, 0) + rand_fraction(rng)
    return Poly.make(variables, coeffs)


def rand_field(rng: random.Random, n: int, terms: int = 2, degree: int = 2) -> BivectorField:
    variables = ambient_variables(n)
    return BivectorField.from_upper(variables, {
        (i, j): rand_poly(rng, variables, terms, degree) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7
    })


def reference_jacobiator_component(pi: BivectorField, i: int, j: int, k: int) -> Poly:
    """The Jacobiator as summed before the product kernel: one `+` per product."""
    total = Poly.zero(pi.variables)
    for l, var in enumerate(pi.variables):
        total = total + pi.entries[i][l] * pi.entries[j][k].partial(var)
        total = total + pi.entries[j][l] * pi.entries[k][i].partial(var)
        total = total + pi.entries[k][l] * pi.entries[i][j].partial(var)
    return total


def reference_pushforward(pi: BivectorField, phi: PolyMap, phi_inv: PolyMap) -> BivectorField:
    """The transport formula as summed before the product kernel: one `+` per product."""
    n = pi.dim
    jac = phi.jacobian()
    upper = {}
    for a in range(n):
        for b in range(a + 1, n):
            acc = Poly.zero(pi.variables)
            for i in range(n):
                for j in range(n):
                    entry = pi.entries[i][j]
                    if entry.is_zero():
                        continue
                    acc = acc + jac[a][i] * jac[b][j] * entry
            if not acc.is_zero():
                upper[(a, b)] = compose(acc, phi_inv)
    return BivectorField.from_upper(phi_inv.source_vars, upper)


class Sympy:
    """Conversions between Poly and sympy expressions in one variable context."""

    def __init__(self, variables):
        self.sympy = pytest.importorskip("sympy")
        self.variables = tuple(variables)
        self.symbols = self.sympy.symbols(self.variables)

    def expr(self, p: Poly):
        sp = self.sympy
        return sum((sp.Rational(c.numerator, c.denominator) * sp.Mul(*(s ** k for s, k in zip(self.symbols, e)))
                    for e, c in p.terms), sp.Integer(0))

    def poly(self, expr) -> Poly:
        terms = self.sympy.Poly(self.sympy.expand(expr), *self.symbols).terms()
        return Poly.make(self.variables, {e: Fraction(int(c.p), int(c.q)) for e, c in terms})


# -- the kernel itself and the two Poly operations built on it ------------------


@pytest.mark.parametrize("seed", range(3))
def test_sum_of_products_equals_the_sum_of_its_products(seed):
    rng = random.Random(f"kernel-{seed}")
    pairs = [(rand_poly(rng, X3), rand_poly(rng, X3)) for _ in range(6)] + [(Poly.zero(X3), rand_poly(rng, X3))]
    expected = reduce(Poly.__add__, (a * b for a, b in pairs), Poly.zero(X3))
    assert sum_of_products(X3, pairs) == expected
    assert sum_of_products(X3, []) == Poly.zero(X3)


def test_products_and_substitutions_match_sympy():
    x, y = Sympy(X3), Sympy(Y2)
    rng = random.Random("sympy-products")
    for _ in range(25):
        a, b = rand_poly(rng, X3, terms=4), rand_poly(rng, X3, terms=4)
        assert a * b == x.poly(x.expr(a) * x.expr(b))
        values = {v: rand_poly(rng, Y2, terms=3) for v in X3}
        expected = x.expr(a).subs({s: y.expr(values[v]) for s, v in zip(x.symbols, X3)}, simultaneous=True)
        assert compose(a, PolyMap(Y2, tuple(values[v] for v in X3))) == y.poly(expected)


# -- the Jacobiator and pushforward sums ------------------------------------------


def shared_field(rng: random.Random, n: int) -> BivectorField:
    """Entries drawn from a pool of six monomials, so that rows bracket monomials that one
    entry holds and monomials that several hold."""
    variables = ambient_variables(n)
    pool = [tuple(rng.randint(0, 2) for _ in variables) for _ in range(6)]
    return BivectorField.from_upper(variables, {
        (i, j): Poly.make(variables, {m: rand_fraction(rng) for m in rng.sample(pool, rng.randint(1, 3))})
        for i in range(n) for j in range(i + 1, n) if rng.random() < 0.8
    })


def row_denominator_field(rng: random.Random, n: int) -> BivectorField:
    """Entry (i, j) over the denominator q_i q_j^2, q the odd primes, so that the rows' denominators differ."""
    variables, q = ambient_variables(n), PRIMES[1:]
    return BivectorField.from_upper(variables, {
        (i, j): Poly.make(variables, {
            tuple(rng.randint(0, 2) for _ in variables): Fraction(rng.choice((-1, 1)), q[i] * q[j] ** 2) for _ in range(3)
        }) for i in range(n) for j in range(i + 1, n)
    })


def pushed_split_field(rng: random.Random, n: int, broken: bool) -> BivectorField:
    """sum_{2 <= i < j} f_ij(x1, x2) d_i ^ d_j, Poisson as no f_ij depends on x3..xn, pushed
    along x1 += c x3 xn, x2 += d xn, so that its entries fill in and share their monomials;
    a broken field adds a constant d_1 ^ d_2, and J^{1jk} = c d_2 f_jk is nonzero."""
    variables = ambient_variables(n)
    split = BivectorField.from_upper(variables, {
        (i, j): Poly.make(variables, {(1, 1) + (0,) * (n - 2): rand_fraction(rng), (0, 1) + (0,) * (n - 2): 1})
        for i in range(2, n) for j in range(i + 1, n)
    } | ({(0, 1): Poly.constant(variables, rng.choice((-2, 1, 3)))} if broken else {}))
    x = [Poly.variable(variables, v) for v in variables]
    shift = {0: (x[2] * x[-1]).scale(rand_fraction(rng)), 1: x[-1].scale(rand_fraction(rng))}
    phi, phi_inv = (PolyMap(variables, tuple(v + shift[a].scale(sign) if a in shift else v for a, v in enumerate(x)))
                    for sign in (1, -1))
    return pushforward(split, phi, phi_inv)


def reader_counts(pi: BivectorField) -> list[int]:
    """For each row a and each monomial x^m that row a brackets (m_l > 0 for some nonzero
    Pi^{al}), how many upper entries Pi^{bc} with a not in {b, c} hold it."""
    counts = []
    for a in range(pi.dim):
        held = [m for (b, c), p in pi.upper_entries().items() if a not in (b, c) for m, _ in p.nums
                if any(k and pi.entries[a][l].nums for l, k in enumerate(m))]
        counts += [held.count(m) for m in set(held)]
    return counts


JACOBI_FIELDS = {
    **{f"random-{n}-{seed}": lambda n=n, seed=seed: rand_field(random.Random(f"jacobiator-{n}-{seed}"), n, terms=3)
       for n in (3, 4, 5) for seed in range(2)},
    **{f"shared-{n}": lambda n=n: shared_field(random.Random(f"shared-{n}"), n) for n in (4, 5)},
    "row-denominators-4": lambda: row_denominator_field(random.Random("row-denominators"), 4),
    **{f"{kind}-{n}": lambda n=n, kind=kind: pushed_split_field(random.Random(f"{kind}-{n}"), n, kind == "broken")
       for n in (5, 6) for kind in ("poisson", "broken")},
}


@pytest.mark.parametrize("name", JACOBI_FIELDS)
def test_jacobiator_matches_sympy_and_the_accumulating_loop(name):
    pi = JACOBI_FIELDS[name]()
    s = Sympy(pi.variables)
    e = [[s.expr(p) for p in row] for row in pi.entries]
    components = jacobiator(pi)
    assert all(p.is_zero() for p in components.values()) == name.startswith("poisson")
    counts = reader_counts(pi)
    if name.startswith("shared"):  # a monomial that one component reads in a row, and one that several read
        assert 1 in counts and max(counts) > 1
    if name.startswith(("poisson", "broken")):
        assert max(counts) > 1
    if name.startswith("row-denominators"):
        assert len({lcm(*(p.den for p in row)) for row in pi.entries}) > 1
    for (i, j, k), component in components.items():
        assert component == reference_jacobiator_component(pi, i, j, k)
        if name.startswith("poisson"):  # 0, as asserted above; sympy would take seconds to expand it
            continue
        expected = sum((e[i][l] * s.sympy.diff(e[j][k], x) + e[j][l] * s.sympy.diff(e[k][i], x)
                        + e[k][l] * s.sympy.diff(e[i][j], x) for l, x in enumerate(s.symbols)), s.sympy.Integer(0))
        assert component == s.poly(expected)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", range(2))
def test_pushforward_matches_sympy_and_the_accumulating_loop(n, seed):
    rng = random.Random(f"pushforward-{n}-{seed}")
    pi = rand_field(rng, n, terms=2, degree=1)
    phi, phi_inv = rand_shear_diffeo(rng, pi.variables)
    pushed = pushforward(pi, phi, phi_inv)
    assert pushed == reference_pushforward(pi, phi, phi_inv)
    s = Sympy(pi.variables)
    sp = s.sympy
    jac = sp.Matrix([[s.expr(p) for p in row] for row in phi.jacobian()])
    transported = jac * sp.Matrix([[s.expr(p) for p in row] for row in pi.entries]) * jac.T
    back = {x: s.expr(p) for x, p in zip(s.symbols, phi_inv.components)}
    for a in range(n):
        for b in range(n):
            assert pushed.entries[a][b] == s.poly(transported[a, b].subs(back, simultaneous=True))


# -- the fraction-free kernel: mixed denominators, cancellation, canonical form ------

PRIMES = (2, 3, 5, 7, 11, 13, 101, 7919)


def mixed_fraction(rng: random.Random) -> Fraction:
    """Denominator 1, a prime, a prime power, or hundreds of digits (within MAX_DIGITS)."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    if kind == 1:
        return Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice(PRIMES))
    if kind == 2:
        return Fraction(rng.randrange(10 ** 299, 10 ** 300) * rng.choice((-1, 1)), rng.choice(PRIMES) ** rng.randint(1, 40))
    return Fraction(rng.randrange(1, 10 ** 400) * rng.choice((-1, 1)), rng.randrange(1, 10 ** 350))


def mixed_poly(rng: random.Random, variables, terms: int = 3, degree: int = 2) -> Poly:
    return Poly.make(variables, {
        tuple(rng.randint(0, degree) for _ in variables): mixed_fraction(rng) for _ in range(rng.randint(1, terms))
    })


def reference_sum_of_products(variables, pairs) -> Poly:
    """The kernel as it was on Fractions: one Fraction * and + per pair of terms."""
    out: dict = {}
    for a, b in pairs:
        for e1, c1 in a.terms:
            for e2, c2 in b.terms:
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
    return Poly.make(variables, out)


def assert_canonical(p: Poly) -> None:
    """Nonzero integer numerators over one positive denominator that shares no factor with
    all of them, whose Fraction view holds nonzero Fractions in lowest terms, in strictly
    descending grlex order."""
    assert type(p.den) is int and p.den > 0 and gcd(p.den, *(n for _, n in p.nums)) == 1
    assert all(type(n) is int and n for _, n in p.nums)
    assert p.terms == tuple((e, Fraction(n, p.den)) for e, n in p.nums)
    for e, c in p.terms:
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
        assert len(e) == len(p.variables) and all(k >= 0 for k in e)
    keys = [(sum(e), e) for e, _ in p.terms]
    assert all(a > b for a, b in zip(keys, keys[1:])), keys


@pytest.mark.parametrize("seed", range(4))
def test_kernel_on_mixed_denominators_matches_sympy_and_the_fraction_loop(seed):
    rng = random.Random(f"mixed-{seed}")
    x = Sympy(X3)
    pairs = [(mixed_poly(rng, X3), mixed_poly(rng, X3)) for _ in range(5)]
    a, b = pairs[0]
    pairs += [(-a, b), (Poly.zero(X3), b)]  # one pair cancels the first, one is a zero factor
    result = sum_of_products(X3, pairs)
    assert result == reference_sum_of_products(X3, pairs)
    assert result == x.poly(sum((x.expr(p) * x.expr(q) for p, q in pairs), x.sympy.Integer(0)))
    assert_canonical(result)
    for p, q in pairs:
        assert p * q == reference_sum_of_products(X3, [(p, q)])
        assert_canonical(p * q)


def test_pairs_with_different_denominators_share_one_common_denominator():
    x1, x2 = (Poly.variable(X3, v) for v in X3[:2])
    half, third, fifth = (Fraction(1, q) for q in (2, 3, 5))
    # denominators 2 and 3: neither divides the other
    assert sum_of_products(X3, [(x1.scale(half), x2), (x1.scale(third), x2)]) == (x1 * x2).scale(Fraction(5, 6))
    # both factors of the first pair carry a denominator
    assert sum_of_products(X3, [(x1.scale(half), x2.scale(third)), (x1.scale(fifth), x2)]) == (x1 * x2).scale(Fraction(11, 30))
    # the common denominator cancels to an integer coefficient
    assert sum_of_products(X3, [(x1.scale(half), x2.scale(third)), (x1.scale(fifth), x2.scale(Fraction(5, 6)))]) == x1 * x2.scale(third)


@pytest.mark.parametrize("seed", range(3))
def test_products_that_cancel_are_zero_or_smaller(seed):
    rng = random.Random(f"cancel-{seed}")
    a, b, c = (mixed_poly(rng, X3, terms=4) for _ in range(3))
    assert sum_of_products(X3, [(a, b), (-a, b)]) == Poly.zero(X3)
    assert sum_of_products(X3, [(a, b), (b, a.scale(-1))]).is_zero()
    assert sum_of_products(X3, [(a, b), (a.scale(Fraction(-1, 7)), b.scale(7))]).is_zero()
    partial_cancel = sum_of_products(X3, [(a + c, b), (-a, b)])
    assert partial_cancel == c * b == reference_sum_of_products(X3, [(a + c, b), (-a, b)])
    assert_canonical(partial_cancel)


@pytest.mark.parametrize("seed", range(3))
def test_arithmetic_results_are_canonical(seed):
    rng = random.Random(f"canonical-{seed}")
    a, b = mixed_poly(rng, X3, terms=5), mixed_poly(rng, X3, terms=5)
    for p in (a + b, a - b, a - a, -a, a.scale(Fraction(-3, 11)), a.scale(0), a.partial("x2"), a ** 2,
              compose(a, PolyMap(X3, (b,) * 3))):
        assert_canonical(p)
        assert p == Poly.make(X3, dict(p.terms))


def test_a_poly_whose_fraction_view_was_read_is_equal_to_a_fresh_one():
    rng = random.Random("fraction-view")
    a, b = mixed_poly(rng, X3, terms=4), mixed_poly(rng, X3, terms=4)
    a.terms, b.terms  # build the cached Fraction view of both
    assert "terms" in vars(a) and "terms" in vars(b)
    for p in (a, b):
        fresh = Poly(X3, p.nums, p.den)
        assert "terms" not in vars(fresh)
        assert p == fresh and fresh == p
        assert hash(p) == hash(fresh) and repr(p) == repr(fresh) and str(p) == str(fresh)
        assert {fresh: 1}[p] == 1


def _antiderivative(p: Poly, var: int) -> Poly:
    """The antiderivative in one variable with no constant term, from the Fraction view."""
    return Poly.make(p.variables, {
        tuple(k + (i == var) for i, k in enumerate(e)): c / (e[var] + 1) for e, c in p.terms
    })


@pytest.mark.parametrize("seed", range(4))
def test_equal_polynomials_built_by_different_routes_have_equal_fields(seed):
    rng = random.Random(f"routes-{seed}")
    x = [Poly.variable(X3, v) for v in X3]
    one, zero = Poly.constant(X3, 1), Poly.zero(X3)
    other = Poly.parse("2/5*x1^2 - 1/7*x3 + 3/11", X3)  # denominators that none of the a's has
    for a in (mixed_poly(rng, X3, terms=5), rand_poly(rng, X3, terms=5), Poly.constant(X3, "-7/4")):
        routes = {
            "make": Poly.make(X3, {e: Fraction(c) for e, c in a.terms}),
            "parse": Poly.parse(str(a), X3),
            "times one": a * one,
            "one times": one * a,
            "minus zero": a - zero,
            "plus then minus another": (a + other) - other,
            "scale 2 then 1/2": a.scale(2).scale(Fraction(1, 2)),
            "partial of antiderivative": _antiderivative(a, 1).partial("x2"),
            "identity composition": compose(a, PolyMap(X3, tuple(x))),
            "double negation": -(-a),
        }
        for route, p in routes.items():
            assert_canonical(p)
            assert (p.variables, p.nums, p.den) == (a.variables, a.nums, a.den), route
            assert p == a and hash(p) == hash(a), route


def test_the_zero_polynomial_has_denominator_one():
    rng = random.Random("zero")
    a = mixed_poly(rng, X3, terms=4)
    third = Poly.constant(X3, "1/3")
    for p in (Poly.zero(X3), a - a, a + (-a), a.scale(0), third.partial("x1"), third - third,
              Poly.make(X3, {(1, 0, 0): Fraction(0, 5)}), Poly.parse("1/2*x1 - 1/2*x1", X3), Poly.parse("0/7", X3),
              sum_of_products(X3, [(a, third), (-a, third)]), compose(Poly.zero(X3), PolyMap(X3, (a,) * 3))):
        assert p.nums == () and p.den == 1 and p.terms == () and p == Poly.zero(X3)
        assert hash(p) == hash(Poly.zero(X3)) and str(p) == "0"


@pytest.mark.parametrize("n", [3, 4, 5])
def test_jacobiator_of_mixed_denominators_is_canonical_and_equals_the_accumulating_loop(n):
    rng = random.Random(f"fresh-component-{n}")
    variables = ambient_variables(n)
    pi = BivectorField.from_upper(variables, {
        (i, j): mixed_poly(rng, variables, terms=2) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.8
    })
    for (i, j, k), component in jacobiator(pi).items():
        assert_canonical(component)
        assert component == reference_jacobiator_component(pi, i, j, k)
