"""Oracles for the one product kernel, `polynomials.sum_of_products`.

sympy's expansion checks `*`, `substitute`, every Jacobiator component
(dims 3-5) and `pushforward` (dims 2-4) on seeded fields.  The loops that
added one product at a time to a growing `Poly`, which the kernel
replaced, are kept here as references and must agree exactly.
"""

import random
from fractions import Fraction
from functools import reduce

import pytest

from gen import rand_fraction, rand_shear_diffeo
from poisdirac.bivector_fields import BivectorField, jacobiator, jacobiator_component, pushforward
from poisdirac.errors import SpaceMismatchError
from poisdirac.polynomials import Poly, PolyMap, ambient_variables, compose, sum_of_products

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
        assert a.substitute(values) == y.poly(expected)


# -- the Jacobiator and pushforward sums ------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("seed", range(2))
def test_jacobiator_matches_sympy_and_the_accumulating_loop(n, seed):
    pi = rand_field(random.Random(f"jacobiator-{n}-{seed}"), n, terms=3)
    s = Sympy(pi.variables)
    e = [[s.expr(p) for p in row] for row in pi.entries]
    components = jacobiator(pi)
    assert any(not p.is_zero() for p in components.values())
    for (i, j, k), component in components.items():
        expected = sum((e[i][l] * s.sympy.diff(e[j][k], x) + e[j][l] * s.sympy.diff(e[k][i], x)
                        + e[k][l] * s.sympy.diff(e[i][j], x) for l, x in enumerate(s.symbols)), s.sympy.Integer(0))
        assert component == s.poly(expected)
        assert component == reference_jacobiator_component(pi, i, j, k)


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


# -- mismatched variable contexts ---------------------------------------------------


def test_product_of_different_contexts_is_a_space_mismatch():
    with pytest.raises(SpaceMismatchError, match=r"variable contexts differ: \('x1', 'x2', 'x3'\) vs \('y1', 'y2'\)"):
        Poly.variable(X3, "x1") * Poly.variable(Y2, "y1")
    with pytest.raises(SpaceMismatchError):
        sum_of_products(X3, [(Poly.variable(X3, "x1"), Poly.variable(Y2, "y1"))])
    with pytest.raises(SpaceMismatchError):
        sum_of_products(Y2, [(Poly.variable(X3, "x1"), Poly.variable(X3, "x2"))])


def test_jacobiator_of_entries_in_another_context_is_a_space_mismatch():
    # entries in a reordered context: every partial derivative exists, the products do not
    other = ("x2", "x1", "x3")
    pi = BivectorField.from_upper(X3, {(0, 1): "x3", (1, 2): "x1"})
    entries = tuple(tuple(Poly.make(other, {(e[1], e[0], e[2]): c for e, c in p.terms}) for p in row) for row in pi.entries)
    with pytest.raises(SpaceMismatchError):
        jacobiator(BivectorField(X3, entries))
    with pytest.raises(SpaceMismatchError):
        jacobiator_component(BivectorField(X3, entries), 0, 1, 2)


def test_pushforward_along_maps_of_another_context_is_a_space_mismatch():
    pi = BivectorField.from_upper(X3, {(0, 1): "x3"})
    identity = PolyMap.identity(("y1", "y2", "y3"))
    with pytest.raises(SpaceMismatchError):
        pushforward(pi, identity, identity)
