"""References for the one composition routine.

`compose_map(outer, inner)` composes every component of outer through one table
of powers of inner's components, each power built once per call as the power
below it times the component, and sums each component's term images in one
integer accumulation, for a map of one polynomial as of many (`gen.compose`), and
`pushforward` composes all its nonzero entries in one call.  The route
it replaced, which rebuilt every term's image as a product of its factors from 1,
is kept here as a reference and must agree exactly, as must sympy's expansion, on
inputs whose terms and components share powers up to exponent 4.
"""

import random
from fractions import Fraction
from math import prod

import pytest

from gen import compose, rand_fraction, rand_shear_diffeo
from poisdirac import bivector_fields, polynomials
from poisdirac.bivector_fields import BivectorField, pushforward
from poisdirac.polynomials import Poly, PolyMap, ambient_variables, compose_map, sum_of_products
from test_product_kernel import Sympy

X3 = ambient_variables(3)
Y2 = ("y1", "y2")


def prod_substitute(p: Poly, values) -> Poly:
    """Substitution as it was before the power table: each term's image is the product of
    its variables' factors from 1, one factor at a time, times the term's constant."""
    target = next(iter({q.variables for q in values.values()}))
    one, factors = Poly.constant(target, 1), [values[v] for v in p.variables]
    return sum_of_products(target, (
        (Poly.constant(target, c), prod((f for f, k in zip(factors, e) for _ in range(k)), start=one)) for e, c in p.terms
    ))


def prod_compose_map(outer: PolyMap, inner: PolyMap) -> PolyMap:
    values = dict(zip(outer.source_vars, inner.components))
    return PolyMap(inner.source_vars, tuple(prod_substitute(p, values) for p in outer.components))


def prod_pushforward(pi: BivectorField, phi: PolyMap, phi_inv: PolyMap) -> BivectorField:
    """The transport formula with each entry composed with phi^-1 on its own by the reference."""
    jac, n = phi.jacobian(), pi.dim
    values = dict(zip(pi.variables, phi_inv.components))
    upper = {}
    for a in range(n):
        for b in range(a + 1, n):
            entry = sum_of_products(pi.variables, (
                (jac[a][i] * jac[b][j], pi.entries[i][j]) for i in range(n) for j in range(n)
            ))
            if not entry.is_zero():
                upper[(a, b)] = prod_substitute(entry, values)
    return BivectorField.from_upper(phi_inv.source_vars, upper)


def shared_power_poly(rng: random.Random, variables, pool) -> Poly:
    """Two to five terms from a pool of monomials whose exponents are 0 to 4, so that terms
    and polynomials drawn from one pool read the same powers."""
    return Poly.make(variables, {m: rand_fraction(rng) or 1 for m in rng.sample(pool, rng.randint(2, 5))})


def power_pool(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    return [tuple(rng.choice((0, 1, 2, 4, 4)) for _ in range(n)) for _ in range(8)] + [(0,) * n, (4,) + (0,) * (n - 1)]


def inner_map(rng: random.Random, kind: str) -> PolyMap:
    """Components in Y2 with denominators; 'degenerate' has a zero and a constant component."""
    components = [Poly.make(Y2, {(rng.randint(0, 2), rng.randint(0, 1)): Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
                                 for _ in range(rng.randint(1, 3))}) for _ in X3]
    if kind == "degenerate":
        components[1], components[2] = Poly.zero(Y2), Poly.constant(Y2, "-2/5")
    return PolyMap(Y2, tuple(components))


@pytest.mark.parametrize("kind", ["dense", "degenerate"])
@pytest.mark.parametrize("seed", range(3))
def test_compose_map_matches_the_product_route_and_sympy(kind, seed):
    rng = random.Random(f"compose-{kind}-{seed}")
    pool = power_pool(rng, 3)
    outer = PolyMap(X3, tuple(shared_power_poly(rng, X3, pool) for _ in range(3)) + (Poly.zero(X3),))
    inner = inner_map(rng, kind)
    values = dict(zip(X3, inner.components))
    composed = compose_map(outer, inner)
    assert composed == prod_compose_map(outer, inner)
    x, y = Sympy(X3), Sympy(Y2)
    for p, q in zip(outer.components, composed.components):
        assert compose(p, inner) == q
        expected = x.expr(p).subs({s: y.expr(values[v]) for s, v in zip(x.symbols, X3)}, simultaneous=True)
        assert q == y.poly(expected)


@pytest.mark.parametrize("n", [3, 4])
def test_pushforward_of_entries_that_share_powers_matches_the_product_route_and_sympy(n):
    rng = random.Random(f"shared-powers-push-{n}")
    variables = ambient_variables(n)
    pool = power_pool(rng, n)
    pi = BivectorField.from_upper(variables, {
        (i, j): shared_power_poly(rng, variables, pool) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7
    })
    phi, phi_inv = rand_shear_diffeo(rng, variables)
    pushed = pushforward(pi, phi, phi_inv)
    assert pushed == prod_pushforward(pi, phi, phi_inv)
    if n > 3:  # sympy takes seconds to expand the larger field
        return
    s = Sympy(variables)
    jac = s.sympy.Matrix([[s.expr(p) for p in row] for row in phi.jacobian()])
    transported = jac * s.sympy.Matrix([[s.expr(p) for p in row] for row in pi.entries]) * jac.T
    back = {x: s.expr(p) for x, p in zip(s.symbols, phi_inv.components)}
    for (a, b), entry in pushed.upper_entries().items():
        assert entry == s.poly(transported[a, b].subs(back, simultaneous=True))


def counted_accumulations(monkeypatch) -> list[tuple]:
    """The (A, B, factor) of each `_accumulate` call, A and B as tuples of terms."""
    calls, accumulate = [], polynomials._accumulate

    def counting(out, nums_a, nums_b, factor):
        calls.append((tuple(nums_a), tuple(nums_b), factor))
        return accumulate(out, nums_a, nums_b, factor)

    monkeypatch.setattr(polynomials, "_accumulate", counting)
    return calls


def test_each_power_is_built_once_per_call(monkeypatch):
    outer = PolyMap.parse(["x1^4*x2 + x1^4 + x1^2*x3^3", "x1^4*x3^3 - x2^2", "5"], X3)
    inner = PolyMap.parse(["y1 + 2*y2", "y1^2 - 1/3", "y1*y2 - y2"], Y2)
    calls = counted_accumulations(monkeypatch)
    composed = compose_map(outer, inner)
    monkeypatch.undo()
    assert composed == prod_compose_map(outer, inner)
    # powers x1^2..x1^4, x2^2 and x3^2..x3^3 once each (6), then one call per term of one or
    # two variables and one per constant term (6), where the product route took 29
    assert len(calls) == 12
    assert len({(a, b) for a, b, _ in calls}) == len(calls)  # no product of two term maps repeats
    calls = counted_accumulations(monkeypatch)
    for p in outer.components:
        prod_substitute(p, dict(zip(X3, inner.components)))
    assert len(calls) == 29


def test_pushforward_composes_its_entries_in_one_call(monkeypatch):
    rng = random.Random("one-compose-call")
    variables = ambient_variables(4)
    pi = BivectorField.from_upper(variables, {(0, 1): "x1^4*x3", (1, 2): "x1^4 - x4^2", (2, 3): "x2^2*x4^4"})
    phi, phi_inv = rand_shear_diffeo(rng, variables)
    outers, real = [], bivector_fields.compose_map
    monkeypatch.setattr(bivector_fields, "compose_map", lambda outer, inner: outers.append(outer) or real(outer, inner))
    pushed = pushforward(pi, phi, phi_inv)
    # the two identity checks, then every nonzero pushed entry at once
    assert [outer.target_dim for outer in outers] == [4, 4, len(pushed.upper_entries())]


def test_a_constant_of_the_empty_context_takes_the_context_of_the_map():
    # composed with a map of no variables it is refused: tests/test_refusals.py
    constant = Poly.constant((), 3)
    # a map with variables and no components gives the constant its context
    assert compose(constant, PolyMap(Y2, ())) == Poly.constant(Y2, 3)
    assert compose_map(PolyMap((), ()), PolyMap((), ())) == PolyMap((), ())
