"""Reference for the Jacobiator's row loop on packed exponent keys.

`bivector_fields._jacobi_rows` packs each upper entry's exponent vectors into
ints once per call, every slot (2 top).bit_length() bits wide, so a bracket
term is one int add, and unpacks its results through one memo per call.  The
loop it replaced kept tuple keys and multiplied each monomial into a row
entry with `polynomials._accumulate`; it is kept here as the reference, and
the two must agree exactly, component for component.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisdirac import polynomials
from poisdirac.bivector_fields import BivectorField, _jacobi_rows, jacobiator
from poisdirac.polynomials import MAX_EXPONENT, Poly, _accumulate, _check_term_cap, _ordered, ambient_variables
from test_product_kernel import JACOBI_FIELDS, pushed_split_field, rand_field, row_denominator_field


def reference_jacobi_rows(pi: BivectorField, components: list[tuple[int, int, int]]) -> dict[tuple[int, int, int], Poly]:
    """The Jacobiator at the sorted index triples `components`, by rows, on tuple keys: each
    term c_m x^m of an upper entry Pi^{bc} that row a reads adds c_m sum_l m_l x^(m - u_l) Pi^{al},
    one `_accumulate` per row entry, into component sorted(a, b, c), negated when b < a < c."""
    n, e, variables = pi.dim, pi.entries, pi.variables
    cap = polynomials.MAX_PRODUCT_TERMS
    row_den = [lcm(*(p.den for p in row)) for row in e]
    reads = {a: [] for a in range(n)}  # row a -> (Pi^{bc}, accumulator, scale) of each component reading it
    finished = {a: [] for a in range(n)}  # row a -> (component, accumulator, denominator) whose largest index is a
    done = dict.fromkeys(components)
    for i, j, k in components:
        entries = [(a, e[b][c], sign) for a, b, c, sign in ((i, j, k, 1), (j, i, k, -1), (k, i, j, 1)) if e[b][c].nums]
        den, acc = lcm(*(p.den * row_den[a] for a, p, _ in entries)), {}
        for a, p, sign in entries:
            reads[a].append((p, acc, sign * (den // (p.den * row_den[a]))))
        finished[k].append(((i, j, k), acc, den))
    support: dict[tuple[int, ...], list] = {}  # x^m -> (l, m - u_l, m_l) for each m_l > 0
    for a in range(n):
        row = [(p.nums, row_den[a] // p.den) for p in e[a]]
        readers: dict[tuple[int, ...], list] = {}  # x^m -> (accumulator, coefficient) of each reader in row a
        for p, acc, scale in reads.pop(a):
            for m, c in p.nums:
                readers.setdefault(m, []).append((acc, c * scale))
        for m, users in readers.items():
            if (lowered := support.get(m)) is None:
                lowered = support[m] = [
                    (l, m[:l] + (power - 1,) + m[l + 1:], power) for l, power in enumerate(m) if power
                ]
            target, c = users[0] if len(users) == 1 else ({}, 1)
            for l, low, power in lowered:
                nums, f = row[l]
                if nums:
                    _accumulate(target, ((low, c * power),), nums, f)
            if len(users) > 1:
                for acc, c in users:
                    get = acc.get
                    for x, v in target.items():
                        acc[x] = get(x, 0) + c * v
                    if len(acc) > cap:
                        _check_term_cap(acc)
        for ijk, acc, den in finished.pop(a):
            done[ijk] = _ordered(variables, [(x, v) for x, v in acc.items() if v], den)
    return done


def check_against_reference(pi: BivectorField) -> dict[tuple[int, int, int], Poly]:
    """Assert the Jacobiator equals the reference on all components, and on each alone."""
    triples = list(combinations(range(pi.dim), 3))
    components = jacobiator(pi)
    assert list(components) == triples
    assert components == reference_jacobi_rows(pi, triples)
    for ijk in triples[:6]:
        assert _jacobi_rows(pi, [ijk]) == reference_jacobi_rows(pi, [ijk])
    return components


def field(n: int, upper: dict) -> BivectorField:
    return BivectorField.from_upper(ambient_variables(n), upper)


def top_exponent(components: dict) -> int:
    return max((max(e) for p in components.values() for e, _ in p.nums), default=0)


@pytest.mark.parametrize("name", JACOBI_FIELDS)
def test_the_seeded_fields_of_the_product_kernel_oracle(name):
    check_against_reference(JACOBI_FIELDS[name]())


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("seed", range(3))
def test_seeded_fields(n, seed):
    rng = random.Random(f"packed-{n}-{seed}")
    check_against_reference(rand_field(rng, n, terms=3, degree=rng.choice((1, 2, 3))))


def test_a_top_degree_that_is_a_power_of_two():
    # top 4: a bracket exponent reaches 2 top - 1 = 7 in the slot of x1
    components = check_against_reference(field(4, {
        (0, 1): "x1^4 + x2*x3", (0, 2): "x1^4 - 2*x4", (1, 2): "x1^3*x2", (1, 3): "x1^4 + 3", (2, 3): "x1^2*x3^2",
    }))
    assert top_exponent(components) == 7


def test_an_entry_at_the_exponent_bound_beside_linear_entries():
    components = check_against_reference(field(4, {
        (0, 1): f"x1^{MAX_EXPONENT}", (0, 2): "x1 + x2", (1, 2): "x3 - x4", (1, 3): "x1", (2, 3): "2*x2",
    }))
    assert top_exponent(components) == MAX_EXPONENT and any(not p.is_zero() for p in components.values())


def test_a_constant_field():
    rng = random.Random("constant")
    pi = field(5, {(i, j): Poly.constant(ambient_variables(5), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                   for i, j in combinations(range(5), 2)})
    assert all(p.is_zero() for p in check_against_reference(pi).values())


@pytest.mark.parametrize("upper", [{}, {(0, 1): "x1^3*x2 - 1/2"}])
def test_two_variable_fields_have_no_index_triple(upper):
    pi = field(2, upper)
    assert jacobiator(pi) == reference_jacobi_rows(pi, []) == {}


def test_a_twelve_variable_field_whose_keys_pass_sixty_bits():
    rng = random.Random("twelve")
    x = ambient_variables(12)
    pi = field(12, {(i, j): Poly.make(x, {tuple(rng.choice((0, 0, 0, 1)) for _ in x): rng.randint(1, 5) for _ in range(2)})
                    for i, j in combinations(range(12), 2) if rng.random() < 0.3}
               | {(0, 11): "x12^20 + x1*x6", (3, 7): "x12^19*x4"})
    top = max(sum(p.nums[0][0]) for p in pi.upper_entries().values())
    assert (2 * top).bit_length() * 12 > 60  # slots of 6 bits or more
    assert top_exponent(check_against_reference(pi)) > 19


def test_rows_with_different_denominators():
    pi = row_denominator_field(random.Random("rows"), 5)
    assert len({lcm(*(p.den for p in row)) for row in pi.entries}) > 1
    check_against_reference(pi)


@pytest.mark.parametrize("build", [
    lambda: pushed_split_field(random.Random("broken-5"), 5, True),
    lambda: pushed_split_field(random.Random("broken-6"), 6, True),
    lambda: field(3, {(0, 1): "1", (0, 2): "x1"}),
], ids=["pushed-5", "pushed-6", "bracket-3"])
def test_broken_fields(build):
    assert any(not p.is_zero() for p in check_against_reference(build()).values())


def test_components_share_exponent_tuples():
    # one unpack memo per call: an exponent vector that several components hold is one tuple
    components = jacobiator(pushed_split_field(random.Random("shared-tuples"), 6, True))
    seen: dict = {}
    shared = 0
    for p in components.values():
        for e, _ in p.nums:
            shared += e in seen
            assert seen.setdefault(e, e) is e
    assert shared > 0


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def fields(draw):
    n = draw(st.integers(2, 6))
    x = ambient_variables(n)
    exponent = st.tuples(*[st.integers(0, draw(st.sampled_from((1, 2, 4, 7))))] * n)
    upper = draw(st.dictionaries(st.sampled_from(list(combinations(range(n), 2))),
                                 st.dictionaries(exponent, fractions, max_size=4).map(lambda d: Poly.make(x, d)),
                                 max_size=n * (n - 1) // 2))
    return field(n, upper)


@settings(max_examples=150, deadline=None)
@given(fields())
def test_hypothesis_fields(pi):
    assert jacobiator(pi) == reference_jacobi_rows(pi, list(combinations(range(pi.dim), 3)))
