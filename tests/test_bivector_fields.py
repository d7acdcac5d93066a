import random
from fractions import Fraction

import pytest

from gen import compose, rand_antisym, rand_fraction, rand_point, rand_shear_diffeo
from poisdirac.bivector_fields import (
    BivectorField,
    TwoFormField,
    exterior_derivative,
    is_closed,
    is_poisson,
    jacobiator,
    jacobiator_component,
    nonzero_jacobiator_components,
    pushforward,
)
from poisdirac.errors import PreconditionError, SpaceMismatchError
from poisdirac.polynomials import Poly, PolyMap

X3 = ("x1", "x2", "x3")
X4 = ("x1", "x2", "x3", "x4")

PI1 = BivectorField.from_upper(X4, {(0, 1): "x1^2", (2, 3): "1"})
PI2 = BivectorField.from_upper(X4, {(0, 1): "x1^2", (2, 3): "1", (1, 2): "x1*x4"})
BROKEN = BivectorField.from_upper(X3, {(0, 1): "1", (0, 2): "x1"})


def constant_field(rng: random.Random, variables) -> BivectorField:
    n = len(variables)
    m = rand_antisym(rng, n)
    return BivectorField(variables, tuple(
        tuple(Poly.constant(variables, m.entries[i][j]) for j in range(n)) for i in range(n)
    ))


class TestJacobi:
    def test_split_structure_is_poisson(self):
        assert is_poisson(PI1)

    def test_cross_term_structure_is_poisson(self):
        assert is_poisson(PI2)

    def test_broken_field(self):
        assert not is_poisson(BROKEN)
        bad = nonzero_jacobiator_components(BROKEN)
        assert list(bad) == [(0, 1, 2)]
        assert bad[(0, 1, 2)] == Poly.constant(X3, 1)

    def test_constant_fields_are_poisson(self):
        rng = random.Random(2)
        for _ in range(20):
            assert is_poisson(constant_field(rng, X4))

    def test_jacobiator_totally_antisymmetric(self):
        rng = random.Random(4)
        for _ in range(10):
            upper = {
                (i, j): Poly.make(X4, {tuple(rng.randint(0, 1) for _ in X4): rand_fraction(rng)})
                for i in range(4) for j in range(i + 1, 4)
            }
            field = BivectorField.from_upper(X4, upper)
            for (i, j, k) in jacobiator(field):
                base = jacobiator_component(field, i, j, k)
                assert jacobiator_component(field, j, i, k) == -base
                assert jacobiator_component(field, j, k, i) == base
                assert jacobiator_component(field, i, i, k).is_zero()


class TestEvaluate:
    def test_vanishing_coefficient(self):
        field = BivectorField.from_upper(X3, {(0, 1): "x3"})
        assert field.at((Fraction(0), Fraction(0), Fraction(0))).pi.is_zero()

    def test_unit_coefficient(self):
        field = BivectorField.from_upper(X3, {(0, 1): "x3"})
        assert field.at((Fraction(0), Fraction(0), Fraction(1))).pi.entries[0][1] == 1

    def test_constant_field_everywhere(self):
        rng = random.Random(6)
        field = constant_field(rng, X3)
        a = field.at(rand_point(rng, 3))
        b = field.at(rand_point(rng, 3))
        assert a.pi == b.pi

    def test_point_length_checked(self):
        field = BivectorField.from_upper(X3, {(0, 1): "x3"})
        with pytest.raises(Exception):
            field.at((Fraction(0),))


class TestPushforward:
    def test_identity_map(self):
        ident = PolyMap.identity(X4)
        assert pushforward(PI1, ident, ident).entries == PI1.entries

    def test_linear_symplectic_change(self):
        field = BivectorField.from_upper(("x1", "x2"), {(0, 1): "1"})
        phi = PolyMap.parse(["x1 + x2", "x2"], ("x1", "x2"))
        phi_inv = PolyMap.parse(["x1 - x2", "x2"], ("x1", "x2"))
        assert pushforward(field, phi, phi_inv).entries == field.entries

    def test_frozen_variant_carries_structures(self):
        plus = PolyMap.parse(["x1", "x2 + 1/2*x4^2*x1", "x3", "x4"], X4)
        minus = PolyMap.parse(["x1", "x2 - 1/2*x4^2*x1", "x3", "x4"], X4)
        assert pushforward(PI1, minus, plus).entries == PI2.entries
        assert pushforward(PI2, plus, minus).entries == PI1.entries
        assert pushforward(PI1, plus, minus).entries != PI2.entries
        assert pushforward(PI2, minus, plus).entries != PI1.entries

    def test_rejects_non_inverse(self):
        phi = PolyMap.parse(["x1 + x2", "x2"], ("x1", "x2"))
        with pytest.raises(PreconditionError):
            pushforward(BivectorField.from_upper(("x1", "x2"), {(0, 1): "1"}), phi, phi)

    def test_poisson_preserved_randomized(self):
        rng = random.Random(8)
        for _ in range(15):
            field = constant_field(rng, X4)
            phi, phi_inv = rand_shear_diffeo(rng, X4)
            assert is_poisson(pushforward(field, phi, phi_inv))

    def test_pointwise_transport_matches_jacobian(self):
        rng = random.Random(10)
        for _ in range(15):
            field = BivectorField.from_upper(X3, {(0, 1): "x3", (1, 2): "2"})
            phi, phi_inv = rand_shear_diffeo(rng, X3)
            pushed = pushforward(field, phi, phi_inv)
            point = rand_point(rng, 3, 2)
            jac = phi.jacobian_at(point)
            expected = jac @ field.at(point).pi @ jac.transpose()
            assert pushed.at(phi.evaluate(point)).pi == expected


class TestAntisymmetricFields:
    def test_from_upper_builds_the_subclass(self):
        b = TwoFormField.from_upper(X3, {(0, 2): "x2"})
        assert type(b) is TwoFormField and type(PI1) is BivectorField
        assert b.entries[2][0] == -Poly.parse("x2", X3)
        assert b.at((Fraction(1), Fraction(5), Fraction(0))).entries[0][2] == 5

    def test_two_forms_share_the_antisymmetry_check(self):
        one = Poly.constant(X3, 1)
        zero = Poly.zero(X3)
        grid = ((zero, one, zero), (one, zero, zero), (zero, zero, zero))
        for cls in (BivectorField, TwoFormField):
            with pytest.raises(PreconditionError, match="not antisymmetric"):
                cls(X3, grid)


# Refusals that only the Python API reaches: the scenario parser refuses these inputs first.
# No earlier check refuses them: a 0 x 0 two-form minus a 3 x 3 one would zip no rows, and
# mutually inverse maps of another dimension pass the composition checks.
API_REFUSALS = {
    "grid rows": (lambda: BivectorField(X3, ((Poly.zero(X3),) * 3,) * 2), SpaceMismatchError,
                  "entry grid shape does not match the variable count"),
    "grid columns": (lambda: BivectorField(X3, ((Poly.zero(X3),) * 2,) * 3), SpaceMismatchError,
                     "entry grid shape does not match the variable count"),
    "index below the diagonal": (lambda: BivectorField.from_upper(X3, {(1, 0): "1"}), ValueError,
                                 "upper-triangular index out of range: (1, 0)"),
    "index past the dimension": (lambda: TwoFormField.from_upper(X3, {(0, 3): "1"}), ValueError,
                                 "upper-triangular index out of range: (0, 3)"),
    "two-forms on other variables": (lambda: TwoFormField.from_upper(X3, {}) - TwoFormField.from_upper(("y1", "y2", "y3"), {}),
                                     SpaceMismatchError, "two-forms live on different patches"),
    "a two-form on no variables": (lambda: TwoFormField((), ()) - TwoFormField.from_upper(X3, {}), SpaceMismatchError,
                                   "two-forms live on different patches"),
    "a diffeomorphism of another dimension": (lambda: pushforward(BROKEN, PolyMap.identity(X4), PolyMap.identity(X4)),
                                              SpaceMismatchError, "diffeomorphism dimensions do not match the field"),
}


@pytest.mark.parametrize("case", API_REFUSALS)
def test_api_refusals(case):
    build, error, message = API_REFUSALS[case]
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


class TestExteriorDerivative:
    def test_constant_form_closed(self):
        b = TwoFormField.from_upper(X4, {(2, 3): "1"})
        assert is_closed(b)

    def test_linear_coefficient_not_closed(self):
        b = TwoFormField.from_upper(X3, {(1, 2): "x1"})
        d = exterior_derivative(b)
        assert d[(0, 1, 2)] == Poly.constant(X3, 1)
        assert not is_closed(b)

    def test_derivative_of_exact_form_vanishes(self):
        # B = d(x1*x2 dx3) has components from the product rule; d(dB) = 0
        b = TwoFormField.from_upper(X3, {(0, 2): "x2", (1, 2): "x1"})
        assert is_closed(b)


def permuted(pi: BivectorField, order, new_variables=None) -> BivectorField:
    """Relabel coordinates by substitution: new coordinate a is the old coordinate order[a]."""
    n = pi.dim
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the coordinate indices")
    new_vars = tuple(new_variables) if new_variables is not None else tuple(pi.variables[a] for a in order)
    relabel = PolyMap(new_vars, tuple(Poly.variable(new_vars, new_vars[order.index(old)]) for old in range(n)))
    return BivectorField(new_vars, tuple(
        tuple(compose(pi.entries[order[a]][order[b]], relabel) for b in range(n)) for a in range(n)
    ))


def verify_split_form(pi: BivectorField, k: int) -> bool:
    """Whether pi has the split shape in coordinates ordered (q_1..q_k, p_1..p_k, y_*): the
    q-p block is the constant identity pairing, every other block touching q or p vanishes,
    and the y-y block involves only the y variables."""
    n = pi.dim
    if 2 * k > n:
        raise PreconditionError(f"2k = {2 * k} exceeds the dimension {n}")
    one, zero = Poly.constant(pi.variables, 1), Poly.zero(pi.variables)
    for i in range(2 * k):  # rows q and p above the diagonal; antisymmetry fixes the rest
        if any(pi.entries[i][j] != (one if i < k and j == i + k else zero) for j in range(i + 1, n)):
            return False
    y_block = (pi.entries[i][j] for i in range(2 * k, n) for j in range(2 * k, n))
    return all(e[t] == 0 for entry in y_block for e, _ in entry.nums for t in range(2 * k))


class TestSplitForm:
    def test_reordered_split_structure(self):
        # order (x3, x4 | x1, x2): q = x3, p = x4, y = (x1, x2)
        reordered = permuted(PI1, [2, 3, 0, 1], ("y1", "y2", "x1", "x2"))
        assert verify_split_form(reordered, 1)

    def test_standard_symplectic_k2(self):
        field = BivectorField.from_upper(X4, {(0, 2): "1", (1, 3): "1"})
        assert verify_split_form(field, 2)

    def test_cross_term_structure_fails_any_ordering(self):
        import itertools

        for order in itertools.permutations(range(4)):
            assert not verify_split_form(permuted(PI2, list(order)), 1)

    def test_k_too_large_rejected(self):
        with pytest.raises(PreconditionError):
            verify_split_form(PI1, 3)
