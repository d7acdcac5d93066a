import random
from fractions import Fraction

import pytest

from gen import rand_antisym, rand_dirac_form_data, rand_invertible, rand_poisson, rand_subspace
from poisdirac.dirac_linear import (
    DiracVS,
    as_bivector,
    change_basis,
    characteristic,
    from_bivector,
    from_subspace_form,
    gauge,
    pullback,
    range_and_form,
)
from poisdirac.errors import PreconditionError, SpaceMismatchError
from poisdirac.poisson_linear import PoissonVS, characteristic_subspace
from poisdirac.rational_linalg import MatrixQ, Subspace


def pairing(u, v, n: int) -> Fraction:
    """<(X, xi), (Y, eta)> = xi(Y) + eta(X): the reference for DiracVS's isotropy test."""
    return sum(a * b for a, b in zip(u[n:], v[:n])) + sum(a * b for a, b in zip(v[n:], u[:n]))


J4 = MatrixQ.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
P4 = PoissonVS(4, J4)


def test_zero_bivector_graph_is_vertical():
    l = from_bivector(PoissonVS(2, MatrixQ.zeros(2, 2)))
    assert l.span == Subspace.span(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert as_bivector(l).pi == MatrixQ.zeros(2, 2)


def test_graph_round_trip():
    p = PoissonVS(2, MatrixQ.from_rows([[0, 1], [-1, 0]]))
    assert as_bivector(from_bivector(p)).pi == p.pi


def test_non_graph_has_no_bivector():
    tangent = DiracVS(2, Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    plane = from_subspace_form(Subspace.span(3, [[1, 0, 0], [0, 1, 0]]), MatrixQ.zeros(2, 2))
    for l in (tangent, plane):
        assert characteristic(l).dim > 0 and as_bivector(l) is None


def test_nondegenerate_graph_has_trivial_characteristic():
    assert characteristic(from_bivector(P4)).dim == 0


def test_from_subspace_form_full_nondegenerate_inverts():
    omega = MatrixQ.from_rows([[0, 1], [-1, 0]])
    l = from_subspace_form(Subspace.full(2), omega)
    pi = as_bivector(l)
    assert pi is not None
    assert from_bivector(pi) == l


def test_from_subspace_form_zero_carrier():
    l = from_subspace_form(Subspace.zero(3), MatrixQ(0, 0, ()))
    assert l.span == Subspace.span(6, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])


def test_from_subspace_form_zero_form_on_plane():
    l = from_subspace_form(Subspace.span(3, [[1, 0, 0], [0, 1, 0]]), MatrixQ.zeros(2, 2))
    expected = Subspace.span(6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]])
    assert l.span == expected


def test_pullback_to_whole_space_is_identity():
    l = from_bivector(P4)
    assert pullback(l, Subspace.full(4)) == l


def test_pullback_to_line_is_isotropic():
    l = from_bivector(P4)
    pulled = pullback(l, Subspace.span(4, [[1, 0, 0, 0]]))
    assert characteristic(pulled).dim == 1


def test_pullback_to_symplectic_plane_is_graph():
    l = from_bivector(P4)
    pulled = pullback(l, Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    pi = as_bivector(pulled)
    assert pi is not None and pi.pi == MatrixQ.from_rows([[0, 1], [-1, 0]])


def test_pullback_to_skew_plane_characteristic_by_hand():
    # span{e1, e2+e3}: the pulled-back form pairs the two directions
    l = from_bivector(P4)
    w = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 1, 0]])
    pulled = pullback(l, w)
    assert characteristic(pulled).dim == 0


def test_gauge_zero_is_identity():
    l = from_bivector(P4)
    assert gauge(l, MatrixQ.zeros(4, 4)) == l


def test_gauge_of_zero_form_structure_is_form_graph():
    n = 3
    tm = from_subspace_form(Subspace.full(n), MatrixQ.zeros(n, n))
    b = rand_antisym(random.Random(3), n)
    gauged = gauge(tm, b)
    o, omega = range_and_form(gauged)
    assert o == Subspace.full(n)
    # the induced form of the gauged structure is the gauge form itself
    assert omega == b


def test_gauge_requires_antisymmetry():
    l = from_bivector(P4)
    with pytest.raises(PreconditionError):
        gauge(l, MatrixQ.identity(4))


def test_non_isotropic_span_rejected():
    with pytest.raises(PreconditionError):
        DiracVS(2, Subspace.span(4, [[1, 0, 1, 0], [0, 1, 0, 1]]))


def test_isotropy_is_checked_on_scaled_integer_rows_randomized():
    rng = random.Random(57)
    rejected = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        l = from_subspace_form(*rand_dirac_form_data(rng, n))
        rows = [list(r) for r in l.span.basis.entries]
        scales = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in rows]
        scaled = [[c * a for a in r] for c, r in zip(scales, rows)]
        assert DiracVS(n, Subspace.span(2 * n, scaled)) == l
        # shifting one covector entry breaks isotropy unless it pairs with zero
        rows[rng.randrange(n)][n + rng.randrange(n)] += Fraction(1, 3)
        span = Subspace.span(2 * n, rows)
        if span.dim != n:
            continue
        if any(pairing(r, q, n) for r in rows for q in rows):
            with pytest.raises(PreconditionError, match="span is not isotropic for the symmetric pairing"):
                DiracVS(n, span)
            rejected += 1
        else:
            assert DiracVS(n, span).span == span
    assert rejected >= 20


def test_range_and_form_round_trip_randomized():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 5)
        o, omega = rand_dirac_form_data(rng, n)
        l = from_subspace_form(o, omega)
        o2, omega2 = range_and_form(l)
        assert o2 == o and omega2 == omega


def test_validation_dimension_and_isotropy_randomized():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 5)
        o, omega = rand_dirac_form_data(rng, n)
        l = from_subspace_form(o, omega)
        assert l.span.dim == n
        rows = l.span.basis.entries
        for i in range(n):
            for j in range(n):
                assert pairing(rows[i], rows[j], n) == 0


def test_gauge_involution_and_range_preserved_randomized():
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(1, 5)
        o, omega = rand_dirac_form_data(rng, n)
        l = from_subspace_form(o, omega)
        b = rand_antisym(rng, n)
        gauged = gauge(l, b)
        assert gauge(gauged, -b) == l
        assert range_and_form(gauged)[0] == o


def test_functoriality_randomized():
    rng = random.Random(45)
    for _ in range(60):
        n = rng.randint(2, 5)
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
        one_step = pullback(l, w)
        c = w.coordinates_of_rows(MatrixQ.from_rows(ambient_rows, cols=n))
        assert change_basis(two_step, c) == one_step


def test_pullback_of_graph_is_induced_bivector_graph_randomized():
    # on a pointwise Poisson-Dirac subspace, the pulled-back structure is
    # exactly the graph of the induced bivector, in the same basis
    from poisdirac.poisson_linear import induced_bivector

    rng = random.Random(51)
    done = 0
    while done < 60:
        n = rng.randint(1, 5)
        p = rand_poisson(rng, n)
        w = rand_subspace(rng, n)
        pulled = pullback(from_bivector(p), w)
        if characteristic(pulled).dim != 0:
            continue  # not Poisson-Dirac; the extraction has nothing to invert
        pw = induced_bivector(p, w)
        assert pulled == from_bivector(pw)
        assert as_bivector(pulled).pi == pw.pi
        done += 1


def test_characteristic_consistency_with_poisson_randomized():
    rng = random.Random(57)
    for _ in range(60):
        n = rng.randint(1, 5)
        p = rand_poisson(rng, n)
        c = rand_subspace(rng, n)
        pulled = pullback(from_bivector(p), c)
        char_inside = characteristic(pulled)
        ambient_rows = [
            tuple(sum(v * c.basis.entries[k][j] for k, v in enumerate(row)) for j in range(n))
            for row in char_inside.basis.entries
        ]
        assert Subspace.span(n, ambient_rows) == characteristic_subspace(p, c)


def test_pullback_refuses_a_wrong_ambient_or_a_dual_target():
    l = from_bivector(P4)
    with pytest.raises(SpaceMismatchError, match="pullback target"):
        pullback(l, Subspace.full(3))
    with pytest.raises(SpaceMismatchError, match="pullback target"):
        pullback(l, Subspace.full(4, dual=True))


def test_structures_built_without_a_check_pass_it():
    # DiracVS._of skips the dimension and isotropy checks; each construction that uses it
    # must yield what the public constructor accepts
    rng = random.Random(107)
    for _ in range(30):
        n = rng.randint(1, 6)
        l = from_bivector(rand_poisson(rng, n))
        built = [
            l,
            gauge(l, rand_antisym(rng, n)),
            change_basis(l, rand_invertible(rng, n)),
            from_subspace_form(*rand_dirac_form_data(rng, n)),
            pullback(l, rand_subspace(rng, n)),
        ]
        for m in built:
            assert DiracVS(m.ambient_dim, m.span) == m


SPAN_MESSAGE = "span must be a primal subspace of dimension-2n coordinates"
FORM_SIZE = "form matrix must match the subspace dimension"

# id: (build, exception type, message) for each refusal that only a caller of the Python
# API reaches: no command builds these from unchecked input
API_REFUSALS = {
    "span in another ambient": (lambda: DiracVS(2, Subspace.full(3)), SpaceMismatchError, SPAN_MESSAGE),
    "span of the dual": (lambda: DiracVS(1, Subspace.full(2, dual=True)), SpaceMismatchError, SPAN_MESSAGE),
    "span of another dimension": (lambda: DiracVS(2, Subspace.full(4)), PreconditionError,
                                  "a Dirac structure on Q^2 must have dimension 2, got 4"),
    "carrier in the dual": (lambda: from_subspace_form(Subspace.full(2, dual=True), MatrixQ.zeros(2, 2)),
                            SpaceMismatchError, "the carrier subspace must be primal"),
    "form of another size": (lambda: from_subspace_form(Subspace.full(2), MatrixQ.zeros(3, 3)), SpaceMismatchError,
                             FORM_SIZE),
    "form not square": (lambda: from_subspace_form(Subspace.full(2), MatrixQ.zeros(2, 3)), SpaceMismatchError,
                        FORM_SIZE),
    "symmetric form": (lambda: from_subspace_form(Subspace.full(2), MatrixQ.identity(2)), PreconditionError,
                       "form matrix must be antisymmetric"),
    "gauge form of another size": (lambda: gauge(from_bivector(P4), MatrixQ.zeros(3, 3)), SpaceMismatchError,
                                   "gauge form must be n x n"),
    "change of basis of another size": (lambda: change_basis(from_bivector(P4), MatrixQ.identity(3)),
                                        SpaceMismatchError, "change-of-basis matrix must be n x n"),
}


@pytest.mark.parametrize("case", API_REFUSALS)
def test_api_refusals(case):
    build, error, message = API_REFUSALS[case]
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message
