"""References for the one intersection routine.

`intersect(a, b)`, `dirac_linear.pullback`, `dirac_linear.characteristic`
and the rank of rho in `classify_subspace` all read an intersection off one
elimination of rows (A x | x), with A the rows of an annihilator.  The routes
they replaced are kept here as references and must agree exactly on seeded
inputs: the Zassenhaus sum-intersection, which reduces [[A, A], [B, 0]] on 2n
columns; a pullback and a characteristic subspace that intersect L with a
2n-dimensional helper subspace; and rank rho = dim A(sharp ann C), A the rows
of ann C.  A sympy rank oracle checks the intersection's dimension as well.
"""

import random
from fractions import Fraction

import pytest
import sympy

from gen import rand_antisym, rand_dirac_form_data, rand_invertible, rand_low_rank_poisson, rand_poisson, rand_subspace
from poisdirac.dirac_linear import DiracVS, _span_pairs, characteristic, from_bivector, from_subspace_form, gauge, pullback
from poisdirac.poisson_linear import PoissonVS, characteristic_subspace, classify_subspace
from poisdirac.rational_linalg import MatrixQ, Subspace, _eliminate, annihilator, image, intersect


def zassenhaus_intersect(a: Subspace, b: Subspace) -> Subspace:
    """a & b by the Zassenhaus sum-intersection algorithm (Cohen, GTM 138, 2.3): in
    the reduced form of [[A, A], [B, 0]] the rows whose pivot lies in the right half
    are (0, canonical rows of a & b)."""
    assert a.ambient_dim == b.ambient_dim and a.dual == b.dual
    n = a.ambient_dim
    work = [r + r for r in a.rows] + [r + (0,) * n for r in b.rows]
    pivots = _eliminate(work, 2 * n)
    return Subspace(n, tuple(tuple(row[n:]) for row, c in zip(work, pivots) if c >= n), a.dual)


def doubled_pullback(l: DiracVS, w: Subspace) -> DiracVS:
    """L_w by intersecting L with the 2n-dimensional w + (Q^n)*, then mapping
    (X, xi) -> (coords_w(X), xi(w_j)) and eliminating again."""
    n = l.ambient_dim
    w_doubled = Subspace(
        2 * n,
        tuple(r + (0,) * n for r in w.rows) + tuple((0,) * n + e for e in Subspace.full(n).rows),
    )
    rows = zassenhaus_intersect(l.span, w_doubled).basis
    coords = w.coordinates_of_rows(rows[:, :n])
    assert coords is not None
    return _span_pairs(coords, rows[:, n:] @ w.basis.transpose())


def doubled_characteristic(l: DiracVS) -> Subspace:
    """L & (Q^n + 0) by intersecting L with the 2n-dimensional Q^n + 0."""
    n = l.ambient_dim
    primal = Subspace(2 * n, tuple(e + (0,) * n for e in Subspace.full(n).rows))
    return Subspace(n, tuple(r[:n] for r in zassenhaus_intersect(l.span, primal).rows))


def image_rank(p: PoissonVS, c: Subspace) -> int:
    """rank rho = dim A(sharp ann C), A the rows of ann C, which identify Q^n / C with Q^m."""
    return image(annihilator(c).basis, p.sharp_annihilator(c)).dim


def _fresh(s: Subspace) -> Subspace:
    """An equal subspace with nothing derived from it yet."""
    return Subspace(s.ambient_dim, s.rows, s.dual)


def _coordinate(rng: random.Random, n: int, dual: bool = False) -> Subspace:
    """The span of a random set of standard basis vectors."""
    return Subspace(n, tuple(e for e in MatrixQ.identity(n).ints if rng.random() < 0.5), dual)


def _pair(rng: random.Random, family: str, n: int, dual: bool) -> tuple[Subspace, Subspace]:
    """A seeded pair of subspaces of Q^n (or its dual) of the given family."""
    a = rand_subspace(rng, n, dual)
    if family == "zero":
        return a, Subspace.zero(n, dual)
    if family == "full":
        return a, Subspace.full(n, dual)
    if family == "nested":  # a subspace of a, spanned by combinations of its rows
        rows = a.basis.entries
        combos = [[sum((Fraction(rng.randint(-3, 3)) * r[j] for r in rows), Fraction(0)) for j in range(n)]
                  for _ in range(rng.randint(0, a.dim))]
        return a, Subspace.span(n, combos, dual)
    if family == "transversal":  # complementary spans of the rows of an invertible matrix
        rows, k = rand_invertible(rng, n).entries, rng.randint(0, n)
        return Subspace.span(n, rows[:k], dual), Subspace.span(n, rows[k:], dual)
    if family == "equal":
        return a, _fresh(a)
    if family == "coordinate":
        return _coordinate(rng, n, dual), _coordinate(rng, n, dual)
    return a, rand_subspace(rng, n, dual)


FAMILIES = ("zero", "full", "nested", "transversal", "equal", "coordinate", "random")


@pytest.mark.parametrize("family", FAMILIES)
def test_intersect_equals_the_zassenhaus_reference_in_both_orders(family):
    rng = random.Random(f"intersect-{family}")
    for _ in range(150):
        n, dual = rng.randint(1, 6), rng.random() < 0.5
        a, b = _pair(rng, family, n, dual)
        expected = zassenhaus_intersect(a, b)
        assert expected == zassenhaus_intersect(b, a)
        for x, y in ((a, b), (b, a), (_fresh(b), _fresh(a))):
            meet = intersect(x, y)
            assert meet == expected and meet.dual == dual


@pytest.mark.parametrize("family", FAMILIES)
def test_intersection_dimension_equals_the_sympy_rank_oracle(family):
    # dim(a & b) = dim a + dim b - rank [A; B]
    rng = random.Random(f"oracle-{family}")
    for _ in range(60):
        n, dual = rng.randint(1, 6), rng.random() < 0.5
        a, b = _pair(rng, family, n, dual)
        rank = sympy.Matrix(list(a.rows + b.rows)).rank() if a.dim + b.dim else 0
        assert intersect(a, b).dim == intersect(b, a).dim == a.dim + b.dim - rank


def _structures(rng: random.Random, n: int):
    """Dirac structures on Q^n: graphs of bivectors, of full and low rank, forms on
    subspaces, and gauges of both."""
    graph = from_bivector(rand_poisson(rng, n))
    low = from_bivector(rand_low_rank_poisson(rng, n))
    form = from_subspace_form(*rand_dirac_form_data(rng, n))
    return {"bivector": graph, "low_rank": low, "form": form,
            "gauged_bivector": gauge(graph, rand_antisym(rng, n)), "gauged_form": gauge(form, rand_antisym(rng, n))}


def _targets(rng: random.Random, n: int) -> dict[str, Subspace]:
    return {"zero": Subspace.zero(n), "full": Subspace.full(n), "coordinate": _coordinate(rng, n),
            "random": rand_subspace(rng, n), "line": rand_subspace(rng, n, max_dim=1)}


def test_pullback_equals_the_doubled_space_reference():
    rng = random.Random("pullback-references")
    seen = set()
    for _ in range(40):
        n = rng.randint(1, 5)
        for kind, l in _structures(rng, n).items():
            for target, w in _targets(rng, n).items():
                pulled = pullback(l, w)
                assert pulled == doubled_pullback(l, w) and pulled.ambient_dim == w.dim
                seen.add((kind, target))
    assert len(seen) == 25


def test_characteristic_equals_the_doubled_space_reference():
    rng = random.Random("characteristic-references")
    for _ in range(60):
        n = rng.randint(1, 6)
        for l in _structures(rng, n).values():
            assert characteristic(l) == doubled_characteristic(l)


def test_rank_rho_equals_the_image_rank_reference():
    rng = random.Random("rank-rho-references")
    for _ in range(100):
        n = rng.randint(1, 6)
        for p in (rand_poisson(rng, n), rand_low_rank_poisson(rng, n), PoissonVS(n, MatrixQ.zeros(n, n))):
            for c in (Subspace.zero(n), Subspace.full(n), _coordinate(rng, n), rand_subspace(rng, n)):
                p, c = PoissonVS(p.dim, p.pi), _fresh(c)  # nothing derived from either yet
                record = classify_subspace(p, c)
                assert record.rho_rank == image_rank(p, c)
                assert characteristic_subspace(p, c) == zassenhaus_intersect(c, p.sharp_annihilator(c))
                assert record.dim_characteristic == characteristic_subspace(p, c).dim
