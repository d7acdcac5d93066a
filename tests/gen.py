"""Seeded random instance builders shared by unit and acceptance tests,
`tilted_complement_data`, an embedding input whose gauge form reads the fiber,
`pullback_canonical_form`, the gauge form of the embedding read on its own,
and `compose`, one polynomial composed through `compose_map`."""

from __future__ import annotations

import random
from fractions import Fraction

from poisdirac.bivector_fields import TwoFormField
from poisdirac.embedding import DiracManifoldData, Section, _gauged
from poisdirac.poisson_linear import PoissonVS, cosymplectic_extension, sharp_image
from poisdirac.polynomials import Poly, PolyMap, compose_map
from poisdirac.rational_linalg import MatrixQ, Subspace, annihilator, column_space, contains
from poisdirac.rational_linalg import add as subspace_add


def rand_fraction(rng: random.Random, height: int = 3) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def rand_point(rng: random.Random, n: int, height: int = 3) -> tuple[Fraction, ...]:
    return tuple(rand_fraction(rng, height) for _ in range(n))


def rand_matrix(rng: random.Random, rows: int, cols: int, height: int = 3) -> MatrixQ:
    return MatrixQ.from_rows([[rand_fraction(rng, height) for _ in range(cols)] for _ in range(rows)], cols=cols)


def rand_antisym(rng: random.Random, n: int, height: int = 3) -> MatrixQ:
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = rand_fraction(rng, height)
            entries[i][j] = c
            entries[j][i] = -c
    return MatrixQ(n, n, tuple(tuple(r) for r in entries))


def rand_poisson(rng: random.Random, n: int, height: int = 3) -> PoissonVS:
    return PoissonVS(n, rand_antisym(rng, n, height))


def rand_low_rank_poisson(rng: random.Random, n: int, height: int = 3) -> PoissonVS:
    """A bivector of rank at most 4: the sum of one or two u ^ v."""
    entries = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(rng.randint(1, 2)):
        u, v = rand_point(rng, n, height), rand_point(rng, n, height)
        for i in range(n):
            for j in range(n):
                entries[i][j] += u[i] * v[j] - u[j] * v[i]
    return PoissonVS(n, MatrixQ(n, n, tuple(map(tuple, entries))))


def rand_subspace(rng: random.Random, n: int, dual: bool = False, max_dim: int | None = None) -> Subspace:
    max_dim = n if max_dim is None else max_dim
    rows = rng.randint(0, max_dim)
    return Subspace.span(n, [[rand_fraction(rng) for _ in range(n)] for _ in range(rows)], dual)


def rand_complement_extension(rng: random.Random, p: PoissonVS, c: Subspace) -> Subspace:
    """A random (not greedy) cosymplectic subspace containing c coisotropically."""
    reach = subspace_add(c, sharp_image(p, annihilator(c)))
    w = c
    current = reach
    guard = 0
    while current.dim < p.dim:
        guard += 1
        v = tuple(rand_fraction(rng) for _ in range(p.dim)) if guard < 50 else MatrixQ.identity(p.dim).entries[guard % p.dim]
        line = Subspace.span(p.dim, [v])
        if not contains(current, line):
            current = subspace_add(current, line)
            w = subspace_add(w, line)
    return w


def rand_valid_iso_triple(rng: random.Random, max_dim: int = 6):
    """(p, c, v, w) with v, w cosymplectic extensions of a coisotropic c."""
    n = rng.randint(2, max_dim)
    p = rand_poisson(rng, n)
    c = rand_subspace(rng, n, max_dim=n - 1)
    v = cosymplectic_extension(p, c)
    w = rand_complement_extension(rng, p, c)
    return p, c, v, w


def rand_shear_diffeo(rng: random.Random, variables: tuple[str, ...], shears: int = 2) -> tuple[PolyMap, PolyMap]:
    """Polynomial diffeomorphism with polynomial inverse, built from
    triangular shears x_i -> x_i + f(later variables)."""
    n = len(variables)
    forward = PolyMap.identity(variables)
    backward = PolyMap.identity(variables)
    for _ in range(shears):
        i = rng.randint(0, n - 2)
        f = Poly.zero(variables)
        for _ in range(rng.randint(1, 2)):
            j = rng.randint(i + 1, n - 1)
            k = rng.randint(j, n - 1)
            coeff = rand_fraction(rng, 2)
            f = f + (Poly.variable(variables, variables[j]) * Poly.variable(variables, variables[k])).scale(coeff)
        plus = PolyMap(variables, tuple(
            Poly.variable(variables, v) + (f if idx == i else Poly.zero(variables))
            for idx, v in enumerate(variables)
        ))
        minus = PolyMap(variables, tuple(
            Poly.variable(variables, v) - (f if idx == i else Poly.zero(variables))
            for idx, v in enumerate(variables)
        ))
        forward = compose_map(plus, forward)
        backward = compose_map(backward, minus)
    return forward, backward


def compose(outer: Poly, inner: PolyMap) -> Poly:
    """Substitute inner's components for outer's variables: the one-component map of outer
    composed by `compose_map`."""
    return compose_map(PolyMap(outer.variables, (outer,)), inner).components[0]


def rand_dirac_form_data(rng: random.Random, n: int) -> tuple[Subspace, MatrixQ]:
    """Random (carrier, antisymmetric form) pair defining a Dirac structure."""
    o = rand_subspace(rng, n)
    omega = rand_antisym(rng, o.dim) if o.dim else MatrixQ(0, 0, ())
    return o, omega


def rand_invertible(rng: random.Random, n: int, height: int = 2) -> MatrixQ:
    while True:
        m = rand_matrix(rng, n, n, height)
        if column_space(m).dim == n:
            return m


def rand_minimal_coisotropic_pair(rng: random.Random, max_v: int = 2, max_k: int = 2):
    """(p, m) with m coisotropic and sharp injective on its annihilator,
    in general position (a conjugated block model)."""
    vd, k = rng.randint(0, max_v), rng.randint(1, max_k)
    n = vd + 2 * k
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(vd):
        for j in range(i + 1, vd):
            c = rand_fraction(rng)
            entries[i][j], entries[j][i] = c, -c
    for i in range(k):
        entries[vd + i][vd + k + i] = Fraction(1)
        entries[vd + k + i][vd + i] = Fraction(-1)
    model = MatrixQ(n, n, tuple(tuple(r) for r in entries))
    s = rand_invertible(rng, n)
    p = PoissonVS(n, s @ model @ s.transpose())
    # the model subspace span{e_1..e_{vd+k}} maps to the span of the first
    # vd+k columns of the conjugating matrix
    m_rows = [tuple(s.matvec([Fraction(1 if t == i else 0) for t in range(n)])) for i in range(vd + k)]
    m = Subspace.span(n, m_rows)
    return p, m


def pullback_canonical_form(d: DiracManifoldData) -> TwoFormField:
    """Gauge two-form B = CANONICAL_FORM_SIGN * d(theta) of the embedding; closed by construction."""
    return _gauged(d)[1]


def tilted_complement_data() -> DiracManifoldData:
    """A complement tilted by x1: B depends on p1, so the gauged sections read the fiber
    coordinate, and at p1 = -1 the structure is not a bivector graph."""
    x3 = ("x1", "x2", "x3")
    q = lambda t: Poly.parse(t, x3)
    return DiracManifoldData(
        base_dim=3,
        sections=(
            Section((q("1"), q("0"), q("0")), (q("0"), q("1"), q("0"))),
            Section((q("0"), q("1"), q("0")), (q("-1"), q("0"), q("0"))),
            Section((q("0"), q("0"), q("1")), (q("0"), q("0"), q("0"))),
        ),
        e_frame=((q("0"), q("0"), q("1")),),
        v_frame=((q("1"), q("0"), q("0")), (q("0"), q("1"), q("x1"))),
    )
