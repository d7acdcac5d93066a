import random
from collections import Counter
from fractions import Fraction

import pytest

from gen import (
    rand_antisym, rand_fraction, rand_low_rank_poisson, rand_matrix, rand_minimal_coisotropic_pair, rand_point,
    rand_poisson, rand_subspace, rand_valid_iso_triple,
)
from poisdirac import poisson_linear
from poisdirac.bivector_fields import BivectorField
from poisdirac.dirac_linear import as_bivector, from_bivector, gauge
from poisdirac.errors import PreconditionError, SpaceMismatchError
from poisdirac.polynomials import Poly
from poisdirac.poisson_linear import (
    EmbeddingConditions,
    PoissonVS,
    _block_model,
    canonical_iso,
    characteristic_subspace,
    classify_subspace,
    coisotropic_splitting,
    cosymplectic_extension,
    embedding_conditions,
    induced_bivector,
    is_coisotropic,
    is_cosymplectic,
    leaf_form_gram,
    leaf_form_value,
    linear_uniqueness_iso,
    sharp_image,
    subspace_in_basis,
)
from poisdirac.rational_linalg import MatrixQ, Subspace, add, annihilator, intersect, solve

J2 = MatrixQ.from_rows([[0, 1], [-1, 0]])
J4 = MatrixQ.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
P2 = PoissonVS(2, J2)
P4 = PoissonVS(4, J4)
E1 = Subspace.span(4, [[1, 0, 0, 0]])
E12 = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]])


def dual_span(n, rows):
    return Subspace.span(n, rows, dual=True)


def reference_gram(p, xs, ys):
    """The Fraction dot-product formula: Omega(x, y) = -xi(y) with sharp xi = x,
    solved once per distinct vector."""
    preimages = {}
    for v in dict.fromkeys(map(tuple, (*xs, *ys))):
        xi = solve(p.pi, MatrixQ.from_rows([v]))
        if xi is None:
            raise PreconditionError("leaf form is only defined on the image of sharp")
        preimages[v] = xi.entries[0]
    return tuple(tuple(-sum(a * b for a, b in zip(preimages[tuple(x)], y)) for y in ys) for x in xs)


def gram_rows(p, xs, ys):
    """leaf_form_gram of the matrices whose rows are xs and ys, as rows of Fractions."""
    return leaf_form_gram(p, MatrixQ.from_rows(xs, cols=p.dim), MatrixQ.from_rows(ys, cols=p.dim)).entries


def rank_deficient_poisson(rng, n):
    """Pi = B K B^T with B n x (n - 2): its leaf is a proper subspace."""
    b = rand_matrix(rng, n, n - 2)
    return PoissonVS(n, b @ rand_antisym(rng, n - 2) @ b.transpose())


class TestSharpImage:
    def test_plane_rotation(self):
        assert sharp_image(P2, dual_span(2, [[0, 1]])) == Subspace.span(2, [[1, 0]])

    def test_zero_bivector(self):
        p = PoissonVS(3, MatrixQ.zeros(3, 3))
        assert sharp_image(p, dual_span(3, [[1, 0, 0], [0, 1, 0]])) == Subspace.zero(3)

    def test_symplectic_block(self):
        s = dual_span(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert sharp_image(P4, s) == Subspace.span(4, [[0, 0, 1, 0], [0, 0, 0, 1]])

    def test_primal_input_rejected(self):
        with pytest.raises(SpaceMismatchError):
            sharp_image(P4, E1)


@pytest.mark.parametrize("analysis", [
    lambda p, s: p.sharp_annihilator(s),
    characteristic_subspace,
    classify_subspace,
    induced_bivector,
    cosymplectic_extension,
    coisotropic_splitting,
    lambda p, s: embedding_conditions(p, s, s),
    lambda p, s: linear_uniqueness_iso(p, p, s, s),
], ids=["sharp_annihilator", "characteristic_subspace", "classify_subspace", "induced_bivector",
        "cosymplectic_extension", "coisotropic_splitting", "embedding_conditions", "linear_uniqueness_iso"])
@pytest.mark.parametrize("p, s", [
    (P4, dual_span(4, [[1, 0, 0, 0]])),
    (P2, Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])),
], ids=["dual", "other_ambient"])
def test_every_analysis_refuses_a_subspace_it_cannot_hold_with_one_message(analysis, p, s):
    with pytest.raises(SpaceMismatchError, match="^subspace must be primal and match the ambient dimension$"):
        analysis(p, s)


class TestClassification:
    def test_whole_space(self):
        rec = classify_subspace(P4, Subspace.full(4))
        assert rec.coisotropic and rec.cosymplectic and rec.rho_rank == 0

    def test_symplectic_plane_is_cosymplectic(self):
        rec = classify_subspace(P4, E12)
        assert rec.cosymplectic and rec.dim_characteristic == 0

    def test_isotropic_line(self):
        rec = classify_subspace(P4, E1)
        assert rec.rho_rank == 2
        assert rec.dim_characteristic == 1
        assert not rec.coisotropic and not rec.cosymplectic

    def test_lagrangian_flag(self):
        lag = Subspace.span(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
        assert classify_subspace(P4, lag).lagrangian_in_leaf


class TestInducedBivector:
    def test_whole_space(self):
        assert induced_bivector(P4, Subspace.full(4)).pi == J4

    def test_symplectic_plane(self):
        assert induced_bivector(P4, E12).pi == J2

    def test_casimir_line_gets_zero(self):
        p = PoissonVS(3, MatrixQ.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
        w = Subspace.span(3, [[0, 0, 1]])
        assert induced_bivector(p, w).pi == MatrixQ.zeros(1, 1)

    def test_non_poisson_dirac_rejected(self):
        with pytest.raises(PreconditionError):
            induced_bivector(P4, E1)


class TestEmbeddingConditions:
    def test_whole_space_in_itself(self):
        conds = embedding_conditions(P4, Subspace.full(4), Subspace.full(4))
        assert conds.both()

    def test_good_extension(self):
        assert embedding_conditions(P4, E1, E12).both()

    def test_bad_extension_fails_intersection(self):
        w = Subspace.span(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
        conds = embedding_conditions(P4, E1, w)
        assert not conds.cond_int

    def test_c_outside_w_rejected(self):
        with pytest.raises(PreconditionError):
            embedding_conditions(P4, E12, E1)

    def test_record_carries_the_induced_bivector_outside_equality_and_repr(self):
        good, bad = embedding_conditions(P4, E1, E12), embedding_conditions(P4, E1, Subspace.span(4, [[1, 0, 0, 0], [0, 0, 1, 0]]))
        assert good.induced == induced_bivector(P4, E12) and good.induced.pi == J2 and bad.induced is None
        assert good == EmbeddingConditions(True, True) and repr(good) == "EmbeddingConditions(cond_leaf=True, cond_int=True)"
        assert hash(good) == hash(EmbeddingConditions(True, True))

    def test_record_is_derived_once_per_structure(self):
        p = PoissonVS(4, J4)
        assert embedding_conditions(p, E1, E12) is embedding_conditions(p, E1, E12)
        assert embedding_conditions(PoissonVS(4, J4), E1, E12) is not embedding_conditions(p, E1, E12)


class TestCosymplecticExtension:
    def test_coisotropic_gets_whole_space(self):
        c = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert classify_subspace(P4, c).coisotropic
        assert cosymplectic_extension(P4, c) == Subspace.full(4)

    def test_greedy_picks_lowest_index(self):
        assert cosymplectic_extension(P4, E1) == E12

    def test_zero_subspace_gets_leaf_complement(self):
        p = PoissonVS(3, MatrixQ.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
        assert cosymplectic_extension(p, Subspace.zero(3)) == Subspace.span(3, [[0, 0, 1]])

    def test_deterministic(self):
        rng = random.Random(5)
        for _ in range(20):
            p = rand_poisson(rng, 5)
            c = rand_subspace(rng, 5, max_dim=3)
            assert cosymplectic_extension(p, c) == cosymplectic_extension(p, c)


class TestLeafForm:
    def test_antisymmetry_on_diagonal(self):
        x = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        assert leaf_form_value(P4, x, x) == 0

    def test_defining_identity(self):
        rng = random.Random(11)
        for _ in range(30):
            p = rand_poisson(rng, 4)
            xi = rand_point(rng, 4)
            y = p.sharp(rand_point(rng, 4))
            expected = -sum(a * b for a, b in zip(xi, y))
            assert leaf_form_value(p, p.sharp(xi), y) == expected

    def test_rejects_vectors_outside_leaf(self):
        p = PoissonVS(2, MatrixQ.zeros(2, 2))
        with pytest.raises(PreconditionError):
            leaf_form_value(p, (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_gram_is_minus_xi_of_y(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 6)
            p = rand_poisson(rng, n)
            xis = [rand_point(rng, n) for _ in range(rng.randint(1, 3))]
            ys = [p.sharp(rand_point(rng, n)) for _ in range(rng.randint(1, 3))]
            gram = gram_rows(p, [p.sharp(xi) for xi in xis], ys)
            assert gram == tuple(tuple(-sum(a * b for a, b in zip(xi, y)) for y in ys) for xi in xis)
            for i, xi in enumerate(xis):
                for j, y in enumerate(ys):
                    assert leaf_form_value(p, p.sharp(xi), y) == gram[i][j]

    @pytest.mark.parametrize("off_in", ["x", "y"])
    def test_gram_rejects_a_vector_off_the_leaf_in_either_argument(self, off_in):
        # the leaf of this bivector is the x1-x2 plane
        p = PoissonVS(4, MatrixQ.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
        on = (Fraction(1), Fraction(2), Fraction(0), Fraction(0))
        off = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
        x, y = (off, on) if off_in == "x" else (on, off)
        for call in (lambda: gram_rows(p, [on, x], [y, on]), lambda: leaf_form_value(p, x, y)):
            with pytest.raises(PreconditionError, match="only defined on the image of sharp"):
                call()

    def assert_gram_is_the_reference(self, p, xs, ys):
        gram = gram_rows(p, xs, ys)
        assert gram == reference_gram(p, xs, ys)
        assert len(gram) == len(xs) and all(len(row) == len(ys) for row in gram)
        assert all(type(a) is Fraction for row in gram for a in row)
        return gram

    def test_gram_of_int_entry_vectors(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(30):
            n = rng.choice((2, 4, 6))
            p = PoissonVS(n, rand_antisym(rng, n))
            if p.leaf().dim < n:
                continue
            checked += 1
            # a full-rank bivector: every int vector, as a list or a tuple, lies on the leaf
            xs = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            ys = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            self.assert_gram_is_the_reference(p, xs, ys)
        assert checked >= 20
        assert gram_rows(P4, [[1, 0, 0, 0]], [[0, 1, 0, 0], [0, 0, 1, 0]]) == ((-1, 0),)

    def test_gram_with_no_rows_or_no_columns(self):
        rng = random.Random(14)
        for p in (P4, rank_deficient_poisson(rng, 4), PoissonVS(3, MatrixQ.zeros(3, 3))):
            on_leaf = [p.sharp(rand_point(rng, p.dim)) for _ in range(2)]
            assert self.assert_gram_is_the_reference(p, [], on_leaf) == ()
            assert self.assert_gram_is_the_reference(p, on_leaf, []) == ((), ())
            assert gram_rows(p, [], []) == ()

    def test_gram_of_repeated_vectors(self):
        rng = random.Random(15)
        for _ in range(20):
            n = rng.randint(2, 6)
            p = rand_poisson(rng, n) if rng.random() < 0.5 else rank_deficient_poisson(rng, max(n, 3))
            x, y = (p.sharp(rand_point(rng, p.dim)) for _ in range(2))
            # the same object twice, an equal copy, and one list given as both arguments
            copy = tuple(list(x))
            assert copy == x and copy is not x
            xs = [x, y, x, copy]
            gram = self.assert_gram_is_the_reference(p, xs, [y, x, y])
            assert gram[0] == gram[2] == gram[3] and gram[0][1] == gram[1][0] == gram[1][2] == 0
            assert self.assert_gram_is_the_reference(p, xs, xs) == reference_gram(p, xs, list(xs))
            # one matrix object given as both arguments is solved once, with the same Gram matrix
            m = MatrixQ.from_rows(xs)
            assert leaf_form_gram(p, m, m) == leaf_form_gram(p, m, MatrixQ.from_rows(xs))
            assert leaf_form_gram(p, m, m).entries == reference_gram(p, xs, xs)

    def test_gram_on_rank_deficient_bivectors(self):
        rng = random.Random(16)
        for _ in range(30):
            n = rng.randint(3, 7)
            p = rank_deficient_poisson(rng, n)
            assert p.leaf().dim < n
            xs = [p.sharp(rand_point(rng, n)) for _ in range(rng.randint(1, 4))]
            ys = [p.sharp(rand_point(rng, n)) for _ in range(rng.randint(1, 4))]
            gram = self.assert_gram_is_the_reference(p, xs, ys)
            assert gram_rows(p, ys, xs) == tuple(tuple(-a for a in col) for col in zip(*gram))
            off = next(e for e in ((1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2), (0, 0, 1) + (0,) * (n - 3))
                       if p.leaf().coordinates_of_rows(MatrixQ.from_rows([e])) is None)
            for bad in (([off], ys), (xs, ys + [off])):
                with pytest.raises(PreconditionError, match="only defined on the image of sharp"):
                    gram_rows(p, *bad)
                with pytest.raises(PreconditionError, match="only defined on the image of sharp"):
                    reference_gram(p, *bad)

    def test_gram_refuses_floats(self):
        refusal = r"^cannot interpret 0\.5 as a rational \(floats are not accepted\)$"
        on = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        for call in (
            lambda: gram_rows(P4, [(0.5, 0, 0, 0)], [on]),
            lambda: gram_rows(P4, [on], [on, (0, 0.5, 0, 0)]),
            lambda: gram_rows(P4, [], [(0, 0, 0, 0.5)]),
            lambda: leaf_form_value(P4, on, (0, 0, 0.5, 0)),
            lambda: P2.sharp((0.5, 0)),
        ):
            with pytest.raises(TypeError, match=refusal):
                call()

    def test_gram_rejects_wrong_length(self):
        # every length is checked before the one solve: a short vector raises
        # wherever it sits, also behind a vector off the leaf
        p = PoissonVS(4, MatrixQ.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
        short, off_leaf = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
        for xs, ys in (([short], []), ([off_leaf], [short])):
            with pytest.raises(SpaceMismatchError, match="vector length"):
                gram_rows(p, xs, ys)


class TestCanonicalIso:
    def test_identity_when_v_equals_w(self):
        assert canonical_iso(P4, E1, E12, E12) == MatrixQ.identity(2)

    def test_tilted_extension(self):
        w = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 1, 0]])
        phi = canonical_iso(P4, E1, E12, w)
        assert phi == MatrixQ.identity(2)  # canonical bases already correspond
        pv, pw = induced_bivector(P4, E12), induced_bivector(P4, w)
        assert phi @ pv.pi @ phi.transpose() == pw.pi

    def test_randomized_postconditions(self):
        rng = random.Random(23)
        done = 0
        while done < 40:
            p, c, v, w = rand_valid_iso_triple(rng, max_dim=5)
            phi = canonical_iso(p, c, v, w)
            pv, pw = induced_bivector(p, v), induced_bivector(p, w)
            assert phi @ pv.pi @ phi.transpose() == pw.pi
            for x, y in zip(v.coordinates_of_rows(c.basis).entries, w.coordinates_of_rows(c.basis).entries):
                assert phi.matvec(x) == y
            done += 1

    def test_no_classification_and_each_induced_bivector_is_computed_once(self, monkeypatch):
        # the preconditions read the cosymplectic flag alone, and no classification
        seen = Counter()
        for name in ("classify_subspace", "induced_bivector"):
            original = getattr(poisson_linear, name)

            def counting(p, s, name=name, original=original):
                seen[(name, p, s)] += 1
                return original(p, s)

            monkeypatch.setattr(poisson_linear, name, counting)
        rng = random.Random(29)
        for _ in range(10):
            p, c, v, w = rand_valid_iso_triple(rng, max_dim=5)
            seen.clear()
            canonical_iso(p, c, v, w)
            assert {key[0] for key in seen} <= {"induced_bivector"}
            assert max(seen.values(), default=1) == 1, [key[0] for key, n in seen.items() if n > 1]

    def test_rejects_non_cosymplectic(self):
        with pytest.raises(PreconditionError):
            canonical_iso(P4, E1, E1, E12)


class TestSplitting:
    def test_lagrangian_line_in_plane(self):
        s = coisotropic_splitting(P2, Subspace.span(2, [[1, 0]]))
        assert s.e == Subspace.span(2, [[1, 0]])
        assert s.v.dim == 0
        assert s.model.pi == J2

    def test_hyperplane_in_symplectic_four_space(self):
        m = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        s = coisotropic_splitting(P4, m)
        assert s.e == Subspace.span(4, [[0, 0, 1, 0]])
        assert s.v == E12

    def test_nondegenerate_whole_space(self):
        s = coisotropic_splitting(P4, Subspace.full(4))
        assert s.e.dim == 0 and s.v == Subspace.full(4)
        assert s.change_of_basis == MatrixQ.identity(4)

    def test_rejects_non_coisotropic(self):
        with pytest.raises(PreconditionError):
            coisotropic_splitting(P4, E1)

    def test_rejects_codimension_mismatch(self):
        p = PoissonVS(3, MatrixQ.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
        m = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])  # coisotropic, but sharp ann is 0-dim
        with pytest.raises(PreconditionError):
            coisotropic_splitting(p, m)


class TestSplittingRandomized:
    def test_general_position_instances(self):
        # coisotropic_splitting verifies the block-model identity internally
        # and raises on any violation, so surviving is the assertion
        from gen import rand_minimal_coisotropic_pair

        rng = random.Random(61)
        for _ in range(40):
            p, m = rand_minimal_coisotropic_pair(rng)
            s = coisotropic_splitting(p, m)
            assert s.e.dim + s.v.dim == m.dim
            assert add(s.v, s.e) == m
            t = s.change_of_basis
            assert t @ s.model.pi @ t.transpose() == p.pi


class TestUniquenessIso:
    def test_two_scalings_of_the_plane(self):
        p2b = PoissonVS(2, MatrixQ.from_rows([[0, 2], [-2, 0]]))
        m = Subspace.span(2, [[1, 0]])
        phi = linear_uniqueness_iso(P2, p2b, m, Subspace.zero(2))
        assert phi @ P2.pi @ phi.transpose() == p2b.pi
        assert phi.matvec((Fraction(1), Fraction(0))) == (Fraction(1), Fraction(0))

    def test_same_structure_satisfies_postconditions(self):
        m = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        phi = linear_uniqueness_iso(P4, P4, m, E12)
        assert phi @ P4.pi @ phi.transpose() == P4.pi
        for row in m.basis.entries:
            assert phi.matvec(row) == row

    def test_rejects_mismatched_structures(self):
        m = Subspace.span(2, [[1, 0]])
        other = PoissonVS(2, MatrixQ.zeros(2, 2))
        with pytest.raises(PreconditionError):
            linear_uniqueness_iso(P2, other, m, Subspace.zero(2))

    def test_randomized_gauge_perturbed_pairs(self):
        # second structure built by conjugating with a map fixing m pointwise,
        # which preserves the pullback structure on m
        rng = random.Random(99)
        from gen import rand_fraction, rand_minimal_coisotropic_pair
        from poisdirac.poisson_linear import greedy_complement, sharp_image

        for _ in range(30):
            p1, m = rand_minimal_coisotropic_pair(rng)
            n = p1.dim
            e = sharp_image(p1, annihilator(m))
            v = Subspace.span(n, greedy_complement(e, m.basis).entries)
            # perturbation fixing m pointwise: identity plus columns supported
            # outside m, written in an adapted basis
            adapted = list(m.basis.entries) + list(greedy_complement(m, MatrixQ.identity(n)).entries)
            t = MatrixQ.from_rows(adapted, cols=n).transpose()
            while True:
                s_rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
                for i in range(n):
                    for j in range(m.dim, n):
                        s_rows[i][j] = rand_fraction(rng) if i != j else Fraction(1) + rand_fraction(rng)
                s_adapted = MatrixQ(n, n, tuple(tuple(r) for r in s_rows))
                if Subspace.span(n, s_adapted.entries).dim == n:
                    break
            from poisdirac.rational_linalg import inverse as inv

            s = t @ s_adapted @ inv(t)
            p2 = PoissonVS(n, s @ p1.pi @ s.transpose())
            phi = linear_uniqueness_iso(p1, p2, m, v)
            assert phi @ p1.pi @ phi.transpose() == p2.pi
            for row in m.basis.entries:
                assert phi.matvec(row) == row


def test_pullback_precondition_agrees_with_the_dirac_pullbacks():
    # linear_uniqueness_iso compares the pullbacks of graph(Pi) to m through the leaf
    # (range m intersect O, form -Omega there); refusing must mean the Dirac pullbacks differ
    from gen import rand_minimal_coisotropic_pair
    from poisdirac.dirac_linear import from_bivector, pullback
    from poisdirac.errors import PropertyViolationError

    def refused(p1, p2, m):
        try:
            linear_uniqueness_iso(p1, p2, m, None)
        except (PreconditionError, PropertyViolationError) as exc:
            return "different pullback structures" in str(exc)
        return False

    rng = random.Random(2024)
    pairs = []
    for _ in range(40):
        # gauge-perturbed: conjugate by s = I + u alpha^T with alpha in ann m, fixing m pointwise
        p1, m = rand_minimal_coisotropic_pair(rng)
        n = p1.dim
        alpha = [sum(rand_point(rng, 1)[0] * a for a in col) for col in zip(*annihilator(m).basis.entries)]
        u = rand_point(rng, n)
        if 1 + sum(a * b for a, b in zip(alpha, u)) != 0:
            s = MatrixQ(n, n, tuple(tuple(Fraction(i == j) + u[i] * alpha[j] for j in range(n)) for i in range(n)))
            pairs.append((p1, PoissonVS(n, s @ p1.pi @ s.transpose()), m))
        # mismatched: the same structure scaled, and unrelated structures
        pairs.append((p1, PoissonVS(n, p1.pi.scale(2)), m))
        n = rng.randint(1, 5)
        q1, q2, c = rand_poisson(rng, n), rand_poisson(rng, n), rand_subspace(rng, n)
        pairs += [(q1, PoissonVS(n, q1.pi.scale(-3)), c), (q1, q2, c)]
    outcomes = Counter()
    for p1, p2, m in pairs:
        if p1.sharp_annihilator(m) != p2.sharp_annihilator(m):
            continue  # refused earlier, on the sharp images of the annihilator
        differ = pullback(from_bivector(p1), m) != pullback(from_bivector(p2), m)
        assert refused(p1, p2, m) == differ
        outcomes[differ] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 20, outcomes


def test_sharp_kernel_is_leaf_annihilator():
    from poisdirac.rational_linalg import Subspace as S
    from poisdirac.rational_linalg import kernel

    rng = random.Random(88)
    for _ in range(40):
        p = rand_poisson(rng, rng.randint(1, 6))
        ker = kernel(p.pi)
        ann_leaf = annihilator(p.leaf())
        assert S(p.dim, ker.rows, dual=True) == ann_leaf


def test_direct_sum_identity_randomized():
    # c + sharp(ann c) splits as c plus sharp(ann w) for any valid extension
    rng = random.Random(77)
    for _ in range(40):
        p, c, v, w = rand_valid_iso_triple(rng, max_dim=5)
        for ext in (v, w):
            sharp_ann_c = sharp_image(p, annihilator(c))
            sharp_ann_w = sharp_image(p, annihilator(ext))
            left = add(c, sharp_ann_c)
            assert left == add(c, sharp_ann_w)
            assert intersect(c, sharp_ann_w).dim == 0


def test_the_predicates_are_the_classification_flags():
    rng = random.Random(101)
    verdicts = Counter()
    for _ in range(300):
        n = rng.randint(1, 6)
        p = (rand_poisson if rng.random() < 0.5 else rand_low_rank_poisson)(rng, n)
        c = rand_subspace(rng, n)
        record = classify_subspace(p, c)
        flags = is_coisotropic(p, c), is_cosymplectic(p, c)
        assert flags == (record.coisotropic, record.cosymplectic)
        verdicts.update(zip(("coisotropic", "cosymplectic"), flags))
    assert min(verdicts[name, flag] for name in ("coisotropic", "cosymplectic") for flag in (True, False)) >= 30


def test_structures_built_without_a_check_pass_it():
    # PoissonVS._of skips the antisymmetry check; each construction that uses it must
    # yield what the public constructor accepts
    rng = random.Random(103)
    names = ("x1", "x2", "x3")
    for _ in range(30):
        upper = {(i, j): Poly.variable(names, rng.choice(names)).scale(rand_fraction(rng))
                 + Poly.constant(names, rand_fraction(rng)) for i in range(3) for j in range(i + 1, 3)}
        p, _, _, w = rand_valid_iso_triple(rng, max_dim=6)
        pm, m = rand_minimal_coisotropic_pair(rng)
        built = [
            BivectorField.from_upper(names, upper).at(rand_point(rng, 3)),
            as_bivector(from_bivector(p)),
            as_bivector(gauge(from_bivector(p), rand_antisym(rng, p.dim))),
            induced_bivector(p, w),
            coisotropic_splitting(pm, m).model,
            _block_model(p, rng.randint(0, 2)),
        ]
        for q in filter(None, built):
            assert PoissonVS(q.dim, q.pi) == q


PRIMAL_MESSAGE = "subspace must be primal and match the ambient dimension"

# id: (build, exception type, message) for each refusal that only a caller of the Python
# API reaches: the commands build bivectors, subspaces and complements from checked input
API_REFUSALS = {
    "bivector of another size": (lambda: PoissonVS(3, J2), SpaceMismatchError,
                                 "bivector matrix shape does not match dimension"),
    "symmetric bivector": (lambda: PoissonVS(2, MatrixQ.identity(2)), PreconditionError,
                           "bivector matrix must be antisymmetric"),
    "subspace outside the coordinate subspace": (lambda: subspace_in_basis(E12, E1), PreconditionError,
                                                 "subspace is not contained in the coordinate subspace"),
    "v that is no complement": (lambda: coisotropic_splitting(P4, Subspace.full(4), E1), PreconditionError,
                                "supplied v is not a complement of e inside m"),
    # sharp_annihilator refuses a subspace of another ambient first
    "structures of different dimensions": (lambda: linear_uniqueness_iso(P2, P4, Subspace.full(4), Subspace.full(4)),
                                           SpaceMismatchError, PRIMAL_MESSAGE),
    "coisotropic flag of a dual subspace": (lambda: is_coisotropic(P4, dual_span(4, [[1, 0, 0, 0]])),
                                            SpaceMismatchError, PRIMAL_MESSAGE),
    "coisotropic flag in another ambient": (lambda: is_coisotropic(P4, Subspace.full(2)), SpaceMismatchError,
                                            PRIMAL_MESSAGE),
    "cosymplectic flag of a dual subspace": (lambda: is_cosymplectic(P4, dual_span(4, [[1, 0, 0, 0]])),
                                             SpaceMismatchError, PRIMAL_MESSAGE),
    "cosymplectic flag in another ambient": (lambda: is_cosymplectic(P4, Subspace.full(2)), SpaceMismatchError,
                                             PRIMAL_MESSAGE),
}


@pytest.mark.parametrize("case", API_REFUSALS)
def test_api_refusals(case):
    build, error, message = API_REFUSALS[case]
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message
