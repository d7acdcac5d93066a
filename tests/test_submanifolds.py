import random
from fractions import Fraction

import pytest

from gen import rand_fraction
from poisdirac.bivector_fields import BivectorField
from poisdirac.errors import PreconditionError, RegularityError
from poisdirac.polynomials import Poly, PolyMap
from poisdirac.rational_linalg import MatrixQ, Subspace
from poisdirac.submanifolds import (
    LevelSet,
    Parametrized,
    PointData,
    conormal_at,
    grid_points,
    grid_points_on,
    LEVEL_SET_ATTEMPTS,
    rank_profile,
    tangent_at,
)

X3 = ("x1", "x2", "x3")
X4 = ("x1", "x2", "x3", "x4")
X6 = tuple(f"x{i}" for i in range(1, 7))

FZ = BivectorField.from_upper(X3, {(0, 1): "x3"})
C_FZ = LevelSet((Poly.parse("x1", X3), Poly.parse("x2", X3)))

X2Z = BivectorField.from_upper(X4, {(0, 1): "x1^2", (2, 3): "x3"})
C_X2Z = Parametrized(PolyMap.parse(["t1^2", "0", "t1", "0"], ("t1",)))

GRAPH4 = BivectorField.from_upper(X4, {(0, 2): "1", (1, 3): "1"})
C_GRAPH4 = Parametrized(PolyMap.parse(["t1", "t2", "t2^2", "t1^2"], ("t1", "t2")))

R6 = BivectorField.from_upper(X6, {(1, 3): "x1", (2, 5): "1", (4, 5): "x1"})
C_R6 = LevelSet(tuple(Poly.parse(v, X6) for v in ("x4", "x5", "x6")))

SYMPL4 = BivectorField.from_upper(X4, {(0, 1): "1", (2, 3): "1"})
C_HYPER = LevelSet((Poly.parse("x4", X4),))


def frac(*args):
    return tuple(Fraction(a) for a in args)


class TestTangentConormal:
    def test_curve_tangent(self):
        assert tangent_at(C_X2Z, (Fraction(1),)) == Subspace.span(4, [[2, 0, 1, 0]])

    def test_level_set_tangent_everywhere(self):
        t = tangent_at(C_HYPER, frac(1, 2, 3, 0))
        assert t == Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])

    def test_conormal_of_coordinate_plane(self):
        cn = conormal_at(C_R6, frac(1, 2, 3, 0, 0, 0))
        assert cn == Subspace.span(6, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], dual=True)

    def test_point_off_locus_rejected(self):
        with pytest.raises(RegularityError):
            tangent_at(C_HYPER, frac(0, 0, 0, 1))

    def test_non_immersion_point_rejected(self):
        bad = Parametrized(PolyMap.parse(["t1^2", "t1^3"], ("t1",)))
        with pytest.raises(RegularityError):
            tangent_at(bad, (Fraction(0),))
        assert tangent_at(bad, (Fraction(1),)) == Subspace.span(2, [[2, 3]])


class TestClassifyAt:
    @pytest.mark.parametrize("z,expected", [(0, 1), (1, 3), (-1, 3), (-2, 3)])
    def test_vertical_line_reach(self, z, expected):
        rec = PointData(FZ, C_FZ, frac(0, 0, z)).classification
        assert rec.dim_sum == expected

    @pytest.mark.parametrize("z,expected", [(1, 3), (0, 1)])
    def test_curve_reach(self, z, expected):
        rec = PointData(X2Z, C_X2Z, (Fraction(z),)).classification
        assert rec.dim_sum == expected

    @pytest.mark.parametrize("pt,expected", [((1, 1), 2), ((2, 2), 2), ((1, 2), 0), ((0, 3), 0)])
    def test_graph_surface_characteristic(self, pt, expected):
        rec = PointData(GRAPH4, C_GRAPH4, frac(*pt)).classification
        assert rec.dim_characteristic == expected

    def test_levelset_and_parametrized_agree(self):
        level = LevelSet((Poly.parse("x4", X4), Poly.parse("x2", X4)))
        param = Parametrized(PolyMap.parse(["t1", "0", "t2", "0"], ("t1", "t2")))
        for _ in range(10):
            rng = random.Random(_)
            a, b = rand_fraction(rng), rand_fraction(rng)
            rec_l = PointData(SYMPL4, level, (a, Fraction(0), b, Fraction(0))).classification
            rec_p = PointData(SYMPL4, param, (a, b)).classification
            assert rec_l == rec_p


class TestRankProfile:
    def test_r6_characteristic_direction_jump(self):
        samples = [frac(0, 2, 3, 0, 0, 0), frac(1, 2, 3, 0, 0, 0), frac(-2, 1, 1, 0, 0, 0)]
        profile = rank_profile(R6, C_R6, samples)
        assert profile.constant.dim_characteristic
        assert not profile.constant.dim_sum
        d3 = MatrixQ.from_rows([[0, 0, 1, 0, 0, 0]])
        d2 = MatrixQ.from_rows([[0, 1, 0, 0, 0, 0]])
        assert profile.rows[0].characteristic_basis == d3
        assert profile.rows[1].characteristic_basis == d2
        assert profile.rows[2].characteristic_basis == d2

    def test_coisotropic_hyperplane_rho_zero(self):
        samples = [frac(1, 2, 3, 0), frac(0, 0, 0, 0), frac(-1, 5, 2, 0)]
        profile = rank_profile(SYMPL4, C_HYPER, samples)
        assert all(row.record.rho_rank == 0 for row in profile.rows)
        assert all(row.record.coisotropic for row in profile.rows)

    def test_single_point_rho_equals_leaf_dim(self):
        point_patch = Parametrized(PolyMap.parse(["t1", "t1", "t1", "t1"], ("t1",)))
        # a one-dimensional patch is not a point; use a level set pinning all coordinates
        patch = LevelSet(tuple(Poly.parse(f"x{i}", X4) for i in range(1, 5)))
        profile = rank_profile(SYMPL4, patch, [frac(0, 0, 0, 0)])
        assert profile.rows[0].record.rho_rank == profile.rows[0].record.dim_leaf == 4

    def test_errors_reported_not_fatal(self):
        samples = [frac(0, 0, 0, 1), frac(1, 2, 3, 0)]
        profile = rank_profile(SYMPL4, C_HYPER, samples)
        assert len(profile.rows) == 1 and len(profile.errors) == 1
        assert profile.errors[0][0] == 0

    def test_empty_sample_list(self):
        profile = rank_profile(SYMPL4, C_HYPER, [])
        assert profile.rows == () and profile.errors == ()

    def test_row_dimension_identities(self):
        rng = random.Random(14)
        samples = [tuple(rand_fraction(rng) for _ in range(2)) for _ in range(12)]
        profile = rank_profile(GRAPH4, C_GRAPH4, samples)
        for row in profile.rows:
            r = row.record
            assert r.rho_rank == r.dim_sum - r.dim_subspace
            assert r.dim_characteristic == r.dim_subspace + r.dim_sharp_annihilator - r.dim_sum


class TestGridPoints:
    def test_deterministic(self):
        assert grid_points(3, 4, 11, 6) == grid_points(3, 4, 11, 6)

    def test_height_bound(self):
        for point in grid_points(2, 3, 5, 40):
            for c in point:
                assert abs(c.numerator) <= 3 * 3 and c.denominator <= 3

    def test_level_set_filter(self):
        points = grid_points_on(C_HYPER, 2, 13, 5)
        assert points
        for q in points:
            assert q[3] == 0

    def test_level_set_points_are_the_grid_points_on_the_locus(self):
        on_locus = [q for q in grid_points(6, 3, 2, LEVEL_SET_ATTEMPTS) if q[3:] == (0, 0, 0)]
        assert grid_points_on(C_R6, 3, 2, 6) == tuple(on_locus[:6])
        # fewer than `count` when the draws run out
        assert grid_points_on(C_R6, 3, 2, 10 ** 6) == tuple(on_locus)

    def test_parametrized_points_are_the_grid_points_of_its_parameters(self):
        assert grid_points_on(C_GRAPH4, 3, 5, 7) == grid_points(2, 3, 5, 7)

    def test_level_set_grid_rejects_bad_height(self):
        with pytest.raises(PreconditionError, match="height"):
            grid_points_on(C_R6, 0, 2, 6)


class TestBasicFunctions:
    def test_linear_functions_basic_on_hyperplane(self):
        q = frac(1, 2, 3, 0)
        at = PointData(SYMPL4, C_HYPER, q)
        assert at.is_basic(Poly.parse("x1", X4))
        assert at.is_basic(Poly.parse("x2", X4))

    def test_characteristic_pairing_function_not_basic(self):
        q = frac(1, 2, 3, 0)
        assert not PointData(SYMPL4, C_HYPER, q).is_basic(Poly.parse("x3", X4))

    def test_constants_basic_everywhere_with_zero_bracket(self):
        q = frac(1, 2, 3, 0)
        five = Poly.parse("5", X4)
        g = Poly.parse("x2", X4)
        at = PointData(SYMPL4, C_HYPER, q)
        assert at.is_basic(five)
        assert at.bracket(five, g) == 0

    def test_pinned_bracket_value(self):
        # frozen by the pre-build oracle for the package's sharp convention
        q = frac(1, 2, 3, 0)
        value = PointData(SYMPL4, C_HYPER, q).bracket(Poly.parse("x1", X4), Poly.parse("x2", X4))
        assert value == Fraction(-1)

    def test_antisymmetry_of_bracket(self):
        q = frac(1, 2, 3, 0)
        f, g = Poly.parse("x1", X4), Poly.parse("x2", X4)
        at = PointData(SYMPL4, C_HYPER, q)
        assert at.bracket(f, g) == -at.bracket(g, f)

    def test_non_basic_rejected(self):
        q = frac(1, 2, 3, 0)
        with pytest.raises(PreconditionError):
            PointData(SYMPL4, C_HYPER, q).bracket(Poly.parse("x3", X4), Poly.parse("x2", X4))

    def test_per_sample_vector(self):
        # the curve is isotropic inside the open leaf, so t1 is basic only
        # where the bivector vanishes
        f = Poly.parse("t1", ("t1",))
        flags = tuple(PointData(X2Z, C_X2Z, q).is_basic(f) for q in [(Fraction(1),), (Fraction(0),)])
        assert flags == (False, True)


class TestBracketConsistency:
    def test_hyperplane_fixture(self):
        q = frac(1, 2, 3, 0)
        check = PointData(SYMPL4, C_HYPER, q).consistency(Poly.parse("x1", X4), Poly.parse("x2", X4))
        assert check.agree and check.intrinsic == Fraction(-1)

    def test_coisotropic_in_symplectic_extension_is_whole_space(self):
        q = frac(1, 2, 3, 0)
        check = PointData(SYMPL4, C_HYPER, q).consistency(Poly.parse("x1+x2", X4), Poly.parse("x2", X4))
        assert check.agree

    def test_pre_poisson_line(self):
        # the whole tangent line is characteristic, so basic functions are
        # exactly those with a critical point there; their brackets vanish
        line = Parametrized(PolyMap.parse(["t1", "0", "0", "0"], ("t1",)))
        f = Poly.parse("t1^2 - 2*t1", ("t1",))
        g = Poly.parse("3*t1^2 - 6*t1 + 1", ("t1",))
        check = PointData(SYMPL4, line, (Fraction(1),)).consistency(f, g)
        assert check.agree and check.intrinsic == 0

    def test_parametrized_point_derives_its_directions_once(self, monkeypatch):
        # one Jacobian for the tangent, one for the parameter directions of every differential
        line = Parametrized(PolyMap.parse(["t1", "0", "0", "0"], ("t1",)))
        calls = []
        jacobian_at = PolyMap.jacobian_at
        monkeypatch.setattr(PolyMap, "jacobian_at", lambda m, q: calls.append(tuple(q)) or jacobian_at(m, q))
        f, g = Poly.parse("t1^2 - 2*t1", ("t1",)), Poly.parse("3*t1^2 - 6*t1 + 1", ("t1",))
        PointData(SYMPL4, line, (Fraction(1),)).consistency(f, g)
        assert calls == [(1,), (1,)]
