from collections import Counter
from fractions import Fraction

import pytest

from poisdirac import embedding, polynomials
from poisdirac.bivector_fields import BivectorField, is_closed, is_poisson
from poisdirac.embedding import (
    DiracManifoldData,
    Section,
    build_embedding,
    compare_splittings,
    pullback_canonical_form,
    validate_dirac_data,
)
from poisdirac.errors import PreconditionError, PropertyViolationError, SpaceMismatchError
from poisdirac.polynomials import Poly
from poisdirac.submanifolds import grid_points

X3 = ("x1", "x2", "x3")


def p3(text):
    return Poly.parse(text, X3)


def r4_data() -> DiracManifoldData:
    return DiracManifoldData(
        base_dim=3,
        sections=(
            Section((p3("0"), p3("-x1^2"), p3("0")), (p3("1"), p3("0"), p3("0"))),
            Section((p3("x1^2"), p3("0"), p3("0")), (p3("0"), p3("1"), p3("0"))),
            Section((p3("0"), p3("0"), p3("1")), (p3("0"), p3("0"), p3("0"))),
        ),
        e_frame=((p3("0"), p3("0"), p3("1")),),
        v_frame=((p3("1"), p3("0"), p3("0")), (p3("0"), p3("1"), p3("0"))),
    )


SAMPLES = grid_points(4, 3, 7, 25)
BASE_SAMPLES = [s[:3] for s in SAMPLES]


class TestValidate:
    def test_r4_data_valid_including_degenerate_points(self):
        samples = list(BASE_SAMPLES) + [(Fraction(0), Fraction(1), Fraction(2))]
        assert validate_dirac_data(r4_data(), samples).ok

    def test_symplectic_graph_valid_with_empty_e(self):
        x2 = ("x1", "x2")
        q = lambda t: Poly.parse(t, x2)
        data = DiracManifoldData(
            base_dim=2,
            sections=(
                Section((q("1"), q("0")), (q("0"), q("-1"))),
                Section((q("0"), q("1")), (q("1"), q("0"))),
            ),
            e_frame=(),
            v_frame=((q("1"), q("0")), (q("0"), q("1"))),
        )
        assert data.fiber_dim == 0
        assert validate_dirac_data(data, [(Fraction(1), Fraction(2))]).ok

    def test_non_isotropic_sections_reported(self):
        x1 = ("x1",)
        q = lambda t: Poly.parse(t, x1)
        data = DiracManifoldData(
            base_dim=1,
            sections=(Section((q("1"),), (q("1"),)),),
            e_frame=((q("1"),),),
            v_frame=(),
        )
        report = validate_dirac_data(data, [(Fraction(0),)])
        assert not report.ok
        assert "isotropic" in report.issues[0].message

    def test_wrong_e_frame_reported(self):
        data = r4_data()
        bad = DiracManifoldData(
            base_dim=3,
            sections=data.sections,
            e_frame=((p3("0"), p3("1"), p3("0")),),
            v_frame=((p3("1"), p3("0"), p3("0")), (p3("0"), p3("0"), p3("1"))),
        )
        report = validate_dirac_data(bad, [(Fraction(1), Fraction(0), Fraction(0))])
        assert not report.ok


class TestCanonicalForm:
    def test_r4_gauge_form(self):
        b = pullback_canonical_form(r4_data())
        nonzero = {(i, j): str(p) for (i, j), p in b.upper_entries().items()}
        assert nonzero == {(2, 3): "1"}  # dx3 ^ dp1

    def test_constant_frame_on_plane(self):
        x2 = ("x1", "x2")
        q = lambda t: Poly.parse(t, x2)
        data = DiracManifoldData(
            base_dim=2,
            sections=(
                Section((q("1"), q("0")), (q("0"), q("0"))),
                Section((q("0"), q("0")), (q("0"), q("1"))),
            ),
            e_frame=((q("1"), q("0")),),
            v_frame=((q("0"), q("1")),),
        )
        b = pullback_canonical_form(data)
        assert {(i, j): str(p) for (i, j), p in b.upper_entries().items()} == {(0, 2): "1"}

    def test_zero_fiber_gives_zero_form(self):
        x2 = ("x1", "x2")
        q = lambda t: Poly.parse(t, x2)
        data = DiracManifoldData(
            base_dim=2,
            sections=(
                Section((q("1"), q("0")), (q("0"), q("-1"))),
                Section((q("0"), q("1")), (q("1"), q("0"))),
            ),
            e_frame=(),
            v_frame=((q("1"), q("0")), (q("0"), q("1"))),
        )
        assert pullback_canonical_form(data).is_zero()

    def test_polynomial_frame_with_constant_determinant(self):
        x2 = ("x1", "x2")
        q = lambda t: Poly.parse(t, x2)
        data = DiracManifoldData(
            base_dim=2,
            sections=(
                Section((q("1"), q("x1")), (q("0"), q("0"))),
                Section((q("0"), q("0")), (q("x1"), q("-1"))),
            ),
            e_frame=((q("1"), q("x1")),),
            v_frame=((q("0"), q("1")),),
        )
        b = pullback_canonical_form(data)
        assert is_closed(b)
        result = build_embedding(data, grid_points(3, 2, 19, 12))
        assert result.bivector is not None
        assert all(c.ok for c in result.sample_checks)

    def test_nonconstant_determinant_rejected(self):
        x2 = ("x1", "x2")
        q = lambda t: Poly.parse(t, x2)
        data = DiracManifoldData(
            base_dim=2,
            sections=(
                Section((q("1"), q("0")), (q("0"), q("0"))),
                Section((q("0"), q("0")), (q("0"), q("1"))),
            ),
            e_frame=((q("1"), q("0")),),
            v_frame=((q("0"), q("x1")),),
        )
        with pytest.raises(PreconditionError):
            pullback_canonical_form(data)

    def test_nonconstant_determinant_is_expanded_once(self, monkeypatch):
        x2 = ("x1", "x2")
        q = lambda t: Poly.parse(t, x2)
        data = DiracManifoldData(
            base_dim=2,
            sections=(
                Section((q("1"), q("0")), (q("0"), q("0"))),
                Section((q("0"), q("0")), (q("0"), q("1"))),
            ),
            e_frame=((q("1"), q("x1")),),
            v_frame=((q("-x1"), q("1")),),
        )
        expansions = []
        minor_det = polynomials._minor_det

        def counting(entries, rows, cols, table):
            if len(rows) == len(entries):
                expansions.append(rows)
            return minor_det(entries, rows, cols, table)

        monkeypatch.setattr(polynomials, "_minor_det", counting)
        with pytest.raises(PreconditionError, match=r"frame determinant x1\^2 \+ 1 is not a nonzero constant"):
            embedding.pullback_canonical_one_form(data)
        assert expansions == [(0, 1)]


class TestBuildEmbedding:
    def test_r4_reproduces_split_structure(self):
        result = build_embedding(r4_data(), SAMPLES)
        expected = BivectorField.from_upper(("x1", "x2", "x3", "p1"), {(0, 1): "x1^2", (2, 3): "1"})
        assert result.bivector is not None
        assert result.bivector.entries == expected.entries
        assert result.total_dim == 4
        assert len(result.sample_checks) == 25
        assert all(c.ok for c in result.sample_checks)
        assert is_poisson(result.bivector)

    def test_line_with_full_kernel(self):
        x1 = ("x1",)
        q = lambda t: Poly.parse(t, x1)
        data = DiracManifoldData(
            base_dim=1,
            sections=(Section((q("1"),), (q("0"),)),),
            e_frame=((q("1"),),),
            v_frame=(),
        )
        result = build_embedding(data, grid_points(2, 2, 3, 10))
        assert result.bivector is not None
        assert {(i, j): str(p) for (i, j), p in result.bivector.upper_entries().items()} == {(0, 1): "1"}

    def test_symplectic_input_returns_itself(self):
        x2 = ("x1", "x2")
        q = lambda t: Poly.parse(t, x2)
        data = DiracManifoldData(
            base_dim=2,
            sections=(
                Section((q("1"), q("0")), (q("0"), q("-1"))),
                Section((q("0"), q("1")), (q("1"), q("0"))),
            ),
            e_frame=(),
            v_frame=((q("1"), q("0")), (q("0"), q("1"))),
        )
        result = build_embedding(data, grid_points(2, 2, 5, 10))
        assert result.total_dim == 2
        assert result.gauge_form.is_zero()
        for point in grid_points(2, 2, 5, 10):
            assert result.dirac_at(point) == data.dirac_at(point)

    def test_invalid_data_rejected(self):
        x1 = ("x1",)
        q = lambda t: Poly.parse(t, x1)
        data = DiracManifoldData(
            base_dim=1,
            sections=(Section((q("1"),), (q("1"),)),),
            e_frame=((q("1"),),),
            v_frame=(),
        )
        with pytest.raises(PreconditionError):
            build_embedding(data, [(Fraction(0), Fraction(0))])

    @pytest.mark.parametrize("frame", ["e_frame", "v_frame"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_frame_fields_of_the_wrong_length_are_refused_at_construction(self, frame, length):
        x2 = ("x1", "x2")
        one, zero = Poly.constant(x2, 1), Poly.zero(x2)
        frames = {"e_frame": ((zero, one),), "v_frame": ((one, zero),)}
        frames[frame] = ((one,) + (zero,) * (length - 1),)
        sections = (Section((zero, zero), (one, zero)), Section((zero, one), (zero, zero)))
        with pytest.raises(SpaceMismatchError, match="^E and V frame fields must have base_dim entries$"):
            DiracManifoldData(base_dim=2, sections=sections, **frames)

    def test_graph_extraction_fails_away_from_zero_section(self):
        # a tilted complement puts a p-dependent term into the gauge form;
        # the structure stays a graph near the zero section but stops being
        # one on the fiber level p1 = -1
        data = DiracManifoldData(
            base_dim=3,
            sections=(
                Section((p3("1"), p3("0"), p3("0")), (p3("0"), p3("1"), p3("0"))),
                Section((p3("0"), p3("1"), p3("0")), (p3("-1"), p3("0"), p3("0"))),
                Section((p3("0"), p3("0"), p3("1")), (p3("0"), p3("0"), p3("0"))),
            ),
            e_frame=((p3("0"), p3("0"), p3("1")),),
            v_frame=((p3("1"), p3("0"), p3("0")), (p3("0"), p3("1"), p3("x1"))),
        )
        near = build_embedding(data, [(Fraction(1), Fraction(1), Fraction(0), Fraction(0))])
        assert near.bivector is None  # determinant is not constant
        assert all(c.ok for c in near.sample_checks)
        with pytest.raises(PropertyViolationError, match="not a bivector graph"):
            build_embedding(data, [(Fraction(1), Fraction(1), Fraction(0), Fraction(-1))])


class TestCompareSplittings:
    def test_equal_frames_give_zero_difference(self):
        data = r4_data()
        result = compare_splittings(data, data.v_frame, data.v_frame, SAMPLES)
        assert result.gauge_difference.is_zero()
        assert result.closed and result.one_form_difference_vanishes_on_base
        assert result.intertwines_at_all_samples

    def test_recombined_constant_complement(self):
        data = r4_data()
        v1 = ((p3("1"), p3("1"), p3("0")), (p3("0"), p3("1"), p3("0")))
        result = compare_splittings(data, data.v_frame, v1, SAMPLES)
        assert result.gauge_difference.is_zero()
        assert result.intertwines_at_all_samples

    def test_tilted_complement_gives_exact_nonzero_difference(self):
        data = r4_data()
        v1 = ((p3("1"), p3("0"), p3("1")), (p3("0"), p3("1"), p3("0")))
        result = compare_splittings(data, data.v_frame, v1, SAMPLES)
        assert not result.gauge_difference.is_zero()
        assert result.closed
        assert result.one_form_difference_vanishes_on_base
        assert result.intertwines_at_all_samples

    def test_invalid_complement_rejected(self):
        data = r4_data()
        v_bad = ((p3("0"), p3("0"), p3("1")), (p3("0"), p3("1"), p3("0")))
        with pytest.raises(PreconditionError):
            compare_splittings(data, data.v_frame, v_bad, SAMPLES)


class TestBaseStructuresBuiltOnce:
    """The input Dirac structure at a base point is built once per call,
    however many samples share that base point."""

    SAMPLES = list(SAMPLES[:6]) + [s[:3] + (Fraction(5),) for s in SAMPLES[:3]]

    def count_calls(self, monkeypatch) -> Counter:
        calls = Counter()
        original = DiracManifoldData.dirac_at

        def counting(data, x):
            calls[tuple(x)] += 1
            return original(data, x)

        monkeypatch.setattr(DiracManifoldData, "dirac_at", counting)
        return calls

    def test_build_embedding(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        assert all(check.ok for check in build_embedding(r4_data(), self.SAMPLES).sample_checks)
        assert calls == Counter({s[:3]: 1 for s in self.SAMPLES})

    def test_compare_splittings(self, monkeypatch):
        data = r4_data()
        v1 = ((p3("1"), p3("0"), p3("1")), (p3("0"), p3("1"), p3("0")))
        calls = self.count_calls(monkeypatch)
        assert compare_splittings(data, data.v_frame, v1, self.SAMPLES).intertwines_at_all_samples
        assert calls == Counter({s[:3]: 1 for s in self.SAMPLES})


class TestOneFormDerivedOncePerFrame:
    """Each frame's pairing one-form, gauge form and gauged sections are derived
    once, whichever of build_embedding and compare_splittings asks: one coframe
    inverse per frame, and one more for the extracted bivector."""

    V1 = ((p3("1"), p3("0"), p3("1")), (p3("0"), p3("1"), p3("0")))
    PER_FRAME = ("pullback_canonical_one_form", "_gauged_span_symbolic")

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of the per-frame builders keyed by (name, V frame), and of
        poly_matrix_inverse keyed by (name, None)."""
        counts = Counter()
        for name in (*self.PER_FRAME, "poly_matrix_inverse"):
            def counting(*args, name=name, original=getattr(embedding, name)):
                counts[name, getattr(args[0], "v_frame", None)] += 1
                return original(*args)

            monkeypatch.setattr(embedding, name, counting)
        return counts

    def expected(self, frames, inverses):
        return Counter({**{(name, f): 1 for name in self.PER_FRAME for f in frames}, ("poly_matrix_inverse", None): inverses})

    def test_compare_splittings(self, counts):
        data = r4_data()
        result = compare_splittings(data, data.v_frame, self.V1, SAMPLES)
        assert result.closed and result.one_form_difference_vanishes_on_base and result.intertwines_at_all_samples
        assert counts == self.expected((data.v_frame, self.V1), inverses=2)

    def test_build_embedding_then_compare_splittings(self, counts):
        # compare_splittings reuses what build_embedding derived for the data's own frame
        data = r4_data()
        build_embedding(data, SAMPLES)
        assert compare_splittings(data, data.v_frame, self.V1, SAMPLES).intertwines_at_all_samples
        assert counts == self.expected((data.v_frame, self.V1), inverses=3)
