"""Coisotropic embedding of a regular Dirac manifold into a Poisson patch.

Input: polynomial spanning sections (X_a, xi_a) of a Dirac structure L
on a coordinate patch Q^m, a polynomial frame for the constant-rank
distribution E = L intersect TM, and a complementary frame V.  The
total space of E* (coordinates x_1..x_m, p_1..p_k) carries the gauge
transform of the pulled-back structure by the two-form obtained from
the fiberwise pairing one-form theta = sum_I p_I e^I(x), where e^I is
the coframe dual to the E frame that annihilates the V frame.

The gauge form is B = -d(theta); this orientation is the one under
which a constant-frame input reproduces the standard q-p pairing block
Pi = sum d/dq_I ^ d/dp_I, matching the package's sharp convention.

Only frames with a polynomial dual coframe are supported (the frame
matrix must have constant nonzero determinant); anything else would
leave exact polynomial arithmetic and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from .bivector_fields import BivectorField, TwoFormField, is_closed, is_poisson
from .dirac_linear import DiracVS, as_bivector, characteristic, gauge, pullback
from .errors import NotUnimodularError, PreconditionError, PropertyViolationError, SpaceMismatchError
from .poisson_linear import _derived, is_coisotropic
from .polynomials import Poly, fiber_variables, integer_rows_at, poly_matrix_det, poly_matrix_inverse, sum_of_products
from .rational_linalg import MatrixQ, Subspace, Vector, _reduced, fmt_point

# Orientation of the canonical two-form on the total space: B = CANONICAL_FORM_SIGN * d(theta).
CANONICAL_FORM_SIGN = -1


@dataclass(frozen=True)
class Section:
    """One spanning section of L: a vector field paired with a one-form."""

    vector: tuple[Poly, ...]
    covector: tuple[Poly, ...]


@dataclass(frozen=True)
class DiracManifoldData:
    """Polynomial presentation of a Dirac structure with chosen frames.

    sections: m pairs spanning L pointwise; e_frame: k vector fields
    spanning L intersect TM pointwise; v_frame: m - k vector fields with
    e_frame + v_frame a pointwise basis of TM.
    """

    base_dim: int
    sections: tuple[Section, ...]
    e_frame: tuple[tuple[Poly, ...], ...]
    v_frame: tuple[tuple[Poly, ...], ...]

    def __post_init__(self) -> None:
        m = self.base_dim
        if len(self.sections) != m:
            raise SpaceMismatchError(f"need {m} spanning sections, got {len(self.sections)}")
        if len(self.e_frame) + len(self.v_frame) != m:
            raise SpaceMismatchError("E and V frames together must have base_dim members")
        if any(len(part) != m for sec in self.sections for part in (sec.vector, sec.covector)):
            raise SpaceMismatchError("section components must have base_dim entries")
        if any(len(field) != m for field in self.e_frame + self.v_frame):
            raise SpaceMismatchError("E and V frame fields must have base_dim entries")

    @property
    def fiber_dim(self) -> int:
        return len(self.e_frame)

    @property
    def base_vars(self) -> tuple[str, ...]:
        return self.sections[0].vector[0].variables

    def dirac_at(self, x: Sequence[Fraction]) -> DiracVS:
        return self._structure_at(tuple(x))  # built once per point, under a hashable key

    @_derived
    def _structure_at(self, x: Vector) -> DiracVS:
        return _dirac_at(self.base_dim, self.sections, x)


def _dirac_at(n: int, sections: Sequence[Section], point: Sequence[Fraction]) -> DiracVS:
    """The Dirac structure on Q^n spanned by the sections evaluated at a point."""
    rows = integer_rows_at([sec.vector + sec.covector for sec in sections], point)
    return DiracVS(n, _reduced(2 * n, [r for r, _ in rows], False))


def validate_dirac_data(d: DiracManifoldData, samples: Sequence[Sequence[Fraction]]) -> tuple[tuple[int, str], ...]:
    """Check at each sample what the polynomial inverse of [E | V] does not
    prove: the sections span a Dirac structure L, and E spans L intersect TM.
    The (sample index, message) of each failure, none when the data are valid."""
    issues: list[tuple[int, str]] = []
    for idx, x in enumerate(samples):
        try:
            structure = d.dirac_at(x)
        except (PreconditionError, SpaceMismatchError) as exc:
            issues.append((idx, f"sections: {exc}"))
            continue
        char = characteristic(structure)
        e_span = _reduced(d.base_dim, [r for r, _ in integer_rows_at(d.e_frame, x)], False)
        if e_span.dim != d.fiber_dim or char != e_span:
            basis = f"E frame of k = {d.fiber_dim} fields is not a basis of L /\\ TM"
            issues.append((idx, f"{basis}: it spans a {e_span.dim}-dim space, and L /\\ TM is {char.dim}-dim"))
    return tuple(issues)


_validated = _derived(validate_dirac_data)  # once per d and tuple of base points


def _require_valid(d: DiracManifoldData, samples: Sequence[Sequence[Fraction]]) -> None:
    """Raise the first failure of validate_dirac_data at the base points of the samples."""
    issues = _validated(d, tuple(tuple(s[: d.base_dim]) for s in samples))
    if issues:
        raise PreconditionError("input data invalid at sample {}: {}".format(*issues[0]))


def total_space_variables(d: DiracManifoldData) -> tuple[str, ...]:
    return d.base_vars + fiber_variables(d.fiber_dim)


def _lift(poly: Poly, total_vars: tuple[str, ...]) -> Poly:
    """Reinterpret a base polynomial in the total-space variable context; zeros appended
    to every exponent keep the grlex order."""
    pad = (0,) * (len(total_vars) - len(poly.variables))
    return Poly(total_vars, tuple((e + pad, n) for e, n in poly.nums), poly.den)


def pullback_canonical_one_form(d: DiracManifoldData) -> tuple[Poly, ...]:
    """theta = sum_I p_I e^I(x) on the total space, as covector components.

    e^I are the first k rows of the inverse frame matrix [E | V]; the
    inverse must be polynomial, so the frame determinant has to be a
    nonzero constant, also when k = 0: the inverse proves [E | V] a frame.
    """
    m, k = d.base_dim, d.fiber_dim
    total_vars = total_space_variables(d)
    frame_cols = d.e_frame + d.v_frame
    frame = [[frame_cols[j][i] for j in range(m)] for i in range(m)]
    try:
        inv = poly_matrix_inverse(frame)
    except NotUnimodularError:
        raise NotUnimodularError(
            f"frame determinant {poly_matrix_det(frame)} is not a nonzero constant; the dual coframe is not polynomial"
        ) from None
    fibers = [Poly.variable(total_vars, p) for p in total_vars[m:]]
    theta = tuple(
        sum_of_products(total_vars, ((p, _lift(inv[cap_i][j], total_vars)) for cap_i, p in enumerate(fibers)))
        for j in range(m)
    )
    return theta + tuple(Poly.zero(total_vars) for _ in range(k))


@_derived
def _gauged(d: DiracManifoldData) -> tuple[tuple[Poly, ...], TwoFormField, tuple[Section, ...]]:
    """The pairing one-form theta of d, the gauge form B = CANONICAL_FORM_SIGN *
    d(theta), and the spanning sections gauged by B: derived once per d."""
    theta = pullback_canonical_one_form(d)
    total_vars = total_space_variables(d)
    n = len(total_vars)
    b = TwoFormField.from_upper(total_vars, {
        (u, v): (theta[v].partial(total_vars[u]) - theta[u].partial(total_vars[v])).scale(CANONICAL_FORM_SIGN)
        for u in range(n) for v in range(u + 1, n)
    })
    if not is_closed(b):
        raise PropertyViolationError("derived gauge form is not closed; d^2 = 0 was violated")
    return theta, b, _gauged_span_symbolic(d, b)


def _gauged_span_symbolic(d: DiracManifoldData, b: TwoFormField) -> tuple[Section, ...]:
    """Spanning sections of the total-space structure: the gauge by b of the
    pulled-back input sections and of the fiber directions (0, e_I | 0, 0)."""
    m, k = d.base_dim, d.fiber_dim
    total_vars = total_space_variables(d)
    n = m + k
    zero = Poly.zero(total_vars)
    rows: list[tuple[tuple[Poly, ...], tuple[Poly, ...]]] = []
    for sec in d.sections:
        vec = tuple(_lift(p, total_vars) for p in sec.vector) + (zero,) * k
        cov = tuple(_lift(p, total_vars) for p in sec.covector) + (zero,) * k
        rows.append((vec, cov))
    one = Poly.constant(total_vars, 1)
    rows += [((zero,) * m + tuple(one if j == i else zero for j in range(k)), (zero,) * n) for i in range(k)]
    b_columns = tuple(zip(*b.entries))
    return tuple(
        Section(vec, tuple(c + sum_of_products(total_vars, zip(column, vec)) for c, column in zip(cov, b_columns)))
        for vec, cov in rows
    )


@dataclass(frozen=True)
class SampleCheck:
    point: Vector
    graph: bool
    zero_section_coisotropic: bool
    zero_section_pullback_matches: bool


@dataclass(frozen=True)
class EmbeddingResult:
    """Total-space structure with its gauge form and per-sample evidence.

    `bivector` is present when graph extraction succeeded symbolically
    (covector-part determinant a nonzero constant), in which case it is
    an exact polynomial Poisson structure.
    """

    total_dim: int
    variables: tuple[str, ...]
    gauge_form: TwoFormField
    bivector: BivectorField | None
    sample_checks: tuple[SampleCheck, ...]
    sections: tuple[Section, ...]  # polynomial spanning sections of the total-space structure


def build_embedding(d: DiracManifoldData, samples: Sequence[Sequence[Fraction]]) -> EmbeddingResult:
    """Assemble the total-space structure and check it at every sample.

    Per sample (x, p): whether the structure there is a bivector graph
    (the construction is Poisson near the zero section only, so this is
    recorded); at the zero-section point (x, 0) it must be one, the base
    tangent space must be coisotropic and the pullback to it must
    reproduce the input structure.  A non-graph at (x, 0) raises.

    The structure is evaluated once at (x, p), which refuses a point off the
    total space, and again at (x, 0) only when some gauged section reads a
    fiber coordinate, as when B depends on p because the coframe is not
    closed.  Otherwise the sections take equal values at (x, p) and (x, 0),
    so the structure at (x, p) is the one at (x, 0).
    """
    _require_valid(d, samples)
    m, k = d.base_dim, d.fiber_dim
    n = m + k
    _, b, sections = _gauged(d)
    reads_fiber = any(any(e[m:]) for sec in sections for p in sec.vector + sec.covector for e, _ in p.nums)
    bivector = _extract_symbolic_bivector(d, sections)
    checks = []
    zero_tangent = Subspace(n, MatrixQ.identity(n).ints[:m])
    for point in samples:
        point = tuple(point)
        at_point = _dirac_at(n, sections, point)
        base_point = point[:m] + (Fraction(0),) * k
        at_zero = _dirac_at(n, sections, base_point) if reads_fiber else at_point
        zero_bivector = as_bivector(at_zero)
        if zero_bivector is None:
            raise PropertyViolationError(f"structure is not a bivector graph at the zero-section point {fmt_point(base_point)}")
        graph = at_zero is at_point or as_bivector(at_point) is not None
        coisotropic = is_coisotropic(zero_bivector, zero_tangent)
        matches = pullback(at_zero, zero_tangent) == d.dirac_at(point[:m])
        checks.append(SampleCheck(point, graph, coisotropic, matches))
    return EmbeddingResult(
        total_dim=n,
        variables=total_space_variables(d),
        gauge_form=b,
        bivector=bivector,
        sample_checks=tuple(checks),
        sections=sections,
    )


def _extract_symbolic_bivector(d: DiracManifoldData, sections: tuple[Section, ...]) -> BivectorField | None:
    """Solve the graph relation symbolically when the covector matrix of the
    spanning sections inverts inside the polynomial ring; returns None otherwise."""
    try:
        inv = poly_matrix_inverse([sec.covector for sec in sections])
    except NotUnimodularError:
        return None
    vec_columns = tuple(zip(*(sec.vector for sec in sections)))
    total_vars = total_space_variables(d)
    entries = tuple(
        tuple(sum_of_products(total_vars, zip(inv_row, column), repeat(-1)) for column in vec_columns) for inv_row in inv
    )
    field = BivectorField(total_vars, entries)
    if not is_poisson(field):
        raise PropertyViolationError("extracted polynomial bivector fails the Jacobi identity")
    return field


@dataclass(frozen=True)
class SplittingComparison:
    gauge_difference: TwoFormField
    closed: bool
    one_form_difference_vanishes_on_base: bool
    intertwines_at_all_samples: bool


def compare_splittings(
    d: DiracManifoldData,
    v0_frame: Sequence[Sequence[Poly]],
    v1_frame: Sequence[Sequence[Poly]],
    samples: Sequence[Sequence[Fraction]],
) -> SplittingComparison:
    """Compare the structures built with two complements of E.

    B is the difference of the two gauge forms; it must be closed, the
    difference of the pairing one-forms must vanish identically on the
    zero section, and the gauge by B must carry the first structure to
    the second at every sample.  The sections and the E frame are checked
    at the samples; the polynomial inverse of [E | V] proves each V frame a
    complement of E everywhere.
    """
    _require_valid(d, samples)
    derived = []
    for name, frame in (("v0", v0_frame), ("v1", v1_frame)):
        frame = tuple(map(tuple, frame))
        try:  # a frame equal to d's own reuses what d has derived
            derived.append(_gauged(d if frame == d.v_frame else replace(d, v_frame=frame)))
        except NotUnimodularError as exc:
            raise PreconditionError(f"{name} frame invalid: {exc}") from None
    (theta0, b0, rows0), (theta1, b1, rows1) = derived
    diff = b1 - b0
    closed = is_closed(diff)
    m, k = d.base_dim, d.fiber_dim
    # a polynomial vanishes on p = 0 exactly when each of its terms reads a fiber coordinate
    on_base = all(any(e[m:]) for t0, t1 in zip(theta0, theta1) for e, _ in (t1 - t0).nums)
    intertwines = all(
        gauge(_dirac_at(m + k, rows0, point), diff.at(point)) == _dirac_at(m + k, rows1, point) for point in samples
    )
    return SplittingComparison(diff, closed, on_base, intertwines)
