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
from typing import Sequence

from .bivector_fields import BivectorField, TwoFormField, is_closed, is_poisson
from .dirac_linear import DiracVS, as_bivector, characteristic, gauge, pullback
from .errors import PreconditionError, PropertyViolationError, SpaceMismatchError
from .poisson_linear import _derived, classify_subspace
# poly_matrix_det is not called here, but perfbench's tracer test patches it by this name
from .polynomials import Poly, fiber_variables, integer_rows_at, poly_matrix_det, poly_matrix_inverse, sum_of_products
from .rational_linalg import Vector, _reduced, _row_space, fmt_point, primitive, standard_basis

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
        for sec in self.sections:
            if len(sec.vector) != m or len(sec.covector) != m:
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
        return _dirac_at(self.base_dim, self.sections, x)


def _dirac_at(n: int, sections: Sequence[Section], point: Sequence[Fraction]) -> DiracVS:
    """The Dirac structure on Q^n spanned by the sections evaluated at a point."""
    rows = integer_rows_at([sec.vector + sec.covector for sec in sections], point)
    return DiracVS(n, _reduced(2 * n, [primitive(r) for r, _ in rows], False))


@dataclass(frozen=True)
class ValidationIssue:
    sample_index: int
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_dirac_data(d: DiracManifoldData, samples: Sequence[Sequence[Fraction]]) -> ValidationReport:
    """Check every pointwise invariant of the data at each sample."""
    return _validate(d, samples, {})


def _validate(d: DiracManifoldData, samples: Sequence[Sequence[Fraction]], bases: dict[Vector, DiracVS]) -> ValidationReport:
    """validate_dirac_data, keeping the input structure at each sample in
    `bases`; it depends only on the sections, so data that differ only in
    their frames can share `bases`."""
    issues: list[ValidationIssue] = []
    m, k = d.base_dim, d.fiber_dim
    for idx, x in enumerate(map(tuple, samples)):
        try:
            structure = bases[x] = bases.get(x) or d.dirac_at(x)
        except (PreconditionError, SpaceMismatchError) as exc:
            issues.append(ValidationIssue(idx, f"sections: {exc}"))
            continue
        char = characteristic(structure)
        frame_rows = [primitive(r) for r, _ in integer_rows_at(d.e_frame + d.v_frame, x)]
        e_span = _reduced(m, frame_rows[:k], False)
        if e_span.dim != k:
            issues.append(ValidationIssue(idx, "E frame vectors are dependent"))
            continue
        if char != e_span:
            issues.append(ValidationIssue(idx, f"E frame spans a {e_span.dim}-dim space but L /\\ TM is {char.dim}-dim or differs"))
        if _reduced(m, frame_rows, False).dim != m:
            issues.append(ValidationIssue(idx, "E and V frames do not span the tangent space"))
    return ValidationReport(tuple(issues))


def total_space_variables(d: DiracManifoldData) -> tuple[str, ...]:
    return d.base_vars + fiber_variables(d.fiber_dim)


def _lift(poly: Poly, total_vars: tuple[str, ...]) -> Poly:
    """Reinterpret a base polynomial in the total-space variable context."""
    pad = len(total_vars) - len(poly.variables)
    return Poly.make(total_vars, {e + (0,) * pad: c for e, c in poly.terms})


def pullback_canonical_one_form(d: DiracManifoldData) -> tuple[Poly, ...]:
    """theta = sum_I p_I e^I(x) on the total space, as covector components.

    e^I are the first k rows of the inverse frame matrix [E | V]; the
    inverse must be polynomial, so the frame determinant has to be a
    nonzero constant.
    """
    m, k = d.base_dim, d.fiber_dim
    total_vars = total_space_variables(d)
    if k == 0:
        return tuple(Poly.zero(total_vars) for _ in range(m))
    frame_cols = d.e_frame + d.v_frame
    frame = [[frame_cols[j][i] for j in range(m)] for i in range(m)]
    try:
        inv = poly_matrix_inverse(frame)
    except PreconditionError as exc:
        raise PreconditionError(
            f"frame determinant {exc.determinant} is not a nonzero constant; the dual coframe is not polynomial"
        ) from None
    fibers = [Poly.variable(total_vars, p) for p in total_vars[m:]]
    theta = tuple(
        sum_of_products(total_vars, ((p, _lift(inv[cap_i][j], total_vars)) for cap_i, p in enumerate(fibers)))
        for j in range(m)
    )
    return theta + tuple(Poly.zero(total_vars) for _ in range(k))


def pullback_canonical_form(d: DiracManifoldData) -> TwoFormField:
    """Gauge two-form B = CANONICAL_FORM_SIGN * d(theta); closed by construction."""
    return _gauged(d)[1]


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

    @property
    def ok(self) -> bool:
        return self.graph and self.zero_section_coisotropic and self.zero_section_pullback_matches


@dataclass(frozen=True)
class EmbeddingResult:
    """Total-space structure with its gauge form and per-sample evidence.

    `bivector` is present when graph extraction succeeded symbolically
    (covector-part determinant a nonzero constant), in which case it is
    an exact polynomial Poisson structure.
    """

    data: DiracManifoldData
    total_dim: int
    variables: tuple[str, ...]
    gauge_form: TwoFormField
    bivector: BivectorField | None
    sample_checks: tuple[SampleCheck, ...]
    sections: tuple[Section, ...]  # polynomial spanning sections of the total-space structure

    def dirac_at(self, point: Sequence[Fraction]) -> DiracVS:
        return _dirac_at(self.total_dim, self.sections, point)


def build_embedding(d: DiracManifoldData, samples: Sequence[Sequence[Fraction]]) -> EmbeddingResult:
    """Assemble the total-space structure and check it at every sample.

    Per sample (x, p): the structure there must be a bivector graph; at
    the zero-section point (x, 0) the base tangent space must be
    coisotropic and the pullback to it must reproduce the input
    structure.  Failures raise, naming the offending point.
    """
    bases: dict[Vector, DiracVS] = {}
    report = _validate(d, [tuple(s[: d.base_dim]) for s in samples], bases)
    if not report.ok:
        first = report.issues[0]
        raise PreconditionError(f"input data invalid at sample {first.sample_index}: {first.message}")
    m, k = d.base_dim, d.fiber_dim
    n = m + k
    _, b, sections = _gauged(d)
    bivector = _extract_symbolic_bivector(d, sections)
    checks = []
    zero_tangent = _row_space(n, standard_basis(n)[:m])
    for point in samples:
        point = tuple(point)
        if as_bivector(_dirac_at(n, sections, point)) is None:
            raise PropertyViolationError(f"structure is not a bivector graph at {fmt_point(point)}")
        base_point = point[:m] + (Fraction(0),) * k
        at_zero = _dirac_at(n, sections, base_point)
        zero_bivector = as_bivector(at_zero)
        if zero_bivector is None:
            raise PropertyViolationError(f"structure is not a bivector graph at the zero-section point {fmt_point(base_point)}")
        coisotropic = classify_subspace(zero_bivector, zero_tangent).coisotropic
        restored = pullback(at_zero, zero_tangent)
        matches = restored == bases[point[:m]]
        checks.append(SampleCheck(point, True, coisotropic, matches))
    return EmbeddingResult(
        data=d,
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
    except PreconditionError:
        return None
    vec_columns = tuple(zip(*(sec.vector for sec in sections)))
    total_vars = total_space_variables(d)
    entries = tuple(
        tuple(-sum_of_products(total_vars, zip(inv_row, column)) for column in vec_columns) for inv_row in inv
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
    the second at every sample.
    """
    # a frame equal to d's own reuses what d has derived
    frames = [tuple(map(tuple, f)) for f in (v0_frame, v1_frame)]
    d0, d1 = (d if f == d.v_frame else replace(d, v_frame=f) for f in frames)
    base_samples = [tuple(s[: d.base_dim]) for s in samples]
    bases: dict[Vector, DiracVS] = {}  # d0 and d1 share their sections
    for name, dd in (("v0", d0), ("v1", d1)):
        report = _validate(dd, base_samples, bases)
        if not report.ok:
            issue = report.issues[0]
            raise PreconditionError(f"{name} frame invalid at sample {issue.sample_index}: {issue.message}")
    (theta0, b0, rows0), (theta1, b1, rows1) = _gauged(d0), _gauged(d1)
    diff = b1 - b0
    closed = is_closed(diff)
    m, k = d.base_dim, d.fiber_dim
    total_vars = total_space_variables(d)
    zero_fibers = {total_vars[m + i]: Poly.zero(total_vars) for i in range(k)}
    keep = {v: Poly.variable(total_vars, v) for v in total_vars[:m]}
    on_base = all((t1 - t0).substitute({**keep, **zero_fibers}).is_zero() for t0, t1 in zip(theta0, theta1))
    intertwines = all(
        gauge(_dirac_at(m + k, rows0, point), diff.at(point)) == _dirac_at(m + k, rows1, point) for point in samples
    )
    return SplittingComparison(diff, closed, on_base, intertwines)
