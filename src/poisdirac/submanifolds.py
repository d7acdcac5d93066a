"""Submanifolds of polynomial Poisson patches, analyzed pointwise.

A submanifold is either a polynomial parametrization Q^k -> Q^n or a
polynomial level set in Q^n; tangent and conormal spaces at rational
points feed the linear classification machinery.  Rank profiles gather
classification records over a sample set and report constancy as
evidence over those samples only: deciding rank constancy of
polynomial data globally is out of scope.

Functions on a parametrized patch are polynomials in the parameters;
on a level set they are ambient polynomials restricted to the locus.
A function is basic at a point when its differential annihilates the
characteristic subspace there, and basic functions carry the bracket
{f, g}(q) = Y(g) for any tangent solution (Y, df_q) of the pullback
structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .bivector_fields import BivectorField
from .dirac_linear import from_bivector, pullback
from .errors import PreconditionError, PropertyViolationError, RegularityError, SpaceMismatchError
from .poisson_linear import (
    ClassificationRecord,
    PoissonVS,
    characteristic_subspace,
    classify_subspace,
    cosymplectic_extension,
    embedding_conditions,
    greedy_complement,
    subspace_in_basis,
)
from .polynomials import Poly, PolyMap, values_at
from .rational_linalg import MatrixQ, Subspace, Vector, annihilator, column_space, fmt_point, kernel, solve, standard_basis

# Draws made by level_set_grid_points before it gives up on filling `count`.
LEVEL_SET_ATTEMPTS = 10000


@dataclass(frozen=True)
class Parametrized:
    """Image of a polynomial map Q^k -> Q^n; points are parameter values."""

    map: PolyMap

    @property
    def param_dim(self) -> int:
        return self.map.source_dim

    @property
    def ambient_dim(self) -> int:
        return self.map.target_dim


@dataclass(frozen=True)
class LevelSet:
    """Common zero locus of polynomial constraints on Q^n; points are ambient."""

    constraints: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if not self.constraints:
            raise PreconditionError("a level set needs at least one constraint")
        contexts = {c.variables for c in self.constraints}
        if len(contexts) != 1:
            raise SpaceMismatchError("constraints must share one variable context")

    @property
    def ambient_dim(self) -> int:
        return len(self.constraints[0].variables)

    @cached_property
    def map(self) -> PolyMap:
        """The constraint map Q^n -> Q^r, whose zero locus this is."""
        return PolyMap(self.constraints[0].variables, self.constraints)


SubmanifoldPatch = Parametrized | LevelSet


def ambient_point(c: SubmanifoldPatch, q: Sequence[Fraction]) -> Vector:
    if isinstance(c, Parametrized):
        return c.map.evaluate(q)
    point = tuple(q)
    for g, value in zip(c.constraints, c.map.evaluate(point)):
        if value:
            raise RegularityError(f"point {fmt_point(point)} does not satisfy constraint {g}")
    return point


def tangent_at(c: SubmanifoldPatch, q: Sequence[Fraction]) -> Subspace:
    """Tangent space at a regular point, as a subspace of the ambient Q^n."""
    if isinstance(c, Parametrized):
        tangent = column_space(c.map.jacobian_at(q))
        if tangent.dim != c.param_dim:
            raise RegularityError(f"parametrization is not an immersion at {fmt_point(q)}")
        return tangent
    point = ambient_point(c, q)
    tangent = kernel(c.map.jacobian_at(point))
    if tangent.dim != c.ambient_dim - len(c.constraints):
        raise RegularityError(f"constraint differentials are dependent at {fmt_point(point)}")
    return tangent


def conormal_at(c: SubmanifoldPatch, q: Sequence[Fraction]) -> Subspace:
    return annihilator(tangent_at(c, q))


def classify_at(pi: BivectorField, c: SubmanifoldPatch, q: Sequence[Fraction]) -> ClassificationRecord:
    at = PointData(pi, c, q)
    return classify_subspace(at.poisson, at.tangent)


@dataclass(frozen=True)
class RankProfileRow:
    sample: Vector
    ambient: Vector
    record: ClassificationRecord
    characteristic_basis: MatrixQ


@dataclass(frozen=True)
class ConstancyFlags:
    """Whether each profiled quantity is constant on the given samples."""

    dim_tangent: bool
    dim_sharp_conormal: bool
    dim_sum: bool
    dim_characteristic: bool
    rho_rank: bool


@dataclass(frozen=True)
class RankProfile:
    rows: tuple[RankProfileRow, ...]
    errors: tuple[tuple[int, str], ...]
    constant: ConstancyFlags


def rank_profile(pi: BivectorField, c: SubmanifoldPatch, samples: Sequence[Sequence[Fraction]]) -> RankProfile:
    """Per-point classification records plus constancy flags.

    Regularity failures are reported per point and do not abort the
    remaining samples.  The characteristic basis is included per point
    so that a constant characteristic dimension with a jumping
    characteristic direction stays visible.
    """
    rows: list[RankProfileRow] = []
    errors: list[tuple[int, str]] = []
    for idx, q in enumerate(samples):
        try:
            at = PointData(pi, c, q)
            record = classify_subspace(at.poisson, at.tangent)
            char = characteristic_subspace(at.poisson, at.tangent)
            rows.append(RankProfileRow(at.sample, at.ambient, record, char.basis))
        except (RegularityError, SpaceMismatchError) as exc:
            errors.append((idx, str(exc)))
    def constant(values: list) -> bool:
        return len(set(values)) <= 1
    flags = ConstancyFlags(
        dim_tangent=constant([r.record.dim_subspace for r in rows]),
        dim_sharp_conormal=constant([r.record.dim_sharp_annihilator for r in rows]),
        dim_sum=constant([r.record.dim_sum for r in rows]),
        dim_characteristic=constant([r.record.dim_characteristic for r in rows]),
        rho_rank=constant([r.record.rho_rank for r in rows]),
    )
    return RankProfile(tuple(rows), tuple(errors), flags)


def grid_points(dim: int, height: int, seed: int, count: int) -> tuple[Vector, ...]:
    """Deterministic sample points with numerators and denominators of
    magnitude at most `height`."""
    return _draw_points(dim, height, seed, count, count, lambda q: True)


def level_set_grid_points(c: LevelSet, height: int, seed: int, count: int) -> tuple[Vector, ...]:
    """Grid points filtered onto the locus; suits coordinate-aligned constraints.

    Stops after LEVEL_SET_ATTEMPTS draws, so it can return fewer than `count`.
    """
    return _draw_points(c.ambient_dim, height, seed, count, LEVEL_SET_ATTEMPTS, lambda q: not any(c.map.evaluate(q)))


def _draw_points(dim: int, height: int, seed: int, count: int, attempts: int, keep) -> tuple[Vector, ...]:
    """Up to `count` kept points out of at most `attempts` seeded draws."""
    if height < 1 or count < 0:
        raise PreconditionError("height must be >= 1 and count >= 0")
    rng = random.Random(seed)
    points: list[Vector] = []
    for _ in range(attempts):
        if len(points) == count:
            break
        q = tuple(Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(dim))
        if keep(q):
            points.append(q)
    return tuple(points)


class PointData:
    """One sample of a submanifold with what the pointwise analyses need
    there, each derived once: the ambient point, the tangent space, the
    bivector at the point, and on demand the characteristic subspace and
    the differentials of functions."""

    def __init__(self, pi: BivectorField, c: SubmanifoldPatch, q: Sequence[Fraction]) -> None:
        self.patch = c
        self.sample: Vector = tuple(q)
        self.ambient = ambient_point(c, q)
        self.tangent = tangent_at(c, q)
        self.poisson: PoissonVS = pi.at(self.ambient)
        self._differentials: dict[Poly, Vector] = {}

    @cached_property
    def characteristic_in_tangent(self) -> Subspace:
        """The characteristic subspace in the canonical-basis coordinates of the tangent."""
        return subspace_in_basis(characteristic_subspace(self.poisson, self.tangent), self.tangent)

    def differential(self, f: Poly) -> Vector:
        """df at the point as a covector in the canonical-basis coordinates of the tangent."""
        if f in self._differentials:
            return self._differentials[f]
        c, rows = self.patch, self.tangent.basis.entries
        if f.variables != c.map.source_vars:
            raise SpaceMismatchError("function does not use the submanifold's coordinates")
        (grad,) = values_at((f.gradient,), self.sample)  # on a level set, sample == ambient
        if isinstance(c, Parametrized):
            # tangent basis row i = J m_i for a unique m_i, and df(row_i) = grad . m_i
            rows = solve(c.map.jacobian_at(self.sample), rows)
            if None in rows:
                raise PropertyViolationError("tangent basis vector has no parameter preimage")
        df = self._differentials[f] = tuple(sum(g * t for g, t in zip(grad, row)) for row in rows)
        return df

    def is_basic(self, f: Poly) -> bool:
        """Whether df annihilates the characteristic subspace at the point."""
        df = self.differential(f)
        return all(sum(d * v for d, v in zip(df, row)) == 0 for row in self.characteristic_in_tangent.basis.entries)

    def bracket(self, f: Poly, g: Poly) -> Fraction:
        """{f, g} at the point; see basic_bracket."""
        structure = pullback(from_bivector(self.poisson), self.tangent)
        d = self.tangent.dim
        df, dg = self.differential(f), self.differential(g)
        for h in (f, g):
            if not self.is_basic(h):
                raise PreconditionError(f"function {h} is not basic at {fmt_point(self.sample)}")
        # solve for lambda with span-combination covector part equal to df
        basis = structure.span.basis.entries
        cov = MatrixQ(d, len(basis), tuple(tuple(row[d + i] for row in basis) for i in range(d)))
        (lam,) = solve(cov, [df])
        if lam is None:
            raise PreconditionError(f"no tangent solution for df at {fmt_point(self.sample)}; function is not admissible there")
        y = tuple(sum(l * row[i] for l, row in zip(lam, basis)) for i in range(d))
        # degeneracy directions: combinations with zero covector part; dg must kill them
        for null in kernel(cov).basis.entries:
            y0 = tuple(sum(l * row[i] for l, row in zip(null, basis)) for i in range(d))
            if sum(a * b for a, b in zip(dg, y0)) != 0:
                raise PropertyViolationError("bracket value depends on the solution choice")
        return sum(a * b for a, b in zip(dg, y))

    def consistency(self, f: Poly, g: Poly) -> BracketConsistency:
        """The intrinsic bracket against the extension route; see bracket_consistency_check."""
        intrinsic = self.bracket(f, g)
        p, tangent = self.poisson, self.tangent
        w = cosymplectic_extension(p, tangent)
        pw = embedding_conditions(p, tangent, w).induced
        tangent_in_w = subspace_in_basis(tangent, w)
        complement_rows = greedy_complement(tangent_in_w, standard_basis(w.dim))
        constraint = MatrixQ.from_rows(tangent_in_w.basis.entries + complement_rows, cols=w.dim)
        pad = (Fraction(0),) * len(complement_rows)
        alpha, beta = solve(constraint, [self.differential(f) + pad, self.differential(g) + pad])
        if alpha is None or beta is None:
            raise PropertyViolationError("covector extension to the cosymplectic subspace failed")
        # W-bracket with the same orientation as the intrinsic one: beta(sharp_W alpha)
        via_extension = sum(b * s for b, s in zip(beta, pw.sharp(alpha)))
        result = BracketConsistency(intrinsic, Fraction(via_extension))
        if not result.agree:
            raise PropertyViolationError(
                f"bracket routes disagree at {fmt_point(self.sample)}: intrinsic {intrinsic}, extension {via_extension}"
            )
        return result


def is_basic_at(f: Poly, pi: BivectorField, c: SubmanifoldPatch, q: Sequence[Fraction]) -> bool:
    """Whether df annihilates the characteristic subspace at the point."""
    return PointData(pi, c, q).is_basic(f)


def is_basic(f: Poly, pi: BivectorField, c: SubmanifoldPatch, samples: Sequence[Sequence[Fraction]]) -> tuple[bool, ...]:
    return tuple(is_basic_at(f, pi, c, q) for q in samples)


def basic_bracket(f: Poly, g: Poly, pi: BivectorField, c: SubmanifoldPatch, q: Sequence[Fraction]) -> Fraction:
    """{f, g}(q) = Y(g) for a tangent solution (Y, df_q) of the pullback structure.

    Rejects non-basic inputs; the result is checked to be independent of
    the choice of Y by verifying dg annihilates the solution-space
    degeneracy directions.
    """
    return PointData(pi, c, q).bracket(f, g)


@dataclass(frozen=True)
class BracketConsistency:
    intrinsic: Fraction
    via_extension: Fraction

    @property
    def agree(self) -> bool:
        return self.intrinsic == self.via_extension


def bracket_consistency_check(
    pi: BivectorField, c: SubmanifoldPatch, q: Sequence[Fraction], f: Poly, g: Poly
) -> BracketConsistency:
    """Intrinsic bracket against the route through a cosymplectic extension.

    The extension route: extend the tangent space to a deterministic
    cosymplectic subspace W, take the induced bivector, extend df and dg
    to covectors on W annihilating the chosen complement of the tangent,
    and evaluate the W-bracket.  Both routes must produce the same
    rational; disagreement raises, since agreement is guaranteed.
    """
    return PointData(pi, c, q).consistency(f, g)
