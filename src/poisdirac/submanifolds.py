"""Submanifolds of polynomial Poisson patches, analyzed pointwise.

A submanifold is a polynomial parametrization Q^k -> Q^n or a polynomial
level set in Q^n.  Its points, and the functions on it, are written in the
source coordinates of its `map`: the parameters, or the ambient coordinates
of a level set, whose map is its constraint map.  Only this module tells
the two kinds apart.

`PointData` is the pointwise entry: one sample with its tangent space and
bivector, answering the classification, basic-function and bracket
questions there.  Rank profiles report constancy as evidence over the
samples only: deciding rank constancy of polynomial data globally is out
of scope.
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

# Draws made by grid_points_on on a level set before it gives up on filling `count`.
LEVEL_SET_ATTEMPTS = 10000


@dataclass(frozen=True)
class Parametrized:
    """Image of a polynomial map Q^k -> Q^n; points are parameter values."""

    map: PolyMap

    @property
    def param_dim(self) -> int:
        return self.map.source_dim


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
    """Tangent space at a regular point, as a subspace of the ambient Q^n.
    A level-set point is checked to lie on the locus."""
    if isinstance(c, Parametrized):
        tangent = column_space(c.map.jacobian_at(q))
        if tangent.dim != c.param_dim:
            raise RegularityError(f"parametrization is not an immersion at {fmt_point(q)}")
        return tangent
    point = ambient_point(c, q)
    tangent = kernel(c.map.jacobian_at(point))
    if tangent.dim != c.map.source_dim - c.map.target_dim:
        raise RegularityError(f"constraint differentials are dependent at {fmt_point(point)}")
    return tangent


def conormal_at(c: SubmanifoldPatch, q: Sequence[Fraction]) -> Subspace:
    return annihilator(tangent_at(c, q))


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
            char = characteristic_subspace(at.poisson, at.tangent)
            rows.append(RankProfileRow(at.sample, at.ambient, at.classification, char.basis))
        except (RegularityError, SpaceMismatchError) as exc:
            errors.append((idx, str(exc)))
    # the record fields behind ConstancyFlags, in its field order
    profiled = ("dim_subspace", "dim_sharp_annihilator", "dim_sum", "dim_characteristic", "rho_rank")
    flags = ConstancyFlags(*(len({getattr(r.record, name) for r in rows}) <= 1 for name in profiled))
    return RankProfile(tuple(rows), tuple(errors), flags)


def grid_points(dim: int, height: int, seed: int, count: int) -> tuple[Vector, ...]:
    """Deterministic sample points with numerators and denominators of
    magnitude at most `height`."""
    return _draw_points(dim, height, seed, count, count, lambda q: True)


def grid_points_on(c: SubmanifoldPatch, height: int, seed: int, count: int) -> tuple[Vector, ...]:
    """The points of `grid_points` in c's point coordinates that lie on c: every
    draw on a parametrization, the draws on the locus of a level set (suits
    coordinate-aligned constraints).  A level set stops after LEVEL_SET_ATTEMPTS
    draws, so it can return fewer than `count`."""
    if isinstance(c, Parametrized):
        return grid_points(c.map.source_dim, height, seed, count)
    return _draw_points(c.map.source_dim, height, seed, count, LEVEL_SET_ATTEMPTS, lambda q: not any(c.map.evaluate(q)))


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
    bivector at the point, and on demand the classification, the
    characteristic subspace and the differentials of functions."""

    def __init__(self, pi: BivectorField, c: SubmanifoldPatch, q: Sequence[Fraction]) -> None:
        self.patch = c
        self.sample: Vector = tuple(q)
        self.tangent = tangent_at(c, self.sample)
        # a level-set sample is its ambient point, and tangent_at checked it on the locus
        self.ambient = self.sample if isinstance(c, LevelSet) else ambient_point(c, self.sample)
        self.poisson: PoissonVS = pi.at(self.ambient)
        self._differentials: dict[Poly, Vector] = {}
        self._directions: tuple[Vector, ...] | None = None

    @property
    def classification(self) -> ClassificationRecord:
        """The classification record of the tangent space."""
        return classify_subspace(self.poisson, self.tangent)

    @cached_property
    def characteristic_in_tangent(self) -> Subspace:
        """The characteristic subspace in the canonical-basis coordinates of the tangent."""
        return subspace_in_basis(characteristic_subspace(self.poisson, self.tangent), self.tangent)

    def differential(self, f: Poly) -> Vector:
        """df at the point as a covector in the canonical-basis coordinates of the tangent."""
        if f in self._differentials:
            return self._differentials[f]
        if f.variables != self.patch.map.source_vars:
            raise SpaceMismatchError("function does not use the submanifold's coordinates")
        if self._directions is None:  # tangent basis row i = J m_i on a parametrization; df(row i) = grad . m_i
            rows = self.tangent.basis.entries
            if isinstance(self.patch, Parametrized):
                rows = solve(self.patch.map.jacobian_at(self.sample), rows)
                if None in rows:
                    raise PropertyViolationError("tangent basis vector has no parameter preimage")
            self._directions = rows
        (grad,) = values_at((f.gradient,), self.sample)
        df = self._differentials[f] = tuple(sum(g * t for g, t in zip(grad, row)) for row in self._directions)
        return df

    def is_basic(self, f: Poly) -> bool:
        """Whether df annihilates the characteristic subspace at the point."""
        df = self.differential(f)
        return all(sum(d * v for d, v in zip(df, row)) == 0 for row in self.characteristic_in_tangent.basis.entries)

    def bracket(self, f: Poly, g: Poly) -> Fraction:
        """{f, g}(q) = Y(g) for a tangent solution (Y, df_q) of graph(Pi) pulled back
        to the tangent, in the package's sign convention (sharp xi = Pi xi): with
        Pi^{12} = Pi^{34} = 1, {x1, x2} = -1 on the hyperplane x4 = 0.  Rejects
        functions not basic at the point; the value is checked to be independent of
        the choice of Y, as dg must annihilate the solutions with zero covector part."""
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
        """The intrinsic `bracket` against the extension route: extend the tangent to
        the cosymplectic subspace W of `cosymplectic_extension`, extend df and dg to
        covectors on W annihilating the greedy complement of the tangent, and evaluate
        the bracket of the bivector induced on W.  The theory guarantees agreement,
        so a disagreement raises PropertyViolationError."""
        intrinsic = self.bracket(f, g)
        p, tangent = self.poisson, self.tangent
        w = cosymplectic_extension(p, tangent)
        pw = embedding_conditions(p, tangent, w).induced
        tangent_in_w = subspace_in_basis(tangent, w)
        complement_rows = greedy_complement(tangent_in_w, standard_basis(w.dim))
        constraint_rows = tangent_in_w.basis.entries + complement_rows
        constraint = MatrixQ(len(constraint_rows), w.dim, constraint_rows)
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


@dataclass(frozen=True)
class BracketConsistency:
    intrinsic: Fraction
    via_extension: Fraction

    @property
    def agree(self) -> bool:
        return self.intrinsic == self.via_extension
