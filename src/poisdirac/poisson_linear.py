"""Poisson vector spaces over Q.

A Poisson vector space is Q^n with an antisymmetric bivector matrix
Pi; sharp is the contraction xi -> Pi xi, the leaf O is the image of
sharp, and the leaf form Omega is fixed by Omega(sharp xi, .) = -xi|_O.
This module classifies subspaces (coisotropic / cosymplectic /
pointwise Poisson-Dirac / rank of the normal sharp map rho), tests the
coisotropic or cosymplectic flag alone where only that is read, builds
induced bivectors on Poisson-Dirac subspaces, constructs cosymplectic
extensions with a deterministic complement rule, produces the
canonical isomorphism between two cosymplectic extensions of the same
coisotropic subspace, and splits the ambient space along a coisotropic
subspace of minimal transverse rank into a V + E + E* model.  Only the
public constructor validates a bivector; constructions build unchecked.

Sign conventions (used consistently package-wide):
    (sharp xi)^i = sum_j Pi^{ij} xi_j
    Omega(sharp xi, sharp eta) = -xi(sharp eta)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from typing import Sequence

from .errors import PreconditionError, PropertyViolationError, SpaceMismatchError
from .rational_linalg import (
    MatrixQ, Subspace, Vector, _eliminate, _row_space, add, annihilator, column_space, contains,
    image, intersect, inverse, linear_combination, solve, stack,
)


_MISSING = object()


def _derived(build):
    """build(p, *args) made once per object p (a PoissonVS, any frozen
    dataclass, a PointData) and hashable arguments: the result is cached on
    p, outside the fields that equality and hashing read.  One lookup
    finds a result, so a hit hashes its key once."""
    @wraps(build)
    def once(p, *args):
        cache = p.__dict__.setdefault("_cache", {})
        key = (build, *args)
        if (value := cache.get(key, _MISSING)) is _MISSING:
            value = cache[key] = build(p, *args)
        return value
    return once


@dataclass(frozen=True)
class PoissonVS:
    """Q^dim with an antisymmetric bivector matrix."""

    dim: int
    pi: MatrixQ

    def __post_init__(self) -> None:
        if self.pi.rows != self.dim or self.pi.cols != self.dim:
            raise SpaceMismatchError("bivector matrix shape does not match dimension")
        if not self.pi.is_antisymmetric():
            raise PreconditionError("bivector matrix must be antisymmetric")

    @staticmethod
    def _of(dim: int, pi: MatrixQ) -> PoissonVS:
        """Q^dim with a bivector matrix that its construction makes antisymmetric, not re-validated."""
        p = object.__new__(PoissonVS)
        p.__dict__.update(dim=dim, pi=pi)
        return p

    def sharp(self, xi: Sequence[Fraction]) -> Vector:
        return self.pi.matvec(xi)

    @_derived
    def leaf(self) -> Subspace:
        """O = image(sharp), the tangent space of the symplectic leaf."""
        return column_space(self.pi)

    def _require_primal(self, c: Subspace) -> None:  # the one subspace check of every analysis of c
        if c.dual or c.ambient_dim != self.dim:
            raise SpaceMismatchError("subspace must be primal and match the ambient dimension")

    @_derived
    def sharp_annihilator(self, c: Subspace) -> Subspace:
        """sharp(ann c) for a primal subspace c of Q^dim: the first step of every analysis of c."""
        self._require_primal(c)
        return sharp_image(self, annihilator(c))


def sharp_image(p: PoissonVS, s: Subspace) -> Subspace:
    """Image under sharp of a subspace of the dual."""
    if not s.dual:
        raise SpaceMismatchError("sharp consumes dual subspaces; got a primal one")
    return image(p.pi, s, dual=False)


@dataclass(frozen=True)
class ClassificationRecord:
    """Dimensions and flags describing one subspace C of a Poisson vector space.

    rho is the composite of sharp with the projection to the normal
    space, ann C -> Q^n / C (arXiv math/0611480; the constant rank
    condition of Calvo and Falceto is on its rank).  With S = sharp ann C,
    its image is (C + S) / C, so rank rho = r = s - dim(C cap S): the code
    reads r off C cap S, the characteristic subspace, and checks it against
    the second identity dim(C + S) = k + r.  With k = dim C, m = n - k,
    s = dim S and l = dim O, every field follows from l, s and r:
        dim(C + S) = k + r          dim(C cap S) = s - r
        coisotropic <=> r = 0       cosymplectic <=> r = m
        pointwise Poisson-Dirac <=> s = r
        Lagrangian in the leaf <=> r = 0 and 2s = l, as dim(C cap O) = l - s.
    """

    dim_subspace: int
    dim_annihilator: int
    dim_sharp_annihilator: int
    dim_sum: int
    dim_characteristic: int
    dim_leaf: int
    rho_rank: int
    coisotropic: bool
    cosymplectic: bool
    pointwise_poisson_dirac: bool
    lagrangian_in_leaf: bool


@_derived
def classify_subspace(p: PoissonVS, c: Subspace) -> ClassificationRecord:
    sharp_ann = p.sharp_annihilator(c)
    k, m, s, leaf_dim = c.dim, p.dim - c.dim, sharp_ann.dim, p.leaf().dim
    r = s - characteristic_subspace(p, c).dim
    if sharp_sum(p, c).dim != k + r:
        raise PropertyViolationError("rank(rho) identities disagree; bivector data is inconsistent")
    return ClassificationRecord(
        dim_subspace=k,
        dim_annihilator=m,
        dim_sharp_annihilator=s,
        dim_sum=k + r,
        dim_characteristic=s - r,
        dim_leaf=leaf_dim,
        rho_rank=r,
        coisotropic=r == 0,
        cosymplectic=r == m,
        pointwise_poisson_dirac=s == r,
        lagrangian_in_leaf=r == 0 and 2 * s == leaf_dim,
    )


def is_coisotropic(p: PoissonVS, c: Subspace) -> bool:
    """The classification's coisotropic flag: sharp of ann c's basis rows has coordinates in c."""
    p._require_primal(c)
    return c.coordinates_of_rows(annihilator(c).basis @ p.pi.transpose()) is not None


def is_cosymplectic(p: PoissonVS, w: Subspace) -> bool:
    """The classification's cosymplectic flag: sharp(ann w) is a complement of w."""
    return w.dim + p.sharp_annihilator(w).dim == p.dim and characteristic_subspace(p, w).dim == 0


@_derived
def sharp_sum(p: PoissonVS, c: Subspace) -> Subspace:
    """c + sharp(ann c), of dimension dim c + rank rho: the classification's second
    route to that rank, the space a cosymplectic extension completes, and the side of
    the intersection condition of `embedding_conditions` that does not depend on w."""
    return add(c, p.sharp_annihilator(c))


@_derived
def characteristic_subspace(p: PoissonVS, c: Subspace) -> Subspace:
    """C intersected with sharp(ann C), read off its cached ann C: the kernel of the leaf form pulled back to C."""
    return intersect(p.sharp_annihilator(c), c)


@_derived
def induced_bivector(p: PoissonVS, w: Subspace) -> PoissonVS:
    """Bivector induced on a pointwise Poisson-Dirac subspace.

    In the canonical basis of w: sharp_W of a covector is sharp of the
    unique extension annihilating sharp(ann w).  Rejects subspaces with
    nonzero characteristic part, where the extension is not unique.
    """
    if characteristic_subspace(p, w).dim != 0:
        raise PreconditionError("subspace is not pointwise Poisson-Dirac: extension of covectors is not well defined")
    d = w.dim
    constraints = stack(w.basis, p.sharp_annihilator(w).basis)
    xis = solve(constraints, MatrixQ.identity(constraints.rows)[:d, :])
    if xis is None:
        raise PropertyViolationError("covector extension system is inconsistent")
    # row i of xis pi^T is sharp xi_i
    columns = w.coordinates_of_rows(xis @ p.pi.transpose())
    if columns is None:
        raise PropertyViolationError("sharp of the extension left the subspace")
    # entry (j, i) is xi_j(sharp xi_i), antisymmetric as Pi is
    return PoissonVS._of(d, columns.transpose())


@dataclass(frozen=True)
class EmbeddingConditions:
    """The two conditions for c to sit coisotropically inside a
    Poisson-Dirac subspace w: the leaf is covered by w + sharp(ann c),
    and w meets c + sharp(ann c) exactly in c.  `induced` is the bivector
    induced on w when both hold, else None."""

    cond_leaf: bool
    cond_int: bool
    induced: PoissonVS | None = field(default=None, compare=False, repr=False)

    def both(self) -> bool:
        return self.cond_leaf and self.cond_int


@_derived
def embedding_conditions(p: PoissonVS, c: Subspace, w: Subspace) -> EmbeddingConditions:
    if not contains(w, c):
        raise PreconditionError("c must be contained in w")
    reach = add(w, p.sharp_annihilator(c))
    cond_leaf = contains(reach, p.leaf())
    # w meets c + sharp(ann c), which holds c as w does, exactly in c iff
    # adding sharp(ann c) raises dim w as much as dim c
    cond_int = reach.dim - w.dim == sharp_sum(p, c).dim - c.dim
    if not (cond_leaf and cond_int):
        return EmbeddingConditions(cond_leaf, cond_int)
    # both conditions holding forces w to be pointwise Poisson-Dirac, which
    # induced_bivector checks, and c to be coisotropic in the induced bivector
    pw = induced_bivector(p, w)
    if not is_coisotropic(pw, subspace_in_basis(c, w)):
        raise PropertyViolationError("conditions hold but c is not coisotropic in the induced bivector")
    return EmbeddingConditions(cond_leaf, cond_int, pw)


@_derived
def subspace_in_basis(s: Subspace, w: Subspace) -> Subspace:
    """Express a subspace s of w in the canonical basis coordinates of w."""
    rows = w.coordinates_of_rows(s.basis)
    if rows is None:
        raise PreconditionError("subspace is not contained in the coordinate subspace")
    return _row_space(rows)


def greedy_complement(base: Subspace, candidates: MatrixQ) -> MatrixQ:
    """Extend base by the rows of candidates in order; returns the added rows.

    Deterministic: candidates are scanned in the given order and one is
    kept whenever it is independent of everything collected so far.  Those
    are the pivot columns after base's in one elimination of the matrix whose
    columns are base's rows and then the candidates.
    """
    k = base.dim
    work = list(zip(*base.rows, *candidates.ints))
    kept = [candidates.ints[c - k] for c in _eliminate(work, k + candidates.rows) if c >= k]
    return MatrixQ._of(candidates.cols, kept, candidates.den)


def cosymplectic_extension(p: PoissonVS, c: Subspace) -> Subspace:
    """Smallest-index cosymplectic subspace containing c coisotropically.

    w = c + R with R a complement of c + sharp(ann c) in Q^n completed
    greedily by standard basis vectors, so the output is deterministic.
    """
    # the kept unit rows, in the identity's order, are already in canonical form
    w = add(c, Subspace(p.dim, greedy_complement(sharp_sum(p, c), MatrixQ.identity(p.dim)).ints))
    if not is_cosymplectic(p, w) or not embedding_conditions(p, c, w).both():
        raise PropertyViolationError("constructed extension failed its defining conditions")
    return w


def leaf_form_gram(p: PoissonVS, xs: MatrixQ, ys: MatrixQ) -> MatrixQ:
    """Omega(x, y) for x a row of xs and y a row of ys, all in the leaf O, via
    Omega(x, sharp eta) = eta(x) (Omega(sharp xi, .) = -xi|_O and antisymmetry): one
    elimination solves sharp eta = v for the rows v of ys, and of xs unless it is ys,
    where no solution means a v off the leaf, and the Gram matrix is xs @ etas^T."""
    if xs.cols != p.dim or ys.cols != p.dim:
        raise SpaceMismatchError("vector length does not match ambient dimension")
    preimages = solve(p.pi, ys if xs is ys else stack(ys, xs))
    if preimages is None:
        raise PreconditionError("leaf form is only defined on the image of sharp")
    return xs @ preimages[:ys.rows, :].transpose()


def leaf_form_value(p: PoissonVS, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    """Omega(x, y) for x, y in the leaf O: the 1 x 1 case of leaf_form_gram."""
    return leaf_form_gram(p, MatrixQ(1, len(x), (x,)), MatrixQ(1, len(y), (y,)))[0, 0]


def canonical_iso(p: PoissonVS, c: Subspace, v: Subspace, w: Subspace) -> MatrixQ:
    """Canonical Poisson isomorphism v -> w fixing c.

    v and w must be cosymplectic subspaces containing c coisotropically.
    With A: v -> sharp(ann v) defined by w = {x + Ax}, and
    B(x) = 1/2 sharp_V(Omega(Ax, A.)), the map is x -> x + Ax + Bx,
    returned as a matrix from canonical v-coordinates to canonical
    w-coordinates.
    """
    named = (("v", v),) if v == w else (("v", v), ("w", w))
    for name, sub in named:
        if not is_cosymplectic(p, sub):
            raise PreconditionError(f"{name} is not cosymplectic")
    for name, sub in named:
        if not embedding_conditions(p, c, sub).both():
            raise PreconditionError(f"c does not sit coisotropically inside {name}")
    sharp_ann_v = p.sharp_annihilator(v)
    # decompose each v-basis vector along w + sharp(ann v), all of Q^n as v and w are
    # cosymplectic and w meets c + sharp(ann c) in c; A is minus the second part
    coeffs = solve(stack(w.basis, sharp_ann_v.basis).transpose(), v.basis)
    minus_a = coeffs[:, w.dim:] @ sharp_ann_v.basis
    # rows of B: 1/2 sharp_V(Omega(A v_i, A .)) in ambient coordinates (Omega(A., A.) is even in A)
    omega_a = leaf_form_gram(p, minus_a, minus_a)
    two_b = omega_a @ embedding_conditions(p, c, v).induced.pi.transpose() @ v.basis
    phi_cols = w.coordinates_of_rows(linear_combination((1, v.basis), (-1, minus_a), (Fraction(1, 2), two_b)))
    if phi_cols is None:
        raise PropertyViolationError("canonical isomorphism image left w")
    return phi_cols.transpose()


@dataclass(frozen=True)
class CoisotropicSplitting:
    """Splitting data P = V + E + E* along a coisotropic subspace.

    `change_of_basis` columns are the model basis (V rows, then E rows,
    then the Lagrangian partner rows F paired by the leaf form); pushing
    the ambient bivector through it yields `model`, which is block
    diagonal: the induced bivector on V plus the standard pairing block.
    """

    e: Subspace
    v: Subspace
    pairing_basis: MatrixQ
    change_of_basis: MatrixQ
    model: PoissonVS
    inverse_change_of_basis: MatrixQ = field(compare=False, repr=False)  # the inverse that pushed the model


def coisotropic_splitting(p: PoissonVS, m: Subspace, v: Subspace | None = None) -> CoisotropicSplitting:
    """P = V + E + E* along a coisotropic m: e = sharp(ann m), v a complement of e in m
    (greedy unless given), and f the partners of e that the leaf form pairs with it.
    The one check is the model check: pushed through (v, e, f), Pi must be the V + E + E*
    model.  In that basis the leaf form inverts the model's pairing block, so the check
    implies Omega(f_i, f_j) = 0 and Omega(f_i, e_j) = delta_ij."""
    if not is_coisotropic(p, m):
        raise PreconditionError("subspace is not coisotropic")
    e = p.sharp_annihilator(m)
    if e.dim != p.dim - m.dim:
        raise PreconditionError("sharp is not injective on the annihilator (codimension mismatch)")
    if v is None:
        v = _row_space(greedy_complement(e, m.basis))
    else:
        if not contains(m, v) or intersect(e, v).dim != 0 or v.dim + e.dim != m.dim:
            raise PreconditionError("supplied v is not a complement of e inside m")
    k = e.dim
    w0 = greedy_complement(e, p.sharp_annihilator(v).basis)
    if w0.rows != k:
        raise PropertyViolationError("could not complete e to sharp(ann v)")
    # normalize the pairing Omega(f_J, e_I) = delta_IJ, then flatten to a Lagrangian
    w = inverse(leaf_form_gram(p, w0, e.basis)) @ w0
    f = linear_combination((1, w), (Fraction(1, 2), leaf_form_gram(p, w, w) @ e.basis))
    t = stack(v.basis, e.basis, f).transpose()
    t_inv = inverse(t)
    pushed = t_inv @ p.pi @ t_inv.transpose()
    model = PoissonVS._of(p.dim, pushed)
    if pushed != _block_model(induced_bivector(p, v), k).pi:
        raise PropertyViolationError("pushed bivector does not match the V + E + E* model")
    return CoisotropicSplitting(e=e, v=v, pairing_basis=f, change_of_basis=t, model=model,
                                inverse_change_of_basis=t_inv)


def _block_model(pv: PoissonVS, k: int) -> PoissonVS:
    """Block-diagonal model bivector: pv on the V block, then the k x k pairing."""
    d, n, one = pv.dim, pv.dim + 2 * k, pv.pi.den
    ints = [list(r) + [0] * (2 * k) for r in pv.pi.ints] + [[0] * n for _ in range(2 * k)]
    for i in range(d, d + k):
        ints[i][i + k], ints[i + k][i] = one, -one
    return PoissonVS._of(n, MatrixQ._of(n, ints, one))


def linear_uniqueness_iso(p1: PoissonVS, p2: PoissonVS, m: Subspace, v: Subspace) -> MatrixQ:
    """Poisson isomorphism Q^n -> Q^n matching two minimal ambient structures.

    Both bivectors must contain m coisotropically with the same sharp
    image of the annihilator (they induce the same pullback structure on
    m); the map is splitting_2 composed with the inverse of splitting_1
    and fixes m pointwise.
    """
    if p1.sharp_annihilator(m) != p2.sharp_annihilator(m):
        raise PreconditionError("sharp images of the annihilator differ; structures do not match along m")
    # the pullback of graph(Pi) to m is fixed by its range (m intersect the leaf O) and its form -Omega there
    reach = intersect(p1.leaf(), m)
    rows = reach.basis
    if reach != intersect(p2.leaf(), m) or leaf_form_gram(p1, rows, rows) != leaf_form_gram(p2, rows, rows):
        raise PreconditionError("the two bivectors induce different pullback structures on m")
    s1 = coisotropic_splitting(p1, m, v)
    s2 = coisotropic_splitting(p2, m, v)
    if s1.model.pi != s2.model.pi:
        raise PropertyViolationError("splitting models disagree despite equal pullback data")
    # the two model checks make phi Pi_1 phi^T = t_2 M t_2^T = Pi_2, M the common model
    phi = s2.change_of_basis @ s1.inverse_change_of_basis
    if m.basis @ phi.transpose() != m.basis:
        raise PropertyViolationError("matching isomorphism moved a point of m")
    return phi
