"""Poisson vector spaces over Q.

A Poisson vector space is Q^n with an antisymmetric bivector matrix
Pi; sharp is the contraction xi -> Pi xi, the leaf O is the image of
sharp, and the leaf form Omega is fixed by Omega(sharp xi, .) = -xi|_O.
This module classifies subspaces (coisotropic / cosymplectic /
pointwise Poisson-Dirac / rank of the normal sharp map rho), builds
induced bivectors on Poisson-Dirac subspaces, constructs cosymplectic
extensions with a deterministic complement rule, produces the
canonical isomorphism between two cosymplectic extensions of the same
coisotropic subspace, and splits the ambient space along a coisotropic
subspace of minimal transverse rank into a V + E + E* model.

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
    MatrixQ,
    Subspace,
    Vector,
    _row_space,
    add,
    annihilator,
    column_space,
    contains,
    image,
    intersect,
    inverse,
    preimage,
    solve,
    standard_basis,
)


def _derived(build):
    """build(p, *args) made once per object p (a PoissonVS, or any frozen
    dataclass) and arguments: the result is cached on p, outside the fields
    that equality and hashing read."""
    @wraps(build)
    def once(p, *args):
        cache = p.__dict__.setdefault("_cache", {})
        key = (build, *args)
        if key not in cache:
            cache[key] = build(p, *args)
        return cache[key]
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

    def sharp(self, xi: Sequence[Fraction]) -> Vector:
        return self.pi.matvec(xi)

    @_derived
    def leaf(self) -> Subspace:
        """O = image(sharp), the tangent space of the symplectic leaf."""
        return column_space(self.pi)

    @_derived
    def sharp_annihilator(self, c: Subspace) -> Subspace:
        """sharp(ann c) for a primal subspace c."""
        return sharp_image(self, annihilator(c))


def sharp_image(p: PoissonVS, s: Subspace) -> Subspace:
    """Image under sharp of a subspace of the dual."""
    if not s.dual:
        raise SpaceMismatchError("sharp consumes dual subspaces; got a primal one")
    return image(p.pi, s, dual=False)


def sharp_preimage(p: PoissonVS, s: Subspace) -> Subspace:
    """sharp^{-1}(s) inside the dual, for a primal subspace s."""
    if s.dual:
        raise SpaceMismatchError("sharp preimage consumes primal subspaces; got a dual one")
    return preimage(p.pi, s, source_dual=True)


@dataclass(frozen=True)
class ClassificationRecord:
    """Dimensions and flags describing one subspace of a Poisson vector space.

    rho is the composite of sharp with the projection to the normal
    space, ann C -> Q^n / C; its rank equals dim(C + sharp ann C) - dim C.
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
    if c.dual or c.ambient_dim != p.dim:
        raise SpaceMismatchError("subspace must be primal and match the ambient dimension")
    ann = annihilator(c)
    sharp_ann = p.sharp_annihilator(c)
    total = add(c, sharp_ann)
    characteristic = characteristic_subspace(p, c)
    leaf = p.leaf()
    rho_rank = total.dim - c.dim
    kernel_rho = intersect(ann, sharp_preimage(p, c))
    if rho_rank != ann.dim - kernel_rho.dim:
        raise PropertyViolationError("rank(rho) identities disagree; bivector data is inconsistent")
    return ClassificationRecord(
        dim_subspace=c.dim,
        dim_annihilator=ann.dim,
        dim_sharp_annihilator=sharp_ann.dim,
        dim_sum=total.dim,
        dim_characteristic=characteristic.dim,
        dim_leaf=leaf.dim,
        rho_rank=rho_rank,
        coisotropic=contains(c, sharp_ann),
        cosymplectic=total.dim == p.dim and characteristic.dim == 0,
        pointwise_poisson_dirac=characteristic.dim == 0,
        lagrangian_in_leaf=sharp_ann == intersect(c, leaf),
    )


@_derived
def characteristic_subspace(p: PoissonVS, c: Subspace) -> Subspace:
    """C intersected with sharp(ann C): the kernel of the leaf form pulled back to C."""
    return intersect(c, p.sharp_annihilator(c))


@_derived
def induced_bivector(p: PoissonVS, w: Subspace) -> PoissonVS:
    """Bivector induced on a pointwise Poisson-Dirac subspace.

    In the canonical basis of w: sharp_W of a covector is sharp of the
    unique extension annihilating sharp(ann w).  Rejects subspaces with
    nonzero characteristic part, where the extension is not unique.
    """
    if w.dual or w.ambient_dim != p.dim:
        raise SpaceMismatchError("subspace must be primal and match the ambient dimension")
    if characteristic_subspace(p, w).dim != 0:
        raise PreconditionError("subspace is not pointwise Poisson-Dirac: extension of covectors is not well defined")
    d = w.dim
    constraint_rows = w.basis.entries + p.sharp_annihilator(w).basis.entries
    constraints = MatrixQ(len(constraint_rows), p.dim, constraint_rows)
    xis = solve(constraints, standard_basis(len(constraint_rows))[:d])
    if None in xis:
        raise PropertyViolationError("covector extension system is inconsistent")
    columns = w.coordinates_of_rows([p.sharp(xi) for xi in xis])
    if columns is None:
        raise PropertyViolationError("sharp of the extension left the subspace")
    return PoissonVS(d, MatrixQ(d, d, columns).transpose())


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
    sharp_ann_c = p.sharp_annihilator(c)
    cond_leaf = contains(add(w, sharp_ann_c), p.leaf())
    cond_int = intersect(w, add(c, sharp_ann_c)) == c
    if not (cond_leaf and cond_int):
        return EmbeddingConditions(cond_leaf, cond_int)
    # both conditions holding forces these two facts; a failure here
    # means the input data is inconsistent
    if characteristic_subspace(p, w).dim != 0:
        raise PropertyViolationError("conditions hold but w is not pointwise Poisson-Dirac")
    pw = induced_bivector(p, w)
    if not classify_subspace(pw, subspace_in_basis(c, w)).coisotropic:
        raise PropertyViolationError("conditions hold but c is not coisotropic in the induced bivector")
    return EmbeddingConditions(cond_leaf, cond_int, pw)


def subspace_in_basis(s: Subspace, w: Subspace) -> Subspace:
    """Express a subspace s of w in the canonical basis coordinates of w."""
    rows = w.coordinates_of_rows(s.basis.entries)
    if rows is None:
        raise PreconditionError("subspace is not contained in the coordinate subspace")
    return _row_space(w.dim, rows)


def greedy_complement(base: Subspace, candidates: Sequence[Vector]) -> tuple[Vector, ...]:
    """Extend base by candidate vectors in order; returns the added vectors.

    Deterministic: candidates are scanned in the given order and one is
    kept whenever it is independent of everything collected so far.
    """
    current = base
    added: list[Vector] = []
    for v in candidates:
        if not current.contains_vector(v):
            added.append(tuple(v))
            current = add(current, _row_space(base.ambient_dim, [v], base.dual))
    return tuple(added)


def cosymplectic_extension(p: PoissonVS, c: Subspace) -> Subspace:
    """Smallest-index cosymplectic subspace containing c coisotropically.

    w = c + R with R a complement of c + sharp(ann c) in Q^n completed
    greedily by standard basis vectors, so the output is deterministic.
    """
    if c.dual or c.ambient_dim != p.dim:
        raise SpaceMismatchError("subspace must be primal and match the ambient dimension")
    reach = add(c, p.sharp_annihilator(c))
    r_vectors = greedy_complement(reach, standard_basis(p.dim))
    w = add(c, _row_space(p.dim, r_vectors))
    record = classify_subspace(p, w)
    if not record.cosymplectic or not embedding_conditions(p, c, w).both():
        raise PropertyViolationError("constructed extension failed its defining conditions")
    return w


def leaf_form_gram(p: PoissonVS, xs: Sequence[Sequence[Fraction]], ys: Sequence[Sequence[Fraction]]) -> tuple[Vector, ...]:
    """Omega(x, y) for x in xs (rows) and y in ys (columns), all in the leaf O, via
    Omega(sharp xi, .) = -xi|_O: sharp xi = v is solved for every distinct vector v
    in one elimination, and a vector with no solution is off the leaf."""
    if any(len(v) != p.dim for v in (*xs, *ys)):
        raise SpaceMismatchError("vector length does not match ambient dimension")
    distinct = list(dict.fromkeys(map(tuple, (*xs, *ys))))
    preimages = dict(zip(distinct, solve(p.pi, distinct)))
    if None in preimages.values():
        raise PreconditionError("leaf form is only defined on the image of sharp")
    return tuple(tuple(-sum(a * b for a, b in zip(preimages[tuple(x)], y)) for y in ys) for x in xs)


def leaf_form_value(p: PoissonVS, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    """Omega(x, y) for x, y in the leaf O: the 1 x 1 case of leaf_form_gram."""
    return leaf_form_gram(p, (x,), (y,))[0][0]


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
        if not classify_subspace(p, sub).cosymplectic:
            raise PreconditionError(f"{name} is not cosymplectic")
    for name, sub in named:
        if not embedding_conditions(p, c, sub).both():
            raise PreconditionError(f"c does not sit coisotropically inside {name}")
    sharp_ann_v = p.sharp_annihilator(v)
    # decompose each v-basis vector along w + sharp(ann v); A is minus the second part
    dec_matrix = MatrixQ(w.dim + sharp_ann_v.dim, p.dim, w.basis.entries + sharp_ann_v.basis.entries).transpose()
    coeffs = solve(dec_matrix, v.basis.entries)
    if None in coeffs:
        raise PropertyViolationError("sharp(ann v) is not a complement of w")
    d = v.dim
    a = -(MatrixQ(d, sharp_ann_v.dim, tuple(c[w.dim:] for c in coeffs)) @ sharp_ann_v.basis)
    # rows of B: 1/2 sharp_V(Omega(A v_i, A .)) in ambient coordinates
    omega_a = MatrixQ(d, d, leaf_form_gram(p, a.entries, a.entries))
    b = (omega_a @ embedding_conditions(p, c, v).induced.pi.transpose() @ v.basis).scale(Fraction(1, 2))
    phi_cols = w.coordinates_of_rows((v.basis + a + b).entries)
    if phi_cols is None:
        raise PropertyViolationError("canonical isomorphism image left w")
    return MatrixQ(d, w.dim, phi_cols).transpose()


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


def coisotropic_splitting(p: PoissonVS, m: Subspace, v: Subspace | None = None) -> CoisotropicSplitting:
    record = classify_subspace(p, m)
    if not record.coisotropic:
        raise PreconditionError("subspace is not coisotropic")
    e = p.sharp_annihilator(m)
    if e.dim != p.dim - m.dim:
        raise PreconditionError("sharp is not injective on the annihilator (codimension mismatch)")
    if v is None:
        v_rows = greedy_complement(e, m.basis.entries)
        v = _row_space(p.dim, v_rows)
    else:
        if not contains(m, v) or intersect(v, e).dim != 0 or v.dim + e.dim != m.dim:
            raise PreconditionError("supplied v is not a complement of e inside m")
    k = e.dim
    w0_rows = greedy_complement(e, p.sharp_annihilator(v).basis.entries)
    if len(w0_rows) != k:
        raise PropertyViolationError("could not complete e to sharp(ann v)")
    # normalize the pairing Omega(f_J, e_I) = delta_IJ, then flatten to a Lagrangian
    e_rows = e.basis.entries
    pairing = MatrixQ(k, k, leaf_form_gram(p, w0_rows, e_rows))
    w = inverse(pairing) @ MatrixQ(k, p.dim, w0_rows)
    omega_w = MatrixQ(k, k, leaf_form_gram(p, w.entries, w.entries))
    f_rows = (w + (omega_w @ e.basis).scale(Fraction(1, 2))).entries
    # Omega(f_i, f_j) must vanish and Omega(f_i, e_j) must be delta_ij
    checks = leaf_form_gram(p, f_rows, f_rows + e_rows)
    for i in range(k):
        for j in range(k):
            if checks[i][j] != 0:
                raise PropertyViolationError("Lagrangian correction failed")
            if checks[i][k + j] != (1 if i == j else 0):
                raise PropertyViolationError("pairing normalization failed")
    model_cols = v.basis.entries + e_rows + f_rows
    t = MatrixQ(p.dim, p.dim, model_cols).transpose()
    t_inv = inverse(t)
    pushed = t_inv @ p.pi @ t_inv.transpose()
    model = PoissonVS(p.dim, pushed)
    if pushed != _block_model(induced_bivector(p, v), k).pi:
        raise PropertyViolationError("pushed bivector does not match the V + E + E* model")
    return CoisotropicSplitting(
        e=e,
        v=v,
        pairing_basis=MatrixQ(k, p.dim, f_rows),
        change_of_basis=t,
        model=model,
    )


def _block_model(pv: PoissonVS, k: int) -> PoissonVS:
    """Block-diagonal model bivector: pv on the V block, then the k x k pairing."""
    n = pv.dim + 2 * k
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(pv.dim):
        for j in range(pv.dim):
            entries[i][j] = pv.pi.entries[i][j]
    for i in range(k):
        entries[pv.dim + i][pv.dim + k + i] = Fraction(1)
        entries[pv.dim + k + i][pv.dim + i] = Fraction(-1)
    return PoissonVS(n, MatrixQ(n, n, tuple(tuple(r) for r in entries)))


def linear_uniqueness_iso(p1: PoissonVS, p2: PoissonVS, m: Subspace, v: Subspace) -> MatrixQ:
    """Poisson isomorphism Q^n -> Q^n matching two minimal ambient structures.

    Both bivectors must contain m coisotropically with the same sharp
    image of the annihilator (they induce the same pullback structure on
    m); the map is splitting_2 composed with the inverse of splitting_1
    and fixes m pointwise.
    """
    if p1.dim != p2.dim:
        raise PreconditionError("ambient dimensions differ")
    e1 = p1.sharp_annihilator(m)
    e2 = p2.sharp_annihilator(m)
    if e1 != e2:
        raise PreconditionError("sharp images of the annihilator differ; structures do not match along m")
    # the pullback of graph(Pi) to m is fixed by its range (m intersect the leaf O) and its form -Omega there
    reach = intersect(m, p1.leaf())
    rows = reach.basis.entries
    if reach != intersect(m, p2.leaf()) or leaf_form_gram(p1, rows, rows) != leaf_form_gram(p2, rows, rows):
        raise PreconditionError("the two bivectors induce different pullback structures on m")
    s1 = coisotropic_splitting(p1, m, v)
    s2 = coisotropic_splitting(p2, m, v)
    if s1.model.pi != s2.model.pi:
        raise PropertyViolationError("splitting models disagree despite equal pullback data")
    phi = s2.change_of_basis @ inverse(s1.change_of_basis)
    if phi @ p1.pi @ phi.transpose() != p2.pi:
        raise PropertyViolationError("matching isomorphism failed to intertwine the bivectors")
    for row in m.basis.entries:
        if phi.matvec(row) != row:
            raise PropertyViolationError("matching isomorphism moved a point of m")
    return phi
