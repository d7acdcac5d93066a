"""Linear Dirac structures on Q^n.

A Dirac structure is an n-dimensional subspace of Q^n + (Q^n)* that is
isotropic for the symmetric pairing <(X, xi), (Y, eta)> = xi(Y) + eta(X)
(no 1/2 factor: isotropy is unaffected and the arithmetic stays
integer-friendly).  Elements are stored as length-2n vectors ordered
(X | xi).  The public constructor validates dimension and isotropy, and
the constructions build without re-validation; pullback,
gauge transformations, characteristic subspaces (these two each one
`_tail` of L's rows), the range-with-form description, and bivector
graph extraction are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul

from .errors import PreconditionError, SpaceMismatchError
from .poisson_linear import PoissonVS
from .rational_linalg import (
    MatrixQ, Subspace, _eliminate, _pivots, _reduced, _tail, annihilator, inverse, primitive, stack,
)


@dataclass(frozen=True)
class DiracVS:
    """Maximal isotropic subspace of Q^n + (Q^n)*, coordinates (X | xi)."""

    ambient_dim: int
    span: Subspace

    def __post_init__(self) -> None:
        n = self.ambient_dim
        if self.span.ambient_dim != 2 * n or self.span.dual:
            raise SpaceMismatchError("span must be a primal subspace of dimension-2n coordinates")
        if self.span.dim != n:
            raise PreconditionError(f"a Dirac structure on Q^{n} must have dimension {n}, got {self.span.dim}")
        # rows i, j pair to (X xi^T)_ij + (X xi^T)_ji, zero alike on rows and basis rows
        rows = self.span.rows
        vectors, covectors = MatrixQ._of(n, (r[:n] for r in rows)), MatrixQ._of(n, (r[n:] for r in rows))
        if not (vectors @ covectors.transpose()).is_antisymmetric():
            raise PreconditionError("span is not isotropic for the symmetric pairing")

    @staticmethod
    def _of(ambient_dim: int, span: Subspace) -> DiracVS:
        """The structure of a span that its construction makes Dirac, not re-validated."""
        l = object.__new__(DiracVS)
        l.__dict__.update(ambient_dim=ambient_dim, span=span)
        return l


def _span_pairs(vectors: MatrixQ, covectors: MatrixQ) -> DiracVS:
    """The Dirac structure spanned by the rows (X_i | xi_i) of two matrices with as many rows, which the
    caller makes Dirac: by an antisymmetric Pi, omega or gauge form B, or an invertible change of basis."""
    d, e = vectors.den, covectors.den
    rows = [[a * e for a in x] + [b * d for b in xi] for x, xi in zip(vectors.ints, covectors.ints)]
    return DiracVS._of(vectors.cols, _reduced(2 * vectors.cols, rows, False))


def from_bivector(p: PoissonVS) -> DiracVS:
    """Graph of sharp: {(Pi xi, xi) : xi in the dual}; row j of Pi^T is sharp e_j."""
    return _span_pairs(p.pi.transpose(), MatrixQ.identity(p.dim))


def from_subspace_form(o: Subspace, omega: MatrixQ) -> DiracVS:
    """Dirac structure of a bilinear antisymmetric form on a subspace.

    L = {(X, xi) : X in o, xi|_o = omega(X, .)}, with omega given in the
    canonical basis of o.
    """
    if o.dual:
        raise SpaceMismatchError("the carrier subspace must be primal")
    d = o.dim
    if omega.rows != d or omega.cols != d:
        raise SpaceMismatchError("form matrix must match the subspace dimension")
    if not omega.is_antisymmetric():
        raise PreconditionError("form matrix must be antisymmetric")
    n = o.ambient_dim
    # o's basis is reduced, so row i of omega placed at o's pivot columns (omega @ units)
    # is a covector xi with xi(o_j) = omega(o_i, o_j); then (0 | eta) for eta in ann o
    units = MatrixQ._of(n, (MatrixQ.identity(n).ints[c] for c in _pivots(o.rows)))
    ann = annihilator(o).basis
    return _span_pairs(stack(o.basis, MatrixQ.zeros(ann.rows, n)), stack(omega @ units, ann))


def pullback(l: DiracVS, w: Subspace) -> DiracVS:
    """Induced Dirac structure on a subspace, in the canonical basis of w.

    L_w = {(X, xi|_w) : X in w, (X, xi) in L}: the `_tail` of L's rows as
    (A X | D X at w's pivot columns | xi(D w_j)), A the rows of ann w and D the
    denominator of w's (reduced) basis, as X is in w iff A X = 0.
    """
    if w.dual or w.ambient_dim != l.ambient_dim:
        raise SpaceMismatchError("pullback target must be a primal subspace of the same ambient")
    n, basis, ann, pivots = l.ambient_dim, w.basis, annihilator(w).rows, _pivots(w.rows)
    work = [[sum(map(mul, a, r[:n])) for a in ann] + [r[c] * basis.den for c in pivots]
            + [sum(map(mul, r[n:], b)) for b in basis.ints] for r in l.span.rows]
    return DiracVS._of(w.dim, Subspace(2 * w.dim, _tail(work, len(ann), 2 * w.dim)[1]))


def gauge(l: DiracVS, b: MatrixQ) -> DiracVS:
    """Gauge transform tau_B L = {(X, xi + i_X B) : (X, xi) in L}."""
    n = l.ambient_dim
    if b.rows != n or b.cols != n:
        raise SpaceMismatchError("gauge form must be n x n")
    if not b.is_antisymmetric():
        raise PreconditionError("gauge form must be antisymmetric")
    # on L's basis rows (X | xi): i_X B is the row X B
    rows = l.span.basis
    return _span_pairs(rows[:, :n], rows[:, n:] + rows[:, :n] @ b)


def change_basis(l: DiracVS, c: MatrixQ) -> DiracVS:
    """The same structure expressed in another basis.

    c rows express the old basis vectors in the new one: old_i = sum_k
    c[i][k] new_k.  Vectors transform by c transposed, covectors by the
    inverse of c.
    """
    n = l.ambient_dim
    if c.rows != n or c.cols != n:
        raise SpaceMismatchError("change-of-basis matrix must be n x n")
    # on L's basis rows (X | xi): X^T c is (c^T X)^T and xi^T c^-T is (c^-1 xi)^T
    rows = l.span.basis
    return _span_pairs(rows[:, :n] @ c, rows[:, n:] @ inverse(c).transpose())


def characteristic(l: DiracVS) -> Subspace:
    """L intersected with Q^n + 0, vectors paired with the zero covector: the
    `_tail` of L's rows reordered to (xi | X), as in `as_bivector`."""
    n = l.ambient_dim
    return Subspace(n, _tail([r[n:] + r[:n] for r in l.span.rows], n, n)[1])


def range_and_form(l: DiracVS) -> tuple[Subspace, MatrixQ]:
    """The projection O of L to Q^n and the induced form on it.

    omega(X, Y) = xi(Y) for any (X, xi) in L; well defined because
    covectors over the zero vector annihilate O.
    """
    n = l.ambient_dim
    # L's canonical rows with a pivot among the vector columns come first; L is
    # reduced, so their vector parts, made primitive, are O's canonical rows, and
    # the matching basis rows of L lift O's basis: L's isotropy makes omega antisymmetric
    d = sum(1 for r in l.span.rows if any(r[:n]))
    o = Subspace(n, tuple(tuple(primitive(r[:n])) for r in l.span.rows[:d]))
    omega = l.span.basis[:d, n:] @ o.basis.transpose()
    return o, omega


def as_bivector(l: DiracVS) -> PoissonVS | None:
    """Extract the bivector when L is a graph, else None.

    One elimination of L's integer rows reordered to (xi | X).  As dim L
    = n, L is a graph exactly when the pivots are the first n columns;
    row i is then p_i (e_i | sharp e_i), so Pi is the transpose of the
    right halves, each divided by its pivot p_i.
    """
    n = l.ambient_dim
    work = [r[n:] + r[:n] for r in l.span.rows]
    if _eliminate(work, 2 * n) != list(range(n)):
        return None
    big = lcm(*(r[j] for j, r in enumerate(work)))
    return PoissonVS._of(n, MatrixQ._of(n, ([r[n + i] * (big // r[j]) for j, r in enumerate(work)] for i in range(n)), big))
