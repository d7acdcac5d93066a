"""Linear Dirac structures on Q^n.

A Dirac structure is an n-dimensional subspace of Q^n + (Q^n)* that is
isotropic for the symmetric pairing <(X, xi), (Y, eta)> = xi(Y) + eta(X)
(no 1/2 factor: isotropy is unaffected and the arithmetic stays
integer-friendly).  Elements are stored as length-2n vectors ordered
(X | xi).  Constructors validate dimension and isotropy; pullback,
gauge transformations, characteristic subspaces, the range-with-form
description, and bivector graph extraction are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError, PropertyViolationError, SpaceMismatchError
from .poisson_linear import PoissonVS
from .rational_linalg import MatrixQ, Subspace, Vector, annihilator, intersect, inverse, solve, standard_basis


def pairing(u: Sequence[Fraction], v: Sequence[Fraction], n: int) -> Fraction:
    """<(X, xi), (Y, eta)> = xi(Y) + eta(X)."""
    return sum(u[n + i] * v[i] for i in range(n)) + sum(v[n + i] * u[i] for i in range(n))


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
        rows = self.span.basis.entries
        for i in range(len(rows)):
            for j in range(i, len(rows)):
                if pairing(rows[i], rows[j], n) != 0:
                    raise PreconditionError("span is not isotropic for the symmetric pairing")

    @staticmethod
    def from_rows(ambient_dim: int, rows: Sequence[Sequence[Fraction]]) -> DiracVS:
        return DiracVS(ambient_dim, Subspace.span(2 * ambient_dim, rows))


def from_bivector(p: PoissonVS) -> DiracVS:
    """Graph of sharp: {(Pi xi, xi) : xi in the dual}."""
    return DiracVS.from_rows(p.dim, [p.sharp(xi) + xi for xi in standard_basis(p.dim)])


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
    rows: list[tuple[Fraction, ...]] = []
    basis = o.basis.entries
    for i in range(d):
        # particular covector with xi(o_j) = omega(o_i, o_j)
        target = tuple(omega.entries[i][j] for j in range(d))
        xi = solve(o.basis, target)
        if xi is None:
            raise PropertyViolationError("could not realize the form as a covector")
        rows.append(tuple(basis[i]) + tuple(xi))
    for eta in annihilator(o).basis.entries:
        rows.append((Fraction(0),) * n + tuple(eta))
    return DiracVS.from_rows(n, rows)


def pullback(l: DiracVS, w: Subspace) -> DiracVS:
    """Induced Dirac structure on a subspace, in the canonical basis of w.

    L_w = {(X, xi|_w) : X in w, (X, xi) in L}.
    """
    if w.dual or w.ambient_dim != l.ambient_dim:
        raise SpaceMismatchError("pullback target must be a primal subspace of the same ambient")
    n = l.ambient_dim
    d = w.dim
    # constrain the vector part to w, then map (X, xi) -> (coords_w(X), xi(w_j))
    w_doubled = Subspace.span(
        2 * n,
        tuple(r + (Fraction(0),) * n for r in w.basis.entries)
        + tuple((Fraction(0),) * n + e for e in standard_basis(n)),
    )
    constrained = intersect(l.span, w_doubled)
    rows = []
    for r in constrained.basis.entries:
        x, xi = r[:n], r[n:]
        coords = w.coordinates_of(x)
        if coords is None:
            raise PropertyViolationError("constrained vector part left the subspace")
        restricted = tuple(sum(xi[j] * w.basis.entries[i][j] for j in range(n)) for i in range(d))
        rows.append(coords + restricted)
    return DiracVS.from_rows(d, rows)


def gauge(l: DiracVS, b: MatrixQ) -> DiracVS:
    """Gauge transform tau_B L = {(X, xi + i_X B) : (X, xi) in L}."""
    n = l.ambient_dim
    if b.rows != n or b.cols != n:
        raise SpaceMismatchError("gauge form must be n x n")
    if not b.is_antisymmetric():
        raise PreconditionError("gauge form must be antisymmetric")
    bt = b.transpose()
    rows = []
    for r in l.span.basis.entries:
        x = r[:n]
        shift = bt.matvec(x)
        rows.append(tuple(x) + tuple(c + s for c, s in zip(r[n:], shift)))
    return DiracVS.from_rows(n, rows)


def change_basis(l: DiracVS, c: MatrixQ) -> DiracVS:
    """The same structure expressed in another basis.

    c rows express the old basis vectors in the new one: old_i = sum_k
    c[i][k] new_k.  Vectors transform by c transposed, covectors by the
    inverse of c.
    """
    n = l.ambient_dim
    if c.rows != n or c.cols != n:
        raise SpaceMismatchError("change-of-basis matrix must be n x n")
    ct = c.transpose()
    c_inv = inverse(c)
    rows = []
    for r in l.span.basis.entries:
        rows.append(ct.matvec(r[:n]) + c_inv.matvec(r[n:]))
    return DiracVS.from_rows(n, rows)


def characteristic(l: DiracVS) -> Subspace:
    """L intersected with Q^n + 0: vectors paired with the zero covector."""
    n = l.ambient_dim
    primal = Subspace.span(
        2 * n, tuple(e + (Fraction(0),) * n for e in standard_basis(n))
    )
    both = intersect(l.span, primal)
    return Subspace.span(n, tuple(r[:n] for r in both.basis.entries))


def range_and_form(l: DiracVS) -> tuple[Subspace, MatrixQ]:
    """The projection O of L to Q^n and the induced form on it.

    omega(X, Y) = xi(Y) for any (X, xi) in L; well defined because
    covectors over the zero vector annihilate O.
    """
    n = l.ambient_dim
    o = Subspace.span(n, tuple(r[:n] for r in l.span.basis.entries))
    d = o.dim
    reps: list[Vector] = []
    vector_parts = MatrixQ(n, l.span.dim, tuple(l.span.basis.transpose().entries[:n]))
    for row in o.basis.entries:
        coeffs = solve(vector_parts, tuple(row))
        if coeffs is None:
            raise PropertyViolationError("range vector has no lift")
        full = tuple(sum(c * l.span.basis.entries[k][j] for k, c in enumerate(coeffs)) for j in range(2 * n))
        reps.append(full[n:])
    omega = MatrixQ(d, d, tuple(
        tuple(sum(reps[i][t] * o.basis.entries[j][t] for t in range(n)) for j in range(d)) for i in range(d)
    ))
    if not omega.is_antisymmetric():
        raise PropertyViolationError("induced form failed antisymmetry")
    return o, omega


def as_bivector(l: DiracVS) -> PoissonVS | None:
    """Extract the bivector when L is a graph, else None.

    Write the basis of L as rows (X_k | xi_k).  As dim L = n, L is the
    graph of a bivector exactly when the covectors xi_k are independent;
    then e_i = sum_k c_ik xi_k has the partner sum_k c_ik X_k, so with
    C the matrix of covector columns and V that of vector columns,
    Pi = V C^-1.
    """
    n = l.ambient_dim
    rows = l.span.basis.entries
    cov = MatrixQ(n, n, tuple(tuple(r[n + i] for r in rows) for i in range(n)))
    try:
        cov_inv = inverse(cov)
    except ValueError:
        return None
    vecs = MatrixQ(n, n, tuple(tuple(r[i] for r in rows) for i in range(n)))
    return PoissonVS(n, vecs @ cov_inv)
