"""Polynomial bivector fields and two-form fields on coordinate patches.

Bivector fields are antisymmetric matrices of polynomials; the Jacobi
check is fully symbolic (a polynomial identity, not sampled), pushforward
under a polynomial diffeomorphism requires an explicit polynomial
inverse, and two-forms get a symbolic exterior derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence, TypeVar

from .errors import PreconditionError, SpaceMismatchError
from .poisson_linear import PoissonVS
from .polynomials import Poly, PolyMap, compose, compose_map, sum_of_products
from .rational_linalg import MatrixQ

_Field = TypeVar("_Field", bound="AntisymmetricField")


@dataclass(frozen=True)
class AntisymmetricField:
    """Antisymmetric n x n matrix of polynomials in the patch coordinates."""

    variables: tuple[str, ...]
    entries: tuple[tuple[Poly, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.variables)
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise SpaceMismatchError("entry grid shape does not match the variable count")
        for i in range(n):
            for j in range(i, n):
                if self.entries[i][j] != -self.entries[j][i]:
                    raise PreconditionError(f"entries ({i},{j}) and ({j},{i}) are not antisymmetric")

    @classmethod
    def from_upper(cls: type[_Field], variables: Sequence[str], upper: Mapping[tuple[int, int], Poly | str]) -> _Field:
        """Build from entries above the diagonal (0-based indices i < j); strings are parsed."""
        variables = tuple(variables)
        n = len(variables)
        grid = [[Poly.zero(variables)] * n for _ in range(n)]
        for (i, j), poly in upper.items():
            if not 0 <= i < j < n:
                raise ValueError(f"upper-triangular index out of range: {(i, j)}")
            if isinstance(poly, str):
                poly = Poly.parse(poly, variables)
            elif poly.variables != variables:
                raise SpaceMismatchError("entry polynomial has the wrong variable context")
            grid[i][j] = poly
            grid[j][i] = -poly
        return cls(variables, tuple(tuple(r) for r in grid))

    @property
    def dim(self) -> int:
        return len(self.variables)

    def upper_entries(self) -> dict[tuple[int, int], Poly]:
        n = self.dim
        return {(i, j): self.entries[i][j] for i in range(n) for j in range(i + 1, n) if not self.entries[i][j].is_zero()}

    def matrix_at(self, point: Sequence[Fraction]) -> MatrixQ:
        n = self.dim
        return MatrixQ(n, n, tuple(tuple(e.evaluate(point) for e in row) for row in self.entries))

    def is_constant(self) -> bool:
        return all(e.is_constant() for row in self.entries for e in row)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)


class BivectorField(AntisymmetricField):
    """Polynomial bivector field Pi = sum_{i<j} Pi^ij d/dx_i ^ d/dx_j."""

    def at(self, point: Sequence[Fraction]) -> PoissonVS:
        return PoissonVS(self.dim, self.matrix_at(point))

    def permuted(self, order: Sequence[int], new_variables: Sequence[str] | None = None) -> BivectorField:
        """Relabel coordinates: new coordinate a is the old coordinate order[a]."""
        n = self.dim
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the coordinate indices")
        new_vars = tuple(new_variables) if new_variables is not None else tuple(self.variables[a] for a in order)
        # old variable order[a] becomes the a-th new variable
        substitution = {
            self.variables[old]: Poly.variable(new_vars, new_vars[a]) for a, old in enumerate(order)
        }
        grid = tuple(
            tuple(self.entries[order[a]][order[b]].substitute(substitution) for b in range(n)) for a in range(n)
        )
        return BivectorField(new_vars, grid)


class TwoFormField(AntisymmetricField):
    """Polynomial two-form B = sum_{i<j} B_ij dx_i ^ dx_j."""

    def at(self, point: Sequence[Fraction]) -> MatrixQ:
        return self.matrix_at(point)

    def __sub__(self, other: TwoFormField) -> TwoFormField:
        if self.variables != other.variables:
            raise SpaceMismatchError("two-forms live on different patches")
        return TwoFormField(self.variables, tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)
        ))


def jacobiator(pi: BivectorField) -> dict[tuple[int, int, int], Poly]:
    """Trilinear obstruction tensor, indexed by i < j < k.

    J^{ijk} = sum_l (Pi^{il} d_l Pi^{jk} + Pi^{jl} d_l Pi^{ki} + Pi^{kl} d_l Pi^{ij}).
    """
    return {(i, j, k): jacobiator_component(pi, i, j, k) for i, j, k in combinations(range(pi.dim), 3)}


def jacobiator_component(pi: BivectorField, i: int, j: int, k: int) -> Poly:
    e = pi.entries
    return sum_of_products(pi.variables, (
        (e[a][l], e[b][c].partial(var))
        for l, var in enumerate(pi.variables)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
        if not e[a][l].is_zero()
    ))


def is_poisson(pi: BivectorField) -> bool:
    return all(p.is_zero() for p in jacobiator(pi).values())


def nonzero_jacobiator_components(pi: BivectorField) -> dict[tuple[int, int, int], Poly]:
    return {ijk: p for ijk, p in jacobiator(pi).items() if not p.is_zero()}


def pushforward(pi: BivectorField, phi: PolyMap, phi_inv: PolyMap) -> BivectorField:
    """Push pi forward along a polynomial diffeomorphism with known inverse.

    (phi_* pi)^{ab} = (sum_j (sum_i d_i phi^a pi^{ij}) d_j phi^b) composed
    with phi^{-1}.  Both composition identities are verified symbolically
    before any transport happens.
    """
    n = pi.dim
    if phi.source_dim != n or phi.target_dim != n or phi_inv.source_dim != n or phi_inv.target_dim != n:
        raise SpaceMismatchError("diffeomorphism dimensions do not match the field")
    if not compose_map(phi, phi_inv).is_identity() or not compose_map(phi_inv, phi).is_identity():
        raise PreconditionError("supplied maps are not mutually inverse")
    jac = phi.jacobian()
    columns = tuple(zip(*pi.entries))
    upper = {}
    for a in range(n - 1):
        jac_pi = [sum_of_products(pi.variables, zip(jac[a], column)) for column in columns]
        for b in range(a + 1, n):
            entry = sum_of_products(pi.variables, zip(jac_pi, jac[b]))
            if not entry.is_zero():
                upper[(a, b)] = compose(entry, phi_inv)
    return BivectorField.from_upper(phi_inv.source_vars, upper)


def exterior_derivative(b: TwoFormField) -> dict[tuple[int, int, int], Poly]:
    """(dB)_{ijk} = d_i B_{jk} - d_j B_{ik} + d_k B_{ij}, indexed i < j < k."""
    v, e = b.variables, b.entries
    return {
        (i, j, k): e[j][k].partial(v[i]) - e[i][k].partial(v[j]) + e[i][j].partial(v[k])
        for i, j, k in combinations(range(b.dim), 3)
    }


def is_closed(b: TwoFormField) -> bool:
    return all(p.is_zero() for p in exterior_derivative(b).values())


def verify_split_form(pi: BivectorField, k: int) -> bool:
    """Check for the split shape in coordinates ordered (q_1..q_k, p_1..p_k, y_*).

    True iff the q-p block is the constant identity pairing, all other
    blocks touching q or p vanish, and the y-y block only involves the
    y variables.
    """
    n = pi.dim
    if 2 * k > n:
        raise PreconditionError(f"2k = {2 * k} exceeds the dimension {n}")
    one, zero = Poly.constant(pi.variables, 1), Poly.zero(pi.variables)
    # rows q and p above the diagonal (antisymmetry fixes the rest): only Pi^{q_i p_i} = 1
    for i in range(2 * k):
        if any(pi.entries[i][j] != (one if i < k and j == i + k else zero) for j in range(i + 1, n)):
            return False
    y_block = (pi.entries[i][j] for i in range(2 * k, n) for j in range(2 * k, n))
    return all(e[t] == 0 for entry in y_block for e, _ in entry.terms for t in range(2 * k))
