"""Polynomial bivector fields and two-form fields on coordinate patches.

Bivector fields are antisymmetric matrices of polynomials; the Jacobi
check is fully symbolic (a polynomial identity, not sampled), pushforward
under a polynomial diffeomorphism requires an explicit polynomial
inverse, and two-forms get a symbolic exterior derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Mapping, Sequence, TypeVar

from .errors import PreconditionError, SpaceMismatchError
from .poisson_linear import PoissonVS
from . import polynomials
from .polynomials import Poly, PolyMap, _check_term_cap, _ordered, compose_map, integer_rows_at
from .polynomials import sum_of_products
from .rational_linalg import MatrixQ

_Field = TypeVar("_Field", bound="AntisymmetricField")


@dataclass(frozen=True)
class AntisymmetricField:
    """Antisymmetric n x n matrix of polynomials in the patch coordinates."""

    variables: tuple[str, ...]
    entries: tuple[tuple[Poly, ...], ...]

    def __post_init__(self) -> None:
        self._check_grid()
        for i, row in enumerate(self.entries):  # entry (j, i) is minus entry (i, j), read off the numerators
            for j, a in enumerate(row[i:], i):
                if (b := self.entries[j][i]).den != a.den or [(e, -c) for e, c in b.nums] != list(a.nums):
                    raise PreconditionError(f"entries ({i},{j}) and ({j},{i}) are not antisymmetric")

    def _check_grid(self) -> None:
        n = len(self.variables)
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise SpaceMismatchError("entry grid shape does not match the variable count")
        if any(p.variables != self.variables for row in self.entries for p in row):
            raise SpaceMismatchError("entry polynomial has the wrong variable context")

    @classmethod
    def from_upper(cls: type[_Field], variables: Sequence[str], upper: Mapping[tuple[int, int], Poly | str]) -> _Field:
        """Build from entries above the diagonal (0-based indices i < j); strings are parsed.
        The grid is antisymmetric as built, so only its shape and variable context are checked."""
        variables = tuple(variables)
        n = len(variables)
        grid = [[Poly.zero(variables)] * n for _ in range(n)]
        for (i, j), poly in upper.items():
            if not 0 <= i < j < n:
                raise ValueError(f"upper-triangular index out of range: {(i, j)}")
            if isinstance(poly, str):
                poly = Poly.parse(poly, variables)
            grid[i][j] = poly
            grid[j][i] = -poly
        built = object.__new__(cls)
        built.__dict__.update(variables=variables, entries=tuple(map(tuple, grid)))
        built._check_grid()
        return built

    @property
    def dim(self) -> int:
        return len(self.variables)

    @cached_property
    def _upper(self) -> dict[tuple[int, int], Poly]:
        """The nonzero entries above the diagonal, by row, found once per field."""
        n, e = self.dim, self.entries
        return {(i, j): e[i][j] for i in range(n) for j in range(i + 1, n) if e[i][j].nums}

    def upper_entries(self) -> dict[tuple[int, int], Poly]:
        return dict(self._upper)

    def matrix_at(self, point: Sequence[Fraction]) -> MatrixQ:
        """The nonzero upper entries as one `integer_rows_at` row, written at (i, j) and negated at (j, i)."""
        n = self.dim
        if len(point) != n:
            raise SpaceMismatchError(f"point length {len(point)} != variable count {n}")
        ((values, den),) = integer_rows_at((tuple(self._upper.values()),), point)
        ints = [[0] * n for _ in range(n)]
        for (i, j), v in zip(self._upper, values):
            ints[i][j], ints[j][i] = v, -v
        return MatrixQ._of(n, ints, den)

    def is_zero(self) -> bool:
        return not self._upper


class BivectorField(AntisymmetricField):
    """Polynomial bivector field Pi = sum_{i<j} Pi^ij d/dx_i ^ d/dx_j."""

    def at(self, point: Sequence[Fraction]) -> PoissonVS:
        return PoissonVS._of(self.dim, self.matrix_at(point))


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

    J^{ijk} = sum_l (Pi^{il} d_l Pi^{jk} + Pi^{jl} d_l Pi^{ki} + Pi^{kl} d_l Pi^{ij})
            = {x_i, Pi^{jk}} + {x_j, Pi^{ki}} + {x_k, Pi^{ij}}.
    """
    return _jacobi_rows(pi, list(combinations(range(pi.dim), 3)))


def _jacobi_rows(pi: BivectorField, components: list[tuple[int, int, int]]) -> dict[tuple[int, int, int], Poly]:
    """The Jacobiator at the sorted index triples `components`, by rows: for each term c_m x^m
    of an upper entry Pi^{bc}, row a adds c_m {x_a, x^m} = c_m sum_l m_l x^(m - u_l) Pi^{al} into
    component sorted(a, b, c), negated when b < a < c.  A monomial that one component reads in
    row a is multiplied straight into its accumulator; one that several read is bracketed once
    and added, scaled, into each.  A component's denominator is fixed before the loop, and it is
    built, and its accumulator dropped, once its largest index is done.

    Each upper entry's exponent vectors are packed into ints once per call, variable 0 in the
    highest slot and every slot (2 top).bit_length() bits wide, top the largest total degree of
    any entry.  A bracket exponent (m - u_l) + e is at most 2 top - 1 in each slot, so it never
    carries into the next one: x^(m - u_l) is the key m - (1 << shift_l), and its product with
    x^e one int add.  A lower entry reads its upper one, negated.  Nonzero results are unpacked
    through one memo per call, so components share exponent tuples."""
    n, e, variables = pi.dim, pi.entries, pi.variables
    cap = polynomials.MAX_PRODUCT_TERMS
    top = max((sum(p.nums[0][0]) for row in e for p in row if p.nums), default=0)  # grlex: first term is of top degree
    width = (2 * top + 1).bit_length()
    mask, shift = (1 << width) - 1, [width * (n - 1 - l) for l in range(n)]
    packed = [[None] * n for _ in range(n)]  # (packed exponent, int) pairs of Pi^{bc}, filed at (b, c) and (c, b)
    for b, c in combinations(range(n), 2):
        packed[b][c] = packed[c][b] = [(sum(x << s for x, s in zip(m, shift)), v) for m, v in e[b][c].nums]
    row_den = [lcm(*(p.den for p in row)) for row in e]
    reads = {a: [] for a in range(n)}  # row a -> (packed Pi^{bc}, accumulator, scale) of each component reading it
    finished = {a: [] for a in range(n)}  # row a -> (component, accumulator, denominator) whose largest index is a
    done = dict.fromkeys(components)
    for i, j, k in components:
        entries = [(a, b, c, sign) for a, b, c, sign in ((i, j, k, 1), (j, i, k, -1), (k, i, j, 1)) if e[b][c].nums]
        den, acc = lcm(*(e[b][c].den * row_den[a] for a, b, c, _ in entries)), {}
        for a, b, c, sign in entries:
            reads[a].append((packed[b][c], acc, sign * (den // (e[b][c].den * row_den[a]))))
        finished[k].append(((i, j, k), acc, den))
    support: dict[int, list] = {}  # x^m -> (m - u_l, l, m_l) for each m_l > 0
    unpacked: dict[int, tuple[int, ...]] = {}  # packed key -> its exponent tuple
    for a in range(n):
        row = [(packed[a][l], row_den[a] // p.den if a < l else -(row_den[a] // p.den)) for l, p in enumerate(e[a])]
        readers: dict[int, list] = {}  # x^m -> (accumulator, coefficient) of each reader in row a
        for nums, acc, scale in reads.pop(a):
            for m, c in nums:
                readers.setdefault(m, []).append((acc, c * scale))
        for m, users in readers.items():
            if (lowered := support.get(m)) is None:
                lowered = support[m] = [(m - (1 << s), l, power) for l, s in enumerate(shift) if (power := (m >> s) & mask)]
            target, c = users[0] if len(users) == 1 else ({}, 1)
            get = target.get
            for low, l, power in lowered:
                nums, f = row[l]
                if nums:
                    f *= c * power
                    for x, v in nums:
                        x += low
                        target[x] = get(x, 0) + f * v
                    if len(target) > cap:  # tested after each row entry, as in _accumulate
                        _check_term_cap(target)
            if len(users) > 1:
                for acc, c in users:
                    get = acc.get
                    for x, v in target.items():
                        acc[x] = get(x, 0) + c * v
                    if len(acc) > cap:  # tested here first, as in _accumulate
                        _check_term_cap(acc)
        for ijk, acc, den in finished.pop(a):
            done[ijk] = _ordered(variables, [
                (unpacked.get(x) or unpacked.setdefault(x, tuple((x >> s) & mask for s in shift)), v) for x, v in acc.items() if v
            ], den)
    return done


def is_poisson(pi: BivectorField) -> bool:
    return all(p.is_zero() for p in jacobiator(pi).values())


def nonzero_jacobiator_components(pi: BivectorField) -> dict[tuple[int, int, int], Poly]:
    return {ijk: p for ijk, p in jacobiator(pi).items() if not p.is_zero()}


def pushforward(pi: BivectorField, phi: PolyMap, phi_inv: PolyMap) -> BivectorField:
    """Push pi forward along a polynomial diffeomorphism with known inverse.

    (phi_* pi)^{ab} = (sum_j (sum_i d_i phi^a pi^{ij}) d_j phi^b) composed
    with phi^{-1}.  Both composition identities are verified symbolically
    before any transport happens, and the nonzero upper entries are composed
    with phi^{-1} in one `compose_map` call, which builds each power of
    phi^{-1}'s components once for all of them.
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
                upper[(a, b)] = entry
    pushed = compose_map(PolyMap(pi.variables, tuple(upper.values())), phi_inv)
    return BivectorField.from_upper(phi_inv.source_vars, dict(zip(upper, pushed.components)))


def exterior_derivative(b: TwoFormField) -> dict[tuple[int, int, int], Poly]:
    """(dB)_{ijk} = d_i B_{jk} - d_j B_{ik} + d_k B_{ij}, indexed i < j < k."""
    v, e = b.variables, b.entries
    return {
        (i, j, k): e[j][k].partial(v[i]) - e[i][k].partial(v[j]) + e[i][j].partial(v[k])
        for i, j, k in combinations(range(b.dim), 3)
    }


def is_closed(b: TwoFormField) -> bool:
    return all(p.is_zero() for p in exterior_derivative(b).values())
