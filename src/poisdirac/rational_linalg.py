"""Exact linear algebra over the rationals.

Matrices with Fraction entries, reduced row echelon form, and a
subspace calculus (sum, intersection, annihilator, preimage) on
canonically represented subspaces of Q^n.  Every value is immutable
and every operation is a pure function, so results can be compared
bit-for-bit and shared freely.

All elimination goes through rref, which runs on primitive integer
rows and makes Fractions only for its result.

Subspaces carry a primal/dual tag: annihilators land in the dual
space and mixing the two ambients raises, which catches the classic
"applied sharp in the wrong direction" mistake early.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import SpaceMismatchError

Vector = tuple[Fraction, ...]

# p or p/q with q nonzero: no decimals, exponents, underscores or whitespace
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ValueError(f"not a rational 'p/q' string with a nonzero denominator: {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational (floats are not accepted)")


def vec(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple(rat(v) for v in values)


def fmt_point(point: Sequence[Fraction]) -> str:
    """A point as '(p/q, ...)': the one format for points in reports and diagnostics."""
    return "(" + ", ".join(str(x) for x in point) + ")"


def standard_basis(n: int) -> tuple[Vector, ...]:
    """The unit vectors e_1, ..., e_n of Q^n (the rows of the identity)."""
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class MatrixQ:
    """Dense matrix over Q, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int | str | Fraction]], cols: int | None = None) -> MatrixQ:
        data = tuple(vec(r) for r in rows)
        if data:
            width = len(data[0])
        elif cols is not None:
            width = cols
        else:
            raise ValueError("cannot infer column count of an empty matrix")
        return MatrixQ(len(data), width, data)

    @staticmethod
    def zeros(rows: int, cols: int) -> MatrixQ:
        zero = Fraction(0)
        return MatrixQ(rows, cols, tuple((zero,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> MatrixQ:
        return MatrixQ(n, n, standard_basis(n))

    def _check_shape(self, other: MatrixQ) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise SpaceMismatchError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        i, j = idx
        return self.entries[i][j]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> MatrixQ:
        return MatrixQ(self.cols, self.rows, tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def __add__(self, other: MatrixQ) -> MatrixQ:
        self._check_shape(other)
        return MatrixQ(self.rows, self.cols, tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: MatrixQ) -> MatrixQ:
        self._check_shape(other)
        return MatrixQ(self.rows, self.cols, tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> MatrixQ:
        return MatrixQ(self.rows, self.cols, tuple(tuple(-a for a in r) for r in self.entries))

    def scale(self, c: int | str | Fraction) -> MatrixQ:
        c = rat(c)
        return MatrixQ(self.rows, self.cols, tuple(tuple(c * a for a in r) for r in self.entries))

    def __matmul__(self, other: MatrixQ) -> MatrixQ:
        if self.cols != other.rows:
            raise SpaceMismatchError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = other.transpose().entries
        return MatrixQ(self.rows, other.cols, tuple(tuple(sum(a * b for a, b in zip(r, c)) for c in cols) for r in self.entries))

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise SpaceMismatchError(f"matrix has {self.cols} columns, vector has length {len(v)}")
        return tuple(sum(a * b for a, b in zip(r, v)) for r in self.entries)

    def is_antisymmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == -self.entries[j][i] for i in range(self.rows) for j in range(i, self.cols)
        )

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row scaled by the lcm of its denominators, then divided by the
    gcd of the resulting integers: a primitive integer row on the same line."""
    ratios = [a.as_integer_ratio() for a in row]
    scale = lcm(*(d for _, d in ratios))
    ints = [n * (scale // d) for n, d in ratios]
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


def rref(m: MatrixQ) -> tuple[MatrixQ, int]:
    """Reduced row echelon form and rank.  Deterministic, exact.

    Gauss-Jordan elimination on primitive integer rows (fraction-free, in
    the spirit of Bareiss 1968): row_r <- (p/g) row_r - (f/g) row_p with
    g = gcd(p, f), then row_r is divided by the gcd of its entries.  Only
    the final division of each pivot row by its pivot makes Fractions.
    The reduced form is unique, so the result equals Fraction elimination.
    """
    work = [_integer_row(r) for r in m.entries]
    n_rows, n_cols = m.rows, m.cols
    pivots: list[int] = []
    for col in range(n_cols):
        if len(pivots) == n_rows:
            break
        top = len(pivots)
        sel = next((r for r in range(top, n_rows) if work[r][col]), None)
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        prow = work[top]
        p = prow[col]
        for r in range(n_rows):
            row = work[r]
            f = row[col]
            if f and r != top:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                row = [pg * a - fg * b for a, b in zip(row, prow)]
                g = gcd(*row)
                work[r] = [a // g for a in row] if g > 1 else row
        pivots.append(col)
    # zeros and the pivot itself skip Fraction's gcd normalisation
    zero, one = Fraction(0), Fraction(1)
    out = [tuple(zero if a == 0 else one if a == row[c] else Fraction(a, row[c]) for a in row)
           for row, c in zip(work, pivots)]
    out.extend((zero,) * n_cols for _ in range(n_rows - len(pivots)))
    return MatrixQ(n_rows, n_cols, tuple(out)), len(pivots)


def rank(m: MatrixQ) -> int:
    return rref(m)[1]


def pivot_columns(reduced: MatrixQ, rk: int) -> tuple[int, ...]:
    """Pivot columns of a matrix already in reduced row echelon form."""
    pivots = []
    for r in range(rk):
        lead = next(c for c in range(reduced.cols) if reduced.entries[r][c] != 0)
        pivots.append(lead)
    return tuple(pivots)


def kernel(m: MatrixQ) -> "Subspace":
    """Null space {v : m v = 0}, in canonical form."""
    reduced, rk = rref(m)
    pivots = pivot_columns(reduced, rk)
    free_cols = [c for c in range(m.cols) if c not in pivots]
    basis_rows = []
    for free in free_cols:
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for r, piv in enumerate(pivots):
            v[piv] = -reduced.entries[r][free]
        basis_rows.append(tuple(v))
    return Subspace.span(m.cols, basis_rows)


def solve(m: MatrixQ, b: Sequence[Fraction]) -> Vector | None:
    """One particular solution of m x = b, or None if inconsistent."""
    if len(b) != m.rows:
        raise SpaceMismatchError("right-hand side length does not match row count")
    aug = MatrixQ(m.rows, m.cols + 1, tuple(r + (bb,) for r, bb in zip(m.entries, b)))
    reduced, rk = rref(aug)
    pivots = pivot_columns(reduced, rk)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, piv in enumerate(pivots):
        x[piv] = reduced.entries[r][m.cols]
    return tuple(x)


def inverse(m: MatrixQ) -> MatrixQ:
    if m.rows != m.cols:
        raise SpaceMismatchError("only square matrices can be inverted")
    aug = MatrixQ(m.rows, 2 * m.cols, tuple(r + e for r, e in zip(m.entries, standard_basis(m.cols))))
    reduced, rk = rref(aug)
    if rk < m.rows or pivot_columns(reduced, rk) != tuple(range(m.rows)):
        raise ValueError("matrix is singular")
    return MatrixQ(m.rows, m.cols, tuple(r[m.cols:] for r in reduced.entries))


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n in canonical form.

    The basis matrix is in reduced row echelon form with no zero rows,
    so two equal subspaces have bit-identical representations.  `dual`
    tags subspaces of the dual space (Q^n)*; operations refuse to mix
    primal and dual ambients.
    """

    ambient_dim: int
    basis: MatrixQ
    dual: bool = False

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient_dim:
            raise SpaceMismatchError("basis width does not match ambient dimension")

    @staticmethod
    def span(ambient_dim: int, rows: Sequence[Sequence[int | str | Fraction]], dual: bool = False) -> Subspace:
        m = MatrixQ.from_rows(rows, cols=ambient_dim)
        reduced, rk = rref(m)
        return Subspace(ambient_dim, MatrixQ(rk, ambient_dim, reduced.entries[:rk]), dual)

    @staticmethod
    def zero(ambient_dim: int, dual: bool = False) -> Subspace:
        return Subspace(ambient_dim, MatrixQ(0, ambient_dim, ()), dual)

    @staticmethod
    def full(ambient_dim: int, dual: bool = False) -> Subspace:
        return Subspace(ambient_dim, MatrixQ.identity(ambient_dim), dual)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise SpaceMismatchError("vector length does not match ambient dimension")
        stacked = Subspace.span(self.ambient_dim, self.basis.entries + (tuple(v),), self.dual)
        return stacked.dim == self.dim

    def coordinates_of(self, v: Sequence[Fraction]) -> Vector | None:
        """Coordinates of v in the canonical basis, or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise SpaceMismatchError("vector length does not match ambient dimension")
        if self.dim == 0:
            return () if all(a == 0 for a in v) else None
        sol = solve(self.basis.transpose(), tuple(v))
        if sol is None or self.basis.transpose().matvec(sol) != tuple(v):
            return None
        return sol


def _require_same_space(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise SpaceMismatchError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    if a.dual != b.dual:
        raise SpaceMismatchError("cannot mix primal and dual subspaces")


def add(a: Subspace, b: Subspace) -> Subspace:
    """Subspace sum a + b."""
    _require_same_space(a, b)
    return Subspace.span(a.ambient_dim, a.basis.entries + b.basis.entries, a.dual)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    _require_same_space(a, b)
    return annihilator(add(annihilator(a), annihilator(b)))


def annihilator(s: Subspace) -> Subspace:
    """{xi : xi(v) = 0 for all v in s}, living in the opposite ambient."""
    if s.dim == 0:
        return Subspace.full(s.ambient_dim, not s.dual)
    ker = kernel(s.basis)
    return Subspace(s.ambient_dim, ker.basis, not s.dual)


def image(m: MatrixQ, s: Subspace, dual: bool = False) -> Subspace:
    """Image m(s); `dual` tags the target space of the map."""
    if m.cols != s.ambient_dim:
        raise SpaceMismatchError("map source does not match subspace ambient")
    rows = tuple(m.matvec(r) for r in s.basis.entries)
    return Subspace.span(m.rows, rows, dual)


def preimage(m: MatrixQ, s: Subspace, source_dual: bool = False) -> Subspace:
    """{v : m v in s}; `source_dual` tags the source space of the map."""
    if m.rows != s.ambient_dim:
        raise SpaceMismatchError("map target does not match subspace ambient")
    constraints = annihilator(s).basis
    if constraints.rows == 0:
        return Subspace.full(m.cols, source_dual)
    ker = kernel(constraints @ m)
    return Subspace(m.cols, ker.basis, source_dual)


def contains(a: Subspace, b: Subspace) -> bool:
    """Whether b is contained in a."""
    _require_same_space(a, b)
    return add(a, b).dim == a.dim


def column_space(m: MatrixQ, dual: bool = False) -> Subspace:
    return Subspace.span(m.rows, m.transpose().entries, dual)
