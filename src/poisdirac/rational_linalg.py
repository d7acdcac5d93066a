"""Exact linear algebra over the rationals.

Matrices with Fraction entries, reduced row echelon form, and a
subspace calculus (sum, intersection, annihilator, image) on
canonically represented subspaces of Q^n.  Every value is immutable
and every operation is a pure function, so results can be compared
bit-for-bit and shared freely.

All elimination is one fraction-free Gauss-Jordan loop on primitive
integer rows.  A Subspace stores its reduced rows as integers; Fractions
are made only where a caller reads them (`rref`, `solve`, `Subspace.basis`),
integer rows enter through `_reduced` without one, and matrix products and
`linear_combination`s cost one gcd per entry.  `solve` takes every right-hand
side of a coefficient matrix at once and runs one elimination for all of them;
`inverse` is its identity case.

Subspaces carry a primal/dual tag: annihilators land in the dual
space and mixing the two ambients raises, which catches the classic
"applied sharp in the wrong direction" mistake early.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import SpaceMismatchError

Vector = tuple[Fraction, ...]

# p or p/q with q nonzero: no decimals, exponents, underscores or whitespace
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")

# Most digits of an input numerator or denominator: exact results grow with
# the input, and Python prints no int of more than 4,300 digits.
MAX_DIGITS = 1000

ZERO, ONE = Fraction(0), Fraction(1)
_UNIT_BASES: dict[int, tuple[Vector, ...]] = {}  # standard_basis(n) by n


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ValueError(f"not a rational 'p/q' string with a nonzero denominator: {value!r}")
        check_digits(value)
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational (floats are not accepted)")


def check_digits(text: str) -> None:
    """Refuse a 'p/q' string with more than MAX_DIGITS digits in p or q."""
    if len(text) > MAX_DIGITS and any(len(part.lstrip("+-")) > MAX_DIGITS for part in text.split("/")):
        raise ValueError(f"rational has a numerator or denominator of more than {MAX_DIGITS} digits")


def vec(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple(rat(v) for v in values)


def fmt_point(point: Sequence[Fraction]) -> str:
    """A point as '(p/q, ...)': the one format for points in reports and diagnostics."""
    return "(" + ", ".join(str(x) for x in point) + ")"


def standard_basis(n: int) -> tuple[Vector, ...]:
    """The unit vectors e_1, ..., e_n of Q^n (the rows of the identity), built once per n."""
    if n not in _UNIT_BASES:
        _UNIT_BASES[n] = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
    return _UNIT_BASES[n]


def _scaled_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, d) with row = ints / d and d the lcm of the denominators.  A float,
    which as_integer_ratio would read as a binary fraction, raises rat's TypeError."""
    ratios = [rat(a) if isinstance(a, float) else a.as_integer_ratio() for a in row]
    d = lcm(*(q for _, q in ratios))
    return [p * (d // q) for p, q in ratios], d


def primitive(ints: Sequence[int]) -> Sequence[int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


@dataclass(frozen=True)
class MatrixQ:
    """Dense matrix over Q, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    @cached_property
    def _scaled(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(ints, d) with entries = ints / d, d the lcm of all denominators."""
        flat, d = _scaled_row([a for r in self.entries for a in r])
        c = self.cols
        return tuple(tuple(flat[i * c:(i + 1) * c]) for i in range(self.rows)), d

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
        return MatrixQ(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

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
        return linear_combination((1, self), (1, other))

    def __sub__(self, other: MatrixQ) -> MatrixQ:
        return linear_combination((1, self), (-1, other))

    def __neg__(self) -> MatrixQ:
        return MatrixQ(self.rows, self.cols, tuple(tuple(-a for a in r) for r in self.entries))

    def scale(self, c: int | str | Fraction) -> MatrixQ:
        return linear_combination((rat(c), self))

    def __matmul__(self, other: MatrixQ) -> MatrixQ:
        if self.cols != other.rows:
            raise SpaceMismatchError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        (rows, d), (ints, e) = self._scaled, other._scaled
        cols = list(zip(*ints)) or [()] * other.cols
        return MatrixQ(self.rows, other.cols, tuple(
            tuple(Fraction(s, d * e) if (s := sum(map(mul, r, c))) else ZERO for c in cols) for r in rows
        ))

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise SpaceMismatchError(f"matrix has {self.cols} columns, vector has length {len(v)}")
        (rows, d), (ints, e) = self._scaled, _scaled_row(v)
        return tuple(Fraction(s, d * e) if (s := sum(map(mul, r, ints))) else ZERO for r in rows)

    def is_antisymmetric(self) -> bool:
        ints = self._scaled[0]  # entries = ints / d with one d
        return self.rows == self.cols and all(a == -b for r, c in zip(ints, zip(*ints)) for a, b in zip(r, c))

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)


def linear_combination(*terms: tuple[int | Fraction, MatrixQ]) -> MatrixQ:
    """The sum of c M over the terms (c, M), on the integer views: one Fraction
    per entry, over L the lcm of the denominators of the scaled terms."""
    first = terms[0][1]
    for _, m in terms[1:]:
        first._check_shape(m)
    views = [(c.numerator, c.denominator * m._scaled[1], m._scaled[0]) for c, m in terms]
    big = lcm(*(d for _, d, _ in views))
    weights = [k * (big // d) for k, d, _ in views]
    return MatrixQ(first.rows, first.cols, tuple(
        tuple(Fraction(s, big) if (s := sum(map(mul, weights, column))) else ZERO for column in zip(*rows))
        for rows in zip(*(ints for _, _, ints in views))
    ))


def _eliminate(work: list, n_cols: int) -> list[int]:
    """Gauss-Jordan elimination in place on integer rows; returns the pivot
    columns.  Fraction-free, in the spirit of Bareiss 1968: row_r <- (p/g)
    row_r - (f/g) row_p with g = gcd(p, f), then divided by its gcd.  The
    first len(pivots) rows end reduced with a positive pivot, the others
    zero; for primitive input rows they end primitive, so each is the
    unique reduced echelon row times its pivot.
    """
    n_rows = len(work)
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
                work[r] = primitive([pg * a - fg * b for a, b in zip(row, prow)])
        pivots.append(col)
    for r, c in enumerate(pivots):
        if work[r][c] < 0:
            work[r] = [-a for a in work[r]]
    return pivots


def rref(m: MatrixQ) -> tuple[MatrixQ, int]:
    """Reduced row echelon form and rank.  Deterministic, exact: the basis of
    the row space, padded with zero rows."""
    s = _row_space(m.cols, m.entries)
    return MatrixQ(m.rows, m.cols, s.basis.entries + ((ZERO,) * m.cols,) * (m.rows - s.dim)), s.dim


def rank(m: MatrixQ) -> int:
    return _row_space(m.cols, m.entries).dim


def _pivots(rows: Sequence[Sequence]) -> list[int]:
    """Column of the first nonzero entry of each row."""
    return [list(map(bool, r)).index(True) for r in rows]


def kernel(m: MatrixQ) -> Subspace:
    """Null space {v : m v = 0}, in canonical form."""
    return annihilator(_row_space(m.cols, m.entries, dual=True))


def solve(m: MatrixQ, bs: Sequence[Sequence[Fraction]]) -> tuple[Vector | None, ...]:
    """For each right-hand side b, the solution of m x = b with every free
    variable 0, or None where it is inconsistent.  One elimination of
    [m | b_1 ... b_k] with pivots only in m's columns: then a pivot row reads
    p x_c = b'_r, and a nonzero b' in a row below the rank is a contradiction."""
    if any(len(b) != m.rows for b in bs):
        raise SpaceMismatchError("right-hand side length does not match row count")
    n = m.cols
    work = [primitive(_scaled_row(r + b)[0]) for r, b in zip(m.entries, list(zip(*bs)) or [()] * m.rows)]
    pivots = _eliminate(work, n)
    row_at, below = dict(zip(pivots, work)), work[len(pivots):]
    return tuple(
        None if any(row[j] for row in below)
        else tuple(Fraction(row_at[c][j], row_at[c][c]) if c in row_at else ZERO for c in range(n))
        for j in range(n, n + len(bs))
    )


def inverse(m: MatrixQ) -> MatrixQ:
    """m^-1: its columns solve m x = e_j, the identity case of `solve`."""
    if m.rows != m.cols:
        raise SpaceMismatchError("only square matrices can be inverted")
    columns = solve(m, standard_basis(m.rows))
    if None in columns:
        raise ValueError("matrix is singular")
    return MatrixQ(m.rows, m.cols, columns).transpose()


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n in canonical form.

    `rows` are the reduced row echelon basis rows, each scaled to a
    primitive integer row with a positive pivot.  That form is unique, so
    two equal subspaces have identical representations.  `basis` is the
    Fraction form (pivots 1), built once per object on first read.  `dual`
    tags subspaces of the dual space (Q^n)*; operations refuse to mix
    primal and dual ambients.
    """

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]
    dual: bool = False

    def __post_init__(self) -> None:
        if any(len(r) != self.ambient_dim for r in self.rows):
            raise SpaceMismatchError("basis width does not match ambient dimension")

    @cached_property
    def basis(self) -> MatrixQ:
        # each row divided by its pivot p; zeros and p itself skip Fraction's gcd
        pivots = [r[c] for r, c in zip(self.rows, _pivots(self.rows))]
        return MatrixQ(self.dim, self.ambient_dim, tuple(
            tuple(ZERO if a == 0 else ONE if a == p else Fraction(a, p) for a in r)
            for r, p in zip(self.rows, pivots)
        ))

    @cached_property
    def _annihilator(self) -> Subspace:
        """`annihilator(self)`.  With L the lcm of the pivot entries, each free column f
        gives xi[f] = L and xi[p_r] = -row_r[f] L / row_r[p_r].  Not cached on the
        result, which would make a reference cycle."""
        n, rows = self.ambient_dim, self.rows
        pivots = _pivots(rows)
        big = lcm(*(row[c] for row, c in zip(rows, pivots)))
        vectors = []
        for free in sorted(set(range(n)) - set(pivots)):
            xi = [0] * n
            xi[free] = big
            for row, c in zip(rows, pivots):
                xi[c] = -row[free] * (big // row[c])
            vectors.append(primitive(xi))
        return _reduced(n, vectors, not self.dual)

    @staticmethod
    def span(ambient_dim: int, rows: Sequence[Sequence[int | str | Fraction]], dual: bool = False) -> Subspace:
        m = MatrixQ.from_rows(rows, cols=ambient_dim)
        if m.cols != ambient_dim:
            raise ValueError("entry grid does not match declared shape")
        return _row_space(ambient_dim, m.entries, dual)

    @staticmethod
    def zero(ambient_dim: int, dual: bool = False) -> Subspace:
        return Subspace(ambient_dim, (), dual)

    @staticmethod
    def full(ambient_dim: int, dual: bool = False) -> Subspace:
        n = ambient_dim
        return Subspace(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), dual)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return self.coordinates_of(v) is not None

    def coordinates_of(self, v: Sequence[Fraction]) -> Vector | None:
        """Coordinates of v in the canonical basis (v's entries at the pivot
        columns, as the basis is reduced), or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise SpaceMismatchError("vector length does not match ambient dimension")
        # v is inside iff sum_r v[p_r] (L / row_r[p_r]) row_r == L v, L the lcm of the pivots
        pivots = _pivots(self.rows)
        big = lcm(*(r[c] for r, c in zip(self.rows, pivots)))
        ints = _scaled_row(v)[0]
        weights = [ints[c] * (big // r[c]) for r, c in zip(self.rows, pivots)]
        cols = list(zip(*self.rows)) or [()] * self.ambient_dim
        if [sum(map(mul, weights, col)) for col in cols] != [big * a for a in ints]:
            return None
        return tuple(rat(v[c]) for c in pivots)

    def coordinates_of_rows(self, vectors: Iterable[Sequence[Fraction]]) -> tuple[Vector, ...] | None:
        """The coordinates of each vector, or None if any is outside."""
        coords = tuple(map(self.coordinates_of, vectors))
        return None if None in coords else coords


def _reduced(n: int, work: list, dual: bool) -> Subspace:
    """The subspace spanned by primitive integer rows of width n."""
    rk = len(_eliminate(work, n))
    return Subspace(n, tuple(map(tuple, work[:rk])), dual)


def _row_space(n: int, rows: Iterable[Sequence[Fraction]], dual: bool = False) -> Subspace:
    """The span of rows of Fractions or ints, not re-validated (unlike `Subspace.span`):
    the one place Fraction rows become integer rows."""
    return _reduced(n, [primitive(_scaled_row(r)[0]) for r in rows], dual)


def _require_same_space(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise SpaceMismatchError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    if a.dual != b.dual:
        raise SpaceMismatchError("cannot mix primal and dual subspaces")


def add(a: Subspace, b: Subspace) -> Subspace:
    """Subspace sum a + b."""
    _require_same_space(a, b)
    return _reduced(a.ambient_dim, list(a.rows + b.rows), a.dual)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a intersected with b by the Zassenhaus sum-intersection algorithm
    (Cohen, GTM 138, 2.3): in the reduced form of [[A, A], [B, 0]] the rows
    whose pivot lies in the right half are (0, canonical rows of a & b)."""
    _require_same_space(a, b)
    n = a.ambient_dim
    work = [r + r for r in a.rows] + [r + (0,) * n for r in b.rows]
    pivots = _eliminate(work, 2 * n)
    return Subspace(n, tuple(tuple(row[n:]) for row, c in zip(work, pivots) if c >= n), a.dual)


def annihilator(s: Subspace) -> Subspace:
    """{xi : xi(v) = 0 for all v in s}, living in the opposite ambient; built once per subspace."""
    return s._annihilator


def image(m: MatrixQ, s: Subspace, dual: bool = False) -> Subspace:
    """Image m(s); `dual` tags the target space of the map."""
    if m.cols != s.ambient_dim:
        raise SpaceMismatchError("map source does not match subspace ambient")
    ints = m._scaled[0]
    return _reduced(m.rows, [primitive([sum(map(mul, r, b)) for r in ints]) for b in s.rows], dual)


def contains(a: Subspace, b: Subspace) -> bool:
    """Whether b is contained in a."""
    _require_same_space(a, b)
    return len(_eliminate(list(a.rows + b.rows), a.ambient_dim)) == a.dim


def column_space(m: MatrixQ, dual: bool = False) -> Subspace:
    return _row_space(m.rows, m.transpose().entries, dual)
