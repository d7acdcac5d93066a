"""Exact linear algebra over the rationals.

Exact matrices, reduced row echelon form, and a subspace calculus (sum,
intersection, annihilator, image) on canonically represented subspaces of
Q^n.  Every value is immutable and every operation is a pure function, so
results can be compared bit-for-bit and shared freely.

One integer form: a MatrixQ stores integer rows over one positive denominator,
reduced so that equal matrices have equal fields, and a Subspace its reduced
rows as primitive integer rows.  All elimination is one fraction-free
Gauss-Jordan loop, `_eliminate`: any integer rows in, primitive reduced rows
out, so no caller divides its rows first.  Beside it there is Bareiss's
fraction-free determinant (`_integer_det`), and products, sums, `solve` and
coordinates in a subspace go from integer rows to integer rows.  Fractions are made only
where a caller reads them (`entries`, `matvec`, indexing).  Caller numbers
become integers, and floats are refused, in one place, `_scaled_row`, which
runs only at the boundary: `MatrixQ(...)`, `from_rows`, `Subspace.span`, the
vector of `matvec`, and in `polynomials` the coefficients of `Poly.make` and
the point of `integer_rows_at`.  `solve` takes every right-hand side at once
in one elimination; `inverse` is its identity case.  Every intersection, in any
module, is one `_tail` of rows (A x | x), A an annihilator's rows.

Subspaces carry a primal/dual tag: annihilators land in the dual
space and mixing the two ambients raises, which catches the classic
"applied sharp in the wrong direction" mistake early.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
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

ZERO = Fraction(0)


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


def fmt_point(point: Sequence[Fraction]) -> str:
    """A point as '(p/q, ...)': the one format for points in reports and diagnostics."""
    return "(" + ", ".join(str(x) for x in point) + ")"


def _scaled_row(row: Sequence[int | str | Fraction]) -> tuple[list[int], int]:
    """(ints, d) with row = ints / d and d the lcm of the denominators: the one place
    where caller numbers become integers.  Anything but an int or a Fraction goes
    through `rat`, so a 'p/q' string is read and a float, which as_integer_ratio
    would read as a binary fraction, raises rat's TypeError."""
    ratios = [(a if isinstance(a, (int, Fraction)) else rat(a)).as_integer_ratio() for a in row]
    d = lcm(*(q for _, q in ratios))
    return [p * (d // q) for p, q in ratios], d


def primitive(ints: Sequence[int]) -> Sequence[int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


@dataclass(frozen=True, init=False)
class MatrixQ:
    """Dense matrix over Q, immutable: integer rows `ints` over one positive `den`,
    with no factor above 1 common to den and every entry, so equal matrices have
    equal fields.  `entries`, the Fraction view, is built on first read."""

    rows: int
    cols: int
    ints: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[Fraction]]) -> None:
        """The matrix of a grid of Fractions, ints or 'p/q' strings; a float raises rat's TypeError."""
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        flat, d = _scaled_row([a for r in entries for a in r])
        self._set(cols, [flat[i * cols:(i + 1) * cols] for i in range(rows)], d)

    def _set(self, cols: int, ints: Iterable[Sequence[int]], den: int) -> None:
        """Store ints / den in that normal form."""
        ints = tuple(map(tuple, ints))
        g = gcd(den, *chain.from_iterable(ints)) if den != 1 else 1
        if g > 1:
            ints, den = tuple(tuple(a // g for a in r) for r in ints), den // g
        self.__dict__.update(rows=len(ints), cols=cols, ints=ints, den=den)

    @staticmethod
    def _of(cols: int, ints: Iterable[Sequence[int]], den: int = 1) -> MatrixQ:
        """The matrix ints / den of integer rows of width cols, not re-validated."""
        m = object.__new__(MatrixQ)
        m._set(cols, ints, den)
        return m

    @staticmethod
    def _over(cols: int, scaled: Sequence[tuple[Sequence[int], int]]) -> MatrixQ:
        """The matrix of rows given as (integer numerators, denominator) pairs."""
        big = lcm(*(d for _, d in scaled))
        return MatrixQ._of(cols, ([a * (big // d) for a in r] for r, d in scaled), big)

    @cached_property
    def entries(self) -> tuple[Vector, ...]:
        d = self.den
        return tuple(tuple(Fraction(a, d) if a else ZERO for a in r) for r in self.ints)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int | str | Fraction]], cols: int | None = None) -> MatrixQ:
        if not rows and cols is None:
            raise ValueError("cannot infer column count of an empty matrix")
        return MatrixQ(len(rows), len(rows[0]) if rows else cols, rows)

    @staticmethod
    def zeros(rows: int, cols: int) -> MatrixQ:
        return MatrixQ._of(cols, ((0,) * cols,) * rows)

    @staticmethod
    @cache
    def identity(n: int) -> MatrixQ:
        """The n x n identity, built once per n."""
        return MatrixQ._of(n, (tuple(int(i == j) for j in range(n)) for i in range(n)))

    def _check_shape(self, other: MatrixQ) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise SpaceMismatchError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __getitem__(self, idx: tuple[int, int] | tuple[slice, slice]) -> Fraction | MatrixQ:
        """The entry m[i, j] as a Fraction, or for slices i and j the submatrix."""
        i, j = idx
        if isinstance(i, slice):
            return MatrixQ._of(len(range(self.cols)[j]), (r[j] for r in self.ints[i]), self.den)
        return self.entries[i][j]

    def transpose(self) -> MatrixQ:
        return MatrixQ._of(self.rows, tuple(zip(*self.ints)) or ((),) * self.cols, self.den)

    def __add__(self, other: MatrixQ) -> MatrixQ:
        return linear_combination((1, self), (1, other))

    def __sub__(self, other: MatrixQ) -> MatrixQ:
        return linear_combination((1, self), (-1, other))

    def __neg__(self) -> MatrixQ:
        return MatrixQ._of(self.cols, ([-a for a in r] for r in self.ints), self.den)

    def scale(self, c: int | str | Fraction) -> MatrixQ:
        return linear_combination((rat(c), self))

    def __matmul__(self, other: MatrixQ) -> MatrixQ:
        if self.cols != other.rows:
            raise SpaceMismatchError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = list(zip(*other.ints)) or [()] * other.cols
        return MatrixQ._of(other.cols, ([sum(map(mul, r, c)) for c in cols] for r in self.ints), self.den * other.den)

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise SpaceMismatchError(f"matrix has {self.cols} columns, vector has length {len(v)}")
        ints, e = _scaled_row(v)
        d = self.den * e
        return tuple(Fraction(s, d) if (s := sum(map(mul, r, ints))) else ZERO for r in self.ints)

    def is_antisymmetric(self) -> bool:
        ints = self.ints
        return self.rows == self.cols and all(a == -b for r, c in zip(ints, zip(*ints)) for a, b in zip(r, c))

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))


def linear_combination(*terms: tuple[int | Fraction, MatrixQ]) -> MatrixQ:
    """The sum of c M over the terms (c, M), on the integer rows over L, the lcm
    of the denominators of the scaled terms."""
    first = terms[0][1]
    for _, m in terms[1:]:
        first._check_shape(m)
    views = [(c.numerator, c.denominator * m.den, m.ints) for c, m in terms]
    big = lcm(*(d for _, d, _ in views))
    weights = [k * (big // d) for k, d, _ in views]
    return MatrixQ._of(first.cols, (
        [sum(map(mul, weights, column)) for column in zip(*rows)] for rows in zip(*(ints for _, _, ints in views))
    ), big)


def stack(*ms: MatrixQ) -> MatrixQ:
    """The rows of each matrix in turn, over the lcm of their denominators."""
    if len({m.cols for m in ms}) != 1:
        raise SpaceMismatchError("stacked matrices differ in column count")
    big = lcm(*(m.den for m in ms))
    return MatrixQ._of(ms[0].cols, (
        r if m.den == big else [a * (big // m.den) for a in r] for m in ms for r in m.ints
    ), big)


def _eliminate(work: list, n_cols: int) -> list[int]:
    """Gauss-Jordan elimination in place on integer rows; returns the pivot
    columns.  Fraction-free, in the spirit of Bareiss 1968: each pivot row is
    divided by its gcd when it is chosen, and row_r <- row_r - (f/p) row_p when
    p divides f, else (p/g) row_r - (f/g) row_p with g = gcd(p, f); an updated
    row is divided by its gcd only under a pivot wider than 64 bits, which keeps
    big entries from growing.  Any integer rows in, primitive reduced rows out:
    the first len(pivots) rows end primitive with a positive pivot, each the
    unique reduced echelon row times its pivot, and the others zero in the
    first n_cols columns.
    """
    n_rows = len(work)
    pivots: list[int] = []
    for col in range(n_cols):
        top = len(pivots)
        if top == n_rows:
            break
        for sel in range(top, n_rows):
            if work[sel][col]:
                break
        else:
            continue
        prow = primitive(work[sel])
        work[sel] = work[top]
        work[top] = prow
        p = prow[col]
        wide = p.bit_length() > 64
        for r, row in enumerate(work):
            f = row[col]
            if f and r != top:
                if f % p:
                    g = gcd(p, f)
                    pg, fg = p // g, f // g
                    row = [pg * a - fg * b for a, b in zip(row, prow)]
                else:
                    q = f // p
                    row = [a - q * b for a, b in zip(row, prow)]
                work[r] = primitive(row) if wide else row
        pivots.append(col)
    for r, c in enumerate(pivots):
        row = work[r]
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        if g != 1:
            work[r] = [a // g for a in row]
    return pivots


def _integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free elimination:
    after step k every entry is a (k+1) x (k+1) minor, so each division is exact."""
    work, sign, prev = [list(r) for r in rows], 1, 1
    for k in range(len(work) - 1):
        sel = next((r for r in range(k, len(work)) if work[r][k]), None)
        if sel is None:
            return 0
        if sel != k:
            work[k], work[sel], sign = work[sel], work[k], -sign
        prow, p = work[k], work[k][k]
        for row in work[k + 1:]:
            f = row[k]
            row[k + 1:] = [(a * p - f * b) // prev for a, b in zip(row[k + 1:], prow[k + 1:])]
        prev = p
    return sign * work[-1][-1] if work else 1


def _pivots(rows: Sequence[Sequence]) -> list[int]:
    """Column of the first nonzero entry of each row."""
    return [list(map(bool, r)).index(True) for r in rows]


def kernel(m: MatrixQ) -> Subspace:
    """Null space {v : m v = 0}, in canonical form.  It keeps m's row space as its
    cached annihilator, whose own annihilator is built uncached: no reference cycle."""
    rows = _row_space(m, dual=True)
    null = _uncached_annihilator(rows)
    null.__dict__["_annihilator"] = rows
    return null


def solve(m: MatrixQ, bs: MatrixQ) -> MatrixQ | None:
    """The matrix whose row j solves m x = b_j, b_j the row j of bs, with every free
    variable 0; None if any of these systems is inconsistent.  One elimination of the
    integer rows of [m | bs^T] with pivots only in m's columns: then a pivot row reads
    p x_c = b'_r, and a nonzero b' in a row below the rank is a contradiction."""
    if bs.cols != m.rows:
        raise SpaceMismatchError("right-hand side length does not match row count")
    n, g = m.cols, gcd(m.den, bs.den)
    d, e = m.den // g, bs.den // g  # row r of m x = b, times m.den bs.den / g
    work = [[a * e for a in r] + [b * d for b in col] for r, col in zip(m.ints, list(zip(*bs.ints)) or [()] * m.rows)]
    pivots = _eliminate(work, n)
    if any(any(row[n:]) for row in work[len(pivots):]):
        return None
    big = lcm(*(row[c] for row, c in zip(work, pivots)))
    xs = [[0] * n for _ in range(bs.rows)]
    for row, c in zip(work, pivots):
        f = big // row[c]
        for x, b in zip(xs, row[n:]):
            x[c] = b * f
    return MatrixQ._of(n, xs, big)


def inverse(m: MatrixQ) -> MatrixQ:
    """m^-1: its columns solve m x = e_j, the identity case of `solve`."""
    if m.rows != m.cols:
        raise SpaceMismatchError("only square matrices can be inverted")
    columns = solve(m, MatrixQ.identity(m.rows))
    if columns is None:
        raise ValueError("matrix is singular")
    return columns.transpose()


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n in canonical form.

    `rows` are the reduced row echelon basis rows, each scaled to a
    primitive integer row with a positive pivot.  That form is unique, so
    two equal subspaces have identical representations.  `basis` is the
    matrix of those rows with pivots 1, built once per object on first read.  `dual`
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
        """Each row divided by its pivot p, over L the lcm of the pivots."""
        pivots = [r[c] for r, c in zip(self.rows, _pivots(self.rows))]
        big = lcm(*pivots)
        return MatrixQ._of(self.ambient_dim, ([a * (big // p) for a in r] for r, p in zip(self.rows, pivots)), big)

    @cached_property
    def _annihilator(self) -> Subspace:
        """`annihilator(self)`, built once per object.  Not cached on the result,
        which would make a reference cycle."""
        return _uncached_annihilator(self)

    @staticmethod
    def span(ambient_dim: int, rows: Sequence[Sequence[int | str | Fraction]], dual: bool = False) -> Subspace:
        return _row_space(MatrixQ(len(rows), ambient_dim, rows), dual)

    @staticmethod
    def zero(ambient_dim: int, dual: bool = False) -> Subspace:
        return Subspace(ambient_dim, (), dual)

    @staticmethod
    def full(ambient_dim: int, dual: bool = False) -> Subspace:
        return Subspace(ambient_dim, MatrixQ.identity(ambient_dim).ints, dual)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def coordinates_of_rows(self, m: MatrixQ) -> MatrixQ | None:
        """The coordinates of each row of m in the canonical basis (its entries at the
        pivot columns, as the basis is reduced), or None if any row is outside."""
        if m.cols != self.ambient_dim:
            raise SpaceMismatchError("vector length does not match ambient dimension")
        # v is inside iff sum_r v[p_r] (L / row_r[p_r]) row_r == L v, L the lcm of the pivots
        pivots = _pivots(self.rows)
        big = lcm(*(r[c] for r, c in zip(self.rows, pivots)))
        factors = [big // r[c] for r, c in zip(self.rows, pivots)]
        cols = list(zip(*self.rows)) or [()] * self.ambient_dim
        for v in m.ints:
            weights = [v[c] * f for c, f in zip(pivots, factors)]
            if [sum(map(mul, weights, col)) for col in cols] != [big * a for a in v]:
                return None
        return MatrixQ._of(self.dim, ([v[c] for c in pivots] for v in m.ints), m.den)


def _uncached_annihilator(s: Subspace) -> Subspace:
    """The annihilator of s, uncached.  With L the lcm of the pivot entries, each free
    column f gives xi[f] = L and xi[p_r] = -row_r[f] L / row_r[p_r]."""
    n, rows = s.ambient_dim, s.rows
    pivots = _pivots(rows)
    big = lcm(*(row[c] for row, c in zip(rows, pivots)))
    vectors = []
    for free in sorted(set(range(n)) - set(pivots)):
        xi = [0] * n
        xi[free] = big
        for row, c in zip(rows, pivots):
            xi[c] = -row[free] * (big // row[c])
        vectors.append(xi)
    return _reduced(n, vectors, not s.dual)


def _reduced(n: int, work: list, dual: bool) -> Subspace:
    """The subspace spanned by a list of integer rows of width n, any integers."""
    rk = len(_eliminate(work, n))
    return Subspace(n, tuple(map(tuple, work[:rk])), dual)


def _row_space(m: MatrixQ, dual: bool = False) -> Subspace:
    """The span of the rows of m."""
    return _reduced(m.cols, list(m.ints), dual)


def _require_same_space(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise SpaceMismatchError(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    if a.dual != b.dual:
        raise SpaceMismatchError("cannot mix primal and dual subspaces")


def add(a: Subspace, b: Subspace) -> Subspace:
    """Subspace sum a + b."""
    _require_same_space(a, b)
    return _reduced(a.ambient_dim, list(a.rows + b.rows), a.dual)


def _tail(work: list, k: int, n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The rank of any integer rows of width k + n and, after their elimination, the rows with
    pivot >= k minus their first k entries: the canonical rows of the part where those k vanish."""
    pivots = _eliminate(work, k + n)
    return len(pivots), tuple(tuple(row[k:]) for row, c in zip(work, pivots) if c >= k)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """The x in a with A x = 0, A the rows of ann b (cached: pass as b the side whose
    annihilator exists): the `_tail` of a's rows x as (A x | x)."""
    _require_same_space(a, b)
    ann = b._annihilator.rows
    work = [[sum(map(mul, xi, x)) for xi in ann] + list(x) for x in a.rows]
    return Subspace(a.ambient_dim, _tail(work, len(ann), a.ambient_dim)[1], a.dual)


def annihilator(s: Subspace) -> Subspace:
    """{xi : xi(v) = 0 for all v in s}, living in the opposite ambient; built once per subspace."""
    return s._annihilator


def image(m: MatrixQ, s: Subspace, dual: bool = False) -> Subspace:
    """Image m(s); `dual` tags the target space of the map."""
    if m.cols != s.ambient_dim:
        raise SpaceMismatchError("map source does not match subspace ambient")
    return _reduced(m.rows, [[sum(map(mul, r, b)) for r in m.ints] for b in s.rows], dual)


def contains(a: Subspace, b: Subspace) -> bool:
    """Whether b is contained in a: b's rows tested against a's canonical rows, with no elimination."""
    _require_same_space(a, b)
    return a.coordinates_of_rows(MatrixQ._of(a.ambient_dim, b.rows)) is not None


def column_space(m: MatrixQ, dual: bool = False) -> Subspace:
    return _row_space(m.transpose(), dual)
