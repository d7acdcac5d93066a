"""Multivariate polynomial algebra over Q.

Polynomials are term maps from exponent vectors to nonzero Fraction
coefficients, over an explicit ordered variable context.  Arithmetic,
partial derivatives, evaluation at rational points, and composition
are all exact; printing and parsing use one fixed grammar:

    terms joined by '+' and '-', coefficients as integers or 'p/q',
    variables like x1, t2, p1, y3, exponents via '^', products via '*',
    e.g. "3/2*x1^2*x2 - x3"; a variable's exponent in one term is at
    most MAX_EXPONENT.

Terms are kept in graded-lexicographic order, so equal polynomials
print identically.

There is one product kernel, `sum_of_products`: every product of term
maps multiplies integer numerators over one common denominator into one
term map, and makes one Fraction per output term.  Arithmetic results are
well formed by construction and are built without re-validation; parsing
and the public constructors (`make`, `parse`, `constant`, `variable`)
keep every check.  Text and point values meet integers without a Fraction
per entry: `parse` sums coefficients on integers, and `integer_rows_at`, the
one point evaluator, gives each row of a grid as integers over one denominator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError, SpaceMismatchError
from .rational_linalg import MatrixQ, Vector, check_digits, rat

_VAR_RE = re.compile(r"[a-zA-Z]+[0-9]+")
_TOKEN_RE = re.compile(r"\s*([+-]|\*|\^|[a-zA-Z]+[0-9]+|[0-9]+(?:/[0-9]+)?)")

# Largest exponent of one variable in one parsed term.  Parsed text comes
# from outside the program and products and substitutions multiply
# degrees, so an unbounded '^' would be a resource bomb.  The bundled
# scenarios, the tests and the benchmark generators use at most 3.
MAX_EXPONENT = 32


def _ordered(variables: tuple[str, ...], terms: Iterable[tuple[tuple[int, ...], Fraction]]) -> Poly:
    """Poly of well-formed terms (nonzero Fractions), put in grlex order without re-validation."""
    return Poly(variables, tuple(sorted(terms, key=lambda t: (sum(t[0]), t[0]), reverse=True)))


@dataclass(frozen=True)
class Poly:
    """Polynomial over Q in an ordered tuple of named variables."""

    variables: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def make(variables: Sequence[str], terms: Mapping[tuple[int, ...], Fraction]) -> Poly:
        variables = tuple(variables)
        cleaned = {tuple(e): Fraction(c) for e, c in terms.items() if c != 0}
        for e in cleaned:
            if len(e) != len(variables) or any(k < 0 for k in e):
                raise ValueError(f"bad exponent vector {e} for variables {variables}")
        return _ordered(variables, cleaned.items())

    @staticmethod
    def zero(variables: Sequence[str]) -> Poly:
        return Poly.make(variables, {})

    @staticmethod
    def constant(variables: Sequence[str], c: int | str | Fraction) -> Poly:
        n = len(variables)
        return Poly.make(variables, {(0,) * n: rat(c)})

    @staticmethod
    def variable(variables: Sequence[str], name: str) -> Poly:
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r} (context: {variables})")
        e = tuple(1 if v == name else 0 for v in variables)
        return Poly.make(variables, {e: Fraction(1)})

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
        """(d, ((e, d * c), ...)) with d the lcm of the coefficient denominators."""
        d = lcm(*(c.denominator for _, c in self.terms))
        return d, tuple((e, c.numerator * (d // c.denominator)) for e, c in self.terms)

    def term_map(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e, _ in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[0][1] if self.terms else Fraction(0)

    def _check_context(self, other: Poly) -> None:
        if self.variables != other.variables:
            raise SpaceMismatchError(f"variable contexts differ: {self.variables} vs {other.variables}")

    def __add__(self, other: Poly) -> Poly:
        self._check_context(other)
        out = self.term_map()
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return _ordered(self.variables, ((e, c) for e, c in out.items() if c))

    def __neg__(self) -> Poly:
        return Poly(self.variables, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        self._check_context(other)
        return sum_of_products(self.variables, ((self, other),))

    def scale(self, c: int | str | Fraction) -> Poly:
        c = rat(c)
        return _ordered(self.variables, ((e, c * coeff) for e, coeff in self.terms if c))

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        return prod([self] * k, start=Poly.constant(self.variables, 1))

    def partial(self, var: str) -> Poly:
        """Partial derivative with respect to a named variable."""
        if var not in self.variables:
            raise ValueError(f"unknown variable {var!r} (context: {self.variables})")
        idx = self.variables.index(var)
        # distinct terms have distinct derivatives, so nothing accumulates
        return _ordered(self.variables, (
            (tuple(k - 1 if i == idx else k for i, k in enumerate(e)), c * e[idx]) for e, c in self.terms if e[idx]
        ))

    @cached_property
    def gradient(self) -> tuple[Poly, ...]:
        """The partial derivatives in the order of the variables, derived once per polynomial."""
        return tuple(self.partial(v) for v in self.variables)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """The value at a point: the 1 x 1 case of `values_at`."""
        return values_at(((self,),), point)[0][0]

    def substitute(self, values: Mapping[str, "Poly"]) -> Poly:
        """Replace every variable by a polynomial (all in one shared context)."""
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ValueError(f"no substitution given for {missing}")
        contexts = {p.variables for p in values.values()}
        if len(contexts) != 1:
            raise SpaceMismatchError("substitution polynomials must share one variable context")
        target_vars = next(iter(contexts))
        one, factors = Poly.constant(target_vars, 1), [values[v] for v in self.variables]
        return sum_of_products(target_vars, (
            (Poly.constant(target_vars, c), prod((f for f, k in zip(factors, e) for _ in range(k)), start=one))
            for e, c in self.terms
        ))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for n, (e, c) in enumerate(self.terms):
            factors = [
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e)
                if k
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if n == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(pieces)

    @staticmethod
    def parse(text: str, variables: Sequence[str]) -> Poly:
        """Parse the term grammar; rejects anything outside it.  One Fraction per monomial."""
        variables = tuple(variables)
        tokens = _tokenize(text)
        if not tokens:
            raise ValueError("empty polynomial string")
        out: dict[tuple[int, ...], tuple[int, int]] = {}
        pos = 0
        sign = 1
        if tokens[pos] in ("+", "-"):
            sign = -1 if tokens[pos] == "-" else 1
            pos += 1
        while True:
            num, den, e, pos = _parse_term(tokens, pos, variables)
            n, d = out.get(e, (0, 1))
            out[e] = (n * den + sign * num * d, d * den)
            if pos == len(tokens):
                break
            if tokens[pos] not in ("+", "-"):
                raise ValueError(f"expected '+' or '-' at token {pos} of {text!r}")
            sign = -1 if tokens[pos] == "-" else 1
            pos += 1
        return _ordered(variables, ((e, Fraction(n, d)) for e, (n, d) in out.items() if n))


def sum_of_products(variables: Sequence[str], pairs: Iterable[tuple[Poly, Poly]]) -> Poly:
    """Sum of a * b over the pairs, all in the context `variables`: the one routine that
    multiplies term maps.  Fraction-free: with a = A / da and b = B / db on integer
    numerators A, B, and L the lcm of da * db over the pairs, it accumulates the
    integers A * (L // (da * db)) * B into one map and divides by L once per term."""
    variables = tuple(variables)
    scaled = []
    for a, b in pairs:
        if not a.variables == b.variables == variables:
            raise SpaceMismatchError(f"product of {a.variables} and {b.variables} in the context {variables}")
        if a.terms and b.terms:
            scaled.append((a._scaled, b._scaled))
    big = lcm(*(da * db for (da, _), (db, _) in scaled))
    out: dict[tuple[int, ...], int] = {}
    for (da, ta), (db, tb) in scaled:
        factor = big // (da * db)
        for e1, n1 in ta:
            n1 *= factor
            for e2, n2 in tb:
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + n1 * n2
    return _ordered(variables, ((e, Fraction(n, big)) for e, n in out.items() if n))


def integer_rows_at(grid: Iterable[Sequence[Poly]], point: Sequence[Fraction]) -> list[tuple[list[int], int]]:
    """Every polynomial of a grid at one point, row by row, as (integer numerators, common
    denominator): the one point evaluator.  The point is coerced by `rat` and put over one
    common denominator once, x = P / q.  On the integer views (d_j, n_e) of a row of total
    degree at most D, entry j is (L // d_j) sum n_e P^e q^(D - |e|) over L q^D, L = lcm d_j."""
    ratios = [rat(x).as_integer_ratio() for x in point]
    q = lcm(*(b for _, b in ratios))
    nums = [a * (q // b) for a, b in ratios]
    out = []
    for row in grid:
        for poly in row:
            if len(poly.variables) != len(nums):
                raise SpaceMismatchError(f"point length {len(nums)} != variable count {len(poly.variables)}")
        views = [poly._scaled for poly in row]
        big = lcm(*(d for d, _ in views))
        top = max((sum(terms[0][0]) for _, terms in views if terms), default=0)
        out.append(([
            big // d * sum(n * q ** (top - sum(e)) * prod(map(pow, nums, e)) for e, n in terms)
            for d, terms in views
        ], big * q ** top))
    return out


def values_at(grid: Iterable[Sequence[Poly]], point: Sequence[Fraction]) -> tuple[Vector, ...]:
    """Every polynomial of a grid at one point: the rows of `integer_rows_at` divided out."""
    return tuple(tuple(Fraction(n, den) for n in ints) for ints, den in integer_rows_at(grid, point))


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot tokenize {text!r} at position {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _parse_term(tokens: list[str], pos: int, variables: tuple[str, ...]) -> tuple[int, int, tuple[int, ...], int]:
    """One term from tokens[pos]: (num, den, exponents, next position), the coefficient num / den."""
    num, den = 1, 1
    exps = [0] * len(variables)
    saw_factor = False
    while pos < len(tokens):
        tok = tokens[pos]
        if tok in ("+", "-"):
            break
        if tok == "*":
            if not saw_factor:
                raise ValueError("term cannot start with '*'")
            pos += 1
            continue
        if saw_factor and tokens[pos - 1] != "*":
            raise ValueError(f"missing '*' before {tok!r}")
        if _VAR_RE.fullmatch(tok):
            if tok not in variables:
                raise ValueError(f"unknown variable {tok!r} (context: {variables})")
            idx = variables.index(tok)
            power = 1
            if pos + 1 < len(tokens) and tokens[pos + 1] == "^":
                if pos + 2 >= len(tokens) or not tokens[pos + 2].isdigit():
                    raise ValueError("'^' must be followed by a nonnegative integer")
                power = int(tokens[pos + 2])
                pos += 2
            exps[idx] += power
            if exps[idx] > MAX_EXPONENT:
                raise ValueError(f"exponent {exps[idx]} of {tok} exceeds the maximum {MAX_EXPONENT}")
            pos += 1
        elif tok == "^":  # a '^' with no variable before it
            raise ValueError(f"Invalid literal for Fraction: {tok!r}")
        else:
            check_digits(tok)
            p, _, q = tok.partition("/")
            q = int(q or 1)
            if not q:
                raise ValueError(f"zero denominator in coefficient {tok!r}")
            num, den = num * int(p), den * q
            pos += 1
        saw_factor = True
    if not saw_factor:
        raise ValueError("empty term")
    return num, den, tuple(exps), pos


@dataclass(frozen=True)
class PolyMap:
    """Polynomial map Q^k -> Q^n: one component per target coordinate."""

    source_vars: tuple[str, ...]
    components: tuple[Poly, ...]

    def __post_init__(self) -> None:
        for comp in self.components:
            if comp.variables != self.source_vars:
                raise SpaceMismatchError("component variables do not match the source context")

    @staticmethod
    def parse(texts: Sequence[str], source_vars: Sequence[str]) -> PolyMap:
        source_vars = tuple(source_vars)
        return PolyMap(source_vars, tuple(Poly.parse(t, source_vars) for t in texts))

    @staticmethod
    def identity(variables: Sequence[str]) -> PolyMap:
        variables = tuple(variables)
        return PolyMap(variables, tuple(Poly.variable(variables, v) for v in variables))

    @property
    def source_dim(self) -> int:
        return len(self.source_vars)

    @property
    def target_dim(self) -> int:
        return len(self.components)

    def evaluate(self, point: Sequence[Fraction]) -> Vector:
        return values_at((self.components,), point)[0]

    def jacobian(self) -> tuple[tuple[Poly, ...], ...]:
        """Symbolic Jacobian: entry [i][j] = d components[i] / d source_vars[j]."""
        return tuple(comp.gradient for comp in self.components)

    def jacobian_at(self, point: Sequence[Fraction]) -> MatrixQ:
        return MatrixQ(self.target_dim, self.source_dim, values_at(self.jacobian(), point))

    def is_identity(self) -> bool:
        return self == PolyMap.identity(self.source_vars)


def compose(outer: Poly, inner: PolyMap) -> Poly:
    """Substitute inner's components for outer's variables."""
    if len(outer.variables) != inner.target_dim:
        raise SpaceMismatchError(
            f"outer has {len(outer.variables)} variables but inner targets dimension {inner.target_dim}"
        )
    values = dict(zip(outer.variables, inner.components))
    return outer.substitute(values)


def compose_map(outer: PolyMap, inner: PolyMap) -> PolyMap:
    if outer.source_dim != inner.target_dim:
        raise SpaceMismatchError("map composition arity mismatch")
    return PolyMap(inner.source_vars, tuple(compose(comp, inner) for comp in outer.components))


def ambient_variables(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def parameter_variables(k: int) -> tuple[str, ...]:
    return tuple(f"t{i + 1}" for i in range(k))


def fiber_variables(k: int) -> tuple[str, ...]:
    return tuple(f"p{i + 1}" for i in range(k))


# Determinants of minors, keyed by (row indices, column indices).
_MinorTable = dict[tuple[tuple[int, ...], tuple[int, ...]], Poly]


def _square_size(entries: Sequence[Sequence[Poly]]) -> int:
    size = len(entries)
    if size == 0:
        raise ValueError("empty matrix has no determinant")
    lengths = sorted({len(row) for row in entries})
    if lengths != [size]:
        raise SpaceMismatchError(f"matrix has {size} rows but row lengths {lengths}; it must be square")
    return size


def _minor_det(
    entries: Sequence[Sequence[Poly]],
    rows: tuple[int, ...],
    cols: tuple[int, ...],
    table: _MinorTable,
) -> Poly:
    """Determinant of the minor of `entries` on the given rows and columns.

    Laplace expansion along the minor's first row, skipping zero entries.
    Each distinct minor is expanded once per table: a determinant and all its cofactors
    touch at most n * 2^n minors instead of O(n!) expansions.
    """
    key = (rows, cols)
    det = table.get(key)
    if det is not None:
        return det
    variables = entries[0][0].variables
    if not rows:
        det = Poly.constant(variables, 1)
    elif len(rows) == 1:
        det = entries[rows[0]][cols[0]]
    else:
        first, rest = entries[rows[0]], rows[1:]
        det = sum_of_products(variables, (
            (-first[j] if k % 2 else first[j], _minor_det(entries, rest, cols[:k] + cols[k + 1:], table))
            for k, j in enumerate(cols) if not first[j].is_zero()
        ))
    table[key] = det
    return det


def poly_matrix_det(entries: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix.

    Memoized Laplace expansion: each distinct minor is computed once per
    call, which keeps sparse matrices cheap (zero entries are skipped).
    """
    size = _square_size(entries)
    full = tuple(range(size))
    return _minor_det(entries, full, full, {})


def poly_matrix_inverse(entries: Sequence[Sequence[Poly]]) -> tuple[tuple[Poly, ...], ...]:
    """Inverse of a polynomial matrix whose determinant is a nonzero constant.

    The determinant and the n^2 cofactors of the adjugate come from one
    memoized Laplace expansion, sharing their minors.  Rejects
    non-constant determinants: those inverses leave the polynomial ring,
    and this package never approximates.  The PreconditionError carries the
    determinant as `determinant`, so a caller can name it without a second expansion.
    """
    size = _square_size(entries)
    full = tuple(range(size))
    table: _MinorTable = {}
    det = _minor_det(entries, full, full, table)
    if not det.is_constant() or det.constant_value() == 0:
        error = PreconditionError(f"matrix determinant {det} is not a nonzero constant; inverse is not polynomial")
        error.determinant = det
        raise error
    inv_det = 1 / det.constant_value()
    adj = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            cof = _minor_det(entries, full[:i] + full[i + 1:], full[:j] + full[j + 1:], table)
            adj[j][i] = cof.scale(inv_det if (i + j) % 2 == 0 else -inv_det)
    return tuple(tuple(r) for r in adj)
