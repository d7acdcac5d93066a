"""Multivariate polynomial algebra over Q.

One number form, as for `MatrixQ`: a polynomial stores integer numerators,
(exponent vector, nonzero int) pairs over an explicit ordered variable context,
over one positive denominator, reduced so that equal polynomials have equal
fields.  Arithmetic, partial derivatives, evaluation at rational points, and
composition are all exact; printing and parsing use one fixed grammar:

    terms joined by '+' and '-', coefficients as integers or 'p/q',
    variables like x1, t2, p1, y3, exponents via '^', products via '*',
    e.g. "3/2*x1^2*x2 - x3"; a variable's exponent in one term is at
    most MAX_EXPONENT.

Terms are kept in graded-lexicographic order, so equal polynomials
print identically, and printing formats each coefficient from `nums` and
`den`.  `terms`, the Fraction view, is built only where it is read:
`constant_value` and outside readers.

Every operation goes from integers to integers: sums, differences, scaling,
partial derivatives, composition and parsing make no Fraction per term, and
there is one product kernel, `sum_of_products`, which multiplies numerators
over one common denominator and takes a sign per product, so no caller
negates a polynomial only to add it.  Its term-map loop, `_accumulate`, is
the one loop that multiplies tuple-keyed term maps; composition and the
Gauss-Jordan pivot call it too.  The Jacobiator packs each entry's exponent
vectors into ints once per call, in slots (2 top).bit_length() bits wide,
top the largest entry degree, so that no bracket exponent (at most
2 top - 1) carries, and unpacks its results through one memo per call
(`bivector_fields._jacobi_rows`); both loops test the one term cap.
`compose_map` is the one composition entry, for a map of one polynomial as
of many: it builds each power of the inner components once per call and
adds each term's image straight into its polynomial's integer accumulator.
Caller coefficients (`make`, `constant`) and points become integers, and
floats are refused, only in `rational_linalg._scaled_row`.  Arithmetic
results are well formed by construction and are built without
re-validation; parsing and the public constructors (`make`, `parse`,
`constant`, `variable`) keep every check.  `integer_rows_at`, the one point
evaluator, gives each row of a grid as integers over one denominator; each
call evaluates each distinct monomial once, in a table from exponent vector
to its value and degree, and each power of the point's denominator once.

Determinants are memoized cofactor (Laplace) expansions, whose memo table
is capped at MAX_MINOR_TERMS terms.  `poly_matrix_inverse` is Gauss-Jordan
elimination that divides only by constant pivots, after an integer
two-point test that rejects most matrices with a non-constant determinant,
and updates each entry a - f b in one `_accumulate` of -f b into a's
numerators; only a Schur complement with no constant entry left goes to the
cofactor expansion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm, prod
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import NotUnimodularError, PreconditionError, SpaceMismatchError
from .rational_linalg import MatrixQ, Vector, _integer_det, _scaled_row, check_digits

_VAR_RE = re.compile(r"[a-zA-Z]+[0-9]+")
_TOKEN_RE = re.compile(r"\s*([+-]|\*|\^|[a-zA-Z]+[0-9]+|[0-9]+(?:/[0-9]+)?)")

# Largest exponent of one variable in one parsed term.  Parsed text comes
# from outside the program and products and substitutions multiply
# degrees, so an unbounded '^' would be a resource bomb.  The bundled
# scenarios, the tests and the benchmark generators use at most 3.
MAX_EXPONENT = 32

# Most terms that one sum_of_products may accumulate, and so the largest
# polynomial any product, power, substitution or determinant step builds:
# MAX_EXPONENT bounds one '^', not what products make of it.  A pushforward
# of x1^32*...*x5^32 along x_i -> x_i + x6^2 expands 33^5 terms.
MAX_PRODUCT_TERMS = 400_000


def _ordered(variables: tuple[str, ...], nums: Iterable[tuple[tuple[int, ...], int]], den: int) -> Poly:
    """Poly of (exponent, nonzero int) pairs over den > 0, put in grlex order and divided by
    the gcd of den and every numerator, without re-validation."""
    nums = sorted(nums, key=lambda t: (sum(t[0]), t[0]), reverse=True)
    if den != 1 and (g := gcd(den, *(n for _, n in nums))) > 1:
        nums, den = [(e, n // g) for e, n in nums], den // g
    return Poly(variables, tuple(nums), den)


@dataclass(frozen=True)
class Poly:
    """Polynomial over Q in an ordered tuple of named variables: the integer numerators
    `nums`, (exponent, nonzero int) pairs in grlex order, over one positive `den`, with
    no factor above 1 common to den and every numerator, so equal polynomials have equal
    fields.  `terms`, the Fraction view, is built on first read."""

    variables: tuple[str, ...]
    nums: tuple[tuple[tuple[int, ...], int], ...]
    den: int

    @staticmethod
    def make(variables: Sequence[str], terms: Mapping[tuple[int, ...], int | str | Fraction]) -> Poly:
        """The polynomial of a term map; a float coefficient raises rat's TypeError."""
        variables = tuple(variables)
        nums, den = _scaled_row(list(terms.values()))
        pairs = [(tuple(e), n) for e, n in zip(terms, nums) if n]
        for e, _ in pairs:
            if len(e) != len(variables) or any(k < 0 for k in e):
                raise ValueError(f"bad exponent vector {e} for variables {variables}")
        return _ordered(variables, pairs, den)

    @staticmethod
    def zero(variables: Sequence[str]) -> Poly:
        return Poly(tuple(variables), (), 1)

    @staticmethod
    def constant(variables: Sequence[str], c: int | str | Fraction) -> Poly:
        return Poly.make(variables, {(0,) * len(variables): c})

    @staticmethod
    def variable(variables: Sequence[str], name: str) -> Poly:
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r} (context: {variables})")
        return Poly(variables, ((tuple(int(v == name) for v in variables), 1),), 1)

    @cached_property
    def terms(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """The (exponent, Fraction coefficient) pairs in grlex order."""
        return tuple((e, Fraction(n, self.den)) for e, n in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e, _ in self.nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[0][1] if self.nums else Fraction(0)

    def _check_context(self, other: Poly) -> None:
        if self.variables != other.variables:
            raise SpaceMismatchError(f"variable contexts differ: {self.variables} vs {other.variables}")

    def __add__(self, other: Poly) -> Poly:
        return self._plus(other, 1)

    def __neg__(self) -> Poly:
        return Poly(self.variables, tuple((e, -n) for e, n in self.nums), self.den)

    def __sub__(self, other: Poly) -> Poly:
        return self._plus(other, -1)

    def _plus(self, other: Poly, sign: int) -> Poly:
        """self + sign * other, summed on integers over the lcm of the denominators; a zero
        operand gives the other operand (negated for sign -1) as it is stored."""
        self._check_context(other)
        if not other.nums:
            return self
        if not self.nums:
            return other if sign == 1 else -other
        big = lcm(self.den, other.den)
        fa, fb = big // self.den, sign * (big // other.den)
        out = {e: n * fa for e, n in self.nums}
        for e, n in other.nums:
            out[e] = out.get(e, 0) + n * fb
        return _ordered(self.variables, [(e, n) for e, n in out.items() if n], big)

    def __mul__(self, other: Poly) -> Poly:
        self._check_context(other)
        return sum_of_products(self.variables, ((self, other),))

    def scale(self, c: int | str | Fraction) -> Poly:
        (p,), q = _scaled_row((c,))
        return _ordered(self.variables, [(e, n * p) for e, n in self.nums if p], self.den * q)

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
        return _ordered(self.variables, [
            (tuple(k - 1 if i == idx else k for i, k in enumerate(e)), n * e[idx]) for e, n in self.nums if e[idx]
        ], self.den)

    @cached_property
    def gradient(self) -> tuple[Poly, ...]:
        """The partial derivatives in the order of the variables, derived once per polynomial."""
        return tuple(self.partial(v) for v in self.variables)

    def __str__(self) -> str:
        """Each coefficient n / den printed in lowest terms, as a Fraction prints, without
        building one."""
        if not self.nums:
            return "0"
        pieces: list[str] = []
        for i, (e, n) in enumerate(self.nums):
            factors = [
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e)
                if k
            ]
            sign, n = ("-", -n) if n < 0 else ("+", n)
            g = gcd(n, self.den)
            mag = f"{n // g}" if g == self.den else f"{n // g}/{self.den // g}"
            if not factors:
                body = mag
            elif mag == "1":
                body = "*".join(factors)
            else:
                body = "*".join([mag] + factors)
            if i == 0:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    @staticmethod
    def parse(text: str, variables: Sequence[str]) -> Poly:
        """Parse the term grammar; rejects anything outside it.  Sums on integers over the
        lcm of the term denominators.  The text "0", which most zero entries of a scenario
        read, is the zero polynomial without the grammar."""
        if text == "0":
            return Poly.zero(variables)
        variables = tuple(variables)
        tokens = _tokenize(text)
        if not tokens:
            raise ValueError("empty polynomial string")
        terms: list[tuple[tuple[int, ...], int, int]] = []
        pos = 0
        sign = 1
        if tokens[pos] in ("+", "-"):
            sign = -1 if tokens[pos] == "-" else 1
            pos += 1
        while True:
            num, den, e, pos = _parse_term(tokens, pos, variables)
            terms.append((e, sign * num, den))
            if pos == len(tokens):
                break
            sign = -1 if tokens[pos] == "-" else 1
            pos += 1
        big = lcm(*(d for _, _, d in terms))
        out: dict[tuple[int, ...], int] = {}
        for e, n, d in terms:
            out[e] = out.get(e, 0) + n * (big // d)
        return _ordered(variables, [(e, n) for e, n in out.items() if n], big)


def sum_of_products(
    variables: Sequence[str], pairs: Iterable[tuple[Poly, Poly]], signs: Iterable[int] | None = None
) -> Poly:
    """Sum of a * b over the pairs, all in the context `variables`, each product taken
    with its sign +1 or -1 from `signs` (all +1 when None).  Fraction-free: with a = A / da
    and b = B / db on integer numerators A, B, and L the lcm of da * db over the pairs,
    `_accumulate` adds the integers sign * A * (L // (da * db)) * B into one map, divided by
    L once per term."""
    variables = tuple(variables)
    nonzero = []
    for (a, b), sign in zip(pairs, repeat(1) if signs is None else signs):
        if not a.variables == b.variables == variables:
            raise SpaceMismatchError(f"product of {a.variables} and {b.variables} in the context {variables}")
        if a.nums and b.nums:
            nonzero.append((a, b, sign))
    big = lcm(*(a.den * b.den for a, b, _ in nonzero))
    out: dict[tuple[int, ...], int] = {}
    for a, b, sign in nonzero:
        _accumulate(out, a.nums, b.nums, sign * (big // (a.den * b.den)))
    return _ordered(variables, [(e, n) for e, n in out.items() if n], big)


def _accumulate(out: dict[tuple[int, ...], int], nums_a: Sequence, nums_b: Sequence, factor: int) -> None:
    """Add factor * A * B, A and B as (exponent, int) pairs, into the integer term map `out`:
    the one loop that multiplies tuple-keyed term maps, behind `sum_of_products`, `compose_map`
    and `_pivot`.
    Raises PreconditionError once `out` holds more than MAX_PRODUCT_TERMS terms."""
    for e1, n1 in nums_a:
        n1 *= factor
        for e2, n2 in nums_b:
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + n1 * n2
        if len(out) > MAX_PRODUCT_TERMS:  # tested here first: a call per term would cost time
            _check_term_cap(out)


def _check_term_cap(out: Mapping) -> None:
    """Refuse a term map of more than MAX_PRODUCT_TERMS terms."""
    if len(out) > MAX_PRODUCT_TERMS:
        raise PreconditionError(f"a polynomial product needs more than {MAX_PRODUCT_TERMS} terms")


def integer_rows_at(grid: Iterable[Sequence[Poly]], point: Sequence[Fraction]) -> list[tuple[list[int], int]]:
    """Every polynomial of a grid at one point, row by row, as (integer numerators, common
    denominator): the one point evaluator.  The point becomes integers over one common
    denominator once, x = P / q, by `_scaled_row`.  For the polynomials N_j / d_j of a row
    of total degree at most D, entry j is (L // d_j) sum n_e P^e q^(D - |e|) over L q^D,
    L = lcm d_j, the sum over the terms (e, n_e) of N_j.  Each call keeps one table from
    exponent e to (P^e, |e|) and one list of the powers of q, so a monomial that several
    entries or rows share is evaluated once, and a term costs one lookup and two products."""
    xs, q = _scaled_row(point)
    monomials: dict[tuple[int, ...], tuple[int, int]] = {}
    q_powers = [1]
    out = []
    for row in grid:
        for poly in row:
            if len(poly.variables) != len(xs):
                raise SpaceMismatchError(f"point length {len(xs)} != variable count {len(poly.variables)}")
        big = lcm(*(poly.den for poly in row))
        top = max((sum(poly.nums[0][0]) for poly in row if poly.nums), default=0)
        while len(q_powers) <= top:
            q_powers.append(q_powers[-1] * q)
        ints = []
        for poly in row:
            total = 0
            for e, n in poly.nums:
                if (monomial := monomials.get(e)) is None:
                    monomial = monomials[e] = prod(map(pow, xs, e)), sum(e)
                value, degree = monomial
                total += n * value * q_powers[top - degree]
            ints.append(big // poly.den * total)
        out.append((ints, big * q_powers[top]))
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
            if pos + 1 == len(tokens) or tokens[pos + 1] in ("+", "-", "*"):
                raise ValueError("'*' must be followed by a factor")
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
        return MatrixQ._over(self.source_dim, integer_rows_at(self.jacobian(), point))

    def is_identity(self) -> bool:
        return self == PolyMap.identity(self.source_vars)


def compose_map(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """Substitute inner's components for outer's variables in every component of outer: the
    one composition entry, which composes one polynomial p as the map (p,) of p's variables.

    Each call builds one table of the powers of inner's components: power k of a component
    is power k - 1 times the component, built once and only up to the highest power that
    some term of outer reads.  The image of a term n x^e is the product of its variables'
    powers, a transient term map, and each component of outer sums n times the images of
    its terms in one integer accumulation over its denominator times the lcm of the
    images' denominators (power k of a component over d_v is over d_v^k).  An inner map
    with neither variables nor components leaves no context to compose into.
    """
    if outer.source_dim != inner.target_dim:
        raise SpaceMismatchError("map composition arity mismatch")
    if outer.components and not inner.components and not inner.source_vars:
        raise SpaceMismatchError("substitution polynomials must share one variable context")
    zero = (0,) * len(inner.source_vars)
    one = ((zero, 1),)
    top = [max(column) for column in zip(*(e for p in outer.components for e, _ in p.nums))]
    powers = []  # powers[v][k]: the numerators of inner.components[v]^k, over its den^k
    for component, k in zip(inner.components, top):
        table = [one, component.nums]
        while len(table) <= k:
            _accumulate(step := {}, table[-1], component.nums, 1)
            table.append([(e, n) for e, n in step.items() if n])
        powers.append(table)
    dens = [component.den for component in inner.components]
    composed = []
    for p in outer.components:
        image_dens = [prod(map(pow, dens, e)) for e, _ in p.nums]
        big, out = lcm(*image_dens), {}
        for (e, n), image_den in zip(p.nums, image_dens):
            factors = [powers[v][k] for v, k in enumerate(e) if k]
            coefficient = n * (big // image_den)
            if len(factors) < 2:  # a constant times at most one power
                _accumulate(out, ((zero, coefficient),), factors[0] if factors else one, 1)
                continue
            image = factors[0]
            for factor in factors[1:-1]:
                _accumulate(step := {}, image, factor, 1)
                image = step.items()
            _accumulate(out, image, factors[-1], coefficient)
        composed.append(_ordered(inner.source_vars, [(e, n) for e, n in out.items() if n], p.den * big))
    return PolyMap(inner.source_vars, tuple(composed))


def ambient_variables(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def parameter_variables(k: int) -> tuple[str, ...]:
    return tuple(f"t{i + 1}" for i in range(k))


def fiber_variables(k: int) -> tuple[str, ...]:
    return tuple(f"p{i + 1}" for i in range(k))


# Most terms that the memoized minors of one cofactor expansion may hold
# together: the expansion touches up to n * 2^n minors, and their size, not
# the matrix's dimension, is what grows.  MAX_PRODUCT_TERMS bounds each minor
# alone, not the table that keeps them all.  The inverse in the dense 8 + 2
# embedding scenario (`scripts/worst_cases.py embed 8 2`) expands a 7 x 7 Schur
# complement into 103,410 terms in 568 minors; 10 + 2 passes 5,000,000
# terms in its 10 x 10 one, and without a cap it runs out of memory.
MAX_MINOR_TERMS = 400_000


class _MinorTable(dict):
    """Determinants of minors of one matrix, keyed by (row indices, column indices),
    and the number of terms they hold together."""

    terms = 0


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

    Laplace expansion along the minor's first row, skipping zero entries, with the
    cofactor signs carried into the one `sum_of_products` call.  Each distinct minor
    is expanded once per table: a determinant and all its cofactors touch at most
    n * 2^n minors instead of O(n!) expansions.  Raises PreconditionError once the
    table holds more than MAX_MINOR_TERMS terms.
    """
    key = (rows, cols)
    det = table.get(key)
    if det is not None:
        return det
    variables = entries[0][0].variables
    if len(rows) == 1:
        det = entries[rows[0]][cols[0]]
    else:
        first, rest = entries[rows[0]], rows[1:]
        nonzero = [(k, j) for k, j in enumerate(cols) if first[j].nums]
        det = sum_of_products(variables, (
            (first[j], _minor_det(entries, rest, cols[:k] + cols[k + 1:], table)) for k, j in nonzero
        ), (-1 if k % 2 else 1 for k, _ in nonzero))
    table[key] = det
    table.terms += len(det.nums)
    if table.terms > MAX_MINOR_TERMS:
        size = len(entries)
        raise PreconditionError(
            f"the cofactor expansion of a {size} x {size} polynomial matrix needs more than {MAX_MINOR_TERMS} terms"
        )
    return det


def poly_matrix_det(entries: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix.

    Memoized Laplace expansion: each distinct minor is computed once per
    call, which keeps sparse matrices cheap (zero entries are skipped).
    """
    size = _square_size(entries)
    full = tuple(range(size))
    return _minor_det(entries, full, full, _MinorTable())


_NOT_UNIMODULAR = "matrix determinant is not a nonzero constant; inverse is not polynomial"


def _is_unit(p: Poly) -> bool:
    """Whether p is a nonzero constant, a unit of the polynomial ring."""
    return len(p.nums) == 1 and not any(p.nums[0][0])


def _pivot(aug: list[list[Poly]], r: int, c: int, rest: list[int]) -> None:
    """One Gauss-Jordan step on the unit entry aug[r][c] over the columns `rest`: row r is
    divided by its constant pivot, and every other row loses f times row r, f its entry
    in column c: each entry a - f b is a's numerators over lcm(a.den, f.den b.den) plus one
    `_accumulate` of -f b.  Column c, 1 in row r and 0 in the others, is not written: no
    later step reads it."""
    pivot_row, pivot = aug[r], aug[r][c]
    if (n := pivot.nums[0][1]) != pivot.den:  # a pivot 1 leaves its row as it is
        for j in rest:
            pivot_row[j] = pivot_row[j].scale(Fraction(pivot.den, n))
    for row in aug:
        f = row[c]
        if row is pivot_row or not f.nums:
            continue
        for j in rest:
            if (b := pivot_row[j]).nums:
                a = row[j]
                big = lcm(a.den, f.den * b.den)
                out = {e: m * (big // a.den) for e, m in a.nums}
                _accumulate(out, f.nums, b.nums, -(big // (f.den * b.den)))
                row[j] = _ordered(pivot.variables, [(e, m) for e, m in out.items() if m], big)


def poly_matrix_inverse(entries: Sequence[Sequence[Poly]]) -> tuple[tuple[Poly, ...], ...]:
    """Inverse of a polynomial matrix C whose determinant is a nonzero constant.

    Every other matrix is rejected with NotUnimodularError: its inverse leaves the
    polynomial ring, and this package never approximates.  It is rejected at once,
    from two integer determinants, when det C(0) is 0 or differs from det C(1, ..., 1);
    both are exact disproofs.  Otherwise Gauss-Jordan elimination on [C | I] pivots on
    one remaining entry that is a nonzero constant at a time, so it divides only by
    constants.  When no such entry is left, the remaining block S (the Schur complement)
    has det C = +-(product of the pivots) det S, so C is rejected unless det S is a
    nonzero constant; S^-1 then comes from one memoized cofactor expansion, its
    determinant and adjugate sharing their minors, and multiplying it into the rows of S
    turns S into the identity, whose unit entries the same loop pivots on.  That
    expansion raises PreconditionError past MAX_MINOR_TERMS terms.
    """
    size = _square_size(entries)
    variables = entries[0][0].variables
    # C(0) and C(1, ..., 1), each row as integers over the lcm of its denominators
    at_zero, at_ones = [], []
    for row in entries:
        big = lcm(*(p.den for p in row))
        at_zero.append([big // p.den * p.nums[-1][1] if p.nums and not any(p.nums[-1][0]) else 0 for p in row])
        at_ones.append([big // p.den * sum(n for _, n in p.nums) for p in row])
    det_at_zero = _integer_det(at_zero)
    if not det_at_zero or det_at_zero != _integer_det(at_ones):
        raise NotUnimodularError(_NOT_UNIMODULAR)
    identity = range(size, 2 * size)
    one, zero = Poly.constant(variables, 1), Poly.zero(variables)
    aug = [list(row) + [one if j == i else zero for j in range(size)] for i, row in enumerate(entries)]
    rows, cols, pivot_rows = list(range(size)), list(range(size)), {}
    while rows:
        if pivot := next(((r, c) for r in rows for c in cols if _is_unit(aug[r][c])), None):
            r, c = pivot
            rows.remove(r)
            cols.remove(c)
            _pivot(aug, r, c, cols + list(identity))
            pivot_rows[c] = r
            continue
        schur = [[aug[r][c] for c in cols] for r in rows]
        full, table = tuple(range(len(rows))), _MinorTable()
        det = _minor_det(schur, full, full, table)
        if not _is_unit(det):
            raise NotUnimodularError(_NOT_UNIMODULAR)
        # entry (i, j) of S^-1: (-1)^(i + j) / det S times the minor without row j and column i
        inv = [[_minor_det(schur, full[:j] + full[j + 1:], full[:i] + full[i + 1:], table).scale(
            (-1) ** (i + j) / det.constant_value()) for j in full] for i in full]
        rest = cols + list(identity)
        new = [[sum_of_products(variables, zip(inv_row, (aug[r][j] for r in rows))) for j in rest] for inv_row in inv]
        for r, new_row in zip(rows, new):
            for j, p in zip(rest, new_row):
                aug[r][j] = p
    return tuple(tuple(aug[pivot_rows[c]][size:]) for c in range(size))
