"""Exact rational linear algebra and polynomials, independent of poisdirac.

The generators use these to build inputs whose outcome is known, and the
output checks use them to verify results, so neither depends on the code
being measured.  Matrices are lists of rows of Fractions; polynomials are
dicts from exponent tuples to nonzero Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rand_q(rng: random.Random, height: int) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def identity(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in bt] for row in a]


def matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def rref(rows, width: int):
    """Reduced row echelon form without zero rows, and its pivot columns."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    top = 0
    for col in range(width):
        sel = next((r for r in range(top, len(work)) if work[r][col] != 0), None)
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        inv = 1 / work[top][col]
        work[top] = [x * inv for x in work[top]]
        for r in range(len(work)):
            if r != top and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[top])]
        pivots.append(col)
        top += 1
        if top == len(work):
            break
    return work[:top], pivots


def rank(rows, width: int) -> int:
    return len(rref(rows, width)[1])


def kernel(rows, width: int):
    """Basis of {v : row . v = 0 for every row}."""
    reduced, pivots = rref(rows, width)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        v = [ZERO] * width
        v[free] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][free]
        basis.append(v)
    return basis


def inverse(a):
    n = len(a)
    reduced, pivots = rref([list(r) + e for r, e in zip(a, identity(n))], 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return [r[n:] for r in reduced]


def coords_in(basis_rref, pivots, x):
    """Coordinates of x in an RREF basis: its entries at the pivot columns."""
    coords = [x[p] for p in pivots]
    if [sum((c * b[j] for c, b in zip(coords, basis_rref)), ZERO) for j in range(len(x))] != list(x):
        raise ValueError("vector is outside the subspace")
    return coords


def rand_antisym(rng: random.Random, n: int, height: int):
    a = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = rand_q(rng, height)
            a[j][i] = -a[i][j]
    return a


def rand_unipotent(rng: random.Random, n: int, height: int):
    """Random integer matrix of determinant 1 (lower times upper unipotent)."""
    lower = identity(n)
    upper = identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-height, height))
            upper[j][i] = Fraction(rng.randint(-height, height))
    return matmul(lower, upper)


# ---------------------------------------------------------------------------
# polynomials: {exponents: coefficient}


def p_const(n: int, c) -> dict:
    return {(0,) * n: Fraction(c)} if c != 0 else {}


def p_var(n: int, i: int) -> dict:
    return {tuple(1 if j == i else 0 for j in range(n)): ONE}


def p_add(*polys) -> dict:
    out: dict = {}
    for p in polys:
        for e, c in p.items():
            s = out.get(e, ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def p_scale(p: dict, c) -> dict:
    return {e: c * v for e, v in p.items()} if c != 0 else {}


def p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if c}


def p_partial(p: dict, i: int) -> dict:
    out: dict = {}
    for e, c in p.items():
        if e[i]:
            d = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[d] = out.get(d, ZERO) + c * e[i]
    return {e: c for e, c in out.items() if c}


def p_eval(p: dict, point) -> Fraction:
    total = ZERO
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term *= x ** k
        total += term
    return total


def p_compose(p: dict, inner: list, n_out: int) -> dict:
    """Substitute the polynomials `inner` (in n_out variables) for p's variables."""
    powers: dict = {}

    def power(i: int, k: int) -> dict:
        if (i, k) not in powers:
            powers[(i, k)] = p_const(n_out, 1) if k == 0 else p_mul(power(i, k - 1), inner[i])
        return powers[(i, k)]

    out: dict = {}
    for e, c in p.items():
        term = p_const(n_out, c)
        for i, k in enumerate(e):
            if k:
                term = p_mul(term, power(i, k))
        out = p_add(out, term)
    return out


def rand_poly(rng: random.Random, n: int, support, degree: int, terms: int, height: int) -> dict:
    """Random polynomial in the variables listed in `support`: `terms`
    monomials of degrees degree, degree - 1, .., 0, degree, .. with nonzero
    coefficients, so that its shape does not depend on the seed."""
    out: dict = {}
    for t in range(terms):
        e = [0] * n
        for _ in range(degree - t % (degree + 1) if support else 0):
            e[rng.choice(support)] += 1
        c = Fraction(rng.choice([k for k in range(-height, height + 1) if k]), rng.randint(1, height))
        out = p_add(out, {tuple(e): c})
    return out


def p_str(p: dict, names) -> str:
    """Render in the package's polynomial grammar, e.g. '3/2*x1^2*x2 - x3'."""
    if not p:
        return "0"
    pieces = []
    for e, c in sorted(p.items(), key=lambda t: (-sum(t[0]), tuple(-k for k in t[0]))):
        factors = [v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {body}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def shear_pair(rng: random.Random, n: int, plan):
    """Polynomial diffeomorphism of Q^n with its polynomial inverse, as lists
    of component polynomials: for each (i, variables) in `plan`, the shear
    x_i -> x_i + c * prod(x_v for v in variables), all v > i, with a random
    nonzero coefficient c."""
    fwd = [p_var(n, i) for i in range(n)]
    bwd = [p_var(n, i) for i in range(n)]
    for i, variables in plan:
        e = [0] * n
        for v in variables:
            e[v] += 1
        f = {tuple(e): Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))}
        plus = [p_add(p_var(n, j), f) if j == i else p_var(n, j) for j in range(n)]
        minus = [p_add(p_var(n, j), p_scale(f, -1)) if j == i else p_var(n, j) for j in range(n)]
        fwd = [p_compose(comp, fwd, n) for comp in plus]
        bwd = [p_compose(comp, minus, n) for comp in bwd]
    return fwd, bwd


def push_bivector(upper: dict, fwd: list, bwd: list, n: int) -> dict:
    """Push the field {(i, j): poly, i < j} along fwd, whose inverse is bwd."""
    jac = [[p_partial(comp, j) for j in range(n)] for comp in fwd]
    full = {}
    for (i, j), p in upper.items():
        full[(i, j)] = p
        full[(j, i)] = p_scale(p, -1)
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            acc: dict = {}
            for (i, j), p in full.items():
                if jac[a][i] and jac[b][j]:
                    acc = p_add(acc, p_mul(p_mul(jac[a][i], jac[b][j]), p))
            acc = p_compose(acc, bwd, n)
            if acc:
                out[(a, b)] = acc
    return out
