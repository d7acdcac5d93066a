"""The four benchmark workloads: seeded input generators, operations, checks.

Each workload has a fixed schedule of operation kinds that repeats, so
every seed runs the same mix; the seed only changes the numbers inside
each input.  `make_op(workload, seed, index, workdir)` builds the input
of operation `index` (writing a scenario file for the CLI workloads) and
returns an `Op`.  `Op.run` is the timed call into poisdirac.  `Op.check`
verifies the result with the independent code in `exact.py` and returns
the canonical text of the exact outputs, which feeds the output digest.

Every generator builds inputs whose outcome it knows by construction:
which bivector fields are Poisson, every determinant, and every CLI exit
code (always 0, with every per-point or per-sample check passing).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from poisdirac import bivector_fields as bf
from poisdirac import cli
from poisdirac import poisson_linear as pl
from poisdirac import polynomials as po
from poisdirac import rational_linalg as la

import exact as ex
from exact import ONE, ZERO

WORKLOADS = ("linear_iso", "pointwise_cli", "symbolic", "embed_cli")


class CheckFailed(Exception):
    """An operation's output failed its independent check."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    inputs: str


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _text(rows) -> str:
    return ";".join(",".join(str(x) for x in r) for r in rows)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# linear_iso: cosymplectic extension + canonical isomorphism (dims 4/6/8),
# and V + E + E* splittings + matching isomorphisms of minimal pairs.

# (kind, dimension, full-rank bivector, dim c) for "iso"; (kind, dimension) for "split"
LINEAR_SCHEDULE = (
    ("iso", 4, True, 1), ("split", 4), ("iso", 6, True, 2), ("iso", 8, True, 3), ("iso", 4, False, 2),
    ("split", 6), ("iso", 6, False, 3), ("split", 4), ("iso", 4, True, 3), ("iso", 6, True, 4),
    ("iso", 8, False, 4), ("split", 4), ("iso", 6, False, 3), ("iso", 4, False, 1), ("split", 6),
    ("iso", 8, True, 4), ("iso", 4, True, 2), ("iso", 6, True, 3), ("split", 6), ("iso", 8, False, 3),
)


def _rand_bivector(rng: random.Random, n: int, full: bool):
    """Random Pi of rank n, or of rank n - 2 as B K B^T with K antisymmetric."""
    if full:
        return ex.rand_antisym(rng, n, 3)
    r = n - 2
    b = [[ex.rand_q(rng, 2) for _ in range(r)] for _ in range(n)]
    return ex.matmul(ex.matmul(b, ex.rand_antisym(rng, r, 3)), ex.transpose(b))


def _sharp_ann(pi, rows, n):
    """Rows spanning Pi(ann span(rows))."""
    return [ex.matvec(pi, xi) for xi in ex.kernel(rows, n)] if rows else [list(r) for r in ex.transpose(pi)]


def _gen_iso(rng: random.Random, n: int, full: bool, c_dim: int):
    pi = _rand_bivector(rng, n, full)
    c_rows = [[ex.rand_q(rng, 3) for _ in range(n)] for _ in range(c_dim)]
    reach = c_rows + _sharp_ann(pi, c_rows, n)
    w_rows = list(c_rows)
    current = ex.rank(reach, n)
    while current < n:
        cand = [ex.rand_q(rng, 3) for _ in range(n)]
        if ex.rank(reach + [cand], n) > current:
            reach.append(cand)
            w_rows.append(cand)
            current += 1
    return pi, c_rows, w_rows


def _induced(pi, sub_rows, n):
    """Induced bivector on a cosymplectic subspace in its canonical basis,
    from the splitting Q^n = W + Pi(ann W); also checks the splitting."""
    basis, pivots = ex.rref(sub_rows, n)
    normal, _ = ex.rref(_sharp_ann(pi, basis, n), n)
    t = ex.transpose(basis + normal)
    t_inv = ex.inverse(t)
    pushed = ex.matmul(ex.matmul(t_inv, pi), ex.transpose(t_inv))
    d = len(basis)
    _require(all(pushed[i][j] == 0 for i in range(d) for j in range(d, n)), "W + Pi(ann W) does not split Pi")
    return [row[:d] for row in pushed[:d]], basis, pivots


def _op_iso(rng: random.Random, n: int, full: bool, c_dim: int) -> Op:
    pi, c_rows, w_rows = _gen_iso(rng, n, full, c_dim)

    def run():
        p = pl.PoissonVS(n, la.MatrixQ.from_rows(pi))
        c = la.Subspace.span(n, c_rows)
        w = la.Subspace.span(n, w_rows)
        v = pl.cosymplectic_extension(p, c)
        return v, pl.canonical_iso(p, c, v, w)

    def check(result) -> str:
        v, phi = result
        v_rows = [list(r) for r in v.basis.entries]
        phi_m = [list(r) for r in phi.entries]
        pv, v_basis, v_piv = _induced(pi, v_rows, n)
        pw, w_basis, w_piv = _induced(pi, w_rows, n)
        _require(v_basis == v_rows, "v is not in canonical form")
        _require(ex.matmul(ex.matmul(phi_m, pv), ex.transpose(phi_m)) == pw, "phi does not intertwine the induced bivectors")
        for row in c_rows:
            _require(ex.matvec(phi_m, ex.coords_in(v_basis, v_piv, row)) == ex.coords_in(w_basis, w_piv, row),
                     "phi moves a vector of c")
        return f"v={_text(v_rows)}|phi={_text(phi_m)}"

    return Op(f"iso{n}", run, check, repr((pi, c_rows, w_rows)))


def _op_split(rng: random.Random, n: int) -> Op:
    vd, k = {4: (2, 1), 6: (2, 2)}[n]
    model = [[ZERO] * n for _ in range(n)]
    for i in range(vd):
        for j in range(i + 1, vd):
            model[i][j] = ex.rand_q(rng, 3)
            model[j][i] = -model[i][j]
    for i in range(k):
        model[vd + i][vd + k + i], model[vd + k + i][vd + i] = ONE, -ONE
    s = ex.rand_unipotent(rng, n, 2)
    st = ex.transpose(s)
    p1 = ex.matmul(ex.matmul(s, model), st)
    m_rows = [st[i] for i in range(vd + k)]
    v_rows = []
    for i in range(vd):
        coeffs = [rng.randint(-2, 2) for _ in range(k)]
        v_rows.append([a + sum((c * st[vd + j][t] for j, c in enumerate(coeffs)), ZERO) for t, a in enumerate(st[i])])
    # phi = S (I + N) S^-1 fixes m pointwise, so p2 = phi p1 phi^T induces
    # the same pullback structure on m
    shift = ex.identity(n)
    for col in range(vd + k, n):
        for row in range(n):
            if row < vd + k or row > col:
                shift[row][col] = Fraction(rng.randint(-2, 2))
    phi = ex.matmul(ex.matmul(s, shift), ex.inverse(s))
    p2 = ex.matmul(ex.matmul(phi, p1), ex.transpose(phi))

    def run():
        q1 = pl.PoissonVS(n, la.MatrixQ.from_rows(p1))
        q2 = pl.PoissonVS(n, la.MatrixQ.from_rows(p2))
        m = la.Subspace.span(n, m_rows)
        v = la.Subspace.span(n, v_rows) if v_rows else la.Subspace.zero(n)
        return pl.coisotropic_splitting(q1, m), pl.linear_uniqueness_iso(q1, q2, m, v)

    def check(result) -> str:
        split, iso = result
        t = [list(r) for r in split.change_of_basis.entries]
        model_out = [list(r) for r in split.model.pi.entries]
        t_inv = ex.inverse(t)
        _require(ex.matmul(ex.matmul(t_inv, p1), ex.transpose(t_inv)) == model_out, "splitting basis does not give the model")
        dv = n - 2 * k
        for i in range(n):
            for j in range(n):
                if i >= dv or j >= dv:
                    pair = ONE if (i >= dv and j == i + k and i < dv + k) else -ONE if (j >= dv and i == j + k and j < dv + k) else ZERO
                    _require(model_out[i][j] == pair, "model is not V + E + E* block form")
        iso_m = [list(r) for r in iso.entries]
        _require(ex.matmul(ex.matmul(iso_m, p1), ex.transpose(iso_m)) == p2, "matching isomorphism does not intertwine")
        _require(all(ex.matvec(iso_m, r) == list(r) for r in m_rows), "matching isomorphism moves m")
        return f"t={_text(t)}|model={_text(model_out)}|iso={_text(iso_m)}"

    return Op(f"split{n}", run, check, repr((p1, p2, m_rows, v_rows)))


# ---------------------------------------------------------------------------
# symbolic: Jacobi checks, pushforward + Jacobi, polynomial det + inverse.

SYMBOLIC_SCHEDULE = (
    ("jac", 5), ("det", 7), ("push", 4), ("jac", 6), ("det", 5), ("push", 5), ("jac", 7),
    ("push", 4), ("det", 6), ("jac", 5), ("push", 6), ("det", 6), ("jac", 6), ("push", 5),
    ("det", 5), ("jac", 5), ("push", 4), ("det", 6), ("jac", 6), ("push", 6),
)

DET_OFFSETS = {5: (1, 3), 6: (1,), 7: (1,)}


def _shears(n: int):
    """Shears of the diffeomorphisms in "jac" and "push" ops: x2 += c x_n,
    then x1 += c' x3 x_n.  A fixed shape keeps the cost of one op kind
    nearly the same for every seed."""
    return ((1, (n - 1,)), (0, (2, n - 1)))


def _split_field(rng: random.Random, n: int, broken: bool) -> dict:
    """Poisson field sum_{i<j in A} f_ij(x_B) d_i ^ d_j, B = {x1, x2}, A the rest.

    A broken field adds h d_1 ^ d_2 (h a nonzero constant); as f_34
    depends on x2, J^{1,3,4} = h * d f_34 / d x2 is nonzero.  The shears
    move the B coordinates, so pushed fields are dense.
    """
    x01 = (1, 1) + (0,) * (n - 2)
    x1 = (0, 1) + (0,) * (n - 2)
    upper = {}
    for i in range(2, n):
        for j in range(i + 1, n):
            # f_ij = a x1 x2 + b x2 with a, b nonzero
            upper[(i, j)] = {x01: ex.rand_q(rng, 3) or ONE, x1: ex.rand_q(rng, 3) or ONE}
    if broken:
        upper[(0, 1)] = ex.p_const(n, rng.choice((-2, -1, 1, 2)))
    return upper


def _names(n: int) -> tuple[str, ...]:
    return po.ambient_variables(n)


def _poly(names, p: dict):
    return po.Poly.make(names, p)


def _field(names, upper: dict):
    return bf.BivectorField.from_upper(names, {ij: _poly(names, p) for ij, p in upper.items()})


def _field_text(field) -> str:
    return ";".join(f"{i},{j}:{p}" for (i, j), p in sorted(field.upper_entries().items()))


def _as_dicts(field) -> dict:
    return {ij: dict(p.terms) for ij, p in field.upper_entries().items()}


def _op_jac(rng: random.Random, n: int) -> Op:
    broken = rng.random() < 0.5
    fwd, bwd = ex.shear_pair(rng, n, _shears(n))
    upper = ex.push_bivector(_split_field(rng, n, broken), fwd, bwd, n)
    names = _names(n)

    def run():
        return bf.nonzero_jacobiator_components(_field(names, upper))

    def check(bad) -> str:
        _require(bool(bad) == broken, f"Jacobi verdict {not bad} but the field is {'broken' if broken else 'Poisson'}")
        return f"poisson={not bad}|" + ";".join(f"{ijk}:{p}" for ijk, p in sorted(bad.items()))

    return Op(f"jac{n}", run, check, repr(sorted(upper.items())))


def _op_push(rng: random.Random, n: int) -> Op:
    upper = _split_field(rng, n, False)
    fwd, bwd = ex.shear_pair(rng, n, _shears(n))
    names = _names(n)

    def run():
        pushed = bf.pushforward(
            _field(names, upper),
            po.PolyMap(names, tuple(_poly(names, p) for p in fwd)),
            po.PolyMap(names, tuple(_poly(names, p) for p in bwd)),
        )
        return pushed, bf.is_poisson(pushed)

    def check(result) -> str:
        pushed, poisson = result
        _require(poisson, "pushforward of a Poisson field is not Poisson")
        _require(ex.push_bivector(_as_dicts(pushed), bwd, fwd, n) == upper, "pushing back does not restore the field")
        return _field_text(pushed)

    return Op(f"push{n}", run, check, repr((sorted(upper.items()), fwd, bwd)))


def _op_det(rng: random.Random, size: int) -> Op:
    """M = c * L * U with L, U unipotent: one linear monomial in 3 variables
    at each position i - j in DET_OFFSETS below (L) or above (U) the diagonal."""
    nv = 3
    lower = [[ex.p_const(nv, 1 if i == j else 0) for j in range(size)] for i in range(size)]
    upper = [[ex.p_const(nv, 1 if i == j else 0) for j in range(size)] for i in range(size)]
    for offset in DET_OFFSETS[size]:
        for i in range(offset, size):
            lower[i][i - offset] = ex.rand_poly(rng, nv, list(range(nv)), 1, 1, 2)
            upper[i - offset][i] = ex.rand_poly(rng, nv, list(range(nv)), 1, 1, 2)
    scale = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    m = [[ex.p_add(*(ex.p_mul(lower[i][t], upper[t][j]) for t in range(size))) for j in range(size)]
         for i in range(size)]
    m[0] = [ex.p_scale(p, scale) for p in m[0]]
    names = po.ambient_variables(nv)

    def run():
        entries = [[_poly(names, p) for p in row] for row in m]
        return po.poly_matrix_det(entries), po.poly_matrix_inverse(entries)

    def check(result) -> str:
        det, inv = result
        _require(dict(det.terms) == ex.p_const(nv, scale), f"determinant {det} is not {scale}")
        inv_d = [[dict(p.terms) for p in row] for row in inv]
        for i in range(size):
            for j in range(size):
                prod = ex.p_add(*(ex.p_mul(m[i][t], inv_d[t][j]) for t in range(size)))
                _require(prod == ex.p_const(nv, 1 if i == j else 0), "M times its inverse is not the identity")
        return f"det={det}|inv=" + ";".join(",".join(str(p) for p in row) for row in inv)

    return Op(f"det{size}", run, check, repr(m))


# ---------------------------------------------------------------------------
# CLI workloads: scenario files run through cli.main in process.

# (kind, ambient dimension, height of the sample points)
POINTWISE_SCHEDULE = (
    ("classify_param", 4, 5), ("classify_level", 6, 20), ("bracket_basic", 6, 5), ("classify_level", 5, 50),
    ("classify_param", 6, 50), ("bracket_basic", 5, 20), ("classify_level", 7, 5), ("classify_param", 5, 20),
    ("bracket_poisson", 4, 50), ("classify_level", 8, 5), ("bracket_poisson", 7, 20), ("classify_param", 4, 50),
    ("classify_level", 6, 5), ("classify_param", 8, 20), ("classify_level", 5, 20), ("bracket_basic", 6, 50),
    ("classify_param", 6, 5), ("classify_level", 7, 50), ("classify_param", 5, 5), ("bracket_basic", 5, 5),
)

EMBED_SAMPLES = 3

# (dim y, dim E, compare two V frames, extract the polynomial bivector);
# the total dimension is dim y + 2 dim E
EMBED_SCHEDULE = (
    (2, 1, False, True), (3, 1, False, True), (2, 2, False, False), (3, 2, False, False), (2, 1, True, True),
    (3, 1, False, False), (4, 1, False, False), (5, 1, False, False), (2, 1, False, False), (3, 1, True, False),
    (2, 2, False, False), (4, 1, False, True), (2, 1, False, True), (3, 2, False, False), (3, 1, False, True),
    (2, 2, False, False), (2, 1, False, False), (4, 1, False, False), (5, 1, False, False), (3, 1, False, False),
)


def _run_cli(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(kind: str, path: Path, doc: dict, command: str, check_doc: Callable[[dict], None]) -> Op:
    text = json.dumps(doc, indent=1)
    path.write_text(text, encoding="utf-8")
    argv = [command, "--scenario", str(path), "--porcelain"]

    def run():
        return _run_cli(argv)

    def check(result) -> str:
        code, text = result
        _require(code == 0, f"exit code {code}, expected 0")
        check_doc(json.loads(text))
        return text

    return Op(kind, run, check, text)


def _ab_bivector(rng: random.Random, n: int, a_size: int):
    """Poisson bivector with entries on coordinates A that depend only on B."""
    coords = list(range(n))
    rng.shuffle(coords)
    a, b = sorted(coords[:a_size]), sorted(coords[a_size:])
    entries = []
    for x, i in enumerate(a):
        for j in a[x + 1:]:
            p = ex.rand_poly(rng, n, b, 1, 2, 3)
            entries.append({"i": i + 1, "j": j + 1, "poly": ex.p_str(p, _names(n))})
    return entries, a, b


def _graph_level_set(rng: random.Random, n: int, solved: list[int], free: list[int]):
    """Constraints x_s - g_s(x_free); regular everywhere."""
    gs = {s: ex.rand_poly(rng, n, free, 2, 3, 3) for s in solved}
    constraints = [ex.p_str(ex.p_add(ex.p_var(n, s), ex.p_scale(g, -1)), _names(n)) for s, g in gs.items()]
    return constraints, gs


def _level_points(rng, n, gs, free, height, count):
    points = []
    for _ in range(count):
        x = [ZERO] * n
        for i in free:
            x[i] = ex.rand_q(rng, height)
        for s, g in gs.items():
            x[s] = ex.p_eval(g, x)
        points.append([str(v) for v in x])
    return points


def _check_classify(count: int):
    def check(doc: dict) -> None:
        _require(not doc["errors"] and len(doc["rows"]) == count, "classify lost points")
        for row in doc["rows"]:
            _require(row["rho_rank"] == row["dims"]["sum"] - row["dims"]["subspace"], "rho_rank != dim sum - dim subspace")
    return check


def _check_bracket(count: int):
    def check(doc: dict) -> None:
        _require(len(doc["per_point"]) == count, "bracket lost points")
        for entry in doc["per_point"]:
            _require(entry["f_basic"] and entry["g_basic"] and entry.get("consistent") is True,
                     "bracket is not basic or not consistent")
    return check


def _op_pointwise(rng: random.Random, kind: str, n: int, height: int, path: Path) -> Op:
    names = _names(n)
    entries, _, b = _ab_bivector(rng, n, n - 2)
    doc: dict = {"name": f"{kind}{n}", "ambient": {"dim": n, "bivector": entries}}
    if kind == "classify_level":
        coords = list(range(n))
        rng.shuffle(coords)
        codim = 1 + n % 2
        constraints, gs = _graph_level_set(rng, n, coords[:codim], sorted(coords[codim:]))
        doc["submanifold"] = {"type": "level_set", "constraints": constraints}
        doc["points"] = _level_points(rng, n, gs, sorted(coords[codim:]), height, 8)
        command, check, count = "classify", _check_classify(8), 8
    elif kind == "classify_param":
        k = n // 2
        coords = list(range(n))
        rng.shuffle(coords)
        tnames = po.parameter_variables(k)
        comps = [""] * n
        for t, i in enumerate(coords[:k]):
            comps[i] = tnames[t]
        for i in coords[k:]:
            comps[i] = ex.p_str(ex.rand_poly(rng, k, list(range(k)), 2, 3, 3), tnames)
        doc["submanifold"] = {"type": "parametrized", "map": comps, "params": k}
        doc["points"] = [[str(ex.rand_q(rng, height)) for _ in range(k)] for _ in range(8)]
        command, check, count = "classify", _check_classify(8), 8
    else:
        if kind == "bracket_poisson":
            # a constraint in the B coordinates only makes a Poisson
            # submanifold: every function is basic there
            s = b[-1]
            free = [i for i in range(n) if i != s]
            gs = {s: ex.rand_poly(rng, n, b[:-1], 2, 2, 3)}
            constraints = [ex.p_str(ex.p_add(ex.p_var(n, s), ex.p_scale(gs[s], -1)), names)]
            support = list(range(n))
        else:
            # functions of the B coordinates annihilate sharp(ann C), so
            # they are basic on any submanifold
            coords = list(range(n))
            rng.shuffle(coords)
            free = sorted(coords[1:])
            constraints, gs = _graph_level_set(rng, n, coords[:1], free)
            support = b
        f = ex.rand_poly(rng, n, support, 2, 3, 3) or ex.p_var(n, support[0])
        g = ex.rand_poly(rng, n, support, 2, 3, 3) or ex.p_var(n, support[-1])
        doc["submanifold"] = {"type": "level_set", "constraints": constraints}
        doc["points"] = _level_points(rng, n, gs, free, height, 4)
        doc["f"], doc["g"] = ex.p_str(f, names), ex.p_str(g, names)
        command, check, count = "bracket", _check_bracket(4), 4
    return _cli_op(f"{kind}{n}", path, doc, command, check)


def _op_embed(rng: random.Random, r: int, k: int, compare: bool, extract: bool, path: Path) -> Op:
    """Regular Dirac manifold on Q^(r+k): the graph of a Poisson bivector in
    the y = x_1..x_r directions plus the kernel E = span d/dz, z = x_(r+1)..,
    with sections mixed by a polynomial matrix, E framed by a unimodular
    integer matrix, and V_i = d/dy_i + sum_l d_i h_l(y) d/dz_l.  The coframe
    dual to E and annihilating V is closed, so the embedded structure is a
    bivector graph at every point and every check passes.

    With `extract` the mixing matrix is unipotent, the covector matrix of
    the embedded structure has a constant determinant, and the CLI extracts
    the polynomial bivector (a cofactor inverse).  Otherwise its determinant
    is 1 + x_m^2: nonzero at every rational point but not constant, so the
    result is pointwise evidence only."""
    m = r + k
    names = _names(m)
    y = list(range(r))
    pi = [[{} for _ in range(m)] for _ in range(m)]

    def put(i, j, p):
        pi[i][j], pi[j][i] = p, ex.p_scale(p, -1)

    if r < 4:
        put(0, 1, ex.rand_poly(rng, m, y, 2, 3, 3) or ex.p_var(m, 0))
    else:
        extra = list(range(4, r))
        put(0, 1, ex.rand_poly(rng, m, [0, 1] + extra, 2, 2, 3) or ex.p_var(m, 0))
        put(2, 3, ex.rand_poly(rng, m, [2, 3] + extra, 2, 2, 3) or ex.p_var(m, 2))
    sections = [([pi[a][i] for a in range(m)], [ex.p_const(m, 1 if a == i else 0) for a in range(m)]) for i in range(r)]
    sections += [([ex.p_const(m, 1 if a == r + l else 0) for a in range(m)], [{} for _ in range(m)]) for l in range(k)]
    mix = [[ex.p_const(m, 1 if a == b else 0) for b in range(m)] for a in range(m)]
    for a in range(m - 1):
        mix[a][a + 1] = ex.rand_poly(rng, m, list(range(m)), 1, 1, 2)
    if not extract:
        x_m = ex.p_var(m, m - 1)
        mix[0], mix[1] = ([ex.p_add(p, ex.p_mul(x_m, q)) for p, q in zip(mix[0], mix[1])],
                          [ex.p_add(q, ex.p_scale(ex.p_mul(x_m, p), -1)) for p, q in zip(mix[0], mix[1])])
    mixed = []
    for a in range(m):
        vec = [ex.p_add(*(ex.p_mul(mix[a][b], sections[b][0][t]) for b in range(m))) for t in range(m)]
        cov = [ex.p_add(*(ex.p_mul(mix[a][b], sections[b][1][t]) for b in range(m))) for t in range(m)]
        mixed.append({"X": [ex.p_str(p, names) for p in vec], "xi": [ex.p_str(p, names) for p in cov]})
    u = ex.rand_unipotent(rng, k, 2)
    e_frame = [[str(u[j][a - r]) if a >= r else "0" for a in range(m)] for j in range(k)]
    h = [ex.rand_poly(rng, m, y, 3, 2, 2) for _ in range(k)]
    v_polys = [[ex.p_const(m, 1 if a == i else 0) if a < r else ex.p_partial(h[a - r], i) for a in range(m)] for i in range(r)]
    v_frame = [[ex.p_str(p, names) for p in field] for field in v_polys]
    doc: dict = {
        "name": f"embed{r}_{k}",
        "dirac_manifold": {"dim": m, "sections": mixed, "E_frame": e_frame, "V_frame": v_frame},
        "samples": [[str(ex.rand_q(rng, 3)) for _ in range(m + k)] for _ in range(EMBED_SAMPLES)],
    }
    if compare:
        v1 = []
        for field in v_polys:
            l = rng.randrange(k)
            q = ex.rand_poly(rng, m, list(range(m)), 1, 2, 2)
            v1.append([ex.p_add(p, ex.p_scale(q, u[l][a - r])) if a >= r else p for a, p in enumerate(field)])
        doc["compare_v_frames"] = {"v0": v_frame, "v1": [[ex.p_str(p, names) for p in f] for f in v1]}

    def check_doc(out: dict) -> None:
        _require(len(out["samples"]) == EMBED_SAMPLES, "embed lost samples")
        for sample in out["samples"]:
            _require(sample["graph"] and sample["zero_section_coisotropic"] and sample["zero_section_pullback_matches"],
                     "a sample check failed")
        if compare:
            cmp = out["comparison"]
            _require(cmp["closed"] and cmp["one_form_difference_vanishes_on_base"] and cmp["intertwines_at_all_samples"],
                     "splitting comparison failed")

    return _cli_op(f"embed{r}_{k}{'x' if extract else ''}{'c' if compare else ''}", path, doc, "embed", check_doc)


def make_op(workload: str, seed: int, index: int, workdir: Path) -> Op:
    """Operation `index` of a workload; negative indices are warm-up ops."""
    rng = _rng(workload, seed, index)
    if workload == "linear_iso":
        kind, n, *params = LINEAR_SCHEDULE[index % len(LINEAR_SCHEDULE)]
        return _op_iso(rng, n, *params) if kind == "iso" else _op_split(rng, n)
    if workload == "symbolic":
        kind, n = SYMBOLIC_SCHEDULE[index % len(SYMBOLIC_SCHEDULE)]
        return {"jac": _op_jac, "push": _op_push, "det": _op_det}[kind](rng, n)
    path = workdir / f"op{index}.json"
    if workload == "pointwise_cli":
        kind, n, height = POINTWISE_SCHEDULE[index % len(POINTWISE_SCHEDULE)]
        return _op_pointwise(rng, kind, n, height, path)
    if workload == "embed_cli":
        r, k, compare, extract = EMBED_SCHEDULE[index % len(EMBED_SCHEDULE)]
        return _op_embed(rng, r, k, compare, extract, path)
    raise ValueError(f"unknown workload {workload!r}")


SCHEDULES = {
    "linear_iso": LINEAR_SCHEDULE,
    "pointwise_cli": POINTWISE_SCHEDULE,
    "symbolic": SYMBOLIC_SCHEDULE,
    "embed_cli": EMBED_SCHEDULE,
}
