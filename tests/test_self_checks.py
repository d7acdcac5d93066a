"""Every runtime self-check fires: the one fault table.

A construction that proves its result by a second route raises PropertyViolationError
when the routes disagree, exit 3 on the command line.  Each row of FAULTS injects a fault
into the route that one such check cross-checks, never into the check's own condition,
and expects that check's message; where a command reaches the check, the row runs through
cli.main.  Each row first runs unpatched, and that run passes: a command exits 0, and a
Python call returns, or refuses an input that only the injected fault lets through.  The
last row is the document field that reads as a self-check, pushforward's
`poisson_preserved`.

`test_every_self_check_has_a_row` reads each `raise PropertyViolationError(...)` under
src/poisdirac/ and fails on one whose message no row expects, so a new self-check comes
with its fault.  It walks the sources with tests/test_refusals.py's refusal guard.
"""

import json
from pathlib import Path

import pytest

import poisdirac
from poisdirac import embedding, poisson_linear, submanifolds
from poisdirac.bivector_fields import BivectorField, TwoFormField
from poisdirac.cli import main
from poisdirac.dirac_linear import from_bivector
from poisdirac.errors import PreconditionError, PropertyViolationError
from poisdirac.poisson_linear import (
    PoissonVS, coisotropic_splitting, greedy_complement, leaf_form_gram, linear_uniqueness_iso, subspace_in_basis,
)
from poisdirac.polynomials import Poly, PolyMap
from poisdirac.rational_linalg import MatrixQ, Subspace, _tail, inverse, linear_combination, stack
from test_refusals import unpinned_raises

PACKAGE = sorted(Path(poisdirac.__file__).parent.glob("*.py"))
SCENARIOS = Path(poisdirac.__file__).parent / "scenarios"

P4 = PoissonVS(4, MatrixQ.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]))
# the same pairing of x3 with x4, but 2 dx1 ^ dx2 on the leaf: another pullback to M3
P4_TWICE = PoissonVS(4, MatrixQ.from_rows([[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]))
M3 = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])  # coisotropic, e = <x3>
V2 = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
# E = <x1, x2> coisotropic with k = 2, whose greedy partners need both the pairing
# normalization and the Lagrangian correction
P_K2 = PoissonVS(4, MatrixQ.from_rows([[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]))
E2 = V2
# an automorphism of the V + E + E* model of (P4, M3, V2): f += e, which moves the point e of m
SHEAR = MatrixQ.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]])

EXTEND = ["extend", "--scenario", "ex_r6_extend.json"]
BRACKET = ["bracket", "--scenario", "bracket_sympl4.json"]
GRAPH4 = json.loads((SCENARIOS / "ex_graph4.json").read_text())
PARAMETRIZED_BRACKET = {"ambient": GRAPH4["ambient"], "submanifold": GRAPH4["submanifold"],
                        "f": "t1", "g": "t2", "points": [["1", "2"]]}
NOT_BASIC = {**json.loads((SCENARIOS / "bracket_sympl4.json").read_text()), "g": "x3"}


class _FirstRowsDropped(TwoFormField):
    """A two-form built without the entries (1, j), as by a loop over u that starts at 1."""

    @classmethod
    def from_upper(cls, variables, upper):
        return TwoFormField.from_upper(variables, {(u, v): p for (u, v), p in upper.items() if u > 0})


def _moved_x1(variables, entries):
    """The extracted bivector with x1 added to entry (1,3) and taken from (3,1)."""
    x1 = Poly.variable(variables, variables[0])
    rows = [list(row) for row in entries]
    rows[0][2], rows[2][0] = rows[0][2] + x1, rows[2][0] - x1
    return BivectorField(variables, tuple(map(tuple, rows)))


def _tail_without_its_last_row(work, k, n):
    """`_tail` whose rows with A x = 0 lose the last one."""
    rank, rows = _tail(work, k, n)
    return rank, rows[:-1]


_JACOBIAN = PolyMap.jacobian
_TANGENT_AT = submanifolds.tangent_at


# id: (site, fault, run, expected).  A fault patches the program through pytest's
# monkeypatch; a run is a command line, whose scenario may be a document, or a Python call;
# expected is the site's message, or (field, value) for a document field that the fault flips.
FAULTS = {
    # classify's rows have nonzero characteristic subspaces, so rank rho, read as s minus
    # their dimension, grows by one; extend classifies only its cosymplectic w, whose
    # characteristic subspace is zero anyway
    "rank(rho): the characteristic rows of the one elimination lose the last": (
        "poisson_linear.classify_subspace",
        lambda mp: mp.setattr(poisson_linear, "_tail", _tail_without_its_last_row),
        ["classify", "--scenario", "ex_r6.json"], "rank(rho) identities disagree; bivector data is inconsistent"),
    "covector extension: the system lists w's basis twice": (
        "poisson_linear.induced_bivector",
        lambda mp: mp.setattr(poisson_linear, "stack", lambda first, *rest: stack(first, first, *rest)),
        EXTEND, "covector extension system is inconsistent"),
    "covector extension: the system drops sharp(ann w)": (
        "poisson_linear.induced_bivector",
        lambda mp: mp.setattr(poisson_linear, "stack", lambda first, *rest: first),
        EXTEND, "sharp of the extension left the subspace"),
    "embedding conditions: c in w's coordinates loses its last row": (
        "poisson_linear.embedding_conditions",
        lambda mp: mp.setattr(poisson_linear, "subspace_in_basis",
                              lambda s, w: Subspace(w.dim, subspace_in_basis(s, w).rows[:-1])),
        EXTEND, "conditions hold but c is not coisotropic in the induced bivector"),
    "cosymplectic extension: the greedy complement loses its last row": (
        "poisson_linear.cosymplectic_extension",
        lambda mp: mp.setattr(poisson_linear, "greedy_complement", lambda b, c: greedy_complement(b, c)[:-1, :]),
        EXTEND, "constructed extension failed its defining conditions"),
    "canonical isomorphism: the leaf form Gram gains the identity": (
        "poisson_linear.canonical_iso",
        lambda mp: mp.setattr(poisson_linear, "leaf_form_gram",
                              lambda p, xs, ys: leaf_form_gram(p, xs, ys) + MatrixQ.identity(xs.rows)),
        ["phi", "--scenario", "ex_r6_phi.json"], "canonical isomorphism image left w"),
    "splitting: the greedy partners of e lose their last row": (
        "poisson_linear.coisotropic_splitting",
        lambda mp: mp.setattr(poisson_linear, "greedy_complement", lambda b, c: greedy_complement(b, c)[:-1, :]),
        lambda: coisotropic_splitting(P4, M3, V2), "could not complete e to sharp(ann v)"),
    "splitting: the Lagrangian correction is skipped": (
        "poisson_linear.coisotropic_splitting",
        lambda mp: mp.setattr(poisson_linear, "linear_combination", lambda first, *rest: linear_combination(first)),
        lambda: coisotropic_splitting(P_K2, E2), "pushed bivector does not match the V + E + E* model"),
    "splitting: the pairing normalization is doubled": (
        "poisson_linear.coisotropic_splitting",
        lambda mp: mp.setattr(poisson_linear, "inverse", lambda m: inverse(m).scale(2) if m.rows == 2 else inverse(m)),
        lambda: coisotropic_splitting(P_K2, E2), "pushed bivector does not match the V + E + E* model"),
    # the two structures induce different pullbacks on M3, which the precondition compares
    # on m intersect the leaf; a leaf read as zero compares nothing
    "uniqueness: the leaf reads as zero": (
        "poisson_linear.linear_uniqueness_iso",
        lambda mp: mp.setattr(PoissonVS, "leaf", lambda p: Subspace.zero(p.dim)),
        lambda: linear_uniqueness_iso(P4, P4_TWICE, M3, V2), "splitting models disagree despite equal pullback data"),
    # the sheared inverse passes the model check; linear_uniqueness_iso's map would move e
    "splitting: the inverse change of basis is sheared by a model automorphism": (
        "poisson_linear.coisotropic_splitting",
        lambda mp: mp.setattr(poisson_linear, "inverse", lambda m: SHEAR @ inverse(m) if m.rows == 4 else inverse(m)),
        lambda: linear_uniqueness_iso(P4, P4, M3, V2), "inverse change of basis does not invert the change of basis"),
    "tangent preimage: the tangent is taken at the next parameter": (
        "submanifolds.PointData._directions",
        lambda mp: mp.setattr(submanifolds, "tangent_at", lambda c, q: _TANGENT_AT(c, (q[0] + 1, *q[1:]))),
        ["bracket", "--scenario", PARAMETRIZED_BRACKET], "tangent basis vector has no parameter preimage"),
    "bracket: the characteristic subspace reads zero": (
        "submanifolds.PointData.bracket",
        lambda mp: mp.setattr(submanifolds, "characteristic_subspace", lambda p, c: Subspace.zero(p.dim)),
        ["bracket", "--scenario", NOT_BASIC], "bracket value depends on the solution choice"),
    "bracket: the complement in W repeats the tangent": (
        "submanifolds.PointData.consistency",
        lambda mp: mp.setattr(submanifolds, "greedy_complement", lambda b, c: c[:greedy_complement(b, c).rows, :]),
        BRACKET, "covector extension to the cosymplectic subspace failed"),
    "bracket: the intrinsic route reads the graph of -Pi": (
        "submanifolds.PointData.consistency",
        lambda mp: mp.setattr(submanifolds, "from_bivector", lambda p: from_bivector(PoissonVS(p.dim, p.pi.scale(-1)))),
        BRACKET, "bracket routes disagree at (1, 2, 3, 0): intrinsic 1, extension -1"),
    "gauge form: d(theta) loses the entries of the first coordinate": (
        "embedding._gauged",
        lambda mp: mp.setattr(embedding, "TwoFormField", _FirstRowsDropped),
        ["embed", "--scenario", "ex_r3_tilted.json"], "derived gauge form is not closed; d^2 = 0 was violated"),
    "embedding: no structure is a graph": (
        "embedding.build_embedding",
        lambda mp: mp.setattr(embedding, "as_bivector", lambda structure: None),
        ["embed", "--scenario", "ex_r4_dirac.json"],
        "structure is not a bivector graph at the zero-section point (-1, 0, -3, 0)"),
    # adding x1 or x2 to (1,2) alone leaves the field Poisson
    "embedding: the extracted bivector moves x1 between (1,3) and (3,1)": (
        "embedding._extract_symbolic_bivector",
        lambda mp: mp.setattr(embedding, "BivectorField", _moved_x1),
        ["embed", "--scenario", "ex_r4_dirac.json"], "extracted polynomial bivector fails the Jacobi identity"),
    "pushforward: the Jacobian is transposed": (
        "bivector_fields.pushforward",
        lambda mp: mp.setattr(PolyMap, "jacobian", lambda phi: tuple(zip(*_JACOBIAN(phi)))),
        ["pushforward", "--scenario", "ex_r4_push.json", "--porcelain"], ("poisson_preserved", False)),
}


def report(capsys, tmp_path, run) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a row's run.  A Python call reports a self-check and a
    refusal as cli.main does; a scenario document is written to a file first."""
    if callable(run):
        try:
            run()
        except PreconditionError as exc:
            return 2, "", f"precondition failed: {exc}\n"
        except PropertyViolationError as exc:
            return 3, "", f"property violation: {exc}\n"
        return 0, "", ""
    argv = list(run)
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            argv[i] = tmp_path / "scenario.json"
            argv[i].write_text(json.dumps(arg))
    code = main([str(arg) for arg in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("case", FAULTS)
def test_a_fault_in_the_route_fires_its_check(capsys, monkeypatch, tmp_path, case):
    _site, fault, run, expected = FAULTS[case]
    passing = report(capsys, tmp_path, run)
    # the uniqueness row's structures differ on m, so unpatched they are refused
    assert passing[0] == 0 or (callable(run) and passing[0] == 2)
    fault(monkeypatch)
    code, out, err = report(capsys, tmp_path, run)
    if isinstance(expected, tuple):
        field, value = expected
        assert json.loads(passing[1])[field] == (not value)
        assert (code, json.loads(out)[field], err) == (0, value, "")
    else:
        assert (code, out, err) == (3, "", f"property violation: {expected}\n")


def _self_check(kind: str) -> bool:
    return kind == "PropertyViolationError"


def test_every_self_check_has_a_row():
    messages = [expected for *_, expected in FAULTS.values() if isinstance(expected, str)]
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unpinned_raises(sources, messages, _self_check) == []
    assert unpinned_raises(sources, [], _self_check), "no self-check was read"


def test_a_stray_self_check_is_found():
    source = (
        "def check(x):\n"
        "    if x:\n"
        "        raise PropertyViolationError('pinned check')\n"
        "    if x > 1:\n"
        "        raise PropertyViolationError(f'pinned at {x}: more')\n"
        "    if x > 2:\n"
        "        raise errors.PropertyViolationError(f'{x} starts with a value')\n"
        "    if x > 3:\n"
        "        raise PropertyViolationError\n"
        "    raise PropertyViolationError('a new check')\n"
    )
    assert unpinned_raises({"m.py": source}, ["pinned check", "pinned at 3: more"], _self_check) == [
        "m.py:7: '{} starts with a value'", "m.py:9: ''", "m.py:10: 'a new check'"]
