"""Every refusal ends in its exception and its whole message: the one API refusal table.

A refusal names the hypothesis an input failed: a shape, a variable context, the grammar
of a number or a polynomial, a bound on size or work, or a condition of the paper's
constructions (a Poisson-Dirac, cosymplectic or coisotropic subspace, a regular point, a
frame with a polynomial coframe).  Each row of API_REFUSALS makes one call of the Python
API and pins the exact exception type and the whole message.  tests/test_cli.py::REFUSALS
is the command-line table: an input, its exit code and its diagnostic.

`test_every_refusal_has_a_row` reads every `raise` under src/poisdirac/ and fails on one
whose message no row of the two tables matches, so a new refusal comes with its row.  It
runs each row and pairs its message with the sites that raised during the run, and a site
matches only the rows it is paired with: a message that starts with a formatted value
cannot pass on another site's row.  tests/test_self_checks.py reads the
PropertyViolationError sites with the same walker, against its FAULTS table.
"""

import ast
import os
import re
import string
import sys
import traceback
from contextlib import contextmanager, suppress
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest

import poisdirac
from gen import pullback_canonical_form
from poisdirac import polynomials
from poisdirac.bivector_fields import BivectorField, TwoFormField, jacobiator, pushforward
from poisdirac.cli import main
from poisdirac.dirac_linear import DiracVS, change_basis, from_bivector, from_subspace_form, gauge, pullback
from poisdirac.embedding import DiracManifoldData, Section, build_embedding, compare_splittings
from poisdirac.errors import (
    NotUnimodularError, PreconditionError, RegularityError, SchemaError, SpaceMismatchError,
)
from poisdirac.poisson_linear import (
    PoissonVS, canonical_iso, characteristic_subspace, classify_subspace, coisotropic_splitting,
    cosymplectic_extension, embedding_conditions, induced_bivector, is_coisotropic, is_cosymplectic, leaf_form_gram,
    leaf_form_value, linear_uniqueness_iso, sharp_image, subspace_in_basis,
)
from poisdirac.polynomials import (
    MAX_EXPONENT, Poly, PolyMap, ambient_variables, compose_map, poly_matrix_det, poly_matrix_inverse,
    sum_of_products, values_at,
)
from poisdirac.rational_linalg import (
    MAX_DIGITS, MatrixQ, Subspace, add, contains, image, intersect, inverse, linear_combination, rat, solve, stack,
)
from poisdirac.scenario import load_scenario_text
from poisdirac.submanifolds import LevelSet, Parametrized, PointData, grid_points_on, tangent_at
from test_cli import REFUSALS as CLI_REFUSALS
from test_cli import refusal_argv
from test_embedding import r4_data

PACKAGE = sorted(Path(poisdirac.__file__).parent.glob("*.py"))
PACKAGE_DIR = str(Path(poisdirac.__file__).parent) + os.sep

X2, X3, X4 = ambient_variables(2), ambient_variables(3), ambient_variables(4)
Y2 = ("y1", "y2")
J2 = MatrixQ.from_rows([[0, 1], [-1, 0]])
P2 = PoissonVS(2, J2)
P4 = PoissonVS(4, MatrixQ.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]))
# the same pairing of x3 with x4, but 2 dx1 ^ dx2 on the leaf: another pullback to M3
P4_TWICE = PoissonVS(4, MatrixQ.from_rows([[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]))
# the leaf of this bivector is the x1-x2 plane
P4_LEAF12 = PoissonVS(4, MatrixQ.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
E1 = Subspace.span(4, [[1, 0, 0, 0]])
E12 = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
M3 = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
DUAL_E1 = Subspace.span(4, [[1, 0, 0, 0]], dual=True)
ON_LEAF = MatrixQ.from_rows([[1, 2, 0, 0]])
OFF_LEAF = MatrixQ.from_rows([[0, 0, 1, 0]])
ON = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
PRIMAL_MESSAGE = "subspace must be primal and match the ambient dimension"
SPAN_MESSAGE = "span must be a primal subspace of dimension-2n coordinates"
FORM_SIZE = "form matrix must match the subspace dimension"
FLOAT_05 = "cannot interpret 0.5 as a rational (floats are not accepted)"
FRAME_FIELDS = "E and V frame fields must have base_dim entries"

BROKEN = BivectorField.from_upper(X3, {(0, 1): "1", (0, 2): "x1"})
SYMPL4 = BivectorField.from_upper(X4, {(0, 1): "1", (2, 3): "1"})
C_HYPER = LevelSet((Poly.parse("x4", X4),))
AT_1230 = PointData(SYMPL4, C_HYPER, (Fraction(1), Fraction(2), Fraction(3), Fraction(0)))
# entries in a reordered context, whose exponent vectors would be read by position: a field
# refuses them when it is built, before any Jacobiator or form reads them
REORDERED = tuple(tuple(Poly.make(("x2", "x1", "x3"), {(e[1], e[0], e[2]): c for e, c in p.terms}) for p in row)
                  for row in BivectorField.from_upper(X3, {(0, 1): "x3", (1, 2): "x1"}).entries)
ANTISYMMETRIC_OFF = ((Poly.zero(X3), Poly.constant(X3, 1), Poly.zero(X3)),
                     (Poly.constant(X3, 1), Poly.zero(X3), Poly.zero(X3)), (Poly.zero(X3),) * 3)
# no constant entry and det(0, 0) = det(1, 1) = 2: the inverse goes straight to the expansion
NO_CONSTANT_PIVOT = [[Poly.parse(t, X2) for t in row] for row in
                     [["1 + x1", "x1 - 1", "x2"], ["x1 + x2", "x1", "1 + x2"], ["x1 - 1", "x1 - 1", "x1"]]]


def _q2(text: str) -> Poly:
    return Poly.parse(text, X2)


def _frames_of_length(frame: str, length: int) -> DiracManifoldData:
    """Planar data whose e_frame or v_frame field has `length` entries."""
    one, zero = Poly.constant(X2, 1), Poly.zero(X2)
    frames = {"e_frame": ((zero, one),), "v_frame": ((one, zero),)}
    frames[frame] = ((one,) + (zero,) * (length - 1),)
    sections = (Section((zero, zero), (one, zero)), Section((zero, one), (zero, zero)))
    return DiracManifoldData(base_dim=2, sections=sections, **frames)


def _frame(*fields: tuple[str, ...]) -> tuple[tuple[Poly, ...], ...]:
    return tuple(tuple(Poly.parse(t, X3) for t in field) for field in fields)


# r4_data's v frame, and the same with (0, 0, 1), which spans E, in place of (1, 0, 0)
R4_V = _frame(("1", "0", "0"), ("0", "1", "0"))
V_INTO_E = _frame(("0", "0", "1"), ("0", "1", "0"))


ANALYSES = {
    "sharp_annihilator": lambda p, s: p.sharp_annihilator(s),
    "characteristic_subspace": characteristic_subspace,
    "classify_subspace": classify_subspace,
    "induced_bivector": induced_bivector,
    "cosymplectic_extension": cosymplectic_extension,
    "coisotropic_splitting": coisotropic_splitting,
    "embedding_conditions": lambda p, s: embedding_conditions(p, s, s),
    "linear_uniqueness_iso": lambda p, s: linear_uniqueness_iso(p, p, s, s),
}
UNHOLDABLE = {"a dual subspace": (P4, DUAL_E1), "a subspace of another ambient": (P2, M3)}
RATIONAL_TEXTS = ["0.5", "1e3", "1/0", "2/00", " 1", "1_000", "1/-2", "inf", ""]
LONG = "9" * (MAX_DIGITS + 1)
ABOVE_MAX_EXPONENT = {f"x1^{MAX_EXPONENT + 1}": (MAX_EXPONENT + 1, "x1"),
                      f"x2*x1^{MAX_EXPONENT}*x1": (MAX_EXPONENT + 1, "x1"),
                      "3*x3^100000000000000000000": (10 ** 20, "x3")}

# id: (call, exception type, message)
API_REFUSALS = {
    # -- rational_linalg: numbers, matrices and subspaces --------------------------------
    **{f"rational text {text!r}": (lambda text=text: rat(text), ValueError,
                                   f"not a rational 'p/q' string with a nonzero denominator: {text!r}")
       for text in RATIONAL_TEXTS},
    "numerator of too many digits": (lambda: rat(LONG), ValueError,
                                     f"rational has a numerator or denominator of more than {MAX_DIGITS} digits"),
    "denominator of too many digits": (lambda: rat("1/" + LONG), ValueError,
                                       f"rational has a numerator or denominator of more than {MAX_DIGITS} digits"),
    "grid of another shape": (lambda: MatrixQ(2, 2, [[1, 2]]), ValueError, "entry grid does not match declared shape"),
    "no rows and no width": (lambda: MatrixQ.from_rows([]), ValueError, "cannot infer column count of an empty matrix"),
    "sum of other shapes": (lambda: MatrixQ.zeros(2, 2) + MatrixQ.zeros(2, 3), SpaceMismatchError,
                            "shape mismatch: 2x2 vs 2x3"),
    "difference of other shapes": (lambda: MatrixQ.zeros(2, 3) - MatrixQ.zeros(2, 2), SpaceMismatchError,
                                   "shape mismatch: 2x3 vs 2x2"),
    "linear combination of other shapes": (
        lambda: linear_combination((1, MatrixQ.zeros(2, 2)), (2, MatrixQ.zeros(2, 2)), (1, MatrixQ.zeros(2, 3))),
        SpaceMismatchError, "shape mismatch: 2x2 vs 2x3"),
    "product of unmatched shapes": (lambda: MatrixQ.zeros(2, 3) @ MatrixQ.zeros(2, 3), SpaceMismatchError,
                                    "cannot multiply 2x3 by 2x3"),
    "vector of another length": (lambda: MatrixQ.identity(2).matvec((1, 2, 3)), SpaceMismatchError,
                                 "matrix has 2 columns, vector has length 3"),
    "stack of other widths": (lambda: stack(MatrixQ.zeros(1, 2), MatrixQ.zeros(1, 3)), SpaceMismatchError,
                              "stacked matrices differ in column count"),
    "right-hand side of another width": (lambda: solve(MatrixQ.from_rows([[1, 1], [2, 2]]), MatrixQ.zeros(1, 3)),
                                         SpaceMismatchError, "right-hand side length does not match row count"),
    "inverse of a non-square matrix": (lambda: inverse(MatrixQ.zeros(2, 3)), SpaceMismatchError,
                                       "only square matrices can be inverted"),
    "inverse of a singular matrix": (lambda: inverse(MatrixQ.from_rows([[1, 2], [2, 4]])), ValueError,
                                     "matrix is singular"),
    "basis of another width": (lambda: Subspace(3, ((1, 0),)), SpaceMismatchError,
                               "basis width does not match ambient dimension"),
    "coordinates of rows of another width": (
        lambda: Subspace.full(3).coordinates_of_rows(MatrixQ.from_rows([(Fraction(1), Fraction(0))])),
        SpaceMismatchError, "vector length does not match ambient dimension"),
    **{f"{op.__name__} of subspaces of other ambients": (
        lambda op=op: op(Subspace.full(2), Subspace.zero(3)), SpaceMismatchError, "ambient dimensions differ: 2 vs 3")
       for op in (add, intersect, contains)},
    **{f"{op.__name__} of a primal and a dual subspace": (
        lambda op=op: op(Subspace.full(2), Subspace.zero(2, dual=True)), SpaceMismatchError,
        "cannot mix primal and dual subspaces") for op in (add, intersect, contains)},
    "image of a subspace of another ambient": (lambda: image(MatrixQ.identity(2), Subspace.full(3)), SpaceMismatchError,
                                               "map source does not match subspace ambient"),
    # -- polynomials: terms, the grammar, contexts and the work caps ---------------------
    "exponent vector of another length": (lambda: Poly.make(("x1",), {(1, 0): 1}), ValueError,
                                          "bad exponent vector (1, 0) for variables ('x1',)"),
    "negative exponent": (lambda: Poly.make(("x1",), {(-1,): 1}), ValueError,
                          "bad exponent vector (-1,) for variables ('x1',)"),
    "unknown variable": (lambda: Poly.variable(("x1",), "x2"), ValueError, "unknown variable 'x2' (context: ('x1',))"),
    "derivative in an unknown variable": (lambda: Poly.parse("x1", X3).partial("z9"), ValueError,
                                          "unknown variable 'z9' (context: ('x1', 'x2', 'x3'))"),
    "value of a non-constant": (lambda: Poly.variable(("x1",), "x1").constant_value(), ValueError,
                                "polynomial is not constant"),
    "negative power": (lambda: Poly.variable(("x1",), "x1") ** -1, ValueError, "negative powers are not polynomials"),
    "polynomial text in an unknown variable": (lambda: Poly.parse("x9", X3), ValueError,
                                               "unknown variable 'x9' (context: ('x1', 'x2', 'x3'))"),
    "zero term in an unknown variable": (lambda: Poly.parse("0*x9", X3), ValueError,
                                         "unknown variable 'x9' (context: ('x1', 'x2', 'x3'))"),
    "empty polynomial text": (lambda: Poly.parse("", X3), ValueError, "empty polynomial string"),
    "character outside the grammar": (lambda: Poly.parse("x1 $ x2", X3), ValueError,
                                      "cannot tokenize 'x1 $ x2' at position 2"),
    "factor without its star": (lambda: Poly.parse("2x1", X3), ValueError, "missing '*' before 'x1'"),
    "term that starts with a star": (lambda: Poly.parse("*x1", X3), ValueError, "term cannot start with '*'"),
    "caret without an exponent": (lambda: Poly.parse("x1^", X3), ValueError,
                                  "'^' must be followed by a nonnegative integer"),
    "caret without a variable": (lambda: Poly.parse("^2", X3), ValueError, "Invalid literal for Fraction: '^'"),
    "sign without a term": (lambda: Poly.parse("x1 +", X3), ValueError, "empty term"),
    "zero denominator": (lambda: Poly.parse("1/0*x1", X3), ValueError, "zero denominator in coefficient '1/0'"),
    **{f"exponent above the maximum in {text!r}": (
        lambda text=text: Poly.parse(text, X3), ValueError, f"exponent {power} of {var} exceeds the maximum {MAX_EXPONENT}")
       for text, (power, var) in ABOVE_MAX_EXPONENT.items()},
    "product of different contexts": (lambda: Poly.variable(X3, "x1") * Poly.variable(Y2, "y1"), SpaceMismatchError,
                                      "variable contexts differ: ('x1', 'x2', 'x3') vs ('y1', 'y2')"),
    "product term outside the context": (
        lambda: sum_of_products(X3, [(Poly.variable(X3, "x1"), Poly.variable(Y2, "y1"))]), SpaceMismatchError,
        "product of ('x1', 'x2', 'x3') and ('y1', 'y2') in the context ('x1', 'x2', 'x3')"),
    "products in another context": (
        lambda: sum_of_products(Y2, [(Poly.variable(X3, "x1"), Poly.variable(X3, "x2"))]), SpaceMismatchError,
        "product of ('x1', 'x2', 'x3') and ('x1', 'x2', 'x3') in the context ('y1', 'y2')"),
    "point of another length": (lambda: values_at(((Poly.zero(X3),),), (Fraction(1), Fraction(2))), SpaceMismatchError,
                                "point length 2 != variable count 3"),
    "component on other variables": (lambda: PolyMap(("x1",), (Poly.variable(("x2",), "x2"),)), SpaceMismatchError,
                                     "component variables do not match the source context"),
    "composition of unmatched arity": (
        lambda: compose_map(PolyMap.parse(["x1"], ("x1",)), PolyMap.parse(["t1", "t1"], ("t1",))), SpaceMismatchError,
        "map composition arity mismatch"),
    "composition in the empty context": (
        lambda: compose_map(PolyMap((), (Poly.constant((), 3),)), PolyMap((), ())), SpaceMismatchError,
        "substitution polynomials must share one variable context"),
    "product past the term cap": (
        patch.object(polynomials, "MAX_PRODUCT_TERMS", 3)(lambda: _q2("x1 + x2") * _q2("x1 - x2 + 1")),
        PreconditionError, "a polynomial product needs more than 3 terms"),
    **{f"{f.__name__} past the work cap": (
        patch.object(polynomials, "MAX_MINOR_TERMS", 20)(lambda f=f: f(NO_CONSTANT_PIVOT)), PreconditionError,
        "the cofactor expansion of a 3 x 3 polynomial matrix needs more than 20 terms")
       for f in (poly_matrix_det, poly_matrix_inverse)},
    "inverse of a non-unimodular matrix": (lambda: poly_matrix_inverse([[_q2("x1"), _q2("1")], [_q2("0"), _q2("1")]]),
                                           NotUnimodularError,
                                           "matrix determinant is not a nonzero constant; inverse is not polynomial"),
    # passes the two-point test; refused when no constant pivot is left, by det S of the block S
    "inverse of a matrix whose remaining block has a nonconstant determinant": (
        lambda: poly_matrix_inverse(NO_CONSTANT_PIVOT), NotUnimodularError,
        "matrix determinant is not a nonzero constant; inverse is not polynomial"),
    **{f"{f.__name__} of an empty matrix": (lambda f=f: f([]), ValueError, "empty matrix has no determinant")
       for f in (poly_matrix_det, poly_matrix_inverse)},
    **{f"{f.__name__} of a {kind} matrix": (lambda f=f, rows=rows: f([[_q2(t) for t in row] for row in rows]),
                                            SpaceMismatchError, message)
       for f in (poly_matrix_det, poly_matrix_inverse)
       for kind, rows, message in (
           ("wide", [["x1", "1", "1"], ["1", "x1", "1"]], "matrix has 2 rows but row lengths [3]; it must be square"),
           ("ragged", [["x1", "1"], ["1"]], "matrix has 2 rows but row lengths [1, 2]; it must be square"))},
    # -- poisson_linear: structures, subspaces and the paper's conditions ---------------
    "bivector of another size": (lambda: PoissonVS(3, J2), SpaceMismatchError,
                                 "bivector matrix shape does not match dimension"),
    "symmetric bivector": (lambda: PoissonVS(2, MatrixQ.identity(2)), PreconditionError,
                           "bivector matrix must be antisymmetric"),
    "sharp image of a primal subspace": (lambda: sharp_image(P4, E1), SpaceMismatchError,
                                         "sharp consumes dual subspaces; got a primal one"),
    **{f"{name} of {kind}": (lambda a=analysis, p=p, s=s: a(p, s), SpaceMismatchError, PRIMAL_MESSAGE)
       for name, analysis in ANALYSES.items() for kind, (p, s) in UNHOLDABLE.items()},
    # sharp_annihilator refuses a subspace of another ambient first
    "structures of different dimensions": (lambda: linear_uniqueness_iso(P2, P4, Subspace.full(4), Subspace.full(4)),
                                           SpaceMismatchError, PRIMAL_MESSAGE),
    "coisotropic flag of a dual subspace": (lambda: is_coisotropic(P4, DUAL_E1), SpaceMismatchError, PRIMAL_MESSAGE),
    "coisotropic flag in another ambient": (lambda: is_coisotropic(P4, Subspace.full(2)), SpaceMismatchError,
                                            PRIMAL_MESSAGE),
    "cosymplectic flag of a dual subspace": (lambda: is_cosymplectic(P4, DUAL_E1), SpaceMismatchError, PRIMAL_MESSAGE),
    "cosymplectic flag in another ambient": (lambda: is_cosymplectic(P4, Subspace.full(2)), SpaceMismatchError,
                                             PRIMAL_MESSAGE),
    "induced bivector on a subspace that is not Poisson-Dirac": (
        lambda: induced_bivector(P4, E1), PreconditionError,
        "subspace is not pointwise Poisson-Dirac: extension of covectors is not well defined"),
    "c outside w": (lambda: embedding_conditions(P4, E12, E1), PreconditionError, "c must be contained in w"),
    "subspace outside the coordinate subspace": (lambda: subspace_in_basis(E12, E1), PreconditionError,
                                                 "subspace is not contained in the coordinate subspace"),
    "leaf form of vectors off the leaf": (
        lambda: leaf_form_value(PoissonVS(2, MatrixQ.zeros(2, 2)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        PreconditionError, "leaf form is only defined on the image of sharp"),
    **{f"leaf form {what} with {side} off the leaf": (
        lambda call=call: call(OFF_LEAF, ON_LEAF) if side == "x" else call(ON_LEAF, OFF_LEAF), PreconditionError,
        "leaf form is only defined on the image of sharp")
       for what, call in (("Gram", lambda x, y: leaf_form_gram(P4_LEAF12, x, y)),
                          ("value", lambda x, y: leaf_form_value(P4_LEAF12, x.entries[0], y.entries[0])))
       for side in ("x", "y")},
    # every length is checked before the one solve: a short vector raises wherever it
    # sits, also behind a vector off the leaf
    "leaf form Gram of a short x": (lambda: leaf_form_gram(P4_LEAF12, MatrixQ.from_rows([[1, 0]]), MatrixQ.zeros(0, 4)),
                                    SpaceMismatchError, "vector length does not match ambient dimension"),
    "leaf form Gram of a short y behind an x off the leaf": (
        lambda: leaf_form_gram(P4_LEAF12, OFF_LEAF, MatrixQ.from_rows([[1, 0]])), SpaceMismatchError,
        "vector length does not match ambient dimension"),
    "leaf form Gram of a float x": (lambda: leaf_form_gram(P4, MatrixQ.from_rows([(0.5, 0, 0, 0)]), ON_LEAF),
                                    TypeError, FLOAT_05),
    "leaf form Gram of a float y": (
        lambda: leaf_form_gram(P4, ON_LEAF, MatrixQ.from_rows([ON, (0, 0.5, 0, 0)])), TypeError, FLOAT_05),
    "leaf form Gram of no x and a float y": (
        lambda: leaf_form_gram(P4, MatrixQ.zeros(0, 4), MatrixQ.from_rows([(0, 0, 0, 0.5)])), TypeError, FLOAT_05),
    "leaf form value of a float y": (lambda: leaf_form_value(P4, ON, (0, 0, 0.5, 0)), TypeError, FLOAT_05),
    "sharp of a float covector": (lambda: P2.sharp((0.5, 0)), TypeError, FLOAT_05),
    "canonical isomorphism from a v that is not cosymplectic": (lambda: canonical_iso(P4, E1, E1, E12),
                                                                PreconditionError, "v is not cosymplectic"),
    "splitting along a subspace that is not coisotropic": (lambda: coisotropic_splitting(P4, E1), PreconditionError,
                                                           "subspace is not coisotropic"),
    # coisotropic, but sharp(ann m) is 0-dim
    "splitting with a codimension mismatch": (
        lambda: coisotropic_splitting(PoissonVS(3, MatrixQ.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])),
                                      Subspace.span(3, [[1, 0, 0], [0, 1, 0]])),
        PreconditionError, "sharp is not injective on the annihilator (codimension mismatch)"),
    "v that is no complement": (lambda: coisotropic_splitting(P4, Subspace.full(4), E1), PreconditionError,
                                "supplied v is not a complement of e inside m"),
    "uniqueness of structures with other sharp images along m": (
        lambda: linear_uniqueness_iso(P2, PoissonVS(2, MatrixQ.zeros(2, 2)), Subspace.span(2, [[1, 0]]),
                                      Subspace.zero(2)),
        PreconditionError, "sharp images of the annihilator differ; structures do not match along m"),
    "uniqueness of structures with other pullbacks to m": (
        lambda: linear_uniqueness_iso(P4, P4_TWICE, M3, E12), PreconditionError,
        "the two bivectors induce different pullback structures on m"),
    # -- dirac_linear: linear Dirac structures -------------------------------------------
    "span in another ambient": (lambda: DiracVS(2, Subspace.full(3)), SpaceMismatchError, SPAN_MESSAGE),
    "span of the dual": (lambda: DiracVS(1, Subspace.full(2, dual=True)), SpaceMismatchError, SPAN_MESSAGE),
    "span of another dimension": (lambda: DiracVS(2, Subspace.full(4)), PreconditionError,
                                  "a Dirac structure on Q^2 must have dimension 2, got 4"),
    "span that is not isotropic": (lambda: DiracVS(2, Subspace.span(4, [[1, 0, 1, 0], [0, 1, 0, 1]])), PreconditionError,
                                   "span is not isotropic for the symmetric pairing"),
    "carrier in the dual": (lambda: from_subspace_form(Subspace.full(2, dual=True), MatrixQ.zeros(2, 2)),
                            SpaceMismatchError, "the carrier subspace must be primal"),
    "form of another size": (lambda: from_subspace_form(Subspace.full(2), MatrixQ.zeros(3, 3)), SpaceMismatchError,
                             FORM_SIZE),
    "form not square": (lambda: from_subspace_form(Subspace.full(2), MatrixQ.zeros(2, 3)), SpaceMismatchError,
                        FORM_SIZE),
    "symmetric form": (lambda: from_subspace_form(Subspace.full(2), MatrixQ.identity(2)), PreconditionError,
                       "form matrix must be antisymmetric"),
    **{f"pullback to {kind}": (lambda target=target: pullback(from_bivector(P4), target), SpaceMismatchError,
                               "pullback target must be a primal subspace of the same ambient")
       for kind, target in (("another ambient", Subspace.full(3)), ("a dual subspace", Subspace.full(4, dual=True)))},
    "gauge form of another size": (lambda: gauge(from_bivector(P4), MatrixQ.zeros(3, 3)), SpaceMismatchError,
                                   "gauge form must be n x n"),
    "symmetric gauge form": (lambda: gauge(from_bivector(P4), MatrixQ.identity(4)), PreconditionError,
                             "gauge form must be antisymmetric"),
    "change of basis of another size": (lambda: change_basis(from_bivector(P4), MatrixQ.identity(3)),
                                        SpaceMismatchError, "change-of-basis matrix must be n x n"),
    # -- bivector_fields: fields, forms and pushforwards ---------------------------------
    # the scenario parser refuses these inputs first; no earlier check refuses them: a 0 x 0
    # two-form minus a 3 x 3 one would zip no rows, and mutually inverse maps of another
    # dimension pass the composition checks
    "grid rows": (lambda: BivectorField(X3, ((Poly.zero(X3),) * 3,) * 2), SpaceMismatchError,
                  "entry grid shape does not match the variable count"),
    "grid columns": (lambda: BivectorField(X3, ((Poly.zero(X3),) * 2,) * 3), SpaceMismatchError,
                     "entry grid shape does not match the variable count"),
    "Jacobiator of entries in another context": (lambda: jacobiator(BivectorField(X3, REORDERED)), SpaceMismatchError,
                                                 "entry polynomial has the wrong variable context"),
    "two-form of entries in another context": (lambda: TwoFormField(X3, REORDERED), SpaceMismatchError,
                                               "entry polynomial has the wrong variable context"),
    **{f"{cls.__name__} entry in another context": (
        lambda cls=cls: cls.from_upper(X3, {(0, 1): REORDERED[0][1]}), SpaceMismatchError,
        "entry polynomial has the wrong variable context") for cls in (BivectorField, TwoFormField)},
    **{f"{cls.__name__} grid that is not antisymmetric": (lambda cls=cls: cls(X3, ANTISYMMETRIC_OFF), PreconditionError,
                                                          "entries (0,1) and (1,0) are not antisymmetric")
       for cls in (BivectorField, TwoFormField)},
    "index below the diagonal": (lambda: BivectorField.from_upper(X3, {(1, 0): "1"}), ValueError,
                                 "upper-triangular index out of range: (1, 0)"),
    "index past the dimension": (lambda: TwoFormField.from_upper(X3, {(0, 3): "1"}), ValueError,
                                 "upper-triangular index out of range: (0, 3)"),
    "two-forms on other variables": (lambda: TwoFormField.from_upper(X3, {}) - TwoFormField.from_upper(("y1", "y2", "y3"), {}),
                                     SpaceMismatchError, "two-forms live on different patches"),
    "a two-form on no variables": (lambda: TwoFormField((), ()) - TwoFormField.from_upper(X3, {}), SpaceMismatchError,
                                   "two-forms live on different patches"),
    "field at a point of another length": (lambda: BivectorField.from_upper(X3, {(0, 1): "x3"}).at((Fraction(0),)),
                                           SpaceMismatchError, "point length 1 != variable count 3"),
    "zero field at a point of another length": (lambda: BivectorField.from_upper(X3, {}).at((0, 0)),
                                                SpaceMismatchError, "point length 2 != variable count 3"),
    "a diffeomorphism of another dimension": (lambda: pushforward(BROKEN, PolyMap.identity(X4), PolyMap.identity(X4)),
                                              SpaceMismatchError, "diffeomorphism dimensions do not match the field"),
    "pushforward along maps of another context": (
        lambda: pushforward(BROKEN, PolyMap.identity(("y1", "y2", "y3")), PolyMap.identity(("y1", "y2", "y3"))),
        SpaceMismatchError, "product of ('y1', 'y2', 'y3') and ('x1', 'x2', 'x3') in the context ('x1', 'x2', 'x3')"),
    "pushforward along maps that are not inverse": (
        lambda: pushforward(BivectorField.from_upper(X2, {(0, 1): "1"}), PolyMap.parse(["x1 + x2", "x2"], X2),
                            PolyMap.parse(["x1 + x2", "x2"], X2)),
        PreconditionError, "supplied maps are not mutually inverse"),
    # -- submanifolds: patches, points and functions -------------------------------------
    "level set of no constraint": (lambda: LevelSet(()), PreconditionError, "a level set needs at least one constraint"),
    "constraints on other variables": (lambda: LevelSet((Poly.parse("x1", X3), Poly.parse("x1", X4))), SpaceMismatchError,
                                       "constraints must share one variable context"),
    "tangent off the level set": (lambda: tangent_at(C_HYPER, (Fraction(0), Fraction(0), Fraction(0), Fraction(1))),
                                  RegularityError, "point (0, 0, 0, 1) does not satisfy constraint x4"),
    "tangent at a point that is no immersion": (
        lambda: tangent_at(Parametrized(PolyMap.parse(["t1^2", "t1^3"], ("t1",))), (Fraction(0),)), RegularityError,
        "parametrization is not an immersion at (0)"),
    "level set grid of height 0": (lambda: grid_points_on(C_HYPER, 0, 2, 6), PreconditionError,
                                   "height must be >= 1 and count >= 0"),
    "function on other variables": (lambda: AT_1230.differential(Poly.parse("x1", X3)), SpaceMismatchError,
                                    "function does not use the submanifold's coordinates"),
    "bracket of a function that is not basic": (lambda: AT_1230.bracket(Poly.parse("x3", X4), Poly.parse("x2", X4)),
                                                PreconditionError, "function x3 is not basic at (1, 2, 3, 0)"),
    # -- embedding: Dirac manifold data, frames and coframes -----------------------------
    # only a caller of the Python API reaches these two: the scenario parser checks each
    # section's and each frame field's length
    "section components of another length": (
        lambda: DiracManifoldData(base_dim=2, sections=(
            Section((Poly.zero(X2),) * 2, (Poly.constant(X2, 1), Poly.zero(X2))),
            Section((Poly.zero(X2),), (Poly.zero(X2),) * 2)), e_frame=((Poly.zero(X2), Poly.constant(X2, 1)),),
            v_frame=((Poly.constant(X2, 1), Poly.zero(X2)),)),
        SpaceMismatchError, "section components must have base_dim entries"),
    **{f"{frame} field of {length} entries": (lambda frame=frame, length=length: _frames_of_length(frame, length),
                                              SpaceMismatchError, FRAME_FIELDS)
       for frame in ("e_frame", "v_frame") for length in (1, 3)},
    "section that is not isotropic": (
        lambda: build_embedding(DiracManifoldData(
            base_dim=1, sections=(Section((Poly.constant(("x1",), 1),), (Poly.constant(("x1",), 1),)),),
            e_frame=((Poly.constant(("x1",), 1),),), v_frame=()), [(Fraction(0), Fraction(0))]),
        PreconditionError, "input data invalid at sample 0: sections: span is not isotropic for the symmetric pairing"),
    "frame with a nonconstant determinant": (
        lambda: pullback_canonical_form(DiracManifoldData(
            base_dim=2, sections=(Section((_q2("1"), _q2("0")), (_q2("0"), _q2("0"))),
                                  Section((_q2("0"), _q2("0")), (_q2("0"), _q2("1")))),
            e_frame=((_q2("1"), _q2("0")),), v_frame=((_q2("0"), _q2("x1")),))),
        NotUnimodularError, "frame determinant x1 is not a nonzero constant; the dual coframe is not polynomial"),
    "v frame that fails to span": (
        lambda: build_embedding(replace(r4_data(), v_frame=_frame(("1", "0", "0"), ("0", "x1", "0"))), [(Fraction(0),) * 4]),
        NotUnimodularError, "frame determinant x1 is not a nonzero constant; the dual coframe is not polynomial"),
    **{f"{name} frame in E": (lambda frames=frames: compare_splittings(r4_data(), *frames, [(Fraction(0),) * 4]),
                              PreconditionError, f"{name} frame invalid: frame determinant 0 is not a nonzero constant; "
                                                 "the dual coframe is not polynomial")
       for name, frames in (("v0", (V_INTO_E, R4_V)), ("v1", (R4_V, V_INTO_E)))},
    # -- scenario: the strict document format --------------------------------------------
    "scenario that is not JSON": (lambda: load_scenario_text("{"), SchemaError,
                                  "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "duplicate key": (lambda: load_scenario_text('{"ambient": {"dim": 2, "dim": 3, "bivector": []}}'), SchemaError,
                      "duplicate key 'dim' in a JSON object"),
    "float literal": (lambda: load_scenario_text('{"points": [[0.5]]}'), SchemaError,
                      "float literal '0.5' is not accepted; write rationals as 'p/q' strings"),
    "unknown field": (lambda: load_scenario_text('{"ambiant": {"dim": 2, "bivector": []}}'), SchemaError,
                      "$: unknown fields ['ambiant']"),
    "block that is not an object": (lambda: load_scenario_text('{"ambient": 3}'), SchemaError,
                                    "$.ambient: expected an object, got int"),
    "missing required subfield": (lambda: load_scenario_text('{"ambient": {"dim": 2}}'), SchemaError,
                                  "$.ambient: missing required fields ['bivector']"),
    "dimension that is not an integer": (lambda: load_scenario_text('{"ambient": {"dim": "2", "bivector": []}}'),
                                         SchemaError, "$.ambient.dim: expected an integer, got '2'"),
    "number where a rational is expected": (
        lambda: load_scenario_text('{"ambient": {"dim": 2, "bivector": []}, "point": [1, 2]}'), SchemaError,
        "$.point[0]: expected a string, got 1"),
    "entry below the diagonal": (
        lambda: load_scenario_text('{"ambient": {"dim": 2, "bivector": [{"i": 2, "j": 1, "poly": "1"}]}}'), SchemaError,
        "$.ambient.bivector[0]: need 1 <= i < j <= 2, got i=2, j=1"),
    "polynomial in an unknown variable": (
        lambda: load_scenario_text('{"ambient": {"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "x9"}]}}'), SchemaError,
        "$.ambient.bivector[0].poly: unknown variable 'x9' (context: ('x1', 'x2'))"),
    "map of another length": (
        lambda: load_scenario_text('{"ambient": {"dim": 2, "bivector": []}, '
                                   '"submanifold": {"type": "parametrized", "map": ["t1"]}}'), SchemaError,
        "$.submanifold.map: expected 2 components, got 1"),
    "section of another length": (
        lambda: load_scenario_text('{"dirac_manifold": {"dim": 1, "sections": [{"X": ["1", "0"], "xi": ["0"]}], '
                                   '"E_frame": [], "V_frame": [["1"]]}}'), SchemaError,
        "$.dirac_manifold.sections[0]: X and xi must each have 1 components"),
    "frame field of another length": (
        lambda: load_scenario_text('{"dirac_manifold": {"dim": 1, "sections": [{"X": ["1"], "xi": ["0"]}], '
                                   '"E_frame": [], "V_frame": [["1", "0"]]}}'), SchemaError,
        "$.dirac_manifold.V_frame[0]: expected 1 components, got 2"),
    # both lists are checked before either is parsed
    "inverse map that is not a list": (
        lambda: load_scenario_text('{"ambient": {"dim": 2, "bivector": []}, "map": ["x1 +", "x2"], "map_inverse": 3}'),
        SchemaError, "$.map_inverse: expected an array, got int"),
}


@pytest.mark.parametrize("case", API_REFUSALS)
def test_api_refusal(case):
    call, error, message = API_REFUSALS[case]
    with pytest.raises(error) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)


VALUE = "\0"  # stands for a formatted value in a message template; no message holds it


def message_parts(node: ast.expr | None, constants: dict[str, ast.expr]) -> tuple[str, ...] | None:
    """The constant parts of a message, split where a value is formatted in: a string, an
    f-string, a `"...".format(...)` or a module-level string constant.  A message that is
    only a value is ("", ""); no message is None."""
    if isinstance(node, ast.Name) and node.id in constants:
        node = constants[node.id]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        template = node.value
    elif isinstance(node, ast.JoinedStr):
        template = "".join(part.value if isinstance(part, ast.Constant) else VALUE for part in node.values)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "format"
          and isinstance(node.func.value, ast.Constant)):
        template = "".join(text + (VALUE if field is not None else "")
                           for text, field, *_ in string.Formatter().parse(node.func.value.value))
    else:
        return None if node is None else ("", "")
    return tuple(template.split(VALUE))


def unpinned_raises(sources: dict[str, str], messages: list, kinds) -> list[str]:
    """"file:line: message" of each `raise` in the sources whose exception `kinds` selects
    and whose message no text of `messages` matches, with {} for each formatted value.  A
    text is a str, which any site may match, or a (text, sites) pair, which only a site in
    `sites`, a set of "file:line" strings, may match.

    A message matches when its constant parts match literally and each value matches any
    text, after any prefix ending in ": " (a scenario path, a command-line diagnostic, or the
    message that quotes it).  `_fail(path, msg)` is the scenario parser's SchemaError, whose
    message is msg.  A bare `raise`, and a message of only values and punctuation, re-raise
    what a site with its own row made, and are skipped."""
    found = []
    for name, source in sources.items():
        tree = ast.parse(source)
        constants = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                     for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            call = exc.func if isinstance(exc, ast.Call) else exc
            kind = getattr(call, "id", getattr(call, "attr", None))
            if exc is None or not kinds(kind):
                continue
            args = exc.args if isinstance(exc, ast.Call) else []
            at = 1 if kind == "_fail" else 0
            parts = message_parts(args[at] if len(args) > at else None, constants)
            if parts is None:
                found.append((name, node.lineno, ""))
            elif re.search(r"\w", "".join(parts)):  # else only values and punctuation: a re-wrap
                pattern, site = "(?:.*: )?" + ".*".join(map(re.escape, parts)), f"{name}:{node.lineno}"
                texts = (m if isinstance(m, str) else m[0] for m in messages if isinstance(m, str) or site in m[1])
                if not any(re.fullmatch(pattern, m, re.DOTALL) for m in texts):
                    found.append((name, node.lineno, "{}".join(parts)))
    return [f"{name}:{line}: {text!r}" for name, line, text in sorted(found)]


def raise_sites(exc: BaseException | None) -> set[str]:
    """"file:line" of the last frame under src/poisdirac/ in the traceback of exc and of each
    exception it was raised from or while handling."""
    sites = set()
    while exc is not None:
        frames = [f for f in traceback.extract_tb(exc.__traceback__) if f.filename.startswith(PACKAGE_DIR)]
        if frames:
            sites.add(f"{Path(frames[-1].filename).name}:{frames[-1].lineno}")
        exc = exc.__cause__ or exc.__context__
    return sites


@contextmanager
def recorded_raise_sites():
    """The set, filled when the block ends, of the `raise_sites` of each exception that
    passes through a frame under src/poisdirac/ while the block runs."""
    raised, sites = [], set()

    def local(frame, event, arg):
        if event == "exception":
            raised.append(arg[1])
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE_DIR):
            frame.f_trace_lines = False
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield sites
    finally:
        sys.settrace(previous)
        for exc in raised:
            sites |= raise_sites(exc)


def _refusal(kind: str) -> bool:
    return kind != "PropertyViolationError"


def test_every_refusal_has_a_row(capsys, tmp_path):
    # each row's message is paired with the sites that raised while the row ran
    messages = []
    for call, _, message in API_REFUSALS.values():
        with recorded_raise_sites() as sites, suppress(Exception):
            call()
        messages.append((message, sites))
    for case, (*_, line) in CLI_REFUSALS.items():
        with recorded_raise_sites() as sites:
            main(refusal_argv(case, tmp_path)[0])
        capsys.readouterr()
        messages.append((line, sites))
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unpinned_raises(sources, messages, _refusal) == []
    assert len(unpinned_raises(sources, [], _refusal)) > 100, "the refusals were not read"


def test_a_stray_refusal_is_found():
    source = (
        "_NOT_UNIMODULAR = 'pinned constant'\n"
        "def parse(x, path):\n"
        "    if x == 0:\n"
        "        raise ValueError('pinned refusal')\n"
        "    if x == 1:\n"
        "        raise SchemaError(f'{x} pinned after a value')\n"
        "    if x == 2:\n"
        "        raise _fail(path, f'pinned field {x}')\n"
        "    if x == 3:\n"
        "        raise NotUnimodularError(_NOT_UNIMODULAR)\n"
        "    if x == 4:\n"
        "        raise PreconditionError('pinned at {}: {}'.format(x, path))\n"
        "    try:\n"
        "        return int(x)\n"
        "    except ValueError as exc:\n"
        "        if x == 5:\n"
        "            raise _fail(path, str(exc))\n"
        "        if x == 6:\n"
        "            raise SchemaError(f'{path}: {exc}')\n"
        "        raise\n"
        "    raise PropertyViolationError('a self-check, not a refusal')\n"
    )
    pinned = ["pinned refusal", "7 pinned after a value", "$.a[0]: pinned field 8", "pinned constant",
              "error: pinned at 9: $.b"]
    assert unpinned_raises({"m.py": source}, pinned, _refusal) == []
    assert unpinned_raises({"m.py": source}, [], _refusal) == [
        "m.py:4: 'pinned refusal'", "m.py:6: '{} pinned after a value'", "m.py:8: 'pinned field {}'",
        "m.py:10: 'pinned constant'", "m.py:12: 'pinned at {}: {}'"]
    # a message matches whole: a text that only starts or only ends like it is no row
    assert unpinned_raises({"m.py": source}, ["pinned refusal, and more", "unpinned constant"], _refusal) == [
        "m.py:4: 'pinned refusal'", "m.py:6: '{} pinned after a value'", "m.py:8: 'pinned field {}'",
        "m.py:10: 'pinned constant'", "m.py:12: 'pinned at {}: {}'"]


def test_a_refusal_that_starts_with_a_value_passes_only_on_its_own_row():
    # the second message's pattern, '{} {} exceeds the maximum 32', matches the first site's
    # row too; paired with the site that raised it, that row pins the first site alone
    source = (
        "def bound(x, name):\n"
        "    if x > 32:\n"
        "        raise ValueError(f'exponent {x} of {name} exceeds the maximum 32')\n"
        "    raise SchemaError(f'{name} {x} exceeds the maximum 32')\n"
    )
    row = "exponent 33 of x1 exceeds the maximum 32"
    assert unpinned_raises({"m.py": source}, [row], _refusal) == []
    assert unpinned_raises({"m.py": source}, [(row, {"m.py:3"})], _refusal) == [
        "m.py:4: '{} {} exceeds the maximum 32'"]
    assert unpinned_raises({"m.py": source}, [(row, {"m.py:3"}), ("dimension 33 exceeds the maximum 32", {"m.py:4"})],
                           _refusal) == []


def test_a_row_is_paired_with_the_sites_that_raised_it():
    # rat's refusal re-raised by the scenario parser: the parser's site and rat's
    with recorded_raise_sites() as sites, suppress(SchemaError):
        load_scenario_text('{"ambient": {"dim": 1, "bivector": []}, "point": ["0.5"]}')
    assert {site.split(":")[0] for site in sites} == {"scenario.py", "rational_linalg.py"}
    with recorded_raise_sites() as sites:
        rat("1/2")
    assert sites == set()
