from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisdirac.errors import SpaceMismatchError
from poisdirac.rational_linalg import (
    MatrixQ,
    Subspace,
    add,
    annihilator,
    contains,
    image,
    intersect,
    kernel,
    preimage,
    rat,
    rref,
    solve,
    standard_basis,
)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def matrix_st(rows: int, cols: int):
    return st.lists(st.lists(fractions, min_size=cols, max_size=cols), min_size=rows, max_size=rows).map(
        lambda r: MatrixQ.from_rows(r, cols=cols)
    )


def subspace_st(n: int):
    return st.integers(0, n).flatmap(
        lambda k: st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=k, max_size=k).map(
            lambda rows: Subspace.span(n, rows)
        )
    )


@pytest.mark.parametrize("text, value", [("3", Fraction(3)), ("-1/2", Fraction(-1, 2)), ("+4/6", Fraction(2, 3)), ("0/7", Fraction(0))])
def test_rat_accepts_p_over_q(text, value):
    assert rat(text) == value


@pytest.mark.parametrize("text", ["0.5", "1e3", "1/0", "2/00", " 1", "1_000", "1/-2", "inf", ""])
def test_rat_rejects_other_strings(text):
    with pytest.raises(ValueError, match="not a rational"):
        rat(text)


def test_standard_basis_is_identity_rows():
    assert standard_basis(0) == ()
    assert MatrixQ.identity(3).entries == standard_basis(3)
    assert standard_basis(2) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_rref_identity():
    m = MatrixQ.identity(3)
    reduced, rk = rref(m)
    assert reduced == m and rk == 3


def test_rref_zero():
    m = MatrixQ.zeros(2, 4)
    reduced, rk = rref(m)
    assert reduced == m and rk == 0


def test_rref_dependent_rows():
    _, rk = rref(MatrixQ.from_rows([[1, 2], [2, 4]]))
    assert rk == 1


def test_kernel_zero_map():
    assert kernel(MatrixQ.zeros(3, 3)) == Subspace.full(3)


def test_kernel_identity():
    assert kernel(MatrixQ.identity(4)) == Subspace.zero(4)


def test_kernel_single_row():
    assert kernel(MatrixQ.from_rows([[1, -1]])) == Subspace.span(2, [[1, 1]])


def test_annihilator_of_axis():
    s = Subspace.span(2, [[1, 0]])
    ann = annihilator(s)
    assert ann == Subspace.span(2, [[0, 1]], dual=True)
    assert ann.dual


def test_intersection_of_planes():
    a = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.span(3, [[0, 1, 0], [0, 0, 1]])
    assert intersect(a, b) == Subspace.span(3, [[0, 1, 0]])


def test_preimage_identity():
    s = Subspace.span(3, [[1, 2, 3]])
    assert preimage(MatrixQ.identity(3), s) == s


def test_dimension_mismatch_rejected():
    with pytest.raises(SpaceMismatchError):
        add(Subspace.full(2), Subspace.full(3))


def test_primal_dual_mix_rejected():
    with pytest.raises(SpaceMismatchError):
        add(Subspace.full(2), Subspace.full(2, dual=True))


def test_solve_consistent_and_inconsistent():
    m = MatrixQ.from_rows([[1, 1], [2, 2]])
    assert solve(m, (Fraction(1), Fraction(2))) is not None
    assert solve(m, (Fraction(1), Fraction(3))) is None


@settings(max_examples=150)
@given(st.data())
def test_canonicity_of_representation(data):
    n = data.draw(st.integers(1, 5))
    s = data.draw(subspace_st(n))
    # rebuild from randomly recombined generators: identical representation
    mixers = data.draw(
        st.lists(st.lists(fractions, min_size=max(s.dim, 1), max_size=max(s.dim, 1)), min_size=3, max_size=3)
    )
    rows = [
        tuple(sum(c * r[j] for c, r in zip(mix, s.basis.entries)) for j in range(n))
        for mix in mixers
    ] + list(s.basis.entries)
    assert Subspace.span(n, rows) == s


@settings(max_examples=150)
@given(st.data())
def test_double_annihilator(data):
    n = data.draw(st.integers(1, 5))
    s = data.draw(subspace_st(n))
    assert annihilator(annihilator(s)) == s


@settings(max_examples=150)
@given(st.data())
def test_dimension_formula(data):
    n = data.draw(st.integers(1, 5))
    a = data.draw(subspace_st(n))
    b = data.draw(subspace_st(n))
    assert a.dim + b.dim == add(a, b).dim + intersect(a, b).dim


@settings(max_examples=100)
@given(st.data())
def test_preimage_contains_source(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(matrix_st(n, n))
    s = data.draw(subspace_st(n))
    assert contains(preimage(m, image(m, s)), s)
