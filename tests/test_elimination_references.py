"""Reference for the one elimination kernel.

`rational_linalg._eliminate` takes any integer rows and divides each row by
its gcd only where that pays: a pivot row when it is chosen and once more at
the end, and an updated row only under a pivot wider than 64 bits.  The
kernel it replaced took primitive rows and divided every updated row by its
gcd; it is kept here as the reference and must agree exactly, fed the
primitive form of the same rows: the same pivots and the same pivot rows.
Every row the new loop holds is a nonzero rational multiple of the
reference's row at the same place, so the rows past the rank agree up to
scale too, which is all `solve` reads of them.
"""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisdirac.rational_linalg import MAX_DIGITS, MatrixQ, Subspace, _eliminate, _reduced, primitive, solve


def reference_eliminate(work: list, n_cols: int) -> list[int]:
    """Gauss-Jordan elimination in place on primitive integer rows, each updated row
    (p/g) row_r - (f/g) row_p, g = gcd(p, f), divided by its gcd; returns the pivot columns."""
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


def _normalized(row) -> list[int]:
    """The primitive row with its first nonzero entry positive: one row per line through 0."""
    row = list(primitive(row))
    lead = next((a for a in row if a), 1)
    return [-a for a in row] if lead < 0 else row


def check_against_reference(rows: list[list[int]], n_cols: int) -> list[int]:
    """Eliminate the raw rows and, by the reference, their primitive forms; assert they agree."""
    work = [list(r) for r in rows]
    reference = [list(primitive(r)) for r in rows]
    pivots = _eliminate(work, n_cols)
    assert pivots == reference_eliminate(reference, n_cols)
    rank = len(pivots)
    assert [list(r) for r in work[:rank]] == reference[:rank]
    for row, c in zip(work, pivots):
        assert row[c] > 0 and gcd(*row) == 1
    for row, ref in zip(work[rank:], reference[rank:]):
        assert not any(row[:n_cols])
        assert _normalized(row) == _normalized(ref)
    return pivots


def _entry(rng: random.Random, digits: int) -> int:
    """A random integer of up to `digits` decimal digits, zero a quarter of the time."""
    return 0 if rng.random() < 0.25 else rng.randrange(-10**digits + 1, 10**digits)


def _rows(rng: random.Random, n_rows: int, width: int, digits: int) -> list[list[int]]:
    """Seeded rows: a product of random factors of inner size below both sides half the
    time (rank deficient), every row times a random common factor (not primitive), and
    some rows zero."""
    inner = rng.randint(0, min(n_rows, width)) if rng.random() < 0.5 else width
    if inner < width:
        left = [[_entry(rng, 2) for _ in range(inner)] for _ in range(n_rows)]
        right = [[_entry(rng, digits) for _ in range(width)] for _ in range(inner)]
        rows = [[sum(a * b for a, b in zip(r, col)) for col in zip(*right)] if inner else [0] * width for r in left]
    else:
        rows = [[_entry(rng, digits) for _ in range(width)] for _ in range(n_rows)]
    for row in rows:
        factor = rng.choice((1, -1, 2, -6, 35, 10**rng.randint(1, 25)))
        row[:] = [0] * width if rng.random() < 0.1 else [a * factor for a in row]
    return rows


@pytest.mark.parametrize("digits", [1, 3, 19, 40])
def test_kernel_matches_the_reference_on_seeded_rows(digits):
    rng = random.Random(digits)
    for _ in range(150):
        width = rng.randint(1, 10)
        rows = _rows(rng, rng.randint(0, 8), width, digits)
        check_against_reference(rows, width)


def test_kernel_matches_the_reference_with_fewer_pivot_columns_than_the_width():
    # solve's shape: [m | b] with pivots only among m's columns
    rng = random.Random(3)
    for _ in range(200):
        width = rng.randint(2, 10)
        rows = _rows(rng, rng.randint(1, 8), width, rng.choice((1, 2, 25)))
        check_against_reference(rows, rng.randint(0, width - 1))


@pytest.mark.parametrize("digits", [200, MAX_DIGITS])
def test_kernel_matches_the_reference_on_entries_up_to_the_digit_bound(digits):
    rng = random.Random(digits)
    for _ in range(4):
        width = rng.randint(3, 6)
        rows = _rows(rng, rng.randint(2, 5), width, digits)
        check_against_reference(rows, rng.choice((width, width - 1)))


def test_kernel_matches_the_reference_on_a_rank_deficient_product_of_big_entries():
    # a 6 x 9 product of rank 3 with 30-digit entries: every update runs under a wide pivot
    rng = random.Random(17)
    left = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(6)]
    right = [[rng.randrange(10**29, 10**30) for _ in range(9)] for _ in range(3)]
    rows = [[sum(a * b for a, b in zip(r, col)) * 4 for col in zip(*right)] for r in left]
    assert len(check_against_reference(rows, 9)) == 3


integers = st.one_of(st.integers(-5, 5), st.integers(-(2**80), 2**80))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda width: st.tuples(
    st.lists(st.lists(integers, min_size=width, max_size=width), max_size=6),
    st.integers(0, width),
)))
def test_kernel_matches_the_reference_on_hypothesis_rows(case):
    rows, n_cols = case
    check_against_reference(rows, n_cols)


def test_non_primitive_rows_come_out_primitive_with_positive_pivots():
    work = [[0, -6, 4, 2], [0, 0, -9, 3], [0, 12, -8, -4], [0, 0, 0, 0]]
    assert _eliminate(work, 4) == [1, 2]
    assert work[:2] == [[0, 9, 0, -5], [0, 0, 3, -1]]
    assert work[2:] == [[0, 0, 0, 0], [0, 0, 0, 0]]
    # the same rows through a subspace and a linear system
    assert _reduced(4, [[0, -6, 4, 2], [0, 0, -9, 3]], False) == Subspace(4, ((0, 9, 0, -5), (0, 0, 3, -1)))
    assert solve(MatrixQ.from_rows([[4, 0], [0, -6]]), MatrixQ.from_rows([[8, 12]])) == MatrixQ.from_rows([[2, -2]])
