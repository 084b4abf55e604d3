from fractions import Fraction

import pytest

from lielimits import linalg
from ref_linalg import in_row_space, nullspace_basis, row_space_basis, rref

sympy = pytest.importorskip("sympy")

SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 7), (3, 9), (7, 2), (9, 3), (4, 4), (5, 6)]


def rand_matrix(rng, rows, cols):
    # Small entries with many zeros, so that ranks below full come up often.
    return [[Fraction(rng.choice([0, 0, 0, 1, -1, 2, -3])) for _ in range(cols)] for _ in range(rows)]


def to_fractions(matrix):
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in matrix.tolist()]


def sparse(matrix):
    """Dense rows as the library's rows: column -> nonzero entry, from 1."""
    return [{c: x for c, x in enumerate(row, 1) if x} for row in matrix]


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_rref_and_nullspace_match_sympy(rng, rows, cols):
    for _ in range(12):
        m = rand_matrix(rng, rows, cols)
        sm = sympy.Matrix(rows, cols, [int(x) for row in m for x in row])
        red, pivots = rref(m)
        sred, spivots = sm.rref()
        assert pivots == list(spivots)
        if rows:
            assert red == to_fractions(sred)
        basis = nullspace_basis(m, cols)
        assert len(basis) == cols - len(pivots)
        # the output is already reduced, and it spans sympy's nullspace
        assert basis == row_space_basis(basis)
        expected = row_space_basis([[Fraction(int(x.p), int(x.q)) for x in v] for v in sm.nullspace()])
        assert basis == expected
        for v in basis:
            assert all(sum((a * b for a, b in zip(row, v)), Fraction(0)) == 0 for row in m)
        # the sparse routines give the same rows without the zero ones, and a
        # row's least key is its pivot
        sparse_red = linalg.rref(sparse(m))
        assert sparse_red == (sparse(to_fractions(sred))[: len(spivots)] if rows else [])
        assert [min(r) - 1 for r in sparse_red] == list(spivots)
        assert linalg.nullspace_basis(sparse(m), cols) == sparse(expected)
        v = rand_matrix(rng, 1, cols)[0]
        stacked = sm.col_join(sympy.Matrix(1, cols, [int(x) for x in v]))
        assert linalg.in_row_space(sparse([v])[0], sparse_red) == (stacked.rank() == sm.rank())


def test_in_row_space_matches_rank(rng):
    for _ in range(100):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 6)
        m = rand_matrix(rng, rows, cols)
        v = rand_matrix(rng, 1, cols)[0]
        grows = sympy.Matrix(rows, cols, [int(x) for row in m for x in row])
        stacked = grows.col_join(sympy.Matrix(1, cols, [int(x) for x in v]))
        assert in_row_space(v, row_space_basis(m)) == (stacked.rank() == grows.rank())
        assert linalg.in_row_space(sparse([v])[0], linalg.rref(sparse(m))) == (
            stacked.rank() == grows.rank()
        )


def test_sparse_routines_leave_their_arguments_alone(rng):
    for _ in range(20):
        m = sparse(rand_matrix(rng, 4, 6))
        before = [dict(r) for r in m]
        red = linalg.rref(m)
        linalg.nullspace_basis(m, 6)
        for r in m:
            linalg.in_row_space(r, red)
        assert m == before


class _RowsByIndex:
    """A sequence of rows that can be indexed and measured but not walked."""

    def __init__(self, rows):
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __iter__(self):
        raise AssertionError("lincomb walked every row")


def test_lincomb_walks_its_coefficients_not_the_rows():
    F = Fraction
    rows = _RowsByIndex([{1: F(1)}, {2: F(1)}, {1: F(2), 3: F(1)}])
    # keys outside 1..len(rows) are ignored; 2 * row 1 cancels column 1 of row 3
    assert linalg.lincomb({3: F(1), 1: F(-2), 0: F(7), -1: F(7), 4: F(5)}, rows) == {3: F(1)}
    assert linalg.lincomb({}, rows) == {}
