from fractions import Fraction

import pytest

from lielimits.linalg import in_row_space, nullspace_basis, row_space_basis, rref

sympy = pytest.importorskip("sympy")

SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 7), (3, 9), (7, 2), (9, 3), (4, 4), (5, 6)]


def rand_matrix(rng, rows, cols):
    # Small entries with many zeros, so that ranks below full come up often.
    return [[Fraction(rng.choice([0, 0, 0, 1, -1, 2, -3])) for _ in range(cols)] for _ in range(rows)]


def to_fractions(matrix):
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in matrix.tolist()]


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


def test_in_row_space_matches_rank(rng):
    for _ in range(100):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 6)
        m = rand_matrix(rng, rows, cols)
        v = rand_matrix(rng, 1, cols)[0]
        grows = sympy.Matrix(rows, cols, [int(x) for row in m for x in row])
        stacked = grows.col_join(sympy.Matrix(1, cols, [int(x) for x in v]))
        assert in_row_space(v, row_space_basis(m)) == (stacked.rank() == grows.rank())
