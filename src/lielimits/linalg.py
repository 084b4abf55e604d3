"""Exact rational linear algebra on small dense matrices.

Matrices are lists of lists of Fraction; all routines are pure and return
fresh objects.  Everything here is elimination-based and exact, no pivot
tolerance games.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.  Returns (rref matrix, pivot column list).

    Zero rows are kept at the bottom so the caller can slice them off.
    """
    m = [row[:] for row in m]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def row_space_basis(m: Matrix) -> Matrix:
    """Canonical (RREF) basis of the row space; empty list for the zero space."""
    red, pivots = rref(m)
    return [red[i] for i in range(len(pivots))]


def nullspace_basis(m: Matrix, cols: int) -> Matrix:
    """RREF basis of {x : m @ x = 0} inside Q^cols (m given as rows of functionals).

    Elimination runs with the columns reversed, so each solution is 1 at its
    free column, 0 at every other free column and nonzero only at later pivot
    columns: listed by free column, the basis is already reduced.  The cost is
    that of one elimination of m plus writing the output.
    """
    red, pivots = rref([list(reversed(row)) for row in m])
    pivot_set = set(pivots)
    basis = []
    for fc in reversed(range(cols)):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[cols - 1 - fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[cols - 1 - pc] = -red[r][fc]
        basis.append(v)
    return basis


def in_row_space(v: Vector, basis_rref: Matrix) -> bool:
    """Membership test against an RREF basis."""
    v = [Fraction(x) for x in v]
    for row in basis_rref:
        pc = next(i for i, x in enumerate(row) if x != 0)
        if v[pc] != 0:
            f = v[pc]
            v = [a - f * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)
