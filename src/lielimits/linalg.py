"""Exact rational linear algebra on sparse rows.

A row is a dict from column (1, 2, ...) to its nonzero Fraction entries;
absent columns are 0, and a row's pivot is its least key.  All routines are
pure: they never change a row they are given and return fresh rows.  The
work of each is proportional to the stored entries it touches, not to the
number of columns, and everything is elimination-based and exact.
`rational` and `basis_index` turn a number and a key from outside into an entry and a column.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import DomainError

Row = dict[int, Fraction]
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")  # of a decimal rational string


def rational(x) -> Fraction:
    """Fraction(x), or a DomainError naming x.  Fraction builds 10 ** exponent first, so a
    decimal exponent past the interpreter's limit on int digits (0: none) is refused before."""
    limit = sys.get_int_max_str_digits()
    exponent = _EXPONENT.search(x) if limit and type(x) is str else None
    digits = exponent and exponent[1].replace("_", "").lstrip("0")
    if digits and (len(digits) > len(str(limit)) or int(digits) > limit):
        raise DomainError(f"bad rational {x!r}: its exponent is larger than {limit}, the limit on int digits")
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"bad rational {x!r}") from exc


def basis_index(i) -> int:
    """An int that is not a bool, or a string as int() reads it; else a DomainError naming i."""
    if isinstance(i, (int, str)) and not isinstance(i, bool):
        try:
            return int(i)
        except ValueError:
            pass
    raise DomainError(f"bad basis index {i!r}")


def _add(v: Row, f: Fraction, row: Row) -> None:
    """v += f * row in place, dropping the entries that cancel."""
    for c, x in row.items():
        y = v.get(c, 0) + f * x
        if y:
            v[c] = y
        else:
            v.pop(c, None)


def dot(a: Row, b: Row) -> Fraction:
    return sum((x * b[c] for c, x in a.items() if c in b), Fraction(0))


def lincomb(coeffs: Row, rows) -> Row:
    """sum of coeffs[j] * rows[j - 1] over the keys j = 1..len(rows) of coeffs; other keys are ignored."""
    out: Row = {}
    for j, f in coeffs.items():
        if 0 < j <= len(rows):
            _add(out, f, rows[j - 1])
    return out


def rref(rows: list[Row]) -> list[Row]:
    """Reduced row echelon basis of the row space, ordered by pivot; [] for
    the zero space.

    Each row is reduced against the basis so far, scaled to pivot 1 and then
    cleared from the earlier basis rows.  A basis row is 0 at every other
    pivot, so one pass over the basis reduces a row completely.
    """
    basis: dict[int, Row] = {}
    for row in rows:
        v = dict(row)
        for p, b in basis.items():
            if p in v:
                _add(v, -v[p], b)
        if not v:
            continue
        p = min(v)
        inv = Fraction(1) / v[p]
        v = {c: x * inv for c, x in v.items()}
        for b in basis.values():
            if p in b:
                _add(b, -b[p], v)
        basis[p] = v
    return [basis[p] for p in sorted(basis)]


def nullspace_basis(rows, cols: int) -> list[Row]:
    """RREF basis of {x in Q^cols : r . x = 0 for every row r}.

    Elimination runs with the columns reversed, so each solution is 1 at its
    free column, 0 at every other free column and nonzero only at later pivot
    columns: listed by free column, the basis is already reduced.  The cost is
    that of one elimination of the rows plus writing the output.
    """
    flip = cols + 1
    red = {flip - min(r): r for r in rref([{flip - c: x for c, x in r.items()} for r in rows])}
    basis = {f: {f: Fraction(1)} for f in range(1, flip) if f not in red}
    for p, r in red.items():
        for c, x in r.items():
            if flip - c != p:
                basis[flip - c][p] = -x
    return list(basis.values())


def in_row_space(v: Row, basis) -> bool:
    """Membership test against an RREF basis."""
    v = dict(v)
    for row in basis:
        p = min(row)
        if p in v:
            _add(v, -v[p], row)
    return not v
