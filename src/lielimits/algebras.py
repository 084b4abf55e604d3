"""Exact weight data for the classical series A, B, C, D.

Conventions, fixed once for the whole package:

* Bourbaki numbering of simple roots.  For B_n the last simple root is
  short, for C_n the last is long, for D_n the fork is at the end.  The
  roots and the Cartan rows are the oracle's table, their only reader.
* Weights are tuples of integers in fundamental-weight coordinates
  (Dynkin labels).  Doubled epsilon coordinates (eps2) are integers in
  every series; they carry the form and the Weyl dimension.
* The invariant form is normalized so that (alpha, alpha) = 2 for long
  roots.  It has one implementation, the integer pairing of eps2
  coordinates, which is form_scale * (lam, mu) with a fixed scale per
  series: 4(n+1) for A, 8 for C, 4 for B and D.  weight_form divides by
  that scale once; the oracle stays on the integers.
* All arithmetic is exact: int, and Fraction only where a value is
  rational.  No floats anywhere.

Rank floors: A and C from rank 1, B from rank 2, D from rank 4.  The
small orthogonal algebras so(2), so(3), so(4), so(6) coincide with (sums
of) other series members and must be entered under their A/C names.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatchError, DomainError, InternalConsistencyError, ParseError
from .record import Record

Weight = tuple[int, ...]

SERIES = ("A", "B", "C", "D")

_RANK_FLOOR = {"A": 1, "B": 2, "C": 1, "D": 4}
_INT_ONLY = frozenset({int})


class SimpleAlgebra(Record):
    """A classical simple Lie algebra, e.g. SimpleAlgebra('B', 3) = so(7)."""

    series: str
    rank: int

    def __init__(self, series, rank):
        if series not in SERIES:
            raise DomainError(f"unknown series {series!r}; expected one of {SERIES}")
        if not isinstance(rank, int) or rank < _RANK_FLOOR[series]:
            raise DomainError(f"rank {rank} not allowed for series {series} (floor is "
                              f"{_RANK_FLOOR[series]}; use the isomorphic A/C type instead)")
        self.__dict__.update(series=series, rank=rank)

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"

    @staticmethod
    def parse(literal: str) -> "SimpleAlgebra":
        """Parse an algebra literal such as 'A3' or 'B12'."""
        text = literal.strip()
        if len(text) < 2 or text[0] not in SERIES or not text[1:].isdecimal():
            raise ParseError(f"bad algebra literal {literal!r}; expected e.g. 'A3', 'D4'")
        try:
            return SimpleAlgebra(text[0], int(text[1:]))
        except DomainError as exc:
            raise ParseError(str(exc)) from exc
        except ValueError:  # more digits than int() converts
            raise ParseError(f"algebra literal {text[:9]}... has a rank of {len(text) - 1} digits") from None

    @property
    def natural_weight(self) -> Weight:
        return (1,) + (0,) * (self.rank - 1)

    @property
    def natural_dim(self) -> int:
        n = self.rank
        return {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}[self.series]

    @property
    def dim(self) -> int:
        n = self.rank
        return {"A": n * (n + 2), "B": n * (2 * n + 1), "C": n * (2 * n + 1), "D": n * (2 * n - 1)}[self.series]


def check_weight(alg: SimpleAlgebra, weight) -> Weight:
    """The weight as a tuple of `alg.rank` labels, each an exact int (not a bool)."""
    weight = tuple(weight)
    if len(weight) != alg.rank:
        raise DimensionMismatchError(
            f"weight {weight} has length {len(weight)}, expected rank {alg.rank} of {alg}"
        )
    if not _INT_ONLY.issuperset(map(type, weight)):
        raise DomainError(f"weight {weight} must consist of integers")
    return weight


def check_dominant(alg: SimpleAlgebra, weight) -> Weight:
    weight = check_weight(alg, weight)
    if min(weight) < 0:
        raise DomainError(f"weight {weight} is not dominant")
    return weight


def form_scale(alg: SimpleAlgebra) -> int:
    """The fixed S with pairing = S * (form): 4(n+1) for A, 8 for C, 4 for B and D."""
    return {"A": 4 * (alg.rank + 1), "C": 8}.get(alg.series, 4)


def eps2(alg: SimpleAlgebra, weight) -> list[int]:
    """Doubled epsilon coordinates 2*eps(weight) of a label vector.

    Integers in every series: n+1 entries for A_n (not centered; the
    pairing removes the trace), n entries for B, C and D.
    """
    n = len(weight)
    if alg.series == "B":
        chain, start = n - 1, weight[-1]
    elif alg.series == "D":
        chain, start = n - 2, weight[-2] + weight[-1]
    else:
        chain, start = n, 0
    out = [start]
    for x in reversed(weight[:chain]):
        out.append(out[-1] + 2 * x)
    out.reverse()
    if alg.series == "C":
        out.pop()
    elif alg.series == "D":
        out.append(weight[-1] - weight[-2])
    return out


def pairing(alg: SimpleAlgebra, a, b) -> int:
    """form_scale(alg) * (x, y) for x, y given by their eps2 coordinates a, b."""
    dot = sum(x * y for x, y in zip(a, b))
    if alg.series == "A":
        return (alg.rank + 1) * dot - sum(a) * sum(b)
    return dot


def weight_form(alg: SimpleAlgebra, lam, mu) -> Fraction:
    """Normalized invariant form on the weight lattice (long roots of norm 2)."""
    lam = check_weight(alg, lam)
    mu = check_weight(alg, mu)
    return Fraction(pairing(alg, eps2(alg, lam), eps2(alg, mu)), form_scale(alg))


def _rho_row(alg: SimpleAlgebra) -> range:
    """eps2 of rho = (1, ..., 1): 2n, ..., 0 for A; 2n-1, ..., 1 for B; 2n, ..., 2 for C; 2n-2, ..., 0 for D."""
    top = 2 * alg.rank - {"B": 1, "D": 2}.get(alg.series, 0)
    return range(top, top - 2 * (alg.rank + (alg.series == "A")), -2)


def dimension(alg: SimpleAlgebra, lam) -> int:
    """Weyl dimension formula: prod over alpha > 0 of (lam+rho, alpha)/(rho, alpha).

    Evaluated root-by-root in doubled epsilon coordinates with integer arithmetic.
    """
    return weyl_dimension(alg, check_dominant(alg, lam))


@lru_cache(maxsize=None)
def weyl_dimension(alg: SimpleAlgebra, lam: Weight) -> int:
    """Memoized kernel of `dimension` for a weight check_dominant accepted.

    One pass over the positive roots, with c = eps2(lam+rho) and r = eps2(rho)
    side by side: the factor c_i - c_j, for B, C and D also c_i + c_j, for B
    and C also c_i.  A factor enters top and bottom only where lam moves it
    (the doubling cancels), then one exact division.
    """
    c = eps2(alg, [x + 1 for x in lam])
    r = _rho_row(alg)
    pairs, singles = alg.series != "A", alg.series in ("B", "C")
    top = bottom = 1
    for i, (a, b) in enumerate(zip(c, r)):
        if a == b:  # c_i - r_i sums the labels from i on (but at D's last row): no later row moves a factor
            break
        # a row's factors are small: multiplied first, they make one big product per row, not per root
        u, v = (a, b) if singles else (1, 1)
        for x, y in zip(c[i + 1:], r[i + 1:]):
            if (p := a - x) != (q := b - y):
                u *= p
                v *= q
            if pairs and (p := a + x) != (q := b + y):
                u *= p
                v *= q
        top *= u
        bottom *= v
    dim, rest = divmod(top, bottom)
    if rest or dim <= 0:
        raise DomainError(f"Weyl dimension of {lam} over {alg} is not a positive integer")
    return dim


def dual_weight(alg: SimpleAlgebra, lam) -> Weight:
    """Highest weight of the dual module (action of -w0 on labels).

    Reversal for A_n, identity for B_n and C_n; for D_n the last two labels
    swap exactly when the rank is odd.
    """
    return dual_labels(alg, check_dominant(alg, lam))


def dual_labels(alg: SimpleAlgebra, lam: Weight) -> Weight:
    """Kernel of `dual_weight` for a weight check_dominant accepted."""
    if alg.series == "A":
        return tuple(reversed(lam))
    if alg.series == "D" and alg.rank % 2 == 1:
        return lam[:-2] + (lam[-1], lam[-2])
    return lam


def dominant_weights_up_to_dim(alg: SimpleAlgebra, bound: int) -> list[Weight]:
    """All dominant weights of dimension <= bound, in lexicographic order.

    Relies on the Weyl dimension being strictly increasing in every label,
    which makes the prefix pruning exhaustive: it rises by at least 1 per
    label step from 1 at the trivial weight, so no label can reach bound.
    """
    if bound < 1:
        return []
    out: list[Weight] = []
    labels = [0] * alg.rank

    def rec(i: int):
        if i == alg.rank:
            out.append(tuple(labels))
            return
        v = 0
        while True:
            labels[i] = v
            if (dim := dimension(alg, tuple(labels))) > bound:
                break
            if v == bound:
                raise InternalConsistencyError(f"dimension {dim} of {tuple(labels)} over {alg} is at most {v}")
            rec(i + 1)
            v += 1
        labels[i] = 0

    rec(0)
    return out
