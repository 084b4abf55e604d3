"""Exact root-system data for the classical series A, B, C, D.

Conventions, fixed once for the whole package:

* Bourbaki numbering of simple roots.  For B_n the last simple root is
  short, for C_n the last is long, for D_n the fork is at the end.
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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatchError, DomainError, ParseError

Weight = tuple[int, ...]

SERIES = ("A", "B", "C", "D")

_RANK_FLOOR = {"A": 1, "B": 2, "C": 1, "D": 4}
_INT_ONLY = frozenset({int})


@dataclass(frozen=True, order=True)
class SimpleAlgebra:
    """A classical simple Lie algebra, e.g. SimpleAlgebra('B', 3) = so(7)."""

    series: str
    rank: int

    def __post_init__(self):
        if self.series not in SERIES:
            raise DomainError(f"unknown series {self.series!r}; expected one of {SERIES}")
        if not isinstance(self.rank, int) or self.rank < _RANK_FLOOR[self.series]:
            raise DomainError(
                f"rank {self.rank} not allowed for series {self.series} "
                f"(floor is {_RANK_FLOOR[self.series]}; use the isomorphic A/C type instead)"
            )

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


@lru_cache(maxsize=None)
def cartan_matrix(alg: SimpleAlgebra) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix a[i][j] = <alpha_i, alpha_j^vee>, Bourbaki numbering."""
    n = alg.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if alg.series == "B" and n >= 2:
        a[n - 2][n - 1] = -2      # last root short
        a[n - 1][n - 2] = -1
    elif alg.series == "C" and n >= 2:
        a[n - 2][n - 1] = -1      # last root long
        a[n - 1][n - 2] = -2
    elif alg.series == "D":
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    return tuple(tuple(row) for row in a)


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


def fundamental_weight(alg: SimpleAlgebra, i: int) -> Weight:
    return tuple(1 if j == i else 0 for j in range(alg.rank))


@lru_cache(maxsize=None)
def positive_roots(alg: SimpleAlgebra) -> tuple[Weight, ...]:
    """All positive roots, in fundamental-weight coordinates.

    Counts: A_n has n(n+1)/2, B_n and C_n have n^2, D_n has n(n-1).
    """
    n = alg.rank
    eps_roots: list[dict[int, int]] = []

    def e(*pairs):
        return {i: c for i, c in pairs if c}

    if alg.series == "A":
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                eps_roots.append(e((i, 1), (j, -1)))
    else:
        for i in range(n):
            for j in range(i + 1, n):
                eps_roots.append(e((i, 1), (j, -1)))
                eps_roots.append(e((i, 1), (j, 1)))
        if alg.series == "B":
            eps_roots.extend(e((i, 1)) for i in range(n))
        elif alg.series == "C":
            eps_roots.extend(e((i, 2)) for i in range(n))

    def labels(root: dict[int, int]) -> Weight:
        def coord(i):
            return root.get(i, 0)

        lab = [coord(k) - coord(k + 1) for k in range(n - 1)]
        if alg.series == "A":
            lab.append(coord(n - 1) - coord(n))
        elif alg.series == "B":
            lab.append(2 * coord(n - 1))
        elif alg.series == "C":
            lab.append(coord(n - 1))
        else:
            lab[n - 2] = coord(n - 2) - coord(n - 1)
            lab.append(coord(n - 2) + coord(n - 1))
        return tuple(lab)

    roots = tuple(sorted(labels(r) for r in eps_roots))
    expected = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}[alg.series]
    if len(roots) != expected:
        raise DomainError(f"positive root count for {alg}: got {len(roots)}, expected {expected}")
    return roots


def rho(alg: SimpleAlgebra) -> Weight:
    """Half-sum of positive roots; the all-ones weight in label coordinates."""
    return (1,) * alg.rank


def _weyl_numerator(alg: SimpleAlgebra, doubled) -> int:
    # One integer factor per positive root; the doubling cancels between
    # the lam+rho and rho products.
    c = doubled
    n = len(c)
    product = 1
    if alg.series == "A":
        for i in range(n):
            for j in range(i + 1, n):
                product *= c[i] - c[j]
        return product
    for i in range(n):
        for j in range(i + 1, n):
            product *= (c[i] - c[j]) * (c[i] + c[j])
    if alg.series in ("B", "C"):
        for x in c:
            product *= x
    return product


@lru_cache(maxsize=None)
def _rho_product(alg: SimpleAlgebra) -> int:
    return _weyl_numerator(alg, eps2(alg, rho(alg)))


def dimension(alg: SimpleAlgebra, lam) -> int:
    """Weyl dimension formula: prod over alpha > 0 of (lam+rho, alpha)/(rho, alpha).

    Evaluated root-by-root in doubled epsilon coordinates with integer arithmetic.
    """
    return weyl_dimension(alg, check_dominant(alg, lam))


@lru_cache(maxsize=None)
def weyl_dimension(alg: SimpleAlgebra, lam: Weight) -> int:
    """Memoized kernel of `dimension` for a weight check_dominant accepted."""
    dim, rest = divmod(_weyl_numerator(alg, eps2(alg, [x + 1 for x in lam])), _rho_product(alg))
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
    which makes the prefix pruning exhaustive.
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
            if dimension(alg, tuple(labels)) > bound:
                break
            rec(i + 1)
            v += 1
        labels[i] = 0

    rec(0)
    return out
