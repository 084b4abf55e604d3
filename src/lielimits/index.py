"""Dynkin index calculus.

The index of an irreducible module U with highest weight lam over a simple
algebra f is (dim U / dim f) * (lam, lam + 2 rho); it is always a
non-negative integer.  Embedding indices divide out the index of the
target's natural module, fixed per series as {A: 1, B: 2, C: 1, D: 2}
(derived from the same formula and asserted at import).  The index of a
composite embedding is Dynkin's sum formula over the middle factors; the
restriction through the oracle's tensor products is the tests' reference.

`natural_copies` counts the (k, l) copies of a factor's natural and
conatural modules once, for the classification of embeddings, the socle
multiplicities and the standard edges of a refinement.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from . import algebras
from .algebras import SimpleAlgebra, Weight, check_dominant, dual_labels, eps2, form_scale, pairing
from .errors import DimensionMismatchError, DomainError, InternalConsistencyError, ResourceBoundError
from .record import Record


class SemisimpleAlgebra(Record):
    """An ordered direct sum of classical simple algebras.  `self_dual`: whether -w0 = 1 on
    every factor (A1, B, C, even-rank D), i.e. `dual_labels` fixes distinct labels."""

    factors: tuple[SimpleAlgebra, ...]

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise DomainError("a semisimple algebra needs at least one simple factor")
        self.__dict__.update(factors=factors, self_dual=all(
            dual_labels(f, w := tuple(range(f.rank))) == w for f in factors))

    def __str__(self) -> str:
        return "+".join(str(f) for f in self.factors)


class Summand(Record):
    """One irreducible summand: a weight per factor (zero = trivial), with multiplicity."""

    weights: tuple[Weight, ...]
    mult: int

    def __init__(self, weights, mult=1):
        if not (type(mult) is int and mult >= 1):
            raise DomainError(f"multiplicity must be an integer >= 1, got {mult!r}")
        self.__dict__.update(weights=tuple(map(tuple, weights)), mult=mult)


class ModuleDecomposition(Record):
    """A finite multiset of irreducible summands over a semisimple algebra.  `dims` (per summand,
    each factor's Weyl dimension), `indices` (per factor) and `total_dim` come from one pass."""

    algebra: SemisimpleAlgebra
    summands: tuple[Summand, ...]

    def __init__(self, algebra, summands):
        factors = algebra.factors
        summands = tuple(summands)
        for s in summands:
            if len(s.weights) != len(factors):
                raise DimensionMismatchError(
                    f"summand has {len(s.weights)} weights for {len(factors)} factors"
                )
            for alg, w in zip(factors, s.weights):
                check_dominant(alg, w)
        self.__dict__.update(algebra=algebra, summands=_merged(summands))

    @classmethod
    def _trusted(cls, algebra: SemisimpleAlgebra, summands) -> "ModuleDecomposition":
        """From summands already validated over `algebra`: merged, not re-checked."""
        self = object.__new__(cls)
        self.__dict__.update(algebra=algebra, summands=_merged(summands))
        return self

    def __getattr__(self, name):
        """All three in one pass over the summands; a trivial weight calls no kernel."""
        if name not in ("dims", "indices", "total_dim"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        factors = self.algebra.factors
        dims, indices, total = [], [0] * len(factors), 0
        for s in self.summands:
            row = tuple(algebras.weyl_dimension(f, w) if any(w) else 1 for f, w in zip(factors, s.weights))
            size = s.mult * prod(row)
            for j, w in enumerate(s.weights):
                if any(w):
                    indices[j] += size // row[j] * irrep_index(factors[j], w)
            dims.append(row)
            total += size
        self.__dict__.update(dims=tuple(dims), indices=tuple(indices), total_dim=total)
        return self.__dict__[name]

    def dual(self) -> "ModuleDecomposition":
        """Factorwise dual of every summand; dual weights keep their dimensions and indices."""
        if self.algebra.self_dual:
            return self
        duals = {tuple(map(dual_labels, self.algebra.factors, s.weights)): (s.mult, row)
                 for s, row in zip(self.summands, self.dims)}
        out = ModuleDecomposition._trusted(self.algebra, (Summand(w, m) for w, (m, _) in duals.items()))
        out.__dict__.update(dims=tuple(duals[s.weights][1] for s in out.summands),
                            indices=self.indices, total_dim=self.total_dim)
        return out

    def is_self_dual(self) -> bool:
        if self.algebra.self_dual:
            return True
        factors = self.algebra.factors
        pairs = [(s.weights, s.mult) for s in self.summands]
        return sorted((tuple(map(dual_labels, factors, w)), m) for w, m in pairs) == pairs


def _merged(summands) -> tuple[Summand, ...]:
    """One summand per distinct weight tuple, multiplicities added, sorted.
    A weight tuple met once keeps its summand; only a merge builds one."""
    merged: dict[tuple[Weight, ...], Summand] = {}
    for s in summands:
        seen = merged.get(s.weights)
        merged[s.weights] = s if seen is None else Summand(seen.weights, seen.mult + s.mult)
    return tuple(map(merged.__getitem__, sorted(merged)))


def decomposition(factors, records) -> ModuleDecomposition:
    """Convenience constructor.  Each record is a Summand or a pair
    (weights, mult) with one weight per factor, like (((1, 0), (0, 0)), 2)."""
    summands = []
    for rec in records:
        if not isinstance(rec, Summand):
            try:
                weights, mult = rec
                rec = Summand(weights, mult)
            except (TypeError, ValueError):
                raise DomainError(f"cannot read summand record {rec!r}") from None
        summands.append(rec)
    return ModuleDecomposition(SemisimpleAlgebra(tuple(factors)), summands)


# Index of the natural module per series; the divisor in embedding_index.
NATURAL_MODULE_INDEX = {"A": 1, "B": 2, "C": 1, "D": 2}


def index_of_irrep(alg: SimpleAlgebra, lam) -> int:
    """Dynkin index of the irreducible with highest weight lam; integer >= 0."""
    return irrep_index(alg, check_dominant(alg, lam))


@lru_cache(maxsize=None)
def irrep_index(alg: SimpleAlgebra, lam: Weight) -> int:
    """Memoized kernel of `index_of_irrep` for a weight check_dominant accepted."""
    norm = pairing(alg, eps2(alg, lam), eps2(alg, [x + 2 for x in lam]))
    value, rest = divmod(algebras.weyl_dimension(alg, lam) * norm, alg.dim * form_scale(alg))
    if rest or value < 0:
        raise InternalConsistencyError(f"index of {lam} over {alg} is not an integer >= 0: {value} rem {rest}")
    return value


def index_of_module(decomp: ModuleDecomposition, factor: int) -> int:
    """Index of the whole module seen through one source factor.

    Sums mult * (product of the other factors' dims) * index(weight at
    `factor`); this is exactly the direct-sum and tensor-product rules
    combined.
    """
    _check_factor(decomp, factor)
    return decomp.indices[factor]


class Embedding(Record):
    """An embedding of a semisimple algebra into a simple one, recorded by the
    branching of the target's natural module over the source."""

    source: SemisimpleAlgebra
    target: SimpleAlgebra
    branching: ModuleDecomposition

    def __init__(self, source, target, branching):
        if branching.algebra != source:
            raise DomainError("branching must decompose over the source algebra")
        if branching.total_dim != target.natural_dim:
            raise DimensionMismatchError(f"branching dimension {branching.total_dim} != natural "
                                         f"dimension {target.natural_dim} of target {target}")
        if target.series in ("B", "C", "D") and not branching.is_self_dual():
            raise DomainError(f"target {target} carries an invariant form; the branching must be "
                              "self-dual as a multiset")
        self.__dict__.update(source=source, target=target, branching=branching)


def _check_factor(decomp: ModuleDecomposition, factor: int) -> None:
    if not 0 <= factor < len(decomp.algebra.factors):
        raise DomainError(f"factor {factor} out of range for {decomp.algebra}")


def embedding_index(emb: Embedding) -> list[int]:
    """Per-source-factor Dynkin index of the embedding."""
    divisor = NATURAL_MODULE_INDEX[emb.target.series]
    out = []
    for j, raw in enumerate(emb.branching.indices):
        if raw % divisor != 0:
            raise DomainError(
                f"module index {raw} of factor {j} is not divisible by the natural-module "
                f"index {divisor} of target {emb.target}: invalid branching data"
            )
        out.append(raw // divisor)
    return out


class Standard(Record):
    dual: bool = False  # True when the single copy is the conatural

    def __str__(self):
        return "Standard"


class Diagonal(Record):
    copies: int          # copies of the natural module
    dual_copies: int     # copies of its dual
    trivial: int         # trivial lines

    def __str__(self):
        return f"Diagonal(k={self.copies}, l={self.dual_copies}, t={self.trivial})"


class General(Record):
    def __str__(self):
        return "General"


def natural_copies(decomp: ModuleDecomposition, j: int) -> tuple[int, int, Summand | None]:
    """(k, l, odd): the copies of factor j's natural module and of its conatural (when the two
    differ) among the summands trivial off j, and the first summand nontrivial at j that is
    another weight or also nontrivial at another factor (None when there is none)."""
    _check_factor(decomp, j)
    alg = decomp.algebra.factors[j]
    omega = alg.natural_weight
    omega_dual = dual_labels(alg, omega)
    k = l = 0
    odd = None
    for s in decomp.summands:
        w = s.weights[j]
        if not any(w):
            continue
        if w not in (omega, omega_dual) or sum(map(any, s.weights)) > 1:
            odd = s if odd is None else odd
        elif w == omega:
            k += s.mult
        else:
            l += s.mult
    return k, l, odd


def classify_embedding(emb: Embedding):
    """Standard / Diagonal(k, l, t) / General, for a simple source; t is what the k + l
    natural and conatural copies leave of the target's natural dimension."""
    if len(emb.source.factors) != 1:
        raise DomainError("classification is defined for embeddings of a simple algebra")
    k, l, odd = natural_copies(emb.branching, 0)
    if odd is not None:
        return General()
    if k + l == 1:
        return Standard(dual=(l == 1))
    return Diagonal(k, l, emb.target.natural_dim - (k + l) * emb.source.factors[0].natural_dim)


def compose_index(first: list[Embedding], second: Embedding) -> int:
    """Index of a composite f -> k_1 + ... + k_l -> f' by Dynkin's sum formula.

    `first` holds one Embedding per middle factor (all with the same simple
    source f); `second` embeds the middle sum into f'.  The result is
    sum_j ind(f -> k_j) * ind_j(k -> f'), the index of the composite
    branching of the natural module of f' over f.
    """
    if not first:
        raise DomainError("need at least one middle factor")
    sources = {e.source for e in first}
    if len(sources) != 1 or len(first[0].source.factors) != 1:
        raise DomainError("all first-leg embeddings must share one simple source")
    middle = tuple(e.target for e in first)
    if second.source.factors != middle:
        raise DomainError(
            f"middle algebra mismatch: first legs give {'+'.join(map(str, middle))}, "
            f"second expects {second.source}"
        )
    leg_index = [embedding_index(e)[0] for e in first]
    return sum(li * sj for li, sj in zip(leg_index, embedding_index(second)))


def min_nondiagonal_index(alg: SimpleAlgebra, dim_bound: int) -> int:
    """Minimum index over dominant weights outside {0, natural, conatural}
    with dimension <= dim_bound; exhaustive by lexicographic enumeration."""
    omega = alg.natural_weight
    excluded = {(0,) * alg.rank, omega, dual_labels(alg, omega)}
    best = None
    for lam in algebras.dominant_weights_up_to_dim(alg, dim_bound):
        if lam in excluded:
            continue
        idx = index_of_irrep(alg, lam)
        if best is None or idx < best:
            best = idx
    if best is None:
        raise ResourceBoundError(
            f"bound too small: no dominant weight of {alg} outside the trivial, natural, "
            f"and conatural modules has dimension <= {dim_bound}"
        )
    return best


def _assert_natural_index_table():
    probes = {"A": (1, 2, 5), "B": (2, 3, 5), "C": (1, 2, 5), "D": (4, 5, 6)}
    for series, ranks in probes.items():
        for rank in ranks:
            alg = SimpleAlgebra(series, rank)
            got = index_of_irrep(alg, alg.natural_weight)
            if got != NATURAL_MODULE_INDEX[series]:
                raise InternalConsistencyError(
                    f"natural-module index table broken for {alg}: got {got}"
                )


_assert_natural_index_table()
