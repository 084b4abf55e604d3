"""Structure of the natural and conatural modules over the limit subalgebra.

All quantities are read off the ambient branchings along constituent
strings.  Limits are judged from a finite prefix with a three-level
window, so every verdict ships its evidence sequence: `finite(t)` when the
trivial mass is constant across the window, `countable` when it grows
strictly, `undetermined_at_horizon` otherwise.  The dual side uses the
level's conatural override when present and the primal's trivial masses
when not (a dual summand is trivial where its summand is); an override is
checked against the factorwise dual of the primal once per infinite
constituent, by `multiplicities`.

A finite prefix cannot tell trivial directions that persist (socle) from
trivial directions that keep escaping into later naturals (quotient); the
reported quotient dimensions carry the full stabilized trivial mass, which
is exact for every fixture in scope.
"""

from __future__ import annotations

from math import prod

from .algebras import Weight
from .errors import DomainError, InternalConsistencyError, NotStabilizedError
from .index import NATURAL_MODULE_INDEX, ModuleDecomposition, natural_copies
from .record import Record
from .system import TAIL_WINDOW, BratteliGraph, Constituent, decompose


class ExtendedDim(Record):
    """finite(n), countable, or undetermined_at_horizon(lower_bound)."""

    kind: str  # finite | countable | undetermined
    value: int | None = None
    lower_bound: int | None = None
    tail_assumed: bool = False
    evidence: tuple[int, ...] = ()

    @staticmethod
    def from_sequence(seq) -> "ExtendedDim":
        seq = tuple(seq)
        if not seq:
            raise DomainError("cannot judge a dimension from an empty sequence")
        window = seq[-min(TAIL_WINDOW, len(seq)):]
        if len(set(window)) == 1:
            return ExtendedDim("finite", value=window[-1], tail_assumed=True, evidence=seq)
        if all(a < b for a, b in zip(window, window[1:])):
            return ExtendedDim("countable", lower_bound=window[-1], tail_assumed=True, evidence=seq)
        return ExtendedDim("undetermined", lower_bound=window[-1], evidence=seq)

    def __str__(self) -> str:
        if self.kind == "finite":
            return f"finite({self.value})"
        if self.kind == "countable":
            return "countable"
        return f"undetermined_at_horizon(>= {self.lower_bound})"


def _require_determined(constituents):
    """An Undetermined constituent is neither finite nor infinite yet."""
    for c in constituents:
        if c.kind == "Undetermined":
            raise NotStabilizedError(
                f"constituent #{c.cid} ending at {c.string[-1]} is Undetermined; lengthen prefix"
            )


def _trivial_mass(decomp: ModuleDecomposition, positions) -> int:
    """Total dimension of the summands trivial on every listed factor."""
    return sum(s.mult * prod(row) for s, row in zip(decomp.summands, decomp.dims)
               if not any(any(s.weights[j]) for j in positions))


def _trivial_dims(levels) -> tuple[ExtendedDim, ExtendedDim]:
    """Trivial masses of V and V_* over the factors listed per level, as (level, positions) pairs.
    A dual summand is trivial where its summand is and has its dimension, so V_* has V's mass
    unless the level overrides its conatural branching."""
    primal, dual = [], []
    for lv, ps in levels:
        primal.append(mass := _trivial_mass(lv.ambient_branching, ps))
        dual.append(mass if lv.conatural_branching is None else _trivial_mass(lv.conatural_branching, ps))
    return ExtendedDim.from_sequence(primal), ExtendedDim.from_sequence(dual)


def _string_dims(graph: BratteliGraph, constituents) -> tuple[ExtendedDim, ExtendedDim]:
    """Trivial masses over the constituents' string vertices, from their latest start level."""
    strings = [dict(c.string) for c in constituents]
    start = max(c.string[0][0] for c in constituents)
    return _trivial_dims([(graph.levels[n - 1], [s[n] for s in strings]) for n in range(start, graph.top + 1)])


def _pure_counts(decomp: ModuleDecomposition, j: int, where: str) -> tuple[int, int]:
    """Copies of the natural / conatural of factor j; errors on anything mixed."""
    k, l, odd = natural_copies(decomp, j)
    if odd is None:
        return k, l
    if sum(map(any, odd.weights)) > 1:
        raise NotStabilizedError(
            f"branching at {where} mixes factor {j} with other components; "
            "not yet stable, lengthen prefix"
        )
    raise NotStabilizedError(
        f"branching at {where} is not diagonal on factor {j} (weight {odd.weights[j]}); "
        "not yet stable, lengthen prefix"
    )


def multiplicities(graph: BratteliGraph, constituent: Constituent) -> tuple[int, int]:
    """(k, l): copies of the constituent's natural and conatural in the
    ambient natural module at the top level, cross-checked one level down."""
    if not constituent.is_infinite():
        raise DomainError("multiplicities are defined for infinite constituents")
    top_vertex = constituent.string[-1]
    n, j = top_vertex
    k, l = _pure_counts(graph.levels[n - 1].ambient_branching, j, f"level {n}")
    if len(constituent.string) >= 2:
        m, i = constituent.string[-2]
        k2, l2 = _pure_counts(graph.levels[m - 1].ambient_branching, i, f"level {m}")
        if (k2, l2) != (k, l):
            raise NotStabilizedError(
                f"multiplicities differ between levels {m} and {n}: "
                f"({k2},{l2}) vs ({k},{l}); not yet stable, lengthen prefix"
            )
    source_idx = NATURAL_MODULE_INDEX[graph.algebra_at(top_vertex).series]
    ambient_idx = NATURAL_MODULE_INDEX[graph.levels[n - 1].ambient.series]
    if (k + l) * source_idx != graph.alpha[top_vertex] * ambient_idx:
        raise InternalConsistencyError(
            f"(k+l) = {k + l} does not match the embedding index "
            f"{graph.alpha[top_vertex]} of {top_vertex}"
        )
    _check_override(graph.levels[n - 1], n, j, k, l)
    return k, l


def _check_override(level, n: int, j: int, k: int, l: int) -> None:
    """At factor j, level n's conatural override must count what the dual of the primal (k, l) counts."""
    if level.conatural_branching is None:
        return
    k_dual, l_dual = _pure_counts(level.conatural_branching, j, f"level {n} (conatural)")
    if (k_dual, l_dual) != _pure_counts(level.ambient_branching.dual(), j, f"level {n}"):
        raise DomainError(f"conatural override at level {n} carries multiplicities "
                          f"({k_dual},{l_dual}), expected the mirror of ({k},{l})")


def trivial_dims(graph: BratteliGraph, constituent: Constituent) -> tuple[ExtendedDim, ExtendedDim]:
    """Dimensions of the trivial parts of V and V_* over one constituent, checked as `multiplicities`."""
    if not constituent.is_infinite():
        raise DomainError("trivial parts are tracked for infinite constituents")
    multiplicities(graph, constituent)
    return _string_dims(graph, [constituent])


class ConstituentSocle(Record):
    cid: int
    kind: str
    algebra: str | None
    k: int
    l: int
    dim_trivial: ExtendedDim
    dim_trivial_dual: ExtendedDim


class IsotypicRow(Record):
    cid: int
    algebra: str
    weight: Weight
    mult: int


class SocleReport(Record):
    constituents: tuple[ConstituentSocle, ...]
    finite_part: tuple[IsotypicRow, ...]
    quotient: ExtendedDim
    quotient_dual: ExtendedDim


def _check_disjoint_supports(graph: BratteliGraph):
    """At the top level, no summand may be non-trivial on two components."""
    top = graph.levels[-1].ambient_branching
    for s in top.summands:
        support = [j for j, w in enumerate(s.weights) if any(w)]
        if len(support) > 1:
            raise DomainError(
                f"top-level summand {s.weights} has overlapping isotypic supports "
                f"{support}: inconsistent system data"
            )


def socle_report(graph: BratteliGraph) -> SocleReport:
    constituents = decompose(graph)
    _require_determined(constituents)
    _check_disjoint_supports(graph)

    rows = []
    finite_rows = []
    for c in constituents:  # in top-vertex order
        if c.is_infinite():
            k, l = multiplicities(graph, c)
            dim_n, dim_n_star = _string_dims(graph, [c])
            rows.append(
                ConstituentSocle(
                    c.cid, c.kind, str(c.algebra) if c.algebra else None, k, l, dim_n, dim_n_star
                )
            )
        else:
            j = c.string[-1][1]
            alg = graph.algebra_at(c.string[-1])
            counts: dict[Weight, int] = {}
            for s in graph.levels[-1].ambient_branching.summands:
                w = s.weights[j]
                if any(w):
                    counts[w] = counts.get(w, 0) + s.mult
            for w in sorted(counts):
                finite_rows.append(IsotypicRow(c.cid, str(alg), w, counts[w]))

    quotient, quotient_dual = _trivial_dims([(lv, range(len(lv.components.factors))) for lv in graph.levels])
    return SocleReport(
        constituents=tuple(rows),
        finite_part=tuple(finite_rows),
        quotient=quotient,
        quotient_dual=quotient_dual,
    )


class SubsetInvariants(Record):
    ids: tuple[int, ...]
    dim_trivial: ExtendedDim
    dim_trivial_dual: ExtendedDim
    quotient: ExtendedDim
    quotient_dual: ExtendedDim


class InvariantsReport(Record):
    multiplicity_pairs: tuple[tuple[int, int, int], ...]  # (cid, k, l)
    subsets: tuple[SubsetInvariants, ...]


def standard_invariants(graph: BratteliGraph, subsets=None) -> InvariantsReport:
    """k/l pairs plus, per subset J of infinite constituents, the trivial
    dimensions of the joint fixed part and the quotient evidence.

    Defaults to every singleton and the full infinite set.  The quotient
    entries repeat the trivial evidence: over a finite prefix both are read
    from the same stabilized trivial mass.
    """
    constituents = decompose(graph)
    _require_determined(constituents)
    by_id = {c.cid: c for c in constituents}
    infinite_ids = [c.cid for c in constituents if c.is_infinite()]

    if not subsets:
        subsets = [(cid,) for cid in infinite_ids]
        if len(infinite_ids) > 1:
            subsets.append(tuple(infinite_ids))
    chosen = []
    for J in subsets:
        J = tuple(sorted(set(J)))
        if not J:
            raise DomainError("subsets must be non-empty")
        for cid in J:
            if cid not in by_id or not by_id[cid].is_infinite():
                raise DomainError(f"constituent {cid} is not an infinite constituent")
        if J not in chosen:
            chosen.append(J)

    pairs = [(cid, *multiplicities(graph, by_id[cid])) for cid in infinite_ids]

    rows = []
    for J in chosen:
        dim_n, dim_n_star = _string_dims(graph, [by_id[cid] for cid in J])
        rows.append(SubsetInvariants(J, dim_n, dim_n_star, dim_n, dim_n_star))
    return InvariantsReport(tuple(pairs), tuple(rows))
