"""Labeled Bratteli diagrams for finite prefixes of direct systems.

A system is a list of levels (semisimple algebras embedded in a growing
ambient chain) and a list of edges (branchings between consecutive
levels).  Vertices (n, j) carry the embedding index alpha of component j
in the level-n ambient; edges carry the component-to-component index
beta.  The consistency law alpha_n^j = sum_k beta_n^{j,k} alpha_{n+1}^k
is validated on construction, and everything downstream (level sums,
stabilization, decomposition into constituents) works on the validated
graph.

The graph derives each vertex's successor list from beta once.  Everything
about an origin (its forward closure, level sums and stabilization level
m0) comes from its closure, built from the top level down and memoized on
the graph.  Closures share their suffixes, so a W-wide chain of depth L
decomposes in O(W*L); only `subdiagram`, `level_sums` and witness strings
spell the layers out.

Levels are numbered from 1; component positions j are 0-based.
"""

from __future__ import annotations

from functools import cached_property

from .algebras import SimpleAlgebra
from .errors import DimensionMismatchError, DomainError, InternalConsistencyError, NotStabilizedError
from .index import Embedding, ModuleDecomposition, SemisimpleAlgebra, embedding_index, natural_copies
from .record import Record

_AMBIENT_KIND = {"A": "sl", "B": "so", "D": "so", "C": "sp"}

INFINITE_KINDS = ("SlInf", "SoInf", "SpInf")
_SERIES_TO_INFINITE = {"A": "SlInf", "C": "SpInf", "B": "SoInf", "D": "SoInf"}

# Window used to judge tail patterns (rank growth, constancy) from a prefix.
TAIL_WINDOW = 3


class LevelSpec(Record):
    """One level: the semisimple algebra, its ambient, and how the ambient's
    natural module branches over the components.

    conatural_branching optionally overrides the dual-side decomposition for
    socle analysis; it models non-square levels of non-reductive exhaustions
    (a Levi component paired with a strictly smaller restricted dual), so its
    total dimension may differ from the natural one.  When absent, the dual
    side is derived from the primal branching by factorwise dualization.
    `embedding`, the components into the ambient, is derived, not a field.
    """

    components: SemisimpleAlgebra
    ambient: SimpleAlgebra
    ambient_branching: ModuleDecomposition
    conatural_branching: ModuleDecomposition | None

    def __init__(self, components, ambient, ambient_branching, conatural_branching=None):
        # Embedding construction validates total dimension and, for B/C/D
        # ambients, self-duality of the branching.
        embedding = Embedding(components, ambient, ambient_branching)
        if conatural_branching is not None:
            if conatural_branching.algebra != components:
                raise DomainError("conatural branching must decompose over the level components")
            if conatural_branching.total_dim > ambient.natural_dim:
                raise DimensionMismatchError("conatural branching cannot exceed the ambient natural dimension")
        self.__dict__.update(components=components, ambient=ambient, ambient_branching=ambient_branching,
                             conatural_branching=conatural_branching, embedding=embedding)

    @cached_property
    def conatural(self) -> ModuleDecomposition:
        """The dual-side branching, computed once per level."""
        return self.conatural_branching or self.ambient_branching.dual()


class EdgeSpec(Record):
    """Branchings of the next level's component naturals over this level."""

    branchings: tuple[ModuleDecomposition, ...]  # one per component of level n+1


class BratteliGraph(Record):
    """Levels and edges (the fields) with their labels: `alpha` of each vertex (n, j), `beta` of
    each edge (n, j, k).  `succ` maps (n, j) to its [(k, beta), ...] in increasing k (none at
    the top level), and `walks` memoizes each vertex's `closure`."""

    levels: tuple[LevelSpec, ...]
    edges: tuple[EdgeSpec, ...]

    def __init__(self, levels, edges, alpha, beta):
        succ: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (n, j, k), value in sorted(beta.items()):
            succ.setdefault((n, j), []).append((k, value))
        self.__dict__.update(levels=levels, edges=edges, alpha=alpha, beta=beta, succ=succ, walks={})

    @property
    def top(self) -> int:
        return len(self.levels)

    def components_at(self, n: int) -> tuple[SimpleAlgebra, ...]:
        return self.levels[n - 1].components.factors

    def vertices(self):
        for n in range(1, self.top + 1):
            for j in range(len(self.components_at(n))):
                yield (n, j)

    def out_edges(self, n: int, j: int):
        return list(self.succ.get((n, j), ()))

    def algebra_at(self, vertex) -> SimpleAlgebra:
        n, j = vertex
        return self.components_at(n)[j]


def compute_labels(levels, edges) -> BratteliGraph:
    """Build and validate the labeled graph from level and edge specs."""
    levels = tuple(levels)
    edges = tuple(edges)
    if not levels:
        raise DomainError("a system needs at least one level")
    if len(edges) != len(levels) - 1:
        raise DimensionMismatchError(
            f"{len(levels)} levels need {len(levels) - 1} edge specs, got {len(edges)}"
        )
    kinds = {_AMBIENT_KIND[lv.ambient.series] for lv in levels}
    if len(kinds) > 1:
        raise DomainError(f"ambient kind must be constant across levels, got {sorted(kinds)}")
    for n, (lower, upper) in enumerate(zip(levels, levels[1:]), start=1):
        lower_dim = sum(f.dim for f in lower.components.factors)
        upper_dim = sum(f.dim for f in upper.components.factors)
        if lower_dim > upper_dim:
            raise DomainError(
                f"level {n} has dimension {lower_dim} > {upper_dim} of level {n + 1}; "
                "the connecting maps cannot be injective"
            )

    alpha: dict[tuple[int, int], int] = {}
    for n, lv in enumerate(levels, start=1):
        for j, value in enumerate(embedding_index(lv.embedding)):
            if value < 1:
                raise DomainError(
                    f"component {j} of level {n} acts trivially on the ambient natural module"
                )
            alpha[(n, j)] = value

    beta: dict[tuple[int, int, int], int] = {}
    for n, edge in enumerate(edges, start=1):
        sources = levels[n - 1].components
        targets = levels[n].components.factors
        if len(edge.branchings) != len(targets):
            raise DimensionMismatchError(
                f"edge {n} has {len(edge.branchings)} branchings for {len(targets)} "
                f"components of level {n + 1}"
            )
        for k, branching in enumerate(edge.branchings):
            if branching.algebra != sources:
                raise DomainError(
                    f"edge {n}: branching of component {k} must decompose over level {n}"
                )
            emb = Embedding(sources, targets[k], branching)
            for j, value in enumerate(embedding_index(emb)):
                present = any(any(s.weights[j]) for s in branching.summands)
                if present != (value > 0):
                    raise InternalConsistencyError(
                        f"edge ({n},{j})->({n + 1},{k}): presence and index disagree"
                    )
                if present:
                    beta[(n, j, k)] = value

    graph = BratteliGraph(levels, edges, alpha, beta)
    # The level-to-level sum law, checked at every non-top vertex.
    for (n, j), value in alpha.items():
        total = sum(b * alpha[(n + 1, k)] for k, b in graph.succ.get((n, j), ()))
        if n < len(levels) and total != value:
            raise DomainError(
                f"inconsistent system at level {n}, component {j}: "
                f"alpha={value} but edge sum gives {total}"
            )
    return graph


class Closure:
    """One level of a forward closure, linked to the closure's levels above.

    `stable` is the first node of the longest suffix whose sums equal the top
    sum and whose layers below the top have single out-edges; `end` is the top.
    """

    __slots__ = ("level", "layer", "total", "rest", "stable", "end")

    def __init__(self, graph: BratteliGraph, level: int, layer: tuple[int, ...], rest: Closure | None):
        self.level, self.layer, self.rest, self.stable, self.end = level, layer, rest, self, self
        self.total = sum(graph.alpha[(level, j)] for j in layer)  # a_level
        if rest is not None:
            self.end = rest.end
            if self.total < rest.total:
                raise InternalConsistencyError(
                    f"level sums increased after level {level}: {[v.total for v in self.nodes()]}")
            if not (rest.stable is rest and self.total == self.end.total
                    and all(len(graph.succ[(level, j)]) == 1 for j in layer)):
                self.stable = rest.stable

    def nodes(self):
        node = self
        while node is not None:
            yield node
            node = node.rest

    @property
    def m0(self) -> int | None:
        """Stabilization level; None when the prefix is too short."""
        if self.stable is self.end and self.end.total != 1 and self is not self.end:
            return None
        return self.stable.level


def closure(graph: BratteliGraph, origin) -> Closure:
    """The origin's forward closure; the first call builds every vertex's, top down.

    A vertex's closure is its own layer on top of the level-wise union of its
    successors' closures: that closure itself when there is one successor,
    else new layers up to the level from which the successors' closures are one.

    m0 is the least level from which the level sums stay constant through
    the top and every closure vertex below the top has exactly one outgoing
    edge.  Both hold on a suffix of levels, which each node extends by its
    own level or inherits.  A candidate at the very top only counts when
    nothing could still change: a single-vertex subdiagram, or a top sum of 1
    (labels are positive, so the sequence cannot drop further).
    """
    origin = tuple(origin)
    if (1, 0) not in graph.walks:  # level 1 is built last
        for n in range(graph.top, 0, -1):
            for j in range(len(graph.components_at(n))):
                heads, forks = {graph.walks[(n + 1, k)] for k, _ in graph.succ.get((n, j), ())}, []
                while len(heads) > 1:
                    forks.append(heads)
                    heads = {node.rest for node in heads}
                rest = next(iter(heads), None)
                for level, nodes in reversed(list(enumerate(forks, n + 1))):
                    rest = Closure(graph, level, tuple(sorted({k for v in nodes for k in v.layer})), rest)
                graph.walks[(n, j)] = Closure(graph, n, (j,), rest)
    if origin not in graph.walks:
        raise DomainError(f"no vertex {origin} in the graph")
    return graph.walks[origin]


def subdiagram(graph: BratteliGraph, origin) -> set[tuple[int, int]]:
    """Vertices reachable from the origin (the full forward closure)."""
    return {(node.level, j) for node in closure(graph, origin).nodes() for j in node.layer}


def level_sums(graph: BratteliGraph, origin) -> list[int]:
    """a_m = sum of alpha over the subdiagram's level-m vertices, m = n..top.

    The sequence is monotone non-increasing on every validated graph.
    """
    return [node.total for node in closure(graph, origin).nodes()]


def stabilization(graph: BratteliGraph, origin) -> int | None:
    """Least level m0 from which the subdiagram is a union of strings, or
    None when the prefix is too short to witness it (see `closure`)."""
    return closure(graph, origin).m0


class Constituent(Record):
    """One direct summand of the limit, witnessed by a string of vertices."""

    cid: int
    kind: str  # FiniteSimple | SlInf | SoInf | SpInf | Undetermined
    algebra: SimpleAlgebra | None
    string: tuple[tuple[int, int], ...]
    tail_assumed: bool

    def is_infinite(self) -> bool:
        return self.kind in INFINITE_KINDS


def _classify_tail(graph: BratteliGraph, string) -> tuple[str, SimpleAlgebra | None, bool]:
    window = string[-min(TAIL_WINDOW, len(string)):]
    algs = [graph.algebra_at(v) for v in window]
    betas = [graph.beta[(v[0], v[1], w[1])] for v, w in zip(window, window[1:])]
    if all(b == 1 for b in betas):
        # Natural dimensions, not ranks: so(2n) -> so(2n+1) grows while the
        # rank plateaus, and the dimension test coincides with rank growth
        # inside a single series anyway.
        dims = [a.natural_dim for a in algs]
        growing = len(dims) >= 2 and all(a < b for a, b in zip(dims, dims[1:]))
        if growing:
            # The limit is decided by the eventual tail, hence by the last
            # vertex's series class; earlier window entries may predate a
            # one-way series transition.
            return _SERIES_TO_INFINITE[algs[-1].series], None, True
        if len(set(algs)) == 1:
            return "FiniteSimple", algs[0], True
    return "Undetermined", None, False


def decompose(graph: BratteliGraph) -> list[Constituent]:
    """Constituents of the limit: equivalence classes of strings.

    Every vertex is taken as an origin; strings start at each origin's
    stabilized level; strings sharing a vertex at or above their
    stabilization levels coincide from that point on, so classes are the
    groups of strings with a common endpoint.
    """
    walks = {v: closure(graph, v) for v in graph.vertices()}
    unstable = [v for v, walk in walks.items() if walk.m0 is None]
    if unstable:
        raise NotStabilizedError(
            "prefix too short: no stabilization witnessed at origins "
            + ", ".join(map(str, sorted(unstable))),
            origins=sorted(unstable),
        )
    # Each vertex of an origin's level-m0 layer starts a string: its own closure.
    starts_by_top: dict[tuple[int, int], list] = {}
    for walk in walks.values():
        for j in walk.stable.layer:
            last = walks[(walk.m0, j)].end.layer
            if len(last) != 1:
                raise InternalConsistencyError(f"no unique continuation from {(walk.m0, j)}")
            starts_by_top.setdefault((graph.top, last[0]), []).append((walk.m0, j))

    constituents = []
    for cid, endpoint in enumerate(sorted(starts_by_top)):
        # strings differ at their start vertex, so the least start is the least string
        start = min(starts_by_top[endpoint])
        witness = tuple((node.level, node.layer[0]) for node in walks[start].nodes())
        kind, algebra, assumed = _classify_tail(graph, witness)
        constituents.append(Constituent(cid, kind, algebra, witness, assumed))
    return constituents


class RefinementReport(Record):
    """The nested simple ideals along the unique infinite string."""

    chain: tuple[tuple[int, int], ...]
    algebras: tuple[SimpleAlgebra, ...]
    standard_edges: tuple[bool, ...]
    n0: int


def extract_refinement(graph: BratteliGraph, constituent_id=None) -> RefinementReport:
    """Nested simple ideals refining the system when the limit is simple.

    With several infinite constituents, pass constituent_id to restrict the
    refinement to one class.  An edge of the string is standard when the
    branching carries one natural or conatural copy of the lower vertex and
    nothing else nontrivial on it.
    """
    infinite = [c for c in decompose(graph) if c.is_infinite()]
    if constituent_id is not None:
        infinite = [c for c in infinite if c.cid == constituent_id]
        if not infinite:
            raise DomainError(f"no infinite constituent with id {constituent_id}")
    if len(infinite) != 1:
        raise DomainError(
            f"refinement needs exactly one infinite constituent, found {len(infinite)}; "
            "pass constituent_id to pick a class"
        )
    string = infinite[0].string
    flags = []
    for (n, j), (_, k) in zip(string, string[1:]):
        copies, dual_copies, odd = natural_copies(graph.edges[n - 1].branchings[k], j)
        flags.append(odd is None and copies + dual_copies == 1)
    n0 = string[0][0]
    for pos, flag in enumerate(flags):
        if not flag:
            n0 = string[pos + 1][0]
    return RefinementReport(
        chain=string,
        algebras=tuple(graph.algebra_at(v) for v in string),
        standard_edges=tuple(flags),
        n0=n0,
    )
