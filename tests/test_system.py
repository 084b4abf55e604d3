import json
import random

import pytest

from conftest import A, graph_from_fixture, load_fixture, random_diagonal_system, run_cli
from lielimits import formats, system
from lielimits.algebras import dimension, dual_weight
from lielimits.errors import (DimensionMismatchError, DomainError, InternalConsistencyError,
                              NotStabilizedError)
from lielimits.index import (
    Embedding,
    ModuleDecomposition,
    SemisimpleAlgebra,
    Standard,
    Summand,
    classify_embedding,
    decomposition,
    natural_copies,
    restrict_to_factor,
)
from lielimits.socle import _pure_counts
from lielimits.system import (
    BratteliGraph,
    Closure,
    EdgeSpec,
    LevelSpec,
    _classify_tail,
    closure,
    compute_labels,
    decompose,
    extract_refinement,
    level_sums,
    stabilization,
    subdiagram,
)


def test_s1_labels_and_constituent():
    g = graph_from_fixture("s1.json")
    assert all(v == 1 for v in g.alpha.values())
    assert all(v == 1 for v in g.beta.values())
    assert level_sums(g, (1, 0)) == [1, 1, 1, 1, 1]
    assert stabilization(g, (1, 0)) == 1
    cs = decompose(g)
    assert len(cs) == 1 and cs[0].kind == "SlInf" and cs[0].tail_assumed
    assert cs[0].string == ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0))


def test_tensor_fixture_labels():
    g = graph_from_fixture("tensor2.json")
    assert g.alpha == {(1, 0): 2, (1, 1): 2, (2, 0): 1}
    assert g.beta == {(1, 0, 0): 2, (1, 1, 0): 2}
    assert level_sums(g, (1, 0)) == [2, 1]
    # the drop to 1 cannot continue, so the top level counts as stabilized
    assert stabilization(g, (1, 0)) == 2
    cs = decompose(g)
    assert len(cs) == 1


def test_not_stabilized_fixture():
    g = graph_from_fixture("notstab.json")
    assert level_sums(g, (1, 0)) == [4, 2]
    assert stabilization(g, (1, 0)) is None
    with pytest.raises(NotStabilizedError) as err:
        decompose(g)
    assert (1, 0) in err.value.origins


def test_s2_two_strings():
    g = graph_from_fixture("s2.json")
    cs = decompose(g)
    assert [c.kind for c in cs] == ["SlInf", "SlInf"]
    assert level_sums(g, (1, 0)) == [1, 1, 1, 1]


def test_s3_finite_blocks():
    g = graph_from_fixture("s3.json")
    cs = decompose(g)
    assert len(cs) == 4
    assert all(c.kind == "FiniteSimple" and str(c.algebra) == "A1" for c in cs)
    # block j enters at level j+1 and persists
    starts = sorted(c.string[0] for c in cs)
    assert starts == [(1, 0), (2, 1), (3, 2), (4, 3)]


def test_s4_mixed_kinds():
    g = graph_from_fixture("s4.json")
    cs = decompose(g)
    kinds = sorted((c.kind, str(c.algebra)) for c in cs)
    assert kinds == [("FiniteSimple", "A1"), ("SpInf", "None")]


def test_so_chain_kind():
    g = graph_from_fixture("so_chain.json")
    cs = decompose(g)
    assert [c.kind for c in cs] == ["SoInf"]


def test_single_series_class_along_unit_tails():
    # On unit-label growing tails the series stays inside one of {A}, {C}, {B, D}.
    classes = {"A": "A", "B": "BD", "D": "BD", "C": "C"}
    for name in ("s1.json", "s2.json", "so_chain.json"):
        g = graph_from_fixture(name)
        for c in decompose(g):
            if c.kind in ("SlInf", "SoInf", "SpInf"):
                window = c.string[-3:]
                tags = {classes[g.algebra_at(v).series] for v in window}
                assert len(tags) == 1


def test_edge_presence_matches_nontrivial_action():
    g = graph_from_fixture("s3.json")
    # the fresh block at each level has no incoming edges
    for n in range(1, 4):
        new = len(g.components_at(n + 1)) - 1
        assert all((n, j, new) not in g.beta for j in range(len(g.components_at(n))))


def test_eq4_violation_reported():
    a1, a3 = A(1), A(3)
    lv1 = LevelSpec(SemisimpleAlgebra((a1,)), a3, decomposition([a1], [(((1,),), 2)]))
    lv2 = LevelSpec(SemisimpleAlgebra((a3,)), a3, decomposition([a3], [(((1, 0, 0),), 1)]))
    edge = EdgeSpec((decomposition([a1], [(((1,),), 1), (((0,),), 2)]),))
    with pytest.raises(DomainError) as err:
        compute_labels([lv1, lv2], [edge])
    assert "level 1" in str(err.value)


def test_edge_dimension_mismatch_is_spec_error():
    a1, a3 = A(1), A(3)
    lv1 = LevelSpec(
        SemisimpleAlgebra((a1, a1)), a3, decomposition([a1, a1], [(((1,), (1,)), 1)])
    )
    lv2 = LevelSpec(SemisimpleAlgebra((a3,)), a3, decomposition([a3], [(((1, 0, 0),), 1)]))
    bad_edge = EdgeSpec((decomposition([a1, a1], [(((1,), (0,)), 1)]),))
    with pytest.raises(DimensionMismatchError):
        compute_labels([lv1, lv2], [bad_edge])


def test_mixed_ambient_kinds_rejected():
    a1, c2 = A(1), __import__("lielimits").SimpleAlgebra("C", 2)
    lv1 = LevelSpec(SemisimpleAlgebra((a1,)), A(1), decomposition([a1], [(((1,),), 1)]))
    lv2 = LevelSpec(
        SemisimpleAlgebra((c2,)), c2, decomposition([c2], [(((1, 0),), 1)])
    )
    edge = EdgeSpec((decomposition([a1], [(((1,),), 2)]),))
    with pytest.raises(DomainError):
        compute_labels([lv1, lv2], [edge])


def _max_paths(graph, origin):
    paths = [[origin]]
    done = []
    while paths:
        path = paths.pop()
        n, j = path[-1]
        outs = graph.out_edges(n, j)
        if not outs:
            done.append(path)
            continue
        for k, _ in outs:
            paths.append(path + [(n + 1, k)])
    return done


def _beta_product(graph, path):
    value = 1
    for (n, j), (_, k) in zip(path, path[1:]):
        value *= graph.beta[(n, j, k)]
    return value


@pytest.mark.parametrize(
    "name", ["s1.json", "s2.json", "s3.json", "s4.json", "tensor2.json", "so_chain.json"]
)
def test_path_sum_identity(name):
    # alpha at the origin equals the beta-weighted sum over maximal paths.
    g = graph_from_fixture(name)
    for origin in g.vertices():
        total = sum(
            _beta_product(g, p) * g.alpha[p[-1]] for p in _max_paths(g, origin)
        )
        assert total == g.alpha[origin]


def test_random_diagonal_systems_validate(rng):
    for _ in range(25):
        levels, edges = random_diagonal_system(rng)
        g = compute_labels(levels, edges)  # sum law validated inside
        for origin in g.vertices():
            sums = level_sums(g, origin)  # monotone, asserted inside
            m0 = stabilization(g, origin)
            if m0 is not None:
                sub = subdiagram(g, origin)
                for (m, i) in sub:
                    if m0 <= m < g.top:
                        assert len(g.out_edges(m, i)) == 1
                # labels along strings collapse to 1-step transports
                assert len(set(sums[m0 - origin[0]:])) == 1


def test_decompose_partitions_top_level(rng):
    for name in ("s1.json", "s2.json", "s3.json", "s4.json"):
        g = graph_from_fixture(name)
        cs = decompose(g)
        endpoints = [c.string[-1] for c in cs]
        expected = [(g.top, j) for j in range(len(g.components_at(g.top)))]
        assert sorted(endpoints) == expected


def test_refinement_s1():
    g = graph_from_fixture("s1.json")
    rep = extract_refinement(g)
    assert rep.chain == ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0))
    assert all(rep.standard_edges)
    assert rep.n0 == 1


def test_refinement_mixed_edge():
    g = graph_from_fixture("refine_mixed.json")
    rep = extract_refinement(g)
    assert rep.standard_edges == (False, True)
    assert rep.n0 == 2
    assert [str(a) for a in rep.algebras] == ["A2", "D4", "D5"]


def test_refinement_requires_unique_infinite_part():
    with pytest.raises(DomainError):
        extract_refinement(graph_from_fixture("s2.json"))
    with pytest.raises(DomainError):
        extract_refinement(graph_from_fixture("s3.json"))


def test_split_vertex_stabilizes_after_the_split():
    # one component of label 2 splits into two unit strings; the level sums
    # stay constant but stabilization waits for the split to finish
    a1, a3 = A(1), A(3)
    one = SemisimpleAlgebra((a1,))
    two = SemisimpleAlgebra((a1, a1))
    lv1 = LevelSpec(one, a3, decomposition([a1], [(((1,),), 2)]))
    pair_branching = decomposition([a1, a1], [(((1,), (0,)), 1), (((0,), (1,)), 1)])
    lv2 = LevelSpec(two, a3, pair_branching)
    lv3 = LevelSpec(two, a3, pair_branching)
    split_edge = EdgeSpec((
        decomposition([a1], [(((1,),), 1)]),
        decomposition([a1], [(((1,),), 1)]),
    ))
    straight_edge = EdgeSpec((
        decomposition([a1, a1], [(((1,), (0,)), 1)]),
        decomposition([a1, a1], [(((0,), (1,)), 1)]),
    ))
    g = compute_labels([lv1, lv2, lv3], [split_edge, straight_edge])
    assert level_sums(g, (1, 0)) == [2, 2, 2]
    assert stabilization(g, (1, 0)) == 2
    cs = decompose(g)
    assert len(cs) == 2


def test_dimension_shrink_rejected():
    # two sl(2) blocks cannot inject into a single sl(2)
    a1, a3 = A(1), A(3)
    lv1 = LevelSpec(
        SemisimpleAlgebra((a1, a1)), a3,
        decomposition([a1, a1], [(((1,), (0,)), 1), (((0,), (1,)), 1)]),
    )
    lv2 = LevelSpec(SemisimpleAlgebra((a1,)), a3, decomposition([a1], [(((1,),), 2)]))
    merge_edge = EdgeSpec((decomposition([a1, a1], [(((1,), (0,)), 1), (((0,), (1,)), 1)]),))
    with pytest.raises(DomainError):
        compute_labels([lv1, lv2], [merge_edge])


def test_refinement_restricted_to_one_class():
    g = graph_from_fixture("s2.json")
    rep = extract_refinement(g, constituent_id=0)
    assert [v[1] for v in rep.chain] == [0, 0, 0, 0]
    assert all(rep.standard_edges) and rep.n0 == 1
    with pytest.raises(DomainError):
        extract_refinement(g, constituent_id=9)


# -- reference: the forward-closure engine, one scan per question ------------
#
# These are the definitions the memoized closure walk replaced: every call
# rebuilds the subdiagram, out-edges are found by scanning beta over the next
# level, and stabilization tries every candidate level in turn.


def ref_out_edges(graph, n, j):
    if n == graph.top:
        return []
    return [
        (k, graph.beta[(n, j, k)])
        for k in range(len(graph.components_at(n + 1)))
        if (n, j, k) in graph.beta
    ]


def ref_subdiagram(graph, origin):
    seen = {origin}
    frontier = [origin]
    while frontier:
        nxt = []
        for m, i in frontier:
            for k, _ in ref_out_edges(graph, m, i):
                if (m + 1, k) not in seen:
                    seen.add((m + 1, k))
                    nxt.append((m + 1, k))
        frontier = nxt
    return seen


def ref_level_sums(graph, origin):
    sub = ref_subdiagram(graph, origin)
    sums = [sum(graph.alpha[v] for v in sub if v[0] == m) for m in range(origin[0], graph.top + 1)]
    assert all(a >= b for a, b in zip(sums, sums[1:]))
    return sums


def ref_stabilization(graph, origin):
    sub = ref_subdiagram(graph, origin)
    n, top = origin[0], graph.top
    sums = ref_level_sums(graph, origin)
    for m0 in range(n, top + 1):
        if len(set(sums[m0 - n:])) != 1:
            continue
        if any(m0 <= m < top and len(ref_out_edges(graph, m, i)) != 1 for m, i in sub):
            continue
        if m0 < top or sums[-1] == 1 or n == top:
            return m0
        return None


def ref_string_from(graph, vertex):
    path = [vertex]
    while path[-1][0] < graph.top:
        (k, _), = ref_out_edges(graph, *path[-1])
        path.append((path[-1][0] + 1, k))
    return tuple(path)


def ref_decompose(graph):
    """(unstable origins, (kind, algebra, string, tail_assumed) per constituent)."""
    unstable = sorted(v for v in graph.vertices() if ref_stabilization(graph, v) is None)
    if unstable:
        return unstable, None
    by_top = {}
    for origin in graph.vertices():
        m0 = ref_stabilization(graph, origin)
        for vertex in sorted(v for v in ref_subdiagram(graph, origin) if v[0] == m0):
            string = ref_string_from(graph, vertex)
            by_top.setdefault(string[-1], []).append(string)
    out = []
    for endpoint in sorted(by_top):
        witness = min(by_top[endpoint], key=lambda s: (s[0][0], s))
        kind, algebra, assumed = _classify_tail(graph, witness)
        out.append((kind, algebra, witness, assumed))
    return [], out


def _assert_engine_matches_reference(g):
    for origin in g.vertices():
        assert g.out_edges(*origin) == ref_out_edges(g, *origin)
        assert subdiagram(g, origin) == ref_subdiagram(g, origin)
        assert level_sums(g, origin) == ref_level_sums(g, origin)
        assert stabilization(g, origin) == ref_stabilization(g, origin)
    unstable, expected = ref_decompose(g)
    if unstable:
        with pytest.raises(NotStabilizedError) as err:
            decompose(g)
        assert list(err.value.origins) == unstable
    else:
        got = [(c.kind, c.algebra, c.string, c.tail_assumed) for c in decompose(g)]
        assert got == expected


# -- reference: the (k, l) counts each reader kept before `natural_copies` ---
#
# A refinement edge was standard when its branching, restricted to the lower
# vertex and re-validated as an Embedding, classified as Standard; the socle's
# counts walked the summands with their own mixing test.


def ref_standard_edge(graph, v, w):
    (n, j), (_, k) = v, w
    restricted = restrict_to_factor(graph.edges[n - 1].branchings[k], j)
    emb = Embedding(SemisimpleAlgebra((graph.algebra_at(v),)), graph.algebra_at(w), restricted)
    return isinstance(classify_embedding(emb), Standard)


def ref_pure_counts(decomp, j, where):
    alg = decomp.algebra.factors[j]
    omega = alg.natural_weight
    omega_dual = dual_weight(alg, omega)
    k = l = 0
    for s in decomp.summands:
        w = s.weights[j]
        if not any(w):
            continue
        if any(any(s.weights[i]) for i in range(len(s.weights)) if i != j):
            raise NotStabilizedError(
                f"branching at {where} mixes factor {j} with other components; "
                "not yet stable, lengthen prefix"
            )
        if w == omega:
            k += s.mult
        elif w == omega_dual:
            l += s.mult
        else:
            raise NotStabilizedError(
                f"branching at {where} is not diagonal on factor {j} (weight {w}); "
                "not yet stable, lengthen prefix"
            )
    return k, l


def _counts_or_message(count, decomp, j):
    try:
        return count(decomp, j, "level 1")
    except NotStabilizedError as exc:
        return str(exc)


def _assert_counts_match_reference(g) -> set:
    """Every (branching, factor) pair counts as the reference does, every edge's
    `natural_copies` gives the reference's standard flag, and so does every refinement
    string edge.  Returns the outcomes seen: the flags, and 'mixes' or 'not diagonal'
    for the messages."""
    seen = set()
    branchings = [b for lv in g.levels for b in (lv.ambient_branching, lv.conatural)]
    for b in branchings + [b for edge in g.edges for b in edge.branchings]:
        for j in range(len(b.algebra.factors)):
            got = _counts_or_message(_pure_counts, b, j)
            assert got == _counts_or_message(ref_pure_counts, b, j)
            seen.update(m for m in ("mixes", "not diagonal") if m in got)
    for n, j, k in g.beta:
        copies, dual_copies, odd = natural_copies(g.edges[n - 1].branchings[k], j)
        flag = odd is None and copies + dual_copies == 1
        assert flag == ref_standard_edge(g, (n, j), (n + 1, k))
        seen.add(flag)
    try:
        constituents = decompose(g)
    except NotStabilizedError:
        return seen
    for c in constituents:
        if c.is_infinite():
            rep = extract_refinement(g, constituent_id=c.cid)
            chain = rep.chain
            assert rep.standard_edges == tuple(ref_standard_edge(g, v, w) for v, w in zip(chain, chain[1:]))
    return seen


SYSTEM_FIXTURES = (
    "example1.json", "example3.json", "example4.json", "notstab.json", "refine_mixed.json",
    "s1.json", "s2.json", "s3.json", "s4.json", "so_chain.json", "tensor2.json",
)


@pytest.mark.parametrize("name", SYSTEM_FIXTURES)
def test_closure_walk_matches_reference_on_fixtures(name):
    g = graph_from_fixture(name)
    _assert_engine_matches_reference(g)
    _assert_counts_match_reference(g)


@pytest.mark.parametrize("name", SYSTEM_FIXTURES)
def test_trusted_dual_and_restriction_match_validating_constructor(name):
    # dual() and restrict_to_factor() skip re-validation; the public
    # constructor, fed the same summands, must build the same decomposition.
    levels, edges = formats.system_from_doc(load_fixture(name))
    branchings = [lv.ambient_branching for lv in levels] + [b for e in edges for b in e.branchings]
    for b in branchings:
        factors = b.algebra.factors
        assert b.dual() == ModuleDecomposition(b.algebra, tuple(
            Summand(tuple(map(dual_weight, factors, s.weights)), s.mult) for s in b.summands
        ))
        for j, f in enumerate(factors):
            reference = []
            for s in b.summands:
                mult = s.mult
                for i, (g, w) in enumerate(zip(factors, s.weights)):
                    if i != j:
                        mult *= dimension(g, w)
                reference.append(Summand((s.weights[j],), mult))
            expected = ModuleDecomposition(SemisimpleAlgebra((f,)), tuple(reference))
            assert restrict_to_factor(b, j) == expected


def _summand_records(doc):
    for level in doc["levels"]:
        yield from level["ambient_branching"]
        yield from level.get("conatural_branching") or ()
    for edge in doc["edges"]:
        for branching in edge["branchings"]:
            yield from branching


@pytest.mark.parametrize("name", SYSTEM_FIXTURES)
def test_parsing_builds_each_summand_once(name, monkeypatch):
    # one Summand per record, and the decompositions keep the codec's own
    doc = load_fixture(name)
    built = []
    init = Summand.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Summand, "__init__", counted)
    levels, edges = formats.system_from_doc(doc)
    assert len(built) == len(list(_summand_records(doc)))
    assert len(built) == {"s3.json": 19, "example4.json": 23}.get(name, len(built))
    monkeypatch.undo()
    branchings = [lv.ambient_branching for lv in levels] + [b for e in edges for b in e.branchings]
    assert {id(s) for b in branchings for s in b.summands} <= set(map(id, built))
    for b in branchings:
        backwards = b.summands[::-1]
        from_generator = ModuleDecomposition(b.algebra, (s for s in backwards))
        assert from_generator == ModuleDecomposition(b.algebra, backwards) == b


@pytest.mark.parametrize("name", SYSTEM_FIXTURES)
def test_parsing_shares_one_algebra_per_level(name):
    # a level's branchings and the edges out of it decompose over the very
    # components object of the level, and each literal gives one algebra
    levels, edges = formats.system_from_doc(load_fixture(name))
    for n, lv in enumerate(levels):
        outgoing = edges[n].branchings if n < len(edges) else ()
        over = [lv.ambient_branching, lv.conatural, lv.embedding.branching, *outgoing]
        assert all(b.algebra is lv.components for b in over)
        assert lv.embedding.source is lv.components
    algebras = [f for lv in levels for f in (lv.ambient, *lv.components.factors)]
    assert len(set(map(id, algebras))) == len(set(algebras))


def test_closure_walk_matches_reference_on_random_systems():
    rng = random.Random(4040)
    outcomes, counts = set(), set()
    for _ in range(500):
        g = compute_labels(*random_diagonal_system(rng))
        _assert_engine_matches_reference(g)
        counts |= _assert_counts_match_reference(g)
        outcomes.add(all(stabilization(g, v) is not None for v in g.vertices()))
    assert outcomes == {True, False}  # both stable and too-short prefixes ran
    assert counts == {True, False}  # standard and non-standard edges


def test_closure_walk_matches_reference_on_deep_random_systems():
    # deeper systems put forks above shared single-successor suffixes
    rng = random.Random(7171)
    shared = 0
    for _ in range(100):
        g = compute_labels(*random_diagonal_system(rng, max_levels=12))
        _assert_engine_matches_reference(g)
        _assert_counts_match_reference(g)
        forks = [v for v in g.vertices() if len(g.out_edges(*v)) > 1]
        shared += any(node is g.walks[(node.level, node.layer[0])]
                      for v in forks for node in g.walks[v].rest.nodes())
    assert shared >= 5  # forks whose union reached one successor's closure


def test_deep_chain_commands_run(tmp_path):
    # a 2000-level A1 chain with standard edges: closures must not recurse
    level = {"components": ["A1"], "ambient": "A1",
             "ambient_branching": [{"weights": [[1]], "mult": 1}]}
    edge = {"branchings": [[{"weights": [[1]], "mult": 1}]]}
    doc = {"format": formats.SYSTEM_FORMAT, "levels": [level] * 2000, "edges": [edge] * 1999}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    (c,) = decompose(compute_labels(*formats.system_from_doc(doc)))
    assert c.kind == "FiniteSimple" and len(c.string) == 2000
    code, out, _ = run_cli("--format", "json", "socle", str(path))
    report = json.loads(out)
    assert code == 0 and report["constituents"] == []
    assert [row["id"] for row in report["finite_part"]] == [0]
    code, out, _ = run_cli("--format", "json", "invariants", str(path))
    assert code == 0 and json.loads(out)["multiplicities"] == []


def test_closure_walk_is_memoized_per_graph():
    g = graph_from_fixture("s2.json")
    decompose(g)
    walks = dict(g.walks)
    assert sorted(walks) == sorted(g.vertices())
    level_sums(g, (1, 0))
    stabilization(g, (2, 1))
    assert g.walks == walks and all(g.walks[v] is walks[v] for v in walks)
    assert graph_from_fixture("s2.json").walks == {}
    rebuilt = BratteliGraph(g.levels, g.edges, g.alpha, g.beta)
    assert rebuilt == g and rebuilt.succ == g.succ and rebuilt.walks == {}


# -- each guard of the level and graph constructors, named by its message -----


def _one_level_doc(components, ambient, branching, **extra):
    level = {"components": components, "ambient": ambient, "ambient_branching": branching, **extra}
    return {"format": formats.SYSTEM_FORMAT, "levels": [level], "edges": []}


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("doc, message", [
    (_one_level_doc(["A1"], "A3", [{"weights": [[1]], "mult": 2}],
                    conatural_branching=[{"weights": [[1]], "mult": 3}]),
     "conatural branching cannot exceed the ambient natural dimension"),
    (_one_level_doc(["A1", "A1"], "A2", [{"weights": [[1], [0]]}, {"weights": [[0], [0]]}]),
     "component 1 of level 1 acts trivially on the ambient natural module"),
], ids=["conatural-too-large", "trivial-component"])
def test_level_guards_through_the_cli(tmp_path, fmt, doc, message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    for command in ("limit", "socle", "invariants"):
        assert run_cli("--format", fmt, command, str(path)) == (1, "", f"error: {message}\n")


def test_level_and_graph_guards_of_the_library():
    a1, a2, a3 = A(1), A(2), A(3)
    one = SemisimpleAlgebra((a1,))
    doubled = decomposition([a1], [(((1,),), 2)])
    with pytest.raises(DomainError, match="^conatural branching must decompose over the level components$"):
        LevelSpec(one, a3, doubled, decomposition([a2], [(((1, 0),), 1)]))
    lower = LevelSpec(one, a3, doubled)
    upper = LevelSpec(SemisimpleAlgebra((a3,)), a3, decomposition([a3], [(((1, 0, 0),), 1)]))
    with pytest.raises(DomainError, match="^a system needs at least one level$"):
        compute_labels([], [])
    with pytest.raises(DimensionMismatchError, match="^1 levels need 0 edge specs, got 1$"):
        compute_labels([lower], [EdgeSpec(())])
    with pytest.raises(DimensionMismatchError,
                       match="^edge 1 has 0 branchings for 1 components of level 2$"):
        compute_labels([lower, upper], [EdgeSpec(())])
    over_a2 = decomposition([a2], [(((1, 0),), 1), (((0, 0),), 1)])
    with pytest.raises(DomainError, match="^edge 1: branching of component 0 must decompose over level 1$"):
        compute_labels([lower, upper], [EdgeSpec((over_a2,))])
    graph = compute_labels([lower, upper], [EdgeSpec((decomposition([a1], [(((1,),), 2)]),))])
    for origin in [(3, 0), (1, 1), (0, 0)]:
        with pytest.raises(DomainError, match=rf"^no vertex \({origin[0]}, {origin[1]}\) in the graph$"):
            stabilization(graph, origin)


# -- the guards no valid system reaches, fired by a wrong kernel or graph ------


def _absent_factors_indexed(monkeypatch):
    """Every factor of every branching gets an index >= 1, also one absent from an edge."""
    real = system.embedding_index
    monkeypatch.setattr(system, "embedding_index", lambda emb: tuple(max(v, 1) for v in real(emb)))


def _labelled_then(change):
    """compute_labels, then `change` of the valid graph into one that no system gives."""
    def inject(monkeypatch):
        real = system.compute_labels
        monkeypatch.setattr(system, "compute_labels", lambda levels, edges: change(real(levels, edges)))
    return inject


def _rising_sum(graph):
    """Vertex (2, 0) labelled 2 above (1, 0)'s 1: a level sum that rises."""
    return BratteliGraph(graph.levels, graph.edges, {**graph.alpha, (2, 0): 2}, graph.beta)


def _forked_top(graph):
    """The memoized closure of (4, 0) swapped for one whose top layer holds two vertices."""
    closure(graph, (1, 0))
    graph.walks[(4, 0)] = Closure(graph, 4, (0, 1), None)
    return graph


# guard -> (fault injected into the labels of s2.json, message)
GRAPH_FAULTS = {
    "presence": (_absent_factors_indexed, "edge (1,1)->(2,0): presence and index disagree"),
    "rising-sums": (_labelled_then(_rising_sum), "level sums increased after level 1: [1, 2, 1, 1]"),
    "no-continuation": (_labelled_then(_forked_top), "no unique continuation from (4, 0)"),
}


@pytest.mark.parametrize("guard", sorted(GRAPH_FAULTS))
def test_graph_guards_fire_on_a_wrong_kernel_or_graph(monkeypatch, guard):
    inject, message = GRAPH_FAULTS[guard]
    inject(monkeypatch)
    with pytest.raises(InternalConsistencyError) as fault:
        decompose(system.compute_labels(*formats.system_from_doc(load_fixture("s2.json"))))
    assert str(fault.value) == message
    assert run_cli("limit", str(formats.fixture_path("s2.json"))) == (1, "", f"error: {message}\n")
