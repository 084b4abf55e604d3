import json
import re
from types import SimpleNamespace

import pytest

from conftest import A, graph_from_fixture, run_cli
from lielimits import formats, socle
from lielimits.errors import DomainError, NotStabilizedError
from lielimits.algebras import SimpleAlgebra, dual_labels
from lielimits.index import SemisimpleAlgebra, Summand, decomposition, natural_copies
from lielimits.socle import (
    ExtendedDim,
    _pure_counts,
    multiplicities,
    socle_report,
    standard_invariants,
    trivial_dims,
)
from lielimits.system import EdgeSpec, LevelSpec, compute_labels, decompose


def analyzed(name):
    g = graph_from_fixture(name)
    return g, decompose(g)


def diagonal_system(copies_nat, copies_dual, levels=4):
    """A_n into a type-A ambient by `copies` naturals/conaturals, standard edges."""
    level_specs, edge_specs = [], []
    for n in range(1, levels + 1):
        f = A(n)
        nat = f.natural_weight
        co = tuple(reversed(nat))
        recs = []
        if copies_nat:
            recs.append(((nat,), copies_nat))
        if copies_dual:
            recs.append(((co,), copies_dual))
        total = (copies_nat + copies_dual) * (n + 1)
        level_specs.append(
            LevelSpec(SemisimpleAlgebra((f,)), A(total - 1), decomposition([f], recs))
        )
    for n in range(1, levels):
        f = A(n)
        recs = [((f.natural_weight,), 1), (((0,) * n,), 1)]
        edge_specs.append(EdgeSpec((decomposition([f], recs),)))
    return compute_labels(level_specs, edge_specs)


def test_multiplicities_s2():
    g, cs = analyzed("s2.json")
    for c in cs:
        assert multiplicities(g, c) == (1, 0)


def test_multiplicities_diagonal_two_naturals():
    g = diagonal_system(2, 0)
    (c,) = decompose(g)
    assert multiplicities(g, c) == (2, 0)


def test_multiplicities_natural_plus_dual():
    # top levels have rank >= 2, so the conatural copy is visible there
    g = diagonal_system(1, 1, levels=4)
    (c,) = decompose(g)
    assert multiplicities(g, c) == (1, 1)


def test_multiplicities_requires_infinite_kind():
    g, cs = analyzed("s3.json")
    with pytest.raises(DomainError):
        multiplicities(g, cs[0])
    with pytest.raises(DomainError, match="tracked for infinite constituents"):
        trivial_dims(g, cs[0])


def test_multiplicities_guard_fires_on_wrong_counts(monkeypatch):
    def one_more(decomp, j, where):
        k, l = _pure_counts(decomp, j, where)
        return k + 1, l

    monkeypatch.setattr(socle, "_pure_counts", one_more)
    code, out, err = run_cli("socle", str(formats.fixture_path("s1.json")))
    assert (code, out) == (1, "")
    assert "does not match the embedding index" in err


def test_pure_counts_rejects_mixed_summands():
    d = decomposition([A(1), A(1)], [(((1,), (1,)), 1)])
    with pytest.raises(NotStabilizedError):
        _pure_counts(d, 0, "level 1")
    # A1 + D5: omega = omega* on A1 and D5's natural is self-dual, so l stays 0 on both
    d5 = SimpleAlgebra("D", 5)
    pure = [(((1,), (0,) * 5), 2), (((0,), d5.natural_weight), 3), (((0,), (0,) * 5), 1)]
    d = decomposition([A(1), d5], pure)
    assert _pure_counts(d, 0, "top") == (2, 0) and _pure_counts(d, 1, "top") == (3, 0)
    # a mixed summand is named as mixed, even when its weight is not natural either
    for mixed in (((1,), d5.natural_weight), ((2,), (0, 1, 0, 0, 0))):
        d = decomposition([A(1), d5], pure + [(mixed, 1)])
        assert natural_copies(d, 0) == (2, 0, Summand(mixed))
        for j in (0, 1):
            with pytest.raises(NotStabilizedError, match=f"at top mixes factor {j} with other components"):
                _pure_counts(d, j, "top")


def test_pure_counts_rejects_non_diagonal_weight():
    d = decomposition([A(2)], [(((1, 1),), 1)])
    with pytest.raises(NotStabilizedError):
        _pure_counts(d, 0, "top")
    # the conatural alone, then a non-natural weight ahead of a mixed summand: the
    # first odd summand decides the message
    pure = [(((1, 0), (0,)), 1), (((0, 1), (0,)), 2)]
    assert _pure_counts(decomposition([A(2), A(1)], pure[1:]), 0, "top") == (0, 2)
    d = decomposition([A(2), A(1)], pure + [(((1, 1), (0,)), 1), (((2, 0), (1,)), 1)])
    assert natural_copies(d, 0) == (1, 2, Summand(((1, 1), (0,))))
    with pytest.raises(NotStabilizedError, match=r"not diagonal on factor 0 \(weight \(1, 1\)\)"):
        _pure_counts(d, 0, "top")


def test_multiplicity_instability_detected():
    # level 1 sees omega + omega*, level 2 sees two naturals: counts disagree
    a2, a3 = A(2), A(3)
    lv1 = LevelSpec(
        SemisimpleAlgebra((a2,)), A(5),
        decomposition([a2], [(((1, 0),), 1), (((0, 1),), 1)]),
    )
    lv2 = LevelSpec(
        SemisimpleAlgebra((a3,)), A(7), decomposition([a3], [(((1, 0, 0),), 2)])
    )
    edge = EdgeSpec((decomposition([a2], [(((1, 0),), 1), (((0, 0),), 1)]),))
    g = compute_labels([lv1, lv2], [edge])
    (c,) = decompose(g)
    with pytest.raises(NotStabilizedError):
        multiplicities(g, c)


def test_trivial_dims_s1_s2():
    g, cs = analyzed("s1.json")
    n, nstar = trivial_dims(g, cs[0])
    assert (n.kind, n.value) == ("finite", 0)
    assert (nstar.kind, nstar.value) == ("finite", 0)
    g, cs = analyzed("s2.json")
    for c in cs:
        n, nstar = trivial_dims(g, c)
        assert n.kind == "countable" and nstar.kind == "countable"
        assert n.tail_assumed


def test_trivial_dims_example4_asymmetry():
    g, cs = analyzed("example4.json")
    (c,) = cs
    assert multiplicities(g, c) == (1, 0)
    n, nstar = trivial_dims(g, c)
    assert (n.kind, n.value) == ("finite", 1)
    assert (nstar.kind, nstar.value) == ("finite", 0)


def test_socle_report_example3():
    g, _ = analyzed("example3.json")
    rep = socle_report(g)
    assert rep.quotient.kind == "finite" and rep.quotient.value == 1
    # the stray line has no partner on the dual side
    assert rep.quotient_dual.kind == "finite" and rep.quotient_dual.value == 0
    assert len(rep.finite_part) == 4
    assert all(row.algebra == "A1" and row.weight == (1,) and row.mult == 1
               for row in rep.finite_part)


def test_example1_partition_mixes_kinds():
    g, cs = analyzed("example1.json")
    kinds = sorted((c.kind, str(c.algebra)) for c in cs)
    assert kinds == [("FiniteSimple", "A1"), ("SlInf", "None")]
    rep = socle_report(g)
    assert [(r.k, r.l) for r in rep.constituents] == [(1, 0)]
    assert (rep.quotient.kind, rep.quotient.value) == ("finite", 1)
    (block_row,) = rep.finite_part
    assert block_row.algebra == "A1" and block_row.mult == 1


def test_socle_report_s1_s2():
    g, _ = analyzed("s1.json")
    rep = socle_report(g)
    assert rep.quotient.value == 0 and rep.quotient_dual.value == 0
    g, _ = analyzed("s2.json")
    rep = socle_report(g)
    assert rep.quotient.value == 0
    assert [(row.k, row.l) for row in rep.constituents] == [(1, 0), (1, 0)]


def test_socle_l_zero_for_so_sp():
    for name in ("so_chain.json", "s4.json"):
        g, _ = analyzed(name)
        rep = socle_report(g)
        for row in rep.constituents:
            if row.kind in ("SoInf", "SpInf"):
                assert row.l == 0


def test_disjoint_supports_enforced():
    a1, a3 = A(1), A(3)
    tensor = decomposition([a1, a1], [(((1,), (1,)), 1)])
    lv = LevelSpec(SemisimpleAlgebra((a1, a1)), a3, tensor)
    e = EdgeSpec((
        decomposition([a1, a1], [(((1,), (0,)), 1)]),
        decomposition([a1, a1], [(((0,), (1,)), 1)]),
    ))
    g = compute_labels([lv, lv], [e])
    with pytest.raises(DomainError):
        socle_report(g)


def test_standard_invariants_example4():
    g, _ = analyzed("example4.json")
    rep = standard_invariants(g)
    assert rep.multiplicity_pairs == ((0, 1, 0),)
    (row,) = rep.subsets
    assert row.ids == (0,)
    assert (row.dim_trivial.kind, row.dim_trivial.value) == ("finite", 1)
    assert (row.dim_trivial_dual.kind, row.dim_trivial_dual.value) == ("finite", 0)
    assert (row.quotient.kind, row.quotient.value) == ("finite", 1)
    assert (row.quotient_dual.kind, row.quotient_dual.value) == ("finite", 0)


def test_standard_invariants_s2_default_subsets():
    g, _ = analyzed("s2.json")
    rep = standard_invariants(g)
    ids = [row.ids for row in rep.subsets]
    assert ids == [(0,), (1,), (0, 1)]
    full = rep.subsets[-1]
    assert (full.dim_trivial.kind, full.dim_trivial.value) == ("finite", 0)
    singles = rep.subsets[0]
    assert singles.dim_trivial.kind == "countable"


def test_standard_invariants_bad_subset():
    g, _ = analyzed("s2.json")
    with pytest.raises(DomainError):
        standard_invariants(g, subsets=[(5,)])
    with pytest.raises(DomainError):
        standard_invariants(g, subsets=[()])


def test_standard_invariants_empty_subset_list_uses_defaults():
    g, _ = analyzed("s2.json")
    assert standard_invariants(g, subsets=[]) == standard_invariants(g)


def test_conatural_override_must_mirror_multiplicities():
    # primal sees one natural, but the override claims a natural instead of
    # the conatural: rejected
    levels, edges = [], []
    for n in range(2, 5):
        f = A(n)
        nat = f.natural_weight
        br = decomposition([f], [((nat,), 1), (((0,) * n,), 1)])
        bad = decomposition([f], [((nat,), 1)])
        levels.append(LevelSpec(SemisimpleAlgebra((f,)), A(n + 1), br, bad))
    for n in range(2, 4):
        f = A(n)
        edges.append(
            EdgeSpec((decomposition([f], [((f.natural_weight,), 1), (((0,) * n,), 1)]),))
        )
    g = compute_labels(levels, edges)
    (c,) = decompose(g)
    with pytest.raises(DomainError):
        trivial_dims(g, c)


def ref_override_mirrored(alg, counts, counts_dual) -> bool:
    """The override rule socle used to state itself: a self-dual natural keeps
    k + l, another natural swaps natural and conatural."""
    (k, l), (k_dual, l_dual) = counts, counts_dual
    if dual_labels(alg, alg.natural_weight) == alg.natural_weight:
        return k_dual + l_dual == k + l
    return (k_dual, l_dual) == (l, k)


def test_check_override_agrees_with_the_mirror_rule(rng):
    algs = [A(1), A(2), A(3), A(4), SimpleAlgebra("B", 2), SimpleAlgebra("B", 3),
            SimpleAlgebra("C", 2), SimpleAlgebra("C", 3), SimpleAlgebra("D", 4), SimpleAlgebra("D", 5)]
    seen = set()  # (natural is self-dual, override accepted)
    for _ in range(200):
        alg = rng.choice(algs)
        other = rng.choice((None, A(1), A(2)))  # a second factor, left or right of alg
        factors = [alg] if other is None else rng.choice(([alg, other], [other, alg]))
        j = factors.index(alg)
        zeros = tuple((0,) * f.rank for f in factors)

        def module(nat, conat, trivial):
            """nat and conat copies of alg's natural and conatural, trivial off alg, and trivials."""
            recs = [(zeros[:j] + (w,) + zeros[j + 1:], m) for w, m in
                    ((alg.natural_weight, nat), (dual_labels(alg, alg.natural_weight), conat)) if m]
            return decomposition(factors, recs + [(zeros, trivial)] * bool(trivial))

        k, l = rng.randint(0, 2), rng.randint(0, 2)
        if k + l == 0:
            k = 1
        k_dual, l_dual = (l, k) if rng.random() < 0.5 else (rng.randint(0, 2), rng.randint(0, 2))
        override = module(k_dual, l_dual, rng.randint(0, 1))
        pad = max(1, override.total_dim - (k + l) * alg.natural_dim + 1)
        primal = module(k, l, pad)
        level = LevelSpec(SemisimpleAlgebra(factors), A(primal.total_dim - 1), primal, override)
        graph = SimpleNamespace(levels=[level])
        counts = _pure_counts(primal, j, "level 1")
        counts_dual = _pure_counts(override, j, "level 1 (conatural)")
        expected = ref_override_mirrored(alg, counts, counts_dual)
        seen.add((dual_labels(alg, alg.natural_weight) == alg.natural_weight, expected))
        if expected:
            socle._check_override(graph, (1, j))
        else:
            with pytest.raises(DomainError, match=re.escape(
                    f"carries multiplicities ({counts_dual[0]},{counts_dual[1]}), "
                    f"expected the mirror of ({counts[0]},{counts[1]})")):
                socle._check_override(graph, (1, j))
    assert len(seen) == 4


def test_extended_dim_from_sequence():
    assert ExtendedDim.from_sequence([3, 3, 3]).kind == "finite"
    assert ExtendedDim.from_sequence([1, 2, 3]).kind == "countable"
    undet = ExtendedDim.from_sequence([1, 2, 2, 3])
    assert undet.kind == "undetermined" and undet.lower_bound == 3
    assert str(undet) == "undetermined_at_horizon(>= 3)"
    with pytest.raises(DomainError):
        ExtendedDim.from_sequence([])


def _undetermined_chain_doc():
    """A3 -> A3 -> A4 with standard edges: the last window neither grows
    strictly nor stays one algebra, so the one string is Undetermined."""

    def natural(rank):
        return {"weights": [[1] + [0] * (rank - 1)], "mult": 1}

    def level(rank):
        return {"components": [f"A{rank}"], "ambient": f"A{rank}", "ambient_branching": [natural(rank)]}

    return {
        "format": formats.SYSTEM_FORMAT,
        "levels": [level(3), level(3), level(4)],
        "edges": [
            {"branchings": [[natural(3)]]},
            {"branchings": [[natural(3), {"weights": [[0, 0, 0]], "mult": 1}]]},
        ],
    }


def test_undetermined_constituent_is_not_reported_as_finite(tmp_path):
    levels, edges = formats.system_from_doc(_undetermined_chain_doc())
    g = compute_labels(levels, edges)
    (c,) = decompose(g)
    assert (c.kind, c.algebra, c.tail_assumed) == ("Undetermined", None, False)
    for analysis in (socle_report, standard_invariants):
        with pytest.raises(NotStabilizedError, match="#0 ending at \\(3, 0\\) is Undetermined"):
            analysis(g)

    path = tmp_path / "undetermined.json"
    path.write_text(formats.dumps(_undetermined_chain_doc()))
    code, out, _ = run_cli("--format", "json", "limit", str(path))
    assert code == 0 and json.loads(out)["constituents"][0]["kind"] == "Undetermined"
    for command in ("socle", "invariants"):
        code, out, err = run_cli(command, str(path))
        assert (code, out) == (3, "") and "#0" in err
