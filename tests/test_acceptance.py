"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance here is exact (integer or rational equality); the only
numeric budgets are the stated wall-clock ceilings.
"""

import json
import subprocess
import sys
import time
from random import Random
from types import SimpleNamespace

from conftest import A, graph_from_fixture, load_fixture, random_diagonal_system
from lielimits import formats
from lielimits.algebras import (
    SimpleAlgebra,
    dimension,
    dominant_weights_up_to_dim,
    dual_weight,
)
from lielimits.index import (
    Embedding,
    SemisimpleAlgebra,
    Standard,
    Summand,
    classify_embedding,
    compose_index,
    decomposition,
    embedding_index,
    index_of_irrep,
)
from lielimits.oracle import freudenthal, trace_index
from lielimits.socle import multiplicities, socle_report, standard_invariants, trivial_dims
from lielimits.subspaces import (
    EvConstFunctional,
    StandardForm,
    SubspaceDescriptor,
    classify_maximal,
    descriptor_intersection,
    descriptor_sum,
    perp,
)
from lielimits.system import compute_labels, decompose, level_sums, stabilization, subdiagram
from ref_index import ref_composite_index

SWEEP_ALGEBRAS = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4")


def _sweep(bound=500):
    for literal in SWEEP_ALGEBRAS:
        alg = SimpleAlgebra.parse(literal)
        for lam in dominant_weights_up_to_dim(alg, bound):
            yield alg, lam


def test_criterion_1_index_oracle_equivalence():
    started = time.time()
    checked = 0
    for alg, lam in _sweep():
        assert index_of_irrep(alg, lam) == trace_index(alg, lam), (alg, lam)
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS: closed form == trace oracle on {checked} irreps "
          f"(dim <= 500) in {elapsed:.1f}s")


def test_criterion_2_integrality_and_normalization():
    for alg, lam in _sweep():
        value = index_of_irrep(alg, lam)  # integrality asserted inside
        assert value >= 0
        assert (value == 0) == (not any(lam))
    naturals = {"A": 1, "B": 2, "C": 1, "D": 2}
    for literal in SWEEP_ALGEBRAS:
        alg = SimpleAlgebra.parse(literal)
        assert index_of_irrep(alg, alg.natural_weight) == naturals[alg.series]
    for d in range(1, 21):
        assert index_of_irrep(SimpleAlgebra("A", 1), (d - 1,)) == d * (d * d - 1) // 6
    print("[criterion 2] PASS: integrality, natural-module table, and the "
          "rank-1 closed form for d <= 20")


def _random_chain(rng: Random):
    f = rng.choice([SimpleAlgebra("A", 1), SimpleAlgebra("A", 2)])
    nat = f.natural_weight
    co = dual_weight(f, nat)
    zero = (0,) * f.rank

    legs = []
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(0, 2)
        l = rng.randint(0 if k else 1, 1)
        t = rng.randint(0, 2)
        records = []
        if k:
            records.append(((nat,), k))
        if l:
            records.append(((co,), l))
        if t:
            records.append(((zero,), t))
        branching = decomposition([f], records)
        legs.append(
            Embedding(SemisimpleAlgebra((f,)), A(branching.total_dim - 1), branching)
        )
    middles = tuple(e.target for e in legs)

    summands = []
    for _ in range(rng.randint(1, 3)):
        weights = []
        for m in middles:
            choice = rng.randrange(3)
            if choice == 0:
                weights.append((0,) * m.rank)
            elif choice == 1:
                weights.append(m.natural_weight)
            else:
                weights.append(dual_weight(m, m.natural_weight))
        summands.append(Summand(tuple(weights), rng.randint(1, 2)))
    if all(not any(w) for s in summands for w in s.weights):
        summands[0] = Summand(tuple(m.natural_weight for m in middles), 1)
    branching = decomposition(list(middles), summands)
    if branching.total_dim > 200 or branching.total_dim < 2:
        return None
    second = Embedding(
        SemisimpleAlgebra(middles), A(branching.total_dim - 1), branching
    )
    return legs, second


def test_criterion_3_sum_formula_on_random_chains():
    rng = Random(31415)
    done = 0
    while done < 20:
        chain = _random_chain(rng)
        if chain is None:
            continue
        legs, second = chain
        assert compose_index(legs, second) == ref_composite_index(legs, second), chain
        done += 1
    print("[criterion 3] PASS: the composite-index sum formula agrees with a direct "
          "restriction through the oracle on 20 seeded chains (total dim <= 200)")


def _branching_multisets(source, cap):
    irreps = [
        (w, dimension(source, w))
        for w in dominant_weights_up_to_dim(source, cap)
        if any(w)
    ]
    out = []

    def rec(start, chosen, total):
        if chosen:
            out.append((tuple(chosen), total))
        for i in range(start, len(irreps)):
            w, d = irreps[i]
            if total + d <= cap:
                chosen.append(w)
                rec(i, chosen, total + d)
                chosen.pop()

    rec(0, [], 0)
    return out


def _targets_for_dim(d):
    targets = []
    if d >= 2:
        targets.append(SimpleAlgebra("A", d - 1))
    if d % 2 == 1 and d >= 5:
        targets.append(SimpleAlgebra("B", (d - 1) // 2))
    if d % 2 == 0:
        targets.append(SimpleAlgebra("C", d // 2))
        if d >= 8:
            targets.append(SimpleAlgebra("D", d // 2))
    return targets


def test_criterion_4_unit_index_forces_standard():
    cap = 40
    sources = [SimpleAlgebra(s, r) for s in "ABCD" for r in (5, 6)]
    checked = unit = 0
    for source in sources:
        zero = (0,) * source.rank
        for weights, total in _branching_multisets(source, cap):
            counts: dict = {}
            for w in weights:
                counts[w] = counts.get(w, 0) + 1
            self_dual = all(
                counts.get(dual_weight(source, w), 0) == c for w, c in counts.items()
            )
            for trivial in range(0, cap - total + 1):
                records = [((w,), c) for w, c in sorted(counts.items())]
                if trivial:
                    records.append(((zero,), trivial))
                branching = decomposition([source], records)
                for target in _targets_for_dim(total + trivial):
                    if target.series in "BCD" and not self_dual:
                        continue
                    emb = Embedding(SemisimpleAlgebra((source,)), target, branching)
                    covered = source.series in "BD" or target.series not in "BD"
                    if not covered:
                        continue
                    checked += 1
                    if embedding_index(emb) == [1]:
                        unit += 1
                        assert isinstance(classify_embedding(emb), Standard), (
                            source, target, branching.summands,
                        )
    assert unit > 0
    print(f"[criterion 4] PASS: index 1 implies a standard injection on all "
          f"{checked} enumerated embeddings ({unit} with unit index), dim <= {cap}")


def test_criterion_5_bratteli_engine():
    started = time.time()
    for name in ("s1.json", "s2.json", "s3.json", "s4.json"):
        graph = graph_from_fixture(name)  # sum-law validation happens inside
        for origin in graph.vertices():
            level_sums(graph, origin)  # monotonicity asserted inside
            m0 = stabilization(graph, origin)
            if m0 is not None:
                for (m, i) in subdiagram(graph, origin):
                    if m0 <= m < graph.top:
                        assert len(graph.out_edges(m, i)) == 1

    rng = Random(27182)
    for _ in range(50):
        levels, edges = random_diagonal_system(rng)
        graph = compute_labels(levels, edges)
        for origin in graph.vertices():
            level_sums(graph, origin)
            m0 = stabilization(graph, origin)
            if m0 is not None:
                for (m, i) in subdiagram(graph, origin):
                    if m0 <= m < graph.top:
                        assert len(graph.out_edges(m, i)) == 1

    s1 = decompose(graph_from_fixture("s1.json"))
    assert [c.kind for c in s1] == ["SlInf"]
    s2 = decompose(graph_from_fixture("s2.json"))
    assert [c.kind for c in s2] == ["SlInf", "SlInf"]
    s3 = decompose(graph_from_fixture("s3.json"))
    assert all(c.kind == "FiniteSimple" and str(c.algebra) == "A1" for c in s3)
    assert len(s3) == 4
    elapsed = time.time() - started
    assert elapsed < 30, f"criterion 5 took {elapsed:.1f}s"
    print(f"[criterion 5] PASS: sum law, monotone level sums, and the string "
          f"property on S1-S4 plus 50 random systems in {elapsed:.1f}s")


def test_criterion_6_socle_fixtures():
    g3 = graph_from_fixture("example3.json")
    report3 = socle_report(g3)
    assert (report3.quotient.kind, report3.quotient.value) == ("finite", 1)

    g4 = graph_from_fixture("example4.json")
    (c4,) = decompose(g4)
    assert multiplicities(g4, c4) == (1, 0)
    dim_n, dim_n_star = trivial_dims(g4, c4)
    assert (dim_n.kind, dim_n.value) == ("finite", 1)
    assert (dim_n_star.kind, dim_n_star.value) == ("finite", 0)
    inv4 = standard_invariants(g4)
    (row,) = inv4.subsets
    assert (
        row.dim_trivial.value,
        row.dim_trivial_dual.value,
        row.quotient.value,
        row.quotient_dual.value,
    ) == (1, 0, 1, 0)

    g2 = graph_from_fixture("s2.json")
    for constituent in decompose(g2):
        assert multiplicities(g2, constituent) == (1, 0)
    print("[criterion 6] PASS: quotient line of the blocks example, the "
          "(1, 0)-asymmetric trivial parts, and the S2 multiplicities")


def _random_descriptor(rng: Random, space="V"):
    gens = [
        {rng.randrange(1, 8): rng.randrange(-3, 4) or 1 for _ in range(rng.randrange(1, 4))}
        for _ in range(rng.randrange(0, 3))
    ]
    tail = rng.choice([None, None, rng.randrange(1, 6)])
    kers = [
        EvConstFunctional(
            tuple(rng.randrange(-2, 3) for _ in range(rng.randrange(0, 4))),
            rng.choice([0, 0, 1, 2, -1]),
        )
        for _ in range(rng.randrange(0, 3))
    ]
    return SubspaceDescriptor.build(space, gens, tail, kers)


def test_criterion_7_maximality_classification():
    sym, symp = StandardForm("symmetric"), StandardForm("symplectic")
    fixture_table = [
        ("commutator.json", "gl", None, "ia"),
        ("codim1_kernel.json", "gl", None, "ib"),
        ("codim1_kernel_dual.json", "gl", None, "ib"),
        ("tail2.json", "gl", None, "ic"),
        ("so_form.json", "sl", None, "iia"),
        ("sp_form.json", "sl", None, "iia"),
        ("codim1_kernel.json", "sl", None, "iib"),
        ("tail2.json", "sl", None, "iic"),
        ("tail5.json", "so", sym, "iiia"),
        ("tail3.json", "sp", symp, "iiia"),
        ("codim1_kernel.json", "so", sym, "iiib"),
        ("codim1_kernel.json", "sp", symp, "iiib"),
        ("isotropic_line.json", "so", sym, "iiic"),
        ("isotropic_line.json", "sp", symp, "iiic"),
        ("codim2_kernel.json", "gl", None, "NotMaximal"),
        ("dim2_nondeg.json", "so", sym, "NotMaximal"),
        ("nonclosed_tail.json", "gl", None, "NotMaximal"),
    ]
    seen = set()
    for name, kind, form, expected in fixture_table:
        payload = formats.subspace_input_from_doc(load_fixture(name))
        verdict = classify_maximal(kind, payload, form)
        assert verdict.tag == expected, (name, kind, verdict.tag)
        seen.add(expected)
    assert seen >= {"ia", "ib", "ic", "iia", "iib", "iic", "iiia", "iiib", "iiic", "NotMaximal"}

    rng = Random(16180)
    for _ in range(200):
        space = rng.choice(["V", "V*"])
        w = _random_descriptor(rng, space)
        contexts = ["gl"] if space == "V*" else ["gl", sym, symp]
        for ctx in contexts:
            p = perp(w, ctx)
            closure = perp(p, ctx)
            assert closure.contains_space(w)
            assert perp(closure, ctx) == p
            bigger = descriptor_sum(w, _random_descriptor(rng, space))
            assert p.contains_space(perp(bigger, ctx))
            assert descriptor_intersection(closure, w) == w
    print("[criterion 7] PASS: every classification tag on its fixture and "
          "the perp Galois laws on 200 seeded descriptors")


def test_criterion_8_roundtrip_and_determinism(tmp_path):
    graph = graph_from_fixture("s2.json")
    constituents = decompose(graph)
    sums = [(v, level_sums(graph, v)) for v in sorted(graph.vertices())]
    stab = [(v, stabilization(graph, v)) for v in sorted(graph.vertices())]
    reports = {
        "limit": SimpleNamespace(graph=graph, level_sums=sums, stabilization=stab,
                                 constituents=constituents),
        "socle": socle_report(graph),
        "invariants": standard_invariants(graph),
        "maximal": classify_maximal("gl", SubspaceDescriptor.tail(2)),
        "oracle": freudenthal(A(2), (1, 1)),
    }
    for kind, report in reports.items():
        doc = formats.REPORTS[kind].dump(report)
        reparsed = json.loads(formats.dumps(doc))
        assert reparsed == doc, kind
        formats.parse_report(reparsed)

    script = (
        "import sys; from lielimits.cli import main; "
        "sys.exit(main(['--format','json','--seed','5','oracle','selftest']))"
    )
    runs = [
        subprocess.run([sys.executable, "-c", script], capture_output=True)
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout
    print("[criterion 8] PASS: structured reports re-parse to equal values and "
          "seeded runs are byte-identical")
