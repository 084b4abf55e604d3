"""One-off generator for the shipped fixture corpus (run from the repo root)."""

import json
from pathlib import Path

from lielimits import formats
from lielimits.algebras import SimpleAlgebra
from lielimits.index import Embedding, SemisimpleAlgebra, decomposition
from lielimits.system import LevelSpec

OUT = Path(__file__).resolve().parents[1] / "src" / "lielimits" / "fixtures"


def A(n):
    return SimpleAlgebra("A", n)


def B(n):
    return SimpleAlgebra("B", n)


def C(n):
    return SimpleAlgebra("C", n)


def D(n):
    return SimpleAlgebra("D", n)


def nat(alg):
    return alg.natural_weight


def zero(alg):
    return (0,) * alg.rank


def save(name, doc):
    (OUT / name).write_text(formats.dumps(doc))
    print("wrote", name)


def std_level(alg):
    return LevelSpec(SemisimpleAlgebra((alg,)), alg, decomposition([alg], [((nat(alg),), 1)]))


def std_edge(src, tgt):
    recs = [((nat(src),), 1)]
    pad = tgt.natural_dim - src.natural_dim
    if pad:
        recs.append(((zero(src),), pad))
    return decomposition([src], recs)


def make_s1():
    algs = [A(n) for n in range(1, 6)]
    levels = [std_level(a) for a in algs]
    edges = [(std_edge(a, b),) for a, b in zip(algs, algs[1:])]
    save("s1.json", formats.system_to_doc(levels, edges))


def make_s2():
    levels, edges = [], []
    for n in range(1, 5):
        f = A(n)
        amb = A(2 * n + 1)
        br = decomposition([f, f], [((nat(f), zero(f)), 1), ((zero(f), nat(f)), 1)])
        levels.append(LevelSpec(SemisimpleAlgebra((f, f)), amb, br))
    for n in range(1, 4):
        f, g = A(n), A(n + 1)
        b0 = decomposition([f, f], [((nat(f), zero(f)), 1), ((zero(f), zero(f)), 1)])
        b1 = decomposition([f, f], [((zero(f), nat(f)), 1), ((zero(f), zero(f)), 1)])
        edges.append((b0, b1))
    save("s2.json", formats.system_to_doc(levels, edges))


def blocks_system(extra_trivial: bool):
    levels, edges = [], []
    top = 4
    for n in range(1, top + 1):
        comps = [A(1)] * n
        amb = A(2 * n) if extra_trivial else A(2 * n - 1)
        recs = []
        for j in range(n):
            ws = [(0,)] * n
            ws[j] = (1,)
            recs.append((tuple(ws), 1))
        conatural = None
        if extra_trivial:
            # the stray line pairs with nothing on the dual side
            conatural = decomposition(comps, list(recs))
            recs.append((((0,),) * n, 1))
        levels.append(
            LevelSpec(SemisimpleAlgebra(tuple(comps)), amb, decomposition(comps, recs), conatural)
        )
    for n in range(1, top):
        src = [A(1)] * n
        brs = []
        for k in range(n + 1):
            if k < n:
                ws = [(0,)] * n
                ws[k] = (1,)
                brs.append(decomposition(src, [(tuple(ws), 1)]))
            else:
                brs.append(decomposition(src, [(((0,),) * n, 2)]))
        edges.append(tuple(brs))
    return levels, edges


def make_s3():
    levels, edges = blocks_system(extra_trivial=False)
    save("s3.json", formats.system_to_doc(levels, edges))


def make_example1():
    # a partition with one infinite class and one two-element block:
    # sl(growing span) + sl(2) side by side inside a growing ambient
    levels, edges = [], []
    for n in range(1, 5):
        f, block = A(n), A(1)
        amb = A(n + 3)
        br = decomposition(
            [f, block],
            [((nat(f), zero(block)), 1), ((zero(f), nat(block)), 1), ((zero(f), zero(block)), 1)],
        )
        levels.append(LevelSpec(SemisimpleAlgebra((f, block)), amb, br))
    for n in range(1, 4):
        f, block = A(n), A(1)
        b0 = decomposition([f, block], [((nat(f), zero(block)), 1), ((zero(f), zero(block)), 1)])
        b1 = decomposition([f, block], [((zero(f), nat(block)), 1)])
        edges.append((b0, b1))
    save("example1.json", formats.system_to_doc(levels, edges))


def make_example3():
    levels, edges = blocks_system(extra_trivial=True)
    save("example3.json", formats.system_to_doc(levels, edges))


def make_s4():
    levels, edges = [], []
    for n in range(1, 5):
        f, a1 = C(n + 1), A(1)
        amb = C(n + 3)
        br = decomposition(
            [f, a1],
            [((nat(f), zero(a1)), 1), ((zero(f), nat(a1)), 1), ((zero(f), zero(a1)), 2)],
        )
        levels.append(LevelSpec(SemisimpleAlgebra((f, a1)), amb, br))
    for n in range(1, 4):
        f, a1, g = C(n + 1), A(1), C(n + 2)
        b0 = decomposition([f, a1], [((nat(f), zero(a1)), 1), ((zero(f), zero(a1)), 2)])
        b1 = decomposition([f, a1], [((zero(f), nat(a1)), 1)])
        edges.append((b0, b1))
    save("s4.json", formats.system_to_doc(levels, edges))


def make_tensor2():
    a1, a3 = A(1), A(3)
    lv1 = LevelSpec(
        SemisimpleAlgebra((a1, a1)), a3, decomposition([a1, a1], [(((1,), (1,)), 1)])
    )
    lv2 = std_level(a3)
    edge = (decomposition([a1, a1], [(((1,), (1,)), 1)]),)
    save("tensor2.json", formats.system_to_doc([lv1, lv2], [edge]))


def make_notstab():
    a1, a3, a7 = A(1), A(3), A(7)
    lv1 = LevelSpec(SemisimpleAlgebra((a1,)), a7, decomposition([a1], [(((1,),), 4)]))
    lv2 = LevelSpec(
        SemisimpleAlgebra((a3,)), a7,
        decomposition([a3], [(((1, 0, 0),), 1), (((0, 0, 1),), 1)]),
    )
    edge = (decomposition([a1], [(((1,),), 2)]),)
    save("notstab.json", formats.system_to_doc([lv1, lv2], [edge]))


def make_example4():
    levels, edges = [], []
    for n in range(1, 6):
        f = A(n)
        amb = A(n + 1)
        br = decomposition([f], [((nat(f),), 1), ((zero(f),), 1)])
        con = decomposition([f], [((tuple(reversed(nat(f))),), 1)])
        levels.append(LevelSpec(SemisimpleAlgebra((f,)), amb, br, con))
    for n in range(1, 5):
        edges.append((std_edge(A(n), A(n + 1)),))
    save("example4.json", formats.system_to_doc(levels, edges))


def make_so_chain():
    algs = [B(2), B(3), D(4), D(5)]
    levels = [std_level(a) for a in algs]
    edges = [(std_edge(a, b),) for a, b in zip(algs, algs[1:])]
    save("so_chain.json", formats.system_to_doc(levels, edges))


def make_refine_mixed():
    a2, d4, d5 = A(2), D(4), D(5)
    lv1 = LevelSpec(
        SemisimpleAlgebra((a2,)), d4,
        decomposition([a2], [(((1, 0),), 1), (((0, 1),), 1), (((0, 0),), 2)]),
    )
    levels = [lv1, std_level(d4), std_level(d5)]
    e1 = (decomposition([a2], [(((1, 0),), 1), (((0, 1),), 1), (((0, 0),), 2)]),)
    e2 = (std_edge(d4, d5),)
    save("refine_mixed.json", formats.system_to_doc(levels, [e1, e2]))


def make_embeddings():
    a5, a9, a11 = A(5), A(9), A(11)
    std = Embedding(
        SemisimpleAlgebra((a5,)), a9,
        decomposition([a5], [((nat(a5),), 1), ((zero(a5),), 4)]),
    )
    save("std_a5_a9.json", formats.embedding_to_doc(std))
    diag = Embedding(
        SemisimpleAlgebra((a5,)), a11,
        decomposition([a5], [((nat(a5),), 1), ((tuple(reversed(nat(a5))),), 1)]),
    )
    save("diag_a5_a11.json", formats.embedding_to_doc(diag))


def make_subspaces():
    sub = {"format": formats.SUBSPACE_FORMAT}
    save("commutator.json", {**sub, "token": "[g,g]"})
    save("so_form.json", {**sub, "token": "so_form"})
    save("sp_form.json", {**sub, "token": "sp_form"})
    save("codim1_kernel.json", {**sub, "space": "V", "tail_from": 1,
                                "kernels": [{"head": [], "tail": "1"}]})
    save("codim1_kernel_dual.json", {**sub, "space": "V*", "tail_from": 1,
                                     "kernels": [{"head": [], "tail": "1"}]})
    save("tail2.json", {**sub, "space": "V", "tail_from": 2})
    save("tail3.json", {**sub, "space": "V", "tail_from": 3})
    save("tail5.json", {**sub, "space": "V", "tail_from": 5})
    save("codim2_kernel.json", {**sub, "space": "V", "tail_from": 1,
                                "kernels": [{"head": [], "tail": "1"},
                                            {"head": ["2"], "tail": "1"}]})
    save("dim2_nondeg.json", {**sub, "space": "V",
                              "generators": [{"1": "1"}, {"2": "1"}]})
    save("isotropic_line.json", {**sub, "space": "V", "generators": [{"1": "1"}]})
    save("nonclosed_tail.json", {**sub, "space": "V", "tail_from": 2,
                                 "kernels": [{"head": [], "tail": "1"}]})


def main():
    OUT.mkdir(exist_ok=True)
    make_s1()
    make_s2()
    make_s3()
    make_s4()
    make_tensor2()
    make_notstab()
    make_example1()
    make_example3()
    make_example4()
    make_so_chain()
    make_refine_mixed()
    make_embeddings()
    make_subspaces()


if __name__ == "__main__":
    main()
