"""Direct reference for `lielimits.index.compose_index`.

The library computes the index of a composite f -> k_1 + ... + k_l -> f'
by Dynkin's sum formula.  This module computes the same number the other
way: it restricts the natural module of f' down to f through the first
legs, tensoring the restricted factors with the oracle, and takes the
index of the result.  It reads no embedding index, so agreement of the
two is evidence, not tautology.
"""

from __future__ import annotations

from lielimits.algebras import dual_weight
from lielimits.index import (
    NATURAL_MODULE_INDEX,
    ModuleDecomposition,
    Summand,
    decomposition,
    index_of_module,
)
from lielimits.oracle import tensor_decompose


def _tensor(f, a: ModuleDecomposition, b: ModuleDecomposition) -> ModuleDecomposition:
    out = []
    for sa in a.summands:
        for sb in b.summands:
            product = tensor_decompose(f, sa.weights[0], sb.weights[0])
            out.extend(Summand(sp.weights, sp.mult * sa.mult * sb.mult) for sp in product.summands)
    return ModuleDecomposition(a.algebra, out)


def _restrict_summand(f, first, summand: Summand) -> ModuleDecomposition:
    """One tensor summand of the second branching, restricted down to f.

    Every middle weight must be a natural, a conatural or zero: those are
    the weights whose restriction is a first leg's branching or its dual.
    """
    result = decomposition([f], [(((0,) * f.rank,), 1)])
    for e, w in zip(first, summand.weights):
        k = e.target
        if not any(w):
            continue
        if w == k.natural_weight:
            part = e.branching
        elif w == dual_weight(k, k.natural_weight):
            part = e.branching.dual()
        else:
            raise ValueError(f"middle weight {w} over {k} has no structural restriction")
        result = _tensor(f, result, part)
    return result


def ref_composite_index(first, second) -> int:
    """Index of the natural module of second.target restricted to f, divided
    by the natural-module index of second.target."""
    f = first[0].source.factors[0]
    total = sum(s.mult * index_of_module(_restrict_summand(f, first, s), 0)
                for s in second.branching.summands)
    quotient, rest = divmod(total, NATURAL_MODULE_INDEX[second.target.series])
    assert rest == 0, f"composite module index {total} is not divisible by the target's"
    return quotient
