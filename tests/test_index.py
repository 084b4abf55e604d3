import json
import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_fixture, run_cli
from lielimits import algebras, index
from lielimits.algebras import (
    SimpleAlgebra,
    dimension,
    dominant_weights_up_to_dim,
    dual_weight,
    fundamental_weight,
    weyl_dimension,
)
from lielimits.errors import DimensionMismatchError, DomainError, ResourceBoundError
from lielimits.index import (
    NATURAL_MODULE_INDEX,
    Diagonal,
    Embedding,
    General,
    ModuleDecomposition,
    SemisimpleAlgebra,
    Standard,
    Summand,
    classify_embedding,
    compose_index,
    decomposition,
    embedding_index,
    index_of_irrep,
    index_of_module,
    irrep_index,
    min_nondiagonal_index,
    natural_copies,
)
from lielimits.oracle import freudenthal, trace_index
from ref_index import _collapse, ref_composite_index, restrict_to_factor

A1 = SimpleAlgebra("A", 1)
A2 = SimpleAlgebra("A", 2)
A3 = SimpleAlgebra("A", 3)


def simple_embedding(source, target, records):
    return Embedding(SemisimpleAlgebra((source,)), target, decomposition([source], records))


def test_index_examples():
    assert index_of_irrep(A1, (1,)) == 1
    assert index_of_irrep(A1, (2,)) == 4
    assert index_of_irrep(A2, (1, 1)) == 6
    assert index_of_irrep(SimpleAlgebra("B", 3), (1, 0, 0)) == 2


def test_index_integral_nonnegative_zero_iff_trivial():
    literals = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4")
    for literal in literals:
        alg = SimpleAlgebra.parse(literal)
        for lam in dominant_weights_up_to_dim(alg, 2000):
            idx = index_of_irrep(alg, lam)  # integrality asserted inside
            assert idx >= 0
            assert (idx == 0) == (not any(lam))


def test_a1_closed_form():
    for d in range(1, 21):
        assert index_of_irrep(A1, (d - 1,)) == d * (d * d - 1) // 6


def test_spin_module_indices():
    for n in (2, 3, 4, 5):
        alg = SimpleAlgebra("B", n)
        assert index_of_irrep(alg, (0,) * (n - 1) + (1,)) == 2 ** (n - 2)
    for n in (4, 5):
        alg = SimpleAlgebra("D", n)
        assert index_of_irrep(alg, (0,) * (n - 1) + (1,)) == 2 ** (n - 3)


@pytest.mark.parametrize(
    "literal,adjoint,dual_coxeter",
    [("A2", (1, 1), 3), ("A3", (1, 0, 1), 4), ("B3", (0, 1, 0), 5),
     ("C3", (2, 0, 0), 4), ("D4", (0, 1, 0, 0), 6)],
)
def test_adjoint_index_is_twice_dual_coxeter(literal, adjoint, dual_coxeter):
    alg = SimpleAlgebra.parse(literal)
    assert index_of_irrep(alg, adjoint) == 2 * dual_coxeter


def test_index_of_module_examples():
    pair = decomposition([A1, A1], [(((1,), (1,)), 1)])
    assert index_of_module(pair, 0) == 2
    assert index_of_module(pair, 1) == 2
    # (2) + (0) carries the same index as the 2x2 tensor square.
    square = decomposition([A1], [(((2,),), 1), (((0,),), 1)])
    assert index_of_module(square, 0) == 4
    trivial = decomposition([A1, A2], [(((0,), (0, 0)), 3)])
    assert index_of_module(trivial, 0) == 0
    with pytest.raises(DomainError):
        index_of_module(pair, 2)


def test_embedding_validation():
    with pytest.raises(DimensionMismatchError):
        simple_embedding(A1, A3, [(((1,),), 1)])  # dim 2 into dim 4
    # a form-carrying target needs a self-dual branching
    with pytest.raises(DomainError):
        simple_embedding(A2, SimpleAlgebra("C", 3), [(((1, 0),), 2)])
    ok = simple_embedding(
        A2, SimpleAlgebra("C", 3), [(((1, 0),), 1), (((0, 1),), 1)]
    )
    assert embedding_index(ok) == [2]


def test_embedding_index_rejects_non_integer_quotient():
    # one 2-dimensional natural plus trivials inside so(5): the module index 1
    # is not divisible by the orthogonal divisor 2, so no such embedding exists
    b2 = SimpleAlgebra("B", 2)
    emb = simple_embedding(A1, b2, [(((1,),), 1), (((0,),), 3)])
    with pytest.raises(DomainError):
        embedding_index(emb)


def test_embedding_index_examples():
    assert embedding_index(simple_embedding(A3, A3, [(((1, 0, 0),), 1)])) == [1]
    assert embedding_index(simple_embedding(A1, A3, [(((1,),), 2)])) == [2]
    b3 = SimpleAlgebra("B", 3)
    assert embedding_index(simple_embedding(b3, SimpleAlgebra("A", 6), [(((1, 0, 0),), 1)])) == [2]


def test_classification_examples():
    a5, a9, a11 = SimpleAlgebra("A", 5), SimpleAlgebra("A", 9), SimpleAlgebra("A", 11)
    std = simple_embedding(a5, a9, [((a5.natural_weight,), 1), (((0,) * 5,), 4)])
    assert classify_embedding(std) == Standard(dual=False)
    diag = simple_embedding(
        a5, a11, [((a5.natural_weight,), 1), ((tuple(reversed(a5.natural_weight)),), 1)]
    )
    assert classify_embedding(diag) == Diagonal(1, 1, 0)
    adjoint = simple_embedding(A1, A2, [(((2,),), 1)])
    assert classify_embedding(adjoint) == General()
    for source, target, records, expected, copies in CLASSIFY_ROWS:
        emb = simple_embedding(source, target, records)
        assert classify_embedding(emb) == expected
        assert natural_copies(emb.branching, 0) == copies
        if isinstance(expected, Diagonal):  # the derived t is the trivial count
            assert expected.trivial == sum(m for (w,), m in records if not any(w))


D5 = SimpleAlgebra("D", 5)
# (source, target, records, class, natural_copies): the edge cases of one (k, l) count
CLASSIFY_ROWS = [
    # A1: omega = omega*, so every copy counts as natural and l stays 0
    (A1, A3, [(((1,),), 2)], Diagonal(2, 0, 0), (2, 0, None)),
    (A1, A2, [(((1,),), 1), (((0,),), 1)], Standard(dual=False), (1, 0, None)),
    # D5: the natural is self-dual while the algebra is not
    (D5, SimpleAlgebra("D", 10), [((D5.natural_weight,), 2)], Diagonal(2, 0, 0), (2, 0, None)),
    (D5, SimpleAlgebra("A", 10), [((D5.natural_weight,), 1), (((0,) * 5,), 1)], Standard(dual=False),
     (1, 0, None)),
    # the conatural alone
    (A3, SimpleAlgebra("A", 4), [(((0, 0, 1),), 1), (((0, 0, 0),), 1)], Standard(dual=True), (0, 1, None)),
    # a non-natural weight after a natural: the first odd summand is named
    (A2, SimpleAlgebra("A", 11), [(((1, 0),), 1), (((1, 1),), 1), (((0, 0),), 1)], General(),
     (1, 0, Summand(((1, 1),), 1))),
    # k = 2, l = 1 and two trivial lines
    (A2, SimpleAlgebra("A", 10), [(((1, 0),), 2), (((0, 1),), 1), (((0, 0),), 2)], Diagonal(2, 1, 2),
     (2, 1, None)),
]


def test_standard_is_diagonal_with_one_copy():
    a6 = SimpleAlgebra("A", 6)
    dual_std = simple_embedding(
        A2, a6, [((dual_weight(A2, (1, 0)),), 1), (((0, 0),), 4)]
    )
    got = classify_embedding(dual_std)
    assert got == Standard(dual=True)


def test_classification_needs_simple_source():
    emb = Embedding(
        SemisimpleAlgebra((A1, A1)),
        A3,
        decomposition([A1, A1], [(((1,), (0,)), 1), (((0,), (1,)), 1)]),
    )
    with pytest.raises(DomainError):
        classify_embedding(emb)


def leg(source, middle, records):
    return Embedding(SemisimpleAlgebra((source,)), middle, decomposition([source], records))


def test_compose_index_examples():
    diagonal_leg = leg(A1, A1, [(((1,),), 1)])
    second_sum = Embedding(
        SemisimpleAlgebra((A1, A1)),
        A3,
        decomposition([A1, A1], [(((1,), (0,)), 1), (((0,), (1,)), 1)]),
    )
    legs = [diagonal_leg, diagonal_leg]
    assert compose_index(legs, second_sum) == ref_composite_index(legs, second_sum) == 2
    second_tensor = Embedding(
        SemisimpleAlgebra((A1, A1)),
        A3,
        decomposition([A1, A1], [(((1,), (1,)), 1)]),
    )
    assert compose_index(legs, second_tensor) == ref_composite_index(legs, second_tensor) == 4


def test_compose_single_middle_is_plain_chain():
    first = leg(A1, A3, [(((1,),), 2)])           # index 2
    second = Embedding(
        SemisimpleAlgebra((A3,)),
        SimpleAlgebra("A", 7),
        decomposition([A3], [(((1, 0, 0),), 1), (((0, 0, 1),), 1)]),  # index 2
    )
    assert compose_index([first], second) == ref_composite_index([first], second) == 4


def test_compose_middle_mismatch():
    first = leg(A1, A1, [(((1,),), 1)])
    second = Embedding(
        SemisimpleAlgebra((A3,)),
        SimpleAlgebra("A", 7),
        decomposition([A3], [(((1, 0, 0),), 2)]),
    )
    with pytest.raises(DomainError):
        compose_index([first], second)


def test_compose_general_middle_weight_uses_chain_rule():
    # second branching uses the adjoint of the middle A1: not diagonal-compatible
    first = leg(A1, A1, [(((1,),), 1)])
    second = Embedding(
        SemisimpleAlgebra((A1,)),
        SimpleAlgebra("A", 2),
        decomposition([A1], [(((2,),), 1)]),
    )
    assert compose_index([first], second) == 4


def test_min_nondiagonal_index():
    assert min_nondiagonal_index(A1, 10) == 4
    assert min_nondiagonal_index(A2, 10) == 5
    # A3 has the 6-dimensional wedge square at the bound
    assert min_nondiagonal_index(A3, 6) == 2
    with pytest.raises(ResourceBoundError):
        min_nondiagonal_index(A3, 5)


def test_min_nondiagonal_matches_brute_force():
    for alg, bound in ((A2, 60), (SimpleAlgebra("B", 2), 60)):
        omega = alg.natural_weight
        excluded = {(0,) * alg.rank, omega, dual_weight(alg, omega)}
        box = [
            (a, b)
            for a in range(bound)
            for b in range(bound)
            if dimension(alg, (a, b)) <= bound and (a, b) not in excluded
        ]
        expected = min(index_of_irrep(alg, lam) for lam in box)
        assert min_nondiagonal_index(alg, bound) == expected


def test_natural_module_index_table():
    probes = {"A": (1, 2, 3, 5), "B": (2, 3, 5), "C": (1, 2, 3, 5), "D": (4, 5, 6)}
    assert probes.keys() == NATURAL_MODULE_INDEX.keys()
    for series, ranks in probes.items():
        for rank in ranks:
            alg = SimpleAlgebra(series, rank)
            assert index_of_irrep(alg, alg.natural_weight) == NATURAL_MODULE_INDEX[series], alg


def test_index_monotone_in_dominance_order():
    for alg in (A2, SimpleAlgebra("B", 2)):
        weights = dominant_weights_up_to_dim(alg, 500)
        for lam in weights:
            for mu in weights:
                if lam != mu and all(a <= b for a, b in zip(lam, mu)) and any(lam):
                    assert index_of_irrep(alg, lam) <= index_of_irrep(alg, mu)


def test_restrict_to_factor():
    decomp = decomposition([A1, A2], [(((1,), (1, 0)), 2), (((0,), (0, 1)), 1)])
    left = restrict_to_factor(decomp, 0)
    assert left.algebra.factors == (A1,)
    assert dict((s.weights, s.mult) for s in left.summands) == {(((1,),)): 6, (((0,),)): 3}
    right = restrict_to_factor(decomp, 1)
    assert dict((s.weights, s.mult) for s in right.summands) == {(((1, 0),)): 4, (((0, 1),)): 1}


def test_summands_merge_and_sort():
    d1 = decomposition([A1], [(((1,),), 1), (((1,),), 2), (((0,),), 1)])
    d2 = decomposition([A1], [(((0,),), 1), (((1,),), 3)])
    assert d1 == d2
    assert d1.total_dim == 7


def test_memoized_kernels_keep_their_checks():
    # Warm the caches first: 1.0 == 1 and hashes alike, so a cache consulted
    # before validation would hand (1.0, 0) the answer of (1, 0).
    assert dimension(A2, (1, 0)) == 3
    assert index_of_irrep(A2, (1, 0)) == 1
    assert freudenthal(A2, (1, 0)).total == 3
    assert weyl_dimension.cache_info().currsize and irrep_index.cache_info().currsize
    assert freudenthal.cache_info().currsize
    for bad, error in (((1.0, 0), DomainError), ((True, 0), DomainError), ((-1, 0), DomainError),
                       ((1, 0, 0), DimensionMismatchError), ((1,), DimensionMismatchError)):
        with pytest.raises(error):
            dimension(A2, bad)
        with pytest.raises(error):
            index_of_irrep(A2, bad)
        with pytest.raises(error):
            freudenthal(A2, bad)
        with pytest.raises(error):
            trace_index(A2, bad)
        with pytest.raises(error):
            decomposition([A2], [((bad,), 1)])
    assert dimension(A2, [1, 0]) == 3
    assert index_of_irrep(A2, [1, 0]) == 1
    assert freudenthal(A2, [1, 0]) is freudenthal(A2, (1, 0))
    assert trace_index(A2, [1, 0]) == 1
    with pytest.raises(DomainError):
        decomposition([A2, A1], [(((1, 0), (-1,)), 1)])
    pair = decomposition([A2, A1], [(((1, 0), (1,)), 1)])
    assert pair.total_dim == 6 and index_of_module(pair, 0) == 2


def test_derived_decompositions_are_not_validated_again(monkeypatch):
    decomp = decomposition([A2, A1, A3], [(((1, 0), (1,), (0, 0, 1)), 2),
                                          (((0, 1), (0,), (1, 1, 0)), 1)])
    calls = []
    check = algebras.check_dominant

    def counting_check(alg, weight):
        calls.append((alg, weight))
        return check(alg, weight)

    monkeypatch.setattr(algebras, "check_dominant", counting_check)
    monkeypatch.setattr(index, "check_dominant", counting_check)
    dual = decomp.dual()
    parts = [restrict_to_factor(decomp, j) for j in range(3)]
    assert calls == []
    assert [(s.weights, s.mult) for s in dual.summands] == [
        (((0, 1), (1,), (1, 0, 0)), 2), (((1, 0), (0,), (0, 1, 1)), 1)]
    assert [p.total_dim for p in parts] == [decomp.total_dim] * 3
    decomposition([A2], [(((1, 0),), 1)])
    assert calls == [(A2, (1, 0))]  # the public constructor still validates


def _random_decomposition(rng):
    """Up to three factors, small weights; half the time closed under duals."""
    pool = [A1, A2, A3, SimpleAlgebra("B", 2), SimpleAlgebra("C", 3), SimpleAlgebra("D", 5)]
    factors = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
    summands = []
    for _ in range(rng.randint(1, 4)):
        weights = tuple(tuple(rng.choice((0, 0, 1, 2)) for _ in range(f.rank)) for f in factors)
        summands.append(Summand(weights, rng.randint(1, 3)))
        if rng.random() < 0.5:
            summands.append(Summand(tuple(map(dual_weight, factors, weights)), summands[-1].mult))
    return ModuleDecomposition(SemisimpleAlgebra(factors), tuple(summands))


def test_dimension_table_matches_weyl_dimensions():
    rng = random.Random(3131)
    self_dual = set()
    for _ in range(300):
        decomp = _random_decomposition(rng)
        factors = decomp.algebra.factors
        dims = [[dimension(f, w) for f, w in zip(factors, s.weights)] for s in decomp.summands]
        assert decomp.total_dim == sum(s.mult * prod(row) for s, row in zip(decomp.summands, dims))
        for j in range(len(factors)):
            assert _collapse(decomp, j) == [
                (s.weights[j], s.mult * prod(d for i, d in enumerate(row) if i != j))
                for s, row in zip(decomp.summands, dims)
            ]
            assert decomp.indices[j] == index_of_module(decomp, j) == sum(
                m * index_of_irrep(factors[j], w) for w, m in _collapse(decomp, j))
        assert decomp.is_self_dual() == (decomp.dual() == decomp)
        self_dual.add(decomp.is_self_dual())
    assert self_dual == {True, False}


def test_trivial_weights_never_reach_a_kernel(monkeypatch):
    weyl_dimension.cache_clear()
    irrep_index.cache_clear()
    seen = []

    def counted(kernel):
        def call(alg, lam):
            seen.append((kernel.__name__, lam))
            return kernel(alg, lam)
        return call

    monkeypatch.setattr(algebras, "weyl_dimension", counted(weyl_dimension))
    monkeypatch.setattr(index, "irrep_index", counted(irrep_index))
    graph = graph_from_fixture("s3.json")
    assert graph.alpha and {name for name, _ in seen} == {"weyl_dimension", "irrep_index"}
    assert all(any(lam) for _, lam in seen)


def test_irrep_index_guard_fires_on_a_wrong_kernel(monkeypatch):
    irrep_index.cache_clear()
    monkeypatch.setattr(algebras, "weyl_dimension", lambda alg, lam: -1)
    code, out, err = run_cli("index", "A2", "1,0")
    irrep_index.cache_clear()
    assert (code, out) == (1, "")
    assert "index of (1, 0) over A2 is not an integer >= 0" in err


def test_branching_over_another_algebra_is_rejected():
    with pytest.raises(DomainError, match="over the source algebra"):
        Embedding(SemisimpleAlgebra((A2,)), A2, decomposition([A1], [(((2,),), 1)]))


def test_cli_embed_prints_a_general_classification(tmp_path):
    path = tmp_path / "adjoint.json"
    path.write_text(json.dumps({"format": "lielimits-embedding/1", "source": ["A1"],
                                "target": "A2", "branching": [{"weights": [[2]]}]}))
    code, out, err = run_cli("embed", str(path))
    assert (code, err) == (0, "")
    assert "index           [4]" in out and "classification  General" in out


def test_compose_index_argument_errors():
    leg = simple_embedding(A1, A2, [(((1,),), 1), (((0,),), 1)])
    other = simple_embedding(A2, A3, [(((1, 0),), 1), (((0, 0),), 1)])
    with pytest.raises(DomainError, match="at least one middle factor"):
        compose_index([], other)
    with pytest.raises(DomainError, match="share one simple source"):
        compose_index([leg, other], other)


def test_compose_index_matches_reference_through_a_conatural():
    # A1 -> A2 by natural + trivial, then A2 -> B3 by natural + conatural +
    # trivial: the conatural restricts through the dual of the first leg.
    first = [simple_embedding(A1, A2, [(((1,),), 1), (((0,),), 1)])]
    second = simple_embedding(A2, SimpleAlgebra("B", 3),
                              [(((1, 0),), 1), (((0, 1),), 1), (((0, 0),), 1)])
    assert compose_index(first, second) == ref_composite_index(first, second) == 1


# Every series, with A1 and the even-rank D (where -w0 = 1) next to the
# higher A and the odd-rank D (where it is not).
_DUALITY_POOL = [SimpleAlgebra(s, n) for s, n in
                 (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 1), ("C", 3),
                  ("D", 4), ("D", 5), ("D", 6))]


@st.composite
def _decompositions(draw):
    factors = tuple(draw(st.lists(st.sampled_from(_DUALITY_POOL), min_size=1, max_size=3)))
    label = st.integers(0, 2)
    records = draw(st.lists(st.tuples(
        st.tuples(*(st.tuples(*[label] * f.rank) for f in factors)), st.integers(1, 3),
    ), min_size=1, max_size=4))
    return decomposition(factors, records)


@settings(max_examples=300, deadline=None)
@given(_decompositions())
def test_duality_agrees_with_the_general_construction(decomp):
    factors = decomp.algebra.factors
    general = decomposition(factors, [(tuple(map(dual_weight, factors, s.weights)), s.mult)
                                      for s in decomp.summands])
    dual = decomp.dual()
    assert dual == general
    # the dual carries its table over: equal to the one a fresh pass computes
    assert (dual.dims, dual.indices, dual.total_dim) == (general.dims, general.indices, general.total_dim)
    assert decomp.is_self_dual() == (general == decomp)
    for f in factors:
        fixed = all(dual_weight(f, fundamental_weight(f, i)) == fundamental_weight(f, i)
                    for i in range(f.rank))
        assert SemisimpleAlgebra((f,)).self_dual == fixed
    if decomp.algebra.self_dual:
        assert decomp.dual() is decomp and decomp.is_self_dual()


def test_dimension_table_is_filled_by_its_first_read():
    # dims, indices and total_dim come from one pass, run by the first read of
    # any of them; other missing attributes stay AttributeErrors
    decomp = decomposition([A1, A2], [(((1,), (0, 1)), 2), (((0,), (0, 0)), 1)])
    assert not {"dims", "indices", "total_dim"} & set(vars(decomp))
    assert decomp.total_dim == 13
    assert vars(decomp)["dims"] == ((1, 1), (2, 3)) and vars(decomp)["indices"] == (6, 4)
    assert not hasattr(decomp, "missing")
    with pytest.raises(AttributeError, match="'ModuleDecomposition' object has no attribute 'missing'"):
        decomp.missing
