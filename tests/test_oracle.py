import pytest

from lielimits.algebras import SimpleAlgebra, dimension, dominant_weights_up_to_dim
from lielimits.errors import InternalConsistencyError, ResourceBoundError
from lielimits.index import index_of_irrep, index_of_module
from lielimits.oracle import _depth, freudenthal, tensor_decompose, trace_index, weight_system

A1 = SimpleAlgebra("A", 1)
A2 = SimpleAlgebra("A", 2)


def test_freudenthal_a1_triplet():
    ms = freudenthal(A1, (2,))
    assert ms.as_dict() == {(2,): 1, (0,): 1, (-2,): 1}


def test_freudenthal_adjoint_zero_weight():
    ms = freudenthal(A2, (1, 1))
    assert ms.as_dict()[(0, 0)] == 2
    assert ms.total == 8


def test_freudenthal_trivial():
    for alg in (A1, A2, SimpleAlgebra("D", 4)):
        ms = freudenthal(alg, (0,) * alg.rank)
        assert ms.as_dict() == {(0,) * alg.rank: 1}


def test_freudenthal_total_and_symmetry():
    for alg in (A2, SimpleAlgebra("B", 2), SimpleAlgebra("C", 3), SimpleAlgebra("D", 4)):
        for lam in dominant_weights_up_to_dim(alg, 60):
            ms = freudenthal(alg, lam)
            assert ms.total == dimension(alg, lam)
            assert ms.check_reflection_symmetry()


def test_freudenthal_bound():
    with pytest.raises(ResourceBoundError):
        freudenthal(A1, (100,), dim_bound=50)


def test_weight_system_size():
    assert len(weight_system(A2, (1, 1))) == 7  # six roots and zero


def test_trace_examples():
    assert trace_index(A1, (3,)) == 10
    assert trace_index(A1, (1,)) == 1
    assert trace_index(SimpleAlgebra("B", 3), (1, 0, 0)) == 2


def test_tensor_clebsch_gordan():
    got = tensor_decompose(A1, (1,), (1,))
    assert [(s.weights[0], s.mult) for s in got.summands] == [((0,), 1), ((2,), 1)]
    got = tensor_decompose(A1, (2,), (1,))
    assert [(s.weights[0], s.mult) for s in got.summands] == [((1,), 1), ((3,), 1)]
    got = tensor_decompose(A2, (1, 0), (0, 1))
    assert [(s.weights[0], s.mult) for s in got.summands] == [((0, 0), 1), ((1, 1), 1)]


def test_tensor_dimension_preserved(rng):
    for _ in range(25):
        alg = rng.choice([A1, A2, SimpleAlgebra("B", 2)])
        lam = tuple(rng.randrange(0, 3) for _ in range(alg.rank))
        mu = tuple(rng.randrange(0, 2) for _ in range(alg.rank))
        product = tensor_decompose(alg, lam, mu)
        assert product.total_dim == dimension(alg, lam) * dimension(alg, mu)


def test_tensor_index_matches_product_rule(rng):
    # Additivity over the decomposition equals the tensor rule.
    for _ in range(25):
        alg = rng.choice([A1, A2])
        lam = tuple(rng.randrange(0, 3) for _ in range(alg.rank))
        mu = tuple(rng.randrange(0, 3) for _ in range(alg.rank))
        if dimension(alg, lam) * dimension(alg, mu) > 400:
            continue
        product = tensor_decompose(alg, lam, mu)
        by_sum = index_of_module(product, 0)
        dl, dm = dimension(alg, lam), dimension(alg, mu)
        assert by_sum == dm * index_of_irrep(alg, lam) + dl * index_of_irrep(alg, mu)


def test_tensor_bound():
    with pytest.raises(ResourceBoundError):
        tensor_decompose(A1, (30,), (30,), dim_bound=100)


def test_adjoint_square_of_a2():
    # 8 x 8 = 27 + 10 + 10bar + 8 + 8 + 1
    got = {s.weights[0]: s.mult for s in tensor_decompose(A2, (1, 1), (1, 1)).summands}
    assert got == {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}


@pytest.mark.parametrize(
    "literal,adjoint",
    [("A2", (1, 1)), ("A3", (1, 0, 1)), ("B3", (0, 1, 0)), ("C3", (2, 0, 0)), ("D4", (0, 1, 0, 0))],
)
def test_adjoint_zero_weight_multiplicity_is_rank(literal, adjoint):
    alg = SimpleAlgebra.parse(literal)
    assert dimension(alg, adjoint) == alg.dim
    assert freudenthal(alg, adjoint).as_dict()[(0,) * alg.rank] == alg.rank


@pytest.mark.parametrize(
    "alg,top,mu",
    [
        (A2, (1, 0), (0, 1)),            # top - mu is not in the root lattice
        (A2, (1, 0), (0, 0)),            # top - mu = (2 alpha_1 + alpha_2) / 3
        (A2, (0, 0), (2, -1)),           # mu = top + alpha_1 lies above top
        (SimpleAlgebra("C", 3), (0, 0, 1), (0, 0, 2)),
    ],
    ids=str,
)
def test_depth_rejects_weight_not_below_top(alg, top, mu):
    with pytest.raises(InternalConsistencyError):
        _depth(alg, top, mu)
