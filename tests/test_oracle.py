import pytest

from conftest import run_cli
from lielimits import oracle
from lielimits.algebras import (
    SimpleAlgebra,
    cartan_matrix,
    dimension,
    dominant_weights_up_to_dim,
    eps2,
    pairing,
    positive_roots,
)
from lielimits.errors import InternalConsistencyError, ResourceBoundError
from lielimits.index import index_of_irrep, index_of_module
from lielimits.oracle import (
    WeightMultiset,
    _code,
    _coweights,
    _depth,
    _radix,
    freudenthal,
    tensor_decompose,
    trace_index,
    weight_system,
)

A1 = SimpleAlgebra("A", 1)
A2 = SimpleAlgebra("A", 2)


def ref_weight_system(alg, lam):
    """Reference: regenerate the whole i-string below every weight."""
    cartan = cartan_matrix(alg)
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(alg.rank):
                for k in range(1, mu[i] + 1):
                    down = tuple(x - k * a for x, a in zip(mu, cartan[i]))
                    if down not in seen:
                        seen.add(down)
                        nxt.append(down)
        frontier = nxt
    return seen


def ref_freudenthal(alg, lam):
    """Reference: Freudenthal's recursion walking every string mu + k alpha."""
    weights = sorted(ref_weight_system(alg, lam), key=lambda mu: (_depth(alg, lam, mu), mu))
    index = {mu: i for i, mu in enumerate(weights)}
    roots = positive_roots(alg)
    forms, steps = [], []
    for alpha in roots:
        a = eps2(alg, alpha)
        forms.append([pairing(alg, omega, a) for omega, _ in _coweights(alg)])
        steps.append(pairing(alg, a, a))
    successors = [
        [index.get(tuple(x + a for x, a in zip(mu, alpha)), -1) for mu in weights]
        for alpha in roots
    ]

    def norm_shifted(mu):
        shifted = eps2(alg, [x + 1 for x in mu])
        return pairing(alg, shifted, shifted)

    top_norm = norm_shifted(lam)
    mult = [1] * len(weights)
    for i in range(1, len(weights)):
        mu = weights[i]
        acc = 0
        for ga, step, succ in zip(forms, steps, successors):
            base = sum(c * x for c, x in zip(ga, mu))
            j, k = succ[i], 1
            while j >= 0:
                acc += mult[j] * (base + k * step)
                j, k = succ[j], k + 1
        value, rest = divmod(2 * acc, top_norm - norm_shifted(mu))
        assert rest == 0 and value > 0
        mult[i] = value
    return dict(zip(weights, mult))


DIFFERENTIAL_CASES = [
    (alg, lam)
    for alg in map(SimpleAlgebra.parse, ("A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4"))
    for lam in dominant_weights_up_to_dim(alg, 120)
] + [(A1, (299,)), (A2, (12, 0))]


def test_walk_and_string_sums_match_reference():
    for alg, lam in DIFFERENTIAL_CASES:
        walk = weight_system(alg, lam)
        depth = {mu: d for mu, d, _, _ in walk.values()}
        assert len(depth) == len(walk)
        assert depth.keys() == ref_weight_system(alg, lam)
        assert all(d == _depth(alg, lam, mu) for mu, d in depth.items())
        assert dict(freudenthal(alg, lam).entries) == ref_freudenthal(alg, lam)


def test_walk_carries_norm_pairings_and_codes():
    for alg, lam in DIFFERENTIAL_CASES:
        roots = positive_roots(alg)
        radix = _radix(alg, lam)
        walk = weight_system(alg, lam)
        weights = {mu for mu, _, _, _ in walk.values()}
        for code, (mu, _, norm, pairs) in walk.items():
            shifted = eps2(alg, [x + 1 for x in mu])
            assert norm == pairing(alg, shifted, shifted)
            a = eps2(alg, mu)
            assert pairs == tuple(pairing(alg, a, eps2(alg, alpha)) for alpha in roots)
            assert code == _code(mu, radix)
            for alpha in roots:
                up = walk.get(code + _code(alpha, radix))
                above = tuple(x + y for x, y in zip(mu, alpha))
                assert (up[0] if up else None) == (above if above in weights else None)


@pytest.mark.parametrize(
    "literal,lam",
    [("A1", (299,)), ("B3", (0, 0, 7)), ("C3", (0, 0, 5)), ("C3", (11, 0, 0)), ("D4", (0, 0, 0, 5))],
)
def test_freudenthal_at_largest_labels(literal, lam):
    # the largest label of an irrep sets the radix of the weight code
    alg = SimpleAlgebra.parse(literal)
    assert dict(freudenthal(alg, lam).entries) == ref_freudenthal(alg, lam)


def test_freudenthal_a1_triplet():
    ms = freudenthal(A1, (2,))
    assert dict(ms.entries) == {(2,): 1, (0,): 1, (-2,): 1}


def test_freudenthal_adjoint_zero_weight():
    ms = freudenthal(A2, (1, 1))
    assert dict(ms.entries)[(0, 0)] == 2
    assert ms.total == 8


def test_freudenthal_trivial():
    for alg in (A1, A2, SimpleAlgebra("D", 4)):
        ms = freudenthal(alg, (0,) * alg.rank)
        assert dict(ms.entries) == {(0,) * alg.rank: 1}


def reflection_symmetric(ms):
    """Invariance under every simple reflection s_i(mu) = mu - mu_i alpha_i."""
    table = dict(ms.entries)
    cartan = cartan_matrix(ms.algebra)
    return all(table.get(tuple(x - mu[i] * a for x, a in zip(mu, cartan[i])), 0) == m
               for mu, m in ms.entries for i in range(ms.algebra.rank))


def test_freudenthal_total_and_symmetry():
    for alg in (A2, SimpleAlgebra("B", 2), SimpleAlgebra("C", 3), SimpleAlgebra("D", 4)):
        for lam in dominant_weights_up_to_dim(alg, 60):
            ms = freudenthal(alg, lam)
            assert ms.total == dimension(alg, lam)
            assert reflection_symmetric(ms)


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
    assert dict(freudenthal(alg, adjoint).entries)[(0,) * alg.rank] == alg.rank


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


# -- each guard of a wrong kernel fires, and the CLI exits 1 ------------------


def _norms(new):
    """weight_system whose norms below the top are new(top norm, norm)."""
    def fake(real):
        def walk(alg, lam):
            out = real(alg, lam)
            top = next(norm for _, depth, norm, _ in out.values() if depth == 0)
            return {c: (mu, d, new(top, norm) if d else norm, p) for c, (mu, d, norm, p) in out.items()}
        return walk
    return fake


def _top_only(real):
    """freudenthal that keeps only the highest weight."""
    return lambda alg, lam, bound=None: WeightMultiset(alg, ((tuple(lam), 1),))


def _doubled(real):
    """freudenthal with every multiplicity doubled."""
    return lambda alg, lam, bound: WeightMultiset(
        alg, tuple((mu, 2 * m) for mu, m in real(alg, lam, bound).entries))


# guard -> (oracle name, fake built from the real one, oracle command over A1, message)
ORACLE_FAULTS = {
    "denominator": ("weight_system", _norms(lambda top, norm: top), ("trace", "2"),
                    "Freudenthal denominator vanished at (0,)"),
    "non-integral": ("weight_system", _norms(lambda top, norm: norm - 10**6), ("trace", "2"),
                     "non-integral multiplicity 32/1000032 at (0,)"),
    "sum": ("weyl_dimension", lambda real: lambda alg, lam: real(alg, lam) + 1, ("trace", "2"),
            "multiplicities of (2,) over A1 sum to 3, expected 4"),
    "odd-trace": ("freudenthal", _top_only, ("trace", "1"), "odd trace 1 for (1,) over A1"),
    "non-dominant": ("_depth", lambda real: lambda alg, top, mu: 0, ("tensor", "1", "1"),
                     "extracted a non-dominant highest weight (-2,)"),
    "negative": ("freudenthal", _doubled, ("tensor", "1", "1"),
                 "negative multiplicity at (-2,) while extracting (2,)"),
    "not-exhausted": ("freudenthal", _top_only, ("tensor", "1", "1"),
                      "tensor decomposition did not exhaust the product"),
}


@pytest.mark.parametrize("guard", sorted(ORACLE_FAULTS))
def test_oracle_guards_fire_on_a_wrong_kernel(monkeypatch, cold_caches, guard):
    name, fake, (command, *weights), message = ORACLE_FAULTS[guard]
    monkeypatch.setattr(oracle, name, fake(getattr(oracle, name)))
    call = {"trace": trace_index, "tensor": tensor_decompose}[command]
    with pytest.raises(InternalConsistencyError) as fault:
        call(A1, *((int(w),) for w in weights))
    assert str(fault.value) == message
    assert run_cli("oracle", command, "A1", *weights) == (1, "", f"error: {message}\n")
