import random
import tracemalloc
from math import factorial, isqrt, prod
from operator import add

import pytest

from conftest import fundamental_weight, run_cli
from ref_roots import ref_labels, ref_root_data
from lielimits import oracle
from lielimits.algebras import (
    SimpleAlgebra,
    check_dominant,
    dimension,
    dominant_weights_up_to_dim,
    eps2,
    pairing,
)
from lielimits.errors import InternalConsistencyError, ResourceBoundError
from lielimits.index import ModuleDecomposition, SemisimpleAlgebra, Summand, index_of_irrep, index_of_module
from lielimits.oracle import (
    WeightMultiset,
    freudenthal,
    tensor_decompose,
    trace_index,
    weight_system,
)

A1 = SimpleAlgebra("A", 1)
A2 = SimpleAlgebra("A", 2)
SWEEP_ALGEBRAS = tuple(map(SimpleAlgebra.parse, ("A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4")))


def _roots(alg):
    """The positive roots in labels, sorted: the first entry of each of the oracle's moves."""
    return tuple(move[0] for move in oracle._root_forms(alg)[1])


def _cartan(alg):
    """The Cartan rows of the oracle's root table: row i is the labels of alpha_i."""
    return oracle._root_forms(alg)[-1]


def _coweights(alg):
    """Fundamental coweights 2 omega_i / (alpha_i, alpha_i), one per simple
    root, as pairs (eps2(omega_i), pairing(alpha_i, alpha_i))."""
    out = []
    for i, alpha in enumerate(_cartan(alg)):
        a = eps2(alg, alpha)
        out.append((eps2(alg, fundamental_weight(alg, i)), pairing(alg, a, a)))
    return tuple(out)


def _depth(alg, top, mu):
    """Height of beta = top - mu: the sum of c_i = 2(beta, omega_i)/(alpha_i, alpha_i)."""
    beta = eps2(alg, [a - b for a, b in zip(top, mu)])
    total = 0
    for omega, norm in _coweights(alg):
        c, rest = divmod(2 * pairing(alg, beta, omega), norm)
        if rest or c < 0:
            raise InternalConsistencyError(f"{mu} is not below {top} in the root lattice")
        total += c
    return total


def ref_weight_system(alg, lam):
    """Reference: regenerate the whole i-string below every weight."""
    cartan = _cartan(alg)
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
    roots = _roots(alg)
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


# -- reference: the coded walk over every weight, and extraction by depth ------


def _radix(alg, lam):
    """Radix of the weight code sum_j mu_j radix^j over the weights of lam.

    Every weight mu has |mu| <= |lam|, so mu_j^2 <= 4 |lam|^2 / |alpha_j|^2
    and |mu_j| <= bound.  Root labels lie in [-2, 2], so with radix
    2 bound + 7 the labels of mu + alpha stay balanced digits: the code is
    injective on weights and code(mu + alpha) = code(mu) + code(alpha).
    """
    a = eps2(alg, lam)
    norm = pairing(alg, a, a)
    return 2 * max(isqrt(4 * norm // step) for _, step in _coweights(alg)) + 7


def _code(weight, radix):
    return sum(x * radix**j for j, x in enumerate(weight))


def ref_walk(alg, lam):
    """Every weight of lam, by a walk of mu - alpha_i and s_i mu = mu - mu_i alpha_i
    for each i with mu_i > 0: code(mu) at _radix(alg, lam) -> (mu, depth, norm,
    pairs), where depth is the height of lam - mu, norm is pairing(mu + rho,
    mu + rho) and pairs the tuple of pairing(mu, alpha) over the positive roots.
    All four are linear in mu, so the walk carries them."""
    radix = _radix(alg, lam)
    forms = [
        [pairing(alg, omega, eps2(alg, alpha)) for omega, _ in _coweights(alg)]
        for alpha in _roots(alg)
    ]

    def root_pairings(mu):
        return tuple(sum(c * x for c, x in zip(form, mu)) for form in forms)

    moves = [
        (row, step, root_pairings(row), _code(row, radix))
        for row, (_, step) in zip(_cartan(alg), _coweights(alg))
    ]
    shifted = eps2(alg, [x + 1 for x in lam])
    top = _code(lam, radix)
    walk = {top: (lam, 0, pairing(alg, shifted, shifted), root_pairings(lam))}
    todo = [top]
    for code in todo:
        mu, depth, norm, pairs = walk[code]
        for m, (row, step, steps, shift) in zip(mu, moves):
            if m > 0:
                for k in {1, m}:
                    down = code - k * shift
                    if down not in walk:
                        walk[down] = (
                            tuple(x - k * a for x, a in zip(mu, row)),
                            depth + k,
                            norm - m * step,
                            tuple(p - k * q for p, q in zip(pairs, steps)),
                        )
                        todo.append(down)
    return walk


def ref_walk_freudenthal(alg, lam):
    """Freudenthal over every weight in depth order, with a running string sum
    T(mu) = m(mu + alpha) (mu + alpha, alpha) + T(mu + alpha) per positive root,
    stored under code(mu + alpha) = code(mu) + code(alpha)."""
    walk = ref_walk(alg, lam)
    radix = _radix(alg, lam)
    shifts = [_code(alpha, radix) for alpha in _roots(alg)]
    top_norm = walk[_code(lam, radix)][2]
    weights, mult = [], []
    sums = [{} for _ in shifts]  # sums[r][code(mu)] = T(mu - alpha_r)
    for i, (code, (mu, _, norm, pairs)) in enumerate(sorted(walk.items(), key=lambda item: item[1][1])):
        above = [s.get(code + shift, 0) for shift, s in zip(shifts, sums)]
        m = 1
        if i:
            m, rest = divmod(2 * sum(above), top_norm - norm)
            assert rest == 0 and m > 0
        for t, p, s in zip(above, pairs, sums):
            s[code] = t + m * p
        weights.append(mu)
        mult.append(m)
    assert sum(mult) == dimension(alg, lam)
    return WeightMultiset(alg, tuple(sorted(zip(weights, mult))))


def ref_extract(alg, lam, mu):
    """Tensor product by convolving both multisets and extracting summands
    in one sweep by depth: extracting nu lowers only weights below it."""
    product = {}
    right = ref_walk_freudenthal(alg, mu).entries
    for wl, ml in ref_walk_freudenthal(alg, lam).entries:
        for wr, mr in right:
            key = tuple(a + b for a, b in zip(wl, wr))
            product[key] = product.get(key, 0) + ml * mr
    top = tuple(a + b for a, b in zip(lam, mu))
    found = []
    for nu in sorted(product, key=lambda w: (_depth(alg, top, w), w)):
        count = product[nu]
        if count:
            check_dominant(alg, nu)
            for w, m in ref_walk_freudenthal(alg, nu).entries:
                product[w] -= count * m
                assert product[w] >= 0
            found.append(Summand((nu,), count))
    assert not any(product.values())
    return ModuleDecomposition(SemisimpleAlgebra((alg,)), found)


DIFFERENTIAL_CASES = [
    (alg, lam)
    for alg in map(SimpleAlgebra.parse, ("A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4"))
    for lam in dominant_weights_up_to_dim(alg, 120)
] + [(A1, (299,)), (A2, (12, 0))]


def dominant_part(weights):
    return {mu for mu in weights if min(mu) >= 0}


def test_walk_and_string_sums_match_reference():
    for alg, lam in DIFFERENTIAL_CASES:
        assert dict(freudenthal(alg, lam).entries) == ref_freudenthal(alg, lam)


KERNEL_CASES = DIFFERENTIAL_CASES + [
    (alg, lam)
    for alg in map(SimpleAlgebra.parse, ("A5", "B4", "C4", "D5"))
    for lam in dominant_weights_up_to_dim(alg, 400)
]


def test_kernels_match_the_coded_walk():
    for alg, lam in KERNEL_CASES:
        walk = ref_walk(alg, lam)
        assert weight_system(alg, lam).keys() == dominant_part(mu for mu, _, _, _ in walk.values())
        assert freudenthal(alg, lam) == ref_walk_freudenthal(alg, lam)


def test_walk_carries_norm_and_pairings():
    for alg, lam in DIFFERENTIAL_CASES:
        roots = _roots(alg)
        k, moves = oracle._root_forms(alg)[:2]
        walk = weight_system(alg, lam)
        assert walk.keys() == dominant_part(ref_weight_system(alg, lam))
        for mu, (norm, row) in walk.items():
            shifted = eps2(alg, [x + 1 for x in mu])
            assert norm == pairing(alg, shifted, shifted)
            # eps2 puts A's last coordinate at 0; a step moves it, and a root has coordinate sum 0
            shift = row[-1] if alg.series == "A" else 0
            assert [x - shift for x in row] == eps2(alg, mu)
            pairs = [k * (a * row[i] + b * row[j]) for _, a, i, b, j, _, _ in moves]
            assert pairs == [pairing(alg, row, eps2(alg, alpha)) for alpha in roots]


@pytest.mark.parametrize("literal", "A1 A2 A5 A12 B2 B3 B9 C1 C3 C9 D4 D5 D10".split())
def test_root_forms_match_the_per_call_derivations(literal):
    alg = SimpleAlgebra.parse(literal)
    k, moves, *rest, _ = oracle._root_forms(alg)  # the Cartan rows: test_algebras
    ref_moves, ref_lengths, *ref_rest = ref_root_data(alg)
    assert [(alpha, cost) for alpha, *_, cost, _ in moves] == list(ref_moves)
    assert tuple(length for *_, length in moves) == ref_lengths
    # the terms (a, i, b, j) spell each root: a e_i + b e_j, where b = 0 leaves a at i = j = 0
    assert [ref_labels(alg, {j: b, i: a}) for _, a, i, b, j, _, _ in moves] == [move[0] for move in moves]
    assert rest == ref_rest
    assert k == {"A": 2 * (alg.rank + 1)}.get(alg.series, 2)


@pytest.mark.parametrize("literal", ["A40", "B20", "C20", "D30"])
def test_trace_index_matches_the_closed_form_on_the_natural_module_at_large_rank(literal, cold_caches):
    # the walk carries one eps2 row per weight, and no root data is R x R (R ~ rank^2)
    alg = SimpleAlgebra.parse(literal)
    tracemalloc.start()
    try:
        value = trace_index(alg, alg.natural_weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"{alg}: trace_index peaked at {peak / 2**20:.2f} MiB"
    assert value == index_of_irrep(alg, alg.natural_weight)


class _UnreadRows:
    """Cartan rows that fail when indexed: a step up that reflects reads one."""

    def __getitem__(self, q):
        raise AssertionError(f"the step up read Cartan row {q}")


# (algebra, 0-based position of the 1) of minuscule weights: omega_1 and the middle
# fundamental weight of A, omega_1 of C, omega_1 and both spin weights of D, the spin weight of B
MINUSCULE = (
    [(f"A{n}", k) for n in (1, 8, 41, 100) for k in sorted({0, n // 2})]
    + [(f"C{n}", 0) for n in (2, 37, 100)]
    + [(f"D{n}", k) for n in (4, 9, 60, 100) for k in (0, n - 2, n - 1)]
    + [(f"B{n}", n - 1) for n in (2, 11, 100)]
)


@pytest.mark.parametrize("literal, k", MINUSCULE, ids=[f"{a}-w{k + 1}" for a, k in MINUSCULE])
def test_a_minuscule_weight_never_reflects(monkeypatch, cold_caches, literal, k):
    # lam is its only dominant weight, and every step up from it raises |nu + rho|^2 past
    # |lam + rho|^2: the norm bound answers each one, so no Cartan row is read
    alg = SimpleAlgebra.parse(literal)
    lam = fundamental_weight(alg, k)
    real = oracle._root_forms
    monkeypatch.setattr(oracle, "_root_forms", lambda alg: (*real(alg)[:-1], _UnreadRows()))
    assert trace_index(alg, lam, dim_bound=dimension(alg, lam)) == index_of_irrep(alg, lam)


def ref_dominant(alg, lam):
    """Reference: the dominant kernel with a list of pairings per weight, a
    reflection loop on every step up and the string sums in a second dict."""
    walk = weight_system(alg, lam)
    k, moves, heights, position, rho_norm, cartan = oracle._root_forms(alg)
    roots, terms = _roots(alg), [move[1:5] for move in moves]
    lengths = [length for *_, length in moves]
    top_norm = walk[lam][0]
    mult, sums, sizes = {}, {}, {}
    moment = 0
    for mu in sorted(walk, key=lambda mu: walk[mu][0], reverse=True):
        norm, eps = walk[mu]
        pairs = [k * (a * eps[i] + b * eps[j]) for a, i, b, j in terms]
        row = []
        for alpha, length, p in zip(roots, lengths, pairs):
            nu, beta = tuple(map(add, mu, alpha)), alpha
            while (low := min(nu)) < 0:
                j = nu.index(low)
                nu = tuple(x - low * a for x, a in zip(nu, cartan[j]))
                beta = tuple(x - beta[j] * a for x, a in zip(beta, cartan[j]))
            row.append(mult[nu][0] * (p + length) + sums[nu][position[beta]] if nu in mult else 0)
        sums[mu] = row
        m = 1
        if mu != lam:
            m, rest = divmod(2 * sum(row), top_norm - norm)
            assert rest == 0 and m > 0
        if (size := sizes.get(zeros := tuple(map(bool, mu)))) is None:
            kept = [h for h, q in zip(heights, pairs) if q]
            size = sizes[zeros] = prod(h + 1 for h in kept) // prod(kept)
        mult[mu] = m, size
        moment += m * size * (norm - sum(pairs) - rho_norm)
    assert sum(m * size for m, size in mult.values()) == dimension(alg, lam)
    return mult, moment


def test_dominant_kernel_matches_the_reference(cold_caches):
    for alg, lam in KERNEL_CASES:
        assert oracle._dominant(alg, lam) == ref_dominant(alg, lam), (alg, lam)


def ref_orbit(alg, mu):
    """Reference: the Weyl orbit of a dominant mu, filled by s_i nu = nu - nu_i alpha_i
    for each nu_i > 0."""
    cartan = _cartan(alg)
    orbit, seen = [mu], {mu}
    for nu in orbit:
        for x, alpha in zip(nu, cartan):
            if x > 0 and (w := tuple(y - x * a for y, a in zip(nu, alpha))) not in seen:
                seen.add(w)
                orbit.append(w)
    return orbit


def test_orbit_sizes_match_the_reflection_orbits():
    sizes = {}
    for alg, lam in KERNEL_CASES:
        for mu, (_, size) in oracle._dominant(alg, lam)[0].items():
            if (alg, mu) not in sizes:
                sizes[alg, mu] = len(ref_orbit(alg, mu))
            assert size == sizes[alg, mu], (alg, lam, mu)


@pytest.mark.parametrize("literal", "A1 A2 A3 A4 A5 B2 B3 B4 C2 C3 C4 D4 D5".split())
def test_regular_orbit_is_the_weyl_group(literal):
    alg = SimpleAlgebra.parse(literal)
    n, rho = alg.rank, (1,) * alg.rank
    order = {"A": factorial(n + 1), "B": 2**n * factorial(n), "C": 2**n * factorial(n),
             "D": 2 ** (n - 1) * factorial(n)}[alg.series]
    assert oracle._dominant(alg, rho)[0][rho] == (1, order)


def test_trace_is_the_sum_over_every_weight():
    # nu(h) for the long simple coroot h is the label nu_j of the long simple root:
    # all are long for A and D, only the last is short for B, only the last is long for C
    for alg, lam in KERNEL_CASES:
        j = alg.rank - 1 if alg.series == "C" else 0
        trace = sum(m * mu[j] ** 2 for mu, m in freudenthal(alg, lam).entries)
        assert trace % 2 == 0 and trace_index(alg, lam) == trace // 2, (alg, lam)


def step_up_landings(alg, lam):
    """Where the kernel's step up from each dominant mu by each positive root alpha
    lands: on a dominant weight, on no weight at all, or on a weight outside the
    chamber whose reflection into it takes alpha to a positive or a negative root."""
    walk, cartan, roots = weight_system(alg, lam), _cartan(alg), _roots(alg)
    found = set()
    for mu in walk:
        for alpha in roots:
            up = nu = tuple(map(add, mu, alpha))
            beta = alpha
            while (low := min(nu)) < 0:
                j = nu.index(low)
                nu = tuple(x - low * a for x, a in zip(nu, cartan[j]))
                beta = tuple(x - beta[j] * a for x, a in zip(beta, cartan[j]))
            if nu not in walk:
                found.add("no weight")
            elif nu == up:
                found.add("dominant")
            else:
                found.add("positive" if beta in roots else "negative")
    return found


def test_step_up_lands_on_a_dominant_weight_no_weight_or_a_positive_root():
    # the kernel reads w alpha among the positive roots only: -gamma would give
    # |mu|^2 = |w nu + gamma|^2 > |w nu|^2 = |mu + alpha|^2 > |mu|^2
    found = set().union(*(step_up_landings(alg, lam) for alg, lam in KERNEL_CASES))
    assert found == {"dominant", "no weight", "positive"}


@pytest.mark.parametrize(
    "literal,lam",
    [("A1", (299,)), ("B3", (0, 0, 7)), ("C3", (0, 0, 5)), ("C3", (11, 0, 0)), ("D4", (0, 0, 0, 5))],
)
def test_freudenthal_at_largest_labels(literal, lam):
    # all of lam on one simple root: the longest strings for its size
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
    cartan = _cartan(ms.algebra)
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
    assert list(weight_system(A2, (1, 1))) == [(1, 1), (0, 0)]  # the highest root and zero
    assert list(weight_system(A1, (5,))) == [(5,), (3,), (1,)]


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


def test_klimyk_matches_extraction():
    rng = random.Random(2201)
    for alg in SWEEP_ALGEBRAS:
        irreps = dominant_weights_up_to_dim(alg, 60)
        pairs = [(lam, mu) for lam in irreps for mu in irreps
                 if dimension(alg, lam) * dimension(alg, mu) <= 600]
        for lam, mu in rng.sample(pairs, min(25, len(pairs))):
            assert tensor_decompose(alg, lam, mu) == ref_extract(alg, lam, mu)


# -- each guard of a wrong kernel fires, and the CLI exits 1 ------------------


def _norms(new):
    """weight_system whose norms below the top are new(top norm, norm)."""
    def fake(real):
        def walk(alg, lam):
            out = real(alg, lam)
            top = out[lam][0]
            return {mu: (new(top, norm) if mu != lam else norm, pairs) for mu, (norm, pairs) in out.items()}
        return walk
    return fake


def _top_only(real):
    """freudenthal that keeps only the highest weight."""
    return lambda alg, lam, bound=None: WeightMultiset(alg, ((tuple(lam), 1),))


def _moment_off_by_one(real):
    """_dominant whose sum of m(nu) pairing(nu, nu) is one too large."""
    def kernel(alg, lam):
        mult, moment = real(alg, lam)
        return mult, moment + 1
    return kernel


def _negated(real):
    """freudenthal with every multiplicity negated."""
    return lambda alg, lam, bound: WeightMultiset(
        alg, tuple((mu, -m) for mu, m in real(alg, lam, bound).entries))


# guard -> (oracle name, fake built from the real one, oracle command over A1, message).
# Klimyk reflects each weight into the dominant chamber, so it has no guard
# against a non-dominant highest weight.
ORACLE_FAULTS = {
    "denominator": ("weight_system", _norms(lambda top, norm: top), ("trace", "2"),
                    "Freudenthal denominator vanished at (0,)"),
    "non-integral": ("weight_system", _norms(lambda top, norm: norm - 10**6), ("trace", "2"),
                     "non-integral multiplicity 32/1000032 at (0,)"),
    "sum": ("weyl_dimension", lambda real: lambda alg, lam: real(alg, lam) + 1, ("trace", "2"),
            "multiplicities of (2,) over A1 sum to 3, expected 4"),
    "trace-multiple": ("_dominant", _moment_off_by_one, ("trace", "1"),
                       "trace sum 9 for (1,) over A1 is not a multiple of 8"),
    "negative": ("freudenthal", _negated, ("tensor", "1", "1"),
                 "negative Klimyk coefficient -1 at (0,)"),
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
