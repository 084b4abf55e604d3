import random
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import fundamental_weight, run_cli
from ref_roots import ref_gram, ref_positive_roots, ref_root_forms
from lielimits import algebras, oracle
from lielimits.algebras import (
    SimpleAlgebra,
    dimension,
    dominant_weights_up_to_dim,
    dual_weight,
    eps2,
    weight_form,
    weyl_dimension,
)
from lielimits.errors import DimensionMismatchError, DomainError, InternalConsistencyError, ParseError

TEST_ALGEBRAS = [
    SimpleAlgebra("A", 1), SimpleAlgebra("A", 2), SimpleAlgebra("A", 3), SimpleAlgebra("A", 5),
    SimpleAlgebra("B", 2), SimpleAlgebra("B", 3), SimpleAlgebra("B", 4),
    SimpleAlgebra("C", 1), SimpleAlgebra("C", 2), SimpleAlgebra("C", 3),
    SimpleAlgebra("D", 4), SimpleAlgebra("D", 5),
]


def test_literal_round_trip():
    for alg in TEST_ALGEBRAS:
        assert SimpleAlgebra.parse(str(alg)) == alg


@pytest.mark.parametrize("literal", ["E6", "a3", "A", "3A", "Axx", "B-2", "A²"])
def test_bad_literals(literal):
    with pytest.raises(ParseError):
        SimpleAlgebra.parse(literal)


@pytest.mark.parametrize("series,rank", [("B", 1), ("D", 1), ("D", 2), ("D", 3), ("A", 0), ("C", 0)])
def test_rank_floors(series, rank):
    with pytest.raises(DomainError):
        SimpleAlgebra(series, rank)


def test_small_orthogonal_names_are_rejected():
    # so(6) must be entered as A3, so(4) is not simple, so(3) is A1.
    with pytest.raises(ParseError):
        SimpleAlgebra.parse("D3")


def test_weight_form_examples():
    assert weight_form(SimpleAlgebra("A", 1), (1,), (1,)) == Fraction(1, 2)
    assert weight_form(SimpleAlgebra("A", 2), (1, 0), (1, 0)) == Fraction(2, 3)


def test_weight_form_bilinear_symmetric():
    alg = SimpleAlgebra("B", 3)
    lam, mu = (1, 0, 2), (0, 1, 1)
    assert weight_form(alg, (0, 0, 0), mu) == 0
    assert weight_form(alg, lam, mu) == weight_form(alg, mu, lam)
    double = tuple(2 * x for x in lam)
    assert weight_form(alg, double, mu) == 2 * weight_form(alg, lam, mu)


def test_weight_form_dimension_error():
    with pytest.raises(DimensionMismatchError):
        weight_form(SimpleAlgebra("A", 2), (1,), (1, 0))


# -- reference form: Cartan inverse times the symmetrizer, in local Fractions --


def ref_cartan_matrix(alg):
    """The Cartan matrix a[i][j] = <alpha_i, alpha_j^vee> built by hand: the A chain, then the
    B, C and D patches at its end."""
    n = alg.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if alg.series == "B" and n >= 2:
        a[n - 2][n - 1] = -2      # last root short
        a[n - 1][n - 2] = -1
    elif alg.series == "C" and n >= 2:
        a[n - 2][n - 1] = -1      # last root long
        a[n - 1][n - 2] = -2
    elif alg.series == "D":
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    return tuple(tuple(row) for row in a)


@pytest.mark.parametrize("series, floor", [("A", 1), ("B", 2), ("C", 1), ("D", 4)])
def test_cartan_matrix_is_read_off_the_simple_roots(series, floor):
    for rank in range(floor, 41):
        alg = SimpleAlgebra(series, rank)
        assert oracle._root_forms(alg)[-1] == ref_cartan_matrix(alg), alg


def rho(alg):
    """Half the sum of the positive roots: the all-ones weight in labels."""
    return (1,) * alg.rank


def simple_roots(alg):
    """Simple roots in fundamental-weight coordinates: the rows of the Cartan matrix."""
    return [tuple(row) for row in ref_cartan_matrix(alg)]


def symmetrizer(alg):
    """d_i = (alpha_i, alpha_i) / 2 with long roots of squared length 2."""
    n = alg.rank
    if alg.series == "B":
        return [Fraction(1)] * (n - 1) + [Fraction(1, 2)]
    if alg.series == "C":
        return [Fraction(1, 2)] * (n - 1) + [Fraction(1)]
    return [Fraction(1)] * n


def _inverse(matrix):
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def reference_gram(alg):
    """(omega_i, omega_j) = (Cartan^-1)_ij * d_j."""
    inv = _inverse(ref_cartan_matrix(alg))
    d = symmetrizer(alg)
    return [[inv[i][j] * d[j] for j in range(alg.rank)] for i in range(alg.rank)]


def gram_form(alg, lam, mu):
    """lam^T * gram * mu against the reference Gram table."""
    gram = reference_gram(alg)
    return sum((li * gram[i][j] * mj for i, li in enumerate(lam) if li
                for j, mj in enumerate(mu) if mj), Fraction(0))


FORM_ALGEBRAS = TEST_ALGEBRAS + [
    SimpleAlgebra("A", 20), SimpleAlgebra("B", 12), SimpleAlgebra("C", 12), SimpleAlgebra("D", 12),
]


@pytest.mark.parametrize("alg", TEST_ALGEBRAS, ids=str)
def test_gram_recovers_root_pairings(alg):
    # (omega_i, alpha_j) = d_j * delta_ij exactly.
    d = symmetrizer(alg)
    for i in range(alg.rank):
        for j, alpha in enumerate(simple_roots(alg)):
            assert weight_form(alg, fundamental_weight(alg, i), alpha) == (d[j] if i == j else 0)


@pytest.mark.parametrize("alg", FORM_ALGEBRAS, ids=str)
def test_weight_gram_matches_reference(alg):
    # (omega_i, omega_j) by the integer pairing against Cartan^-1 * d
    omegas = [fundamental_weight(alg, i) for i in range(alg.rank)]
    assert [[weight_form(alg, a, b) for b in omegas] for a in omegas] == reference_gram(alg)


@pytest.mark.parametrize("alg", FORM_ALGEBRAS, ids=str)
def test_weight_form_matches_gram_table(alg):
    # two independent evaluation routes: the integer pairing vs the Gram table
    rng = random.Random(alg.rank * 10 + "ABCD".index(alg.series))
    probes = list(simple_roots(alg)) + [rho(alg), alg.natural_weight]
    probes.append(tuple(range(1, alg.rank + 1)))
    probes += [tuple(rng.randint(-3, 3) for _ in range(alg.rank)) for _ in range(6)]
    for lam in probes:
        for mu in probes:
            assert weight_form(alg, lam, mu) == gram_form(alg, lam, mu)


def reference_dimension(alg, lam):
    """Weyl's product over the positive roots, in Fractions on the reference form."""
    shifted = [x + 1 for x in lam]
    value = Fraction(1)
    for alpha in ref_positive_roots(alg):
        value *= gram_form(alg, shifted, alpha) / gram_form(alg, rho(alg), alpha)
    return value


@pytest.mark.parametrize("alg", FORM_ALGEBRAS, ids=str)
def test_dimension_matches_weyl_product(alg):
    rng = random.Random(alg.rank)
    weights = [tuple(rng.randint(0, 2) for _ in range(alg.rank)) for _ in range(4)]
    if alg.rank <= 5:
        weights += dominant_weights_up_to_dim(alg, 60)
    for lam in weights:
        assert dimension(alg, lam) == reference_dimension(alg, lam)


# -- reference Weyl dimension: every root factor of lam+rho over the whole rho product --


def ref_weyl_numerator(alg, doubled):
    """The product of every positive root's factor at the doubled epsilon coordinates."""
    c = doubled
    n = len(c)
    product = 1
    if alg.series == "A":
        for i in range(n):
            for j in range(i + 1, n):
                product *= c[i] - c[j]
        return product
    for i in range(n):
        for j in range(i + 1, n):
            product *= (c[i] - c[j]) * (c[i] + c[j])
    if alg.series in ("B", "C"):
        for x in c:
            product *= x
    return product


def ref_weyl_dimension(alg, lam):
    """The numerator of lam+rho over the rho product, as a Fraction: the doubling cancels."""
    return Fraction(ref_weyl_numerator(alg, eps2(alg, [x + 1 for x in lam])),
                    ref_weyl_numerator(alg, eps2(alg, rho(alg))))


def random_dominant(rng, rank, support):
    """A dominant weight with `support` nonzero labels: one or two give lam+rho few long runs,
    all of them many short ones."""
    lam = [0] * rank
    for i in rng.sample(range(rank), min(support, rank)):
        lam[i] = rng.randint(1, 3)
    return tuple(lam)


@pytest.mark.parametrize("alg", TEST_ALGEBRAS, ids=str)
def test_weyl_dimension_matches_the_full_products(alg):
    rng = random.Random(str(alg))
    for lam in dominant_weights_up_to_dim(alg, 60) + [random_dominant(rng, alg.rank, support)
                                                      for support in (1, 2, alg.rank)]:
        assert weyl_dimension(alg, lam) == ref_weyl_dimension(alg, lam) == reference_dimension(alg, lam)


@pytest.mark.parametrize("series, floor", [("A", 1), ("B", 2), ("C", 1), ("D", 4)])
def test_weyl_dimension_matches_the_full_products_up_to_rank_40(series, floor):
    # the Fraction product on the Gram table costs rank^4, so it checks one weight per rank up to 20
    rng = random.Random(f"weyl {series}")
    for rank in sorted(rng.sample(range(floor, 21), 3) + rng.sample(range(21, 40), 2)) + [40]:
        alg = SimpleAlgebra(series, rank)
        weights = [random_dominant(rng, rank, support) for support in (1, 2, rank) for _ in range(3)]
        for lam in weights:
            assert weyl_dimension(alg, lam) == ref_weyl_dimension(alg, lam), (alg, lam)
        if rank <= 20:
            assert weyl_dimension(alg, weights[0]) == reference_dimension(alg, weights[0]), alg


@pytest.mark.parametrize("series, floor", [("A", 1), ("B", 2), ("C", 1), ("D", 4)])
def test_weyl_dimension_stops_at_the_last_moved_row(series, floor):
    # a weight on the first labels moves only the first rows of factors
    rng = random.Random(f"first labels {series}")
    for rank in sorted(rng.sample(range(floor, 60), 8)) + [60]:
        alg = SimpleAlgebra(series, rank)
        for support in (1, 2, 3):
            lam = tuple(rng.randint(0, 3) if i < support else 0 for i in range(rank))
            assert weyl_dimension(alg, lam) == ref_weyl_dimension(alg, lam), (alg, lam)
    n = 1000
    assert weyl_dimension(SimpleAlgebra(series, n), (1,) + (0,) * (n - 1)) == {
        "A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}[series]


def adjoint_weight(alg):
    """The highest root: omega_1 + omega_n for A, 2 omega_1 for C, omega_2 for B and D (B2: 2 omega_2)."""
    n = alg.rank
    if alg.series == "A":
        return (2,) if n == 1 else (1,) + (0,) * (n - 2) + (1,)
    if alg.series == "C":
        return (2,) + (0,) * (n - 1)
    return (0, 2) if n == 2 else (0, 1) + (0,) * (n - 2)


@pytest.mark.parametrize("series, floor", [("A", 1), ("B", 2), ("C", 1), ("D", 4)])
def test_natural_and_adjoint_dimensions_up_to_rank_1000(series, floor):
    for rank in (floor, floor + 1, floor + 2, 100, 1000):
        alg = SimpleAlgebra(series, rank)
        assert dimension(alg, alg.natural_weight) == alg.natural_dim
        assert dimension(alg, adjoint_weight(alg)) == alg.dim


def _leading_minor_pivots(matrix):
    m = [list(row) for row in matrix]
    pivots = []
    for i in range(len(m)):
        if m[i][i] == 0:
            return None
        pivots.append(m[i][i])
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return pivots


@pytest.mark.parametrize("alg", TEST_ALGEBRAS, ids=str)
def test_gram_positive_definite(alg):
    pivots = _leading_minor_pivots(reference_gram(alg))
    assert pivots is not None and all(p > 0 for p in pivots)


@pytest.mark.parametrize("alg", TEST_ALGEBRAS, ids=str)
def test_simple_root_norms(alg):
    # Long simple roots have squared length 2; short ones in B/C have 1.
    for j, alpha in enumerate(simple_roots(alg)):
        norm = weight_form(alg, alpha, alpha)
        short = (alg.series == "B" and j == alg.rank - 1) or (
            alg.series == "C" and j < alg.rank - 1 and alg.rank > 1
        )
        assert norm == (1 if short else 2)


@pytest.mark.parametrize(
    "alg,count",
    [
        (SimpleAlgebra("A", 2), 3),
        (SimpleAlgebra("B", 2), 4),
        (SimpleAlgebra("A", 5), 15),
        (SimpleAlgebra("C", 3), 9),
        (SimpleAlgebra("B", 4), 16),
        (SimpleAlgebra("D", 4), 12),
    ],
    ids=str,
)
def test_positive_root_counts(alg, count):
    assert len(oracle._root_forms(alg)[1]) == count


@pytest.mark.parametrize("alg", TEST_ALGEBRAS, ids=str)
def test_rho_is_half_sum_of_positive_roots(alg):
    total = [0] * alg.rank
    for root, *_ in oracle._root_forms(alg)[1]:
        total = [a + b for a, b in zip(total, root)]
    assert all(x % 2 == 0 for x in total)
    assert tuple(x // 2 for x in total) == rho(alg)


@pytest.mark.parametrize("series, floor", [("A", 1), ("B", 2), ("C", 1), ("D", 4)])
def test_root_table_matches_the_reference_builders_up_to_rank_25(series, floor):
    # a root a e_i + b e_j pairs with an eps2 row x as k (a x_i + b x_j), checked at the
    # fundamental weights and at the roots; the reference Gram costs rank^5, so above
    # rank 12 it checks 10 seeded rows
    for rank in range(floor, 26):
        alg = SimpleAlgebra(series, rank)
        k = 2 * (rank + 1) if series == "A" else 2
        moves = oracle._root_forms(alg)[1]
        roots, terms = tuple(move[0] for move in moves), [move[1:5] for move in moves]
        assert roots == ref_positive_roots(alg), alg
        omegas = [eps2(alg, fundamental_weight(alg, i)) for i in range(rank)]
        forms = tuple(zip(*(closed_form(k, terms, x) for x in omegas)))
        assert forms == ref_root_forms(alg, roots), alg
        rows = range(len(roots)) if rank <= 12 else random.Random(str(alg)).sample(range(len(roots)), 10)
        gram = list(zip(*(closed_form(k, [terms[r] for r in rows], eps2(alg, beta)) for beta in roots)))
        assert gram == list(ref_gram(forms, [roots[r] for r in rows])), alg


def closed_form(k, terms, x):
    """k (a x_i + b x_j) per root a e_i + b e_j of terms: its pairing with the eps2 row x."""
    return tuple(k * (a * x[i] + b * x[j]) for a, i, b, j in terms)


@pytest.mark.parametrize("series, floor", [("A", 1), ("B", 2), ("C", 1), ("D", 4)])
def test_rho_row_is_eps2_of_rho(series, floor):
    for rank in range(floor, 301):
        alg = SimpleAlgebra(series, rank)
        assert list(algebras._rho_row(alg)) == eps2(alg, rho(alg)), alg


def test_dimension_examples():
    assert dimension(SimpleAlgebra("A", 1), (1,)) == 2
    assert dimension(SimpleAlgebra("A", 2), (1, 1)) == 8
    assert dimension(SimpleAlgebra("B", 2), (0, 1)) == 4


@pytest.mark.parametrize("alg", TEST_ALGEBRAS, ids=str)
def test_dimension_of_trivial_and_natural(alg):
    assert dimension(alg, (0,) * alg.rank) == 1
    expected = {"A": alg.rank + 1, "B": 2 * alg.rank + 1, "C": 2 * alg.rank, "D": 2 * alg.rank}
    assert dimension(alg, alg.natural_weight) == expected[alg.series]
    assert alg.natural_dim == expected[alg.series]


def test_dimension_rejects_non_dominant():
    with pytest.raises(DomainError):
        dimension(SimpleAlgebra("A", 2), (1, -1))


def test_dual_weight_cases():
    assert dual_weight(SimpleAlgebra("A", 2), (1, 0)) == (0, 1)
    assert dual_weight(SimpleAlgebra("C", 3), (1, 0, 0)) == (1, 0, 0)
    assert dual_weight(SimpleAlgebra("B", 3), (0, 1, 2)) == (0, 1, 2)
    assert dual_weight(SimpleAlgebra("D", 4), (0, 0, 1, 0)) == (0, 0, 1, 0)
    assert dual_weight(SimpleAlgebra("D", 5), (0, 0, 0, 1, 0)) == (0, 0, 0, 0, 1)


def test_dual_weight_is_involution():
    for alg in TEST_ALGEBRAS:
        for lam in dominant_weights_up_to_dim(alg, 100):
            assert dual_weight(alg, dual_weight(alg, lam)) == lam
            assert dimension(alg, dual_weight(alg, lam)) == dimension(alg, lam)


def test_dominant_weight_enumeration_is_exhaustive():
    alg = SimpleAlgebra("A", 2)
    bound = 50
    enumerated = set(dominant_weights_up_to_dim(alg, bound))
    brute = {
        (a, b)
        for a in range(bound)
        for b in range(bound)
        if dimension(alg, (a, b)) <= bound
    }
    assert enumerated == brute
    assert dominant_weights_up_to_dim(SimpleAlgebra("A", 1), 5) == [(0,), (1,), (2,), (3,), (4,)]
    assert dominant_weights_up_to_dim(alg, 0) == []


def test_weight_enumeration_refuses_a_dimension_that_does_not_grow(monkeypatch, cold_caches):
    calls = []

    def flat(alg, lam):  # a wrong kernel that gives every weight dimension 1
        calls.append(lam)
        assert len(calls) < 1000, "the enumeration ran on past its label bound"
        return 1

    monkeypatch.setattr(algebras, "weyl_dimension", flat)
    with pytest.raises(InternalConsistencyError) as fault:
        dominant_weights_up_to_dim(SimpleAlgebra("A", 2), 5)
    assert str(fault.value) == "dimension 1 of (0, 5) over A2 is at most 5"


# guard -> (module, name in it, wrong value of it, library call, command, message)
ALGEBRA_FAULTS = {
    "root-count": (oracle, "sorted", lambda roots: sorted(roots)[1:],
                   lambda: oracle._root_forms(SimpleAlgebra("A", 2)), ("oracle", "trace", "A2", "1,0"),
                   "positive root count for A2: got 2, expected 3"),
    "weyl-dimension": (algebras, "_rho_row", lambda alg: eps2(alg, (1,) * (alg.rank - 1) + (2,)),
                       lambda: dimension(SimpleAlgebra("A", 2), (1, 1)), ("index", "A2", "1,1"),
                       "Weyl dimension of (1, 1) over A2 is not a positive integer"),
}


@pytest.mark.parametrize("guard", sorted(ALGEBRA_FAULTS))
def test_algebra_guards_fire_on_a_wrong_kernel(monkeypatch, cold_caches, guard):
    module, name, fake, call, argv, message = ALGEBRA_FAULTS[guard]
    monkeypatch.setattr(module, name, fake, raising=False)  # `sorted` is a builtin there
    with pytest.raises(DomainError) as fault:
        call()
    assert str(fault.value) == message
    assert run_cli(*argv) == (1, "", f"error: {message}\n")
