import random
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import run_cli
from lielimits import algebras
from lielimits.algebras import (
    SimpleAlgebra,
    _rho_product,
    cartan_matrix,
    dimension,
    dominant_weights_up_to_dim,
    dual_weight,
    fundamental_weight,
    positive_roots,
    rho,
    weight_form,
)
from lielimits.errors import DimensionMismatchError, DomainError, ParseError

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


def simple_roots(alg):
    """Simple roots in fundamental-weight coordinates: the rows of the Cartan matrix."""
    return [tuple(row) for row in cartan_matrix(alg)]


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
    inv = _inverse(cartan_matrix(alg))
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
    for alpha in positive_roots(alg):
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
    assert len(positive_roots(alg)) == count


@pytest.mark.parametrize("alg", TEST_ALGEBRAS, ids=str)
def test_rho_is_half_sum_of_positive_roots(alg):
    total = [0] * alg.rank
    for root in positive_roots(alg):
        total = [a + b for a, b in zip(total, root)]
    assert all(x % 2 == 0 for x in total)
    assert tuple(x // 2 for x in total) == rho(alg)


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


# guard -> (algebras name, wrong value of it, library call, command, message)
ALGEBRA_FAULTS = {
    "root-count": ("sorted", lambda roots: sorted(roots)[1:],
                   lambda: positive_roots(SimpleAlgebra("A", 2)), ("oracle", "trace", "A2", "1,0"),
                   "positive root count for A2: got 2, expected 3"),
    "weyl-dimension": ("_rho_product", lambda alg: -_rho_product(alg),
                       lambda: dimension(SimpleAlgebra("A", 2), (1, 1)), ("index", "A2", "1,1"),
                       "Weyl dimension of (1, 1) over A2 is not a positive integer"),
}


@pytest.mark.parametrize("guard", sorted(ALGEBRA_FAULTS))
def test_algebra_guards_fire_on_a_wrong_kernel(monkeypatch, cold_caches, guard):
    name, fake, call, argv, message = ALGEBRA_FAULTS[guard]
    monkeypatch.setattr(algebras, name, fake, raising=False)  # `sorted` is a builtin there
    with pytest.raises(DomainError) as fault:
        call()
    assert str(fault.value) == message
    assert run_cli(*argv) == (1, "", f"error: {message}\n")
