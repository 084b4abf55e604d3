"""Independent verification engine.

Weight multiplicities come from the Freudenthal recursion over the
saturated weight system, the trace-form index evaluates Tr pi(h)^2 / 2 on
a long simple coroot h, and small tensor products are decomposed by
iterated highest-weight extraction.  The weight system is a walk by
mu - alpha_i and s_i mu that carries, for each weight, its depth, its
norm |mu + rho|^2, its pairings with the positive roots and an integer
code; all four are linear in mu, so each move updates them by a fixed
step.  The recursion keeps a running string sum per positive root and
finds the weight above by adding a root's code, so neither walks a whole
string twice nor recomputes a form.  None of these touch the closed-form
index formula, so agreement with it is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .algebras import (
    SimpleAlgebra,
    Weight,
    cartan_matrix,
    check_dominant,
    dimension,
    eps2,
    fundamental_weight,
    pairing,
    positive_roots,
    weyl_dimension,
)
from .errors import InternalConsistencyError, ResourceBoundError
from .index import ModuleDecomposition, SemisimpleAlgebra, Summand

DEFAULT_DIM_BOUND = 5000


@dataclass(frozen=True)
class WeightMultiset:
    """Exact weight multiplicities of one irreducible module."""

    algebra: SimpleAlgebra
    entries: tuple[tuple[Weight, int], ...]

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)


@lru_cache(maxsize=None)
def _coweights(alg: SimpleAlgebra) -> tuple[tuple[list[int], int], ...]:
    """Fundamental coweights 2 omega_i / (alpha_i, alpha_i), one per simple
    root, as pairs (eps2(omega_i), pairing(alpha_i, alpha_i))."""
    out = []
    for i, alpha in enumerate(cartan_matrix(alg)):
        a = eps2(alg, alpha)
        out.append((eps2(alg, fundamental_weight(alg, i)), pairing(alg, a, a)))
    return tuple(out)


def _depth(alg: SimpleAlgebra, top: Weight, mu: Weight) -> int:
    """Height of beta = top - mu: the sum of c_i = 2(beta, omega_i)/(alpha_i, alpha_i)."""
    beta = eps2(alg, [a - b for a, b in zip(top, mu)])
    total = 0
    for omega, norm in _coweights(alg):
        c, rest = divmod(2 * pairing(alg, beta, omega), norm)
        if rest or c < 0:
            raise InternalConsistencyError(f"{mu} is not below {top} in the root lattice")
        total += c
    return total


def _radix(alg: SimpleAlgebra, lam: Weight) -> int:
    """Radix of the weight code sum_j mu_j radix^j over the weights of lam.

    Every weight mu has |mu| <= |lam|, so mu_j^2 <= 4 |lam|^2 / |alpha_j|^2
    and |mu_j| <= bound.  Root labels lie in [-2, 2], so with radix
    2 bound + 7 the labels of mu + alpha stay balanced digits: the code is
    injective on weights and code(mu + alpha) = code(mu) + code(alpha).
    """
    a = eps2(alg, lam)
    norm = pairing(alg, a, a)
    return 2 * max(isqrt(4 * norm // step) for _, step in _coweights(alg)) + 7


def _code(weight, radix: int) -> int:
    return sum(x * radix**j for j, x in enumerate(weight))


def weight_system(alg: SimpleAlgebra, lam) -> dict[int, tuple[Weight, int, int, tuple[int, ...]]]:
    """Weights of the irreducible with highest weight lam, by a walk of
    mu - alpha_i and s_i mu = mu - mu_i alpha_i for each i with mu_i > 0.

    Maps code(mu) at _radix(alg, lam) to (mu, depth, norm, pairs): the
    height of lam - mu, pairing(mu + rho, mu + rho) and the tuple of
    pairing(mu, alpha) over positive_roots(alg).  All four are linear in
    mu, so the walk carries them: a move by k alpha_i adds k to the depth
    and takes k code(alpha_i) off the code and k pairing(alpha_i, alpha)
    off each root pairing, and both moves take mu_i pairing(alpha_i,
    alpha_i) off the norm.
    """
    lam = check_dominant(alg, lam)
    radix = _radix(alg, lam)
    # pairing(mu, alpha) as a linear functional on the labels of mu
    forms = [
        [pairing(alg, omega, eps2(alg, alpha)) for omega, _ in _coweights(alg)]
        for alpha in positive_roots(alg)
    ]

    def root_pairings(mu):
        return tuple(sum(c * x for c, x in zip(form, mu)) for form in forms)

    moves = [
        (row, step, root_pairings(row), _code(row, radix))
        for row, (_, step) in zip(cartan_matrix(alg), _coweights(alg))
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


def freudenthal(alg: SimpleAlgebra, lam, dim_bound: int = DEFAULT_DIM_BOUND) -> WeightMultiset:
    """Exact weight multiplicities via the Freudenthal recursion."""
    lam = check_dominant(alg, lam)
    dim = dimension(alg, lam)
    if dim > dim_bound:
        raise ResourceBoundError(
            f"dimension {dim} of {lam} over {alg} exceeds the configured bound {dim_bound}"
        )
    return _freudenthal(alg, lam)


@lru_cache(maxsize=None)
def _freudenthal(alg: SimpleAlgebra, lam: Weight) -> WeightMultiset:
    """Memoized kernel of `freudenthal` for a weight it accepted.

    Both sides of the recursion are integer pairings at the scale of
    algebras.form_scale, so each multiplicity is one exact division.  The
    weights run in depth order, reading the norm |mu + rho|^2 and the root
    pairings (mu, alpha) that weight_system carried.  Each positive root
    keeps the running string sum T(mu) = m(mu + alpha) (mu + alpha, alpha)
    + T(mu + alpha), stored under code(mu + alpha) = code(mu) + code(alpha).
    """
    walk = weight_system(alg, lam)
    radix = _radix(alg, lam)
    shifts = [_code(alpha, radix) for alpha in positive_roots(alg)]
    top_norm = walk[_code(lam, radix)][2]
    weights, mult = [], []
    # sums[r][code(mu)] = T(mu - alpha_r); a string's top finds no entry above it
    sums = [{} for _ in shifts]
    by_depth = sorted(walk.items(), key=lambda item: item[1][1])
    for i, (code, (mu, _, norm, pairs)) in enumerate(by_depth):
        above = [s.get(code + shift, 0) for shift, s in zip(shifts, sums)]
        m = 1
        if i:
            denom = top_norm - norm
            if denom == 0:
                raise InternalConsistencyError(f"Freudenthal denominator vanished at {mu}")
            acc = 2 * sum(above)
            m, rest = divmod(acc, denom)
            if rest or m <= 0:
                raise InternalConsistencyError(f"non-integral multiplicity {acc}/{denom} at {mu}")
        for t, p, s in zip(above, pairs, sums):
            s[code] = t + m * p
        weights.append(mu)
        mult.append(m)
    dim = weyl_dimension(alg, lam)
    if sum(mult) != dim:
        raise InternalConsistencyError(
            f"multiplicities of {lam} over {alg} sum to {sum(mult)}, expected {dim}"
        )
    return WeightMultiset(alg, tuple(sorted(zip(weights, mult))))


freudenthal.cache_info = _freudenthal.cache_info
freudenthal.cache_clear = _freudenthal.cache_clear


def _long_simple_root_position(alg: SimpleAlgebra) -> int:
    # All simple roots are long for A and D; for B only the last is short;
    # for C only the last is long.
    return alg.rank - 1 if alg.series == "C" else 0


def trace_index(alg: SimpleAlgebra, lam, dim_bound: int = DEFAULT_DIM_BOUND) -> int:
    """Index as Tr pi(h)^2 / <h, h> for a long simple coroot h (<h, h> = 2).

    Evaluating a weight on that coroot reads off a single Dynkin label, so
    the trace is a plain sum over the Freudenthal multiset.
    """
    ms = freudenthal(alg, lam, dim_bound)
    j = _long_simple_root_position(alg)
    trace = sum(m * mu[j] * mu[j] for mu, m in ms.entries)
    if trace % 2 != 0:
        raise InternalConsistencyError(f"odd trace {trace} for {lam} over {alg}")
    return trace // 2


def tensor_decompose(alg: SimpleAlgebra, lam, mu, dim_bound: int = DEFAULT_DIM_BOUND):
    """Decompose the tensor product of two irreducibles into a ModuleDecomposition.

    Works by convolving the two weight multisets and extracting summands in
    one sweep by depth; dimension is checked to be preserved.
    """
    lam = check_dominant(alg, lam)
    mu = check_dominant(alg, mu)
    product_dim = dimension(alg, lam) * dimension(alg, mu)
    if product_dim > dim_bound:
        raise ResourceBoundError(
            f"product dimension {product_dim} exceeds the configured bound {dim_bound}"
        )
    left = freudenthal(alg, lam, dim_bound)
    right = freudenthal(alg, mu, dim_bound)
    product: dict[Weight, int] = {}
    for wl, ml in left.entries:
        for wr, mr in right.entries:
            key = tuple(a + b for a, b in zip(wl, wr))
            product[key] = product.get(key, 0) + ml * mr

    top = tuple(a + b for a, b in zip(lam, mu))
    found = []
    remaining = product_dim
    # Extracting nu lowers only weights strictly below it, so one sweep in
    # (depth, weight) order meets each summand's highest weight in turn.
    for nu in sorted(product, key=lambda w: (_depth(alg, top, w), w)):
        count = product[nu]
        if count == 0:
            continue
        if any(x < 0 for x in nu):
            raise InternalConsistencyError(f"extracted a non-dominant highest weight {nu}")
        for w, m in freudenthal(alg, nu, dim_bound).entries:
            new = product.get(w, 0) - count * m
            if new < 0:
                raise InternalConsistencyError(f"negative multiplicity at {w} while extracting {nu}")
            product[w] = new
        found.append(Summand((nu,), count))
        remaining -= count * dimension(alg, nu)
    if remaining != 0 or any(m != 0 for m in product.values()):
        raise InternalConsistencyError("tensor decomposition did not exhaust the product")
    return ModuleDecomposition._trusted(SemisimpleAlgebra((alg,)), found)
