"""Independent verification engine.

Weight multiplicities come from the Freudenthal recursion over the
saturated weight system, the trace-form index evaluates Tr pi(h)^2 / 2 on
a long simple coroot h, and small tensor products are decomposed by
iterated highest-weight extraction.  The weight system is a walk by
mu - alpha_i and s_i mu that carries each weight's depth, and the
recursion keeps a running string sum per positive root, so neither walks
a whole string twice.  None of these touch the closed-form index formula,
so agreement with it is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

DEFAULT_DIM_BOUND = 5000


@dataclass(frozen=True)
class WeightMultiset:
    """Exact weight multiplicities of one irreducible module."""

    algebra: SimpleAlgebra
    entries: tuple[tuple[Weight, int], ...]

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.entries)

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def check_reflection_symmetry(self) -> bool:
        """Invariance under every simple reflection s_i(mu) = mu - mu_i alpha_i."""
        table = self.as_dict()
        cartan = cartan_matrix(self.algebra)
        for mu, m in self.entries:
            for i in range(self.algebra.rank):
                refl = tuple(x - mu[i] * a for x, a in zip(mu, cartan[i]))
                if table.get(refl, 0) != m:
                    return False
        return True


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


def weight_system(alg: SimpleAlgebra, lam) -> dict[Weight, int]:
    """Weights of the irreducible with highest weight lam, mapped to their
    depth (the height of lam - mu), by a walk of mu - alpha_i and
    s_i mu = mu - mu_i alpha_i for each i with mu_i > 0."""
    lam = check_dominant(alg, lam)
    cartan = cartan_matrix(alg)
    depth = {lam: 0}
    todo = [lam]
    for mu in todo:
        for i, row in enumerate(cartan):
            if mu[i] > 0:
                for k in {1, mu[i]}:
                    down = tuple(x - k * a for x, a in zip(mu, row))
                    if down not in depth:
                        depth[down] = depth[mu] + k
                        todo.append(down)
    return depth


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
    weights run in depth order over a successor table (weight id -> weight
    id per positive root); each root keeps the running string sum
    T(mu) = m(mu + alpha) (mu + alpha, alpha) + T(mu + alpha).
    """
    depth = weight_system(alg, lam)
    weights = sorted(depth, key=lambda mu: (depth[mu], mu))
    index = {mu: i for i, mu in enumerate(weights)}

    roots = positive_roots(alg)
    # (mu, alpha) as a linear functional on the labels of mu
    forms = []
    for alpha in roots:
        a = eps2(alg, alpha)
        forms.append([pairing(alg, omega, a) for omega, _ in _coweights(alg)])
    successors = [
        [index.get(tuple(x + a for x, a in zip(mu, alpha)), -1) for mu in weights]
        for alpha in roots
    ]

    def norm_shifted(mu):
        shifted = eps2(alg, [x + 1 for x in mu])
        return pairing(alg, shifted, shifted)

    top_norm = norm_shifted(lam)
    mult = [1] * len(weights)
    # sums[r][i] = T(mu_i - alpha); sums[r][-1] = 0 is the sum above a string's top
    sums = [[0] * (len(weights) + 1) for _ in roots]
    for i, mu in enumerate(weights):
        above = [s[succ[i]] for succ, s in zip(successors, sums)]
        if i:
            denom = top_norm - norm_shifted(mu)
            if denom == 0:
                raise InternalConsistencyError(f"Freudenthal denominator vanished at {mu}")
            acc = 2 * sum(above)
            value, rest = divmod(acc, denom)
            if rest or value <= 0:
                raise InternalConsistencyError(f"non-integral multiplicity {acc}/{denom} at {mu}")
            mult[i] = value
        for ga, t, s in zip(forms, above, sums):
            s[i] = t + mult[i] * sum(c * x for c, x in zip(ga, mu))
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
    from .index import ModuleDecomposition, SemisimpleAlgebra

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
        found.append(((nu,), count))
        remaining -= count * dimension(alg, nu)
    if remaining != 0 or any(m != 0 for m in product.values()):
        raise InternalConsistencyError("tensor decomposition did not exhaust the product")
    return ModuleDecomposition._trusted(SemisimpleAlgebra((alg,)), found)
