"""Independent verification engine.

Weight multiplicities come from the Freudenthal recursion, the trace-form
index evaluates Tr pi(h)^2 / 2 on a long simple coroot h, and small tensor
products are decomposed by the Brauer-Klimyk formula.  Multiplicities are
constant on Weyl orbits, so the recursion runs on the dominant weights
alone: a walk by mu - alpha over the positive roots, which carries each
weight's norm |mu + rho|^2 and its pairings with the positive roots, both
linear in mu.  Each orbit is then filled by simple reflections.  None of
these touch the closed-form index formula, so agreement with it is
evidence rather than tautology.
"""

from __future__ import annotations

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
from .index import ModuleDecomposition, SemisimpleAlgebra, Summand
from .record import Record

DEFAULT_DIM_BOUND = 5000


class WeightMultiset(Record):
    """Exact weight multiplicities of one irreducible module."""

    algebra: SimpleAlgebra
    entries: tuple[tuple[Weight, int], ...]

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)


@lru_cache(maxsize=None)
def _root_forms(alg: SimpleAlgebra) -> tuple[tuple[int, ...], ...]:
    """Per positive root alpha, pairing(omega_i, alpha) over the fundamental
    weights: mu -> pairing(mu, alpha) as a linear form on the labels of mu."""
    omegas = [eps2(alg, fundamental_weight(alg, i)) for i in range(alg.rank)]
    return tuple(tuple(pairing(alg, w, eps2(alg, alpha)) for w in omegas)
                 for alpha in positive_roots(alg))


def _pairings(forms, mu) -> tuple[int, ...]:
    return tuple(sum(c * x for c, x in zip(form, mu)) for form in forms)


def weight_system(alg: SimpleAlgebra, lam) -> dict[Weight, tuple[int, tuple[int, ...]]]:
    """Dominant weights of the irreducible with highest weight lam.

    Maps mu to (norm, pairs): pairing(mu + rho, mu + rho) and the tuple of
    pairing(mu, alpha) over positive_roots(alg).  Every dominant weight
    below lam is reached from lam by steps mu - alpha, alpha a positive
    root, through dominant weights (Stembridge, "The partial order of
    dominant weights", Adv. Math. 136, 1998), and both values are linear
    in mu: a step takes 2 (mu, alpha) + 2 (rho, alpha) - (alpha, alpha) off
    the norm and (alpha, beta) off each pairing (mu, beta).
    """
    lam = check_dominant(alg, lam)
    forms = _root_forms(alg)
    moves = []
    for r, (alpha, form) in enumerate(zip(positive_roots(alg), forms)):
        steps = _pairings(forms, alpha)
        moves.append((alpha, steps, 2 * sum(form) - steps[r]))
    shifted = eps2(alg, [x + 1 for x in lam])
    walk = {lam: (pairing(alg, shifted, shifted), _pairings(forms, lam))}
    todo = [lam]
    for mu in todo:
        norm, pairs = walk[mu]
        for (alpha, steps, cost), p in zip(moves, pairs):
            down = tuple(x - a for x, a in zip(mu, alpha))
            if min(down) >= 0 and down not in walk:
                walk[down] = (norm - 2 * p - cost, tuple(q - s for q, s in zip(pairs, steps)))
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

    The recursion runs on the dominant weights of weight_system in
    decreasing norm |mu + rho|^2, which is its denominator anyway: a
    dominant weight above another has the larger norm, so every weight
    mu + k alpha above mu lies in an orbit already filled.  Both sides are
    integer pairings at the scale of algebras.form_scale, so each
    multiplicity is one exact division.  The string sum T(mu) = sum over
    k >= 1 of m(mu + k alpha) (mu + k alpha, alpha) is kept per root at
    each dominant weight, so a climb stops at the first dominant weight of
    its string.
    """
    walk = weight_system(alg, lam)
    roots = positive_roots(alg)
    lengths = [sum(c * a for c, a in zip(form, alpha)) for form, alpha in zip(_root_forms(alg), roots)]
    cartan, top_norm = cartan_matrix(alg), walk[lam][0]
    mult: dict[Weight, int] = {}  # every weight of the orbits filled so far
    sums: dict[Weight, list[int]] = {}  # dominant mu -> T(mu) per positive root
    total = 0
    for i, mu in enumerate(sorted(walk, key=lambda mu: walk[mu][0], reverse=True)):
        norm, pairs = walk[mu]
        row = []
        for r, (alpha, length, p) in enumerate(zip(roots, lengths, pairs)):
            t, nu = 0, mu
            while (nu := tuple(x + a for x, a in zip(nu, alpha))) in mult:
                p += length
                t += mult[nu] * p
                if nu in sums:
                    t += sums[nu][r]
                    break
            row.append(t)
        sums[mu] = row
        m = 1
        if i:
            denom = top_norm - norm
            if denom == 0:
                raise InternalConsistencyError(f"Freudenthal denominator vanished at {mu}")
            acc = 2 * sum(row)
            m, rest = divmod(acc, denom)
            if rest or m <= 0:
                raise InternalConsistencyError(f"non-integral multiplicity {acc}/{denom} at {mu}")
        # the orbit of mu, by s_i nu = nu - nu_i alpha_i for each nu_i > 0
        mult[mu] = m
        orbit = [mu]
        for nu in orbit:
            for x, alpha in zip(nu, cartan):
                if x > 0 and (w := tuple(y - x * a for y, a in zip(nu, alpha))) not in mult:
                    mult[w] = m
                    orbit.append(w)
        total += m * len(orbit)
    dim = weyl_dimension(alg, lam)
    if total != dim:
        raise InternalConsistencyError(
            f"multiplicities of {lam} over {alg} sum to {total}, expected {dim}"
        )
    return WeightMultiset(alg, tuple(sorted(mult.items())))


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

    Brauer-Klimyk: V(lam) x V(mu) is the sum over the weights nu of the
    smaller factor V(mu) of m(nu) sign(w) V(w(lam + nu + rho) - rho), where
    w takes lam + nu + rho into the dominant chamber; a weight on a wall
    adds nothing.  The dimension is checked to be preserved.
    """
    lam = check_dominant(alg, lam)
    mu = check_dominant(alg, mu)
    dims = dimension(alg, lam), dimension(alg, mu)
    product_dim = dims[0] * dims[1]
    if product_dim > dim_bound:
        raise ResourceBoundError(
            f"product dimension {product_dim} exceeds the configured bound {dim_bound}"
        )
    if dims[1] > dims[0]:
        lam, mu = mu, lam
    cartan, coeff = cartan_matrix(alg), {}
    for nu, m in freudenthal(alg, mu, dim_bound).entries:
        g = [a + b + 1 for a, b in zip(lam, nu)]
        while (low := min(g)) < 0:
            g = [x - low * a for x, a in zip(g, cartan[g.index(low)])]
            m = -m
        if low:
            top = tuple(x - 1 for x in g)
            coeff[top] = coeff.get(top, 0) + m
    found = []
    for nu, c in sorted(coeff.items()):
        if c < 0:
            raise InternalConsistencyError(f"negative Klimyk coefficient {c} at {nu}")
        if c:
            found.append(Summand((nu,), c))
            product_dim -= c * dimension(alg, nu)
    if product_dim != 0:
        raise InternalConsistencyError("tensor decomposition did not exhaust the product")
    return ModuleDecomposition._trusted(SemisimpleAlgebra((alg,)), found)
