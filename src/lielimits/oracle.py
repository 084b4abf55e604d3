"""Independent verification engine.

Weight multiplicities come from the Freudenthal recursion, the trace-form
index evaluates Tr pi(h)^2 / 2 on a long simple coroot h, and small tensor
products are decomposed by the Brauer-Klimyk formula.  Multiplicities are
constant on Weyl orbits, so the recursion runs on the dominant weights
alone: a walk by mu - alpha over the positive roots carries each weight's
norm |mu + rho|^2 and its pairings with the positive roots, both linear in
mu, and each string sum is one step up, read at a dominant weight.  The
trace is a sum over orbits, from their sizes, and only the full multiset
fills each orbit.  None of these touch the closed-form index formula, so
agreement with it is evidence rather than tautology.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import add, sub

from .algebras import (
    SimpleAlgebra,
    Weight,
    cartan_matrix,
    check_dominant,
    dimension,
    eps2,
    form_scale,
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
            down = tuple(map(sub, mu, alpha))
            if min(down) >= 0 and down not in walk:
                walk[down] = (norm - 2 * p - cost, tuple(map(sub, pairs, steps)))
                todo.append(down)
    return walk


def _checked(alg: SimpleAlgebra, lam, dim_bound: int) -> Weight:
    """lam, once check_dominant accepts it and its dimension is within dim_bound."""
    if (dim := dimension(alg, lam := check_dominant(alg, lam))) > dim_bound:
        raise ResourceBoundError(
            f"dimension {dim} of {lam} over {alg} exceeds the configured bound {dim_bound}"
        )
    return lam


@lru_cache(maxsize=None)
def _dominant(alg: SimpleAlgebra, lam: Weight) -> tuple[dict[Weight, tuple[int, int]], int]:
    """Each dominant weight mu of lam with (m(mu), |W mu|), and the sum over
    all weights nu of m(nu) pairing(nu, nu).

    The recursion runs in decreasing norm |mu + rho|^2, its denominator, and
    each multiplicity is one exact division of integer pairings.  Per
    positive root alpha it keeps T_alpha(mu) = m(nu) (nu, alpha) + T_alpha(nu)
    at nu = mu + alpha.  A w that takes nu into the chamber gives
    m(nu) = m(w nu) and T_alpha(nu) = T_{w alpha}(w nu); w nu has the larger
    norm, and w alpha is a positive root: were it -gamma, then
    |mu|^2 = |w nu + gamma|^2 > |w nu|^2 = |mu + alpha|^2 > |mu|^2.

    The orbit of mu has |W| / |W_mu| weights.  |W| is the product of
    (h + 1) / h over the positive roots, h = <rho, alpha^vee> the height of
    the coroot (Macdonald, Math. Ann. 199, 1972), and its stabilizer W_mu
    takes the product over the roots with (mu, alpha) = 0.  Each weight nu of
    the orbit has pairing(nu, nu) = norm - sum(pairs) - pairing(rho, rho).
    """
    walk = weight_system(alg, lam)
    roots, forms, cartan = positive_roots(alg), _root_forms(alg), cartan_matrix(alg)
    lengths = [sum(c * a for c, a in zip(form, alpha)) for form, alpha in zip(forms, roots)]
    heights = [2 * sum(form) // length for form, length in zip(forms, lengths)]
    position = {alpha: r for r, alpha in enumerate(roots)}
    top_norm, rho_norm = walk[lam][0], sum(map(sum, forms)) // 2
    mult, sums, sizes = {}, {}, {}  # (m, |W mu|), T_alpha(mu) per positive root, |W mu| by zero labels
    total = moment = 0
    for i, mu in enumerate(sorted(walk, key=lambda mu: walk[mu][0], reverse=True)):
        norm, pairs = walk[mu]
        row = []
        for alpha, length, p in zip(roots, lengths, pairs):
            nu, beta = tuple(map(add, mu, alpha)), alpha
            while (low := min(nu)) < 0:  # s_j nu = nu - nu_j alpha_j, and so for beta
                j = nu.index(low)
                nu = tuple(x - low * a for x, a in zip(nu, cartan[j]))
                beta = tuple(x - beta[j] * a for x, a in zip(beta, cartan[j]))
            row.append(mult[nu][0] * (p + length) + sums[nu][position[beta]] if nu in mult else 0)
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
        if (size := sizes.get(zeros := tuple(map(bool, mu)))) is None:
            kept = [h for h, q in zip(heights, pairs) if q]
            size = sizes[zeros] = prod(h + 1 for h in kept) // prod(kept)
        mult[mu] = m, size
        total += m * size
        moment += m * size * (norm - sum(pairs) - rho_norm)
    dim = weyl_dimension(alg, lam)
    if total != dim:
        raise InternalConsistencyError(
            f"multiplicities of {lam} over {alg} sum to {total}, expected {dim}"
        )
    return mult, moment


def freudenthal(alg: SimpleAlgebra, lam, dim_bound: int = DEFAULT_DIM_BOUND) -> WeightMultiset:
    """Exact weight multiplicities via the Freudenthal recursion."""
    return _freudenthal(alg, _checked(alg, lam, dim_bound))


@lru_cache(maxsize=None)
def _freudenthal(alg: SimpleAlgebra, lam: Weight) -> WeightMultiset:
    """Memoized kernel of `freudenthal` for a weight it accepted: the orbit of
    each dominant weight of _dominant, filled by s_i nu = nu - nu_i alpha_i
    for each nu_i > 0."""
    cartan, mult = cartan_matrix(alg), {}
    for mu, (m, _) in _dominant(alg, lam)[0].items():
        mult[mu] = m
        orbit = [mu]
        for nu in orbit:
            for x, alpha in zip(nu, cartan):
                if x > 0 and (w := tuple(y - x * a for y, a in zip(nu, alpha))) not in mult:
                    mult[w] = m
                    orbit.append(w)
    return WeightMultiset(alg, tuple(sorted(mult.items())))


freudenthal.cache_info = _freudenthal.cache_info
freudenthal.cache_clear = _freudenthal.cache_clear


def trace_index(alg: SimpleAlgebra, lam, dim_bound: int = DEFAULT_DIM_BOUND) -> int:
    """Index as Tr pi(h)^2 / <h, h> for a long simple coroot h (<h, h> = 2).

    W acts irreducibly on the Cartan subalgebra of a simple algebra, so the
    orbit of mu sums nu(h)^2 to |W mu| (mu, mu) (h, h) / rank, and the index
    is the sum of m(mu) |W mu| (mu, mu) / rank over the dominant weights:
    Freudenthal's multiplicities and the invariant form alone, never the
    closed form in dim(lam) and (lam, lam + 2 rho).
    """
    lam = _checked(alg, lam, dim_bound)
    moment, scale = _dominant(alg, lam)[1], form_scale(alg) * alg.rank
    value, rest = divmod(moment, scale)
    if rest:
        raise InternalConsistencyError(
            f"trace sum {moment} for {lam} over {alg} is not a multiple of {scale}")
    return value


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
