"""Independent verification engine.

Weight multiplicities come from the Freudenthal recursion, the trace-form
index evaluates Tr pi(h)^2 / 2 on a long simple coroot h, and small tensor
products are decomposed by the Brauer-Klimyk formula.  Multiplicities are
constant on Weyl orbits, so the recursion runs on the dominant weights
alone: a walk by mu - alpha over the positive roots carries each weight's
norm |mu + rho|^2 and eps2 row, both linear in mu, reads its pairing with a
root off two entries of the row, and each string sum is one step up, read
at a dominant weight.  The trace is a sum over orbits, from their sizes,
and only the full multiset fills each orbit.  One cached root table per
algebra, `_root_forms`, also holds the Cartan rows that the reflections
read.  None of these touch the closed-form index, so agreement with it is
evidence rather than tautology.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import add, sub

from .algebras import (
    SimpleAlgebra,
    Weight,
    check_dominant,
    dimension,
    eps2,
    form_scale,
    pairing,
    weyl_dimension,
)
from .errors import DomainError, InternalConsistencyError, ResourceBoundError
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


def _labels(alg: SimpleAlgebra, a: int, i: int, b: int, j: int) -> Weight:
    """The labels of a e_i + b e_j: for A all n are differences of neighbours, for B, C, D n - 1."""
    e = [a * (k == i) + b * (k == j) for k in range(alg.rank + (alg.series == "A"))]
    lab = [x - y for x, y in zip(e, e[1:])]
    if alg.series != "A":
        lab.append(2 * e[-1] if alg.series == "B" else e[-1] if alg.series == "C" else e[-2] + e[-1])
    return tuple(lab)


@lru_cache(maxsize=None)
def _root_forms(alg: SimpleAlgebra):
    """The positive roots alpha = a e_i + b e_j, 0-based (Bourbaki, Lie Groups and Lie Algebras
    VI, Plates I-IV: e_i - e_j, for B, C, D also e_i + e_j, for B e_i, for C 2 e_i) sorted by
    labels, as the walk and the recursion read them: k, 2(n+1) for A and 2 otherwise, with
    pairing(x, eps2(alpha)) = k (a x_i + b x_j) on an eps2 row x; per root (alpha, a, i, b, j,
    2 pairing(rho, alpha) - pairing(alpha, alpha), pairing(alpha, alpha) = 2k(a^2 + b^2));
    heights <rho, alpha^vee>; positions; pairing(rho, rho); the Cartan rows, the roots of
    height 1 in the order of the position of their 2."""
    n, series = alg.rank, alg.series
    width = n + 1 if series == "A" else n
    terms = [(1, i, c, j) for i in range(width) for j in range(i + 1, width)
             for c in ((-1,) if series == "A" else (-1, 1))]
    terms += [(1 + (series == "C"), i, 0, 0) for i in range(n) if series in ("B", "C")]
    rows = sorted((_labels(alg, *t), t) for t in terms)
    if len(rows) != (count := (alg.dim - n) // 2):
        raise DomainError(f"positive root count for {alg}: got {len(rows)}, expected {count}")
    k, rho = 2 * (n + 1) if series == "A" else 2, eps2(alg, (1,) * n)
    roots, terms = zip(*rows)
    lengths = [2 * k * (a * a + b * b) for a, _, b, _ in terms]
    shifts = [k * (a * rho[i] + b * rho[j]) for a, i, b, j in terms]
    moves = tuple((alpha, *t, 2 * s - length, length)
                  for alpha, t, s, length in zip(roots, terms, shifts, lengths))
    heights = tuple(2 * s // length for s, length in zip(shifts, lengths))
    cartan = sorted((alpha for alpha, h in zip(roots, heights) if h == 1), key=lambda alpha: alpha.index(2))
    return k, moves, heights, {alpha: r for r, alpha in enumerate(roots)}, sum(shifts) // 2, tuple(cartan)


def weight_system(alg: SimpleAlgebra, lam) -> dict[Weight, tuple[int, list[int]]]:
    """Dominant weights of the irreducible with highest weight lam.

    Maps mu to (norm, row): pairing(mu + rho, mu + rho) and eps2(mu), for A
    up to a shift by a constant.  Every dominant weight below lam is reached
    from lam by steps mu - alpha, alpha a positive root, through dominant
    weights (Stembridge, "The partial order of dominant weights", Adv. Math.
    136, 1998), and both values are linear in mu: a step takes 2 (mu, alpha)
    + 2 (rho, alpha) - (alpha, alpha) off the norm, (mu, alpha) read off two
    entries of the row, and 2a at i and 2b at j off the row.
    """
    lam = check_dominant(alg, lam)
    k, moves = _root_forms(alg)[:2]
    shifted = eps2(alg, [x + 1 for x in lam])
    walk = {lam: (pairing(alg, shifted, shifted), eps2(alg, lam))}
    todo = [lam]
    for mu in todo:
        norm, row = walk[mu]
        for alpha, a, i, b, j, cost, _ in moves:
            down = tuple(map(sub, mu, alpha))
            if min(down) >= 0 and down not in walk:
                step = row.copy()
                step[i] -= 2 * a
                step[j] -= 2 * b
                walk[down] = (norm - 2 * k * (a * row[i] + b * row[j]) - cost, step)
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
    the orbit has pairing(nu, nu) = norm - sum of the pairings - pairing(rho, rho).
    Each pairing is read once and feeds the string sum and both running sums;
    only a step up that leaves the chamber with |nu + rho|^2 < |lam + rho|^2
    reflects: no other nu is a weight, since every weight nu != lam has the
    smaller norm (Humphreys, Introduction to Lie Algebras, section 22).
    """
    walk = weight_system(alg, lam)
    k, moves, heights, position, rho_norm, cartan = _root_forms(alg)
    top_norm = walk[lam][0]
    mult, seen, sizes = {}, {}, {}  # (m, |W mu|); (m, T_alpha(mu) per positive root); |W mu| by zero labels
    total = moment = 0
    for mu in sorted(walk, key=lambda mu: walk[mu][0], reverse=True):
        norm, eps = walk[mu]
        row = []
        acc = paired = 0
        for r, (alpha, a, i, b, j, cost, length) in enumerate(moves):
            p = k * (a * eps[i] + b * eps[j])
            paired += p
            nu = tuple(map(add, mu, alpha))
            if (low := min(nu)) < 0:  # s_q nu = nu - nu_q alpha_q, and so for beta = w alpha
                if norm + 2 * (p + length) + cost >= top_norm:  # |nu + rho|^2: nu is no weight
                    row.append(0)
                    continue
                beta = alpha
                while low < 0:
                    q = nu.index(low)
                    nu = tuple(x - low * c for x, c in zip(nu, cartan[q]))
                    beta = tuple(x - beta[q] * c for x, c in zip(beta, cartan[q]))
                    low = min(nu)
                r = position[beta]
            if (up := seen.get(nu)) is None:  # nu is no weight
                row.append(0)
            else:
                row.append(t := up[0] * (p + length) + up[1][r])
                acc += t
        m = 1
        if mu != lam:
            denom = top_norm - norm
            if denom == 0:
                raise InternalConsistencyError(f"Freudenthal denominator vanished at {mu}")
            m, rest = divmod(2 * acc, denom)
            if rest or m <= 0:
                raise InternalConsistencyError(f"non-integral multiplicity {2 * acc}/{denom} at {mu}")
        seen[mu] = m, row
        if (size := sizes.get(zeros := tuple(map(bool, mu)))) is None:
            kept = [h for h, (_, a, i, b, j, _, _) in zip(heights, moves) if a * eps[i] + b * eps[j]]
            size = sizes[zeros] = prod(h + 1 for h in kept) // prod(kept)
        mult[mu] = m, size
        total += m * size
        moment += m * size * (norm - paired - rho_norm)
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
    cartan, mult = _root_forms(alg)[-1], {}
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
    cartan, coeff = _root_forms(alg)[-1], {}
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
