"""Reference root data for `lielimits.oracle._root_forms`, the one root table.

The library keeps each positive root as its labels and its terms
(a, i, b, j), alpha = a e_i + b e_j in the epsilon coordinates of
Bourbaki's plates, and reads every pairing with alpha off two entries of
an eps2 row in closed form.  This module builds the same data the long
way: the roots from dicts of their nonzero epsilon coordinates, each
pairing with a fundamental weight by `eps2` and `pairing`, each row of the
Gram matrix by summing those forms against the labels of a root, and the
lengths, heights and positions that the oracle once rebuilt on every call.
"""

from __future__ import annotations

from conftest import fundamental_weight
from lielimits.algebras import eps2, pairing


def ref_labels(alg, root):
    """The labels of a root given by its nonzero epsilon coordinates, 0-based."""
    n = alg.rank
    e = [root.get(i, 0) for i in range(n + 1)]
    lab = [e[k] - e[k + 1] for k in range(n - 1)]
    if alg.series == "A":
        lab.append(e[n - 1] - e[n])
    elif alg.series == "B":
        lab.append(2 * e[n - 1])
    elif alg.series == "C":
        lab.append(e[n - 1])
    else:
        lab[n - 2] = e[n - 2] - e[n - 1]
        lab.append(e[n - 2] + e[n - 1])
    return tuple(lab)


def ref_positive_roots(alg):
    """All positive roots, from dicts of their nonzero epsilon coordinates, sorted."""
    n = alg.rank
    eps_roots = []

    def e(*pairs):
        return {i: c for i, c in pairs if c}

    if alg.series == "A":
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                eps_roots.append(e((i, 1), (j, -1)))
    else:
        for i in range(n):
            for j in range(i + 1, n):
                eps_roots.append(e((i, 1), (j, -1)))
                eps_roots.append(e((i, 1), (j, 1)))
        if alg.series == "B":
            eps_roots.extend(e((i, 1)) for i in range(n))
        elif alg.series == "C":
            eps_roots.extend(e((i, 2)) for i in range(n))
    return tuple(sorted(ref_labels(alg, r) for r in eps_roots))


def ref_root_forms(alg, roots):
    """Per root alpha, pairing(omega_i, alpha) over the fundamental weights, by eps2 and pairing."""
    omegas = [eps2(alg, fundamental_weight(alg, i)) for i in range(alg.rank)]
    return tuple(tuple(pairing(alg, w, a) for w in omegas) for a in (eps2(alg, alpha) for alpha in roots))


def ref_gram(forms, roots):
    """pairing(alpha, beta) over the roots beta: each form summed against the labels of alpha."""
    return tuple(tuple(sum(c * x for c, x in zip(form, alpha)) for form in forms) for alpha in roots)


def ref_root_data(alg):
    """What the walk and the recursion read, rebuilt from the reference forms: the moves
    (alpha, 2 pairing(rho, alpha) - pairing(alpha, alpha)); the lengths pairing(alpha, alpha);
    the heights <rho, alpha^vee>; each root's position; and pairing(rho, rho)."""
    roots = ref_positive_roots(alg)
    forms = ref_root_forms(alg, roots)
    gram = ref_gram(forms, roots)
    moves = tuple((alpha, 2 * sum(form) - steps[r])
                  for r, (alpha, form, steps) in enumerate(zip(roots, forms, gram)))
    lengths = tuple(sum(c * a for c, a in zip(form, alpha)) for form, alpha in zip(forms, roots))
    heights = tuple(2 * sum(form) // length for form, length in zip(forms, lengths))
    position = {alpha: r for r, alpha in enumerate(roots)}
    return moves, lengths, heights, position, sum(map(sum, forms)) // 2
