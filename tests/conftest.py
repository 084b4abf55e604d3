"""Shared helpers: fixture loading and seeded random generators."""

from __future__ import annotations

import contextlib
import io
import random

import pytest

from lielimits import algebras, formats, index, oracle
from lielimits.cli import main
from lielimits.algebras import SimpleAlgebra
from lielimits.index import ModuleDecomposition, SemisimpleAlgebra, Summand
from lielimits.system import EdgeSpec, LevelSpec, compute_labels


def load_fixture(name):
    return formats.load_json(formats.fixture_path(name))


def graph_from_fixture(name):
    levels, edges = formats.system_from_doc(load_fixture(name))
    return compute_labels(levels, edges)


def run_cli(*argv):
    """Run the CLI in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def A(n):
    return SimpleAlgebra("A", n)


def natural(alg):
    return alg.natural_weight


def zero(alg):
    return (0,) * alg.rank


def random_diagonal_system(rng: random.Random, max_levels=6, max_comps=4, dim_cap=14):
    """A valid diagonal-type system with type-A components, built so the
    level-to-level sum law holds by construction.  Component dimensions are
    capped to keep exact root-system work at desk scale."""
    n_levels = rng.randint(2, max_levels)
    ranks = [[rng.randint(1, 2) for _ in range(rng.randint(1, max_comps))]]
    transitions = []
    for _ in range(n_levels - 1):
        sources = ranks[-1]
        for attempt in range(300):
            n_targets = rng.randint(1, max_comps)
            table = [
                [(rng.choice((0, 0, 0, 1, 1)), rng.choice((0, 0, 0, 1))) for _ in sources]
                for _ in range(n_targets)
            ]
            trivials = [rng.randint(0, 1) for _ in range(n_targets)]
            targets_ok = all(any(k + l > 0 for k, l in row) for row in table)
            sources_ok = all(
                any(table[t][j][0] + table[t][j][1] > 0 for t in range(n_targets))
                for j in range(len(sources))
            )
            dims_ok = all(
                sum((k + l) * (r + 1) for (k, l), r in zip(row, sources)) + t <= dim_cap
                for row, t in zip(table, trivials)
            )
            if targets_ok and sources_ok and dims_ok:
                break
        else:
            # big sources cannot be rehoused under the cap; start over
            return random_diagonal_system(rng, max_levels, max_comps, dim_cap)
        new_ranks = []
        for row, t in zip(table, trivials):
            dim = sum((k + l) * (r + 1) for (k, l), r in zip(row, sources)) + t
            new_ranks.append(dim - 1)
        transitions.append((table, trivials))
        ranks.append(new_ranks)

    # Vertex labels top-down: free at the top, then forced by the sum law.
    alphas = [[rng.randint(1, 2) for _ in ranks[-1]]]
    for table, _ in reversed(transitions):
        upper = alphas[0]
        lower = [
            sum((k + l) * a for (k, l), a in zip((row[j] for row in table), upper))
            for j in range(len(table[0]))
        ]
        alphas.insert(0, lower)
    if any(
        sum(a * (r + 1) for a, r in zip(level_alphas, level_ranks)) > 60
        for level_alphas, level_ranks in zip(alphas, ranks)
    ):
        # ambient rank blew past desk scale; draw a fresh system
        return random_diagonal_system(rng, max_levels, max_comps, dim_cap)

    def diag_summands(factors, copies):
        # copies[j] = (naturals, conaturals) of factor j
        out = []
        for j, (k, l) in enumerate(copies):
            nat = factors[j].natural_weight
            co = tuple(reversed(nat))
            for w, count in ((nat, k), (co, l)):
                if count:
                    ws = [zero(f) for f in factors]
                    ws[j] = w
                    out.append(Summand(tuple(ws), count))
        return out

    levels = []
    for level_ranks, level_alphas in zip(ranks, alphas):
        factors = tuple(A(r) for r in level_ranks)
        copies = []
        for alg, a in zip(factors, level_alphas):
            k = rng.randint(0, a) if alg.rank > 1 else a
            copies.append((k, a - k))
        summands = diag_summands(factors, copies)
        t = rng.randint(0, 2)
        if t:
            summands.append(Summand(tuple(zero(f) for f in factors), t))
        branching = ModuleDecomposition(SemisimpleAlgebra(factors), tuple(summands))
        ambient = A(branching.total_dim - 1)
        levels.append(LevelSpec(SemisimpleAlgebra(factors), ambient, branching))

    edges = []
    for n, (table, trivials) in enumerate(transitions):
        sources = levels[n].components.factors
        branchings = []
        for row, t in zip(table, trivials):
            summands = diag_summands(sources, row)
            if t:
                summands.append(Summand(tuple(zero(f) for f in sources), t))
            branchings.append(
                ModuleDecomposition(SemisimpleAlgebra(sources), tuple(summands))
            )
        edges.append(EdgeSpec(tuple(branchings)))
    return levels, edges


@pytest.fixture
def rng():
    return random.Random(20260808)


@pytest.fixture
def cold_caches():
    """Every lru_cache of the library cleared before and after the test, so that a kernel the
    test patches meets no cached value and leaves none behind."""
    caches = [v for m in (algebras, formats, index, oracle) for v in vars(m).values()
              if hasattr(v, "cache_clear")]
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
