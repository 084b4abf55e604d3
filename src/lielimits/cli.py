"""Command-line interface.

Subcommands: index, embed, limit, refine, socle, invariants, maximal,
oracle.  Exit codes: 0 success, 1 domain error, 2 parse error,
3 insufficient prefix.  Structured output (--format json) is stable:
equal reports are byte-identical, and randomized self-checks take an
explicit --seed.

Each command returns (kind, report, human lines) and `main` is the one
output step: it dumps the report through `formats.REPORTS[kind]` in both
formats, so a number too long to print exits 1 in either, then writes the
document or the lines.
"""

from __future__ import annotations

import argparse
import random
import sys
from types import SimpleNamespace

from . import formats, oracle, socle, subspaces, system
from .algebras import SimpleAlgebra, dimension
from .errors import (DomainError, InternalConsistencyError, LieLimitsError, NotStabilizedError,
                     ParseError)
from .index import classify_embedding, embedding_index, index_of_irrep, index_of_module

# (flags, add_argument keywords).  Both parsers of a call take these with no
# default, so an option after the command overrides one before it, and an
# option given nowhere keeps its value in _DEFAULTS, where `main` starts.
_DEFAULTS = {"output": "human", "seed": 0, "dim_bound": oracle.DEFAULT_DIM_BOUND, "enum_bound": 20}
_GLOBAL_OPTIONS = (
    (("--format",), {"dest": "output", "choices": ("human", "json"),
                     "help": "output format (json is stable and re-parseable)"}),
    (("--seed",), {"type": int, "help": "seed for randomized self-checks"}),
    (("--dim-bound",), {"type": int, "help": "dimension cap for oracle computations"}),
    (("--enum-bound",), {"type": int, "help": "size cap for enumerative self-checks"}),
)
_FILE = (("path",), {"metavar": "FILE"})


# prog -> its parser, built on first use and kept for the process: parse_args
# returns a fresh namespace and leaves the parser as it was, and argparse reads
# COLUMNS only when it prints.  A plain dict, as the benchmark and
# tools/samebytes.py clear every lru_cache of the package before each op.
_PARSERS: dict[str, argparse.ArgumentParser] = {}


def _parser(prog: str, description: str, arguments, **kw) -> argparse.ArgumentParser:
    if prog not in _PARSERS:
        parser = _PARSERS[prog] = argparse.ArgumentParser(
            prog=prog, description=description, argument_default=argparse.SUPPRESS, **kw
        )
        for flags, options in _GLOBAL_OPTIONS + arguments:
            parser.add_argument(*flags, **options)
    return _PARSERS[prog]


def _parse_weight_arg(alg: SimpleAlgebra, text: str):
    weight = formats.parse_weight(text)
    if len(weight) != alg.rank:
        raise ParseError(f"weight {text!r} has {len(weight)} labels, {alg} has rank {alg.rank}")
    return weight


def cmd_index(args):
    if args.embedding:
        return cmd_embed(argparse.Namespace(path=args.embedding))
    if not args.algebra or args.weight is None:
        raise ParseError("index needs an algebra and a weight, or --embedding FILE")
    alg = formats.parse_algebra(args.algebra)
    weight = _parse_weight_arg(alg, args.weight)
    value = index_of_irrep(alg, weight)
    dim = dimension(alg, weight)
    return "index", SimpleNamespace(algebra=alg, weight=weight, index=value, dimension=dim), [
        f"algebra   {alg}",
        f"weight    {','.join(map(str, weight))}",
        f"dimension {dim}",
        f"index     {value}",
    ]


def cmd_embed(args):
    emb = formats.embedding_from_doc(formats.load_json(args.path))
    indices = embedding_index(emb)
    if len(emb.source.factors) == 1:
        classification = str(classify_embedding(emb))
    else:
        classification = "per-factor"
    report = SimpleNamespace(source=emb.source.factors, target=emb.target, index=indices,
                             classification=classification)
    return "embedding", report, [
        f"source          {emb.source}",
        f"target          {emb.target}",
        f"index           {indices}",
        f"classification  {classification}",
    ]


def _load_graph(path):
    levels, edges = formats.system_from_doc(formats.load_json(path))
    return system.compute_labels(levels, edges)


def cmd_limit(args):
    graph = _load_graph(args.path)
    constituents = system.decompose(graph)
    sums = [(v, system.level_sums(graph, v)) for v in sorted(graph.vertices())]
    stab = [(v, system.stabilization(graph, v)) for v in sorted(graph.vertices())]
    report = SimpleNamespace(graph=graph, level_sums=sums, stabilization=stab,
                             constituents=constituents)
    lines = ["vertex labels (level, component): alpha"]
    for (n, j), v in sorted(graph.alpha.items()):
        lines.append(f"  ({n},{j}) {graph.algebra_at((n, j))}  alpha={v}")
    lines.append("edges: beta")
    for (n, j, k), v in sorted(graph.beta.items()):
        lines.append(f"  ({n},{j}) -> ({n + 1},{k})  beta={v}")
    lines.append("level sums and stabilization per origin")
    for (origin, values), (_, m0) in zip(sums, stab):
        lines.append(f"  {origin}: a={values} m0={m0}")
    lines.append("constituents")
    for c in constituents:
        name = f" {c.algebra}" if c.algebra else ""
        flag = " (tail assumed)" if c.tail_assumed else ""
        lines.append(f"  #{c.cid} {c.kind}{name}{flag} string={list(c.string)}")
    return "limit", report, lines


def cmd_refine(args):
    graph = _load_graph(args.path)
    report = system.extract_refinement(graph, constituent_id=args.constituent)
    lines = ["nested simple ideals"]
    for vertex, alg, in zip(report.chain, report.algebras):
        lines.append(f"  {vertex}: {alg}")
    lines.append(f"standard edges: {list(report.standard_edges)}")
    lines.append(f"all standard from level {report.n0}")
    return "refinement", report, lines


def cmd_socle(args):
    graph = _load_graph(args.path)
    report = socle.socle_report(graph)
    lines = []
    for row in report.constituents:
        lines.append(
            f"constituent #{row.cid} {row.kind}: k={row.k} l={row.l} "
            f"dim N={row.dim_trivial} dim N*={row.dim_trivial_dual}"
        )
    for r in report.finite_part:
        lines.append(
            f"finite part #{r.cid} {r.algebra}: weight {','.join(map(str, r.weight))} x{r.mult}"
        )
    lines.append(f"quotient V/V' = {report.quotient}")
    lines.append(f"quotient V*/(V*)' = {report.quotient_dual}")
    return "socle", report, lines


def cmd_invariants(args):
    graph = _load_graph(args.path)
    subsets = None
    if args.subset:
        subsets = []
        for text in args.subset:
            try:
                subsets.append(tuple(int(x) for x in text.split(",")))
            except ValueError as exc:
                raise ParseError(f"bad subset {text!r}; expected e.g. '0,1'") from exc
    report = socle.standard_invariants(graph, subsets=subsets)
    lines = ["multiplicity pairs (id, k, l)"]
    for cid, k, l in report.multiplicity_pairs:
        lines.append(f"  #{cid}: k={k} l={l}")
    for row in report.subsets:
        lines.append(
            f"J={list(row.ids)}: dim N^J={row.dim_trivial} dim N*^J={row.dim_trivial_dual} "
            f"dim V/V'_J={row.quotient} dim V*/(V*)'_J={row.quotient_dual}"
        )
    return "invariants", report, lines


def cmd_maximal(args):
    payload = formats.subspace_input_from_doc(formats.load_json(args.path))
    verdict = subspaces.classify_maximal(args.kind, payload)
    lines = [
        f"algebra  {verdict.algebra}",
        f"tag      {verdict.tag}",
        f"maximal  {'yes' if verdict.maximal else 'no'}",
        f"case     {verdict.description}",
    ]
    if verdict.witness is not None:
        lines.append(f"witness subspace: {verdict.witness!r}")
    if verdict.witness_vector:
        coords = ", ".join(f"v{i}: {c}" for i, c in verdict.witness_vector)
        lines.append(f"witness vector: {coords}")
    return "maximal", verdict, lines


def _oracle_algebra_weight(args, count):
    if len(args.args) != count:
        raise ParseError(f"oracle {args.op} expects {count} arguments")
    alg = formats.parse_algebra(args.args[0])
    return alg, [_parse_weight_arg(alg, w) for w in args.args[1:]]


def cmd_oracle(args):
    if args.op == "freudenthal":
        alg, (weight,) = _oracle_algebra_weight(args, 2)
        ms = oracle.freudenthal(alg, weight, args.dim_bound)
        lines = [f"{','.join(map(str, w))}: {m}" for w, m in ms.entries]
        lines.append(f"total {ms.total}")
        return "oracle", ms, lines
    if args.op == "trace":
        alg, (weight,) = _oracle_algebra_weight(args, 2)
        value = oracle.trace_index(alg, weight, args.dim_bound)
        report = SimpleNamespace(algebra=alg, weight=weight, trace_index=value)
        return "oracle-trace", report, [f"trace index {value}"]
    if args.op == "tensor":
        alg, (w1, w2) = _oracle_algebra_weight(args, 3)
        decomp = oracle.tensor_decompose(alg, w1, w2, args.dim_bound)
        lines = [
            f"{','.join(map(str, s.weights[0]))} x{s.mult}" for s in decomp.summands
        ]
        return "oracle-tensor", SimpleNamespace(algebra=alg, factors=(w1, w2), summands=decomp), lines
    if args.args:  # selftest: the parser admits no other op
        raise ParseError("oracle selftest expects 0 arguments")
    return _oracle_selftest(args)


def _oracle_selftest(args):
    """Seeded consistency sweep: tensor-product index via summands equals the
    product rule, and the trace oracle equals the closed form."""
    rng = random.Random(args.seed)
    algebras = [SimpleAlgebra("A", 1), SimpleAlgebra("A", 2), SimpleAlgebra("B", 2)]
    checked = []
    for _ in range(args.enum_bound):
        alg = rng.choice(algebras)
        lam = tuple(rng.randrange(0, 3) for _ in range(alg.rank))
        mu = tuple(rng.randrange(0, 2) for _ in range(alg.rank))
        if dimension(alg, lam) * dimension(alg, mu) > args.dim_bound:
            continue
        product = oracle.tensor_decompose(alg, lam, mu, args.dim_bound)
        by_sum = index_of_module(product, 0)
        dl, dm = dimension(alg, lam), dimension(alg, mu)
        by_rule = dm * index_of_irrep(alg, lam) + dl * index_of_irrep(alg, mu)
        trace_ok = oracle.trace_index(alg, lam, args.dim_bound) == index_of_irrep(alg, lam)
        if by_sum != by_rule or not trace_ok:
            raise InternalConsistencyError(f"oracle selftest failed at {alg} {lam} {mu}: "
                                           f"{by_sum} vs {by_rule}, trace_ok={trace_ok}")
        checked.append((alg, lam, mu, by_sum))
    report = SimpleNamespace(seed=args.seed, checked=checked)
    return "oracle-selftest", report, [f"{len(checked)} consistency checks passed (seed {args.seed})"]


# name -> (handler, help, arguments): dispatch, the command's parser and
# the --help listing all read this one table.
_COMMANDS = {
    "index": (cmd_index, "Dynkin index of an irreducible or an embedding", (
        (("algebra",), {"nargs": "?", "default": None, "help": "algebra literal, e.g. A3"}),
        (("weight",), {"nargs": "?", "default": None,
                       "help": "comma-separated Dynkin labels, e.g. 1,0,2"}),
        (("--embedding",), {"metavar": "FILE", "default": None,
                            "help": "embedding file instead of a weight"}),
    )),
    "embed": (cmd_embed, "index vector and classification of an embedding file", (_FILE,)),
    "limit": (cmd_limit, "decompose a direct system prefix", (_FILE,)),
    "refine": (cmd_refine, "nested simple ideals when the limit is simple", (
        _FILE,
        (("--constituent",), {"type": int, "default": None,
                              "help": "restrict to one infinite constituent id"}),
    )),
    "socle": (cmd_socle, "socle report of the natural modules", (_FILE,)),
    "invariants": (cmd_invariants, "standard invariants of the system", (
        _FILE,
        (("--subset",), {"action": "append", "default": None,
                         "help": "comma-separated constituent ids; repeatable"}),
    )),
    "maximal": (cmd_maximal, "maximality classification of a stabilizer", (
        (("kind",), {"choices": ("gl", "sl", "so", "sp")}),
        (("path",), {"metavar": "FILE", "help": "subspace descriptor file"}),
    )),
    "oracle": (cmd_oracle, "independent verification values", (
        (("op",), {"choices": ("freudenthal", "trace", "tensor", "selftest")}),
        (("args",), {"nargs": "*", "default": (),
                     "help": "algebra and weight(s) for the chosen op"}),
    )),
}

_DESCRIPTION = """\
Dynkin index calculus, direct-limit decomposition, socle reports, and maximal
stabilizer classification for finitary Lie algebras."""
_EPILOG = "commands:\n" + "\n".join(
    f"  {name:<12}{help_text}" for name, (_, help_text, _) in _COMMANDS.items()
) + "\n\n'lielimits COMMAND --help' lists a command's arguments."


# argparse.PARSER takes the command name and every argument after it.
_COMMAND = (("command",), {"nargs": argparse.PARSER, "choices": tuple(_COMMANDS),
                           "help": "one of the commands below, then its arguments"})


def main(argv=None) -> int:
    # Two small parsers: the global options and the command name, then the
    # chosen command's own arguments.
    args = _parser("lielimits", _DESCRIPTION, (_COMMAND,), epilog=_EPILOG,
                   formatter_class=argparse.RawDescriptionHelpFormatter,
                   ).parse_args(argv, argparse.Namespace(**_DEFAULTS))
    name, *rest = args.command
    handler, help_text, arguments = _COMMANDS[name]
    args = _parser(f"lielimits {name}", help_text, arguments).parse_args(rest, args)
    try:
        if args.dim_bound < 1 or args.enum_bound < 1:
            raise DomainError("resource bounds must be positive")
        kind, report, lines = handler(args)
        doc = formats.REPORTS[kind].dump(report)
        text = formats.dumps(doc) if args.output == "json" else "".join(f"{s}\n" for s in lines)
        sys.stdout.write(text)
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except NotStabilizedError as exc:
        print(f"insufficient prefix: {exc}", file=sys.stderr)
        return 3
    except LieLimitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # only an int past sys.get_int_max_str_digits() as it prints
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: a number has more than {sys.get_int_max_str_digits()} digits, "
              "more than Python prints", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
