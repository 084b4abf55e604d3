"""Versioned file formats and structured reports.

Input documents:
  lielimits-system/1    levels + edges of a direct system prefix
  lielimits-subspace/1  a subspace descriptor (or a named token)
  lielimits-embedding/1 one embedding given by its branching

Output documents all carry format "lielimits-report/1" and a "kind" field;
`parse_report` reconstructs the typed report, and serialization is stable
(sorted keys) so equal reports print byte-identically.

Weights are lists of integers; rational numbers travel as strings like
"-2/3"; algebra literals look like "A3".
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebras import SimpleAlgebra
from .errors import ParseError
from .index import Embedding, ModuleDecomposition, SemisimpleAlgebra, Summand
from .oracle import WeightMultiset
from .socle import (
    ConstituentSocle,
    ExtendedDim,
    InvariantsReport,
    IsotypicRow,
    SocleReport,
    SubsetInvariants,
)
from .subspaces import (
    COMMUTATOR_TOKEN,
    FORM_TOKENS,
    EvConstFunctional,
    SubspaceDescriptor,
    Verdict,
)
from .system import BratteliGraph, Constituent, EdgeSpec, LevelSpec, RefinementReport

SYSTEM_FORMAT = "lielimits-system/1"
SUBSPACE_FORMAT = "lielimits-subspace/1"
EMBEDDING_FORMAT = "lielimits-embedding/1"
REPORT_FORMAT = "lielimits-report/1"


def _fail(msg: str) -> ParseError:
    return ParseError(msg)


def _expect(doc, key, where):
    if not isinstance(doc, dict) or key not in doc:
        raise _fail(f"{where}: missing field {key!r}")
    return doc[key]


def _list(doc, key, where, default=None):
    """A list-valued field; a missing field gives `default` when one is set."""
    value = _expect(doc, key, where) if default is None or key in doc else default
    if not isinstance(value, list):
        raise _fail(f"{where}: field {key!r} must be a list, got {value!r}")
    return value


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_format(doc, expected, where):
    got = _expect(doc, "format", where)
    if got != expected:
        raise _fail(f"{where}: format {got!r}, expected {expected!r}")


def parse_weight(text) -> tuple[int, ...]:
    """Weights come either as '1,0,2' strings or as integer lists."""
    if isinstance(text, str):
        try:
            return tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise _fail(f"bad weight literal {text!r}") from exc
    if isinstance(text, (list, tuple)) and all(_is_int(x) for x in text):
        return tuple(text)
    raise _fail(f"bad weight {text!r}")


def parse_algebra(text) -> SimpleAlgebra:
    if not isinstance(text, str):
        raise _fail(f"bad algebra literal {text!r}")
    return SimpleAlgebra.parse(text)


def _parse_index(text, where) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise _fail(f"{where}: bad basis index {text!r}") from exc


def _parse_fraction(x, where) -> Fraction:
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise _fail(f"{where}: bad rational {x!r}") from exc


# -- module decompositions ----------------------------------------------------


def decomposition_to_doc(decomp: ModuleDecomposition) -> list:
    return [
        {"weights": [list(w) for w in s.weights], "mult": s.mult} for s in decomp.summands
    ]


def decomposition_from_doc(doc, factors, where) -> ModuleDecomposition:
    if not isinstance(doc, list):
        raise _fail(f"{where}: expected a list of summand records")
    summands = []
    for pos, rec in enumerate(doc):
        weights = _expect(rec, "weights", f"{where}[{pos}]")
        mult = rec.get("mult", 1)
        if not _is_int(mult) or mult < 1:
            raise _fail(f"{where}[{pos}]: bad multiplicity {mult!r}")
        if not isinstance(weights, list) or len(weights) != len(factors):
            raise _fail(
                f"{where}[{pos}]: expected {len(factors)} weight lists, got {weights!r}"
            )
        summands.append(Summand(tuple(parse_weight(w) for w in weights), mult))
    return ModuleDecomposition(SemisimpleAlgebra(tuple(factors)), tuple(summands))


# -- system files -------------------------------------------------------------


def system_to_doc(levels, edges) -> dict:
    doc_levels = []
    for lv in levels:
        entry = {
            "components": [str(f) for f in lv.components.factors],
            "ambient": str(lv.ambient),
            "ambient_branching": decomposition_to_doc(lv.ambient_branching),
        }
        if lv.conatural_branching is not None:
            entry["conatural_branching"] = decomposition_to_doc(lv.conatural_branching)
        doc_levels.append(entry)
    doc_edges = [
        {"branchings": [decomposition_to_doc(b) for b in e.branchings]} for e in edges
    ]
    return {"format": SYSTEM_FORMAT, "levels": doc_levels, "edges": doc_edges}


def system_from_doc(doc) -> tuple[tuple[LevelSpec, ...], tuple[EdgeSpec, ...]]:
    _check_format(doc, SYSTEM_FORMAT, "system file")
    raw_levels = _expect(doc, "levels", "system file")
    raw_edges = _list(doc, "edges", "system file", [])
    if not isinstance(raw_levels, list) or not raw_levels:
        raise _fail("system file: 'levels' must be a non-empty list")
    levels = []
    for n, entry in enumerate(raw_levels, start=1):
        where = f"level {n}"
        factors = [parse_algebra(a) for a in _list(entry, "components", where)]
        ambient = parse_algebra(_expect(entry, "ambient", where))
        branching = decomposition_from_doc(
            _expect(entry, "ambient_branching", where), factors, f"{where}.ambient_branching"
        )
        conatural = None
        if "conatural_branching" in entry:
            conatural = decomposition_from_doc(
                entry["conatural_branching"], factors, f"{where}.conatural_branching"
            )
        levels.append(
            LevelSpec(SemisimpleAlgebra(tuple(factors)), ambient, branching, conatural)
        )
    edges = []
    for n, entry in enumerate(raw_edges, start=1):
        where = f"edge {n}"
        if n >= len(levels):
            raise _fail(f"{where}: more edges than level gaps")
        raw = _expect(entry, "branchings", where)
        source = levels[n - 1].components.factors
        targets = levels[n].components.factors
        if not isinstance(raw, list) or len(raw) != len(targets):
            raise _fail(f"{where}: expected {len(targets)} branchings")
        branchings = tuple(
            decomposition_from_doc(b, source, f"{where}.branchings[{k}]")
            for k, b in enumerate(raw)
        )
        edges.append(EdgeSpec(branchings))
    return tuple(levels), tuple(edges)


# -- embedding files ----------------------------------------------------------


def embedding_to_doc(emb: Embedding) -> dict:
    return {
        "format": EMBEDDING_FORMAT,
        "source": [str(f) for f in emb.source.factors],
        "target": str(emb.target),
        "branching": decomposition_to_doc(emb.branching),
    }


def embedding_from_doc(doc) -> Embedding:
    _check_format(doc, EMBEDDING_FORMAT, "embedding file")
    factors = [parse_algebra(a) for a in _list(doc, "source", "embedding file")]
    target = parse_algebra(_expect(doc, "target", "embedding file"))
    branching = decomposition_from_doc(
        _expect(doc, "branching", "embedding file"), factors, "branching"
    )
    return Embedding(SemisimpleAlgebra(tuple(factors)), target, branching)


# -- subspace files -----------------------------------------------------------


def subspace_input_from_doc(doc):
    """Returns a SubspaceDescriptor or a token string."""
    _check_format(doc, SUBSPACE_FORMAT, "subspace file")
    if "token" in doc:
        token = doc["token"]
        if token not in (COMMUTATOR_TOKEN, *FORM_TOKENS):
            raise _fail(f"subspace file: unknown token {token!r}")
        return token
    space = doc.get("space", "V")
    if space not in ("V", "V*"):
        raise _fail(f"subspace file: bad space {space!r}")
    generators = []
    for pos, gen in enumerate(_list(doc, "generators", "subspace file", [])):
        if not isinstance(gen, dict):
            raise _fail(f"subspace file: generator {pos} must be an index->value map")
        generators.append(
            {_parse_index(i, f"generator {pos}"): _parse_fraction(v, f"generator {pos}")
             for i, v in gen.items()}
        )
    tail_from = doc.get("tail_from")
    if tail_from is not None and (not _is_int(tail_from) or tail_from < 1):
        raise _fail(f"subspace file: bad tail_from {tail_from!r}")
    kernels = []
    for pos, ker in enumerate(_list(doc, "kernels", "subspace file", [])):
        if not isinstance(ker, dict):
            raise _fail(f"subspace file: kernel {pos} must be a head/tail map")
        head = [
            _parse_fraction(x, f"kernel {pos} head")
            for x in _list(ker, "head", f"subspace file: kernel {pos}", [])
        ]
        tail = _parse_fraction(ker.get("tail", 0), f"kernel {pos} tail")
        kernels.append(EvConstFunctional(tuple(head), tail))
    try:
        return SubspaceDescriptor.build(space, generators, tail_from, kernels)
    except ValueError as exc:
        raise _fail(f"subspace file: {exc}") from exc


def descriptor_to_doc(w: SubspaceDescriptor) -> dict:
    return {
        "space": w.space,
        "window": w.window,
        "has_tail": w.has_tail,
        "rows": [[str(x) for x in row] for row in w.rows],
    }


def descriptor_from_doc(doc) -> SubspaceDescriptor:
    return SubspaceDescriptor(
        _expect(doc, "space", "descriptor"),
        _expect(doc, "window", "descriptor"),
        [
            [_parse_fraction(x, "descriptor row") for x in row]
            for row in _expect(doc, "rows", "descriptor")
        ],
        _expect(doc, "has_tail", "descriptor"),
    )


# -- reports ------------------------------------------------------------------


def _report(kind: str, payload: dict) -> dict:
    return {"format": REPORT_FORMAT, "kind": kind, **payload}


def extended_dim_to_doc(d: ExtendedDim) -> dict:
    return {
        "kind": d.kind,
        "value": d.value,
        "lower_bound": d.lower_bound,
        "tail_assumed": d.tail_assumed,
        "evidence": list(d.evidence),
    }


def extended_dim_from_doc(doc) -> ExtendedDim:
    return ExtendedDim(
        doc["kind"],
        value=doc.get("value"),
        lower_bound=doc.get("lower_bound"),
        tail_assumed=doc.get("tail_assumed", False),
        evidence=tuple(doc.get("evidence", [])),
    )


def constituent_to_doc(c: Constituent) -> dict:
    return {
        "id": c.cid,
        "kind": c.kind,
        "algebra": str(c.algebra) if c.algebra else None,
        "string": [list(v) for v in c.string],
        "tail_assumed": c.tail_assumed,
    }


def constituent_from_doc(doc) -> Constituent:
    return Constituent(
        doc["id"],
        doc["kind"],
        parse_algebra(doc["algebra"]) if doc.get("algebra") else None,
        tuple((int(n), int(j)) for n, j in doc["string"]),
        doc["tail_assumed"],
    )


def index_report(algebra: SimpleAlgebra, weight, index: int, dim: int) -> dict:
    return _report(
        "index",
        {"algebra": str(algebra), "weight": list(weight), "index": index, "dimension": dim},
    )


def embedding_report(emb: Embedding, indices, classification) -> dict:
    return _report(
        "embedding",
        {
            "source": [str(f) for f in emb.source.factors],
            "target": str(emb.target),
            "index": list(indices),
            "classification": str(classification),
        },
    )


def limit_report(graph: BratteliGraph, constituents, sums, stab) -> dict:
    return _report(
        "limit",
        {
            "levels": [
                {"components": [str(f) for f in lv.components.factors], "ambient": str(lv.ambient)}
                for lv in graph.levels
            ],
            "alpha": [[n, j, v] for (n, j), v in sorted(graph.alpha.items())],
            "beta": [[n, j, k, v] for (n, j, k), v in sorted(graph.beta.items())],
            "level_sums": [[list(origin), values] for origin, values in sums],
            "stabilization": [
                [list(origin), m0] for origin, m0 in stab
            ],
            "constituents": [constituent_to_doc(c) for c in constituents],
        },
    )


def refinement_report(r: RefinementReport) -> dict:
    return _report(
        "refinement",
        {
            "chain": [list(v) for v in r.chain],
            "algebras": [str(a) for a in r.algebras],
            "standard_edges": list(r.standard_edges),
            "n0": r.n0,
        },
    )


def socle_report_doc(rep: SocleReport) -> dict:
    return _report(
        "socle",
        {
            "constituents": [
                {
                    "id": row.cid,
                    "kind": row.kind,
                    "algebra": row.algebra,
                    "k": row.k,
                    "l": row.l,
                    "trivial": extended_dim_to_doc(row.dim_trivial),
                    "trivial_dual": extended_dim_to_doc(row.dim_trivial_dual),
                }
                for row in rep.constituents
            ],
            "finite_part": [
                {"id": r.cid, "algebra": r.algebra, "weight": list(r.weight), "mult": r.mult}
                for r in rep.finite_part
            ],
            "quotient": extended_dim_to_doc(rep.quotient),
            "quotient_dual": extended_dim_to_doc(rep.quotient_dual),
        },
    )


def invariants_report_doc(rep: InvariantsReport) -> dict:
    return _report(
        "invariants",
        {
            "multiplicities": [list(p) for p in rep.multiplicity_pairs],
            "subsets": [
                {
                    "ids": list(row.ids),
                    "trivial": extended_dim_to_doc(row.dim_trivial),
                    "trivial_dual": extended_dim_to_doc(row.dim_trivial_dual),
                    "quotient": extended_dim_to_doc(row.quotient),
                    "quotient_dual": extended_dim_to_doc(row.quotient_dual),
                }
                for row in rep.subsets
            ],
        },
    )


def verdict_report(v: Verdict) -> dict:
    return _report(
        "maximal",
        {
            "algebra": v.algebra,
            "tag": v.tag,
            "maximal": v.maximal,
            "description": v.description,
            "subspace": descriptor_to_doc(v.subspace) if v.subspace else None,
            "perp": descriptor_to_doc(v.perp_space) if v.perp_space else None,
            "witness": descriptor_to_doc(v.witness) if v.witness else None,
            "witness_vector": (
                [[i, c] for i, c in v.witness_vector] if v.witness_vector else None
            ),
        },
    )


def multiset_report(ms: WeightMultiset) -> dict:
    return _report(
        "oracle",
        {
            "algebra": str(ms.algebra),
            "entries": [[list(w), m] for w, m in ms.entries],
            "total": ms.total,
        },
    )


def parse_report(doc):
    """Rebuild the typed content of a report document (round-trip partner)."""
    _check_format(doc, REPORT_FORMAT, "report")
    kind = _expect(doc, "kind", "report")
    if kind == "index":
        return (
            parse_algebra(doc["algebra"]),
            parse_weight(doc["weight"]),
            doc["index"],
            doc["dimension"],
        )
    if kind == "embedding":
        return (
            tuple(parse_algebra(a) for a in doc["source"]),
            parse_algebra(doc["target"]),
            tuple(doc["index"]),
            doc["classification"],
        )
    if kind == "limit":
        return (
            {(n, j): v for n, j, v in doc["alpha"]},
            {(n, j, k): v for n, j, k, v in doc["beta"]},
            tuple(constituent_from_doc(c) for c in doc["constituents"]),
        )
    if kind == "refinement":
        return RefinementReport(
            tuple((int(a), int(b)) for a, b in doc["chain"]),
            tuple(parse_algebra(a) for a in doc["algebras"]),
            tuple(bool(b) for b in doc["standard_edges"]),
            doc["n0"],
        )
    if kind == "socle":
        return SocleReport(
            tuple(
                ConstituentSocle(
                    r["id"],
                    r["kind"],
                    r["algebra"],
                    r["k"],
                    r["l"],
                    extended_dim_from_doc(r["trivial"]),
                    extended_dim_from_doc(r["trivial_dual"]),
                )
                for r in doc["constituents"]
            ),
            tuple(
                IsotypicRow(r["id"], r["algebra"], tuple(r["weight"]), r["mult"])
                for r in doc["finite_part"]
            ),
            extended_dim_from_doc(doc["quotient"]),
            extended_dim_from_doc(doc["quotient_dual"]),
        )
    if kind == "invariants":
        return InvariantsReport(
            tuple(tuple(p) for p in doc["multiplicities"]),
            tuple(
                SubsetInvariants(
                    tuple(r["ids"]),
                    extended_dim_from_doc(r["trivial"]),
                    extended_dim_from_doc(r["trivial_dual"]),
                    extended_dim_from_doc(r["quotient"]),
                    extended_dim_from_doc(r["quotient_dual"]),
                )
                for r in doc["subsets"]
            ),
        )
    if kind == "maximal":
        return Verdict(
            doc["algebra"],
            doc["tag"],
            doc["maximal"],
            doc["description"],
            subspace=descriptor_from_doc(doc["subspace"]) if doc.get("subspace") else None,
            perp_space=descriptor_from_doc(doc["perp"]) if doc.get("perp") else None,
            witness=descriptor_from_doc(doc["witness"]) if doc.get("witness") else None,
            witness_vector=(
                tuple((int(i), str(c)) for i, c in doc["witness_vector"])
                if doc.get("witness_vector")
                else None
            ),
        )
    if kind == "oracle":
        alg = parse_algebra(doc["algebra"])
        return WeightMultiset(
            alg, tuple((parse_weight(w), m) for w, m in doc["entries"])
        )
    raise _fail(f"report: unknown kind {kind!r}")


def dumps(doc) -> str:
    """Stable serialization: equal documents give byte-identical text."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise _fail(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _fail(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def fixture_path(name: str):
    """Path of one of the shipped fixture files, e.g. fixture_path('s1.json')."""
    from pathlib import Path

    path = Path(__file__).parent / "fixtures" / name
    if not path.exists():
        raise _fail(f"no shipped fixture named {name!r}")
    return path
