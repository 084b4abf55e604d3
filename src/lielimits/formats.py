"""Versioned file formats and structured reports.

Input documents:
  lielimits-system/1    levels + edges of a direct system prefix
  lielimits-subspace/1  a subspace descriptor (or a named token)
  lielimits-embedding/1 one embedding given by its branching

Output documents all carry format "lielimits-report/1" and a "kind" field;
`parse_report` reconstructs the typed report of every kind, and
serialization is stable (sorted keys) so equal reports print
byte-identically.

Every document and record is one table of fields (JSON key, attribute,
codec).  The same table dumps an object and loads a document, and a load
error names the JSON path of the field at fault, e.g.
`system file: $.levels[0].ambient_branching[1].mult: ...`.  The library
alone checks a weight's labels; they are read here only to name a fault.

Weights are lists of integers; rational numbers travel as strings like
"-2/3"; algebra literals look like "A3".
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import attrgetter
from types import SimpleNamespace

from . import linalg
from .algebras import SimpleAlgebra
from .errors import DomainError, ParseError
from .index import Embedding, ModuleDecomposition, SemisimpleAlgebra, Summand
from .oracle import WeightMultiset
from .socle import (ConstituentSocle, ExtendedDim, InvariantsReport, IsotypicRow, SocleReport,
                    SubsetInvariants)
from .subspaces import (COMMUTATOR_TOKEN, FORM_TOKENS, EvConstFunctional, SubspaceDescriptor,
                        Verdict)
from .system import Constituent, EdgeSpec, LevelSpec, RefinementReport

SYSTEM_FORMAT = "lielimits-system/1"
SUBSPACE_FORMAT = "lielimits-subspace/1"
EMBEDDING_FORMAT = "lielimits-embedding/1"
REPORT_FORMAT = "lielimits-report/1"

REQUIRED = object()  # the default of a field that must be present
_INT_ONLY = frozenset({int})
_STR_ONLY = frozenset({str})
_ESCAPE = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses
_algebra = lru_cache(maxsize=1024)(SimpleAlgebra.parse)  # one object per literal


# How one JSON value loads (raising ParseError) and dumps.  `default` is what
# a missing key loads; a nullable codec reads JSON null as None; `item` is a
# list's entry codec and `fields` a record's (key, attribute, codec) entries.
Codec = namedtuple("Codec", "load dump default nullable item fields",
                   defaults=(REQUIRED, False, None, ()))


# -- errors name the JSON path of the field at fault --------------------------


def _fail(message: str, *path) -> ParseError:
    exc = ParseError(message)
    exc.path = path
    return exc


def _within(exc: ParseError, *outer) -> ParseError:
    exc.path = outer + getattr(exc, "path", ())
    return exc


def _parser(codec: Codec, what: str):
    """The loader of a document: an error names `what` and the JSON path."""

    def parse(doc):
        try:
            return codec.load(doc)
        except ParseError as exc:
            path = getattr(exc, "path", ())
            where = "".join(
                f".{p}" if isinstance(p, str) and p.isidentifier() else f"[{p!r}]" for p in path
            )
            raise _fail(f"{what}: ${where}: {exc}", *path) from exc

    return parse


# -- leaf codecs --------------------------------------------------------------


def _same(value):
    """The load or dump of a value kept as is; hot paths skip calling it."""
    return value


def _values(*values):
    return values


def _checked(test, what: str, load=_same, dump=_same) -> Codec:
    """A leaf codec for the JSON values that pass `test`."""

    def checked(value):
        if test(value):
            return value if load is _same else load(value)
        raise _fail(f"expected {what}, got {value!r}")

    return Codec(checked, dump)


def _one_of(*choices) -> Codec:
    return _checked(lambda v: v in choices, " or ".join(map(repr, choices)))


def _const(value) -> Codec:
    """A field that always holds `value`: checked on load, never stored."""
    return _one_of(value)._replace(dump=lambda _: value)


def _row(width=None) -> Codec:
    """A list of integers (of `width` entries when given); loads a tuple."""
    return _checked(
        lambda v: type(v) is list and width in (None, len(v))
        and _INT_ONLY.issuperset(map(type, v)),
        f"a list of {width} integers" if width else "a list of integers", tuple, list,
    )


def _fraction(x) -> Fraction:
    try:
        return linalg.rational(x)
    except DomainError as exc:
        raise _fail(str(exc)) from exc


def _index(i) -> int:
    try:
        return int(i)
    except ValueError as exc:
        raise _fail(f"bad basis index {i!r}") from exc


def parse_weight(text) -> tuple[int, ...]:
    """Weights come either as '1,0,2' strings or as integer lists."""
    if not isinstance(text, str):
        return ROW.load(text)
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad weight literal {text!r}") from exc


def parse_algebra(text) -> SimpleAlgebra:
    if not isinstance(text, str):
        raise ParseError(f"bad algebra literal {text!r}")
    return _algebra(text)


INT = _checked(lambda v: type(v) is int, "an integer")
POSITIVE = _checked(lambda v: type(v) is int and v >= 1, "an integer >= 1")
BOOL = _checked(lambda v: type(v) is bool, "true or false")
STR = _checked(lambda v: type(v) is str, "a string")
ROW = _row()
ALGEBRA = Codec(parse_algebra, str)
# input documents also take '1,0,2'; a list's labels are left to the library
WEIGHT = Codec(lambda v: v if type(v) is list else parse_weight(v), list)
RATIONAL = Codec(_fraction, str)  # input documents take numbers too
RATIONAL_ROW = _checked(
    lambda v: type(v) is list and _STR_ONLY.issuperset(map(type, v)), "a list of rational strings",
    lambda v: tuple(map(_fraction, v)),
)
_SPACE = _one_of("V", "V*")
_GENERATOR = _checked(
    lambda v: type(v) is dict, "an index->value map",
    lambda v: {_index(i): _fraction(x) for i, x in v.items()},
)


# -- combinators --------------------------------------------------------------


def opt(codec: Codec, default=None) -> Codec:
    """A field that may be missing, and then loads `default`.  Its None value
    is left out of the dump unless the codec is nullable."""
    return codec._replace(default=default)


def nullable(codec: Codec) -> Codec:
    load, dump = codec.load, codec.dump
    return codec._replace(load=lambda v: None if v is None else load(v), nullable=True,
                          dump=dump if dump is _same else lambda v: None if v is None else dump(v))


def _each(loads, values) -> tuple:
    """values[i] loaded by loads[i]; an error names the position."""
    out = []
    try:
        for load, value in zip(loads, values):
            out.append(load(value))
    except ParseError as exc:
        raise _within(exc, len(out))
    return tuple(out)


def listof(item: Codec) -> Codec:
    """A JSON list of `item`s; loads a tuple."""
    load_item, dump_item = item.load, item.dump

    def load(value):
        if type(value) is not list:
            raise _fail(f"expected a list, got {value!r}")
        return _each(repeat(load_item), value)

    dump = list if dump_item is _same else lambda xs: [dump_item(x) for x in xs]
    return Codec(load, dump, item=item)


def fixed(*items: Codec) -> Codec:
    """A JSON list of exactly one entry per codec; loads a tuple."""
    loads, dumps = [c.load for c in items], [c.dump for c in items]

    def load(value):
        if type(value) is not list or len(value) != len(items):
            raise _fail(f"expected a list of {len(items)} entries, got {value!r}")
        return _each(loads, value)

    return Codec(load, lambda xs: [x if f is _same else f(x) for f, x in zip(dumps, xs)])


def record(make, *fields) -> Codec:
    """A JSON map with one entry per field: (key, codec), whose attribute is
    the key, or (key, attribute, codec).  A dotted attribute reaches inside the
    dumped object, a function one reads from it, and None marks a constant, not
    passed on.  Loading calls make(*values) in table order, so `make` can
    run the checks that span fields, naming paths relative to the record."""
    fields = tuple((f[0], f[0], f[1]) if len(f) == 2 else f for f in fields)
    loads = [(key, attr is not None, codec.load, codec.default) for key, attr, codec in fields]
    dumps = [
        (key, attr if callable(attr) else attrgetter(attr) if attr else lambda _: None,
         None if codec.dump is _same else codec.dump, codec.nullable or not attr)
        for key, attr, codec in fields
    ]

    def load(doc):
        if type(doc) is not dict:
            raise _fail(f"expected a map, got {doc!r}")
        values = []
        for key, keep, load_field, default in loads:
            if key in doc:
                try:
                    value = load_field(doc[key])
                except ParseError as exc:
                    raise _within(exc, key)
            elif default is REQUIRED:
                raise _fail(f"missing field {key!r}")
            else:
                value = default
            if keep:
                values.append(value)
        return make(*values)

    def dump(obj):
        doc = {}
        for key, get, dump_field, write_none in dumps:
            value = get(obj)
            if value is not None or write_none:
                doc[key] = value if dump_field is None else dump_field(value)
        return doc

    return Codec(load, dump, fields=fields)


def _keyed(width: int) -> Codec:
    """A dict from (width-1)-tuples of integers to integers, as sorted rows."""
    rows = listof(_row(width))
    return rows._replace(
        load=lambda v: {r[:-1]: r[-1] for r in rows.load(v)},
        dump=lambda d: [[*k, v] for k, v in sorted(d.items())],
    )


# -- checks that span fields, run once their record has loaded ----------------


def _decomposition(over, summands, *at) -> ModuleDecomposition:
    """Over `over`, an algebra or its factors.  The library checks the labels and the weight counts;
    only when it refused the branching are they read again here, summand by summand, labels first,
    so that the first fault names its path."""
    try:
        return ModuleDecomposition(over if isinstance(over, SemisimpleAlgebra)
                                   else SemisimpleAlgebra(over), summands)
    except DomainError:
        width = len(getattr(over, "factors", over))
        for pos, s in enumerate(summands):
            try:
                _each(repeat(ROW.load), map(list, s.weights))
                if len(s.weights) != width:
                    raise _fail(f"expected {width} weight lists, one per factor, got {len(s.weights)}")
            except ParseError as exc:
                raise _within(exc, *at, pos, "weights") from None
        raise


def _level(components, ambient, branching, conatural) -> LevelSpec:
    branching = _decomposition(components, branching, "ambient_branching")
    if conatural is not None:
        conatural = _decomposition(branching.algebra, conatural, "conatural_branching")
    return LevelSpec(branching.algebra, ambient, branching, conatural)


def _system(levels, edges):
    """Some level, and per level gap one edge, with one branching per
    component of the next level."""
    if not levels:
        raise _fail("expected a non-empty list", "levels")
    if len(edges) != len(levels) - 1:
        raise _fail(f"expected {len(levels) - 1} edges, one per level gap, got {len(edges)}",
                    "edges")
    specs = []
    for n, branchings in enumerate(edges):
        source, targets = levels[n].components, levels[n + 1].components.factors
        if len(branchings) != len(targets):
            raise _fail(f"expected {len(targets)} branchings, one per component of the "
                        "next level", "edges", n, "branchings")
        specs.append(EdgeSpec(tuple(
            _decomposition(source, b, "edges", n, "branchings", k) for k, b in enumerate(branchings)
        )))
    return levels, tuple(specs)


def _embedding(source, target, branching) -> Embedding:
    branching = _decomposition(source, branching, "branching")
    return Embedding(branching.algebra, target, branching)


def _basis_text(d: SubspaceDescriptor) -> list[list[str]]:
    """U's dense basis rows as reports print them, str only of the stored entries."""
    basis = d.basis()
    rows = [["0"] * d.window for _ in basis]
    for row, r in zip(rows, basis):
        for c, x in r.items():
            row[c - 1] = str(x)
    return rows


def _descriptor(space, window, has_tail, rows) -> SubspaceDescriptor:
    """Each row has `window` entries, the last one 0 when finite."""
    for pos, row in enumerate(rows):
        if len(row) != window:
            raise _fail(f"expected {window} entries (the window), got {len(row)}", "rows", pos)
        if not has_tail and row[-1] != 0:
            raise _fail("a finite descriptor's row has a nonzero tail entry", "rows", pos)
    return SubspaceDescriptor(space, window, rows, has_tail)


# -- input documents ----------------------------------------------------------

_SUMMAND_LIST = listof(record(Summand, ("weights", listof(WEIGHT)), ("mult", opt(POSITIVE, 1))))
# Loads the summands; the record that knows the factors builds the decomposition.
_SUMMANDS = _SUMMAND_LIST._replace(dump=lambda d: _SUMMAND_LIST.dump(d.summands))
_COMPONENTS = ("components", "components.factors", listof(ALGEBRA))

_SYSTEM = record(
    _system,
    ("format", None, _const(SYSTEM_FORMAT)),
    ("levels", listof(record(
        _level, _COMPONENTS, ("ambient", ALGEBRA),
        ("ambient_branching", _SUMMANDS), ("conatural_branching", opt(_SUMMANDS)),
    ))),
    ("edges", opt(listof(record(_same, ("branchings", listof(_SUMMANDS)))), ())),
)
_EMBEDDING = record(
    _embedding,
    ("format", None, _const(EMBEDDING_FORMAT)),
    ("source", "source.factors", listof(ALGEBRA)),
    ("target", ALGEBRA),
    ("branching", _SUMMANDS),
)
_TOKEN = record(
    _same,
    ("format", None, _const(SUBSPACE_FORMAT)),
    ("token", _one_of(COMMUTATOR_TOKEN, *FORM_TOKENS)),
)
_SPAN = record(
    # looked up on each call, so that a wrapper set on the class sees the call
    lambda *fields: SubspaceDescriptor.build(*fields),
    ("format", None, _const(SUBSPACE_FORMAT)),
    ("space", opt(_SPACE, "V")),
    ("generators", opt(listof(_GENERATOR), ())),
    ("tail_from", opt(nullable(POSITIVE))),
    ("kernels", opt(listof(record(
        EvConstFunctional,
        ("head", opt(listof(RATIONAL), ())), ("tail", opt(RATIONAL, Fraction(0))),
    )), ())),
)
_DESCRIPTOR = record(
    _descriptor,
    ("space", _SPACE), ("window", POSITIVE), ("has_tail", BOOL), ("rows", _basis_text, listof(RATIONAL_ROW)),
)


# Each entry point is its table's walker.
embedding_to_doc = _EMBEDDING.dump
decomposition_to_doc = _SUMMANDS.dump
system_from_doc = _parser(_SYSTEM, "system file")
embedding_from_doc = _parser(_EMBEDDING, "embedding file")


def system_to_doc(levels, edges) -> dict:
    return _SYSTEM.dump(SimpleNamespace(levels=levels, edges=edges))


def subspace_input_from_doc(doc):
    """Returns a SubspaceDescriptor or, when the document names one, a token."""
    table = _TOKEN if isinstance(doc, dict) and "token" in doc else _SPAN
    return _parser(table, "subspace file")(doc)


# -- reports ------------------------------------------------------------------

_DIM = record(
    ExtendedDim,
    ("kind", STR), ("value", opt(nullable(INT))), ("lower_bound", opt(nullable(INT))),
    ("tail_assumed", opt(BOOL, False)), ("evidence", opt(ROW, ())),
)
_DIMS = (("trivial", "dim_trivial", _DIM), ("trivial_dual", "dim_trivial_dual", _DIM))

_REPORT_FORMAT = ("format", None, _const(REPORT_FORMAT))
# kind -> table; parse_report returns what the table's `make` builds, and the
# table dumps the record or namespace a command reports.
REPORTS = {
    kind: record(make, _REPORT_FORMAT, ("kind", None, _const(kind)), *fields)
    for kind, make, *fields in (
        ("index", _values,
         ("algebra", ALGEBRA), ("weight", ROW), ("index", INT), ("dimension", INT)),
        ("embedding", _values,
         ("source", listof(ALGEBRA)), ("target", ALGEBRA), ("index", ROW), ("classification", STR)),
        ("limit", lambda levels, alpha, beta, sums, stab, constituents: (alpha, beta, constituents),
         # levels, level_sums and stabilization are for display: checked when present
         ("levels", "graph.levels",
          opt(listof(record(_values, _COMPONENTS, ("ambient", ALGEBRA))), ())),
         ("alpha", "graph.alpha", _keyed(3)), ("beta", "graph.beta", _keyed(4)),
         ("level_sums", opt(listof(fixed(ROW, ROW)), ())),
         ("stabilization", opt(listof(fixed(ROW, nullable(INT))), ())),
         ("constituents", listof(record(
             Constituent, ("id", "cid", INT), ("kind", STR), ("algebra", opt(nullable(ALGEBRA))),
             ("string", listof(_row(2))), ("tail_assumed", BOOL),
         )))),
        ("refinement", RefinementReport,
         ("chain", listof(_row(2))), ("algebras", listof(ALGEBRA)),
         ("standard_edges", listof(BOOL)), ("n0", INT)),
        ("socle", SocleReport,
         ("constituents", listof(record(
             ConstituentSocle, ("id", "cid", INT), ("kind", STR), ("algebra", nullable(STR)),
             ("k", INT), ("l", INT), *_DIMS,
         ))),
         ("finite_part", listof(record(
             IsotypicRow, ("id", "cid", INT), ("algebra", STR), ("weight", ROW), ("mult", INT),
         ))),
         ("quotient", _DIM), ("quotient_dual", _DIM)),
        ("invariants", InvariantsReport,
         ("multiplicities", "multiplicity_pairs", listof(_row(3))),
         ("subsets", listof(record(
             SubsetInvariants, ("ids", ROW), *_DIMS, ("quotient", _DIM), ("quotient_dual", _DIM),
         )))),
        ("maximal", Verdict,
         ("algebra", STR), ("tag", STR), ("maximal", BOOL), ("description", STR),
         ("subspace", opt(nullable(_DESCRIPTOR))),
         ("perp", "perp_space", opt(nullable(_DESCRIPTOR))),
         ("witness", opt(nullable(_DESCRIPTOR))),
         ("witness_vector", opt(nullable(listof(fixed(INT, RATIONAL)))))),
        ("oracle", lambda algebra, entries, total: WeightMultiset(algebra, entries),
         ("algebra", ALGEBRA), ("entries", listof(fixed(ROW, INT))), ("total", INT)),
        ("oracle-trace", _values,
         ("algebra", ALGEBRA), ("weight", ROW), ("trace_index", INT)),
        ("oracle-tensor",
         lambda algebra, factors, summands:
             (algebra, factors, _decomposition((algebra,), summands, "summands")),
         ("algebra", ALGEBRA), ("factors", fixed(ROW, ROW)), ("summands", _SUMMANDS)),
        ("oracle-selftest", _values,
         ("seed", INT), ("checked", listof(fixed(ALGEBRA, ROW, ROW, INT)))),
    )
}


_ENVELOPE = record(_same, _REPORT_FORMAT, ("kind", _one_of(*REPORTS)))


def parse_report(doc):
    """Rebuild the typed content of a report document of any kind."""
    kind = _parser(_ENVELOPE, "report")(doc)
    return _parser(REPORTS[kind], f"{kind} report")(doc)


def dumps(doc) -> str:
    """Stable serialization: equal documents give byte-identical text, the
    bytes of json.dumps(doc, indent=2, sort_keys=True) and a newline."""
    return _text(doc, "\n") + "\n"


def _text(value, indent: str) -> str:
    """`value` as JSON whose closing bracket follows `indent`, a newline and
    spaces.  A list of only ints or only strings is one join."""
    if isinstance(value, (list, tuple)):
        brackets, inner, kinds = "[]", indent + "  ", set(map(type, value))
        if kinds == _INT_ONLY or kinds == _STR_ONLY:
            items = map(int.__repr__ if kinds == _INT_ONLY else _ESCAPE, value)
        else:
            items = [_text(v, inner) for v in value]
    elif isinstance(value, dict):
        if not _STR_ONLY.issuperset(map(type, value)):
            raise TypeError(f"JSON keys must be strings, got {list(value)!r}")
        brackets, inner = "{}", indent + "  "
        items = [f"{_ESCAPE(k)}: {_text(v, inner)}" for k, v in sorted(value.items())]
    elif isinstance(value, str):
        return _ESCAPE(value)
    elif value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    else:
        raise TypeError(f"{type(value).__name__} {value!r} is not written as JSON")
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}" if value else brackets


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        if "integer string conversion" in str(exc):  # an int past sys.get_int_max_str_digits()
            raise ParseError(f"{path}: a JSON integer has more than "
                             f"{sys.get_int_max_str_digits()} digits") from exc
        raise ParseError(f"cannot read {path}: {exc}") from exc


def fixture_path(name: str):
    """Path of one of the shipped fixture files, e.g. fixture_path('s1.json')."""
    from pathlib import Path

    path = Path(__file__).parent / "fixtures" / name
    if not path.exists():
        raise ParseError(f"no shipped fixture named {name!r}")
    return path
