import argparse
import contextlib
import io
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A, graph_from_fixture, load_fixture, run_cli
from lielimits.cli import main
from lielimits import cli, formats
from lielimits.errors import ParseError
from lielimits.socle import socle_report, standard_invariants
from lielimits.subspaces import (
    ALL_ONES,
    SubspaceDescriptor,
    classify_maximal,
)
from lielimits.system import decompose, extract_refinement, level_sums, stabilization
from lielimits.oracle import freudenthal


def roundtrip(doc):
    return json.loads(formats.dumps(doc))


def test_system_file_roundtrip():
    for name in ("s1.json", "s2.json", "s3.json", "s4.json", "example4.json"):
        doc = load_fixture(name)
        levels, edges = formats.system_from_doc(doc)
        assert roundtrip(formats.system_to_doc(levels, edges)) == doc


def test_embedding_file_roundtrip():
    doc = load_fixture("std_a5_a9.json")
    emb = formats.embedding_from_doc(doc)
    assert roundtrip(formats.embedding_to_doc(emb)) == doc


def test_descriptor_doc_roundtrip():
    # a descriptor travels as a field of a maximal report; this W is not
    # closed, so its verdict also ships a gap vector, which reloads exact
    w = SubspaceDescriptor.build("V", generators=[{1: 2, 3: -3}], tail_from=4, kernels=[ALL_ONES])
    verdict = classify_maximal("gl", w)
    back = formats.parse_report(roundtrip(formats.REPORTS["maximal"].dump(verdict)))
    assert back == verdict and back.subspace == w and back.tag == "NotMaximal"
    assert back.witness_vector == ((1, 1), (3, Fraction(-3, 2)))
    assert {type(x) for _, x in back.witness_vector} == {Fraction}


def test_subspace_file_inputs():
    w = formats.subspace_input_from_doc(load_fixture("tail2.json"))
    assert w == SubspaceDescriptor.tail(2)
    token = formats.subspace_input_from_doc(load_fixture("commutator.json"))
    assert token == "[g,g]"
    with pytest.raises(ParseError):
        formats.subspace_input_from_doc({"format": formats.SUBSPACE_FORMAT, "token": "nope"})


def test_weight_parsing():
    assert formats.parse_weight("1,0,2") == (1, 0, 2)
    assert formats.parse_weight([1, 0]) == (1, 0)
    with pytest.raises(ParseError):
        formats.parse_weight("1,x")
    with pytest.raises(ParseError):
        formats.parse_algebra("Q3")


def test_report_roundtrips():
    g = graph_from_fixture("s2.json")
    cs = decompose(g)
    sums = [(v, level_sums(g, v)) for v in sorted(g.vertices())]
    stab = [(v, stabilization(g, v)) for v in sorted(g.vertices())]
    limit = SimpleNamespace(graph=g, level_sums=sums, stabilization=stab, constituents=cs)
    limit_doc = roundtrip(formats.REPORTS["limit"].dump(limit))
    alpha, beta, constituents = formats.parse_report(limit_doc)
    assert alpha == g.alpha and beta == g.beta
    assert constituents == tuple(cs)

    socle_doc = roundtrip(formats.REPORTS["socle"].dump(socle_report(g)))
    assert formats.parse_report(socle_doc) == socle_report(g)

    inv_doc = roundtrip(formats.REPORTS["invariants"].dump(standard_invariants(g)))
    assert formats.parse_report(inv_doc) == standard_invariants(g)

    ref = extract_refinement(graph_from_fixture("s1.json"))
    ref_doc = roundtrip(formats.REPORTS["refinement"].dump(ref))
    assert formats.parse_report(ref_doc) == ref

    verdict = classify_maximal("so", SubspaceDescriptor.tail(5))
    v_doc = roundtrip(formats.REPORTS["maximal"].dump(verdict))
    assert formats.parse_report(v_doc) == verdict

    ms = freudenthal(A(2), (1, 1))
    ms_doc = roundtrip(formats.REPORTS["oracle"].dump(ms))
    assert formats.parse_report(ms_doc) == ms


def fixture(name):
    return str(formats.fixture_path(name))


def test_cli_index():
    code, out, _ = run_cli("index", "A1", "2")
    assert code == 0 and "index     4" in out
    code, out, _ = run_cli("index", "A2", "1,1")
    assert code == 0 and "index     6" in out
    code, out, _ = run_cli("index", "--embedding", fixture("std_a5_a9.json"))
    assert code == 0 and "Standard" in out


def test_cli_embed_and_classification(tmp_path):
    code, out, _ = run_cli("embed", fixture("diag_a5_a11.json"))
    assert code == 0 and "Diagonal(k=1, l=1, t=0)" in out
    # a two-factor source gets one index per factor and no single class
    path = tmp_path / "two_factors.json"
    path.write_text(formats.dumps({
        "format": formats.EMBEDDING_FORMAT, "source": ["A1", "A2"], "target": "A4",
        "branching": [{"weights": [[1], [0, 0]]}, {"weights": [[0], [1, 0]]}],
    }))
    code, out, _ = run_cli("embed", str(path))
    assert code == 0 and "index           [1, 1]" in out and "classification  per-factor" in out
    code, out, _ = run_cli("--format", "json", "embed", str(path))
    assert code == 0 and json.loads(out)["classification"] == "per-factor"


TOO_LONG_TO_PRINT = "error: a number has more than 4300 digits, more than Python prints\n"


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_cli_index_too_long_to_print(fmt):
    # dim and index of A200 (1, ..., 1) have over 6,000 digits, more than
    # the interpreter's default limit for printing an int
    code, out, err = run_cli("--format", fmt, "index", "A200", ",".join(["1"] * 200))
    assert (code, out, err) == (1, "", TOO_LONG_TO_PRINT)


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_cli_maximal_basis_too_long_to_print(tmp_path, fmt):
    # 10^3000 and 10^-3000 load as Fractions, but the report's basis holds 10^6000
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps({"format": formats.SUBSPACE_FORMAT,
                                "generators": [{"1": "1e3000", "2": "1e-3000"}, {"3": "1"}]}))
    assert run_cli("--format", fmt, "maximal", "gl", str(path)) == (1, "", TOO_LONG_TO_PRINT)


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("fields,where,text", [
    ({"generators": [{"1": "1e4000000", "2": "1"}, {"3": "1"}]}, "generators[0]", "1e4000000"),
    ({"tail_from": 1, "kernels": [{"head": ["1E-5_000"], "tail": "1"}]}, "kernels[0].head[0]",
     "1E-5_000"),
], ids=["generator", "kernel-head"])
def test_cli_huge_exponent_is_a_parse_error(tmp_path, fmt, fields, where, text):
    # Fraction would build 10 ** exponent first: seconds at 4e6, no bound beyond
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps({"format": formats.SUBSPACE_FORMAT, **fields}))
    assert run_cli("--format", fmt, "maximal", "gl", str(path)) == (
        2, "", f"parse error: subspace file: $.{where}: bad rational {text!r}: its exponent is "
        "larger than 4300, the limit on int digits\n")


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_cli_oversized_json_integer_is_a_parse_error(tmp_path, fmt):
    # json.load refuses an int past the digit limit with a plain ValueError
    path = tmp_path / "system.json"
    text = formats.fixture_path("s2.json").read_text(encoding="utf-8")
    path.write_text(text.replace('"mult": 1', '"mult": ' + "1" * 5001, 1))
    code, out, err = run_cli("--format", fmt, "limit", str(path))
    assert (code, out, err) == (2, "", f"parse error: {path}: a JSON integer has more than 4300 digits\n")


def test_cli_handles_only_the_digit_limit_value_error(monkeypatch):
    def printing(args):
        return print(10**5000)

    def broken(args):
        raise ValueError("not about digits")

    _, *rest = cli._COMMANDS["limit"]
    monkeypatch.setitem(cli._COMMANDS, "limit", (printing, *rest))
    assert run_cli("limit", fixture("s2.json")) == (1, "", TOO_LONG_TO_PRINT)
    monkeypatch.setitem(cli._COMMANDS, "limit", (broken, *rest))
    with pytest.raises(ValueError, match="not about digits"):
        run_cli("limit", fixture("s2.json"))


class _FullStdout(io.StringIO):
    """A stdout whose `method` fails as on a full disk."""

    def __init__(self, method):
        super().__init__()
        setattr(self, method, self._full)

    def _full(self, *args):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("argv", [("index", "A1", "1"), ("--format", "json", "limit", fixture("s2.json"))],
                         ids=["index", "limit-json"])
def test_cli_failed_write_is_an_error(method, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(_FullStdout(method)), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (code, err.getvalue()) == (
        1, "error: cannot write the output: [Errno 28] No space left on device\n")


def test_cli_limit_kinds():
    code, out, _ = run_cli("limit", fixture("s1.json"))
    assert code == 0 and "SlInf" in out
    code, out, _ = run_cli("limit", fixture("s3.json"))
    assert code == 0 and out.count("FiniteSimple A1") == 4


def test_cli_exit_codes(tmp_path):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"format": ')
    assert run_cli("limit", str(truncated)) == (
        2, "", f"parse error: {truncated}: invalid JSON at line 1, column 12\n")
    code, _, err = run_cli("limit", fixture("notstab.json"))
    assert code == 3 and "insufficient prefix" in err
    code, _, err = run_cli("index", "A1", "1,1")
    assert code == 2
    for argv in (("index",), ("index", "A1")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err == "parse error: index needs an algebra and a weight, or --embedding FILE\n"
    code, _, err = run_cli("index", "A1", "-1")
    assert code == 1
    code, _, err = run_cli("limit", fixture("commutator.json"))
    assert code == 2
    code, _, err = run_cli("maximal", "gl", "/nonexistent/subspace.json")
    assert code == 2


LONG_LITERAL = "A" + "1" * 5000  # more rank digits than int() converts from a string


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_cli_long_algebra_literal_is_a_parse_error(tmp_path, fmt):
    message = "algebra literal A11111111... has a rank of 5000 digits"
    for argv in (("index", LONG_LITERAL, "1"), ("oracle", "trace", LONG_LITERAL, "1")):
        assert run_cli("--format", fmt, *argv) == (2, "", f"parse error: {message}\n")
    doc = load_fixture("s2.json")
    doc["levels"][0]["components"][0] = LONG_LITERAL
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("--format", fmt, "limit", str(bad)) == (
        2, "", f"parse error: system file: $.levels[0].components[0]: {message}\n")


def _components_null(doc):
    doc["levels"][0]["components"] = None


def _kernels_null(doc):
    doc["kernels"] = None


def _generator_index_x(doc):
    doc["generators"] = [{"x": "1"}]


def _mult_true(doc):
    doc["levels"][0]["ambient_branching"][0]["mult"] = True


def _token_list(doc):
    doc["token"] = ["x"]


@pytest.mark.parametrize(
    "command,name,mutate",
    [
        (("limit",), "s2.json", _components_null),
        (("maximal", "gl"), "codim2_kernel.json", _kernels_null),
        (("maximal", "gl"), "codim2_kernel.json", _generator_index_x),
        (("limit",), "s2.json", _mult_true),
        (("maximal", "gl"), "codim2_kernel.json", _token_list),
    ],
    ids=["components-null", "kernels-null", "generator-index-x", "mult-true", "token-list"],
)
def test_cli_malformed_documents_are_parse_errors(tmp_path, command, name, mutate):
    doc = load_fixture(name)
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(*command, str(bad))
    assert (code, out) == (2, "") and err.startswith("parse error:")


def _no_levels(doc):
    doc["levels"] = []


def _edge_missing(doc):
    doc["edges"].pop()


def _edge_extra(doc):
    doc["edges"].append(doc["edges"][-1])


def _branching_missing(doc):
    doc["edges"][0]["branchings"].pop()


@pytest.mark.parametrize(
    "mutate,message",
    [
        (_no_levels, r"\$\.levels: expected a non-empty list"),
        (_edge_missing, r"\$\.edges: expected 3 edges, one per level gap, got 2"),
        (_edge_extra, r"\$\.edges: expected 3 edges, one per level gap, got 4"),
        (_branching_missing, r"\$\.edges\[0\]\.branchings: expected 2 branchings"),
    ],
    ids=["no-levels", "edge-missing", "edge-extra", "branching-missing"],
)
def test_cli_system_shape_errors_name_the_field(tmp_path, mutate, message):
    doc = load_fixture("s2.json")
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli("limit", str(bad))
    assert (code, out) == (2, "")
    assert re.search(message, err), err


# -- the summand codec's contract ----------------------------------------------


def _cli(*argv):
    """Reads a document as `lielimits --format json <argv> FILE`."""
    def read(doc, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run_cli("--format", "json", *argv, str(path))
    return read


def _parse_report(doc, tmp_path):
    """Reads a report document by parse_report, a ParseError as the CLI prints it."""
    try:
        return 0, formats.parse_report(doc), ""
    except ParseError as exc:
        return 2, "", f"parse error: {exc}\n"


def _two_record_override():
    """example4.json whose level-2 conatural override also holds a trivial summand."""
    doc = load_fixture("example4.json")
    doc["levels"][1]["conatural_branching"].insert(0, {"mult": 1, "weights": [[0, 0]]})
    return doc


def _tensor_report():
    return json.loads(run_cli("--format", "json", "oracle", "tensor", "A2", "1,0", "1,0")[1])


# The summand lists the table below mutates, each of two records: name -> (the document, how it
# is read, the keys of the list, the reader's message up to the list's JSON path).
SUMMAND_LISTS = {
    "ambient": (lambda: load_fixture("s2.json"), _cli("limit"), ("levels", 1, "ambient_branching"),
                "system file: $.levels[1].ambient_branching"),
    "edge": (lambda: load_fixture("s2.json"), _cli("limit"), ("edges", 1, "branchings", 0),
             "system file: $.edges[1].branchings[0]"),
    "conatural": (_two_record_override, _cli("socle"), ("levels", 1, "conatural_branching"),
                  "system file: $.levels[1].conatural_branching"),
    "embedding": (lambda: load_fixture("diag_a5_a11.json"), _cli("embed"), ("branching",),
                  "embedding file: $.branching"),
    "tensor-report": (_tensor_report, _parse_report, ("summands",), "oracle-tensor report: $.summands"),
}


def _second(change):
    """A mutation of the list's second summand record."""
    return lambda summands: [summands[0], change(dict(summands[1]))]


def _first_weight(weight):
    """The second record's first weight replaced: over a rank-2 factor [value, 0] is a label
    fault alone, over the rank-5 factor of the embedding also one of length."""
    return _second(lambda rec: {**rec, "weights": [weight, *rec["weights"][1:]]})


# name -> (mutation of the summand list, exit code, message after the list's path);
# exit 0 means the output equals that of the unmutated document.
SUMMAND_MUTATIONS = {
    "not-a-list": (lambda s: {"weights": [[1, 0], [0, 0]]}, 2,
                   ": expected a list, got {'weights': [[1, 0], [0, 0]]}"),
    "entry-not-a-map": (lambda s: [s[0], 5], 2, "[1]: expected a map, got 5"),
    "missing-weights": (_second(lambda r: {"mult": r["mult"]}), 2, "[1]: missing field 'weights'"),
    "weights-not-a-list": (_second(lambda r: {**r, "weights": "1,0"}), 2,
                           "[1].weights: expected a list, got '1,0'"),
    "label-1.5": (_first_weight([1.5, 0]), 2,
                  "[1].weights[0]: expected a list of integers, got [1.5, 0]"),
    "label-true": (_first_weight([True, 0]), 2,
                   "[1].weights[0]: expected a list of integers, got [True, 0]"),
    "label-x": (_first_weight(["x", 0]), 2,
                "[1].weights[0]: expected a list of integers, got ['x', 0]"),
    # too short and not integers: the label fault is named, not the library's length error
    "weight-x": (_first_weight(["x"]), 2, "[1].weights[0]: expected a list of integers, got ['x']"),
    # over two factors, one weight list short too: the label is still named first
    "lone-weight-x": (_second(lambda r: {**r, "weights": [["x", 0]]}), 2,
                      "[1].weights[0]: expected a list of integers, got ['x', 0]"),
    "string-weights": (_second(lambda r: {**r, "weights": [",".join(map(str, w)) for w in r["weights"]]}),
                       0, None),
    "mult-0": (_second(lambda r: {**r, "mult": 0}), 2, "[1].mult: expected an integer >= 1, got 0"),
    "mult-string": (_second(lambda r: {**r, "mult": "2"}), 2,
                    "[1].mult: expected an integer >= 1, got '2'"),
    "mult-true": (_second(lambda r: {**r, "mult": True}), 2,
                  "[1].mult: expected an integer >= 1, got True"),
    "unknown-key": (_second(lambda r: {**r, "note": "ignored"}), 0, None),
}


@pytest.mark.parametrize("mutation", sorted(SUMMAND_MUTATIONS))
@pytest.mark.parametrize("where", sorted(SUMMAND_LISTS))
def test_summand_codec_mutations(tmp_path, where, mutation):
    document, read, (*outer, key), path = SUMMAND_LISTS[where]
    mutate, code, message = SUMMAND_MUTATIONS[mutation]
    doc = document()
    node = doc
    for k in outer:
        node = node[k]
    unmutated = read(doc, tmp_path)
    assert unmutated[0] == 0
    node[key] = mutate(node[key])
    got = read(doc, tmp_path)
    if code == 0:
        assert got == unmutated
    else:
        assert got == (code, "", f"parse error: {path}{message}\n")


def _maximal_report():
    kernel = SubspaceDescriptor.kernel([ALL_ONES])
    return roundtrip(formats.REPORTS["maximal"].dump(classify_maximal("gl", kernel)))


def _subspace_field(key, value):
    def mutate(doc):
        doc["subspace"][key] = value
    return mutate


def _finite_row(row):
    def mutate(doc):
        doc["perp"] = {"space": "V*", "window": 2, "has_tail": False, "rows": [row]}
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.clear() or doc.update(format=formats.REPORT_FORMAT, kind="index"),
        _subspace_field("rows", None),
        _subspace_field("window", "2"),
        _subspace_field("window", True),
        _subspace_field("window", 0),
        _subspace_field("has_tail", 1),
        _subspace_field("space", "W"),
        _subspace_field("rows", [[]]),
        _subspace_field("rows", [[1]]),
        _finite_row(["1", "1"]),
        _finite_row(["x", "0"]),
        lambda doc: doc.update(witness_vector=[[1]]),
        lambda doc: doc.update(subspace=[1]),
    ],
    ids=[
        "index-missing-algebra", "rows-null", "window-string", "window-bool", "window-zero",
        "has-tail-int", "space-bad", "row-short", "row-numbers", "finite-row-live-tail",
        "row-bad-rational", "witness-vector-short", "subspace-list",
    ],
)
def test_malformed_reports_are_parse_errors(mutate):
    doc = _maximal_report()
    mutate(doc)
    with pytest.raises(ParseError):
        formats.parse_report(doc)


# -- every report kind, field by field ---------------------------------------

# One command per report kind, chosen so that every field of every record
# of the kind's table occurs in its output.
REPORT_COMMANDS = {
    "index": ("index", "A2", "1,1"),
    "embedding": ("embed", fixture("diag_a5_a11.json")),
    "limit": ("limit", fixture("example1.json")),
    "refinement": ("refine", fixture("s1.json")),
    "socle": ("socle", fixture("example1.json")),
    "invariants": ("invariants", fixture("s2.json"), "--subset", "0,1"),
    "maximal": ("maximal", "gl", fixture("codim2_kernel.json")),
    "oracle": ("oracle", "freudenthal", "A2", "1,1"),
    "oracle-trace": ("oracle", "trace", "B2", "1,1"),
    "oracle-tensor": ("oracle", "tensor", "A2", "1,0", "0,1"),
    "oracle-selftest": ("oracle", "selftest", "--seed", "2", "--enum-bound", "4"),
}


def _json_report(kind):
    code, out, err = run_cli("--format", "json", *REPORT_COMMANDS[kind])
    assert (code, err) == (0, ""), err
    return out


def _json_path(loc):
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in loc)


def _schema_names(codec, prefix=""):
    """Dotted name of every field reachable in a table."""
    for key, _, field in codec.fields:
        yield prefix + key
        inner = field.item if field.item is not None else field
        yield from _schema_names(inner, f"{prefix}{key}.")


def _document_fields(codec, node, loc=(), prefix=""):
    """(location of the record, key, field codec, dotted name) of every field
    of every record in a document."""
    for key, _, field in codec.fields:
        yield loc, key, field, prefix + key
        value = node.get(key)
        if isinstance(value, dict) and field.fields:
            yield from _document_fields(field, value, loc + (key,), f"{prefix}{key}.")
        elif isinstance(value, list) and field.item is not None and field.item.fields:
            for i, entry in enumerate(value):
                yield from _document_fields(field.item, entry, loc + (key, i), f"{prefix}{key}.")


def _with(doc, loc, key, value=None, delete=False):
    doc = json.loads(json.dumps(doc))
    node = doc
    for k in loc:
        node = node[k]
    if delete:
        del node[key]
    else:
        node[key] = value
    return doc


def _redumped(kind, typed):
    """The document of a parsed-back report, dumped through the same table."""
    if not isinstance(typed, tuple):
        return formats.REPORTS[kind].dump(typed)
    if kind == "limit":  # the typed limit report leaves out the fields shown for display
        alpha, beta, constituents = typed
        typed = ((), alpha, beta, (), (), constituents)
    report = SimpleNamespace()
    names = [attr for _, attr, _ in formats.REPORTS[kind].fields if attr]
    for name, value in zip(names, typed):  # a dotted name, e.g. graph.alpha, is a nested one
        *outer, last = name.split(".")
        node = report
        for part in outer:
            node = vars(node).setdefault(part, SimpleNamespace())
        setattr(node, last, value)
    return formats.REPORTS[kind].dump(report)


def test_report_commands_cover_every_kind():
    assert sorted(REPORT_COMMANDS) == sorted(formats.REPORTS)


@pytest.mark.parametrize("kind", sorted(REPORT_COMMANDS))
def test_every_cli_report_reparses(kind):
    out = _json_report(kind)
    doc = json.loads(out)
    assert doc["kind"] == kind and formats.dumps(doc) == out
    typed = formats.parse_report(doc)
    if kind == "limit":
        doc = {**doc, "levels": [], "level_sums": [], "stabilization": []}
    assert _redumped(kind, typed) == doc


@pytest.mark.parametrize("kind", sorted(REPORT_COMMANDS))
def test_report_fields_per_schema(kind):
    doc = json.loads(_json_report(kind))
    table = formats.REPORTS[kind]
    fields = list(_document_fields(table, doc))
    assert {name for *_, name in fields} == set(_schema_names(table))
    for loc, key, field, _ in fields:
        where = _json_path(loc)
        deleted = _with(doc, loc, key, delete=True)
        if field.default is formats.REQUIRED:
            with pytest.raises(ParseError) as exc:
                formats.parse_report(deleted)
            assert f"{where}: missing field {key!r}" in str(exc.value)
        else:
            explicit = _with(doc, loc, key, field.dump(field.default))
            assert formats.parse_report(deleted) == formats.parse_report(explicit)
        node = doc
        for k in loc:
            node = node[k]
        other = "x" if isinstance(node[key], (list, dict)) else [1]
        with pytest.raises(ParseError) as exc:
            formats.parse_report(_with(doc, loc, key, other))
        assert f"{_json_path(loc + (key,))}:" in str(exc.value)


def test_parse_errors_name_the_json_path():
    doc = load_fixture("s2.json")
    doc["levels"][0]["ambient_branching"][1]["mult"] = "2"
    with pytest.raises(ParseError, match=r"^system file: \$\.levels\[0\]\.ambient_branching\[1\]"
                                         r"\.mult: expected an integer >= 1, got '2'$"):
        formats.system_from_doc(doc)
    doc = load_fixture("s2.json")
    doc["edges"][0]["branchings"][0][0]["weights"].append([0])
    with pytest.raises(ParseError, match=r"\$\.edges\[0\]\.branchings\[0\]\[0\]\.weights: "):
        formats.system_from_doc(doc)


# -- unreadable files and non-finite numbers ----------------------------------


def _directory(tmp_path):
    return tmp_path


def _latin1_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"format": "lielimits-subspace/1", "space": "V\xe9"}'.encode("latin-1"))
    return path


def _deeply_nested_file(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    return path


@pytest.mark.parametrize("make", [_directory, _latin1_file, _deeply_nested_file],
                         ids=["directory", "not-utf8", "deeply-nested"])
def test_unreadable_files_are_parse_errors(tmp_path, make):
    path = make(tmp_path)
    code, out, err = run_cli("maximal", "gl", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: cannot read {path}: ")


@pytest.mark.parametrize(
    "text",
    ['"generators": [{"1": Infinity}]', '"generators": [{"1": 1e999}]',
     '"kernels": [{"head": [-Infinity], "tail": 0}]'],
    ids=["infinity", "overflowing-float", "negative-infinity-head"],
)
def test_non_finite_rationals_are_parse_errors(tmp_path, text):
    path = tmp_path / "subspace.json"
    path.write_text('{"format": "lielimits-subspace/1", "tail_from": 3, %s}' % text)
    code, out, err = run_cli("maximal", "gl", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: subspace file: $.") and "bad rational" in err


def test_cli_weight_rank_is_checked_once():
    message = "parse error: weight '1,1' has 2 labels, A1 has rank 1\n"
    assert run_cli("index", "A1", "1,1") == (2, "", message)
    assert run_cli("oracle", "trace", "A1", "1,1") == (2, "", message)


def test_cli_eq4_violation_names_level(tmp_path):
    # consistent dimensions everywhere, but the labels break the sum law:
    # alpha_1 = 2 while the only edge carries beta = 1 onto alpha_2 = 1
    doc = {
        "format": formats.SYSTEM_FORMAT,
        "levels": [
            {"components": ["A1"], "ambient": "A3",
             "ambient_branching": [{"weights": [[1]], "mult": 2}]},
            {"components": ["A3"], "ambient": "A3",
             "ambient_branching": [{"weights": [[1, 0, 0]], "mult": 1}]},
        ],
        "edges": [
            {"branchings": [[{"weights": [[1]], "mult": 1},
                             {"weights": [[0]], "mult": 2}]]}
        ],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli("limit", str(bad))
    assert code == 1
    assert "inconsistent system at level 1" in err


def test_cli_dimension_mismatch_is_domain_error(tmp_path):
    doc = load_fixture("s1.json")
    doc["levels"][-1]["ambient_branching"][0]["mult"] = 2
    bad = tmp_path / "bad_dim.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli("limit", str(bad))
    assert code == 1 and "dimension" in err


def test_cli_refine_restricted():
    code, out, _ = run_cli("refine", fixture("s2.json"), "--constituent", "1")
    assert code == 0 and "all standard from level 1" in out
    code, _, _ = run_cli("refine", fixture("s2.json"))
    assert code == 1


def test_cli_socle_example4():
    code, out, _ = run_cli("socle", fixture("example4.json"))
    assert code == 0
    assert "k=1 l=0" in out and "dim N=finite(1)" in out and "dim N*=finite(0)" in out


@pytest.mark.parametrize("command", ["socle", "invariants"])
def test_cli_unmirrored_conatural_override_is_domain_error(tmp_path, command):
    # the override claims the natural where the primal branching's one
    # natural needs the conatural on the dual side
    doc = load_fixture("example4.json")
    doc["levels"][4]["conatural_branching"] = [{"mult": 1, "weights": [[1, 0, 0, 0, 0]]}]
    bad = tmp_path / "bad_override.json"
    bad.write_text(json.dumps(doc))
    message = ("error: conatural override at level 5 carries multiplicities (1,0), "
               "expected the mirror of (1,0)\n")
    assert run_cli(command, str(bad)) == (1, "", message)


def test_cli_maximal_cases():
    for name, kind, expect in (
        ("codim1_kernel.json", "gl", "ib"),
        ("codim1_kernel_dual.json", "gl", "ib"),
        ("tail2.json", "gl", "ic"),
        ("commutator.json", "gl", "ia"),
        ("so_form.json", "sl", "iia"),
        ("tail5.json", "so", "iiia"),
        ("codim1_kernel.json", "so", "iiib"),
        ("isotropic_line.json", "sp", "iiic"),
        ("dim2_nondeg.json", "so", "NotMaximal"),
        ("codim2_kernel.json", "gl", "NotMaximal"),
        ("nonclosed_tail.json", "gl", "NotMaximal"),
    ):
        code, out, _ = run_cli("maximal", kind, fixture(name))
        assert code == 0, (name, kind)
        assert f"tag      {expect}" in out, (name, kind, out)


def test_cli_oracle_ops():
    code, out, _ = run_cli("oracle", "freudenthal", "A1", "2")
    assert code == 0 and "total 3" in out
    code, out, _ = run_cli("oracle", "trace", "A1", "3")
    assert code == 0 and "10" in out
    code, out, _ = run_cli("oracle", "tensor", "A1", "1", "1")
    assert code == 0 and "0 x1" in out and "2 x1" in out
    code, out, _ = run_cli("oracle", "selftest", "--seed", "3", "--enum-bound", "8")
    assert code == 0
    # a bound of 1 skips every draw but the trivial product
    assert run_cli("--dim-bound", "1", "oracle", "selftest") == (
        0, "1 consistency checks passed (seed 0)\n", "")


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_cli_oracle_selftest_fails_on_a_wrong_index(monkeypatch, fmt):
    real = cli.index_of_irrep
    monkeypatch.setattr(cli, "index_of_irrep", lambda alg, lam: real(alg, lam) + 1)
    # the first draw of seed 0: index 26 by the summands, 37 by the (wrong) product rule
    assert run_cli("--format", fmt, "oracle", "selftest") == (
        1, "", "error: oracle selftest failed at A2 (1, 0) (1, 1): 26 vs 37, trace_ok=False\n")


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_cli_oracle_selftest_rejects_arguments(fmt):
    # like `oracle trace A1 3 extra`: surplus operands are a usage error
    expected = (2, "", "parse error: oracle selftest expects 0 arguments\n")
    assert run_cli("--format", fmt, "oracle", "selftest", "foo", "bar") == expected
    assert run_cli("--format", fmt, "oracle", "trace", "A1", "3", "extra")[0] == 2


def test_cli_invariants_subsets():
    code, out, _ = run_cli("invariants", fixture("s2.json"), "--subset", "0,1")
    assert code == 0 and "J=[0, 1]" in out
    code, _, _ = run_cli("invariants", fixture("s2.json"), "--subset", "0,x")
    assert code == 2


def test_cli_json_deterministic():
    script = (
        "import sys; from lielimits.cli import main; "
        "sys.exit(main(['--format','json','limit',sys.argv[1]]))"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", script, fixture("s2.json")],
            capture_output=True,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout
    parsed = json.loads(runs[0].stdout.decode())
    assert parsed["format"] == formats.REPORT_FORMAT


def test_cli_seeded_selftest_deterministic():
    one = run_cli("--format", "json", "--seed", "11", "oracle", "selftest")
    two = run_cli("--format", "json", "--seed", "11", "oracle", "selftest")
    other = run_cli("--format", "json", "--seed", "12", "oracle", "selftest")
    assert one == two
    assert one[1] != other[1]


# -- seeded single-field mutations of input documents ------------------------

MUTATION_VALUES = (
    None, True, False, 0, -1, 2, 1.5, "", "x", "A0", "A2", "B1", "-1", "1/0", "1/2",
    [], [0], ["x"], [[1]], {}, {"x": 1},
)
MUTATION_TARGETS = (
    ("s2.json", (["limit"], ["socle"], ["invariants"], ["refine"])),
    ("codim2_kernel.json", (["maximal", "gl"], ["maximal", "sl"], ["maximal", "so"])),
    ("dim2_nondeg.json", (["maximal", "so"], ["maximal", "sp"], ["maximal", "gl"])),
    ("diag_a5_a11.json", (["embed"],)),
)


def _doc_paths(node, path=()):
    """Every position in a JSON document, as a key/index path (root excluded)."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _doc_paths(child, path + (key,))


def _mutated(doc, path, value, delete):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_seeded_document_mutations_exit_cleanly(tmp_path):
    # Each mutation replaces or deletes one field of a shipped input and runs
    # a command on it: only LieLimitsError may surface, as exit code 1, 2 or 3.
    rng = random.Random(20261018)
    docs = {name: load_fixture(name) for name, _ in MUTATION_TARGETS}
    paths = {name: list(_doc_paths(doc)) for name, doc in docs.items()}
    bad = tmp_path / "mutated.json"
    leaks, codes = [], set()
    for i in range(400):
        name, commands = MUTATION_TARGETS[i % len(MUTATION_TARGETS)]
        path = rng.choice(paths[name])
        delete = rng.random() < 0.15
        value = rng.choice(MUTATION_VALUES)
        bad.write_text(json.dumps(_mutated(docs[name], path, value, delete)))
        argv = rng.choice(commands) + [str(bad)]
        case = (name, path, "delete" if delete else value, argv[0])
        try:
            code, _, _ = run_cli("--format", "json", *argv)
        except Exception as exc:  # noqa: BLE001 -- any escape is the failure
            leaks.append(case + (repr(exc),))
            continue
        codes.add(code)
        if code not in (0, 1, 2, 3):
            leaks.append(case + (f"exit {code}",))
    assert leaks == []
    assert {1, 2} <= codes  # the mutations reach both validation layers


# -- the argument parser's contract ------------------------------------------

COMMAND_HELP = {
    "index": "Dynkin index of an irreducible or an embedding",
    "embed": "index vector and classification of an embedding file",
    "limit": "decompose a direct system prefix",
    "refine": "nested simple ideals when the limit is simple",
    "socle": "socle report of the natural modules",
    "invariants": "standard invariants of the system",
    "maximal": "maximality classification of a stabilizer",
    "oracle": "independent verification values",
}
COMMAND_ARGUMENTS = {
    "index": ("algebra", "weight", "--embedding FILE"),
    "embed": ("FILE",),
    "limit": ("FILE",),
    "refine": ("FILE", "--constituent CONSTITUENT"),
    "socle": ("FILE",),
    "invariants": ("FILE", "--subset SUBSET"),
    "maximal": ("{gl,sl,so,sp}", "FILE"),
    "oracle": ("{freudenthal,trace,tensor,selftest}", "args"),
}
GLOBAL_OPTIONS = ("--format {human,json}", "--seed SEED", "--dim-bound DIM_BOUND",
                  "--enum-bound ENUM_BOUND")


def _help_text(capsys, monkeypatch, *argv):
    monkeypatch.setenv("COLUMNS", "200")  # keep every help string on one line
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [(), ("bogus", "FILE"), ("maximal", "xx", "FILE"), ("--seed", "abc", "index", "A1", "1"),
     ("limit",)],
    ids=["no-command", "unknown-command", "maximal-bad-kind", "seed-not-int", "limit-no-path"],
)
def test_cli_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage: lielimits" in err


def test_cli_help_lists_every_command(capsys, monkeypatch):
    out = _help_text(capsys, monkeypatch, "--help")
    for name, text in COMMAND_HELP.items():
        assert any(line.split() == [name, *text.split()] for line in out.splitlines()), name
    for option in GLOBAL_OPTIONS:
        assert option in out


@pytest.mark.parametrize("name", sorted(COMMAND_ARGUMENTS))
def test_cli_command_help_names_its_arguments(capsys, monkeypatch, name):
    out = _help_text(capsys, monkeypatch, name, "--help")
    assert out.startswith(f"usage: lielimits {name} ")
    for argument in COMMAND_ARGUMENTS[name] + GLOBAL_OPTIONS:
        assert argument in out, argument


GLOBAL_VALUES = ("--format", "json", "--seed", "4", "--dim-bound", "900", "--enum-bound", "6")


@pytest.mark.parametrize(
    "argv, same_as",
    [
        # all given before the command, or all after it
        *[((*GLOBAL_VALUES, *command), (*command, *GLOBAL_VALUES)) for command in (
            ("limit", fixture("s2.json")), ("index", "A2", "1,1"),
            ("maximal", "so", fixture("dim2_nondeg.json")), ("oracle", "selftest"))],
        # given on both sides: the value after the command wins
        (("--seed", "1", "--format", "json", "oracle", "selftest", "--seed", "2", "--format", "human"),
         ("oracle", "selftest", "--seed", "2")),
        # given nowhere: human output, seed 0, 20 draws and a dimension bound of 5000
        (("oracle", "selftest"), (0, "20 consistency checks passed (seed 0)\n", "")),
        (("oracle", "trace", "A1", "5000"),
         (1, "", "error: dimension 5001 of (5000,) over A1 exceeds the configured bound 5000\n")),
    ],
    ids=["limit", "index", "maximal", "selftest", "both-sides", "nowhere", "nowhere-dim-bound"],
)
def test_cli_global_options_before_or_after_the_command(argv, same_as):
    """`same_as` is another argv with the same output, or the output itself."""
    got = run_cli(*argv)
    if isinstance(same_as[0], str):
        assert got[0] == 0 and got[1]
        assert got == run_cli(*same_as)
    else:
        assert got == same_as


def test_module_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "lielimits", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert all(name in proc.stdout for name in COMMAND_HELP)


@pytest.mark.parametrize(
    "argv",
    [("--dim-bound", "0", "index", "A1", "1"), ("index", "A1", "1", "--dim-bound", "0"),
     ("--enum-bound", "-1", "oracle", "selftest"), ("oracle", "selftest", "--enum-bound", "-1")],
    ids=["dim-bound-before", "dim-bound-after", "enum-bound-before", "enum-bound-after"],
)
def test_cli_nonpositive_bounds_are_domain_errors(argv):
    assert run_cli(*argv) == (1, "", "error: resource bounds must be positive\n")


# One valid call of every command.
ONE_CALL_EACH = (
    ("index", "A2", "1,1"),
    ("embed", fixture("std_a5_a9.json")),
    ("limit", fixture("s1.json")),
    ("refine", fixture("s1.json")),
    ("socle", fixture("s1.json")),
    ("invariants", "--subset", "0", fixture("example4.json")),
    ("--format", "json", "maximal", "so", fixture("dim2_nondeg.json")),
    ("oracle", "selftest", "--enum-bound", "3"),
)


def test_one_call_builds_at_most_two_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli, "_PARSERS", {})  # as a fresh process starts
    for argv in ONE_CALL_EACH:
        built.clear()
        assert run_cli(*argv)[0] == 0
        assert len(built) <= 2, built
    caches = {id(v): v for name, module in list(sys.modules.items())  # as bench/worker.py finds them
              if name.split(".")[0] == "lielimits" and module is not None
              for v in vars(module).values() if hasattr(v, "cache_clear")}.values()
    assert freudenthal in caches
    for clear in (False, True):  # a repeat builds none, also with every cache cleared first
        for argv in ONE_CALL_EACH:
            if clear:
                for cache in caches:
                    cache.cache_clear()
            built.clear()
            assert run_cli(*argv)[0] == 0
            assert built == [], argv
    script = (  # and importing the CLI builds none
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import lielimits.cli\n"
        "print(built)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_a_reused_parser_carries_nothing_between_calls(monkeypatch):
    """Each call of one process answers as the same argv does alone in a new one."""
    sequence = (
        ("--format", "json", "limit", fixture("s2.json")),
        ("limit", fixture("s2.json")),
        ("invariants", "--subset", "0", fixture("example4.json")),
        ("invariants", fixture("example4.json")),
        ("refine", "--constituent", "0", fixture("s2.json")),
        ("refine", fixture("s2.json")),
        ("maximal", "xx", fixture("dim2_nondeg.json")),
        ("maximal", "so", fixture("dim2_nondeg.json")),
        ("maximal", "gl", fixture("dim2_nondeg.json")),
        ("maximal", "--help"),
    )
    monkeypatch.setenv("COLUMNS", "73")
    monkeypatch.setattr(cli, "_PARSERS", {})
    codes = []
    for argv in sequence:
        alone = subprocess.run([sys.executable, "-m", "lielimits", *argv],
                               capture_output=True, text=True)
        expected = (alone.returncode, alone.stdout, alone.stderr)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # --help and usage errors
                code = exc.code
        assert (code, out.getvalue(), err.getvalue()) == expected, argv
        codes.append(expected[0])
    assert codes == [0, 0, 0, 0, 0, 1, 2, 0, 0, 0]


# -- the report writer writes json's indented bytes ----------------------------


def _json_reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70)
           | st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", " ", "😀"]))
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.lists(st.integers(), max_size=5) | st.lists(st.text(), max_size=5)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=5)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, database=None)
@given(_DOCUMENTS)
def test_dumps_writes_the_bytes_of_json_indent_2(doc):
    assert formats.dumps(doc) == _json_reference(doc)


def _fixture_commands():
    """limit, refine, socle and invariants on every system fixture, maximal
    under every kind on every subspace fixture, and embed on the embeddings."""
    for path in sorted(formats.fixture_path("s1.json").parent.glob("*.json")):
        kind = json.loads(path.read_text())["format"]
        if kind == formats.SYSTEM_FORMAT:
            yield from ((command, str(path)) for command in ("limit", "refine", "socle", "invariants"))
        elif kind == formats.SUBSPACE_FORMAT:
            yield from (("maximal", algebra, str(path)) for algebra in ("gl", "sl", "so", "sp"))
        else:
            yield "embed", str(path)


def test_every_fixture_report_is_written_as_json_writes_it():
    kinds = set()
    for command in _fixture_commands():
        code, out, err = run_cli("--format", "json", *command)
        if code == 0:
            doc = json.loads(out)
            kinds.add(doc["kind"])
            assert out == formats.dumps(doc) == _json_reference(doc), command
    assert kinds == {"limit", "refinement", "socle", "invariants", "maximal", "embedding"}


@pytest.mark.parametrize("doc", [1.5, [1, 2.0], {"a": {1: 2}}, {1: "x"}, {"a": object()}])
def test_dumps_rejects_what_reports_never_hold(doc):
    with pytest.raises(TypeError):
        formats.dumps(doc)
