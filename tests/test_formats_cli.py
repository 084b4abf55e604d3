import json
import subprocess
import sys

import pytest

from conftest import A, graph_from_fixture, load_fixture
from lielimits import formats
from lielimits.cli import main
from lielimits.errors import ParseError
from lielimits.socle import socle_report, standard_invariants
from lielimits.subspaces import (
    ALL_ONES,
    StandardForm,
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
    w = SubspaceDescriptor.build(
        "V", generators=[{1: "1/2", 3: -2}], tail_from=4, kernels=[ALL_ONES]
    )
    doc = roundtrip(formats.descriptor_to_doc(w))
    assert formats.descriptor_from_doc(doc) == w


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
    limit_doc = roundtrip(formats.limit_report(g, cs, sums, stab))
    alpha, beta, constituents = formats.parse_report(limit_doc)
    assert alpha == g.alpha and beta == g.beta
    assert constituents == tuple(cs)

    socle_doc = roundtrip(formats.socle_report_doc(socle_report(g)))
    assert formats.parse_report(socle_doc) == socle_report(g)

    inv_doc = roundtrip(formats.invariants_report_doc(standard_invariants(g)))
    assert formats.parse_report(inv_doc) == standard_invariants(g)

    ref = extract_refinement(graph_from_fixture("s1.json"))
    ref_doc = roundtrip(formats.refinement_report(ref))
    assert formats.parse_report(ref_doc) == ref

    verdict = classify_maximal("so", SubspaceDescriptor.tail(5), StandardForm("symmetric"))
    v_doc = roundtrip(formats.verdict_report(verdict))
    assert formats.parse_report(v_doc) == verdict

    ms = freudenthal(A(2), (1, 1))
    ms_doc = roundtrip(formats.multiset_report(ms))
    assert formats.parse_report(ms_doc) == ms


def run_cli(*argv):
    from io import StringIO
    import contextlib

    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fixture(name):
    return str(formats.fixture_path(name))


def test_cli_index():
    code, out, _ = run_cli("index", "A1", "2")
    assert code == 0 and "index     4" in out
    code, out, _ = run_cli("index", "A2", "1,1")
    assert code == 0 and "index     6" in out
    code, out, _ = run_cli("index", "--embedding", fixture("std_a5_a9.json"))
    assert code == 0 and "Standard" in out


def test_cli_embed_and_classification():
    code, out, _ = run_cli("embed", fixture("diag_a5_a11.json"))
    assert code == 0 and "Diagonal(k=1, l=1, t=0)" in out


def test_cli_limit_kinds():
    code, out, _ = run_cli("limit", fixture("s1.json"))
    assert code == 0 and "SlInf" in out
    code, out, _ = run_cli("limit", fixture("s3.json"))
    assert code == 0 and out.count("FiniteSimple A1") == 4


def test_cli_exit_codes():
    code, _, err = run_cli("limit", fixture("notstab.json"))
    assert code == 3 and "insufficient prefix" in err
    code, _, err = run_cli("index", "A1", "1,1")
    assert code == 2
    code, _, err = run_cli("index", "A1", "-1")
    assert code == 1
    code, _, err = run_cli("limit", fixture("commutator.json"))
    assert code == 2
    code, _, err = run_cli("maximal", "gl", "/nonexistent/subspace.json")
    assert code == 2


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


def _maximal_report():
    kernel = SubspaceDescriptor.kernel([ALL_ONES])
    return roundtrip(formats.verdict_report(classify_maximal("gl", kernel)))


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
