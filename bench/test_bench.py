"""Tests of the benchmark itself (not part of the library's suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
from tracer import Tracer  # noqa: E402

from lielimits import formats  # noqa: E402
from lielimits.socle import multiplicities, socle_report  # noqa: E402
from lielimits.subspaces import StandardForm, classify_maximal  # noqa: E402
from lielimits.system import compute_labels, decompose  # noqa: E402

FORMS = {"so": StandardForm("symmetric"), "sp": StandardForm("symplectic")}


def small_systems(seed=5):
    rng = random.Random(seed)
    for depth, width, cls, diagonal, finite in generate.CHAIN_DESIGN:
        yield generate.chain_system(rng, min(depth, 9), width, cls, diagonal, finite)


def test_generated_systems_satisfy_the_sum_law():
    for doc, _ in small_systems():
        graph = compute_labels(*formats.system_from_doc(doc))
        for n in range(1, graph.top):
            for j in range(len(graph.components_at(n))):
                total = sum(b * graph.alpha[(n + 1, k)] for k, b in graph.out_edges(n, j))
                assert total == graph.alpha[(n, j)]


def test_expected_constituents_match_the_library():
    for doc, expected in small_systems(seed=6):
        graph = compute_labels(*formats.system_from_doc(doc))
        constituents = decompose(graph)
        assert [c.kind for c in constituents] == [e["kind"] for e in expected]
        for c, e in zip(constituents, expected):
            if c.is_infinite():
                assert multiplicities(graph, c) == (e["k"], e["l"])
            else:
                assert str(c.algebra) == e["algebra"]
        socle_report(graph)


def test_expected_tags_match_the_library():
    rng = random.Random(7)
    for n, tails in generate.KERNEL_DESIGN[:8]:
        for _ in range(3):
            kind, doc, tag = generate.kernel_input(rng, n, tails)
            w = formats.subspace_input_from_doc(doc)
            assert classify_maximal(kind, w).tag == tag
    for window, variant, count in generate.SPAN_DESIGN:
        kind, doc, tag = generate.span_input(rng, variant, min(window, 30), count)
        verdict = classify_maximal(kind, formats.subspace_input_from_doc(doc), FORMS.get(kind))
        if tag is not None:
            assert verdict.tag == tag
    for name, kind, tag in generate.MAXIMAL_FIXTURES:
        w = formats.subspace_input_from_doc(formats.load_json(formats.fixture_path(name)))
        assert classify_maximal(kind, w, FORMS.get(kind)).tag == tag


def test_tracer_restores_every_attribute():
    import lielimits.cli  # noqa: F401
    from lielimits import algebras, cli, oracle, subspaces

    def snapshot():
        mods = {n: m for n, m in sys.modules.items() if n == "lielimits" or n.startswith("lielimits.")}
        state = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
        state.update({("SubspaceDescriptor", k): v for k, v in vars(subspaces.SubspaceDescriptor).items()})
        return state

    before = snapshot()
    tracer = Tracer()
    with tracer:
        assert cli.dimension is not before[("lielimits.algebras", "dimension")]
        assert algebras.dimension is cli.dimension
        oracle.freudenthal.cache_info()
        tracer.active = True
        with tracer.span("op"):
            verdict = subspaces.classify_maximal(
                "so", subspaces.SubspaceDescriptor.span([{1: 1}, {3: 1}]), FORMS["so"])
        tracer.active = False
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert verdict.tag == "iiic"
    totals = tracer.totals()
    assert totals["subspaces.classify_maximal"]["calls"] == 1
    assert all(t["self_s"] <= t["incl_s"] for t in totals.values())
    # self times partition the root span
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(totals["op"]["incl_s"])


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workload in [w["name"] for w in spec["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()}
    layers = result["metrics"]
    calls = {name: m["value"] for name, m in layers.items() if name.endswith(".calls")}
    if workload != "oracle_sweep":
        assert not any(v for name, v in calls.items() if name.startswith("oracle."))
    else:
        assert not any(v for name, v in calls.items() if name.startswith(("system.", "subspaces.")))


def test_refuses_to_run_without_the_library(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout


def test_scaled_latency_follows_the_reference():
    import worker

    # the same op on a host twice as slow: double wall time, double reference
    fast = [(10_000_000, b"", 0, None, 2_000_000)] * 5
    slow = [(20_000_000, b"", 0, None, 4_000_000)] * 5
    assert worker.scaled_ms(fast) == worker.scaled_ms(slow) == [10 / 2 * worker.REFERENCE_MS] * 5
