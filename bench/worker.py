"""One timed run of one workload, in a fresh interpreter.

The worker times `import lielimits, lielimits.cli` first, then runs the ops
of a manifest written by generate.py as a closed loop: one caller, the next
op only after the previous one returned.  Every op starts with cold library
caches, as a command-line user's does.  The loop makes passes over the op
list until the next pass would end after `--seconds`; an op's latency is the
median over the passes.  Each op's correctness check runs on the first pass, after
its clock stops; later passes must reproduce its output byte for byte.
After each pass a fresh interpreter times the import again, for setup_s.
Every time is reported at the speed of a reference host: scaled by a fixed
pure-Python reference loop timed next to it (see REFERENCE_MS).

With --trace it then runs one more pass with the tracer active.  Per-layer
figures come from that traced pass, the latency per input-size bucket from
the untraced ones.  With --import-only it reports the import time and exits.

    PYTHONPATH=src python3 bench/worker.py --manifest DIR/manifest.json --seconds 50
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import lielimits  # noqa: E402
import lielimits.cli  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from lielimits import algebras, cli, formats, index, oracle, subspaces  # noqa: E402

# Size buckets for the traced run: powers of two for depth, head length and
# window, powers of four for irrep dimension.
BUCKETS = {"L": (2, (4, 8, 16, 32)), "N": (2, (8, 16, 32, 64)), "W": (2, (8, 16, 32, 64)),
           "dim": (4, (1, 4, 16, 64, 256))}

# Latencies are reported at the speed of a host on which reference_loop()
# takes this many milliseconds.  The reference runs before every op, and an
# op is scaled by the median reference time of the NEAR_OPS ops on either
# side of it, so that the host's slow spells (its speed swings by up to 2x
# over tens of seconds) drop out of the figures.
REFERENCE_MS = 3.0
NEAR_OPS = 2

# A NotMaximal verdict without its witness is an incomplete answer, not a
# wrong one: it counts as a failed op but leaves the run correct.
INCOMPLETE = "no_witness"


def library_caches():
    """Every lru_cache of the library, found by its cache_clear method."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "lielimits" or name.startswith("lielimits.")):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value not in found:
                found.append(value)
    return found


class Runner:
    def __init__(self, ops: list[dict], tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.caches = library_caches()
        self.freudenthal_stats = [0, 0]

    def reset_caches(self):
        """Start cold, as a fresh command-line process would, after adding
        the Freudenthal cache counts to this runner's."""
        info = oracle.freudenthal.cache_info()
        self.freudenthal_stats[0] += info.hits
        self.freudenthal_stats[1] += info.misses
        for fn in self.caches:
            fn.cache_clear()

    # -- ops -----------------------------------------------------------------

    def execute(self, op):
        """Run one op; returns (exit code, stdout text, stderr text)."""
        kind = op["op"]
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op["argv"])
            return code, out.getvalue(), err.getvalue()
        alg = algebras.SimpleAlgebra.parse(op["alg"])
        if kind == "irrep":
            lam = tuple(op["weight"])
            result = [index.index_of_irrep(alg, lam), oracle.trace_index(alg, lam)]
        elif kind == "enumerate":
            result = [list(w) for w in algebras.dominant_weights_up_to_dim(alg, op["bound"])]
        else:
            left, right = tuple(op["left"]), tuple(op["right"])
            product = oracle.tensor_decompose(alg, left, right)
            dl, dr = algebras.dimension(alg, left), algebras.dimension(alg, right)
            result = {
                "summands": formats.decomposition_to_doc(product),
                "dim": sum(s.mult * algebras.dimension(alg, s.weights[0]) for s in product.summands),
                "index": index.index_of_module(product, 0),
                "rule": dr * index.index_of_irrep(alg, left) + dl * index.index_of_irrep(alg, right),
            }
        return 0, json.dumps(result, sort_keys=True), ""

    def check(self, op, code, out, err):
        """None when the op's answer holds, else the reason it failed."""
        if code != op.get("exit", 0):
            return f"exit {code}, expected {op.get('exit', 0)}: {err.strip()[:200]}"
        expect = op.get("expect", {})
        kind = op["op"]
        if kind == "irrep":
            a, b = json.loads(out)
            return None if a == b else f"index {a} != trace index {b}"
        if kind == "enumerate":
            return None if json.loads(out) == expect["weights"] else "enumeration differs"
        if kind == "tensor":
            r = json.loads(out)
            if r["dim"] != expect["dim"]:
                return f"tensor dimension {r['dim']} != {expect['dim']}"
            return None if r["index"] == r["rule"] else f"index {r['index']} != product rule {r['rule']}"
        if code != 0:
            return None if err and not out else "error exit must write stderr only"
        doc = json.loads(out)
        if formats.dumps(doc) != out:
            return "report does not re-serialize to the same bytes"
        typed = formats.parse_report(doc)
        if doc["kind"] == "maximal":
            return self._check_verdict(op, typed)
        want = expect.get("constituents")
        if want is None:
            return None
        infinite = [(j, c) for j, c in enumerate(want) if c["kind"] != "FiniteSimple"]
        if doc["kind"] == "limit":
            got = [(c.kind, str(c.algebra) if c.algebra else None) for c in typed[2]]
            if got != [(c["kind"], c["algebra"]) for c in want]:
                return f"constituents {got}"
        elif doc["kind"] == "socle":
            got = [(r.kind, r.k, r.l) for r in typed.constituents]
            if got != [(c["kind"], c["k"], c["l"]) for _, c in infinite]:
                return f"socle rows {got}"
            finite = sorted((r.cid, tuple(r.weight), r.mult) for r in typed.finite_part)
            if finite != _finite_rows(want):
                return f"finite part {finite}"
        elif doc["kind"] == "invariants":
            got = [tuple(p) for p in typed.multiplicity_pairs]
            if got != [(j, c["k"], c["l"]) for j, c in infinite]:
                return f"multiplicity pairs {got}"
        return None

    def _check_verdict(self, op, verdict):
        expect = op.get("expect", {})
        if expect.get("tag") is not None and verdict.tag != expect["tag"]:
            return f"tag {verdict.tag}, expected {expect['tag']}"
        if expect.get("perp3"):
            kind = op["argv"][-2]
            ctx = {"so": subspaces.StandardForm("symmetric"),
                   "sp": subspaces.StandardForm("symplectic")}.get(kind, subspaces.GL_PAIRING)
            p = verdict.perp_space
            if subspaces.perp(subspaces.perp(p, ctx), ctx) != p:
                return "perp of the double perp differs from the perp"
        if verdict.tag == "NotMaximal" and verdict.witness is None:
            return INCOMPLETE
        return None

    # -- loop ------------------------------------------------------------------

    def run_pass(self, checked=True):
        """Run every op once, each with cold caches, after one timed run of
        the reference loop and a garbage collection.  Returns one record per
        op: (ns, stdout sha256, stdout bytes, failure or None, reference ns)."""
        records = []
        for op in self.ops:
            self.reset_caches()
            start = time.perf_counter_ns()
            reference_loop()
            reference = time.perf_counter_ns() - start
            gc.collect()
            failure = None
            with self.tracer.span("op") if self.tracer else contextlib.nullcontext():
                start = time.perf_counter_ns()
                try:
                    code, out, err = self.execute(op)
                except Exception as exc:  # one bad op must not end the run
                    code, out, err = None, "", f"{type(exc).__name__}: {exc}"
                    failure = f"raised {err[:200]}"
                elapsed = time.perf_counter_ns() - start
            if failure is None and checked:
                try:
                    failure = self.check(op, code, out, err)
                except Exception as exc:
                    failure = f"check raised {type(exc).__name__}: {exc}"[:200]
            out = out.encode()
            records.append((elapsed, hashlib.sha256(out).digest(), len(out), failure, reference))
        self.reset_caches()
        return records


def reference_loop():
    """A fixed piece of pure-Python work (fraction arithmetic, a small dict,
    an integer loop) that never calls the library: the yardstick of the
    host's speed at the moment."""
    acc, seen = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        seen[i, i % 3] = acc
    total = 0
    for i in range(20000):
        total += i * i % 11
    return acc, total


def scaled_ms(records) -> list[float]:
    """Each op's latency at the reference speed: its wall time times
    REFERENCE_MS over the median reference time of the ops around it."""
    refs = [r[4] for r in records]
    out = []
    for i, r in enumerate(records):
        near = refs[max(0, i - NEAR_OPS):i + NEAR_OPS + 1]
        out.append(r[0] / statistics.median(near) * REFERENCE_MS)
    return out


def timed_passes(runner: Runner, seconds: float):
    """Run passes over the op list until the next one would end after the
    deadline (at least one pass).  An op's latency is the median over the
    passes of its latency at the reference speed; it fails if it fails on
    any pass or its output differs from the first pass.  Returns (latency
    in ms per op, first pass records, failure per op, passes, raw ms per op
    and pass, import-time samples)."""
    started = time.perf_counter()
    first = runner.run_pass()
    failures = [r[3] for r in first]
    scaled = [[ms] for ms in scaled_ms(first)]
    raw = [[r[0] / 1e6] for r in first]
    passes, setup = 1, []
    while True:
        setup.append(import_time())
        now = time.perf_counter()
        if now + (now - started) / passes > started + seconds:
            break
        records = runner.run_pass(checked=False)
        for i, (r, ms) in enumerate(zip(records, scaled_ms(records))):
            scaled[i].append(ms)
            raw[i].append(r[0] / 1e6)
            if failures[i] is None and r[1:3] != first[i][1:3]:
                failures[i] = r[3] or "output differs from the first pass"
        passes += 1
    latency = [statistics.median(v) for v in scaled]
    return latency, first, failures, passes, raw, setup


def scaled_setup_s() -> float:
    """This interpreter's import time at the reference speed, scaled by the
    median of five reference loops run right after it."""
    refs = []
    for _ in range(5):
        start = time.perf_counter_ns()
        reference_loop()
        refs.append(time.perf_counter_ns() - start)
    return SETUP_S / (statistics.median(refs) / 1e6) * REFERENCE_MS


def import_time() -> float:
    """`import lielimits, lielimits.cli` timed in a fresh interpreter, at
    the reference speed."""
    proc = subprocess.run([sys.executable, __file__, "--import-only"], capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(proc.stdout)["setup_s"]


def _finite_rows(want):
    rows = []
    for j, c in enumerate(want):
        if c["kind"] != "FiniteSimple":
            continue
        counts = {}
        for weight, mult in ((c["natural"], c["k"]), (c["conatural"], c["l"])):
            if mult:
                counts[tuple(weight)] = counts.get(tuple(weight), 0) + mult
        rows.extend((j, w, m) for w, m in counts.items())
    return sorted(rows)


def latency_summary(ms) -> dict:
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) >= 2 else ms[0]
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": p90,
        "samples": len(ms),
        "beyond_p90": sum(1 for x in ms if x > p90),
    }


def size_metrics(ops, latency) -> dict:
    """Median latency per size bucket and the log-log slope of latency on size."""
    out = {}
    for var, (base, lows) in BUCKETS.items():
        pairs = [(op["size"][var], ms) for op, ms in zip(ops, latency) if var in op["size"]]
        for low in lows:
            inside = [t for s, t in pairs if low <= s < low * base]
            out[f"size.{var}.{low}-{low * base - 1}.p50_ms"] = statistics.median(inside) if inside else 0.0
        slope = 0.0
        if len({s for s, _ in pairs}) >= 2:
            xs = [math.log(s) for s, _ in pairs]
            ys = [math.log(t) for _, t in pairs]
            mx, my = statistics.fmean(xs), statistics.fmean(ys)
            slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                     / sum((x - mx) ** 2 for x in xs))
        out[f"size.{var}.slope"] = slope
    return out


def layer_metrics(tracer, runner, bytes_out, overhead_ratio) -> dict:
    totals = tracer.totals()

    def get(name, stat):
        return totals.get(name, {}).get(stat, 0)

    m = {}
    for name in ("algebras.dimension", "index.index_of_irrep", "algebras.weight_form",
                 "oracle.freudenthal", "oracle.weight_system", "oracle.trace_index",
                 "oracle.tensor_decompose", "index.embedding_index", "system.compute_labels",
                 "system.decompose", "system.subdiagram", "system.level_sums",
                 "system.stabilization", "linalg.rref", "linalg.nullspace_basis",
                 "linalg.in_row_space", "subspaces.build", "subspaces.init", "subspaces.perp",
                 "subspaces.classify_maximal"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    for name, seen in tracer.distinct.items():
        calls = get(name, "calls")
        m[f"{name}.distinct_ratio"] = len(seen) / calls if calls else 0.0
    for name in ("algebras.dominant_weights_up_to_dim", "socle.socle_report",
                 "socle.standard_invariants", "formats.load_json", "formats.parse",
                 "formats.report", "formats.dumps", "cli"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m.update(tracer.counters)
    hits, misses = runner.freudenthal_stats
    m["oracle.freudenthal.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    vertices = tracer.counters["system.vertices"]
    m["system.stabilization.per_vertex"] = get("system.stabilization", "calls") / vertices if vertices else 0.0
    busy = get("system.compute_labels", "incl_s") + get("system.decompose", "incl_s")
    m["system.vertices_per_s"] = vertices / busy if busy else 0.0
    m["formats.bytes_out"] = bytes_out
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r[1])
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, help="file for the raw spans of a traced run")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)
    if args.import_only:
        print(json.dumps({"setup_s": scaled_setup_s()}))
        return 0
    setup_s = scaled_setup_s()
    ops = json.loads(args.manifest.read_text(encoding="utf-8"))["ops"]
    # What exists now lives through the run; the collection before each op
    # then scans only what the ops made.
    gc.freeze()
    latency, first, failures, passes, raw, setup = timed_passes(Runner(ops), args.seconds)
    raw_ms = [ms for per_op in raw for ms in per_op]
    result = {"setup_samples": [setup_s, *setup], "passes": passes,
              "raw_p50_ms": statistics.median(raw_ms),
              "reference_ms": statistics.median(r[4] / 1e6 for r in first)}
    if args.trace:
        from tracer import Tracer

        # One traced pass: a fixed amount of work, so its counts repeat
        # exactly for a seed whatever the speed of the program.
        tracer = Tracer()
        runner = Runner(ops, tracer)
        with tracer:
            tracer.active = True
            traced = runner.run_pass(checked=False)
            tracer.active = False
        if digest(traced) != digest(first):
            failures.append("traced pass changed the output")
        result["layers"] = layer_metrics(tracer, runner, sum(r[2] for r in traced),
                                         sum(scaled_ms(traced)) / sum(scaled_ms(first)))
        result["layers"].update(size_metrics(ops, latency))
        result["spans"] = len(tracer.span_start)
        if args.spans:
            tracer.write(args.spans)
    failed = [f for f in failures if f]
    result.update(latency_summary(latency))
    result.update({
        "attempted": len(ops),
        "failed": len(failed),
        "correct": all(f == INCOMPLETE for f in failed),
        "failures": sorted(set(failed))[:10],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stdout_sha256": digest(first),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
