"""Wall times of the chain commands on 3-wide standard chains of growing depth.

Run from the repo root:

    PYTHONPATH=src python3 tools/scale_chains.py

For each depth L in DEPTHS it writes one system document to a temp dir,
then the two large-rank documents of LARGE_RANK (the 10-level diagonal
doubling chain A1 -> A3 -> ... -> A1023 and a one-level A1000 document,
where the Weyl dimension of the natural module dominates; their one
constituent is finite, so they have no `refine` time and print nan), and
prints the best of REPEAT runs of: parse (load_json + system_from_doc),
compute_labels, decompose, and the whole `lielimits --format json limit`,
`lielimits --format json socle` and `lielimits --format json refine
--constituent 0` commands in process.  `limit` prints every origin's level
sums, W*L^2/2 numbers, so it cannot grow linearly in L; `socle` and
`refine` can.  Every run starts with the library's lru_caches cleared,
as a fresh command does.  Times are at the reference speed of the
benchmark (bench/worker.py), so that runs on a host whose speed swings
can be compared; `best_time` does this for the other scaling tools too.
Standard library only.
"""

import contextlib
import io
import gc
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import lielimits
from lielimits import cli, formats, system

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from worker import REFERENCE_MS, reference_loop  # noqa: E402

DEPTHS = (40, 80, 160, 320)
REPEAT = 3
WIDTH = 3
REFERENCE_RUNS = 5
SPEED = f"seconds at the reference speed (bench/worker.py reference_loop = {REFERENCE_MS} ms)"


def _weight(rank, first):
    return [first] + [0] * (rank - 1)


def chain_doc(depth: int) -> dict:
    """WIDTH parallel sl strings A_r -> A_r' with standard edges.

    The rank starts at 2 and grows by one on every fourth level and on the
    last three, so every string is an sl(infinity) constituent.  The ambient
    at each level is the sum of the naturals plus one trivial line.
    """
    ranks = [2]
    for n in range(depth - 1):
        ranks.append(ranks[-1] + (1 if n >= depth - 4 or n % 4 == 3 else 0))

    def record(rank, j, first, mult):
        return {"weights": [_weight(rank, first if i == j else 0) for i in range(WIDTH)],
                "mult": mult}

    levels = []
    for r in ranks:
        recs = [record(r, j, 1, 1) for j in range(WIDTH)] + [record(r, -1, 0, 1)]
        levels.append({"components": [f"A{r}"] * WIDTH,
                       "ambient": f"A{WIDTH * (r + 1)}",
                       "ambient_branching": recs})
    edges = []
    for r, r_next in zip(ranks, ranks[1:]):
        branchings = []
        for j in range(WIDTH):
            recs = [record(r, j, 1, 1)]
            if r_next > r:
                recs.append(record(r, -1, 0, r_next - r))
            branchings.append(recs)
        edges.append({"branchings": branchings})
    return {"format": formats.SYSTEM_FORMAT, "levels": levels, "edges": edges}


def natural_string(ranks) -> dict:
    """One sl string through the ranks inside the top level's sl: the natural
    of each level restricts to (r' + 1)/(r + 1) copies of the natural below
    (diagonal edges), the ambient to (top + 1)/(r + 1) copies."""
    top = ranks[-1]
    levels = [{"components": [f"A{r}"], "ambient": f"A{top}",
               "ambient_branching": [{"weights": [_weight(r, 1)], "mult": (top + 1) // (r + 1)}]}
              for r in ranks]
    edges = [{"branchings": [[{"weights": [_weight(r, 1)], "mult": (r_next + 1) // (r + 1)}]]}
             for r, r_next in zip(ranks, ranks[1:])]
    return {"format": formats.SYSTEM_FORMAT, "levels": levels, "edges": edges}


LARGE_RANK = {"doubling-A1023": natural_string([2 ** k - 1 for k in range(1, 11)]),
              "A1000": natural_string([1000])}


def clear_caches():
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "lielimits" or name.startswith("lielimits.")):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def reference_s() -> float:
    """The median wall time of REFERENCE_RUNS reference loops: the host's speed now."""
    times = []
    for _ in range(REFERENCE_RUNS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def best_time(fn) -> tuple[float, object]:
    """The best of REPEAT cold runs of fn, each at the reference speed: its
    wall time times REFERENCE_MS over the reference loop timed just before."""
    best, result = None, None
    for _ in range(REPEAT):
        clear_caches()
        reference = reference_s()
        gc.collect()
        start = time.perf_counter()
        result = fn()
        elapsed = (time.perf_counter() - start) / reference * REFERENCE_MS / 1e3
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def measure(path: str, refine: bool = True) -> dict[str, float]:
    def parse():
        return formats.system_from_doc(formats.load_json(path))

    def command(name, *options):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--format", "json", name, *options, path])
        if code != 0:
            raise SystemExit(f"{name} exited {code} on {path}")

    parse_s, (levels, edges) = best_time(parse)
    labels_s, _ = best_time(lambda: system.compute_labels(levels, edges))
    # decompose runs on a fresh graph each time, so no memo of an earlier
    # run is reused; the labels are not part of its time.
    graphs = []
    for _ in range(REPEAT):
        graphs.append(system.compute_labels(levels, edges))
    decompose_s, _ = best_time(lambda: system.decompose(graphs.pop()))
    limit_s, _ = best_time(lambda: command("limit"))
    socle_s, _ = best_time(lambda: command("socle"))
    times = {"parse": parse_s, "compute_labels": labels_s, "decompose": decompose_s,
             "limit": limit_s, "socle": socle_s, "refine": float("nan")}
    if refine:
        times["refine"], _ = best_time(lambda: command("refine", "--constituent", "0"))
    return times


def main() -> int:
    print(f"lielimits {lielimits.__version__}, python {sys.version.split()[0]}, "
          f"width {WIDTH}, best of {REPEAT}, {SPEED}")
    print(f"{'L':>14} {'parse_s':>9} {'labels_s':>9} {'decomp_s':>9} {'limit_s':>9} {'socle_s':>9} "
          f"{'refine_s':>9}")
    docs = {str(depth): chain_doc(depth) for depth in DEPTHS} | LARGE_RANK
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            t = measure(str(path), refine=name not in LARGE_RANK)
            print(f"{name:>14} {t['parse']:>9.4f} {t['compute_labels']:>9.4f} "
                  f"{t['decompose']:>9.4f} {t['limit']:>9.4f} {t['socle']:>9.4f} {t['refine']:>9.4f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
