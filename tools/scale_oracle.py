"""Wall times of the trace-form index and of tensor products on irreps of
growing size.

Run from the repo root:

    PYTHONPATH=src python3 tools/scale_oracle.py

For each irrep in CASES it prints the best of scale_chains.REPEAT runs of
`oracle.trace_index`, each with the library's lru_caches cleared first, so
every run computes the weight system and the Freudenthal multiplicities
afresh.  The long A1 strings and the A2 (k, k) family show how the cost
grows with string length; B3 (0, 0, k) and C3 (0, 0, k) put all of lam on
the short and on the long last simple root, which gives the longest
strings for their size; B3 (1, 3, 1) and D4 (3, 2, 0, 0) have
dimension over 10,000; omega_1 of A20 to A200, B20, C100, D30 and D100, and
the spin weight omega_100 of D100, have few weights, so their time is
mostly the root table of a large rank.  Each trace runs with its own
dimension as the bound.  The peak_MiB column is the tracemalloc peak of one
more cold run, taken outside the timed runs.  TENSOR_CASES time
`oracle.tensor_decompose` the same way, on products of dimension up to
TENSOR_DIM_BOUND.  Times are seconds at the reference speed (see
scale_chains.best_time).  Standard library only.
"""

import sys
import tracemalloc

import lielimits
from lielimits import algebras, oracle
from scale_chains import REPEAT, SPEED, best_time, clear_caches

CASES = (
    [("A1", (k,)) for k in (250, 500, 1000, 2000)]
    + [("A2", (k, k)) for k in (5, 10, 20)]
    + [("B3", (0, 0, k)) for k in (4, 8, 10)]
    + [("C3", (0, 0, k)) for k in (2, 4, 6)]
    + [("B3", (1, 3, 1)), ("D4", (3, 2, 0, 0))]
    + [(name, (1,) + (0,) * (int(name[1:]) - 1))
       for name in ("A20", "A40", "A60", "A100", "A200", "B20", "C100", "D30", "D100")]
    + [("D100", (0,) * 99 + (1,))]
)


def peak_mib(fn) -> float:
    """The tracemalloc peak of one cold run of fn, in MiB."""
    clear_caches()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

TENSOR_CASES = (
    ("A2", (3, 3), (3, 3)), ("A2", (5, 5), (5, 5)), ("C3", (2, 1, 0), (0, 0, 2)),
    ("B3", (0, 0, 4), (0, 0, 4)), ("D4", (1, 1, 0, 0), (0, 0, 1, 1)),
)
TENSOR_DIM_BOUND = 100_000


def main() -> int:
    print(f"lielimits {lielimits.__version__}, python {sys.version.split()[0]}, best of {REPEAT}, {SPEED}")
    print(f"{'algebra':<8} {'weight':<14} {'dim':>6} {'index':>12} {'trace_s':>9} {'peak_MiB':>9}")
    for name, lam in CASES:
        alg = algebras.SimpleAlgebra.parse(name)
        dim = algebras.dimension(alg, lam)
        seconds, value = best_time(lambda: oracle.trace_index(alg, lam, dim))
        peak = peak_mib(lambda: oracle.trace_index(alg, lam, dim))
        weight = str(lam) if len(lam) <= 4 else f"omega_{lam.index(1) + 1}"
        print(f"{name:<8} {weight:<14} {dim:>6} {value:>12} "
              f"{seconds:>9.4f} {peak:>9.2f}", flush=True)
    print(f"{'algebra':<8} {'tensor':<30} {'dim':>6} {'summands':>12} {'tensor_s':>9}")
    for name, lam, mu in TENSOR_CASES:
        alg = algebras.SimpleAlgebra.parse(name)
        seconds, value = best_time(lambda: oracle.tensor_decompose(alg, lam, mu, TENSOR_DIM_BOUND))
        dim = algebras.dimension(alg, lam) * algebras.dimension(alg, mu)
        print(f"{name:<8} {f'{lam} x {mu}':<30} {dim:>6} {len(value.summands):>12} "
              f"{seconds:>9.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
