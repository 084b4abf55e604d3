"""Wall times of the trace-form index on irreps of growing size.

Run from the repo root:

    PYTHONPATH=src python3 tools/scale_oracle.py

For each irrep in CASES it prints the best of scale_chains.REPEAT runs of
`oracle.trace_index`, each with the library's lru_caches cleared first, so
every run computes the weight system and the Freudenthal multiplicities
afresh.  The long A1 strings and the A2 (k, k) family show how the cost
grows with string length; B3 (0, 0, k) and C3 (0, 0, k) put all of lam on
the short and on the long last simple root, the extremes of the label
bound behind the weight code; B3 (1, 3, 1) and D4 (3, 2, 0, 0) have
dimension over 10,000.  Times are seconds at the reference speed (see
scale_chains.best_time).  Standard library only.
"""

import sys

import lielimits
from lielimits import algebras, oracle
from scale_chains import REPEAT, SPEED, best_time

CASES = (
    [("A1", (k,)) for k in (250, 500, 1000, 2000)]
    + [("A2", (k, k)) for k in (5, 10, 20)]
    + [("B3", (0, 0, k)) for k in (4, 8, 10)]
    + [("C3", (0, 0, k)) for k in (2, 4, 6)]
    + [("B3", (1, 3, 1)), ("D4", (3, 2, 0, 0))]
)
DIM_BOUND = 20_000


def main() -> int:
    print(f"lielimits {lielimits.__version__}, python {sys.version.split()[0]}, best of {REPEAT}, {SPEED}")
    print(f"{'algebra':<8} {'weight':<14} {'dim':>6} {'index':>12} {'trace_s':>9}")
    for name, lam in CASES:
        alg = algebras.SimpleAlgebra.parse(name)
        seconds, value = best_time(lambda: oracle.trace_index(alg, lam, DIM_BOUND))
        print(f"{name:<8} {str(lam):<14} {algebras.dimension(alg, lam):>6} {value:>12} "
              f"{seconds:>9.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
