"""Record one BENCH_<n>.json: both benchmark workloads and the scaling tools.

Run from the repository root:

    python3 tools/bench.py N [--seed SEED] [--seconds SECONDS]

It runs `bench/run.py` for `oracle_sweep` and `cli_mix` (one seed, end-to-end
metrics only), then `tools/scale_chains.py`, `tools/scale_oracle.py` and
`tools/scale_subspaces.py`, each as its own process, and writes BENCH_N.json
at the root: every workload's result line as `bench/run.py` prints it, the
printed tables of the scaling tools, the git commit, the machine, the Python
version and the line count of `src/`.  It measures nothing itself.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("oracle_sweep", "cli_mix")
SCALING_TOOLS = ("scale_chains", "scale_oracle", "scale_subspaces")


def _run(argv, env=None) -> str:
    """The stdout of a command; its stderr goes to ours."""
    return subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, env=env).stdout


def _git(*args) -> str | None:
    """Git's answer, or None outside a work tree (such as a `git archive` copy)."""
    try:
        return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="number of the BENCH_<n>.json to write")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    args = parser.parse_args(argv)

    workloads = {}
    for workload in WORKLOADS:
        out = _run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", "0"])
        workloads[workload] = json.loads(out.splitlines()[-1])
        print(f"{workload}: {workloads[workload]['metrics']['ops_per_s']}", flush=True)

    env = {**os.environ, "PYTHONPATH": "src"}
    scaling = {}
    for tool in SCALING_TOOLS:
        scaling[tool] = _run([sys.executable, f"tools/{tool}.py"], env).splitlines()
        print(*scaling[tool], sep="\n", flush=True)

    record = {
        "git": {"commit": _git("rev-parse", "HEAD"), "src_changes": _git("status", "--porcelain", "src")},
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": sys.version.split()[0],
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(Path("src").rglob("*.py"))),
        "bench": {"seed": args.seed, "seconds": args.seconds, "workloads": workloads},
        "scaling": scaling,
    }
    path = Path(f"BENCH_{args.n}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
