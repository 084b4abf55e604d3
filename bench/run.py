"""The lielimits benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 50 --trace 0

Run from the repository root.  The run

1. imports the library once in a throwaway interpreter, so that compiling
   bytecode after a checkout is not timed;
2. generates the workload's inputs from the seed in a separate process
   (generate.py), which hands over only documents and expected answers;
3. times `import lielimits, lielimits.cli` in a few fresh interpreters;
4. runs the ops in one more fresh interpreter (worker.py), a closed loop
   with one caller, in passes over the op list, checking every op; after
   each pass the worker times the import once more.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  The lines before it name every metric with its unit and record
the run's metadata.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from generate import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# Fresh interpreters timing the import before the worker starts; the worker
# adds its own import and one more after each pass, and setup_s is the median.
SETUP_SAMPLES = 8
# Every child process must end within this many seconds of the start.
BUDGET_S = 170
START = time.monotonic()


class BenchError(Exception):
    pass


def child(args) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    timeout = max(1.0, BUDGET_S - (time.monotonic() - START))
    try:
        proc = subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} did not finish within {BUDGET_S} s of the start") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def metadata() -> dict:
    """Recorded, not gated: the commit, the interpreter, the CPUs and the
    line count of src/."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.exists() else None
        else:
            sha = ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "src_lines": src_lines}


def end_to_end(run: dict, setup: list[float]) -> dict:
    return {
        "ops_per_s": run["ops_per_s"],
        "op_p50_ms": run["op_p50_ms"],
        "op_p90_ms": run["op_p90_ms"],
        "setup_s": statistics.median(setup),
        "peak_rss_mib": run["peak_rss_mib"],
        "pass_frac": 1 - run["failed"] / run["attempted"],
    }


def bench(args, work: Path) -> dict:
    if not (ROOT / "src" / "lielimits" / "__init__.py").is_file():
        raise BenchError(f"no library source under {ROOT / 'src'}; run from the repository root")
    child(["-c", "import lielimits, lielimits.cli"])
    gen = ["--workload", args.workload, "--seed", args.seed, "--out", work]
    child([HERE / "generate.py", *gen, *(["--smoke"] if args.smoke else [])])
    setup = [json.loads(child([HERE / "worker.py", "--import-only"]))["setup_s"]
             for _ in range(1 if args.smoke else SETUP_SAMPLES)]
    cmd = [HERE / "worker.py", "--manifest", work / "manifest.json", "--seconds", args.seconds]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", out_dir / f"spans-{args.workload}.bin"]
    run = json.loads(child(cmd).splitlines()[-1])
    setup += run["setup_samples"]

    info = metadata()
    info.update({k: run[k] for k in ("passes", "reference_ms", "raw_p50_ms", "attempted",
                                     "failed", "failures", "stdout_sha256")})
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    if args.trace:
        values = run["layers"]
        print(f"  spans: {run['spans']}")
    else:
        values = end_to_end(run, setup)
        print(f"  setup samples: {len(setup)}; latency samples: {run['samples']} ops, "
              f"{run['beyond_p90']} beyond p90")
    # BENCHMARK.json names the metrics and their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one lielimits benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single setup sample, for a quick check")
    args = parser.parse_args(argv)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = bench(args, work)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
