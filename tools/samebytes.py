"""Same output bytes as another commit: run one fixed table of CLI argv lists
(and the demos) against this tree and against REF, and print every entry
whose stdout, stderr or exit code differs, then a count.

Run from the repo root (stdlib only):

    python3 tools/samebytes.py REF        # e.g. HEAD~1

`git archive REF` is extracted into a temporary directory.  One child
interpreter per tree runs the whole table in process, with every
`lru_cache` of the package cleared before each entry and COLUMNS fixed, and
reports a digest of (exit code, stdout, stderr) per entry; a SystemExit
(--help, a usage error) counts by its code.  Both trees read the same inputs:
the fixtures and demos of this tree, and documents generated here.

The table: both formats x every system fixture under limit, refine, refine
--constituent 0, socle and invariants; embed and index --embedding on the
embedding fixtures; maximal gl/sl/so/sp on every subspace fixture; both
formats x the CLI ops of the bench's `cli_mix` workload for seeds 7, 201
and 555 (from bench/generate.py); every single-field mutation (MUTATIONS,
deletion included) of s2.json, example4.json, tensor2.json, so_chain.json
and diag_a5_a11.json under the commands of its document kind; --help and
every command's --help; the usage errors of USAGE_ERRORS; both formats x
the numbers too long to print or to read, and the rational exponents past
the digit limit, of too_long_entries; both formats x `maximal gl` and
`maximal sl` on a tail from WIDE_TAIL_FROM, a window far wider than any
other entry's; both formats x the CLI paths of coverage_entries that no
other entry runs (index on large ranks among them); both formats x `index`
on omega_1 and omega_2 at EARLY_EXIT_RANKS and on omega_n and the spin weight
at the smallest of them, in every series; both formats x
`oracle freudenthal` and `oracle trace` on every irrep of dimension <=
ORACLE_DIM_BOUND over the bench's sweep algebras, `oracle tensor` on
ORACLE_TENSOR_PAIRS pairs drawn with ORACLE_SEED, both on omega_1 of the
ORACLE_LARGE algebras, `oracle trace` on the ORACLE_MINUSCULE weights under
MINUSCULE_DIM_BOUND, and ORACLE_EXTRAS (the selftest, a dimension bound, a
non-dominant weight, and global options given on both sides of the command or
nowhere); the demos.
It is a correctness check, not a timer.  The exit code is 1 when some
entry differs.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import runpy
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "lielimits" / "fixtures"
FORMATS = (["--format", "json"], ["--format", "human"])
COMMANDS = {
    "lielimits-system/1": (["limit"], ["refine"], ["refine", "--constituent", "0"], ["socle"],
                           ["invariants"]),
    "lielimits-embedding/1": (["embed"], ["index", "--embedding"]),
    "lielimits-subspace/1": tuple(["maximal", kind] for kind in ("gl", "sl", "so", "sp")),
}
MUTATED = ("s2.json", "example4.json", "tensor2.json", "so_chain.json", "diag_a5_a11.json")
MUTATIONS = (
    None, True, False, 0, 1, -1, 2, 3, 1.5, "", "x", "A0", "A1", "A2", "B1", "D4", "-1", "0",
    "1/0", "1/2", [], [0], ["x"], [[1]], {}, {"x": 1},
)  # and deletion
MUTATED_FILE = "mutated.json"  # relative to each child's own working directory
CLI_MIX_SEEDS = (7, 201, 555)
COMMAND_NAMES = ("index", "embed", "limit", "refine", "socle", "invariants", "maximal", "oracle")
USAGE_ERRORS = ([], ["bogus", "FILE"], ["maximal", "xx", "FILE"], ["--seed", "abc", "index", "A1", "1"],
                ["limit"])
WIDE_TAIL_FROM = 2000  # about 0.5-0.8 s per entry on a 2-CPU sandbox
ORACLE_DIM_BOUND = 60
ORACLE_TENSOR_PAIRS = 64
ORACLE_SEED = 22
EARLY_EXIT_RANKS = (300, 1200)
ORACLE_LARGE = ("A20", "A40", "A60", "B20", "D30")  # omega_1 at ranks where the root data costs most
# minuscule weights, as (algebra, 0-based position of the 1), whose every step up leaves the chamber
ORACLE_MINUSCULE = (("A40", 19), ("B20", 19), ("C30", 0), ("D30", 29))
MINUSCULE_DIM_BOUND = 10**12
ORACLE_EXTRAS = (["oracle", "selftest"], ["--seed", "5", "oracle", "selftest"],
                 ["--dim-bound", "10", "oracle", "freudenthal", "A2", "2,2"],
                 ["--dim-bound", "10", "oracle", "tensor", "A2", "1,1", "1,1"],
                 ["oracle", "trace", "A2", "1,-1"], ["oracle", "tensor", "B2", "1,0", "2,-1"],
                 ["--seed", "1", "oracle", "selftest", "--seed", "2"],
                 ["--format", "json", "index", "A2", "1,1", "--format", "human"],
                 ["oracle", "trace", "A1", "5000"],
                 ["oracle", "trace", "A2", "3,3", "--dim-bound", "10"])


def _positions(node, path=()):
    """Every key/index path of a JSON document (root excluded)."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def _labels(weight) -> str:
    return ",".join(map(str, weight))


def oracle_entries(generate) -> list[dict]:
    """The oracle rows; the irreps are enumerated with this tree's library."""
    sys.path.insert(0, str(ROOT / "src"))
    argvs, pairs = [], []
    for literal in generate.SWEEP_ALGEBRAS:
        irreps = generate.sweep_irreps(literal, ORACLE_DIM_BOUND)
        argvs += [["oracle", op, literal, _labels(w)] for w, _ in irreps for op in ("freudenthal", "trace")]
        pairs += [(literal, a, b) for a, da in irreps for b, db in irreps
                  if any(a) and any(b) and da * db <= generate.TENSOR_DIM_BOUND]
    argvs += [["oracle", "tensor", literal, _labels(a), _labels(b)]
              for literal, a, b in random.Random(ORACLE_SEED).sample(pairs, ORACLE_TENSOR_PAIRS)]
    argvs += [["oracle", op, literal, _labels([1] + [0] * (int(literal[1:]) - 1))]
              for literal in ORACLE_LARGE for op in ("freudenthal", "trace")]
    argvs += [["--dim-bound", str(MINUSCULE_DIM_BOUND), "oracle", "trace", literal,
               _labels([int(i == k) for i in range(int(literal[1:]))])] for literal, k in ORACLE_MINUSCULE]
    return [{"argv": fmt + argv} for argv in argvs + list(ORACLE_EXTRAS) for fmt in FORMATS]


def too_long_entries(work: Path) -> list[dict]:
    """An index and a subspace basis entry past the interpreter's limit on int
    digits, rational exponents past it in a generator and a kernel head, and a
    system file integer past it."""
    subspaces = {
        "exponent_generator": {"generators": [{"1": "1e5000", "2": "1"}, {"3": "1"}]},
        "too_long_basis": {"generators": [{"1": "1e3000", "2": "1e-3000"}, {"3": "1"}]},
        "exponent_kernel_head": {"tail_from": 1, "kernels": [{"head": ["1e5000"], "tail": "1"}]},
    }
    argvs = [["index", "A200", ",".join(["1"] * 200)]]
    for name, fields in subspaces.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps({"format": "lielimits-subspace/1", **fields}))
        argvs.append(["maximal", "gl", str(path)])
    system = work / "too_long_system.json"
    text = (FIXTURES / "s2.json").read_text(encoding="utf-8")
    system.write_text(text.replace('"mult": 1', '"mult": ' + "1" * 5001, 1))
    argvs.append(["limit", str(system)])
    return [{"argv": fmt + argv} for argv in argvs for fmt in FORMATS]


def wide_entries(work: Path) -> list[dict]:
    """`maximal gl` and `maximal sl` on the tail span{v_i : i >= WIDE_TAIL_FROM}."""
    path = work / "wide_tail.json"
    path.write_text(json.dumps({"format": "lielimits-subspace/1", "tail_from": WIDE_TAIL_FROM}))
    return [{"argv": fmt + ["maximal", kind, str(path)]} for kind in ("gl", "sl") for fmt in FORMATS]


def coverage_entries(work: Path) -> list[dict]:
    """Rows for the CLI paths no other entry runs: invariants subsets (good, finite and
    unreadable), an embedding with a two-factor source, a truncated JSON file, the
    argument-count errors of index and oracle, the resource bounds, and index on large
    ranks (sparse and dense weights)."""
    embedding = work / "two_factor_embedding.json"
    embedding.write_text(json.dumps({
        "format": "lielimits-embedding/1", "source": ["A1", "A2"], "target": "A5",
        "branching": [{"weights": [[1], [0, 0]], "mult": 1}, {"weights": [[0], [1, 0]], "mult": 1},
                      {"weights": [[0], [0, 0]], "mult": 1}]}))
    truncated = work / "truncated.json"
    text = (FIXTURES / "s2.json").read_text(encoding="utf-8")
    truncated.write_text(text[:len(text) // 2])
    s2, s4 = str(FIXTURES / "s2.json"), str(FIXTURES / "s4.json")
    argvs = [["invariants", "--subset", "0", "--subset", "0,1", s2], ["invariants", "--subset", "1", s4],
             ["invariants", "--subset", "0,x", s2], ["embed", str(embedding)],
             ["index", "--embedding", str(embedding)], ["limit", str(truncated)], ["index"],
             ["index", "B2", "1,1,1"], ["oracle", "trace", "A2"], ["oracle", "selftest", "1"],
             ["--dim-bound", "0", "index", "A1", "1"], ["--dim-bound", "8", "oracle", "selftest"]]
    argvs += [["index", literal, _labels(weight)] for literal, weight in
              (("A400", [1] + [0] * 399), ("C300", [1] + [0] * 299), ("D300", [1] + [0] * 299),
               ("A400", [0] * 199 + [1] + [0] * 200))]
    return [{"argv": fmt + argv} for argv in argvs + early_exit_argvs() for fmt in FORMATS]


def early_exit_argvs() -> list[list[str]]:
    """index on omega_1 and omega_2 at the EARLY_EXIT_RANKS of each series, where the Weyl
    dimension stops at the last row a weight moves, and on omega_n and the spin weight
    (omega_{n-1} for D) at the smallest: they move every row, and B, C and D take about
    40 s each at rank 1200 (a 2-CPU sandbox)."""
    argvs = []
    for series in "ABCD":
        for n in EARLY_EXIT_RANKS:
            picks = {0, 1} | ({n - 2, n - 1} if n == EARLY_EXIT_RANKS[0] else set())
            argvs += [["index", f"{series}{n}", _labels([int(i == k) for i in range(n)])]
                      for k in sorted(picks) if k != n - 2 or series == "D"]
    return argvs


def table(work: Path) -> list[dict]:
    """The entries: {"argv": [...]}, {"demo": path} or, for a mutation, an argv on
    MUTATED_FILE and "mutate": [fixture, path, value, delete]."""
    entries = []
    docs = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in sorted(FIXTURES.glob("*.json"))}
    for name, doc in docs.items():
        for command in COMMANDS[doc["format"]]:
            entries += [{"argv": fmt + command + [str(FIXTURES / name)]} for fmt in FORMATS]
    sys.path.insert(0, str(ROOT / "bench"))
    import generate  # the bench's input generator: stdlib only for cli_mix

    for seed in CLI_MIX_SEEDS:
        manifest = generate.generate("cli_mix", seed, work / f"cli_mix_{seed}")
        for op in manifest.ops:
            argv = [a.replace(generate.FIXTURES, str(FIXTURES)) for a in op["argv"]]
            entries += [{"argv": fmt + argv[2:]} for fmt in FORMATS]
    for name in MUTATED:
        doc = docs[name]
        for path in _positions(doc):
            for value, delete in [(v, False) for v in MUTATIONS] + [(None, True)]:
                entries += [{"argv": ["--format", "json"] + command + [MUTATED_FILE],
                             "mutate": [name, path, value, delete]}
                            for command in COMMANDS[doc["format"]]]
    entries += [{"argv": argv} for argv in [["--help"]] + [[name, "--help"] for name in COMMAND_NAMES]]
    entries += [{"argv": argv} for argv in USAGE_ERRORS]
    entries += too_long_entries(work)
    entries += wide_entries(work)
    entries += coverage_entries(work)
    entries += oracle_entries(generate)
    entries += [{"demo": str(p)} for p in sorted((ROOT / "demos").glob("*.py"))]
    return entries


def _mutated(doc, path, value, delete):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def run_child(table_path: str, out_path: str) -> None:
    """Run every entry in this interpreter; write one digest per entry."""
    import lielimits
    import lielimits.cli

    if not Path(lielimits.__file__).resolve().is_relative_to(Path(os.environ["PYTHONPATH"]).resolve()):
        raise SystemExit(f"imported {lielimits.__file__}, not the tree under test")
    caches = {id(v): v for name, module in list(sys.modules.items())
              if name.split(".")[0] == "lielimits" and module is not None
              for v in vars(module).values() if hasattr(v, "cache_clear")}.values()
    docs = {}
    digests = []
    for entry in json.loads(Path(table_path).read_text(encoding="utf-8")):
        for cache in caches:
            cache.cache_clear()
        if "mutate" in entry:
            name, path, value, delete = entry["mutate"]
            if name not in docs:
                docs[name] = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
            Path(MUTATED_FILE).write_text(json.dumps(_mutated(docs[name], path, value, delete)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if "demo" in entry:
                    runpy.run_path(entry["demo"], run_name="__main__")
                    code = 0
                else:
                    code = lielimits.cli.main(entry["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # noqa: BLE001 -- an escape is part of the output
                code = f"{type(exc).__name__}: {exc}"
        blob = json.dumps([code, out.getvalue(), err.getvalue()]).encode()
        digests.append(hashlib.sha256(blob).hexdigest())
    Path(out_path).write_text(json.dumps(digests), encoding="utf-8")


def _label(entry) -> str:
    if "demo" in entry:
        return f"demo {Path(entry['demo']).name}"
    label = " ".join(entry["argv"])
    if "mutate" in entry:
        name, path, value, delete = entry["mutate"]
        label += f"  ({name} at {path}: {'deleted' if delete else json.dumps(value)})"
    return label


def main(argv) -> int:
    if len(argv) == 4 and argv[1] == "--child":
        run_child(argv[2], argv[3])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", argv[1]], cwd=ROOT, capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "tree", **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        entries = table(tmp)
        (tmp / "table.json").write_text(json.dumps(entries), encoding="utf-8")
        children = []
        for side, tree in (("this", ROOT), ("ref", tmp / "tree")):
            (tmp / side).mkdir()
            env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
                   "COLUMNS": "80"}
            children.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--child", str(tmp / "table.json"),
                 str(tmp / f"{side}.json")], cwd=tmp / side, env=env))
        if any(child.wait() for child in children):
            print("a child interpreter failed", file=sys.stderr)
            return 2
        this, ref = (json.loads((tmp / f"{side}.json").read_text()) for side in ("this", "ref"))
    differ = [entry for entry, a, b in zip(entries, this, ref) if a != b]
    for entry in differ:
        print(_label(entry))
    print(f"{len(differ)} of {len(entries)} entries differ from {argv[1]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
