"""Seeded inputs for the benchmark workloads.

Run as a script, this writes the input documents of one workload and a
manifest (the ordered op list with the answers known by construction) into
a work directory.  It runs in its own process, so nothing it computes can
warm a cache of the timed run.  Only `oracle_sweep` needs the library here,
to enumerate irreps by brute force; the chain, kernel and span generators
build their documents from the construction alone.

    python3 bench/generate.py --workload cli_mix --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

FIXTURES = "src/lielimits/fixtures"
MANIFEST_FORMAT = "lielimits-bench-manifest/1"
WORKLOADS = ("oracle_sweep", "cli_mix")

SWEEP_ALGEBRAS = ("A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4")
SWEEP_DIM_BOUND = 300
TENSOR_DIM_BOUND = 300
TENSOR_PAIRS = 64
# Copies of the cli_mix design (each with its own documents) in the op list.
BLOCKS = 2
# Every op list holds at least this many ops, so that at least ten latencies
# lie beyond the 90th percentile.
MIN_OPS = 100
# The smoke run caps every size of the designs below.
DEPTH_CAP = HEAD_CAP = WINDOW_CAP = 1000

SMOKE_SIZES = {
    "SWEEP_DIM_BOUND": 20, "TENSOR_DIM_BOUND": 20, "TENSOR_PAIRS": 4,
    "DEPTH_CAP": 6, "HEAD_CAP": 10, "WINDOW_CAP": 12, "BLOCKS": 1,
}

SYSTEM_FIXTURES = (
    "example1.json", "example3.json", "example4.json", "notstab.json", "refine_mixed.json",
    "s1.json", "s2.json", "s3.json", "s4.json", "so_chain.json", "tensor2.json",
)
# Exit codes of the system fixtures: notstab.json is too short to stabilize.
FIXTURE_EXIT = {"notstab.json": 3}

# (fixture, algebra, tag) for the shipped subspace fixtures, so that every
# case tag and NotMaximal appear: a kernel of a functional outside V_* is
# ib/iib (iiib under a form), a tail span{v_i : i >= N} is closed (ic/iic) or
# a nondegenerate summand (iiia), a non-closed subspace has a strictly larger
# double perp, and a plane of the split so form holds isotropic lines.
MAXIMAL_FIXTURES = (
    ("commutator.json", "gl", "ia"), ("codim1_kernel.json", "gl", "ib"),
    ("codim1_kernel_dual.json", "gl", "ib"), ("tail2.json", "gl", "ic"),
    ("tail3.json", "gl", "ic"), ("tail5.json", "gl", "ic"),
    ("so_form.json", "sl", "iia"), ("sp_form.json", "sl", "iia"),
    ("codim1_kernel.json", "sl", "iib"), ("codim1_kernel_dual.json", "sl", "iib"),
    ("tail2.json", "sl", "iic"), ("tail5.json", "so", "iiia"), ("tail3.json", "sp", "iiia"),
    ("codim1_kernel.json", "so", "iiib"), ("codim1_kernel.json", "sp", "iiib"),
    ("isotropic_line.json", "so", "iiic"), ("isotropic_line.json", "sp", "iiic"),
    ("codim2_kernel.json", "gl", "NotMaximal"), ("codim2_kernel.json", "sl", "NotMaximal"),
    ("dim2_nondeg.json", "so", "NotMaximal"), ("nonclosed_tail.json", "gl", "NotMaximal"),
    ("nonclosed_tail.json", "sl", "NotMaximal"),
)

INFINITE_KIND = {"sl": "SlInf", "so": "SoInf", "sp": "SpInf"}
CLI = ["--format", "json"]


# -- direct systems -----------------------------------------------------------


def algebra_for(cls: str, d: int) -> str:
    """Literal of the classical algebra of class sl/so/sp with natural dimension d."""
    if cls == "sl":
        return f"A{d - 1}"
    if cls == "sp":
        return f"C{d // 2}"
    return f"B{(d - 1) // 2}" if d % 2 else f"D{d // 2}"


def _so_dim(d: int) -> int:
    # so(6) and below must be entered under other names; skip those dimensions.
    return 7 if d == 6 else max(d, 5)


def _grow(cls: str, d: int) -> int:
    if cls == "sp":
        return d + 2
    d += 1
    return _so_dim(d) if cls == "so" else d


def _rank(literal: str) -> int:
    return int(literal[1:])


def _natural(literal: str) -> list[int]:
    return [1] + [0] * (_rank(literal) - 1)


def _conatural(literal: str) -> list[int]:
    return list(reversed(_natural(literal))) if literal[0] == "A" else _natural(literal)


def chain_system(rng: random.Random, depth: int, width: int, cls: str,
                 diagonal: int = 0, finite: bool = False):
    """A direct system of `width` parallel strings over `depth` levels.

    Every system is of one ambient class `cls` (sl, so or sp).  A string
    grows its natural dimension through standard edges on every fourth level
    and on the last three, which decide its kind; `diagonal` of the strings
    start with one diagonal edge (k, l, t) with k + l = 2, and with `finite`
    one string stays a fixed finite algebra.  The ambient natural module
    holds c copies of each string's natural (split into naturals and
    conaturals for sl) plus trivial lines, where c is the product of the edge
    multiplicities above the level, so the sum law holds by construction.
    The seed picks which strings are diagonal or finite, the number of
    copies and whether they are naturals or conaturals; the algebras and the
    number of branching records, and with them the cost of a system, are set
    by the arguments.

    Returns (document, expected) with the expected constituent per top-level
    position: its kind, its algebra when finite, and (k, l) at the top.
    """
    order = rng.sample(range(width), width)
    finite_at = order[0] if finite else None
    diag_strings = set(order[1:1 + diagonal] if finite else order[:diagonal])
    strings = []
    for j in range(width):
        dims = [{"sl": 3, "so": 5, "sp": 4}[cls]]
        mults = []
        for n in range(depth - 1):
            if n == 0 and j in diag_strings:
                # k + l = 2 copies plus t = 1 trivial line (2 for sp, to stay even)
                mults.append(2)
                dims.append(2 * dims[-1] + (2 if cls == "sp" else 1))
            else:
                grows = j != finite_at and (n >= depth - 4 or n % 4 == 3)
                mults.append(1)
                dims.append(_grow(cls, dims[-1]) if grows else dims[-1])
        # A diagonal sl edge is (k, l) = (1, 1); the self-dual naturals of
        # so and sp count as k.  The ambient holds the string's c copies as
        # naturals or, for sl, as conaturals: one record per string and level.
        edge_kl = [(1, 1) if kl == 2 and cls == "sl" else (kl, 0) for kl in mults]
        copies = [rng.choice((1, 2))]
        for kl in reversed(mults):
            copies.insert(0, copies[0] * kl)
        top_dual = cls == "sl" and rng.random() < 0.5
        splits = []
        for n, c in enumerate(copies):
            dual = top_dual if n >= depth - 2 else cls == "sl" and rng.random() < 0.5
            splits.append((0, c) if dual else (c, 0))
        algs = [algebra_for(cls, d) for d in dims]
        strings.append({"dims": dims, "algs": algs, "edges": edge_kl, "splits": splits})

    def record(factors, j, weight, mult):
        ws = [[0] * _rank(f) for f in factors]
        ws[j] = weight
        return {"weights": ws, "mult": mult}

    levels = []
    for n in range(depth):
        factors = [s["algs"][n] for s in strings]
        recs = []
        natural_dim = 0
        for j, s in enumerate(strings):
            k, l = s["splits"][n]
            if k:
                recs.append(record(factors, j, _natural(factors[j]), k))
            if l:
                recs.append(record(factors, j, _conatural(factors[j]), l))
            natural_dim += (k + l) * s["dims"][n]
        pad = _so_dim(natural_dim + 1) - natural_dim if cls == "so" else {"sl": 1, "sp": 2}[cls]
        if pad:
            recs.append({"weights": [[0] * _rank(f) for f in factors], "mult": pad})
        levels.append({
            "components": factors,
            "ambient": algebra_for(cls, natural_dim + pad),
            "ambient_branching": recs,
        })

    edges = []
    for n in range(depth - 1):
        sources = [s["algs"][n] for s in strings]
        branchings = []
        for j, s in enumerate(strings):
            k, l = s["edges"][n]
            recs = []
            if k:
                recs.append(record(sources, j, _natural(sources[j]), k))
            if l:
                recs.append(record(sources, j, _conatural(sources[j]), l))
            pad = s["dims"][n + 1] - (k + l) * s["dims"][n]
            if pad:
                recs.append({"weights": [[0] * _rank(f) for f in sources], "mult": pad})
            branchings.append(recs)
        edges.append({"branchings": branchings})

    expected = []
    for j, s in enumerate(strings):
        k, l = s["splits"][-1]
        if j == finite_at:
            expected.append({"kind": "FiniteSimple", "algebra": s["algs"][-1], "k": k, "l": l,
                             "natural": _natural(s["algs"][-1]),
                             "conatural": _conatural(s["algs"][-1])})
        else:
            expected.append({"kind": INFINITE_KIND[cls], "algebra": None, "k": k, "l": l})
    doc = {"format": "lielimits-system/1", "levels": levels, "edges": edges}
    return doc, expected


# -- subspace descriptors -----------------------------------------------------


def _nonzero(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _independent(f1, f2) -> bool:
    """Whether two eventually constant functionals (head, tail) are linearly
    independent: compare their values on the window plus the tail."""
    n = max(len(f1[0]), len(f2[0]))
    a = [Fraction(x) for x in f1[0]] + [Fraction(f1[1])] * (n - len(f1[0]) + 1)
    b = [Fraction(x) for x in f2[0]] + [Fraction(f2[1])] * (n - len(f2[0]) + 1)
    return any(a[i] * b[j] != a[j] * b[i] for i in range(n + 1) for j in range(i + 1, n + 1))


def _functional(rng: random.Random, length: int, tail: int):
    head = [rng.randint(-3, 3) for _ in range(length)]
    while head[-1] == tail:
        head[-1] = _nonzero(rng)
    return head, tail


def kernel_input(rng: random.Random, head_len: int, nonzero_tails):
    """The common kernel of one or two eventually constant functionals with
    heads of `head_len` entries; `nonzero_tails` holds one flag per
    functional, whether its constant tail is nonzero.

    Expected tag: a single functional with tail 0 lies in V_*, so its kernel
    is closed (ic/iic); with a nonzero tail the perp is zero and the kernel
    has codimension 1 (ib/iib).  Two independent functionals give a closed
    kernel only when both tails are 0; otherwise exactly one combination
    (or the one tail-free functional) survives in V_*, and its kernel is a
    strictly larger double perp (NotMaximal).
    """
    kind = rng.choice(("gl", "sl"))
    space = "V*" if rng.random() < 0.2 else "V"
    tails = [_nonzero(rng) if flag else 0 for flag in nonzero_tails]
    funcs = [_functional(rng, head_len, tails[0])]
    if len(tails) == 2:
        while True:
            f2 = _functional(rng, head_len, tails[1])
            if _independent(funcs[0], f2):
                break
        funcs.append(f2)
    if len(funcs) == 1:
        tag = ("ic", "iic") if tails[0] == 0 else ("ib", "iib")
    else:
        tag = ("ic", "iic") if tails == [0, 0] else ("NotMaximal", "NotMaximal")
    doc = {
        "format": "lielimits-subspace/1", "space": space, "tail_from": 1,
        "kernels": [{"head": [str(x) for x in h], "tail": str(t)} for h, t in funcs],
    }
    return kind, doc, tag[0] if kind == "gl" else tag[1]


def _odd_vector(rng: random.Random, odd) -> dict:
    return {i: _nonzero(rng) for i in rng.sample(odd, min(len(odd), 4))}


def span_input(rng: random.Random, variant: str, window: int, count: int):
    """A finite span whose largest basis index is `window`; `variant` is
    "<algebra>:<shape>".

    random: `count` random vectors on the same `count` + 1 hyperbolic pairs
        (tag not known in advance; generically a plane under so and an
        odd-dimensional span under sp are NotMaximal, the rest iiia).
    isotropic: `count` vectors supported on odd indices, isotropic for the
        split form pairing v_{2i-1} with v_{2i}, hence iiic.
    split: a recombined basis of `count` hyperbolic pairs {v_{2i-1}, v_{2i}},
        a nondegenerate summand with W + W^perp = V, hence iiia, except a
        plane under so, which contains isotropic lines (NotMaximal).
    gl: a finite-dimensional subspace is closed under double perp, hence ic.
    """
    kind, shape = variant.split(":")
    if shape == "isotropic":
        top = window if window % 2 else window - 1
        odd = list(range(1, top + 1, 2))
        vectors = [_odd_vector(rng, odd) for _ in range(count)]
        vectors[0][top] = _nonzero(rng)
        tag = "iiic"
    elif shape == "split":
        chosen = [window // 2] + rng.sample(range(1, window // 2), count - 1)
        basis = [i for p in chosen for i in (2 * p - 1, 2 * p)]
        # a random unitriangular recombination keeps the span
        vectors = []
        for r in range(len(basis)):
            vec = {basis[r]: 1}
            for c in range(r + 1, len(basis)):
                x = rng.randint(-2, 2)
                if x:
                    vec[basis[c]] = x
            vectors.append(vec)
        tag = "NotMaximal" if kind == "so" and count == 1 else "iiia"
    else:
        pairs = [window // 2] + rng.sample(range(1, window // 2), count)
        support = [i for p in pairs for i in (2 * p - 1, 2 * p)]
        vectors = [{i: _nonzero(rng) for i in support} for _ in range(count)]
        tag = "ic" if kind == "gl" else None
    doc = {
        "format": "lielimits-subspace/1", "space": "V",
        "generators": [{str(i): str(v) for i, v in sorted(vec.items())} for vec in vectors],
    }
    return kind, doc, tag


# -- irreps ------------------------------------------------------------------


def sweep_irreps(literal: str, bound: int):
    """All (weight, dim) with dim <= bound, by brute force over the label box.

    Independent of the pruned recursion in `dominant_weights_up_to_dim`; it
    relies only on the Weyl dimension growing in every label.
    """
    from itertools import product

    from lielimits.algebras import SimpleAlgebra, dimension

    alg = SimpleAlgebra.parse(literal)
    caps = []
    for i in range(alg.rank):
        k = 0
        while True:
            w = [0] * alg.rank
            w[i] = k + 1
            if dimension(alg, tuple(w)) > bound:
                break
            k += 1
        caps.append(k)
    out = []
    for w in product(*(range(c + 1) for c in caps)):
        d = dimension(alg, w)
        if d <= bound:
            out.append((list(w), d))
    return out


# -- manifests ---------------------------------------------------------------


class Manifest:
    def __init__(self, workload: str, seed: int, out: Path):
        self.workload, self.seed, self.out = workload, seed, out
        self.ops: list[dict] = []
        self.files = 0

    def write_doc(self, doc) -> str:
        path = self.out / f"in{self.files:05d}.json"
        self.files += 1
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        return str(path)

    @staticmethod
    def cli_op(argv, exit_code=0, expect=None, size=None) -> dict:
        return {"op": "cli", "argv": CLI + list(argv), "exit": exit_code,
                "expect": expect or {}, "size": size or {}}

    def save(self):
        doc = {"format": MANIFEST_FORMAT, "workload": self.workload, "seed": self.seed,
               "ops": self.ops}
        (self.out / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")


def build_oracle_sweep(m: Manifest, rng: random.Random, sizes: dict):
    bound = sizes["SWEEP_DIM_BOUND"]
    ops = []
    by_alg = {}
    for literal in SWEEP_ALGEBRAS:
        irreps = sweep_irreps(literal, bound)
        by_alg[literal] = irreps
        ops.append({"op": "enumerate", "alg": literal, "bound": bound,
                    "expect": {"weights": sorted(w for w, _ in irreps)}, "size": {}})
        for w, d in irreps:
            ops.append({"op": "irrep", "alg": literal, "weight": w, "size": {"dim": d}})
    pairs = []
    for literal, irreps in by_alg.items():
        nontrivial = [(w, d) for w, d in irreps if any(w)]
        for a in range(len(nontrivial)):
            for b in range(a, len(nontrivial)):
                (wl, dl), (wr, dr) = nontrivial[a], nontrivial[b]
                if dl * dr <= sizes["TENSOR_DIM_BOUND"]:
                    pairs.append((literal, wl, wr, dl * dr))
    for literal, wl, wr, d in rng.sample(pairs, min(sizes["TENSOR_PAIRS"], len(pairs))):
        ops.append({"op": "tensor", "alg": literal, "left": wl, "right": wr,
                    "expect": {"dim": d}, "size": {"dim": d}})
    rng.shuffle(ops)
    m.ops = ops


# The cli_mix op list holds BLOCKS copies of one fixed design of input sizes
# and shapes, spread over the ranges where the cost grows (depth 4-40, head
# length 8-48, window 10-80), so that the list costs about the same for every
# seed and the run-to-run spread stays small; the seed draws every detail of
# the documents.  A copy has 50 ops: 8 systems x 3 commands, 11 kernels and
# 15 spans.  Every fixture command joins the list once: 33 on the system
# fixtures and 22 on the subspace fixtures, 155 ops in all.
# (depth, width, class, diagonal strings, one finite string)
CHAIN_DESIGN = ((4, 4, "sl", 2, False), (6, 3, "so", 1, True), (8, 2, "sp", 1, False),
                (11, 4, "sl", 1, True), (15, 1, "so", 0, False), (20, 3, "sl", 1, False),
                (28, 2, "sp", 0, True), (40, 2, "sl", 1, False))
# (head length, nonzero tail per functional)
KERNEL_DESIGN = ((8, (False,)), (10, (True, True)), (11, (True,)), (14, (False, False)),
                 (16, (False,)), (20, (False, True)), (23, (True,)), (28, (True, False)),
                 (34, (False,)), (40, (True, True)), (48, (False,)))
# (window, variant, generators or hyperbolic pairs)
SPAN_DESIGN = ((10, "so:split", 1), (12, "gl:random", 3), (13, "so:random", 2),
               (16, "sp:isotropic", 2), (18, "sp:random", 3), (21, "so:isotropic", 3),
               (24, "sp:split", 2), (28, "so:random", 3), (33, "gl:random", 4),
               (38, "so:split", 2), (44, "sp:random", 2), (51, "so:isotropic", 2),
               (59, "sp:split", 2), (69, "gl:random", 3), (80, "sp:random", 3))


def chain_ops(m: Manifest, rng: random.Random, sizes: dict):
    """One design copy's chain commands: limit, socle and invariants on each
    system of CHAIN_DESIGN, kept together as a user runs them."""
    groups = []
    for depth, width, cls, diagonal, finite in CHAIN_DESIGN:
        depth = min(depth, sizes["DEPTH_CAP"])
        doc, expected = chain_system(rng, depth, width, cls, diagonal, finite)
        path = m.write_doc(doc)
        cmds = ["limit", "socle", "invariants"]
        rng.shuffle(cmds)
        groups.append([m.cli_op([cmd, path], expect={"report": cmd, "constituents": expected},
                                size={"L": depth, "width": width}) for cmd in cmds])
    return groups


def kernel_ops(m: Manifest, rng: random.Random, sizes: dict):
    """One design copy's `maximal gl|sl` on the kernels of KERNEL_DESIGN."""
    groups = []
    for n, tails in KERNEL_DESIGN:
        n = min(n, sizes["HEAD_CAP"])
        kind, doc, tag = kernel_input(rng, n, tails)
        groups.append([m.cli_op(["maximal", kind, m.write_doc(doc)], expect={"tag": tag},
                                size={"N": n})])
    return groups


def fixture_ops(m: Manifest):
    """limit, socle and invariants on every system fixture, and `maximal`
    on every case of MAXIMAL_FIXTURES, one op each."""
    groups = [[m.cli_op([cmd, f"{FIXTURES}/{name}"], exit_code=FIXTURE_EXIT.get(name, 0),
                        expect={"report": cmd})]
              for name in SYSTEM_FIXTURES for cmd in ("limit", "socle", "invariants")]
    groups += [[m.cli_op(["maximal", kind, f"{FIXTURES}/{name}"], expect={"tag": tag})]
               for name, kind, tag in MAXIMAL_FIXTURES]
    return groups


def span_ops(m: Manifest, rng: random.Random, sizes: dict):
    """One design copy's `maximal so|sp|gl` on the spans of SPAN_DESIGN."""
    groups = []
    for window, variant, count in SPAN_DESIGN:
        window = min(window, sizes["WINDOW_CAP"])
        kind, doc, tag = span_input(rng, variant, window, count)
        groups.append([m.cli_op(["maximal", kind, m.write_doc(doc)],
                                expect={"tag": tag, "perp3": True}, size={"W": window})])
    return groups


def build_cli_mix(m: Manifest, rng: random.Random, sizes: dict):
    groups = fixture_ops(m)
    for _ in range(sizes["BLOCKS"]):
        groups += chain_ops(m, rng, sizes) + kernel_ops(m, rng, sizes) + span_ops(m, rng, sizes)
    rng.shuffle(groups)
    m.ops = [op for group in groups for op in group]


BUILDERS = {"oracle_sweep": build_oracle_sweep, "cli_mix": build_cli_mix}


def default_sizes(smoke: bool) -> dict:
    sizes = {name: globals()[name] for name in SMOKE_SIZES}
    if smoke:
        sizes.update(SMOKE_SIZES)
    return sizes


def generate(workload: str, seed: int, out: Path, smoke: bool = False) -> Manifest:
    out.mkdir(parents=True, exist_ok=True)
    m = Manifest(workload, seed, out)
    # Each workload draws from its own stream of the seed.
    rng = random.Random(f"{workload}:{seed}")
    BUILDERS[workload](m, rng, default_sizes(smoke))
    if not smoke and len(m.ops) < MIN_OPS:
        raise ValueError(f"{workload} has {len(m.ops)} ops, fewer than {MIN_OPS}")
    m.save()
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for a quick check")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
