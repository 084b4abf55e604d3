"""Wall times of `lielimits maximal` on subspaces with growing windows.

Run from the repo root:

    PYTHONPATH=src python3 tools/scale_subspaces.py

For each window M in WINDOWS it writes three subspace documents to a temp
dir: the span of e1, e3 + 2 e_{M-1} and e5 (classified under so: an
isotropic space, case iiic), and two codimension-2 kernels whose heads are
M-1 seeded random entries (under gl: with tails 0 the kernel is closed,
case ic; with tails 1 and 2 it is not, and the report carries a witness).
It prints the best of scale_chains.REPEAT runs of: classify (parse the
document, then `subspaces.classify_maximal`) and the whole
`lielimits --format json maximal` command in process, whose report lists
the big side of each subspace as dense rows of length M, in seconds at
the reference speed (see scale_chains.best_time).  Standard library only.
"""

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import lielimits
from lielimits import cli, formats, subspaces
from scale_chains import REPEAT, SPEED, best_time

WINDOWS = (51, 201, 801)


def kernel_doc(window: int, tails, rng: random.Random) -> dict:
    def head():
        return [str(rng.randrange(-3, 4)) for _ in range(window - 2)] + ["5"]

    return {"format": formats.SUBSPACE_FORMAT, "space": "V", "tail_from": 1,
            "kernels": [{"head": head(), "tail": str(t)} for t in tails]}


def span_doc(window: int) -> dict:
    return {"format": formats.SUBSPACE_FORMAT, "space": "V",
            "generators": [{"1": "1"}, {"3": "1", str(window - 1): "2"}, {"5": "1"}]}


def cases(window: int):
    """(label, algebra kind, document, expected tag) of each input."""
    rng = random.Random(window)
    return (
        ("so span", "so", span_doc(window), "iiic"),
        ("gl kernel closed", "gl", kernel_doc(window, (0, 0), rng), "ic"),
        ("gl kernel open", "gl", kernel_doc(window, (1, 2), rng), "NotMaximal"),
    )


def measure(kind: str, path: str, tag: str) -> tuple[float, float]:
    form = {"so": subspaces.StandardForm("symmetric"), "gl": None}[kind]

    def classify():
        w = formats.subspace_input_from_doc(formats.load_json(path))
        return subspaces.classify_maximal(kind, w, form)

    def command():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--format", "json", "maximal", kind, path])
        if code != 0:
            raise SystemExit(f"maximal {kind} exited {code} on {path}")

    classify_s, verdict = best_time(classify)
    if verdict.tag != tag:
        raise SystemExit(f"maximal {kind} on {path} gave {verdict.tag}, expected {tag}")
    command_s, _ = best_time(command)
    return classify_s, command_s


def main() -> int:
    print(f"lielimits {lielimits.__version__}, python {sys.version.split()[0]}, best of {REPEAT}, {SPEED}")
    print(f"{'M':>5} {'input':<18} {'classify_s':>10} {'maximal_s':>10}")
    with tempfile.TemporaryDirectory() as tmp:
        for window in WINDOWS:
            for n, (label, kind, doc, tag) in enumerate(cases(window)):
                path = Path(tmp) / f"w{window}_{n}.json"
                path.write_text(json.dumps(doc))
                classify_s, command_s = measure(kind, str(path), tag)
                print(f"{window:>5} {label:<18} {classify_s:>10.4f} {command_s:>10.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
