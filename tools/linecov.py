"""Statements of src/lielimits that the test suite never runs, per module.

Run from the repo root:

    PYTHONPATH=src python3 tools/linecov.py

It traces every line the pytest run over tests/ executes in src/lielimits
(sys.settrace, on every thread) and prints, per module, the line numbers
of the compiled statements that no test reached.  Tests that run the CLI
in a subprocess are not traced, so the statements that only a subprocess
runs (`SUBPROCESS_ONLY`) are listed apart.  It exits non-zero when the
tests fail or any other statement is unrun.  Only the standard library
besides pytest itself.
"""

import ast
import sys
import threading
from itertools import groupby
from pathlib import Path

PACKAGE = (Path(__file__).resolve().parent.parent / "src" / "lielimits").resolve()
# module -> its top-level definitions that only `python -m lielimits` or the `lielimits` script
# runs, by name ("__main__" is the `if __name__ == "__main__":` block); None: the whole module
SUBPROCESS_ONLY = {"__main__.py": None, "cli.py": ("entry", "__main__")}
ran: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(PACKAGE)):
        return _lines(frame, event, arg)
    return None


def statements(code) -> set[int]:
    """Line numbers of every instruction in `code` and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= statements(const)
    return lines


def subprocess_only(path: Path, source: str) -> set[int]:
    """Line numbers of the module's SUBPROCESS_ONLY definitions."""
    names = SUBPROCESS_ONLY.get(path.name, ())
    lines = set()
    for node in ast.parse(source).body:
        guard = isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        if names is None or ("__main__" if guard else getattr(node, "name", None)) in names:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def spans(lines) -> str:
    """1, 2, 3, 7 -> '1-3, 7'."""
    out = []
    for _, run in groupby(enumerate(sorted(lines)), lambda p: p[1] - p[0]):
        run = [line for _, line in run]
        out.append(str(run[0]) if len(run) == 1 else f"{run[0]}-{run[-1]}")
    return ", ".join(out)


def main() -> int:
    import pytest

    threading.settrace(_calls)
    sys.settrace(_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(PACKAGE.parents[1] / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        code = compile(source, str(path), "exec")
        unrun = statements(code) - {line for f, line in ran if f == str(path)}
        exempt = unrun & subprocess_only(path, source)
        unrun -= exempt
        total += len(unrun)
        print(f"{path.name}: {len(unrun)} unrun" + (f": {spans(unrun)}" if unrun else "")
              + (f" ({len(exempt)} subprocess-only: {spans(exempt)})" if exempt else ""))
    return int(status) or int(total > 0)


if __name__ == "__main__":
    sys.exit(main())
