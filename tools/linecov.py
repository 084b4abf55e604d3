"""Statements of src/lielimits that the test suite never runs, per module.

Run from the repo root:

    PYTHONPATH=src python3 tools/linecov.py

It traces every line the pytest run over tests/ executes in src/lielimits
(sys.settrace, on every thread) and prints, per module, the line numbers
of the compiled statements that no test reached.  Tests that run the CLI
in a subprocess are not traced, so `__main__.py` always shows up.  Only
the standard library besides pytest itself.
"""

import sys
import threading
from itertools import groupby
from pathlib import Path

PACKAGE = (Path(__file__).resolve().parent.parent / "src" / "lielimits").resolve()
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
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        unrun = statements(code) - {line for f, line in ran if f == str(path)}
        print(f"{path.name}: {len(unrun)} unrun" + (f": {spans(unrun)}" if unrun else ""))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
